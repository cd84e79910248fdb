"""Building blocks beta_w and the recursive BMOA/Bloch witness constructions.

The block is beta_w(z) = log(e / (1 - sigma_{w*}(z) conj(w))) with the
non-involutive Mobius sigma_a(z) = (z - a)/(1 - conj(a) z) and w* the
hyperbolic midpoint of [0, w].  NOTE ON THE SIGN CONVENTION: defining the
block through the involution phi_{w*} = -sigma_{w*} instead would flip the
sign of the inner Mobius factor and break the closed-form value
beta_w(0) = log(e/(1 + w* conj(w))) together with the peak property on
S(I_w); this module (and everything downstream) uses the sigma form.

Deep construction steps need gaps far below double precision, so points are
(angle, gap) pairs with mpmath gaps and every near-boundary quantity is
evaluated through cancellation-free rearrangements in terms of gaps.  The
working precision is quad.default_bits(), read as each of make_block,
verify_block, build_bmoa and build_bloch starts.

Float decides, mp certifies.  Those rearrangements are sums of positive
terms, so their logs carry in float64 at any gap.  A vectorized log-domain
engine (Re beta_w, the symbol densities, |F_{n-1}|^2, the box geometry and
the mp_box_average node set) makes the decisions of the searches: the
admissible length delta_n, the squaring search for w_n, the (d) maximizer
over arcs and the Bloch region suprema.  mpmath at the working precision
then evaluates what the state records: the average at the chosen delta_n
(if it exceeds the bound, mp redoes that scan), the accepted squaring
candidate, the (d) maximizer, the region_sup maximizer and the property (2)
certificates.  A float value within the relative MARGIN of a threshold or
of a rival is decided in mp, so the states are those of the all-mp searches.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import mpmath as mp
import numpy as np
from mpmath.libmp import (fone, fzero, from_int, mpc_abs, mpc_div, mpc_log,
                          mpc_sub, mpf_add, mpf_asin, mpf_asinh,
                          mpf_cosh_sinh, mpf_div, mpf_ge, mpf_le, mpf_lt,
                          mpf_mul, mpf_mul_int, mpf_neg, mpf_pi, mpf_pow_int,
                          mpf_sin, mpf_sqrt, mpf_sub, round_nearest)

from . import spaces
from .expr import FunctionHandle
from .hypgeo import Arc, DiscPoint, GeodesicBox, box_contains
from .quad import default_bits

__all__ = [
    "BlockParams", "BlockReport", "ConstructionState", "ConstructionFailure",
    "BlockPropertyError", "make_block", "verify_block",
    "build_bmoa", "build_bloch", "LOG_HALF_SYMBOL", "LINEAR_SYMBOL",
]

C0 = 3.0                      # absolute bound for |beta_w| off S(I_{w*})
DEFAULT_TOL_C = 0.05


class ConstructionFailure(Exception):
    """Candidate search exhausted: divergence evidence insufficient at this
    precision (the symbol may belong to the log-weighted space)."""

    def __init__(self, message, record=None):
        super().__init__(message)
        self.record = record or {}


class BlockPropertyError(AssertionError):
    """A certified block property failed numerically (exit 5)."""


# ---------------------------------------------------------------------------
# gap-safe hyperbolic geometry in extended precision
# ---------------------------------------------------------------------------
#
# The hot formulas (_box_halfwidth, _one_minus_z, _beta_mp, the symbol
# densities, the ring node and sum loops and the F_n sums) are straight-line
# mpmath.libmp kernels on _mpf_/_mpc_ tuples.  Each mpf/mpc wrapper
# operation of the formula in its docstring is one libmp call on the same
# operands in the same order, at mp.mp.prec with round-to-nearest, which is
# the call the wrapper makes: int * x is mpf_mul_int, x / 2 is mpf_div by
# from_int(2), 1 - x is mpf_sub(fone, x), x ** 2 is mpf_pow_int, 1 - c is
# mpc_sub((fone, fzero), c), abs(c) is mpc_abs and mp.log(c) is mpc_log.  A
# subexpression the formula repeats is computed once.  So every bit is that
# of the wrapper form; the kernels only skip the wrappers' object traffic.

_RND = round_nearest
_TWO = from_int(2)
_C_ONE = (fone, fzero)
_mpf, _mpc = mp.mp.make_mpf, mp.mp.make_mpc


def _midpoint_gap(gap):
    """Gap of the hyperbolic midpoint w* of [0, w]: exact identity
    1 - |w*||w| = sqrt(1-|w|^2), so gap* = (gap + sqrt(oms))/(1 + sqrt(oms))."""
    root = mp.sqrt(gap * (2 - gap))
    return (gap + root) / (1 + root)


def _arc_length_of(gap):
    """Normalized length of I_w: half-angle theta with
    sin(theta/2) = gap / sqrt(2 (1 + r^2))."""
    r = 1 - gap
    return 2 * mp.asin(gap / mp.sqrt(2 * (1 + r * r))) / mp.pi


def _box_gap_max(length):
    """Gap of the closest point of the geodesic box over an arc (length<1/2)."""
    h = mp.pi * length
    return (mp.sin(h) - 2 * mp.sin(h / 2) ** 2) / mp.cos(h)


def _box_halfwidth(gap, length):
    """Angular halfwidth of the box section at gap; None if empty.

    cos(dtheta) >= x = (1+r^2) cos(pi l)/(2r); GeodesicBox's gap form
    1 - x = 2 s^2 (1 + q) - q, s = sin(h/2), q = gap^2/(2(1-gap)).  A libmp
    kernel, one call per wrapper operation and so the same bits, of
    h = mp.pi * length, q = gap * gap / (2 * (1 - gap)),
    one_minus_x = 2 * mp.sin(h / 2) ** 2 * (1 + q) - q and the halfwidth
    2 * mp.asin(mp.sqrt(one_minus_x / 2)), mp.pi from one_minus_x >= 2."""
    prec, g = mp.mp.prec, gap._mpf_
    h = mpf_mul(mpf_pi(prec, _RND), length._mpf_, prec, _RND)
    q = mpf_div(mpf_mul(g, g, prec, _RND),
                mpf_mul_int(mpf_sub(fone, g, prec, _RND), 2, prec, _RND),
                prec, _RND)
    sin_sq = mpf_pow_int(mpf_sin(mpf_div(h, _TWO, prec, _RND), prec, _RND),
                         2, prec, _RND)
    one_minus_x = mpf_sub(mpf_mul(mpf_mul_int(sin_sq, 2, prec, _RND),
                                  mpf_add(q, fone, prec, _RND), prec, _RND),
                          q, prec, _RND)
    if mpf_le(one_minus_x, fzero):
        return None
    if mpf_ge(one_minus_x, _TWO):
        return mp.pi
    root = mpf_sqrt(mpf_div(one_minus_x, _TWO, prec, _RND), prec, _RND)
    return _mpf(mpf_mul_int(mpf_asin(root, prec, _RND), 2, prec, _RND))


def _one_minus_z(theta, gap):
    """1 - z for z = (1-gap) e^{i theta}, cancellation-free parts: a libmp
    kernel, one call per wrapper operation and so the same bits, of
    mp.mpc(gap + (1 - gap) * 2 * mp.sin(theta / 2) ** 2,
           -(1 - gap) * mp.sin(theta))."""
    prec, g = mp.mp.prec, gap._mpf_
    omg = mpf_sub(fone, g, prec, _RND)
    sin_sq = mpf_pow_int(mpf_sin(mpf_div(theta._mpf_, _TWO, prec, _RND),
                                 prec, _RND), 2, prec, _RND)
    re = mpf_add(g, mpf_mul(mpf_mul_int(omg, 2, prec, _RND), sin_sq,
                            prec, _RND), prec, _RND)
    im = mpf_mul(mpf_neg(omg, prec, _RND),
                 mpf_sin(theta._mpf_, prec, _RND), prec, _RND)
    return _mpc((re, im))


# ---------------------------------------------------------------------------
# the building block
# ---------------------------------------------------------------------------

@dataclass
class BlockParams:
    theta: object                 # mpf angle of w
    gap: object                   # mpf 1 - |w|
    gap_star: object              # mpf 1 - |w*|
    arc_w: object                 # mpf normalized length of I_w
    arc_wstar: object             # mpf normalized length of I_{w*}

    @property
    def w_complex(self) -> complex:
        return float(1 - self.gap) * complex(mp.cos(self.theta),
                                             mp.sin(self.theta))

    @property
    def wstar_complex(self) -> complex:
        return float(1 - self.gap_star) * complex(mp.cos(self.theta),
                                                  mp.sin(self.theta))


def _beta_mp(theta_w, gap_w, gap_star, theta_z, gap_z):
    """beta_w(z) in extended precision at z = (1-gap_z) e^{i theta_z}.

    With rho = gap_w, rho* = gap_star, phi = theta_z - theta_w, s = gap_z:
        N = T / D,  T = A - B (1-s) e^{i phi},  A = 1 + (1-rho)(1-rho*),
        B = (2 - rho - rho*),  D = 1 - (1-rho*)(1-s) e^{i phi},
    and Re T = rho rho* + B ((1-s) 2 sin^2(phi/2) + s) -- all terms positive.

    A libmp kernel, one call per wrapper operation and so the same bits,
    of the wrapper form
        phi = theta_z - theta_w;  B = 2 - rho - rho_s
        sin2 = 2 * mp.sin(phi / 2) ** 2
        T = mp.mpc(rho * rho_s + B * ((1 - s) * sin2 + s),
                   -B * (1 - s) * mp.sin(phi))
        P = (1 - rho_s) * (1 - s)
        D = mp.mpc((rho_s + s - rho_s * s) + P * sin2, -P * mp.sin(phi))
        return 1 - mp.log(T / D)
    """
    prec = mp.mp.prec
    rho, rho_s, s = gap_w._mpf_, gap_star._mpf_, gap_z._mpf_
    phi = mpf_sub(theta_z._mpf_, theta_w._mpf_, prec, _RND)
    B = mpf_sub(mpf_sub(_TWO, rho, prec, _RND), rho_s, prec, _RND)
    sin2 = mpf_mul_int(
        mpf_pow_int(mpf_sin(mpf_div(phi, _TWO, prec, _RND), prec, _RND),
                    2, prec, _RND), 2, prec, _RND)
    sin_phi = mpf_sin(phi, prec, _RND)
    oms = mpf_sub(fone, s, prec, _RND)
    T = (mpf_add(mpf_mul(rho, rho_s, prec, _RND),
                 mpf_mul(B, mpf_add(mpf_mul(oms, sin2, prec, _RND), s,
                                    prec, _RND), prec, _RND), prec, _RND),
         mpf_mul(mpf_mul(mpf_neg(B, prec, _RND), oms, prec, _RND), sin_phi,
                 prec, _RND))
    P = mpf_mul(mpf_sub(fone, rho_s, prec, _RND), oms, prec, _RND)
    D = (mpf_add(mpf_sub(mpf_add(rho_s, s, prec, _RND),
                         mpf_mul(rho_s, s, prec, _RND), prec, _RND),
                 mpf_mul(P, sin2, prec, _RND), prec, _RND),
         mpf_mul(mpf_neg(P, prec, _RND), sin_phi, prec, _RND))
    return _mpc(mpc_sub(_C_ONE, mpc_log(mpc_div(T, D, prec, _RND), prec,
                                        _RND), prec, _RND))


def _float_block(wc, wsc):
    """beta_w in double precision for w = wc and w* = wsc."""

    def val(z):
        z = np.asarray(z, dtype=complex)
        sig = (z - wsc) / (1.0 - np.conj(wsc) * z)
        return np.log(np.e / (1.0 - sig * np.conj(wc)))

    def der(z):
        z = np.asarray(z, dtype=complex)
        den = 1.0 - np.conj(wsc) * z
        sig = (z - wsc) / den
        dsig = (1.0 - abs(wsc) ** 2) / den ** 2
        return np.conj(wc) * dsig / (1.0 - sig * np.conj(wc))

    return FunctionHandle(val, der)


def make_block(w):
    """BlockParams plus a float-vectorized (value, derivative) handle for
    the complex number w.

    The handle degrades gracefully for gaps below double precision (the block
    then looks constant on the float-reachable part of the disc); use
    params + _beta_mp for extended-precision evaluation.
    """
    with mp.workprec(default_bits()):
        p = DiscPoint.from_complex(complex(w))
        theta, gap = mp.mpf(p.theta), mp.mpf(p.gap)
        if not 0 < gap < 1:
            raise ValueError("w must satisfy 0 < |w| < 1")
        gap_star = _midpoint_gap(gap)
        params = BlockParams(theta, gap, gap_star,
                             _arc_length_of(gap), _arc_length_of(gap_star))
    return params, _float_block(params.w_complex, params.wstar_complex)


@dataclass
class BlockReport:
    w: complex
    passed: bool
    bloch: float
    bmoa: float
    min_re: float
    max_abs_im: float
    c4: float
    c0_measured: float
    bounds: dict


# recorded absolute bounds for the corpus of certified blocks
BLOCK_BOUNDS = {"bloch": 2.0, "bmoa": 2.0, "c4_floor": 0.4, "c0": C0}


def verify_block(w) -> BlockReport:
    """Certify the five block properties; any violation raises."""
    params, handle = make_block(w)
    with mp.workprec(default_bits()):
        theta, gap, gap_star = params.theta, params.gap, params.gap_star

        # global sample: float grid plus extended-precision boundary points
        rr = np.linspace(0.01, 0.999999, 25)
        tt = np.arange(40) * (2.0 * math.pi / 40)
        zf = (rr[:, None] * np.exp(1j * tt[None, :])).ravel()
        vals = handle.val(zf)
        samples = [(mp.mpf(t), s) for r in (0.9999999, 1 - 1e-9)
                   for s in [mp.mpf(1.0) - mp.mpf(r)] for t in tt]
        mp_vals = [_beta_mp(theta, gap, gap_star, t, s) for t, s in samples]
        min_re = min(float(np.min(vals.real)),
                     min(float(v.real) for v in mp_vals))
        max_im = max(float(np.max(np.abs(vals.imag))),
                     max(abs(float(v.imag)) for v in mp_vals))

        # (iv): Re beta / log(e/(1-|w|^2)) over the box S(I_w), box coordinates
        # at g = gmax * fr / 2 ** k, angle theta + t * half, the min of
        # v.real / denom: libmp calls as in the kernels
        prec = mp.mp.prec
        denom = (1 + mp.log(1 / (gap * (2 - gap))))._mpf_
        gmax = _box_gap_max(params.arc_w)._mpf_
        fracs = (mp.mpf("0.99")._mpf_, mp.mpf("0.5")._mpf_)
        offsets = tuple(t._mpf_ for t in (-mp.mpf("0.999"), mp.mpf(0),
                                          mp.mpf("0.999")))
        c4 = mp.inf._mpf_
        for k in range(40):
            for fr in fracs:
                g = _mpf(mpf_div(mpf_mul(gmax, fr, prec, _RND),
                                 from_int(2 ** k), prec, _RND))
                half = _box_halfwidth(g, params.arc_w)
                if half is None:
                    continue
                for t in offsets:
                    tz = mpf_add(theta._mpf_, mpf_mul(t, half._mpf_, prec,
                                                      _RND), prec, _RND)
                    v = _beta_mp(theta, gap, gap_star, _mpf(tz), g)._mpc_[0]
                    v = mpf_div(v, denom, prec, _RND)
                    c4 = v if mpf_lt(v, c4) else c4
        c4 = float(_mpf(c4))

        # (v): |beta| outside S(I_{w*}); float grid plus points just outside
        gsmax = _box_gap_max(params.arc_wstar)
        hs = mp.pi * params.arc_wstar
        edge = [(theta + sgn * (1 + mp.mpf("1e-6")) * hs, mp.mpf("1e-9"))
                for sgn in (-1, 1)]
        # the section halfwidth at each distinct gap, of which there are 3
        hw_at = {s: _box_halfwidth(s, params.arc_wstar)
                 for s in {s for _, s in samples + edge}}
        outside = []     # the samples reuse mp_vals; only edge points are new
        for (t, s), v in zip(samples + edge, mp_vals + [None, None]):
            dphi = abs(mp.fmod(t - theta + mp.pi, 2 * mp.pi) - mp.pi)
            hw = hw_at[s]
            if s > gsmax or hw is None or dphi > hw:
                v = _beta_mp(theta, gap, gap_star, t, s) if v is None else v
                outside.append(abs(v))
        # float grid points outside the w* box
        wsbox = GeodesicBox(Arc(float(theta), float(params.arc_wstar)))
        mask = ~box_contains(wsbox, zf)
        c0_meas = max(float(np.max(np.abs(vals[mask]))),
                      max((float(x) for x in outside), default=0.0))

    bl = spaces.bloch_seminorm(handle).value
    bm = spaces.bmoa_seminorm(handle).value
    passed = (bl <= BLOCK_BOUNDS["bloch"] and bm <= BLOCK_BOUNDS["bmoa"]
              and min_re >= -1e-12 and max_im <= math.pi / 2 + 1e-12
              and c4 >= BLOCK_BOUNDS["c4_floor"] and c0_meas <= C0)
    report = BlockReport(params.w_complex, passed, bl, bm, min_re, max_im,
                         c4, c0_meas, dict(BLOCK_BOUNDS))
    if not passed:
        raise BlockPropertyError("block property violated: %r" % (report,))
    return report


# ---------------------------------------------------------------------------
# construction symbols (cancellation-free densities in mp)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstructionSymbol:
    """A symbol g with a float handle and gap-safe extended-precision density.

    base_density(theta, gap) = |g'(z)|^2 (1-|z|^2) before normalization.
    """

    name: str
    source: str

    def base_density(self, theta, gap):
        raise NotImplementedError

    def log_density(self, p):
        """Float log of base_density at the engine's _Points p."""
        raise NotImplementedError

    def dg0_abs(self) -> float:
        _, fp = FunctionHandle.from_source(self.source)
        return abs(complex(fp(np.array([0.0 + 0.0j]))[0]))


class _LogHalfSymbol(ConstructionSymbol):
    def base_density(self, theta, gap):
        """A libmp kernel, one call per wrapper operation and so the same
        bits, of omz = _one_minus_z(theta, gap), L = 1 - mp.log(omz) and
        gap * (2 - gap) / (4 * abs(omz) ** 2 * abs(L))."""
        prec, g = mp.mp.prec, gap._mpf_
        omz = _one_minus_z(theta, gap)._mpc_
        L = mpc_sub(_C_ONE, mpc_log(omz, prec, _RND), prec, _RND)
        den = mpf_mul(mpf_mul_int(mpf_pow_int(mpc_abs(omz, prec, _RND), 2,
                                              prec, _RND), 4, prec, _RND),
                      mpc_abs(L, prec, _RND), prec, _RND)
        return _mpf(mpf_div(mpf_mul(g, mpf_sub(_TWO, g, prec, _RND),
                                    prec, _RND), den, prec, _RND))

    def log_density(self, p):
        lre = np.logaddexp(p.lg, p.l1mg + p.lsin2)       # Re(1 - z) > 0
        lim = p.l1mg + p.lsin                            # |Im(1 - z)|
        labs_sq = np.logaddexp(2 * lre, 2 * lim)         # |1 - z|^2
        abs_L = np.hypot(1 - labs_sq / 2, _atan_exp(lim - lre))
        return p.lg + p.l2mg - 2 * _LOG2 - labs_sq - np.log(abs_L)


class _LinearSymbol(ConstructionSymbol):
    def base_density(self, theta, gap):
        return gap * (2 - gap)

    def log_density(self, p):
        return p.lg + p.l2mg


LOG_HALF_SYMBOL = _LogHalfSymbol("log-half", "(log(e/(1 - z)))^0.5")
LINEAR_SYMBOL = _LinearSymbol("linear", "z")


# ---------------------------------------------------------------------------
# extended-precision box averages
# ---------------------------------------------------------------------------

def _gl(n):
    x, w = np.polynomial.legendre.leggauss(n)
    return [mp.mpf(v) for v in x], [mp.mpf(v) for v in w]


def _ring_nodes(half, gap, weight, xv, wv):
    """The nodes of a ring section |theta| <= half at gap, density-free:
    (gap, [(phi, jac)] per node pair, weight, 1 - gap), the last three as
    _mpf_ tuples.  The angle phi = gap sinh(v) clusters the nodes at 0,
    which resolves peaks there at any scale >= the gap.

    A libmp kernel, one call per wrapper operation and so the same bits,
    of V = mp.asinh(half / gap), mid_v = half_v = V / 2 and
    per node v = mid_v + half_v * x, phi = gap * mp.sinh(v),
    jac = gap * mp.cosh(v) * half_v * w; one mpf_cosh_sinh gives both
    mp.cosh(v) and mp.sinh(v)."""
    prec, g = mp.mp.prec, gap._mpf_
    half_v = mpf_div(mpf_asinh(mpf_div(half._mpf_, g, prec, _RND), prec,
                               _RND), _TWO, prec, _RND)
    pairs = []
    for x, w in zip(xv, wv):
        v = mpf_add(half_v, mpf_mul(half_v, x._mpf_, prec, _RND), prec, _RND)
        cosh, sinh = mpf_cosh_sinh(v, prec, _RND)
        jac = mpf_mul(mpf_mul(mpf_mul(g, cosh, prec, _RND), half_v, prec,
                              _RND), w._mpf_, prec, _RND)
        pairs.append((_mpf(mpf_mul(g, sinh, prec, _RND)), jac))
    return gap, pairs, weight._mpf_, mpf_sub(fone, g, prec, _RND)


def _ring_sum(density, nodes):
    """Radial weight times int density dm over the ring section of
    _ring_nodes, per unit radial width.  The density must be even in the
    angle, to the bit: each node pair +-phi costs one call, density(phi,
    gap), counted twice.  A libmp kernel of ring += jac * (d + d) per node
    pair, then weight * ring * (1 - gap) / mp.pi."""
    prec = mp.mp.prec
    gap, pairs, weight, one_minus_gap = nodes
    ring = fzero
    for phi, jac in pairs:
        d = density(phi, gap)._mpf_
        ring = mpf_add(ring, mpf_mul(jac, mpf_add(d, d, prec, _RND), prec,
                                     _RND), prec, _RND)
    total = mpf_mul(mpf_mul(weight, ring, prec, _RND), one_minus_gap, prec,
                    _RND)
    return _mpf(mpf_div(total, mpf_pi(prec, _RND), prec, _RND))


def _panel_nodes(edges, xg, wg):
    """(gap, radial weight) Gauss-Legendre nodes on the gap panels between
    consecutive edges, outermost panel first."""
    nodes = []
    for hi, lo in zip(edges, edges[1:]):
        mid, half = (lo + hi) / 2, (hi - lo) / 2
        nodes += [(mid + half * x, half * w) for x, w in zip(xg, wg)]
    return nodes


def mp_disc_integral(density):
    """int density dm for densities peaked at angle 0 (sinh-clustered) and
    even in the angle (_ring_sum): 41 dyadic gap panels, the last one
    reaching the boundary, with 4 gap and 10 angular nodes each."""
    xv, wv = _gl(10)
    edges = [mp.mpf(1) / 2 ** k for k in range(41)] + [mp.mpf(0)]
    total = mp.mpf(0)
    for gap, weight in _panel_nodes(edges, *_gl(4)):
        total += _ring_sum(density, _ring_nodes(mp.pi, gap, weight, xv, wv))
    return total


def mp_box_average(density, length):
    """(1/|I|) int_{S(I)} density dm over the geodesic box of the arc of
    normalized length < 0.4 centred at angle 0.

    Radial: a u^2 substitution on the outermost panel (the section width has
    a sqrt kink at the closest point), then 22 dyadic gap panels, 4 nodes
    each.  Angular: 8 nodes in phi = gap sinh(v), which resolves densities
    peaked at the arc center at any scale >= the ring gap.  The density must
    be even in the angle, to the bit (_ring_sum); every density the
    constructions pass is, since their blocks sit at angle 0.
    """
    length = mp.mpf(length)
    if length >= mp.mpf("0.4"):
        raise ValueError("mp_box_average expects arcs of length < 0.4")
    if _box_rings_memo is None:
        rings = _box_rings(length)
    elif length in _box_rings_memo:
        rings = _box_rings_memo[length]
    else:
        rings = _box_rings_memo[length] = _box_rings(length)
    total = mp.mpf(0)
    for nodes in rings:
        total += _ring_sum(density, nodes)
    return total / length


def _box_rings(length):
    """mp_box_average's _ring_nodes for the arc length, one per radial node
    whose box section is not empty, outermost first."""
    gmax = _box_gap_max(length)
    xg, wg = _gl(4)
    xv, wv = _gl(8)
    # (gap, radial weight) nodes; outermost panel [gmax/2, gmax] with
    # gap = gmax - u^2, then dyadic panels toward the boundary
    umax = mp.sqrt(gmax / 2)
    nodes = []
    for x, w in zip(xg, wg):
        u = umax / 2 + (umax / 2) * x
        nodes.append((gmax - u * u, (umax / 2) * w * 2 * u))
    nodes += _panel_nodes([gmax / 2 ** k for k in range(1, 24)], xg, wg)
    rings = []
    for gap, weight in nodes:
        half = _box_halfwidth(gap, length)
        if half is not None and half > 0:
            rings.append(_ring_nodes(half, gap, weight, xv, wv))
    return rings


# While a build runs, {arc length: _box_rings(length)} at its precision: its
# searches, (d) and property (2) average over the same arcs more than once.
_box_rings_memo = None


@contextlib.contextmanager
def _box_rings_per_build():
    global _box_rings_memo
    outer, _box_rings_memo = _box_rings_memo, {}
    try:
        yield
    finally:
        _box_rings_memo = outer


# ---------------------------------------------------------------------------
# the log-domain float64 engine: the searches decide, mp certifies
# ---------------------------------------------------------------------------
#
# Logs of gaps, angles and terms, combined with logaddexp/log1p/expm1, keep
# the relative accuracy of double precision at gaps far below its range.
# The engine assumes what the constructions produce: blocks and box centres
# at angle 0, where every density is even in the angle.

MARGIN = 1e-6     # relative: closer float comparisons are decided in mp
_LOG2, _LOGPI = math.log(2.0), math.log(math.pi)
_TINY = -20.0     # below this log, sin x = asin x = x in double precision
_GL4, _GL8 = np.polynomial.legendre.leggauss(4), \
    np.polynomial.legendre.leggauss(8)


def _log(x) -> float:
    """Float log of a positive mpf of any exponent."""
    return float(mp.log(x))


def _log1m(lx):
    """log(1 - e^lx) for lx < 0, elementwise."""
    lx = np.asarray(lx, dtype=float)
    return np.where(lx > -_LOG2, np.log(-np.expm1(lx)), np.log1p(-np.exp(lx)))


def _atan_exp(lx):
    """arctan(e^lx), elementwise, for any lx."""
    return np.arctan(np.exp(np.minimum(lx, 700.0)))


def _radial_y_nodes():
    """mp_box_average's radial nodes as gap / gmax, with their weights
    (also per gmax): the u^2 outer panel, then the 22 dyadic panels."""
    x, w = _GL4
    ys, ws = [1 - (1 + x) ** 2 / 8], [w * (1 + x) / 4]
    for k in range(1, 23):
        half = 2.0 ** (-k - 2)
        ys.append(half * (3 + x))
        ws.append(half * w)
    return np.concatenate(ys), np.concatenate(ws)


_Y, _WY = _radial_y_nodes()


class _Points:
    """Disc points (1 - e^lg) e^{i phi} with phi >= 0 given by its log lphi
    (-inf at phi = 0), so angles and gaps below the double range survive.
    Holds the logs every density below shares."""

    def __init__(self, lphi, lg):
        self.lphi, self.lg = np.broadcast_arrays(
            np.atleast_1d(np.asarray(lphi, dtype=float)),
            np.atleast_1d(np.asarray(lg, dtype=float)))
        tiny = self.lphi < _TINY
        phi = np.exp(np.where(tiny, _TINY, self.lphi))
        # log 2 sin^2(phi/2) and log |sin phi|
        self.lsin2 = np.where(tiny, 2 * self.lphi - _LOG2,
                              _LOG2 + 2 * np.log(np.abs(np.sin(phi / 2))))
        self.lsin = np.where(tiny, self.lphi, np.log(np.abs(np.sin(phi))))
        self.l1mg = _log1m(self.lg)                       # log(1 - gap)
        self.l2mg = _LOG2 + np.log1p(-np.exp(self.lg) / 2)  # log(2 - gap)


def _beta_float(lrho, lrho_s, p):
    """(Re, Im) of beta_w at the points p, w = 1 - e^lrho at angle 0 and
    lrho_s the log gap of w*: _beta_mp's positive terms summed in logs.  Im
    is taken at the conjugate point where sin(phi) < 0."""
    rho, rho_s = math.exp(lrho), math.exp(lrho_s)
    lB = _LOG2 + math.log1p(-(rho + rho_s) / 2)
    l1mrs = math.log1p(-rho_s)
    lP = l1mrs + p.l1mg
    lre_T = np.logaddexp(lrho + lrho_s,
                         lB + np.logaddexp(p.l1mg + p.lsin2, p.lg))
    lim_T = lB + p.l1mg + p.lsin
    lre_D = np.logaddexp(np.logaddexp(lrho_s, p.lg + l1mrs), lP + p.lsin2)
    lim_D = lP + p.lsin
    re = 1 - (np.logaddexp(2 * lre_T, 2 * lim_T)
              - np.logaddexp(2 * lre_D, 2 * lim_D)) / 2
    im = _atan_exp(lim_T - lre_T) - _atan_exp(lim_D - lre_D)
    return re, im


def _box_nodes(lell):
    """mp_box_average's node set for the arc of length l = e^lell centred
    at 0, in the log domain: (points, log weights), so that the log of the
    box average of a density is logsumexp(log weights + log density)."""
    # h = pi l; gmax = 2 s/(c + s) with s, c = sin(h/2), cos(h/2)
    ls = (math.log(math.pi / 2) + lell if lell < _TINY
          else math.log(math.sin(math.pi * math.exp(lell) / 2)))
    s, c = math.exp(ls), math.cos(math.pi * math.exp(lell) / 2)
    lcs = math.log(c + s)
    lgmax = _LOG2 + ls - lcs
    lg = lgmax + np.log(_Y)
    l1mg = _log1m(lg)
    # 1 - x = 2 s^2 (1 + q) - q = 2 s^2 u, u = 1 + q - y^2/((c+s)^2 (1-gap))
    u = (1 + np.exp(2 * lg - _LOG2 - l1mg)
         - np.exp(2 * np.log(_Y) - 2 * lcs - l1mg))
    keep = u > 0
    lg, l1mg, lwr = lg[keep], l1mg[keep], lgmax + np.log(_WY[keep])
    lz = ls + np.log(u[keep]) / 2                   # log sin(half/2)
    lhalf = np.where(lz >= 0, _LOGPI, np.where(
        lz < _TINY, _LOG2 + lz,
        np.log(2 * np.arcsin(np.exp(np.clip(lz, _TINY, 0))))))
    # angular nodes phi = gap sinh(v), v in [0, V], V = asinh(half/gap)
    x, w = _GL8
    half_v = np.arcsinh(np.exp(lhalf - lg))[:, None] / 2
    v = half_v * (1 + x)
    lphi = lg[:, None] + np.log(np.sinh(v))
    ljac = lg[:, None] + np.log(np.cosh(v) * half_v * w)
    # both signs of phi (the density is even), (1 - gap)/pi, and 1/l
    lw = (lwr + l1mg)[:, None] + ljac + _LOG2 - _LOGPI - lell
    return (_Points(lphi.ravel(), np.repeat(lg, x.size)), lw.ravel())


def _log_box_average(log_density, lell):
    """Float log of mp_box_average(density, e^lell)."""
    pts, lw = _box_nodes(lell)
    terms = lw + log_density(pts)
    top = np.max(terms)
    return float(top + np.log(np.sum(np.exp(terms - top))))


class _Density(NamedTuple):
    """A positive density or pointwise quantity in both arithmetics:
    mp(theta, gap) -> mpf, and log(points) -> its float logs at _Points."""
    mp: Callable
    log: Callable


def _decided(lv, exact, *marks):
    """The value with float log lv as an mpf, for comparison with marks;
    mp decides (exact() is returned) when lv is not finite or lies within
    MARGIN of the log of a mark."""
    if not math.isfinite(lv) or any(abs(lv - _log(m)) <= MARGIN
                                    for m in marks):
        return exact()
    return mp.exp(lv)


def _rivals(lvs):
    """Indices of the float logs lvs that may hold the maximum: those
    within MARGIN of the finite float maximum, and any that is not
    finite.  mp compares these; the others are certainly smaller."""
    lvs = np.asarray(lvs, dtype=float)
    top = np.max(lvs[np.isfinite(lvs)], initial=-np.inf)
    return np.flatnonzero(~(lvs < top - MARGIN))


# ---------------------------------------------------------------------------
# construction state
# ---------------------------------------------------------------------------

STATE_VERSION = 1


@dataclass
class ConstructionState:
    mode: str                     # "bmoa" | "bloch"
    symbol: str
    bits: int
    scale: float                  # recorded normalization factor on g
    tol_c: float
    n: int = 0
    steps: list = field(default_factory=list)   # per-step dicts (mp values)
    certifications: list = field(default_factory=list)
    _memo = None        # while a build runs, its per-node memo of _beta_mp

    def blocks(self):
        """(a_k, theta_k, gap_k, gap_star_k) for k >= 1."""
        return [(s["a"], s["theta"], s["gap"], s["gap_star"])
                for s in self.steps]

    def _F_parts(self, theta, gap):
        """(Re, Im) of F_n = 1 + sum_k a_k beta_k at (theta, gap) as _mpf_
        tuples: a libmp kernel, one call per wrapper operation and so the
        same bits, of re, im = mp.mpf(1), mp.mpf(0) and per block
        re += a * b.real, im += a * b.imag."""
        beta = self._memo or _beta_mp
        prec = mp.mp.prec
        re, im = fone, fzero
        for a, tw, gw, gs in self.blocks():
            b_re, b_im = beta(tw, gw, gs, theta, gap)._mpc_
            re = mpf_add(re, mpf_mul(a._mpf_, b_re, prec, _RND), prec, _RND)
            im = mpf_add(im, mpf_mul(a._mpf_, b_im, prec, _RND), prec, _RND)
        return re, im

    def re_F(self, theta, gap):
        """Re F_n(z) in extended precision (F_0 = 1)."""
        return _mpf(self._F_parts(theta, gap)[0])

    def abs_F_sq(self, theta, gap):
        """re * re + im * im of _F_parts, as libmp calls (same bits)."""
        prec = mp.mp.prec
        re, im = self._F_parts(theta, gap)
        return _mpf(mpf_add(mpf_mul(re, re, prec, _RND),
                            mpf_mul(im, im, prec, _RND), prec, _RND))

    def log_abs_F_sq(self, p):
        """Float log of abs_F_sq at the engine's _Points p."""
        re, im = 1.0, 0.0
        for a, _, gw, gs in self.blocks():
            b_re, b_im = _beta_float(_log(gw), _log(gs), p)
            re, im = re + float(a) * b_re, im + float(a) * b_im
        return np.log(re * re + im * im) + np.zeros(p.lg.shape)

    # -- serialization ------------------------------------------------------

    def to_json(self) -> str:
        def s(x):
            return mp.nstr(mp.mpf(x), 50)

        doc = {
            "version": STATE_VERSION,
            "mode": self.mode,
            "symbol": self.symbol,
            "bits": self.bits,
            "scale": repr(self.scale),
            "tol_c": self.tol_c,
            "n": self.n,
            "steps": [{k: s(v) for k, v in step.items()} for step in
                      self.steps],
            "certifications": self.certifications,
        }
        return json.dumps(doc, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# the witness recursion
# ---------------------------------------------------------------------------

def _admissible_scan(average, start_length, bound):
    """Largest tested dyadic-by-squaring length with suffix sup <= bound.

    Scans lengths l, l^2, l^4, ... (plus one initial halving pass) until the
    averages average(l) stay below bound/2 twice in a row, at most 24
    lengths; certifies on the sampled arc set only.
    """
    lengths, values = [], []
    ell = mp.mpf(start_length)
    small_streak = 0
    for _ in range(24):
        v = average(ell)
        lengths.append(ell)
        values.append(v)
        if v <= bound / 2:
            small_streak += 1
            if small_streak >= 2:
                break
        else:
            small_streak = 0
        ell = ell * ell if ell < mp.mpf("0.05") else ell / 2
    else:
        raise ConstructionFailure(
            "no admissible arc length: averages did not fall below the bound")
    # suffix maxima: delta = largest tested length whose tail stays <= bound
    best = None
    tail_max = mp.mpf(0)
    for ell, v in zip(reversed(lengths), reversed(values)):
        tail_max = max(tail_max, v)
        if tail_max <= bound:
            best = ell
    if best is None:
        raise ConstructionFailure("every sampled arc exceeded the bound")
    return best


def _largest_admissible_length(dens, start_length, bound):
    """_admissible_scan over the box averages of the _Density dens.

    Float decides; mp decides the averages within MARGIN of bound or
    bound/2 and certifies the average at the chosen length.  If mp puts
    that average above bound, mp decides the whole scan.
    """
    exact = functools.lru_cache(maxsize=None)(
        lambda ell: mp_box_average(dens.mp, ell))
    best = _admissible_scan(
        lambda ell: _decided(_log_box_average(dens.log, _log(ell)),
                             lambda: exact(ell), bound, bound / 2),
        start_length, bound)
    if exact(best) <= bound:
        return best
    return _admissible_scan(exact, start_length, bound)


def _squaring_search(value_at, gap, target):
    """Square the candidate gap until its value reaches target.

    value_at(gap, gap*), gap* the gap of the hyperbolic midpoint, gives
    (float log of the value, mp thunk).  Float decides; mp decides values
    within MARGIN of target or of the plateau floor, and re-evaluates each
    accepted candidate, whose mp value then decides.  Returns (gap, gap*,
    mp value) at the first success, or (gap, None, None) once the values
    plateau hopelessly low or 60 squarings pass.
    """
    floor = target / mp.mpf(10 ** 9)
    for _ in range(60):
        gs = _midpoint_gap(gap)
        lv, exact = value_at(gap, gs)
        exact = functools.cache(exact)
        v = _decided(lv, exact, target, floor)
        if v >= target:
            v = exact()
            if v >= target:
                return gap, gs, v
        if v < floor and gap < mp.mpf("1e-300"):
            break      # plateaued hopelessly low
        gap = gap * gap
    return gap, None, None


class _Space(NamedTuple):
    """One space's side of _witness: densities are part^p * weight."""
    mode: str                   # "bmoa" | "bloch"
    p: int
    scale: float                # recorded normalization factor on g
    weight: Callable            # |g'|^p (1-|z|^2): (theta, gap) -> mpf
    log_weight: Callable        # _Points -> float logs of the weight
    region: Callable            # gap -> the region it names (arc, point)
    value: Callable             # (mp density, region) -> mpf
    log_value: Callable         # (float log density, log region) -> float
    admissible: Callable        # (_Density, delta_{n-1}) -> delta_n
    maximum: Callable           # (d) -> (M_n^p, region certifying (2))
    failure: Callable           # (n, last gap) -> (reason, record)
    step_keys: Callable         # certifying region -> step keys
    cert_keys: Callable         # (cert2, value at w_n) -> certificate keys
    cert_failure: str           # property (2) text % (n, cert2)


def _witness(describe, symbol, n_max) -> ConstructionState:
    """Steps (a)-(e) of build_bmoa and build_bloch in the _Space
    describe(), at default_bits(), on |F_{n-1}|^p w for (a), (Re beta_n)^p w
    for (c) and (d), and (Re F_n)^p w for property (2)."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1, got %r" % (n_max,))
    bits = default_bits()
    with mp.workprec(bits), _box_rings_per_build():
        space = describe()
        p = space.p
        state = ConstructionState(space.mode, symbol.name, bits, space.scale,
                                  DEFAULT_TOL_C)
        # one mp value per distinct node (mpf keys compare by value) for this
        # build: the searches, (d) and property (2) share nodes
        weight = functools.cache(space.weight)
        state._memo = beta = functools.cache(_beta_mp)

        def density(part, log_part):
            return _Density(lambda t, g: part(t, g) * weight(t, g),
                            lambda pts: log_part(pts) + space.log_weight(pts))

        zero = mp.mpf(0)

        def beta_density(gw, gsw):
            lr, lrs = _log(gw), _log(gsw)
            return density(
                lambda t, g: beta(zero, gw, gsw, t, g).real ** p,
                lambda pts: p * np.log(_beta_float(lr, lrs, pts)[0]))

        def block_value(gw, gsw):
            dens, region = beta_density(gw, gsw), space.region(gw)
            return (space.log_value(dens.log, _log(region)),
                    lambda: space.value(dens.mp, region))

        # |F|^2 ** (p/2): x ** 0.5 is sqrt(x) to the bit, sqrt(x) ** 2 is not x
        dens_F = density(lambda t, g: state.abs_F_sq(t, g) ** (p / 2),
                         lambda pts: state.log_abs_F_sq(pts) * (p / 2))
        delta = mp.mpf("0.125")
        for n in range(1, n_max + 1):
            delta = space.admissible(dens_F, delta)
            delta_p = min(delta, (delta / 2 ** (2 * n)) ** 2)
            if mp.sqrt(delta_p) > delta / 2 ** (2 * n):
                raise AssertionError("delta'_n selection violated its bound")
            gap_w, gs, v_w = _squaring_search(block_value, delta_p,
                                              mp.mpf(2) ** (p * n))
            if v_w is None:
                reason, record = space.failure(n, gap_w)
                raise ConstructionFailure("divergence evidence insufficient at"
                                          " this precision " + reason, record)
            best, region = space.maximum(beta_density(gap_w, gs),
                                         space.region(gap_w), v_w, delta)
            M = best ** (1 / p)               # ** 0.5 is sqrt, ** 1.0 is x
            a = 1 / M
            if a > mp.mpf(2) ** (-n):
                raise AssertionError("coefficient bound a_n <= 2^-n violated")
            state.steps.append({"a": a, "theta": mp.mpf(0), "gap": gap_w,
                                "gap_star": gs, "delta": delta,
                                "delta_prime": delta_p, "M": M,
                                **space.step_keys(region)})
            state.n = n
            cert2 = space.value(
                lambda t, g: state.re_F(t, g) ** p * weight(t, g), region)
            if cert2 < 1 - DEFAULT_TOL_C:
                raise AssertionError(space.cert_failure
                                     % (n, mp.nstr(cert2, 10)))
            state.certifications.append({
                "step": n, "a_leq_2^-n": True, **space.cert_keys(cert2, v_w),
                "M": float(min(M, mp.mpf(10) ** 300))})
        del state._memo
    _certify_norm_control(state, symbol)
    return state


def _certify_norm_control(state, symbol):
    """Property (3): seminorm of the partial Volterra images stays controlled.

    Checks ||T_g F_n|| <= max(||T_g F_{n-1}|| + 2^-n C(g), C(g)) with 10%
    grid slack, where C(g) is recorded from the data.
    """
    _, gp = FunctionHandle.from_source(symbol.source)
    scale = state.scale
    # float blocks of F_n (deep blocks degrade to constants); every step is
    # recorded at theta = 0, so w and w* lie on the positive real axis
    blocks = [(float(a), _float_block(complex(1.0 - float(g)),
                                      complex(1.0 - float(gs))).val)
              for a, _, g, gs in state.blocks()]

    # the seminorms of F_0 ... F_n sample the same point arrays: g' and each
    # block are evaluated once per distinct array, which gives the same values
    at = {}

    def der(z, k):              # scale F_k g', F_k = 1 + sum_{i<=k} a_i beta_i
        z = np.asarray(z, dtype=complex)
        key = (z.shape, z.tobytes())
        if key not in at:
            at[key] = gp(z), [val(z) for _, val in blocks]
        g, vals = at[key]
        F = np.ones_like(z)
        for (a, _), v in zip(blocks[:k], vals):
            F = F + a * v
        return F * scale * g

    norms = []
    for k in range(state.n + 1):
        handle = FunctionHandle(
            lambda z: np.zeros_like(np.asarray(z, dtype=complex)),
            functools.partial(der, k=k))
        norms.append(spaces.seminorm(handle, state.mode).value)
    C_g = max(norms) * 1.01
    ok = all(norms[k] <= max(norms[k - 1] + 2.0 ** (-k) * C_g, C_g) * 1.10
             for k in range(1, len(norms)))
    state.certifications.append({"property3_norms": norms, "C_g": C_g,
                                 "property3_ok": bool(ok)})
    if not ok:
        raise AssertionError("property (3) norm control failed: %r" % norms)


# ---------------------------------------------------------------------------
# the two spaces
# ---------------------------------------------------------------------------

def _arc_maximum(dens, ell_w, avg_w, delta):
    """BMOA's (d): (average, arc) of the largest box average of dens over
    sampled arcs of length <= delta; float ranks, mp compares rivals."""
    llo, lhi = mp.log(ell_w), mp.log(delta)
    cands = sorted({ell_w * 2 ** j for j in range(1, 11)}
                   | {mp.exp(llo + (lhi - llo) * i / 8) for i in range(1, 8)})
    cands = [ell for ell in cands if ell <= delta and ell != ell_w]
    lvs = [_log_box_average(dens.log, _log(ell)) for ell in cands]
    best_avg, best_len = avg_w, ell_w
    for i in _rivals(lvs + [_log(avg_w)]):
        if i < len(cands):                    # not ell_w, already in mp
            v = mp_box_average(dens.mp, cands[i])
            if v > best_avg:
                best_avg, best_len = v, cands[i]
    return best_avg, best_len


def build_bmoa(symbol=LOG_HALF_SYMBOL, n_max=4) -> ConstructionState:
    """Recursive witness construction: F with T_g F in BMOA minus VMOA.

    Per step n: (a) delta_n = largest sampled arc length with box averages of
    |F_{n-1} g'|^2 (1-|z|^2) below 1; (b) delta'_n = min(delta_n,
    (2^{-2n} delta_n)^2); (c) squaring search for w_n at the concentration
    angle with the I_{w_n}-average of (Re beta)^2 |g'|^2 (1-|z|^2) >= 2^{2n};
    (d) M_n^2 = max of those averages over sampled arcs of length <= delta_n;
    (e) a_n = 1/M_n.  Invariants are certified at every step, property (2)
    on the arc that attains M_n.
    """
    def bmoa():
        # 1 / int |g'|^2 (1-|z|^2) dm at the build's precision, so the scaled
        # symbol is normalized; mp_disc_integral resolves the corpus
        # symbol's integrable boundary peak at z = 1
        scale_sq = float(1 / mp_disc_integral(symbol.base_density))
        s2, ls2 = mp.mpf(scale_sq), math.log(scale_sq)
        return _Space(
            mode="bmoa", p=2, scale=math.sqrt(scale_sq),
            weight=lambda t, g: s2 * symbol.base_density(t, g),
            log_weight=lambda pts: ls2 + symbol.log_density(pts),
            region=_arc_length_of, value=mp_box_average,
            log_value=_log_box_average,
            admissible=lambda dens, delta: _largest_admissible_length(
                dens, delta, mp.mpf(1)),
            maximum=_arc_maximum,
            failure=lambda n, gap: (
                "(step %d: block averages plateaued below 2^%d)"
                % (n, 2 * n),
                {"step": n, "last_gap_exponent": mp.nstr(mp.log(gap, 2), 10)}),
            step_keys=lambda ell: {"arc_center": mp.mpf(0), "arc_length": ell},
            cert_keys=lambda cert2, avg_w: {
                "delta_prime_bound": True, "property2_average": float(cert2),
                "candidate_average": float(min(avg_w, mp.mpf(10) ** 300))},
            cert_failure="property (2) certification failed at step %d: %s")
    return _witness(bmoa, symbol, n_max)


_LOG_ANGLES = [math.log(math.pi * j / 8) if j else -math.inf
               for j in range(16)]


def _region_sup(quant, delta):
    """Sampled sup of the _Density quant over 1-|z| <= delta (angle-0 ray,
    angles 2 pi j/16 at several gaps); float ranks, mp compares rivals."""
    angles = [mp.mpf(2 * mp.pi) * j / 16 for j in range(16)]
    pts = [(t, delta / 2 ** k) for k in range(24) for t in angles]
    pts += [(mp.mpf(0), delta ** (2 ** i)) for i in range(1, 5)]
    ld = _log(delta)
    lg = [ld - k * _LOG2 for k in range(24) for _ in angles]
    lg += [2 ** i * ld for i in range(1, 5)]
    lvs = quant.log(_Points(_LOG_ANGLES * 24 + [-math.inf] * 4, lg))
    return max(quant.mp(*pts[i]) for i in _rivals(lvs))


def _halved_admissible(quant, delta):
    """Bloch's (a): delta, shrunk until the _region_sup of quant is <= 1."""
    for _ in range(40):
        if _region_sup(quant, delta) <= 1:
            return delta
        delta = delta * delta if delta < mp.mpf("0.05") else delta / 2
    raise ConstructionFailure("no admissible delta_n (Bloch)")


def build_bloch(symbol=LOG_HALF_SYMBOL, n_max=4) -> ConstructionState:
    """Bloch variant: point values instead of box averages, |g'(0)| = 1.

    Per step n: (a) delta_n = delta_{n-1} (0.125 at n = 1), halved (squared
    below 0.05) until the sampled sup of |F_{n-1} g'| (1-|z|^2) over
    1-|z| <= delta_n is at most 1; (b) delta'_n as for BMOA; (c) squaring
    search for w_n at angle 0 with Re beta |g'| (1-|z|^2) >= 2^n at w_n;
    (d) M_n = max of that value and its sampled sup over 1-|z| <= delta_n;
    (e) a_n = 1/M_n.  Property (2) is certified at w_n (z_n_gap), not where
    M_n is attained: for log-half the region sup attains it at steps 1-6.
    """
    def bloch():
        dg0 = symbol.dg0_abs()
        if dg0 == 0:
            raise ValueError("symbol must satisfy g'(0) != 0")
        scale = 1.0 / dg0
        s1, ls1 = mp.mpf(scale), math.log(scale)
        return _Space(
            mode="bloch", p=1, scale=scale,
            weight=lambda t, g: s1 * mp.sqrt(symbol.base_density(t, g)
                                             * g * (2 - g)),
            log_weight=lambda pts: ls1 + (symbol.log_density(pts) + pts.lg
                                          + pts.l2mg) / 2,
            region=lambda gap: gap,
            value=lambda dens, gap: dens(mp.mpf(0), gap),
            log_value=lambda ld, lg: float(ld(_Points(-math.inf, lg))[0]),
            admissible=_halved_admissible,
            maximum=lambda quant, gap_w, v_w, delta: (
                max(v_w, _region_sup(quant, delta)), gap_w),
            failure=lambda n, gap: ("(Bloch step %d)" % n, {"step": n}),
            step_keys=lambda gap: {"z_n_gap": gap},
            cert_keys=lambda cert2, v_w: {"property2_value": float(cert2)},
            cert_failure="Bloch property (2) failed at step %d: %s")
    return _witness(bloch, symbol, n_max)
