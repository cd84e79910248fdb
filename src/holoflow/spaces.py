"""Bloch/BMOA seminorm estimators, vanishing tests, and minimality verdicts.

Seminorms are grid estimates with refinement diagnostics, never exact norms.
The Bloch seminorm is a sup over point samples, so a lower bound, to depth
J = 20; its nested grids sample each radius once, on the finest grid's
angles, and a coarser grid reads every s-th sample of a ring.  The BMOA
seminorm reduces box averages over the dyadic arc family, computed on a
master polar grid with per-ring angular prefix sums, so the whole family
costs one density evaluation; it stops at J = 12, the depth the grid's
2^(J+4) angles resolve.  The a-dependent Garsia-style integrals

    int g(z) (1 - |phi_a(z)|^2) dm(z),
    1 - |phi_a(z)|^2 = (1 - |a|^2)(1 - |z|^2) / |1 - conj(a) z|^2,

sample g once on a polar grid clustered at the hot angles, where g or the
kernel peaks; each query applies the kernel in polar form (GarsiaIntegrator).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import expr as _expr
from . import quad
from .expr import _CHUNK, FunctionHandle, _map
from .hypgeo import Arc, GeodesicBox, one_minus_abs_sq
from .quad import (LimitVerdict, _angle_mesh, _finite_samples, _radial_nodes,
                   classify_sequence, grid_sup, radial_limit)
from .semigroup import _sample_grid, classify, gamma_symbol

__all__ = [
    "Weight",
    "SeminormReport",
    "ConditionReport",
    "MinimalityReport",
    "bloch_seminorm",
    "bloch_vanishing",
    "bmoa_seminorm",
    "bmoa_vanishing",
    "seminorm",
    "lvb_check",
    "logbloch_check",
    "lvmo_check",
    "lbmo_check",
    "minimality",
    "weight_regularity",
    "pommerenke_check",
]


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Weight:
    """Radial weight on the disc: omega = 1 or omega_K = log(K/(1-|z|^2)),
    1 < K < inf.

    K = e reproduces the classical logarithmic weight log(e/(1-|z|^2)).
    """

    tag: str                 # "unit" | "logK"
    K: float = math.e

    def __post_init__(self):
        if self.tag not in ("unit", "logK"):
            raise ValueError("unknown weight tag %r" % (self.tag,))
        if self.tag == "logK" and not 1.0 < self.K < math.inf:
            raise ValueError("logK weight requires 1 < K < inf")

    @staticmethod
    def unit() -> "Weight":
        return Weight("unit")

    @staticmethod
    def log() -> "Weight":
        return Weight("logK", math.e)

    @staticmethod
    def log_K(K) -> "Weight":
        return Weight("logK", float(K))

    def from_oms(self, oms):
        """Weight value as a function of 1 - |z|^2 (vectorized)."""
        if self.tag == "unit":
            return np.ones_like(np.asarray(oms, dtype=float))
        return np.log(self.K / np.asarray(oms, dtype=float))

    def arc_factor(self, length) -> float:
        """Multiplier on a box average over an arc of normalized length l."""
        if self.tag == "unit":
            return 1.0
        return math.log(self.K / length) ** 2


def weight_regularity(w: Weight) -> float:
    """Regularity constant C_omega of w, in closed form: 0 for omega = 1 and
    2/log K for omega_K, since (1-|z|^2)|grad omega_K| = 2|z| < 2 and
    omega_K >= log K give (1-|z|^2)|grad omega_K| <= C_omega omega_K."""
    return 0.0 if w.tag == "unit" else 2.0 / math.log(w.K)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass
class SeminormReport:
    space: str                # "bloch" | "bmoa"
    weight: Weight
    value: float              # grid estimate (bloch: a lower bound)
    resolution: int
    history: list             # (resolution or j, value), nondecreasing
    scale_series: list = field(default_factory=list)  # (j, sup over centers)
    trend: str = ""           # "", "growing", "stable", "decaying"


@dataclass
class ConditionReport:
    condition: str            # LVB | LVMO | LOGBLOCH | LBMO
    verdict: LimitVerdict
    satisfied: bool
    gamma_form: bool = False


@dataclass
class MinimalityReport:
    kind: str
    elliptic: bool
    lvb: ConditionReport
    lvmo: ConditionReport
    minimal: bool
    verdicts_agree: bool


# ---------------------------------------------------------------------------
# Bloch estimators
# ---------------------------------------------------------------------------

def _bloch_sampler(f, w):
    _, fp = FunctionHandle.of(f)

    def sampler(z):
        oms = one_minus_abs_sq(z)
        return np.abs(fp(z)) * oms * w.from_oms(oms)

    return sampler


def bloch_seminorm(f, w=Weight.unit(), J=8) -> SeminormReport:
    """Grid lower bound for sup |f'(z)| (1-|z|^2) omega(z) at resolution J + 4.

    Level res = 4, 6, ..., J + 4 of the history is the max over the origin
    and the rings of radii k 2^-min(res, 6) and 1 - 2^-j, j <= res, on
    2^(min(res, 8) + 3) angles; the levels nest, so the history is
    nondecreasing.  Each radius is sampled once, when a level first needs
    it, on the finest level's angles and one ring per call (compose_apply
    integrates a ring as one ODE system); a coarser level reads every s-th
    sample, its own angles bit for bit (quad._angle_mesh)."""
    _check_depth(J, MAX_J)
    sampler, top = _bloch_sampler(f, w), J + 4
    eit = _angle_mesh(2 ** (min(top, 8) + 3))
    rings, history = {}, []             # radius -> its samples
    for res in sorted(set(range(4, top + 1, 2)) | {top}):
        m, s = min(res, 6), eit.size >> (min(res, 8) + 3)
        radii = ({k * 2.0 ** -m for k in range(2 ** m)}
                 | {1.0 - 2.0 ** -j for j in range(1, res + 1)})
        for r in sorted(radii - rings.keys()):
            z = r * eit if r else np.zeros(1, complex)
            rings[r] = _finite_samples(sampler, z)
        history.append((res, max(float(np.max(rings[r][::s])) for r in radii)))
    return SeminormReport("bloch", w, history[-1][1], top, history)


def bloch_vanishing(f, w=Weight.unit()) -> LimitVerdict:
    """Limit as r -> 1 of the Bloch integrand's sup over 256 angles of |z| = r.

    The slope rule admits 1/log-type decay (e.g. (log(e/(1-z)))^{1/2}, which
    lies in the little Bloch space but decays too slowly for the literal
    threshold); the verdict records when the rule fired.
    """
    sampler = _bloch_sampler(f, w)
    # a circle without finite samples gives -inf, which radial_limit skips
    return radial_limit(lambda r: grid_sup(sampler, r, 256), slope_rule=True)


# ---------------------------------------------------------------------------
# Carleson-box averages on the master grid
# ---------------------------------------------------------------------------

N_GL = 4          # Gauss-Legendre nodes per dyadic annulus
TAIL_DEPTH = 8    # annuli of the master grid beyond the finest arc octave
VANISHING_J = 12  # finest arc octave 2^-J of bmoa_vanishing
MAX_J = 20        # deepest accepted J; Bloch runs at resolution J + 4
MAX_BMOA_J = 12   # deepest BMOA J: its master grid has 2^(J+4) angles
FRACS = (1.0, 0.75)  # arc lengths per octave, as fractions of 2^-j


def _check_depth(J, top):
    if not 0 <= J <= top:
        raise ValueError("depth J must be in [0, %d], got %r" % (top, J))


def _master_grid(J):
    """Polar grid: dyadic annuli with GL radial nodes, uniform angles.

    Returns (r nodes, ring weights with the 2 r dr factor, n_theta).  The
    integral of a density against dm is sum_i wr_i * mean_over_theta(row_i).
    """
    _check_depth(J, MAX_BMOA_J)
    n_theta = 1 << (J + 4)
    k_cap = max(J + TAIL_DEPTH, 16)
    r, wr = _radial_nodes(2.0 ** -k_cap, N_GL)
    return r, wr * 2.0 * r, n_theta


def _octave_sups(f, w, J):
    """Per-octave sups [s_0, ..., s_J] of box averages of |f'|^2 (1-|z|^2).

    s_j is the max, from 0.0, over the arc lengths frac 2^-j, frac in FRACS,
    and the 2^(j+2) centers of the angular grid, of the average with its 1/l
    normalization and the weight's arc factor.  Only the master grid's cell
    values and per-ring prefix sums are held, side by side so that one
    gather reads both.  Each pool task takes a ~2^14-cell block of whole
    rings, forms z for its rows and evaluates f' there, so a flow density
    (Sarason's) is one ODE system per ring block.

    The grid has 2^(J+4) angles, at least four cells per center, so center
    i of n_c sits on cell i n_theta / n_c and each window end is that cell
    plus a whole a and a fraction in [0, 1), both fixed per ring: per
    (ring, center) only integer indices and the gathers remain.  Each
    member's window sums over its rings, in ring order, run on the pool in
    ranges of centers, one max per task: for a pointwise density the bits
    do not depend on the ranges or the workers.  A max that is not finite
    (|f'|^2 or a prefix sum overflowed) raises QuadFailure.
    """
    _, fp = FunctionHandle.of(f)
    r, wr, n_theta = _master_grid(J)
    eit = _angle_mesh(n_theta)
    # cells[i, k] = (sum of ring i's values before cell k, value of cell k),
    # a value |f'|^2 (1-|z|^2), 0 where f' is inf/nan; cells[i, n_theta, 0]
    # is the ring's total
    cells = np.zeros((r.size, n_theta + 1, 2))
    pref, vals = cells[:, :, 0], cells[:, :-1, 1]

    def rings(rows):
        z = r[rows, None] * eit[None, :]
        with np.errstate(all="ignore"):     # numpy's error state is per thread
            d = fp(z)
            vals[rows] = np.where(np.isfinite(d),
                                  np.abs(d) ** 2 * one_minus_abs_sq(z), 0.0)
            np.cumsum(vals[rows], axis=1, out=pref[rows, 1:])

    per = max(1, _CHUNK // n_theta)
    _map(rings, [slice(i, i + per) for i in range(0, r.size, per)])
    flat = cells.view(complex).reshape(-1)     # pref + 1j vals, flat
    shift, dtheta = n_theta.bit_length() - 1, 2.0 * math.pi / n_theta

    sups = [0.0] * (J + 1)
    for j, frac in itertools.product(range(J + 1), FRACS):
        length, n_c = frac * 2.0 ** (-j), 1 << (j + 2)
        # per-ring halfwidth, nan = empty; the member's (rings, 1) columns
        half = GeodesicBox(Arc(0.0, length)).angular_halfwidth(r)
        rows = np.nonzero(half > 0.0)[0]
        hc = half[rows, None] / dtheta
        a_lo, a_hi = np.floor(-hc), np.floor(hc)
        f_lo, f_hi = -hc - a_lo, hc - a_hi
        a_lo, a_hi = a_lo.astype(np.int64), a_hi.astype(np.int64)
        row = rows[:, None] * (n_theta + 1)
        total, weight = pref[rows, -1:], wr[rows, None] / n_theta
        stride = n_theta // n_c

        def window_max(span):
            """Max over the centers in span of the rings' weighted sums of
            cum(hi) - cum(lo), cum = turns total + pref + frac vals."""
            cell = np.arange(span.start, span.stop) * stride
            lo, hi = a_lo + cell, a_hi + cell           # (rings, centers)
            with np.errstate(all="ignore"):
                s = total * ((hi >> shift) - (lo >> shift))
                lo &= n_theta - 1
                hi &= n_theta - 1
                lo += row
                hi += row
                at_lo, at_hi = flat.take(lo), flat.take(hi)
                # in place: the gathered vals become frac vals, lo's plus pref
                at_hi.imag *= f_hi
                s += at_hi.real
                s += at_hi.imag
                at_lo.imag *= f_lo
                at_lo.imag += at_lo.real
                s -= at_lo.imag
                s *= weight
                return np.max(np.sum(s, axis=0))

        step = max(1, _CHUNK // max(rows.size, 1))
        spans = [range(i, min(i + step, n_c)) for i in range(0, n_c, step)]
        top = np.max(_map(window_max, spans))
        value = w.arc_factor(length) * float(top) / length
        if not math.isfinite(value):
            raise quad.QuadFailure("box average overflowed at j = %d" % j)
        sups[j] = max(sups[j], value)
    return sups


def bmoa_seminorm(f, w=Weight.unit(), J=8) -> SeminormReport:
    """Sqrt of the sup over the dyadic arc family of weighted box averages.

    The per-octave sups (floored at 0) are the scale series; the history is
    the running seminorm after each octave.  J is at most MAX_BMOA_J: the
    master grid's 2^(J+4) angles resolve the finest arcs only that far, and
    beyond it the rectangle rule on the peaked |f'|^2 drives the sups up."""
    _check_depth(J, MAX_BMOA_J)
    sups = _octave_sups(f, w, J)
    history = [(j, math.sqrt(s))
               for j, s in enumerate(itertools.accumulate(sups, max))]
    tail = sups[-6:]
    ratios = [b / a for a, b in zip(tail, tail[1:]) if a > 0]
    if ratios and min(ratios) >= 1.02:
        trend = "growing"
    elif ratios and max(ratios) <= 0.98:
        trend = "decaying"
    else:
        trend = "stable"
    return SeminormReport("bmoa", w, history[-1][1], J, history,
                          scale_series=list(enumerate(sups)), trend=trend)


def bmoa_vanishing(f, w=Weight.unit()) -> LimitVerdict:
    """Limit of sup-over-centers box averages as the arc length 2^-j -> 0:
    bmoa_seminorm's octave sups at j = 2..VANISHING_J."""
    series = bmoa_seminorm(f, w, VANISHING_J).scale_series
    return classify_sequence(series[2:], slope_rule=True)


def seminorm(f, space, w=Weight.unit(), J=8) -> SeminormReport:
    """The space's seminorm at depth J: bmoa_seminorm or bloch_seminorm."""
    _check_depth(J, MAX_J)
    if space == "bmoa":
        return bmoa_seminorm(f, w, J=J)
    if space == "bloch":
        return bloch_seminorm(f, w, J)
    raise ValueError("space must be 'bmoa' or 'bloch', got %r" % (space,))


# ---------------------------------------------------------------------------
# Mobius-pullback Garsia integrals
# ---------------------------------------------------------------------------

def _adaptive_angles(hot_angles):
    """64 uniform angles plus geometric clusters around each hot angle.

    Offsets shrink to ~pi 2^-40 ~ 2.9e-12 so the trapezoid mesh resolves
    kernel or density spikes of any width the double grid can reach.
    """
    offs = math.pi * 2.0 ** (-np.arange(2.0, 41))
    parts = [np.arange(64) * (2.0 * math.pi / 64)]
    for th in hot_angles:
        parts.append(np.concatenate(([th], th + offs, th - offs)))
    t = np.unique(np.concatenate(parts) % (2.0 * math.pi))
    return t


class GarsiaIntegrator:
    """Evaluates a -> int sq_density(z) (1 - |phi_a(z)|^2) dm(z).

    The density is sampled once on a polar grid z = rho e^{i theta}: dyadic
    radial annuli times an angular mesh clustered around the hot angles
    (where the density or the kernel peaks; the spike at arg(a) is resolved
    only if arg(a) is one).  A query a = r e^{i alpha} takes the kernel in
    polar form, |1 - conj(a) z|^2 = (1 - r rho)^2 + 4 r rho sin^2((theta -
    alpha)/2), with 1 - r rho and 1 - r^2 formed from the gaps 1 - r and
    1 - rho, so no digit cancels.  Each angle is summed alone, on the pool
    and without BLAS, so its bits depend on no other angle or thread count.
    """

    def __init__(self, sq_density, hot_angles):
        t = _adaptive_angles(sorted(set(float(h) % (2.0 * math.pi)
                                        for h in hot_angles)))
        # periodic trapezoid weights on the nonuniform angular mesh
        gaps = np.diff(np.concatenate((t, [t[0] + 2.0 * math.pi])))
        wt = 0.5 * (gaps + np.roll(gaps, 1))
        r, wr = _radial_nodes(quad.CONFIG.eps_min, N_GL)
        oms = (1.0 - r) * (1.0 + r)
        with np.errstate(all="ignore"):
            g = np.asarray(sq_density(r[:, None] * np.exp(1j * t[None, :])),
                           float)
        g = np.where(np.isfinite(g), g, 0.0)
        # everything except the a-kernel, including (1-|z|^2) and dm weights
        self._base = g * (oms * r * wr)[:, None] * wt[None, :] / math.pi
        self._rho, self._om_rho, self._theta = r, 1.0 - r, t
        self._sin_sq = {}           # alpha -> sin^2((theta - alpha)/2)

    def _half_sin_sq(self, alpha):
        if alpha not in self._sin_sq:
            self._sin_sq[alpha] = np.sin(0.5 * (self._theta - alpha)) ** 2
        return self._sin_sq[alpha]

    def __call__(self, r, angles):
        """The integral at a = r e^{i alpha} for each alpha in angles."""
        r = float(r)
        om = 1.0 - r
        gap = om + self._om_rho - om * self._om_rho      # 1 - r rho per ring
        c, s = (gap * gap)[:, None], (4.0 * r * self._rho)[:, None]
        rows = [self._half_sin_sq(float(a) % (2.0 * math.pi)) for a in angles]
        return om * (1.0 + r) * np.array(_map(partial(self._sum, c, s), rows))

    def _sum(self, c, s, half_sin_sq):
        d = np.multiply(s, half_sin_sq)
        d += c                                            # |1 - conj(a) z|^2
        return float(np.divide(self._base, d, out=d).sum())


def _density_hot_angles(sq_density):
    """Angles where the density blows up near the boundary (local maxima
    exceeding 1e4 x median on a 4096-angle scan of |z| = 1 - 1e-6)."""
    t = np.arange(4096) * (2.0 * math.pi / 4096)
    with np.errstate(all="ignore"):
        v = np.asarray(sq_density((1.0 - 1e-6) * np.exp(1j * t)), dtype=float)
    v = np.where(np.isfinite(v), v, np.inf)
    med = float(np.median(v[np.isfinite(v)])) if np.any(np.isfinite(v)) else 1.0
    big = v > max(1e4 * med, 1e-300)
    peaks = big & (v >= np.roll(v, 1)) & (v >= np.roll(v, -1))
    return [float(t[k]) for k in np.nonzero(peaks)[0]][:8]


def _garsia_sweep(fp, factor, n_angles):
    """Classify factor(1 - r^2) max_{|a| = r} int |f'|^2 (1 - |phi_a|^2) dm
    along the dyadic radial schedule, a on n_angles equispaced angles."""
    thetas = np.arange(n_angles) * (2.0 * math.pi / n_angles)
    sq = lambda z: np.abs(fp(z)) ** 2
    integ = GarsiaIntegrator(sq, list(thetas) + _density_hot_angles(sq))
    return radial_limit(lambda r: factor((1.0 - r) * (1.0 + r))
                        * float(np.max(integ(r, thetas))))


# ---------------------------------------------------------------------------
# LVB / LVMO condition checkers
# ---------------------------------------------------------------------------

def _lvb_verdict(gen):
    skipped = [0]

    def circle_values(r, z):
        gv = np.abs(_expr.evaluate_array(gen.G, z))
        oms = 1.0 - r * r
        with np.errstate(divide="ignore", over="ignore"):
            vals = oms / gv * math.log(1.0 / oms)
        skip = ~np.isfinite(vals) | (gv <= 1e-300)
        skipped[0] += int(np.sum(skip))
        return np.where(skip, np.nan, vals)

    # a circle with no usable sample gives -inf, which radial_limit skips
    verdict = radial_limit(
        lambda r: grid_sup(partial(circle_values, r), r, 64))
    if skipped[0]:
        verdict.flags.append("skipped %d samples at zeros of G" % skipped[0])
    return verdict


def lvb_check(gen) -> ConditionReport:
    """lim_{|z|->1} (1-|z|^2)/|G(z)| log(1/(1-|z|^2)) = 0 along angular sups."""
    v = _lvb_verdict(gen)
    return ConditionReport("LVB", v, v.tag == "vanishes")


def logbloch_check(gen) -> ConditionReport:
    """limsup-finite variant of the same quantity."""
    v = _lvb_verdict(gen)
    return ConditionReport("LOGBLOCH", v,
                           v.tag in ("vanishes", "bounded_nonvanishing"))


def _lvmo_verdict(gen):
    _, gp = gamma_symbol(gen)
    return _garsia_sweep(gp, lambda oms: (math.log(math.e / oms)) ** 2, 16)


def lvmo_check(gen) -> ConditionReport:
    """Lambda(a) = log(e/(1-|a|^2))^2 int |gamma'|^2 (1-|phi_a|^2) dm -> 0.

    Uses the gamma-symbol integrand (gamma' = (z-tau)/G elliptic, i/G
    boundary).
    """
    v = _lvmo_verdict(gen)
    return ConditionReport("LVMO", v, v.tag == "vanishes", gamma_form=True)


def lbmo_check(gen) -> ConditionReport:
    v = _lvmo_verdict(gen)
    return ConditionReport("LBMO", v,
                           v.tag in ("vanishes", "bounded_nonvanishing"),
                           gamma_form=True)


def minimality(gen) -> MinimalityReport:
    """Maximal-subspace minimality verdict: elliptic and LVB (equiv. LVMO)."""
    cls = classify(gen)
    elliptic = cls.kind == "elliptic"
    lvb = lvb_check(gen)
    lvmo = lvmo_check(gen)
    agree = lvb.satisfied == lvmo.satisfied
    return MinimalityReport(cls.kind, elliptic, lvb, lvmo,
                            elliptic and lvb.satisfied and agree, agree)


# ---------------------------------------------------------------------------
# weighted Pommerenke machinery
# ---------------------------------------------------------------------------

def _univalence_probe(fv):
    z = _sample_grid()
    vals = fv(z)
    d = np.abs(vals[:, None] - vals[None, :])
    np.fill_diagonal(d, np.inf)
    sep = np.abs(z[:, None] - z[None, :])
    np.fill_diagonal(sep, 1.0)
    collisions = (d < 1e-10) & (sep > 1e-6)
    return not bool(np.any(collisions))


@dataclass
class PommerenkeReport:
    univalent: bool
    hypothesis: LimitVerdict | None
    conclusion: LimitVerdict | None
    contract_applies: bool
    contract_holds: bool | None


def pommerenke_check(f, w: Weight) -> PommerenkeReport:
    """Univalent transfer: omega-Bloch vanishing forces omega-BMOA vanishing.

    Hypothesis quantity: sup_theta |f'| (1-|z|^2) omega at radius r.
    Conclusion quantity: sup_theta omega(a)^2 int |f'|^2 (1-|phi_a|^2) dm
    along |a| = r over 8 angles.  If the hypothesis verdict is not
    "vanishes" the report records that and makes no contract claim.
    """
    f = FunctionHandle.of(f)
    if not _univalence_probe(f.val):
        raise ValueError("collision probe failed: f is not univalent on grid")
    if weight_regularity(w) >= 1.0:
        raise ValueError("weight regularity constant must be < 1")
    hyp = bloch_vanishing(f, w)

    def weight_sq(oms):
        om = float(w.from_oms(np.array([oms]))[0])
        return om * om

    concl = _garsia_sweep(f.der, weight_sq, 8)
    applies = hyp.tag == "vanishes"
    holds = (concl.tag == "vanishes") if applies else None
    return PommerenkeReport(True, hyp, concl, applies, holds)
