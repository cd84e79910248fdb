"""Numerical engines on the unit disc.

Deterministic (dyadic, no randomness) polar quadrature for area integrals over
the disc and over geodesic Carleson boxes, suprema over circles, radial limit
classification, and Gauss-Legendre line integrals.  All area integrals use the
normalized measure dm = area/pi and clip a boundary annulus of width eps_min.
A power-of-two angle mesh is every s-th point of a finer one, bit for bit.
The module also holds the package's settings: the estimators' CONFIG and the
witness code's working precision, default_bits().
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import expr as _expr
from .hypgeo import GeodesicBox

__all__ = [
    "QuadConfig",
    "CONFIG",
    "default_bits",
    "QuadFailure",
    "LimitVerdict",
    "disc_integral",
    "box_integral",
    "grid_sup",
    "radial_limit",
    "classify_sequence",
    "line_integral",
]


@dataclass(frozen=True)
class QuadConfig:
    """Tolerances and deterministic grid schedule of the estimators.

    The package runs with one instance, CONFIG; every estimator reads it at
    call time and the CLI report echoes it, so the two cannot disagree.
    """

    atol: float = 1e-10
    rtol: float = 1e-9
    max_depth: int = 6
    eps_min: float = 1e-12
    n_radial: int = 8          # Gauss-Legendre nodes per radial panel (base)
    n_angular: int = 64        # angular nodes on the base grid
    tol_vanish: float = 1e-3   # verdict threshold for "vanishes"
    tol_unbounded: float = 1e3  # verdict threshold for "unbounded"
    j_lo: int = 4              # dyadic radius schedule r_j = 1 - 2^-j
    j_hi: int = 40


CONFIG = QuadConfig()

MIN_BITS, MAX_BITS = 53, 4096   # accepted working precisions


def default_bits() -> int:
    """The working precision of the extended-precision witness code:
    HOLOFLOW_PRECISION_BITS (default 256), an integer in [53, 4096].
    Anything else raises ValueError (exit 3)."""
    raw = os.environ.get("HOLOFLOW_PRECISION_BITS", "256")
    try:
        bits = int(raw)
    except ValueError:
        bits = raw
    if not isinstance(bits, int) or not MIN_BITS <= bits <= MAX_BITS:
        raise ValueError("precision bits must be an integer in [%d, %d], "
                         "got %r" % (MIN_BITS, MAX_BITS, bits))
    return bits


class QuadFailure(Exception):
    """Subdivision budget exhausted before the tolerance was met."""


@dataclass
class LimitVerdict:
    """Finite decision about a limit along a monotone parameter sequence."""

    tag: str                      # vanishes | bounded_nonvanishing | unbounded | inconclusive
    samples: list                 # (parameter, value) pairs, parameter monotone
    flags: list = field(default_factory=list)

    @property
    def last_value(self):
        return self.samples[-1][1] if self.samples else math.nan


# ---------------------------------------------------------------------------
# radial panels
# ---------------------------------------------------------------------------

def _radial_panels(eps_min, gap=1.0):
    """Dyadic annuli [1-g, 1-g/2], g = gap, gap/2, ..., accumulating at the
    boundary; the last panel ends at the eps_min annulus."""
    panels = []
    while gap / 2.0 > eps_min:
        panels.append((1.0 - gap, 1.0 - gap / 2.0))
        gap /= 2.0
    panels.append((1.0 - gap, 1.0 - eps_min))
    return panels


def _gl_nodes(a, b, n):
    x, w = leggauss(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


def _radial_nodes(eps_min, n):
    """n-point GL nodes and weights over _radial_panels(eps_min), joined."""
    nodes = [_gl_nodes(a, b, n) for a, b in _radial_panels(eps_min)]
    return (np.concatenate([r for r, _ in nodes]),
            np.concatenate([wr for _, wr in nodes]))


# ---------------------------------------------------------------------------
# disc integrals
# ---------------------------------------------------------------------------

def _refine(value, what):
    """value(depth) for depth = 0, 1, ... until two successive levels agree
    to atol + rtol |value|; returns (value, difference of the last two)."""
    prev = value(0)
    for depth in range(1, CONFIG.max_depth + 1):
        cur = value(depth)
        err = abs(cur - prev)
        if err <= CONFIG.atol + CONFIG.rtol * abs(cur):
            return cur, err
        prev = cur
    raise QuadFailure("%s did not converge within depth budget" % what)


def _disc_value(density, depth):
    n_r = CONFIG.n_radial + 2 * depth
    eit = _angle_mesh(CONFIG.n_angular * (2 ** depth))
    total = 0.0
    for a, b in _radial_panels(CONFIG.eps_min):
        r, wr = _gl_nodes(a, b, n_r)
        z = r[:, None] * eit[None, :]
        vals = np.asarray(density(z), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise QuadFailure("density not finite inside integration region")
        # dm = (1/pi) r dr dtheta; angular mean * 2 r dr
        total += float(np.sum((vals.mean(axis=1) * 2.0 * r) * wr))
    return total


def disc_integral(density):
    """Integral of density over the disc w.r.t. dm; returns (value, error).

    A reference implementation: the tests check closed-form oracles and
    the box quadrature against it.  No CLI command runs it.
    """
    return _refine(lambda depth: _disc_value(density, depth), "disc integral")


def _box_value(box, density, depth):
    arc = box.arc
    n_r = CONFIG.n_radial + 2 * depth
    n_phi = max(8, CONFIG.n_angular // 4) * (2 ** depth)
    r_min = box.closest_radius
    gap0 = 1.0 - r_min
    xg, wg = leggauss(n_phi)
    center = arc.theta_c

    def add_section(r, wr):
        # integral over the angular section at each radius, GL in the angle
        half = box.angular_halfwidth(r)
        half = np.where(np.isnan(half), 0.0, half)
        phi = center + half[:, None] * xg[None, :]
        z = r[:, None] * np.exp(1j * phi)
        vals = np.asarray(density(z), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise QuadFailure("density not finite inside box")
        angular = (vals * wg[None, :]).sum(axis=1) * half  # int over [-half, half]
        return float(np.sum(angular * r * wr) / math.pi)

    total = 0.0
    # inner region [r_min, r_min + gap0/2]: the section width behaves like
    # sqrt(r - r_min); substitute r = r_min + u^2 to restore smoothness
    u_max = math.sqrt(gap0 / 2.0)
    for lo, hi in ((0.0, 0.5 * u_max), (0.5 * u_max, u_max)):
        u, wu = _gl_nodes(lo, hi, 2 * n_r)
        total += add_section(r_min + u * u, 2.0 * u * wu)
    # dyadic annuli toward the boundary
    for a, b in _radial_panels(CONFIG.eps_min, gap0 / 2.0):
        r, wr = _gl_nodes(a, b, n_r)
        total += add_section(r, wr)
    return total


def box_integral(box, density):
    """Integral of density over S(I) (clipped at the eps_min annulus).

    A reference implementation that no CLI command runs: the tests check
    the extended-precision box average construct.mp_box_average(density,
    length), whose arcs are centred at angle 0, against it.
    """
    if not isinstance(box, GeodesicBox):
        raise TypeError("box must be a GeodesicBox")
    l = box.arc.length
    if l == 1.0:
        return disc_integral(density)[0]
    if l > 0.5:     # a long box's section kinks at pi: direct panels stall
        whole = disc_integral(density)[0]
        return whole - box_integral(box.opposite(), density)
    return _refine(lambda depth: _box_value(box, density, depth),
                   "box integral")[0]


# ---------------------------------------------------------------------------
# circle suprema
# ---------------------------------------------------------------------------

def _angle_mesh(n):
    """e^{i theta_k}, theta_k = k 2 pi / n, k < n.  For powers of two the
    mesh of n/s angles is every s-th point of this one, bit for bit."""
    return np.exp(1j * (np.arange(n) * (2.0 * math.pi / n)))


def _finite_samples(sampler, z):
    """sampler(z) as floats, with non-finite samples as -inf."""
    with np.errstate(all="ignore"):
        vals = np.asarray(sampler(z), dtype=float)
    return np.where(np.isfinite(vals), vals, -math.inf)


def grid_sup(sampler, r, n_angles):
    """Max of sampler over n_angles equispaced points of |z| = r, a float lower
    estimate of its supremum there; non-finite samples count as -inf."""
    return float(np.max(_finite_samples(sampler, r * _angle_mesh(n_angles))))


# ---------------------------------------------------------------------------
# limit classification
# ---------------------------------------------------------------------------

def classify_sequence(samples, slope_rule=False):
    """Assign a LimitVerdict tag to a monotone-parameter sample sequence.

    The literal decision rules: the tail must fall below tol_vanish for
    "vanishes", rise above tol_unbounded while increasing for "unbounded",
    stabilize/oscillate inside the bracket for "bounded_nonvanishing".  With
    slope_rule=True a decreasing tail whose log-log slope against the sample
    index is steeper than -0.4 also counts as vanishing; this admits the slow
    1/log-type decay produced by Carleson-box averages.
    """
    tol_v, tol_u = CONFIG.tol_vanish, CONFIG.tol_unbounded
    samples = [(p, v) for p, v in samples if math.isfinite(v)]
    flags = []
    if len(samples) < 4:
        return LimitVerdict("inconclusive", samples, ["too few finite samples"])
    vals = np.array([v for _, v in samples], dtype=float)
    tail = vals[-min(8, len(vals)):]
    last = float(tail[-1])
    diffs = np.diff(tail)
    decreasing = np.mean(diffs <= 1e-15 + 1e-9 * np.abs(tail[:-1])) >= 0.75
    increasing = np.mean(diffs >= 0.0) >= 0.75

    if tol_v / 10 < last < tol_v * 10 or tol_u / 10 < last < tol_u * 10:
        flags.append("near_threshold")

    tag = "inconclusive"
    if last < tol_v and decreasing:
        tag = "vanishes"
    elif slope_rule and decreasing and len(vals) >= 6:
        # power-law fit of value against sample index over the tail
        n = min(8, len(vals))
        idx = np.arange(len(vals) - n + 1, len(vals) + 1, dtype=float)
        y = vals[-n:]
        if np.all(y > 0):
            slope = np.polyfit(np.log(idx), np.log(y), 1)[0]
            if slope <= -0.4:
                tag = "vanishes"
                flags.append("slope_rule slope=%.3f" % slope)
    if tag == "inconclusive":
        if last > tol_u and increasing:
            tag = "unbounded"
        elif tol_v <= last <= tol_u:
            tag = "bounded_nonvanishing"
        elif last < tol_v:
            # dipped below tolerance without a clean decreasing tail
            tag = "vanishes" if np.max(tail) < tol_v * 10 else "inconclusive"
    return LimitVerdict(tag, samples, flags)


def radial_schedule():
    """Radii r_j = 1 - 2^-j, j = j_lo..j_hi, capped at the eps_min annulus."""
    out = []
    for j in range(CONFIG.j_lo, CONFIG.j_hi + 1):
        gap = 2.0 ** (-j)
        if gap < CONFIG.eps_min:
            break
        out.append((j, 1.0 - gap))
    return out


def radial_limit(sampler, slope_rule=False):
    """Classify the limit of sampler(r) as r -> 1 along the dyadic schedule."""
    samples = []
    skipped = []
    for _, r in radial_schedule():
        try:
            v = float(sampler(r))
        except (ArithmeticError, _expr.EvalDomainError):
            skipped.append(r)
            continue
        if math.isfinite(v):
            samples.append((r, v))
        else:
            skipped.append(r)
    verdict = classify_sequence(samples, slope_rule=slope_rule)
    if skipped:
        verdict.flags.append("skipped %d radii" % len(skipped))
    return verdict


# ---------------------------------------------------------------------------
# line integrals
# ---------------------------------------------------------------------------

def line_integral(f, z0, z1):
    """Integral of f along the straight segment [z0, z1].

    f is a vectorized callable.  Composite Gauss-Legendre with panel
    doubling; relative tolerance ~1e-12 against the previous level.
    """
    z0, z1 = complex(z0), complex(z1)
    direction = z1 - z0
    if direction == 0:
        return 0.0 + 0.0j
    xg, wg = leggauss(16)

    def level(n_panels):
        edges = np.linspace(0.0, 1.0, n_panels + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        halves = 0.5 * np.diff(edges)
        t = mids[:, None] + halves[:, None] * xg[None, :]
        w = halves[:, None] * wg[None, :]
        pts = z0 + t * direction
        vals = np.asarray(f(pts.ravel()), dtype=complex).reshape(t.shape)
        if not np.all(np.isfinite(vals)):
            raise _expr.EvalDomainError("pole or branch point on integration path")
        return complex(np.sum(vals * w)) * direction

    prev = level(1)
    n = 2
    for _ in range(CONFIG.max_depth + 6):
        cur = level(n)
        if abs(cur - prev) <= CONFIG.atol + 1e-12 * abs(cur):
            return cur
        prev = cur
        n *= 2
    raise QuadFailure("line integral did not converge")
