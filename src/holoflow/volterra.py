"""Generalized Volterra operators, composition semigroups, continuity probes.

T_g f(z) = int_0^z f g' dzeta and C_t f = f o phi_t.  Operator boundedness is
probed on a finite test family, never decided: every OperatorProbe carries an
explicit "probe, not proof" marker.  Seminorms of C_t f - f reuse the spaces
module's arc/grid family so differences across t are not grid noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spaces
from .expr import FunctionHandle, _map
from .quad import line_integral
from .semigroup import T_MAX, checked_time, flow_points
from .spaces import Weight

__all__ = [
    "OperatorProbe",
    "ContinuityProbe",
    "volterra_apply",
    "compose_apply",
    "continuity_probe",
    "boundedness_probe",
    "STANDARD_FAMILY",
]

# the six-member standard test family
STANDARD_FAMILY = (
    "1",
    "z",
    "z^2",
    "log(e/(1 - z))",
    "(log(e/(1 - z)))^0.5",
    "(0.5 - z)/(1 - 0.5*z)",
)


def volterra_apply(g, f) -> FunctionHandle:
    """T_g f(z) = int_0^z f(s) g'(s) ds; T_g f(0) = 0 exactly."""
    fv, _ = FunctionHandle.of(f)
    _, gp = FunctionHandle.of(g)

    def der(z):
        return fv(np.asarray(z, dtype=complex)) * gp(np.asarray(z, dtype=complex))

    def val(z):
        return line_integral(lambda s: fv(s) * gp(s), 0.0, z)

    return FunctionHandle(val, der)


def compose_apply(gen, t, f) -> FunctionHandle:
    """C_t f = f o phi_t as a vectorized (value, derivative) handle."""
    fv, fp = FunctionHandle.of(f)
    t = checked_time(t, T_MAX)

    def _flowed(z):
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        shape = z.shape
        w, j, _ = flow_points(gen, z.ravel(), t)
        return w.reshape(shape), j.reshape(shape)

    def val(z):
        w, _ = _flowed(z)
        return fv(w)

    def der(z):
        w, j = _flowed(z)
        return fp(w) * j

    return FunctionHandle(val, der)


@dataclass
class ContinuityProbe:
    times: list
    values: list                 # seminorm of C_t f - f per time
    space: str
    trend: str                   # "decays" | "floor" | "mixed"
    floor: float


def continuity_probe(gen, f, times, space="bmoa") -> ContinuityProbe:
    """Unweighted seminorms (spaces.seminorm at its default depth) of
    C_t f - f along decreasing times, with a trend tag.

    times: 1 to 8 strictly decreasing values in (0, 1]; anything else
    raises ValueError before any flow runs.
    """
    times = [checked_time(t, 1.0) for t in times]
    if (not 0 < len(times) <= 8 or times[-1] <= 0
            or any(b >= a for a, b in zip(times, times[1:]))):
        raise ValueError("times must be 1 to 8 strictly decreasing values "
                         "in (0, 1]")
    f = FunctionHandle.of(f)

    def value(t):
        ct = compose_apply(gen, t, f)
        diff = FunctionHandle(lambda z: ct.val(z) - f.val(z),
                              lambda z: ct.der(z) - f.der(z))
        return spaces.seminorm(diff, space).value

    values = _map(value, times)     # one independent flow per time
    floor = min(values)
    decaying = all(b < a for a, b in zip(values, values[1:]))
    if decaying and values[-1] < 0.25 * values[0]:
        trend = "decays"
    elif floor > 0.25 * max(values):
        # non-members sit well above a quarter of the peak (VMOA members
        # decay by orders of magnitude over the same time range)
        trend = "floor"
    else:
        trend = "mixed"
    return ContinuityProbe(times, values, space, trend, floor)


@dataclass
class OperatorProbe:
    symbol: str
    space: str
    members: list                # source strings
    member_norms: list           # seminorm + |f(0)| per member
    image_norms: list            # at the refined resolution
    ratios: list
    ratio_growth: list           # refined ratio / coarse ratio per member
    marker: str = "probe, not proof"


def boundedness_probe(g_src, space="bmoa", w=Weight.unit()) -> OperatorProbe:
    """Ratios ||T_g f|| / ||f|| over STANDARD_FAMILY at depths J = 5 and 9,
    for the symbol g given by its source string.

    The denominator is the seminorm plus |f(0)| (the constant member has zero
    seminorm).  ratio_growth > 1 under refinement is the divergence signal;
    finite families give necessary evidence only.
    """
    g = FunctionHandle.from_source(g_src)

    def member(src):
        f = FunctionHandle.of(src)
        f0 = abs(complex(f.val(np.array([0.0 + 0.0j]))[0]))
        image = volterra_apply(g, f)
        r = []
        for J in (5, 9):
            num = spaces.seminorm(image, space, w, J).value
            den = spaces.seminorm(f, space, w, J).value + f0
            r.append(num / den if den > 0 else math.inf)
        # num and den as computed at J = 9
        return den, num, r[1], r[1] / r[0] if r[0] > 0 else math.inf

    rows = _map(member, STANDARD_FAMILY)       # one member per task
    mnorms, inorms, ratios, growth = map(list, zip(*rows))
    return OperatorProbe(g_src, space, list(STANDARD_FAMILY), mnorms, inorms,
                         ratios, growth)
