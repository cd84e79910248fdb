"""Hyperbolic geometry of the Poincare disc.

The Mobius involution phi(a, z), hyperbolic distance, hyperbolic midpoints,
boundary arcs and the geodesic Carleson box GeodesicBox(arc) bounded by the
geodesic over an arc.  Points near the boundary carry an explicit gap field
eps = 1 - |z| so that 1 - |z|^2 can always be formed without cancellation as
eps * (2 - eps).

Arc lengths are normalized to fractions of the full circle.  A box over an
arc of length l has at radius r > 0 the section cos(dtheta) >= x =
(1 + r^2) cos(pi l)/(2r), of half-width 2 asin(sqrt((1 - x)/2)) from the
cancellation-free 1 - x = 2 s^2 (1 + q) - q, s = sin(pi l/2) and
q = gap^2/(2r); the origin lies in the box iff l >= 1/2.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DiscPoint",
    "Arc",
    "GeodesicBox",
    "phi",
    "hyp_dist",
    "midpoint_from_origin",
    "arc_of",
    "box_contains",
    "one_minus_abs_sq",
]

TWO_PI = 2.0 * math.pi


def one_minus_abs_sq(z):
    """1 - |z|^2, elementwise; fine for |z| not extremely close to 1."""
    z = np.asarray(z)
    return 1.0 - (z.real * z.real + z.imag * z.imag)


@dataclass(frozen=True)
class DiscPoint:
    """A point of the open unit disc stored as (angle, gap = 1 - |z|)."""

    theta: float
    gap: float

    def __post_init__(self):
        if not 0.0 < self.gap <= 1.0:
            raise ValueError("gap must lie in (0, 1], got %r" % (self.gap,))

    @staticmethod
    def from_complex(z) -> "DiscPoint":
        z = complex(z)
        r = abs(z)
        if r >= 1.0:
            raise ValueError("point not in the open disc: %r" % (z,))
        return DiscPoint(cmath.phase(z) % TWO_PI if z != 0 else 0.0, 1.0 - r)

    @staticmethod
    def from_polar_gap(theta, gap) -> "DiscPoint":
        return DiscPoint(float(theta) % TWO_PI, float(gap))

    @property
    def radius(self) -> float:
        return 1.0 - self.gap

    @property
    def value(self) -> complex:
        return self.radius * cmath.exp(1j * self.theta)

    def one_minus_sq(self) -> float:
        """1 - |z|^2 = gap * (2 - gap), cancellation-free."""
        return self.gap * (2.0 - self.gap)


def _as_complex(p):
    return p.value if isinstance(p, DiscPoint) else complex(p)


def phi(a, z):
    """The involution phi_a(z) = (a - z) / (1 - conj(a) z)."""
    a = _as_complex(a)
    return (a - z) / (1.0 - a.conjugate() * z)


def hyp_dist(a, z) -> float:
    """Hyperbolic distance: artanh |phi_a(z)|."""
    w = abs(phi(a, _as_complex(z)))
    if w >= 1.0:
        raise ValueError("points must lie in the open disc")
    return math.atanh(w)


def midpoint_from_origin(w) -> DiscPoint:
    """Hyperbolic midpoint of [0, w]: same argument, |w*| = |w|/(1+sqrt(1-|w|^2))."""
    p = w if isinstance(w, DiscPoint) else DiscPoint.from_complex(w)
    if p.radius == 0.0:
        raise ValueError("midpoint undefined for w = 0")
    s = p.one_minus_sq()  # 1 - |w|^2
    root = math.sqrt(s)
    # gap of w*: 1 - |w*| = (1 + root - |w|) / (1 + root) = (gap + root)/(1 + root)
    gap_star = (p.gap + root) / (1.0 + root)
    return DiscPoint.from_polar_gap(p.theta, gap_star)


@dataclass(frozen=True)
class Arc:
    """Boundary arc: center angle and normalized length (fraction of circle)."""

    theta_c: float
    length: float

    def __post_init__(self):
        if not 0.0 < self.length <= 1.0:
            raise ValueError("normalized arc length must lie in (0, 1]")

    @property
    def half_angle(self) -> float:
        return math.pi * self.length


def arc_of(w) -> Arc:
    """Arc I_w whose geodesic box has w as its point closest to the origin."""
    p = w if isinstance(w, DiscPoint) else DiscPoint.from_complex(w)
    r = p.radius
    if r == 0.0:
        raise ValueError("arc undefined for w = 0")
    # half-angle theta with cos(theta) = 2r/(1+r^2), from the gap so that no
    # gap loses accuracy: sin(theta/2) = gap / sqrt(2 (1 + r^2))
    theta = 2.0 * math.asin(p.gap / math.sqrt(2.0 * (1.0 + r * r)))
    return Arc(p.theta % TWO_PI, theta / math.pi)


@dataclass(frozen=True)
class GeodesicBox:
    """Carleson box S(I): closed hyperbolic half-plane bounded by the geodesic
    over the arc I.

    Its section at radius r > 0 is the set of angles within
    angular_halfwidth(r) of the arc centre, cos(dtheta) >= x =
    (1 + r^2) cos(pi l)/(2r), at every length l in (0, 1].  With
    gap = 1 - r, q = gap^2/(2r) and s = sin(pi l/2), the half-width is
    2 asin(sqrt((1 - x)/2)) from 1 - x = 2 s^2 (1 + q) - q, the gap form
    construct evaluates in mpmath and in logs.  The origin lies in S(I)
    iff l >= 1/2.
    """

    arc: Arc

    def opposite(self) -> "GeodesicBox":
        return GeodesicBox(Arc((self.arc.theta_c + math.pi) % TWO_PI,
                               1.0 - self.arc.length))

    def angular_halfwidth(self, r):
        """Half-width in angle of the box section at radius r: pi where
        1 - x >= 2, nan where 1 - x <= 0 (an empty section) and at r = 0."""
        r = np.asarray(r, dtype=float)
        s = math.sin(self.arc.half_angle / 2.0)
        with np.errstate(invalid="ignore", divide="ignore"):
            q = (1.0 - r) ** 2 / (2.0 * r)
            one_minus_x = 2.0 * s * s * (1.0 + q) - q
            return np.where(one_minus_x <= 0.0, np.nan, 2.0 * np.arcsin(
                np.sqrt(np.minimum(one_minus_x, 2.0) / 2.0)))

    @property
    def closest_radius(self) -> float:
        """Radius (c - s)/(c + s), floored at 0, of the box's point closest
        to the origin, s, c = sin, cos(pi l/2); its gap is 2 s/(c + s)."""
        h = self.arc.half_angle / 2.0
        s, c = math.sin(h), math.cos(h)
        return max((c - s) / (c + s), 0.0)


def box_contains(box: GeodesicBox, z):
    """Closed membership in the geodesic Carleson box, elementwise in z: a
    point lies in S(I) iff its angular distance to the arc centre is at most
    the box's half-width at its radius (nan, so never, where the section is
    empty); the origin lies in S(I) iff the arc length is at least 1/2."""
    z = np.asarray(z, dtype=complex)
    dist = np.abs(np.angle(z * cmath.exp(-1j * box.arc.theta_c)))
    r = np.abs(z)
    at_origin = (r == 0.0) & (box.arc.length >= 0.5)
    return at_origin | (dist <= box.angular_halfwidth(r))
