"""Hyperbolic geometry of the disc: Mobius maps, arcs, geodesic boxes."""

import cmath
import math
from functools import partial

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holoflow import construct, spaces
from holoflow.hypgeo import (Arc, DiscPoint, GeodesicBox, arc_of,
                             box_contains, hyp_dist,
                             midpoint_from_origin, one_minus_abs_sq, phi)

disc_pts = st.complex_numbers(max_magnitude=0.95, allow_infinity=False,
                              allow_nan=False)


# ---------------------------------------------------------------------------
# Mobius maps
# ---------------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(disc_pts, disc_pts)
def test_involution(a, z):
    assert abs(phi(a, phi(a, z)) - z) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(disc_pts, disc_pts, disc_pts)
def test_isometry(a, x, y):
    m = partial(phi, a)
    assert abs(hyp_dist(m(x), m(y)) - hyp_dist(x, y)) <= 1e-10


def test_involution_swaps_a_and_the_origin():
    for a in (0.4 + 0.2j, -0.7j, 0.95):
        m = partial(phi, a)
        assert abs(m(a)) <= 1e-15
        assert m(0.0) == pytest.approx(a, abs=1e-15)


def test_self_map_of_disc():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = 0.9 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
        z = 0.999 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
        assert abs(phi(a, z)) < 1.0


# ---------------------------------------------------------------------------
# gap-safe points
# ---------------------------------------------------------------------------

def test_one_minus_sq_avoids_cancellation():
    p = DiscPoint.from_polar_gap(0.3, 1e-12)
    # 1 - |z|^2 = gap (2 - gap), exact to relative precision
    assert p.one_minus_sq() == pytest.approx(1e-12 * (2 - 1e-12), rel=1e-15)
    assert one_minus_abs_sq(np.array([0.5 + 0.0j]))[0] == pytest.approx(0.75)


def test_midpoint_half_distance():
    for w in (0.5, 0.9j, 0.3 - 0.6j, 0.999):
        ws = midpoint_from_origin(w).value
        assert hyp_dist(0.0, ws) == pytest.approx(0.5 * hyp_dist(0.0, w),
                                                  abs=1e-12)


def test_midpoint_identity_closed_form():
    # 1 - |w*||w| = sqrt(1 - |w|^2) to 1e-12
    for r in (0.1, 0.5, 0.9, 0.9999):
        ws = midpoint_from_origin(r)
        assert 1.0 - ws.radius * r == pytest.approx(math.sqrt(1 - r * r),
                                                    abs=1e-12)


def test_midpoint_gap_is_stable_near_boundary():
    ws = midpoint_from_origin(DiscPoint.from_polar_gap(0.0, 1e-14))
    # gap* = (gap + sqrt(oms))/(1 + sqrt(oms)) ~ sqrt(2 gap)
    assert ws.gap == pytest.approx(math.sqrt(2e-14), rel=1e-6)


# ---------------------------------------------------------------------------
# arcs and geodesic boxes
# ---------------------------------------------------------------------------

def test_arc_length_normalized():
    arc = Arc(0.0, 0.25)
    assert arc.half_angle == pytest.approx(math.pi / 4)
    with pytest.raises(ValueError):
        Arc(0.0, 0.0)
    with pytest.raises(ValueError):
        Arc(0.0, 1.5)


def test_box_closest_point_is_w():
    # GeodesicBox(arc_of(w)) has w as its unique closest point to the origin
    for w in (0.5, 0.8j, -0.3 + 0.4j, DiscPoint.from_polar_gap(1.0, 1e-8)):
        p = w if isinstance(w, DiscPoint) else DiscPoint.from_complex(w)
        box = GeodesicBox(arc_of(p))
        assert 1.0 - box.closest_radius == pytest.approx(p.gap, rel=1e-9)
        if p.gap <= 1e-7:
            continue          # hyp_dist overflows this close to the boundary
        d0 = hyp_dist(0.0, (1 - p.gap) * np.exp(1j * p.theta))
        # sample the bounding geodesic (section endpoints at radii above the
        # closest radius): delta(0, .) >= delta(0, w) - 1e-9
        for r in np.linspace(box.closest_radius, 1 - 1e-6, 40):
            half = float(box.angular_halfwidth(r))
            if not math.isfinite(half):
                continue
            for sgn in (-1.0, 1.0):
                z = r * np.exp(1j * (p.theta + sgn * half))
                assert hyp_dist(0.0, z) >= d0 - 1e-9


def test_box_membership():
    box = GeodesicBox(Arc(0.0, 0.25))
    assert box_contains(box, 0.99)
    assert not box_contains(box, 0.0)
    assert not box_contains(box, -0.99)


def test_half_circle_and_full_circle_boxes():
    assert (GeodesicBox(Arc(0.0, 0.5)).angular_halfwidth(0.9)
            <= math.pi / 2 + 1e-9)
    assert GeodesicBox(Arc(0.0, 1.0)).angular_halfwidth(0.5) == pytest.approx(
        math.pi)


def test_origin_lies_in_the_boxes_of_arcs_of_at_least_half_the_circle():
    for theta in (0.0, 2.5):
        for length in (0.25, 0.5, 0.75, 1.0):
            inside = bool(box_contains(GeodesicBox(Arc(theta, length)), 0.0))
            assert inside == (length >= 0.5), (theta, length)


def test_halfwidth_matches_a_200_bit_arccos_on_the_master_grid():
    # every octave arc of the BMOA box family, at the J = 12 radii: the
    # half-width is within 1e-14 relative of arccos(x) at the same float
    # (r, l), and empty exactly where x > 1
    r = spaces._master_grid(12)[0]
    for j in range(13):
        for frac in spaces.FRACS:
            length = frac * 2.0 ** (-j)
            half = GeodesicBox(Arc(0.0, length)).angular_halfwidth(r)
            with mp.workprec(200):
                cos_l = mp.cos(mp.pi * length)
                xs = [(1 + mp.mpf(x) ** 2) * cos_l / (2 * mp.mpf(x))
                      for x in r]
                want = [None if x > 1 else mp.pi if x <= -1 else mp.acos(x)
                        for x in xs]
            for got, ref in zip(half, want):
                assert math.isnan(got) == (ref is None), (j, frac)
                if ref is not None:
                    assert abs(got - ref) <= 1e-14 * ref, (j, frac, got)


def test_float_halfwidth_is_the_mp_kernel_rounded():
    # the float and mpmath sections are one formula: where the section is
    # at least half the arc's width, they agree to a few ulps at dyadic gaps
    for length in (2.0 ** -12, 2.0 ** -6, 0.25, 0.5, 0.75, 1.0):
        box = GeodesicBox(Arc(0.0, length))
        for k in range(1, 53):
            gap = 2.0 ** (-k)
            with mp.workprec(256):
                want = construct._box_halfwidth(mp.mpf(gap), mp.mpf(length))
            if want is None or want < mp.pi * length / 2:
                continue
            got = float(box.angular_halfwidth(1.0 - gap))
            assert abs(got - float(want)) <= 4 * np.spacing(float(want)), \
                (length, k)


def test_complement_representation_for_long_arcs():
    # for l >= 1/2 the box is the complement of the opposite box
    box = GeodesicBox(Arc(0.0, 0.75))
    opp = box.opposite()
    assert opp.arc.length == pytest.approx(0.25)
    assert abs(abs(opp.arc.theta_c - box.arc.theta_c) - math.pi) <= 1e-12
    for z in (0.9, 0.9j, -0.9, 0.0):
        assert box_contains(box, z) != box_contains(opp, z)


def _circle_contains(box, z, tol=1e-12):
    """Reference: the scalar circle test, with the boundary inflated by tol
    and long boxes as complements of the open opposite box."""
    arc = box.arc
    if arc.length == 1.0:
        return True
    if arc.length > 0.5:
        return not _circle_contains(box.opposite(), z, tol=-tol)
    w = complex(z) * cmath.exp(-1j * arc.theta_c)
    if arc.length == 0.5:
        return w.real >= -tol
    c = 1.0 / math.cos(arc.half_angle)
    rho = math.tan(arc.half_angle)
    return abs(w - c) <= rho * (1.0 + tol) + tol


def _geodesic_distance(box, z):
    """Euclidean distance from z to the geodesic bounding the box."""
    if box.arc.length == 1.0:
        return np.full(z.shape, np.inf)
    if box.arc.length > 0.5:
        box = box.opposite()
    w = z * cmath.exp(-1j * box.arc.theta_c)
    if box.arc.length == 0.5:
        return np.abs(w.real)
    half = box.arc.half_angle
    return np.abs(np.abs(w - 1.0 / math.cos(half)) - math.tan(half))


def test_elementwise_membership_matches_the_circle_test():
    rng = np.random.default_rng(41)
    for length in (0.1, 0.25, 0.5, 0.75, 1.0):
        for theta in rng.uniform(0.0, 2.0 * math.pi, 4):
            box = GeodesicBox(Arc(theta, length))
            z = (np.sqrt(rng.uniform(0.0, 0.999999, 600))
                 * np.exp(2j * math.pi * rng.uniform(size=600)))
            # and points within 1e-6 of the bounding geodesic's section at
            # each radius
            r = rng.uniform(box.closest_radius, 0.999999, 200)
            half = np.nan_to_num(box.angular_halfwidth(r))
            side = rng.uniform(-1e-6, 1e-6, 200) + np.sign(
                rng.uniform(-1.0, 1.0, 200)) * half
            z = np.concatenate([z, r * np.exp(1j * (theta + side))])
            z = z[_geodesic_distance(box, z) > 1e-9]
            got = box_contains(box, z)
            assert got.shape == z.shape
            assert got.tolist() == [_circle_contains(box, p) for p in z]


def test_arc_of_near_boundary_point_uses_stable_form():
    p = DiscPoint.from_polar_gap(0.0, 1e-10)
    arc = arc_of(p)
    # |I_w| ~ gap / pi for small gaps (half-angle ~ gap)
    assert arc.length == pytest.approx(1e-10 / math.pi, rel=1e-4)
