"""Disc/box quadrature, grid suprema, radial-limit verdicts."""

import dataclasses
import math

import numpy as np
import pytest

from holoflow import quad
from holoflow.hypgeo import Arc, GeodesicBox, phi
from holoflow.quad import (QuadFailure, _radial_panels, box_integral,
                           classify_sequence, disc_integral, grid_sup,
                           line_integral, radial_limit, radial_schedule)

CFG = quad.CONFIG


# ---------------------------------------------------------------------------
# integrals: closed-form oracles
# ---------------------------------------------------------------------------

def test_disc_integral_of_one_is_one():
    val, err = disc_integral(lambda z: np.ones_like(z, dtype=float))
    assert abs(val - 1.0) <= 1e-9


def test_disc_integral_of_one_minus_abs_sq():
    # int (1 - |z|^2) dm = 2 int_0^1 (1 - r^2) r dr = 1/2
    val, _ = disc_integral(lambda z: 1.0 - np.abs(z) ** 2)
    assert abs(val - 0.5) <= 1e-9


def test_disc_integral_of_power_density():
    # int |z|^4 dm = 2/6 = 1/3
    val, _ = disc_integral(lambda z: np.abs(z) ** 4)
    assert abs(val - 1.0 / 3.0) <= 1e-9


def test_full_circle_box_equals_disc():
    box = GeodesicBox(Arc(0.0, 1.0))
    dens = lambda z: 1.0 - np.abs(z) ** 2
    assert box_integral(box, dens) == pytest.approx(0.5, abs=1e-9)


def test_half_circle_box_is_integrated_directly():
    # a half box is its own opposite, so it has no complement to go through
    dens = lambda z: 1.0 - np.abs(z) ** 2
    for theta in (0.0, 2.0):
        assert box_integral(GeodesicBox(Arc(theta, 0.5)),
                            dens) == pytest.approx(0.25, abs=1e-9)


def test_box_plus_complement_additivity():
    # quarter-circle box + the opposite 3/4 box = whole disc, 2x tolerance
    dens = lambda z: 1.0 - np.abs(z) ** 2
    box = GeodesicBox(Arc(0.7, 0.25))
    whole, _ = disc_integral(dens)
    left = box_integral(box, dens)
    long_box = GeodesicBox(Arc((0.7 + math.pi) % (2 * math.pi), 0.75))
    assert left + box_integral(long_box, dens) == pytest.approx(
        whole, abs=2 * (CFG.atol + CFG.rtol * whole) + 2e-9)
    back = box.opposite().opposite().arc      # involution up to rounding
    assert back.length == box.arc.length
    assert back.theta_c == pytest.approx(box.arc.theta_c, abs=1e-12)


def test_mobius_change_of_variables():
    # int u(phi_a(z)) |phi_a'(z)|^2 dm = int u dm within 5x tolerance
    a = 0.5
    u = lambda z: 1.0 - np.abs(z) ** 2

    def pushforward(z):
        jac = (1.0 - abs(a) ** 2) / np.abs(1.0 - np.conj(a) * z) ** 2
        return u(phi(a, z)) * jac ** 2

    lhs, _ = disc_integral(pushforward)
    rhs, _ = disc_integral(u)
    assert abs(lhs - rhs) <= 5 * (CFG.atol + CFG.rtol * abs(rhs)) + 5e-9


def test_nonconvergent_density_raises():
    rng = np.random.default_rng(3)
    with pytest.raises(QuadFailure):
        disc_integral(lambda z: rng.uniform(size=np.shape(z)))


def test_line_integral_of_polynomial():
    # int_0^z 2 s ds = z^2
    z1 = 0.3 + 0.4j
    val = line_integral(lambda s: 2.0 * s, 0.0, z1)
    assert val == pytest.approx(z1 ** 2, abs=1e-12)


# ---------------------------------------------------------------------------
# grid suprema
# ---------------------------------------------------------------------------

def test_grid_sup_refinement_is_monotone():
    sampler = lambda z: np.abs(z - 0.3) * (1.0 - np.abs(z) ** 2)
    prev = -math.inf
    for res in range(2, 10):
        est = grid_sup(sampler, ("disc",), res)
        assert est >= prev
        prev = est


def test_grid_sup_on_circle_finds_peak():
    sampler = lambda z: np.exp(-np.abs(z - 0.9) ** 2)
    est = grid_sup(sampler, ("circle", 0.9), 10)
    assert est == pytest.approx(1.0, abs=1e-4)


def test_grid_sup_counts_non_finite_samples_as_minus_infinity():
    def sampler(z):
        vals = np.abs(z)
        return np.where(vals > 0.5, np.nan, vals)
    assert 0.45 < grid_sup(sampler, ("disc",), 6) <= 0.5
    assert grid_sup(lambda z: np.full(z.shape, np.inf), ("circle", 0.5),
                    3) == -math.inf


def test_grid_sup_captures_interior_maximum():
    # |f'|(1-|z|^2) for f = z^2/2 peaks at r = 1/sqrt(3), off the dyadic set
    sampler = lambda z: np.abs(z) * (1.0 - np.abs(z) ** 2)
    est = grid_sup(sampler, ("disc",), 8)
    assert est >= 2.0 / (3.0 * math.sqrt(3.0)) * 0.999


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

def test_classify_sequence_vanishes():
    samples = [(j, 2.0 ** (-j)) for j in range(4, 24)]
    assert classify_sequence(samples).tag == "vanishes"


def test_classify_sequence_unbounded():
    samples = [(j, 2.0 ** j) for j in range(4, 24)]
    assert classify_sequence(samples).tag == "unbounded"


def test_classify_sequence_bounded_nonvanishing():
    samples = [(j, 1.0 + 0.1 / j) for j in range(4, 24)]
    assert classify_sequence(samples).tag == "bounded_nonvanishing"


def test_slope_rule_admits_log_type_decay():
    # 1/j decay never crosses tol_vanish within the schedule, but its log-log
    # slope is -1; the slope rule classifies it as vanishing
    samples = [(j, 1.0 / j) for j in range(4, 40)]
    assert classify_sequence(samples).tag == "bounded_nonvanishing"
    verdict = classify_sequence(samples, slope_rule=True)
    assert verdict.tag == "vanishes"
    assert any("slope" in f for f in verdict.flags)


def test_radial_schedule_is_dyadic_and_capped():
    sched = radial_schedule()
    assert sched[0] == (CFG.j_lo, 1.0 - 2.0 ** (-CFG.j_lo))
    assert all(1.0 - r >= CFG.eps_min for _, r in sched)
    gaps = [1.0 - r for _, r in sched]
    assert all(a / b == pytest.approx(2.0) for a, b in zip(gaps, gaps[1:]))


def test_radial_panels_are_the_dyadic_annuli():
    # the master grid's k_cap annuli [1 - 2^-i, 1 - 2^-(i+1)], i < k_cap
    for k_cap in (16, 20, 38):
        assert _radial_panels(2.0 ** -k_cap) == \
            [(1.0 - 2.0 ** -i, 1.0 - 2.0 ** -(i + 1)) for i in range(k_cap)]
    # a later start gap (box quadrature); the last panel ends at eps_min
    assert _radial_panels(1e-3, gap=0.25) == \
        [(1.0 - 2.0 ** -i, 1.0 - 2.0 ** -(i + 1)) for i in range(2, 9)] + \
        [(1.0 - 2.0 ** -9, 1.0 - 1e-3)]


def test_radial_limit_verdict_stability_under_halved_depth(monkeypatch):
    # verdicts stable when the j-range is halved, for three model samplers;
    # the default schedule already ends at the eps_min annulus (j = 39), so
    # halving is the change of depth that can be made
    samplers = {
        "vanishes": lambda r: (1.0 - r) ** 0.5,
        "bounded_nonvanishing": lambda r: 2.0 + (1.0 - r),
        "unbounded": lambda r: (1.0 - r) ** -0.75,
    }
    half = dataclasses.replace(CFG, j_hi=20)
    with monkeypatch.context() as m:
        m.setattr(quad, "CONFIG", half)
        half_depth = len(radial_schedule())
    assert (half_depth, len(radial_schedule())) == (17, 36)
    for tag, s in samplers.items():
        assert radial_limit(s).tag == tag
        with monkeypatch.context() as m:
            m.setattr(quad, "CONFIG", half)
            assert radial_limit(s).tag == tag


def test_radial_limit_skips_domain_failures():
    def sampler(r):
        if r < 0.99:
            raise ArithmeticError("pole on the sampling ray")
        return 1.0 - r

    verdict = radial_limit(sampler)
    assert verdict.tag == "vanishes"
