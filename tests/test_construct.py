"""Building blocks and the recursive BMOA/Bloch witness constructions."""

import hashlib
import json
import math
import random
import re

import mpmath as mp
import numpy as np
import pytest

from holoflow import construct
from holoflow.construct import (BLOCK_BOUNDS, ConstructionFailure,
                                ConstructionState, LINEAR_SYMBOL,
                                LOG_HALF_SYMBOL, build_bloch, build_bmoa,
                                make_block, mp_box_average, mp_disc_integral,
                                verify_block)
from holoflow.quad import box_integral
from holoflow.hypgeo import Arc, GeodesicBox

BLOCK_CORPUS = (0.5, 0.9, 0.99, 1.0 - 1e-6)


# ---------------------------------------------------------------------------
# block closed forms and certified properties
# ---------------------------------------------------------------------------

def test_block_closed_form_values_at_w_09():
    params, handle = make_block(0.9)
    ws = abs(params.wstar_complex)
    b0 = complex(handle.val(np.array([0.0 + 0.0j]))[0])
    bw = complex(handle.val(np.array([0.9 + 0.0j]))[0])
    # beta_w(0) = log(e/(1 + w* conj(w))); printed value 0.55268
    assert b0.real == pytest.approx(math.log(math.e / (1 + ws * 0.9)),
                                    abs=1e-12)
    assert b0.real == pytest.approx(0.55268, abs=1e-5)
    # Re beta_w(w) = log(e/sqrt(1 - w^2)) = 1.8303656...; the printed
    # rounding 1.83034 is off by 2.6e-5, the exact closed form is the oracle
    assert bw.real == pytest.approx(1.0 - 0.5 * math.log(1 - 0.81),
                                    abs=1e-12)
    assert bw.real == pytest.approx(1.83034, abs=3e-5)


def test_block_midpoint_geometry():
    params, _ = make_block(0.9)
    ws = abs(params.wstar_complex)
    # 1 - |w*||w| = sqrt(1 - |w|^2)
    assert 1 - ws * 0.9 == pytest.approx(math.sqrt(1 - 0.81), abs=1e-14)


@pytest.mark.parametrize("w", BLOCK_CORPUS)
def test_verify_block_certifies_all_properties(w):
    rep = verify_block(w)
    assert rep.passed
    assert rep.bloch <= BLOCK_BOUNDS["bloch"]
    assert rep.bmoa <= BLOCK_BOUNDS["bmoa"]
    assert rep.min_re >= -1e-12                       # Re beta >= 0
    assert rep.max_abs_im <= math.pi / 2 + 1e-12      # |Im beta| <= pi/2
    assert rep.c4 >= BLOCK_BOUNDS["c4_floor"]         # peak on S(I_w)
    assert rep.c0_measured <= 3.0                     # bounded off S(I_{w*})


def test_mp_block_matches_float_handle():
    params, handle = make_block(0.99)
    with mp.workprec(256):
        for theta, gap in ((0.0, 0.01), (0.3, 0.2), (-1.0, 0.9)):
            z = (1 - gap) * complex(math.cos(theta), math.sin(theta))
            fv = complex(handle.val(np.array([z]))[0])
            mv = construct._beta_mp(params.theta, params.gap,
                                    params.gap_star, mp.mpf(theta),
                                    mp.mpf(gap))
            assert fv == pytest.approx(complex(mv), abs=1e-12)


def test_make_block_rejects_boundary_points():
    with pytest.raises(ValueError):
        make_block(1.0)
    with pytest.raises(ValueError):
        make_block(0.0)


# ---------------------------------------------------------------------------
# extended-precision quadrature
# ---------------------------------------------------------------------------

def test_mp_disc_integral_oracle():
    with mp.workprec(256):
        val = mp_disc_integral(lambda t, g: g * (2 - g))
    assert float(val) == pytest.approx(0.5, rel=1e-9)


@pytest.mark.parametrize("length", [0.25, 0.05, 0.003])
def test_mp_box_average_matches_float_quadrature(length):
    with mp.workprec(256):
        mp_avg = float(mp_box_average(lambda t, g: g * (2 - g), length))
    box = GeodesicBox(Arc(0.0, length))
    ref = box_integral(box, lambda z: 1 - np.abs(z) ** 2) / length
    assert mp_avg == pytest.approx(ref, rel=1e-5)


def test_mp_box_average_resolves_peaked_density():
    # density (1-|z|^2)/|1-z|^2 peaked at the arc center (the shape of the
    # construction's |g'|^2 (1-|z|^2) densities): the angular integral has a
    # closed form (Weierstrass substitution), leaving an independent
    # one-dimensional scipy quadrature as the oracle
    from scipy.integrate import quad

    length = 0.02
    h = math.pi * length

    def halfwidth(g):
        q = g * g / (2 * (1 - g))
        one_minus_x = 2 * math.sin(h / 2) ** 2 * (1 + q) - q
        if one_minus_x <= 0:
            return 0.0
        return 2 * math.asin(math.sqrt(one_minus_x / 2))

    def radial(g):
        # g(2-g) int_{-D}^{D} dphi / (A - B cos phi), A = 1+(1-g)^2,
        # B = 2(1-g), sqrt(A^2 - B^2) = g(2-g)
        d = halfwidth(g)
        if d == 0.0:
            return 0.0
        return (1 - g) * 4.0 * math.atan(((2 - g) / g) * math.tan(d / 2))

    gmax = float(construct._box_gap_max(mp.mpf(length)))
    ref, _ = quad(radial, 0.0, gmax, limit=400)
    ref /= length * math.pi
    with mp.workprec(256):
        def dens(t, g):
            omz = construct._one_minus_z(t, g)
            return g * (2 - g) / abs(omz) ** 2
        mp_avg = float(mp_box_average(dens, mp.mpf(length)))
    assert mp_avg == pytest.approx(ref, rel=1e-3)


def test_box_ring_nodes_are_computed_once_per_length_per_build(monkeypatch):
    # mp_box_average takes one _box_halfwidth per radial node (4 + 22 x 4 =
    # 92); a build reuses an arc length's nodes, so it makes 92 calls per
    # distinct length although its averages repeat lengths, and the next
    # build computes them again
    halfwidths, lengths = [], []
    box_halfwidth = construct._box_halfwidth
    box_average = construct.mp_box_average

    def counted_halfwidth(gap, length):
        halfwidths.append(length)
        return box_halfwidth(gap, length)

    def recorded_average(density, length):
        lengths.append(mp.mpf(length))
        return box_average(density, length)

    monkeypatch.setattr(construct, "_box_halfwidth", counted_halfwidth)
    monkeypatch.setattr(construct, "mp_box_average", recorded_average)
    monkeypatch.setenv("HOLOFLOW_PRECISION_BITS", "256")
    builds = []
    for n_max in (4, 1):
        halfwidths.clear()
        lengths.clear()
        construct.build_bmoa(n_max=n_max)
        builds.append((len(halfwidths), set(lengths), len(lengths)))
    (calls_4, seen_4, n_4), (calls_1, seen_1, _) = builds
    assert len(seen_4) < n_4
    assert calls_4 == 92 * len(seen_4)
    assert seen_1 and seen_1 <= seen_4
    assert calls_1 == 92 * len(seen_1)
    assert construct._box_rings_memo is None


# ---------------------------------------------------------------------------
# the mirrored-node fold: one density call per node pair +-phi
# ---------------------------------------------------------------------------

def _build_densities(symbol):
    """Every density family build_bmoa passes to the mp quadratures, up to
    its constant scale: the symbol density, (Re beta)^2 base for blocks at
    gaps 2^-24, 2^-1280 and 2^-20496, and |F|^2 base and (Re F)^2 base for
    F built from those three blocks.  Call at the working precision."""
    base = symbol.base_density
    state = ConstructionState("bmoa", symbol.name, mp.mp.prec, 1.0, 0.05)
    out = {"base": base}
    for a, e in ((0.4, 24), (0.2, 1280), (0.1, 20496)):
        gap = mp.mpf(2) ** -e
        gs = construct._midpoint_gap(gap)
        state.steps.append({"a": mp.mpf(a), "theta": mp.mpf(0), "gap": gap,
                            "gap_star": gs})
        out["beta_%d" % e] = (
            lambda t, g, gap=gap, gs=gs:
            construct._beta_mp(mp.mpf(0), gap, gs, t, g).real ** 2
            * base(t, g))
    out["abs_F_sq"] = lambda t, g: state.abs_F_sq(t, g) * base(t, g)
    out["re_F_sq"] = lambda t, g: state.re_F(t, g) ** 2 * base(t, g)
    return out


def _seeded_nodes(seed, count):
    """(phi, gap) with gaps 2^-e u down to 2^-20496 and angles distributed
    like the sinh-clustered ring nodes, from 0 to pi."""
    rng = random.Random(seed)
    for _ in range(count):
        e = rng.choice((0, 1, 3, 11, 24, 60, 168, 1280, 1292, 20496))
        gap = mp.mpf(rng.uniform(0.25, 0.5)) * mp.mpf(2) ** -e
        v = mp.mpf(rng.random()) * mp.asinh(mp.pi / gap)
        yield min(gap * mp.sinh(v), mp.pi), gap


@pytest.mark.parametrize("bits", [256, 512])
@pytest.mark.parametrize("symbol", [LOG_HALF_SYMBOL, LINEAR_SYMBOL])
def test_build_densities_are_bitwise_even_in_the_angle(bits, symbol):
    with mp.workprec(bits):
        families = _build_densities(symbol)
        for phi, gap in _seeded_nodes(bits, 40):
            for name, dens in families.items():
                assert dens(phi, gap) == dens(-phi, gap), (name, phi, gap)


def _unfolded_ring(density, center, half, gap, weight, xv, wv):
    V = mp.asinh(half / gap)
    mid_v, half_v = V / 2, V / 2
    ring = mp.mpf(0)
    for x, w in zip(xv, wv):
        v = mid_v + half_v * x
        phi = gap * mp.sinh(v)
        jac = gap * mp.cosh(v) * half_v * w
        ring += jac * (density(center + phi, gap) + density(center - phi, gap))
    return weight * ring * (1 - gap) / mp.pi


def _unfolded_disc_integral(density):
    xg, wg = construct._gl(4)
    xv, wv = construct._gl(10)
    total = mp.mpf(0)
    for k in range(41):
        lo = mp.mpf(2) ** (-k - 1) if k < 40 else mp.mpf(0)
        hi = mp.mpf(2) ** (-k)
        mid, half = (lo + hi) / 2, (hi - lo) / 2
        for x, w in zip(xg, wg):
            gap = mid + half * x
            total += _unfolded_ring(density, 0, mp.pi, gap, half * w, xv, wv)
    return total


def _unfolded_box_average(density, theta_c, length):
    theta_c, length = mp.mpf(theta_c), mp.mpf(length)
    gmax = construct._box_gap_max(length)
    xg, wg = construct._gl(4)
    xv, wv = construct._gl(8)
    umax = mp.sqrt(gmax / 2)
    nodes = []
    for x, w in zip(xg, wg):
        u = umax / 2 + (umax / 2) * x
        nodes.append((gmax - u * u, (umax / 2) * w * 2 * u))
    for k in range(1, 23):
        lo, hi = gmax / 2 ** (k + 1), gmax / 2 ** k
        mid, half = (lo + hi) / 2, (hi - lo) / 2
        nodes += [(mid + half * x, half * w) for x, w in zip(xg, wg)]
    total = mp.mpf(0)
    for gap, weight in nodes:
        half = construct._box_halfwidth(gap, length)
        if half is not None and half > 0:
            total += _unfolded_ring(density, theta_c, half, gap, weight,
                                    xv, wv)
    return total / length


def test_folded_quadratures_equal_the_unfolded_sums():
    # the mp quadratures as they were, with both nodes of each pair
    # evaluated, against the folded ones: the same bits
    with mp.workprec(256):
        for symbol in (LOG_HALF_SYMBOL, LINEAR_SYMBOL):
            assert mp_disc_integral(symbol.base_density) == \
                _unfolded_disc_integral(symbol.base_density)
        families = _build_densities(LOG_HALF_SYMBOL)
        for name, ell in (("beta_24", construct._arc_length_of(
                              mp.mpf(2) ** -24)),
                          ("abs_F_sq", mp.mpf(2) ** -40)):
            assert mp_box_average(families[name], ell) == \
                _unfolded_box_average(families[name], 0, ell), name


# ---------------------------------------------------------------------------
# the libmp kernels against the wrapper forms they replaced
# ---------------------------------------------------------------------------

def _reference_box_halfwidth(gap, length):
    h = mp.pi * length
    q = gap * gap / (2 * (1 - gap))
    one_minus_x = 2 * mp.sin(h / 2) ** 2 * (1 + q) - q
    if one_minus_x <= 0:
        return None
    if one_minus_x >= 2:
        return mp.pi
    return 2 * mp.asin(mp.sqrt(one_minus_x / 2))


def _reference_one_minus_z(theta, gap):
    re = gap + (1 - gap) * 2 * mp.sin(theta / 2) ** 2
    im = -(1 - gap) * mp.sin(theta)
    return mp.mpc(re, im)


def _reference_base_density(theta, gap):
    omz = _reference_one_minus_z(theta, gap)
    L = 1 - mp.log(omz)
    return gap * (2 - gap) / (4 * abs(omz) ** 2 * abs(L))


def _reference_beta(theta_w, gap_w, gap_star, theta_z, gap_z):
    rho, rho_s = gap_w, gap_star
    phi = theta_z - theta_w
    s = gap_z
    B = 2 - rho - rho_s
    sin2 = 2 * mp.sin(phi / 2) ** 2
    T = mp.mpc(rho * rho_s + B * ((1 - s) * sin2 + s),
               -B * (1 - s) * mp.sin(phi))
    P = (1 - rho_s) * (1 - s)
    D = mp.mpc((rho_s + s - rho_s * s) + P * sin2, -P * mp.sin(phi))
    return 1 - mp.log(T / D)


def _reference_ring(density, half, gap, weight, xv, wv):
    V = mp.asinh(half / gap)
    mid_v, half_v = V / 2, V / 2
    ring = mp.mpf(0)
    for x, w in zip(xv, wv):
        v = mid_v + half_v * x
        phi = gap * mp.sinh(v)
        jac = gap * mp.cosh(v) * half_v * w
        d = density(phi, gap)
        ring += jac * (d + d)
    return weight * ring * (1 - gap) / mp.pi


def _reference_F_parts(state, theta, gap):
    re, im = mp.mpf(1), mp.mpf(0)
    for a, tw, gw, gs in state.blocks():
        b = _reference_beta(tw, gw, gs, theta, gap)
        re += a * b.real
        im += a * b.imag
    return re, im


def _kernel_args(rng):
    """A seeded (angle, gap): gaps 2^-e u down to 2^-20000, angles 0, +-pi,
    negative, far below the gap and of its order."""
    gap = mp.mpf(rng.uniform(0.25, 1.0)) * mp.mpf(2) ** -rng.choice(
        (0, 1, 3, 11, 24, 60, 168, 1280, 1292, 20000))
    theta = rng.choice((mp.mpf(0), mp.pi, -mp.pi,
                        mp.mpf(rng.uniform(-math.pi, math.pi)),
                        -gap * rng.uniform(0, 8), gap * rng.uniform(0, 8),
                        mp.mpf(rng.uniform(-1, 1)) * mp.mpf(2) ** -200))
    return +theta, gap


# seeded arguments per precision; 4096 bits is the slowest
KERNEL_ARGS = {53: 40, 256: 40, 512: 24, 4096: 6}


def _same(got, want):
    """The same mpf/mpc bits, or both None."""
    key = "_mpc_" if hasattr(want, "_mpc_") else "_mpf_"
    return getattr(got, key, got) == getattr(want, key, want)


@pytest.mark.parametrize("bits", sorted(KERNEL_ARGS))
def test_kernels_keep_the_bits_of_the_wrapper_forms(bits):
    rng = random.Random(bits)
    with mp.workprec(bits):
        xv, wv = construct._gl(4)
        state = ConstructionState("bmoa", "log-half", bits, 1.0, 0.05)
        for _ in range(3):
            theta, gap = _kernel_args(rng)
            state.steps.append({"a": mp.mpf(rng.random()), "theta": theta,
                                "gap": gap,
                                "gap_star": construct._midpoint_gap(gap)})
        for _ in range(KERNEL_ARGS[bits]):
            theta, gap = _kernel_args(rng)
            tw, gw = _kernel_args(rng)
            gs = construct._midpoint_gap(gw)
            length = mp.mpf(rng.choice((rng.random(), 1.0, 0.5, 1e-9)))
            half = rng.choice((abs(theta), mp.pi))
            weight = mp.mpf(rng.random())
            re, im = _reference_F_parts(state, theta, gap)
            pairs = [
                (construct._one_minus_z(theta, gap),
                 _reference_one_minus_z(theta, gap)),
                (LOG_HALF_SYMBOL.base_density(theta, gap),
                 _reference_base_density(theta, gap)),
                (construct._beta_mp(tw, gw, gs, theta, gap),
                 _reference_beta(tw, gw, gs, theta, gap)),
                (construct._box_halfwidth(gap, length),
                 _reference_box_halfwidth(gap, length)),
                (state.re_F(theta, gap), re),
                (state.abs_F_sq(theta, gap), re * re + im * im),
                (construct._ring_sum(LINEAR_SYMBOL.base_density,
                                     construct._ring_nodes(half, gap, weight,
                                                           xv, wv)),
                 _reference_ring(LINEAR_SYMBOL.base_density, half, gap,
                                 weight, xv, wv)),
            ]
            for i, (got, want) in enumerate(pairs):
                assert _same(got, want), (i, theta, gap, tw, gw, length)
        # one section of each kind: empty, the whole circle, an arc
        kinds = []
        for gap, length in ((0.5, 1e-9), (2.0 ** -30, 1.0), (0.01, 0.25)):
            gap, length = mp.mpf(gap), mp.mpf(length)
            want = _reference_box_halfwidth(gap, length)
            kinds.append(None if want is None else want is mp.pi)
            assert _same(construct._box_halfwidth(gap, length), want)
    assert kinds == [None, True, False]


# ---------------------------------------------------------------------------
# the log-domain float engine against the mp oracle
# ---------------------------------------------------------------------------

ENGINE_GAP_EXPONENTS = (3, 24, 60, 1280, 20496)


def _block_at(e):
    gap = mp.mpf(2) ** -e
    gs = construct._midpoint_gap(gap)
    return gap, gs, construct._log(gap), construct._log(gs)


def _engine_points(e, gap):
    """(phi, gap) pairs at, inside, outside and far from the block scale,
    on the ray, near it, and at wide angles (one with sin(phi) < 0)."""
    for ez in sorted({max(1, e - 2), e, e + 7, 2, 10 * e}):
        s = mp.mpf(2) ** -ez
        for phi in (mp.mpf(0), gap / 3, 5 * gap, 3 * s, mp.mpf("0.01"),
                    2 * mp.pi * 9 / 16):
            yield phi, s


def _at(phi, s):
    return construct._Points(construct._log(phi) if phi else -math.inf,
                             construct._log(s))


@pytest.mark.parametrize("e", ENGINE_GAP_EXPONENTS)
def test_float_engine_matches_mp_pointwise(e):
    with mp.workprec(256):
        gap, gs, lr, lrs = _block_at(e)
        for phi, s in _engine_points(e, gap):
            p = _at(phi, s)
            re, im = construct._beta_float(lr, lrs, p)
            ref = construct._beta_mp(mp.mpf(0), gap, gs, phi, s)
            assert re[0] == pytest.approx(float(ref.real), rel=1e-9)
            assert abs(im[0]) == pytest.approx(abs(float(ref.imag)),
                                               rel=1e-9, abs=1e-12)
            for sym in (LOG_HALF_SYMBOL, LINEAR_SYMBOL):
                lref = construct._log(sym.base_density(phi, s))
                assert math.exp(sym.log_density(p)[0] - lref) == \
                    pytest.approx(1.0, rel=1e-9)


def test_float_engine_abs_F_sq_matches_mp():
    with mp.workprec(256):
        state = ConstructionState("bmoa", "log-half", 256, 1.0, 0.05)
        for a, e in ((0.4, 24), (0.2, 1280), (0.1, 20496)):
            gap, gs, _, _ = _block_at(e)
            state.steps.append({"a": mp.mpf(a), "theta": mp.mpf(0),
                                "gap": gap, "gap_star": gs})
        for e in (24, 1280, 20496):
            for phi, s in _engine_points(e, mp.mpf(2) ** -e):
                lv = state.log_abs_F_sq(_at(phi, s))[0]
                ref = construct._log(state.abs_F_sq(phi, s))
                assert math.exp(lv - ref) == pytest.approx(1.0, rel=1e-9)


@pytest.mark.parametrize("e", ENGINE_GAP_EXPONENTS)
def test_float_engine_box_average_matches_mp(e):
    # the construction's (c)/(d) density (Re beta)^2 |g'|^2 (1-|z|^2) over
    # the box of I_w
    with mp.workprec(256):
        gap, gs, lr, lrs = _block_at(e)
        ell = construct._arc_length_of(gap)

        def dens(t, g):
            return (construct._beta_mp(mp.mpf(0), gap, gs, t, g).real ** 2
                    * LOG_HALF_SYMBOL.base_density(t, g))

        def log_dens(p):
            return (2 * np.log(construct._beta_float(lr, lrs, p)[0])
                    + LOG_HALF_SYMBOL.log_density(p))

        ref = construct._log(mp_box_average(dens, ell))
        lv = construct._log_box_average(log_dens, construct._log(ell))
    assert math.exp(lv - ref) == pytest.approx(1.0, rel=1e-9)


def _linear_density(c):
    """c g (2 - g): box averages 0.1116 c, 0.0372 c, 0.0109 c at lengths
    1/8, 1/16, 1/32."""
    return construct._Density(lambda t, g: c * g * (2 - g), None)


@pytest.mark.parametrize("lv", [0.0, math.log(0.5),
                                math.log(0.5) - construct.MARGIN / 2])
def test_float_value_at_a_threshold_is_decided_in_mp(monkeypatch, lv):
    # with c = 8 the mp averages are 0.893, 0.297, 0.087: the mp scan tests
    # three lengths and keeps 1/8.  The float engine is made to report every
    # average exactly at the bound, exactly at bound/2, or a hair below
    # bound/2; taken at face value the scan would never stop or would stop
    # after two lengths, so the three mp averages show that mp decided
    dens = _linear_density(8)
    exact = []
    real_box_average = construct.mp_box_average

    def counted(density, length):
        exact.append(length)
        return real_box_average(density, length)

    monkeypatch.setattr(construct, "_log_box_average", lambda *a: lv)
    monkeypatch.setattr(construct, "mp_box_average", counted)
    with mp.workprec(256):
        best = construct._largest_admissible_length(dens, mp.mpf("0.125"),
                                                    mp.mpf(1))
    assert best == mp.mpf("0.125")
    assert exact == [mp.mpf("0.125"), mp.mpf("0.0625"), mp.mpf("0.03125")]


def test_mp_certificate_overrules_a_wrong_float_scan(monkeypatch):
    # a float engine that reports every average as tiny picks 1/8, whose mp
    # average 1.34 exceeds the bound: mp then decides the whole scan
    monkeypatch.setattr(construct, "_log_box_average", lambda *a: -50.0)
    with mp.workprec(256):
        best = construct._largest_admissible_length(
            _linear_density(12), mp.mpf("0.125"), mp.mpf(1))
    assert best == mp.mpf("0.0625")


def test_squaring_search_accepts_only_what_mp_accepts():
    target = mp.mpf(4)
    for lv, mp_value, accepted in ((math.log(4), 3, False),
                                   (math.log(4) + 1, 3, False),
                                   (math.log(4) - construct.MARGIN / 2, 5,
                                    True)):
        calls = []

        def value_at(gap, gs):
            return lv, lambda: calls.append(gap) or mp.mpf(mp_value)

        with mp.workprec(256):
            gap, gs, v = construct._squaring_search(value_at, mp.mpf("0.5"),
                                                    target)
        if accepted:
            assert (gap, v, calls) == (mp.mpf("0.5"), 5, [mp.mpf("0.5")])
        else:
            assert gs is None and v is None and len(calls) == 60


def test_rivals_and_decisions_follow_the_margin():
    m = construct.MARGIN
    assert list(construct._rivals([0.0, -1.0, -m / 2, math.nan, -2 * m])) \
        == [0, 2, 3]
    assert list(construct._rivals([-math.inf, -math.inf])) == [0, 1]
    sentinel = mp.mpf(7)
    with mp.workprec(256):
        assert construct._decided(math.log(2), lambda: sentinel, 2) == 7
        assert construct._decided(math.inf, lambda: sentinel, 2) == 7
        far = construct._decided(math.log(2) + 2 * m, lambda: sentinel, 2)
    assert float(far) == pytest.approx(2 * math.exp(2 * m), rel=1e-15)


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def bmoa_states(witness_states):
    return {bits: witness_states[("bmoa", bits)] for bits in (256, 512)}


@pytest.fixture(scope="module")
def bloch_states(witness_states):
    return {bits: witness_states[("bloch", bits)] for bits in (256, 512)}


def _check_invariants(state):
    prev_delta = mp.mpf(1)
    for n, step in enumerate(state.steps, start=1):
        assert float(step["a"]) <= 2.0 ** (-n)                 # (1)
        assert mp.sqrt(step["delta_prime"]) <= \
            step["delta"] / 2 ** (2 * n) * (1 + mp.mpf("1e-30"))
        assert step["delta"] <= prev_delta
        assert step["gap"] <= step["delta_prime"]
        prev_delta = step["delta"]
    cert2 = [c for c in state.certifications if "step" in c]
    key = "property2_average" if state.mode == "bmoa" else "property2_value"
    assert all(c[key] >= 1 - state.tol_c for c in cert2)       # (2)
    norm_cert = state.certifications[-1]
    assert norm_cert["property3_ok"]                           # (3)
    # block sum absolute convergence: sum a_k (||beta|| + |beta(0)|)
    # <= 4 sum 2^-k using the recorded seminorm bound and |beta(0)| <= 1
    bound = sum(float(s["a"]) * (BLOCK_BOUNDS["bmoa"] + 1.0)
                for s in state.steps)
    assert bound <= 4.0 * sum(2.0 ** (-k)
                              for k in range(1, state.n + 1))


def test_bmoa_construction_invariants(bmoa_states):
    for state in bmoa_states.values():
        assert state.n == 4
        _check_invariants(state)


def test_bloch_construction_invariants(bloch_states):
    for state in bloch_states.values():
        assert state.n == 4
        _check_invariants(state)


def test_construction_reproducible_across_precisions(bmoa_states):
    lo, hi = bmoa_states[256], bmoa_states[512]
    for a, b in zip(lo.steps, hi.steps):
        assert float(a["a"]) == pytest.approx(float(b["a"]), rel=1e-9)
        assert mp.log(a["gap"], 2) == mp.log(b["gap"], 2)   # same dyadic gap
    lo_tags = [c.get("property3_ok") for c in lo.certifications]
    hi_tags = [c.get("property3_ok") for c in hi.certifications]
    assert lo_tags == hi_tags


def test_gaps_collapse_doubly_exponentially(bmoa_states):
    gaps = [mp.log(s["gap"], 2) for s in bmoa_states[256].steps]
    # each step's gap exponent grows by more than an order of magnitude
    assert all(b <= 10 * a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < -10000          # far beyond double precision


# sha256 of ConstructionState.to_json() at 256 bits, recorded from the
# all-mp searches; the float-deciding searches must reproduce them
GOLDEN_STATE_SHA256 = {
    "bmoa_1": "e8e13158355eaff43f48ec17d05ff3dc25002173ca9ed419377242dcac85d464",
    "bloch_4": "91ce41a1e19575b93d2d3ce12ee59c451262e3df1ffd5ec56304f590632ef7e6",
}


def _sha(state):
    return hashlib.sha256(state.to_json().encode()).hexdigest()


def test_state_json_golden_hashes(bloch_states, monkeypatch):
    monkeypatch.setenv("HOLOFLOW_PRECISION_BITS", "256")
    assert _sha(build_bmoa(n_max=1)) == \
        GOLDEN_STATE_SHA256["bmoa_1"]
    assert _sha(bloch_states[256]) == GOLDEN_STATE_SHA256["bloch_4"]


# sha256 of each 4-step state document without its last certification, the
# property (3) record: its seminorms and C_g are float quadratures that move
# with the host's numpy build, while every other value comes from mpmath
WITNESS_STATE_SHA256 = {
    ("bmoa", 256):
        "f8fbc9b3350125d86df5fd55a791bc2031c94019bf69f034ec6536e12460ad0b",
    ("bmoa", 512):
        "cba9e71a3cd8ae236bfd9f2dc15fb5d4618e51d1da7b3be485ff47c7e6fbe7ca",
    ("bloch", 256):
        "ac92916a3bc1d53e8da4317cea393934814ce47cd1142d5049ebc63e21a9da43",
    ("bloch", 512):
        "134ea7f94ce57c2d263dd77c2c374c1e83554d10d8b4fe9979e7d72de5f68a27",
}


def test_witness_states_without_property3_are_pinned(witness_states):
    for key, want in WITNESS_STATE_SHA256.items():
        doc = json.loads(witness_states[key].to_json())
        assert "property3_ok" in doc["certifications"].pop()
        text = json.dumps(doc, indent=2, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == want, key


def test_build_node_memo_lives_for_one_build(monkeypatch):
    # within a build every block and base value is computed once per
    # distinct node; a second build computes them all again, so nothing
    # is cached across calls
    beta_args, base_args = [], []
    beta_mp = construct._beta_mp
    base_density = type(LOG_HALF_SYMBOL).base_density
    monkeypatch.setattr(construct, "_beta_mp",
                        lambda *a: beta_args.append(a) or beta_mp(*a))
    monkeypatch.setattr(type(LOG_HALF_SYMBOL), "base_density",
                        lambda self, t, g: base_args.append((t, g))
                        or base_density(self, t, g))
    for build in (build_bmoa, build_bloch):
        counts = []
        for _ in range(2):
            beta_args.clear()
            base_args.clear()
            build(n_max=1)
            assert len(set(beta_args)) == len(beta_args) > 0, build
            assert len(set(base_args)) == len(base_args) > 0, build
            counts.append((len(beta_args), len(base_args)))
        assert counts[0] == counts[1]


@pytest.mark.parametrize("bits", ["0", "16", "-5", "4097", "256.0", "True"])
def test_explicit_bits_outside_the_range_are_rejected(monkeypatch, bits):
    # the precision has one input, HOLOFLOW_PRECISION_BITS, which each of
    # the four entry points reads as it starts
    monkeypatch.setenv("HOLOFLOW_PRECISION_BITS", bits)
    want = bits if bits.lstrip("-").isdigit() else repr(bits)
    for call in (lambda: make_block(0.9), lambda: verify_block(0.9),
                 lambda: build_bmoa(n_max=1), lambda: build_bloch(n_max=1)):
        with pytest.raises(ValueError, match=r"must be an integer in \[53, "
                           r"4096\], got %s$" % re.escape(want)):
            call()


def test_negative_control_fails_at_step_one():
    for build in (build_bmoa, build_bloch):
        with pytest.raises(ConstructionFailure) as exc:
            build(symbol=LINEAR_SYMBOL, n_max=4)
        assert "divergence evidence insufficient" in str(exc.value)


def test_bmoa_symbol_normalization_recorded():
    with mp.workprec(256):
        total = float(mp_disc_integral(LOG_HALF_SYMBOL.base_density))
    assert 1.0 / math.sqrt(total) == pytest.approx(2.510446, abs=1e-4)


def test_bmoa_normalization_runs_at_the_build_precision(monkeypatch):
    # the symbol is normalized at the precision the build reads
    monkeypatch.setenv("HOLOFLOW_PRECISION_BITS", "512")
    seen = []

    class Stop(Exception):
        pass

    def record(density):
        seen.append(mp.mp.prec)
        raise Stop

    monkeypatch.setattr(construct, "mp_disc_integral", record)
    with pytest.raises(Stop):
        build_bmoa(n_max=1)
    assert seen == [512]


def test_bloch_normalization_is_unit_derivative_at_origin():
    # g = (log(e/(1-z)))^{1/2} has g'(0) = 1/2, so the recorded scale is 2
    assert LOG_HALF_SYMBOL.dg0_abs() == pytest.approx(0.5, abs=1e-12)
