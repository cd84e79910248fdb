"""Building blocks and the recursive BMOA/Bloch witness constructions."""

import math

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
from holoflow.hypgeo import Arc, box_of

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
        mp_avg = float(mp_box_average(lambda t, g: g * (2 - g), 0, length))
    box = box_of(Arc(0.0, length))
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
        mp_avg = float(mp_box_average(dens, 0, mp.mpf(length)))
    assert mp_avg == pytest.approx(ref, rel=1e-3)


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def bmoa_states():
    return {bits: build_bmoa(n_max=4, bits=bits) for bits in (256, 512)}


@pytest.fixture(scope="module")
def bloch_states():
    return {bits: build_bloch(n_max=4, bits=bits) for bits in (256, 512)}


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


def test_negative_control_fails_at_step_one():
    for build in (build_bmoa, build_bloch):
        with pytest.raises(ConstructionFailure) as exc:
            build(symbol=LINEAR_SYMBOL, n_max=4)
        assert "divergence evidence insufficient" in str(exc.value)


def test_state_json_round_trip(bmoa_states):
    state = bmoa_states[256]
    text = state.to_json()
    back = ConstructionState.from_json(text)
    assert back.to_json() == text          # byte-identical re-serialization
    assert back.n == state.n
    assert back.mode == "bmoa"
    for a, b in zip(state.steps, back.steps):
        assert mp.log(a["gap"], 2) == mp.log(b["gap"], 2)


def test_state_json_rejects_unknown_version(bmoa_states):
    import json
    doc = json.loads(bmoa_states[256].to_json())
    doc["version"] = 999
    with pytest.raises(ValueError):
        ConstructionState.from_json(json.dumps(doc))


def test_bmoa_symbol_normalization_recorded():
    with mp.workprec(256):
        total = float(mp_disc_integral(LOG_HALF_SYMBOL.base_density))
    assert 1.0 / math.sqrt(total) == pytest.approx(2.510446, abs=1e-4)


def test_bloch_normalization_is_unit_derivative_at_origin():
    # g = (log(e/(1-z)))^{1/2} has g'(0) = 1/2, so the recorded scale is 2
    assert LOG_HALF_SYMBOL.dg0_abs() == pytest.approx(0.5, abs=1e-12)
