"""Seminorms, vanishing verdicts, weights, Garsia integrals, conditions."""

import itertools
import math
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import mpmath
import numpy as np
import pytest

from holoflow import expr, quad, spaces
from holoflow.expr import FunctionHandle
from holoflow.hypgeo import Arc, GeodesicBox, one_minus_abs_sq, phi
from holoflow.semigroup import Generator, gamma_symbol
from holoflow.spaces import (Weight, bloch_seminorm, bloch_vanishing,
                             bmoa_seminorm, bmoa_vanishing, lvb_check,
                             lvmo_check, logbloch_check, minimality,
                             pommerenke_check, seminorm, weight_regularity)

SRC = Path(__file__).resolve().parents[1] / "src"
F_Z = "z"
F_LOG = "log(e/(1 - z))"
F_LOGHALF = "(log(e/(1 - z)))^0.5"


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

def test_weight_regularity_closed_form():
    for K in (math.e ** 3, math.e ** 4, math.e ** 6):
        assert weight_regularity(Weight.log_K(K)) == pytest.approx(
            2.0 / math.log(K), abs=1e-10)
    assert weight_regularity(Weight.unit()) == 0.0


def test_weight_regularity_bounds_the_weight_gradient():
    # (1 - |z|^2)|grad omega_K| = 2|z| <= C_omega omega_K on a polar grid
    r = np.linspace(0.01, 1.0 - 1e-9, 20)
    t = np.arange(20) * (2.0 * math.pi / 20)
    z = (r[:, None] * np.exp(1j * t[None, :])).ravel()
    for K in (1.5, math.e, math.e ** 3, math.e ** 4, math.e ** 6):
        c = weight_regularity(Weight.log_K(K))
        assert np.all(2.0 * np.abs(z)
                      <= c * np.log(K / (1.0 - np.abs(z) ** 2)))


@pytest.mark.parametrize("K", [float("nan"), float("inf"), 1.0])
def test_log_weight_requires_a_finite_K_above_1(K):
    with pytest.raises(ValueError):
        Weight.log_K(K)


def test_log_weight_values():
    w = Weight.log()                       # K = e
    oms = np.array([0.5, 1e-6])
    assert np.allclose(w.from_oms(oms), np.log(math.e / oms))
    assert w.arc_factor(0.25) == pytest.approx(math.log(math.e / 0.25) ** 2)
    assert Weight.unit().arc_factor(0.25) == 1.0


def test_pommerenke_weight_constant():
    # omega_{e^4} has C_omega = 0.5 +- 1e-10 (needed by the transfer result)
    assert weight_regularity(Weight.log_K(math.e ** 4)) == pytest.approx(
        0.5, abs=1e-10)


# ---------------------------------------------------------------------------
# Bloch seminorms
# ---------------------------------------------------------------------------

def test_bloch_seminorm_of_z():
    # sup (1-|z|^2) = 1 at the origin
    assert bloch_seminorm(FunctionHandle.from_source(F_Z)).value == \
        pytest.approx(1.0, abs=1e-12)


def test_bloch_seminorm_of_log_refines_toward_two():
    rep = bloch_seminorm(FunctionHandle.from_source(F_LOG), J=12)
    vals = [v for _, v in rep.history]
    assert all(b >= a for a, b in zip(vals, vals[1:]))   # monotone refinement
    assert rep.value >= 1.95
    assert rep.value <= 2.0 + 1e-9


def test_bloch_mobius_invariance_within_two_percent():
    for src in (F_Z, F_LOG):
        fv, fp = FunctionHandle.from_source(src)
        base = bloch_seminorm(FunctionHandle(fv, fp)).value
        for a in (0.5, 0.3 + 0.4j):
            der = lambda z: fp(phi(a, z)) * (-(1 - abs(a) ** 2)
                                             / (1 - np.conj(a) * z) ** 2)
            comp = bloch_seminorm(FunctionHandle(lambda z: fv(phi(a, z)),
                                              der)).value
            assert abs(comp - base) / base <= 0.02


def _nested_grid_bloch_seminorm(f, w, J):
    """The Bloch seminorm as nested grids: level res samples its own rings,
    radii k 2^-min(res, 6) and 1 - 2^-j for j <= res, each on its own
    2^(min(res, 8) + 3) angles, and the origin as one point.  The reference
    that bloch_seminorm's single sampling of each radius must reproduce."""
    sampler = spaces._bloch_sampler(f, w)
    history, best = [], -math.inf
    for res in sorted(set(range(4, J + 5, 2)) | {J + 4}):
        m, n = min(res, 6), 2 ** (min(res, 8) + 3)
        radii = ({k * 2.0 ** -m for k in range(2 ** m)}
                 | {1.0 - 2.0 ** -j for j in range(1, res + 1)})
        for r in sorted(radii):
            best = max(best, quad.grid_sup(sampler, r, n if r else 1))
        history.append((res, best))
    return best, history


def test_bloch_seminorm_matches_nested_grid_reference():
    from holoflow.construct import make_block
    from holoflow.volterra import compose_apply
    log = FunctionHandle.from_source(F_LOG)
    cases = [(log, Weight.unit(), 8),
             (FunctionHandle.from_source(F_LOGHALF), Weight.unit(), 7),
             (make_block(0.99)[1], Weight.unit(), 8),
             (log, Weight.log(), 8),
             (log, Weight.unit(), 0),
             (log, Weight.unit(), 20),
             # a flow integrates each ring as one ODE system, and the
             # reference's coarse rings are systems of their own
             (compose_apply(Generator.from_source("-z"), 0.1, F_LOG),
              Weight.unit(), 5)]
    for f, w, J in cases:
        rep = bloch_seminorm(f, w, J)
        assert rep.resolution == J + 4
        assert (rep.value, rep.history) == \
            _nested_grid_bloch_seminorm(f, w, J)


def test_power_of_two_angle_meshes_are_strides_of_the_finest():
    # theta_k on n angles equals theta_{sk} on n s angles bit for bit, since
    # the two steps differ by a power of two
    fine = quad._angle_mesh(2048)
    for a in range(12):
        n = 2 ** a
        assert fine[::2048 // n].tobytes() == quad._angle_mesh(n).tobytes()


def test_bloch_sampler_runs_once_per_distinct_radius(monkeypatch):
    fv, fp = FunctionHandle.from_source(F_LOG)
    meshes, seen = [], []

    def mesh(n):
        meshes.append(n)
        return quad._angle_mesh(n)

    monkeypatch.setattr(spaces, "_angle_mesh", mesh)
    bloch_seminorm(FunctionHandle(fv, lambda z: seen.append(z) or fp(z)))
    assert meshes == [2048]                   # formed once, at J + 4 = 12
    radii = [z[0].real for z in seen]         # e^{i theta_0} = 1
    assert len(radii) == len(set(radii))
    assert set(radii) == ({k / 64 for k in range(64)}
                          | {1.0 - 2.0 ** -j for j in range(1, 13)})
    origin = [z for z in seen if z[0] == 0]
    assert len(origin) == 1 and origin[0].tobytes() == bytes(16)
    mesh = quad._angle_mesh(2048)
    for z in seen:
        if z[0] != 0:                         # every ring on one mesh
            assert z.tobytes() == (z[0].real * mesh).tobytes()


@pytest.mark.parametrize("J", [-1, 21])
def test_bloch_seminorm_checks_the_depth_before_sampling(monkeypatch, J):
    def must_not_run(*args):
        raise AssertionError("sampled before the depth check")
    monkeypatch.setattr(spaces, "_bloch_sampler", must_not_run)
    with pytest.raises(ValueError, match=r"depth J must be in \[0, 20\]"):
        bloch_seminorm(FunctionHandle.from_source(F_LOG), J=J)


def test_bloch_vanishing_verdicts():
    assert bloch_vanishing(FunctionHandle.from_source(F_Z)).tag == "vanishes"
    assert bloch_vanishing(FunctionHandle.from_source(F_LOG)).tag == \
        "bounded_nonvanishing"
    assert bloch_vanishing(FunctionHandle.from_source(F_LOGHALF)).tag == \
        "vanishes"


# ---------------------------------------------------------------------------
# BMOA seminorms and verdicts
# ---------------------------------------------------------------------------

def test_seminorm_dispatch_shares_the_depth_rule():
    f = FunctionHandle.from_source(F_LOG)
    for j in (0, 8):
        assert seminorm(f, "bloch", J=j) == bloch_seminorm(f, J=j)
    assert seminorm(f, "bmoa", J=3) == bmoa_seminorm(f, J=3)
    with pytest.raises(ValueError):
        seminorm(f, "bmo")


@pytest.mark.parametrize("J", [0, 12])
def test_master_grid_puts_four_cells_between_the_finest_centers(J):
    # 2^(J+4) angles at every accepted depth: the finest octave's 2^(J+2)
    # centers sit four whole cells apart, so no member has a phase lattice
    n_theta = spaces._master_grid(J)[2]
    assert n_theta == 1 << (J + 4)
    assert n_theta % (1 << (J + 2)) == 0 and n_theta >> (J + 2) == 4


@pytest.mark.parametrize("J", [13, 20])
def test_bmoa_rejects_depths_its_grid_does_not_resolve(J, monkeypatch):
    def must_not_run(*args):
        raise AssertionError("grid work before the depth check")

    monkeypatch.setattr(spaces, "_octave_sups", must_not_run)
    monkeypatch.setattr(spaces, "_radial_nodes", must_not_run)
    f = FunctionHandle.from_source(F_LOG)
    message = r"depth J must be in \[0, 12\], got %d$" % J
    for call in (lambda: seminorm(f, "bmoa", J=J),
                 lambda: bmoa_seminorm(f, J=J),
                 lambda: spaces._master_grid(J)):
        with pytest.raises(ValueError, match=message):
            call()


def test_bmoa_seminorm_full_circle_oracle(monkeypatch):
    # average of |f'|^2 (1-|z|^2) over the whole disc for f = z is 1/2; with
    # the full circle (j = 0 at frac 1.0) the only member, it is sups[0]
    monkeypatch.setattr(spaces, "FRACS", (1.0,))
    sups = spaces._octave_sups(FunctionHandle.from_source(F_Z), Weight.unit(),
                               0)
    assert len(sups) == 1
    assert math.sqrt(sups[0]) == pytest.approx(math.sqrt(0.5), abs=1e-6)


def test_bmoa_seminorm_log_is_finite_and_moderate():
    # the J = 12 per-octave sups do not level off: from j = 6 on each is
    # 1.3-10% above the last, rising fastest at the finest octaves, whose
    # |f'|^2 peaks are narrower than a cell.  The trend reads "stable" only
    # because the first two of its five tail ratios (about 1.014 and 1.017)
    # fall below the 1.02 growth threshold
    rep = bmoa_seminorm(FunctionHandle.from_source(F_LOG), J=12)
    assert 0.5 <= rep.value <= 5.0
    assert rep.trend != "growing"


def test_bmoa_log_weighted_divergence_of_half_log():
    # the classical non-example: g in VMOA but not BMOA_log; the per-octave
    # sups grow monotonically with ratio >= 1.05 over j = 3..10
    rep = bmoa_seminorm(FunctionHandle.from_source(F_LOGHALF), Weight.log(),
                        J=10)
    sups = dict(rep.scale_series)
    ratios = [sups[j + 1] / sups[j] for j in range(3, 10)]
    assert all(r >= 1.05 for r in ratios)
    assert rep.trend == "growing"


def _master_cells(fp, J):
    """The master grid whole: (r, ring weights, n_theta, cell values
    |f'|^2 (1-|z|^2), 0 where f' is not finite, per-ring prefix sums)."""
    r, wr, n_theta = spaces._master_grid(J)
    thetas = np.arange(n_theta) * (2.0 * math.pi / n_theta)
    z = r[:, None] * np.exp(1j * thetas[None, :])
    d = fp(z)
    vals = np.where(np.isfinite(d), np.abs(d) ** 2 * one_minus_abs_sq(z), 0.0)
    pref = np.concatenate([np.zeros((r.size, 1)), np.cumsum(vals, axis=1)],
                          axis=1)
    return r, wr, n_theta, vals, pref


def _octave_sups_per_ring(fp, J, fracs=(1.0, 0.75)):
    """Reference for spaces._octave_sups (unit weight): the same windows,
    with ring contributions added one ring at a time, every member's
    averages folded into its octave's sup.  Center i of n_c sits at cell
    i n_theta / n_c exactly; a window end -+ h/dtheta from it is split into
    a whole and a fraction, and the whole, added to cell, into turns of the
    ring and a cell index."""
    r, wr, n_theta, vals, pref = _master_cells(fp, J)
    dtheta = 2.0 * math.pi / n_theta
    sups = [0.0] * (J + 1)
    for j in range(J + 1):
        for frac in fracs:
            length = frac * 2.0 ** (-j)
            if length > 1.0:
                continue
            n_c = 1 << (j + 2)
            cell = np.arange(n_c) * (n_theta // n_c)
            half = GeodesicBox(Arc(0.0, length)).angular_halfwidth(r)
            acc = np.zeros(n_c)
            for i in range(r.size):
                h = float(half[i])
                if math.isnan(h) or h <= 0.0:
                    continue
                ends = []
                for x in (-h / dtheta, h / dtheta):
                    whole = np.floor(x)
                    turns, k = np.divmod(cell + whole.astype(int), n_theta)
                    ends.append((turns, pref[i, k], (x - whole) * vals[i, k]))
                (t_lo, p_lo, v_lo), (t_hi, p_hi, v_hi) = ends
                # cum(x) = turns total + pref + frac vals, turns counted from lo's
                cum_hi = (t_hi - t_lo) * pref[i, -1] + p_hi + v_hi
                acc += wr[i] * (cum_hi - (p_lo + v_lo)) / n_theta
            sups[j] = max(sups[j], float(np.max(acc / length)))
    return sups


def test_box_family_gather_equals_per_ring_loop():
    # the gathered family adds the rings in the same order: equal bits, and
    # a wrong average would move a sup; at J = 12 several ring blocks and
    # center ranges run on the pool
    for src, J in ((F_LOG, 6), (F_LOGHALF, 9), ("(0.5 - z)/(1 - 0.5*z)", 3),
                   (F_LOG, 12)):
        f = FunctionHandle.from_source(src)
        got = spaces._octave_sups(f, Weight.unit(), J)
        ref = _octave_sups_per_ring(f.der, J)
        assert isinstance(got, list) and len(got) == J + 1
        assert [x.hex() for x in got] == [x.hex() for x in ref], src


def _parent_window_sums(cells, n_c, half):
    """One member's window sums with the per-element float window ends of
    the formula the lattice replaced: (c -+ h)/dtheta from the center angle
    c in radians, wrapped and split into cells in floating point."""
    r, wr, n_theta, vals, pref = cells
    dtheta = 2.0 * math.pi / n_theta
    centers = np.arange(n_c) * (2.0 * math.pi / n_c)

    def cum(i, x):
        full = np.floor(x / n_theta)
        x = x - full * n_theta
        k = np.minimum(x.astype(int), n_theta - 1)
        return full * pref[i, -1] + pref[i, k] + (x - k) * vals[i, k]

    acc = np.zeros(n_c)
    for i in np.nonzero(half > 0.0)[0]:
        lo, hi = (centers - half[i]) / dtheta, (centers + half[i]) / dtheta
        wrap = np.floor(lo / n_theta)
        acc += wr[i] * (cum(i, hi - wrap * n_theta)
                        - cum(i, lo - wrap * n_theta)) / n_theta
    return acc


def _exact_window_sum(cells, n_c, half, center):
    """The window sum of one center at 200 bits from the same float cell
    values and prefix sums, the ends at i n_theta / n_c -+ h n_theta / 2 pi
    cells with pi to 200 bits."""
    import mpmath as mp
    r, wr, n_theta, vals, pref = cells
    with mp.workprec(200):
        def cum(i, x):
            turns = mp.floor(x / n_theta)
            x -= turns * n_theta
            k = int(mp.floor(x))
            return (turns * float(pref[i, -1]) + float(pref[i, k])
                    + (x - k) * float(vals[i, k]))

        total, c = mp.mpf(0), mp.mpf(int(center) * n_theta) / n_c
        for i in np.nonzero(half > 0.0)[0]:
            h = mp.mpf(float(half[i])) * n_theta / (2 * mp.pi)
            total += (mp.mpf(float(wr[i])) / n_theta
                      * (cum(i, c + h) - cum(i, c - h)))
        return total


@pytest.mark.parametrize("src", [F_LOG, F_LOGHALF, "z^3 + 2*z"])
def test_lattice_window_ends_are_at_least_as_accurate_as_float_ends(src):
    # Each octave's lattice sup is within 1e-13 of the 200-bit sup over the
    # same float cells, and its worst octave is no further from it than the
    # float-end formula's worst, or within 4 rounding units: at that floor
    # the arithmetic both share, cum(hi) - cum(lo) with cum = turns total +
    # pref + frac vals, decides, and either may land nearer.  The exact max
    # is over the centers whose float sum is within 1e-9 of the member's
    # max, which holds it while the float sums are within 5e-10 of their
    # exact values.
    f = FunctionHandle.from_source(src)
    for J in (3, 6):
        cells = _master_cells(f.der, J)
        lattice = spaces._octave_sups(f, Weight.unit(), J)
        parent, exact = [0.0] * (J + 1), [0.0] * (J + 1)
        for j, frac in itertools.product(range(J + 1), spaces.FRACS):
            length, n_c = frac * 2.0 ** (-j), 1 << (j + 2)
            half = GeodesicBox(Arc(0.0, length)).angular_halfwidth(cells[0])
            acc = _parent_window_sums(cells, n_c, half)
            top = float(np.max(acc))
            parent[j] = max(parent[j], top / length)
            near = np.nonzero(acc >= top - 1e-9 * abs(top))[0]
            exact[j] = max([exact[j]] + [
                _exact_window_sum(cells, n_c, half, c) / length for c in near])
        err = max(abs(lattice[j] / exact[j] - 1) for j in range(J + 1))
        err_parent = max(abs(parent[j] / exact[j] - 1) for j in range(J + 1))
        assert err <= 1e-13, (src, J)
        assert err <= max(err_parent, 4 * 2.0 ** -53), (src, J)


def test_box_family_single_worker_pool_gives_the_same_bytes(monkeypatch):
    f = FunctionHandle.from_source(F_LOG)
    default = spaces._octave_sups(f, Weight.log(), 12)
    # its worker is marked like the default pool's, so the density's own
    # evaluation runs inline in the ring task rather than waiting on itself
    with ThreadPoolExecutor(1, initializer=expr._mark_worker) as pool:
        monkeypatch.setattr(expr, "_POOL", pool)
        single = spaces._octave_sups(f, Weight.log(), 12)
    assert [x.hex() for x in single] == [x.hex() for x in default]


def test_box_family_block_exception_reaches_the_caller():
    threads = []
    r0 = spaces._master_grid(8)[0][0]
    fv, fp = FunctionHandle.from_source(F_LOG)

    def faulty(z):
        # a density that fails on every ring block but the first
        if z[0, 0].real != r0:
            threads.append(threading.current_thread())
            raise RuntimeError("ring block failed")
        return fp(z)

    with pytest.raises(RuntimeError, match="ring block failed"):
        spaces._octave_sups(FunctionHandle(fv, faulty), Weight.unit(), 8)
    assert threads and threading.main_thread() not in threads  # on the pool


@pytest.mark.parametrize("J", [8, 12])
def test_box_family_evaluates_the_density_on_blocks_of_whole_rings(J):
    # every call gets whole rings of the master grid, at most 2^14 cells
    # unless one ring is longer; the blocks cover each ring once, and their
    # bytes are the rows of the whole grid z
    r, _, n_theta = spaces._master_grid(J)
    thetas = np.arange(n_theta) * (2.0 * math.pi / n_theta)
    grid = r[:, None] * np.exp(1j * thetas[None, :])
    fv, fp = FunctionHandle.from_source(F_LOG)
    blocks = []

    def recording(z):
        start = int(np.flatnonzero(r == z[0, 0].real)[0])
        blocks.append((z.shape, start,
                       z.tobytes() == grid[start:start + len(z)].tobytes()))
        return fp(z)

    spaces._octave_sups(FunctionHandle(fv, recording), Weight.unit(), J)
    assert blocks and all(ok for _, _, ok in blocks)
    assert all(len(shape) == 2 and shape[1] == n_theta
               and (shape[0] * n_theta <= 1 << 14 or shape[0] == 1)
               for shape, _, _ in blocks)
    covered = np.zeros(r.size, dtype=int)
    for shape, start, _ in blocks:
        covered[start:start + shape[0]] += 1
    assert covered.tolist() == [1] * r.size


def test_vmoa_verdicts():
    assert bmoa_vanishing(FunctionHandle.from_source(F_Z)).tag == "vanishes"
    assert bmoa_vanishing(FunctionHandle.from_source(F_LOG)).tag == \
        "bounded_nonvanishing"
    verdict = bmoa_vanishing(FunctionHandle.from_source(F_LOGHALF))
    assert verdict.tag == "vanishes"        # 1/log decay via the slope rule


def test_space_chain_vmoa_inside_little_bloch():
    # every corpus member with a VMOA verdict also vanishes in Bloch sense
    for src in (F_Z, F_LOGHALF, "z^2", "(0.5 - z)/(1 - 0.5*z)"):
        f = FunctionHandle.from_source(src)
        if bmoa_vanishing(f).tag == "vanishes":
            assert bloch_vanishing(f).tag == "vanishes"


# ---------------------------------------------------------------------------
# Garsia-style integrals
# ---------------------------------------------------------------------------

def garsia_quantity(f, a_values):
    """int |f'|^2 (1 - |phi_a|^2) dm for each a, by spaces.GarsiaIntegrator
    with the density's hot angles plus the query angles, one query per a."""
    _, fp = FunctionHandle.of(f)
    a = np.atleast_1d(np.asarray(a_values, dtype=complex))
    sq = lambda z: np.abs(fp(z)) ** 2
    hot = [float(np.angle(ai)) for ai in a if ai != 0]
    integ = spaces.GarsiaIntegrator(sq, spaces._density_hot_angles(sq) + hot)
    return np.concatenate([integ(abs(ai), [np.angle(ai)]) for ai in a])


def _log_integrator():
    sq = lambda z: np.abs(FunctionHandle.from_source(F_LOG).der(z)) ** 2
    return spaces.GarsiaIntegrator(sq, [0.3, 2.0])


# (r, alpha): a = 0, a negative angle, the deepest schedule radius at a hot
# angle, and an angle off the mesh clusters
_QUERIES = [(0.0, 0.0), (0.5, 1.0), (0.7, -math.pi / 2), (0.99, 0.3),
            (1.0 - 2.0 ** -39, 2.0), (0.999999, math.pi + 1e-4)]


def test_garsia_polar_kernel_equals_full_array_expression(monkeypatch):
    # the query is the polar kernel written out on the whole (rings, angles)
    # grid, reduced once per angle; no BLAS entry point is reached
    integ = _log_integrator()
    want = []
    for r, alpha in _QUERIES:
        om = 1.0 - r
        gap = om + integ._om_rho - om * integ._om_rho
        d = ((gap * gap)[:, None] + (4.0 * r * integ._rho)[:, None]
             * np.sin(0.5 * (integ._theta - alpha % (2.0 * math.pi))) ** 2)
        want.append(om * (1.0 + r) * float(np.sum(integ._base / d)))

    def no_blas(*args, **kwargs):
        raise AssertionError("BLAS entry point called")

    for name in ("dot", "vdot", "inner", "matmul", "tensordot", "einsum"):
        monkeypatch.setattr(np, name, no_blas)
    got = [float(integ(r, [alpha])[0]) for r, alpha in _QUERIES]
    assert np.array(got).tobytes() == np.array(want).tobytes()


def test_garsia_batched_query_equals_single_queries():
    integ = _log_integrator()
    angles = [0.0, 0.3, 2.0, -math.pi / 2, 4.0, 2.0 * math.pi - 1e-9]
    for r in (0.0, 0.5, 1.0 - 2.0 ** -20, 1.0 - 2.0 ** -39):
        batched = integ(r, angles)
        single = np.concatenate([integ(r, [alpha]) for alpha in angles])
        assert batched.tobytes() == single.tobytes()
    assert integ(0.5, []).shape == (0,)


def _mp_kernel(rho, theta, r, alpha):
    """(1 - |a|^2) / |1 - conj(a) z|^2 at 200 bits, from the stored floats."""
    with mpmath.workprec(200):
        a = mpmath.mpf(r) * mpmath.expjpi(mpmath.mpf(alpha) / mpmath.pi)
        z = mpmath.mpf(rho) * mpmath.expjpi(mpmath.mpf(theta) / mpmath.pi)
        return (1 - abs(a) ** 2) / abs(1 - mpmath.conj(a) * z) ** 2


def test_garsia_kernel_per_node_within_a_few_ulps():
    # with a one-hot base, a query returns the kernel
    # (1 - r^2)/|1 - conj(a) z|^2 at that node.  Nodes: the alpha = 0 cluster
    # on both sides of 0, whose lower half is stored just below 2 pi, two
    # mid-mesh angles, and the innermost, a middle and the two outermost rings
    integ = spaces.GarsiaIntegrator(lambda z: np.ones(z.shape), [0.0])
    n_rings, n_angles = integ._base.shape
    rings = [0, n_rings // 2, n_rings - 2, n_rings - 1]
    angles = list(range(12)) + list(range(n_angles - 12, n_angles)) \
        + [n_angles // 3, n_angles // 2]
    assert integ._theta[angles[-3]] > 6.28          # lower half, below 2 pi
    one_hot = np.zeros_like(integ._base)
    worst = 0.0
    for r in (0.0, 0.5, 1.0 - 2.0 ** -30, 1.0 - 2.0 ** -39):
        for k, j in itertools.product(rings, angles):
            one_hot[k, j] = 1.0
            integ._base = one_hot
            got = float(integ(r, [0.0])[0])
            one_hot[k, j] = 0.0
            want = _mp_kernel(integ._rho[k], integ._theta[j], r, 0.0)
            worst = max(worst, abs(got - float(want)) / math.ulp(float(want)))
    assert worst <= 4.0


def test_garsia_deep_queries_match_a_200_bit_sum():
    # G = i z: gamma' = z/G is constant, so the density is 1; the mesh has
    # only the alpha = 0 cluster and the 64 uniform angles
    _, gp = gamma_symbol(Generator.from_source("i*z"))
    integ = spaces.GarsiaIntegrator(lambda z: np.abs(gp(z)) ** 2, [0.0])
    with mpmath.workprec(200):
        base = [[mpmath.mpf(float(b)) for b in row] for row in integ._base]
        for r, alpha in itertools.product((1.0 - 2.0 ** -30, 1.0 - 2.0 ** -38),
                                          (0.0, math.pi / 2)):
            rows = [mpmath.sin((mpmath.mpf(t) - alpha) / 2) ** 2
                    for t in integ._theta]
            total = mpmath.mpf(0)
            for rho, brow in zip(integ._rho, base):
                one = 1 - mpmath.mpf(r) * rho
                four = 4 * mpmath.mpf(r) * rho
                total += mpmath.fsum(b / (one * one + four * sn)
                                     for b, sn in zip(brow, rows))
            want = float((1 - mpmath.mpf(r) ** 2) * total)
            got = float(integ(r, [alpha])[0])
            assert got == pytest.approx(want, rel=1e-14, abs=0.0)


_GARSIA_QUERIES = """
import numpy as np
from holoflow import spaces
from holoflow.expr import FunctionHandle
fp = FunctionHandle.from_source("log(e/(1 - z))").der
integ = spaces.GarsiaIntegrator(lambda z: np.abs(fp(z)) ** 2, [0.3, 2.0])
a = np.array([0.0, 0.5, 0.7j, 0.99 * np.exp(0.3j), -0.999999 + 0.0001j])
print(np.concatenate([integ(abs(ai), [np.angle(ai)]) for ai in a])
      .tobytes().hex())
"""


def test_garsia_queries_do_not_depend_on_blas_threads():
    # a BLAS dot product splits long vectors across its threads, which
    # regroups the sum; the queries make no BLAS call
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=str(SRC))
        out.append(subprocess.run(
            [sys.executable, "-c", _GARSIA_QUERIES], env=env,
            capture_output=True, text=True, check=True, timeout=120).stdout)
    assert len(out[0]) == 2 * 8 * 5 + 1 and out[0] == out[1]


def _garsia_series_oracle(a, terms=4000):
    # int (1 - |phi_a|^2) dm = (1-|a|^2) sum |a|^{2n} / ((n+1)(n+2))
    r2 = abs(a) ** 2
    s = sum(r2 ** n / ((n + 1) * (n + 2)) for n in range(terms))
    return (1 - r2) * s


@pytest.mark.parametrize("a", [0.0, 0.5, 0.7j, -0.9, 0.99 * np.exp(0.3j)])
def test_garsia_quantity_matches_series_oracle(a):
    val = float(garsia_quantity(FunctionHandle.from_source(F_Z),
                                a_values=[a])[0])
    assert val == pytest.approx(_garsia_series_oracle(a), rel=0.02)


def test_garsia_pointwise_mobius_identity():
    # Q_{f o phi_b}(a) = Q_f(phi_b(a)) -- the exact invariance behind the
    # box-form comparability
    b = 0.4 - 0.2j
    fv, fp = FunctionHandle.from_source(F_LOG)
    der = lambda z: fp(phi(b, z)) * (-(1 - abs(b) ** 2)
                                     / (1 - np.conj(b) * z) ** 2)
    for a in (0.0, 0.3, 0.5j):
        lhs = float(garsia_quantity(
            FunctionHandle(lambda z: fv(phi(b, z)), der), a_values=[a])[0])
        rhs = float(garsia_quantity(FunctionHandle(fv, fp),
                                    a_values=[phi(b, a)])[0])
        assert lhs == pytest.approx(rhs, rel=0.05)


def test_garsia_box_comparability_bracket():
    # Carleson-box and Garsia forms agree within the absolute bracket [1/8, 8]
    for src in (F_Z, F_LOG, F_LOGHALF):
        pair = FunctionHandle.from_source(src)
        box_sq = bmoa_seminorm(pair).value ** 2
        a_vals = [0.0, 0.5, 0.8, 0.95, -0.7j]
        garsia_sup = float(np.max(garsia_quantity(pair, a_values=a_vals)))
        ratio = garsia_sup / box_sq
        assert 1.0 / 8.0 <= ratio <= 8.0


# ---------------------------------------------------------------------------
# LVB / LVMO conditions and minimality (Theorem 1.1 corpus)
# ---------------------------------------------------------------------------

MINIMALITY_EXPECTED = {
    "i*z": True,
    "-z": True,
    "-z*(1 + z)/(1 - z)": False,
    "(1 - z)^2": False,
    "z^2 - 1": False,
}


def test_lvb_radial_profile_frozen_oracle():
    # sup_theta (1-|z|^2)/|G| log(1/(1-|z|^2)) at r = 15/16 for G = -z:
    # (1-r^2)/r * log(1/(1-r^2)) = 0.27269540...
    rep = lvb_check(Generator.from_source("-z"))
    first = dict(rep.verdict.samples)[0.9375]
    r = 0.9375
    expected = (1 - r * r) / r * math.log(1.0 / (1 - r * r))
    assert first == pytest.approx(expected, rel=1e-9)
    assert rep.satisfied


@pytest.mark.parametrize("src", sorted(MINIMALITY_EXPECTED))
def test_minimality_corpus(src):
    rep = minimality(Generator.from_source(src))
    assert rep.minimal == MINIMALITY_EXPECTED[src]
    if rep.elliptic:
        assert rep.verdicts_agree


def test_lvmo_gamma_form_is_default():
    rep = lvmo_check(Generator.from_source("-z"))
    assert rep.gamma_form
    assert rep.verdict.tag == "vanishes"


def test_logbloch_check_smoke():
    rep = logbloch_check(Generator.from_source("i*z"))
    assert rep.condition == "LOGBLOCH"
    assert rep.satisfied


# ---------------------------------------------------------------------------
# weighted transfer (univalent case)
# ---------------------------------------------------------------------------

def test_pommerenke_transfer_on_univalent_member():
    # f with f' = -(1-z)^{1/2}, i.e. f = (2/3)(1-z)^{3/2}, under omega_{e^4}
    f = "0.66666666666666663*(1 - z)^1.5"
    rep = pommerenke_check(FunctionHandle.from_source(f),
                           Weight.log_K(math.e ** 4))
    assert rep.univalent
    assert rep.hypothesis.tag == "vanishes"
    assert rep.contract_applies
    assert rep.conclusion.tag == "vanishes"
    assert rep.contract_holds


def test_pommerenke_requires_contractive_weight():
    with pytest.raises(ValueError):
        # C_omega = 2 >= 1
        pommerenke_check(FunctionHandle.from_source("z"), Weight.log())


def test_corollary_transfer_verdict_level():
    # univalent corpus members: log-Bloch vanishing implies log-BMOA vanishing
    f = "0.66666666666666663*(1 - z)^1.5"
    w = Weight.log_K(math.e ** 4)
    if bloch_vanishing(FunctionHandle.from_source(f), w).tag == "vanishes":
        assert bmoa_vanishing(FunctionHandle.from_source(f), w).tag == \
            "vanishes"
