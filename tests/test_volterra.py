"""Volterra operators, composition semigroups, continuity probes."""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from holoflow import cli, expr, spaces, volterra
from holoflow.expr import FunctionHandle
from holoflow.semigroup import FlowBlowupError, Generator
from holoflow.volterra import (STANDARD_FAMILY, boundedness_probe,
                               compose_apply, continuity_probe, volterra_apply)

SRC = Path(__file__).resolve().parents[1] / "src"


# ---------------------------------------------------------------------------
# T_g basics
# ---------------------------------------------------------------------------

def test_volterra_vanishes_at_origin_exactly():
    image = volterra_apply("log(e/(1 - z))", FunctionHandle.from_source("z^2"))
    assert image.val(0.0) == 0.0


def test_volterra_derivative_is_f_times_g_prime():
    # d/dz T_g f = f g' against a central difference at 1e-8 tolerance
    image = volterra_apply("log(e/(1 - z))", FunctionHandle.from_source("z^2"))
    h = 1e-5
    for z in (0.3 + 0.2j, -0.5j, 0.1):
        fd = (image.val(z + h) - image.val(z - h)) / (2 * h)
        dv = complex(np.atleast_1d(image.der(np.array([z])))[0])
        assert abs(dv - fd) <= 1e-8 * (1 + abs(dv))


def test_volterra_closed_form_oracle():
    # T_g f for f = 1, g = z^2/2 gives z^2/2
    image = volterra_apply("0.5*z^2", FunctionHandle.from_source("1"))
    z = 0.4 - 0.3j
    assert complex(image.val(z)) == pytest.approx(0.5 * z ** 2, abs=1e-12)


def test_standard_family_has_six_members():
    assert len(STANDARD_FAMILY) == 6
    assert "1" in STANDARD_FAMILY and "z" in STANDARD_FAMILY


# ---------------------------------------------------------------------------
# composition operators
# ---------------------------------------------------------------------------

def test_compose_apply_matches_flow():
    gen = Generator.from_source("-z")
    ct = compose_apply(gen, 0.7, FunctionHandle.from_source("z^2"))
    z = 0.3 + 0.1j
    w = math.exp(-0.7) * z
    assert complex(np.atleast_1d(ct.val(z))[0]) == pytest.approx(w ** 2,
                                                                 abs=1e-9)
    # chain rule: (f o phi_t)' = f'(phi_t) J_t, with J_t = e^{-t} here
    assert complex(np.atleast_1d(ct.der(z))[0]) == pytest.approx(
        2 * w * math.exp(-0.7), abs=1e-9)


def test_operator_semigroup_law_pointwise():
    gen = Generator.from_source("-z*(1 + z)/(1 - z)")
    f = FunctionHandle.from_source("log(e/(1 - z))")
    s, t = 0.4, 0.8
    cs = compose_apply(gen, s, f)
    cst = compose_apply(gen, s + t, f)
    ct_of_cs = compose_apply(gen, t, FunctionHandle(
        lambda z: np.atleast_1d(cs.val(z)),
        lambda z: np.atleast_1d(cs.der(z))))
    for z in (0.2 + 0.3j, -0.4, 0.1j):
        a = complex(np.atleast_1d(ct_of_cs.val(z))[0])
        b = complex(np.atleast_1d(cst.val(z))[0])
        assert abs(a - b) <= 1e-7


def test_compose_rejects_negative_time():
    with pytest.raises(ValueError):
        compose_apply(Generator.from_source("-z"), -1.0,
                      FunctionHandle.from_source("z"))


def test_compose_at_zero_time_is_identity():
    f = FunctionHandle.from_source("z^2")
    ct = compose_apply(Generator.from_source("-z"), 0.0, f)
    z = np.array([0.3 + 0.2j, -0.5])
    assert np.array_equal(ct.val(z), f.val(z))
    assert np.array_equal(ct.der(z), f.der(z))


# ---------------------------------------------------------------------------
# continuity probes (maximal subspace evidence)
# ---------------------------------------------------------------------------

def _serial_continuity_values(gen, f, times, space="bmoa"):
    # the probe's per-time body as a plain loop on this thread
    values = []
    for t in times:
        ct = volterra.compose_apply(gen, t, f)
        diff = FunctionHandle(lambda z, c=ct: c.val(z) - f.val(z),
                              lambda z, c=ct: c.der(z) - f.der(z))
        values.append(spaces.seminorm(diff, space).value)
    return values


def test_continuity_probe_decays_for_vmoa_member():
    gen = Generator.from_source("i*z")
    probe = continuity_probe(gen, FunctionHandle.from_source("z"),
                             (0.1, 0.01, 0.001))
    assert probe.trend == "decays"
    assert probe.values[0] / probe.values[-1] >= 8.0


def test_continuity_probe_floor_for_bmoa_only_member():
    gen = Generator.from_source("i*z")
    f = FunctionHandle.from_source("log(e/(1 - z))")
    probe = continuity_probe(gen, f, (0.1, 0.01, 0.001))
    assert probe.trend == "floor"
    assert probe.floor >= 0.05
    # the times ran on the pool with the bits of a serial loop
    want = _serial_continuity_values(gen, f, probe.times)
    assert np.array(probe.values).tobytes() == np.array(want).tobytes()


def test_continuity_probe_matches_the_exact_rotation():
    # under G = i z, phi_t(z) = e^{it} z, so C_t z - z has the constant
    # derivative e^{it} - 1: the flowed seminorm against the exact one
    gen = Generator.from_source("i*z")
    probe = continuity_probe(gen, FunctionHandle.from_source("z"),
                             (0.1, 0.01, 0.001))
    for t, value in zip(probe.times, probe.values):
        c = complex(np.exp(1j * t) - 1.0)
        exact = FunctionHandle(lambda z: c * z,
                               lambda z: np.full(np.shape(z), c))
        assert value == pytest.approx(spaces.bmoa_seminorm(exact).value,
                                      rel=5e-12, abs=0)


_SARASON_PEAK = """
import sys
from holoflow import cli
cli.main(["sarason", "--generator", "i*z", "--function", "log(e/(1 - z))"])
status = open("/proc/self/status").read().split("VmHWM:")[1]
print(status.split()[0], file=sys.stderr)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads the peak RSS from /proc/self/status")
def test_sarason_peak_memory_stays_below_300_mb():
    # the flows run ring block by ring block: no whole-grid z, f' or flow
    # state is live.  The child reports VmHWM (KiB), the peak of its own
    # process image: getrusage's ru_maxrss would also carry over the peak
    # of this test process, which the forked child keeps across exec
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", _SARASON_PEAK], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=300)
    assert int(proc.stderr.split()[-1]) < 300 * 1024


def test_vmoa_members_decay_under_every_corpus_semigroup():
    # verdict-level inclusion X_0 subset of the maximal subspace
    for gsrc in ("i*z", "-z"):
        gen = Generator.from_source(gsrc)
        probe = continuity_probe(gen, FunctionHandle.from_source("z"),
                                 (0.1, 0.01, 0.001))
        assert probe.trend == "decays"


def test_continuity_probe_raises_the_first_failing_time(monkeypatch):
    # the second and third times fail; the second's error surfaces, as in
    # the serial loop, whichever worker fails first
    gen = Generator.from_source("i*z")
    f = FunctionHandle.from_source("z")
    times = (0.1, 0.01, 0.001)

    def compose(g, t, h):
        if t == times[0]:
            return h
        raise FlowBlowupError("blow-up at t=%g" % t)

    monkeypatch.setattr(volterra, "compose_apply", compose)
    with pytest.raises(FlowBlowupError) as serial:
        _serial_continuity_values(gen, f, times)
    with pytest.raises(FlowBlowupError) as fanned:
        continuity_probe(gen, f, times)
    assert str(fanned.value) == str(serial.value) == "blow-up at t=0.01"


def test_sarason_differentiates_each_tree_once(monkeypatch, capsys):
    # a slow differentiate widens the window in which two flows on the pool
    # would both find the generator's derivative missing
    trees, differentiate = [], expr.differentiate

    def slow(tree):
        trees.append(tree)
        time.sleep(0.1)
        return differentiate(tree)

    monkeypatch.setattr(expr, "differentiate", slow)
    code = cli.main(["sarason", "--generator", "i*z", "--function", "z^2"])
    capsys.readouterr()
    assert code == cli.EXIT_OK
    # the function's tree and the generator's, each once
    assert len(trees) == 2 and trees[0] is not trees[1]


def test_continuity_probe_requires_decreasing_times():
    gen = Generator.from_source("-z")
    with pytest.raises(ValueError):
        continuity_probe(gen, FunctionHandle.from_source("z"), (0.01, 0.1))


def test_unknown_space_is_rejected():
    # an unknown space name must not fall through to the Bloch seminorm
    with pytest.raises(ValueError):
        boundedness_probe("z", space="bmo")


# ---------------------------------------------------------------------------
# boundedness probes
# ---------------------------------------------------------------------------

def _serial_boundedness_fields(g_src):
    # the probe's per-member body as a plain loop on this thread
    g = FunctionHandle.from_source(g_src)
    fields = [[], [], [], []]
    for src in STANDARD_FAMILY:
        f = FunctionHandle.of(src)
        f0 = abs(complex(f.val(np.array([0.0 + 0.0j]))[0]))
        image = volterra_apply(g, f)
        r = []
        for J in (5, 9):
            num = spaces.seminorm(image, "bmoa", J=J).value
            den = spaces.seminorm(f, "bmoa", J=J).value + f0
            r.append(num / den if den > 0 else math.inf)
        growth = r[1] / r[0] if r[0] > 0 else math.inf
        for field, v in zip(fields, (den, num, r[1], growth)):
            field.append(v)
    return fields


def test_boundedness_probe_is_marked_as_probe():
    probe = boundedness_probe("z")
    assert probe.marker == "probe, not proof"
    assert len(probe.ratios) == len(STANDARD_FAMILY)


def test_bounded_symbol_shows_no_ratio_growth():
    # g = z: T_g is bounded on BMOA; refinement does not inflate the ratios
    probe = boundedness_probe("z")
    assert all(g <= 1.05 for g in probe.ratio_growth)
    assert all(r <= 2.0 for r in probe.ratios)


def test_zero_symbol_has_zero_ratios():
    probe = boundedness_probe("0")
    assert all(r == 0.0 for r in probe.ratios)


def test_log_symbol_ratio_growth_under_refinement():
    # g = log(e/(1-z)) is not a bounded BMOA symbol; at least one family
    # member's ratio keeps growing as the arc family is refined
    probe = boundedness_probe("log(e/(1 - z))")
    assert max(probe.ratio_growth) >= 1.1
    # the members ran on the pool with the bits of a serial loop
    got = (probe.member_norms, probe.image_norms, probe.ratios,
           probe.ratio_growth)
    assert [np.array(v).tobytes() for v in got] == \
        [np.array(v).tobytes() for v in _serial_boundedness_fields(probe.symbol)]
