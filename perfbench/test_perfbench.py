"""Tests of the benchmark itself: bindings, the layer map and exact repeats.

Run from the repository root with ``python3 -m pytest -q perfbench``.  The
layer-map and repeat tests run ``run.main`` with ``--trace 1`` twice per
workload, with different pass counts where a pass is short (a few minutes).
"""

import cmath
import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run          # noqa: E402
import tracing      # noqa: E402
import workloads    # noqa: E402

run._import_holoflow()
from holoflow import expr, semigroup, spaces, volterra  # noqa: E402

# bindings made with "from .x import name" in another module
BY_NAME = {
    spaces: ("grid_sup", "radial_limit", "classify_sequence", "classify",
             "gamma_symbol"),
    volterra: ("flow_points", "line_integral"),
    semigroup: ("classify_sequence", "line_integral"),
}

# counter -> workloads predicted to exercise it; zero on every other workload
LAYER_MAP = {
    "construct.mp_box_average.calls": {"witness"},
    "construct.mp_box_average.density_evals": {"witness"},
    "construct.base_density.calls": {"witness"},
    "construct._beta_mp.calls": {"witness"},
    "construct.abs_F_sq.calls": {"witness"},
    "construct.re_F.calls": {"witness"},
    "semigroup.flow_points.calls": {"operators"},
    "semigroup.flow_points.points": {"operators"},
    "semigroup.flow_points.rhs_evals": {"operators"},
    "volterra.compose_apply.calls": {"operators"},
    "volterra.volterra_apply.calls": {"operators"},
}

# counters predicted nonzero on a workload, with no claim about the others
EXERCISED = {
    "witness": ("construct_bmoa_s", "construct_bloch_s", "construct_fail_s",
                "block_verify_s",
                "construct.build_bmoa.self_s", "construct.build_bloch.self_s",
                "construct.verify_block.self_s",
                "construct.mp_disc_integral.self_s",
                "spaces.bmoa_seminorm.calls"),
    "verdicts": ("norm_s", "vanishing_s",
                 "spaces.bmoa_seminorm.calls", "spaces.bmoa_vanishing.self_s",
                 "spaces.bloch_seminorm.self_s",
                 "spaces.bloch_vanishing.self_s",
                 "spaces.GarsiaIntegrator.queries",
                 "spaces.lvb_check.self_s", "spaces.minimality.self_s",
                 "quad.grid_sup.calls", "quad.radial_limit.calls",
                 "quad.classify_sequence.calls", "expr.evaluate_array.points",
                 "expr.parse.calls", "expr.differentiate.calls",
                 "hypgeo.GeodesicBox.angular_halfwidth.calls",
                 "semigroup.classify.calls"),
    "operators": ("sarason_s", "volterra_s",
                  "spaces.bmoa_seminorm.calls", "quad.line_integral.calls",
                  "expr.evaluate_array.points", "semigroup.classify.calls",
                  "volterra.boundedness_probe.self_s",
                  "volterra.continuity_probe.self_s",
                  "semigroup.koenigs.self_s"),
}

# counts later changes may cite: they must repeat exactly for a seed
EXACT = {
    "expr.evaluate_array.points": ("verdicts", "operators"),
    "construct.mp_box_average.density_evals": ("witness",),
    "construct.base_density.calls": ("witness",),
    "semigroup.flow_points.rhs_evals": ("operators",),
}

SEED = 7

# passes of the two traced runs per workload; a witness pass takes ~30 s
PASSES = {"witness": (1, 1), "verdicts": (1, 2), "operators": (1, 2)}


def test_every_binding_is_patched_and_restored():
    originals = {(m, n): getattr(m, n) for m, names in BY_NAME.items()
                 for n in names}
    with tracing.Tracer().patched():
        for (mod, name), fn in originals.items():
            bound = getattr(mod, name)
            assert bound is not fn and bound.__wrapped__ is fn, \
                "%s.%s not patched" % (mod.__name__, name)
    for (mod, name), fn in originals.items():
        assert getattr(mod, name) is fn


def test_rotations_are_the_stated_maps():
    c = cmath.exp(0.7j)
    z = 0.3 - 0.2j
    f = expr.parse(workloads.rotate_function(workloads.LOG, c))
    assert abs(expr.evaluate(f, z) - cmath.log(cmath.e / (1 - c * z))) < 1e-14
    g = expr.parse(workloads.conjugate_generator("(1-z)^2", c))
    assert abs(expr.evaluate(g, z) - c.conjugate() * (1 - c * z) ** 2) < 1e-14


def test_known_defects_count_as_failures_but_not_as_incorrect():
    defect, = [r for r in workloads.verdicts(SEED) if r.name == "minimality"]
    assert defect.defect == workloads.DEFECT_MINIMAL
    out = run.Outcomes()
    out.record(defect, 1.0, 0, json.dumps({"minimal": True}))
    assert (out.attempted, out.failed, out.unexpected) == (1, 1, [])
    out.record(defect, 1.0, 0, json.dumps({"minimal": "maybe"}))
    assert out.failed == 2 and len(out.unexpected) == 1


def test_benchmark_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "witness",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _emitted(workload, passes):
    """The result line run.main prints for a --trace 1 run of `passes`
    untraced and `passes` traced passes."""
    saved = workloads.MIN_PASSES[workload]
    workloads.MIN_PASSES[workload] = passes
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            assert run.main(["--workload", workload, "--seed", str(SEED),
                             "--seconds", "0", "--trace", "1"]) == 0
    finally:
        workloads.MIN_PASSES[workload] = saved
    result = json.loads(buf.getvalue().splitlines()[-1])
    return result, {k: v["value"] for k, v in result["metrics"].items()}


@pytest.fixture(scope="module")
def traced():
    return {w: tuple(_emitted(w, n) for n in PASSES[w])
            for w in workloads.WORKLOADS}


def test_failures_are_exactly_the_known_defects(traced):
    for workload, runs in traced.items():
        requests = workloads.WORKLOADS[workload](SEED)
        defects = sum(1 for r in requests if r.defect)
        for result, metrics in runs:
            assert result["correct"], workload
            assert result["failed"] * len(requests) == \
                defects * result["attempted"], workload
            assert metrics["failed_ratio"] == defects / len(requests), workload


def test_layer_map(traced):
    for workload, ((_, metrics), _) in traced.items():
        for name, where in LAYER_MAP.items():
            if workload in where:
                assert metrics[name] > 0, (workload, name)
            else:
                assert metrics[name] == 0, (workload, name)
        for name in EXERCISED[workload]:
            assert metrics[name] > 0, (workload, name)


def test_emitted_counts_repeat_exactly(traced):
    """Counts are per traced pass, so they repeat whatever the pass count."""
    for name, where in EXACT.items():
        for workload in where:
            (_, first), (_, second) = traced[workload]
            assert first[name] > 0 and first[name] == second[name], \
                (workload, name, first[name], second[name])
