"""CLI: subcommand dispatch, JSON schema, exit codes, determinism, CSV."""

import ast
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from holoflow import cli, construct, quad

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# dispatch and report contents
# ---------------------------------------------------------------------------

def test_classify_example(capsys):
    code, doc = run_json(capsys, "classify", "--generator", "-z")
    assert code == cli.EXIT_OK
    assert doc["kind"] == "elliptic"
    assert doc["tau"] == {"re": "0", "im": "0"}
    assert doc["lambda"]["re"] == "1"


def test_flow_example_closed_form(capsys):
    code, doc = run_json(capsys, "flow", "--generator", "(1 - z)^2",
                         "--z0", "0", "--t", "1")
    assert code == cli.EXIT_OK
    assert float(doc["value"]["re"]) == pytest.approx(0.5, abs=1e-8)


def test_minimality_example(capsys):
    code, doc = run_json(capsys, "minimality", "--generator", "i*z")
    assert code == cli.EXIT_OK
    assert doc["elliptic"] is True
    assert doc["lvb"] == "vanishes"
    assert doc["lvmo"] == "vanishes"
    assert doc["minimal"] is True


def test_every_report_embeds_config_and_version(capsys):
    for argv in (("classify", "--generator", "-z"),
                 ("norm", "--function", "z", "--space", "bloch"),
                 ("condition", "--generator", "-z", "--which", "lvb")):
        code, doc = run_json(capsys, *argv)
        assert code == cli.EXIT_OK
        assert doc["version"] == cli.SCHEMA_VERSION
        assert doc["artifact"]
        cfg = doc["config"]
        assert cfg["precision_bits"] == 256
        assert float(cfg["atol"]) > 0 and cfg["j_hi"] > cfg["j_lo"]
        quad_keys = {k: v for k, v in cfg.items() if k not in
                     ("depth_J", "precision_bits", "output_format")}
        assert quad_keys == cli.render(asdict(quad.CONFIG))


def test_no_function_takes_a_cfg_parameter():
    # the numerical configuration is the constant quad.CONFIG, never passed
    found = []
    for name in ("cli", "construct", "expr", "hypgeo", "quad", "semigroup",
                 "spaces", "volterra"):
        mod = importlib.import_module("holoflow." + name)
        for obj in vars(mod).values():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            funcs = [obj] if inspect.isfunction(obj) else []
            if inspect.isclass(obj):
                funcs = [f for f in vars(obj).values()
                         if inspect.isfunction(f)]
            found += ["%s.%s" % (name, f.__qualname__) for f in funcs
                      if "cfg" in inspect.signature(f).parameters]
    assert found == []


def _identifiers(nodes):
    out = set()
    for node in nodes:
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                out.add(n.id)
            elif isinstance(n, ast.Attribute):
                out.add(n.attr)
            elif isinstance(n, ast.alias):
                out.add(n.name)
    return out


def _defines(stmt, name):
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return stmt.name == name
    targets = getattr(stmt, "targets", [getattr(stmt, "target", None)])
    return any(isinstance(t, ast.Name) and t.id == name for t in targets)


def test_every_exported_name_has_a_consumer():
    # a public name that only unit tests reach is dead weight: it needs a
    # user in another module, a demo, the acceptance criteria, or its own
    # module outside its definition and __all__
    root = Path(__file__).resolve().parents[1]
    modules = {p: ast.parse(p.read_text())
               for p in sorted((root / "src" / "holoflow").glob("*.py"))}
    outside = [root / "tests" / "test_acceptance.py"]
    outside += sorted((root / "demos").glob("*.py"))
    outside_ids = _identifiers(ast.parse(p.read_text()) for p in outside)
    unused = []
    for path, tree in modules.items():
        others = _identifiers(t for p, t in modules.items() if p != path)
        exported = [s for s in tree.body if _defines(s, "__all__")]
        for name in ast.literal_eval(exported[0].value) if exported else ():
            own = _identifiers(s for s in tree.body if s not in exported
                               and not _defines(s, name))
            if name not in others | outside_ids | own:
                unused.append("%s.%s" % (path.stem, name))
    assert unused == []


def test_no_module_imports_a_name_it_never_reads():
    # deletions leave imports behind; a name listed in __all__ counts as read
    root = Path(__file__).resolve().parents[1]
    paths = sorted((root / "src" / "holoflow").glob("*.py"))
    paths += sorted((root / "tests").glob("*.py"))
    unused = []
    for path in paths:
        tree = ast.parse(path.read_text())
        read = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for stmt in tree.body:
            if _defines(stmt, "__all__"):
                read |= set(ast.literal_eval(stmt.value))
        for node in ast.walk(tree):
            if (not isinstance(node, (ast.Import, ast.ImportFrom))
                    or getattr(node, "module", None) == "__future__"):
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in read:
                    unused.append("%s: %s" % (path.name, bound))
    assert unused == []


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _own_scope(func):
    """The nodes of func's body outside its nested functions and lambdas."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def test_no_function_assigns_a_local_it_never_reads():
    # a local that is stored and never loaded is a leftover computation or
    # a loop index nobody uses; names starting with "_" say so on purpose,
    # and a nested function reading the name, or a global / nonlocal
    # declaration of it, counts as a read
    root = Path(__file__).resolve().parents[1]
    unused = []
    for path in sorted((root / "src" / "holoflow").glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if not isinstance(func, _SCOPES):
                continue
            read = set()
            for n in ast.walk(func):
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                    read.add(n.id)
                elif isinstance(n, (ast.Global, ast.Nonlocal)):
                    read |= set(n.names)
            unused += ["%s:%d %s" % (path.name, n.lineno, n.id)
                       for n in _own_scope(func)
                       if isinstance(n, ast.Name)
                       and isinstance(n.ctx, ast.Store)
                       and not n.id.startswith("_") and n.id not in read]
    assert unused == []


def test_numbers_rendered_as_decimal_strings(capsys):
    _, doc = run_json(capsys, "norm", "--function", "log(e/(1 - z))",
                      "--space", "bmoa", "--J", "6")
    val = doc["value"]
    assert isinstance(val, str)
    assert re.fullmatch(r"-?\d+(\.\d+)?([eE][-+]?\d+)?", val)
    # 17 significant digits available on a non-terminating value
    assert len(val.replace("-", "").replace(".", "").lstrip("0")) >= 15


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_parse_error_exits_2(capsys):
    code, doc = run_json(capsys, "classify", "--generator", "z*(")
    assert code == cli.EXIT_PARSE
    assert doc["error"]["exit_code"] == 2


def test_unknown_flag_exits_2(capsys):
    code, _ = run(capsys, "classify", "--nope", "x")
    assert code == cli.EXIT_PARSE


def test_domain_error_exits_3(capsys):
    # z^3 is not an admissible generator (Berkson-Porta p = -z^2)
    code, doc = run_json(capsys, "classify", "--generator", "z^3")
    assert code == cli.EXIT_DOMAIN
    assert doc["error"]["exit_code"] == 3


@pytest.mark.parametrize("argv", [
    ("construct", "--steps", "0"),
    ("construct", "--steps", "-1"),
    ("construct", "--space", "bloch", "--steps", "0"),
    ("norm", "--function", "z", "--J", "-1"),
    ("norm", "--function", "z", "--space", "bloch", "--J", "-3"),
])
def test_out_of_range_steps_and_depth_exit_3(capsys, argv):
    code, doc = run_json(capsys, *argv)       # exactly one JSON document
    assert code == cli.EXIT_DOMAIN
    assert doc["error"]["exit_code"] == 3
    assert doc["error"]["type"] == "ValueError"


def _must_not_run(*args, **kwargs):
    raise AssertionError("work started on an invalid request")


@pytest.mark.parametrize("bits", ["0", "16", "-5", "4097"])
def test_out_of_range_precision_bits_exit_3(capsys, monkeypatch, bits):
    monkeypatch.setenv("HOLOFLOW_PRECISION_BITS", bits)
    monkeypatch.setattr(construct, "verify_block", _must_not_run)
    code, doc = run_json(capsys, "block-verify", "--w", "0.9")
    assert code == cli.EXIT_DOMAIN
    assert doc["error"]["exit_code"] == 3
    assert doc["error"]["type"] == "ValueError"


def test_block_property_failure_exits_5(capsys, monkeypatch):
    # BlockPropertyError is an AssertionError: exit 5 under its own name
    monkeypatch.setitem(construct.BLOCK_BOUNDS, "bloch", 0.0)
    code, doc = run_json(capsys, "block-verify", "--w", "0.9")
    assert code == cli.EXIT_INTERNAL
    assert doc["error"]["exit_code"] == 5
    assert doc["error"]["type"] == "BlockPropertyError"


@pytest.mark.parametrize("space", ["bmoa", "bloch"])
def test_depth_above_cap_exits_3(capsys, monkeypatch, space):
    monkeypatch.setattr(cli.spaces, "_octave_sups", _must_not_run)
    monkeypatch.setattr(cli.spaces, "_bloch_sampler", _must_not_run)
    code, doc = run_json(capsys, "norm", "--function", "z", "--space", space,
                         "--J", "21")
    assert code == cli.EXIT_DOMAIN
    assert doc["error"]["exit_code"] == 3
    assert doc["error"]["type"] == "ValueError"


@pytest.mark.parametrize("space", ["bmoa", "bloch"])
@pytest.mark.parametrize("J", ["-1", "21"])
def test_depth_error_names_the_depth_J(capsys, monkeypatch, space, J):
    # Bloch runs at resolution J + 4, but the message names the J passed
    monkeypatch.setattr(cli.spaces, "_octave_sups", _must_not_run)
    monkeypatch.setattr(cli.spaces, "_bloch_sampler", _must_not_run)
    code, doc = run_json(capsys, "norm", "--function", "z", "--space", space,
                         "--J", J)
    assert code == cli.EXIT_DOMAIN
    assert doc["error"]["message"] == \
        "depth J must be in [0, 20], got %s" % J


@pytest.mark.parametrize("J", ["13", "20"])
def test_bmoa_depth_above_its_grid_exits_3(capsys, monkeypatch, J):
    # above J = 12 the master grid no longer resolves the finest arcs: BMOA
    # refuses before any grid work, while Bloch runs to J = 20
    monkeypatch.setattr(cli.spaces, "_octave_sups", _must_not_run)
    code, doc = run_json(capsys, "norm", "--function", "z", "--space", "bmoa",
                         "--J", J)
    assert code == cli.EXIT_DOMAIN
    assert doc["error"]["exit_code"] == 3
    assert doc["error"]["message"] == \
        "depth J must be in [0, 12], got %s" % J


def test_bloch_depth_20_runs(capsys):
    code, doc = run_json(capsys, "norm", "--function", "z", "--space", "bloch",
                         "--J", "20")
    assert code == cli.EXIT_OK
    assert doc["resolution"] == 24 and float(doc["value"]) == 1.0


def _child(*argv):
    """The CLI in a fresh interpreter; a RuntimeWarning is an error there."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("HOLOFLOW_PRECISION_BITS", "PYTHONWARNINGS")}
    env["PYTHONPATH"] = str(SRC)
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "holoflow.cli",
         *argv], env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("source", ["10^154*z", "10^160*z"])
def test_overflowing_bmoa_seminorm_exits_4(source):
    # |f'|^2 overflows at 10^160, the per-ring prefix sums at 10^154: the
    # seminorm is a numerical failure, not 0
    proc = _child("norm", "--function", source)
    doc = json.loads(proc.stdout)             # exactly one JSON document
    assert proc.returncode == cli.EXIT_NUMERIC
    assert doc["error"]["exit_code"] == 4
    assert doc["error"]["type"] == "QuadFailure"
    assert proc.stderr == ""


def test_large_finite_bmoa_seminorm_exits_0():
    proc = _child("norm", "--function", "10^150*z")
    assert proc.returncode == cli.EXIT_OK
    assert json.loads(proc.stdout)["value"] == "7.5763763550677224e+149"
    assert proc.stderr == ""


@pytest.mark.parametrize("argv,code", [
    (("volterra", "--symbol", "exp(800*z)"), cli.EXIT_NUMERIC),
    (("volterra", "--space", "bloch", "--symbol", "log(z)"), cli.EXIT_OK),
    (("condition", "--generator", "exp(800*z)*(-z)", "--which", "lvmo"),
     cli.EXIT_OK),
])
def test_overflowing_samples_warn_nothing(argv, code):
    # numpy's error state is per thread, so each grid sampler runs under its
    # own np.errstate: an overflowed or nan sample is excluded silently
    proc = _child(*argv)
    assert proc.returncode == code
    json.loads(proc.stdout)                   # exactly one JSON document
    assert proc.stderr == ""


@pytest.mark.parametrize("argv", [
    ("flow", "--generator", "-z", "--t", "nan"),
    ("flow", "--generator", "-z", "--t", "inf"),
    ("flow", "--generator", "-z", "--t=-1"),
    ("flow", "--generator", "-z", "--t", "10.5"),
    ("flow", "--generator", "i*z", "--t", "1e7"),
    ("flow", "--generator", "-z", "--z0", "1", "--t", "1"),
    ("flow", "--generator", "-z", "--z0", "0.8+0.8j", "--t", "1"),
    ("flow", "--generator", "-z", "--z0", "nan", "--t", "1"),
    ("sarason", "--generator", "-z", "--times", "nan"),
    ("sarason", "--generator", "-z", "--times", "inf"),
    ("sarason", "--generator", "-z", "--times", "1e6"),
    ("sarason", "--generator", "-z", "--times", "1.5,0.1"),
    ("sarason", "--generator", "-z", "--times", "0.1,0"),
    ("sarason", "--generator", "-z",
     "--times", "0.9,0.8,0.7,0.6,0.5,0.4,0.3,0.2,0.1"),
])
def test_out_of_range_times_and_start_points_exit_3(capsys, monkeypatch,
                                                     argv):
    monkeypatch.setattr(cli.semigroup, "_solve", _must_not_run)
    monkeypatch.setattr(cli.volterra, "flow_points", _must_not_run)
    code, doc = run_json(capsys, *argv)       # exactly one JSON document
    assert code == cli.EXIT_DOMAIN
    assert doc["error"]["exit_code"] == 3
    assert doc["error"]["type"] == "ValueError"


@pytest.mark.parametrize("argv", [
    ("flow", "--generator", "-z", "--z0", "abc", "--t", "1"),
    ("block-verify", "--w", "abc"),
])
def test_malformed_complex_literal_exits_3(capsys, argv):
    code, doc = run_json(capsys, *argv)       # exactly one JSON document
    assert code == cli.EXIT_DOMAIN
    assert doc["error"]["exit_code"] == 3
    assert doc["error"]["type"] == "ValueError"


def test_complex_literal_accepts_i_for_j(capsys):
    argv = ("flow", "--generator", "-z*(1 + z)/(1 - z)", "--t", "2", "--z0")
    assert run(capsys, *argv, "0.3+0.2i") == run(capsys, *argv, "0.3+0.2j")


@pytest.mark.parametrize("argv", [
    ("koenigs", "--generator", "-z", "--angle", "inf"),
    ("koenigs", "--generator", "-z", "--angle", "nan"),
    ("koenigs", "--generator", "(1-z)^2", "--angle", "nan"),
    ("gamma", "--generator", "-z", "--angle", "nan"),
    ("gamma", "--generator", "-z", "--angle=-inf"),
])
def test_non_finite_angle_exits_3(capsys, monkeypatch, argv):
    monkeypatch.setattr(cli.semigroup, "classify", _must_not_run)
    monkeypatch.setattr(cli.quad, "line_integral", _must_not_run)
    monkeypatch.setattr(cli.semigroup, "line_integral", _must_not_run)
    code, doc = run_json(capsys, *argv)       # exactly one JSON document
    assert code == cli.EXIT_DOMAIN
    assert doc["error"]["exit_code"] == 3
    assert doc["error"]["type"] == "ValueError"


@pytest.mark.parametrize("term, count", [("z^2", 600), ("z", 3000)])
def test_expression_nested_too_deeply_exits_3(capsys, term, count):
    # a sum of count terms is a tree count levels deep: deeper than the
    # recursive evaluation (z^2) or differentiation (z) can walk
    code, doc = run_json(capsys, "norm", "--function",
                         " + ".join([term] * count))    # one JSON document
    assert code == cli.EXIT_DOMAIN
    assert doc["error"]["exit_code"] == 3
    assert doc["error"]["type"] == "RecursionError"


def test_flow_reaching_the_guard_annulus_exits_4(capsys):
    code, doc = run_json(capsys, "flow", "--generator", "z", "--z0", "0.5",
                         "--t", "10")       # exactly one JSON document
    assert code == cli.EXIT_NUMERIC
    assert doc["error"]["exit_code"] == 4
    assert doc["error"]["type"] == "FlowBlowupError"


def test_construct_negative_control_reports_failure_outcome(capsys):
    code, doc = run_json(capsys, "construct", "--steps", "1",
                         "--symbol", "linear")
    assert code == cli.EXIT_OK          # documented outcome, not an error
    assert doc["outcome"] == "failure"
    assert "divergence evidence insufficient" in doc["reason"]


# ---------------------------------------------------------------------------
# determinism and sidecar
# ---------------------------------------------------------------------------

def test_byte_identical_reports(capsys):
    a = run(capsys, "minimality", "--generator", "-z")[1]
    b = run(capsys, "minimality", "--generator", "-z")[1]
    assert a == b


@pytest.mark.parametrize("unbuffered", [True, False])
def test_closed_stdout_exits_3_quietly(unbuffered):
    # the reader of stdout is gone before the child starts: the report's
    # write (unbuffered) or the flush (buffered) meets a broken pipe
    env = {k: v for k, v in os.environ.items()
           if k not in ("HOLOFLOW_PRECISION_BITS", "PYTHONUNBUFFERED")}
    env["PYTHONPATH"] = str(SRC)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from holoflow import cli; "
             "sys.exit(cli.main(sys.argv[1:]))", "classify", "--generator",
             "-z"], env=env, stdout=write_end, stderr=subprocess.PIPE,
            text=True, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == cli.EXIT_DOMAIN
    assert proc.stderr == ""


def test_csv_sidecar_schema(tmp_path, capsys):
    path = tmp_path / "series.csv"
    code, _ = run(capsys, "flow", "--generator", "-z", "--z0", "0.5",
                  "--t", "1", "--csv", str(path))
    assert code == cli.EXIT_OK
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "series,parameter,value"
    assert all(len(line.split(",")) == 3 for line in lines[1:])
    assert any(line.startswith("trajectory_re,") for line in lines[1:])


@pytest.mark.parametrize("where, exc", [
    ("missing/series.csv", "FileNotFoundError"),
    (".", "IsADirectoryError"),
])
def test_unwritable_csv_path_exits_3_before_the_command(tmp_path, capsys,
                                                        monkeypatch, where,
                                                        exc):
    monkeypatch.setattr(cli, "cmd_classify", _must_not_run)
    code, doc = run_json(capsys, "classify", "--generator", "-z",
                         "--csv", str(tmp_path / where))  # one JSON document
    assert code == cli.EXIT_DOMAIN
    assert doc["error"]["exit_code"] == 3
    assert doc["error"]["type"] == exc


def test_precision_bits_env_var(capsys, monkeypatch):
    monkeypatch.setenv("HOLOFLOW_PRECISION_BITS", "320")
    _, doc = run_json(capsys, "classify", "--generator", "-z")
    assert doc["config"]["precision_bits"] == 320


def test_block_verify_subcommand(capsys):
    code, doc = run_json(capsys, "block-verify", "--w", "0.5")
    assert code == cli.EXIT_OK
    assert doc["passed"] is True
    assert float(doc["c4"]) >= 0.4
