"""Golden reports: the CLI must keep producing the committed documents.

``golden/argv.json`` maps a case id to a CLI argv; ``golden/<id>.json`` is
that invocation's stdout (``HOLOFLOW_PRECISION_BITS`` unset).  Keys,
structure, tags, flags, integers and every decimal string of more than 17
significant digits (the extended-precision values) must match exactly.
Decimal strings of at most 17 significant digits are the ``%.17g`` floats;
they must match to a relative 1e-12, because float bits differ between
numpy/libm builds.  A change meant to alter a report replaces its golden
file in the same change and says why.
"""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from holoflow import cli

GOLDEN = Path(__file__).with_name("golden")
SRC = Path(__file__).resolve().parents[1] / "src"
CASES = json.loads((GOLDEN / "argv.json").read_text())

_DECIMAL = re.compile(r"-?(\d+)(?:\.(\d*))?(?:[eE][-+]?\d+)?")


def _float_string(s):
    """True for a decimal string of at most 17 significant digits."""
    m = _DECIMAL.fullmatch(s)
    return bool(m) and len((m.group(1) + (m.group(2) or "")).lstrip("0")) <= 17


def golden_mismatches(want, got, path="report"):
    """Every place where got differs from the golden document want."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or sorted(want) != sorted(got):
            return ["%s: keys %s != %s" % (path, sorted(want), got)]
        return [m for k in want
                for m in golden_mismatches(want[k], got[k], path + "." + k)]
    if isinstance(want, list):
        if not isinstance(got, list) or len(want) != len(got):
            return ["%s: %r != %r" % (path, want, got)]
        return [m for i, (a, b) in enumerate(zip(want, got))
                for m in golden_mismatches(a, b, "%s[%d]" % (path, i))]
    if (isinstance(want, str) and isinstance(got, str) and _float_string(want)
            and _float_string(got)
            and math.isclose(float(want), float(got), rel_tol=1e-12)):
        return []
    if type(want) is not type(got) or want != got:
        return ["%s: %r != %r" % (path, want, got)]
    return []


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_golden(capsys, monkeypatch, case):
    monkeypatch.delenv("HOLOFLOW_PRECISION_BITS", raising=False)
    code = cli.main(list(CASES[case]))
    got = json.loads(capsys.readouterr().out)      # exactly one document
    assert code == cli.EXIT_OK
    want = json.loads((GOLDEN / (case + ".json")).read_text())
    assert golden_mismatches(want, got) == []


def _perturbed(doc, path, value):
    doc = json.loads(json.dumps(doc))
    inner = doc
    for k in path[:-1]:
        inner = inner[k]
    inner[path[-1]] = value
    return doc


def test_golden_comparator_tolerates_float_noise_only():
    lbmo = json.loads((GOLDEN / "21.json").read_text())
    state = json.loads((GOLDEN / "11.json").read_text())
    fl = ("verdict", "last_value")                  # a %.17g float
    mp_m = ("state", "steps", 0, "M")               # 50 significant digits
    x = float(lbmo["verdict"]["last_value"])
    m = state["state"]["steps"][0]["M"]
    m_digit = m[:-1] + ("1" if m[-1] != "1" else "2")
    assert _float_string(lbmo["verdict"]["last_value"])
    assert not _float_string(m)
    for close in (math.nextafter(x, math.inf), x * (1 + 1e-13)):
        assert "%.17g" % close != lbmo["verdict"]["last_value"]
        assert golden_mismatches(lbmo, _perturbed(lbmo, fl, "%.17g" % close)) \
            == []
    renamed = json.loads(json.dumps(lbmo))
    renamed["status"] = renamed.pop("satisfied")
    wrong = [
        (lbmo, _perturbed(lbmo, fl, "%.17g" % (x * (1 + 1e-9)))),
        (lbmo, _perturbed(lbmo, ("verdict", "tag"), "bounded_nonvanishing")),
        (lbmo, renamed),
        (state, _perturbed(state, mp_m, m_digit)),
    ]
    for want, got in wrong:
        assert golden_mismatches(want, got) != []


# One fresh interpreter: which scipy modules, and which of mpmath and
# holoflow.construct, are loaded after building the parser, after golden
# cases of commands that never integrate a flow, and after a flow; with each
# case's stdout.
_COLD_START = """
import contextlib, io, json, sys
import holoflow.cli as cli
cli.build_parser()
loaded = lambda: sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
witness = lambda: sorted({"mpmath", "holoflow.construct"} & set(sys.modules))
seen = {"parser": loaded(), "parser_witness": witness()}
for case, argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    seen[case] = {"code": code, "out": out.getvalue(), "scipy": loaded(),
                  "witness": witness()}
print(json.dumps(seen))
"""


def test_cold_start_loads_scipy_only_for_a_flow():
    cases = ["01", "03", "04", "26", "02"]       # classify, koenigs, gamma,
                                                 # block-verify, then flow
    env = {k: v for k, v in os.environ.items()
           if k != "HOLOFLOW_PRECISION_BITS"}
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_START,
         json.dumps([(c, CASES[c]) for c in cases])],
        env=env, capture_output=True, text=True, check=True, timeout=60)
    seen = json.loads(proc.stdout)
    assert seen["parser"] == []
    for case in cases:
        assert seen[case]["code"] == cli.EXIT_OK
        want = json.loads((GOLDEN / (case + ".json")).read_text())
        assert golden_mismatches(want, json.loads(seen[case]["out"])) == []
        if case != "02":
            assert seen[case]["scipy"] == [], case
    assert "scipy.integrate" in seen["02"]["scipy"]
    # mpmath and the witness module load only for construct and
    # block-verify, here case 26
    assert seen["parser_witness"] == []
    for case in ("01", "03", "04"):
        assert seen[case]["witness"] == [], case
    assert seen["26"]["witness"] == ["holoflow.construct", "mpmath"]
