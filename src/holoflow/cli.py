"""Command-line interface: one verb per concept, machine-readable reports.

Every invocation writes a single JSON document to standard output.  Numbers
are rendered as decimal strings with 17 significant digits (extended-precision
gaps keep their full decimal strings) so reports round-trip and identical
invocations are byte-identical.  Exit codes: 0 success, 2 parse error,
3 domain/admissibility error, 4 numerical failure, 5 internal invariant
violation.  An optional ``--csv PATH`` sidecar receives the plottable series
as (series, parameter, value) rows.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from . import __version__, expr, quad, semigroup, spaces, volterra
from .expr import ParseDiagnostic, EvalDomainError
from .quad import LimitVerdict, QuadFailure
from .semigroup import AdmissibilityError, ClassificationError, FlowBlowupError
from .spaces import Weight

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_NUMERIC = 4
EXIT_INTERNAL = 5

GENERATOR_CORPUS = ("i*z", "-z", "-z*(1 + z)/(1 - z)", "(1 - z)^2", "z^2 - 1")
FUNCTION_CORPUS = ("z", "log(e/(1 - z))", "(log(e/(1 - z)))^0.5")


# ---------------------------------------------------------------------------
# deterministic rendering
# ---------------------------------------------------------------------------

def _fmt_float(x) -> str:
    if isinstance(x, float) and (x != x):
        return "nan"
    return "%.17g" % float(x)


def render(obj):
    """Recursively convert a report to JSON-safe deterministic strings."""
    if obj is None or isinstance(obj, (bool, str, int)):
        return obj
    if isinstance(obj, float) or isinstance(obj, np.floating):
        return _fmt_float(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return {"re": _fmt_float(obj.real), "im": _fmt_float(obj.imag)}
    if isinstance(obj, dict):
        return {str(k): render(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [render(v) for v in obj]
    if isinstance(obj, LimitVerdict):
        return render({"tag": obj.tag, "last_value": obj.last_value,
                       "samples": list(obj.samples), "flags": list(obj.flags)})
    if hasattr(obj, "__dataclass_fields__"):
        return render({k: getattr(obj, k) for k in obj.__dataclass_fields__})
    return render(str(obj))


def _emit(args, report, series=()):
    config = dict(asdict(quad.CONFIG), depth_J=getattr(args, "J", 8),
                  precision_bits=quad.default_bits(),
                  output_format="json")
    doc = {"version": SCHEMA_VERSION, "artifact": __version__,
           "command": args.command, "config": render(config)}
    doc.update(render(report))
    sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    if getattr(args, "csv", None):
        with open(args.csv, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["series", "parameter", "value"])
            for name, param, value in series:
                wr.writerow([name, _fmt_float(param), _fmt_float(value)])
    return EXIT_OK


def _weight(args) -> Weight:
    return Weight.log() if args.weight == "log" else Weight.unit()


def _gen(args) -> semigroup.Generator:
    return semigroup.Generator.from_source(args.generator)


def _complex_arg(text) -> complex:
    """A literal such as 0.9, 0.5+0.1j or 0.5+0.1i; ValueError if malformed."""
    return complex(text.replace("i", "j"))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_classify(args):
    cls = semigroup.classify(_gen(args))
    return _emit(args, {"kind": cls.kind, "tau": cls.tau, "lambda": cls.lam})


def cmd_flow(args):
    z0 = _complex_arg(args.z0)
    traj = semigroup.flow(_gen(args), z0, args.t)
    series = [("trajectory_re", t, p.real) for t, p in
              zip(traj.times, traj.points)]
    series += [("trajectory_im", t, p.imag) for t, p in
               zip(traj.times, traj.points)]
    return _emit(args, {"value": traj.endpoint, "derivative": traj.end_deriv,
                        "n_steps": traj.n_steps, "residual": traj.residual,
                        "times": list(traj.times),
                        "points": list(traj.points)}, series)


def _ray(args):
    """Radii 0, 0.1, ..., 0.9 and their points on the ray at --angle."""
    if not math.isfinite(args.angle):
        raise ValueError("--angle must be finite, got %r" % args.angle)
    rr = np.linspace(0.0, 0.9, 10)
    return rr, rr * np.exp(1j * args.angle)


def cmd_koenigs(args):
    gen = _gen(args)
    rr, zs = _ray(args)
    cls = semigroup.classify(gen)
    h, _ = semigroup.koenigs(gen)
    vals = [complex(h(z)) for z in zs]
    series = [("koenigs_abs", r, abs(v)) for r, v in zip(rr, vals)]
    return _emit(args, {"kind": cls.kind, "tau": cls.tau, "lambda": cls.lam,
                        "ray_angle": args.angle, "radii": list(rr),
                        "values": vals}, series)


def cmd_gamma(args):
    gen = _gen(args)
    rr, zs = _ray(args)
    cls = semigroup.classify(gen)
    gam, gp = semigroup.gamma_symbol(gen)
    vals = [complex(gam(z)) for z in zs]
    ders = [complex(d) for d in gp(zs)]
    series = [("gamma_abs", r, abs(v)) for r, v in zip(rr, vals)]
    return _emit(args, {"kind": cls.kind, "ray_angle": args.angle,
                        "radii": list(rr), "values": vals,
                        "derivatives": ders}, series)


def cmd_norm(args):
    f = expr.FunctionHandle.from_source(args.function)
    rep = spaces.seminorm(f, args.space, _weight(args), J=args.J)
    series = [("refinement", r, v) for r, v in rep.history]
    series += [("scale_sup", j, v) for j, v in rep.scale_series]
    return _emit(args, {"space": rep.space, "weight": rep.weight,
                        "value": rep.value, "resolution": rep.resolution,
                        "trend": rep.trend, "history": rep.history}, series)


def cmd_vanishing(args):
    f = expr.FunctionHandle.from_source(args.function)
    w = _weight(args)
    if args.space == "bloch":
        verdict = spaces.bloch_vanishing(f, w)
    else:
        verdict = spaces.bmoa_vanishing(f, w)
    series = [("samples", p, v) for p, v in verdict.samples]
    return _emit(args, {"space": args.space, "weight": w,
                        "verdict": verdict}, series)


def cmd_condition(args):
    gen = _gen(args)
    checks = {"lvb": spaces.lvb_check, "lvmo": spaces.lvmo_check,
              "logbloch": spaces.logbloch_check, "lbmo": spaces.lbmo_check}
    rep = checks[args.which](gen)
    series = [("samples", p, v) for p, v in rep.verdict.samples]
    return _emit(args, rep, series)


def cmd_minimality(args):
    rep = spaces.minimality(_gen(args))
    return _emit(args, {"kind": rep.kind, "elliptic": rep.elliptic,
                        "lvb": rep.lvb.verdict.tag,
                        "lvmo": rep.lvmo.verdict.tag,
                        "minimal": rep.minimal,
                        "verdicts_agree": rep.verdicts_agree})


def cmd_volterra(args):
    probe = volterra.boundedness_probe(args.symbol, space=args.space,
                                       w=_weight(args))
    series = [("ratio", i, r) for i, r in enumerate(probe.ratios)]
    return _emit(args, probe, series)


def cmd_sarason(args):
    gen = _gen(args)
    times = [float(t) for t in args.times.split(",")]
    f = expr.FunctionHandle.from_source(args.function)
    probe = volterra.continuity_probe(gen, f, times, space=args.space)
    series = [("seminorm", t, v) for t, v in zip(probe.times, probe.values)]
    return _emit(args, probe, series)


def cmd_construct(args):
    from . import construct         # mpmath loads only for a witness
    symbol = {"loghalf": construct.LOG_HALF_SYMBOL,
              "linear": construct.LINEAR_SYMBOL}[args.symbol]
    build = construct.build_bmoa if args.space == "bmoa" else \
        construct.build_bloch
    try:
        state = build(symbol=symbol, n_max=args.steps)
    except construct.ConstructionFailure as exc:
        return _emit(args, {"outcome": "failure", "reason": str(exc),
                            "record": exc.record})
    doc = json.loads(state.to_json())
    series = [("coefficient", k + 1, float(step["a"]))
              for k, step in enumerate(state.steps)]
    return _emit(args, {"outcome": "success", "state": doc}, series)


def cmd_block_verify(args):
    from . import construct
    rep = construct.verify_block(_complex_arg(args.w))
    return _emit(args, rep)


def cmd_corpus(args):
    out = {"generators": {}, "functions": {}}
    for src in GENERATOR_CORPUS:
        gen = semigroup.Generator.from_source(src)
        cls = semigroup.classify(gen)
        rep = spaces.minimality(gen)
        out["generators"][src] = {
            "kind": cls.kind, "tau": cls.tau, "lambda": cls.lam,
            "minimal": rep.minimal, "lvb": rep.lvb.verdict.tag,
            "lvmo": rep.lvmo.verdict.tag,
            "verdicts_agree": rep.verdicts_agree,
        }
    for src in FUNCTION_CORPUS:
        f = expr.FunctionHandle.from_source(src)
        out["functions"][src] = {
            "bmoa": spaces.bmoa_seminorm(f).value,
            "bloch": spaces.bloch_seminorm(f).value,
            "vmoa": spaces.bmoa_vanishing(f).tag,
        }
    return _emit(args, out)


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):          # keep exit code 2, single-line message
        raise ParseDiagnostic(0, message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="holoflow", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        sp = sub.add_parser(name, **kw)
        sp.set_defaults(fn=fn)
        sp.add_argument("--csv", help="write plot series to this CSV path")
        return sp

    sp = add("classify", cmd_classify)
    sp.add_argument("--generator", required=True)

    sp = add("flow", cmd_flow)
    sp.add_argument("--generator", required=True)
    sp.add_argument("--z0", dest="z0", default="0")
    sp.add_argument("--t", type=float, required=True)

    for name, fn in (("koenigs", cmd_koenigs), ("gamma", cmd_gamma)):
        sp = add(name, fn)
        sp.add_argument("--generator", required=True)
        sp.add_argument("--angle", type=float, default=0.0)

    sp = add("norm", cmd_norm)
    sp.add_argument("--function", required=True)
    sp.add_argument("--space", choices=("bloch", "bmoa"), default="bmoa")
    sp.add_argument("--weight", choices=("none", "log"), default="none")
    sp.add_argument("--J", type=int, default=8)

    sp = add("vanishing", cmd_vanishing)
    sp.add_argument("--function", required=True)
    sp.add_argument("--space", choices=("bloch", "bmoa"), default="bmoa")
    sp.add_argument("--weight", choices=("none", "log"), default="none")

    sp = add("condition", cmd_condition)
    sp.add_argument("--generator", required=True)
    sp.add_argument("--which", choices=("lvb", "lvmo", "logbloch", "lbmo"),
                    required=True)

    sp = add("minimality", cmd_minimality)
    sp.add_argument("--generator", required=True)

    sp = add("volterra", cmd_volterra)
    sp.add_argument("--symbol", required=True)
    sp.add_argument("--space", choices=("bloch", "bmoa"), default="bmoa")
    sp.add_argument("--weight", choices=("none", "log"), default="none")

    sp = add("sarason", cmd_sarason)
    sp.add_argument("--generator", required=True)
    sp.add_argument("--function", default="z")
    sp.add_argument("--space", choices=("bloch", "bmoa"), default="bmoa")
    sp.add_argument("--times", default="0.1,0.01,0.001")

    sp = add("construct", cmd_construct)
    sp.add_argument("--space", choices=("bmoa", "bloch"), default="bmoa")
    sp.add_argument("--steps", type=int, default=4)
    sp.add_argument("--symbol", choices=("loghalf", "linear"),
                    default="loghalf")

    sp = add("block-verify", cmd_block_verify)
    sp.add_argument("--w", dest="w", required=True,
                    help="complex point, e.g. 0.9 or 0.5+0.1j")

    add("corpus", cmd_corpus)
    return p


def _error_doc(code, exc):
    doc = {"version": SCHEMA_VERSION, "artifact": __version__,
           "error": {"exit_code": code, "type": type(exc).__name__,
                     "message": str(exc)}}
    sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return code


# flags whose values may start with '-' (sources like "-z"); fold them into
# --flag=value form so argparse does not mistake the value for an option
_VALUE_FLAGS = {"--generator", "--function", "--symbol", "--z0", "--w",
                "--times"}


def _fold_values(argv):
    out = []
    skip = False
    for i, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        if tok in _VALUE_FLAGS and i + 1 < len(argv):
            out.append(tok + "=" + argv[i + 1])
            skip = True
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    argv = _fold_values(list(sys.argv[1:] if argv is None else argv))
    try:
        try:
            args = build_parser().parse_args(argv)
            quad.default_bits()         # reject a bad precision before work
            if args.csv:                # and a CSV path that cannot be written
                open(args.csv, "a").close()
            return args.fn(args)
        except ParseDiagnostic as exc:
            return _error_doc(EXIT_PARSE, exc)
        except (AdmissibilityError, ClassificationError, EvalDomainError,
                ValueError, RecursionError, OSError) as exc:
            # RecursionError: a tree nested deeper than its recursive parse,
            # derivative and evaluation reach; OSError: an unwritable CSV path
            return _error_doc(EXIT_DOMAIN, exc)
        except (QuadFailure, FlowBlowupError, ArithmeticError) as exc:
            return _error_doc(EXIT_NUMERIC, exc)
        except AssertionError as exc:   # construct.BlockPropertyError is one
            return _error_doc(EXIT_INTERNAL, exc)
        finally:
            sys.stdout.flush()          # a closed pipe fails here, not at exit
    except BrokenPipeError:
        # stdout's reader is gone: write nothing more, and point fd 1 at
        # os.devnull so the interpreter's final flush is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
