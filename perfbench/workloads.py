"""Seeded request lists for the three workloads, each request with its oracle.

A seed picks rotation angles alpha with c = e^{i alpha}.  Functions become
f(cz), generators the conjugates conj(c) G(cz), and block points r e^{i theta}.
Every verdict, kind and certificate below is invariant under these changes,
so each request keeps the oracle of the unrotated case.  The oracles come
from theory and from the acceptance criteria in ``tests/test_acceptance.py``.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from typing import Callable

import mpmath as mp

EXIT_OK, EXIT_DOMAIN = 0, 3
TOL_C = 0.05                    # construct.DEFAULT_TOL_C
LOG = "log(e/(1-z))"
LOG_HALF = "(log(e/(1-z)))^0.5"
KOEBE_GEN = "-z*(1+z)/(1-z)"    # elliptic, tau = 0, Koenigs h = z/(1+z)^2

# T_g f for g = cz is c T_z f, so the probe's image norms are those of g = z.
VOLTERRA_IMAGE_NORMS = (0.75763763573720055, 0.42111737518991066,
                        0.29317625400129838, 1.0705442236584459,
                        0.84799241373818257, 0.55683079638724109)


class OracleError(AssertionError):
    """A report disagrees with theory or with its recorded oracle."""


def _require(cond, message, *args):
    if not cond:
        raise OracleError(message % args if args else message)


@dataclass(frozen=True)
class Request:
    name: str                   # unique within a pass
    family: str                 # latency family ("" for none)
    argv: tuple
    check: Callable             # (exit_code, report) -> None, raises
    defect: str = ""            # documented defect this request hits
    # recognizes the defect's symptom: (exit_code, report) -> bool
    symptom: Callable = None


# -- formatting: the expression grammar has no exponent notation -------------

def _num(x):
    return "%.17f" % x


def _const(c):
    return "(%s%s%s*i)" % (_num(c.real), "+" if c.imag >= 0 else "-",
                           _num(abs(c.imag)))


def _point(z):
    return "%.17g%+.17gj" % (z.real, z.imag)


def rotate_function(src, c):
    """f(z) -> f(cz)."""
    return src.replace("z", "(%s*z)" % _const(c))


def conjugate_generator(src, c):
    """G(z) -> conj(c) G(cz), the generator of the rotated semigroup."""
    return "%s*(%s)" % (_const(c.conjugate()), rotate_function(src, c))


def angles(seed, n, salt):
    rng = random.Random("%s/%d" % (salt, seed))
    return [rng.uniform(0.0, 2.0 * math.pi) for _ in range(n)]


def _c(d):
    return complex(float(d["re"]), float(d["im"]))


# -- witness ----------------------------------------------------------------

def _check_construct(exponents):
    def check(rc, doc):
        _require(rc == EXIT_OK, "exit code %d", rc)
        _require(doc.get("outcome") == "success", "outcome %r",
                 doc.get("outcome"))
        state = doc["state"]
        _require(state["n"] == len(exponents), "n = %r", state["n"])
        with mp.workdps(60):
            got = [mp.log(mp.mpf(s["gap"]), 2) for s in state["steps"]]
        _require(all(abs(g - e) < 1e-9 for g, e in zip(got, exponents)),
                 "gap exponents %s, expected %s",
                 [mp.nstr(g, 8) for g in got], list(exponents))
        for n, step in enumerate(state["steps"], start=1):
            _require(mp.mpf(step["a"]) <= mp.mpf(2) ** -n, "a_%d > 2^-%d",
                     n, n)
        key = "property2_average" if state["mode"] == "bmoa" else \
            "property2_value"
        certs = state["certifications"]
        _require(all(float(c[key]) >= 1 - TOL_C for c in certs if "step" in c),
                 "property (2) certificate below 1 - tol_c")
        _require(certs[-1].get("property3_ok") is True,
                 "property (3) certificate failed")
    return check


def _check_control(last_gap_exponent):
    def check(rc, doc):
        _require(rc == EXIT_OK, "exit code %d", rc)
        _require(doc.get("outcome") == "failure", "outcome %r",
                 doc.get("outcome"))
        _require("divergence evidence insufficient" in doc["reason"],
                 "reason %r", doc["reason"])
        record = doc["record"]
        _require(record.get("step") == 1, "failed at step %r",
                 record.get("step"))
        if last_gap_exponent is not None:
            _require(float(record["last_gap_exponent"]) == last_gap_exponent,
                     "last gap exponent %r", record["last_gap_exponent"])
    return check


def _check_block(w):
    def check(rc, doc):
        _require(rc == EXIT_OK, "exit code %d", rc)
        _require(doc["passed"] is True, "block not certified")
        _require(abs(_c(doc["w"]) - w) <= 1e-12, "w echoed as %r", doc["w"])
    return check


BLOCK_RADII = (0.5, 0.9, 0.99, 1.0 - 1e-6)      # criterion 9


def witness(seed):
    """Extended-precision constructions and block certificates."""
    reqs = [
        Request("construct.bmoa", "construct_bmoa",
                ("construct", "--space", "bmoa", "--steps", "1"),
                _check_construct((-24,))),
        Request("construct.bloch", "construct_bloch",
                ("construct", "--space", "bloch", "--steps", "4"),
                _check_construct((-12, -168, -1292, -20496))),
        Request("construct.bmoa.linear", "construct_fail",
                ("construct", "--space", "bmoa", "--symbol", "linear"),
                _check_control(-1280.0)),
        Request("construct.bloch.linear", "construct_fail",
                ("construct", "--space", "bloch", "--symbol", "linear"),
                _check_control(None)),
    ]
    for r, theta in zip(BLOCK_RADII, angles(seed, len(BLOCK_RADII), "block")):
        w = cmath.rect(r, theta)
        reqs.append(Request("block-verify.%g" % r, "block_verify",
                            ("block-verify", "--w", _point(w)),
                            _check_block(w)))
    return reqs


# -- verdicts ---------------------------------------------------------------

def _check_bmoa_norm(rc, doc):
    _require(rc == EXIT_OK, "exit code %d", rc)
    v = float(doc["value"])
    _require(math.isfinite(v) and 0 < v <= 5.0, "BMOA norm %r", v)


def _check_bloch_norm(rc, doc):
    # sup (1-|z|^2)/|1-cz| = 2, approached at the boundary (criterion 5)
    _require(rc == EXIT_OK, "exit code %d", rc)
    v = float(doc["value"])
    _require(1.95 <= v <= 2.0, "Bloch norm %r", v)


def _check_tag(tag):
    def check(rc, doc):
        _require(rc == EXIT_OK, "exit code %d", rc)
        _require(doc["verdict"]["tag"] == tag, "verdict %r, expected %r",
                 doc["verdict"]["tag"], tag)
    return check


def _check_not_minimal(rc, doc):
    _require(rc == EXIT_OK, "exit code %d", rc)
    _require(doc["minimal"] is False, "minimal = %r; criterion 7 says false",
             doc["minimal"])


def _check_lvmo_unsatisfied(rc, doc):
    _require(rc == EXIT_OK, "exit code %d: %s", rc,
             doc.get("error", {}).get("message"))
    _require(doc["satisfied"] is False, "LVMO satisfied = %r",
             doc["satisfied"])


def _check_classify(c):
    # G = z^2 - 1: hyperbolic, Denjoy-Wolff point -1, lambda = 2
    def check(rc, doc):
        _require(rc == EXIT_OK, "exit code %d", rc)
        _require(doc["kind"] == "hyperbolic", "kind %r", doc["kind"])
        tau = _c(doc["tau"])
        _require(abs(tau + c.conjugate()) <= 1e-8, "tau %r", tau)
        _require(abs(float(doc["lambda"]) - 2.0) <= 1e-3, "lambda %r",
                 doc["lambda"])
    return check


DEFECT_LVMO = ("condition --which lvmo on conj(c)(1-cz)^2 exits 3: no "
               "interior zero and boundary analysis inconclusive")
DEFECT_MINIMAL = "minimality on -z(1+cz)/(1-cz) reports minimal: true"
DEFECT_BLOCH_VANISHING = ("vanishing --space bloch on log(e/(1-cz)) reports "
                          "vanishes: the angular sup samples 256 fixed angles "
                          "and misses the boundary singularity at -alpha")


def _lvmo_symptom(rc, doc):
    return rc == EXIT_DOMAIN and doc.get("error", {}).get("message") == \
        "no interior zero and boundary analysis inconclusive"


def _minimal_symptom(rc, doc):
    return rc == EXIT_OK and doc.get("minimal") is True


def _vanishes_symptom(rc, doc):
    return rc == EXIT_OK and doc.get("verdict", {}).get("tag") == "vanishes"


def verdicts(seed):
    """Sampled seminorms, vanishing and minimality verdicts (float layers)."""
    c = cmath.exp(1j * angles(seed, 1, "verdicts")[0])
    f = rotate_function(LOG, c)
    return [
        Request("norm.bmoa.J8", "norm",
                ("norm", "--function", f, "--space", "bmoa", "--J", "8"),
                _check_bmoa_norm),
        Request("norm.bmoa.J12", "norm",
                ("norm", "--function", f, "--space", "bmoa", "--J", "12"),
                _check_bmoa_norm),
        Request("norm.bloch", "norm",
                ("norm", "--function", f, "--space", "bloch"),
                _check_bloch_norm),
        Request("vanishing.log", "vanishing",
                ("vanishing", "--function", f),
                _check_tag("bounded_nonvanishing")),
        Request("vanishing.loghalf", "vanishing",
                ("vanishing", "--function", rotate_function(LOG_HALF, c)),
                _check_tag("vanishes")),
        Request("vanishing.bloch.log", "vanishing",
                ("vanishing", "--function", f, "--space", "bloch"),
                _check_tag("bounded_nonvanishing"),
                DEFECT_BLOCH_VANISHING, _vanishes_symptom),
        Request("vanishing.bloch.loghalf", "vanishing",
                ("vanishing", "--function", rotate_function(LOG_HALF, c),
                 "--space", "bloch"),
                _check_tag("vanishes")),
        Request("minimality", "minimality",
                ("minimality", "--generator",
                 conjugate_generator(KOEBE_GEN, c)),
                _check_not_minimal, DEFECT_MINIMAL, _minimal_symptom),
        Request("condition.lvmo", "minimality",
                ("condition", "--which", "lvmo", "--generator",
                 conjugate_generator("(1-z)^2", c)),
                _check_lvmo_unsatisfied, DEFECT_LVMO, _lvmo_symptom),
        Request("classify", "",
                ("classify", "--generator", conjugate_generator("z^2-1", c)),
                _check_classify(c)),
    ]


# -- operators --------------------------------------------------------------

def _check_sarason(trend):
    def check(rc, doc):
        _require(rc == EXIT_OK, "exit code %d", rc)
        _require(doc["trend"] == trend, "trend %r, expected %r",
                 doc["trend"], trend)
        values = [float(v) for v in doc["values"]]
        if trend == "decays":                       # criterion 8
            _require(values[0] / values[-1] >= 8.0, "decay %r", values)
        else:
            _require(float(doc["floor"]) >= 0.05, "floor %r", doc["floor"])
    return check


def _check_volterra(rc, doc):
    _require(rc == EXIT_OK, "exit code %d", rc)
    got = [float(v) for v in doc["image_norms"]]
    _require(all(abs(g - e) <= 1e-6 * e
                 for g, e in zip(got, VOLTERRA_IMAGE_NORMS)),
             "image norms %r", got)
    _require(all(float(r) <= 1.1 for r in doc["ratio_growth"]),
             "ratio growth %r", doc["ratio_growth"])


def _check_flow(z0, t):
    def check(rc, doc):
        _require(rc == EXIT_OK, "exit code %d", rc)
        end = _c(doc["value"])
        _require(abs(end - math.exp(-t) * z0) <= 1e-8, "phi_t(z0) = %r", end)
    return check


def _check_koenigs(c):
    # h_c(z) = conj(c) h(cz) = z/(1+cz)^2 on the ray of angle 0
    def check(rc, doc):
        _require(rc == EXIT_OK, "exit code %d", rc)
        _require(doc["kind"] == "elliptic", "kind %r", doc["kind"])
        _require(abs(_c(doc["tau"])) <= 1e-8, "tau %r", doc["tau"])
        _require(abs(_c(doc["lambda"]) - 1.0) <= 1e-8, "lambda %r",
                 doc["lambda"])
        for r, v in zip(doc["radii"], doc["values"]):
            r = float(r)
            _require(abs(_c(v) - r / (1 + c * r) ** 2) <= 1e-8,
                     "h(%g) = %r", r, v)
    return check


def _check_gamma(rc, doc):
    # G = -z: elliptic at 0; on the ray the symbol is -r with derivative -1
    _require(rc == EXIT_OK, "exit code %d", rc)
    _require(doc["kind"] == "elliptic", "kind %r", doc["kind"])
    for r, v, d in zip(doc["radii"], doc["values"], doc["derivatives"]):
        _require(abs(_c(v) + float(r)) <= 1e-8 and abs(_c(d) + 1) <= 1e-8,
                 "gamma(%s) = %r", r, v)


FLOW_T = 1.0


def operators(seed):
    """Operator probes: Sarason continuity, Volterra boundedness, flows."""
    c = cmath.exp(1j * angles(seed, 1, "operators")[0])
    z0 = cmath.rect(0.5, angles(seed, 1, "flow-start")[0])
    return [
        Request("sarason.log", "sarason",
                ("sarason", "--generator", "i*z", "--function",
                 rotate_function(LOG, c)),
                _check_sarason("floor")),
        Request("sarason.linear", "sarason",
                ("sarason", "--generator", "i*z", "--function",
                 rotate_function("z", c)),
                _check_sarason("decays")),
        Request("volterra", "volterra",
                ("volterra", "--symbol", rotate_function("z", c)),
                _check_volterra),
        Request("flow", "",
                ("flow", "--generator", "-z", "--z0", _point(z0),
                 "--t", repr(FLOW_T)),
                _check_flow(z0, FLOW_T)),
        Request("koenigs", "",
                ("koenigs", "--generator", conjugate_generator(KOEBE_GEN, c)),
                _check_koenigs(c)),
        Request("gamma", "", ("gamma", "--generator", "-z"), _check_gamma),
    ]


WORKLOADS = {"witness": witness, "verdicts": verdicts,
             "operators": operators}

# passes a run makes at least, whatever --seconds says; under --trace 1 also
# the number of traced passes
MIN_PASSES = {"witness": 1, "verdicts": 3, "operators": 3}
