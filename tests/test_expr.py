"""Expression trees: parsing, differentiation, evaluation."""

import cmath

import numpy as np
import pytest

from holoflow import expr
from holoflow.expr import EvalDomainError, ParseDiagnostic

CORPUS = [
    "1",
    "z",
    "z^2",
    "-z",
    "i*z",
    "(1 - z)^2",
    "z^2 - 1",
    "-z*(1 + z)/(1 - z)",
    "log(e/(1 - z))",
    "(log(e/(1 - z)))^0.5",
    "(0.5 - z)/(1 - 0.5*z)",
    "exp(-z)*(1 - 0.25*z^2)",
]


def _eval(tree, z):
    return complex(expr.evaluate_array(tree, np.array([z], dtype=complex))[0])


# ---------------------------------------------------------------------------
# parsing and printing
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("src", CORPUS)
def test_print_parse_roundtrip_is_idempotent(src):
    tree = expr.parse(src)
    printed = expr.to_source(tree)
    reparsed = expr.parse(printed)
    assert expr.to_source(reparsed) == printed
    for z in (0.0j, 0.3 + 0.2j, -0.5 - 0.1j):
        assert _eval(tree, z) == pytest.approx(_eval(reparsed, z), abs=1e-15)


@pytest.mark.parametrize("bad", ["z +", "(1 - z", "log()", "z^", "2 ** z",
                                 "unknown(z)", ""])
def test_malformed_input_raises_parse_diagnostic(bad):
    with pytest.raises(ParseDiagnostic):
        expr.parse(bad)


def test_parse_diagnostic_reports_offset():
    with pytest.raises(ParseDiagnostic) as exc:
        expr.parse("z + )")
    assert "offset" in str(exc.value)


def test_constants_and_literals():
    assert _eval(expr.parse("e"), 0.0j) == pytest.approx(cmath.e)
    assert _eval(expr.parse("i"), 0.0j) == pytest.approx(1j)
    assert _eval(expr.parse("0.125"), 0.3j) == pytest.approx(0.125)


def test_signed_real_exponents():
    tree = expr.parse("(1 - z)^-1.5")
    z = 0.2 + 0.1j
    assert _eval(tree, z) == pytest.approx((1 - z) ** -1.5)


# ---------------------------------------------------------------------------
# differentiation: central-difference property on the corpus
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("src", CORPUS)
def test_derivative_matches_central_difference(src):
    tree = expr.parse(src)
    dtree = expr.differentiate(tree)
    rng = np.random.default_rng(20240817)
    pts = 0.8 * np.sqrt(rng.uniform(0, 1, 100)) \
        * np.exp(2j * np.pi * rng.uniform(0, 1, 100))
    h = 1e-5
    fd = (expr.evaluate_array(tree, pts + h)
          - expr.evaluate_array(tree, pts - h)) / (2 * h)
    dv = expr.evaluate_array(dtree, pts)
    assert np.all(np.abs(dv - fd) / (1.0 + np.abs(fd)) <= 1e-6)


def test_second_derivative_of_square():
    d2 = expr.differentiate(expr.differentiate(expr.parse("(1 - z)^2")))
    assert _eval(d2, 0.37 + 0.11j) == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# evaluation domain and vectorization
# ---------------------------------------------------------------------------

def test_log_at_branch_point_raises_domain_error():
    tree = expr.parse("log(e/(1 - z))")
    with pytest.raises(EvalDomainError):
        expr.evaluate(tree, 1.0 + 0.0j)


def test_division_by_zero_raises_domain_error():
    tree = expr.parse("1/z")
    with pytest.raises(EvalDomainError):
        expr.evaluate(tree, 0.0 + 0.0j)


def test_array_evaluation_marks_poles_nonfinite():
    # the vectorized path flags poles with non-finite values instead of
    # raising, so grid sweeps can skip them pointwise
    vals = expr.evaluate_array(expr.parse("1/z"), np.array([0.0 + 0.0j]))
    assert not np.all(np.isfinite(vals))


def test_vectorized_evaluation_matches_scalar():
    tree = expr.parse("(log(e/(1 - z)))^0.5")
    zs = np.array([0.0j, 0.5 + 0.2j, -0.7j])
    vec = expr.evaluate_array(tree, zs)
    for z, v in zip(zs, vec):
        assert _eval(tree, complex(z)) == pytest.approx(complex(v))


def test_principal_branch_half_power():
    # (log(e/(1-z)))^0.5 at z=0 is 1 (principal branch of x^a = exp(a log x))
    tree = expr.parse("(log(e/(1 - z)))^0.5")
    assert _eval(tree, 0.0j) == pytest.approx(1.0)
