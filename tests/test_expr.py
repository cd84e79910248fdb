"""Expression trees: parsing, differentiation, evaluation."""

import ast
import cmath
import functools
import inspect
import math
import multiprocessing
import os
import queue
import subprocess
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from holoflow import cli, expr, volterra
from holoflow.expr import EvalDomainError, ParseDiagnostic

SRC = Path(__file__).resolve().parents[1] / "src"

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
# parsing and function handles
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bad", ["z +", "(1 - z", "log()", "z^", "2 ** z",
                                 "unknown(z)", ""])
def test_malformed_input_raises_parse_diagnostic(bad):
    with pytest.raises(ParseDiagnostic):
        expr.parse(bad)


def test_parse_diagnostic_reports_offset():
    with pytest.raises(ParseDiagnostic) as exc:
        expr.parse("z + )")
    assert "offset" in str(exc.value)


# each corpus source beside the same function written directly in numpy,
# so precedence, unary minus and principal branches are checked by value
FORMULAS = {
    "1": lambda z: np.ones_like(z),
    "z": lambda z: z,
    "z^2": lambda z: z * z,
    "-z": lambda z: -z,
    "i*z": lambda z: 1j * z,
    "(1 - z)^2": lambda z: (1 - z) * (1 - z),
    "z^2 - 1": lambda z: z * z - 1,
    "-z*(1 + z)/(1 - z)": lambda z: -(z * (1 + z)) / (1 - z),
    "log(e/(1 - z))": lambda z: np.log(np.e / (1 - z)),
    "(log(e/(1 - z)))^0.5": lambda z: np.sqrt(np.log(np.e / (1 - z))),
    "(0.5 - z)/(1 - 0.5*z)": lambda z: (0.5 - z) / (1 - 0.5 * z),
    "exp(-z)*(1 - 0.25*z^2)": lambda z: np.exp(-z) * (1 - 0.25 * z * z),
}


@pytest.mark.parametrize("src", CORPUS)
def test_parse_matches_hand_written_formula(src):
    rng = np.random.default_rng(11)
    pts = 0.9 * np.sqrt(rng.uniform(0, 1, 64)) \
        * np.exp(2j * np.pi * rng.uniform(0, 1, 64))
    got = expr.evaluate_array(expr.parse(src), pts)
    want = FORMULAS[src](pts)
    assert np.all(np.abs(got - want) <= 1e-13 * (1.0 + np.abs(want)))


def test_handle_normalization_rejects_tuples():
    fv, fp = expr.FunctionHandle.from_source("z^2")
    assert expr.FunctionHandle.of(expr.FunctionHandle(fv, fp)).der is fp
    with pytest.raises(TypeError):
        expr.FunctionHandle.of((fv, fp))


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
# the derivative table against the per-class rules it replaced
# ---------------------------------------------------------------------------

def _reference_derivative(node):
    """The per-class _d methods the _DERIVATIVE table replaced, with the same
    smart-constructor calls."""
    d = _reference_derivative
    if isinstance(node, expr.Const):
        return expr.Const(0.0)
    if isinstance(node, expr.Var):
        return expr.Const(1.0)
    if isinstance(node, expr.Add):
        return expr.add(d(node.a), d(node.b))
    if isinstance(node, expr.Sub):
        return expr.sub(d(node.a), d(node.b))
    if isinstance(node, expr.Mul):
        return expr.add(expr.mul(d(node.a), node.b), expr.mul(node.a, d(node.b)))
    if isinstance(node, expr.Div):
        num = expr.sub(expr.mul(d(node.a), node.b), expr.mul(node.a, d(node.b)))
        return expr.div(num, expr.mul(node.b, node.b))
    if isinstance(node, expr.Neg):
        return expr.neg(d(node.a))
    if isinstance(node, expr.Pow):
        return expr.mul(expr.mul(expr.Const(node.p), expr.Pow(node.a, node.p - 1.0)),
                        d(node.a))
    if isinstance(node, expr.Exp):
        return expr.mul(expr.Exp(node.a), d(node.a))
    if isinstance(node, expr.Log):
        return expr.div(d(node.a), node.a)
    if isinstance(node, expr.Sqrt):
        return expr.div(d(node.a), expr.mul(expr.Const(2.0), expr.Sqrt(node.a)))
    raise TypeError("unknown node %s" % type(node).__name__)


def _structure(node):
    """A tree as nested tuples: node type, then each field in slot order,
    floats by their bits."""
    def field(v):
        if isinstance(v, expr.HoloExpr):
            return _structure(v)
        if isinstance(v, complex):
            return (v.real.hex(), v.imag.hex())
        return v.hex()
    return (type(node).__name__,) + tuple(field(getattr(node, s))
                                          for s in type(node).__slots__)


DERIVATIVE_SOURCES = sorted(set(CORPUS) | set(cli.GENERATOR_CORPUS)
                            | set(cli.FUNCTION_CORPUS) | set(volterra.STANDARD_FAMILY)
                            | {"sqrt(1 + z)*exp(z)", "-(0.5)^2", "i*e"})


@pytest.mark.parametrize("src", DERIVATIVE_SOURCES)
def test_derivative_table_builds_the_per_class_trees(src):
    tree = expr.parse(src)
    d1 = expr.differentiate(tree)
    assert _structure(d1) == _structure(_reference_derivative(tree))
    assert _structure(expr.differentiate(d1)) == \
        _structure(_reference_derivative(_reference_derivative(tree)))


def test_every_node_kind_has_one_rule_in_each_table():
    # a new node kind must join both passes: _DERIVATIVE, and _UFUNC or one
    # of the `cls is X` cases of _walk
    kinds = {c for c in vars(expr).values()
             if isinstance(c, type) and issubclass(c, expr.HoloExpr)
             and c is not expr.HoloExpr}
    walk_cases = {vars(expr)[n.comparators[0].id]
                  for n in ast.walk(ast.parse(inspect.getsource(expr._walk)))
                  if isinstance(n, ast.Compare) and isinstance(n.ops[0], ast.Is)
                  and isinstance(n.left, ast.Name) and n.left.id == "cls"}
    assert set(expr._DERIVATIVE) == kinds
    assert set(expr._UFUNC) | walk_cases == kinds
    assert not set(expr._UFUNC) & walk_cases


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


def _power_points():
    """20,000 random points over 16 decades of modulus, plus 0, +-1, negative
    reals on both sides of the cut, infinities, nan, |u| ~ 1e+-300 and
    subnormal |u|, where 1/u overflows."""
    rng = np.random.default_rng(2021)
    u = 10.0 ** rng.uniform(-8, 8, 20000) \
        * np.exp(1j * rng.uniform(-np.pi, np.pi, 20000))
    special = [0j, 1 + 0j, -1 + 0j, complex(-1, -0.0), complex(-2.5, 0.0),
               complex(-2.5, -0.0), complex(-1e-300, 0.0), complex(-1e300, -0.0),
               complex(np.inf, 0.0), complex(-np.inf, 0.0), complex(0.0, np.inf),
               complex(np.inf, -np.inf), complex(np.nan, 0.0),
               complex(np.nan, np.nan), complex(5e-324, 0.0),
               complex(-1e-310, -0.0)]
    special += [m * cmath.exp(1j * a) for m in (1e300, 3e-300, 1e-300, 1e-310)
                for a in (0.0, 0.3, 1.7, 3.0, -0.4)]
    return np.concatenate([u, special])


@functools.lru_cache(maxsize=None)
def _principal_powers_mp():
    """{p: u^p} over _power_points for p = +-1/2, +-3/2, +-5/2: mpmath's
    principal u^(1/2) at 200 bits, then u^(3/2) = u u^(1/2), u^(5/2) =
    u u^(3/2) and u^-p = 1/u^p at 200 bits, each rounded to a complex (inf
    or 0 outside the double range, nan at non-finite u and at 0^-p).  On the
    cut, a zero imaginary part's sign picks the side, by the C99 rule
    (conj u)^p = conj(u^p); mpmath's zero carries no sign."""
    from mpmath import libmp
    prec, one = 200, (libmp.fone, libmp.fzero)
    refs = {p: [] for p in (0.5, 1.5, 2.5, -0.5, -1.5, -2.5)}
    for x in _power_points().tolist():
        below = x.imag == 0.0 and math.copysign(1.0, x.imag) < 0
        if not (math.isfinite(x.real) and math.isfinite(x.imag)):
            vals = [complex(math.nan, math.nan)] * 6
        else:
            u = (libmp.from_float(x.real),
                 libmp.from_float(abs(x.imag) if below else x.imag))
            s = libmp.mpc_pow_mpf(u, libmp.from_float(0.5), prec)
            pos = [s, libmp.mpc_mul(u, s, prec)]
            pos.append(libmp.mpc_mul(u, pos[1], prec))
            neg = ([libmp.mpc_div(one, v, prec) for v in pos] if x != 0
                   else [(libmp.fnan, libmp.fnan)] * 3)
            vals = [libmp.mpc_to_complex(v) for v in pos + neg]
        for p, v in zip(refs, vals):
            refs[p].append(v.conjugate() if below else v)
    return {p: np.array(v) for p, v in refs.items()}


@pytest.mark.parametrize("p", [0.5, -0.5, 1.5, -1.5, 2.5, -2.5])
def test_half_integer_power_matches_the_principal_power(p):
    # principal u^p through the square root: non-finite exactly where
    # numpy's exp(p log u) power is; within 2e-15 relative of the 200-bit
    # value wherever u and that value are normal doubles; at subnormal |u|,
    # whose rounding 1/sqrt(u) = conj(sqrt(u))/|u| carries, no worse than
    # np.power there
    u = _power_points()
    ref = _principal_powers_mp()[p]
    with np.errstate(all="ignore"):
        got = expr.evaluate_array(expr.Pow(expr.Var(), p), u)
        direct = np.power(u, p)
        # rounding the reference to a double adds at most 2^-53 relative
        err = np.abs(got - ref) / np.abs(ref)
        err_direct = np.abs(direct - ref) / np.abs(ref)
    assert np.array_equal(np.isfinite(got), np.isfinite(direct))
    tiny = 2.2250738585072014e-308
    valid = np.isfinite(ref) & (np.abs(ref) >= tiny)
    normal = valid & (np.abs(u) >= tiny)
    assert normal.sum() > 20000
    assert err[normal].max() <= 2e-15
    sub = valid & ~normal            # u^p is a normal double for p = +-1/2 only
    assert sub.sum() >= (5 if abs(p) == 0.5 else 0)
    assert err[sub].max(initial=0.0) <= err_direct[sub].max(initial=0.0)


# ---------------------------------------------------------------------------
# the single-walk evaluator against the recursive reference
# ---------------------------------------------------------------------------

def _reference(node, z):
    """The recursive evaluator the single walk replaced: every constant a
    grid-sized array, every subtree evaluated again wherever it occurs."""
    def ev(e):
        return _reference(e, z)
    if isinstance(node, expr.Const):
        return np.full_like(z, node.value)
    if isinstance(node, expr.Var):
        return z
    if isinstance(node, expr.Add):
        return ev(node.a) + ev(node.b)
    if isinstance(node, expr.Sub):
        return ev(node.a) - ev(node.b)
    if isinstance(node, expr.Mul):
        return ev(node.a) * ev(node.b)
    if isinstance(node, expr.Div):
        return ev(node.a) / ev(node.b)
    if isinstance(node, expr.Neg):
        return -ev(node.a)
    if isinstance(node, expr.Pow):
        # a half-integer power is an integer power of the principal root
        if (2.0 * node.p) % 2.0 == 1.0:
            u = ev(node.a)
            root = np.sqrt(u)
            if node.p > 0:
                return np.power(root, 2.0 * node.p)
            size = np.abs(u)
            inv = root.real / size - 1j * (root.imag / size)
            inv[np.isinf(size)] = 0.0
            return np.power(inv, -2.0 * node.p)
        return np.power(ev(node.a), node.p)
    return {expr.Exp: np.exp, expr.Log: np.log, expr.Sqrt: np.sqrt}[type(node)](ev(node.a))


def reference_evaluate(tree, z):
    z = np.asarray(z, dtype=complex)
    with np.errstate(all="ignore"):
        return np.asarray(_reference(tree, z), dtype=complex)


def _rotated(src):
    # f(z) -> f(cz) with c written as (a+b*i), as the benchmark rotates
    c = cmath.exp(0.7j)
    return src.replace("z", "((%.17f+%.17f*i)*z)" % (c.real, c.imag))


CHUNK = 1 << 14


def _disc_points(shape, seed=7):
    rng = np.random.default_rng(seed)
    n = int(np.prod(shape))
    pts = 0.999 * np.sqrt(rng.uniform(0, 1, n)) \
        * np.exp(2j * np.pi * rng.uniform(0, 1, n))
    k = min(n, 3)
    pts[:k] = (0.0, 1.0, -1.0)[:k]  # branch points and poles of the corpus
    return pts.reshape(shape)


def _same_bytes(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("src", CORPUS + [pytest.param(_rotated(s), id="rotated " + s)
                                          for s in CORPUS]
                         + ["(-0.97+0.23*i)*(0.3+0.7*i)*z"])
def test_evaluator_is_bit_identical_to_recursive_reference(src):
    tree = expr.parse(src)
    d1 = expr.differentiate(tree)
    for t in (tree, d1, expr.differentiate(d1)):
        for shape in ((1,), (CHUNK - 1,), (CHUNK,), (CHUNK + 1,), (90, 4096)):
            z = _disc_points(shape)
            assert _same_bytes(expr.evaluate_array(t, z), reference_evaluate(t, z))


@pytest.mark.parametrize("src", ["1", "1 + 2", "i*e", "exp(2)/log(3)", "-(0.5)^2"])
def test_constant_only_trees_have_the_input_shape(src):
    tree = expr.parse(src)
    for shape in ((1,), (3, 4), (CHUNK + 1,), (90, 4096)):
        z = _disc_points(shape)
        assert _same_bytes(expr.evaluate_array(tree, z), reference_evaluate(tree, z))
    assert expr.evaluate_array(tree, np.asarray(0.5j)).shape == ()


def test_zero_d_input_follows_the_array_loop():
    # numpy scalar math rounds this constant product differently from the
    # array loop; a 0-d input gets the array loop's bytes and shape ()
    tree = expr.parse("(-0.97+0.23*i)*(0.3+0.7*i)*z")
    v = expr.evaluate_array(tree, np.asarray(1.0 + 0.0j))
    assert v.shape == ()
    assert v.tobytes() == reference_evaluate(tree, np.array([1.0 + 0.0j])).tobytes()
    assert complex(v) == -0.452 - 0.61j


def test_single_worker_pool_gives_the_same_bytes(monkeypatch):
    tree = expr.differentiate(expr.parse(_rotated("(log(e/(1 - z)))^0.5")))
    z = _disc_points((90, 4096))
    default = expr.evaluate_array(tree, z)
    with ThreadPoolExecutor(1) as pool:
        monkeypatch.setattr(expr, "_POOL", pool)
        single = expr.evaluate_array(tree, z)
    assert _same_bytes(single, default)


def test_no_warning_escapes_the_worker_threads():
    z = _disc_points((3 * CHUNK + 5,))
    z[CHUNK + 11], z[-1] = 0.5, 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pole = expr.evaluate_array(expr.parse("1/(z - 0.5)"), z)
        branch = expr.evaluate_array(expr.parse("log(z)"), z)
    assert not np.isfinite(pole[CHUNK + 11])
    assert not np.isfinite(branch[-1])
    assert np.sum(~np.isfinite(pole)) == 1


def test_worker_exception_reaches_the_caller():
    class Unknown(expr.HoloExpr):
        __slots__ = ()

    with pytest.raises(TypeError, match="unknown node"):
        expr.evaluate_array(expr.Add(expr.Var(), Unknown()), _disc_points((2 * CHUNK,)))


def test_evaluation_on_a_pool_worker_runs_in_that_worker(monkeypatch):
    # one task per worker occupies the whole pool; each evaluates more than
    # one chunk, which a worker must not queue behind itself
    tree = expr.differentiate(expr.parse(_rotated("(log(e/(1 - z)))^0.5")))
    z = _disc_points((3 * CHUNK + 5,))
    want = expr.evaluate_array(tree, z)
    fill, threads = expr._fill, []

    def recording_fill(*args):
        threads.append(threading.current_thread())
        return fill(*args)

    def task():
        return threading.current_thread(), expr.evaluate_array(tree, z)

    monkeypatch.setattr(expr, "_fill", recording_fill)
    tasks = [expr._POOL.submit(task) for _ in range(expr._POOL._max_workers)]
    done = [t.result(timeout=60) for t in tasks]
    assert all(_same_bytes(got, want) for _, got in done)
    workers = {thread for thread, _ in done}
    assert threading.main_thread() not in workers
    assert set(threads) == workers and len(threads) == 4 * len(tasks)


_BLAS_THREADS = "import os, holoflow; print(os.environ.get('OPENBLAS_NUM_THREADS'))"


@pytest.mark.parametrize("preset, want", [(None, "1"), ("2", "2")])
def test_import_gives_blas_one_thread_unless_set(preset, want):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    proc = subprocess.run([sys.executable, "-c", _BLAS_THREADS], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=60)
    assert proc.stdout.strip() == want


def _evaluate_in_child(results, tree, z, want):
    results.put(expr.evaluate_array(tree, z).tobytes() == want)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_child_evaluates_large_grids():
    # the parent's pool threads do not exist in a forked child
    tree = expr.parse("log(e/(1 - z))")
    z = _disc_points((3 * CHUNK,))
    want = expr.evaluate_array(tree, z).tobytes()      # starts the pool threads
    ctx = multiprocessing.get_context("fork")
    results = ctx.Queue()
    child = ctx.Process(target=_evaluate_in_child, args=(results, tree, z, want))
    child.start()
    try:
        same = results.get(timeout=30)
    except queue.Empty:
        same = None
    finally:
        child.join(10)
        if child.is_alive():
            child.kill()
            child.join(10)
    assert same is True
