"""Holomorphic expression trees: parsing, evaluation, symbolic differentiation.

Expressions are immutable trees over the variable z, complex constants
(including the literals i and e), the four arithmetic operations, powers with
a real constant exponent, and exp / log / sqrt (principal branch everywhere).
A half-integer power u^p is an integer power of the principal square root
sqrt(u) (p > 0) or of its reciprocal (p < 0), which equals the principal u^p
because arg sqrt(u) lies in (-pi/2, pi/2]; numpy's complex power then
multiplies instead of taking exp(p log u).
Evaluation accepts either a scalar complex or a numpy array of points and is
pure, so trees can be shared freely between workers.  Arrays are evaluated in
2^14-point chunks, one tree walk each, on a thread pool with one worker per
usable CPU; every point takes the same numpy loops whatever the chunking, so
the results are bit-identical and deterministic for any worker count.  The
same pool runs the independent jobs of a request (the flows of a Sarason
probe, the members of a Volterra probe); an evaluation called on one of its
workers runs its chunks in that worker, with the same bytes.
"""

from __future__ import annotations

import math
import os
import re
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

__all__ = [
    "HoloExpr",
    "FunctionHandle",
    "ParseDiagnostic",
    "EvalDomainError",
    "parse",
    "evaluate",
    "evaluate_array",
    "differentiate",
]


class ParseDiagnostic(Exception):
    """Raised on malformed input; carries the byte offset of the problem."""

    def __init__(self, offset, message, expected=None):
        self.offset = offset
        self.message = message
        self.expected = expected or []
        detail = " (expected %s)" % ", ".join(self.expected) if self.expected else ""
        super().__init__("at offset %d: %s%s" % (offset, message, detail))


class EvalDomainError(Exception):
    """Evaluation hit a pole or branch point; the sample should be excluded."""


# ---------------------------------------------------------------------------
# tree nodes
# ---------------------------------------------------------------------------

class HoloExpr:
    """Base class for all expression nodes: plain data, one field per slot.
    Each pass over a tree is a table keyed by node type (_UFUNC, _DERIVATIVE)."""

    __slots__ = ()

    def __init__(self, *fields):
        for name, value in zip(self.__slots__, fields, strict=True):
            setattr(self, name, value)


class Const(HoloExpr):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = complex(value)


class Var(HoloExpr):
    __slots__ = ()


class Add(HoloExpr):
    __slots__ = ("a", "b")


class Sub(HoloExpr):
    __slots__ = ("a", "b")


class Mul(HoloExpr):
    __slots__ = ("a", "b")


class Div(HoloExpr):
    __slots__ = ("a", "b")


class Neg(HoloExpr):
    __slots__ = ("a",)


class Pow(HoloExpr):
    """base ** p with a fixed real exponent, principal branch."""

    __slots__ = ("a", "p")

    def __init__(self, a, p):
        self.a, self.p = a, float(p)


class Exp(HoloExpr):
    __slots__ = ("a",)


class Log(HoloExpr):
    __slots__ = ("a",)


class Sqrt(HoloExpr):
    __slots__ = ("a",)


# ---------------------------------------------------------------------------
# smart constructors: folding drops the zero and unit terms the derivative
# rules make, so evaluate_array passes over fewer nodes, and a dropped 0 * u'
# stays 0, not nan, where u' is not finite
# ---------------------------------------------------------------------------

def _const_of(e):
    return e.value if isinstance(e, Const) else None


def add(a, b):
    ca, cb = _const_of(a), _const_of(b)
    if ca is not None and cb is not None:
        return Const(ca + cb)
    if ca == 0:
        return b
    if cb == 0:
        return a
    return Add(a, b)


def sub(a, b):
    ca, cb = _const_of(a), _const_of(b)
    if ca is not None and cb is not None:
        return Const(ca - cb)
    if cb == 0:
        return a
    if ca == 0:
        return neg(b)
    return Sub(a, b)


def mul(a, b):
    ca, cb = _const_of(a), _const_of(b)
    if ca is not None and cb is not None:
        return Const(ca * cb)
    if ca == 0 or cb == 0:
        return Const(0.0)
    if ca == 1:
        return b
    if cb == 1:
        return a
    return Mul(a, b)


def div(a, b):
    ca, cb = _const_of(a), _const_of(b)
    if ca == 0:
        return Const(0.0)
    if cb == 1:
        return a
    if ca is not None and cb is not None and cb != 0:
        return Const(ca / cb)
    return Div(a, b)


def neg(a):
    ca = _const_of(a)
    if ca is not None:
        return Const(-ca)
    if isinstance(a, Neg):
        return a.a
    return Neg(a)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def evaluate(expr, z):
    """Evaluate at a single point; raises EvalDomainError on poles/branch hits."""
    arr = evaluate_array(expr, np.asarray([complex(z)]))
    v = complex(arr[0])
    if not (math.isfinite(v.real) and math.isfinite(v.imag)):
        raise EvalDomainError("expression not finite at %r" % (z,))
    return v


def evaluate_array(expr, z):
    """Vectorized evaluation in the shape of z; non-finite entries mark excluded samples."""
    z = np.asarray(z, dtype=complex)
    flat = z.reshape(-1)
    out = np.empty_like(flat)
    spans = [slice(i, i + _CHUNK) for i in range(0, flat.size, _CHUNK)] or [slice(None)]
    _map(partial(_fill, expr, flat, out), spans)
    return out.reshape(z.shape)


def _map(fn, items):
    """[fn(x) for x in items], on the pool when there are two or more items.
    Called on one of the pool's workers, it runs the items in that thread,
    so fn may itself call _map (evaluate_array included): a task never waits
    on tasks queued behind it."""
    pooled = len(items) > 1 and not getattr(_WORKER, "marked", False)
    return list((_POOL.map if pooled else map)(fn, items))


_CHUNK = 1 << 14
_UFUNC = {Add: np.add, Sub: np.subtract, Mul: np.multiply, Div: np.true_divide,
          Neg: np.negative, Exp: np.exp, Log: np.log, Sqrt: np.sqrt}
# rule(node, da, db) builds the derivative tree of node from the derivative
# trees of its children a and b; the smart constructors fold its constants
_DERIVATIVE = {
    Const: lambda e, da, db: Const(0.0),
    Var: lambda e, da, db: Const(1.0),
    Add: lambda e, da, db: add(da, db),
    Sub: lambda e, da, db: sub(da, db),
    Mul: lambda e, da, db: add(mul(da, e.b), mul(e.a, db)),
    Div: lambda e, da, db: div(sub(mul(da, e.b), mul(e.a, db)), mul(e.b, e.b)),
    Neg: lambda e, da, db: neg(da),
    # d(u^p) = p * u^(p-1) * u'
    Pow: lambda e, da, db: mul(mul(Const(e.p), Pow(e.a, e.p - 1.0)), da),
    Exp: lambda e, da, db: mul(Exp(e.a), da),
    Log: lambda e, da, db: div(da, e.a),
    Sqrt: lambda e, da, db: div(da, mul(Const(2.0), Sqrt(e.a))),
}


_WORKER = threading.local()       # .marked is True on the pool's workers


def _mark_worker():
    _WORKER.marked = True


def _new_pool():
    # One worker per usable CPU; the threads start on the first submit.  A
    # forked child has none of its parent's threads, so it gets a new pool.
    global _POOL
    n = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    _POOL = ThreadPoolExecutor(n, initializer=_mark_worker)


_new_pool()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_pool)


def _fill(expr, z, out, span):
    """out[span] = expr(z[span]); numpy's error state is per thread."""
    with np.errstate(all="ignore"):
        out[span] = _walk(expr, z[span], {})


def _walk(node, z, memo):
    # Constants are one-element arrays: they broadcast with the same ufunc
    # loop (and bytes) as grid-sized ones, numpy scalars do not.  memo, keyed
    # by id, evaluates each node a derivative tree shares once.
    v = memo.get(id(node))
    if v is None:
        cls = type(node)
        if cls is Var:
            v = z
        elif cls is Const:
            v = np.array([node.value])
        elif cls is Pow:
            v = _power(_walk(node.a, z, memo), node.p)
        elif cls in _UFUNC:
            v = _UFUNC[cls](*(_walk(getattr(node, s), z, memo) for s in cls.__slots__))
        else:
            raise TypeError("unknown node %s" % cls.__name__)
        memo[id(node)] = v
    return v


def _power(u, p):
    """Principal u^p; for 2p odd, sqrt(u)^(2p) or (1/sqrt(u))^(-2p), where
    1/sqrt(u) = conj(sqrt(u)) / |u| takes two real divisions."""
    q = 2.0 * p
    if q % 2.0 != 1.0:
        return np.power(u, p)
    root = np.sqrt(u)
    if q > 0:
        return np.power(root, q, out=root)
    size = np.abs(u)
    root.real /= size
    root.imag /= size
    np.negative(root.imag, out=root.imag)
    root[np.isinf(size)] = 0.0      # the limit at infinity, not inf/inf
    return np.power(root, -q, out=root)


def differentiate(expr):
    """Exact symbolic derivative tree."""
    return _derivative(expr)


def _derivative(node):
    # children first, then the node's rule: one frame per tree level, and
    # no call of differentiate (which a tracer may wrap) per node
    a, b = getattr(node, "a", None), getattr(node, "b", None)
    return _DERIVATIVE[type(node)](node, a and _derivative(a), b and _derivative(b))


@dataclass
class FunctionHandle:
    """A holomorphic function as a (value, derivative) pair of callables."""

    val: object
    der: object

    @staticmethod
    def from_source(src) -> "FunctionHandle":
        """Vectorized handle of a source string or tree, exact derivative."""
        tree = parse(src) if isinstance(src, str) else src
        dtree = differentiate(tree)
        return FunctionHandle(lambda z: evaluate_array(tree, z),
                              lambda z: evaluate_array(dtree, z))

    @staticmethod
    def of(f) -> "FunctionHandle":
        """Normalize a source string, HoloExpr or handle."""
        if isinstance(f, FunctionHandle):
            return f
        if isinstance(f, (str, HoloExpr)):
            return FunctionHandle.from_source(f)
        raise TypeError("expected expression, source or handle")

    def __iter__(self):            # unpacks as fv, fp = handle
        return iter((self.val, self.der))


# ---------------------------------------------------------------------------
# parser  (recursive descent over the grammar:
#   expr   := term { ("+"|"-") term }
#   term   := unary { ("*"|"/") unary }
#   unary  := ["-"] factor
#   factor := base [ "^" number ]
#   base   := "z" | "i" | "e" | number | "(" expr ")" | ident "(" expr ")"
#   ident  in {exp, log, sqrt} )
# ---------------------------------------------------------------------------

_NUMBER_RE = re.compile(r"\d+(?:\.\d*)?|\.\d+")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_FUNCTIONS = {"exp": Exp, "log": Log, "sqrt": Sqrt}


class _Parser:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self):
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _expect(self, ch):
        if self._peek() != ch:
            raise ParseDiagnostic(self.pos, "unexpected %r" % (self._peek() or "end of input"),
                                  expected=[repr(ch)])
        self.pos += 1

    def _number(self, signed=False):
        self._skip_ws()
        start = self.pos
        sign = 1.0
        if signed and self._peek() == "-":
            sign = -1.0
            self.pos += 1
            self._skip_ws()
        m = _NUMBER_RE.match(self.text, self.pos)
        if not m:
            raise ParseDiagnostic(self.pos, "malformed number", expected=["decimal literal"])
        self.pos = m.end()
        try:
            return sign * float(m.group(0))
        except ValueError:
            raise ParseDiagnostic(start, "malformed number", expected=["decimal literal"])

    def parse_expr(self):
        node = self.parse_term()
        while self._peek() and self._peek() in "+-":
            op = self._peek()
            self.pos += 1
            rhs = self.parse_term()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def parse_term(self):
        node = self.parse_unary()
        while self._peek() and self._peek() in "*/":
            op = self._peek()
            self.pos += 1
            rhs = self.parse_unary()
            node = Mul(node, rhs) if op == "*" else Div(node, rhs)
        return node

    def parse_unary(self):
        if self._peek() == "-":
            self.pos += 1
            return Neg(self.parse_unary())
        return self.parse_factor()

    def parse_factor(self):
        node = self.parse_base()
        if self._peek() == "^":
            self.pos += 1
            p = self._number(signed=True)
            node = Pow(node, p)
        return node

    def parse_base(self):
        ch = self._peek()
        if ch == "":
            raise ParseDiagnostic(self.pos, "unexpected end of input",
                                  expected=["z", "i", "e", "number", "(", "function"])
        if ch == "(":
            self.pos += 1
            node = self.parse_expr()
            self._expect(")")
            return node
        if ch.isdigit() or ch == ".":
            return Const(self._number())
        m = _IDENT_RE.match(self.text, self.pos)
        if not m:
            raise ParseDiagnostic(self.pos, "unexpected %r" % ch,
                                  expected=["z", "i", "e", "number", "(", "function"])
        name = m.group(0)
        if name == "z":
            self.pos = m.end()
            return Var()
        if name == "i":
            self.pos = m.end()
            return Const(1j)
        if name == "e":
            self.pos = m.end()
            return Const(math.e)
        if name in _FUNCTIONS:
            self.pos = m.end()
            self._expect("(")
            inner = self.parse_expr()
            self._expect(")")
            return _FUNCTIONS[name](inner)
        raise ParseDiagnostic(self.pos, "unknown identifier %r" % name,
                              expected=sorted(_FUNCTIONS) + ["z", "i", "e"])


def parse(text):
    """Parse an expression source string into a HoloExpr tree."""
    if not text or not text.strip():
        raise ParseDiagnostic(0, "empty input")
    p = _Parser(text)
    node = p.parse_expr()
    p._skip_ws()
    if p.pos != len(text):
        raise ParseDiagnostic(p.pos, "trailing input %r" % text[p.pos:],
                              expected=["end of input"])
    return node
