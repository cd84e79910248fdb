"""Generators, Berkson-Porta construction, classification, flows, Koenigs map.

A Generator wraps the holomorphic vector field G driving the Cauchy problem
dw/dt = G(w), w(0) = z, together with the optional Berkson-Porta point tau
of G(z) = (z - tau)(conj(tau) z - 1) p(z), Re p >= 0.  Classification finds
the Denjoy-Wolff point and the spectral value; the flow integrates the ODE
with the variational equation dJ/dt = G'(w) J carried alongside.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from . import expr as _expr
from . import quad
from .expr import Const, Var, div, mul, sub
from .quad import classify_sequence, line_integral, radial_schedule

__all__ = [
    "Generator",
    "Classification",
    "Trajectory",
    "AdmissibilityError",
    "ClassificationError",
    "FlowBlowupError",
    "berkson_porta",
    "classify",
    "flow",
    "flow_points",
    "checked_time",
    "koenigs",
    "gamma_symbol",
]


class AdmissibilityError(Exception):
    """Berkson-Porta factor p violates Re p >= 0 on the sample grid."""


class ClassificationError(Exception):
    """Denjoy-Wolff analysis did not converge."""


class FlowBlowupError(Exception):
    """Numerical trajectory reached the guard annulus |w| = 1 - eps_min."""


T_MAX = 10.0        # longest accepted flow time


@dataclass(frozen=True)
class Classification:
    kind: str           # elliptic | hyperbolic | parabolic
    tau: complex
    lam: complex        # spectral value; complex for elliptic, real >= 0 else


@dataclass
class Generator:
    """Holomorphic vector field with its derivative and optional metadata."""

    G: _expr.HoloExpr
    bp_tau: complex | None = None
    dG: _expr.HoloExpr = field(init=False, repr=False)
    _classification: Classification | None = field(default=None, repr=False)

    def __post_init__(self):
        self.dG = _expr.differentiate(self.G)

    @staticmethod
    def from_source(text) -> "Generator":
        return Generator(_expr.parse(text))


def _sample_grid():
    """20 x 20 polar grid: radii 0.05..0.95, equispaced angles."""
    r = np.linspace(0.05, 0.95, 20)
    t = np.arange(20) * (2.0 * math.pi / 20)
    return (r[:, None] * np.exp(1j * t[None, :])).ravel()


def berkson_porta(tau, p) -> Generator:
    """Generator with G(z) = (z - tau)(conj(tau) z - 1) p(z)."""
    if isinstance(p, str):
        p = _expr.parse(p)
    tau = complex(tau)
    if abs(tau) > 1.0 + 1e-12:
        raise ValueError("tau must lie in the closed disc")
    low = float(np.nanmin(_expr.evaluate_array(p, _sample_grid()).real))
    if low < -1e-9:
        raise AdmissibilityError("Re p < -1e-09 on the sample grid (min %g)"
                                 % low)
    G = mul(mul(sub(Var(), Const(tau)),
                sub(mul(Const(tau.conjugate()), Var()), Const(1.0))), p)
    return Generator(G, bp_tau=tau)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def _modulus(v):
    """|v|, inf where v is not finite."""
    return np.where(np.isfinite(v), np.abs(v), np.inf)


def _newton_zeros(gen, seeds):
    """Damped Newton for G(z) = 0 from all seeds at once: per seed, a zero
    with |G| < 1e-10, or None.  Per seed: at most 60 steps z - lam G/G', lam
    halved up to 30 times until |G| drops; stop at |G| < 1e-14, when no lam
    helps, or with None at a non-finite G, G' or a zero G'.  A step evaluates
    G and G' once over the active seeds, a halving G once over the pending
    ones.  The arithmetic is numpy's elementwise complex arithmetic, so a
    batch gives each seed the bits it gets when run alone.
    """
    z = np.array(seeds, dtype=complex)
    fz = _modulus(_expr.evaluate_array(gen.G, z))
    ok, live = np.ones(z.size, dtype=bool), np.arange(z.size)
    for _ in range(60):
        if live.size == 0:
            break
        g = _expr.evaluate_array(gen.G, z[live])
        dg = _expr.evaluate_array(gen.dG, z[live])
        bad = ~(np.isfinite(g) & np.isfinite(dg)) | (dg == 0)
        ok[live[bad]] = False
        live, g, dg = live[~bad], g[~bad], dg[~bad]
        with np.errstate(all="ignore"):
            step = g / dg
        lam, stuck = 1.0, np.ones(live.size, dtype=bool)
        for _ in range(30):
            k = np.flatnonzero(stuck)
            if k.size == 0:
                break
            cand = z[live[k]] - lam * step[k]
            fc = _modulus(_expr.evaluate_array(gen.G, cand))
            down = fc < fz[live[k]]
            z[live[k[down]]], fz[live[k[down]]] = cand[down], fc[down]
            stuck[k[down]] = False
            lam *= 0.5
        live = live[~stuck & (fz[live] >= 1e-14)]
    return [complex(v) if keep else None
            for v, keep in zip(z, ok & (fz < 1e-10))]


def _boundary_lambda(gen, tau):
    """Spectral value at a boundary Denjoy-Wolff point from radial samples.

    Samples f(r) = Re(conj(tau) G(r tau)) / (1 - r) along the dyadic radius
    schedule, with one evaluation of G, skipping radii where G or f is not
    finite, and Richardson-extrapolates the last pair.  In numpy's complex
    arithmetic each radius gets the bits it gets when sampled alone.
    """
    r = np.array([r for _, r in radial_schedule()])
    g = _expr.evaluate_array(gen.G, r * tau)
    with np.errstate(all="ignore"):
        v = (tau.conjugate() * g).real / (1.0 - r)
    keep = np.isfinite(g) & np.isfinite(v)
    samples = [(float(rk), float(vk)) for rk, vk in zip(r[keep], v[keep])]
    if len(samples) < 4:
        raise ClassificationError("boundary spectral-value analysis failed")
    verdict = classify_sequence([(r, abs(v)) for r, v in samples])
    if verdict.tag == "vanishes":
        return 0.0, verdict
    lam = 2.0 * samples[-1][1] - samples[-2][1]
    if lam < -1e-9:
        raise ClassificationError("negative boundary spectral value %r" % lam)
    return max(lam, 0.0), verdict


def classify(gen: Generator) -> Classification:
    """Find the Denjoy-Wolff point and spectral value of the semigroup: one
    batched damped Newton search (_newton_zeros) from 113 interior starts,
    then, without a simple interior zero, from up to 4 starts near |z| = 1."""
    if gen._classification is not None:
        return gen._classification

    # interior zero search: multi-start damped Newton on a 7 x 16 polar grid
    seeds = [0.0 + 0.0j]
    for r in (0.1, 0.25, 0.4, 0.55, 0.7, 0.85, 0.95):
        for k in range(16):
            seeds.append(r * cmath.exp(2j * math.pi * k / 16))
    # a genuine interior Denjoy-Wolff point is a simple zero well inside
    # the disc; boundary zeros of higher order stall Newton just inside
    # |z| = 1 with a vanishing derivative and must not be accepted here
    zs = np.array([z for z in _newton_zeros(gen, seeds)
                   if z is not None and abs(z) < 1.0 - 1e-6], dtype=complex)
    dgz = _expr.evaluate_array(gen.dG, zs)
    if not np.all(np.isfinite(dgz)):    # the first, in seed order
        raise _expr.EvalDomainError("expression not finite at %r"
                                    % (complex(zs[~np.isfinite(dgz)][0]),))
    simple = np.flatnonzero(_modulus(dgz) > 1e-7)
    if simple.size:
        k = simple[np.argmin(_modulus(_expr.evaluate_array(gen.G, zs[simple])))]
        lam = -complex(dgz[k])
        if lam.real < -1e-9:
            raise ClassificationError("interior fixed point is repelling")
        cls = Classification("elliptic", complex(zs[k]), lam)
        gen._classification = cls
        return cls

    # boundary Denjoy-Wolff point
    candidates = []
    if gen.bp_tau is not None and abs(abs(gen.bp_tau) - 1.0) < 1e-12:
        candidates.append(complex(gen.bp_tau))
    else:
        r_probe = 1.0 - 1e-6
        thetas = np.arange(512) * (2.0 * math.pi / 512)
        vals = np.abs(_expr.evaluate_array(gen.G, r_probe * np.exp(1j * thetas)))
        vals = np.where(np.isfinite(vals), vals, np.inf)
        order = np.argsort(vals)
        picked = []
        for k in order[:16]:
            th = thetas[k]
            if all(min(abs(th - t), 2 * math.pi - abs(th - t)) > 0.2 for t in picked):
                picked.append(th)
        for z in _newton_zeros(gen, [r_probe * cmath.exp(1j * th)
                                     for th in picked[:4]]):
            if z is not None and abs(abs(z) - 1.0) < 1e-5:
                candidates.append(z / abs(z))
    seen = []
    for tau in candidates:
        if any(abs(tau - s) < 1e-6 for s in seen):
            continue
        seen.append(tau)
        try:
            lam, _ = _boundary_lambda(gen, tau)
        except ClassificationError:
            continue
        kind = "parabolic" if lam == 0.0 else "hyperbolic"
        cls = Classification(kind, tau, lam)
        gen._classification = cls
        return cls
    raise ClassificationError("no interior zero and boundary analysis inconclusive")


# ---------------------------------------------------------------------------
# flow
# ---------------------------------------------------------------------------

@dataclass
class Trajectory:
    times: np.ndarray
    points: np.ndarray      # phi_t(z0) samples
    derivs: np.ndarray      # d phi_t / dz samples
    n_steps: int
    residual: float         # |phi_{t/2}(phi_{t/2}(z0)) - phi_t(z0)|

    @property
    def endpoint(self) -> complex:
        return complex(self.points[-1])

    @property
    def end_deriv(self) -> complex:
        return complex(self.derivs[-1])


def checked_time(t, t_max):
    """t as a float if it is finite and in [0, t_max]; anything else raises
    ValueError (exit 3) before any integration starts."""
    t = float(t)
    if not 0.0 <= t <= t_max:
        raise ValueError("time must be finite and in [0, %g], got %r"
                         % (t_max, t))
    return t


def _solve(gen, z0, t, t_eval, rtol, atol):
    """RK45 for dw/dt = G(w) and dJ/dt = G'(w) J from the points z0 (J = 1)
    up to time t; FlowBlowupError if a trajectory reaches the guard annulus
    |w| = 1 - eps_min first."""
    from scipy.integrate import solve_ivp       # only a flow pays the import
    n = z0.size
    guard = 1.0 - quad.CONFIG.eps_min

    def rhs(_, y):
        w, j = y[:n], y[n:]
        gw = _expr.evaluate_array(gen.G, w)
        dgw = _expr.evaluate_array(gen.dG, w)
        return np.concatenate([gw, dgw * j])

    def escape(_, y):
        return guard - float(np.max(np.abs(y[:n])))
    escape.terminal = True

    sol = solve_ivp(rhs, (0.0, t), np.concatenate([z0, np.ones_like(z0)]),
                    method="RK45", rtol=rtol, atol=atol, t_eval=t_eval,
                    events=escape)
    if sol.status != 0:        # -1: a step failed; 1: the escape event fired
        raise FlowBlowupError("trajectory reached the guard annulus before t=%g" % t)
    return sol


def flow_points(gen, z0, t):
    """Flow an array of initial points for time t in [0, T_MAX]; returns
    (phi_t, dphi_t/dz, solver result or None at t = 0)."""
    z0 = np.atleast_1d(np.asarray(z0, dtype=complex))
    t = checked_time(t, T_MAX)
    if t == 0:
        return z0.copy(), np.ones_like(z0), None
    sol = _solve(gen, z0, t, None, 1e-10, 1e-10)
    y = sol.y[:, -1]
    return y[:z0.size], y[z0.size:], sol


def flow(gen, z0, t) -> Trajectory:
    """Integrate the Cauchy problem from z0 (|z0| < 1) up to time t in
    [0, T_MAX], 17 samples."""
    n_samples = 17
    t = checked_time(t, T_MAX)
    z0 = complex(z0)
    if not abs(z0) < 1.0:
        raise ValueError("z0 must lie in the open unit disc, got %r" % z0)
    times = np.linspace(0.0, t, n_samples)
    if t == 0:
        pts = np.full(n_samples, z0, dtype=complex)
        return Trajectory(times, pts, np.ones(n_samples, dtype=complex), 0, 0.0)
    sol = _solve(gen, np.array([z0]), t, times, 1e-11, 1e-12)
    pts = sol.y[0]
    derivs = sol.y[1]
    if np.max(np.abs(pts)) >= 1.0:
        raise FlowBlowupError("trajectory left the disc")
    # semigroup-property residual: |phi_{t/2}(phi_{t/2}(z0)) - phi_t(z0)|
    half, _, _ = flow_points(gen, z0, t / 2)
    again, _, _ = flow_points(gen, half[0], t / 2)
    residual = abs(again[0] - pts[-1])
    return Trajectory(times, pts, derivs, sol.t.size, float(residual))


# ---------------------------------------------------------------------------
# Koenigs function and gamma-symbol
# ---------------------------------------------------------------------------

def koenigs(gen) -> _expr.FunctionHandle:
    """Return the handle (h, h') of the conformal conjugation of the semigroup.

    Elliptic: h(tau) = 0, h'(tau) = 1, h(phi_t(z)) = exp(-lambda t) h(z),
    built as (z - tau) exp(int_tau^z [-lambda/G - 1/(s - tau)] ds); the
    integrand is holomorphic across tau, which no line_integral node hits.
    Non-elliptic: h' = i/G, h(0) = 0.
    """
    cls = classify(gen)
    if cls.kind == "elliptic":
        tau, lam = cls.tau, cls.lam
        core = sub(div(Const(-lam), gen.G), div(Const(1.0), sub(Var(), Const(tau))))

        def h(z):
            z = complex(z)
            return (z - tau) * cmath.exp(line_integral(
                lambda s: _expr.evaluate_array(core, s), tau, z))

        def hp(z):
            z = complex(z)
            if abs(z - tau) < 1e-9:
                return 1.0 + 0.0j
            return h(z) * (-lam / _expr.evaluate(gen.G, z))

        return _expr.FunctionHandle(h, hp)

    def hp_ne(z):
        return 1j / _expr.evaluate_array(gen.G, z)

    def h_ne(z):
        return line_integral(hp_ne, 0.0, complex(z))

    return _expr.FunctionHandle(h_ne, hp_ne)


def gamma_symbol(gen) -> _expr.FunctionHandle:
    """Return the handle (gamma, gamma') of the semigroup's Volterra symbol.

    Elliptic: gamma'(z) = (z - tau)/G(z)  (equal to -1/p for Berkson-Porta
    input), and -1/lambda within 1e-12 of tau or where it is not finite.
    Boundary case: gamma coincides with the Koenigs function.
    """
    cls = classify(gen)
    if cls.kind != "elliptic":
        return koenigs(gen)
    tau, lam = cls.tau, cls.lam
    tree = div(sub(Var(), Const(tau)), gen.G)

    def gp(z):
        out = _expr.evaluate_array(tree, z)
        return np.where(np.isfinite(out) & (np.abs(z - tau) >= 1e-12), out,
                        -1.0 / lam)

    def gamma(z):
        return line_integral(gp, tau, complex(z))

    return _expr.FunctionHandle(gamma, gp)
