"""Per-layer spans and counters, recorded from outside the program.

The tracer replaces selected public functions of the ``holoflow`` modules by
wrappers that time each call and count work.  A module that imported a
function by name (``from .quad import grid_sup``) holds its own binding, so
every module attribute that *is* the original function is rebound, not only
the one in the defining module.  Methods are patched on their class.

Self time of a span is its duration minus the time covered by the spans it
caused, so nested layers are not counted twice.  ``Tracer.patched()`` restores
every binding on exit.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional

MODULES = ("cli", "construct", "expr", "hypgeo", "quad", "semigroup",
           "spaces", "volterra")


def _points(args, kwargs, result):
    """Sample count of the array argument of evaluate_array(expr, z)."""
    z = args[1] if len(args) > 1 else kwargs["z"]
    return {"points": getattr(z, "size", 1)}


def _flow_work(args, kwargs, result):
    """flow_points(gen, z0, t) -> (w, j, sol); sol.nfev counts RHS calls."""
    sol = result[2] if len(result) > 2 else None
    return {"points": result[0].size,
            "rhs_evals": getattr(sol, "nfev", 0)}


def _queries(args, kwargs, result):
    return {"queries": len(result)}


@dataclass(frozen=True)
class Target:
    module: str                 # holoflow submodule
    qualname: str               # "func" or "Class.method"
    key: str = ""               # metric prefix; default "<module>.<qualname>"
    time_name: str = "self_s"   # stat that receives the self time
    count: Optional[Callable] = None   # (args, kwargs, result) -> {stat: n}
    density_arg: bool = False   # count calls of the first argument

    @property
    def prefix(self) -> str:
        return self.key or "%s.%s" % (self.module, self.qualname)


TARGETS = (
    Target("construct", "mp_box_average", density_arg=True),
    Target("construct", "mp_disc_integral"),
    Target("construct", "_LogHalfSymbol.base_density",
           key="construct.base_density"),
    Target("construct", "_LinearSymbol.base_density",
           key="construct.base_density"),
    Target("construct", "_beta_mp"),
    Target("construct", "ConstructionState.abs_F_sq",
           key="construct.abs_F_sq"),
    Target("construct", "ConstructionState.re_F", key="construct.re_F"),
    Target("construct", "verify_block"),
    Target("construct", "build_bmoa"),
    Target("construct", "build_bloch"),
    Target("spaces", "bmoa_seminorm"),
    Target("spaces", "bmoa_vanishing"),
    Target("spaces", "bloch_seminorm"),
    Target("spaces", "bloch_vanishing"),
    Target("spaces", "GarsiaIntegrator.__init__",
           key="spaces.GarsiaIntegrator", time_name="init_s"),
    Target("spaces", "GarsiaIntegrator.__call__",
           key="spaces.GarsiaIntegrator", time_name="query_s",
           count=_queries),
    Target("spaces", "lvb_check"),
    Target("spaces", "lvmo_check"),
    Target("spaces", "minimality"),
    Target("quad", "grid_sup"),
    Target("quad", "radial_limit"),
    Target("quad", "classify_sequence"),
    Target("quad", "line_integral"),
    Target("expr", "evaluate_array", count=_points),
    Target("expr", "parse"),
    Target("expr", "differentiate"),
    Target("hypgeo", "GeodesicBox.angular_halfwidth"),
    Target("semigroup", "flow_points", count=_flow_work),
    Target("semigroup", "classify"),
    Target("semigroup", "flow"),
    Target("semigroup", "koenigs"),
    Target("semigroup", "gamma_symbol"),
    Target("volterra", "boundedness_probe"),
    Target("volterra", "continuity_probe"),
    Target("volterra", "compose_apply"),
    Target("volterra", "volterra_apply"),
    Target("cli", "main"),
    Target("cli", "render"),
)


class Tracer:
    """Aggregates span self times and counters by metric name."""

    def __init__(self):
        self.stats = defaultdict(float)
        self._child_time = []         # per open span: time its children used

    def span(self, prefix, time_name, fn, args, kwargs, count=None):
        self._child_time.append(0.0)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - t0
            self.stats["%s.%s" % (prefix, time_name)] += \
                dur - self._child_time.pop()
            if self._child_time:
                self._child_time[-1] += dur
        self.stats[prefix + ".calls"] += 1
        if count is not None:
            for name, n in count(args, kwargs, result).items():
                self.stats["%s.%s" % (prefix, name)] += n
        return result

    def timed(self, prefix, fn, *args, **kwargs):
        """Run fn as a root span (a benchmark request)."""
        return self.span(prefix, "self_s", fn, args, kwargs)

    def _wrap(self, target, fn):
        prefix, stats = target.prefix, self.stats

        def counted_density(density):
            def density_eval(*a, **k):
                stats[prefix + ".density_evals"] += 1
                return density(*a, **k)
            return density_eval

        def wrapper(*args, **kwargs):
            if target.density_arg:
                args = (counted_density(args[0]),) + tuple(args[1:])
            return self.span(prefix, target.time_name, fn, args, kwargs,
                             target.count)

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def patched(self):
        """Install wrappers on every binding of every target; undo on exit."""
        mods = {name: importlib.import_module("holoflow." + name)
                for name in MODULES}
        undo = []
        try:
            for target in TARGETS:
                owner = mods[target.module]
                *path, attr = target.qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = vars(owner)[attr]
                wrapper = self._wrap(target, original)
                if path:                      # a method: patch the class
                    undo.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
                    continue
                for mod in mods.values():
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            undo.append((mod, name, original))
                            setattr(mod, name, wrapper)
            yield self
        finally:
            for owner, name, original in reversed(undo):
                setattr(owner, name, original)

