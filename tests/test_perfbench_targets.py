"""The benchmark's tracer must still find every function it patches.

``perfbench/tracing.py`` names its targets by module and qualified name; a
renamed or deleted function would otherwise surface only when the benchmark
suite runs.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod          # its dataclasses look it up
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_target_resolves():
    tracing = _tracing()
    assert tracing.TARGETS
    for target in tracing.TARGETS:
        assert target.module in tracing.MODULES, target
        # resolved as Tracer.patched does: attributes down the qualname,
        # the last one defined on its owner itself
        owner = importlib.import_module("holoflow." + target.module)
        *path, attr = target.qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        assert callable(vars(owner).get(attr)), target.qualname
