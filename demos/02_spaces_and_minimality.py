"""Tour 2: BMOA/Bloch seminorms, vanishing verdicts, and minimality.

Evaluates the classical function corpus in the plain and log-weighted
scales, then runs the LVB/LVMO minimality decision over the generator
corpus and the Sarason continuity probe for the maximal subspace.
"""

from holoflow import volterra
from holoflow.expr import FunctionHandle
from holoflow.semigroup import Generator
from holoflow.spaces import (Weight, bloch_seminorm, bmoa_seminorm,
                             bmoa_vanishing, minimality)

FUNCTIONS = ("z", "log(e/(1 - z))", "(log(e/(1 - z)))^0.5")
GENERATORS = ("i*z", "-z", "-z*(1 + z)/(1 - z)", "(1 - z)^2", "z^2 - 1")


def main():
    print("== seminorms and vanishing verdicts ==")
    for src in FUNCTIONS:
        f = FunctionHandle.from_source(src)
        print("  f = %-24s bloch %.4f   bmoa %.4f   vmoa: %s"
              % (src, bloch_seminorm(f).value, bmoa_seminorm(f).value,
                 bmoa_vanishing(f).tag))

    print("\n== log-weighted scale separates the corpus ==")
    rep = bmoa_seminorm(FunctionHandle.from_source("(log(e/(1 - z)))^0.5"),
                        Weight.log(), J=10)
    sups = dict(rep.scale_series)
    print("  (log)^(1/2): per-octave sups grow (trend %r), "
          "octave ratios %s" % (rep.trend,
                                ["%.3f" % (sups[j + 1] / sups[j])
                                 for j in range(3, 10)]))

    print("\n== minimality of the unrestricted semigroup ==")
    for src in GENERATORS:
        rep = minimality(Generator.from_source(src))
        print("  G = %-22s minimal: %-5s  lvb: %-22s lvmo: %s"
              % (src, rep.minimal, rep.lvb.verdict.tag, rep.lvmo.verdict.tag))

    print("\n== Sarason continuity probe (maximal subspace evidence) ==")
    gen = Generator.from_source("i*z")
    for src in ("z", "log(e/(1 - z))"):
        f = FunctionHandle.from_source(src)
        probe = volterra.continuity_probe(gen, f, (0.1, 0.01, 0.001))
        print("  f = %-18s ||C_t f - f|| = %s  -> %s"
              % (src, ["%.4f" % v for v in probe.values], probe.trend))


if __name__ == "__main__":
    main()
