"""holoflow benchmark: seeded CLI workloads timed end to end and per layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload witness --seed 1 --seconds 30 --trace 0

Each workload is a closed loop with one client: the requests of a pass are
sent in order through ``holoflow.cli.main`` in this process, each after the
previous one has returned, and passes repeat until the next one would end
after ``--seconds``.  Every report is checked against its oracle and against
the same request's bytes in earlier passes.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
prints the per-layer metrics: it first runs the same untraced passes, which
give the per-family latencies, then a fixed number of passes with per-layer
spans installed, and reports each span statistic as its median per pass, so
the counts do not depend on how many passes fit in ``--seconds``.  The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it record the environment and a
readable summary.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
SETUP_PROGRAM = "import holoflow.cli as c; c.build_parser()"


def _env_with_src():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _import_holoflow():
    """Import holoflow from this checkout's src/, never from elsewhere."""
    if not (SRC / "holoflow" / "__init__.py").is_file():
        raise SystemExit("perfbench: no holoflow sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import holoflow.cli
    if Path(holoflow.cli.__file__).resolve().parent != SRC / "holoflow":
        raise SystemExit("perfbench: imported holoflow from %s"
                         % holoflow.cli.__file__)
    return holoflow.cli


def measure_setup(repeats=SETUP_REPEATS):
    """Median seconds from spawning a fresh interpreter until the holoflow
    import and the parser build are done (one untimed warm-up first)."""
    env = _env_with_src()
    cmd = [sys.executable, "-c", SETUP_PROGRAM]
    times = []
    for i in range(repeats + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=env, check=True,
                       stdout=subprocess.DEVNULL)
        if i:
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


# -- one request ------------------------------------------------------------

def run_request(cli, req, call=None):
    """Run one request; returns (seconds, exit code, stdout text)."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        rc = call(cli.main, list(req.argv)) if call else \
            cli.main(list(req.argv))
    return time.perf_counter() - t0, rc, buf.getvalue()


class Outcomes:
    """Per-request timings, oracle results and reference bytes."""

    def __init__(self):
        self.latency = {}         # request name -> [seconds of passed runs]
        self.timed = True         # record latencies (off while traced)
        self.first_bytes = {}
        self.attempted = 0
        self.failed = 0
        self.unexpected = []      # failures that are not documented defects
        self.defects = {}         # defect text -> count

    def record(self, req, seconds, rc, text):
        self.attempted += 1
        reason = doc = None
        try:
            doc = json.loads(text)
            req.check(rc, doc)
        except (AssertionError, ValueError, KeyError, TypeError) as exc:
            reason = "%s: %s" % (type(exc).__name__, exc)
        ref = self.first_bytes.setdefault(req.name, text)
        if reason is None and ref != text:
            reason = "report bytes differ from the first pass"
        if reason is None:
            if self.timed:
                self.latency.setdefault(req.name, []).append(seconds)
            return
        self.failed += 1
        if req.defect and doc is not None and ref == text and \
                req.symptom(rc, doc):
            self.defects[req.defect] = self.defects.get(req.defect, 0) + 1
        else:
            self.unexpected.append("%s: %s" % (req.name, reason))


def run_pass(cli, requests, out, call=None):
    """Send every request of one pass in order; returns the pass seconds."""
    t0 = time.perf_counter()
    for req in requests:
        out.record(req, *run_request(cli, req, call))
    return time.perf_counter() - t0


def run_passes(cli, requests, seconds, min_passes, out):
    """Closed loop: passes until the next one would end after `seconds`."""
    walls = []
    t_start = time.perf_counter()
    while True:
        walls.append(run_pass(cli, requests, out))
        elapsed = time.perf_counter() - t_start
        if len(walls) >= min_passes and \
                elapsed + statistics.median(walls) > seconds:
            return walls


def traced_passes(cli, requests, passes, out, tracer):
    """`passes` passes with spans installed.  Returns the median per pass of
    every span statistic and the traced pass times."""
    per_pass, walls = [], []
    out.timed = False
    with tracer.patched():
        for _ in range(passes):
            tracer.stats.clear()
            walls.append(run_pass(
                cli, requests, out,
                call=lambda fn, argv: tracer.timed("request", fn, argv)))
            per_pass.append(dict(tracer.stats))
    names = set().union(*per_pass)
    return {name: statistics.median(p.get(name, 0.0) for p in per_pass)
            for name in names}, walls


# -- metrics ----------------------------------------------------------------

def family_latencies(requests, out):
    """Median over a family's passed requests, per family."""
    fams = {}
    for req in requests:
        if req.family:
            fams.setdefault(req.family, []).extend(out.latency.get(req.name,
                                                                   []))
    return {fam: statistics.median(v) for fam, v in fams.items() if v}


def end_to_end(out, walls, setup_s):
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "ok_ratio": 1.0 - out.failed / out.attempted,
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def per_layer(names, requests, out, rss_mb, stats, traced_walls):
    """Span statistics per traced pass; request latencies and peak RSS from
    the untraced passes; failures from all passes."""
    values = dict(stats)
    values["bench.wall_s"] = statistics.median(traced_walls)
    values["peak_rss_mb"] = rss_mb
    values["failed_ratio"] = out.failed / out.attempted
    values.update({fam + "_s": v for fam, v in
                   family_latencies(requests, out).items()})
    return {name: values.get(name, 0.0) for name in names}


# -- environment ------------------------------------------------------------

def _blas_threads():
    """Thread count of the BLAS library numpy loaded, read through ctypes."""
    import ctypes
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps.splitlines()
                   if "openblas" in line.lower() and ".so" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _revision():
    """git revision when the checkout is a repository, else 'unknown'; the
    sha256 of src/holoflow identifies the program either way."""
    git = "unknown"
    if (ROOT / ".git").exists():
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        git = rev.stdout.strip() if rev.returncode == 0 else git
    digest = hashlib.sha256()
    for path in sorted((SRC / "holoflow").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return git, digest.hexdigest()


def environment():
    import mpmath
    import numpy
    import scipy
    from holoflow import construct
    git, src_sha = _revision()
    return {
        "git_revision": git,
        "src_sha256": src_sha,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "HOLOFLOW_PRECISION_BITS": construct.default_bits(),
        "blas_threads": _blas_threads(),
    }


# -- main -------------------------------------------------------------------

def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cli = _import_holoflow()
    sys.path.insert(0, str(HERE))
    import tracing
    import workloads
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit("perfbench: unknown workload %r" % args.workload)

    setup_s = measure_setup() if not args.trace else None
    env = environment()
    if env["blas_threads"] and env["blas_threads"] > env["nproc"]:
        raise SystemExit("perfbench: BLAS uses %d threads on %d cpus"
                         % (env["blas_threads"], env["nproc"]))
    print("# env " + json.dumps(env, sort_keys=True))

    requests = workloads.WORKLOADS[args.workload](args.seed)
    min_passes = workloads.MIN_PASSES[args.workload]
    out = Outcomes()
    walls = run_passes(cli, requests, args.seconds, min_passes, out)
    rss_mb = peak_rss_mb()
    if args.trace:
        stats, traced_walls = traced_passes(cli, requests, min_passes, out,
                                            tracing.Tracer())
        specs = spec["per_layer"]
        values = per_layer([m["name"] for m in specs], requests, out, rss_mb,
                           stats, traced_walls)
        print("# traced passes %s s"
              % " ".join("%.3f" % w for w in traced_walls))
    else:
        specs = spec["end_to_end"]
        values = end_to_end(out, walls, setup_s)

    print("# passes %s s, requests %d, failed %d, peak_rss_mb %.1f"
          % (" ".join("%.3f" % w for w in walls), out.attempted, out.failed,
             rss_mb))
    for defect, n in sorted(out.defects.items()):
        print("# known defect (%d): %s" % (n, defect))
    for line in out.unexpected:
        print("# FAILED %s" % line)
    result = {
        "correct": not out.unexpected,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in specs},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
