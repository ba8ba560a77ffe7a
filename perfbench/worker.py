"""One workload process: set up, then run passes in a closed loop.

Started by run.py, once per set-up sample.  Prints "READY" as soon as the
first item is ready; with --setup-only it stops there.  Otherwise it runs
whole passes of the workload, one item after another, each compared exactly
with the recorded reference, and prints one "RESULT <json>" line.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
OUT = HERE / "out"


def import_program():
    """Import coadjoint from this checkout's src/, nothing else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import coadjoint
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import coadjoint from {src}: {exc}")
    if Path(coadjoint.__file__).resolve().parent != (src / "coadjoint").resolve():
        raise SystemExit(f"perfbench: coadjoint was imported from "
                         f"{coadjoint.__file__}, not from {src}")
    return coadjoint


# On a shared host the CPU speed drifts by up to about a half, over intervals
# from under a second to minutes, with the load of other tenants.  A fixed
# exact-rational elimination in plain Python, independent of coadjoint,
# samples the current speed before and after every item and set-up, and every
# PROBE_PERIOD_S inside them.  Their time, less the probes, is rescaled by
# KERNEL_NOMINAL_S over the mean probe time, so wall_s and setup_s read as
# seconds on a host whose probe takes KERNEL_NOMINAL_S.
KERNEL_NOMINAL_S = 0.003
PROBE_PERIOD_S = 0.05


def speed_probe(n=12):
    """Seconds for the reference kernel: Gaussian elimination over Fraction."""
    t0 = time.perf_counter()
    a = [[Fraction((3 * i + 5 * j + i * j) % 11 - 5, 1 + (i + 2 * j) % 4)
          for j in range(n)] for i in range(n)]
    rank = 0
    for c in range(n):
        p = next((r for r in range(rank, n) if a[r][c]), None)
        if p is None:
            continue
        a[rank], a[p] = a[p], a[rank]
        for r in range(rank + 1, n):
            f = a[r][c] / a[rank][c]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
        rank += 1
    return time.perf_counter() - t0


class Probes:
    """Speed probes around a block and on a timer signal inside it.

    After the block: `elapsed` is its wall time, `inside` the probe seconds
    within it, `scale` KERNEL_NOMINAL_S over the mean probe time.
    """

    def __enter__(self):
        self.samples = [speed_probe()]
        self._previous = signal.signal(
            signal.SIGALRM, lambda *_: self.samples.append(speed_probe()))
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.elapsed = time.perf_counter() - self._t0
        signal.signal(signal.SIGALRM, self._previous)
        self.inside = sum(self.samples[1:])
        self.samples.append(speed_probe())
        self.scale = KERNEL_NOMINAL_S / statistics.fmean(self.samples)

    @property
    def probe_seconds(self):
        return sum(self.samples)


def timed_call(compute, probe):
    """(output or the exception raised, seconds in compute, rescaled seconds).

    With `probe`, the seconds exclude the probes taken inside compute;
    without, nothing is rescaled.
    """
    with Probes() if probe else contextlib.nullcontext() as probes:
        t0 = time.perf_counter()
        try:
            out = compute()
        except Exception as exc:  # an item that raises is a failed item
            out = exc
        dt = time.perf_counter() - t0
    if not probe:
        return out, dt, dt
    dt = probes.elapsed - probes.inside
    return out, dt, dt * probes.scale


def run_pass(items, reference, failures, log, probe=True):
    """Run every item once, appending (name, seconds, rescaled seconds) to
    `log`.

    Returns (seconds in program calls, the same rescaled by the speed probes
    of each item, checks run).  Only the program call is timed; summarising
    and comparing are not.  An item fails if it raises or its record differs
    from the reference; its name is appended to `failures`.  Without
    `probe`, as in traced runs, nothing is rescaled.
    """
    seconds = rescaled = 0.0
    checks = 0
    for name, compute, summarise in items:
        out, dt, scaled = timed_call(compute, probe)
        seconds += dt
        rescaled += scaled
        log.append((name, dt, scaled))
        if isinstance(out, Exception):
            failures.append(f"{name}: raised {type(out).__name__}: {out}")
            continue
        record, n = summarise(out)
        checks += n
        if name not in reference:
            failures.append(f"{name}: no reference record")
        elif json.loads(json.dumps(record)) != reference[name]:
            failures.append(f"{name}: output differs from the reference")
    return seconds, rescaled, checks


def environment(program):
    from coadjoint import qlinalg

    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "have_gmpy2": qlinalg.HAVE_GMPY2,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": git_commit(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED", "unset"),
        "coadjoint": program.__version__,
    }


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    tracer = None
    with Probes() if not args.trace else contextlib.nullcontext() as probes:
        program = import_program()
        from coadjoint import atlas

        import workloads

        # setup_s is a cold measurement: the fingerprint memo must start empty
        if atlas._fp_cache:
            raise SystemExit("perfbench: atlas._fp_cache is not empty at set-up")
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
        cfg = workloads.sample_config(args.seed)
        items = workloads.setup(args.workload, cfg)
    # run.py rescales the set-up time it measures, less the probes
    ready = ({"probe_s": probes.probe_seconds, "scale": probes.scale}
             if probes else {"probe_s": 0.0, "scale": 1.0})
    print("READY " + json.dumps(ready), flush=True)
    if args.setup_only:
        return 0

    reference = json.loads(REFERENCE.read_text())[args.workload]
    failures = []
    pass_seconds = []
    rescaled = []
    checks = []
    item_log = []
    started = time.perf_counter()
    # traced runs make exactly one pass, so their counts repeat run to run
    while not pass_seconds or (
            not tracer and time.perf_counter() - started < args.seconds):
        seconds, scaled, n = run_pass(items, reference, failures, item_log,
                                      probe=tracer is None)
        pass_seconds.append(seconds)
        rescaled.append(scaled)
        checks.append(n)
    result = {
        "passes": len(pass_seconds),
        "pass_seconds": pass_seconds,
        "raw_wall_s": statistics.median(pass_seconds),
        "wall_s": statistics.median(rescaled),
        "checks_per_pass": checks,
        "attempted": len(items) * len(pass_seconds),
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "fp_cache_empty_at_setup": True,
        "environment": environment(program),
        "items": item_log,
    }
    if tracer:
        tracer.uninstall()
        result["layers"] = tracer.metrics()
        result["spans"] = len(tracer.spans)
        result["overhead_s"] = tracing.calibrate_overhead() * len(tracer.spans)
        OUT.mkdir(exist_ok=True)
        span_file = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        span_file.write_text(json.dumps(tracer.spans))
        result["span_file"] = str(span_file.relative_to(ROOT))
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
