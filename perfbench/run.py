"""coadjoint benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload tables|ledger|constructions \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; it imports coadjoint from ./src.  Workloads
and metrics are described in perfbench/NOTES.md and BENCHMARK.json.

--trace 0 starts fresh worker processes, one after another.  Each measures
the cold set-up time, from process start to the first item being ready.  The
first goes on to run whole passes of the workload until at least S seconds
have passed; the others stop at set-up.  --trace 1 starts one traced worker
that runs one pass.  The last line of standard output is one JSON object:
correct, attempted, failed and metrics.  The full result, with the
environment, is also written to perfbench/out/.
"""

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("constructions", "ledger", "tables")
# Cold set-up samples per run: at least MIN, then more while they have taken
# less than SETUP_BUDGET_S in all, up to MAX.
MIN_SETUP_SAMPLES, MAX_SETUP_SAMPLES = 2, 5
SETUP_BUDGET_S = 10
DEADLINE_S = 175


class WorkerError(RuntimeError):
    pass


def remaining(deadline):
    return max(1.0, deadline - time.monotonic())


def start_worker(args, deadline, setup_only):
    """Run one worker; returns (set-up seconds rescaled, set-up seconds raw,
    RESULT dict or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + (["--setup-only"] if setup_only else [])
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env.setdefault("PYTHONHASHSEED", "0")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    try:
        if not select.select([proc.stdout], [], [], remaining(deadline))[0]:
            raise subprocess.TimeoutExpired(cmd, DEADLINE_S)
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=remaining(deadline))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise WorkerError("worker exceeded the run's deadline")
    if not ready.startswith("READY ") or proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    probes = json.loads(ready[len("READY "):])
    rescaled = (setup_s - probes["probe_s"]) * probes["scale"]
    if setup_only:
        return rescaled, setup_s, None
    lines = [ln for ln in rest.splitlines() if ln.startswith("RESULT ")]
    if not lines:
        raise WorkerError("worker printed no result")
    return rescaled, setup_s, json.loads(lines[-1][len("RESULT "):])


def measure(args):
    deadline = time.monotonic() + DEADLINE_S
    if args.trace:
        _, raw, res = start_worker(args, deadline, setup_only=False)
        res["raw_setup_samples"] = [raw]
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in res["layers"].items()}
        metrics["trace.wall_s"] = {"value": res["raw_wall_s"], "unit": "s"}
        metrics["trace.overhead_s"] = {"value": res["overhead_s"], "unit": "s"}
        return res, metrics
    setup_s, raw, res = start_worker(args, deadline, setup_only=False)
    samples, raws = [setup_s], [raw]
    while len(samples) < MIN_SETUP_SAMPLES or (
            len(samples) < MAX_SETUP_SAMPLES and sum(raws) < SETUP_BUDGET_S):
        setup_s, raw, _ = start_worker(args, deadline, setup_only=True)
        samples.append(setup_s)
        raws.append(raw)
    res["setup_samples"], res["raw_setup_samples"] = samples, raws
    checks = res["checks_per_pass"]
    if len(set(checks)) != 1:
        res["failures"].append(f"checks per pass differ between passes: {checks}")
    attempted, failed = res["attempted"], len(res["failures"])
    metrics = {
        "wall_s": {"value": res["wall_s"], "unit": "s"},
        "setup_s": {"value": statistics.median(samples), "unit": "s"},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        "pass_ratio": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        "checks_run": {"value": min(checks), "unit": "count"},
    }
    return res, metrics


def report(args, res, metrics):
    attempted, failed = res["attempted"], len(res["failures"])
    env = res["environment"]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{res['passes']} pass(es), {attempted} items attempted, {failed} failed")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    if env["have_gmpy2"]:
        print("WARNING: gmpy2 is present; the Fraction path is the one that counts")
    for failure in res["failures"]:
        print(f"FAILED {failure}")
    print(f"  fail_ratio = {failed / attempted:.4f}")
    print(f"  raw_wall_s = {res['raw_wall_s']} s, raw set-up samples "
          f"{res['raw_setup_samples']} s (not rescaled by the speed probe)")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']} {m['unit']}")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(dict(res, metrics=metrics), indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "coadjoint" / "__init__.py").is_file():
        print(f"perfbench: no coadjoint sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        res, metrics = measure(args)
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    report(args, res, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
