"""Fast self-tests of the benchmark's own machinery.

    python3 -m pytest -q perfbench/test_machinery.py
"""

import copy
import json
import math
import time

import worker

worker.import_program()

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from coadjoint import invariants, liealg, qlinalg  # noqa: E402

semidirect = workloads.sd
CFG = workloads.sample_config(2024)


def scripted_clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_of_nested_spans():
    # a [0, 10] holds b [1, 3] and b [4, 8]; the second b holds c [5, 7]
    t = tracing.Tracer(clock=scripted_clock(0, 1, 3, 4, 5, 7, 8, 10))
    t.enter("a")
    t.enter("b")
    t.exit()
    t.enter("b")
    t.enter("c")
    t.exit()
    t.exit(aliases=("b.large",))
    t.exit()
    assert t.stats == {"c": [1, 2], "b": [2, 2 + 2], "b.large": [1, 2],
                       "a": [1, 10 - 2 - 4]}
    assert [s[3] for s in t.spans] == [-1, 0, 0, 2]


def test_rebinding_reaches_names_bound_at_import():
    rank, index = qlinalg.rank, liealg.index
    bracket = liealg.LieAlgebraData.bracket
    assert semidirect.rank is rank and invariants.algebra_index is index
    t = tracing.Tracer()
    t.install()
    try:
        assert semidirect.rank is not rank
        assert invariants.algebra_index is not index
        semidirect.rank(qlinalg.QMatrix.identity(3))
        L = liealg.classical_algebra("sl", 2)
        assert int(invariants.algebra_index(L, CFG)) == 1
        L.bracket([1, 0, 0], [0, 1, 0])
    finally:
        t.uninstall()
    assert semidirect.rank is rank and invariants.algebra_index is index
    assert liealg.LieAlgebraData.bracket is bracket
    calls = {k: v[0] for k, v in t.stats.items()}
    assert calls["liealg.index"] == 1
    assert calls["qlinalg.rank"] >= 2        # ours, plus one per index round
    assert calls["liealg.kirillov_form"] >= 1 and calls["liealg.bracket"] == 1
    assert t.counters["liealg.index.rounds"] == calls["liealg.kirillov_form"]


def test_tampered_reference_fails_the_item():
    items = [it for it in workloads.setup("constructions", CFG)
             if it[0] in ("edelta minimal n=2", "z2 so-so(3,1)")]
    assert len(items) == 2
    reference = json.loads(worker.REFERENCE.read_text())["constructions"]
    failures = []
    *_, checks = worker.run_pass(items, reference, failures, [])
    assert failures == [] and checks == 1 + 2
    tampered = copy.deepcopy(reference)
    tampered["z2 so-so(3,1)"][1]["digest"] = "0" * 20
    worker.run_pass(items, tampered, failures, [])
    assert failures == ["z2 so-so(3,1): output differs from the reference"]


def test_benchmark_json_names_every_metric():
    spec = json.loads((worker.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert tuple(run.WORKLOADS) == workloads.WORKLOADS
    per_layer = [m["name"] for m in spec["per_layer"]]
    assert per_layer == tracing.metric_names() + ["trace.wall_s", "trace.overhead_s"]
    assert {m["name"] for m in spec["end_to_end"]} == {
        "wall_s", "setup_s", "peak_rss_mb", "pass_ratio", "checks_run"}


def test_probes_sample_inside_the_block_and_are_subtracted():
    with worker.Probes() as probes:
        time.sleep(0.3)
    # one probe before, at least four on the 50 ms timer, one after
    assert len(probes.samples) >= 6 and 0.3 <= probes.elapsed < 0.4
    assert probes.inside == sum(probes.samples[1:-1])
    assert math.isclose(probes.scale, worker.KERNEL_NOMINAL_S
                        * len(probes.samples) / sum(probes.samples))
    out, dt, scaled = worker.timed_call(lambda: 1 // 0, False)
    assert isinstance(out, ZeroDivisionError) and dt == scaled
