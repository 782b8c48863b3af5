"""BENCHMARK.json and the code that fills it agree; failures are counted."""

import json
import os

import run
from layers import KEYS
from workloads import WORKLOADS, input_seeds


def spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def obs(digest="d", problems=(), failed=0, layers=True):
    o = {
        "ref_s": 0.3, "import_s": 0.1, "call_s": 2.0, "loop_wall_s": 1.9,
        "sim_ns": 10**8,
        "flow_bytes": 5 * 10**6, "events": 1000, "tx_pkts": 400,
        "rx_pkts": 410, "drops": 2, "marks": 30, "timeouts": 1,
        "timeouts_small": 0, "max_queue_bytes": 9000, "heap_hwm": 50,
        "fluid": {}, "failed_flows": failed, "problems": list(problems),
        "digest": digest,
    }
    if layers:
        o["layers"] = {k: [10, 10**8] for k in KEYS}
    return o


def test_workloads_match_the_spec():
    assert [w["name"] for w in spec()["workloads"]] == list(WORKLOADS)


def test_every_spec_metric_is_computed():
    plain = [run.Child(d, False, obs(), 30.0) for d in (0, 1, 0)]
    traced = [run.Child(0, True, obs(), 31.0)]
    e2e = run.end_to_end(plain)
    layer = run.per_layer(plain + traced, 30, 0)
    assert {m["name"] for m in spec()["end_to_end"]} <= set(e2e)
    assert {m["name"] for m in spec()["per_layer"]} <= set(layer)
    assert all(v > 0 for v in e2e.values())


def test_a_slower_cpu_divides_out_of_the_throughputs():
    fast = [run.Child(d, False, obs(), 30.0) for d in (0, 1)]
    slow = []
    for d in (0, 1):
        o = obs()
        o.update(ref_s=0.45, call_s=3.0, import_s=0.15, loop_wall_s=2.85)
        slow.append(run.Child(d, False, o, 30.0))
    a, b = run.end_to_end(fast), run.end_to_end(slow)
    for name in ("pkt_hops_per_s", "flow_mb_per_s", "setup_s"):
        assert abs(a[name] - b[name]) < 1e-9 * a[name], name
    assert a["pkt_hops_per_s"] == 800 / 4.0


def test_self_time_metrics_sum_to_the_traced_wall():
    traced = [run.Child(0, True, obs(), 31.0)]
    layer = run.per_layer([run.Child(0, False, obs(), 30.0)] + traced, 10, 0)
    total = sum(layer[f"{k}.self_s"] for k in KEYS)
    assert abs(total - len(KEYS) * 0.1) < 1e-9


def test_crashes_bad_outputs_and_digest_drift_fail_every_flow():
    children = [
        run.Child(0, False, obs(digest="a"), 30.0),
        run.Child(0, False, obs(digest="b"), 30.0),
        run.Child(1, False, obs(problems=["completed 9 of 10 flows"], failed=1), 30.0),
        run.Child(2, False, None, 30.0, "child exited with 1"),
        run.Child(3, False, obs(), 30.0),
    ]
    attempted, failed, problems, digests = run.judge(children, 10)
    assert attempted == 50
    assert failed == 30
    assert len(problems) == 3
    assert digests == {0: "a", 1: "d", 3: "d"}


def test_input_seeds_are_disjoint_across_seeds():
    a, b = input_seeds(1, 8), input_seeds(2, 8)
    assert len(set(a)) == 8 and not set(a) & set(b)
