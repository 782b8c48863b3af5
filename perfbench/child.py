"""One timed batch job: import repro, run one traffic draw, report it.

``run.py`` starts this script in a fresh interpreter for every timed run,
one at a time, with ``src`` on ``PYTHONPATH``.  It prints one JSON object
as its last line of standard output.  Usage::

    python3 perfbench/child.py --workload fabric --input-seed 1000 [--trace]
    python3 perfbench/child.py --import-only
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import time


def reference_s(rounds: int = 400_000) -> float:
    """Time a fixed interpreter-bound loop: heap events, slots, a dict.

    Runs before ``import repro``, so the program under test cannot touch
    it; its time tracks how fast this CPU runs Python right now."""

    class Ev:
        __slots__ = ("n",)

        def __init__(self) -> None:
            self.n = 0

    heap = [(i, i, Ev()) for i in range(64)]
    heapq.heapify(heap)
    table: dict = {}
    gc.disable()
    t0 = time.perf_counter()
    for seq in range(64, 64 + rounds):
        t, key, ev = heapq.heappop(heap)
        ev.n += 1
        table[key & 255] = table.get(key & 255, 0) + ev.n
        heapq.heappush(heap, (t + (seq * 2654435761 & 1023), seq, ev))
    elapsed = time.perf_counter() - t0
    gc.enable()
    return elapsed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--input-seed", type=int)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--import-only", action="store_true")
    args = ap.parse_args(argv)

    # one CPU for the whole child: the reference loop and the run see
    # the same core, whose speed drifts independently of the other's
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    ref_s = 0.0 if args.import_only else reference_s()
    t0 = time.perf_counter()
    import repro

    import_s = time.perf_counter() - t0
    if args.import_only:
        print(json.dumps({"import_s": import_s}))
        return 0

    from checks import check_result, digest, failed_flows, port_counters
    from layers import ROOT, LayerClock, install
    from workloads import config_kwargs

    cfg = repro.ExperimentConfig(**config_kwargs(args.workload, args.input_seed))
    clock = None
    if args.trace:
        clock = LayerClock()
        install(clock)
        t1 = time.perf_counter()
        result = clock.call(ROOT, repro.run_experiment, cfg)
    else:
        t1 = time.perf_counter()
        result = repro.run_experiment(cfg)
    call_s = time.perf_counter() - t1

    ports, queues = port_counters(result.metrics)
    profile = result.profile
    obs = {
        "ref_s": ref_s,
        "import_s": import_s,
        "call_s": call_s,
        "loop_wall_s": result.wall_s,
        "sim_ns": result.sim_ns,
        "flow_bytes": sum(f.size_bytes for f in result.flows),
        "events": result.events,
        "flows": result.total,
        "failed_flows": failed_flows(result),
        "tx_pkts": sum(r.get("tx_pkts", 0) for r in ports.values()),
        "rx_pkts": sum(r.get("rx_pkts", 0) for r in ports.values()),
        "drops": result.drops,
        "marks": result.marks,
        "timeouts": result.timeouts,
        "timeouts_small": result.timeouts_small,
        "max_queue_bytes": max(
            (r.get("max_bytes_seen", 0) for r in queues.values()), default=0
        ),
        "heap_hwm": profile.get("heap_hwm", 0),
        "fluid": profile.get("fluid_stats") or {},
        "problems": check_result(result),
        "digest": digest(result),
    }
    if clock is not None:
        obs["layers"] = clock.stats
        # the layers' self times must account for the traced call
        if abs(clock.total_s() - call_s) > 0.01 * call_s:
            obs["problems"].append(
                f"layer self times sum to {clock.total_s():.3f} s of a "
                f"{call_s:.3f} s traced call"
            )
    print(json.dumps(obs))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
