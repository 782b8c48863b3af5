"""Run one benchmark workload and print its metrics as JSON.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fabric --seed 1 --seconds 38 --trace 0
    python3 perfbench/run.py --workload all --seconds 5

Every timed run is ``child.py`` in a fresh interpreter, started one at a
time, with every ``REPRO_*`` variable cleared.  ``--trace 0`` cycles
through the workload's traffic draws (see ``workloads.py``) until
``--seconds`` have passed, then prints the end-to-end metrics: the
batch's work over the sum of each draw's median call time, in reference
seconds (see ``_scaled``).  ``--trace 1`` alternates plain and traced
runs of the first draw and prints the per-layer metrics.  Both check
every run's outputs and that repeats of a draw give one digest.
The last line of standard output is one JSON object; ``--workload all``
instead prints every metric of every workload as a table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, NamedTuple, Optional

from workloads import DEFAULT_SEED, WORKLOADS, input_seeds

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: a run stops starting children this long after it began, so that it
#: ends within three minutes even when a child runs slow
HARD_LIMIT_S = 165.0
#: ``child.reference_s`` at the usual speed of the 2-vCPU Xeon VM the
#: benchmark was tuned on; one reference second is this loop's time / this
REF_NOMINAL_S = 0.3


class Child(NamedTuple):
    """One finished child run: its observation, or why it has none."""

    draw: int
    traced: bool
    obs: Optional[dict]
    rss_mb: float
    error: str = ""


def child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: List[str], timeout_s: float) -> tuple:
    """Run child.py; returns (parsed last stdout line or None, peak RSS MB,
    error text).  The child's rusage comes from wait4, so the RSS peak
    is that one process's own."""
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), *args],
        stdout=subprocess.PIPE, env=child_env(), cwd=ROOT,
    )
    watchdog = threading.Timer(max(timeout_s, 1.0), proc.kill)
    watchdog.start()
    try:
        out = proc.stdout.read().decode(errors="replace")
    finally:
        watchdog.cancel()
        watchdog.join()
        proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    rss_mb = usage.ru_maxrss / 1024.0  # Linux reports KiB
    if proc.returncode != 0:
        return None, rss_mb, f"child exited with {proc.returncode}"
    lines = out.strip().splitlines()
    try:
        return json.loads(lines[-1]), rss_mb, ""
    except (IndexError, ValueError):
        return None, rss_mb, "child printed no result"


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def preflight() -> Optional[str]:
    """Why this directory cannot run the benchmark, or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        return f"no repro package under {os.path.join(ROOT, 'src')}"
    if not os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")):
        return "no BENCHMARK.json at the checkout root"
    obs, _, err = run_child(["--import-only"], 60.0)
    if obs is None:
        return f"cannot import repro: {err}"
    return None


def plan(workload: str, trace: bool):
    """Yield (draw, traced) jobs: first the minimum set, then more until
    the caller stops asking."""
    n = WORKLOADS[workload].inputs
    if trace:
        yield from ((0, False), (0, True), (0, False))
        while True:
            yield from ((0, True), (0, False))
    yield from ((i, False) for i in range(n))
    yield (0, False)  # a repeat within the minimum set checks determinism
    i = 1
    while True:
        yield (i % n, False)
        i += 1


def collect(workload: str, seed: int, seconds: float, trace: bool) -> List[Child]:
    seeds = input_seeds(seed, WORKLOADS[workload].inputs)
    min_jobs = 3 if trace else WORKLOADS[workload].inputs + 1
    start = time.monotonic()
    children: List[Child] = []
    longest = {False: 0.0, True: 0.0}
    for k, (draw, traced) in enumerate(plan(workload, trace)):
        now = time.monotonic() - start
        if k >= min_jobs and now >= seconds:
            break
        if now + longest[traced] > HARD_LIMIT_S:
            break
        args = ["--workload", workload, "--input-seed", str(seeds[draw])]
        if traced:
            args.append("--trace")
        t0 = time.monotonic()
        obs, rss_mb, err = run_child(args, HARD_LIMIT_S + 10.0 - now)
        longest[traced] = max(longest[traced], time.monotonic() - t0)
        children.append(Child(draw, traced, obs, rss_mb, err))
    return children


def judge(children: List[Child], n_flows: int) -> tuple:
    """(attempted flows, failed flows, problem lines, digest per draw).

    A flow fails when it did not complete; every flow of a run fails
    when the run crashed, broke an output law, or disagreed with the
    digest of the first run of its draw."""
    attempted = failed = 0
    problems: List[str] = []
    digests: Dict[int, str] = {}
    for c in children:
        attempted += n_flows
        tag = f"draw {c.draw}{' traced' if c.traced else ''}"
        if c.obs is None:
            failed += n_flows
            problems.append(f"{tag}: {c.error}")
            continue
        first = digests.setdefault(c.draw, c.obs["digest"])
        bad = list(c.obs["problems"])
        if c.obs["digest"] != first:
            bad.append(f"digest {c.obs['digest'][:16]} != {first[:16]}")
        if bad:
            failed += n_flows
            problems.extend(f"{tag}: {p}" for p in bad)
        else:
            failed += c.obs["failed_flows"]
    return attempted, failed, problems, digests


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(children: List[Child]) -> Dict[str, float]:
    """Throughput of the whole batch of draws: their work over the sum of
    each draw's median call time, in reference seconds.  Set-up and RSS
    are medians over runs."""
    per_draw: Dict[int, List[tuple]] = {}
    for c, scale in _scaled(children):
        per_draw.setdefault(c.draw, []).append((c, scale))
    if not per_draw:
        return {}
    batch_s = sum(
        _median([c.obs["call_s"] * k for c, k in runs]) for runs in per_draw.values()
    )
    firsts = [runs[0][0].obs for runs in per_draw.values()]
    runs = [run for draw_runs in per_draw.values() for run in draw_runs]
    return {
        "pkt_hops_per_s": sum(o["tx_pkts"] for o in firsts) / batch_s,
        "flow_mb_per_s": sum(o["flow_bytes"] for o in firsts) / 1e6 / batch_s,
        "setup_s": _median([setup_s(c.obs) * k for c, k in runs]),
        "rss_peak_mb": _median([c.rss_mb for c, _ in runs]),
    }


def _scaled(children: List[Child]):
    """Each plain run with the scale from its wall to reference seconds.

    On a shared VM one CPU can run Python 25-40% slower for seconds to
    minutes at a time.  Each child times a fixed loop on its CPU before
    it imports repro (``child.reference_s``).  A run's scale is
    ``REF_NOMINAL_S`` over the mean of its own reference time and the
    next child's, which bracket the run."""
    for i, c in enumerate(children):
        if c.obs is None or c.traced:
            continue
        after = next(
            (n.obs["ref_s"] for n in children[i + 1:i + 2] if n.obs is not None),
            c.obs["ref_s"],
        )
        yield c, REF_NOMINAL_S / ((c.obs["ref_s"] + after) / 2)


def setup_s(obs: dict) -> float:
    """``import repro`` plus the part of the call outside the run loop."""
    return obs["import_s"] + obs["call_s"] - obs["loop_wall_s"]


def per_layer(children: List[Child], attempted: int, failed: int) -> Dict[str, float]:
    plain = [c.obs for c in children if c.obs is not None and not c.traced]
    traced = [c.obs for c in children if c.obs is not None and c.traced]
    if not plain or not traced:
        return {}
    base = traced[0]
    wall = _median([o["call_s"] for o in plain])
    traced_wall = _median([o["call_s"] for o in traced])
    events = base["events"]
    hops = base["tx_pkts"]

    def calls(key: str) -> int:
        return base["layers"][key][0]

    def self_s(key: str) -> float:
        return _median([o["layers"][key][1] / 1e9 for o in traced])

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m: Dict[str, float] = {
        "wall_s": wall,
        "sim_ns_per_s": ratio(_median([o["sim_ns"] for o in plain]), wall),
        "sim.events": events,
        "sim.events_per_hop": ratio(events, hops),
        "sim.heap_hwm": base["heap_hwm"],
        "sim.events_per_s": ratio(events, wall),
        "sim.run.self_s": self_s("sim.run"),
        "sim.run.self_frac": ratio(self_s("sim.run"), traced_wall),
        "net.tx_pkts": hops,
        "net.drops": base["drops"],
        "net.drop_frac": ratio(base["drops"], base["rx_pkts"]),
        "net.max_queue_bytes": base["max_queue_bytes"],
        "sched.dequeue_per_hop": ratio(calls("sched.dequeue"), hops),
        "aqm.marks": base["marks"],
        "aqm.mark_frac": ratio(base["marks"], calls("sched.dequeue")),
        "transport.timeouts": base["timeouts"],
        "transport.timeouts_small": base["timeouts_small"],
        "harness.self_s": self_s("harness"),
        "fluid.epochs": base["fluid"].get("epochs", 0),
        "fluid.solver_iterations": base["fluid"].get("solver_iterations", 0),
        "fluid.flows": base["fluid"].get("flows", 0),
        "trace.overhead_frac": ratio(traced_wall, wall) - 1.0,
        "flows_failed_frac": ratio(failed, attempted),
    }
    for key in base["layers"]:
        m[f"{key}.calls"] = calls(key)
        m[f"{key}.self_s"] = self_s(key)
        m[f"{key}.per_event"] = ratio(calls(key), events)
    return m


def measure(workload: str, seed: int, seconds: float, trace: bool, spec: dict):
    """Run one workload; returns (result object, report lines)."""
    children = collect(workload, seed, seconds, trace)
    n_flows = int(WORKLOADS[workload].config["n_flows"])
    attempted, failed, problems, digests = judge(children, n_flows)
    lines = [
        f"# {workload} seed {seed}: {len(children)} runs, "
        f"{sum(c.traced for c in children)} traced"
    ]
    for c in children:
        o = c.obs or {}
        lines.append(
            f"#   draw {c.draw}{' traced' if c.traced else ''}: "
            f"call {o.get('call_s', float('nan')):.3f} s, "
            f"ref {o.get('ref_s', float('nan')):.3f} s, "
            f"rss {c.rss_mb:.1f} MB, events {o.get('events', 0)}, "
            f"hops {o.get('tx_pkts', 0)}, digest {o.get('digest', '-')[:16]}"
        )
    seeds = input_seeds(seed, WORKLOADS[workload].inputs)
    for draw, dig in sorted(digests.items()):
        lines.append(f"# digest {workload} input-seed {seeds[draw]}: {dig}")
    lines.extend(f"# CHECK FAILED {p}" for p in problems)
    values = (
        per_layer(children, attempted, failed) if trace else end_to_end(children)
    )
    wanted = spec["per_layer" if trace else "end_to_end"]
    if not values or any(m["name"] not in values for m in wanted):
        return None, lines
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in wanted
        },
    }
    return result, lines


def host_lines() -> List[str]:
    cleared = sorted(k for k in os.environ if k.startswith("REPRO_"))
    return [
        f"# python {platform.python_version()}, nproc {os.cpu_count()}, "
        f"loadavg1 {os.getloadavg()[0]:.2f}",
        "# cleared for children: "
        + (", ".join(f"{k}={os.environ[k]}" for k in cleared) or "no REPRO_* set"),
    ]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    why_not = preflight()
    if why_not is not None:
        print(f"perfbench: {why_not}", file=sys.stderr)
        return 2
    spec = load_spec()
    for line in host_lines():
        print(line, flush=True)

    if args.workload != "all":
        result, lines = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), spec
        )
        print("\n".join(lines), flush=True)
        if result is None:
            print("perfbench: no successful run to measure", file=sys.stderr)
            return 1
        print(json.dumps(result))
        return 0

    all_correct = True
    for name in sorted(WORKLOADS):
        for trace in (False, True):
            result, lines = measure(name, args.seed, args.seconds, trace, spec)
            print("\n".join(lines), flush=True)
            if result is None:
                print(f"{name}: no successful run to measure", flush=True)
                all_correct = False
                continue
            all_correct &= result["correct"]
            print(f"{name}  correct={result['correct']}  "
                  f"failed={result['failed']}/{result['attempted']} flows")
            for metric, v in result["metrics"].items():
                print(f"{name:13s} {metric:28s} {v['value']:>16.6g} {v['unit']}")
    print("all outputs correct" if all_correct else "SOME OUTPUTS INCORRECT")
    return 0 if all_correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
