"""Self-time arithmetic of LayerClock on fixed nested spans."""

import json
import os
import subprocess
import sys

import pytest

from layers import ROOT, LayerClock


class FakeClock:
    """A clock that moves only when the code under test says so."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def work(self, ticks):
        self.now += ticks


def make(clock):
    lc = LayerClock(clock)

    def leaf():
        clock.work(2)

    def inner():
        clock.work(5)
        w_leaf()

    def outer():
        clock.work(10)
        w_inner()
        clock.work(3)
        w_leaf()

    w_leaf = lc.wrap("leaf", leaf)
    w_inner = lc.wrap("inner", inner)
    w_outer = lc.wrap("outer", outer)
    return lc, w_outer


def test_self_time_subtracts_direct_children():
    clock = FakeClock()
    lc, outer = make(clock)
    outer()
    assert lc.stats["outer"] == [1, 13]
    assert lc.stats["inner"] == [1, 5]
    assert lc.stats["leaf"] == [2, 4]
    assert lc._stack == [[None, 22]]


def test_self_times_add_up_to_the_outermost_spans():
    clock = FakeClock()
    lc, outer = make(clock)
    outer()
    clock.work(7)  # unwrapped time between outermost spans is not counted
    outer()
    assert lc.total_s() * 1e9 == pytest.approx(44)
    assert sum(ns for _, ns in lc.stats.values()) == 44


def test_reentering_the_same_key_continues_the_span():
    clock = FakeClock()
    lc = LayerClock(clock)

    def base():
        clock.work(4)

    w_base = lc.wrap("sched", base)

    def derived():
        clock.work(1)
        w_base()  # a super() chain or a delegating sub-scheduler

    lc.wrap("sched", derived)()
    assert lc.stats["sched"] == [1, 5]


def test_a_raising_span_is_still_closed():
    clock = FakeClock()
    lc = LayerClock(clock)

    def boom():
        clock.work(3)
        raise ValueError("x")

    with pytest.raises(ValueError):
        lc.call(ROOT, boom)
    assert lc.stats[ROOT] == [1, 3]
    assert lc._stack == [[None, 3]]


_TRACED_RUN = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import repro
from checks import digest
from layers import ROOT, LayerClock, install
cfg = dict(scheme="tcn", scheduler="sp_dwrr", topology="leafspine", n_leaf=2,
           n_spine=2, hosts_per_leaf=2, workload="mixed",
           workload_clip_bytes=200_000, load=0.5, n_flows=12, seed=3)
plain = digest(repro.run_experiment(repro.ExperimentConfig(**cfg)))
clock = LayerClock()
install(clock)
from repro.aqm.base import Aqm
traced = clock.call(ROOT, repro.run_experiment, repro.ExperimentConfig(**cfg))
print(json.dumps({
    "same": digest(traced) == plain,
    "base_hooks_unwrapped": not hasattr(Aqm.on_dequeue, "__wrapped__"),
    "self_ns": sum(ns for _, ns in clock.stats.values()),
    "total_ns": clock._stack[0][1],
    "calls": {k: v[0] for k, v in clock.stats.items()},
}))
"""


def test_traced_run_is_pure_observation():
    bench = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(os.path.dirname(bench), "src")
    out = subprocess.run(
        [sys.executable, "-c", _TRACED_RUN, bench, src],
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    r = json.loads(out.strip().splitlines()[-1])
    assert r["same"]
    assert r["base_hooks_unwrapped"]
    assert r["self_ns"] == r["total_ns"]
    calls = r["calls"]
    assert calls[ROOT] == 1
    for key in ("sim.run", "net.port_receive", "net.host_receive",
                "sched.dequeue", "aqm.hook", "transport.on_ack",
                "transport.on_data", "topo.route", "topo.build",
                "workloads.generate", "metrics.on_complete"):
        assert calls[key] > 0, key
    assert calls["transport.start"] == 12
    assert calls["metrics.on_complete"] == 12
    assert calls["fluid.epoch"] == calls["fluid.solver"] == 0
