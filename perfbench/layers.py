"""Outside-in layer tracing of one ``run_experiment`` call.

The traced run wraps each layer's public entry points from outside the
package, before ``run_experiment`` builds anything: class attributes for
methods, module globals for functions, and instance attributes on the
objects the public constructors return.  Each wrapper records a span;
:class:`LayerClock` turns the nested spans into per-layer call counts
and self time.

The wrappers only observe.  Hooks are wrapped only where a subclass
overrides them: the port elides hooks inherited from the ``Aqm`` base,
and a wrapped base hook would add calls a plain run never makes.  The
wrap list is resolved from the class hierarchy at start-up, so a class
or module that a later change deletes drops its row instead of failing.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from typing import Callable, Dict, Iterator, List, Tuple

#: layer key of the outermost span, the ``run_experiment`` call itself
ROOT = "harness"

#: every layer key the traced run reports; wrap_targets() resolves them
KEYS = (
    ROOT,
    "sim.run",
    "net.port_receive",
    "net.host_receive",
    "net.host_send",
    "sched.enqueue",
    "sched.dequeue",
    "aqm.hook",
    "transport.on_ack",
    "transport.on_data",
    "transport.start",
    "topo.route",
    "topo.build",
    "fluid.epoch",
    "fluid.solver",
    "workloads.generate",
    "metrics.on_complete",
)


class LayerClock:
    """Call counts and self time per layer key, from nested spans.

    A span's self time is its duration minus the durations of the
    wrapped spans directly inside it, so the self times of all keys add
    up to the outermost span's duration.  A call that re-enters the key
    already on top of the stack (a ``super()`` chain, a scheduler handing
    off to its low-band sub-scheduler) stays inside that span instead of
    opening a second one.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        #: key -> [calls, self_ns]
        self.stats: Dict[str, List[int]] = {k: [0, 0] for k in KEYS}
        # frames are [stat, child_ns]; the base frame absorbs the root span
        self._stack: List[list] = [[None, 0]]

    def wrap(self, key: str, fn: Callable) -> Callable:
        stat = self.stats.setdefault(key, [0, 0])
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if stack[-1][0] is stat:
                return fn(*args, **kwargs)
            frame = [stat, 0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                stat[0] += 1
                stat[1] += elapsed - frame[1]
                stack[-1][1] += elapsed

        return span

    def call(self, key: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` as one span of ``key``."""
        return self.wrap(key, fn)(*args, **kwargs)

    def total_s(self) -> float:
        """Duration of every outermost span: the sum of all self times."""
        return self._stack[0][1] / 1e9


# -- what to wrap ---------------------------------------------------------


def _resolve(path: str):
    """``module:attr`` -> the object, or None when it no longer exists."""
    mod_name, _, attr = path.partition(":")
    try:
        mod = importlib.import_module(mod_name)
    except ImportError:
        return None
    return getattr(mod, attr, None) if attr else mod


def _family(base: type) -> Iterator[type]:
    """``base`` and every subclass of it, each once."""
    seen = set()
    todo = [base]
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.add(cls)
        yield cls
        todo.extend(cls.__subclasses__())


def _own_methods(cls: type, wanted: Callable[[str], bool]) -> Iterator[str]:
    for name, obj in vars(cls).items():
        if inspect.isfunction(obj) and wanted(name):
            yield name


#: (key, base class, method-name predicate, wrap the base class itself)
_METHOD_ROWS: Tuple[Tuple[str, str, Callable[[str], bool], bool], ...] = (
    ("sim.run", "repro.sim.engine:Simulator", lambda n: n == "run", True),
    ("net.port_receive", "repro.net.port:EgressPort", lambda n: n == "receive", True),
    ("net.host_receive", "repro.net.host:Host", lambda n: n == "receive", True),
    ("net.host_send", "repro.net.host:Host", lambda n: n == "send", True),
    ("sched.enqueue", "repro.sched.base:Scheduler", lambda n: n == "enqueue", True),
    ("sched.dequeue", "repro.sched.base:Scheduler", lambda n: n == "dequeue", True),
    (
        "aqm.hook",
        "repro.aqm.base:Aqm",
        lambda n: n in ("on_enqueue", "on_dequeue"),
        False,
    ),
    ("transport.on_ack", "repro.transport.base:SenderBase", lambda n: n == "on_ack", True),
    ("transport.start", "repro.transport.base:SenderBase", lambda n: n == "start", True),
    (
        "transport.on_data",
        "repro.transport.receiver:Receiver",
        lambda n: n == "on_data",
        True,
    ),
    ("topo.route", "repro.net.switch:Switch", lambda n: n == "receive", True),
    (
        "fluid.epoch",
        "repro.sim.fluid.network:FluidNetwork",
        lambda n: n.startswith("on_"),
        True,
    ),
    (
        "workloads.generate",
        "repro.workloads.generator:FlowGenerator",
        lambda n: not n.startswith("_"),
        True,
    ),
    (
        "metrics.on_complete",
        "repro.metrics.fct:FctCollector",
        lambda n: n == "on_complete",
        True,
    ),
)


def wrap_targets() -> List[Tuple[str, object, str]]:
    """``(key, owner, attribute)`` for every entry point present now."""
    targets: List[Tuple[str, object, str]] = []
    for key, path, wanted, with_base in _METHOD_ROWS:
        base = _resolve(path)
        if not isinstance(base, type):
            continue
        for cls in _family(base):
            if cls is base and not with_base:
                continue
            targets.extend((key, cls, name) for name in _own_methods(cls, wanted))
    network = _resolve("repro.sim.fluid.network")
    if network is not None and callable(getattr(network, "max_min_shares", None)):
        targets.append(("fluid.solver", network, "max_min_shares"))
    topo = _resolve("repro.topo")
    for name in getattr(topo, "__all__", ()):
        cls = getattr(topo, name, None)
        if isinstance(cls, type) and "__init__" in vars(cls):
            targets.append(("topo.build", cls, "__init__"))
    return targets


def install(clock: LayerClock) -> None:
    """Wrap every resolved entry point, reporting into ``clock``."""
    switch_cls = _resolve("repro.net.switch:Switch")
    for key, owner, attr in wrap_targets():
        fn = clock.wrap(key, getattr(owner, attr))
        if key == "topo.build" and isinstance(switch_cls, type):
            fn = _wrap_routers_after(fn, clock, switch_cls)
        setattr(owner, attr, fn)


def _wrap_routers_after(init: Callable, clock: LayerClock, switch_cls: type):
    """Also wrap the per-switch ``receive`` a topology installs on instances."""

    @functools.wraps(init)
    def build(topo, *args, **kwargs):
        init(topo, *args, **kwargs)
        for value in vars(topo).values():
            for sw in value if isinstance(value, (list, tuple)) else (value,):
                if isinstance(sw, switch_cls) and "receive" in vars(sw):
                    sw.receive = clock.wrap("topo.route", sw.receive)

    return build
