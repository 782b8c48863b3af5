"""Output checks and the behaviour digest, read from an ExperimentResult.

Everything here reads the result from outside, through fields any caller
of ``repro.run_experiment`` sees: ``completed``/``total``, ``flows`` (id,
size, FCT), the ``metrics`` snapshot (``port.<name>.<field>`` and
``port.<name>.q<i>.<field>`` counters) and ``config.link_rate_bps``.
The tests feed these functions small hand-built results of that shape.
"""

from __future__ import annotations

import hashlib
import json
import re
from typing import Dict, List, Tuple

_QUEUE = re.compile(r"^(.*)\.q(\d+)$")


def port_counters(
    metrics: Dict[str, object],
) -> Tuple[Dict[str, Dict[str, int]], Dict[Tuple[str, int], Dict[str, int]]]:
    """Split ``port.*`` metrics into per-port and per-queue counter rows."""
    ports: Dict[str, Dict[str, int]] = {}
    queues: Dict[Tuple[str, int], Dict[str, int]] = {}
    for name, value in metrics.items():
        if not name.startswith("port.") or isinstance(value, dict):
            continue
        owner, _, fld = name[len("port."):].rpartition(".")
        m = _QUEUE.match(owner)
        if m:
            queues.setdefault((m.group(1), int(m.group(2))), {})[fld] = value
        else:
            ports.setdefault(owner, {})[fld] = value
    return ports, queues


def failed_flows(result) -> int:
    """Flows of the run that did not complete."""
    return sum(1 for f in result.flows if not f.completed)


def check_result(result) -> List[str]:
    """Every violated output law of one run, as readable lines."""
    problems: List[str] = []
    if result.completed != result.total:
        problems.append(f"completed {result.completed} of {result.total} flows")
    ports, queues = port_counters(result.metrics)
    for name, row in sorted(ports.items()):
        tx, drop, rx = row["tx_pkts"], row["dropped_pkts"], row["rx_pkts"]
        if tx + drop > rx:
            problems.append(f"port {name}: tx {tx} + dropped {drop} > rx {rx}")
    for (name, i), row in sorted(queues.items()):
        mk, dq, eq = row["marked_pkts"], row["dequeued_pkts"], row["enqueued_pkts"]
        if not mk <= dq <= eq:
            problems.append(
                f"port {name} q{i}: marked {mk} <= dequeued {dq} <= "
                f"enqueued {eq} fails"
            )
    rate = result.config.link_rate_bps
    for f in result.flows:
        if f.fct_ns is None:
            continue
        floor_ns = f.size_bytes * 8 * 10**9 // rate
        if f.fct_ns < floor_ns:
            problems.append(
                f"flow {f.id}: FCT {f.fct_ns} ns < serialization "
                f"{floor_ns} ns of {f.size_bytes} B"
            )
    return problems


def digest(result) -> str:
    """SHA-256 of the per-flow FCTs and the switch counters."""
    payload = {
        "flows": sorted((f.id, f.size_bytes, f.fct_ns) for f in result.flows),
        "metrics": result.metrics,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
