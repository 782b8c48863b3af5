"""Assembling a :class:`FluidNetwork` from an experiment.

``split_flows`` applies the mode/threshold policy (which generated flows
are promoted to fluid), and ``build_fluid_network`` walks each promoted
flow's forward path through the topology — via the topologies'
``fluid_path`` hook — building one :class:`FluidLink` per traversed
:class:`~repro.net.port.EgressPort` (ECMP keeps a flow, and its fluid
abstraction, on a single deterministic path).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.sim.fluid.model import FluidFlow, FluidLink
from repro.sim.fluid.network import FluidNetwork
from repro.units import ACK_SIZE, HEADER, MSS, SEC

if TYPE_CHECKING:  # pragma: no cover - annotation-only
    from repro.harness.config import ExperimentConfig
    from repro.metrics.fct import FctCollector
    from repro.net.port import EgressPort
    from repro.obs.spans import SpanRecorder
    from repro.sim.engine import Simulator
    from repro.transport.flow import Flow

    # both topologies satisfy this shape; a Protocol would be overkill
    # for two call sites
    from repro.topo.leafspine import LeafSpineTopology
    from repro.topo.star import StarTopology
    from typing import Union

    Topology = Union[StarTopology, LeafSpineTopology]

_BITS_NS = 8 * SEC

#: Goodput share of the line rate the packet engine can actually
#: deliver: every MSS of payload costs ``MSS + HEADER`` wire bytes in
#: the data direction plus one ``ACK_SIZE`` pure ACK riding the reverse
#: direction — which, under the symmetric traffic the fluid scenarios
#: model (all-to-all), shares the same links.  1460/1540 ~= 0.948.
#: For strictly one-way patterns the true ceiling is MSS/(MSS+HEADER)
#: (~0.973) and this factor under-grants by ~2.6% — a documented error
#: bound, not a tuning knob (see docs/FLUID.md).
GOODPUT_FACTOR = MSS / (MSS + HEADER + ACK_SIZE)


def split_flows(
    cfg: "ExperimentConfig", flows: Sequence["Flow"]
) -> Tuple[List["Flow"], List["Flow"]]:
    """Partition generated flows into (packet, fluid) per ``cfg.mode``.

    ``packet`` keeps everything packet-exact; ``fluid`` promotes every
    flow; ``hybrid`` promotes flows of at least ``fluid_size_bytes`` —
    the long-lived transfers whose steady state the fluid model
    describes — and leaves the latency-sensitive short flows on the
    packet engine.
    """
    mode = cfg.mode
    if mode == "packet":
        return list(flows), []
    if mode == "fluid":
        return [], list(flows)
    threshold = cfg.fluid_size_bytes
    packet: List["Flow"] = []
    fluid: List["Flow"] = []
    for flow in flows:
        (fluid if flow.size_bytes >= threshold else packet).append(flow)
    return packet, fluid


def standing_queue_delay_ns(cfg: "ExperimentConfig", rate_bps: int) -> int:
    """The queueing delay a saturated link's AQM standing queue adds.

    DCTCP fluid load holds the bottleneck queue at the marking
    threshold; packets crossing that link wait the threshold's drain
    time behind it.  Sojourn-threshold schemes state that delay
    directly; byte-threshold schemes divide by the line rate; droptail
    (no AQM) lets the buffer itself fill.
    """
    scheme = cfg.scheme
    if scheme in ("tcn", "pie"):
        return cfg.effective_tcn_threshold_ns
    if scheme == "codel":
        return cfg.effective_codel_target_ns
    if scheme == "droptail":
        return cfg.buffer_bytes * _BITS_NS // rate_bps
    # queue-length-threshold family: red_std, dequeue_red, perport_red,
    # mqecn, ideal
    return cfg.effective_red_threshold_bytes * _BITS_NS // rate_bps


def build_fluid_network(
    sim: "Simulator",
    cfg: "ExperimentConfig",
    topo: "Topology",
    flows: Sequence["Flow"],
    collector: "FctCollector",
    spans: Optional["SpanRecorder"] = None,
    hybrid: bool = False,
) -> FluidNetwork:
    """Build the fluid engine for the promoted ``flows``.

    ``hybrid`` arms the port coupling (residual rates, standing-queue
    delay, marking) and the packet-throughput measurement tick; leave
    it False when no packet flows share the fabric.
    """
    links: List[FluidLink] = []
    index_of: Dict[int, int] = {}
    fluid_flows: List[FluidFlow] = []
    for flow in flows:
        hops: List[Tuple["EgressPort", int]] = topo.fluid_path(flow)
        path: List[int] = []
        path_delay = 0
        for port, delay_ns in hops:
            li = index_of.get(id(port))
            if li is None:
                li = len(links)
                index_of[id(port)] = li
                links.append(
                    FluidLink(
                        port,
                        port.rate_bps * GOODPUT_FACTOR,
                        delay_ns,
                        standing_queue_delay_ns(cfg, port.rate_bps),
                    )
                )
            if li in path:
                # FluidNetwork's per-link sums count every occurrence
                raise ValueError(
                    f"flow {flow.id}: fluid path crosses {port.name} twice"
                )
            path.append(li)
            path_delay += delay_ns
        fluid_flows.append(FluidFlow(flow, tuple(path), path_delay))
    return FluidNetwork(
        sim,
        fluid_flows,
        links,
        collector,
        spans=spans,
        hybrid=hybrid,
        tick_ns=4 * cfg.base_rtt_ns if hybrid else 0,
    )
