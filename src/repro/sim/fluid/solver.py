"""Max-min fair share solver: progressive water-filling.

The classical fluid abstraction of long-lived TCP: every flow gets the
largest rate such that no flow can be increased without decreasing a
smaller one.  DCTCP converges to exactly this allocation (its marking
law equalises windows among flows sharing a bottleneck), which is why
the fluid engine can state a flow's steady-state goodput in closed form
instead of simulating 17k packets to discover it.

The solver is deliberately pure: plain sequences in, plain lists out,
no simulator state — so it is unit-testable against analytic shares and
trivially deterministic (each round freezes the link with the smallest
fair share, ties picking the lowest index; all arithmetic is IEEE-754
double, identical on every platform).

Rounds pick that link from a lazy min-heap of ``(share, link)`` entries
rather than rescanning every link: a round re-pushes only the links its
frozen flows cross, and a popped entry whose share no longer matches
the link's current ``cap_left / count`` is stale and dropped.  A solve
therefore costs O(path hops × log links) instead of O(rounds × links).
"""

from __future__ import annotations

import heapq  # simlint: disable=SIM011 -- ranks link fair shares inside one solve, not events by time; never touches the event queue
from typing import List, Sequence, Set, Tuple


def max_min_shares(
    capacities: Sequence[float],
    paths: Sequence[Sequence[int]],
) -> Tuple[List[float], Set[int], int]:
    """Water-fill ``len(paths)`` flows over ``len(capacities)`` links.

    ``capacities`` are link rates in bits/s; ``paths`` give, per flow,
    the link indices it crosses (each must be non-empty — every real
    flow crosses at least its sender's NIC).

    Returns ``(rates_bps, bottleneck_links, iterations)``:

    * ``rates_bps`` — the max-min fair rate of each flow;
    * ``bottleneck_links`` — the links whose capacity the allocation
      exhausts (each water-filling round freezes one);
    * ``iterations`` — water-filling rounds executed (at most the
      number of distinct bottleneck links), reported up into
      ``fluid_stats`` so epoch cost stays observable.

    >>> max_min_shares([10.0], [[0], [0]])[0]
    [5.0, 5.0]
    >>> rates, bn, _ = max_min_shares([10.0, 4.0], [[0], [0, 1]])
    >>> rates
    [6.0, 4.0]
    >>> sorted(bn)
    [0, 1]
    """
    n_links = len(capacities)
    n_flows = len(paths)
    rates = [0.0] * n_flows
    if not n_flows:
        return rates, set(), 0
    cap_left = [float(c) for c in capacities]
    counts = [0] * n_links
    link_flows: List[List[int]] = [[] for _ in range(n_links)]
    for f, path in enumerate(paths):
        if not path:
            raise ValueError(f"flow {f} has an empty path")
        for li in path:
            counts[li] += 1
            link_flows[li].append(f)
    heap = [(cap_left[li] / c, li) for li, c in enumerate(counts) if c]
    heapq.heapify(heap)
    frozen = [False] * n_flows
    #: round in which each link was last queued for a fresh heap entry
    touched_in = [0] * n_links
    bottlenecks: Set[int] = set()
    unfrozen = n_flows
    iterations = 0
    while unfrozen:
        iterations += 1
        best = -1
        fair = 0.0
        while heap:
            share, li = heapq.heappop(heap)
            c = counts[li]
            if c and share == cap_left[li] / c:
                best = li
                fair = share
                break
        if best < 0:  # pragma: no cover - unreachable while unfrozen > 0
            break
        if fair < 0.0:
            fair = 0.0
        bottlenecks.add(best)
        touched: List[int] = []
        for f in link_flows[best]:
            if frozen[f]:
                continue
            frozen[f] = True
            unfrozen -= 1
            rates[f] = fair
            for li in paths[f]:
                cap_left[li] -= fair
                counts[li] -= 1
                if touched_in[li] != iterations:
                    touched_in[li] = iterations
                    touched.append(li)
        for li in touched:
            c = counts[li]
            if c:
                heapq.heappush(heap, (cap_left[li] / c, li))
    return rates, bottlenecks, iterations
