"""Topology plus an omniscient control plane.

The control plane is deliberately boring: it sees the whole graph and hands
every router a ranked list of (next hop, distance, anchor) tuples per
advertised prefix.  Forwarding-plane experiments then perturb those tables
(stale distances, forced rankings, mixed snapshots) without touching the
routers themselves.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from .model import Name, Prefix


class TopologyError(Exception):
    pass


@dataclass(frozen=True, eq=False)
class Topology:
    """Static undirected graph with per-link delays and content anchors.

    ``links`` keys are (u, v) with u < v; delays are milliseconds.  The graph
    must be connected — partitions are modelled by giving routers stale or
    excluded routing state, not by cutting the simulated wires.
    """

    routers: Tuple[str, ...]
    links: Dict[Tuple[str, str], float]
    anchors: Dict[Prefix, Tuple[str, ...]] = field(default_factory=dict)
    neighbors: Dict[str, Tuple[str, ...]] = field(init=False)

    def __post_init__(self):
        if not self.routers:
            raise TopologyError("no routers")
        if len(set(self.routers)) != len(self.routers):
            raise TopologyError("duplicate router ids")
        known = set(self.routers)
        adj: Dict[str, List[str]] = {r: [] for r in self.routers}
        for (u, v), delay in self.links.items():
            if u not in known or v not in known:
                raise TopologyError(f"link endpoint unknown: {(u, v)}")
            if not u < v:
                raise TopologyError(f"link key must be ordered (u < v): {(u, v)}")
            # NaN fails the comparison too
            if not 0 < delay < math.inf:
                raise TopologyError(f"delay on {(u, v)} must be > 0 and finite, got {delay}")
            adj[u].append(v)
            adj[v].append(u)
        object.__setattr__(
            self, "neighbors", {r: tuple(sorted(adj[r])) for r in self.routers}
        )
        # connectivity
        seen = {self.routers[0]}
        stack = [self.routers[0]]
        while stack:
            for n in self.neighbors[stack.pop()]:
                if n not in seen:
                    seen.add(n)
                    stack.append(n)
        if len(seen) != len(self.routers):
            raise TopologyError(f"graph not connected ({len(seen)}/{len(self.routers)} reachable)")
        fixed = {}
        for prefix, routers in self.anchors.items():
            if not routers:
                raise TopologyError(f"prefix {prefix} has no anchor")
            for r in routers:
                if r not in known:
                    raise TopologyError(f"anchor router unknown: {r}")
            fixed[prefix] = tuple(sorted(set(routers)))
        object.__setattr__(self, "anchors", fixed)

    def delay(self, u: str, v: str) -> float:
        return self.links[(u, v) if u < v else (v, u)]

    def with_anchors(self, anchors: Dict[Prefix, Tuple[str, ...]]) -> "Topology":
        return Topology(self.routers, dict(self.links), dict(anchors))


# draws of a geometric graph before generate_topology gives up
MAX_ATTEMPTS = 200


def generate_topology(node_count: int, area_side: float, link_radius: float,
                      link_delay_ms: float, seed) -> Topology:
    """Random geometric graph: scatter nodes in a square, link pairs within
    radius, resample until connected."""
    width = max(2, len(str(node_count - 1)))
    ids = [f"n{i:0{width}d}" for i in range(node_count)]
    for attempt in range(MAX_ATTEMPTS):
        rng = random.Random(f"topology:{seed}:{attempt}")
        pos = {r: (rng.uniform(0, area_side), rng.uniform(0, area_side)) for r in ids}
        links = {}
        for i, u in enumerate(ids):
            ux, uy = pos[u]
            for v in ids[i + 1:]:
                vx, vy = pos[v]
                if math.dist((ux, uy), (vx, vy)) <= link_radius:
                    links[(u, v)] = link_delay_ms
        try:
            return Topology(tuple(ids), links)
        except TopologyError:
            continue
    raise TopologyError(
        f"no connected geometric graph in {MAX_ATTEMPTS} attempts "
        f"(n={node_count}, area={area_side}, radius={link_radius})")


@dataclass(frozen=True, slots=True)
class FibTuple:
    next_hop: str
    distance: int  # hops to the nearest anchor when leaving via next_hop
    anchor: str


class Fib:
    """Per-router forwarding table: prefix -> FibTuples, most preferred first.

    Lookup is longest-prefix match, probing component counts from longest to
    shortest against a dict per length.
    """

    def __init__(self, entries: Dict[Prefix, Tuple[FibTuple, ...]]):
        self.entries = dict(entries)
        by_len: Dict[int, Dict[Prefix, Tuple[FibTuple, ...]]] = {}
        for prefix, tuples in self.entries.items():
            by_len.setdefault(len(prefix), {})[prefix] = tuples
        self._probe = sorted(by_len.items(), key=lambda kv: -kv[0])

    def lookup(self, name: Name) -> Optional[Tuple[FibTuple, ...]]:
        for length, table in self._probe:
            hit = table.get(name[:length])
            if hit is not None:
                return hit
        return None


def compute_fibs(topology: Topology,
                 exclude_links: Iterable[Tuple[str, str]] = ()) -> Dict[str, Fib]:
    """Shortest-path FIBs for every router and advertised prefix.

    Distances are hop counts to the nearest anchor of the prefix (ties go to
    the lexicographically lowest anchor id).  Every neighbour that can still
    reach an anchor gets a tuple, ranked by (distance, neighbour id) — the
    table keeps the bad choices too, so forwarding policy decides what a
    second-best path is worth.

    ``exclude_links`` drops edges from the control plane's view only: use it
    to build the table a router *would* have had before/after a link event.
    """
    excluded = {(u, v) if u < v else (v, u) for u, v in exclude_links}
    adj: Dict[str, List[str]] = {r: [] for r in topology.routers}
    for (u, v) in topology.links:
        if (u, v) in excluded:
            continue
        adj[u].append(v)
        adj[v].append(u)
    for r in adj:
        adj[r].sort()

    fibs: Dict[str, Dict[Prefix, Tuple[FibTuple, ...]]] = {r: {} for r in topology.routers}
    for prefix in sorted(topology.anchors):
        # multi-source Dijkstra over unit weights, keyed (distance, anchor id)
        best: Dict[str, Tuple[int, str]] = {}
        heap = [(0, a, a) for a in topology.anchors[prefix]]
        heapq.heapify(heap)
        while heap:
            d, anchor, node = heapq.heappop(heap)
            if node in best and best[node] <= (d, anchor):
                continue
            best[node] = (d, anchor)
            for n in adj[node]:
                if n not in best or best[n] > (d + 1, anchor):
                    heapq.heappush(heap, (d + 1, anchor, n))
        for r in topology.routers:
            reachable = [(best[v][0] + 1, v, best[v][1]) for v in adj[r] if v in best]
            if not reachable:
                continue
            reachable.sort()
            fibs[r][prefix] = tuple(FibTuple(v, dist, anchor) for dist, v, anchor in reachable)
    return {r: Fib(table) for r, table in fibs.items()}


def _replace(fibs: Dict[str, Fib], router: str, prefix: Prefix,
             tuples: Tuple[FibTuple, ...]) -> Dict[str, Fib]:
    table = dict(fibs[router].entries)
    table[prefix] = tuples
    out = dict(fibs)
    out[router] = Fib(table)
    return out


def override_rankings(fibs: Dict[str, Fib], router: str, prefix: Prefix,
                      order: List[str]) -> Dict[str, Fib]:
    """Pure: new FIB set where ``router``'s tuples for ``prefix`` are
    re-ranked to the given next-hop order (distances untouched)."""
    current = {t.next_hop: t for t in fibs[router].entries[prefix]}
    if set(order) != set(current) or len(order) != len(current):
        raise ValueError(f"order must be a permutation of {sorted(current)}")
    return _replace(fibs, router, prefix, tuple(current[nh] for nh in order))


def inject_stale_distances(fibs: Dict[str, Fib],
                           edits: Iterable[Tuple[str, Prefix, str, int]]
                           ) -> Dict[str, Fib]:
    """Pure: new FIB set where the edited tuples advertise different
    distances, as if some routers had not yet processed a routing update.
    Each edit is (router, prefix, next_hop, new_distance).  The tuples are
    deliberately NOT re-sorted — a router acting on stale advertisements
    has no reason to have re-ranked them yet."""
    out = fibs
    for router, prefix, next_hop, distance in edits:
        current = out[router].entries.get(prefix, ())
        if not any(t.next_hop == next_hop for t in current):
            raise ValueError(f"{router} has no tuple via {next_hop} for {prefix}")
        tuples = tuple(FibTuple(next_hop, distance, t.anchor) if t.next_hop == next_hop else t
                       for t in current)
        out = _replace(out, router, prefix, tuples)
    return out


def dump_fibs(fibs: Dict[str, Fib]) -> List[str]:
    lines = []
    for router in sorted(fibs):
        entries = fibs[router].entries
        for prefix in sorted(entries):
            for rank, t in enumerate(entries[prefix], start=1):
                lines.append(f"fib {router} {prefix} {rank} {t.next_hop} {t.distance} {t.anchor}")
    return lines
