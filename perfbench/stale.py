"""Small random networks with deliberately inconsistent routing tables.

Each network is one link event away from consistency: routers hold a
blend of the FIBs from before and after the event, some advertisements
carry the other snapshot's distance, and preference order is scrambled
among routes whose distances are within one hop of each other.  A few
scripted requests then run under DART with live audits on, so loop
refusals and nack propagation really happen.

Everything is drawn from ``random.Random(f"stale-sweep:{variant}:{index}")``:
the same (variant, index) always gives the same network.  Generation has
two steps.  ``plan`` makes every random choice, including the BFS that
picks the failed link and the scrambled preference orders; it is the
benchmark's own work and is not timed.  ``build`` then makes the network
from the plan with the program's public routing functions only
(``Topology``, ``compute_fibs``, ``override_rankings``,
``inject_stale_distances``), so a measured sweep times the program and not
the generator.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

DURATION_MS = 3000.0
RETRY_TIMEOUT_MS = 5000.0


@dataclass
class Network:
    topology: object
    fibs: Dict[str, object]
    caching: str
    catalog: List[object]
    requests: List[Tuple[float, str, object]]


@dataclass
class Plan:
    """The random choices behind one network; ``build`` turns it into one."""
    routers: Tuple[str, ...]
    links: Dict[Tuple[str, str], float]
    anchors: Dict[object, Tuple[str, ...]]
    failed_link: Optional[Tuple[str, str]]   # None: both snapshots are the full FIBs
    degraded_at: FrozenSet[str]              # routers holding the after-failure FIB
    overrides: List[Tuple[str, object, List[str]]]   # (router, prefix, next-hop order)
    edits: List[Tuple[str, object, str, int]]        # for inject_stale_distances
    caching: str
    catalog: List[object]
    requests: List[Tuple[float, str, object]]


def _hops(adj: Dict[str, List[str]], sources) -> Dict[str, int]:
    dist = {s: 0 for s in sources}
    queue = deque(sources)
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def _adjacency(routers, links) -> Dict[str, List[str]]:
    adj = {r: [] for r in routers}
    for (u, v) in links:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def _topology(routing, model, rng):
    n = rng.randint(6, 12)
    ids = [f"r{i:02d}" for i in range(n)]
    links = {}
    for i in range(1, n):                       # random spanning tree
        j = rng.randrange(i)
        a, b = sorted((ids[i], ids[j]))
        links[(a, b)] = float(rng.randint(5, 40))
    for _ in range(rng.randint(0, n)):          # plus some chords
        a, b = sorted(rng.sample(ids, 2))
        links.setdefault((a, b), float(rng.randint(5, 40)))
    prefixes = [model.Prefix((f"p{k}",)) for k in range(rng.choice((1, 1, 2)))]
    anchors = {p: (a,) for p, a in zip(prefixes, rng.sample(ids, len(prefixes)))}
    return routing.Topology(tuple(ids), links, anchors)


def _event_link(rng, topo):
    """A link whose loss moves no reachable router's distance by more than
    one hop, or None when every link would."""
    adj = _adjacency(topo.routers, topo.links)
    base = {p: _hops(adj, a) for p, a in topo.anchors.items()}
    candidates = sorted(topo.links)
    rng.shuffle(candidates)
    for link in candidates:
        cut = _adjacency(topo.routers, [e for e in topo.links if e != link])
        if all(d <= base[p][r] + 1
               for p, a in topo.anchors.items()
               for r, d in _hops(cut, a).items()):
            return link
    return None


def _near_tie_order(rng, tuples) -> List[str]:
    order = sorted(tuples, key=lambda t: (t.distance, t.next_hop))
    out, i = [], 0
    while i < len(order):
        j = i
        while j < len(order) and order[j].distance == order[i].distance:
            j += 1
        group = order[i:j]
        rng.shuffle(group)
        out.extend(group)
        i = j
    i = 0
    while i < len(out) - 1:
        if abs(out[i].distance - out[i + 1].distance) <= 1 and rng.random() < 0.4:
            out[i], out[i + 1] = out[i + 1], out[i]
            i += 2
        else:
            i += 1
    return [t.next_hop for t in out]


def _blend(routing, rng, topo, full, degraded):
    """(routers on the degraded snapshot, ranking overrides, distance edits)."""
    degraded_at = frozenset(r for r in topo.routers if rng.random() < 0.4)
    fibs = {r: (degraded if r in degraded_at else full)[r] for r in topo.routers}
    overrides = []
    for router in topo.routers:
        for prefix in topo.anchors:
            tuples = fibs[router].entries.get(prefix, ())
            if len(tuples) > 1 and rng.random() < 0.5:
                order = _near_tie_order(rng, tuples)
                overrides.append((router, prefix, order))
                fibs = routing.override_rankings(fibs, router, prefix, order)
    edits = []
    for router in topo.routers:
        for prefix in topo.anchors:
            current = fibs[router].entries.get(prefix, ())
            for snap in (full, degraded):
                alt = {t.next_hop: t.distance for t in snap[router].entries.get(prefix, ())}
                for t in current:
                    if t.next_hop in alt and rng.random() < 0.15:
                        edits.append((router, prefix, t.next_hop, alt[t.next_hop]))
    return degraded_at, overrides, edits


def plan(modules, variant: int, index: int) -> Plan:
    routing, model = modules["routing"], modules["model"]
    rng = random.Random(f"stale-sweep:{variant}:{index}")
    topo = _topology(routing, model, rng)
    full = routing.compute_fibs(topo)
    link = _event_link(rng, topo)
    degraded = full if link is None else routing.compute_fibs(topo, exclude_links=[link])
    degraded_at, overrides, edits = _blend(routing, rng, topo, full, degraded)
    catalog = [model.Name((*p.components, f"o{k}"))
               for p in sorted(topo.anchors) for k in range(3)]
    routers = sorted(topo.routers)
    requests = [(rng.uniform(0.0, 500.0), f"c.{rng.choice(routers)}", rng.choice(catalog))
                for _ in range(rng.randint(2, 5))]
    caching = rng.choice(("none", "edge", "onpath"))
    return Plan(topo.routers, topo.links, topo.anchors, link, degraded_at, overrides,
                edits, caching, catalog, requests)


def build(modules, p: Plan) -> Network:
    """The network of a plan, made by the program's routing functions only."""
    routing = modules["routing"]
    topo = routing.Topology(p.routers, p.links, p.anchors)
    full = routing.compute_fibs(topo)
    degraded = full if p.failed_link is None else routing.compute_fibs(
        topo, exclude_links=[p.failed_link])
    fibs = {r: (degraded if r in p.degraded_at else full)[r] for r in topo.routers}
    for router, prefix, order in p.overrides:
        fibs = routing.override_rankings(fibs, router, prefix, order)
    fibs = routing.inject_stale_distances(fibs, p.edits)
    return Network(topo, fibs, p.caching, p.catalog, p.requests)


def simulate(modules, net: Network):
    """One network through the public engine entry point, audits on."""
    return modules["engine"].run(
        net.topology, net.fibs, "dart", net.caching, requests=net.requests,
        catalog=net.catalog, audits=True, duration_ms=DURATION_MS,
        retry_timeout_ms=RETRY_TIMEOUT_MS)
