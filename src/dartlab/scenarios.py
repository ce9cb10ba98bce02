"""Scripted micro-scenarios with pinned expectations.

Three small fixtures exercise the behaviours that matter at human scale
before anything runs at desk scale:

* ``fig1-rankloop`` — stale distances put a worse-ranked neighbour first,
  yet the interest still walks a simple strictly-shrinking path to the
  anchor and back.
* ``fig1-stale``   — distances so stale that no neighbour offers forward
  progress: DART refuses with loop nacks that reach both consumers, while
  the nonce baseline leaves interests parked in PITs until they expire and
  the consumers give up.
* ``fig2-sharing`` — route state is per (predecessor, token) leg, so many
  consumers and a second wave of objects ride existing legs without the
  tables growing.

Each scenario returns a ScenarioResult; nothing is asserted with bare
``assert`` so the CLI can dump the trace on failure instead of dying.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

from .engine import Scheme, World, _Simulation
from .model import CachingMode, Name, Prefix
from .routing import (
    Topology,
    compute_fibs,
    dump_fibs,
    inject_stale_distances,
    override_rankings,
)

P = Prefix.parse("/p")
OBJ = Name.parse("/p/0")
OBJ2 = Name.parse("/p/1")
DELAY = 15.0


@dataclass
class ScenarioResult:
    name: str
    passed: bool
    lines: List[str]  # one "ok ..."/"FAIL ..." line per check
    trace: List[str] = field(default_factory=list)


class _Checks:
    def __init__(self):
        self.lines: List[str] = []
        self.ok = True

    def check(self, label: str, cond: bool, detail=""):
        if cond:
            self.lines.append(f"ok   {label}")
        else:
            self.ok = False
            self.lines.append(f"FAIL {label}" + (f": {detail}" if detail != "" else ""))

    def equal(self, label: str, got, want):
        self.check(label, got == want, f"got {got!r}, want {want!r}")


def _simulate(topo, fibs, scheme, requests, consumers, *, caching="none",
              duration_ms=1000.0, **kw):
    buf = io.StringIO()
    sim = _Simulation(World.build(topo, fibs, [OBJ, OBJ2]), scheme, CachingMode(caching),
                      requests=requests, consumers=consumers, duration_ms=duration_ms,
                      trace=buf, warmup_fraction=0.0, **kw)
    report = sim.run()
    return sim, report, buf.getvalue().splitlines()


def request_paths(trace: Sequence[str]) -> List[Tuple[Tuple[str, ...], Tuple[str, ...]]]:
    """(Interest path, Data path) for each Interest a consumer hands its
    router, read back from trace lines.  The Interest path is that router,
    then each router an Interest is sent to; the Data path is each router
    that sends a Data.  Valid only when requests do not overlap in time:
    every packet of one request is traced before the next request starts."""
    fields = [line.split() for line in trace]
    routers = {f[1] for f in fields}  # consumers only ever appear as peers
    out = []
    for _, router, direction, kind, *_, peer in fields:
        peer = peer[len("peer="):]
        if direction == "RX" and kind == "INT" and peer not in routers:
            out.append(([router], []))
        elif direction == "TX" and kind == "INT":
            out[-1][0].append(peer)
        elif direction == "TX" and kind == "DATA":
            out[-1][1].append(router)
    return [(tuple(i), tuple(d)) for i, d in out]


def _interest_budgets(trace: List[str]) -> List[int]:
    out = []
    for line in trace:
        parts = line.split()
        if parts[2] == "TX" and parts[3] == "INT":
            h = parts[5].split("=", 1)[1]
            if h != "-":
                out.append(int(h))
    return out


# --- shared fig1 fixture -----------------------------------------------------

def _fig1_topology() -> Topology:
    edges = [("y", "a"), ("x", "a"), ("x", "b"), ("a", "b"), ("a", "p"),
             ("b", "q"), ("q", "u"), ("u", "z"), ("p", "m"), ("m", "w"),
             ("w", "z")]
    links = {tuple(sorted(e)): DELAY for e in edges}
    routers = tuple(sorted({r for e in edges for r in e}))
    return Topology(routers, links, {P: ("z",)})


def _fig1_fibs(topo):
    """Partially converged tables: a and b still believe x's detour route
    is real, and b has been configured to prefer it."""
    fibs = compute_fibs(topo)
    fibs = inject_stale_distances(fibs, [("a", P, "x", 6),
                                         ("x", P, "b", 5),
                                         ("b", P, "x", 6)])
    fibs = override_rankings(fibs, "b", P, ["x", "a", "q"])
    return fibs


def fig1_rankloop() -> ScenarioResult:
    topo = _fig1_topology()
    fibs = _fig1_fibs(topo)
    c = _Checks()

    lines = set(dump_fibs(fibs))
    for want in ["fib a /p 1 b 4 z", "fib a /p 3 x 6 z", "fib b /p 1 x 6 z",
                 "fib b /p 2 a 5 z", "fib b /p 3 q 3 z", "fib x /p 1 b 5 z",
                 "fib x /p 2 a 5 z", "fib y /p 1 a 5 z"]:
        c.check(f"fixture has {want!r}", want in lines)

    sim, rep, trace = _simulate(topo, fibs, Scheme.DART,
                                requests=[(0.0, "cons.y", OBJ)],
                                consumers={"cons.y": "y"})
    paths = request_paths(trace)
    c.equal("interest path", [i for i, _ in paths], [("y", "a", "b", "q", "u", "z")])
    c.equal("data path retraces it", [d for _, d in paths], [("z", "u", "q", "b", "a", "y")])
    c.equal("hop budgets shrink 5..1", _interest_budgets(trace), [5, 4, 3, 2, 1])
    c.equal("delivered", rep.delivered, 1)
    c.equal("no loop nacks", rep.loop_nacks, 0)
    c.equal("round-trip delay (ms)", rep.delay_mean_ms.get("y"), 10 * DELAY)
    return ScenarioResult("fig1-rankloop", c.ok, c.lines, trace)


def fig1_stale() -> ScenarioResult:
    topo = _fig1_topology()
    fibs = inject_stale_distances(_fig1_fibs(topo),
                                  [("b", P, "x", 8), ("b", P, "a", 6),
                                   ("b", P, "q", 6)])
    requests = [(0.0, "cons.y", OBJ), (40.0, "cons.x", OBJ)]
    consumers = {"cons.y": "y", "cons.x": "x"}
    c = _Checks()

    sim, rep, trace = _simulate(topo, fibs, Scheme.DART, requests, consumers,
                                duration_ms=10_000.0)
    c.equal("dart: loop refusals at b", rep.loop_nacks, 2)
    c.equal("dart: both consumers told", rep.nacked_by_code.get("loop"), 2)
    c.equal("dart: nothing delivered", rep.delivered, 0)
    c.equal("dart: no orphans", (rep.orphan_data, rep.orphan_nack), (0, 0))
    c.check("dart: b sent the refusals", sim.routers["b"].loop_nacks == 2)

    sim2, rep2, trace2 = _simulate(topo, fibs, Scheme.NDN, requests, consumers,
                                   duration_ms=10_000.0)
    c.check("ndn: interests were aggregated", rep2.aggregated >= 1,
            f"aggregated={rep2.aggregated}")
    c.equal("ndn: nothing delivered", rep2.delivered, 0)
    c.check("ndn: parked entries expired", rep2.pit_expired >= 4,
            f"expired={rep2.pit_expired}")
    c.equal("ndn: consumers gave up", rep2.abandoned, 2)
    c.equal("ndn: two retries each before giving up", rep2.retries, 4)
    return ScenarioResult("fig1-stale", c.ok, c.lines, trace + ["--- ndn ---"] + trace2)


def fig2_sharing() -> ScenarioResult:
    edges = [("a", "r"), ("r", "s"), ("s", "d"), ("x", "b"), ("b", "c"),
             ("c", "d")]
    links = {tuple(sorted(e)): DELAY for e in edges}
    topo = Topology(tuple(sorted({r for e in edges for r in e})), links,
                    {P: ("d",)})
    fibs = compute_fibs(topo)
    consumers = {"A": "a", "C": "a", "N": "a", "P": "a", "Q": "a",
                 "B": "b", "X": "x"}
    requests = [(0.0, "A", OBJ), (1.0, "C", OBJ), (2.0, "N", OBJ),
                (3.0, "P", OBJ), (0.0, "B", OBJ), (0.0, "X", OBJ),
                (300.0, "A", OBJ2), (300.0, "C", OBJ2), (300.0, "Q", OBJ2)]
    c = _Checks()
    sim, rep, trace = _simulate(topo, fibs, Scheme.DART, requests, consumers,
                                caching="edge")

    sizes = {r: sim.routers[r].table_sizes()[0] for r in topo.routers}
    c.equal("route-state footprint", sizes,
            {"a": 1, "r": 1, "s": 1, "x": 1, "b": 2, "c": 2, "d": 0})

    a, r, s, b, x, cc = (sim.routers[k] for k in ("a", "r", "s", "b", "x", "c"))
    a_leg = next(iter(a.by_succ.values()))
    c.check("a: one origin leg toward r",
            a_leg.predecessor == "a" and a_leg.successor == "r")
    r_leg = next(iter(r.by_succ.values()))
    c.check("r: leg keyed by a's token",
            r_leg.predecessor == "a" and r_leg.predecessor_dart == a_leg.successor_dart
            and r_leg.successor == "s")
    s_leg = next(iter(s.by_succ.values()))
    c.check("s: continues to the anchor",
            s_leg.predecessor == "r" and s_leg.successor == "d")
    x_leg = next(iter(x.by_succ.values()))
    c.check("x: one origin leg toward b",
            x_leg.predecessor == "x" and x_leg.successor == "b")
    b_legs = sorted(b.by_succ.values(), key=lambda e: e.predecessor)
    c.check("b: own leg plus relay leg for x",
            [e.predecessor for e in b_legs] == ["b", "x"]
            and all(e.successor == "c" for e in b_legs))
    c.check("b: distinct outbound tokens",
            b_legs[0].successor_dart != b_legs[1].successor_dart)
    c_legs = sorted(cc.by_succ.values(), key=lambda e: e.predecessor_dart)
    c.check("c: one leg per b token, both to d",
            [e.predecessor for e in c_legs] == ["b", "b"]
            and {e.predecessor_dart for e in c_legs}
            == {e.successor_dart for e in b_legs}
            and all(e.successor == "d" for e in c_legs))

    c.equal("anchor saw four interests", rep.interests_received["d"], 4)
    c.equal("r saw two (second wave rode the leg)", rep.interests_received["r"], 2)
    c.equal("all nine requests answered", rep.delivered, 9)
    c.equal("local aggregation", rep.aggregated, 5)
    c.equal("no loop nacks", rep.loop_nacks, 0)
    return ScenarioResult("fig2-sharing", c.ok, c.lines, trace)


SCENARIOS: Dict[str, Callable[[], ScenarioResult]] = {
    "fig1-rankloop": fig1_rankloop,
    "fig1-stale": fig1_stale,
    "fig2-sharing": fig2_sharing,
}
