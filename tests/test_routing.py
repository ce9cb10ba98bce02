import math
import random

import networkx as nx
import pytest

from dartlab.model import Name, Prefix
from dartlab.routing import (
    MAX_ATTEMPTS,
    Fib,
    FibTuple,
    Topology,
    TopologyError,
    compute_fibs,
    dump_fibs,
    generate_topology,
    inject_stale_distances,
    override_rankings,
)


def to_nx(topo):
    g = nx.Graph()
    g.add_nodes_from(topo.routers)
    g.add_edges_from(topo.links)
    return g


def test_generate_topology_radius_and_connectivity():
    topo = generate_topology(30, 100.0, 35.0, 10.0, seed=7)
    assert nx.is_connected(to_nx(topo))
    assert set(topo.links.values()) == {10.0}
    ids = list(topo.routers)
    pairs = [(u, v) for i, u in enumerate(ids) for v in ids[i + 1:]]
    # redraw the generator's scatters: it keeps the first whose pairs within
    # the radius connect every router
    for attempt in range(MAX_ATTEMPTS):
        rng = random.Random(f"topology:7:{attempt}")
        pos = {r: (rng.uniform(0, 100.0), rng.uniform(0, 100.0)) for r in ids}
        g = nx.Graph()
        g.add_nodes_from(ids)
        g.add_edges_from((u, v) for u, v in pairs if math.dist(pos[u], pos[v]) <= 35.0)
        if nx.is_connected(g):
            break
    else:
        pytest.fail("no connected scatter")
    for u, v in pairs:
        within = math.dist(pos[u], pos[v]) <= 35.0
        assert ((u, v) in topo.links) == within


def test_generate_topology_deterministic():
    a = generate_topology(20, 50.0, 20.0, 5.0, seed="x")
    b = generate_topology(20, 50.0, 20.0, 5.0, seed="x")
    c = generate_topology(20, 50.0, 20.0, 5.0, seed="y")
    assert a.routers == b.routers and a.links == b.links
    assert a.links != c.links


def test_generate_topology_gives_up():
    # radius 0 can never connect two nodes
    with pytest.raises(TopologyError):
        generate_topology(5, 100.0, 0.0, 1.0, seed=1)


def test_topology_validation():
    with pytest.raises(TopologyError):
        Topology(("a", "b"), {("b", "a"): 1.0})  # unordered key
    with pytest.raises(TopologyError):
        Topology(("a", "b"), {("a", "b"): 0.0})  # bad delay
    with pytest.raises(TopologyError):
        Topology(("a", "b"), {})  # disconnected
    with pytest.raises(TopologyError):
        Topology(("a", "b"), {("a", "b"): 1.0}, {Prefix.parse("/p"): ("zzz",)})
    with pytest.raises(TopologyError, match="^no routers$"):
        Topology((), {})
    with pytest.raises(TopologyError, match="^duplicate router ids$"):
        Topology(("a", "b", "a"), {("a", "b"): 1.0})
    with pytest.raises(TopologyError, match=r"^link endpoint unknown: \('a', 'c'\)$"):
        Topology(("a", "b"), {("a", "b"): 1.0, ("a", "c"): 1.0})
    for bad in (math.nan, math.inf):
        with pytest.raises(TopologyError,
                           match=rf"^delay on \('a', 'b'\) must be > 0 and finite, got {bad}$"):
            Topology(("a", "b"), {("a", "b"): bad})
    with pytest.raises(TopologyError, match="^prefix /p has no anchor$"):
        Topology(("a", "b"), {("a", "b"): 1.0}, {Prefix.parse("/p"): ()})
    t = Topology(("a", "b"), {("a", "b"): 2.5})
    assert t.delay("b", "a") == 2.5
    assert t.neighbors == {"a": ("b",), "b": ("a",)}


def nearest_anchor(g, node, anchors):
    """Oracle: (hop distance, anchor id) minimised lexicographically."""
    return min((nx.shortest_path_length(g, node, a), a) for a in anchors)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_fib_distances_match_networkx(seed):
    topo = generate_topology(25, 100.0, 40.0, 10.0, seed=seed)
    rng = random.Random(seed)
    routers = sorted(topo.routers)
    anchors = {
        Prefix.parse("/p0"): (rng.choice(routers),),
        Prefix.parse("/p1"): tuple(sorted(rng.sample(routers, 2))),
    }
    topo = topo.with_anchors(anchors)
    g = to_nx(topo)
    fibs = compute_fibs(topo)
    for r in topo.routers:
        for prefix, anchor_set in anchors.items():
            tuples = fibs[r].entries[prefix]
            assert {t.next_hop for t in tuples} == set(topo.neighbors[r])
            for t in tuples:
                d, a = nearest_anchor(g, t.next_hop, anchor_set)
                assert t.distance == d + 1
                assert t.anchor == a
            # most preferred first: in order of (distance, neighbour id)
            keys = [(t.distance, t.next_hop) for t in tuples]
            assert keys == sorted(keys)


def test_fib_anchor_tie_breaks_to_lowest_id():
    # line a-b-c with anchors at both ends: b's neighbours are equidistant
    topo = Topology(("a", "b", "c"), {("a", "b"): 1.0, ("b", "c"): 1.0},
                    {Prefix.parse("/p"): ("a", "c")})
    fib = compute_fibs(topo)["b"]
    (t1, t2) = fib.entries[Prefix.parse("/p")]
    assert (t1.next_hop, t1.distance, t1.anchor) == ("a", 1, "a")
    assert (t2.next_hop, t2.distance, t2.anchor) == ("c", 1, "c")


def test_exclude_links_matches_reduced_graph_and_drops_unreachable():
    # square a-b-c-d-a plus pendant e on a; anchor at c
    links = {("a", "b"): 1.0, ("b", "c"): 1.0, ("c", "d"): 1.0,
             ("a", "d"): 1.0, ("a", "e"): 1.0}
    p = Prefix.parse("/p")
    topo = Topology(("a", "b", "c", "d", "e"), links, {p: ("c",)})
    cut = ("a", "e")
    fibs = compute_fibs(topo, exclude_links=[("e", "a")])
    # e is unreachable from the anchor: no entry at e, and a's tuple via e is gone
    assert fibs["e"].lookup(Name.parse("/p/x")) is None
    assert {t.next_hop for t in fibs["a"].entries[p]} == {"b", "d"}
    g = to_nx(topo)
    g.remove_edge(*cut)
    for r in ("a", "b", "d"):
        for t in fibs[r].entries[p]:
            assert t.distance == nx.shortest_path_length(g, t.next_hop, "c") + 1


def test_lpm_against_bruteforce():
    rng = random.Random(42)
    comps = ["a", "b", "c"]
    prefixes = [Prefix(()), Prefix(("a",)), Prefix(("a", "b")),
                Prefix(("a", "b", "c")), Prefix(("b",))]
    # a distinct tuple per prefix, so the tuples returned name the match
    entries = {p: (FibTuple(str(p), 1, "x"),) for p in prefixes}
    fib = Fib(entries)
    for _ in range(200):
        name = Name([rng.choice(comps) for _ in range(rng.randint(1, 4))])
        matching = [p for p in prefixes if p.matches(name)]
        want = max(matching, key=len) if matching else None
        if want is None:
            assert fib.lookup(name) is None
        else:
            assert fib.lookup(name) == entries[want]


def line_fixture():
    p = Prefix.parse("/p")
    topo = Topology(("a", "b", "c", "d"),
                    {("a", "b"): 1.0, ("b", "c"): 1.0, ("c", "d"): 1.0},
                    {p: ("d",)})
    return topo, p, compute_fibs(topo)


def test_override_rankings_is_pure_and_validated():
    topo, p, fibs = line_fixture()
    before = fibs["b"].entries[p]
    assert [t.next_hop for t in before] == ["c", "a"]
    out = override_rankings(fibs, "b", p, ["a", "c"])
    assert [t.next_hop for t in out["b"].entries[p]] == ["a", "c"]
    assert out["b"].entries[p] == before[::-1]
    assert {t.next_hop: t.distance for t in out["b"].entries[p]} == {"a": 4, "c": 2}
    assert fibs["b"].entries[p] == before  # original untouched
    with pytest.raises(ValueError):
        override_rankings(fibs, "b", p, ["a"])
    with pytest.raises(ValueError):
        override_rankings(fibs, "b", p, ["a", "z"])


def test_inject_stale_distances_keeps_rank_order():
    topo, p, fibs = line_fixture()
    out = inject_stale_distances(fibs, [("b", p, "c", 9)])
    got = out["b"].entries[p]
    assert [(t.next_hop, t.distance) for t in got] == [("c", 9), ("a", 4)]
    assert [t.distance for t in fibs["b"].entries[p]] == [2, 4]
    assert inject_stale_distances(fibs, []) == fibs
    with pytest.raises(ValueError):
        inject_stale_distances(fibs, [("b", p, "zzz", 3)])


def test_dump_fibs_format():
    _, p, fibs = line_fixture()
    lines = dump_fibs(fibs)
    assert "fib b /p 1 c 2 d" in lines and "fib b /p 2 a 4 d" in lines
    # the rank printed is the tuple's position in its entry
    reordered = dump_fibs(override_rankings(fibs, "b", p, ["a", "c"]))
    assert "fib b /p 1 a 4 d" in reordered and "fib b /p 2 c 2 d" in reordered
    assert lines == sorted(lines, key=lambda l: (l.split()[1], l.split()[2], int(l.split()[3])))
