"""Desk-scale acceptance checks.

Everything here runs against the shipped defaults: the 50-router geometric
topology, the full scheme x caching x rate x seed grid, the scripted
walkthrough scenarios, and the randomized robustness sweeps.  The grid is
run once per module (module-scoped fixture) by the path ``dartlab run`` and
``dartlab compare`` take, and the tests check what ``compare`` reports;
expect this file to dominate the suite's runtime.

Thresholds are pinned literals, not tuned constants -- if a change moves a
number past one of them, that is a behaviour change worth explaining, not a
tolerance to widen.
"""

import csv
import hashlib
import json
import os
import random
from dataclasses import replace

import networkx as nx
import pytest

from dartlab.cli import main as cli_main
from dartlab.engine import AuditError, World, simulate
from dartlab.experiment import ExperimentConfig, build_world, compare_dir, run_experiment
from dartlab.model import Name, Prefix
from dartlab.routing import (Topology, compute_fibs, inject_stale_distances,
                             override_rankings)
from dartlab.scenarios import SCENARIOS, request_paths

RATES = (10.0, 50.0, 100.0, 200.0)
LOW, TOP = RATES[0], RATES[-1]


# ---------------------------------------------------------------------------
# the default grid, run once


@pytest.fixture(scope="module")
def grid_run(tmp_path_factory):
    """The default grid's output directory and ``compare_dir``'s result.
    The cells run in a pool with one worker per CPU; a CSV does not depend
    on which worker wrote it (test_experiment_reruns_are_byte_identical)."""
    out = tmp_path_factory.mktemp("grid")
    build_world.cache_clear()
    try:
        run_experiment(replace(ExperimentConfig(), workers=os.cpu_count()), out)
    finally:
        build_world.cache_clear()
    return out, compare_dir(out)


@pytest.fixture(scope="module")
def grid(grid_run):
    """``compare_dir``'s summary of the default grid, and each cell's ``*``
    totals by CSV name."""
    out, (_, summary) = grid_run
    totals = {}
    for path in sorted(out.glob("metrics_*.csv")):
        with open(path, newline="") as fh:
            totals[path.name] = {row["metric"]: float(row["value"])
                                 for row in csv.DictReader(fh) if row["router"] == "*"}
    return summary, totals


# SHA-256 of the default grid's metrics CSVs (sorted, each as its name, its
# length and its bytes) followed by compare's lines.  manifest.json is left
# out: it records the worker count, os.cpu_count().
GRID_DIGEST = "4be0d89db9166db8fcea733ff8e1b861c4c8cb5c7305d131c91340aa8f88000c"


def test_default_grid_bytes_are_pinned(grid_run):
    out, (lines, _) = grid_run
    h = hashlib.sha256()
    for path in sorted(out.glob("metrics_*.csv")):
        data = path.read_bytes()
        h.update(f"{path.name} {len(data)}\n".encode())
        h.update(data)
    h.update("\n".join(lines).encode())
    assert len(lines) > 1 and h.hexdigest() == GRID_DIGEST


def _group(grid, caching, rate):
    """``compare``'s row for (caching, rate): each scheme's seed-mean state,
    Interests received over all routers, and delay."""
    return grid[0]["groups"][(caching, rate)]


def test_desk_scale_defaults():
    # The comparisons below are stated for this operating point; pin it.
    cfg = ExperimentConfig()
    assert cfg.nodes == 50
    assert cfg.catalog == 10_000
    assert cfg.rates == RATES
    assert cfg.duration_s == 60.0
    assert cfg.dart_ttl_s == 10.0
    assert len(cfg.seeds) == 3
    assert cfg.schemes == ("dart", "ndn") and cfg.caching == ("edge", "onpath")


def test_grid_runs_clean(grid):
    # Timeouts are sized past the worst-case round trip, so any loss, retry,
    # or orphan in the default grid is a defect, not noise.  The comparative
    # tests below lean on this: parity numbers mean nothing if one scheme is
    # quietly dropping traffic.
    summary, totals = grid
    assert summary["errors"] == []
    assert len(totals) == len(ExperimentConfig().cells())
    for key, t in totals.items():
        assert t["requests"] > 0, key
        assert t["delivered"] == t["requests"], (key, t["delivered"], t["requests"])
        assert t["nacked"] == 0, (key, t)
        assert t["abandoned"] == 0, key
        assert t["retries"] == 0, key
        assert t["loop_nacks"] == 0, key
        assert t["pit_expired"] == 0, key
        assert t["orphan_data"] == 0 and t["orphan_nack"] == 0, key
        assert t["store_evictions"] == 0, key


def test_dart_table_flat_while_pit_tracks_rate(grid):
    # Edge-caching cells isolate table dynamics from in-network cache hits.
    dart = [_group(grid, "edge", r)["dart_state"] for r in RATES]
    assert max(dart) <= 2.0 * min(dart), dart

    pit_low = _group(grid, "edge", LOW)["ndn_state"]
    pit_top = _group(grid, "edge", TOP)["ndn_state"]
    assert pit_top >= 5.0 * pit_low, (pit_low, pit_top)

    dart_top = _group(grid, "edge", TOP)["dart_state"]
    assert pit_top >= 5.0 * dart_top, (dart_top, pit_top)


def test_dart_holds_more_state_than_pit_at_light_load(grid):
    # Ten-second route reuse windows keep whole-route state alive while
    # per-object pending state drains in round-trip time: at the lowest
    # request rate the relationship flips and DART is the bigger table.
    dart_low = _group(grid, "edge", LOW)["dart_state"]
    pit_low = _group(grid, "edge", LOW)["ndn_state"]
    assert dart_low >= pit_low, (dart_low, pit_low)


def test_interest_volume_parity_between_schemes(grid):
    # Same forwarding work modulo aggregation bookkeeping: Interests
    # received should sit within 15%, with DART never below NDN (DART
    # re-asks the neighbour table instead of collapsing onto the PIT).
    for caching in ("edge", "onpath"):
        for rate in RATES:
            d = _group(grid, caching, rate)["dart_interests"]
            n = _group(grid, caching, rate)["ndn_interests"]
            assert d >= n, (caching, rate, d, n)
            assert d - n <= 0.15 * n, (caching, rate, d, n)


def test_delivery_delay_parity_between_schemes(grid):
    for caching in ("edge", "onpath"):
        for rate in RATES:
            d = _group(grid, caching, rate)["dart_delay_ms"]
            n = _group(grid, caching, rate)["ndn_delay_ms"]
            assert abs(d - n) <= 0.05 * n, (caching, rate, d, n)


def test_onpath_caching_reduces_interest_volume(grid):
    # Once rates are high enough for caches to see repeats, caching along
    # the whole path must beat caching only at the consumer edge -- for both
    # schemes.  (At the lightest rate repeats are too rare to promise this.)
    for scheme in ("dart", "ndn"):
        for rate in (50.0, 100.0, 200.0):
            onpath = _group(grid, "onpath", rate)[f"{scheme}_interests"]
            edge = _group(grid, "edge", rate)[f"{scheme}_interests"]
            assert onpath < edge, (scheme, rate, onpath, edge)


# ---------------------------------------------------------------------------
# randomized robustness: stale and adversarial routing state
#
# The staleness model mirrors how tables actually diverge: one link event
# separates a before-snapshot from an after-snapshot, some routers have
# processed the update and some have not, individual advertisements toggle
# between the two values, and preference order is scrambled among routes
# whose distances are within one hop of each other (rank disagreements only
# arise between near-equal routes; a control plane never prefers a route it
# believes is far worse).  Within this model router-simple forward paths are
# provable; tables corrupted beyond it (inflate one distance by 3 and shuffle
# ranks arbitrarily) genuinely re-admit an Interest, so the generator stays
# inside the model on purpose.


def _random_topology(rng):
    n = rng.randint(3, 12)
    ids = [f"r{i:02d}" for i in range(n)]
    links = {}
    for i in range(1, n):                       # random spanning tree
        j = rng.randrange(i)
        a, b = sorted((ids[i], ids[j]))
        links[(a, b)] = float(rng.randint(5, 40))
    for _ in range(rng.randint(0, n)):          # plus some chords
        a, b = sorted(rng.sample(ids, 2))
        links.setdefault((a, b), float(rng.randint(5, 40)))
    prefixes = [Prefix((f"p{k}",)) for k in range(rng.choice((1, 1, 2)))]
    anchors = {p: (a,) for p, a in zip(prefixes, rng.sample(ids, len(prefixes)))}
    return Topology(tuple(ids), links, anchors)


def _snapshot_pair(rng, topo):
    """FIBs before and after one link event that moves distances by <= 1."""
    full = compute_fibs(topo)
    g = nx.Graph(list(topo.links))
    candidates = sorted(topo.links)
    rng.shuffle(candidates)
    base = {p: nx.multi_source_dijkstra_path_length(g, set(topo.anchors[p]))
            for p in topo.anchors}
    for link in candidates:
        h = g.copy()
        h.remove_edge(*link)
        if all(dist <= base[p][r] + 1
               for p in topo.anchors
               for r, dist in
               nx.multi_source_dijkstra_path_length(h, set(topo.anchors[p])).items()):
            return full, compute_fibs(topo, exclude_links=[link])
    return full, full


def _near_tie_scramble(rng, tuples):
    """Permutation with bounded disagreement: shuffle equal-distance runs,
    then swap some adjacent pairs whose distances differ by at most one."""
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


def _blend_tables(rng, topo, full, degraded):
    fibs = {r: (degraded if rng.random() < 0.4 else full)[r]
            for r in topo.routers}
    for router in topo.routers:
        for prefix in topo.anchors:
            tuples = fibs[router].entries.get(prefix, ())
            if len(tuples) > 1 and rng.random() < 0.5:
                fibs = override_rankings(fibs, router, prefix,
                                         _near_tie_scramble(rng, tuples))
    edits = []
    for router in topo.routers:
        for prefix in topo.anchors:
            cur = fibs[router].entries.get(prefix, ())
            for snap in (full, degraded):
                alt = {t.next_hop: t.distance
                       for t in snap[router].entries.get(prefix, ())}
                for t in cur:
                    if t.next_hop in alt and rng.random() < 0.15:
                        edits.append((router, prefix, t.next_hop,
                                      alt[t.next_hop]))
    return inject_stale_distances(fibs, edits)


def test_randomized_stale_routing_never_loops():
    # 1000 small networks with deliberately inconsistent tables: mixed
    # before/after-event snapshots, per-advertisement staleness, near-tie
    # rank disagreements.  Forwarding audits run on every hop; a single
    # repeated router in a forward chain or a non-descending hop budget
    # raises AuditError and fails this test.
    totals = {"delivered": 0, "nacked": 0, "loop_nacks": 0}
    for i in range(1000):
        rng = random.Random(f"crit6:{i}")
        topo = _random_topology(rng)
        full, degraded = _snapshot_pair(rng, topo)
        fibs = _blend_tables(rng, topo, full, degraded)
        catalog = [Name((*p, f"o{k}"))
                   for p in sorted(topo.anchors) for k in range(3)]
        requests = [(rng.uniform(0.0, 500.0),
                     f"c.{rng.choice(sorted(topo.routers))}",
                     rng.choice(catalog))
                    for _ in range(rng.randint(2, 5))]
        rep = simulate(World.build(topo, fibs, catalog), "dart",
                       rng.choice(("none", "edge", "onpath")),
                       requests=requests, audits=True,
                       duration_ms=3000.0, retry_timeout_ms=5000.0)
        totals["delivered"] += rep.delivered
        totals["nacked"] += rep.nacked
        totals["loop_nacks"] += rep.loop_nacks
    assert totals["delivered"] > 0
    # The adversary has teeth: stale tables really do provoke refusals,
    # including the loop-refusal path.
    assert totals["nacked"] > 0, totals
    assert totals["loop_nacks"] > 0, totals


# ---------------------------------------------------------------------------
# scripted walkthroughs


def test_rank_reversal_walkthrough_refuses_loop():
    res = SCENARIOS["fig1-rankloop"]()
    assert res.passed, "\n".join(res.lines)


def test_stale_distance_walkthrough_recovers():
    res = SCENARIOS["fig1-stale"]()
    assert res.passed, "\n".join(res.lines)


def test_shared_forwarding_state_walkthrough():
    res = SCENARIOS["fig2-sharing"]()
    assert res.passed, "\n".join(res.lines)


@pytest.mark.xfail(strict=True, raises=AuditError,
                   reason="DEAR admits a revisit when the origin stamps a stale distance")
def test_one_stale_fib_cannot_send_an_interest_round_a_loop():
    # Only d's FIB is stale: rank 1 via b at distance 4 (truly 3), then a at
    # 1, then c at 3.  d stamps 4 and sends to b; b's best admissible tuple
    # is c at 3, and c's is d at 2, so the Interest walks d, b, c, d and the
    # audit raises path-acyclicity at d.  With audits off it is delivered,
    # and d receives it twice.  A router that stamps its least distance for
    # the prefix, whichever tuple it forwards on, cannot be revisited; once
    # the rule does that, this test passes and strict xfail fails it.
    p, obj = Prefix(("p",)), Name(("p", "obj"))
    links = {("a", "d"): 15.0, ("b", "c"): 15.0, ("b", "d"): 15.0, ("c", "d"): 15.0}
    topo = Topology(("a", "b", "c", "d"), links, {p: ("a",)})
    fibs = override_rankings(compute_fibs(topo), "d", p, ["b", "a", "c"])
    fibs = inject_stale_distances(fibs, [("d", p, "b", 4)])
    rep = simulate(World.build(topo, fibs, [obj]), "dart", "none", audits=True,
                   requests=[(0.0, "c.d", obj)], consumers={"c.d": "d"}, duration_ms=1000.0)
    assert rep.delivered == 1
    assert rep.interests_received["d"] == 1


# ---------------------------------------------------------------------------
# exhaustive small-graph checks: route table oracle and path symmetry


PFX = Prefix(("p",))
OBJ = Name(("p", "obj"))


def _atlas_graphs():
    return [g for g in nx.graph_atlas_g()
            if 2 <= g.number_of_nodes() <= 6 and nx.is_connected(g)]


def test_fib_distances_match_bfs_on_all_small_graphs():
    graphs = _atlas_graphs()
    assert len(graphs) > 100  # the atlas really is exhaustive up to 6 nodes
    for g in graphs:
        ids = {node: f"v{node}" for node in g.nodes()}
        links = {tuple(sorted((ids[u], ids[v]))): 10.0 for u, v in g.edges()}
        for anchor in g.nodes():
            topo = Topology(tuple(sorted(ids.values())), dict(links),
                            {PFX: (ids[anchor],)})
            fibs = compute_fibs(topo)
            oracle = nx.single_source_shortest_path_length(g, anchor)
            for node in g.nodes():
                tuples = fibs[ids[node]].entries.get(PFX, ())
                assert {t.next_hop for t in tuples} == {
                    ids[nbr] for nbr in g.neighbors(node)}
                for t in tuples:
                    nbr = int(t.next_hop[1:])
                    assert t.distance == oracle[nbr] + 1, (node, t)
                assert list(tuples) == sorted(
                    tuples, key=lambda t: (t.distance, t.next_hop))
                if node != anchor:
                    assert tuples[0].distance == oracle[node], (node, tuples)


def test_response_retraces_request_on_all_small_graphs(tmp_path):
    trace = tmp_path / "trace.txt"
    for g in _atlas_graphs():
        ids = {node: f"v{node}" for node in g.nodes()}
        links = {tuple(sorted((ids[u], ids[v]))): 10.0 for u, v in g.edges()}
        for anchor in g.nodes():
            topo = Topology(tuple(sorted(ids.values())), dict(links),
                            {PFX: (ids[anchor],)})
            fibs = compute_fibs(topo)
            for consumer in sorted(ids.values()):
                rep = simulate(World.build(topo, fibs, [OBJ]), "dart", "none",
                               requests=[(0.0, f"c.{consumer}", OBJ)],
                               audits=True, trace_path=str(trace),
                               warmup_fraction=0.0, duration_ms=1000.0)
                assert rep.delivered == 1, (anchor, consumer)
                paths = request_paths(trace.read_text().splitlines())
                assert len(paths) == 1
                interest = paths[0][0]
                assert interest[0] == consumer
                assert interest[-1] == ids[anchor]
                assert [d for _, d in paths] == [tuple(reversed(interest))]


# ---------------------------------------------------------------------------
# reproducibility of the experiment harness


RERUN_CONFIG = """\
nodes = 12
area = 40
radius = 20
link_delay_ms = 10
topology_seed = 3
producers = 2
schemes = dart, ndn
caching = edge
rates = 20, 50
seeds = 1
zipf_alpha = 1.0
catalog = 200
duration_s = 4
pit_lifetime_s = 2
retry_timeout_s = 2
"""


def test_experiment_reruns_are_byte_identical(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(RERUN_CONFIG)
    first, second = tmp_path / "a", tmp_path / "b"
    assert cli_main(["run", str(cfg_path), "--out", str(first)]) == 0
    # the worker count must not change a byte of the cell output
    assert cli_main(["run", str(cfg_path), "--out", str(second), "--workers", "2"]) == 0
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    assert any(n.endswith(".csv") for n in names)
    for name in names:
        if name != "manifest.json":
            assert (first / name).read_bytes() == (second / name).read_bytes(), name
    manifests = [json.loads((d / "manifest.json").read_text()) for d in (first, second)]
    assert [m["parameters"].pop("workers") for m in manifests] == [1, 2]
    assert manifests[0] == manifests[1]
