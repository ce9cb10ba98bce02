import gc
import hashlib
import heapq
import io
import math
import pickle
import re
import tracemalloc
from collections import Counter
from dataclasses import fields, replace
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from dartlab.dart_node import DartRouter
from dartlab.engine import (
    MAX_TIMER_FIRINGS,
    AuditError,
    MetricsReport,
    Scheme,
    World,
    WorkloadSpec,
    _Simulation,
    generate_workload,
    sample_table_sizes,
    simulate,
    zipf_cumulative,
)
from dartlab import experiment
from dartlab.experiment import build_topology, parse_config, run_cell, simulate_cell
from dartlab.model import (
    CachingMode,
    ContentStore,
    Interest,
    Name,
    NdnInterest,
    Prefix,
)
from dartlab.ndn_node import NdnRouter
from dartlab.routing import Topology, compute_fibs, generate_topology
from dartlab.scenarios import request_paths

P = Prefix.parse("/p")


def line_topology(n=4, delay=25.0):
    ids = [chr(ord("a") + i) for i in range(n)]
    links = {(ids[i], ids[i + 1]): delay for i in range(n - 1)}
    topo = Topology(tuple(ids), links, {P: (ids[-1],)})
    return topo, compute_fibs(topo)


def catalog(k=1):
    return [Name.parse(f"/p/{i}") for i in range(k)]


# --- workload statistics ------------------------------------------------------

def draw_objects(alpha, size, n_draws, seed=1):
    spec = WorkloadSpec(alpha, size, per_router_rate=1000.0,
                        duration=n_draws / 1000.0, seed=seed)
    return [idx for (_, _, idx) in generate_workload(spec, ["c"])]


def test_zipf_slope_is_recovered():
    draws = draw_objects(alpha=0.7, size=10_000, n_draws=1_000_000)
    freq = Counter(draws)
    # fit over the 100 most popular ranks, where counts are large
    counts = np.array([freq.get(k, 0) for k in range(100)], dtype=float)
    assert counts.min() > 0
    slope, _ = np.polyfit(np.log(np.arange(1, 101)), np.log(counts), 1)
    assert abs(slope - (-0.7)) < 0.05


def test_zipf_alpha_zero_is_uniform():
    draws = draw_objects(alpha=0.0, size=100, n_draws=100_000)
    observed = np.bincount(np.array(draws), minlength=100)
    _, p = stats.chisquare(observed)
    assert p > 1e-3


@pytest.mark.parametrize("alpha", [0, 0.0, 0.5, 0.8, 1, 1.0, 1.2, 2.5])
def test_zipf_table_is_bit_identical_to_the_generator_form(alpha):
    size = 10_000
    reference = list(accumulate((k + 1) ** -alpha for k in range(size)))
    table = zipf_cumulative(alpha, size)
    assert [float(x).hex() for x in table] == [float(x).hex() for x in reference]
    # one shared table, read-only by type
    with pytest.raises(TypeError):
        table[0] = 0.0


# SHA-256 of generate_workload's stream for three consumers at 40 requests/s
# for 10 s, one "time consumer index" line per request (1,191 lines); an int
# alpha draws the same stream as its float, and a one-name catalog the same
# stream whatever the alpha
STREAM_DIGESTS = [
    (0, 10_000, "2f78e745f017a793bf66112fea07c9eb3fab84f73d45ee25ec032e2cdedf151f"),
    (0.0, 10_000, "2f78e745f017a793bf66112fea07c9eb3fab84f73d45ee25ec032e2cdedf151f"),
    (1, 10_000, "c7e54daab314459acf7945d25f830a74f2a2e0087b55b24995b55aa4892a8cf4"),
    (1.0, 10_000, "c7e54daab314459acf7945d25f830a74f2a2e0087b55b24995b55aa4892a8cf4"),
    (1.2, 10_000, "3ff47dc8bbe986bbbf902adce6ca1914893e3e723b001f4907fb44c007dd9a11"),
    (1.2, 1, "7b5e6ce06b97b974383b7e56baaef842113c275ea04d0903b964bd96f8cc117d"),
    (0, 1, "7b5e6ce06b97b974383b7e56baaef842113c275ea04d0903b964bd96f8cc117d"),
]


@pytest.mark.parametrize("alpha, size, digest", STREAM_DIGESTS,
                         ids=[f"{a!r}-{s}" for a, s, _ in STREAM_DIGESTS])
def test_request_streams_are_pinned(alpha, size, digest):
    spec = WorkloadSpec(alpha, size, 40.0, 10.0, seed="streams")
    text = "".join(f"{t!r} {c} {i}\n"
                   for t, c, i in generate_workload(spec, ["c.b", "c.a", "c.c"]))
    assert text.count("\n") == 1191
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_poisson_event_count_concentrates():
    rate, duration = 50.0, 20.0
    spec = WorkloadSpec(0.7, 100, rate, duration, seed=5)
    n = sum(1 for _ in generate_workload(spec, ["c"]))
    assert abs(n - rate * duration) <= 4 * math.sqrt(rate * duration)


def test_workload_is_merged_in_time_order_and_deterministic():
    spec = WorkloadSpec(0.7, 50, 20.0, 5.0, seed=9)
    a = list(generate_workload(spec, ["c1", "c2", "c3"]))
    b = list(generate_workload(spec, ["c3", "c2", "c1"]))  # order-insensitive
    assert a == b
    times = [t for (t, _, _) in a]
    assert times == sorted(times)
    assert all(t < 5000.0 for t in times)
    assert {c for (_, c, _) in a} == {"c1", "c2", "c3"}


@pytest.mark.parametrize("scheme", ["dart", "ndn"])
def test_engine_dispatches_exactly_the_generated_workload(scheme, tmp_path):
    # One router anchors everything, so each request is a store hit answered
    # at once: none rides an open one, and each shows as one RX line.
    topo = Topology(("a",), {}, {P: ("a",)})
    consumers = {c: "a" for c in ("c3", "c1", "c2")}
    spec = WorkloadSpec(0.7, 20, per_router_rate=40.0, duration=3.0, seed="stream")
    names = catalog(20)
    path = tmp_path / "trace.txt"
    rep = simulate(World.build(topo, compute_fibs(topo), names), scheme, "none",
                   workload=spec, consumers=consumers, trace_path=str(path))
    asked = []
    for line in path.read_text().splitlines():
        t, router, direction, kind, name, _, _, peer = line.split(" ")
        if direction == "RX" and peer.startswith("peer=c"):
            asked.append((float(t[2:]), peer[5:], Name.parse(name[5:])))
    expected = [(t, c, names[idx]) for (t, c, idx) in generate_workload(spec, consumers)]
    assert len(expected) > 300
    assert asked == expected
    assert rep.requests == rep.delivered == len(expected)


def test_workload_spec_validation():
    with pytest.raises(ValueError):
        WorkloadSpec(-0.1, 10, 1.0, 1.0)
    with pytest.raises(ValueError):
        WorkloadSpec(0.7, 0, 1.0, 1.0)
    with pytest.raises(ValueError):
        WorkloadSpec(0.7, 10, 0.0, 1.0)
    # NaN or infinite: an infinite rate or duration never runs out of requests
    for alpha, rate, duration in ((math.nan, 1.0, 1.0), (math.inf, 1.0, 1.0),
                                  (0.7, math.inf, 1.0), (0.7, math.nan, 1.0),
                                  (0.7, 1.0, math.inf), (0.7, 1.0, math.nan)):
        with pytest.raises(ValueError):
            WorkloadSpec(alpha, 10, rate, duration)
    # a stream expecting more requests than a timer may fire never ends:
    # at rate 1e300 each request moved the clock by about 1e-297 ms
    WorkloadSpec(0.7, 10, MAX_TIMER_FIRINGS / 2, 2.0)
    for rate, duration in ((1e300, 2.0), (MAX_TIMER_FIRINGS + 1, 1.0)):
        with pytest.raises(ValueError, match="rate \\* duration must be <= 10000000"):
            WorkloadSpec(0.7, 10, rate, duration)


@pytest.mark.parametrize("scheme", ["dart", "ndn"])
def test_preload_equals_a_prefix_matches_reference(scheme):
    # nested anchored prefixes at two routers and at one, and a prefix
    # with two anchors
    anchored = {Prefix.parse("/p"): ("d",), Prefix.parse("/p/q"): ("b",),
                Prefix.parse("/p/q/s"): ("d",), Prefix.parse("/r"): ("a", "c")}
    ids = ("a", "b", "c", "d")
    topo = Topology(ids, {("a", "b"): 5.0, ("b", "c"): 5.0, ("c", "d"): 5.0}, anchored)
    names = [Name.parse(t) for t in ("/p", "/p/0", "/p/q/1", "/p/q/s/2", "/p/qq/3",
                                      "/r/4", "/r", "/x/5", "/p/0")]
    sim = _Simulation(World.build(topo, compute_fibs(topo), names), Scheme(scheme),
                      CachingMode.EDGE, duration_ms=1_000.0)
    for r in ids:
        store = sim.routers[r].store
        expected = {n for n in names
                    if any(p.matches(n) for p, anchors in anchored.items() if r in anchors)}
        # the world's names, read-only by type; get answers with the name
        assert store.owned.keys() == expected
        assert store.owned is sim.world.owned[r]  # shared, not copied
        _assert_read_only(store)
        for n in expected:
            assert store.get(n) is n
    # in catalog order
    assert list(sim.routers["a"].store.owned) == [Name.parse("/r/4"), Name.parse("/r")]


def _assert_read_only(store):
    # a shared store's names refuse a write by type
    held = next(iter(store.owned), Name.parse("/p/9"))
    with pytest.raises(TypeError):
        store.owned[held] = None
    with pytest.raises(AttributeError):
        store.owned.add(held)


@pytest.mark.parametrize("scheme", ["dart", "ndn"])
def test_routers_that_anchor_nothing_skip_the_anchor_test(scheme, monkeypatch):
    tested = []
    real = ContentStore.anchors

    def anchors(store, name):
        tested.append(store.anchored)
        return real(store, name)

    monkeypatch.setattr(ContentStore, "anchors", anchors)
    topo, fibs = line_topology()
    # every router misses /p/7; only the anchor "d" tests it, and refuses it
    asks = [(0.0, "c.a", Name.parse("/p/7")), (0.0, "c.b", Name.parse("/p/0"))]
    rep = simulate(World.build(topo, fibs, catalog(1)), scheme, "none", requests=asks,
                   duration_ms=5_000.0)
    assert rep.delivered == 1 and tested and all(tested)


# --- table size sampling ------------------------------------------------------

def test_sample_table_sizes_idle_and_in_flight():
    topo, fibs = line_topology()
    ndn = {r: NdnRouter(r, fibs[r]) for r in topo.routers}
    assert sample_table_sizes(ndn) == {r: (0, 0) for r in topo.routers}
    # one request in flight over three hops -> three PITs of size 1, each
    # router holding its nonce
    out = ndn["a"].on_interest("cons", NdnInterest(Name.parse("/p/0"), 1), 0.0)
    out = ndn["b"].on_interest("a", out[0][1], 1.0)
    ndn["c"].on_interest("b", out[0][1], 2.0)
    assert sample_table_sizes(ndn) == {"a": (1, 1), "b": (1, 1), "c": (1, 1), "d": (0, 0)}

    dart = {r: DartRouter(r, fibs[r]) for r in topo.routers}
    assert sample_table_sizes(dart) == {r: (0, 0) for r in topo.routers}
    out = dart["a"].on_local_interest("cons", Name.parse("/p/0"), 0.0)
    dart["b"].on_neighbor_interest("a", out[0][1], 1.0)
    sizes = sample_table_sizes(dart)
    assert sizes["a"] == (1, 1) and sizes["b"] == (1, 0)
    for router in (ndn["a"], dart["a"]):
        assert len(router.table_sizes()) == len(router.TABLES)

    # a run keeps the peak of every table by name: one consumer at a asks
    # for two names at once, and c anchors them
    topo, fibs = line_topology(3)
    asks = [(0.0, "c.a", Name.parse("/p/0")), (0.0, "c.a", Name.parse("/p/1"))]
    peaks = {}
    for scheme in ("dart", "ndn"):
        rep = simulate(World.build(topo, fibs, catalog(2)), scheme, "none", requests=asks,
                       consumers={"c.a": "a"}, duration_ms=200.0, sample_interval_ms=1.0,
                       warmup_fraction=0.0)
        assert rep.delivered == 2 and rep.tables == tuple(rep.table_max)
        peaks[scheme] = rep.table_max
    assert peaks["dart"] == {"dart_legs": {"a": 1, "b": 1, "c": 0},
                             "rct": {"a": 2, "b": 0, "c": 0}}
    # c answers from its store before it records a nonce
    assert peaks["ndn"] == {"pit": {"a": 2, "b": 2, "c": 0},
                            "nonces": {"a": 2, "b": 2, "c": 0}}


# --- end-to-end basics ----------------------------------------------------------

def two_router_run(scheme):
    topo = Topology(("a", "b"), {("a", "b"): 25.0}, {P: ("b",)})
    fibs = compute_fibs(topo)
    return simulate(World.build(topo, fibs, catalog()), scheme, "none",
                    requests=[(0.0, "c.a", Name.parse("/p/0"))],
                    consumers={"c.a": "a"}, duration_ms=1000.0,
                    warmup_fraction=0.0)


@pytest.mark.parametrize("scheme", ["dart", "ndn"])
def test_two_router_delay_is_exactly_round_trip(scheme):
    rep = two_router_run(scheme)
    assert rep.requests == 1 and rep.delivered == 1
    assert rep.delay_mean_ms["a"] == 50.0
    assert rep.delay_count["a"] == 1


@pytest.mark.parametrize("scheme", ["dart", "ndn"])
def test_conservation_under_consistent_fibs(scheme):
    topo = generate_topology(12, 60.0, 25.0, 5.0, seed=4)
    topo = topo.with_anchors({P: (topo.routers[0],)})
    fibs = compute_fibs(topo)
    wl = WorkloadSpec(0.7, 50, per_router_rate=5.0, duration=4.0, seed=11)
    rep = simulate(World.build(topo, fibs, catalog(50)), scheme, "edge", workload=wl,
                   retry_timeout_ms=30_000.0)
    assert rep.requests > 100
    assert rep.delivered == rep.requests
    assert rep.nacked == 0 and rep.abandoned == 0
    assert rep.loop_nacks == 0 and rep.orphan_data == 0


def test_interests_received_counts_every_arrival_and_local_ask():
    topo, fibs = line_topology()
    rep = simulate(World.build(topo, fibs, catalog()), "dart", "none",
                   requests=[(0.0, "c.a", Name.parse("/p/0"))],
                   consumers={"c.a": "a"}, duration_ms=1000.0)
    assert rep.interests_received == {"a": 1, "b": 1, "c": 1, "d": 1}


def test_retry_counts_as_received_interest_and_gives_up():
    # no route anywhere: consumer is nacked immediately, so no retries happen
    topo = Topology(("a", "b"), {("a", "b"): 25.0}, {P: ("b",)})
    fibs = compute_fibs(topo)
    rep = simulate(World.build(topo, fibs, catalog()), "dart", "none",
                   requests=[(0.0, "c.a", Name.parse("/q/0"))],
                   consumers={"c.a": "a"}, duration_ms=1000.0)
    assert rep.nacked == 1 and rep.nacked_by_code == {"no-route": 1}
    assert rep.retries == 0

    # NDN service that never answers: aggregated retries, then abandonment
    class MuteRouter(NdnRouter):
        def on_data(self, sender, data, now):
            return []

    topo2, fibs2 = line_topology(3)
    sim = _Simulation(World.build(topo2, fibs2, catalog()), Scheme.NDN, CachingMode.NONE,
                      requests=[(0.0, "c.a", Name.parse("/p/0"))],
                      consumers={"c.a": "a"},
                      duration_ms=8000.0, retry_timeout_ms=500.0, max_tries=3,
                      pit_lifetime_ms=100_000.0)
    mute = MuteRouter("b", fibs2["b"], pit_lifetime_ms=100_000.0)
    sim.routers["b"] = mute
    rep = sim.run()
    assert rep.abandoned == 1 and rep.delivered == 0
    assert rep.retries == 2  # 3 transmissions total
    assert rep.interests_received["a"] == 3


def test_a_retry_recovers_a_response_lost_on_the_way():
    # b drops the first Data; the consumer's retry at t=1000 is sent again
    # from a instead of waiting behind the pending RCT entry, and delivered
    topo, fibs = line_topology(3)
    buf = io.StringIO()
    sim = _Simulation(World.build(topo, fibs, catalog()), Scheme.DART, CachingMode.NONE,
                      requests=[(0.0, "c.a", Name.parse("/p/0"))],
                      consumers={"c.a": "a"}, duration_ms=5000.0,
                      warmup_fraction=0.0, trace=buf)
    relay = sim.routers["b"].on_data
    lost = []

    def drop_once(sender, data, now):
        if not lost:
            lost.append(now)
            return None
        return relay(sender, data, now)

    sim.routers["b"].on_data = drop_once
    rep = sim.run()
    assert lost == [75.0]
    assert (rep.delivered, rep.abandoned, rep.retries, rep.aggregated) == (1, 0, 1, 0)
    assert rep.delay_mean_ms["a"] == 1100.0
    sent = [l.split(" name=")[0] for l in buf.getvalue().splitlines() if " a TX INT " in l]
    assert sent == ["t=0.0 a TX INT", "t=1000.0 a TX INT"]


def test_an_abandoned_request_leaves_no_rct_entry():
    # b drops every Data, so the consumer gives up once, after its
    # max_tries-th ask; its origin must then forget the name instead of
    # keeping it pending
    topo, fibs = line_topology(3)
    buf = io.StringIO()
    sim = _Simulation(World.build(topo, fibs, catalog()), Scheme.DART, CachingMode.EDGE,
                      requests=[(0.0, "c.a", Name.parse("/p/0"))],
                      consumers={"c.a": "a"}, duration_ms=5000.0,
                      max_tries=4, trace=buf)
    sim.routers["b"].on_data = lambda sender, data, now: None
    give_up, calls = sim.routers["a"].give_up, []

    def spy(consumer, name):
        calls.append((consumer, name, buf.getvalue().count(" a TX INT ")))
        give_up(consumer, name)

    sim.routers["a"].give_up = spy
    rep = sim.run()
    assert calls == [("c.a", Name.parse("/p/0"), 4)]
    assert (rep.delivered, rep.abandoned, rep.retries) == (0, 1, 3)
    assert sim.routers["a"].rct == {} and sim.open == {}


def _run_peak_bytes(duration_s):
    # one rate-200 consumer whose requests are all answered long before
    # their retries would fall due
    topo, fibs = line_topology(3, delay=5.0)
    spec = WorkloadSpec(0.8, 50, per_router_rate=200.0, duration=duration_s, seed=1)
    sim = _Simulation(World.build(topo, fibs, catalog(50)), Scheme.DART, CachingMode.NONE,
                      workload=spec, consumers={"c.a": "a"},
                      retry_timeout_ms=1000.0 * duration_s + 60_000.0)
    tracemalloc.start()
    try:
        rep = sim.run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.delivered == rep.requests > 0 and rep.retries == 0
    return peak


def test_answered_requests_hold_no_memory_until_their_retry_time():
    # the state the loop holds grows with the requests in flight, not with
    # the request rate times the retry timeout
    short, long = _run_peak_bytes(2.0), _run_peak_bytes(8.0)
    assert long < 1.25 * short, (short, long)


def test_a_request_asked_again_is_retried_at_its_own_due_time():
    # /p/0 is answered at t=100 and asked again at t=500; b drops that
    # second Data, so the second request is retried at 500 + 1000, and the
    # first request's due time (t=1000) passes without a retry
    topo, fibs = line_topology(3)
    buf = io.StringIO()
    sim = _Simulation(World.build(topo, fibs, catalog()), Scheme.DART, CachingMode.NONE,
                      requests=[(0.0, "c.a", Name.parse("/p/0")),
                                (500.0, "c.a", Name.parse("/p/0"))],
                      consumers={"c.a": "a"}, duration_ms=5000.0,
                      retry_timeout_ms=1000.0, trace=buf)
    relay = sim.routers["b"].on_data
    dropped = []

    def drop_second(sender, data, now):
        if now > 500.0 and not dropped:
            dropped.append(now)
            return None
        return relay(sender, data, now)

    sim.routers["b"].on_data = drop_second
    rep = sim.run()
    assert dropped == [575.0]
    sent = [l.split(" name=")[0] for l in buf.getvalue().splitlines() if " a TX INT " in l]
    assert sent == ["t=0.0 a TX INT", "t=500.0 a TX INT", "t=1500.0 a TX INT"]
    assert (rep.delivered, rep.retries, rep.abandoned) == (2, 1, 0)
    assert sim.open == {}


def test_retry_timer_ties_break_in_push_order(tmp_path):
    # Retries wait in the open-request table beside the heap.  At equal times
    # the event pushed first still runs first: c.2's scripted request is
    # pushed before c.1's retry is armed, so it is handled first at t=1000.
    topo, fibs = line_topology(2, delay=600.0)
    path = tmp_path / "trace.txt"
    rep = simulate(World.build(topo, fibs, catalog(2)), "dart", "none",
                   requests=[(0.0, "c.1", Name.parse("/p/0")),
                             (1000.0, "c.2", Name.parse("/p/1"))],
                   consumers={"c.1": "a", "c.2": "a"},
                   retry_timeout_ms=1000.0, duration_ms=3000.0, trace_path=str(path))
    at_1000 = [line.split()[-1] for line in path.read_text().splitlines()
               if line.startswith("t=1000.0 a RX INT")]
    assert at_1000 == ["peer=c.2", "peer=c.1"]
    assert rep.retries == 2 and rep.delivered == 2  # each request retried once


def test_ties_across_the_three_queues_break_in_push_order(tmp_path):
    # Four events fall due at t=300, one from each place an event can wait:
    # c.2's scripted request (heap, pushed at construction), c.1's retry
    # timer (armed at t=0), c's send to d over a 100 ms link (the delay most
    # links share, pushed at t=200) and e's send to a over the one 50 ms
    # link (heap, pushed at t=250).  They must run in that push order.
    links = {("a", "b"): 100.0, ("b", "c"): 100.0, ("c", "d"): 100.0, ("a", "e"): 50.0}
    topo = Topology(("a", "b", "c", "d", "e"), links, {P: ("d",)})
    path = tmp_path / "trace.txt"
    simulate(World.build(topo, compute_fibs(topo), catalog(3)), "dart", "none",
             requests=[(0.0, "c.1", Name.parse("/p/0")), (300.0, "c.2", Name.parse("/p/1")),
                       (250.0, "c.3", Name.parse("/p/2"))],
             consumers={"c.1": "a", "c.2": "a", "c.3": "e"},
             retry_timeout_ms=300.0, duration_ms=1000.0, trace_path=str(path))
    at_300 = [line.split(" name=")[0] + " " + line.split()[-1]
              for line in path.read_text().splitlines()
              if line.startswith("t=300.0 ") and " RX " in line]
    assert at_300 == ["t=300.0 a RX INT peer=c.2", "t=300.0 a RX INT peer=c.1",
                      "t=300.0 d RX INT peer=c", "t=300.0 a RX INT peer=e"]


def test_warmup_gates_delay_samples():
    topo, fibs = line_topology(2)
    reqs = [(100.0, "c.a", Name.parse("/p/0")), (600.0, "c.a", Name.parse("/p/1"))]
    rep = simulate(World.build(topo, fibs, catalog(2)), "dart", "none", requests=reqs,
                   consumers={"c.a": "a"}, duration_ms=1000.0,
                   warmup_fraction=0.5)
    assert rep.delivered == 2
    assert rep.delay_count["a"] == 1  # only the post-warmup issue is sampled


def traced_paths(tmp_path, topo, fibs, *args, catalog, **kw):
    """Run one cell with a trace; return its report and request_paths."""
    path = tmp_path / "trace.txt"
    rep = simulate(World.build(topo, fibs, catalog), *args, trace_path=str(path), **kw)
    return rep, request_paths(path.read_text().splitlines())


@pytest.mark.parametrize("scheme", ["dart", "ndn"])
def test_collected_paths_are_symmetric(scheme, tmp_path):
    topo, fibs = line_topology(4)
    rep, paths = traced_paths(tmp_path, topo, fibs, scheme, "none",
                              requests=[(0.0, "c.a", Name.parse("/p/0"))],
                              consumers={"c.a": "a"}, catalog=catalog(),
                              duration_ms=1000.0)
    assert [i for i, _ in paths] == [("a", "b", "c", "d")]
    assert [d for _, d in paths] == [("d", "c", "b", "a")]


def test_cache_hit_path_is_local(tmp_path):
    topo, fibs = line_topology(4)
    reqs = [(0.0, "c.a", Name.parse("/p/0")), (500.0, "c.a", Name.parse("/p/0"))]
    rep, paths = traced_paths(tmp_path, topo, fibs, "dart", "edge", requests=reqs,
                              consumers={"c.a": "a"}, catalog=catalog(),
                              duration_ms=1000.0)
    assert [i for i, _ in paths] == [("a", "b", "c", "d"), ("a",)]
    assert [d for _, d in paths] == [("d", "c", "b", "a"), ("a",)]
    assert rep.delivered == 2


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan])
@pytest.mark.parametrize("key", ["sweep_interval_ms", "sample_interval_ms",
                                 "retry_timeout_ms"])
def test_non_positive_timers_are_rejected(key, value):
    # a non-positive period re-armed its timer forever; a zero retry timeout
    # left requests open that were never delivered or abandoned
    with pytest.raises(ValueError, match=f"{key} must be > 0"):
        scripted_sim(**{key: value})


@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -5.0])
def test_a_run_length_outside_zero_to_inf_is_rejected(value):
    # each was refused under another field's name: NaN and inf as a
    # sweep_interval_ms too short, 0 and -5 as a sample_interval_ms too long
    with pytest.raises(ValueError, match=f"^duration_ms must be > 0 and finite, got {value}$"):
        scripted_sim(duration_ms=value)


def test_infinite_retry_timeout_is_rejected():
    # an infinite retry timer fired after the run's end, at t=inf
    with pytest.raises(ValueError, match="retry_timeout_ms must be > 0 and finite, got inf"):
        scripted_sim(retry_timeout_ms=math.inf)


@pytest.mark.parametrize("key", ["sweep_interval_ms", "sample_interval_ms"])
def test_timers_firing_past_the_cap_are_rejected(key):
    # a period too short to move the clock (now + period == now) re-armed
    # its timer at the same instant forever
    horizon = 1000.0
    scripted_sim(duration_ms=horizon, **{key: horizon / MAX_TIMER_FIRINGS})
    with pytest.raises(ValueError, match=f"{key} must be >= the run's length / "):
        scripted_sim(duration_ms=horizon, **{key: 1e-20})


@pytest.mark.parametrize("fraction", [math.nan, 1.0, 2.0, -5.0])
def test_a_warmup_outside_the_run_is_rejected(fraction):
    # NaN, 1 and 2 took no sample and read every table mean as 0.0; -5
    # took 60 samples, the first at t=-4900 ms
    with pytest.raises(ValueError, match=r"warmup_fraction must be in \[0, 1\), got "):
        scripted_sim(warmup_fraction=fraction)


def test_a_first_sample_after_the_run_is_rejected():
    # ExperimentConfig's rule: the first sample falls within the run
    scripted_sim(duration_ms=1000.0, warmup_fraction=0.5, sample_interval_ms=500.0)
    with pytest.raises(ValueError, match="sample_interval_ms must be <= the run's length "
                                         "after warm-up, got 501.0"):
        scripted_sim(duration_ms=1000.0, warmup_fraction=0.5, sample_interval_ms=501.0)


def test_a_consumer_on_an_unknown_router_is_rejected():
    # it used to end the run in a raw KeyError when its request came up
    with pytest.raises(ValueError, match="consumer c.z is attached to an unknown router: zz"):
        scripted_sim(consumers={"c.a": "a", "c.z": "zz"},
                     requests=[(0.0, "c.z", Name.parse("/p/0"))])


@pytest.mark.parametrize("kw, message", [
    (dict(workload=WorkloadSpec(1.0, 1, 1.0, 1.0, 1)),
     "pass either a workload or scripted requests, not both"),
    (dict(workload=WorkloadSpec(1.0, 2, 1.0, 1.0, 1), requests=None),
     "catalog smaller than workload.catalog_size"),
    (dict(consumers={"c.a": "a", "b": "b"}), "consumer id collides with a router id: b"),
    (dict(requests=[(0.0, "c.x", Name.parse("/p/0"))]), "unknown consumer in script: c.x"),
    # a retry timer too short to move the clock re-armed at the same
    # instant until max_tries ran out, so a huge max_tries never ended
    (dict(max_tries=MAX_TIMER_FIRINGS + 1),
     f"max_tries must be >= 1 and <= {MAX_TIMER_FIRINGS}, got {MAX_TIMER_FIRINGS + 1}"),
], ids=["workload-and-script", "short-catalog", "consumer-named-as-a-router",
        "unknown-scripted-consumer", "max-tries-past-the-timer-cap"])
def test_inconsistent_traffic_is_rejected(kw, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        scripted_sim(**kw)


def test_the_across_router_mean_is_a_left_fold():
    # 1e16 + 1.0 rounds back to 1e16, so a left fold of these means is 0.0;
    # the compensated sum() of Python 3.12 and later gives 1/3
    topo, fibs = line_topology(3)
    sim = _Simulation(World.build(topo, fibs, catalog()), Scheme.NDN, CachingMode.NONE,
                      requests=[], duration_ms=1000.0)
    means = {"a": 1e16, "b": 1.0, "c": -1e16}
    first = sim.report.tables[0]
    sim.size_sums = [means[r] if t == first else 0 for t, r in sim.size_keys]
    sim.sample_count = 1
    rep = sim._report()
    assert rep.table_mean[first] == means
    assert rep.table_size_router_mean == 0.0
    assert ("*", "table_size_router_mean", 0.0) in [row[3:] for row in rep.rows()]


def test_determinism_of_reports():
    topo = generate_topology(10, 60.0, 28.0, 5.0, seed=2)
    topo = topo.with_anchors({P: (topo.routers[1],)})
    fibs = compute_fibs(topo)
    wl = WorkloadSpec(0.7, 30, 8.0, 3.0, seed="det")
    r1 = simulate(World.build(topo, fibs, catalog(30)), "ndn", "edge", workload=wl)
    r2 = simulate(World.build(topo, fibs, catalog(30)), "ndn", "edge", workload=wl)
    assert r1.rows() == r2.rows()
    r3 = simulate(World.build(topo, fibs, catalog(30)), "ndn", "edge",
                  workload=WorkloadSpec(0.7, 30, 8.0, 3.0, seed="other"))
    assert r3.rows() != r1.rows()


# --- audits --------------------------------------------------------------------

def scripted_sim(**kw):
    topo, fibs = line_topology(4)
    args = dict(requests=[(0.0, "c.a", Name.parse("/p/0"))],
                consumers={"c.a": "a"}, duration_ms=2000.0)
    args.update(kw)
    return topo, fibs, _Simulation(World.build(topo, fibs, catalog()), Scheme.DART,
                                   CachingMode.NONE, **args)


def test_audit_catches_non_descending_hop_budget():
    topo, fibs, sim = scripted_sim()
    honest = sim.routers["b"]

    def stuck(sender, interest, now):
        return [("c", Interest(interest.name, interest.hop_count, 77))]

    honest.on_neighbor_interest = stuck
    with pytest.raises(AuditError) as ei:
        sim.run()
    assert ei.value.kind == "hop-count-descent"
    assert ei.value.router == "b"
    assert "recent deliveries" in str(ei.value)


def test_audit_error_lists_fifo_and_heap_deliveries_in_order(monkeypatch):
    # c-d is the one 40 ms link.  c.d asks at d 10 ms after c sent /p/0 to
    # d, so d's 25 ms send to e falls due before that 40 ms send and waits
    # in the heap; every other send sorts after the FIFO's tail and waits
    # there.  The audit ring keeps both kinds of delivery, in order.
    links = {("a", "b"): 25.0, ("b", "c"): 25.0, ("c", "d"): 40.0, ("d", "e"): 25.0}
    topo = Topology(("a", "b", "c", "d", "e"), links, {P: ("e",)})
    fibs = compute_fibs(topo)
    sim = _Simulation(World.build(topo, fibs, catalog(2)), Scheme.DART, CachingMode.NONE,
                      requests=[(0.0, "c.a", Name.parse("/p/0")),
                                (60.0, "c.d", Name.parse("/p/1")),
                                (300.0, "c.a", Name.parse("/p/1"))],
                      consumers={"c.a": "a", "c.d": "d"}, duration_ms=2000.0)
    honest = sim.routers["d"].on_neighbor_interest

    def stuck_late(sender, interest, now):
        if now > 300.0:
            return [("e", Interest(interest.name, interest.hop_count, 77))]
        return honest(sender, interest, now)

    sim.routers["d"].on_neighbor_interest = stuck_late
    heap_waits = []
    push = heapq.heappush

    def spy_push(heap, item):
        heap_waits.append(item[3])
        push(heap, item)

    monkeypatch.setattr(heapq, "heappush", spy_push)
    with pytest.raises(AuditError) as ei:
        sim.run()
    assert ei.value.recent == [
        "t=25.0 b RX INT name=/p/0 h=4 dart=1 peer=a",
        "t=50.0 c RX INT name=/p/0 h=3 dart=1 peer=b",
        "t=85.0 e RX INT name=/p/1 h=1 dart=1 peer=d",
        "t=90.0 d RX INT name=/p/0 h=2 dart=1 peer=c",
        "t=110.0 d RX DATA name=/p/1 h=- dart=1 peer=e",
        "t=115.0 e RX INT name=/p/0 h=1 dart=2 peer=d",
        "t=140.0 d RX DATA name=/p/0 h=- dart=2 peer=e",
        "t=180.0 c RX DATA name=/p/0 h=- dart=1 peer=d",
        "t=205.0 b RX DATA name=/p/0 h=- dart=1 peer=c",
        "t=230.0 a RX DATA name=/p/0 h=- dart=1 peer=b",
        "t=325.0 b RX INT name=/p/1 h=4 dart=1 peer=a",
        "t=350.0 c RX INT name=/p/1 h=3 dart=1 peer=b",
        "t=390.0 d RX INT name=/p/1 h=2 dart=1 peer=c",
    ]
    # the ring holds the delivered entries themselves, so the one that
    # waited in the heap is found by identity
    waited = {id(entry) for entry in heap_waits}
    from_heap = [line for entry, line in zip(sim.recent, ei.value.recent)
                 if id(entry) in waited]
    assert from_heap == ["t=85.0 e RX INT name=/p/1 h=1 dart=1 peer=d"]


def test_audit_error_survives_a_pickle_round_trip():
    # a pool worker's violation crosses to the parent pickled
    e = AuditError("path-acyclicity", "b", Interest(Name.parse("/p/0"), 3, 9),
                   ("a", "b", "c"), ["t=1.0 b RX INT ..."])
    back = pickle.loads(pickle.dumps(e))
    assert type(back) is AuditError
    assert (back.kind, back.router, back.message, back.chain, back.recent) == \
        (e.kind, e.router, e.message, e.chain, e.recent)
    assert str(back) == str(e)


def test_scripted_requests_need_a_duration():
    topo, fibs = line_topology(2)
    with pytest.raises(ValueError, match="duration_ms"):
        _Simulation(World.build(topo, fibs, catalog()), Scheme.DART, CachingMode.NONE,
                    requests=[(0.0, "c.a", Name.parse("/p/0"))],
                    consumers={"c.a": "a"})


def test_audit_catches_forwarding_revisit():
    # six-router line so hop budgets stay legal while b and c ping-pong
    topo, fibs = line_topology(6)
    sim = _Simulation(World.build(topo, fibs, catalog()), Scheme.DART, CachingMode.NONE,
                      requests=[(0.0, "c.a", Name.parse("/p/0"))],
                      consumers={"c.a": "a"}, duration_ms=2000.0)
    sim.routers["b"].on_neighbor_interest = \
        lambda s, i, now: [("c", Interest(i.name, i.hop_count - 1, 88))]
    sim.routers["c"].on_neighbor_interest = \
        lambda s, i, now: [("b", Interest(i.name, i.hop_count - 1, 99))]
    with pytest.raises(AuditError) as ei:
        sim.run()
    assert ei.value.kind == "path-acyclicity"
    assert ei.value.router == "b"
    assert ei.value.chain == ("a", "b", "c")


def test_audits_can_be_disabled():
    topo, fibs, sim = scripted_sim(audits=False, retry_timeout_ms=100.0)
    sim.routers["b"].on_neighbor_interest = \
        lambda s, i, now: [("c", Interest(i.name, i.hop_count, 77))]
    rep = sim.run()  # completes instead of aborting; the request just dies
    assert rep.abandoned == 1


# --- garbage collection ------------------------------------------------------------

# Route and PIT lifetimes shorter than a round trip and a small store, so
# orphan drops, expiry, retries, abandons and store evictions all happen.
GC_CELL = """\
nodes = 12
area = 30
radius = 14
link_delay_ms = 40
producers = 2
catalog = 200
duration_s = 3
rates = 50
store_capacity = 5
retry_timeout_s = 0.3
dart_ttl_s = 0.05
pit_lifetime_s = 0.05
sweep_interval_s = 0.02
max_tries = 2
"""


@pytest.mark.parametrize("caching", ["edge", "onpath", "none"])
@pytest.mark.parametrize("scheme", ["dart", "ndn"])
def test_a_finished_cell_leaves_no_cyclic_garbage(scheme, caching, tmp_path):
    # The loop runs with cyclic GC off, so it must build no reference
    # cycles: refcounting alone has to free a finished cell.
    cfg = parse_config(GC_CELL)
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        run_cell(cfg, scheme, caching, 50.0, 1, tmp_path, trace_path=str(tmp_path / "t"))
        found = gc.collect()
    finally:
        if was:
            gc.enable()
    assert found == 0


@pytest.mark.parametrize("capacity", [0, 5])
@pytest.mark.parametrize("scheme", ["dart", "ndn"])
def test_stores_hold_names_not_packets_after_an_on_path_cell(scheme, capacity, monkeypatch):
    sims = []
    report = _Simulation._report
    monkeypatch.setattr(_Simulation, "_report", lambda sim: sims.append(sim) or report(sim))
    simulate_cell(replace(parse_config(GC_CELL), store_capacity=capacity),
                  scheme, "onpath", 50.0, 1)
    (sim,) = sims
    assert sim.world.owned
    stores = [node.store for node in sim.routers.values()]
    for r, node in sim.routers.items():
        if r in sim.world.owned:
            assert node.store.owned is sim.world.owned[r]
            _assert_read_only(node.store)
    assert any(store.cached for store in stores)
    for store in stores:
        assert all(type(n) is Name for n in (*store.owned, *store.cached))
        assert set(store.cached.values()) <= {None}


@pytest.mark.parametrize("scheme, positive", [
    # one consumer per router and consistent FIBs: nothing aggregates at a
    # DART origin, and no router refuses an Interest or sends a Nack
    ("dart", {"orphan_data", "dart_evicted"}),
    ("ndn", {"aggregated", "orphan_data", "pit_expired"}),
])
def test_report_totals_add_up_the_routers_counters(scheme, positive, monkeypatch):
    sims = []
    report = _Simulation._report
    monkeypatch.setattr(_Simulation, "_report", lambda sim: sims.append(sim) or report(sim))
    rep = simulate_cell(parse_config(GC_CELL), scheme, "edge", 50.0, 1)
    (sim,) = sims
    nodes = list(sim.routers.values())
    kept = type(nodes[0]).TOTALS
    # a name that is no report field would be a stray total nothing reads
    assert set(kept) <= {f.name for f in fields(MetricsReport)}
    for key in kept:
        assert getattr(rep, key) == sum(getattr(n, key) for n in nodes), key
    assert {key for key in kept if getattr(rep, key) > 0} == positive
    # a total only the other scheme keeps stays 0
    others = set(DartRouter.TOTALS) ^ set(NdnRouter.TOTALS)
    assert all(getattr(rep, key) == 0 for key in others - set(kept))
    assert rep.store_evictions == sum(n.store.evictions for n in nodes) > 0
    assert rep.interests_received == {r: n.interests_received for r, n in sim.routers.items()}
    assert min(rep.interests_received.values()) > 0


# --- pinned outputs of a mixed-delay cell ------------------------------------------

# SHA-256 of rows() (formatted as the CSV writer formats them) and of the
# trace text of GC_CELL on a topology where every third link is slower, so
# sends wait two different delays.  Event-queue changes must keep these.
MIXED_DELAY_DIGESTS = {
    ("dart", "edge"): ("abd31f29be224884e68fdf7ad3fdc1daf8fc3eaedcd00d36cb1c172eebbcd6cf",
                       "35681ccdff43211322372a75a43129c9b56ebee5510615a068d986aef446a54e"),
    ("dart", "onpath"): ("3dcef971ff906526475ba61819c1eeed0a52f4f6a811c5970bd9c77876afbe08",
                         "4ba9af3c4655f1929a03359c58b9b622fdea30511c986c8ff0002f0612b2634e"),
    ("dart", "none"): ("ab4f4596085bda04bfc4398705e5c817e28eeba4c229bbb4a3edd468f6314752",
                       "eb9d940ddf8c949b637bac5c0b22c1c6bff82898606fb4451c61786bb9709525"),
    ("ndn", "edge"): ("fd143793af1305748670c2aa4c40da5d36602b5510a32edfecb7c64c877b1378",
                      "e952ab097a152af36f0f5a6e13a084a2ca6fe5ccee616853fbac0230feed5d62"),
    ("ndn", "onpath"): ("effc64dac13101b03e70e77d83f120155142b1a106af15c0cb142ad9a8efcdfd",
                        "03931b2d2ad70a5a552ef845a714006e566e4566b5d3ebc9d081914770c86486"),
    ("ndn", "none"): ("bc662f7cb8d2b88b82999bd4475466304f3d580d75dd39ed2ffbca45a80c3ac3",
                      "37a91de8b4ac527de9119fae1f7cd6558c1deb5c3f3b04929d2125c450d61c97"),
}


def _mixed_delay_topology(cfg):
    # build_topology is the one imported above, not the patched attribute
    topo = build_topology(cfg)
    links = {k: 65.0 if i % 3 == 0 else cfg.link_delay_ms
             for i, k in enumerate(sorted(topo.links))}
    return Topology(topo.routers, links, topo.anchors)


@pytest.mark.parametrize("caching", ["edge", "onpath", "none"])
@pytest.mark.parametrize("scheme", ["dart", "ndn"])
def test_mixed_delay_cell_outputs_are_pinned(scheme, caching, tmp_path, monkeypatch,
                                             fresh_world):
    monkeypatch.setattr(experiment, "build_topology", _mixed_delay_topology)
    path = tmp_path / "trace.txt"
    rep = simulate_cell(parse_config(GC_CELL), scheme, caching, 50.0, 1, str(path))
    rows = "".join(",".join(experiment._fmt(v) for v in row) + "\n" for row in rep.rows())
    got = (hashlib.sha256(rows.encode()).hexdigest(),
           hashlib.sha256(path.read_bytes()).hexdigest())
    assert got == MIXED_DELAY_DIGESTS[(scheme, caching)]


# --- pinned outputs of a retry-heavy grid ------------------------------------------

# Retry timeouts shorter than many round trips over the default 230 ms
# links, two tries and a small store: each cell retries 217-238 requests and
# abandons 152-212, and the NDN cells aggregate about 320 Interests, so the
# open-request records (rides, retries, abandons) and store hits are pinned.
RETRY_CELL = """\
nodes = 12
area = 30
radius = 12
producers = 2
catalog = 200
rates = 20
seeds = 1
duration_s = 5
retry_timeout_s = 0.6
max_tries = 2
pit_lifetime_s = 2
dart_ttl_s = 1
store_capacity = 20
"""

# SHA-256 of rows() (formatted as the CSV writer formats them) and of the
# trace text of each cell of RETRY_CELL
RETRY_DIGESTS = {
    ("dart", "edge"): ("4ede761ac1cb1379bda999fce7d7bff83c65e646159a17e58b3b8fcf39a44928",
                       "f7f9f08a012594864733a9cd3a760d936ec1a5681717904237bf9d1d52ea2df7"),
    ("dart", "onpath"): ("9e8e884c4682ea2a2cc11c70eeab535e866fc826471b834497bbfb80f6619805",
                         "e3d63696086b7359cbf9019a7f058b785468ddd3f9736a808cfa9ab061b20881"),
    ("ndn", "edge"): ("142f97760e3512fd2a10b4eda40fbfcf394b999da41173b9c99b8c68acf5c598",
                      "837a71da9e032364e2d11e321b2d9fce1b8e6fd2f8610e8dea83e72514b7f2b8"),
    ("ndn", "onpath"): ("cd10b3dfbdf38c0a57cc6302f63229eeff7f5a424401b92eb2495f7adc1ecf0f",
                        "2d39678841495f33faf894ac428a082587944a38624d3f7e21f1b19f4734d5b4"),
}


def test_retry_heavy_grid_outputs_are_pinned(tmp_path):
    cfg = parse_config(RETRY_CELL)
    assert {cell[:2] for cell in cfg.cells()} == set(RETRY_DIGESTS)
    for scheme, caching, rate, seed in cfg.cells():
        path = tmp_path / f"{scheme}_{caching}.txt"
        rep = simulate_cell(cfg, scheme, caching, rate, seed, str(path))
        assert rep.retries > 200 and rep.abandoned > 150
        rows = "".join(",".join(experiment._fmt(v) for v in row) + "\n" for row in rep.rows())
        got = (hashlib.sha256(rows.encode()).hexdigest(),
               hashlib.sha256(path.read_bytes()).hexdigest())
        assert got == RETRY_DIGESTS[(scheme, caching)], (scheme, caching)


def _assert_open_records_in_due_order(records, max_tries):
    # (due_time, seq, attempt, issue_time, ...): every record has a due, the
    # dict order is strictly increasing (due_time, seq), and each record
    # holds at least one issue
    assert all(r[0] is not None and 1 <= r[2] <= max_tries and len(r) > 3 for r in records)
    assert all(a[:2] < b[:2] for a, b in zip(records, records[1:]))


@settings(max_examples=60, deadline=None)
@given(scheme=st.sampled_from(["dart", "ndn"]),
       caching=st.sampled_from(["edge", "onpath", "none"]),
       nodes=st.integers(2, 7), topology_seed=st.integers(0, 20),
       seed=st.integers(0, 1000), rate=st.floats(5.0, 80.0),
       retry_timeout_ms=st.floats(5.0, 60.0), max_tries=st.integers(1, 3),
       lifetime_ms=st.floats(10.0, 400.0), capacity=st.sampled_from([None, 2]),
       link_delays=st.lists(st.sampled_from([10.0, 20.0, 30.0]), min_size=1, max_size=8))
def test_requests_are_conserved_and_open_records_stay_in_due_order(
        scheme, caching, nodes, topology_seed, seed, rate, retry_timeout_ms, max_tries,
        lifetime_ms, capacity, link_delays):
    # Retry timeouts of at most six 10 ms link delays, so requests ride,
    # retry and are abandoned; names under /q have no route and are nacked.
    # Links take their delays in turn from link_delays: mixed delays make
    # due times tie and sends fall due out of the order they were made in.
    topo = generate_topology(nodes, 30.0, 14.0, 20.0, seed=topology_seed)
    topo = Topology(topo.routers, {link: link_delays[i % len(link_delays)]
                                   for i, link in enumerate(topo.links)},
                    {P: (topo.routers[0],)})
    names = catalog(12) + [Name.parse(f"/q/{i}") for i in range(3)]
    spec = WorkloadSpec(0.8, len(names), rate, 1.0, seed=seed)
    trace = io.StringIO()
    sim = _Simulation(World.build(topo, compute_fibs(topo), names), Scheme(scheme),
                      CachingMode(caching), workload=spec, retry_timeout_ms=retry_timeout_ms,
                      max_tries=max_tries, dart_ttl_ms=lifetime_ms, pit_lifetime_ms=lifetime_ms,
                      sweep_interval_ms=50.0, sample_interval_ms=20.0, store_capacity=capacity,
                      trace=trace)
    sample, seen = sim._sample, []

    def checked_sample(now):
        records = list(sim.open.values())
        _assert_open_records_in_due_order(records, max_tries)
        assert all(r[0] >= now and max(r[3:]) <= now for r in records)
        seen.append(len(records))
        return sample(now)

    sim._sample = checked_sample
    rep = sim.run()
    assert len(seen) == sim.sample_count > 0
    records = list(sim.open.values())
    _assert_open_records_in_due_order(records, max_tries)
    still_open = sum(len(r) - 3 for r in records)
    assert rep.requests == rep.delivered + rep.nacked + rep.abandoned + still_open
    # events are dispatched in time order, whichever queue each waited in
    times = [float(t) for t in re.findall(r"^t=(\S+) ", trace.getvalue(), re.M)]
    assert times and all(a <= b for a, b in zip(times, times[1:]))


@pytest.mark.parametrize("audit_fails", [False, True])
@pytest.mark.parametrize("enabled", [True, False])
def test_run_suspends_gc_and_restores_the_callers_state(enabled, audit_fails):
    topo, fibs, sim = scripted_sim()
    honest = sim.routers["b"].on_neighbor_interest
    seen = []

    def spy(sender, interest, now):
        seen.append(gc.isenabled())
        if audit_fails:
            return [("c", Interest(interest.name, interest.hop_count, 77))]
        return honest(sender, interest, now)

    sim.routers["b"].on_neighbor_interest = spy
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if audit_fails:
            with pytest.raises(AuditError):
                sim.run()
        else:
            assert sim.run().delivered == 1
        after = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False]
    assert after is enabled


# --- trace file ------------------------------------------------------------------

def test_trace_file_format(tmp_path):
    topo, fibs = line_topology(3)
    path = tmp_path / "trace.txt"
    weird = Name(["p", "a b", "c=d", "%25", "\n", "é"])
    simulate(World.build(topo, fibs, catalog()), "dart", "none",
             requests=[(0.0, "c.a", Name.parse("/p/0")), (1.0, "c.a", weird)],
             consumers={"c.a": "a"}, duration_ms=500.0,
             trace_path=str(path))
    lines = path.read_text().splitlines()
    assert lines, "trace should not be empty"
    pat = re.compile(r"^t=[0-9.]+ \S+ (RX|TX|DROP) (INT|DATA|NACK) "
                     r"name=\S+ h=\S+ dart=\S+ peer=\S+$")
    for line in lines:
        assert pat.match(line) and line.isascii(), line
    assert any(" DATA " in l for l in lines)
    assert lines[0] == "t=0.0 a RX INT name=/p/0 h=- dart=- peer=c.a"
    # odd components are escaped one by one, so each event stays one line
    assert any(" name=/p/a%20b/c%3Dd/%2525/%0A/%C3%A9 " in l for l in lines)


def _drops(lines):
    return [l.split(" name=")[0] for l in lines if " DROP " in l]


def test_trace_marks_dropped_packets(tmp_path):
    topo, fibs = line_topology(3)
    # DART: legs idle out while the Data is in flight, so b drops it as an orphan
    path = tmp_path / "dart.txt"
    rep = simulate(World.build(topo, fibs, catalog()), "dart", "none",
                   requests=[(0.0, "c.a", Name.parse("/p/0"))],
                   consumers={"c.a": "a"}, duration_ms=500.0,
                   dart_ttl_ms=10.0, sweep_interval_ms=20.0, trace_path=str(path))
    assert _drops(path.read_text().splitlines()) == ["t=75.0 b DROP DATA"]
    assert rep.orphan_data == 1

    # NDN: an expired PIT entry orphans the Data, and every Nack is swallowed
    path = tmp_path / "ndn.txt"
    rep = simulate(World.build(topo, fibs, catalog()), "ndn", "none",
                   requests=[(0.0, "c.a", Name.parse("/p/0")),
                             (0.0, "c.a", Name.parse("/p/9"))],  # the anchor lacks it
                   consumers={"c.a": "a"}, duration_ms=500.0,
                   pit_lifetime_ms=10.0, sweep_interval_ms=20.0, max_tries=1,
                   trace_path=str(path))
    lines = path.read_text().splitlines()
    assert _drops(lines) == ["t=75.0 b DROP DATA", "t=75.0 b DROP NACK"]
    assert not any(" RX NACK " in l for l in lines)
    assert rep.orphan_data == 1 and rep.nacks_dropped == 1


def test_trace_keeps_late_data_at_its_origin_as_rx():
    # b answers twice: the second Data reaches a with no one waiting, which
    # is not an orphan (the leg is live), so it is received, not dropped
    topo, fibs = line_topology(3)
    buf = io.StringIO()
    sim = _Simulation(World.build(topo, fibs, catalog()), Scheme.DART, CachingMode.EDGE,
                      requests=[(0.0, "c.a", Name.parse("/p/0"))],
                      consumers={"c.a": "a"}, duration_ms=500.0, trace=buf)
    relay = sim.routers["b"].on_data
    sim.routers["b"].on_data = lambda s, d, now: 2 * relay(s, d, now)
    rep = sim.run()
    lines = buf.getvalue().splitlines()
    assert [l.split(" name=")[0] for l in lines if l.startswith("t=100.0 a ")] == \
        ["t=100.0 a RX DATA", "t=100.0 a TX DATA", "t=100.0 a RX DATA"]
    assert _drops(lines) == []
    assert rep.orphan_data == 0 and rep.delivered == 1


def test_rows_match_csv_contract():
    rep = two_router_run("dart")
    for row in rep.rows():
        scheme, caching, rate, router, metric, value = row
        assert scheme == "dart" and caching == "none"
        assert isinstance(metric, str)
        assert isinstance(value, (int, float))
    metrics = {(r, m) for (_, _, _, r, m, _) in rep.rows()}
    assert ("*", "requests") in metrics and ("a", "table_size_mean") in metrics


def test_rows_give_one_total_per_nack_code():
    topo = Topology(("a", "b"), {("a", "b"): 25.0}, {P: ("b",)})
    rep = simulate(World.build(topo, compute_fibs(topo), catalog()), "dart", "none",
                   requests=[(0.0, "c.a", Name.parse("/q/0"))], consumers={"c.a": "a"},
                   duration_ms=1000.0, warmup_fraction=0.0)
    totals = [row[3:] for row in rep.rows() if row[3] == "*"]
    assert ("*", "nacked", 1) in totals and ("*", "nacked_no-route", 1) in totals
