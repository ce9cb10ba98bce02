import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dartlab import dart_node
from dartlab.dart_node import DartRouter
from dartlab.model import (
    CachingMode,
    DataPacket,
    Interest,
    MAX_DART,
    Nack,
    NackCode,
    Name,
    Prefix,
)
from dartlab.routing import Fib, Prefix, Topology, compute_fibs

P = Prefix.parse("/p")
OBJ = Name.parse("/p/1")
OBJ2 = Name.parse("/p/2")


def line_fibs():
    topo = Topology(("a", "b", "c", "d"),
                    {("a", "b"): 1.0, ("b", "c"): 1.0, ("c", "d"): 1.0},
                    {P: ("d",)})
    return topo, compute_fibs(topo)


def make(router_id, fibs, anchored=(), mode=CachingMode.EDGE, **kw):
    return DartRouter(router_id, fibs[router_id], anchored, caching_mode=mode, **kw)


def test_local_interest_creates_origin_leg_and_pending_rct():
    _, fibs = line_fibs()
    a = make("a", fibs)
    out = a.on_local_interest("c1", OBJ, now=0.0)
    assert len(out) == 1
    dst, msg = out[0]
    assert dst == "b" and isinstance(msg, Interest)
    assert msg.hop_count == 3  # distance to anchor via b
    assert a.table_size() == 1
    assert a.rct == {OBJ: ("c1",)}  # every RCT entry is pending
    leg = a.by_succ[msg.dart]
    assert leg.predecessor == "a" and leg.predecessor_dart == msg.dart
    assert leg.successor == "b" and leg.key == ("d", "b")
    # an origin leg is found by (anchor, successor); no sender ever names
    # it, so no (sender, token) key leads to it
    assert a.legs == {("d", "b"): leg}


def test_local_interest_aggregates_second_consumer():
    _, fibs = line_fibs()
    a = make("a", fibs)
    a.on_local_interest("c1", OBJ, now=0.0)
    out = a.on_local_interest("c2", OBJ, now=1.0)
    assert out == [] and a.aggregated == 1
    assert a.rct == {OBJ: ("c1", "c2")}
    assert a.table_size() == 1  # no extra route state for an aggregated ask


def test_waiting_consumer_that_asks_again_resends_the_interest():
    # only a retry, or an ask after giving up, repeats a pending ask: the
    # response is late or lost, so the Interest goes out again; another
    # consumer's ask still waits behind the entry
    _, fibs = line_fibs()
    a = make("a", fibs)
    (first,) = a.on_local_interest("c1", OBJ, now=0.0)
    assert a.on_local_interest("c2", OBJ, now=1.0) == []
    assert a.on_local_interest("c1", OBJ, now=2.0) == [first]
    assert a.rct == {OBJ: ("c1", "c2")} and a.aggregated == 1
    assert a.table_size() == 1 and a.by_succ[first.message.dart].last_used == 2.0
    # the origin leg idled out meanwhile: the re-sent Interest opens a new one
    a.evict_darts(now=60_000.0)
    (again,) = a.on_local_interest("c2", OBJ, now=60_001.0)
    assert again.message.dart != first.message.dart and a.table_size() == 1
    assert a.rct == {OBJ: ("c1", "c2")} and a.aggregated == 1
    assert a.interests_received == 4


def test_origin_leg_shared_across_names_to_same_anchor():
    _, fibs = line_fibs()
    a = make("a", fibs)
    (d1,) = [e.message.dart for e in a.on_local_interest("c1", OBJ, 0.0)]
    (d2,) = [e.message.dart for e in a.on_local_interest("c1", OBJ2, 0.0)]
    assert d1 == d2 and a.table_size() == 1
    assert a.rct == {OBJ: ("c1",), OBJ2: ("c1",)}


def test_local_interest_store_hit_short_circuits():
    _, fibs = line_fibs()
    a = make("a", fibs)
    a.store.cache(DataPacket(OBJ))
    out = a.on_local_interest("c1", OBJ, 0.0)
    assert out == [("c1", DataPacket(OBJ))]
    assert a.table_size() == 0 and not a.rct


def test_local_interest_anchored_paths():
    _, fibs = line_fibs()
    d = make("d", fibs, anchored=(P,))
    assert d.on_local_interest("c1", OBJ, 0.0) == [("c1", Nack(OBJ, NackCode.NO_CONTENT))]
    d.store.add_owned(DataPacket(OBJ))
    assert d.on_local_interest("c1", OBJ, 0.0) == [("c1", DataPacket(OBJ))]


def test_local_interest_no_route():
    _, fibs = line_fibs()
    a = make("a", fibs)
    other = Name.parse("/unrouted/x")
    assert a.on_local_interest("c1", other, 0.0) == [("c1", Nack(other, NackCode.NO_ROUTE))]


def test_neighbor_interest_forwards_and_keeps_budget_shrinking():
    _, fibs = line_fibs()
    b = make("b", fibs)
    out = b.on_neighbor_interest("a", Interest(OBJ, 3, 7), now=0.0)
    assert len(out) == 1
    dst, msg = out[0]
    assert dst == "c" and msg.hop_count == 2 and msg.dart != 7
    leg = b.legs[("a", 7)]
    assert leg.successor == "c" and leg.successor_dart == msg.dart
    assert leg.hop_count == 2 and b.table_size() == 1


def test_neighbor_interest_fast_path_reuses_leg():
    _, fibs = line_fibs()
    b = make("b", fibs)
    (first,) = b.on_neighbor_interest("a", Interest(OBJ, 3, 7), now=0.0)
    (again,) = b.on_neighbor_interest("a", Interest(OBJ2, 3, 7), now=5.0)
    assert again == ("c", Interest(OBJ2, 2, first.message.dart))
    assert b.table_size() == 1
    assert b.legs[("a", 7)].last_used == 5.0


def test_neighbor_interest_refuses_without_forward_progress():
    _, fibs = line_fibs()
    b = make("b", fibs)
    # budget 2: c is at distance 2 (not strictly closer), a is excluded
    out = b.on_neighbor_interest("a", Interest(OBJ, 2, 9), now=0.0)
    assert out == [("a", Nack(OBJ, NackCode.LOOP, 9))]
    assert b.loop_nacks == 1 and b.table_size() == 0


def test_neighbor_interest_excludes_sender_even_if_closer():
    topo = Topology(("a", "b", "z"),
                    {("a", "b"): 1.0, ("a", "z"): 1.0, ("b", "z"): 1.0},
                    {P: ("z",)})
    fibs = compute_fibs(topo)
    b = make("b", fibs)
    # from z itself with a huge budget: a (distance 2) admissible, z excluded
    (out,) = b.on_neighbor_interest("z", Interest(OBJ, 9, 3), now=0.0)
    assert out.dst == "a"


def test_neighbor_interest_store_anchor_and_no_route():
    _, fibs = line_fibs()
    b = make("b", fibs)
    b.store.cache(DataPacket(OBJ))
    assert b.on_neighbor_interest("a", Interest(OBJ, 3, 7), 0.0) == \
        [("a", DataPacket(OBJ, 7))]
    d = make("d", fibs, anchored=(P,))
    assert d.on_neighbor_interest("c", Interest(OBJ, 1, 5), 0.0) == \
        [("c", Nack(OBJ, NackCode.NO_CONTENT, 5))]
    other = Name.parse("/unrouted/x")
    assert b.on_neighbor_interest("a", Interest(other, 4, 8), 0.0) == \
        [("a", Nack(other, NackCode.NO_ROUTE, 8))]
    assert b.loop_nacks == 0


def test_neighbor_interest_on_an_empty_fib_entry_is_no_route_not_loop():
    # only a hand-built FIB holds an entry with no tuples
    b = DartRouter("b", Fib({P: ()}))
    assert b.on_neighbor_interest("a", Interest(OBJ, 3, 7), 0.0) == \
        [("a", Nack(OBJ, NackCode.NO_ROUTE, 7))]
    assert b.loop_nacks == 0 and b.table_size() == 0


def test_a_new_leg_looks_up_the_fib_once():
    _, fibs = line_fibs()
    b = make("b", fibs)
    lookups = []
    lookup = b.fib.lookup
    b.fib.lookup = lambda name: lookups.append(name) or lookup(name)
    b.on_neighbor_interest("a", Interest(OBJ, 3, 7), now=0.0)
    assert lookups == [OBJ] and b.table_size() == 1


def test_consumer_ask_is_the_bare_name():
    _, fibs = line_fibs()
    assert make("a", fibs).ask(OBJ) is OBJ


def relay_with_leg(mode=CachingMode.EDGE):
    _, fibs = line_fibs()
    b = make("b", fibs, mode=mode)
    (fwd,) = b.on_neighbor_interest("a", Interest(OBJ, 3, 7), now=0.0)
    return b, fwd.message.dart


def test_data_relayed_back_swaps_darts():
    b, sd = relay_with_leg()
    out = b.on_data("c", DataPacket(OBJ, sd), now=10.0)
    assert out == [("a", DataPacket(OBJ, 7))]
    assert b.by_succ[sd].last_used == 10.0  # leg survives for reuse


def test_data_orphans_dropped_without_caching():
    b, sd = relay_with_leg(mode=CachingMode.ON_PATH)
    assert b.on_data("c", DataPacket(OBJ, 12345), 0.0) is None
    assert b.on_data("a", DataPacket(OBJ, sd), 0.0) is None  # wrong side
    assert b.orphan_data == 2
    assert b.store.get(OBJ) is None


def test_data_caching_modes_at_relay():
    for mode, cached in [(CachingMode.ON_PATH, True), (CachingMode.EDGE, False),
                         (CachingMode.NONE, False)]:
        b, sd = relay_with_leg(mode=mode)
        b.on_data("c", DataPacket(OBJ, sd), 0.0)
        assert (b.store.get(OBJ) is not None) == cached, mode


def origin_with_pending(mode=CachingMode.EDGE):
    _, fibs = line_fibs()
    a = make("a", fibs, mode=mode)
    (fwd,) = a.on_local_interest("c2", OBJ, 0.0)
    a.on_local_interest("c1", OBJ, 0.0)
    return a, fwd.message.dart


def test_data_at_origin_fans_out_sorted_and_settles_rct():
    a, sd = origin_with_pending()
    out = a.on_data("b", DataPacket(OBJ, sd), now=3.0)
    assert [e.dst for e in out] == ["c1", "c2"]
    assert all(e.message == DataPacket(OBJ) for e in out)
    assert OBJ not in a.rct and not a.rct  # a satisfied entry is deleted
    assert a.store.get(OBJ) is not None  # edge router delivered locally
    # content now serves repeats without any new route state
    assert a.on_local_interest("c9", OBJ, 4.0) == [("c9", DataPacket(OBJ))]


def test_rct_entry_keeps_aggregated_consumers_until_each_gives_up():
    _, fibs = line_fibs()
    a = make("a", fibs)
    (fwd,) = a.on_local_interest("c3", OBJ, 0.0)
    assert a.on_local_interest("c1", OBJ, 0.0) == []
    assert a.on_local_interest("c2", OBJ, 0.0) == []
    assert a.rct == {OBJ: ("c3", "c1", "c2")} and a.aggregated == 2
    a.give_up("c1", OBJ)
    assert a.rct == {OBJ: ("c3", "c2")}
    a.give_up("c9", OBJ)  # not waiting here: nothing changes
    assert a.rct == {OBJ: ("c3", "c2")}
    # fan-out is sorted, not in the order the consumers asked
    out = a.on_data("b", DataPacket(OBJ, fwd.message.dart), 1.0)
    assert out == [("c2", DataPacket(OBJ)), ("c3", DataPacket(OBJ))] and not a.rct
    # the last consumer to give up takes the entry with it
    a.on_local_interest("c1", OBJ2, 2.0)
    a.give_up("c1", OBJ2)
    assert not a.rct


def test_data_at_origin_caching_none_drops_rct_entry():
    a, sd = origin_with_pending(mode=CachingMode.NONE)
    a.on_data("b", DataPacket(OBJ, sd), 3.0)
    assert OBJ not in a.rct and not a.rct
    assert a.store.get(OBJ) is None


def test_late_data_after_nack_is_not_delivered():
    a, sd = origin_with_pending()
    a.on_nack("b", Nack(OBJ, NackCode.LOOP, sd), 1.0)
    # the leg is live, so this is no orphan: the origin just has no one waiting
    assert a.on_data("b", DataPacket(OBJ, sd), 2.0) == []
    assert a.orphan_data == 0


def test_nack_relay_and_origin():
    b, sd = relay_with_leg()
    assert b.on_nack("c", Nack(OBJ, NackCode.LOOP, sd), 1.0) == \
        [("a", Nack(OBJ, NackCode.LOOP, 7))]
    assert sd in b.by_succ  # refusal does not tear down the leg

    a, sd2 = origin_with_pending()
    out = a.on_nack("b", Nack(OBJ, NackCode.NO_CONTENT, sd2), 1.0)
    assert out == [("c1", Nack(OBJ, NackCode.NO_CONTENT)),
                   ("c2", Nack(OBJ, NackCode.NO_CONTENT))]
    assert OBJ not in a.rct and not a.rct

    assert a.on_nack("b", Nack(OBJ, NackCode.LOOP, 999), 1.0) is None
    assert a.orphan_nack == 1


def test_evict_darts_is_idle_based():
    b, sd = relay_with_leg()
    b.on_neighbor_interest("a", Interest(OBJ2, 3, 8), now=5_000.0)
    assert b.evict_darts(now=11_000.0) == 1  # only the leg idle since t=0
    assert b.table_size() == 1 and list(b.legs) == [("a", 8)]
    assert b.dart_evicted == 1
    # refreshing keeps an entry alive indefinitely
    b.on_neighbor_interest("a", Interest(OBJ, 3, 8), now=14_000.0)
    assert b.evict_darts(now=15_000.0) == 0


def test_evicted_origin_leg_is_recreated_on_next_ask():
    a, sd = origin_with_pending()
    assert a.evict_darts(now=60_000.0) == 1
    assert a.table_size() == 0
    assert a.by_succ == a.legs == {}
    (fwd,) = a.on_local_interest("c3", OBJ2, 60_001.0)
    assert a.table_size() == 1 and fwd.message.dart != sd
    assert a.legs == {("d", "b"): a.by_succ[fwd.message.dart]}


def test_fresh_dart_wraps_and_skips_in_use():
    _, fibs = line_fibs()
    a = make("a", fibs)
    a._next_dart = MAX_DART
    d1 = a.fresh_dart()
    assert d1 == MAX_DART
    a.by_succ[MAX_DART] = object()
    a._next_dart = MAX_DART
    assert a.fresh_dart() == 1  # wrapped past the in-use token


def test_fresh_dart_refuses_once_every_token_is_in_use(monkeypatch):
    _, fibs = line_fibs()
    a = make("a", fibs)
    monkeypatch.setattr(dart_node, "MAX_DART", 2)
    a.by_succ[1] = object()
    assert a.fresh_dart() == 2
    a.by_succ[2] = object()
    with pytest.raises(RuntimeError, match="^route token space exhausted$"):
        a.fresh_dart()


def test_evicted_content_is_fetched_again_through_a_fresh_rct_entry():
    _, fibs = line_fibs()
    a = DartRouter("a", fibs["a"], caching_mode=CachingMode.EDGE, store_capacity=1)
    (f1,) = a.on_local_interest("c1", OBJ, 0.0)
    a.on_data("b", DataPacket(OBJ, f1.message.dart), 1.0)
    (f2,) = a.on_local_interest("c1", OBJ2, 2.0)
    a.on_data("b", DataPacket(OBJ2, f2.message.dart), 3.0)
    assert not a.rct                 # satisfied entries never outlive their Data
    assert a.store.evictions == 1
    assert OBJ not in a.store.cached and OBJ2 in a.store.cached
    # the evicted name goes out again and waits in a new entry
    assert a.on_local_interest("c2", OBJ, 4.0) == \
        [("b", Interest(OBJ, f1.message.hop_count, f1.message.dart))]
    assert a.rct == {OBJ: ("c2",)}


# b's origin legs go to d through c and to a directly, keyed ("d", "c") and
# ("a", "a"); relay legs from a are keyed ("a", token) and never meet them.
# Relay legs leave through c, e or a as the hop budget allows.
Q = Prefix.parse("/q")
_LEG_NAMES = [Name.parse(t) for t in ("/p/1", "/p/2", "/q/1", "/q/2")]
_LEG_STEPS = st.lists(st.tuples(
    st.sampled_from(["ask", "interest", "data", "nack", "evict"]),
    st.sampled_from(_LEG_NAMES), st.sampled_from(["a", "c", "e", "x"]),
    st.integers(1, 6), st.integers(1, 4), st.integers(0, 30), st.integers(0, 50),
    st.booleans()), max_size=60)


@settings(max_examples=200, deadline=None)
@given(_LEG_STEPS)
def test_every_leg_sits_in_both_indexes_under_its_own_keys(steps):
    # random local asks, neighbour Interests, Data and Nacks back (on a live
    # leg's token from its successor, or on any token from anyone) and
    # sweeps, at a non-decreasing now
    topo = Topology(("a", "b", "c", "d", "e"),
                    {("a", "b"): 1.0, ("b", "c"): 1.0, ("c", "d"): 1.0,
                     ("b", "e"): 1.0, ("d", "e"): 1.0}, {P: ("d",), Q: ("a",)})
    b = DartRouter("b", compute_fibs(topo)["b"], dart_ttl_ms=50.0,
                   caching_mode=CachingMode.NONE)
    now = 0.0
    for kind, name, sender, token, hops, step, pick, on_leg in steps:
        now += step
        legs = list(b.by_succ.values())
        if on_leg and legs:
            leg = legs[pick % len(legs)]
            sender, token = leg.successor, leg.successor_dart
        if kind == "ask":
            b.on_local_interest("c.b", name, now)
        elif kind == "interest":
            b.on_neighbor_interest(sender, Interest(name, hops, token), now)
        elif kind == "data":
            b.on_data(sender, DataPacket(name, token), now)
        elif kind == "nack":
            b.on_nack(sender, Nack(name, NackCode.LOOP, token), now)
        else:
            b.evict_darts(now)
        assert sorted(map(id, b.legs.values())) == sorted(map(id, b.by_succ.values()))
        for key, leg in b.legs.items():
            assert leg.key == key
            if leg.predecessor == "b":
                assert key[1] == leg.successor  # (anchor, successor)
            else:
                assert key == (leg.predecessor, leg.predecessor_dart)
        for token, leg in b.by_succ.items():
            assert leg.successor_dart == token
        assert b.table_sizes()[0] == len(b.legs)
