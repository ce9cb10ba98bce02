import copy
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dartlab.model import (
    CachingMode,
    DataPacket,
    Nack,
    NackCode,
    Name,
    NdnInterest,
    Prefix,
)
from dartlab.ndn_node import NdnRouter
from dartlab.routing import Topology, compute_fibs

P = Prefix.parse("/p")
OBJ = Name.parse("/p/1")
OBJ2 = Name.parse("/p/2")


def line_fibs():
    topo = Topology(("a", "b", "c", "d"),
                    {("a", "b"): 1.0, ("b", "c"): 1.0, ("c", "d"): 1.0},
                    {P: ("d",)})
    return topo, compute_fibs(topo)


def make(router_id, fibs, anchored=(), mode=CachingMode.EDGE, **kw):
    return NdnRouter(router_id, fibs[router_id], anchored, caching_mode=mode, **kw)


def test_interest_creates_pit_and_forwards_best_hop():
    _, fibs = line_fibs()
    b = make("b", fibs)
    interest = NdnInterest(OBJ, 111)
    out = b.on_interest("a", interest, now=0.0)
    assert out == [("c", NdnInterest(OBJ, 111))]  # nonce travels unchanged
    assert out[0].message is interest  # forwarded as received, not rebuilt
    assert b.pit[OBJ] == (4_000.0, "a") and list(b.seen_nonces) == [111]
    assert b.table_sizes() == (1, 1)


def test_consumer_ask_carries_a_nonce_from_the_routers_own_generator():
    _, fibs = line_fibs()
    a = make("a", fibs, nonce_seed=5)
    bits = random.Random("nonce:5:a").getrandbits
    assert [a.ask(OBJ), a.ask(OBJ2)] == [NdnInterest(OBJ, bits(64)), NdnInterest(OBJ2, bits(64))]
    assert make("b", fibs, nonce_seed=5).ask(OBJ).nonce != make("a", fibs, nonce_seed=5).ask(OBJ).nonce


def test_interest_aggregates_and_does_not_extend_expiry():
    _, fibs = line_fibs()
    b = make("b", fibs)
    b.on_interest("a", NdnInterest(OBJ, 111), now=0.0)
    out = b.on_interest("x", NdnInterest(OBJ, 222), now=1_000.0)
    assert out == [] and b.aggregated == 1
    # the expiry stays anchored to creation time
    assert b.pit[OBJ] == (4_000.0, "a", "x") and list(b.seen_nonces) == [111, 222]


def test_aggregation_replaces_the_pit_entry_with_one_more_face():
    _, fibs = line_fibs()
    b = make("b", fibs)
    b.on_interest("a", NdnInterest(OBJ, 1), now=0.0)
    first = b.pit[OBJ]
    assert type(first) is tuple and first == (4_000.0, "a")
    for nonce, face in [(2, "x"), (3, "a"), (4, "y")]:
        b.on_interest(face, NdnInterest(OBJ, nonce), now=nonce * 500.0)
    e = b.pit[OBJ]
    assert type(e) is tuple and e == (4_000.0, "a", "x", "a", "y")
    assert first == (4_000.0, "a")  # never mutated
    with pytest.raises(TypeError):
        e[0] = 9_000.0
    assert list(b.seen_nonces) == [1, 2, 3, 4] and b.aggregated == 3


def test_nonce_table_keeps_arrival_order_and_ignores_refused_nonces():
    _, fibs = line_fibs()
    b = make("b", fibs)
    nonces = [2**64 - 1, 7, 2**40, 3]
    for i, nonce in enumerate(nonces):
        b.on_interest("a", NdnInterest(Name.parse(f"/p/{i}"), nonce), 0.0)
    b.on_interest("x", NdnInterest(OBJ, 7), 1.0)  # a duplicate: refused
    assert list(b.seen_nonces) == nonces and len(b.seen_nonces) == 4
    assert 7 in b.seen_nonces and 8 not in b.seen_nonces and b.loop_nacks == 1


def test_duplicate_nonce_is_refused_as_loop():
    _, fibs = line_fibs()
    b = make("b", fibs)
    b.on_interest("a", NdnInterest(OBJ, 111), 0.0)
    out = b.on_interest("x", NdnInterest(OBJ2, 111), 1.0)
    assert out == [("x", Nack(OBJ2, NackCode.LOOP))]
    assert b.loop_nacks == 1


def test_interest_store_hit_and_anchor_miss_and_no_route():
    _, fibs = line_fibs()
    b = make("b", fibs)
    b.store.cache(DataPacket(OBJ))
    assert b.on_interest("a", NdnInterest(OBJ, 5), 0.0) == [("a", DataPacket(OBJ))]
    d = make("d", fibs, anchored=(P,))
    assert d.on_interest("c", NdnInterest(OBJ, 6), 0.0) == [("c", Nack(OBJ, NackCode.NO_CONTENT))]
    other = Name.parse("/unrouted/x")
    assert b.on_interest("a", NdnInterest(other, 7), 0.0) == [("a", Nack(other, NackCode.NO_ROUTE))]


def test_interest_skips_sender_interface():
    # at c, rank 1 toward the anchor is d; an interest FROM d must go to b
    _, fibs = line_fibs()
    c = make("c", fibs)
    out = c.on_interest("d", NdnInterest(OBJ, 9), 0.0)
    assert out == [("b", NdnInterest(OBJ, 9))]
    # ...and a leaf with a single interface back to the sender has no route
    a = make("a", fibs)
    assert a.on_interest("b", NdnInterest(OBJ, 10), 0.0) == [("b", Nack(OBJ, NackCode.NO_ROUTE))]


def test_data_pops_pit_and_fans_out_in_arrival_order():
    # a consumer's retry carries a fresh nonce and adds its face again, so
    # that face gets the Data twice
    _, fibs = line_fibs()
    b = make("b", fibs)
    b.on_interest("x", NdnInterest(OBJ, 1), 0.0)
    b.on_interest("a", NdnInterest(OBJ, 2), 1.0)
    b.on_interest("x", NdnInterest(OBJ, 3), 2.0)
    assert b.pit[OBJ][1:] == ("x", "a", "x") and b.aggregated == 2
    out = b.on_data("c", DataPacket(OBJ), 2.0)
    assert out == [("x", DataPacket(OBJ)), ("a", DataPacket(OBJ)), ("x", DataPacket(OBJ))]
    assert b.table_sizes() == (0, 3)  # the nonces stay
    assert b.on_data("c", DataPacket(OBJ), 3.0) is None
    assert b.orphan_data == 1


def test_edge_caching_only_when_a_local_consumer_was_waiting():
    _, fibs = line_fibs()
    b = make("b", fibs, mode=CachingMode.EDGE, local_consumers=["cons1"])
    b.on_interest("a", NdnInterest(OBJ, 1), 0.0)       # transit only
    b.on_data("c", DataPacket(OBJ), 1.0)
    assert b.store.get(OBJ) is None
    b.on_interest("cons1", NdnInterest(OBJ2, 2), 0.0)  # local ask
    b.on_data("c", DataPacket(OBJ2), 1.0)
    assert b.store.get(OBJ2) is not None


def test_onpath_and_none_caching():
    _, fibs = line_fibs()
    for mode, cached in [(CachingMode.ON_PATH, True), (CachingMode.NONE, False)]:
        b = make("b", fibs, mode=mode)
        b.on_interest("a", NdnInterest(OBJ, 1), 0.0)
        b.on_data("c", DataPacket(OBJ), 1.0)
        assert (b.store.get(OBJ) is not None) == cached, mode


def test_nacks_are_swallowed():
    _, fibs = line_fibs()
    b = make("b", fibs)
    b.on_interest("a", NdnInterest(OBJ, 1), 0.0)
    assert b.on_nack("c", Nack(OBJ, NackCode.LOOP), 1.0) is None
    assert b.nacks_dropped == 1
    assert b.table_sizes() == (1, 1)  # entry lingers until it times out


def test_expire_pit():
    _, fibs = line_fibs()
    b = make("b", fibs, pit_lifetime_ms=100.0)
    b.on_interest("a", NdnInterest(OBJ, 1), 0.0)
    b.on_interest("a", NdnInterest(OBJ2, 2), 50.0)
    assert b.expire_pit(now=100.0) == 1
    assert OBJ not in b.pit and OBJ2 in b.pit
    assert b.expire_pit(now=150.0) == 1
    assert b.pit_expired == 2


def test_aggregating_an_expired_unswept_entry_keeps_its_place_and_expiry():
    _, fibs = line_fibs()
    b = make("b", fibs, pit_lifetime_ms=100.0)
    b.on_interest("a", NdnInterest(OBJ, 1), 0.0)
    b.on_interest("a", NdnInterest(OBJ2, 2), 50.0)
    # OBJ's lifetime ran out at 100 ms, and no sweep ran before x's ask
    assert b.on_interest("x", NdnInterest(OBJ, 3), 120.0) == [] and b.aggregated == 1
    assert list(b.pit.items()) == [(OBJ, (100.0, "a", "x")), (OBJ2, (150.0, "a"))]
    assert b.expire_pit(now=120.0) == 1 and list(b.pit) == [OBJ2]


def test_expire_pit_reads_no_further_than_the_first_live_entry():
    _, fibs = line_fibs()
    b = make("b", fibs)
    # tables the handlers never build: the sweep trusts dict order, and a
    # NaN expiry never expires
    b.pit = {OBJ: (200.0, "a"), OBJ2: (100.0, "a")}
    assert b.expire_pit(now=150.0) == 0 and list(b.pit) == [OBJ, OBJ2]
    b.pit = {OBJ: (math.nan, "a"), OBJ2: (100.0, "a")}
    assert b.expire_pit(now=1e9) == 0 and b.pit_expired == 0


_NAMES = [Name.parse(f"/p/{i}") for i in range(4)]
_STEPS = st.lists(st.tuples(st.sampled_from(["interest", "data", "expire"]),
                            st.sampled_from(_NAMES), st.sampled_from(["a", "x", "y"]),
                            st.integers(0, 40), st.integers(0, 120)),
                  max_size=60)


@settings(max_examples=200, deadline=None)
@given(_STEPS)
def test_pit_dict_order_is_expiry_order_so_the_sweep_equals_a_full_scan(steps):
    # random handler calls at a non-decreasing now; small nonces repeat, so
    # some Interests are refused as loops
    _, fibs = line_fibs()
    b = make("b", fibs, pit_lifetime_ms=100.0)
    now = 0.0
    for kind, name, face, nonce, step in steps:
        now += step
        if kind == "interest":
            b.on_interest(face, NdnInterest(name, nonce), now)
        elif kind == "data":
            b.on_data("c", DataPacket(name), now)
        else:
            b.expire_pit(now)
        expiries = [e[0] for e in b.pit.values()]
        assert expiries == sorted(expiries)
        # a sweep now, on a copy, drops and counts what a full scan would
        probe = copy.copy(b)
        probe.pit, probe.pit_expired = dict(b.pit), 0
        live = {n: e for n, e in b.pit.items() if not e[0] <= now}
        assert probe.expire_pit(now) == len(b.pit) - len(live) == probe.pit_expired
        assert list(probe.pit.items()) == list(live.items())
