"""NDN-style baseline: pending-interest table, one entry per in-flight name.

Classic stateful forwarding.  Every distinct name being fetched holds a PIT
entry at every router on its path; entries either pop when data returns or
sit until their lifetime runs out.  An entry is a tuple ``(expiry, face,
face, ...)``: its in-records are the faces its Interests arrived on, in
arrival order, one per Interest (a consumer's retry adds its face again).
The PIT's dict order is its expiry order, so ``expire_pit`` stops at the
first live entry: each entry expires ``pit_lifetime_ms`` after a ``now``
that never decreases, aggregation keeps an entry's key, place and expiry,
and Data pops any entry.  Loops are caught (probabilistically) by nonce
matching against every nonce the router has seen, kept as the keys of a
dict in arrival order.  This baseline keeps the historical behaviour of
treating a refusal as silence: routers drop nacks rather than propagate
them, so a consumer behind a refused interest simply waits for its timeout.
"""

from __future__ import annotations

import random
from typing import Callable, Collection, Dict, Iterable, List, Optional, Tuple

from .model import (
    CachingMode,
    ContentStore,
    DataPacket,
    EDGE,
    Emission,
    Nack,
    NackCode,
    Name,
    NdnInterest,
    ON_PATH,
    Prefix,
)
from .routing import Fib

# builds a wire record in C (see model.py, above Interest)
_new = tuple.__new__


class NdnRouter:
    # counters under the names of the MetricsReport totals they add up to
    TOTALS = ("aggregated", "loop_nacks", "orphan_data", "pit_expired", "nacks_dropped")
    TABLES = ("pit", "nonces")  # what table_sizes() reports, in its order

    def __init__(self, router_id: str, fib: Fib,
                 anchored: Tuple[Prefix, ...] = (),
                 caching_mode: CachingMode = CachingMode.EDGE,
                 pit_lifetime_ms: float = 4_000.0,
                 store_capacity: Optional[int] = None,
                 local_consumers: Iterable[str] = (),
                 nonce_seed: object = 0,
                 owned: Optional[Collection[Name]] = None):
        self.router_id = router_id
        self.fib = fib
        self.caching_mode = caching_mode
        self.pit_lifetime_ms = pit_lifetime_ms
        self.store = ContentStore(store_capacity, anchored, owned)
        self.pit: Dict[Name, tuple] = {}
        # consumers attached here: edge caching keeps Data that one of them asked for
        self.local_consumers = frozenset(local_consumers)
        # nonce -> None, in arrival order: a dict takes under a third of a
        # set's memory here, and an age-based purge would drop from the front
        self.seen_nonces: Dict[int, None] = {}
        # a local consumer's Interest carries a nonce from this generator
        self._nonce_bits = random.Random(f"nonce:{nonce_seed}:{router_id}").getrandbits
        self.interests_received = 0
        for key in self.TOTALS:
            setattr(self, key, 0)

    # -- the surface the engine uses ---------------------------------------

    def handlers(self) -> Dict[type, Callable]:
        """{packet type: bound handler}; a consumer's ask is an NdnInterest
        like a neighbour's."""
        return {NdnInterest: self.on_interest, DataPacket: self.on_data, Nack: self.on_nack}

    def ask(self, name: Name) -> NdnInterest:
        """The packet a local consumer's ask for ``name`` arrives as: an
        Interest with a fresh 64-bit nonce."""
        return _new(NdnInterest, (name, self._nonce_bits(64)))

    def sweep(self, now: float) -> int:
        return self.expire_pit(now)

    def table_sizes(self) -> Tuple[int, int]:
        """Sizes of TABLES: PIT entries, accepted nonces."""
        return (len(self.pit), len(self.seen_nonces))

    def give_up(self, consumer: str, name: Name):
        """Nothing to forget: a PIT entry expires by its lifetime."""

    def on_interest(self, sender: str, interest: NdnInterest, now: float) -> List[Emission]:
        """Handle an interest from ``sender`` — a neighbour router or a local
        consumer (one of ``local_consumers``)."""
        self.interests_received += 1
        name, nonce = interest.name, interest.nonce
        if self.store.get(name) is not None:
            return [Emission((sender, _new(DataPacket, (name, None))))]
        if nonce in self.seen_nonces:
            # the same interest came around again: classic duplicate kill
            self.loop_nacks += 1
            return [Emission((sender, _new(Nack, (name, NackCode.LOOP, None))))]
        self.seen_nonces[nonce] = None
        entry = self.pit.get(name)
        if entry is not None:
            self.pit[name] = (*entry, sender)
            self.aggregated += 1
            return []
        # most routers anchor nothing and skip the test
        if self.store.anchored and self.store.anchors(name):
            return [Emission((sender, _new(Nack, (name, NackCode.NO_CONTENT, None))))]
        tuples = self.fib.lookup(name)
        nxt = None
        if tuples:
            for t in tuples:
                if t.next_hop != sender:
                    nxt = t
                    break
        if nxt is None:
            return [Emission((sender, _new(Nack, (name, NackCode.NO_ROUTE, None))))]
        self.pit[name] = (now + self.pit_lifetime_ms, sender)
        # the Interest is immutable and travels on as it came
        return [Emission((nxt.next_hop, interest))]

    def on_data(self, sender: str, data: DataPacket, now: float) -> Optional[List[Emission]]:
        """None means the Data was dropped: no PIT entry waits for it."""
        entry = self.pit.pop(data.name, None)
        if entry is None:
            self.orphan_data += 1
            return None
        # Data carries no per-hop state here, so the packet itself travels on
        faces = entry[1:]
        out = [Emission((iface, data)) for iface in faces]
        mode = self.caching_mode
        if mode is ON_PATH or (mode is EDGE and not self.local_consumers.isdisjoint(faces)):
            self.store.cache(data)
        return out

    def on_nack(self, sender: str, nack: Nack, now: float) -> None:
        # baseline routers swallow refusals; downstream consumers are left
        # to their retransmission timers
        self.nacks_dropped += 1
        return None

    def expire_pit(self, now: float) -> int:
        dead = []
        for n, e in self.pit.items():
            if not e[0] <= now:  # written so that a NaN expiry never expires
                break
            dead.append(n)
        for n in dead:
            del self.pit[n]
        self.pit_expired += len(dead)
        return len(dead)
