"""DART forwarding plane.

A DART router keeps state per *route in use*, not per in-flight interest:

* The dart table maps a predecessor's route token to a successor leg along
  a shortest path toward an anchor.  Every interest, data and nack riding
  that route refreshes the entry; an idle timer reclaims it.
* The response-correlation table (RCT) exists only at consumer-facing
  routers and maps each name a local consumer waits for to a tuple of
  those consumers, in the order they asked.  An entry lives from the first
  ask until its Data or Nack comes back, or until every consumer in it
  gives up; a consumer that asks again while it waits re-sends the
  Interest, so a lost response cannot block the name.

An interest from a neighbour is only accepted if some admissible next hop is
strictly closer to an anchor than the hop budget the interest carries and is
not the neighbour it came from.  A router that cannot offer such a next hop
refuses with a loop nack instead of forwarding, so each hop's budget
strictly falls, and a live audit catches an interest that revisits a router.
That alone is not loop-freedom under stale tables: a router that stamps a
stale distance can be revisited (ROADMAP item 2 stamps its least distance).
"""

from __future__ import annotations

from typing import Callable, Collection, Dict, List, Optional, Tuple

from .model import (
    CachingMode,
    ContentStore,
    DataPacket,
    EDGE,
    Emission,
    Interest,
    MAX_DART,
    Nack,
    NackCode,
    Name,
    ON_PATH,
    Prefix,
)
from .routing import Fib, FibTuple

# builds a DataPacket in C (see model._Record): _new(DataPacket, (name, dart))
_new = tuple.__new__


class DartEntry:
    __slots__ = ("key", "predecessor", "predecessor_dart", "successor",
                 "successor_dart", "hop_count", "last_used")

    def __init__(self, key, predecessor, predecessor_dart, successor,
                 successor_dart, hop_count, last_used):
        self.key = key  # its key in DartRouter.legs
        self.predecessor = predecessor
        self.predecessor_dart = predecessor_dart
        self.successor = successor
        self.successor_dart = successor_dart
        # hop budget granted to the successor leg; frozen at creation so a
        # route, once vetted, stays monotone end to end
        self.hop_count = hop_count
        self.last_used = last_used


class DartRouter:
    # counters under the names of the MetricsReport totals they add up to
    TOTALS = ("aggregated", "loop_nacks", "orphan_data", "orphan_nack", "dart_evicted")
    TABLES = ("dart_legs", "rct")  # what table_sizes() reports, in its order

    def __init__(self, router_id: str, fib: Fib,
                 anchored: Tuple[Prefix, ...] = (),
                 caching_mode: CachingMode = CachingMode.EDGE,
                 dart_ttl_ms: float = 10_000.0,
                 store_capacity: Optional[int] = None,
                 owned: Optional[Collection[Name]] = None):
        self.router_id = router_id
        self.fib = fib
        self.caching_mode = caching_mode
        self.dart_ttl_ms = dart_ttl_ms
        self.store = ContentStore(store_capacity, anchored, owned)
        self.rct: Dict[Name, Tuple[str, ...]] = {}
        # every live entry under the key an arriving Interest finds it by,
        # (sender, token) for a relay leg and (anchor, successor) for an
        # origin leg, which never collide (a token is an int, a successor a
        # router id); and under the token its Data and Nacks come back on
        self.legs: Dict[tuple, DartEntry] = {}
        self.by_succ: Dict[int, DartEntry] = {}
        self._next_dart = 1
        self.interests_received = 0
        for key in self.TOTALS:
            setattr(self, key, 0)

    # -- the surface the engine uses ---------------------------------------

    def handlers(self) -> Dict[type, Callable]:
        """{packet type: bound handler}; a consumer's ask is a bare Name."""
        return {Name: self.on_local_interest, Interest: self.on_neighbor_interest,
                DataPacket: self.on_data, Nack: self.on_nack}

    def ask(self, name: Name) -> Name:
        """The packet a local consumer's ask for ``name`` arrives as: the
        bare Name, with no hop budget and no route token."""
        return name

    def sweep(self, now: float) -> int:
        return self.evict_darts(now)

    def table_sizes(self) -> Tuple[int, int]:
        """Sizes of TABLES: dart entries incl. origin legs, RCT names."""
        return (len(self.by_succ), len(self.rct))

    def give_up(self, consumer: str, name: Name):
        """The consumer stopped waiting for ``name``; the RCT entry goes
        once no consumer waits for it."""
        waiting = self.rct.get(name)
        if waiting is not None:
            rest = tuple(c for c in waiting if c != consumer)
            if rest:
                self.rct[name] = rest
            else:
                del self.rct[name]

    # -- dart bookkeeping --------------------------------------------------

    def table_size(self) -> int:
        return len(self.by_succ)

    def fresh_dart(self) -> int:
        if len(self.by_succ) >= MAX_DART:
            raise RuntimeError("route token space exhausted")
        d = self._next_dart
        while d in self.by_succ:
            d = d + 1 if d < MAX_DART else 1
        self._next_dart = d + 1 if d < MAX_DART else 1
        return d

    def _add_entry(self, entry: DartEntry) -> DartEntry:
        self.by_succ[entry.successor_dart] = entry
        self.legs[entry.key] = entry
        return entry

    def _drop_entry(self, entry: DartEntry):
        del self.by_succ[entry.successor_dart]
        del self.legs[entry.key]

    def evict_darts(self, now: float) -> int:
        cutoff = now - self.dart_ttl_ms
        stale = [e for e in self.by_succ.values() if e.last_used < cutoff]
        for e in stale:
            self._drop_entry(e)
        self.dart_evicted += len(stale)
        return len(stale)

    # -- loop refusal ------------------------------------------------------

    def dear_check(self, tuples: Tuple[FibTuple, ...], hop_count: int,
                   exclude: Optional[str] = None) -> Optional[FibTuple]:
        """Best-ranked of ``tuples`` (the name's FIB entry) strictly closer
        to an anchor than the given hop budget, skipping ``exclude``.  None
        means the interest must be refused: no admissible hop makes forward
        progress."""
        for t in tuples:
            if t.distance < hop_count and t.next_hop != exclude:
                return t
        return None

    # -- packet handlers ---------------------------------------------------

    def on_local_interest(self, consumer: str, name: Name, now: float) -> List[Emission]:
        self.interests_received += 1
        if self.store.get(name) is not None:
            return [Emission((consumer, _new(DataPacket, (name, None))))]
        waiting = self.rct.get(name)
        if waiting is not None:
            if consumer not in waiting:
                self.rct[name] = waiting + (consumer,)
                self.aggregated += 1
                return []
            # The consumer already waits here: only its retry gets here, so
            # the response is late or lost on the way.  Send the Interest
            # again, on a fresh leg if need be.
        # most routers anchor nothing and skip the test
        if self.store.anchored and self.store.anchors(name):
            return [Emission((consumer, Nack(name, NackCode.NO_CONTENT)))]
        tuples = self.fib.lookup(name)
        if not tuples:
            return [Emission((consumer, Nack(name, NackCode.NO_ROUTE)))]
        t = tuples[0]  # origin trusts its best route; refusal happens downstream
        key = (t.anchor, t.next_hop)
        leg = self.legs.get(key)
        if leg is None:
            sd = self.fresh_dart()
            leg = self._add_entry(DartEntry(key, self.router_id, sd,
                                            t.next_hop, sd, t.distance, now))
        leg.last_used = now
        if waiting is None:
            self.rct[name] = (consumer,)
        return [Emission((leg.successor, Interest(name, leg.hop_count, leg.successor_dart)))]

    def on_neighbor_interest(self, sender: str, interest: Interest, now: float) -> List[Emission]:
        self.interests_received += 1
        name = interest.name
        if self.store.get(name) is not None:
            return [Emission((sender, _new(DataPacket, (name, interest.dart))))]
        if self.store.anchored and self.store.anchors(name):
            return [Emission((sender, Nack(name, NackCode.NO_CONTENT, interest.dart)))]
        key = (sender, interest.dart)
        leg = self.legs.get(key)
        if leg is not None:
            # route already vetted when the entry was created
            leg.last_used = now
            return [Emission((leg.successor, Interest(name, leg.hop_count, leg.successor_dart)))]
        tuples = self.fib.lookup(name)
        if not tuples:
            return [Emission((sender, Nack(name, NackCode.NO_ROUTE, interest.dart)))]
        t = self.dear_check(tuples, interest.hop_count, exclude=sender)
        if t is None:
            self.loop_nacks += 1
            return [Emission((sender, Nack(name, NackCode.LOOP, interest.dart)))]
        sd = self.fresh_dart()
        self._add_entry(DartEntry(key, sender, interest.dart,
                                  t.next_hop, sd, t.distance, now))
        return [Emission((t.next_hop, Interest(name, t.distance, sd)))]

    def on_data(self, sender: str, data: DataPacket, now: float) -> Optional[List[Emission]]:
        """None means the Data was dropped as an orphan: no live leg with its
        token leads to ``sender``."""
        leg = self.by_succ.get(data.dart)
        if leg is None or leg.successor != sender:
            self.orphan_data += 1
            return None
        leg.last_used = now
        mode = self.caching_mode
        if leg.predecessor != self.router_id:
            if mode is ON_PATH:
                self.store.cache(data)
            return [Emission((leg.predecessor,
                              _new(DataPacket, (data.name, leg.predecessor_dart))))]
        waiting = self.rct.pop(data.name, None)
        if mode is ON_PATH or (mode is EDGE and waiting is not None):
            self.store.cache(data)
        if waiting is None:
            return []
        # one packet for every consumer waiting here: it is immutable
        out = _new(DataPacket, (data.name, None))
        return [Emission((c, out)) for c in sorted(waiting)]

    def on_nack(self, sender: str, nack: Nack, now: float) -> Optional[List[Emission]]:
        """None means the Nack was dropped as an orphan, as in ``on_data``."""
        leg = self.by_succ.get(nack.dart)
        if leg is None or leg.successor != sender:
            self.orphan_nack += 1
            return None
        leg.last_used = now
        if leg.predecessor != self.router_id:
            return [Emission((leg.predecessor,
                              Nack(nack.name, nack.code, leg.predecessor_dart)))]
        waiting = self.rct.pop(nack.name, None)
        if waiting is None:
            return []
        return [Emission((c, Nack(nack.name, nack.code))) for c in sorted(waiting)]
