"""Deterministic discrete-event simulator.

Links are pure fixed delays with unbounded capacity and zero router
processing time, so end-to-end delay is exactly the sum of link delays a
request and its response traverse.  One run = one event loop; all
randomness comes from string-seeded private generators, so identical
inputs give byte-identical reports regardless of interpreter hash seed.

With audits on (DART runs), every forwarded interest is checked live for
strict hop-budget descent and for never revisiting a router that already
forwarded it; a violation aborts the run with the full per-interest chain
plus the most recent deliveries as a counterexample.
"""

from __future__ import annotations

import gc
import heapq
import math
import random
from array import array
from bisect import bisect_right
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field, fields
from enum import Enum
from functools import lru_cache
from itertools import accumulate, chain, repeat
from operator import add
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .dart_node import DartRouter
from .model import (
    CachingMode,
    DataPacket,
    Interest,
    Nack,
    Name,
    NdnInterest,
    Prefix,
    _esc_name,
)
from .ndn_node import NdnRouter
from .routing import Fib, Topology


class Scheme(Enum):
    DART = "dart"
    NDN = "ndn"


# A sample or sweep period may fire at most this many times in a run, a
# request may be sent at most this many times, and a consumer's stream may
# expect at most this many requests.  A shorter period or gap, or a retry
# timer too short to move the clock, hangs the run once now + period == now,
# and long before that takes more time than any run here should.
MAX_TIMER_FIRINGS = 10_000_000

# event kinds, cheapest-to-compare first in rough frequency order
_DELIVER, _REQUEST, _RETRY, _SAMPLE, _SWEEP = range(5)


class AuditError(Exception):
    """A live invariant check failed; carries the counterexample."""

    def __init__(self, kind: str, router: str, message, chain: Tuple[str, ...],
                 recent: List[str]):
        self.kind = kind
        self.router = router
        self.message = message
        self.chain = chain
        self.recent = recent
        detail = "\n".join([
            f"audit violation: {kind}",
            f"  at router: {router}",
            f"  message:   {message!r}",
            f"  forward chain so far: {' -> '.join(chain) or '(origin)'}",
            "  recent deliveries:",
            *(f"    {line}" for line in recent),
        ])
        super().__init__(detail)

    def __reduce__(self):
        # rebuilt from the five fields, so a pool worker's violation reaches
        # the parent as itself
        return (type(self), (self.kind, self.router, self.message, self.chain, self.recent))


@dataclass(frozen=True)
class WorkloadSpec:
    """Per-consumer Poisson request process over a Zipf-ranked catalog."""

    zipf_alpha: float
    catalog_size: int
    per_router_rate: float  # requests per second per consumer
    duration: float         # seconds
    seed: object = 0

    def __post_init__(self):
        # NaN fails every comparison, so these refuse it too
        if not 0 <= self.zipf_alpha < math.inf:
            raise ValueError("zipf_alpha must be >= 0 and finite")
        if self.catalog_size < 1:
            raise ValueError("catalog_size must be >= 1")
        if not (0 < self.per_router_rate < math.inf and 0 < self.duration < math.inf):
            raise ValueError("rate and duration must be > 0 and finite")
        if self.per_router_rate * self.duration > MAX_TIMER_FIRINGS:
            raise ValueError(f"rate * duration must be <= {MAX_TIMER_FIRINGS}")


@lru_cache(maxsize=1)
def zipf_cumulative(alpha: float, size: int) -> memoryview:
    """Running sums of ``k ** -alpha`` for ranks k = 1..size, memoised for
    the cells of a grid: a read-only view of one array of C doubles, which
    cells share and holds no float object per rank."""
    sums = array("d", accumulate(map(pow, range(1, size + 1), repeat(-alpha))))
    return memoryview(sums).toreadonly()


def _consumer_stream(spec: WorkloadSpec, consumer: str, cum: Sequence[float]):
    uniform = random.Random(f"workload:{spec.seed}:{consumer}").random
    log = math.log
    rate = spec.per_router_rate
    total = cum[-1]
    end = spec.duration * 1000.0
    last = spec.catalog_size - 1
    t = 0.0
    while True:
        # random.expovariate(rate), inlined: the same float operations
        t += -log(1.0 - uniform()) / rate * 1000.0
        if t >= end:
            return
        idx = bisect_right(cum, uniform() * total)
        yield (t, consumer, idx if idx <= last else last)


def generate_workload(spec: WorkloadSpec, consumers: Sequence[str]):
    """Time-ordered stream of (time_ms, consumer, object_index) across all
    consumers; fully determined by spec.seed.  This is the reference
    definition of a run's requests: the engine feeds each consumer's stream
    into its event heap directly and dispatches this same sequence."""
    cum = zipf_cumulative(spec.zipf_alpha, spec.catalog_size)
    return heapq.merge(*(_consumer_stream(spec, c, cum) for c in sorted(consumers)))


def preload(topology: Topology, catalog: Sequence[Name]) -> Dict[str, Mapping[Name, None]]:
    """Each anchor's content: ``{router: read-only mapping of names to
    None}``, the catalog names under the prefixes the router anchors, in
    catalog order.  A dict's keys answer ``in`` as a set's do, in about
    half a frozenset's memory."""
    owned = {a: [] for anchors in topology.anchors.values() for a in anchors}
    for n in catalog:
        for prefix, anchors in topology.anchors.items():
            if prefix.matches(n):
                for a in anchors:
                    owned[a].append(n)
    return {a: MappingProxyType(dict.fromkeys(names)) for a, names in owned.items()}


@dataclass(frozen=True)
class World:
    """The static data a cell is simulated on.  Cells share it, so nothing
    may write into it: the catalog is a tuple, and the anchors' names
    (``preload``) are read-only mappings."""

    topology: Topology
    fibs: Dict[str, Fib]
    catalog: Tuple[Name, ...]
    owned: Dict[str, Mapping[Name, None]]
    anchored: Dict[str, Tuple[Prefix, ...]]   # the prefixes each router anchors
    delays: Dict[str, Dict[str, float]]       # one-way delay per (router, neighbour)

    @classmethod
    def build(cls, topology: Topology, fibs: Dict[str, Fib], catalog: Sequence[Name]) -> World:
        catalog = tuple(catalog)
        return cls(topology, fibs, catalog, preload(topology, catalog),
                   {r: tuple(p for p, anchors in topology.anchors.items() if r in anchors)
                    for r in topology.routers},
                   {r: {n: topology.delay(r, n) for n in topology.neighbors[r]}
                    for r in topology.routers})


def fold_sum(values) -> float:
    """Left-to-right sum: ``sum()`` of floats is compensated from Python
    3.12 on, so reported floats would differ in the last digits."""
    total = 0
    for v in values:
        total += v
    return total


def sample_table_sizes(routers: Dict[str, object]) -> Dict[str, tuple]:
    """Forwarding-state size snapshot, each router's ``table_sizes()``, in
    the order of its ``TABLES``: (PIT entries,) for the baseline, (dart
    entries incl. origin legs, RCT names) for DART.  Every RCT name is
    pending: an entry is deleted when its Data or Nack comes back, or once
    every consumer waiting for it has given up."""
    return {rid: router.table_sizes() for rid, router in routers.items()}


@dataclass
class MetricsReport:
    scheme: str
    caching: str
    rate: float
    routers: Tuple[str, ...]
    # the routers' TABLES, and per table {router: mean or peak} over the
    # post-warmup samples
    tables: Tuple[str, ...] = ()
    table_mean: Dict[str, Dict[str, float]] = field(default_factory=dict)
    table_max: Dict[str, Dict[str, int]] = field(default_factory=dict)
    interests_received: Dict[str, int] = field(default_factory=dict)
    delay_mean_ms: Dict[str, float] = field(default_factory=dict)
    delay_count: Dict[str, int] = field(default_factory=dict)
    # across-router summary of the per-router means of the first table
    table_size_router_mean: float = 0.0
    table_size_router_std: float = 0.0
    # totals
    requests: int = 0
    delivered: int = 0
    nacked: int = 0
    abandoned: int = 0
    retries: int = 0
    aggregated: int = 0
    loop_nacks: int = 0
    orphan_data: int = 0
    orphan_nack: int = 0
    dart_evicted: int = 0
    pit_expired: int = 0
    store_evictions: int = 0
    nacks_dropped: int = 0
    nacked_by_code: Dict[str, int] = field(default_factory=dict)

    def overall_delay_ms(self) -> Optional[float]:
        total = sum(self.delay_count.values())
        if total == 0:
            return None
        return fold_sum(self.delay_mean_ms[r] * self.delay_count[r]
                        for r in self.routers if r in self.delay_mean_ms) / total

    def rows(self) -> List[Tuple[str, str, float, str, str, float]]:
        """Flat rows matching the CSV contract:
        (scheme, caching, rate, router, metric, value).  The first table
        gives ``table_size_*`` and an ``rct`` table ``rct_pending_mean``."""
        out = []

        def add(router, metric, value):
            out.append((self.scheme, self.caching, self.rate, router, metric, value))

        first = self.tables[0]
        rct = self.table_mean.get("rct")
        for r in self.routers:
            add(r, "table_size_mean", self.table_mean[first][r])
            add(r, "table_size_max", self.table_max[first][r])
            if rct is not None:
                add(r, "rct_pending_mean", rct[r])
            add(r, "interests_received", self.interests_received.get(r, 0))
            add(r, "delay_count", self.delay_count.get(r, 0))
            if self.delay_count.get(r, 0):
                add(r, "delay_mean_ms", self.delay_mean_ms[r])
        add("*", "table_size_router_mean", self.table_size_router_mean)
        add("*", "table_size_router_std", self.table_size_router_std)
        for metric in _TOTAL_FIELDS:
            add("*", metric, getattr(self, metric))
        for code in sorted(self.nacked_by_code):
            add("*", f"nacked_{code}", self.nacked_by_code[code])
        overall = self.overall_delay_ms()
        add("*", "delay_count", sum(self.delay_count.values()))
        if overall is not None:
            add("*", "delay_mean_ms", overall)
        return out


# the report's totals, in field order: the fields whose default is an int
_TOTAL_FIELDS = tuple(f.name for f in fields(MetricsReport) if type(f.default) is int)


def _first_due(open_requests):
    """The first open request's record, the one due next; None with none
    open, or while the one open request is still being sent (no due yet)."""
    for rec in open_requests.values():
        return rec if rec[0] is not None else None
    return None


# a DART consumer's ask is a bare Name, traced as an Interest with no hop
# budget and no route token
_MSG_KIND = {Name: "INT", Interest: "INT", NdnInterest: "INT", DataPacket: "DATA", Nack: "NACK"}


def _trace_fields(msg) -> str:
    t = type(msg)
    if t is Name:
        return f"name={_esc_name(msg)} h=- dart=-"
    if t is Interest:
        return f"name={_esc_name(msg.name)} h={msg.hop_count} dart={msg.dart}"
    if t is NdnInterest:
        return f"name={_esc_name(msg.name)} h=- dart={msg.nonce}"
    d = msg.dart if msg.dart is not None else "-"
    return f"name={_esc_name(msg.name)} h=- dart={d}"


def _trace_line(now: float, router: str, direction: str, msg, peer: str) -> str:
    return (f"t={now!r} {router} {direction} {_MSG_KIND[type(msg)]} "
            f"{_trace_fields(msg)} peer={peer}")


class _Simulation:
    def __init__(self, world: World, scheme: Scheme, caching_mode: CachingMode, *,
                 workload=None, requests=None, consumers=None, audits=True, trace=None,
                 dart_ttl_ms=10_000.0, pit_lifetime_ms=4_000.0,
                 sweep_interval_ms=1_000.0, sample_interval_ms=100.0,
                 warmup_fraction=0.1, retry_timeout_ms=1_000.0, max_tries=3,
                 store_capacity=None, duration_ms=None):
        if workload is not None and requests is not None:
            raise ValueError("pass either a workload or scripted requests, not both")
        if workload is not None and len(world.catalog) < workload.catalog_size:
            raise ValueError("catalog smaller than workload.catalog_size")
        if workload is None and duration_ms is None:
            raise ValueError("duration_ms is required without a workload")
        # NaN fails the comparison too
        if duration_ms is not None and not 0 < duration_ms < math.inf:
            raise ValueError(f"duration_ms must be > 0 and finite, got {duration_ms}")
        self.horizon_ms = (float(duration_ms) if duration_ms is not None
                           else workload.duration * 1000.0)
        # A non-positive period would re-arm its timer at or before now
        # forever, and so would one too short to move now (now + period == now).
        for key, value in (("sweep_interval_ms", sweep_interval_ms),
                           ("sample_interval_ms", sample_interval_ms)):
            if not value > 0:
                raise ValueError(f"{key} must be > 0, got {value}")
            if not self.horizon_ms <= MAX_TIMER_FIRINGS * value:
                raise ValueError(f"{key} must be >= the run's length / {MAX_TIMER_FIRINGS}, "
                                 f"got {value}")
        # an infinite retry timer would fire after the run's end
        if not 0 < retry_timeout_ms < math.inf:
            raise ValueError(f"retry_timeout_ms must be > 0 and finite, got {retry_timeout_ms}")
        if not 1 <= max_tries <= MAX_TIMER_FIRINGS:
            raise ValueError(f"max_tries must be >= 1 and <= {MAX_TIMER_FIRINGS}, "
                             f"got {max_tries}")
        # a cell that takes no sample would report every table size as 0,
        # and a negative warm-up samples before the run starts
        if not 0 <= warmup_fraction < 1:
            raise ValueError(f"warmup_fraction must be in [0, 1), got {warmup_fraction}")
        self.warmup_ms = self.horizon_ms * warmup_fraction
        if not self.warmup_ms + sample_interval_ms <= self.horizon_ms:
            raise ValueError(f"sample_interval_ms must be <= the run's length after warm-up, "
                             f"got {sample_interval_ms}")
        self.world = world
        self.max_tries = max_tries
        self.retry_timeout_ms = retry_timeout_ms
        self.sweep_interval_ms = sweep_interval_ms
        self.sample_interval_ms = sample_interval_ms
        self.trace = trace

        topology = world.topology
        if consumers is None:
            consumers = {f"c.{r}": r for r in topology.routers}
        for cid, r in consumers.items():
            if cid in topology.neighbors:
                raise ValueError(f"consumer id collides with a router id: {cid}")
            if r not in topology.neighbors:
                raise ValueError(f"consumer {cid} is attached to an unknown router: {r}")
        self.consumer_router: Dict[str, str] = dict(consumers)

        attached: Dict[str, List[str]] = {}
        for cid, r in consumers.items():
            attached.setdefault(r, []).append(cid)
        self.routers: Dict[str, object] = {}
        for r in topology.routers:
            if scheme is Scheme.DART:
                node = DartRouter(r, world.fibs[r], world.anchored[r], caching_mode,
                                  dart_ttl_ms=dart_ttl_ms, store_capacity=store_capacity,
                                  owned=world.owned.get(r))
            else:
                node = NdnRouter(r, world.fibs[r], world.anchored[r], caching_mode,
                                 pit_lifetime_ms=pit_lifetime_ms, store_capacity=store_capacity,
                                 local_consumers=attached.get(r, ()),
                                 nonce_seed=workload.seed if workload is not None else 0,
                                 owned=world.owned.get(r))
            self.routers[r] = node
        # Initial events as (time, kind, data).  A workload request carries
        # its consumer's stream: the loop pulls that consumer's next request
        # when it pops this one, so each consumer has at most one pending.
        events = []
        if workload is not None:
            zipf = zipf_cumulative(workload.zipf_alpha, workload.catalog_size)
            for consumer in sorted(self.consumer_router):
                stream = _consumer_stream(workload, consumer, zipf)
                first = next(stream, None)
                if first is not None:
                    events.append((first[0], _REQUEST,
                                   (consumer, world.catalog[first[2]], stream)))
        elif requests:
            for (t, consumer, name) in requests:
                if consumer not in self.consumer_router:
                    raise ValueError(f"unknown consumer in script: {consumer}")
                events.append((t, _REQUEST, (consumer, name, None)))

        if sweep_interval_ms <= self.horizon_ms:
            events.append((sweep_interval_ms, _SWEEP, None))
        events.append((self.warmup_ms + sample_interval_ms, _SAMPLE, None))
        # Heap entries are (time, seq, kind, data): seq breaks time ties in
        # push order, and _seq counts every event pushed.  It also numbers
        # each retry due time, including those an answer cancels before
        # they fire, so it exceeds the count of events dispatched.
        self.heap: List[tuple] = [(t, seq, kind, data)
                                  for seq, (t, kind, data) in enumerate(events, 1)]
        heapq.heapify(self.heap)
        self._seq = len(self.heap)

        self.audit = bool(audits) and scheme is Scheme.DART
        self.recent: deque = deque(maxlen=256)

        # The report is filled as the loop runs; the sums and peaks of the
        # sampled sizes are kept beside it, flat, keyed (table, router).
        rl = tuple(topology.routers)
        self.report = MetricsReport(
            scheme.value, caching_mode.value,
            workload.per_router_rate if workload is not None else 0.0, rl,
            self.routers[rl[0]].TABLES, delay_count={r: 0 for r in rl})
        self.size_keys = [(t, r) for r, node in self.routers.items() for t in node.TABLES]
        self.size_sums = [0] * len(self.size_keys)
        self.size_peaks = [0] * len(self.size_keys)
        self.sample_count = 0
        self.delay_sum = {r: 0.0 for r in rl}
        # (consumer, name) -> (due_time, seq, attempt, issue_time, ...): one
        # tuple per open request, in the order their retries fall due
        self.open: Dict[Tuple[str, Name], tuple] = {}

    def _recent_lines(self) -> List[str]:
        return [_trace_line(t, dst, "RX", m, src) for (t, _, dst, src, m, _) in self.recent]

    # -- timers: each returns when it fires next ---------------------------

    def _sweep(self, now: float) -> float:
        for node in self.routers.values():
            node.sweep(now)
        return now + self.sweep_interval_ms

    def _sample(self, now: float) -> float:
        self.sample_count += 1
        sizes = list(chain.from_iterable(sample_table_sizes(self.routers).values()))
        self.size_sums = list(map(add, self.size_sums, sizes))
        self.size_peaks = [s if s > p else p for p, s in zip(self.size_peaks, sizes)]
        return now + self.sample_interval_ms

    # -- main loop ----------------------------------------------------------

    def run(self) -> MetricsReport:
        """The event loop.  Delivery, the request path and emission routing
        (consumer hand-off, audits, trace lines, link delays) are inlined,
        and the state they touch is held in locals.  Handlers are bound
        from ``self.routers`` here, not at construction, so a router or
        handler swapped in before ``run`` is the one called.

        The loop takes the smallest head by (time, seq) of three queues.
        A send, (time, seq, dst, src, message, chain), waits in the
        ``sends`` FIFO when it sorts after the FIFO's tail, which keeps the
        FIFO in order, and else in the heap as (time, seq, _DELIVER, send);
        one path delivers both.  Open requests, kept in the order their
        retries fall due, are the retry queue: its head ``due`` is the
        first record itself, (due_time, seq, attempt, issue_time, ...), and
        an answer or an abandon deletes a request's record, so no retry
        outlives it.  All else waits in the heap as (time, seq, kind,
        data).  Seq numbers are unique, so no comparison of two heads reads
        past the seq.  An event that re-arms (a consumer's next request, a
        sample or a sweep) replaces the heap head in one operation.

        Cyclic garbage collection is off while the loop runs and is put
        back as the caller had it on every exit.  The loop builds no
        reference cycles, so refcounting frees everything it allocates and
        a collection would only walk live objects."""
        heap, pop, push, replace = self.heap, heapq.heappop, heapq.heappush, heapq.heapreplace
        sends: deque = deque()
        send, take, consumer_router = sends.append, sends.popleft, self.consumer_router
        handlers = {r: node.handlers() for r, node in self.routers.items()}
        asks = {r: node.ask for r, node in self.routers.items()}
        delays, catalog = self.world.delays, self.world.catalog
        rep, open_requests, delay_sum = self.report, self.open, self.delay_sum
        delay_count, nacked_by_code = rep.delay_count, rep.nacked_by_code
        warm, horizon = self.warmup_ms, self.horizon_ms
        retry_timeout, max_tries = self.retry_timeout_ms, self.max_tries
        audit, remember = self.audit, self.recent.append
        write = self.trace.write if self.trace else None
        seq, due = self._seq, _first_due(open_requests)
        requests, delivered, nacked = rep.requests, rep.delivered, rep.nacked
        abandoned, retries = rep.abandoned, rep.retries
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            while True:
                if sends and (not heap or sends[0] < heap[0]) and (
                        due is None or sends[0] < due):
                    kind, data = _DELIVER, take()
                elif due is not None and (not heap or due < heap[0]):
                    now, kind = due[0], _RETRY
                elif heap:
                    # the head stays on the heap until its event knows
                    # whether it re-arms
                    now, _, kind, data = heap[0]
                    if kind == _DELIVER:
                        pop(heap)
                else:
                    break
                if kind == _DELIVER:
                    now, _, here, sender, in_msg, in_chain = data
                    if audit:
                        remember(data)
                    ems = handlers[here][type(in_msg)](sender, in_msg, now)
                    if write is not None:
                        # handlers return None exactly when they drop the packet
                        write(_trace_line(now, here, "RX" if ems is not None else "DROP",
                                          in_msg, sender) + "\n")
                    if not ems:
                        continue
                else:
                    if kind == _REQUEST:
                        consumer, name, stream = data
                        nxt = next(stream, None) if stream is not None else None
                        if nxt is not None:
                            seq += 1
                            replace(heap, (nxt[0], seq, _REQUEST,
                                           (consumer, catalog[nxt[2]], stream)))
                        else:
                            pop(heap)
                        requests += 1
                        key = (consumer, name)
                        opened = open_requests.get(key)
                        if opened is not None:
                            # same consumer re-asks while the first fetch is in flight: ride it
                            ride = open_requests[key] = opened + (now,)
                            if opened is due:
                                due = ride
                            continue
                        # no due until the request has left its router
                        opened = open_requests[key] = (None, None, 1, now)
                    elif kind == _RETRY:
                        # the first open request is the one due and the
                        # second falls due next: one walk finds both, as a
                        # walk from the front passes every deleted entry
                        firsts = iter(open_requests.items())
                        key, opened = next(firsts)
                        due = next(firsts, (None, None))[1]
                        del open_requests[key]
                        consumer, name = key
                        if opened[2] >= max_tries:
                            abandoned += len(opened) - 3
                            self.routers[consumer_router[consumer]].give_up(consumer, name)
                            continue
                        retries += 1
                        # sent again, it waits for a new due at the end
                        opened = open_requests[key] = (None, None, opened[2] + 1, *opened[3:])
                    else:
                        at = self._sample(now) if kind == _SAMPLE else self._sweep(now)
                        if at <= horizon:
                            seq += 1
                            replace(heap, (at, seq, kind, None))
                        else:
                            pop(heap)
                        continue
                    # the consumer's ask reaches its router at once, as the
                    # packet the router makes of it
                    here = consumer_router[consumer]
                    ask = asks[here](name)
                    if write is not None:
                        write(_trace_line(now, here, "RX", ask, consumer) + "\n")
                    ems = handlers[here][type(ask)](consumer, ask, now)
                    in_msg, in_chain = None, ()

                # Emission routing: a consumer sits on its router and gets its
                # packet now; a neighbour gets it after the link delay.  Only
                # audited DART Interests carry a forward chain; all else ().
                for dst, m in ems:
                    mt = type(m)
                    if dst in consumer_router:
                        if write is not None:
                            write(_trace_line(now, here, "TX", m, dst) + "\n")
                        rec = open_requests.pop((dst, m.name), None)
                        if rec is None:
                            continue
                        if rec is due:
                            due = _first_due(open_requests)
                        if mt is DataPacket:
                            r = consumer_router[dst]
                            for t0 in rec[3:]:
                                delivered += 1
                                if t0 >= warm:
                                    delay_sum[r] += now - t0
                                    delay_count[r] += 1
                        else:
                            n = len(rec) - 3
                            nacked += n
                            code = m.code.value
                            nacked_by_code[code] = nacked_by_code.get(code, 0) + n
                        continue
                    chain = ()
                    if audit and mt is Interest:
                        if type(in_msg) is Interest:
                            if here in in_chain:
                                raise AuditError("path-acyclicity", here, m,
                                                 in_chain, self._recent_lines())
                            if m.hop_count >= in_msg.hop_count:
                                raise AuditError("hop-count-descent", here, m,
                                                 in_chain, self._recent_lines())
                            chain = in_chain + (here,)
                        else:
                            chain = (here,)
                    if write is not None:
                        write(_trace_line(now, here, "TX", m, dst) + "\n")
                    seq += 1
                    entry = (now + delays[here][dst], seq, dst, here, m, chain)
                    if not sends or entry > sends[-1]:
                        send(entry)
                    else:
                        push(heap, (entry[0], seq, _DELIVER, entry))

                if kind != _DELIVER and key in open_requests:
                    # the request left its router: its retry falls due last
                    seq += 1
                    opened = open_requests[key] = (now + retry_timeout, seq, *opened[2:])
                    if due is None:
                        due = opened
        finally:
            if gc_was_enabled:
                gc.enable()
            self._seq = seq
            rep.requests, rep.delivered, rep.nacked = requests, delivered, nacked
            rep.abandoned, rep.retries = abandoned, retries
        return self._report()

    def _report(self) -> MetricsReport:
        """Add what the routers hold to the report: each table's sample mean
        and peak, Interest counts and each router's TOTALS."""
        rep, k = self.report, self.sample_count
        for (table, r), total, peak in zip(self.size_keys, self.size_sums, self.size_peaks):
            rep.table_mean.setdefault(table, {})[r] = total / k
            rep.table_max.setdefault(table, {})[r] = peak
        for r, node in self.routers.items():
            rep.interests_received[r] = node.interests_received
            if rep.delay_count[r]:
                rep.delay_mean_ms[r] = self.delay_sum[r] / rep.delay_count[r]
            for key in node.TOTALS:
                setattr(rep, key, getattr(rep, key) + getattr(node, key))
            rep.store_evictions += node.store.evictions
        means = list(rep.table_mean[rep.tables[0]].values())
        mu = fold_sum(means) / len(means)
        rep.table_size_router_mean = mu
        rep.table_size_router_std = math.sqrt(
            max(0.0, fold_sum(m * m for m in means) / len(means) - mu * mu))
        return rep


def simulate(world: World, scheme, caching_mode, workload: Optional[WorkloadSpec] = None,
             audits: bool = True, *, trace_path: Optional[str] = None,
             **params) -> MetricsReport:
    """Simulate one cell on ``world``, which it only reads.  Exactly one of
    ``workload`` / ``requests=[(time_ms, consumer, name), ...]`` drives traffic."""
    with open(trace_path, "w") if trace_path else nullcontext() as fh:
        sim = _Simulation(world, Scheme(scheme), CachingMode(caching_mode),
                          workload=workload, audits=audits, trace=fh, **params)
        return sim.run()


def run(topology: Topology, fibs: Dict[str, Fib], scheme, caching_mode,
        workload: Optional[WorkloadSpec] = None, audits: bool = True, *,
        catalog: Sequence[Name], **params) -> MetricsReport:
    """``simulate`` on a world built for this run alone; anchors hold the
    names of ``catalog`` (the content that exists) under their prefixes."""
    return simulate(World.build(topology, fibs, catalog), scheme, caching_mode,
                    workload, audits, **params)
