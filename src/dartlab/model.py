"""Core vocabulary: names, prefixes, wire messages, and the content store.

Everything here is scheme-agnostic.  Router behaviour lives in dart_node /
ndn_node; this module only defines what travels on links and what content
looks like at rest.  Names, prefixes, emissions and wire messages are all
immutable tuple subclasses, so their storage, hashing and comparison run in
C; the wire messages add field names and type-strict equality (``_Record``).
"""

from __future__ import annotations

from collections import OrderedDict, namedtuple
from enum import Enum
from operator import itemgetter
from typing import AbstractSet, Dict, Iterable, Optional
from urllib.parse import quote


class NameError_(ValueError):
    """Malformed name or prefix."""


def _checked(cls, components: Iterable[str]) -> tuple:
    """A ``cls`` tuple of ``components``, each non-empty and free of ``/``."""
    comps = tuple.__new__(cls, components)
    for c in comps:
        if not c:
            raise NameError_(f"empty {cls.__name__.lower()} component")
        if "/" in c:
            raise NameError_(f"component contains separator: {c!r}")
    return comps


class Name(tuple):
    """Hierarchical content name, e.g. ``/video/cats/seg3``: the tuple of its
    components.  Components are non-empty strings and must not contain ``/``
    (the separator).

    Being a tuple gives hashing, equality, ordering and pickling in C.  Two
    facts keep that safe: a name hashes as the tuple of its components, so
    table orders (and so output bytes) are those of plain tuple keys; and a
    name equals a ``Prefix`` or plain tuple with the same components, which
    no table mixes (FIBs are keyed by prefix; stores, RCT, PIT and open
    requests by name).
    """

    __slots__ = ()

    def __new__(cls, components: Iterable[str]):
        comps = _checked(cls, components)
        if not comps:
            raise NameError_("name needs at least one component")
        return comps

    @classmethod
    def parse(cls, text: str) -> "Name":
        if not text.startswith("/"):
            raise NameError_(f"name must start with '/': {text!r}")
        return cls(text[1:].split("/"))

    def __str__(self):
        return "/" + "/".join(self)

    def __repr__(self):
        return f"Name({str(self)!r})"


class Prefix(tuple):
    """Leading subsequence of name components, as a tuple like ``Name``.
    May be empty (matches all)."""

    __slots__ = ()

    def __new__(cls, components: Iterable[str] = ()):
        return _checked(cls, components)

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        if not text.startswith("/"):
            raise NameError_(f"prefix must start with '/': {text!r}")
        if text == "/":
            return cls(())
        return cls(text[1:].split("/"))

    @property
    def components(self) -> tuple:
        """The plain component tuple (perfbench/stale.py reads it)."""
        return tuple(self)

    def matches(self, name: Name) -> bool:
        return name[:len(self)] == self

    def __str__(self):
        return "/" + "/".join(self)

    def __repr__(self):
        return f"Prefix({str(self)!r})"


# Route tokens are plain ints drawn from a 32-bit space; 0 is never issued.
Dart = int
MAX_DART: Dart = 2**32 - 1


class NackCode(Enum):
    NO_CONTENT = "no-content"  # anchor has no such object
    NO_ROUTE = "no-route"      # no forwarding entry at all
    LOOP = "loop"              # interest cannot make forward progress


class CachingMode(Enum):
    ON_PATH = "onpath"  # every router on the return path caches
    EDGE = "edge"       # only routers with a locally attached consumer cache
    NONE = "none"       # no opportunistic caching


# the routers' on_data tests these per packet; reading a member off an Enum
# class is a Python-level lookup, about ten times slower than a module global
ON_PATH, EDGE = CachingMode.ON_PATH, CachingMode.EDGE


class _Record(tuple):
    """Type-strict equality for the wire messages.

    Each message subclasses this and a ``namedtuple`` of its fields, so it
    is a tuple built in C: immutable, compact, its fields read by C
    descriptors (about half the cost of ``property(itemgetter(i))``),
    pickled through its own ``__new__`` (``__getnewargs__``), and shown
    with the dataclass-style ``repr`` that ``AuditError`` embeds.  A plain
    tuple equals any tuple with the same items; a record equals only a
    record of its own type (a ``DataPacket`` never equals an
    ``NdnInterest`` with the same fields), and equal records hash equal.
    The namedtuple helpers ``_make`` and ``_replace`` skip ``__new__`` and
    so ``Interest``'s checks; the program calls neither.  The per-packet
    paths build a ``DataPacket`` or ``NdnInterest``, which check nothing, as
    ``tuple.__new__(cls, fields)``: in C, where the namedtuple's
    ``__new__`` is Python code and takes about 130 ns more a packet."""

    __slots__ = ()

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return type(other) is not type(self) or tuple.__ne__(self, other)

    __hash__ = tuple.__hash__


class Interest(_Record, namedtuple("Interest", "name hop_count dart")):
    """Router-to-router DART interest: a hop budget and a route token.  A
    consumer's ask reaches its router as a bare ``Name``."""

    __slots__ = ()

    def __new__(cls, name: Name, hop_count: int, dart: Dart):
        if hop_count < 1:
            raise ValueError("hop_count must be >= 1")
        if not (1 <= dart <= MAX_DART):
            raise ValueError("dart out of range")
        return tuple.__new__(cls, (name, hop_count, dart))


class DataPacket(_Record, namedtuple("DataPacket", "name dart", defaults=(None,))):
    __slots__ = ()


class Nack(_Record, namedtuple("Nack", "name code dart", defaults=(None,))):
    __slots__ = ()


class NdnInterest(_Record, namedtuple("NdnInterest", "name nonce")):
    """Baseline-scheme interest: no hop budget, a random nonce instead."""

    __slots__ = ()


class Emission(tuple):
    """A message a router wants sent to a neighbour (or local consumer),
    built as ``Emission((dst, message))``.  A plain tuple subclass with no
    Python-level ``__new__``, so building one on the hot path runs in C."""

    __slots__ = ()

    dst = property(itemgetter(0))
    message = property(itemgetter(1))


# Name components are percent-escaped individually so a trace line stays
# single-line ASCII whatever the component strings hold.

def _esc_name(name: Name) -> str:
    return "/" + "/".join(quote(c, safe="") for c in name)


class ContentStore:
    """Owned names plus a cache of the names of passing Data.  A Data packet
    is its name plus a per-hop token, so ``get`` tells only whether a name
    is held, and the router builds the one packet it sends.

    Owned names (the router is the object's anchor) never age out.  Cached
    names are bounded by ``capacity`` (None = unbounded).  Only a bounded
    store keeps recency: its cache is an ``OrderedDict`` evicted LRU.  An
    unbounded one never evicts, so its cache is a plain ``dict``, which a
    hit leaves as it is.
    ``anchored`` are the prefixes the router anchors: an ask under one of
    them that the store cannot answer names no content.  ``owned`` may be a
    ``frozenset`` other stores share, which ``add_owned`` cannot add to.
    """

    def __init__(self, capacity: Optional[int] = None, anchored: Iterable[Prefix] = (),
                 owned: Optional[AbstractSet[Name]] = None):
        self.capacity = capacity
        self.anchored = tuple(anchored)
        self.owned: AbstractSet[Name] = set() if owned is None else owned
        self.cached: Dict[Name, None] = {} if capacity is None else OrderedDict()
        self.evictions = 0

    def anchors(self, name: Name) -> bool:
        """Whether the router anchors a prefix of ``name``."""
        for p in self.anchored:
            if p.matches(name):
                return True
        return False

    def add_owned(self, data: DataPacket):
        self.owned.add(data.name)

    def cache(self, data: DataPacket):
        name = data.name
        if name in self.owned:
            return
        if self.capacity is None:
            self.cached[name] = None  # a held name keeps its place
            return
        if name in self.cached:
            self.cached.move_to_end(name)
            return
        self.cached[name] = None
        if len(self.cached) > self.capacity:
            self.cached.popitem(last=False)
            self.evictions += 1

    def get(self, name: Name) -> Optional[Name]:
        """``name`` itself if the store holds it, else None."""
        if name not in self.owned:
            if name not in self.cached:
                return None
            if self.capacity is not None:
                self.cached.move_to_end(name)
        return name
