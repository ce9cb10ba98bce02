"""Core vocabulary: names, prefixes, wire messages, and the content store.

Everything here is scheme-agnostic.  Router behaviour lives in dart_node /
ndn_node; this module only defines what travels on links and what content
looks like at rest.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter
from typing import Iterable, Optional
from urllib.parse import quote


class NameError_(ValueError):
    """Malformed name or prefix."""


class Name:
    """Hierarchical content name, e.g. ``/video/cats/seg3``.

    Immutable, hashable, totally ordered by component tuple.  Components are
    non-empty strings and must not contain ``/`` (the separator).  The hash
    is cached: names are compared constantly in table lookups.
    """

    __slots__ = ("components", "_hash")

    def __init__(self, components: Iterable[str]):
        comps = tuple(components)
        if not comps:
            raise NameError_("name needs at least one component")
        for c in comps:
            if not c:
                raise NameError_("empty name component")
            if "/" in c:
                raise NameError_(f"component contains separator: {c!r}")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "_hash", hash(comps))

    def __setattr__(self, *a):  # pragma: no cover - defensive
        raise AttributeError("Name is immutable")

    def __reduce__(self):
        return (type(self), (self.components,))

    @classmethod
    def parse(cls, text: str) -> "Name":
        if not text.startswith("/"):
            raise NameError_(f"name must start with '/': {text!r}")
        return cls(text[1:].split("/"))

    def __str__(self):
        return "/" + "/".join(self.components)

    def __repr__(self):
        return f"Name({str(self)!r})"

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return isinstance(other, Name) and self.components == other.components

    def __lt__(self, other):
        return self.components < other.components

    def __le__(self, other):
        return self.components <= other.components


class Prefix:
    """Leading subsequence of name components.  May be empty (matches all)."""

    __slots__ = ("components", "_hash")

    def __init__(self, components: Iterable[str] = ()):
        comps = tuple(components)
        for c in comps:
            if not c:
                raise NameError_("empty prefix component")
            if "/" in c:
                raise NameError_(f"component contains separator: {c!r}")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "_hash", hash(comps))

    def __setattr__(self, *a):  # pragma: no cover - defensive
        raise AttributeError("Prefix is immutable")

    def __reduce__(self):
        return (type(self), (self.components,))

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        if not text.startswith("/"):
            raise NameError_(f"prefix must start with '/': {text!r}")
        if text == "/":
            return cls(())
        return cls(text[1:].split("/"))

    def matches(self, name: Name) -> bool:
        n = len(self.components)
        return name.components[:n] == self.components

    def __len__(self):
        return len(self.components)

    def __str__(self):
        return "/" + "/".join(self.components)

    def __repr__(self):
        return f"Prefix({str(self)!r})"

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return isinstance(other, Prefix) and self.components == other.components

    def __lt__(self, other):
        return self.components < other.components


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


@dataclass(frozen=True, slots=True)
class Interest:
    """DART interest.  Consumer-originated interests carry neither a hop
    budget nor a route token; router-to-router interests carry both."""

    name: Name
    hop_count: Optional[int] = None
    dart: Optional[Dart] = None

    def __post_init__(self):
        if (self.hop_count is None) != (self.dart is None):
            raise ValueError("hop_count and dart must be set together")
        if self.hop_count is not None and self.hop_count < 1:
            raise ValueError("hop_count must be >= 1")
        if self.dart is not None and not (1 <= self.dart <= MAX_DART):
            raise ValueError("dart out of range")


@dataclass(frozen=True, slots=True)
class DataPacket:
    name: Name
    dart: Optional[Dart] = None


@dataclass(frozen=True, slots=True)
class Nack:
    name: Name
    code: NackCode
    dart: Optional[Dart] = None


@dataclass(frozen=True, slots=True)
class NdnInterest:
    """Baseline-scheme interest: no hop budget, a random nonce instead."""

    name: Name
    nonce: int


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
    return "/" + "/".join(quote(c, safe="") for c in name.components)


class ContentStore:
    """Owned content plus an LRU cache of passing data.

    Owned entries (the router is the object's anchor) never age out.  Cached
    entries are bounded by ``capacity`` (None = unbounded) and evicted LRU.
    """

    def __init__(self, capacity: Optional[int] = None):
        self.capacity = capacity
        self.owned: dict[Name, DataPacket] = {}
        self.cached: "OrderedDict[Name, DataPacket]" = OrderedDict()
        self.evictions = 0

    def add_owned(self, data: DataPacket):
        self.owned[data.name] = data

    def cache(self, data: DataPacket):
        name = data.name
        if name in self.owned:
            return
        if name in self.cached:
            self.cached.move_to_end(name)
            return
        self.cached[name] = data
        if self.capacity is not None and len(self.cached) > self.capacity:
            self.cached.popitem(last=False)
            self.evictions += 1

    def get(self, name: Name) -> Optional[DataPacket]:
        d = self.owned.get(name)
        if d is not None:
            return d
        d = self.cached.get(name)
        if d is not None:
            self.cached.move_to_end(name)
        return d

    def __contains__(self, name: Name) -> bool:
        return name in self.owned or name in self.cached

    def __len__(self):
        return len(self.owned) + len(self.cached)
