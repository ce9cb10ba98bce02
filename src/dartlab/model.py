"""Core vocabulary: names, prefixes, wire messages, and the content store.

Everything here is scheme-agnostic.  Router behaviour lives in dart_node /
ndn_node; this module only defines what travels on links and what content
looks like at rest.  Names, prefixes, emissions and wire messages are all
immutable tuple subclasses, so their storage, hashing and comparison run in
C; the wire messages add field names.
"""

from __future__ import annotations

from collections import OrderedDict, namedtuple
from enum import Enum
from operator import itemgetter
from typing import Collection, Dict, Iterable, Optional
from urllib.parse import quote


class NameError_(ValueError):
    """Malformed name or prefix."""


class Prefix(tuple):
    """Leading run of a name's components, e.g. ``/video``: the tuple of
    them.  Components are non-empty strings and must not contain ``/`` (the
    separator).  May be empty (matches every name)."""

    __slots__ = ()

    def __new__(cls, components: Iterable[str] = ()):
        comps = tuple.__new__(cls, components)
        for c in comps:
            if not c:
                raise NameError_(f"empty {cls.__name__.lower()} component")
            if "/" in c:
                raise NameError_(f"component contains separator: {c!r}")
        return comps

    @classmethod
    def parse(cls, text: str):
        if not text.startswith("/"):
            raise NameError_(f"{cls.__name__.lower()} must start with '/': {text!r}")
        return cls(text[1:].split("/") if text != "/" else ())

    @property
    def components(self) -> tuple:
        """The plain component tuple (perfbench/stale.py reads it)."""
        return tuple(self)

    def matches(self, name: Name) -> bool:
        return name[:len(self)] == self

    def __str__(self):
        return "/" + "/".join(self)

    def __repr__(self):
        return f"{type(self).__name__}({str(self)!r})"


class Name(Prefix):
    """Hierarchical content name, e.g. ``/video/cats/seg3``: a prefix with at
    least one component, so longest-prefix match can hit a whole name.

    Being a tuple gives hashing, equality, ordering and pickling in C.  Two
    facts keep that safe: a name hashes as the tuple of its components, so
    table orders (and so output bytes) are those of plain tuple keys; and a
    name equals a ``Prefix`` or plain tuple with the same components, which
    no table mixes (FIBs are keyed by prefix; stores, RCT, PIT and open
    requests by name).
    """

    __slots__ = ()

    def __new__(cls, components: Iterable[str]):
        comps = Prefix.__new__(cls, components)
        if not comps:
            raise NameError_("name needs at least one component")
        return comps


# Route tokens are plain ints drawn from a 32-bit space; 0 is never issued.
Dart = int
MAX_DART: Dart = 2**32 - 1


def check_stamp(hop_count: int, dart: Dart) -> None:
    """Refuse a DART Interest's stamp: a hop budget below 1 or a route token
    outside ``1..MAX_DART``.  ``Interest.__new__`` and each new leg check it."""
    if hop_count < 1:
        raise ValueError("hop_count must be >= 1")
    if not (1 <= dart <= MAX_DART):
        raise ValueError("dart out of range")


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


# The wire messages: each subclasses a ``namedtuple`` of its fields, so it is
# a tuple built in C that compares and hashes as its fields, shows the
# dataclass-style ``repr`` that ``AuditError`` embeds and pickles through its
# own ``__new__``.  The routers build every record as
# ``tuple.__new__(cls, fields)``, in C, which skips ``Interest``'s checks, so
# ``DartRouter._add_entry`` checks each leg's stamp.  ``_make`` and
# ``_replace`` skip them too; nothing calls them.

class Interest(namedtuple("Interest", "name hop_count dart")):
    """Router-to-router DART interest: a hop budget and a route token.  A
    consumer's ask reaches its router as a bare ``Name``."""

    __slots__ = ()

    def __new__(cls, name: Name, hop_count: int, dart: Dart):
        check_stamp(hop_count, dart)
        return tuple.__new__(cls, (name, hop_count, dart))


class DataPacket(namedtuple("DataPacket", "name dart", defaults=(None,))):
    __slots__ = ()


class Nack(namedtuple("Nack", "name code dart", defaults=(None,))):
    __slots__ = ()


class NdnInterest(namedtuple("NdnInterest", "name nonce")):
    """Baseline-scheme interest: no hop budget, a random nonce instead."""

    __slots__ = ()


class Emission(tuple):
    """A message a router wants sent to a neighbour (or local consumer),
    built as ``Emission((dst, message))`` and read by unpacking.  A plain
    tuple subclass with no Python-level ``__new__``, so building one on the
    hot path runs in C."""

    __slots__ = ()

    message = property(itemgetter(1))  # perfbench/layers.py reads it


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
    them that the store cannot answer names no content.  ``owned`` may be
    the world's read-only mapping of names, which other stores share and
    ``add_owned`` cannot add to.
    """

    def __init__(self, capacity: Optional[int] = None, anchored: Iterable[Prefix] = (),
                 owned: Optional[Collection[Name]] = None):
        self.capacity = capacity
        self.anchored = tuple(anchored)
        self.owned: Collection[Name] = set() if owned is None else owned
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
