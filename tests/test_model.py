import pickle

import pytest

from dartlab.model import (
    MAX_DART,
    CachingMode,
    ContentStore,
    DataPacket,
    Interest,
    Nack,
    NackCode,
    Name,
    NameError_,
    NdnInterest,
    Prefix,
)

N = Name.parse("/a/b")
# one of each wire message, with every field set, and its dataclass repr
MESSAGES = [
    (Interest(N, 4, 99), "Interest(name=Name('/a/b'), hop_count=4, dart=99)"),
    (DataPacket(N, 5), "DataPacket(name=Name('/a/b'), dart=5)"),
    (Nack(N, NackCode.LOOP, 7), "Nack(name=Name('/a/b'), code=<NackCode.LOOP: 'loop'>, dart=7)"),
    (NdnInterest(N, 2**64 - 1), f"NdnInterest(name=Name('/a/b'), nonce={2**64 - 1})"),
]


def test_name_parse_roundtrip():
    n = Name.parse("/video/cats/seg3")
    assert tuple(n) == ("video", "cats", "seg3")
    assert str(n) == "/video/cats/seg3"
    assert Name.parse(str(n)) == n
    p = Prefix.parse("/video/cats")
    assert tuple(p) == p.components == ("video", "cats")
    for obj in (n, p, Prefix.parse("/")):
        back = pickle.loads(pickle.dumps(obj))
        assert type(back) is type(obj) and back == obj


def test_name_validation():
    with pytest.raises(NameError_):
        Name([])
    with pytest.raises(NameError_):
        Name(["a", ""])
    with pytest.raises(NameError_):
        Name(["a/b"])
    with pytest.raises(NameError_):
        Name.parse("no-leading-slash")


def test_name_ordering_and_hash():
    a, b = Name.parse("/a/b"), Name.parse("/a/c")
    assert a < b and a <= a
    assert len({a, b, Name.parse("/a/b")}) == 2
    # a name hashes as its component tuple, so table orders cannot drift
    assert hash(a) == hash(("a", "b"))
    assert hash(Prefix.parse("/a/b")) == hash(("a", "b"))
    for obj in (a, Prefix.parse("/a")):
        with pytest.raises(AttributeError):
            obj.components = ("x",)
        with pytest.raises(AttributeError):
            obj.other = 1


def test_prefix_matching():
    p = Prefix.parse("/video/cats")
    assert p.matches(Name.parse("/video/cats/seg3"))
    assert p.matches(Name.parse("/video/cats"))
    assert not p.matches(Name.parse("/video/dogs/seg3"))
    assert not p.matches(Name.parse("/video"))
    root = Prefix.parse("/")
    assert len(root) == 0
    assert root.matches(Name.parse("/anything"))
    assert str(root) == "/"
    assert Prefix.parse(str(p)) == p


def test_interest_invariants():
    n = Name.parse("/a")
    Interest(n, 4, 99)
    with pytest.raises(ValueError):
        Interest(n, 0, 99)
    with pytest.raises(ValueError):
        Interest(n, 4, 0)
    with pytest.raises(ValueError):
        Interest(n, 4, MAX_DART + 1)


@pytest.mark.parametrize("hop_count, dart, ok", [
    (1, 1, True), (1, MAX_DART, True), (0, 1, False), (-3, 1, False),
    (1, 0, False), (1, -1, False), (1, MAX_DART + 1, False),
])
def test_interest_checks_its_ranges_when_built_and_unpickled(hop_count, dart, ok):
    # unpickling runs __new__, so a record built around the checks is caught
    pickled = pickle.dumps(tuple.__new__(Interest, (N, hop_count, dart)))
    if ok:
        assert Interest(N, hop_count, dart) == pickle.loads(pickled)
    else:
        with pytest.raises(ValueError):
            Interest(N, hop_count, dart)
        with pytest.raises(ValueError):
            pickle.loads(pickled)


@pytest.mark.parametrize("msg, text", MESSAGES)
def test_message_fields_and_repr(msg, text):
    assert repr(msg) == text
    fields = [f.split("=")[0] for f in text[text.index("(") + 1:-1].split(", ")]
    assert tuple(getattr(msg, f) for f in fields) == tuple(msg)
    assert type(msg)(*msg) == msg


def test_a_route_token_is_optional_on_data_and_nacks():
    assert DataPacket(N) == DataPacket(N, None) and DataPacket(N).dart is None
    assert Nack(N, NackCode.NO_ROUTE) == Nack(N, NackCode.NO_ROUTE, None)
    assert Nack(N, NackCode.NO_ROUTE).dart is None


@pytest.mark.parametrize("msg, text", MESSAGES)
def test_messages_are_immutable(msg, text):
    with pytest.raises(AttributeError):
        msg.name = Name.parse("/x")
    with pytest.raises(AttributeError):
        msg.dart = 1
    with pytest.raises(AttributeError):
        msg.other = 1
    assert repr(msg) == text


@pytest.mark.parametrize("msg, text", MESSAGES)
def test_message_equality_is_type_strict(msg, text):
    twin = type(msg)(*msg)
    assert twin == msg and not twin != msg and hash(twin) == hash(msg)
    assert len({msg, twin}) == 1
    for other_type in {Interest, DataPacket, Nack, NdnInterest} - {type(msg)}:
        # the same fields under another message type
        other = tuple.__new__(other_type, msg)
        assert other != msg and not other == msg
        assert msg != other and not msg == other
    assert msg != tuple(msg) and tuple(msg) != msg
    assert DataPacket(N, 5) != NdnInterest(N, 5) and not DataPacket(N, 5) == NdnInterest(N, 5)
    assert DataPacket(N, 5) != DataPacket(N, 6)


@pytest.mark.parametrize("msg, text", MESSAGES)
def test_messages_pickle_through_their_constructor(msg, text):
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(msg, protocol))
        assert type(back) is type(msg) and back == msg and tuple(back) == tuple(msg)
        assert repr(back) == text


@pytest.mark.parametrize("cls, fields", [(DataPacket, (N, 5)), (DataPacket, (N, None)),
                                         (NdnInterest, (N, 2**64 - 1))])
def test_records_built_in_c_match_the_constructor(cls, fields):
    # the routers build these two with tuple.__new__ on the per-packet paths
    fast, made = tuple.__new__(cls, fields), cls(*fields)
    assert type(fast) is cls and fast == made and not fast != made
    assert hash(fast) == hash(made) and len({fast, made}) == 1
    assert repr(fast) == repr(made)
    for other_type in {Interest, DataPacket, Nack, NdnInterest} - {cls}:
        other = tuple.__new__(other_type, fields)
        assert fast != other and not fast == other and other != fast
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(fast, protocol))
        assert type(back) is cls and back == made and tuple(back) == fields


def test_caching_mode_values():
    assert {m.value for m in CachingMode} == {"onpath", "edge", "none"}


def test_content_store_owned_beats_cache_and_lru_evicts():
    cs = ContentStore(capacity=2)
    n1, n2, n3 = (Name.parse(f"/o/{i}") for i in range(3))
    cs.add_owned(DataPacket(n1))
    cs.cache(DataPacket(n1))  # owned wins, not cached
    assert cs.get(n1) is n1
    cs.cache(DataPacket(n2))
    cs.cache(DataPacket(n3))
    # the store holds names; get answers with the name it was given
    assert cs.owned == {n1} and list(cs.cached.items()) == [(n2, None), (n3, None)]
    assert cs.get(n2) is n2  # refresh n2, so n3 is the LRU victim
    cs.cache(DataPacket(Name.parse("/o/4")))
    assert n3 not in cs.cached and cs.evictions == 1
    assert cs.get(n3) is None
    assert cs.get(n1) is n1 and list(cs.cached) == [n2, Name.parse("/o/4")]


@pytest.mark.parametrize("capacity", [None, 2])
def test_content_store_get_returns_the_name_it_was_given(capacity):
    # an equal name built anew is held too, and get hands back the caller's
    # object, not the stored key; a name not held gives None
    owned, cached = Name.parse("/o/0"), Name.parse("/o/1")
    cs = ContentStore(capacity, owned=frozenset({owned}))
    cs.cache(DataPacket(cached))
    for held in (owned, cached):
        twin = Name.parse(str(held))
        assert twin is not held and cs.get(twin) is twin and cs.get(held) is held
    assert cs.get(Name.parse("/o/2")) is None and cs.get(Prefix.parse("/o")) is None


def test_content_store_anchors_names_under_its_prefixes():
    cs = ContentStore(anchored=(Prefix.parse("/p"), Prefix.parse("/q/r")))
    assert cs.anchors(Name.parse("/p/0")) and cs.anchors(Name.parse("/q/r/1"))
    assert not cs.anchors(Name.parse("/q/s/1"))
    assert not ContentStore().anchors(Name.parse("/p/0"))


def test_content_store_unbounded_by_default():
    # only a bounded store evicts, so only it keeps an LRU order
    cs = ContentStore()
    names = [Name.parse(f"/x/{i}") for i in range(1000)]
    for n in names:
        cs.cache(DataPacket(n))
    assert cs.get(names[0]) is names[0]
    cs.cache(DataPacket(names[0], 7))  # already held: it keeps its place
    assert type(cs.cached) is dict and list(cs.cached) == names
    assert set(cs.cached.values()) == {None}
    assert len(cs.cached) == 1000 and cs.evictions == 0
