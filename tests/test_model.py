import pickle

import pytest

from dartlab.model import (
    MAX_DART,
    CachingMode,
    ContentStore,
    DataPacket,
    Interest,
    Name,
    NameError_,
    Prefix,
)


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


def test_caching_mode_values():
    assert {m.value for m in CachingMode} == {"onpath", "edge", "none"}


def test_content_store_owned_beats_cache_and_lru_evicts():
    cs = ContentStore(capacity=2)
    n1, n2, n3 = (Name.parse(f"/o/{i}") for i in range(3))
    own = DataPacket(n1)
    cs.add_owned(own)
    cs.cache(DataPacket(n1))  # owned wins, not cached
    assert cs.get(n1) is own
    cs.cache(DataPacket(n2))
    cs.cache(DataPacket(n3))
    assert list(cs.owned) == [n1] and list(cs.cached) == [n2, n3]
    cs.get(n2)  # refresh n2, so n3 is the LRU victim
    cs.cache(DataPacket(Name.parse("/o/4")))
    assert n3 not in cs.cached and cs.evictions == 1
    assert cs.get(n3) is None
    assert cs.get(n1) is own and list(cs.cached) == [n2, Name.parse("/o/4")]


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
    first = cs.cached[names[0]]
    assert cs.get(names[0]) is first
    cs.cache(DataPacket(names[0]))  # already held: the first copy stays
    assert type(cs.cached) is dict and list(cs.cached) == names
    assert cs.cached[names[0]] is first
    assert len(cs.cached) == 1000 and cs.evictions == 0
