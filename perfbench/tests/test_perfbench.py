"""Tests of the benchmark itself: span accounting, the sweep generator and
the output check.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import pytest

from perfbench import program, stale, tracer
from perfbench.run import Checker
from perfbench.workloads import Unit, rows_digest

MODULES = program.load()


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    clock = FakeClock()
    t = tracer.Tracer(clock)

    def leaf():
        clock.now += 2.0

    def middle():
        clock.now += 1.0
        leaf()
        clock.now += 1.0
        leaf()

    def outer():
        clock.now += 3.0
        middle()
        clock.now += 0.5

    leaf = t.wrap("leaf", leaf)
    middle = t.wrap("middle", middle)
    t.wrap("outer", outer)()

    assert (t.stats["leaf"].calls, t.stats["leaf"].self_s) == (2, 4.0)
    assert (t.stats["middle"].calls, t.stats["middle"].self_s) == (1, 2.0)
    assert t.stats["outer"].self_s == 3.5
    # the calibrated wrapper cost is charged back once per direct child
    assert t.self_seconds("middle", per_call_overhead=0.25) == 1.5
    assert t.self_seconds("outer", per_call_overhead=0.25) == 3.25


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    t = tracer.Tracer(clock)

    def boom():
        clock.now += 1.0
        raise KeyError("x")

    boom = t.wrap("boom", boom)

    def outer():
        with pytest.raises(KeyError):
            boom()
        clock.now += 1.0

    t.wrap("outer", outer)()
    assert t.stats["boom"].self_s == 1.0
    assert t.stats["outer"].self_s == 1.0


def test_patches_are_undone():
    routing = MODULES["routing"]
    orig_delay = routing.Topology.delay
    orig_fibs = MODULES["experiment"].compute_fibs
    t = tracer.Tracer()
    with tracer.Patches() as p:
        p.attribute(routing.Topology, "delay", lambda f: t.wrap("delay", f))
        p.function(MODULES.values(), orig_fibs, t.wrap("fibs", orig_fibs))
        assert routing.Topology.delay is not orig_delay
        assert MODULES["experiment"].compute_fibs is not orig_fibs
        assert routing.compute_fibs is MODULES["experiment"].compute_fibs
    assert routing.Topology.delay is orig_delay
    assert routing.compute_fibs is orig_fibs
    assert MODULES["experiment"].compute_fibs is orig_fibs


def _describe(net):
    dump = MODULES["routing"].dump_fibs(net.fibs)
    return (net.topology.routers, sorted(net.topology.links.items()),
            sorted((str(p), a) for p, a in net.topology.anchors.items()),
            dump, net.caching, [(t, c, str(n)) for t, c, n in net.requests])


def _network(variant, index):
    return stale.build(MODULES, stale.plan(MODULES, variant, index))


def test_stale_network_is_a_pure_function_of_its_seed():
    for index in (0, 7, 123):
        assert _describe(_network(3, index)) == _describe(_network(3, index))
        p = stale.plan(MODULES, 3, index)
        assert _describe(stale.build(MODULES, p)) == _describe(stale.build(MODULES, p))
    assert _describe(_network(3, 0)) != _describe(_network(4, 0))
    assert _describe(_network(3, 0)) != _describe(_network(3, 1))


def _unit(rows):
    return Unit(wall_s=1.0, digest=rows_digest(rows), requests=5, failures=1, ops=1, loops=[])


def test_digest_check_fails_on_an_altered_row():
    rep = stale.simulate(MODULES, _network(0, 0))
    rows = rep.rows()
    expected = {"digest": rows_digest(rows), "requests": 5, "failures": 1, "events": 0}

    good = Checker(expected)
    good.unit("unit", _unit(rows))
    assert good.correct and (good.attempted, good.failed) == (1, 0)

    altered = list(rows)
    scheme, caching, rate, router, metric, value = altered[0]
    altered[0] = (scheme, caching, rate, router, metric, value + 1)
    bad = Checker(expected)
    bad.unit("unit", _unit(altered))
    assert not bad.correct and (bad.attempted, bad.failed) == (1, 1)
    assert "digest" in bad.problems[0]


def test_units_of_one_run_must_agree():
    rows = stale.simulate(MODULES, _network(0, 1)).rows()
    check = Checker({"digest": rows_digest(rows), "requests": 5, "failures": 1, "events": 0})
    check.unit("unit 1", _unit(rows))
    other = _unit(rows)
    other.failures = 2
    check.unit("unit 2", other)
    assert not check.correct
    assert any("between units" in p for p in check.problems)


def test_missing_record_is_not_correct():
    assert not Checker(None).correct
