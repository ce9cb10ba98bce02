import filecmp
import json
import pickle
from collections import Counter
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dartlab import experiment
from dartlab.engine import WorkloadSpec, generate_workload, run
from dartlab.experiment import (
    ConfigError,
    ExperimentConfig,
    build_catalog,
    build_topology,
    cell_filename,
    compare_dir,
    parse_config,
    run_cell,
    run_experiment,
    simulate_cell,
    write_comparison_csv,
)
from dartlab.model import Name, Prefix
from dartlab.routing import compute_fibs

TINY = """\
# two routers, one tiny cell per scheme
nodes = 2
area = 10
radius = 20
link_delay_ms = 5
topology_seed = 3
producers = 1
schemes = dart,ndn
caching = none
rates = 20
seeds = 1
zipf_alpha = 0.7
catalog = 25
duration_s = 2
retry_timeout_s = 5
"""


def write_cfg(tmp_path, text=TINY):
    p = tmp_path / "exp.cfg"
    p.write_text(text)
    return p


def test_parse_config_defaults_and_overrides():
    cfg = parse_config(TINY)
    assert cfg.nodes == 2 and cfg.catalog == 25
    assert cfg.schemes == ("dart", "ndn") and cfg.caching == ("none",)
    assert cfg.rates == (20.0,) and cfg.seeds == (1,)
    assert cfg.audit is True  # untouched default
    assert parse_config("").nodes == 50  # all defaults
    # the first sample may land exactly on the end of the run
    assert parse_config("duration_s = 2\nsample_interval_ms = 1800").sample_interval_ms == 1800
    # a stream may expect as many requests as a timer may fire, and every
    # router may anchor a prefix
    assert parse_config("duration_s = 2\nrates = 5000000").rates == (5e6,)
    assert parse_config("nodes = 4\nproducers = 4").producers == 4


@pytest.mark.parametrize("bad,frag", [
    ("nodes", "line 1"),
    ("what = 3", "unknown key"),
    ("nodes = many", "bad value"),
    ("schemes = dart,foo", "unknown scheme"),
    ("caching = sometimes", "unknown caching"),
    ("audit = maybe", "bad value for audit"),
    ("sweep_interval_s = 0", "sweep_interval_s must be > 0"),
    ("sample_interval_ms = 0", "sample_interval_ms must be > 0"),
    ("nodes = 0", "nodes must be >= 1"),
    ("area = 0", "area must be > 0 and finite, got 0.0"),
    ("area = nan", "area must be > 0 and finite, got nan"),
    ("area = inf", "area must be > 0 and finite"),
    ("radius = -1", "radius must be >= 0 and finite, got -1.0"),
    ("radius = nan", "radius must be >= 0 and finite"),
    ("radius = inf", "radius must be >= 0 and finite"),
    ("producers = -1", "producers must be >= 0"),
    ("link_delay_ms = 0", "link_delay_ms must be > 0"),
    ("link_delay_ms = inf", "link_delay_ms must be > 0 and finite"),
    ("rates = 10\nrates = 20", "line 2: key 'rates' already set on line 1"),
    ("duration_s = 0", "duration_s must be > 0"),
    ("rates = 10, -1", "rates must be > 0"),
    ("rates = nan", "rates must be > 0"),
    ("rates = inf", "rates must be > 0 and finite"),
    ("rates = 1e300", r"rates must be <= 10000000 / duration_s, got \(1e\+300,\)"),
    ("duration_s = 2\nrates = 10, 5000001", "rates must be <= 10000000 / duration_s"),
    ("nodes = 3\nproducers = 4", "producers must be >= 0 and <= nodes, got 4"),
    ("duration_s = inf", "duration_s must be > 0 and finite"),
    ("dart_ttl_s = -1", "dart_ttl_s must be > 0"),
    ("pit_lifetime_s = 0", "pit_lifetime_s must be > 0"),
    ("retry_timeout_s = nan", "retry_timeout_s must be > 0"),
    ("retry_timeout_s = inf", "retry_timeout_s must be > 0 and finite"),
    ("catalog = 0", "catalog must be >= 1"),
    ("max_tries = 0", "max_tries must be >= 1"),
    ("zipf_alpha = nan", "zipf_alpha must be finite"),
    ("zipf_alpha = inf", "zipf_alpha must be finite"),
    ("zipf_alpha = -0.5", "zipf_alpha must be finite and >= 0"),
    ("warmup_frac = 1.5", r"warmup_frac must be in \[0, 1\)"),
    ("warmup_frac = 1", r"warmup_frac must be in \[0, 1\)"),
    ("warmup_frac = -0.1", r"warmup_frac must be in \[0, 1\)"),
    ("store_capacity = -1", "store_capacity must be >= 0"),
    ("workers = 0", "workers must be >= 1"),
    ("schemes = dart, dart", "schemes must be non-empty and free of duplicates"),
    ("caching = edge, edge", "caching must be non-empty and free of duplicates"),
    ("rates = 10, 10.0", "rates must be non-empty and free of duplicates"),
    ("seeds = 1, 1", "seeds must be non-empty and free of duplicates"),
    ("rates = ,", "rates must be non-empty"),
    ("duration_s = 2\nsample_interval_ms = 5000",
     r"sample_interval_ms must be <= duration_s \* 1000 \* \(1 - warmup_frac\)"),
    ("duration_s = 2\nsample_interval_ms = 1e-4",
     r"sample_interval_ms must be >= duration_s \* 1000 / 10000000, got 0.0001"),
    ("duration_s = 2\nsweep_interval_s = 1e-7",
     "sweep_interval_s must be >= duration_s / 10000000, got 1e-07"),
])
def test_parse_config_rejects(bad, frag):
    with pytest.raises(ConfigError, match=frag):
        parse_config(bad)


_KEYS = st.sampled_from([f.name for f in fields(ExperimentConfig)]) | st.text(max_size=8)
_VALUES = (st.text(max_size=24) | st.integers().map(str) | st.floats().map(repr)
           | st.lists(st.integers(-3, 300).map(str), max_size=4).map(", ".join))
_LINES = st.lists(st.tuples(_KEYS, _VALUES).map(" = ".join), max_size=6)


@settings(max_examples=300, deadline=None)
@given(_LINES)
def test_parse_config_never_escapes_with_another_exception(lines):
    # a config is either accepted or refused with ConfigError (exit 1 with a
    # message in the CLI), never a traceback
    try:
        cfg = parse_config("\n".join(lines))
    except ConfigError:
        return
    assert isinstance(cfg, ExperimentConfig)


def test_build_topology_and_catalog_round_robin():
    cfg = parse_config(TINY.replace("nodes = 2", "nodes = 12")
                           .replace("producers = 1", "producers = 3")
                           .replace("radius = 20", "radius = 8"))
    topo = build_topology(cfg)
    assert len(topo.anchors) == 3
    names = build_catalog(cfg, topo)
    assert len(names) == 25
    prefixes = sorted(topo.anchors)
    # rank k lands on producer k mod 3
    for k in (0, 1, 2, 3, 7):
        assert prefixes[k % 3].matches(names[k])
    assert names[0] == Name((*prefixes[0].components, "o00000"))
    # producers=0 means everybody anchors
    all_cfg = parse_config(TINY.replace("producers = 1", "producers = 0"))
    assert len(build_topology(all_cfg).anchors) == 2


@pytest.mark.parametrize("producers", [1, 3, 0])
def test_build_catalog_equals_the_name_by_name_reference(producers):
    # 25 names over 1, 3 or 12 prefixes: 25 is no multiple of 3 or 12
    cfg = parse_config(TINY.replace("nodes = 2", "nodes = 12")
                           .replace("producers = 1", f"producers = {producers}")
                           .replace("radius = 20", "radius = 8"))
    topo = build_topology(cfg)
    prefixes = sorted(topo.anchors)
    assert len(prefixes) == (producers or 12)
    names = build_catalog(cfg, topo)
    assert names == [Name((*prefixes[k % len(prefixes)], f"o{k:05d}"))
                     for k in range(cfg.catalog)]
    assert all(type(n) is Name for n in names)


def test_config_is_picklable_and_prefix_roundtrips():
    cfg = parse_config(TINY)
    assert pickle.loads(pickle.dumps(cfg)) == cfg
    p = Prefix.parse("/p00")
    assert pickle.loads(pickle.dumps(p)) == p
    n = Name.parse("/p00/o1")
    assert pickle.loads(pickle.dumps(n)) == n


def test_minimal_run_writes_csv_with_delay_rows(tmp_path):
    cfg = parse_config(TINY)
    names = run_experiment(cfg, tmp_path, config_text=TINY)
    assert names == sorted(cell_filename(s, "none", 20.0, 1) for s in ("dart", "ndn"))
    text = (tmp_path / names[0]).read_text()
    assert text.splitlines()[0] == "scheme,caching,rate,router,metric,value"
    assert "delay_mean_ms" in text and "table_size_mean" in text
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["cells"] == names
    assert manifest["config"] == TINY
    assert manifest["parameters"]["nodes"] == 2
    assert manifest["code_version"]


def test_grid_cardinality_matches_cross_product(tmp_path):
    text = TINY.replace("rates = 20", "rates = 10,20").replace("seeds = 1", "seeds = 1,2")
    cfg = parse_config(text)
    names = run_experiment(cfg, tmp_path, config_text=text)
    assert len(names) == 2 * 1 * 2 * 2
    assert len(set(names)) == len(names)


def test_rerun_is_byte_identical(tmp_path):
    cfg = parse_config(TINY)
    a, b = tmp_path / "a", tmp_path / "b"
    names = run_experiment(cfg, a, config_text=TINY)
    run_experiment(cfg, b, config_text=TINY)
    for n in names + ["manifest.json"]:
        assert filecmp.cmp(a / n, b / n, shallow=False), n


def test_worker_pool_produces_identical_output(tmp_path):
    cfg = parse_config(TINY)
    serial, pooled = tmp_path / "serial", tmp_path / "pooled"
    names = run_experiment(cfg, serial, config_text=TINY)
    run_experiment(parse_config(TINY + "workers = 2\n"), pooled, config_text=TINY)
    for n in names:
        assert filecmp.cmp(serial / n, pooled / n, shallow=False), n


def test_the_pool_is_never_larger_than_the_grid(tmp_path, monkeypatch, fresh_world):
    # a forked pool starts every worker up front, so 64 workers on a 2-cell
    # grid must ask for 2; the fake pool maps in this process
    import concurrent.futures
    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    serial, pooled = tmp_path / "serial", tmp_path / "pooled"
    names = run_experiment(parse_config(TINY), serial, config_text=TINY)
    run_experiment(parse_config(TINY + "workers = 64\n"), pooled, config_text=TINY)
    assert asked == [len(names)] == [2]
    for n in names:
        assert filecmp.cmp(serial / n, pooled / n, shallow=False), n
    # the pool size is not part of the world's key: both grids and a later
    # one-worker cell share one world
    fresh_world(parse_config(TINY))
    assert fresh_world.cache_info().misses == 1


def test_compare_summarises_and_flags_missing_cells(tmp_path):
    text = TINY.replace("rates = 20", "rates = 10,20")
    cfg = parse_config(text)
    run_experiment(cfg, tmp_path, config_text=text)
    lines, summary = compare_dir(tmp_path)
    assert summary["errors"] == []
    assert set(summary["groups"]) == {("none", 10.0), ("none", 20.0)}
    g = summary["groups"][("none", 20.0)]
    assert g["dart_state"] is not None and g["ndn_state"] is not None
    assert g["state_ratio"] == pytest.approx(g["ndn_state"] / g["dart_state"])
    assert summary["flatness"]["none"] is not None
    out = write_comparison_csv(tmp_path, summary)
    assert out.read_text().startswith("caching,rate,metric,value")

    # removing one scheme's cell must be reported, not dropped
    missing = cell_filename("ndn", "none", 10.0, 1)
    (tmp_path / missing).unlink()
    lines2, summary2 = compare_dir(tmp_path)
    assert summary2["errors"] == [f"missing {missing}"]
    assert any(line == f"error: missing {missing}" for line in lines2)


def test_compare_single_rate_reports_insufficient_flatness_data(tmp_path):
    cfg = parse_config(TINY)
    run_experiment(cfg, tmp_path, config_text=TINY)
    lines, summary = compare_dir(tmp_path)
    assert summary["flatness"]["none"] is None
    assert any("insufficient data" in l for l in lines)


def test_compare_empty_dir_is_an_error(tmp_path):
    with pytest.raises(ConfigError, match="no metrics"):
        compare_dir(tmp_path)


def test_compare_means_are_left_folds(tmp_path):
    # 1e16 + 1.0 rounds back to 1e16, so a left fold of these states is 0.0;
    # the compensated sum() of Python 3.12 and later gives a mean of 1/3.
    # A cell's own across-router mean is folded by the engine
    # (test_the_across_router_mean_is_a_left_fold).
    for seed, size in enumerate((1e16, 1.0, -1e16), 1):
        for scheme in ("dart", "ndn"):
            rows = [",".join(("scheme", "caching", "rate", "router", "metric", "value")),
                    f"{scheme},none,10,*,table_size_router_mean,{size!r}"]
            (tmp_path / cell_filename(scheme, "none", 10.0, seed)).write_text(
                "\n".join(rows) + "\n")
    lines, summary = compare_dir(tmp_path)
    assert summary["errors"] == []
    g = summary["groups"][("none", 10.0)]
    assert (g["dart_state"], g["ndn_state"]) == (0.0, 0.0)


# --- the static world shared by a process's cells ---------------------------------

WORLD = """\
nodes = 8
area = 30
radius = 14
link_delay_ms = 5
topology_seed = 3
producers = 2
caching = edge
rates = 20
seeds = 1
zipf_alpha = 0.7
catalog = 40
duration_s = 2
retry_timeout_s = 5
"""

# one changed value per field the world's builders read, and one for the
# Zipf table's memo; each changes the cell's CSV
WORLD_CHANGES = {"nodes": 9, "area": 32.0, "radius": 15.0, "link_delay_ms": 7.0,
                 "topology_seed": 4, "producers": 3, "catalog": 50, "zipf_alpha": 0.9}


def test_a_cell_after_a_cell_of_another_world_equals_a_cold_cell(tmp_path, fresh_world):
    base = parse_config(WORLD)
    cell = ("dart", "edge", 20.0, 1)
    name = run_cell(base, *cell, tmp_path)
    base_csv = (tmp_path / name).read_bytes()
    for key, value in WORLD_CHANGES.items():
        changed = replace(base, **{key: value})
        warm, cold = tmp_path / key / "warm", tmp_path / key / "cold"
        warm.mkdir(parents=True)
        cold.mkdir()
        run_cell(base, *cell, warm)
        run_cell(changed, *cell, warm)
        fresh_world.cache_clear()
        run_cell(changed, *cell, cold)
        got = (warm / name).read_bytes()
        assert got == (cold / name).read_bytes(), key
        assert got != base_csv, key


def test_equal_configs_share_one_world(fresh_world):
    # built apart, as the benchmark's two hot cells and a pool worker's
    # unpickled copy are: an equal config reuses the world, so a warm cell
    # never pays for a rebuild
    a = replace(ExperimentConfig(), duration_s=5.0)
    b = replace(ExperimentConfig(), duration_s=5.0)
    assert a is not b
    world = fresh_world(a)
    assert fresh_world(b) is world
    assert fresh_world(pickle.loads(pickle.dumps(a))) is world
    assert fresh_world(replace(a, duration_s=6.0)) is not world


def test_cells_leave_the_shared_world_as_it_was_built(fresh_world):
    cfg = parse_config(WORLD)
    for capacity, cells in ((0, (("dart", "edge"), ("ndn", "onpath"), ("ndn", "edge"))),
                            (5, (("dart", "onpath"),))):
        cap_cfg = replace(cfg, store_capacity=capacity)
        world = fresh_world(cap_cfg)
        for scheme, caching in cells:
            rep = simulate_cell(cap_cfg, scheme, caching, 20.0, 1)
            assert rep.delivered > 0
            assert (rep.store_evictions > 0) == (capacity > 0)
        assert fresh_world(cap_cfg) is world
        fresh_world.cache_clear()
        fresh = fresh_world(cap_cfg)
        assert fresh is not world
        assert world.topology.links == fresh.topology.links
        assert world.topology.anchors == fresh.topology.anchors
        assert ({r: fib.entries for r, fib in world.fibs.items()}
                == {r: fib.entries for r, fib in fresh.fibs.items()})
        assert world.catalog == fresh.catalog
        assert world.owned == fresh.owned
        assert world.anchored == fresh.anchored
        assert world.delays == fresh.delays
        # every anchor's names are the catalog's under its prefixes, in
        # catalog order, and refuse a write by type
        assert world.owned
        for r, held in world.owned.items():
            assert list(held) == [n for n in world.catalog
                                  if any(p.matches(n) for p in world.anchored[r])]
            with pytest.raises(TypeError):
                held[world.catalog[0]] = None


@pytest.mark.parametrize("scheme, caching", [("dart", "edge"), ("ndn", "onpath")])
def test_a_one_off_world_runs_as_the_shared_world(scheme, caching, tmp_path, fresh_world):
    # engine.run builds its own world from a list catalog; simulate_cell
    # reuses the process's memoised one
    cfg = replace(parse_config(WORLD), store_capacity=5)
    shared_trace, own_trace = tmp_path / "shared", tmp_path / "own"
    shared = simulate_cell(cfg, scheme, caching, 20.0, 1, str(shared_trace))
    topo = build_topology(cfg)
    own = run(topo, compute_fibs(topo), scheme, caching,
              WorkloadSpec(cfg.zipf_alpha, cfg.catalog, 20.0, cfg.duration_s, 1), cfg.audit,
              catalog=build_catalog(cfg, topo), trace_path=str(own_trace),
              dart_ttl_ms=cfg.dart_ttl_s * 1000.0,
              pit_lifetime_ms=cfg.pit_lifetime_s * 1000.0,
              retry_timeout_ms=cfg.retry_timeout_s * 1000.0, max_tries=cfg.max_tries,
              warmup_fraction=cfg.warmup_frac, sample_interval_ms=cfg.sample_interval_ms,
              sweep_interval_ms=cfg.sweep_interval_s * 1000.0, store_capacity=5)
    assert shared.delivered > 0 and shared.store_evictions > 0
    assert own.rows() == shared.rows()
    assert own_trace.read_bytes() == shared_trace.read_bytes()


def test_a_grid_builds_its_world_once_per_process(tmp_path, monkeypatch, fresh_world):
    calls = Counter()
    for name in ("compute_fibs", "build_catalog"):
        def counted(*args, real=getattr(experiment, name), name=name):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(experiment, name, counted)
    text = TINY.replace("seeds = 1", "seeds = 1,2")
    assert len(run_experiment(parse_config(text), tmp_path, config_text=text)) == 4
    assert calls == {"compute_fibs": 1, "build_catalog": 1}


# --- DART's size against its closed form -------------------------------------------

def _rank1_routes_through(topo, fibs):
    """{router: number of (origin router, prefix) rank-1 routes through it},
    each route followed from its origin to the prefix's anchor, which it
    does not count."""
    through = {r: 0 for r in topo.routers}
    for prefix, anchors in topo.anchors.items():
        for origin in topo.routers:
            hop = origin
            while hop not in anchors:
                through[hop] += 1
                hop = fibs[hop].entries[prefix][0].next_hop
    return through


@pytest.mark.parametrize("nodes, area", [(12, 40.0), (20, 50.0)])
@pytest.mark.parametrize("caching", ["none", "edge"])
@pytest.mark.parametrize("rate", [10.0, 50.0])
def test_dart_legs_peak_at_the_rank1_routes_through_each_router(nodes, area, caching, rate):
    # Unperturbed FIBs and a run short of the dart TTL, so no leg is evicted,
    # and every consumer asks under every prefix, so every route is taken.
    # A relay's edge cache can answer all of one origin's asks under a
    # prefix, and then the route's legs past it are never made: at rate 10
    # on 20 routers with the default zipf_alpha of 1.2, 8 legs were missing.
    # A flatter popularity spreads the asks over more names.
    cfg = parse_config(f"nodes = {nodes}\narea = {area}\nlink_delay_ms = 5\n"
                       "zipf_alpha = 0.7\ncatalog = 200\nduration_s = 5\n")
    topo = build_topology(cfg)
    prefixes = len(topo.anchors)
    spec = WorkloadSpec(cfg.zipf_alpha, cfg.catalog, rate, cfg.duration_s, 1)
    # catalog rank k is under the k mod P-th prefix
    consumers = [f"c.{r}" for r in topo.routers]
    asked = {(c, k % prefixes) for _, c, k in generate_workload(spec, consumers)}
    assert len(asked) == nodes * prefixes
    routes = _rank1_routes_through(topo, compute_fibs(topo))
    assert max(routes.values()) > nodes
    rep = simulate_cell(cfg, "dart", caching, rate, 1)
    assert rep.table_max["dart_legs"] == routes
