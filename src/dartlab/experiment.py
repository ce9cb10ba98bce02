"""Experiment harness: flat-file configs, grid runs, CSVs, comparisons.

A config describes one desk-scale study: a random geometric topology, a
set of producer routers anchoring slices of a Zipf-ranked catalog, and a
cross-product of (scheme, caching, rate, seed) cells.  Each cell simulates
independently and lands in its own CSV; a manifest records everything
needed to regenerate any of them bit-for-bit.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import random
from dataclasses import dataclass, fields, replace
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from . import __version__
from .engine import (
    MAX_TIMER_FIRINGS,
    MetricsReport,
    Scheme,
    World,
    WorkloadSpec,
    fold_sum,
    simulate,
)
from .model import CachingMode, Name, Prefix
from .routing import Topology, compute_fibs, generate_topology


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    nodes: int = 50
    area: float = 80.0
    radius: float = 17.0
    link_delay_ms: float = 230.0
    topology_seed: int = 1
    producers: int = 4            # 0 = every router anchors a prefix
    schemes: Tuple[str, ...] = ("dart", "ndn")
    caching: Tuple[str, ...] = ("edge", "onpath")
    rates: Tuple[float, ...] = (10.0, 50.0, 100.0, 200.0)
    seeds: Tuple[int, ...] = (1, 2, 3)
    zipf_alpha: float = 1.2
    catalog: int = 10_000
    duration_s: float = 60.0
    dart_ttl_s: float = 10.0
    # Lifetimes sized so nothing times out on the longest anchor round trip
    # (12 hops each way at the default delay); expiry then signals real loss.
    pit_lifetime_s: float = 8.0
    retry_timeout_s: float = 10.0
    max_tries: int = 3
    warmup_frac: float = 0.1
    sample_interval_ms: float = 100.0
    sweep_interval_s: float = 1.0
    audit: bool = True
    store_capacity: int = 0       # 0 = unbounded
    workers: int = 1

    def __post_init__(self):
        # comparisons are written so that NaN fails them too
        def need(ok: bool, key: str, rule: str):
            if not ok:
                raise ConfigError(f"{key} must be {rule}, got {getattr(self, key)}")

        need(self.nodes >= 1, "nodes", ">= 1")
        need(0 < self.area < math.inf, "area", "> 0 and finite")
        need(0 <= self.radius < math.inf, "radius", ">= 0 and finite")
        need(0 <= self.producers <= self.nodes, "producers", ">= 0 and <= nodes")
        for key in ("dart_ttl_s", "pit_lifetime_s", "sample_interval_ms", "sweep_interval_s"):
            need(getattr(self, key) > 0, key, "> 0")
        # an infinite duration or rate never runs out of requests, over an
        # infinite link delay no packet ever arrives, and an infinite retry
        # timer fires after the run's end
        need(0 < self.duration_s < math.inf, "duration_s", "> 0 and finite")
        need(0 < self.retry_timeout_s < math.inf, "retry_timeout_s", "> 0 and finite")
        need(0 < self.link_delay_ms < math.inf, "link_delay_ms", "> 0 and finite")
        need(all(0 < r < math.inf for r in self.rates), "rates", "> 0 and finite")
        # the engine's cap on a stream's requests: a larger one never ends
        need(all(r * self.duration_s <= MAX_TIMER_FIRINGS for r in self.rates), "rates",
             f"<= {MAX_TIMER_FIRINGS} / duration_s")
        need(self.catalog >= 1, "catalog", ">= 1")
        # the engine's cap on a request's sends: a retry too short to move the
        # clock re-arms at the same instant, and only max_tries ends it
        need(1 <= self.max_tries <= MAX_TIMER_FIRINGS, "max_tries",
             f">= 1 and <= {MAX_TIMER_FIRINGS}")
        need(math.isfinite(self.zipf_alpha) and self.zipf_alpha >= 0, "zipf_alpha",
             "finite and >= 0")
        need(0 <= self.warmup_frac < 1, "warmup_frac", "in [0, 1)")
        need(self.store_capacity >= 0, "store_capacity", ">= 0")
        need(self.workers >= 1, "workers", ">= 1")
        # the engine's first-sample test: a cell that takes no sample reports
        # every table size as 0
        horizon_ms = self.duration_s * 1000.0
        need(horizon_ms * self.warmup_frac + self.sample_interval_ms <= horizon_ms,
             "sample_interval_ms", "<= duration_s * 1000 * (1 - warmup_frac)")
        # the engine's cap on timer firings: a shorter period hangs the run
        need(horizon_ms <= MAX_TIMER_FIRINGS * self.sample_interval_ms,
             "sample_interval_ms", f">= duration_s * 1000 / {MAX_TIMER_FIRINGS}")
        need(self.duration_s <= MAX_TIMER_FIRINGS * self.sweep_interval_s,
             "sweep_interval_s", f">= duration_s / {MAX_TIMER_FIRINGS}")
        for key in ("schemes", "caching", "rates", "seeds"):
            need(0 < len(set(getattr(self, key))) == len(getattr(self, key)), key,
                 "non-empty and free of duplicates")
        for key, kind, what in (("schemes", Scheme, "scheme"),
                                ("caching", CachingMode, "caching mode")):
            known = {m.value for m in kind}
            for value in getattr(self, key):
                if value not in known:
                    raise ConfigError(f"unknown {what} {value!r}")

    def cells(self) -> List[Tuple[str, str, float, int]]:
        return [(sch, ca, rate, seed)
                for sch in self.schemes for ca in self.caching
                for rate in self.rates for seed in self.seeds]


def _parse_value(default, value: str):
    """``value`` read as the type of the field's ``default``: a tuple is a
    comma list of its first item's type, a bool is on/off."""
    if isinstance(default, tuple):
        kind = type(default[0])
        return tuple(kind(v.strip()) for v in value.split(",") if v.strip())
    if isinstance(default, bool):
        if value not in ("on", "off", "true", "false"):
            raise ValueError("expected on/off")
        return value in ("on", "true")
    return type(default)(value)


def parse_config(text: str) -> ExperimentConfig:
    text = text.removeprefix("\ufeff")  # a byte-order mark some editors save
    base = ExperimentConfig()
    keys = {f.name for f in fields(base)}
    values, set_on = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not eq or not value:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        if key not in keys:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in set_on:
            raise ConfigError(f"line {lineno}: key {key!r} already set on line {set_on[key]}")
        set_on[key] = lineno
        try:
            values[key] = _parse_value(getattr(base, key), value)
        except ValueError as e:
            raise ConfigError(f"line {lineno}: bad value for {key}: {e}") from None
    return replace(base, **values)


def build_topology(cfg: ExperimentConfig) -> Topology:
    topo = generate_topology(cfg.nodes, cfg.area, cfg.radius, cfg.link_delay_ms,
                             seed=cfg.topology_seed)
    rng = random.Random(f"producers:{cfg.topology_seed}")
    chosen = sorted(rng.sample(sorted(topo.routers), cfg.producers or cfg.nodes))
    anchors = {Prefix((f"p{i:02d}",)): (r,) for i, r in enumerate(chosen)}
    return topo.with_anchors(anchors)


def build_catalog(cfg: ExperimentConfig, topology: Topology) -> List[Name]:
    """Popularity rank k maps to producer prefix k mod P, so hot objects are
    spread across producers instead of piling onto one anchor."""
    prefixes = sorted(topology.anchors)
    return [Name((*prefixes[k % len(prefixes)], f"o{k:05d}")) for k in range(cfg.catalog)]


def cell_stem(scheme: str, caching: str, rate: float, seed: int) -> str:
    """A cell's name in its CSV's and its trace's file names; an integral
    rate is written as an int, any other by its repr, so no two rates share it."""
    r = int(rate) if float(rate).is_integer() else rate
    return f"{scheme}_{caching}_r{r}_s{seed}"


def cell_filename(scheme: str, caching: str, rate: float, seed: int) -> str:
    return f"metrics_{cell_stem(scheme, caching, rate, seed)}.csv"


CSV_HEADER = ("scheme", "caching", "rate", "router", "metric", "value")


def _fmt(v) -> str:
    return repr(v) if isinstance(v, float) else str(v)


def write_rows(path: Path, rows) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_HEADER)
        for (scheme, caching, rate, router, metric, value) in rows:
            w.writerow((scheme, caching, _fmt(rate), router, metric, _fmt(value)))
    os.replace(tmp, path)


@lru_cache(maxsize=1)
def build_world(cfg: ExperimentConfig) -> World:
    """The config's static world: topology, FIBs and catalog.  Memoised on
    the config, one world at a time: a process builds it for its first
    cell, and every later cell of an equal config reuses it."""
    topo = build_topology(cfg)
    return World.build(topo, compute_fibs(topo), build_catalog(cfg, topo))


def simulate_cell(cfg: ExperimentConfig, scheme: str, caching: str, rate: float,
                  seed: int, trace_path: Optional[str] = None) -> MetricsReport:
    """Simulate one cell of the config's grid in the config's world; the
    one place a config's fields become engine arguments."""
    world = build_world(cfg)
    wl = WorkloadSpec(cfg.zipf_alpha, cfg.catalog, rate, cfg.duration_s, seed)
    return simulate(world, scheme, caching, wl, cfg.audit, trace_path=trace_path,
                    dart_ttl_ms=cfg.dart_ttl_s * 1000.0,
                    pit_lifetime_ms=cfg.pit_lifetime_s * 1000.0,
                    retry_timeout_ms=cfg.retry_timeout_s * 1000.0,
                    max_tries=cfg.max_tries, warmup_fraction=cfg.warmup_frac,
                    sample_interval_ms=cfg.sample_interval_ms,
                    sweep_interval_ms=cfg.sweep_interval_s * 1000.0,
                    store_capacity=cfg.store_capacity or None)


def run_cell(cfg: ExperimentConfig, scheme: str, caching: str, rate: float,
             seed: int, out_dir, trace_path: Optional[str] = None) -> str:
    rep = simulate_cell(cfg, scheme, caching, rate, seed, trace_path)
    name = cell_filename(scheme, caching, rate, seed)
    write_rows(Path(out_dir) / name, rep.rows())
    return name


def run_experiment(cfg: ExperimentConfig, out_dir, config_text: str = "",
                   trace_template: Optional[str] = None) -> List[str]:
    """Run every cell in the config's cross-product; returns CSV names."""
    # cells get workers = 1: the pool size shapes no output, nor the world's memo key
    cell_cfg = replace(cfg, workers=1)
    build_world(cell_cfg)  # first: a world that fails writes nothing; forked workers inherit it
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tasks = []
    for cell in cfg.cells():
        trace = f"{trace_template}.{cell_stem(*cell)}" if trace_template else None
        tasks.append((cell_cfg, *cell, str(out), trace))
    if cfg.workers > 1:
        # imported here: a one-worker run never loads the pool's machinery
        from concurrent.futures import ProcessPoolExecutor
        # fork starts every worker up front: no more of them than cells
        with ProcessPoolExecutor(max_workers=min(cfg.workers, len(tasks))) as pool:
            names = list(pool.map(run_cell, *zip(*tasks)))
    else:
        names = [run_cell(*t) for t in tasks]

    manifest = {
        "code_version": __version__,
        "config": config_text,
        "config_sha256": hashlib.sha256(config_text.encode()).hexdigest(),
        "parameters": {f.name: getattr(cfg, f.name) for f in fields(cfg)},
        "cells": sorted(names),
    }
    tmp = out / "manifest.json.tmp"
    tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True, default=list) + "\n")
    os.replace(tmp, out / "manifest.json")
    return sorted(names)


# --- comparison ----------------------------------------------------------------

def _read_cell(path: Path) -> Dict:
    """A cell's state as its run reported it (``*,table_size_router_mean``),
    its summed Interests and its delay.  A row whose value does not parse is an error."""
    state = None
    interests = 0
    delay_mean = None
    try:
        # decoded whole, so an error gives the byte's offset in the file,
        # byte-order mark included ("utf-8-sig" would count after it)
        text = path.read_bytes().decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path.name}: {e}") from None
    reader = csv.DictReader(io.StringIO(text, newline=""))
    if reader.fieldnames != list(CSV_HEADER):
        raise ConfigError(f"{path.name}: unexpected CSV header {reader.fieldnames}")
    for row in reader:
        metric, router = row["metric"], row["router"]
        try:
            value = float(row["value"])
            if router == "*":
                if metric == "table_size_router_mean":
                    state = value
                elif metric == "delay_mean_ms":
                    delay_mean = value
            elif metric == "interests_received":
                interests += int(value)
        except (TypeError, ValueError, OverflowError):
            # a short row reads its missing fields as None, and an
            # infinite count has no int
            raise ConfigError(f"{path.name}: line {reader.line_num}: "
                              f"bad value {row['value']!r}") from None
    if state is None:
        raise ConfigError(f"{path.name}: no table_size_router_mean row")
    return {
        "state": state,
        "interests": interests,
        "delay_mean_ms": delay_mean,
    }


# DART state counts as flat across rates when its max/min stays within this
FLATNESS_THRESHOLD = 2.0


def compare_dir(dir_path):
    """Cross-scheme summary per (caching, rate): mean state size, interest
    counts, delays, and the DART-stays-flat check across rates.

    Returns (lines, summary).  Missing counterpart cells are reported in
    summary["errors"]; two files that name one cell, or a file that the
    directory's ``manifest.json`` does not list, are refused — never
    silently dropped.
    """
    d = Path(dir_path)
    cells, files = {}, {}
    for p in sorted(d.glob("metrics_*.csv")):
        stem = p.stem[len("metrics_"):]
        try:
            scheme, caching, r_part, s_part = stem.rsplit("_", 3)
            rate = float(r_part.lstrip("r"))
            seed = int(s_part.lstrip("s"))
        except ValueError:
            raise ConfigError(f"unrecognised metrics file name: {p.name}")
        key = (scheme, caching, rate, seed)
        if key in files:  # e.g. r10 and r10.0: neither may replace the other
            raise ConfigError(f"{files[key]} and {p.name} name one cell")
        files[key] = p.name
        cells[key] = _read_cell(p)
    manifest = d / "manifest.json"
    if manifest.exists():  # a rerun rewrites it, but leaves its other cells' CSVs
        try:
            listed = set(json.loads(manifest.read_bytes().decode("utf-8"))["cells"])
        except (OSError, ValueError, LookupError, TypeError) as e:
            raise ConfigError(f"{manifest.name}: {type(e).__name__}: {e}") from None
        for name in files.values():
            if name not in listed:
                raise ConfigError(f"{name} is not a cell of {manifest.name}")
    if not cells:
        raise ConfigError(f"no metrics_*.csv files in {d}")

    errors = []
    keys = sorted({(ca, rate, seed) for (_, ca, rate, seed) in cells})
    for (ca, rate, seed) in keys:
        for scheme in ("dart", "ndn"):
            if (scheme, ca, rate, seed) not in cells:
                errors.append(f"missing {cell_filename(scheme, ca, rate, seed)}")

    groups = {}
    for (scheme, ca, rate, seed), data in cells.items():
        groups.setdefault((ca, rate), {}).setdefault(scheme, []).append(data)

    lines = [f"{'caching':8} {'rate':>6}  {'dart state':>10} {'ndn state':>10} "
             f"{'ndn/dart':>8}  {'dart ints':>10} {'ndn ints':>10}  "
             f"{'dart ms':>8} {'ndn ms':>8}"]
    summary = {"groups": {}, "errors": errors, "flatness": {}}

    def mean(xs):
        xs = [x for x in xs if x is not None]
        return fold_sum(xs) / len(xs) if xs else None

    for (ca, rate) in sorted(groups):
        g = groups[(ca, rate)]
        row = {}
        for scheme in ("dart", "ndn"):
            runs = g.get(scheme, [])
            row[f"{scheme}_state"] = mean([r["state"] for r in runs])
            row[f"{scheme}_interests"] = mean([r["interests"] for r in runs])
            row[f"{scheme}_delay_ms"] = mean([r["delay_mean_ms"] for r in runs])
        if row["dart_state"] and row["ndn_state"] is not None:
            row["state_ratio"] = row["ndn_state"] / row["dart_state"]
        else:
            row["state_ratio"] = None
        summary["groups"][(ca, rate)] = row

        def f(v, spec="{:.2f}"):
            return "-" if v is None else spec.format(v)

        lines.append(f"{ca:8} {rate:>6g}  {f(row['dart_state']):>10} "
                     f"{f(row['ndn_state']):>10} {f(row['state_ratio']):>8}  "
                     f"{f(row['dart_interests'], '{:.0f}'):>10} "
                     f"{f(row['ndn_interests'], '{:.0f}'):>10}  "
                     f"{f(row['dart_delay_ms']):>8} {f(row['ndn_delay_ms']):>8}")

    for ca in sorted({ca for (ca, _) in groups}):
        darts = [summary["groups"][(c, r)]["dart_state"]
                 for (c, r) in summary["groups"] if c == ca]
        darts = [v for v in darts if v is not None]
        if len(darts) < 2:
            summary["flatness"][ca] = None
            lines.append(f"flatness[{ca}]: insufficient data (single rate)")
        else:
            spread = max(darts) / min(darts) if min(darts) > 0 else float("inf")
            flat = spread <= FLATNESS_THRESHOLD
            summary["flatness"][ca] = spread
            lines.append(f"flatness[{ca}]: dart state max/min across rates = "
                         f"{spread:.2f} ({'flat' if flat else 'NOT flat'} at "
                         f"threshold {FLATNESS_THRESHOLD:g})")
    for e in errors:
        lines.append(f"error: {e}")
    return lines, summary


def write_comparison_csv(dir_path, summary) -> Path:
    """Tidy (caching, rate, metric, value) rows — one file gnuplot can plot
    straight from ``using`` column selections."""
    out = Path(dir_path) / "comparison.csv"
    tmp = out.with_name(out.name + ".tmp")
    with open(tmp, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(("caching", "rate", "metric", "value"))
        for (ca, rate) in sorted(summary["groups"]):
            row = summary["groups"][(ca, rate)]
            for metric in sorted(row):
                if row[metric] is not None:
                    w.writerow((ca, _fmt(rate), metric, _fmt(row[metric])))
    os.replace(tmp, out)
    return out
