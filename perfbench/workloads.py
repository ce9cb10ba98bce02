"""The workloads, the loop probe and the output digests.

A workload is built for one input variant (``seed % VARIANTS``) and runs
in units: one hot cell or a pair of them, one CLI grid plus compare, or one
sweep of small networks.  ``Workload.run`` executes one unit through
dartlab's public entry points and returns what it cost and what it
produced.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import pickle
import shutil
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional

from . import stale

VARIANTS = 32
RECORD = Path(__file__).with_name("digests.json")

HOT_RATE = 200.0
# Inputs are sized so that one unit takes about 2 s on a 2-vCPU host: a run
# then holds a dozen or more units, and their median rides out the
# seconds-long slow phases of a shared host.
HOT_DURATION_S = 5.0
GRID_DURATION_S = 20
SWEEP_NETWORKS = 1500


# --- digests -------------------------------------------------------------------

def _fmt(v) -> str:
    return repr(v) if isinstance(v, float) else str(v)


def rows_digest(rows) -> str:
    """SHA-256 of MetricsReport rows, formatted as the CSV writer formats them."""
    h = hashlib.sha256()
    for row in rows:
        h.update((",".join(_fmt(v) for v in row) + "\n").encode())
    return h.hexdigest()


def files_digest(paths, extra_lines=()) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.name.encode() + b"\0" + p.read_bytes() + b"\0")
    for line in extra_lines:
        h.update(line.encode() + b"\n")
    return h.hexdigest()


def cell_counts(paths) -> Dict[str, int]:
    """Simulated totals the checks and ratios need, summed over cell CSVs:
    requests, failures (nacked + abandoned), the loop refusals of DART
    cells and the Interests aggregated by NDN cells."""
    out = dict.fromkeys(("requests", "failures", "loop_refusals", "ndn_aggregated"), 0)
    for path in paths:
        with open(path, newline="") as fh:
            rows = [row for row in csv.DictReader(fh) if row["router"] == "*"]
        totals = {row["metric"]: int(float(row["value"])) for row in rows}
        out["requests"] += totals["requests"]
        out["failures"] += totals["nacked"] + totals["abandoned"]
        if rows[0]["scheme"] == "dart":
            out["loop_refusals"] += totals["loop_nacks"]
        else:
            out["ndn_aggregated"] += totals["aggregated"]
    return out


def load_record() -> dict:
    return json.loads(RECORD.read_text()) if RECORD.is_file() else {}


# --- loop probe ------------------------------------------------------------------

class SetupDone(Exception):
    """Raised in place of the event loop when only set-up is measured."""

    def __init__(self, start: float):
        super().__init__("set-up finished")
        self.start = start


@dataclass
class Loop:
    start: float      # perf_counter when the first event was about to run
    seconds: float    # host seconds inside the event loop
    events: int       # events dispatched (every pushed event is popped)
    nonces: int       # NDN nonce entries held by all routers at the end


class LoopProbe:
    """Wraps ``engine._Simulation.run``, the event-loop entry point that
    ``scenarios.py`` also drives, to time each loop apart from its set-up.
    Only loops that run in this process are seen."""

    def __init__(self):
        self.loops: List[Loop] = []
        self.stop_before_loop = False

    def wrap(self, run):
        probe = self

        def probed_run(sim):
            start = time.perf_counter()
            if probe.stop_before_loop:
                raise SetupDone(start)
            report = run(sim)
            seconds = time.perf_counter() - start
            nonces = sum(len(getattr(r, "seen_nonces", ())) for r in sim.routers.values())
            probe.loops.append(Loop(start, seconds, sim._seq, nonces))
            return report

        return probed_run


# --- workloads -----------------------------------------------------------------

@dataclass
class Unit:
    wall_s: float
    digest: str
    requests: int
    failures: int                   # simulated requests nacked or abandoned
    ops: int                        # operations attempted in this unit
    loops: List[Loop]               # event loops seen in this process
    setup_s: Optional[float] = None
    loop_s: Optional[float] = None  # None when the loops ran in worker processes
    # from the program's own totals: loop nacks sent by DART routers and
    # Interests aggregated by NDN routers
    loop_refusals: int = 0
    ndn_aggregated: int = 0
    delivered: int = 0              # checked on stale-sweep only
    errors: List[str] = field(default_factory=list)
    events: Optional[int] = field(init=False)   # None when no loop ran here

    def __post_init__(self):
        self.events = sum(l.events for l in self.loops) if self.loops else None


class Workload:
    name = ""
    setup_samples = 0   # set-up-only samples after each unit

    def __init__(self, modules, variant: int, workdir: Path):
        self.m = modules
        self.variant = variant
        self.workdir = workdir

    def run(self, probe: LoopProbe, traced: bool) -> Unit:
        raise NotImplementedError

    def sample_setup(self, probe: LoopProbe, k: int) -> float:
        raise NotImplementedError

    def workload_specs(self):
        """(WorkloadSpec, consumer ids) pairs this workload simulates."""
        return []

    def _setup_only(self, probe: LoopProbe, cfg, cell, out: Path) -> float:
        """Host seconds from ``run_cell`` entry to the first simulated event."""
        out.mkdir(parents=True, exist_ok=True)
        probe.stop_before_loop = True
        t0 = time.perf_counter()
        try:
            self.m["experiment"].run_cell(cfg, *cell, str(out))
        except SetupDone as done:
            return done.start - t0
        finally:
            probe.stop_before_loop = False
        raise RuntimeError("run_cell finished without entering the event loop")

    def _consumers(self, cfg):
        topo = self.m["experiment"].build_topology(cfg)
        return sorted(f"c.{r}" for r in topo.routers)


class HotCell(Workload):
    """One default-topology cell at the top rate, through ``run_cell``."""

    setup_samples = 1

    def __init__(self, modules, variant, workdir, scheme, caching):
        super().__init__(modules, variant, workdir)
        exp = modules["experiment"]
        self.cfg = replace(exp.ExperimentConfig(), duration_s=HOT_DURATION_S)
        self.cell = (scheme, caching, HOT_RATE, variant)

    def sample_setup(self, probe, k):
        return self._setup_only(probe, self.cfg, self.cell, self.workdir / "setup")

    def run(self, probe, traced):
        out = self.workdir / "cell"
        out.mkdir(parents=True, exist_ok=True)
        first = len(probe.loops)
        t0 = time.perf_counter()
        name = self.m["experiment"].run_cell(self.cfg, *self.cell, str(out))
        wall = time.perf_counter() - t0
        loops = probe.loops[first:]
        path = out / name
        c = cell_counts([path])
        unit = Unit(wall, files_digest([path]), c["requests"], c["failures"], 1, loops,
                    loop_refusals=c["loop_refusals"], ndn_aggregated=c["ndn_aggregated"])
        if len(loops) == 1:
            unit.setup_s = loops[0].start - t0
            unit.loop_s = loops[0].seconds
        else:
            unit.errors.append(f"expected one event loop, saw {len(loops)}")
        return unit

    def workload_specs(self):
        cfg = self.cfg
        spec = self.m["engine"].WorkloadSpec(cfg.zipf_alpha, cfg.catalog, HOT_RATE,
                                             cfg.duration_s, self.variant)
        return [(spec, self._consumers(cfg))]


class DartEdgeHot(HotCell):
    name = "dart-edge-hot"

    def __init__(self, modules, variant, workdir):
        super().__init__(modules, variant, workdir, "dart", "edge")


class NdnOnpathHot(HotCell):
    name = "ndn-onpath-hot"

    def __init__(self, modules, variant, workdir):
        super().__init__(modules, variant, workdir, "ndn", "onpath")


class HotPair(Workload):
    """``dart-edge-hot`` then ``ndn-onpath-hot``: one unit runs both cells on
    the same request stream, and its times and counts are the sums of the
    two cells'."""

    name = "hot-pair"
    setup_samples = 1

    def __init__(self, modules, variant, workdir):
        super().__init__(modules, variant, workdir)
        self.cells = (DartEdgeHot(modules, variant, workdir),
                      NdnOnpathHot(modules, variant, workdir))

    def sample_setup(self, probe, k):
        return sum(c.sample_setup(probe, k) for c in self.cells)

    def run(self, probe, traced):
        parts = [c.run(probe, traced) for c in self.cells]
        h = hashlib.sha256()
        for u in parts:
            h.update(u.digest.encode())

        def total(key):
            values = [getattr(u, key) for u in parts]
            return None if None in values else sum(values)

        return Unit(total("wall_s"), h.hexdigest(), total("requests"), total("failures"),
                    total("ops"), [l for u in parts for l in u.loops],
                    setup_s=total("setup_s"), loop_s=total("loop_s"),
                    loop_refusals=total("loop_refusals"),
                    ndn_aggregated=total("ndn_aggregated"),
                    errors=[e for u in parts for e in u.errors])

    def workload_specs(self):
        return self.cells[0].workload_specs()   # both cells share the stream


class GridLight(Workload):
    """``dartlab run`` then ``dartlab compare`` on an 8-cell light grid."""

    name = "grid-light"
    setup_samples = 1
    workers = 2

    def __init__(self, modules, variant, workdir):
        super().__init__(modules, variant, workdir)
        self.config_text = ("schemes = dart, ndn\ncaching = edge, onpath\nrates = 10\n"
                            f"duration_s = {GRID_DURATION_S}\n"
                            f"seeds = {2 * variant + 1}, {2 * variant + 2}\n")
        self.cfg = modules["experiment"].parse_config(self.config_text)

    def sample_setup(self, probe, k):
        cells = self.cfg.cells()
        return self._setup_only(probe, self.cfg, cells[k % len(cells)], self.workdir / "setup")

    def run(self, probe, traced):
        """Traced runs use one worker so that every span is in this process."""
        cli = self.m["cli"]
        workers = 1 if traced else self.workers
        self.workdir.mkdir(parents=True, exist_ok=True)
        cfg_path = self.workdir / "grid.cfg"
        cfg_path.write_text(self.config_text)
        out = self.workdir / "grid"
        shutil.rmtree(out, ignore_errors=True)
        first = len(probe.loops)
        printed = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(printed):
            rc_run = cli.main(["run", str(cfg_path), "--out", str(out),
                               "--workers", str(workers)])
            mark = printed.tell()
            rc_compare = cli.main(["compare", str(out)])
        wall = time.perf_counter() - t0
        loops = probe.loops[first:]
        cells = sorted(out.glob("metrics_*.csv"))
        summary = [line for line in printed.getvalue()[mark:].splitlines()
                   if not line.startswith("wrote ")]
        comparison = out / "comparison.csv"
        digest = files_digest(cells + ([comparison] if comparison.is_file() else []), summary)
        c = cell_counts(cells)
        unit = Unit(wall, digest, c["requests"], c["failures"], 2, loops,
                    loop_refusals=c["loop_refusals"], ndn_aggregated=c["ndn_aggregated"])
        if rc_run != 0 or rc_compare != 0:
            unit.errors.append(f"exit codes: run {rc_run}, compare {rc_compare}")
        if len(cells) != len(self.cfg.cells()):
            unit.errors.append(f"expected {len(self.cfg.cells())} cell CSVs, got {len(cells)}")
        if loops and len(loops) == len(cells):
            unit.loop_s = sum(l.seconds for l in loops)
        return unit

    def workload_specs(self):
        cfg, engine = self.cfg, self.m["engine"]
        consumers = self._consumers(cfg)
        return [(engine.WorkloadSpec(cfg.zipf_alpha, cfg.catalog, rate, cfg.duration_s, seed),
                 consumers)
                for rate in cfg.rates for seed in cfg.seeds]


class StaleSweep(Workload):
    """Thousands of small networks with inconsistent FIBs under DART.  A
    unit's wall_s and setup_s add up only the program's part: building each
    network from its plan with the routing functions, and simulating it."""

    name = "stale-sweep"

    def __init__(self, modules, variant, workdir):
        super().__init__(modules, variant, workdir)
        # Planned once, before anything is measured or traced, and held
        # pickled: about 2 MB, where the plan objects would add about 18 MB
        # to the peak RSS that the run reports.
        self.plans = [pickle.dumps(stale.plan(modules, variant, i), pickle.HIGHEST_PROTOCOL)
                      for i in range(SWEEP_NETWORKS)]

    def run(self, probe, traced):
        AuditError = self.m["engine"].AuditError
        first = len(probe.loops)
        reports, errors = [], []
        wall = setup = 0.0
        for i, blob in enumerate(self.plans):
            p = pickle.loads(blob)
            started = time.perf_counter()
            net = stale.build(self.m, p)
            try:
                reports.append(stale.simulate(self.m, net))
            except AuditError as e:
                errors.append(f"network {i}: {e.kind} at {e.router}")
                continue
            finally:
                wall += time.perf_counter() - started
            setup += probe.loops[-1].start - started
        loops = probe.loops[first:]
        h = hashlib.sha256()
        for rep in reports:
            h.update(rows_digest(rep.rows()).encode())
        unit = Unit(wall, h.hexdigest(), sum(r.requests for r in reports),
                    sum(r.nacked + r.abandoned for r in reports), SWEEP_NETWORKS, loops,
                    setup_s=setup, loop_s=sum(l.seconds for l in loops),
                    loop_refusals=sum(r.loop_nacks for r in reports),
                    delivered=sum(r.delivered for r in reports), errors=errors)
        if unit.delivered == 0:
            unit.errors.append("no request was delivered")
        if unit.loop_refusals == 0:
            unit.errors.append("no loop refusal happened")
        return unit


WORKLOADS = {w.name: w for w in (DartEdgeHot, NdnOnpathHot, HotPair, GridLight, StaleSweep)}
