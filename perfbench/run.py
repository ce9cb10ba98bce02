"""Run one dartlab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload once untraced and then with a span around every wrapped program
function, and prints the per-layer metrics and the tracing overhead.
Either way each unit's outputs are checked against the digests recorded in
``perfbench/digests.json``.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Exit status: 0 when the
outputs are correct, 1 when they are not, 2 when the benchmark cannot run.
``--workload all`` runs every workload untraced and traced, one process
each, and exits 1 if any of them did.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import layers, program, tracer                       # noqa: E402
from perfbench.workloads import VARIANTS, WORKLOADS, LoopProbe, load_record  # noqa: E402

MIN_UNITS = 3          # untraced units per run, however short --seconds is
MIN_TRACED_UNITS = 2   # traced units, so call counts can be compared
GENERATOR_DRAINS = 3

END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("events_per_s", "1/s", "higher"),
    ("requests_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)


class Checker:
    """Compares every unit with the recorded outputs of its variant and
    with the other units of this run."""

    def __init__(self, expected: Optional[dict]):
        self.expected = expected
        self.problems = []
        self.notes = []
        self.first = None
        self.attempted = 0
        self.failed = 0
        if expected is None:
            self.problems.append("no recorded outputs for this workload and variant")

    def unit(self, label: str, u):
        bad = list(u.errors)
        exp = self.expected
        if exp is not None:
            for key, got in (("digest", u.digest), ("requests", u.requests),
                             ("failures", u.failures)):
                if got != exp[key]:
                    bad.append(f"{key} {got!r} differs from the recorded {exp[key]!r}")
            if u.events is not None and u.events != exp["events"]:
                note = (f"{label}: {u.events} events dispatched, {exp['events']} recorded; "
                        "events_per_s uses the recorded count")
                if note not in self.notes:
                    self.notes.append(note)
        if self.first is None:
            self.first = u
        else:
            for key in ("digest", "requests", "failures", "events"):
                a, b = getattr(self.first, key), getattr(u, key)
                if a is not None and b is not None and a != b:
                    bad.append(f"{key} differs between units of one run: {a!r} vs {b!r}")
        self.attempted += u.ops
        if bad:
            self.failed += u.ops
            self.problems += [f"{label}: {b}" for b in bad]

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


def peak_rss_mb(workers: int) -> float:
    """Peak RSS of this process, plus ``workers`` times the largest peak of
    any finished child (an upper bound for a pool: shared pages count once
    per process)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if workers else 0
    return (own + workers * child) / 1024.0


def repeat(seconds: float, minimum: int):
    """Yields 0, 1, 2, ... for as long as one more pass, taking the median
    host time of the passes so far, still ends within ``seconds``; at least
    ``minimum`` times.  Each pass starts after a full garbage collection, so
    no pass pays for the cyclic garbage of the one before."""
    t_start = time.perf_counter()
    took = []
    while len(took) < minimum or (time.perf_counter() - t_start
                                  + statistics.median(took) <= seconds):
        gc.collect()
        t0 = time.perf_counter()
        yield len(took)
        took.append(time.perf_counter() - t0)


def run_untraced(w, seconds: float, check: Checker) -> dict:
    """Units for ``seconds``, each followed by the workload's set-up-only
    samples, so that the samples spread over the run as the units do."""
    probe = LoopProbe()
    events = check.expected["events"] if check.expected else None
    with tracer.Patches() as p:
        p.attribute(w.m["engine"]._Simulation, "run", probe.wrap)
        units, setups = [], []
        for i in repeat(seconds, MIN_UNITS):
            u = w.run(probe, traced=False)
            check.unit(f"unit {i + 1}", u)
            # Held for every unit, the loop records (1500 per sweep) would
            # make the peak RSS grow with the number of units a run fits.
            u.loops = []
            probe.loops.clear()
            units.append(u)
            if i == 0:
                # Read before any sample: a sample builds a cell in this
                # process, which ``dartlab run`` with a pool never does in
                # its parent.  Every unit has the same input, so the first
                # unit's peak stands for all of them.
                peak = peak_rss_mb(getattr(w, "workers", 0))
                if w.setup_samples:
                    w.sample_setup(probe, 0)   # warm-up, not counted
            for k in range(w.setup_samples):
                gc.collect()
                setups.append(w.sample_setup(probe, i * w.setup_samples + k))
        setups += [u.setup_s for u in units if u.setup_s is not None]
    busy = [u.loop_s if u.loop_s is not None else u.wall_s for u in units]
    return {
        "wall_s": statistics.median(u.wall_s for u in units),
        "setup_s": statistics.median(setups),
        "events_per_s": statistics.median((events or 0) / b for b in busy),
        "requests_per_s": statistics.median(u.requests / b for u, b in zip(units, busy)),
        "peak_rss_mb": peak,
        "_units": len(units),
        "_setups": len(setups),
        "_fail_ratio": units[0].failures / max(1, units[0].requests),
    }


def _drain_rate(w) -> tuple:
    engine = w.m["engine"]
    specs = w.workload_specs()
    if not specs:
        return 0, 0.0
    rates = []
    for _ in range(GENERATOR_DRAINS):
        items = 0
        t0 = time.perf_counter()
        for spec, consumers in specs:
            for _ in engine.generate_workload(spec, consumers):
                items += 1
        rates.append(items / (time.perf_counter() - t0))
    return items, statistics.median(rates)


def run_traced(w, seconds: float, check: Checker) -> dict:
    probe = LoopProbe()
    with tracer.Patches() as p:
        p.attribute(w.m["engine"]._Simulation, "run", probe.wrap)
        base = w.run(probe, traced=True)
    check.unit("untraced unit", base)
    overhead = tracer.calibrate()

    t = tracer.Tracer()
    counts = dict.fromkeys(layers.COUNTERS, 0)
    per_unit = []
    with tracer.Patches() as p:
        layers.install(w.m, t, counts, p, extra={"engine.loop": probe.wrap})
        for i in repeat(seconds, MIN_TRACED_UNITS):
            t.reset()
            for k in counts:
                counts[k] = 0
            u = w.run(probe, traced=True)
            check.unit(f"traced unit {i + 1}", u)
            per_unit.append({
                "wall_s": u.wall_s,
                "calls": {n: s.calls for n, s in t.stats.items()},
                "self_s": {n: t.self_seconds(n, overhead) for n in t.stats},
                "counts": dict(counts, loop_refusals=u.loop_refusals,
                               ndn_aggregated=u.ndn_aggregated),
                "events": u.events or 0,
                "nonces": max((l.nonces for l in u.loops), default=0),
                "fail_ratio": u.failures / max(1, u.requests),
            })
            probe.loops.clear()
    first = per_unit[0]
    for i, x in enumerate(per_unit[1:], start=2):
        for key in ("calls", "counts", "events"):
            if x[key] != first[key]:
                check.problems.append(f"traced unit {i}: {key} differ from traced unit 1")

    out = {}
    for span, _, _ in layers.SPANS:
        out[f"{span}.calls"] = first["calls"][span]
        out[f"{span}.self_s"] = statistics.fmean(x["self_s"][span] for x in per_unit)
    calls, c = first["calls"], first["counts"]

    def ratio(a, b):
        return a / b if b else 0.0

    items, items_per_s = _drain_rate(w)
    traced_wall = statistics.median(x["wall_s"] for x in per_unit)
    out.update({
        "engine.events": first["events"],
        "engine.fail_ratio": first["fail_ratio"],
        "engine.generate_workload.items": items,
        "engine.generate_workload.items_per_s": items_per_s,
        "dart_node.leg_reuse_ratio": ratio(c["leg_reuse"],
                                           calls["dart_node.on_neighbor_interest"]),
        "dart_node.loop_refusals": c["loop_refusals"],
        "ndn_node.aggregation_ratio": ratio(c["ndn_aggregated"], calls["ndn_node.on_interest"]),
        "ndn_node.seen_nonces_end": first["nonces"],
        "model.ContentStore.hit_ratio": ratio(c["store_hits"], calls["model.ContentStore.get"]),
        "trace.untraced_wall_s": base.wall_s,
        "trace.traced_wall_s": traced_wall,
        "trace.overhead_s": traced_wall - base.wall_s,
        "trace.overhead_ratio": (traced_wall - base.wall_s) / base.wall_s,
        "trace.wrapper_us_per_call": overhead * 1e6,
    })
    out["_units"] = len(per_unit)
    return out


def measure(name: str, seed: int, seconds: float, trace: bool) -> int:
    modules = program.load()
    variant = seed % VARIANTS
    ctx = program.context(name, seed, variant, trace)
    print("context: " + " ".join(f"{k}={v}" for k, v in ctx.items()), flush=True)
    workdir = program.ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    w = WORKLOADS[name](modules, variant, workdir)
    check = Checker(load_record().get("workloads", {}).get(name, {}).get(str(variant)))
    try:
        if trace:
            values = run_traced(w, seconds, check)
            names = layers.metric_names()
        else:
            values = run_untraced(w, seconds, check)
            names = [(n, u) for n, u, _ in END_TO_END]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()   # only when no other run is using it

    better = {n: b for n, _, b in END_TO_END}
    for n, unit in names:
        hint = f"  ({better[n]} is better)" if n in better else ""
        print(f"{n:40s} {values[n]:>16.6g} {unit}{hint}")
    if not trace:
        print(f"{'fail_ratio':40s} {values['_fail_ratio']:>16.6g} ratio  "
              "(simulated (nacked + abandoned) / requests; gated exactly against the record)")
        print(f"units measured: {values['_units']}, set-up samples: {values['_setups']}")
    else:
        print(f"traced units: {values['_units']}; generator drained on its own: "
              f"{values['engine.generate_workload.items']} items; "
              "overhead = traced - untraced wall_s")
    for note in check.notes:
        print(f"note: {note}")
    for problem in check.problems:
        print(f"INCORRECT: {problem}")
    print(f"correctness: {'ok' if check.correct else 'FAILED'} "
          f"({check.attempted - check.failed}/{check.attempted} operations match the record)")
    metrics = {n: {"value": values[n], "unit": unit} for n, unit in names}
    print(json.dumps({"correct": check.correct, "attempted": check.attempted,
                      "failed": check.failed, "metrics": metrics}), flush=True)
    return 0 if check.correct else 1


def run_all(seed: int, seconds: float) -> int:
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            print(f"== {name} trace={trace}", flush=True)
            done = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                                   "--workload", name, "--seed", str(seed),
                                   "--seconds", str(seconds), "--trace", str(trace)])
            status = status or done.returncode
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds)
        return measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except program.ProgramMissing as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
