"""Record the reference outputs that every benchmark run is checked against.

    python3 perfbench/record.py

For every workload and every input variant this runs one unit untraced and
stores its output digest, its simulated request and failure counts, and
the number of events its loops dispatched.  ``grid-light`` is run with 2
workers and again in-process with 1 to count its events, and the two must
agree.  The whole record is made afresh by the current program and
replaces ``perfbench/digests.json`` only when every unit has run.
Re-record only when the simulated outputs are meant to change, and say so
where the change is described.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import sys
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import program, tracer                                  # noqa: E402
from perfbench.workloads import RECORD, VARIANTS, WORKLOADS, LoopProbe  # noqa: E402


def record_one(modules, name: str, variant: int, workdir: Path) -> dict:
    w = WORKLOADS[name](modules, variant, workdir)
    probe = LoopProbe()
    with tracer.Patches() as p:
        p.attribute(modules["engine"]._Simulation, "run", probe.wrap)
        unit = w.run(probe, traced=False)
        # a pool's loops run elsewhere: count events on an in-process run
        in_process = w.run(probe, traced=True) if unit.events is None else unit
    problems = unit.errors + in_process.errors
    if unit.digest != in_process.digest:
        problems.append("outputs differ between worker counts")
    if problems:
        raise SystemExit(f"{name} variant {variant}: " + "; ".join(problems))
    return {"digest": unit.digest, "requests": unit.requests,
            "failures": unit.failures, "events": in_process.events}


def main() -> int:
    modules = program.load()
    ctx = program.context("-", 0, 0, False)
    record = {"variants": VARIANTS,
              "recorded_with": {k: ctx[k] for k in ("python", "commit", "src_lines")},
              "workloads": {}}
    workdir = program.ROOT / ".perfbench_work" / "record"
    try:
        for name in WORKLOADS:
            entries = record["workloads"][name] = {}
            for variant in range(VARIANTS):
                entries[str(variant)] = record_one(modules, name, variant, workdir)
                print(f"{name} {variant} {entries[str(variant)]}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()   # only when no benchmark run is using it
    RECORD.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
