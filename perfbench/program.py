"""Load the program under test from this checkout and describe the run.

The benchmark measures the ``dartlab`` package in ``<root>/src``, where
``<root>`` is the directory that holds ``perfbench/``.  It never falls back
to an installed copy: a checkout without ``src/dartlab`` is an error.
"""

from __future__ import annotations

import importlib
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("model", "routing", "dart_node", "ndn_node", "engine", "experiment", "cli")


class ProgramMissing(RuntimeError):
    pass


def load():
    """Import dartlab from this checkout; returns {module name: module}."""
    if not (SRC / "dartlab" / "__init__.py").is_file():
        raise ProgramMissing(f"no dartlab package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("dartlab")
    if Path(pkg.__file__).resolve().parent != SRC / "dartlab":
        raise ProgramMissing(f"dartlab imported from {pkg.__file__}, not from {SRC}")
    return {name: importlib.import_module(f"dartlab.{name}") for name in MODULES}


def src_line_count() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def git_commit() -> str:
    """HEAD of the checkout; "unknown" when the checkout is not a git
    repository of its own or git cannot tell."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def context(workload: str, seed: int, variant: int, trace: bool) -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 1
    return {
        "workload": workload,
        "seed": seed,
        "variant": variant,
        "trace": trace,
        "python": platform.python_version(),
        "nproc": nproc,
        "commit": git_commit(),
        "src_lines": src_line_count(),
    }
