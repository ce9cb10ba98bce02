"""Command-line surface.

    dartlab run <config> [--out DIR] [--seed N] [--audit on|off] [--trace P] [--workers N]
    dartlab compare <dir>
    dartlab scenario <name> [--trace P]

Exit codes: 0 ok, 1 config error (or, for compare, missing counterpart
cells), 2 audit violation, 3 scenario check failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .engine import AuditError
from .experiment import (
    ConfigError,
    compare_dir,
    parse_config,
    run_experiment,
    write_comparison_csv,
)
from .routing import TopologyError
from .scenarios import SCENARIOS

OK, CONFIG_ERROR, AUDIT_VIOLATION, ASSERTION_FAILURE = 0, 1, 2, 3


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="dartlab", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)

    runp = sub.add_parser("run", help="run every cell of an experiment config")
    runp.add_argument("config")
    runp.add_argument("--out", default="results", help="output directory")
    runp.add_argument("--seed", type=int, default=None,
                      help="replace the config's seed list with this one seed")
    runp.add_argument("--audit", choices=("on", "off"), default=None)
    runp.add_argument("--trace", default=None,
                      help="write per-cell event traces to <path>.<cell>")
    runp.add_argument("--workers", type=int, default=None)

    cmpp = sub.add_parser("compare", help="summarise a directory of metrics CSVs")
    cmpp.add_argument("dir")

    scp = sub.add_parser("scenario", help="run a scripted fixture")
    scp.add_argument("name")
    scp.add_argument("--trace", default=None, help="also write the event trace here")
    return p


def cmd_run(args) -> int:
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as e:
        print(f"cannot read config: {e}", file=sys.stderr)
        return CONFIG_ERROR
    except UnicodeDecodeError as e:
        print(f"config error: {args.config}: {e}", file=sys.stderr)
        return CONFIG_ERROR
    try:
        cfg = parse_config(text)
        if args.seed is not None:
            cfg = replace(cfg, seeds=(args.seed,))
        if args.audit is not None:
            cfg = replace(cfg, audit=args.audit == "on")
        if args.workers is not None:
            cfg = replace(cfg, workers=args.workers)
        names = run_experiment(cfg, args.out, config_text=text,
                               trace_template=args.trace)
    except (ConfigError, TopologyError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return CONFIG_ERROR
    except AuditError as e:
        print(f"{e}", file=sys.stderr)
        return AUDIT_VIOLATION
    except OSError as e:
        print(f"cannot write output: {e}", file=sys.stderr)
        return CONFIG_ERROR
    print(f"wrote {len(names)} cells to {args.out}")
    for n in names:
        print(f"  {n}")
    print("  manifest.json")
    return OK


def cmd_compare(args) -> int:
    try:
        lines, summary = compare_dir(args.dir)
        out = write_comparison_csv(args.dir, summary)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return CONFIG_ERROR
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return CONFIG_ERROR
    for line in lines:
        print(line)
    print(f"wrote {out}")
    return CONFIG_ERROR if summary["errors"] else OK


def cmd_scenario(args) -> int:
    if args.name not in SCENARIOS:
        print(f"unknown scenario {args.name!r}; choices: {', '.join(sorted(SCENARIOS))}",
              file=sys.stderr)
        return CONFIG_ERROR
    result = SCENARIOS[args.name]()
    for line in result.lines:
        print(line)
    if args.trace:
        try:
            Path(args.trace).write_text("\n".join(result.trace) + "\n")
        except OSError as e:
            print(f"cannot write output: {e}", file=sys.stderr)
            return CONFIG_ERROR
        print(f"trace written to {args.trace}")
    if not result.passed:
        print("--- trace ---", file=sys.stderr)
        for line in result.trace:
            print(line, file=sys.stderr)
        print(f"scenario {result.name}: FAIL", file=sys.stderr)
        return ASSERTION_FAILURE
    print(f"scenario {result.name}: pass")
    return OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 0 for --help, 2 for usage errors; 2 means "audit
        # violation" to us, so map usage problems to the config-error code
        return OK if e.code == 0 else CONFIG_ERROR
    if args.cmd == "run":
        return cmd_run(args)
    if args.cmd == "compare":
        return cmd_compare(args)
    return cmd_scenario(args)


if __name__ == "__main__":
    sys.exit(main())
