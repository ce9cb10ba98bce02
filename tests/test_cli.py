import io
import json
import multiprocessing
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dartlab import cli
from dartlab.dart_node import DartRouter
from dartlab.engine import AuditError
from dartlab.model import Emission, Interest

CFG = """\
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
catalog = 25
duration_s = 2
retry_timeout_s = 5
"""


def write_cfg(tmp_path, text=CFG):
    p = tmp_path / "exp.cfg"
    p.write_text(text)
    return str(p)


def test_run_then_compare_happy_path(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = str(tmp_path / "results")
    assert cli.main(["run", cfg, "--out", out]) == 0
    printed = capsys.readouterr().out
    assert "wrote 2 cells" in printed
    assert (Path(out) / "manifest.json").exists()
    assert cli.main(["compare", out]) == 0
    printed = capsys.readouterr().out
    assert "dart state" in printed.splitlines()[0]
    assert (Path(out) / "comparison.csv").exists()


def test_run_seed_and_audit_flags_reach_the_grid(tmp_path):
    cfg = write_cfg(tmp_path, CFG.replace("seeds = 1", "seeds = 1,2"))
    out = tmp_path / "r"
    assert cli.main(["run", cfg, "--out", str(out), "--seed", "7",
                     "--audit", "off"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["parameters"]["seeds"] == [7]
    assert manifest["parameters"]["audit"] is False
    assert all("_s7.csv" in c for c in manifest["cells"])


def test_run_trace_flag_writes_per_cell_traces(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "r"
    trace = tmp_path / "tr"
    assert cli.main(["run", cfg, "--out", str(out), "--trace", str(trace)]) == 0
    written = sorted(p.name for p in tmp_path.glob("tr.*"))
    assert written == ["tr.dart_none_r20_s1", "tr.ndn_none_r20_s1"]
    first = (tmp_path / written[0]).read_text().splitlines()[0]
    assert first.startswith("t=") and (" RX " in first or " TX " in first)
    # two rates that agree to six significant digits get a trace each,
    # named like their CSVs
    two = tmp_path / "two"
    two.mkdir()
    cfg = write_cfg(two, CFG.replace("rates = 20", "rates = 0.1234567, 0.1234568"))
    assert cli.main(["run", cfg, "--out", str(two / "r"), "--trace", str(two / "tr")]) == 0
    csvs = sorted(p.name[len("metrics_"):-len(".csv")] for p in (two / "r").glob("metrics_*"))
    traces = sorted(p.name[len("tr."):] for p in two.glob("tr.*"))
    assert len(csvs) == 4 and traces == csvs
    assert "dart_none_r0.1234567_s1" in traces


def test_exit_codes_for_config_problems(tmp_path, capsys):
    assert cli.main(["run", str(tmp_path / "nope.cfg")]) == 1
    bad = write_cfg(tmp_path, "nodes = many\n")
    assert cli.main(["run", bad, "--out", str(tmp_path / "x")]) == 1
    assert "config error" in capsys.readouterr().err
    good = write_cfg(tmp_path)
    assert cli.main(["run", good, "--out", str(tmp_path / "x"), "--workers", "0"]) == 1
    assert "workers must be >= 1" in capsys.readouterr().err
    assert cli.main(["compare", str(tmp_path)]) == 1  # no CSVs yet
    assert cli.main(["scenario", "unknown-name"]) == 1
    assert cli.main(["not-a-command"]) == 1
    assert cli.main(["--help"]) == 0


def test_run_refuses_a_config_that_is_not_utf8(tmp_path, capsys):
    # byte 0xff starts no UTF-8 sequence; a config is read as UTF-8 in any locale
    cfg = tmp_path / "exp.cfg"
    cfg.write_bytes(CFG.encode() + b"# caf\xff\n")
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "r")]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [f"config error: {cfg}: 'utf-8' codec can't decode byte "
                                f"0xff in position {len(CFG) + 5}: invalid start byte"]
    assert not (tmp_path / "r").exists()


def test_compare_refuses_a_csv_that_is_not_utf8(tmp_path, capsys):
    out = tmp_path / "results"
    assert cli.main(["run", write_cfg(tmp_path), "--out", str(out)]) == 0
    csv_path = next(out.glob("metrics_dart_*.csv"))
    good = csv_path.read_bytes()
    csv_path.write_bytes(good + b"dart,none,20.0,n0,note,\xff\n")
    capsys.readouterr()
    assert cli.main(["compare", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [f"config error: {csv_path.name}: 'utf-8' codec can't decode "
                                f"byte 0xff in position {len(good) + 23}: invalid start byte"]
    assert not (out / "comparison.csv").exists()


def _run_cli(tmp_path, line):
    # the line takes the place of CFG's line for its key: a key set twice is refused
    key = line.partition("=")[0]
    cfg = write_cfg(tmp_path, "".join(l for l in CFG.splitlines(keepends=True)
                                      if not l.startswith(key)) + line + "\n")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-m", "dartlab.cli", "run", cfg,
                           "--out", str(tmp_path / "r")],
                          capture_output=True, text=True, timeout=60, env=env)
    assert done.returncode == 1, done.stderr
    assert "Traceback" not in done.stderr
    return done.stderr


@pytest.mark.parametrize("line", ["sweep_interval_s = -1", "sample_interval_ms = -5",
                                  "duration_s = 0"])
def test_negative_timer_interval_exits_1_instead_of_hanging(tmp_path, line):
    # a negative period used to re-arm its timer in the past, looping forever
    assert f"config error: {line.split()[0]} must be > 0" in _run_cli(tmp_path, line)


@pytest.mark.parametrize("line,rule", [
    ("sweep_interval_s = 1e-20", "sweep_interval_s must be >= duration_s / 10000000"),
    ("sample_interval_ms = 1e-20",
     "sample_interval_ms must be >= duration_s * 1000 / 10000000"),
])
def test_tiny_timer_interval_exits_1_instead_of_hanging(tmp_path, line, rule):
    # a period too short to move the clock (now + period == now) re-armed its
    # timer at the same instant forever
    err = _run_cli(tmp_path, line)
    assert err.splitlines() == [f"config error: {rule}, got 1e-20"]


@pytest.mark.parametrize("line,rule", [
    ("rates = 1e300", "rates must be <= 10000000 / duration_s, got (1e+300,)"),
    ("producers = 3", "producers must be >= 0 and <= nodes, got 3"),
    ("radius = 0", "no connected geometric graph in 200 attempts (n=2, area=10.0, radius=0.0)"),
])
def test_a_config_the_grid_cannot_run_exits_1_before_writing(tmp_path, line, rule):
    # a rate of 1e300 never ended its stream, more producers than routers
    # failed only once the first cell was built, in a made directory, and a
    # geometry that never connects fails when the world is built, before it
    err = _run_cli(tmp_path, line)
    assert err.splitlines() == [f"config error: {rule}"]
    assert not (tmp_path / "r").exists()


def test_importing_the_cli_loads_no_process_pool():
    # a one-worker run never starts a pool, so it should not pay for its import
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c",
                           "import sys, dartlab.cli; "
                           "print('concurrent.futures.process' in sys.modules)"],
                          capture_output=True, text=True, timeout=60, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_compare_exit_code_reports_missing_counterparts(tmp_path, capsys):
    cfg = write_cfg(tmp_path, CFG.replace("schemes = dart,ndn", "schemes = dart"))
    out = str(tmp_path / "results")
    assert cli.main(["run", cfg, "--out", out]) == 0
    assert cli.main(["compare", out]) == 1
    assert "missing metrics_ndn" in capsys.readouterr().out


def test_audit_violation_maps_to_exit_2(tmp_path, monkeypatch, capsys):
    def boom(*a, **kw):
        raise AuditError("hop-count-descent", "n01", None, ("n00",), [])

    monkeypatch.setattr(cli, "run_experiment", boom)
    cfg = write_cfg(tmp_path)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "x")]) == 2
    assert "audit violation" in capsys.readouterr().err


def _corrupt_row(tmp_path, spoil, key=",interests_received,", detail=None):
    # the first line holding key is replaced by the lines spoil makes of it
    out = tmp_path / "results"
    assert cli.main(["run", write_cfg(tmp_path), "--out", str(out)]) == 0
    csv_path = next(out.glob("metrics_dart_*.csv"))
    lines = csv_path.read_text().splitlines()
    n = next(i for i, line in enumerate(lines) if key in line)
    lines[n:n + 1] = spoil(lines[n])
    csv_path.write_text("\n".join(lines) + "\n")
    return ["compare", str(out)], f"{csv_path.name}: {detail or f'line {n + 1}'}"


def _compare_after(tmp_path, spoil, detail):
    out = tmp_path / "results"
    assert cli.main(["run", write_cfg(tmp_path), "--out", str(out)]) == 0
    spoil(out)
    return ["compare", str(out)], detail


@pytest.mark.parametrize("case", [
    lambda tmp: (["run", write_cfg(tmp), "--out", write_cfg(tmp)], "File exists"),
    lambda tmp: (["run", write_cfg(tmp), "--out", str(tmp / "r"),
                  "--trace", str(tmp / "nodir" / "t")], "nodir"),
    lambda tmp: (["scenario", "fig2-sharing", "--trace", str(tmp / "nodir" / "t.txt")],
                 "nodir"),
    lambda tmp: _corrupt_row(tmp, lambda line: [line.rsplit(",", 1)[0]]),
    lambda tmp: _corrupt_row(tmp, lambda line: [line.rsplit(",", 1)[0] + ",inf"]),
    lambda tmp: _corrupt_row(tmp, lambda line: [], ",table_size_router_mean,",
                             "no table_size_router_mean row"),
    lambda tmp: _corrupt_row(tmp, lambda line: [line.rsplit(",", 1)[0]], "scheme,",
                             "unexpected CSV header"),
    lambda tmp: _compare_after(tmp, lambda out: (out / "metrics_x.csv").touch(),
                               "unrecognised metrics file name: metrics_x.csv"),
    lambda tmp: _compare_after(tmp, lambda out: (out / "comparison.csv").mkdir(),
                               "i/o error:"),
], ids=["run-out-is-a-file", "run-trace-dir-missing", "scenario-trace-dir-missing",
        "compare-short-row", "compare-infinite-count", "compare-no-state-row",
        "compare-bad-header", "compare-bad-file-name", "compare-output-is-a-dir"])
def test_bad_output_path_or_csv_exits_1_with_one_line(case, tmp_path, capsys):
    argv, detail = case(tmp_path)
    capsys.readouterr()
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and detail in err, err


def _resend_unreduced(self, sender, interest, now):
    # a broken relay: passes the Interest on without spending its hop budget
    t = self.fib.lookup(interest.name)[0]
    return [Emission((t.next_hop, Interest(interest.name, interest.hop_count, 1)))]


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="pool workers see the patched handler only when forked")
def test_audit_violation_in_a_pool_worker_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(DartRouter, "on_neighbor_interest", _resend_unreduced)
    cfg = write_cfg(tmp_path, CFG.replace("nodes = 2", "nodes = 4")
                    .replace("radius = 20", "radius = 6"))
    assert cli.main(["run", cfg, "--out", str(tmp_path / "x"), "--workers", "2"]) == 2
    assert "audit violation: hop-count-descent" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["fig1-rankloop", "fig1-stale", "fig2-sharing"])
def test_scenario_subcommand_passes(name, tmp_path, capsys):
    trace = tmp_path / "trace.txt"
    assert cli.main(["scenario", name, "--trace", str(trace)]) == 0
    out = capsys.readouterr().out
    assert f"scenario {name}: pass" in out
    assert trace.read_text().startswith("t=")


def test_scenario_failure_maps_to_exit_3(monkeypatch, capsys):
    from dartlab.scenarios import ScenarioResult, _Checks

    c = _Checks()
    c.equal("delivered", 0, 1)
    c.check("no detail", False)
    monkeypatch.setitem(cli.SCENARIOS, "fig2-sharing",
                        lambda: ScenarioResult("fig2-sharing", c.ok, c.lines, ["t=0.0 ..."]))
    assert cli.main(["scenario", "fig2-sharing"]) == 3
    out, err = capsys.readouterr()
    assert out.splitlines() == ["FAIL delivered: got 0, want 1", "FAIL no detail"]
    assert "--- trace ---" in err and "scenario fig2-sharing: FAIL" in err


# --- fuzzing `dartlab run` ------------------------------------------------------

def _floats(lo, hi):
    return st.floats(lo, hi).map(repr)


# The size of a run is capped: nodes, duration_s, rates and catalog are
# always set, and list lengths and the shortest timers are bounded, so every
# example finishes in well under a second.
_CAPPED = dict(
    nodes=st.integers(1, 8).map(str),
    rates=st.lists(_floats(0.5, 30.0), min_size=1, max_size=2).map(",".join),
    catalog=st.integers(1, 60).map(str),
    duration_s=_floats(0.1, 1.5),
    area=_floats(1.0, 30.0),
    radius=_floats(0.5, 40.0),
    producers=st.integers(0, 1).map(str),
    sample_interval_ms=_floats(1.0, 50.0),
)
_OPTIONAL = dict(
    link_delay_ms=_floats(0.5, 300.0),
    topology_seed=st.integers(-5, 2**40).map(str),
    schemes=st.lists(st.sampled_from(["dart", "ndn"]), min_size=1, max_size=2).map(",".join),
    caching=st.lists(st.sampled_from(["edge", "onpath", "none"]),
                     min_size=1, max_size=2).map(",".join),
    seeds=st.lists(st.integers(-3, 99).map(str), min_size=1, max_size=2).map(",".join),
    zipf_alpha=_floats(0.0, 3.0),
    dart_ttl_s=_floats(0.05, 5.0),
    pit_lifetime_s=_floats(0.05, 5.0),
    retry_timeout_s=_floats(0.05, 5.0),
    max_tries=st.integers(1, 4).map(str),
    warmup_frac=_floats(0.0, 0.5),
    sweep_interval_s=_floats(0.05, 2.0),
    audit=st.sampled_from(["on", "off"]),
    store_capacity=st.integers(0, 10).map(str),
)
# at most one field gets a value that a range check or the parser must refuse
_SPOIL = st.none() | st.tuples(
    st.sampled_from(sorted({**_CAPPED, **_OPTIONAL})),
    st.sampled_from(["0", "-1", "nan", "inf", "-inf", "1e400", "many", "dart,dart", ","]))


@settings(max_examples=80, deadline=None)
@given(fields=st.fixed_dictionaries(_CAPPED, optional=_OPTIONAL), spoil=_SPOIL,
       flags=st.lists(st.sampled_from([("--audit", "off"), ("--seed", "4"),
                                       ("--workers", "0")]), max_size=2, unique=True))
def test_run_never_ends_in_a_traceback(fields, spoil, flags):
    if spoil is not None:
        fields[spoil[0]] = spoil[1]
    text = "".join(f"{k} = {v}\n" for k, v in fields.items())
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "exp.cfg"
        cfg.write_text(text)
        argv = ["run", str(cfg), "--out", str(Path(tmp) / "r")]
        argv += [arg for flag in flags for arg in flag]
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = cli.main(argv)
    assert code in (0, 1), (text, err.getvalue())
    assert "Traceback" not in err.getvalue()
