import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dartlab import cli
from dartlab.engine import AuditError

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


@pytest.mark.parametrize("line", ["sweep_interval_s = -1", "sample_interval_ms = -5",
                                  "duration_s = 0"])
def test_negative_timer_interval_exits_1_instead_of_hanging(tmp_path, line):
    # a negative period used to re-arm its timer in the past, looping forever
    cfg = write_cfg(tmp_path, CFG + line + "\n")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-m", "dartlab.cli", "run", cfg,
                           "--out", str(tmp_path / "r")],
                          capture_output=True, text=True, timeout=60, env=env)
    assert done.returncode == 1, done.stderr
    assert f"config error: {line.split()[0]} must be > 0" in done.stderr
    assert "Traceback" not in done.stderr


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


@pytest.mark.parametrize("name", ["fig1-rankloop", "fig1-stale", "fig2-sharing"])
def test_scenario_subcommand_passes(name, tmp_path, capsys):
    trace = tmp_path / "trace.txt"
    assert cli.main(["scenario", name, "--trace", str(trace)]) == 0
    out = capsys.readouterr().out
    assert f"scenario {name}: pass" in out
    assert trace.read_text().startswith("t=")


def test_scenario_failure_maps_to_exit_3(monkeypatch, capsys):
    from dartlab.scenarios import ScenarioResult

    monkeypatch.setitem(cli.SCENARIOS, "fig2-sharing", lambda: None)
    monkeypatch.setattr(cli, "run_scenario",
                        lambda name: ScenarioResult(name, False, ["FAIL x"], ["t=0.0 ..."]))
    assert cli.main(["scenario", "fig2-sharing"]) == 3
    err = capsys.readouterr().err
    assert "FAIL" in err and "--- trace ---" in err
