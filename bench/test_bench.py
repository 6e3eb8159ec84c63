"""Tests of the benchmark itself: deterministic inputs, oracles that reject
corrupted reports, and self times that fit inside the traced wall time.

Workload sizes are shrunk so the whole file runs in a few seconds.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import workloads
from oometrics import cli


@pytest.fixture(autouse=True)
def small_workloads(monkeypatch):
    for name, value in {
        "SOURCE_FILES": 12, "SOURCE_PACKAGES": 3, "HISTORY_CLASSES": 30,
        "HUGE_IFS": 40, "CHAIN_DEPTH": 12, "NEST_DEPTH": 8,
    }.items():
        monkeypatch.setattr(workloads, name, value)


@pytest.fixture(scope="module")
def helpers():
    return workloads.load_helpers()


def reports(wl: workloads.Workload, inputs: Path, capsys, monkeypatch) -> dict[str, dict]:
    """Each command's report, from the CLI run in process."""
    monkeypatch.chdir(inputs)
    out = {}
    for cmd in wl.commands:
        assert cli.main(cmd.argv) == 0
        out[cmd.name] = json.loads(capsys.readouterr().out)
    return out


@pytest.mark.parametrize("name", workloads.WORKLOAD_NAMES)
def test_generators_are_deterministic_per_seed(name, helpers, tmp_path):
    workloads.build(name, 7, tmp_path / "a", helpers)
    workloads.build(name, 7, tmp_path / "b", helpers)
    workloads.build(name, 8, tmp_path / "c", helpers)
    assert run.tree_digest(tmp_path / "a") == run.tree_digest(tmp_path / "b")
    assert run.tree_digest(tmp_path / "a") != run.tree_digest(tmp_path / "c")


def corruptions(name: str):
    """(command, description, edit) triples; each edit breaks one fact the
    workload's oracle checks."""

    def method0(report):
        return report["classes"][0]["metrics"]["methods"][0]

    if name == "source_corpus":
        yield "analyze", "v off by one", lambda r: method0(r).update(v=method0(r)["v"] + 1)
        yield "analyze", "class missing", lambda r: r["classes"].pop()
        yield "analyze", "method missing", lambda r: r["classes"][1]["metrics"]["methods"].pop()
    elif name == "facts_history":
        yield "analyze", "NOM changed", lambda r: r["classes"][2]["metrics"].update(nom=99)
        yield "analyze", "DIT changed", lambda r: r["classes"][3]["metrics"].update(dit=42)
        yield "analyze", "ENOM changed", lambda r: r["evolution"]["classes"][0].update(
            enom=r["evolution"]["classes"][0]["enom"] + 1)
        yield "analyze", "class missing", lambda r: r["classes"].pop(0)
        yield "compare", "class added", lambda r: r["added"].append("C999")
        yield "compare", "wrong build id", lambda r: r["later"].update(id="v3")
    else:
        yield "huge_method", "v off by one", lambda r: method0(r).update(v=method0(r)["v"] - 1)
        yield "huge_method", "ev not 1", lambda r: method0(r).update(ev=2)
        yield "deep_chain", "DIT changed", lambda r: r["classes"][-1]["metrics"].update(dit=0)
        yield "deep_chain", "class missing", lambda r: r["classes"].pop()
        yield "deep_nesting", "v off by one", lambda r: method0(r).update(v=method0(r)["v"] + 1)


@pytest.mark.parametrize("name", workloads.WORKLOAD_NAMES)
def test_oracles_accept_the_report_and_reject_corruptions(name, helpers, tmp_path, capsys, monkeypatch):
    wl = workloads.build(name, 3, tmp_path, helpers)
    got = reports(wl, tmp_path, capsys, monkeypatch)
    checks = {cmd.name: cmd.check for cmd in wl.commands}
    for cmd_name, report in got.items():
        assert checks[cmd_name](report) == [], cmd_name
    for cmd_name, what, edit in corruptions(name):
        bad = copy.deepcopy(got[cmd_name])
        edit(bad)
        assert checks[cmd_name](bad), f"{name}/{cmd_name}: oracle accepted '{what}'"


def test_traced_self_times_fit_in_traced_wall_time(helpers, tmp_path):
    inputs, out = tmp_path / "inputs", tmp_path / "out"
    out.mkdir()
    wl = workloads.build("facts_history", 5, inputs, helpers)
    runner = run.Runner(wl, inputs, out, time.perf_counter())
    traced = runner.run_traced_pass()
    assert runner.failed == 0, runner.problems
    assert len(traced["runs"]) == len(wl.commands)
    for r in traced["runs"]:
        selfs = run.self_times(r["doc"]["spans"])
        assert selfs["report"] > 0 and selfs["model"] > 0
        assert sum(selfs.values()) <= r["doc"]["main_s"] <= r["wall_s"]
    metrics = run.layer_metrics(traced["runs"])
    assert set(metrics) == set(run.LAYER_UNITS) - {"trace.overhead_share"}
    assert metrics["model.classes"] == 8 * workloads.HISTORY_CLASSES  # 5 builds in analyze, 3 in compare


def test_inclusive_time_counts_nested_intervals_once():
    spans = {
        "names": ["a", "b"], "layers": ["x", "y"],
        "name": [0, 1, 0, 1], "parent": [-1, 0, 1, -1],
        "start_ns": [0, 10, 20, 100], "end_ns": [50, 40, 30, 160],
    }
    assert run.inclusive_time(spans, ("a",)) == pytest.approx(50e-9)
    assert run.inclusive_time(spans, ("a", "b")) == pytest.approx(110e-9)
    assert dict(run.self_times(spans)) == pytest.approx({"x": 30e-9, "y": 80e-9})


def test_benchmark_json_lists_the_metrics_run_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOAD_NAMES)


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "source_corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
