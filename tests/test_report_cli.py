"""Report assembly, chart emission, and the CLI surface."""

import json
import random
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from helpers import class_rec, lexical_analyzer_model, method_rec, cfg_with_v, random_model
from oometrics import cohesion, qmood
from oometrics.cfg import ControlFlowGraph
from oometrics.cli import main
from oometrics.model import SystemModel, build_system_model, dump_facts, model_to_facts
from oometrics.quality import RangeTable, ToolConfig
from oometrics.report import (
    compute_class_record,
    compute_report,
    emit_kiviat_svg,
    emit_scatter,
    serialize_report,
)
from oometrics.quality import kiviat_rows
from oometrics.errors import WrongAxisCount

FIXTURES = Path(__file__).parent / "fixtures"


def _fixture_model():
    records = []
    from oometrics.javasrc import parse_source

    for f in sorted((FIXTURES / "metric_test").glob("*.java")):
        records.extend(parse_source(f.read_text(), str(f)).classes)
    return build_system_model(records)


# ---------------------------------------------------------------------------
# report document
# ---------------------------------------------------------------------------


def test_report_round_trips_and_is_deterministic():
    model = _fixture_model()
    r1 = compute_report(model)
    r2 = compute_report(model)
    s1, s2 = serialize_report(r1), serialize_report(r2)
    assert s1 == s2
    assert json.loads(s1) == r1


def test_report_histogram_percentages_recompute():
    model = _fixture_model()
    report = compute_report(model)
    hist = report["histogram"]["maintainability"]
    total = sum(hist["counts"].values())
    assert total == len(report["classes"])
    assert sum(hist["percent"].values()) == pytest.approx(100.0, abs=0.1)
    for cat, count in hist["counts"].items():
        assert hist["percent"][cat] == pytest.approx(100.0 * count / total, abs=0.01)


def test_report_has_versioned_schema_and_fingerprint():
    report = compute_report(_fixture_model(), config=ToolConfig())
    assert report["schemaVersion"] == 1
    assert len(report["configFingerprint"]) == 16


def test_compute_report_derives_each_fact_once(monkeypatch):
    model = random_model(random.Random(11), n_classes=12, max_attrs=4, p_inherit=0.5)
    calls = Counter()

    def count(owner, name):
        fn = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    count(ControlFlowGraph, "validate")
    count(qmood, "qmood_class_metrics")
    count(cohesion, "method_attribute_sets")
    compute_report(model)
    n = len(model.internal_class_names)
    assert calls == {"qmood_class_metrics": n, "method_attribute_sets": n}


def test_compute_report_never_walks_the_hierarchy(monkeypatch):
    # every inheritance fact comes from the one-pass table; the walk
    # queries stay as test oracles only
    model = random_model(random.Random(12), n_classes=12, max_attrs=4, p_inherit=0.7)
    walks = ("ancestors", "descendants", "inherited_methods", "inherited_attributes")
    calls = Counter()
    for name in walks:
        def counted(self, c, _name=name, _fn=getattr(SystemModel, name)):
            calls[_name] += 1
            return _fn(self, c)

        monkeypatch.setattr(SystemModel, name, counted)
    report = compute_report(model)
    assert calls == {}
    assert report["system"]["mood"] is not None and report["system"]["qmood"]["NOH"] > 0


# ---------------------------------------------------------------------------
# kiviat SVG
# ---------------------------------------------------------------------------


def test_kiviat_reference_class_marks_four_vertices():
    model, name = lexical_analyzer_model()
    rows = kiviat_rows(RangeTable(), compute_class_record(model, name))
    svg = emit_kiviat_svg(rows, name)
    assert svg.count('class="violation"') == 4
    assert svg.count("<text") == 14  # 13 axis labels + title line


def test_kiviat_all_in_range_no_marks():
    rec = compute_class_record(_fixture_model(), _fixture_model().internal_class_names[0])
    rec.cl_comf = 0.5  # lift the only violation
    rows = kiviat_rows(RangeTable(), rec)
    svg = emit_kiviat_svg(rows, "clean")
    assert 'class="violation"' not in svg


def test_kiviat_byte_identical_across_runs():
    model, name = lexical_analyzer_model()
    rows = kiviat_rows(RangeTable(), compute_class_record(model, name))
    assert emit_kiviat_svg(rows, name) == emit_kiviat_svg(rows, name)


def test_kiviat_axis_count_enforced():
    with pytest.raises(WrongAxisCount):
        emit_kiviat_svg([], "empty")


# ---------------------------------------------------------------------------
# scatter
# ---------------------------------------------------------------------------


def test_scatter_all_low_is_quadrant_three():
    rows = [("C", f"m{i}()", 1, 1) for i in range(5)]
    result = emit_scatter(rows)
    assert result.counts == {"I": 0, "II": 0, "III": 5, "IV": 0}


def test_scatter_mixed_quadrants_and_partition():
    rows = [
        ("C", "a()", 1, 1),
        ("C", "b()", 12, 6),
        ("C", "c()", 12, 2),
        ("C", "d()", 2, 6),
    ]
    result = emit_scatter(rows)
    assert result.counts == {"I": 1, "II": 1, "III": 1, "IV": 1}
    assert sum(result.counts.values()) == len(rows)
    assert "b(),C,12,6,I" in result.csv
    assert result.csv.splitlines()[0] == "method,class,v,ev,quadrant"


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_analyze_fixture_package(tmp_path, capsys):
    rc = main(["analyze", str(FIXTURES / "metric_test")])
    out = capsys.readouterr().out
    assert rc == 0
    doc = json.loads(out)
    assert doc["system"]["qmood"]["DSC"] == 13
    assert doc["system"]["qmood"]["NOH"] == 0
    assert doc["partial"] is False


def test_cli_analyze_empty_dir_is_no_input(tmp_path, capsys):
    rc = main(["analyze", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "no source files" in err


def test_cli_analyze_facts_file(tmp_path, capsys):
    model = _fixture_model()
    facts_path = tmp_path / "facts.json"
    dump_facts(model_to_facts(model), facts_path)
    rc = main(["analyze", "--facts", str(facts_path)])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["system"]["qmood"]["DSC"] == 13
    assert doc["system"]["mi"] is None  # no tokens without source


def test_cli_analyze_parse_error_partial_exit_2(tmp_path, capsys):
    good = tmp_path / "Good.java"
    good.write_text("class Good { void m() { } }")
    bad = tmp_path / "Bad.java"
    bad.write_text("class {")
    rc = main(["analyze", str(tmp_path)])
    captured = capsys.readouterr()
    assert rc == 2
    doc = json.loads(captured.out)
    assert doc["partial"] is True
    assert any("Bad.java" in e for e in doc["parseErrors"])


def test_cli_analyze_out_dir(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["analyze", str(FIXTURES / "metric_test"), "--out", str(out)])
    assert rc == 0
    assert (out / "report.json").exists()
    assert (out / "facts.json").exists()
    doc = json.loads((out / "report.json").read_text())
    assert doc["system"]["qmood"]["DSC"] == 13


def test_cli_analyze_text_format(capsys):
    rc = main(["analyze", str(FIXTURES / "metric_test"), "--format", "text"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "classes analyzed: 13" in out


def test_cli_analyze_deterministic_output(capsys):
    main(["analyze", str(FIXTURES / "metric_test")])
    out1 = capsys.readouterr().out
    main(["analyze", str(FIXTURES / "metric_test")])
    out2 = capsys.readouterr().out
    assert out1 == out2


def test_cli_kiviat(tmp_path, capsys):
    target = tmp_path / "chart.svg"
    rc = main([
        "kiviat", str(FIXTURES / "metric_test"),
        "--class-name", "fixtures.metrictest.CBO",
        "--out", str(target),
    ])
    assert rc == 0
    svg = target.read_text()
    assert svg.startswith("<svg")
    assert "cl_wmc" in svg


def test_cli_scatter(capsys):
    rc = main(["scatter", str(FIXTURES / "metric_test")])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out.startswith("method,class,v,ev,quadrant")
    assert "quadrants:" in captured.err


@pytest.mark.parametrize("argv", [
    ["scatter", "--format", "text"],
    ["scatter", "--config", "c.json"],
    ["kiviat", "--class-name", "X", "--format", "text"],
])
def test_cli_rejects_options_the_subcommand_ignores(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + [str(FIXTURES / "metric_test")])
    assert exc.value.code == 1  # usage error; 2 means a partial report
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_missing_required_option_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compare", "early.json", "late.json"])
    assert exc.value.code == 1
    assert "--baseline" in capsys.readouterr().err


def test_cli_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["scatter", "--help"])
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


def test_cli_analyzes_a_1500_deep_inheritance_chain(tmp_path, capsys):
    depth = 1500
    facts = tmp_path / "chain.json"
    facts.write_text(json.dumps({"classes": [
        class_rec(f"K{i}", extends=[f"K{i - 1}"] if i else [], methods=[method_rec(f"m{i}"), method_rec("shared")])
        for i in range(depth)
    ]}))
    argv = ["analyze", "--facts", str(facts)]
    started = time.perf_counter()
    assert main(argv) == 0
    elapsed = time.perf_counter() - started
    classes = json.loads(capsys.readouterr().out)["classes"]
    tracemalloc.start()
    try:
        main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert elapsed < 1.5  # about 5 s when every class walked its own ancestors
    assert peak < 30e6  # about 40 MB with the per-class ancestor and method caches
    dit = {c["name"]: c["metrics"]["dit"] for c in classes}
    assert dit[f"K{depth - 1}"] == depth - 1
    assert dit["K0"] == 0
    leaf = classes[-1]
    assert leaf["name"] == "K999" and leaf["metrics"]["mfa"] == 999 / 1001


def test_analyze_never_loads_numpy():
    code = (
        "import sys\n"
        "from oometrics.cli import main\n"
        f"rc = main(['analyze', {str(FIXTURES / 'metric_test')!r}, '--format', 'text'])\n"
        "sys.exit(rc if 'numpy' not in sys.modules else 99)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "classes analyzed: 13" in proc.stdout


def _write_history(tmp_path) -> Path:
    hist = tmp_path / "history"
    hist.mkdir()
    for i, nom in enumerate((2, 4, 3)):
        model = build_system_model([
            class_rec("app.Main", methods=[method_rec(f"m{k}") for k in range(nom)]),
            class_rec("app.Util", methods=[method_rec("u")]),
        ])
        dump_facts(model_to_facts(model), hist / f"v{i + 1}.json")
    return hist


def test_cli_evolve(tmp_path, capsys):
    hist = _write_history(tmp_path)
    rc = main(["evolve", "--history", str(hist)])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["versions"] == ["v1", "v2", "v3"]
    main_row = [r for r in doc["classes"] if r["name"] == "app.Main"][0]
    assert main_row["enom"] == 3  # |4-2| + |3-4|
    util_row = [r for r in doc["classes"] if r["name"] == "app.Util"][0]
    assert util_row["enom"] == 0


def test_cli_analyze_with_history_section(tmp_path, capsys):
    hist = _write_history(tmp_path)
    rc = main(["analyze", str(FIXTURES / "metric_test"), "--history", str(hist)])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert "evolution" in doc
    assert {r["name"] for r in doc["evolution"]["classes"]} == {"app.Main", "app.Util"}
    row = [r for r in doc["evolution"]["classes"] if r["name"] == "app.Main"][0]
    assert row["enom"] == 3 and "lenom" in row and "eenom" in row


def test_cli_compare(tmp_path, capsys):
    def build_facts(path, extra_stats):
        records = []
        for i in range(6):
            wmc = 3 + i + (extra_stats if i == 0 else 0)
            records.append(class_rec(
                f"mod.C{i}",
                lines=30 + 7 * i,
                statements=10 + 5 * i + extra_stats,
                attributes=[],
                methods=[method_rec("m", cfg=cfg_with_v(min(wmc, 9)))],
            ))
        model = build_system_model(records)
        dump_facts(model_to_facts(model), path)

    base = tmp_path / "base.json"
    early = tmp_path / "early.json"
    late = tmp_path / "late.json"
    build_facts(base, 0)
    build_facts(early, 0)
    build_facts(late, 40)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"churnMetrics": ["cl_stat", "cl_wmc", "cl_line"]}))
    rc = main([
        "compare", str(early), str(late),
        "--baseline", str(base), "--config", str(config),
    ])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] in ("later-more-complex", "earlier-more-complex", "neutral")
    assert doc["later"]["R"] > doc["earlier"]["R"]

    config.write_text(json.dumps({"churnMetrics": ["cbo"]}))
    rc = main([
        "compare", str(early), str(late),
        "--baseline", str(base), "--config", str(config),
    ])
    assert rc == 1
    assert "churnMetrics" in capsys.readouterr().err


def test_cli_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "oometrics.cli", "analyze", str(FIXTURES / "metric_test"), "--format", "text"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "classes analyzed" in proc.stdout
