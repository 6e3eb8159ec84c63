"""Report assembly, chart emission, and the CLI surface."""

import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from helpers import attr_rec, class_rec, lexical_analyzer_model, method_rec, cfg_with_v, random_model, write_facts
from oometrics import cli, cohesion, complexity, qmood, quality, report
from oometrics.cfg import ControlFlowGraph
from oometrics.ck import KIVIAT_ORDER
from oometrics.cli import main
from oometrics.model import build_system_model, facts_to_model, model_to_facts
from oometrics.quality import RangeTable, ToolConfig
from oometrics.report import (
    compute_class_record,
    compute_report,
    emit_kiviat_svg,
    emit_scatter,
    serialize_report,
)
from oometrics.quality import kiviat_rows
from oometrics.errors import FactsError, WrongAxisCount
from oometrics.maintain import DEFAULT_BANDS

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).parent.parent / "src"


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
    count(quality, "metric_status")
    count(report, "logiscope_mnemonics")
    compute_report(model)
    n = len(model.internal_class_names)
    assert calls == {
        "qmood_class_metrics": n,
        "method_attribute_sets": n,
        # each of the 13 mnemonics is checked against its range once per class
        "metric_status": len(KIVIAT_ORDER) * n,
        "logiscope_mnemonics": n,
    }


# every class's metrics carry these keys, whatever its shape: nothing fills
# in a key a metric family leaves out
RECORD_KEYS = {
    *KIVIAT_ORDER,
    "cbo", "rfc", "wmc", "dit", "noc", "mpc", "dac",
    "lcom_ck", "lcom_lh", "lcom_hm", "lcom_hs", "coh", "tcc", "lcc", "sim_cohesion",
    "dam", "dcc", "cam", "moa", "mfa", "nop", "cis", "nom",
    "methods",
}


def test_every_class_record_has_the_same_keys():
    assert len(RECORD_KEYS) == 36 + 1
    models = [random_model(random.Random(seed), n_classes=6, max_attrs=3, p_inherit=0.5) for seed in range(20)]
    models.append(build_system_model([
        class_rec("p.Empty"),
        class_rec("p.Abstract", attributes=[attr_rec("x")],
                  methods=[method_rec("a", abstract=True), method_rec("b", params=["int"], abstract=True)]),
        class_rec("p.One", attributes=[attr_rec("x")],
                  methods=[method_rec("m", accesses=["x"], cfg=cfg_with_v(2))]),
        class_rec("p.NoAttributes", methods=[method_rec("f", cfg=cfg_with_v(1)), method_rec("g")]),
        class_rec("p.Shape", kind="interface", methods=[method_rec("area", abstract=True)]),
    ]))
    for model in models:
        for name in model.internal_class_names:
            assert set(compute_class_record(model, name)) == RECORD_KEYS, name
        for section in compute_report(model)["classes"]:
            assert set(section["metrics"]) == RECORD_KEYS, section["name"]


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
    rec["cl_comf"] = 0.5  # lift the only violation
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
    write_facts(model_to_facts(model), facts_path)
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


@pytest.mark.parametrize("argv, out, written", [
    (["analyze"], "out", "out/report.json"),
    (["kiviat", "--class-name", "A"], "x.svg", "x.svg"),
    (["scatter"], "x.csv", "x.csv"),
])
def test_an_out_path_under_a_regular_file_is_an_input_error(argv, out, written, tmp_path, capsys):
    src = tmp_path / "A.java"
    src.write_text("class A { int m(int x) { return x; } }", encoding="utf-8")
    rc = main([argv[0], str(src), *argv[1:], "--out", str(src / out)])
    captured = capsys.readouterr()
    assert (rc, captured.out) == (1, "")  # it was a NotADirectoryError traceback
    assert captured.err == f"error: {src / written}: cannot write: Not a directory\n"


def test_scatter_reduces_each_shared_graph_once(monkeypatch, capsys):
    # the fixture's 39 methods share 2 graphs; scatter once reduced one per method
    monkeypatch.setattr(cli, "_worker_count", lambda n_files: 1)
    reduced = []
    real = complexity.essential
    monkeypatch.setattr(complexity, "essential", lambda g: reduced.append(g) or real(g))
    assert main(["scatter", str(FIXTURES / "metric_test")]) == 0
    assert capsys.readouterr().out.count("\n") == 40  # a header and 39 methods
    assert len(reduced) == len({(g.kinds, g.edges) for g in reduced}) == 2


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


def _churn_builds(tmp_path) -> Path:
    """v0..v2: three random 24-class builds, each enough to fit a churn baseline."""
    builds = tmp_path / "builds"
    builds.mkdir()
    for k in range(3):
        model = random_model(random.Random(100 + k), n_classes=24, max_methods=6, max_attrs=4, p_edge=0.1, p_inherit=0.5)
        write_facts(model_to_facts(model), builds / f"v{k}.json")
    return builds


NUMPY_FREE_COMMANDS = {
    # command -> (argv over the builds directory, text its stdout holds)
    "analyze": (lambda b: ["analyze", str(FIXTURES / "metric_test"), "--format", "text"], "classes analyzed: 13"),
    "kiviat": (lambda b: ["kiviat", "--facts", str(b / "v0.json"), "--class-name", "C0"], "<svg"),
    "scatter": (lambda b: ["scatter", str(FIXTURES / "metric_test")], "method,class,v,ev,quadrant"),
    "evolve": (lambda b: ["evolve", "--history", str(b)], '"versions"'),
    "compare": (lambda b: ["compare", str(b / "v1.json"), str(b / "v2.json"), "--baseline", str(b / "v0.json")],
                '"verdict"'),
}


@pytest.mark.parametrize("command", NUMPY_FREE_COMMANDS)
def test_no_command_loads_numpy(command, tmp_path):
    code = (
        "import sys\n"
        "from oometrics.cli import main\n"
        "rc = main(sys.argv[1:])\n"
        "sys.exit(rc if 'numpy' not in sys.modules else 99)\n"
    )
    argv, shown = NUMPY_FREE_COMMANDS[command]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code, *argv(_churn_builds(tmp_path))],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert shown in proc.stdout


def test_compare_json_is_the_same_under_two_hash_seeds(tmp_path):
    builds = _churn_builds(tmp_path)
    argv = NUMPY_FREE_COMMANDS["compare"][0](builds)
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=seed)
        proc = subprocess.run([sys.executable, "-m", "oometrics.cli", *argv], capture_output=True, timeout=60, env=env)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert json.loads(outs[0])["verdict"]
    assert outs[0] == outs[1]


def _write_history(tmp_path) -> Path:
    hist = tmp_path / "history"
    hist.mkdir()
    for i, nom in enumerate((2, 4, 3)):
        model = build_system_model([
            class_rec("app.Main", methods=[method_rec(f"m{k}") for k in range(nom)]),
            class_rec("app.Util", methods=[method_rec("u")]),
        ])
        write_facts(model_to_facts(model), hist / f"v{i + 1}.json")
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
        write_facts(model_to_facts(model), path)

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


def test_cli_rejects_a_range_for_a_method_threshold(tmp_path, capsys):
    # the v/ev thresholds of the quadrant are fixed; a range for them once
    # loaded with exit 0 and changed nothing
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"ranges": {"v": {"min": 1, "max": 2}}}))
    assert main(["analyze", str(FIXTURES / "metric_test"), "--config", str(config)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "'v'" in captured.err


@pytest.mark.parametrize("doc, key", [
    # accepted with exit 0 while changing nothing
    ({"sigBands": {"duplicationWindw": 2}}, "duplicationWindw"),
    # each once ended in a TypeError traceback
    ({"sigBands": {"duplicationWindow": "x"}}, "duplicationWindow"),
    ({"sigBands": {"volume": 5}}, "volume"),
    ({"ranges": {"cl_wmc": {"min": None, "max": 3}}}, "cl_wmc"),
    ({"ranges": {"cl_wmc": {"min": 0, "max": [5]}}}, "cl_wmc"),
    # once opened as file descriptor 5
    ({"qmoodBaseline": 5}, "qmoodBaseline"),
    # misspelt top-level keys: once accepted with exit 0, changing nothing
    ({"churnMetric": ["cl_wmc"], "rangez": {}}, "churnMetric"),
    # compare once printed exactly what ["cl_stat"] prints, with exit 0
    ({"churnMetrics": ["cl_stat", "cl_stat"]}, "'cl_stat'"),
    # once loaded with exit 0, the bound key ignored
    ({"ranges": {"cl_comf": {"min": 0.1, "max": 1, "mx": 3}}}, "'mx'"),
])
def test_cli_rejects_a_config_value_that_cannot_take_effect(doc, key, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert main(["analyze", str(FIXTURES / "metric_test"), "--config", str(config)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ") and key in captured.err
    assert captured.err.count("\n") == 1


def test_cli_takes_sig_bands_of_the_default_shape(tmp_path, capsys):
    # a window longer than any file finds no duplication
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"sigBands": {**DEFAULT_BANDS, "duplicationWindow": 100_000}}))
    assert main(["analyze", str(FIXTURES / "metric_test"), "--config", str(config)]) == 0
    assert json.loads(capsys.readouterr().out)["system"]["sig"]["duplication"] == "++"


@pytest.mark.parametrize("cfg, reason", [
    ({"nodes": 2, "edges": [[0, 1]]}, "needs 'nodes', 'edges' and 'kinds'"),
    ({"nodes": 2, "edges": 3, "kinds": ["entry", "exit"]}, "must be lists"),
    ({"nodes": 2, "edges": [[0]], "kinds": ["entry", "exit"]}, "pair of node ids"),
    ({"nodes": 3, "edges": [[0, 1], [1, 2]], "kinds": ["entry", [], "exit"]}, "unknown node kind"),
    ({"nodes": 3, "edges": [[0, 2]], "kinds": ["entry", "plain", "exit"]}, "not all nodes reachable"),
    ({"nodes": 2, "edges": [[0, 1.9]], "kinds": ["entry", "exit"]}, "node ids must be integers"),
    ({"nodes": 2, "edges": [["0", True]], "kinds": ["entry", "exit"]}, "node ids must be integers"),
    ({"nodes": 2.0, "edges": [[0, 1]], "kinds": ["entry", "exit"]}, "'nodes' must be an integer"),
])
def test_cli_names_the_method_of_a_malformed_facts_graph(cfg, reason, tmp_path, capsys):
    # each shape once ended in a raw KeyError, TypeError or ValueError, in
    # a message that did not say which method's graph was wrong, or (a
    # non-integer node id) in exit 0 with the id truncated by int()
    facts = tmp_path / "facts.json"
    rec = class_rec("p.A", methods=[method_rec("ok", cfg=cfg_with_v(2)), method_rec("m", params=["int"], cfg=cfg)])
    facts.write_text(json.dumps({"classes": [rec]}))
    assert main(["analyze", "--facts", str(facts)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: p.A.m(int): ") and reason in err and "Traceback" not in err


@pytest.mark.parametrize("rec, message", [
    (class_rec("p.A", methods=[method_rec("m", params=["int"]), method_rec("m", params=["int"])]),
     "p.A.m(int): duplicate method signature (in {facts})"),
    (class_rec("p.A", attributes=[{"name": "x"}, {"name": "x", "type": "int"}]),
     "p.A: duplicate attribute x (in {facts})"),
    (class_rec("p.A", lines=3, comment_lines=5), "p.A: commentLines 5 exceeds lines 3 (in {facts})"),
    # the facts schema's rows name the file too
    (class_rec("p.A", methods=[method_rec("m", invokes=[("p.A.m", 2), ("p.A.m", -1)])]),
     "p.A.m(): invokes p.A.m: count -1 is below 1 (in {facts})"),
    (class_rec("p.A", methods=[method_rec("m", invokes=[("p.A.m", "x")])]),
     "p.A.m(): invokes p.A.m: count 'x' is not an integer (in {facts})"),
    (class_rec("p.A", lines="many"), "p.A: lines 'many' is not an integer (in {facts})"),
    (class_rec("p.A", comment_lines=None), "p.A: commentLines None is not an integer (in {facts})"),
    (class_rec("p.A", statements=[3]), "p.A: statements [3] is not an integer (in {facts})"),
])
def test_cli_names_the_class_and_method_of_a_record_the_model_rejects(rec, message, tmp_path, capsys):
    # each shape once ended in a raw ValueError or TypeError traceback
    facts = tmp_path / "facts.json"
    facts.write_text(json.dumps({"classes": [class_rec("p.Ok"), rec]}))
    assert main(["analyze", "--facts", str(facts)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message.format(facts=facts)}\n"


def test_numbers_int_accepts_keep_their_value():
    # facts ints are exact: each value int() once took, and truncated, is rejected
    for rec, message in [
        (class_rec("p.A", lines="12"), "p.A: lines '12' is not an integer"),
        (class_rec("p.A", comment_lines=2.9), "p.A: commentLines 2.9 is not an integer"),
        (class_rec("p.A", statements=True), "p.A: statements True is not an integer"),
        (class_rec("p.A", methods=[method_rec("m", invokes=[("p.A.m", 2.5)])]),
         "p.A.m(): invokes p.A.m: count 2.5 is not an integer"),
        (class_rec("p.A", methods=[method_rec("m", invokes=[("p.A.m", "3")])]),
         "p.A.m(): invokes p.A.m: count '3' is not an integer"),
    ]:
        with pytest.raises(FactsError) as exc:
            facts_to_model({"classes": [rec]})
        assert str(exc.value) == message


@pytest.mark.parametrize("changes, reason", [
    ({"nodes": 5}, "kinds length disagrees with node count"),
    ({"edges": [[0, 1], [1, 2.0], [1, 2]]}, "cfg node ids must be integers"),
])
def test_cli_checks_a_repeated_graph_in_a_later_history_file(changes, reason, tmp_path, capsys):
    # the graph's kinds and edges repeat a valid graph of the same file and
    # of the earlier files; every check on the record still runs
    ok = class_rec("p.A", methods=[method_rec("ok", cfg=cfg_with_v(2))])
    bad = class_rec("p.B", methods=[method_rec("ok", cfg=cfg_with_v(2)),
                                    method_rec("m", params=["int"], cfg={**cfg_with_v(2), **changes})])
    history = tmp_path / "hist"
    history.mkdir()
    (history / "v1.json").write_text(json.dumps({"classes": [ok]}))
    (history / "v2.json").write_text(json.dumps({"classes": [ok, bad]}))
    assert main(["analyze", "--facts", str(history / "v1.json"), "--history", str(history)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: p.B.m(int): {reason} (in {history / 'v2.json'})\n"


FACTS_ROUTES = {
    # every path that reads a facts file: argv from a readable facts file,
    # a history directory and the unreadable file
    "--facts": lambda good, history, bad: ["analyze", "--facts", bad],
    "positional": lambda good, history, bad: ["analyze", bad],
    "--baseline": lambda good, history, bad: ["analyze", "--facts", good, "--baseline", bad],
    "--history": lambda good, history, bad: ["analyze", "--facts", good, "--history", history],
    "compare": lambda good, history, bad: ["compare", good, good, "--baseline", bad],
}


@pytest.mark.parametrize("route, shape", [
    (route, shape) for route in FACTS_ROUTES for shape in ("missing", "not_json")
    if (route, shape) != ("--history", "missing")  # history files are found by listing the directory
])
def test_cli_names_a_facts_file_it_cannot_read(route, shape, tmp_path, capsys):
    # a missing file once ended in FileNotFoundError, a broken one in
    # JSONDecodeError, each with a traceback
    good = tmp_path / "good.json"
    write_facts(model_to_facts(random_model(random.Random(5), n_classes=8)), good)
    history = tmp_path / "history"
    history.mkdir()
    write_facts(model_to_facts(random_model(random.Random(6), n_classes=8)), history / "v1.json")
    bad = (history if route == "--history" else tmp_path) / "v2.json"
    if shape == "not_json":
        bad.write_text('{"classes": [\n  {"name": }\n]}')
    assert main(FACTS_ROUTES[route](str(good), str(history), str(bad))) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ") and str(bad) in captured.err
    if shape == "not_json":
        assert captured.err.startswith(f"error: {bad}: line 2: ")


def test_cli_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "oometrics.cli", "analyze", str(FIXTURES / "metric_test"), "--format", "text"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == 0
    assert "classes analyzed" in proc.stdout
