"""Quality model: statuses, criteria, maintainability ranking, Kiviat rows,
recommendations, and config loading."""

import json

import pytest

from helpers import lexical_analyzer_model, neural_network_model
from oometrics.ck import KIVIAT_ORDER
from oometrics.errors import ConfigError, UnknownMnemonic
from oometrics.quality import (
    CRITERIA,
    RangeTable,
    ToolConfig,
    criteria_categories,
    kiviat_rows,
    maintainability,
    metric_status,
    recommendations,
)
from oometrics.report import compute_class_record


def _record(**overrides) -> dict:
    return dict.fromkeys(KIVIAT_ORDER, 0) | {"cl_comf": 0.5, "cl_line": 100, "cl_comm": 50} | overrides


def _criteria(rec: dict, ranges: RangeTable | None = None) -> dict[str, str]:
    return criteria_categories(kiviat_rows(ranges or RangeTable(), rec))


# ---------------------------------------------------------------------------
# metric_status
# ---------------------------------------------------------------------------


def test_status_low_comment_rate():
    assert metric_status(RangeTable(), "cl_comf", 0.19) == "LOW"


def test_status_boundary_inclusive():
    ranges = RangeTable()
    assert metric_status(ranges, "cl_wmc", 60) == "IN"
    assert metric_status(ranges, "cl_wmc", 61) != "IN"


def test_status_high_used_classes():
    assert metric_status(RangeTable(), "cu_cdused", 33) == "HIGH"


def test_status_unknown_mnemonic():
    with pytest.raises(UnknownMnemonic):
        metric_status(RangeTable(), "nope", 1)


def test_status_undefined_value_flags_low():
    assert metric_status(RangeTable(), "cl_comf", None) == "LOW"


# ---------------------------------------------------------------------------
# criteria and maintainability
# ---------------------------------------------------------------------------


def test_reference_class_criteria_categories():
    model, name = lexical_analyzer_model()
    rec = compute_class_record(model, name)
    crits = _criteria(rec)
    assert crits["Analyzability"] == "POOR"
    assert crits["Testability"] == "FAIR"
    assert crits["Changeability"] == "GOOD"
    assert crits["Stability"] == "EXCELLENT"
    assert maintainability(crits.values()) == "FAIR"

    model2, name2 = neural_network_model()
    rec2 = compute_class_record(model2, name2)
    crits2 = _criteria(rec2)
    assert crits2["Changeability"] == "POOR"
    assert crits2["Analyzability"] == "POOR"
    assert crits2["Stability"] == "FAIR"
    assert crits2["Testability"] == "POOR"
    assert maintainability(crits2.values()) == "POOR"


def test_all_in_range_record_excellent():
    rec = _record()
    crits = _criteria(rec)
    assert all(c == "EXCELLENT" for c in crits.values())
    assert maintainability(crits.values()) == "EXCELLENT"


def test_criterion_counts_constituents():
    rec = _record(cl_wmc=100, cu_cdused=99)  # two of four out
    rows = kiviat_rows(RangeTable(), rec)
    assert criteria_categories(rows)["Analyzability"] == "FAIR"
    assert sum(r.side == "IN" for r in rows if r.mnemonic in CRITERIA["Analyzability"]) == 2


def test_maintainability_bands():
    assert maintainability(["EXCELLENT"] * 4) == "EXCELLENT"
    assert maintainability(["POOR"] * 4) == "POOR"
    assert maintainability(["GOOD", "GOOD", "FAIR", "GOOD"]) == "FAIR"  # 7 points
    assert maintainability(["GOOD", "GOOD", "GOOD", "GOOD"]) == "GOOD"  # 8 points
    assert maintainability(["EXCELLENT", "EXCELLENT", "EXCELLENT", "GOOD"]) == "EXCELLENT"


def test_maintainability_order_invariant():
    import itertools

    cats = ["GOOD", "POOR", "EXCELLENT", "FAIR"]
    results = {maintainability(list(p)) for p in itertools.permutations(cats)}
    assert len(results) == 1


def test_category_monotone_when_fixing_constituent():
    order = {"POOR": 0, "FAIR": 1, "GOOD": 2, "EXCELLENT": 3}
    base = _record(cl_wmc=100, cu_cdused=99, cl_comf=0.01)
    before = _criteria(base)["Analyzability"]
    fixed = _record(cl_wmc=100, cu_cdused=99, cl_comf=0.5)
    after = _criteria(fixed)["Analyzability"]
    assert order[after] >= order[before]


# ---------------------------------------------------------------------------
# kiviat rows
# ---------------------------------------------------------------------------


def test_kiviat_rows_canonical_order_and_flags():
    model, name = lexical_analyzer_model()
    rec = compute_class_record(model, name)
    rows = kiviat_rows(RangeTable(), rec)
    assert [r.mnemonic for r in rows] == list(KIVIAT_ORDER)
    flagged = [r.mnemonic for r in rows if r.side != "IN"]
    assert flagged == ["cl_comf", "cl_stat", "cl_wmc", "cu_cdused"]

    model2, name2 = neural_network_model()
    rows2 = kiviat_rows(RangeTable(), compute_class_record(model2, name2))
    assert sum(1 for r in rows2 if r.side != "IN") == 8


def test_kiviat_statuses_consistent_with_metric_status():
    model, name = neural_network_model()
    rec = compute_class_record(model, name)
    ranges = RangeTable()
    for row in kiviat_rows(ranges, rec):
        assert row.side == metric_status(ranges, row.mnemonic, row.value)


def test_all_zero_record_flags_only_comment_rate():
    rec = dict.fromkeys(KIVIAT_ORDER, 0) | {"cl_comf": 0.0}
    rows = kiviat_rows(RangeTable(), rec)
    flagged = [r.mnemonic for r in rows if r.side != "IN"]
    assert flagged == ["cl_comf"]
    # undefined comf (zero-line class) flags the same way
    rec2 = dict.fromkeys(KIVIAT_ORDER, 0) | {"cl_comf": None}
    flagged2 = [r.mnemonic for r in kiviat_rows(RangeTable(), rec2) if r.side != "IN"]
    assert flagged2 == ["cl_comf"]


# ---------------------------------------------------------------------------
# recommendations
# ---------------------------------------------------------------------------


def test_low_comment_rate_advice_mentions_comments():
    rec = _record(cl_comf=0.01)
    rows = kiviat_rows(RangeTable(), rec)
    advice = recommendations(rows)
    assert len(advice) == 1
    assert "Comment" in advice[0]


def test_no_violations_no_advice():
    rec = _record()
    assert recommendations(kiviat_rows(RangeTable(), rec)) == []


def test_advice_without_a_phrase_names_the_direction():
    # no phrase is written for too few attributes: the fallback line
    ranges = RangeTable.from_config({"cl_data": {"min": 3, "max": 7}})
    rows = kiviat_rows(ranges, _record(cl_data=0))
    assert recommendations(rows) == ["cl_data: Increase cl_data to enter the acceptable range"]


def test_reference_class_advice_per_violation():
    model, name = neural_network_model()
    rec = compute_class_record(model, name)
    rows = kiviat_rows(RangeTable(), rec)
    advice = recommendations(rows)
    assert len(advice) == 8
    assert any("Directly Used Classes" in a for a in advice)


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------


def test_range_table_from_config_literal_infinities():
    table = RangeTable.from_config({
        "cl_wmc": {"min": 0, "max": 50},
        "cl_comf": {"min": 0.1, "max": "inf"},
        "cl_line": {"min": "-inf", "max": 3},
    })
    assert table.bounds("cl_wmc") == (0, 50)
    assert table.bounds("cl_comf")[1] == float("inf")
    assert table.bounds("cl_line") == (float("-inf"), 3)
    # untouched defaults survive
    assert table.bounds("cl_stat") == (0, 100)


def test_bad_config_rejected():
    with pytest.raises(ConfigError):
        RangeTable.from_config({"cl_wmc": {"min": 10, "max": 1}})
    with pytest.raises(ConfigError):
        RangeTable.from_config({"cl_wmc": {"min": "huge", "max": 1}})
    with pytest.raises(ConfigError):
        RangeTable.from_config({"cl_wmc": [0, 1]})
    with pytest.raises(ConfigError):
        RangeTable.from_config([["cl_wmc", 0, 1]])


@pytest.mark.parametrize("key", ["v", "ev", "iv", "CBO", "WMC", "custom"])
def test_range_for_anything_but_a_class_mnemonic_is_rejected(key):
    with pytest.raises(ConfigError, match=key):
        RangeTable.from_config({key: {"min": 1, "max": 2}})


def test_tool_config_load(tmp_path):
    p = tmp_path / "config.json"
    p.write_text(json.dumps({
        "ranges": {"cl_wmc": {"min": 0, "max": 99}},
        "churnMetrics": ["cl_stat", "cl_wmc"],
    }))
    cfg = ToolConfig.load(p)
    assert cfg.ranges.bounds("cl_wmc") == (0, 99)
    assert cfg.churn_metrics == ("cl_stat", "cl_wmc")


@pytest.mark.parametrize("churn", ["cl_stat", ["cbo"], ["cl_stat", "nosuch"], []])
def test_tool_config_rejects_bad_churn_metrics(churn):
    with pytest.raises(ConfigError):
        ToolConfig.from_dict({"churnMetrics": churn})


def test_tool_config_bad_json_reports_line(tmp_path):
    p = tmp_path / "config.json"
    p.write_text("{\n  broken\n}")
    with pytest.raises(ConfigError) as exc:
        ToolConfig.load(p)
    assert exc.value.line is not None


def test_missing_metric_raises():
    rec = _record(cl_wmc=None)  # undefined: flagged LOW, never quietly in range
    assert _criteria(rec)["Testability"] != "EXCELLENT"
    with pytest.raises(KeyError):
        CRITERIA["Nope"]
