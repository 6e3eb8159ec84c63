"""Three-level quality evaluation: metric status against acceptable
ranges, criteria (analyzability, changeability, stability, testability),
and the maintainability factor with Excellent/Good/Fair/Poor ranking.

The acceptable ranges ship with the defaults below and can be overridden
from the config file.  The criterion scoring (how many constituents are
out of range) and the factor point bands are this tool's own scheme; the
source tooling never published one.  The scheme is calibrated so the
bundled reference fixtures rank the way the original reports rank them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .ck import KIVIAT_ORDER, ClassMetricsRecord
from .errors import ConfigError, MissingMetric, UnknownMnemonic

INF = math.inf

#: class-mnemonic acceptable ranges (min, max), one per Kiviat axis
DEFAULT_RANGES: dict[str, tuple[float, float]] = {
    "cl_comf": (0.2, INF),
    "cl_comm": (-INF, INF),
    "cl_data": (0, 7),
    "cl_data_publ": (0, 0),
    "cl_func": (0, 25),
    "cl_func_publ": (0, 15),
    "cl_line": (-INF, INF),
    "cl_stat": (0, 100),
    "cl_wmc": (0, 60),
    "cu_cdused": (0, 10),
    "cu_cdusers": (0, 5),
    "in_bases": (0, 3),
    "in_noc": (0, 3),
}

CRITERIA: dict[str, tuple[str, ...]] = {
    "Analyzability": ("cl_wmc", "cl_comf", "in_bases", "cu_cdused"),
    "Changeability": ("cl_stat", "cl_func", "cl_data"),
    "Stability": ("cl_data_publ", "cu_cdusers", "in_noc", "cl_func_publ"),
    "Testability": ("cl_wmc", "cl_func", "cu_cdused"),
}

CATEGORIES = ("EXCELLENT", "GOOD", "FAIR", "POOR")

_CATEGORY_POINTS = {"EXCELLENT": 3, "GOOD": 2, "FAIR": 1, "POOR": 0}


@dataclass(frozen=True)
class RangeTable:
    ranges: dict[str, tuple[float, float]] = field(default_factory=lambda: dict(DEFAULT_RANGES))

    def __post_init__(self):
        for mnemonic, (lo, hi) in self.ranges.items():
            if lo > hi:
                raise ConfigError(f"{mnemonic}: min {lo} exceeds max {hi}")

    def bounds(self, mnemonic: str) -> tuple[float, float]:
        try:
            return self.ranges[mnemonic]
        except KeyError:
            raise UnknownMnemonic(mnemonic) from None

    @classmethod
    def from_config(cls, entries: dict) -> "RangeTable":
        """Entries: class mnemonic -> {"min": x, "max": y}; "inf"/"-inf"
        accepted literally.  Unlisted mnemonics keep their defaults; any
        other key is a ConfigError, as it would change nothing."""
        if not isinstance(entries, dict):
            raise ConfigError("ranges must be an object of class mnemonics")
        merged = dict(DEFAULT_RANGES)
        for mnemonic, spec in entries.items():
            if mnemonic not in KIVIAT_ORDER:
                raise ConfigError(f"ranges: not a class mnemonic: {mnemonic!r} (known: {', '.join(KIVIAT_ORDER)})")
            if not isinstance(spec, dict) or "min" not in spec or "max" not in spec:
                raise ConfigError(f"range for {mnemonic} needs min and max")
            merged[mnemonic] = (_bound(spec["min"]), _bound(spec["max"]))
        return cls(merged)


def _bound(v) -> float:
    if isinstance(v, str):
        s = v.strip().lower()
        if s in ("inf", "+inf", "infinity"):
            return INF
        if s in ("-inf", "-infinity"):
            return -INF
        raise ConfigError(f"bad bound: {v!r}")
    return float(v)


@dataclass(frozen=True)
class MetricStatus:
    status: int  # 0 in range, -1 out
    side: str  # LOW | HIGH | IN


@dataclass(frozen=True)
class CriterionResult:
    criterion: str
    statuses: dict[str, MetricStatus]
    in_range_count: int
    category: str


@dataclass(frozen=True)
class KiviatRow:
    mnemonic: str
    value: float | int | None
    min: float
    max: float
    status: int  # 0 | -1


def metric_status(ranges: RangeTable, mnemonic: str, value) -> MetricStatus:
    """0 when min <= value <= max, else -1 with the violated side.
    An undefined value (None) flags LOW: degenerate input is never quietly
    in range."""
    lo, hi = ranges.bounds(mnemonic)
    if value is None:
        return MetricStatus(-1, "LOW")
    if value < lo:
        return MetricStatus(-1, "LOW")
    if value > hi:
        return MetricStatus(-1, "HIGH")
    return MetricStatus(0, "IN")


def criterion(ranges: RangeTable, record: ClassMetricsRecord, which: str) -> CriterionResult:
    try:
        constituents = CRITERIA[which]
    except KeyError:
        raise ConfigError(f"unknown criterion: {which}") from None
    mnemonics = record.mnemonics()
    statuses: dict[str, MetricStatus] = {}
    for m in constituents:
        if m not in mnemonics:
            raise MissingMetric(m)
        statuses[m] = metric_status(ranges, m, mnemonics[m])
    out = sum(1 for s in statuses.values() if s.status != 0)
    category = CATEGORIES[min(out, 3)]
    return CriterionResult(
        criterion=which,
        statuses=statuses,
        in_range_count=len(constituents) - out,
        category=category,
    )


def all_criteria(ranges: RangeTable, record: ClassMetricsRecord) -> dict[str, CriterionResult]:
    return {name: criterion(ranges, record, name) for name in CRITERIA}


def maintainability(criteria: dict[str, CriterionResult] | list[CriterionResult]) -> str:
    """Fold the four criteria into one category.  Points: EXCELLENT 3,
    GOOD 2, FAIR 1, POOR 0; total >= 11 EXCELLENT, 8-10 GOOD, 5-7 FAIR,
    else POOR."""
    items = list(criteria.values()) if isinstance(criteria, dict) else list(criteria)
    if len(items) != 4:
        raise MissingMetric("maintainability needs all four criteria")
    total = sum(_CATEGORY_POINTS[c.category] for c in items)
    if total >= 11:
        return "EXCELLENT"
    if total >= 8:
        return "GOOD"
    if total >= 5:
        return "FAIR"
    return "POOR"


def kiviat_rows(ranges: RangeTable, record: ClassMetricsRecord) -> list[KiviatRow]:
    """The thirteen mnemonic rows in canonical order."""
    mnemonics = record.mnemonics()
    rows = []
    for m in KIVIAT_ORDER:
        if m not in mnemonics:
            raise MissingMetric(m)
        lo, hi = ranges.bounds(m)
        st = metric_status(ranges, m, mnemonics[m])
        rows.append(KiviatRow(mnemonic=m, value=mnemonics[m], min=lo, max=hi, status=st.status))
    return rows


#: advice per (mnemonic, side); wording follows the report phrasing of the
#: source tooling
_ADVICE: dict[tuple[str, str], str] = {
    ("cl_comf", "LOW"): "Increase Comment Rate (Improves Understandability)",
    ("cl_comm", "LOW"): "Increase the number of comment lines (Improves Understandability)",
    ("cl_data", "HIGH"): "Reduce the Total Number of Attributes (Reduce Complexity)",
    ("cl_data_publ", "HIGH"): "Remove public attributes or make them private (Improves Encapsulation)",
    ("cl_func", "HIGH"): "Reduce the Total Number of Methods (Reduce Complexity)",
    ("cl_func_publ", "HIGH"): "Reduce the Number of Public Methods, consider splitting the class",
    ("cl_line", "HIGH"): "Reduce the size of the class",
    ("cl_stat", "HIGH"): "Reduce the Number of Statements (Reduce Complexity)",
    ("cl_wmc", "HIGH"): "Reduce the Number of Weighted Methods per Class (Reduce Complexity)",
    ("cu_cdused", "HIGH"): "Decrease number of Directly Used Classes (Reduce Inheritance Relationships)",
    ("cu_cdusers", "HIGH"): "Decrease the number of Direct User Classes (Reduce Coupling)",
    ("in_bases", "HIGH"): "Reduce the number of Base Classes (Reduce Inheritance Relationships)",
    ("in_noc", "HIGH"): "Reduce the number of Children Classes (Reduce Coupling)",
}


def recommendations(record: ClassMetricsRecord, rows: list[KiviatRow]) -> list[str]:
    """One deterministic advice line per violated mnemonic."""
    ranges_by_mnemonic = {r.mnemonic: r for r in rows}
    advice: list[str] = []
    for m in KIVIAT_ORDER:
        row = ranges_by_mnemonic.get(m)
        if row is None or row.status == 0:
            continue
        side = "LOW" if (row.value is None or row.value < row.min) else "HIGH"
        text = _ADVICE.get((m, side))
        if text is None:
            direction = "Increase" if side == "LOW" else "Reduce"
            text = f"{direction} {m} to enter the acceptable range"
        advice.append(f"{m}: {text}")
    return advice


# ---------------------------------------------------------------------------
# Config file
# ---------------------------------------------------------------------------


DEFAULT_CHURN_METRICS = ("cl_stat", "cl_wmc", "cl_func", "cl_data", "cu_cdused")


@dataclass(frozen=True)
class ToolConfig:
    ranges: RangeTable = field(default_factory=RangeTable)
    sig_bands: dict = field(default_factory=dict)  # maintain.DEFAULT_BANDS overrides
    churn_metrics: tuple[str, ...] = DEFAULT_CHURN_METRICS
    qmood_baseline: str | None = None  # facts file path
    raw: dict = field(default_factory=dict)

    @classmethod
    def load(cls, path) -> "ToolConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(str(exc.msg), line=exc.lineno) from None
        except OSError as exc:
            raise ConfigError(str(exc)) from None
        return cls.from_dict(doc)

    @classmethod
    def from_dict(cls, doc: dict) -> "ToolConfig":
        if not isinstance(doc, dict):
            raise ConfigError("config root must be an object")
        ranges = RangeTable.from_config(doc.get("ranges", {}))
        churn = doc.get("churnMetrics", list(DEFAULT_CHURN_METRICS))
        if not isinstance(churn, list) or not churn:
            raise ConfigError("churnMetrics must be a non-empty list of class mnemonics")
        unknown = [m for m in churn if m not in KIVIAT_ORDER]
        if unknown:
            raise ConfigError(
                f"churnMetrics: not class mnemonics: {unknown!r} (known: {', '.join(KIVIAT_ORDER)})"
            )
        return cls(
            ranges=ranges,
            sig_bands=doc.get("sigBands", {}),
            churn_metrics=tuple(churn),
            qmood_baseline=doc.get("qmoodBaseline"),
            raw=doc,
        )
