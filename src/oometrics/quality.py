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
from collections import Counter
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

from .ck import KIVIAT_ORDER
from .errors import ConfigError
from .maintain import DEFAULT_BANDS, check_bands

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


def ranges_from_config(entries) -> dict[str, tuple[float, float]]:
    """DEFAULT_RANGES with the config's ``ranges`` entries merged in.
    Entries: class mnemonic -> {"min": x, "max": y}; "inf"/"-inf" accepted
    literally.  Unlisted mnemonics keep their defaults; any other mnemonic
    or bound key is a ConfigError, as it would change nothing, and so is a
    min above its max, checked over the merged table in its default order."""
    if not isinstance(entries, dict):
        raise ConfigError("ranges must be an object of class mnemonics")
    merged = dict(DEFAULT_RANGES)
    for mnemonic, spec in entries.items():
        if mnemonic not in KIVIAT_ORDER:
            raise ConfigError(f"ranges: not a class mnemonic: {mnemonic!r} (known: {', '.join(KIVIAT_ORDER)})")
        if not isinstance(spec, dict) or "min" not in spec or "max" not in spec:
            raise ConfigError(f"range for {mnemonic} needs min and max")
        extra = [k for k in spec if k not in ("min", "max")]
        if extra:
            raise ConfigError(f"range for {mnemonic}: unknown key {extra[0]!r} (known: min, max)")
        merged[mnemonic] = (_bound(mnemonic, spec["min"]), _bound(mnemonic, spec["max"]))
    for mnemonic, (lo, hi) in merged.items():
        if lo > hi:
            raise ConfigError(f"{mnemonic}: min {lo} exceeds max {hi}")
    return merged


def _bound(mnemonic: str, v) -> float:
    """A range bound: a number, or one of the infinity strings."""
    if isinstance(v, str):
        s = v.strip().lower()
        if s in ("inf", "+inf", "infinity"):
            return INF
        if s in ("-inf", "-infinity"):
            return -INF
    elif isinstance(v, (int, float)) and not isinstance(v, bool) and not math.isnan(v):
        return float(v)
    raise ConfigError(f"range for {mnemonic}: bad bound {json.dumps(v)}: a number, \"inf\" or \"-inf\"")


@dataclass(frozen=True)
class KiviatRow:
    mnemonic: str
    value: float | int | None
    min: float
    max: float
    side: str  # IN range, or the violated side: LOW | HIGH


def metric_status(ranges: dict[str, tuple[float, float]], mnemonic: str, value) -> str:
    """IN when min <= value <= max, else the violated side, LOW or HIGH.
    An undefined value (None) flags LOW: degenerate input is never quietly
    in range."""
    lo, hi = ranges[mnemonic]
    if value is None or value < lo:
        return "LOW"
    if value > hi:
        return "HIGH"
    return "IN"


def kiviat_rows(ranges: dict[str, tuple[float, float]], metrics: Mapping[str, float | int | None]) -> list[KiviatRow]:
    """The thirteen mnemonic rows in canonical order, read from a class's
    ``metrics``: the one place a class's mnemonics are checked against
    their ranges."""
    rows = []
    for m in KIVIAT_ORDER:
        value = metrics[m]
        lo, hi = ranges[m]
        rows.append(KiviatRow(mnemonic=m, value=value, min=lo, max=hi, side=metric_status(ranges, m, value)))
    return rows


def criteria_categories(rows: list[KiviatRow]) -> dict[str, str]:
    """Each criterion's category: EXCELLENT with every constituent in
    range, one step down per constituent out of range, POOR from three."""
    out = {r.mnemonic for r in rows if r.side != "IN"}
    return {name: CATEGORIES[min(sum(m in out for m in ms), 3)] for name, ms in CRITERIA.items()}


def maintainability(categories: Iterable[str]) -> str:
    """Fold the four criterion categories into one.  Points: EXCELLENT 3,
    GOOD 2, FAIR 1, POOR 0; total >= 11 EXCELLENT, 8-10 GOOD, 5-7 FAIR,
    else POOR."""
    total = sum(_CATEGORY_POINTS[c] for c in categories)
    if total >= 11:
        return "EXCELLENT"
    if total >= 8:
        return "GOOD"
    if total >= 5:
        return "FAIR"
    return "POOR"


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


def recommendations(rows: list[KiviatRow]) -> list[str]:
    """One deterministic advice line per violated mnemonic."""
    advice: list[str] = []
    for row in rows:
        if row.side == "IN":
            continue
        text = _ADVICE.get((row.mnemonic, row.side))
        if text is None:
            direction = "Increase" if row.side == "LOW" else "Reduce"
            text = f"{direction} {row.mnemonic} to enter the acceptable range"
        advice.append(f"{row.mnemonic}: {text}")
    return advice


# ---------------------------------------------------------------------------
# Config file
# ---------------------------------------------------------------------------


DEFAULT_CHURN_METRICS = ("cl_stat", "cl_wmc", "cl_func", "cl_data", "cu_cdused")


@dataclass(frozen=True)
class ToolConfig:
    """A checked config.  ``ranges`` and ``sig_bands`` are the complete
    tables, the defaults merged with the file's entries once."""

    ranges: dict[str, tuple[float, float]] = field(default_factory=lambda: dict(DEFAULT_RANGES))
    sig_bands: dict = field(default_factory=lambda: dict(DEFAULT_BANDS))
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
        known = ("ranges", "sigBands", "churnMetrics", "qmoodBaseline")
        for key in doc:
            if key not in known:
                raise ConfigError(f"unknown config key {key!r} (known: {', '.join(known)})")
        ranges = ranges_from_config(doc.get("ranges", {}))
        churn = doc.get("churnMetrics", list(DEFAULT_CHURN_METRICS))
        if not isinstance(churn, list) or not churn:
            raise ConfigError("churnMetrics must be a non-empty list of class mnemonics")
        unknown = [m for m in churn if m not in KIVIAT_ORDER]
        if unknown:
            raise ConfigError(
                f"churnMetrics: not class mnemonics: {unknown!r} (known: {', '.join(KIVIAT_ORDER)})"
            )
        repeated = [m for m, n in Counter(churn).items() if n > 1]
        if repeated:
            raise ConfigError(f"churnMetrics: {repeated[0]!r} is listed more than once")
        sig_bands = doc.get("sigBands", {})
        check_bands(sig_bands)
        baseline = doc.get("qmoodBaseline")
        if "qmoodBaseline" in doc and not isinstance(baseline, str):
            raise ConfigError(f"qmoodBaseline must be the path of a facts file, got {json.dumps(baseline)}")
        return cls(
            ranges=ranges,
            sig_bands=DEFAULT_BANDS | sig_bands,
            churn_metrics=tuple(churn),
            qmood_baseline=baseline,
            raw=doc,
        )
