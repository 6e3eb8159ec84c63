"""Maintainability Index and the source-measurable legs of the SIG
maintainability model.

MI uses base-2 logarithms:

    MI = 171 - 5.2*log2(V) - 0.23*G - 16.2*log2(LOC) + 50*sin(sqrt(2.4*CM))

with CM a percentage and the sine argument in radians.  When CM is not
supplied the sine term is dropped entirely.

The SIG model rates volume, complexity-per-unit, unit size and
duplication on a ++/+/o/-/-- scale and reports unit testing as
not-assessed.  The band thresholds are this tool's shipped defaults (the
model's sources do not publish them); all of them can be overridden from
the config file.
"""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import dataclass

from .complexity import cyclomatic
from .errors import ConfigError, DomainError, EmptyModel
from .model import SystemModel

RATINGS = ("++", "+", "o", "-", "--")
_RATING_VALUE = {"++": 2, "+": 1, "o": 0, "-": -1, "--": -2}
_VALUE_RATING = {v: k for k, v in _RATING_VALUE.items()}

NOT_ASSESSED = "not-assessed"


def maintainability_index(
    V: float,
    G: float,
    LOC: float,
    CM: float | None = 0.0,
) -> float:
    """Composite maintainability; lower is worse, classic ceiling 171."""
    if V <= 0:
        raise DomainError(f"Halstead volume must be positive, got {V}")
    if LOC <= 0:
        raise DomainError(f"LOC must be positive, got {LOC}")
    if G < 1:
        raise DomainError(f"cyclomatic complexity starts at 1, got {G}")
    mi = 171.0 - 5.2 * math.log2(V) - 0.23 * G - 16.2 * math.log2(LOC)
    if CM is not None:
        if not 0 <= CM <= 100:
            raise DomainError(f"comment percentage out of [0, 100]: {CM}")
        mi += 50.0 * math.sin(math.sqrt(2.4 * CM))
    return mi


# ---------------------------------------------------------------------------
# SIG model
# ---------------------------------------------------------------------------

#: shipped band defaults (tool-defined)
DEFAULT_BANDS: dict = {
    # total lines of code -> volume rating
    "volume": [(66_000, "++"), (246_000, "+"), (665_000, "o"), (1_310_000, "-")],
    # per-method cyclomatic risk bands
    "complexityRisk": {"moderate": 10, "high": 20, "veryHigh": 50},
    # ceilings for % of code in moderate/high/very-high risk, per rating
    "complexityProfile": [
        ("++", 25.0, 0.0, 0.0),
        ("+", 30.0, 5.0, 0.0),
        ("o", 40.0, 10.0, 0.0),
        ("-", 50.0, 15.0, 5.0),
    ],
    # per-method LOC risk bands
    "unitSizeRisk": {"moderate": 30, "high": 44, "veryHigh": 74},
    "unitSizeProfile": [
        ("++", 25.0, 0.0, 0.0),
        ("+", 30.0, 5.0, 0.0),
        ("o", 40.0, 10.0, 0.0),
        ("-", 50.0, 15.0, 5.0),
    ],
    # duplicated-line percentage -> rating
    "duplication": [(3.0, "++"), (5.0, "+"), (10.0, "o"), (20.0, "-")],
    # window length for duplicated blocks
    "duplicationWindow": 6,
}


@dataclass(frozen=True)
class SigRating:
    volume: str
    complexity_per_unit: str
    duplication: str  # rating or not-assessed
    unit_size: str  # rating or not-assessed
    unit_testing: str  # always not-assessed (needs execution data)
    overall: str

    def as_dict(self) -> dict[str, str]:
        return {
            "volume": self.volume,
            "complexityPerUnit": self.complexity_per_unit,
            "duplication": self.duplication,
            "unitSize": self.unit_size,
            "unitTesting": self.unit_testing,
            "overall": self.overall,
        }


def check_bands(overrides) -> None:
    """Raise ConfigError unless every override names a band of
    DEFAULT_BANDS and has its default's shape (see :func:`_fits`), with a
    duplication window of at least one line."""
    if not isinstance(overrides, dict):
        raise ConfigError("sigBands must be an object of SIG bands")
    for key, value in overrides.items():
        if key not in DEFAULT_BANDS:
            raise ConfigError(f"sigBands: not a SIG band: {key!r} (known: {', '.join(DEFAULT_BANDS)})")
        default = DEFAULT_BANDS[key]
        if not _fits(value, default):
            raise ConfigError(f"sigBands: {key} must have the shape of {json.dumps(default)}, got {json.dumps(value)}")
    if overrides.get("duplicationWindow", 1) < 1:
        raise ConfigError("sigBands: duplicationWindow must be at least 1 line")


def _fits(value, default) -> bool:
    """Whether ``value`` has the shape of the band default: an object with
    the same keys, a list of rows as long as the default's rows, a rating
    where the default has one, an integer where it has an integer, and any
    number where it has a float."""
    if isinstance(default, dict):
        return isinstance(value, dict) and value.keys() == default.keys() and all(
            _fits(value[k], d) for k, d in default.items()
        )
    if isinstance(default, list):  # a table: rows shaped like its first
        return isinstance(value, list) and all(_fits(row, default[0]) for row in value)
    if isinstance(default, tuple):  # one row of a table
        return isinstance(value, list) and len(value) == len(default) and all(map(_fits, value, default))
    if isinstance(default, str):
        return value in RATINGS
    if isinstance(value, bool):
        return False
    return isinstance(value, int) or (isinstance(default, float) and isinstance(value, float))


def _merge_bands(overrides: dict | None) -> dict:
    bands = {k: v for k, v in DEFAULT_BANDS.items()}
    if overrides:
        bands.update(overrides)
    return bands


def _band_rating(value: float, table: list) -> str:
    for limit, rating in table:
        if value <= limit:
            return rating
    return "--"


def _profile_rating(profile: list, moderate: float, high: float, very_high: float) -> str:
    for rating, m_cap, h_cap, v_cap in profile:
        if moderate <= m_cap and high <= h_cap and very_high <= v_cap:
            return rating
    return "--"


def _risk_band(value: float, risk: dict) -> str:
    if value <= risk["moderate"]:
        return "low"
    if value <= risk["high"]:
        return "moderate"
    if value <= risk["veryHigh"]:
        return "high"
    return "veryHigh"


def sig_rating(
    model: SystemModel,
    source_texts: dict[str, str] | None = None,
    bands: dict | None = None,
) -> SigRating:
    """Rate the model; duplication needs the raw texts and reports
    not-assessed without them.  Unit size falls back to statement-node
    counts when a method carries no line count."""
    cfg = _merge_bands(bands)
    classes = model.internal_classes
    if not classes:
        raise EmptyModel("no classes to rate")

    total_loc = sum(c.line_count for c in classes)
    volume = _band_rating(float(total_loc), cfg["volume"])

    # complexity and unit-size profiles, weighted by unit size
    risk_loc = {"low": 0.0, "moderate": 0.0, "high": 0.0, "veryHigh": 0.0}
    size_loc = {"low": 0.0, "moderate": 0.0, "high": 0.0, "veryHigh": 0.0}
    any_units = False
    for c in classes:
        for m in c.member_functions:
            if m.cfg is None:
                continue
            any_units = True
            size = float(m.line_count if m.line_count else m.cfg.statement_node_count)
            v = cyclomatic(m.cfg)
            risk_loc[_risk_band(v, cfg["complexityRisk"])] += size
            size_loc[_risk_band(size, cfg["unitSizeRisk"])] += size
    if any_units and sum(risk_loc.values()) > 0:
        total = sum(risk_loc.values())
        complexity = _profile_rating(
            cfg["complexityProfile"],
            100.0 * risk_loc["moderate"] / total,
            100.0 * risk_loc["high"] / total,
            100.0 * risk_loc["veryHigh"] / total,
        )
        unit_size = _profile_rating(
            cfg["unitSizeProfile"],
            100.0 * size_loc["moderate"] / total,
            100.0 * size_loc["high"] / total,
            100.0 * size_loc["veryHigh"] / total,
        )
    else:
        complexity = NOT_ASSESSED
        unit_size = NOT_ASSESSED

    if source_texts:
        pct = duplication_percent(source_texts, window=cfg["duplicationWindow"])
        duplication = _band_rating(pct, cfg["duplication"])
    else:
        duplication = NOT_ASSESSED

    rated = [r for r in (volume, complexity, duplication, unit_size) if r != NOT_ASSESSED]
    mean = sum(_RATING_VALUE[r] for r in rated) / len(rated)
    overall = _VALUE_RATING[_round_half_away(mean)]
    return SigRating(
        volume=volume,
        complexity_per_unit=complexity,
        duplication=duplication,
        unit_size=unit_size,
        unit_testing=NOT_ASSESSED,
        overall=overall,
    )


def _round_half_away(x: float) -> int:
    return int(math.floor(x + 0.5)) if x >= 0 else -int(math.floor(-x + 0.5))


# ---------------------------------------------------------------------------
# Duplication
# ---------------------------------------------------------------------------


def _normalize(line: str) -> str:
    return "".join(line.split())  # spacing and indentation never break a match


def duplicated_line_flags(texts: dict[str, str], window: int = 6) -> dict[str, list[bool]]:
    """Per file, which physical lines sit inside a duplicated block: a run
    of ``window`` consecutive whitespace-normalized lines occurring at two
    or more distinct positions in the corpus."""
    files = sorted(texts)
    # every normalized line becomes an int id, and the files one id array;
    # a window's key is the exact bytes of its ids
    ids: dict[str, int] = {}
    line_ids = array("I")
    starts = [0]
    for f in files:
        line_ids.extend(ids.setdefault(_normalize(l), len(ids)) for l in texts[f].splitlines())
        starts.append(len(line_ids))
    data = line_ids.tobytes()
    width = line_ids.itemsize
    span = window * width
    first: dict[bytes, int] = {}  # window key -> its first position
    marks = bytearray(len(line_ids))
    run = b"\1" * window
    for lo, hi in zip(starts, starts[1:]):
        for i in range(lo, hi - window + 1):
            key = data[i * width:i * width + span]
            j = first.setdefault(key, i)
            if j != i:
                marks[j:j + window] = run
                marks[i:i + window] = run
    return {f: list(map(bool, marks[lo:hi])) for f, lo, hi in zip(files, starts, starts[1:])}


def duplication_percent(texts: dict[str, str], window: int = 6) -> float:
    """Percent of all physical lines lying in duplicated blocks."""
    flags = duplicated_line_flags(texts, window)
    total = sum(len(v) for v in flags.values())
    if total == 0:
        return 0.0
    duplicated = sum(sum(v) for v in flags.values())
    return 100.0 * duplicated / total
