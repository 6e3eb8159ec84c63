"""Report assembly and emission: per-class metric records, the quality
report JSON document, Kiviat SVG charts, and scatter/quadrant CSV data.

Everything here is deterministic for identical inputs: class lists are
sorted, floats are formatted with fixed precision in SVG output, and the
JSON serializer sorts keys.
"""

from __future__ import annotations

import hashlib
import json
import math
from itertools import islice

from . import cohesion, qmood
from .ck import KIVIAT_ORDER, cbo, dit, logiscope_mnemonics, mpc, rfc
from .complexity import cyclomatic, quadrant
from .errors import DegenerateSystem, EmptyModel, MetricsError, UndefinedMetric, WrongAxisCount
from .halstead import HalsteadCounts
from .maintain import maintainability_index, sig_rating
from .model import SystemModel
from .mood import mood
from .quality import (
    CATEGORIES, CRITERIA, ToolConfig, criteria_categories, kiviat_rows, maintainability, recommendations,
)

SCHEMA_VERSION = 1
TOOL_NAME = "oometrics"


def compute_class_record(model: SystemModel, name: str) -> dict:
    """Every per-class value the report prints, keyed as its ``metrics``
    object: the thirteen mnemonics, CK and coupling, cohesion, the QMOOD
    design metrics, then ``methods``, one row per method with a CFG.
    ``None`` marks a metric whose preconditions failed (comment rate of a
    zero-line class, cohesion of a one-method class, and so on): this is
    the one place an ``UndefinedMetric`` becomes ``None``."""
    info = model.get(name)
    rec = logiscope_mnemonics(model, name)
    rec.update(cbo=cbo(model, name), rfc=rfc(model, name), dit=dit(model, name), mpc=mpc(model, name))
    for key, value in cohesion.class_cohesion(info).items():
        rec[key] = None if isinstance(value, UndefinedMetric) else value
    rec.update(qmood.qmood_class_metrics(model, name))
    # aliases: DAC counts what QMOOD's MOA counts, attributes typed by another system class
    rec.update(wmc=rec["cl_wmc"], noc=rec["in_noc"], dac=rec["moa"])

    rows = []
    for m in info.member_functions:
        if (g := m.cfg) is not None:
            rows.append((m.signature, cyclomatic(g), g.ev, g.iv))
    rec["methods"] = [
        {"signature": s, "v": v, "ev": ev, "iv": iv, "quadrant": quadrant(v, ev)}
        for s, v, ev, iv in sorted(rows)
    ]
    return rec


def _histogram(categories: list[str]) -> dict:
    counts = dict.fromkeys(CATEGORIES, 0)
    for c in categories:
        counts[c] += 1
    total = max(len(categories), 1)
    return {
        "counts": counts,
        "percent": {c: round(100.0 * n / total, 2) for c, n in counts.items()},
    }


def _config_fingerprint(config: ToolConfig) -> str:
    blob = json.dumps(config.raw, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def compute_report(
    model: SystemModel,
    config: ToolConfig | None = None,
    halstead: HalsteadCounts | None = None,
    source_texts: dict[str, str] | None = None,
    baseline_model: SystemModel | None = None,
    partial: bool = False,
) -> dict:
    """The full quality report as a JSON-ready dictionary."""
    config = config or ToolConfig()
    ranges = config.ranges
    names = model.internal_class_names
    if not names:
        raise EmptyModel("nothing to report on")

    class_sections = []
    maintainability_cats: list[str] = []
    criteria_cats: dict[str, list[str]] = {k: [] for k in CRITERIA}
    for name in names:
        rec = compute_class_record(model, name)
        rows = kiviat_rows(ranges, rec)
        crits = criteria_categories(rows)
        factor = maintainability(crits.values())
        maintainability_cats.append(factor)
        for k, category in crits.items():
            criteria_cats[k].append(category)
        class_sections.append(
            {
                "name": name,
                "metrics": rec,
                "criteria": crits,
                "maintainability": factor,
                "violations": [r.mnemonic for r in rows if r.side != "IN"],
                "recommendations": recommendations(rows),
            }
        )

    # mood() reaches the coupling factor too, and fails only where it does
    system: dict = {"couplingFactor": None, "mood": None}
    try:
        factors = mood(model)
    except DegenerateSystem:
        pass
    else:  # the report prints MOOD as percentages, one decimal
        system["couplingFactor"] = factors["CF"]
        system["mood"] = {k: None if v is None else round(v * 100, 1) for k, v in factors.items()}

    dsc, noh, ana = qmood.qmood_system_metrics(model)
    system["qmood"] = {"DSC": dsc, "NOH": noh, "ANA": ana}
    baseline = None
    if baseline_model is not None:
        baseline = qmood.property_vector(baseline_model)
    # each class's metrics carry its QMOOD design metrics
    per_class = [section["metrics"] for section in class_sections]
    properties = qmood.design_properties((dsc, noh, ana), per_class, baseline=baseline)
    system["qmood"]["properties"] = properties
    try:
        system["qmood"]["indices"] = qmood.quality_indices(properties)
    except MetricsError as exc:
        system["qmood"]["indices"] = None
        system["qmood"]["indicesError"] = str(exc)

    system["sig"] = sig_rating(model, source_texts=source_texts, bands=config.sig_bands)
    system["mi"] = _system_mi(model, halstead)

    report = {
        "schemaVersion": SCHEMA_VERSION,
        "tool": {"name": TOOL_NAME, "version": _tool_version()},
        "configFingerprint": _config_fingerprint(config),
        "partial": partial,
        "classes": class_sections,
        "system": system,
        "histogram": {
            "maintainability": _histogram(maintainability_cats),
            "criteria": {k: _histogram(v) for k, v in criteria_cats.items()},
        },
    }
    return report


def _tool_version() -> str:
    from . import __version__

    return __version__


def _system_mi(model: SystemModel, counts: HalsteadCounts | None) -> dict | None:
    """System MI from totals; needs token-level input, so facts-only runs
    report it as unavailable."""
    if counts is None:
        return None
    loc = sum(c.line_count for c in model.internal_classes)
    comments = sum(c.comment_lines for c in model.internal_classes)
    methods = [m for c in model.internal_classes for m in c.member_functions if m.cfg is not None]
    if counts.volume <= 0 or loc <= 0 or not methods:
        return None
    g = sum(cyclomatic(m.cfg) for m in methods) / len(methods)
    cm = 100.0 * comments / loc
    return {
        "value": maintainability_index(counts.volume, g, loc, cm),
        "volume": counts.volume,
        "avgCyclomatic": g,
        "loc": loc,
        "commentPercent": cm,
    }


#: encoder chunks joined at a time; listing them all at once (as
#: ``json.dumps`` does) costs several times the output
SERIALIZE_BATCH = 8192


def serialize_report(report: dict) -> str:
    """A JSON document as the CLI writes it: sorted keys, two-space indent,
    one final newline, the bytes of ``json.dumps(report, indent=2,
    sort_keys=True) + "\\n"``.  The report, the facts file ``analyze --out``
    writes, ``evolve`` and ``compare`` share it."""
    chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(report)
    batches = list(iter(lambda: "".join(islice(chunks, SERIALIZE_BATCH)), ""))  # "" once they run out
    batches.append("\n")
    return "".join(batches)


def report_text_summary(report: dict) -> str:
    """Short human-readable rendering of the JSON report."""
    lines = []
    hist = report["histogram"]["maintainability"]
    lines.append(f"{TOOL_NAME} quality report (schema {report['schemaVersion']})")
    lines.append(f"classes analyzed: {len(report['classes'])}")
    lines.append("maintainability: " + "  ".join(
        f"{cat}={hist['counts'][cat]} ({hist['percent'][cat]}%)"
        for cat in CATEGORIES
    ))
    sys_sec = report["system"]
    if sys_sec.get("couplingFactor") is not None:
        lines.append(f"coupling factor: {sys_sec['couplingFactor']:.4f}")
    q = sys_sec["qmood"]
    lines.append(f"QMOOD: DSC={q['DSC']} NOH={q['NOH']} ANA={q['ANA']:.2f}")
    if q.get("indices"):
        tqi = q["indices"]["TQI"]
        lines.append(f"TQI: {tqi:.4f}")
    if sys_sec.get("mood"):
        moods = " ".join(f"{k}={v}" for k, v in sorted(sys_sec["mood"].items()))
        lines.append(f"MOOD%: {moods}")
    if sys_sec.get("mi"):
        lines.append(f"MI: {sys_sec['mi']['value']:.2f}")
    lines.append(f"SIG overall: {sys_sec['sig']['overall']}")
    worst = [c["name"] for c in report["classes"] if c["maintainability"] == "POOR"]
    if worst:
        lines.append("poor classes: " + ", ".join(worst))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Kiviat SVG
# ---------------------------------------------------------------------------

_SVG_SIZE = 520
_CENTER = _SVG_SIZE / 2
_R_MIN = 60.0  # inner ring: acceptable-range minimum
_R_MAX = 160.0  # outer ring: acceptable-range maximum
_R_CAP = 225.0


def _axis_radius(value, lo: float, hi: float) -> float:
    """Map a value onto its axis: the two rings mark the acceptable range;
    infinite bounds get a conventional span."""
    if value is None:
        return _R_CAP
    v = float(value)
    low = 0.0 if math.isinf(lo) else float(lo)
    high = float(hi)
    if math.isinf(high):
        high = max(low + 1.0, 2.0 * max(v, low, 1.0))
    if high == low:
        # degenerate range (e.g. public attributes 0..0): in-range at the
        # midpoint of the rings, violations pushed outside
        if v == low:
            return (_R_MIN + _R_MAX) / 2
        return _R_CAP if v > low else _R_MIN / 2
    frac = (v - low) / (high - low)
    r = _R_MIN + frac * (_R_MAX - _R_MIN)
    return max(10.0, min(_R_CAP, r))


def emit_kiviat_svg(rows, class_name: str) -> str:
    """Deterministic radar chart: 13 axes, min/max reference rings, value
    polygon, out-of-range vertices marked."""
    if len(rows) != len(KIVIAT_ORDER):
        raise WrongAxisCount(len(rows), len(KIVIAT_ORDER))
    n = len(rows)
    parts: list[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_SIZE}" height="{_SVG_SIZE}" '
        f'viewBox="0 0 {_SVG_SIZE} {_SVG_SIZE}">'
    )
    parts.append(f'<title>{_esc(class_name)}</title>')
    parts.append(f'<rect width="{_SVG_SIZE}" height="{_SVG_SIZE}" fill="white"/>')
    for radius, color in ((_R_MIN, "#999999"), (_R_MAX, "#555555")):
        parts.append(
            f'<circle cx="{_CENTER}" cy="{_CENTER}" r="{radius:.2f}" '
            f'fill="none" stroke="{color}" stroke-dasharray="4 3"/>'
        )

    def point(idx: int, radius: float) -> tuple[float, float]:
        angle = -math.pi / 2 + 2 * math.pi * idx / n
        return (_CENTER + radius * math.cos(angle), _CENTER + radius * math.sin(angle))

    # axes and labels
    for idx, row in enumerate(rows):
        x, y = point(idx, _R_CAP)
        parts.append(
            f'<line x1="{_CENTER}" y1="{_CENTER}" x2="{x:.2f}" y2="{y:.2f}" '
            f'stroke="#cccccc" stroke-width="1"/>'
        )
        lx, ly = point(idx, _R_CAP + 18)
        parts.append(
            f'<text x="{lx:.2f}" y="{ly:.2f}" font-size="11" text-anchor="middle">'
            f"{_esc(row.mnemonic)}</text>"
        )
    # value polygon
    coords = []
    for idx, row in enumerate(rows):
        r = _axis_radius(row.value, row.min, row.max)
        coords.append(point(idx, r))
    path = " ".join(f"{x:.2f},{y:.2f}" for x, y in coords)
    parts.append(f'<polygon points="{path}" fill="#3366cc33" stroke="#3366cc" stroke-width="2"/>')
    # vertex markers: violations in red
    for idx, row in enumerate(rows):
        x, y = coords[idx]
        if row.side != "IN":
            parts.append(
                f'<circle cx="{x:.2f}" cy="{y:.2f}" r="6" fill="#cc2222" '
                f'class="violation" data-mnemonic="{_esc(row.mnemonic)}"/>'
            )
        else:
            parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="#3366cc"/>')
    parts.append(
        f'<text x="{_CENTER}" y="{_SVG_SIZE - 8}" font-size="12" text-anchor="middle">'
        f"{_esc(class_name)}</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _esc(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;").replace('"', "&quot;")


# ---------------------------------------------------------------------------
# Scatter / quadrant CSV
# ---------------------------------------------------------------------------


def emit_scatter(method_rows: list[tuple[str, str, int, int]]) -> tuple[str, dict[str, int]]:
    """Rows (class, method, v, ev) -> the CSV and the methods in each quadrant."""
    lines = ["method,class,v,ev,quadrant"]
    counts = {"I": 0, "II": 0, "III": 0, "IV": 0}
    for cls, method, v, ev in sorted(method_rows):
        q = quadrant(v, ev)
        counts[q] += 1
        lines.append(f"{_csv(method)},{_csv(cls)},{v},{ev},{q}")
    return "\n".join(lines) + "\n", counts


def _csv(s: str) -> str:
    if "," in s or '"' in s:
        return '"' + s.replace('"', '""') + '"'
    return s


def scatter_rows_from_model(model: SystemModel) -> list[tuple[str, str, int, int]]:
    rows = []
    for c in model.internal_classes:
        for m in c.member_functions:
            if m.cfg is None:
                continue
            rows.append((c.name, m.signature, cyclomatic(m.cfg), m.cfg.ev))
    return rows
