"""Command-line interface.

Subcommands:
    analyze   full pipeline: sources or facts -> model -> metrics -> report
    kiviat    radar-chart SVG for one class
    scatter   per-method (v, ev) CSV with quadrant labels
    evolve    ENOM/LENOM/EENOM table over a facts-file history
    compare   churn comparison of two builds against a baseline build

Exit codes: 0 success, 1 usage/config/input error, 2 parse errors (report
still produced, flagged partial).
"""

from __future__ import annotations

import argparse
import os
import sys
import threading
from pathlib import Path

from . import report as rpt
from .errors import EncodingError, MetricsError, NoInput, SourceSyntaxError
from .evolution import (
    HistoryTimeline,
    churn_compare,
    fit_churn_baseline,
    score_build,
    weighted_enom,
    yw_rank,
)
from .javasrc import CompilationFacts, parse_source
from .model import build_system_model, dump_facts, facts_to_model, load_facts, model_to_facts
from .quality import ToolConfig
from .report import compute_class_record, emit_kiviat_svg, emit_scatter, scatter_rows_from_model

SOURCE_SUFFIXES = (".java",)


def _collect_sources(paths: list[str]) -> list[Path]:
    """Source files under ``paths`` in the order given, each directory's
    files sorted; a file named twice is kept where it first appears."""
    files: list[Path] = []
    seen: set[Path] = set()
    for p in paths:
        path = Path(p)
        if path.is_dir():
            found = sorted(path.rglob("*" + SOURCE_SUFFIXES[0]))
        elif path.is_file():
            found = [path]
        elif not path.exists():
            raise NoInput(f"no such file or directory: {p}")
        else:
            found = []
        for f in found:
            key = f.resolve()
            if key not in seen:
                seen.add(key)
                files.append(f)
    return files


def _read_text(path: Path) -> str:
    try:
        return path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise EncodingError(f"{path}: {exc}") from None


def _parse_file(path: Path) -> tuple[str, CompilationFacts | str]:
    """One file's text and facts, or its text and the parse-error line."""
    text = _read_text(path)
    try:
        return text, parse_source(text, str(path))
    except SourceSyntaxError as exc:
        return text, f"{path}: {exc}"


def _worker_count(n_files: int) -> int:
    """Processes to parse ``n_files`` with: one per usable CPU, at most one
    per file."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        cpus = os.cpu_count() or 1
    return min(cpus, n_files)


def _parse_files(files: list[Path]) -> list[tuple[str, CompilationFacts | str]]:
    """:func:`_parse_file` of each file, in order.  Files are parsed in a
    pool of forked processes when there are at least two workers; forking
    a process that runs other threads can deadlock, so such a process
    parses in place, as does one without ``fork``."""
    workers = _worker_count(len(files))
    if workers < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [_parse_file(f) for f in files]
    return _parse_in_pool(files, workers)


def _parse_in_pool(files: list[Path], workers: int) -> list[tuple[str, CompilationFacts | str]]:
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # fork, not the platform default: workers share the parent's imports
    # and PYTHONHASHSEED, so they need no re-import and order sets alike
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        chunk = -(-len(files) // (4 * workers))
        return list(pool.map(_parse_file, files, chunksize=chunk))
    except BrokenProcessPool:
        raise MetricsError("a source-parsing worker process ended abruptly") from None
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


class _LoadedInput:
    def __init__(self):
        self.class_records: list[dict] = []
        self.halstead = {}
        self.source_texts: dict[str, str] = {}
        self.parse_errors: list[str] = []


def _load_input(paths: list[str], facts_path: str | None) -> _LoadedInput:
    loaded = _LoadedInput()
    if facts_path:
        doc = load_facts(facts_path)
        loaded.class_records.extend(doc.get("classes", []))
    json_paths = [p for p in paths if p.endswith(".json")]
    src_paths = [p for p in paths if not p.endswith(".json")]
    for jp in json_paths:
        doc = load_facts(jp)
        loaded.class_records.extend(doc.get("classes", []))
    files = _collect_sources(src_paths)
    for f, (text, facts) in zip(files, _parse_files(files)):
        if isinstance(facts, str):
            loaded.parse_errors.append(facts)
            continue
        loaded.class_records.extend(facts.classes)
        loaded.source_texts[str(f)] = text
        loaded.halstead.update(facts.halstead)
    if not loaded.class_records and not loaded.parse_errors:
        raise NoInput("no source files or facts found in: " + ", ".join(paths or ["<none>"]))
    return loaded


def _load_history(history_dir: str) -> HistoryTimeline:
    files = sorted(Path(history_dir).glob("*.json"))
    if len(files) < 2:
        raise NoInput(f"history needs at least 2 facts files, found {len(files)} in {history_dir}")
    versions = []
    for f in files:
        versions.append((f.stem, facts_to_model(load_facts(f))))
    return HistoryTimeline(tuple(versions))


def _evolution_section(history: HistoryTimeline) -> dict:
    n = len(history)
    per_class = []
    for name, lenom, enom_total in yw_rank(history):
        per_class.append(
            {
                "name": name,
                "enom": enom_total,
                "lenom": lenom,
                "eenom": weighted_enom(history, name, 1, n, "EARLIEST"),
            }
        )
    return {"versions": list(history.version_ids), "classes": per_class}


def cmd_analyze(args) -> int:
    config = ToolConfig.load(args.config) if args.config else ToolConfig()
    loaded = _load_input(args.paths, args.facts)
    model = build_system_model(loaded.class_records)

    baseline_model = None
    baseline_path = args.baseline or config.qmood_baseline
    if baseline_path:
        baseline_model = facts_to_model(load_facts(baseline_path))

    partial = bool(loaded.parse_errors)
    report = rpt.compute_report(
        model,
        config=config,
        halstead_by_class=loaded.halstead,
        source_texts=loaded.source_texts or None,
        baseline_model=baseline_model,
        partial=partial,
    )
    if loaded.parse_errors:
        report["parseErrors"] = loaded.parse_errors
    if args.history:
        report["evolution"] = _evolution_section(_load_history(args.history))

    payload = rpt.serialize_report(report) if args.format == "json" else rpt.report_text_summary(report)
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        name = "report.json" if args.format == "json" else "report.txt"
        (out_dir / name).write_text(payload, encoding="utf-8")
        dump_facts(model_to_facts(model), out_dir / "facts.json")
        print(f"wrote {out_dir / name}")
    else:
        sys.stdout.write(payload)
    for err in loaded.parse_errors:
        print(f"parse error: {err}", file=sys.stderr)
    return 2 if partial else 0


def cmd_kiviat(args) -> int:
    from .quality import kiviat_rows

    config = ToolConfig.load(args.config) if args.config else ToolConfig()
    loaded = _load_input(args.paths, args.facts)
    model = build_system_model(loaded.class_records)
    rec = compute_class_record(model, args.class_name)
    rows = kiviat_rows(config.ranges, rec)
    svg = emit_kiviat_svg(rows, args.class_name)
    if args.out:
        Path(args.out).write_text(svg, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(svg)
    return 0


def cmd_scatter(args) -> int:
    loaded = _load_input(args.paths, args.facts)
    model = build_system_model(loaded.class_records)
    result = emit_scatter(scatter_rows_from_model(model))
    if args.out:
        Path(args.out).write_text(result.csv, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(result.csv)
    summary = " ".join(f"{q}={n}" for q, n in sorted(result.counts.items()))
    print(f"quadrants: {summary}", file=sys.stderr)
    return 0


def cmd_evolve(args) -> int:
    history = _load_history(args.history)
    section = _evolution_section(history)
    if args.format == "json":
        import json

        sys.stdout.write(json.dumps(section, indent=2, sort_keys=True) + "\n")
    else:
        print("versions: " + " -> ".join(section["versions"]))
        print(f"{'class':40} {'ENOM':>6} {'LENOM':>10} {'EENOM':>10}")
        for row in section["classes"]:
            print(f"{row['name']:40} {row['enom']:6d} {row['lenom']:10.4f} {row['eenom']:10.2f}")
    return 0


def cmd_compare(args) -> int:
    config = ToolConfig.load(args.config) if args.config else ToolConfig()
    metric_names = config.churn_metrics

    def build_matrix(path: str) -> dict[str, dict[str, float]]:
        model = facts_to_model(load_facts(path))
        matrix = {}
        for name in model.internal_class_names:
            rec = compute_class_record(model, name)
            mnems = rec.mnemonics()
            matrix[name] = {m: float(mnems[m] or 0) for m in metric_names}
        return matrix

    baseline = fit_churn_baseline(build_matrix(args.baseline), metric_names)
    earlier = score_build(Path(args.earlier).stem, build_matrix(args.earlier), baseline)
    later = score_build(Path(args.later).stem, build_matrix(args.later), baseline)
    cmp_result = churn_compare(earlier, later)
    if args.format == "json":
        import json

        doc = {
            "earlier": {"id": earlier.build_id, "R": cmp_result.r_earlier, "meanRho": earlier.mean_rho},
            "later": {"id": later.build_id, "R": cmp_result.r_later, "meanRho": later.mean_rho},
            "added": list(cmp_result.added),
            "removed": list(cmp_result.removed),
            "verdict": cmp_result.verdict,
        }
        sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    else:
        print(f"R({earlier.build_id}) = {cmp_result.r_earlier:.4f}")
        print(f"R({later.build_id}) = {cmp_result.r_later:.4f}")
        print(f"verdict: {cmp_result.verdict}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1: exit 2 is taken by partial reports."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="oometrics", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    inputs = argparse.ArgumentParser(add_help=False)
    inputs.add_argument("paths", nargs="*", help="source files/directories or facts JSON files")
    inputs.add_argument("--facts", help="facts-file JSON input")
    inputs.add_argument("--out", help="output directory (analyze) or file")
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", help="config JSON (ranges, SIG bands, churn metrics)")
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("analyze", parents=[inputs, config, fmt], help="full quality report")
    p.add_argument("--baseline", help="facts file for QMOOD property normalization")
    p.add_argument("--history", help="directory of versioned facts files")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("kiviat", parents=[inputs, config], help="Kiviat SVG for one class")
    p.add_argument("--class-name", required=True, dest="class_name")
    p.set_defaults(func=cmd_kiviat)

    p = sub.add_parser("scatter", parents=[inputs], help="per-method complexity scatter CSV")
    p.set_defaults(func=cmd_scatter)

    p = sub.add_parser("evolve", parents=[fmt], help="Yesterday's Weather over a history directory")
    p.add_argument("--history", required=True)
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("compare", parents=[config, fmt], help="churn comparison of two builds")
    p.add_argument("earlier", help="facts file of the earlier build")
    p.add_argument("later", help="facts file of the later build")
    p.add_argument("--baseline", required=True, help="facts file of the baseline build")
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MetricsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
