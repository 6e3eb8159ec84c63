"""Benchmark workloads: seeded inputs for the oometrics CLI, and oracle
checks on the reports it prints.

Inputs come from the generators in ``tests/helpers.py`` (``random_class_source``
and ``random_model``) plus three hand-built adversarial shapes.  Every oracle
derives its expectation from what the generator wrote down while generating
(decision counts, method counts, ``extends`` chains), never from oometrics
itself, so a change to the program cannot move the expectation with it.

An oracle takes the parsed stdout of one command and returns a list of
problems; an empty list means the report passed.
"""

from __future__ import annotations

import importlib.util
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
HELPERS_PATH = ROOT / "tests" / "helpers.py"

WORKLOAD_NAMES = ("source_corpus", "facts_history", "adversarial_shapes")

# source_corpus: a few hundred single-class files, spread over packages
SOURCE_FILES = 240
SOURCE_PACKAGES = 12
SOURCE_METHODS = 9

# facts_history: four versions of one system; p_edge = 6/n keeps about six
# cross-class calls per method (the helper's default makes calls quadratic in n)
HISTORY_VERSIONS = 4
HISTORY_CLASSES = 500
HISTORY_MAX_METHODS = 8
HISTORY_MAX_ATTRS = 6
HISTORY_P_INHERIT = 0.5

# adversarial_shapes: each is super-linear in one stage and sized to finish
# today; a 1,500-deep chain or 300-deep nesting crashes, so they stay out
HUGE_IFS = 3000
CHAIN_DEPTH = 400
NEST_DEPTH = 150


@dataclass
class Command:
    """One CLI invocation; ``argv`` paths are relative to the inputs dir."""

    name: str
    argv: list[str]
    check: Callable[[dict], list[str]]


@dataclass
class Workload:
    name: str
    commands: list[Command]


def load_helpers():
    """A private copy of ``tests/helpers.py`` whose ``random_model`` returns
    the facts records it drew instead of a built model: the benchmark writes
    those records as the program's input and checks reports against them."""
    spec = importlib.util.spec_from_file_location("oometrics_bench_helpers", HELPERS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.build_system_model = lambda records: records
    return module


def _rng(workload: str, seed: int, part: str = "") -> random.Random:
    return random.Random(f"{workload}:{seed}:{part}")


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


# ---------------------------------------------------------------------------
# source_corpus
# ---------------------------------------------------------------------------


def generate_source_corpus(helpers, seed: int, dest: Path) -> dict[str, dict[str, int]]:
    """Write the corpus; return the expected v per method signature, per class."""
    rng = _rng("source_corpus", seed)
    expected: dict[str, dict[str, int]] = {}
    for i in range(SOURCE_FILES):
        pkg = f"p{i % SOURCE_PACKAGES}"
        name = f"Gen{i}"
        text, decisions = helpers.random_class_source(rng, name=name, n_methods=SOURCE_METHODS)
        text = text.replace("package gen.p;", f"package gen.{pkg};", 1)
        _write(dest / "src" / "gen" / pkg / f"{name}.java", text)
        methods = {f"gen{k}()": d + 1 for k, d in enumerate(decisions)}
        methods["helper()"] = 1
        expected[f"gen.{pkg}.{name}"] = methods
    return expected


def check_source_corpus(report: dict, expected: dict[str, dict[str, int]]) -> list[str]:
    problems = []
    classes = report.get("classes", [])
    if len(classes) != len(expected):
        problems.append(f"{len(classes)} classes reported for {len(expected)} files")
    for cls in classes:
        want = expected.get(cls["name"])
        if want is None:
            problems.append(f"unexpected class {cls['name']}")
            continue
        got = {m["signature"]: m["v"] for m in cls["metrics"]["methods"]}
        if got != want:
            problems.append(f"{cls['name']}: v per method {got} != generated {want}")
    return problems


# ---------------------------------------------------------------------------
# facts_history
# ---------------------------------------------------------------------------


def generate_history(helpers, seed: int, dest: Path) -> list[list[dict]]:
    """Write hist/v0.json .. v3.json; return each version's records."""
    versions = []
    for k in range(HISTORY_VERSIONS):
        records = helpers.random_model(
            _rng("facts_history", seed, f"v{k}"),
            n_classes=HISTORY_CLASSES,
            max_methods=HISTORY_MAX_METHODS,
            max_attrs=HISTORY_MAX_ATTRS,
            p_edge=6 / HISTORY_CLASSES,
            p_inherit=HISTORY_P_INHERIT,
        )
        _write(dest / "hist" / f"v{k}.json", json.dumps({"classes": records}, sort_keys=True))
        versions.append(records)
    return versions


def record_depths(records: list[dict]) -> dict[str, int]:
    """Length of each class's ``extends`` chain; the generator only extends
    earlier classes, so one forward sweep settles every depth."""
    depth: dict[str, int] = {}
    for rec in records:
        parents = rec["extends"]
        depth[rec["name"]] = 1 + depth[parents[0]] if parents else 0
    return depth


def check_history_analyze(report: dict, versions: list[list[dict]]) -> list[str]:
    problems = []
    latest = versions[-1]
    depth = record_depths(latest)
    nom = {rec["name"]: len(rec["methods"]) for rec in latest}
    classes = report.get("classes", [])
    if len(classes) != len(latest):
        problems.append(f"{len(classes)} classes reported for {len(latest)} generated")
    for cls in classes:
        name, metrics = cls["name"], cls["metrics"]
        if name not in nom:
            problems.append(f"unexpected class {name}")
            continue
        if metrics["nom"] != nom[name]:
            problems.append(f"{name}: NOM {metrics['nom']} != generated {nom[name]}")
        if metrics["dit"] != depth[name]:
            problems.append(f"{name}: DIT {metrics['dit']} != generated {depth[name]}")

    series: dict[str, list[int]] = {}
    for records in versions:
        for rec in records:
            series.setdefault(rec["name"], []).append(len(rec["methods"]))
    enom = {n: sum(abs(b - a) for a, b in zip(s, s[1:])) for n, s in series.items()}
    rows = (report.get("evolution") or {}).get("classes", [])
    if len(rows) != len(enom):
        problems.append(f"{len(rows)} evolution rows for {len(enom)} classes")
    for row in rows:
        if row["enom"] != enom.get(row["name"]):
            problems.append(f"{row['name']}: ENOM {row['enom']} != generated {enom.get(row['name'])}")
    return problems


def check_history_compare(doc: dict) -> list[str]:
    """Every version declares the same class names, so nothing is added or
    removed, and the build ids are the file stems."""
    problems = []
    if doc.get("added") != [] or doc.get("removed") != []:
        problems.append(f"added {doc.get('added')} / removed {doc.get('removed')}, expected none")
    ids = (doc.get("earlier", {}).get("id"), doc.get("later", {}).get("id"))
    if ids != ("v1", "v2"):
        problems.append(f"build ids {ids} != ('v1', 'v2')")
    return problems


# ---------------------------------------------------------------------------
# adversarial_shapes
# ---------------------------------------------------------------------------


def huge_method_source(rng: random.Random, n_ifs: int) -> str:
    body = "\n".join(
        f"        if (x < {rng.randrange(1000)}) {{ x = x + {rng.randrange(1, 9)}; }}"
        for _ in range(n_ifs)
    )
    return (
        "package adv;\n\npublic class Huge {\n    public int run(int x) {\n"
        f"{body}\n        return x;\n    }}\n}}\n"
    )


def nested_method_source(rng: random.Random, depth: int) -> str:
    lines = [" " * (4 * d + 8) + f"if (x > {rng.randrange(1000)}) {{" for d in range(depth)]
    lines.append(" " * (4 * depth + 8) + "x = x - 1;")
    lines.extend(" " * (4 * d + 8) + "}" for d in reversed(range(depth)))
    body = "\n".join(lines)
    return (
        "package adv;\n\npublic class Nest {\n    public int run(int x) {\n"
        f"{body}\n        return x;\n    }}\n}}\n"
    )


def chain_records(helpers, rng: random.Random, depth: int) -> list[dict]:
    """K0 <- K1 <- ... : class K{i} sits at depth i."""
    return [
        helpers.class_rec(
            f"K{i}",
            extends=[f"K{i - 1}"] if i else [],
            lines=rng.randrange(10, 200),
            methods=[helpers.method_rec(f"m{i}", cfg=helpers.cfg_with_v(rng.randrange(1, 5)))],
        )
        for i in range(depth)
    ]


def check_single_method(report: dict, cls_name: str, v: int, ev: int) -> list[str]:
    classes = report.get("classes", [])
    if [c["name"] for c in classes] != [cls_name]:
        return [f"classes {[c['name'] for c in classes]} != [{cls_name!r}]"]
    methods = classes[0]["metrics"]["methods"]
    if len(methods) != 1:
        return [f"{cls_name}: {len(methods)} methods, expected 1"]
    got = (methods[0]["v"], methods[0]["ev"])
    return [] if got == (v, ev) else [f"{cls_name}: (v, ev) {got} != {(v, ev)}"]


def check_chain(report: dict, depth: int) -> list[str]:
    problems = []
    classes = report.get("classes", [])
    if len(classes) != depth:
        problems.append(f"{len(classes)} classes reported for a chain of {depth}")
    for cls in classes:
        want = int(cls["name"][1:])
        if cls["metrics"]["dit"] != want:
            problems.append(f"{cls['name']}: DIT {cls['metrics']['dit']} != {want}")
    return problems


# ---------------------------------------------------------------------------


def build(name: str, seed: int, dest: Path, helpers) -> Workload:
    """Generate workload ``name`` for ``seed`` under ``dest`` (which must be
    empty or absent) and return its commands with their oracles; ``helpers``
    comes from :func:`load_helpers`."""
    dest.mkdir(parents=True, exist_ok=True)
    if name == "source_corpus":
        expected = generate_source_corpus(helpers, seed, dest)
        return Workload(name, [
            Command("analyze", ["analyze", "src"], lambda r: check_source_corpus(r, expected)),
        ])
    if name == "facts_history":
        versions = generate_history(helpers, seed, dest)
        return Workload(name, [
            Command("analyze", ["analyze", "--facts", "hist/v3.json", "--history", "hist"],
                    lambda r: check_history_analyze(r, versions)),
            Command("compare", ["compare", "hist/v1.json", "hist/v2.json", "--baseline", "hist/v0.json"],
                    check_history_compare),
        ])
    if name == "adversarial_shapes":
        rng = _rng("adversarial_shapes", seed)
        n_ifs, depth, nesting = HUGE_IFS, CHAIN_DEPTH, NEST_DEPTH
        _write(dest / "huge" / "Huge.java", huge_method_source(rng, n_ifs))
        _write(dest / "nest" / "Nest.java", nested_method_source(rng, nesting))
        _write(dest / "chain.json", json.dumps({"classes": chain_records(helpers, rng, depth)}, sort_keys=True))
        return Workload(name, [
            Command("huge_method", ["analyze", "huge"],
                    lambda r: check_single_method(r, "adv.Huge", n_ifs + 1, 1)),
            Command("deep_chain", ["analyze", "--facts", "chain.json"],
                    lambda r: check_chain(r, depth)),
            Command("deep_nesting", ["analyze", "nest"],
                    lambda r: check_single_method(r, "adv.Nest", nesting + 1, 1)),
        ])
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOAD_NAMES)}")
