"""Byte-identity gate: every CLI path against recorded sha256 digests.

Each case runs ``oometrics.cli.main`` in process on small seeded inputs and
hashes its exit code, stdout, stderr and any file it writes.  The digests
live in ``fixtures/golden.json``.  A change that moves a digest on purpose
rewrites that file in the same commit and says why:

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import cfg_with_v, class_rec, method_rec, multiple_inheritance_records, random_model
from oometrics import cli
from oometrics.cli import main
from oometrics.model import dump_facts, model_to_facts

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "golden.json"
SRC = Path(__file__).resolve().parent.parent / "src"

# name -> (argv, files the command writes, relative to the inputs directory)
CASES: dict[str, tuple[list[str], tuple[str, ...]]] = {
    "analyze_random40_json": (["analyze", "random40.json"], ()),
    "analyze_random40_text": (["analyze", "random40.json", "--format", "text"], ()),
    "analyze_multiple_inheritance": (["analyze", "--facts", "multi.json"], ()),
    "analyze_chain60": (["analyze", "--facts", "chain60.json"], ()),
    "analyze_if200_source": (["analyze", "if200"], ()),
    "analyze_fixture_source": (["analyze", "metric_test"], ()),
    "analyze_history": (["analyze", "--facts", "hist/v3.json", "--history", "hist"], ()),
    "analyze_out": (["analyze", "metric_test", "--out", "out"], ("out/report.json", "out/facts.json")),
    "scatter": (["scatter", "metric_test", "if200"], ()),
    "kiviat": (["kiviat", "--facts", "multi.json", "--class-name", "app.Leaf"], ()),
    "evolve_json": (["evolve", "--history", "hist"], ()),
    "evolve_text": (["evolve", "--history", "hist", "--format", "text"], ()),
    "compare": (["compare", "hist/v1.json", "hist/v2.json", "--baseline", "hist/v0.json"], ()),
    "error_no_input_exit_1": (["analyze", "empty"], ()),
    "error_usage_exit_1": (["scatter", "--format", "text", "metric_test"], ()),
    "error_partial_exit_2": (["analyze", "partial"], ()),
    "analyze_lexer_source": (["analyze", "lexer_source"], ()),
    "analyze_lexer_source_out": (["analyze", "lexer_source", "--out", "lexout"],
                                 ("lexout/report.json", "lexout/facts.json")),
    "scatter_lexer_source": (["scatter", "lexer_source"], ()),
}

SUBPROCESS_CASE = "analyze_multiple_inheritance"

# the cases that parse source files
SOURCE_CASES = sorted(
    name for name, (argv, _) in CASES.items()
    if argv[0] in ("analyze", "kiviat", "scatter") and not any(a.endswith(".json") for a in argv)
)


def chain_records(rng: random.Random, depth: int) -> list[dict]:
    return [
        class_rec(f"K{i}", extends=[f"K{i - 1}"] if i else [], lines=rng.randrange(10, 200),
                  methods=[method_rec(f"m{i}", cfg=cfg_with_v(rng.randrange(1, 5))),
                           method_rec("shared", cfg=cfg_with_v(1))])
        for i in range(depth)
    ]


def if_chain_source(rng: random.Random, n_ifs: int) -> str:
    body = "\n".join(
        f"        if (x < {rng.randrange(1000)}) {{ x = x + {rng.randrange(1, 9)}; }}" for _ in range(n_ifs)
    )
    return f"package adv;\n\npublic class Ifs {{\n    public int run(int x) {{\n{body}\n        return x;\n    }}\n}}\n"


# Comments, literals, numbers, long operators, a non-ASCII identifier and
# inner classes: the lexer's token stream and comment lines reach the report
# through Halstead counts, cl_comm/cl_comf and the per-class line spans.
LEXER_SHAPES = r"""/* Shapes: two top-level classes,
 * an inner and a nested inner class. */
package lex;

// a line comment in the header
public class Shapes {
    private int bits = 0x1F; // trailing after code
    private double eps = 1.5e-3, half = .5;
    private long big = 10L + 1_000;

    /** javadoc on a method */
    public int shift(int x, int... rest) {
        x >>>= 2; /* block after code */ x <<= 1;
        int é = x >>> 3; // an identifier with an accent
        String s = "// not a comment /* nor this */";
        char c = '/', d = '*', q = '\'', b = '\\';
        String e = "\"" + s + "\\";
        /* a block
           inside a method */
        if (é > 0 && rest.length > 0) { return é + rest[0]; }
        return x; // trailing
    }

    class Inner {
        int depth(int n) {
            // inside an inner class
            return n > 0 ? depth(n - 1) + 1 : 0;
        }

        class Deeper {
            String tag() { return "/*" + '/' + "*/"; }
        }
    }
}

/* between the classes */
// and a line comment
class Helper extends Shapes {
    int twice(int y) { return shift(y, y) * 2; } // trailing
}
"""


def write_inputs(dest: Path) -> None:
    def facts(name: str, records_or_model) -> None:
        path = dest / name
        path.parent.mkdir(parents=True, exist_ok=True)
        if isinstance(records_or_model, list):
            path.write_text(json.dumps({"classes": records_or_model}, sort_keys=True), encoding="utf-8")
        else:
            dump_facts(model_to_facts(records_or_model), path)

    facts("random40.json", random_model(random.Random(40), n_classes=40, max_attrs=4, p_inherit=0.5))
    facts("multi.json", multiple_inheritance_records())
    facts("chain60.json", chain_records(random.Random(60), 60))
    for k in range(4):
        facts(f"hist/v{k}.json", random_model(random.Random(100 + k), n_classes=24, max_methods=6,
                                              max_attrs=4, p_edge=0.1, p_inherit=0.5))
    (dest / "if200").mkdir()
    (dest / "if200" / "Ifs.java").write_text(if_chain_source(random.Random(200), 200), encoding="utf-8")
    shutil.copytree(FIXTURES / "metric_test", dest / "metric_test")
    (dest / "empty").mkdir()
    (dest / "partial").mkdir()
    (dest / "partial" / "Good.java").write_text("class Good { int m(int x) { return x + 1; } }", encoding="utf-8")
    (dest / "partial" / "Bad.java").write_text("class {", encoding="utf-8")
    (dest / "lexer_source").mkdir()
    (dest / "lexer_source" / "Shapes.java").write_text(LEXER_SHAPES, encoding="utf-8")
    (dest / "lexer_source" / "Unclosed.java").write_text(
        "class Unclosed {\n    int m() { return 1; }\n    /* never closed\n}\n", encoding="utf-8")


def digest(rc: int, out: str, err: str, files: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    h.update(f"rc={rc}\n".encode())
    for part in (out.encode(), err.encode(), *(files[k] for k in sorted(files))):
        h.update(len(part).to_bytes(8, "big"))
        h.update(part)
    return h.hexdigest()


def run_case(name: str) -> str:
    """Run one case in the current directory, which holds the inputs."""
    argv, outputs = CASES[name]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
    files = {p: Path(p).read_bytes() for p in outputs}
    return digest(rc, out.getvalue(), err.getvalue(), files)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> Path:
    dest = tmp_path_factory.mktemp("golden")
    write_inputs(dest)
    return dest


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden_digest(name, inputs, golden, monkeypatch):
    monkeypatch.chdir(inputs)
    assert run_case(name) == golden[name]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", SOURCE_CASES)
def test_source_case_matches_golden_digest_in_any_worker_count(name, workers, inputs, golden, monkeypatch):
    monkeypatch.chdir(inputs)
    monkeypatch.setattr(cli, "_worker_count", lambda n_files: min(workers, n_files))
    assert run_case(name) == golden[name]


def test_golden_digest_holds_under_another_hash_seed(inputs, golden):
    argv, _ = CASES[SUBPROCESS_CASE]
    env = dict(os.environ, PYTHONHASHSEED="4242", PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "oometrics.cli", *argv], cwd=inputs, env=env,
                          capture_output=True, text=True, timeout=60)
    assert digest(proc.returncode, proc.stdout, proc.stderr, {}) == golden[SUBPROCESS_CASE]


def test_every_case_has_a_digest(golden):
    assert sorted(golden) == sorted(CASES)


if __name__ == "__main__":
    import argparse
    import tempfile

    parser = argparse.ArgumentParser(description="print or rewrite the golden digests")
    parser.add_argument("--write", action="store_true", help=f"rewrite {GOLDEN.name}")
    args = parser.parse_args()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp))
        os.chdir(tmp)
        try:
            digests = {case: run_case(case) for case in sorted(CASES)}
        finally:
            os.chdir(cwd)
    text = json.dumps(digests, indent=2, sort_keys=True) + "\n"
    if args.write:
        GOLDEN.write_text(text, encoding="utf-8")
    sys.stdout.write(text)
