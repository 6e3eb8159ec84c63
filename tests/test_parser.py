"""Source parser: subset recognition, line/comment counting, degradation,
determinism, and the facts round trip on generated classes."""

import hashlib
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import random_class_source, random_soup_class_source
from helpers import tokenize as oracle_tokenize
from oometrics.cli import main
from oometrics import javasrc
from oometrics.complexity import cyclomatic
from oometrics.errors import MetricsError, SourceSyntaxError
from oometrics.javasrc import _comment_table, parse_source, tokenize
from oometrics.model import build_system_model, facts_to_model, model_to_facts

FIXTURES = Path(__file__).parent / "fixtures"


def count_lines(text: str) -> tuple[int, int]:
    """(cl_line, cl_comm) of a whole file, as the parser counts them."""
    table = _comment_table(text, tokenize(text).comments)
    return len(table) - 1, table[-1]


def triples(toks) -> list[tuple[str, str, int]]:
    """(kind, text, line) of every token of a stream."""
    return [(kind, text, toks._line(i)) for i, (kind, text) in enumerate(zip(toks.kinds, toks.texts))]


def comment_lines_in(spans: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Oracle: the lines lo..hi that some comment span covers, one by one."""
    lines: set[int] = set()
    for a, b in spans:
        lines.update(range(max(a, lo), min(b, hi) + 1))
    return len(lines)


def test_figure_wmc_class_shape():
    src = """
package p;

public class ClassA {
    public void m1() {
        int i = 0;
        while (i < 10) { System.out.println(i); }
    }

    public void m2() {
        int i = 3;
        do {
            if (i % 3 == 0)
                System.out.println(i);
        } while (i < 10);
    }
}
"""
    facts = parse_source(src, "ClassA.java")
    assert [c["name"] for c in facts.classes] == ["p.ClassA"]
    methods = facts.classes[0]["methods"]
    assert [m["name"] for m in methods] == ["m1", "m2"]
    assert all(m["cfg"].node_count >= 3 for m in methods)


def test_empty_file_no_classes_no_errors():
    facts = parse_source("", "Empty.java")
    assert facts.classes == []


def test_whitespace_and_comments_only():
    facts = parse_source("// just a note\n/* block */\n", "C.java")
    assert facts.classes == []


def test_malformed_declaration_raises_with_line():
    with pytest.raises(SourceSyntaxError) as exc:
        parse_source("class {\n}", "Bad.java")
    assert exc.value.line == 1


def test_body_garbage_degrades_to_opaque():
    src = """
class C {
    void m() {
        @weird token ^^ sequence $$;
        int ok = 1;
    }
}
"""
    facts = parse_source(src, "C.java")
    m = facts.classes[0]["methods"][0]
    assert m["cfg"].node_count >= 3  # entry, something, exit


def test_unsupported_members_tolerated():
    src = """
package p;
import java.util.List;

public class C<T> extends Base implements Face {
    @Anno(stuff = "x")
    private List<String> names;

    public <X> X generic(X a) { return a; }

    enum Color { RED, GREEN }

    class Inner {
        int y;
    }
}
"""
    facts = parse_source(src, "C.java")
    names = sorted(c["name"] for c in facts.classes)
    assert names == ["p.C", "p.C.Color", "p.C.Inner"]
    outer = [c for c in facts.classes if c["name"] == "p.C"][0]
    assert outer["extends"] == ["Base", "Face"]
    assert outer["attributes"][0]["name"] == "names"


def test_interface_members_default_public_abstract():
    src = "interface I { void m(); int K = 3; }"
    facts = parse_source(src, "I.java")
    rec = facts.classes[0]
    assert rec["kind"] == "interface"
    m = rec["methods"][0]
    assert m["visibility"] == "public" and m["abstract"]
    assert rec["attributes"][0]["visibility"] == "public"


def test_constructor_recorded_as_init():
    src = "class C { C(int x) { this.v = x; } int v; }"
    facts = parse_source(src, "C.java")
    names = [m["name"] for m in facts.classes[0]["methods"]]
    assert "<init>" in names


def test_invocation_and_access_extraction():
    src = """
package p;
class B { void go() { } int field; }
class A {
    B b;
    void run() {
        b.go();
        b.go();
        int x = b.field;
    }
}
"""
    facts = parse_source(src, "A.java")
    rec = [c for c in facts.classes if c["name"] == "p.A"][0]
    m = rec["methods"][0]
    assert {"target": "p.B.go", "count": 2} in m["invokes"]
    assert "p.A.b" in m["accesses"]
    assert "p.B.field" in m["accesses"]


def test_super_invocation_targets_parent():
    src = """
class Base { void hook() { } }
class Kid extends Base {
    void run() { super.hook(); }
}
"""
    facts = parse_source(src, "K.java")
    kid = [c for c in facts.classes if c["name"] == "Kid"][0]
    assert kid["methods"][0]["invokes"] == [{"target": "Base.hook", "count": 1}]


def test_comment_inside_string_not_counted():
    src = 'class C { String s = "// not a comment /* nope */"; }\n'
    assert count_lines(src) == (1, 0)


def test_count_lines_table_values():
    # the reference comment rates: 147/788 -> 0.19, 354/1348 -> 0.26
    assert round(147 / 788, 2) == 0.19
    assert round(354 / 1348, 2) == 0.26


def test_count_lines_empty_and_basic():
    assert count_lines("") == (0, 0)
    assert count_lines("a\nb") == (2, 0)
    assert count_lines("a\nb\n") == (2, 0)
    assert count_lines("// c\ncode\n/* x\ny */\n") == (4, 3)
    # a comment left open at the end runs past the last newline: the line
    # after it is not one of the file's
    assert count_lines("code\n/* x\n") == (2, 1)


def test_count_lines_synthesized_comment_ratio():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randrange(1, 60)
        k = rng.randrange(0, n + 1)
        lines = [("// comment" if i < k else "plain();") for i in range(n)]
        rng.shuffle(lines)
        text = "\n".join(lines) + "\n"
        assert count_lines(text) == (n, k)


def test_count_lines_concatenation_additivity():
    rng = random.Random(6)
    for _ in range(30):
        a = "\n".join("x();" for _ in range(rng.randrange(1, 5))) + "\n"
        b = "\n".join("// y" for _ in range(rng.randrange(1, 5))) + "\n"
        assert count_lines(a + b)[0] == count_lines(a)[0] + count_lines(b)[0]


def test_line_with_code_and_comment_counts_both():
    cl_line, cl_comm = count_lines("int x = 1; // trailing\n")
    assert (cl_line, cl_comm) == (1, 1)


def _random_spans(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Comment spans over an n-line file: several on one line, overlapping
    ones, and at times one left open that runs one line past the end."""
    spans = []
    for _ in range(rng.randrange(0, 12)):
        a = spans[-1][0] if spans and rng.random() < 0.3 else rng.randint(1, n)
        spans.append((a, min(n, a + rng.choice((0, 0, 1, 3, 10)))))
    if rng.random() < 0.3:
        spans.append((rng.randint(1, n), n + 1))
    return sorted(spans)


def _random_ranges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Class line ranges: the whole file, one-line ones, and ranges nested
    in or overlapping another."""
    ranges = [(1, n), (rng.randint(1, n),) * 2]
    for _ in range(6):
        lo, hi = rng.choice(ranges)
        a = rng.randint(lo, hi)
        ranges.append((a, rng.randint(a, hi)))  # nested
        b = rng.randint(a, n)
        ranges.append((a, b))  # overlapping or nested, as it falls
    return ranges


def test_comment_table_matches_the_line_by_line_oracle():
    rng = random.Random(22)
    for _ in range(400):
        n = rng.randint(1, 40)
        spans = _random_spans(rng, n)
        table = _comment_table("x\n" * n if rng.random() < 0.5 else "x\n" * (n - 1) + "x", spans)
        assert len(table) == n + 1
        for lo, hi in _random_ranges(rng, n):
            assert table[hi] - table[lo - 1] == comment_lines_in(spans, lo, hi), (spans, lo, hi)


def _line_counts(src: str) -> dict[str, tuple[int, int]]:
    return {c["name"]: (c["lines"], c["commentLines"]) for c in parse_source(src).classes}


def test_several_types_count_their_own_spans_and_one_type_the_whole_file():
    nested = """// before
/* before,
   two lines */
class Outer {
    // inside the outer class
    static class Inner {
        /* inside the inner class */ void m() { }
    }
    // between
    enum Color { RED, /* inside the enum */ GREEN }
    int x; /* after the enum */
}
// after
"""
    # the outer class counts its inner types' comments; no class gets the
    # whole file, the enum being a type declaration too
    assert _line_counts(nested) == {"Outer": (9, 5), "Outer.Inner": (3, 1), "Outer.Color": (1, 1)}
    single = """/* header
 * comment */
package p;

// the class
public class Only {
    int x; // trailing
}
"""
    assert _line_counts(single) == {"p.Only": (8, 4)}


def _opcodes(fn) -> int:
    """Interpreter opcodes that ``fn()`` executes."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return local

    def on_call(frame, event, arg):
        frame.f_trace_opcodes = True
        return local

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        fn()
    finally:
        sys.settrace(previous)
    return count


@pytest.mark.parametrize("nested", [False, True], ids=["top-level", "nested"])
def test_parse_work_grows_linearly_with_the_classes_in_a_file(nested):
    def source(n: int) -> str:
        body = "\n".join(f"class C{i} {{ /* c */ void m() {{ x(); }} }}" for i in range(n))
        return f"class Outer {{\n{body}\n}}\n" if nested else body + "\n"

    small, large = (_opcodes(lambda: parse_source(source(n))) for n in (100, 200))
    assert large / small <= 2.2, (small, large)


def test_parse_deterministic():
    rng = random.Random(11)
    src, _ = random_class_source(rng, "Det", n_methods=3)
    f1 = parse_source(src, "Det.java")
    f2 = parse_source(src, "Det.java")
    assert f1.classes == f2.classes


def test_generated_classes_facts_fixed_point():
    """Parse generated classes, push them through the model and back to a
    facts document twice: the document is a fixed point."""
    rng = random.Random(99)
    for i in range(40):  # 40 files x multiple methods
        src, _ = random_class_source(rng, f"Gen{i}", n_methods=rng.randrange(1, 4))
        facts = parse_source(src, f"Gen{i}.java")
        model = build_system_model(facts.classes)
        doc1 = model_to_facts(model)
        doc2 = model_to_facts(facts_to_model(doc1))
        assert doc1 == doc2


def test_tokenizer_operators_and_literals():
    toks = tokenize("a >>= 2; s = \"hi\"; c = 'x'; f = 1.5e-3;")
    values = list(zip(toks.kinds, toks.texts))
    assert ("op", ">>=") in values
    assert ("str", "hi") in values
    assert ("char", "x") in values
    assert any(k == "num" and v.startswith("1.5e") for k, v in values)
    # a literal's structural value is its opening quote
    assert [v for k, v in zip(toks.kinds, toks.vals) if k in ("str", "char")] == ['"', "'"]


# text -> (tokens as (kind, value, line), comment line spans)
LEXER_EDGE_CASES = {
    's = "abc': ([("ident", "s", 1), ("op", "=", 1), ("str", "abc", 1)], []),
    "c = 'x": ([("ident", "c", 1), ("op", "=", 1), ("char", "x", 1)], []),
    "a /* open\n\nb": ([("ident", "a", 1)], [(1, 3)]),
    'x = "ab\\': ([("ident", "x", 1), ("op", "=", 1), ("str", "ab\\", 1)], []),
    "c = '\\": ([("ident", "c", 1), ("op", "=", 1), ("char", "\\", 1)], []),
    "/*/ */ a": ([("ident", "a", 1)], [(1, 1)]),
    "²": ([("num", "²", 1)], []),
    "²a": ([("num", "²a", 1)], []),
    ".²": ([("num", ".²", 1)], []),
    "٣": ([("num", "٣", 1)], []),
    "½": ([("op", "½", 1)], []),
    "Ⅻ": ([("op", "Ⅻ", 1)], []),
    "é": ([("ident", "é", 1)], []),
    "a\xa0b": ([("ident", "a", 1), ("op", "\xa0", 1), ("ident", "b", 1)], []),
    "a\vb": ([("ident", "a", 1), ("op", "\v", 1), ("ident", "b", 1)], []),
    # newlines inside a char literal count, as they do inside a string
    "c = 'a\nb'; d": ([("ident", "c", 1), ("op", "=", 1), ("char", "a\nb", 1), ("op", ";", 2), ("ident", "d", 2)], []),
    "a.b...c >>>= 1": ([("ident", "a", 1), ("op", ".", 1), ("ident", "b", 1), ("op", "...", 1), ("ident", "c", 1),
                        ("op", ">>>=", 1), ("num", "1", 1)], []),
    "...5": ([("op", "...", 1), ("num", "5", 1)], []),
    # a backslash-newline in a string: the comment after it is on line 2,
    # the same line as the ';' token
    'x = "a\\\nb"; // c': ([("ident", "x", 1), ("op", "=", 1), ("str", "a\\\nb", 1), ("op", ";", 2)], [(2, 2)]),
}


@pytest.mark.parametrize("text", list(LEXER_EDGE_CASES), ids=[repr(t) for t in LEXER_EDGE_CASES])
def test_lexer_edge_cases(text):
    toks = tokenize(text)
    assert (triples(toks), toks.comments) == LEXER_EDGE_CASES[text]
    assert_lexes_as_the_oracle(text)


def test_one_lexer_pass_gives_tokens_and_per_class_comment_lines(monkeypatch):
    calls = []
    real = javasrc.tokenize
    monkeypatch.setattr(javasrc, "tokenize", lambda *a: calls.append(a) or real(*a))
    facts = parse_source("// header\nclass A { int a; } /* two\nlines */\nclass B { void m() { } } // end\n")
    assert len(calls) == 1
    assert [c["commentLines"] for c in facts.classes] == [1, 1]


def test_inner_type_accepts_the_top_level_header():
    src = """
class Outer {
    class Inner permits A, B {
        int x;
    }
    interface Face<T> extends Base { }
}
"""
    facts = parse_source(src, "Outer.java")
    recs = {c["name"]: c for c in facts.classes}
    assert sorted(recs) == ["Outer", "Outer.Face", "Outer.Inner"]
    assert recs["Outer.Inner"]["attributes"][0]["name"] == "x"
    assert recs["Outer.Face"]["kind"] == "interface" and recs["Outer.Face"]["extends"] == ["Base"]


def test_inner_type_without_a_name_reports_the_current_line():
    with pytest.raises(SourceSyntaxError) as exc:
        parse_source("class Outer {\n    class\n    {\n    }\n}\n", "Outer.java")
    assert exc.value.line == 3


NESTING_SHAPES = {
    # name: (opening, closing) of one nesting level around `x = x - 1;`
    "if_block": ("if (x > 1) { ", "} "),
    "if_braceless": ("if (x > 1) ", ""),
    "else_if": ("if (x > 1) { } else ", ""),
    "while": ("while (x > 1) { ", "} "),
    "do_while": ("do { ", "} while (x > 0); "),
    "switch": ("switch (x) { case 1: ", "} "),
    "try": ("try { ", "} catch (Exception e) { } "),
    "block": ("{ ", "} "),
    "labeled_synchronized": ("L: synchronized (this) { ", "} "),
}


@pytest.mark.parametrize("shape", sorted(NESTING_SHAPES))
def test_deep_nesting_parses_without_recursion(shape, tmp_path, capsys):
    # the statement parser keeps nested statements on a heap stack: 300
    # levels once ended the whole batch in a RecursionError
    depth = 300
    opening, closing = NESTING_SHAPES[shape]
    body = opening * depth + "x = x - 1; " + closing * depth
    (tmp_path / "Nest.java").write_text(f"class Nest {{ int run(int x) {{ {body}return x; }} }}")
    assert main(["analyze", str(tmp_path)]) == 0
    (method,) = json.loads(capsys.readouterr().out)["classes"][0]["metrics"]["methods"]
    decisions = 0 if shape in ("block", "labeled_synchronized") else depth
    assert (method["v"], method["ev"]) == (decisions + 1, 1)


JUMPS_WITHOUT_TARGET = {
    # name: (method body, executable statements)
    "break_to_missing_label": ("while (x > 0) { break nosuch; }", 2),
    "continue_in_switch": ("switch (x) { case 1: continue; }", 2),
    "continue_to_block_label": ("lbl: { continue lbl; }", 1),
}


@pytest.mark.parametrize("name", sorted(JUMPS_WITHOUT_TARGET))
def test_a_jump_without_target_is_one_opaque_statement(name, tmp_path, capsys):
    # each of these once ended the whole batch with exit 1 and a message
    # that named no file or method
    body, statements = JUMPS_WITHOUT_TARGET[name]
    src = f"class Odd {{ void m(int x) {{ {body} }} }}"
    (rec,) = parse_source(src, "Odd.java").classes
    kinds = rec["methods"][0]["cfg"].kinds
    assert kinds.count("plain") == 1 and "jump" not in kinds
    (tmp_path / "Odd.java").write_text(src)
    (tmp_path / "Clean.java").write_text("class Clean { int f(int a) { return a + 1; } }")
    assert main(["analyze", str(tmp_path)]) == 0
    classes = {c["name"]: c["metrics"] for c in json.loads(capsys.readouterr().out)["classes"]}
    assert sorted(classes) == ["Clean", "Odd"]
    assert classes["Odd"]["cl_stat"] == statements


LABELED_BLOCKS = {
    # a label on a block belongs to the block, not to a loop inside it:
    # the loop once took it, so this break went to y() as edge (2, 3)
    "lbl: { while (c) { break lbl; } y(); }": (
        ("entry", "loop-head", "jump", "call-bearing", "exit"), [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4)]),
    "lbl: { if (c) { break lbl; } y(); }": (
        ("entry", "decision", "jump", "call-bearing", "exit"), [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4)]),
    # a block takes no continue: the jump is one opaque statement
    "lbl: { while (c) { continue lbl; } }": (
        ("entry", "loop-head", "plain", "exit"), [(0, 1), (1, 2), (1, 3), (2, 1)]),
}


@pytest.mark.parametrize("body", list(LABELED_BLOCKS))
def test_a_label_on_a_block_belongs_to_the_block(body):
    (rec,) = parse_source(f"class W {{ void m(boolean c) {{ {body} }} }}", "W.java").classes
    g = rec["methods"][0]["cfg"]
    assert (g.kinds, sorted(g.edges)) == LABELED_BLOCKS[body]


def test_a_stray_closing_paren_in_a_body_is_skipped():
    # a ')' or ']' at statement level once stopped the statement skipper
    # without consuming anything, and the parser looped on it forever
    code = (
        "from oometrics.javasrc import parse_source; "
        "print(parse_source('class A { void m() { x = 1); y(); z = a]; return x); } }').classes[0]['statements'])"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert proc.returncode == 0 and proc.stdout.strip() == "4"


def test_statement_soup_analyzes_every_method(tmp_path, capsys):
    # labels, jumps with and without targets, unparseable statements, dead
    # code, fallthrough and try forms: none of them may fail the batch
    rng = random.Random(9)
    bodies = {}
    for k in range(300):
        src, n = random_soup_class_source(rng, name=f"Soup{k}", n_methods=rng.randrange(1, 4))
        (tmp_path / f"Soup{k}.java").write_text(src)
        bodies[f"Soup{k}"] = n
    assert main(["analyze", str(tmp_path)]) == 0
    classes = json.loads(capsys.readouterr().out)["classes"]
    assert {c["name"]: len(c["metrics"]["methods"]) for c in classes} == bodies


PINNED_BODIES = {
    # body: (statements, kinds, sorted edges)
    # a switch, try, catch or finally without its '{', and a do without its
    # 'while': the statement up to the next ';' is one opaque node
    **dict.fromkeys(
        ["switch (x) y(); z();", "try y(); z();", "try { a(); } catch (E e) b(); z();",
         "try { a(); } finally b(); z();", "do { a(); } until (c); z();"],
        (2, ("entry", "plain", "call-bearing", "exit"), [(0, 1), (1, 2), (2, 3)])),
    # an unclosed '(' takes the rest of the body into one opaque node
    **dict.fromkeys(
        ["if (c { a(); } z();", "while (c { a(); } z();", "synchronized (c { a(); } z();",
         "try { a(); } catch (E e { b(); } z();"],
        (1, ("entry", "plain", "exit"), [(0, 1), (1, 2)])),
    # a local type is one opaque node; without a body it takes the rest
    "class L; z();": (1, ("entry", "plain", "exit"), [(0, 1), (1, 2)]),
    "class L z();": (1, ("entry", "plain", "exit"), [(0, 1), (1, 2)]),
    "class L { int q; } z();": (2, ("entry", "plain", "call-bearing", "exit"), [(0, 1), (1, 2), (2, 3)]),
    "final class L { void q() {} } y();": (2, ("entry", "plain", "call-bearing", "exit"), [(0, 1), (1, 2), (2, 3)]),
    # ... and is not a failure of the statement around it
    "if (c) class L; z();": (2, ("entry", "decision", "plain", "exit"), [(0, 1), (1, 2), (1, 3), (2, 3)]),
    "try { a(); } catch (E e) { b(); } finally { c(); } z();": (
        5, ("entry", "decision", "call-bearing", "call-bearing", "call-bearing", "call-bearing", "exit"),
        [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4), (4, 5), (5, 6)]),
    # a ';' at depth 0 makes a for header classic, even after a ternary's
    # ':', which once made it an enhanced for that dropped the ternary
    **dict.fromkeys(
        ["for (i = 0; c ? i < 1 : i < 2; i++) { x(); }", "for (i = 0; (c ? i < 1 : i < 2); i++) { x(); }"],
        (2, ("entry", "decision", "loop-head", "call-bearing", "exit"),
         [(0, 1), (1, 2), (1, 2), (2, 3), (2, 4), (3, 1)])),
    # a string or char literal is never a bracket or separator: each of
    # these once failed the statement, or read its neighbours as one
    "char c = '{'; y();": (2, ("entry", "plain", "call-bearing", "exit"), [(0, 1), (1, 2), (2, 3)]),
    '"}".length();': (1, ("entry", "call-bearing", "exit"), [(0, 1), (1, 2)]),
    'if (s.equals("(")) { x(); } y();': (
        3, ("entry", "decision", "call-bearing", "call-bearing", "exit"), [(0, 1), (1, 2), (1, 3), (2, 3), (3, 4)]),
    'String s = ""; y(); z();': (
        3, ("entry", "plain", "call-bearing", "call-bearing", "exit"), [(0, 1), (1, 2), (2, 3), (3, 4)]),
    # '>>' and '>>>' close two and three levels of a local's type
    # arguments: a declaration without an initializer is no statement
    **dict.fromkeys(
        ["Map<K, List<V>> m; y();", "Map<K, List<List<V>>> m; y();"],
        (1, ("entry", "plain", "call-bearing", "exit"), [(0, 1), (1, 2), (2, 3)])),
    # catch parameters, try resources and for inits declare their names
    # as statement declarations do (their invokes are in PINNED_INVOKES)
    "try { a(); } catch (java.io.IOException e) { e.getMessage(); }": (
        3, ("entry", "decision", "call-bearing", "call-bearing", "exit"), [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4)]),
    "try (Res r = open(); Res s = open()) { r.close(); s.close(); }": (
        3, ("entry", "plain", "call-bearing", "call-bearing", "exit"), [(0, 1), (1, 2), (2, 3), (3, 4)]),
    "for (Map.Entry<K, V> e = first(); e != null; e = e.next()) { e.getKey(); }": (
        2, ("entry", "loop-head", "call-bearing", "exit"), [(0, 1), (1, 2), (1, 3), (2, 1)]),
    # a final local is a local declaration like any other, never a local type
    "final int k = 1; y(); if (c) { z(); }": (
        4, ("entry", "plain", "call-bearing", "decision", "call-bearing", "exit"),
        [(0, 1), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)]),
}


def _pinned_method(body: str) -> tuple[dict, dict]:
    (rec,) = parse_source(f"class W {{ void m(int x, boolean c, int i) {{ {body} }} }}", "W.java").classes
    return rec, rec["methods"][0]


@pytest.mark.parametrize("body", list(PINNED_BODIES))
def test_statement_shapes_lower_to_pinned_graphs(body):
    rec, method = _pinned_method(body)
    g = method["cfg"]
    assert (rec["statements"], g.kinds, sorted(g.edges)) == PINNED_BODIES[body]
    if "?" in body:
        assert cyclomatic(g) == 3


PINNED_INVOKES = {
    # body: invokes; a local's calls resolve through its declared type
    "try { a(); } catch (java.io.IOException e) { e.getMessage(); }": {
        "W.a": 1, "java.io.IOException.getMessage": 1},
    "try { a(); } catch (final IOException | RuntimeException e) { e.getMessage(); }": {
        "W.a": 1, "IOException.getMessage": 1},
    "try (Res r = open(); Res s = open()) { r.close(); s.close(); }": {"Res.close": 2, "W.open": 2},
    "for (Map.Entry<K, V> e = first(); e != null; e = e.next()) { e.getKey(); }": {
        "Map.Entry.getKey": 1, "Map.Entry.next": 1, "W.first": 1},
    "for (Map.Entry<K, V> e : entries()) { e.getKey(); }": {"Map.Entry.getKey": 1, "W.entries": 1},
    "for (Res a = open(), b = open(); c; ) { b.close(); }": {"Res.close": 1, "W.open": 2},
    "final int k = 1; y(); if (c) { z(); }": {"W.y": 1, "W.z": 1},
}


@pytest.mark.parametrize("body", list(PINNED_INVOKES))
def test_locals_outside_statements_resolve_calls(body):
    _, method = _pinned_method(body)
    assert {inv["target"]: inv["count"] for inv in method["invokes"]} == PINNED_INVOKES[body]
    assert method["accesses"] == []


@pytest.mark.parametrize("src", [
    'class A { String f() { return "{"; } void g() { x(); } }',
    'class A { String s = ")"; int q; void g() { x(); } }',
])
def test_a_literal_bracket_in_one_member_leaves_the_others_whole(src):
    (rec,) = parse_source(src, "A.java").classes
    g = rec["methods"][-1]
    assert (g["name"], g["invokes"]) == ("g", [{"target": "A.x", "count": 1}])


# bracket and separator text, for string literals and, one character
# long, for char literals
LITERAL_PIECES = ["{", "}", "(", ")", "[", "]", ";", ",", ":", "=", "<", ">", "?", "&&", "||", ""]
_METHOD_HEAD = re.compile(r"^(    \S[^\n]*?\)\s*\{)", re.M)


def _with_literals(src: str, typ: str, literal: str) -> str:
    """``src`` with a local first in every method body and a field, each
    of type ``typ`` set to ``literal``."""
    src = _METHOD_HEAD.sub(lambda m: f"{m.group(1)} {typ} s0 = {literal};", src)
    return src.replace("{\n", f"{{\n    {typ} f0 = {literal};\n", 1)


def _structure(src: str) -> list:
    return [
        (c["name"], c["statements"], [
            (m["name"], "cfg" in m and (m["cfg"].kinds, sorted(m["cfg"].edges)), m["invokes"], m["accesses"])
            for m in c["methods"]])
        for c in parse_source(src, "Lit.java").classes
    ]


def test_literal_text_is_never_structure():
    rng = random.Random(31)
    for k in range(200):  # 100 classes of each generator
        make = random_soup_class_source if k % 2 else random_class_source
        src, _ = make(rng, name="Lit", n_methods=rng.randrange(1, 4))
        piece = LITERAL_PIECES[k // 2 % len(LITERAL_PIECES)]
        assert _structure(_with_literals(src, "String", f'"{piece}"')) == \
            _structure(_with_literals(src, "String", '"x"')), piece
        if len(piece) == 1:
            assert _structure(_with_literals(src, "char", f"'{piece}'")) == \
                _structure(_with_literals(src, "char", "'x'")), piece


def test_a_comment_open_at_the_end_of_a_file_counts_its_own_lines(tmp_path, capsys):
    # the open comment's span once ran one line past the file, so its
    # class had more comment lines than lines and the whole batch exited 1
    (tmp_path / "A.java").write_text("class A { int f() { return 1; } } /* x\n")
    (tmp_path / "Clean.java").write_text("class Clean { int f(int a) { return a + 1; } }")
    assert main(["analyze", str(tmp_path)]) == 0
    classes = {c["name"]: c["metrics"] for c in json.loads(capsys.readouterr().out)["classes"]}
    assert sorted(classes) == ["A", "Clean"]
    assert (classes["A"]["cl_line"], classes["A"]["cl_comm"]) == (1, 1)


MUTATION_PIECES = ["(", ")", "{", "}", "[", "]", ";", ":", '"', "'", "/*", "*/", "//", "@", "<", ">"]


def _mutate(rng: random.Random, src: str) -> str:
    """Three random edits: delete a character, or insert or overwrite one
    of the pieces that open, close or end something."""
    for _ in range(3):
        p = rng.randrange(len(src))
        edit, piece = rng.choice(("delete", "insert", "overwrite")), rng.choice(MUTATION_PIECES)
        if edit == "delete":
            src = src[:p] + src[p + 1:]
        elif edit == "insert":
            src = src[:p] + piece + src[p:]
        else:
            src = src[:p] + piece + src[p + 1:]
    return src


def _mutated_sources():
    """300 generated classes (seed 17), each with three random edits."""
    rng = random.Random(17)
    for k in range(300):
        make = random_soup_class_source if k % 2 else random_class_source
        src, _ = make(rng, name="X", n_methods=rng.randrange(1, 4))
        yield _mutate(rng, src)


def test_mutated_sources_parse_or_fail_with_a_syntax_error():
    # unbalanced brackets, quotes and comments: the parser and the model
    # either succeed or raise an error of the toolkit, never anything else
    for text in _mutated_sources():
        try:
            records = parse_source(text, "X.java").classes
        except SourceSyntaxError:
            continue
        try:
            build_system_model(records, "X.java")
        except MetricsError as exc:
            assert "X.java" in str(exc)


#: the line each failing mutated source reports, by its index in
#: :func:`_mutated_sources`
MUTATION_ERROR_LINES = {
    0: 4, 3: 4, 4: 3, 5: 3, 6: 4, 7: 4, 8: 1, 9: 3, 11: 2, 12: 52, 13: 4, 15: 2, 16: 35, 17: 5, 21: 4, 23: 5,
    24: 32, 25: 2, 27: 1, 28: 26, 29: 6, 30: 3, 31: 1, 32: 5, 33: 5, 34: 5, 35: 1, 36: 3, 37: 4, 39: 4,
    40: 64, 42: 3, 44: 3, 45: 5, 46: 5, 47: 1, 48: 7, 49: 4, 53: 5, 54: 5, 55: 4, 56: 5, 58: 1, 62: 24, 63: 4,
    64: 3, 65: 4, 67: 1, 68: 135, 69: 4, 70: 3, 71: 2, 72: 13, 73: 6, 74: 5, 75: 1, 76: 17, 77: 2, 78: 5,
    79: 4, 80: 5, 81: 4, 82: 1, 85: 4, 86: 5, 87: 1, 88: 5, 90: 4, 91: 1, 92: 5, 93: 3, 95: 4, 96: 53, 97: 5,
    99: 2, 100: 5, 101: 3, 102: 10, 104: 25, 107: 1, 108: 72, 109: 2, 113: 4, 115: 4, 116: 1, 117: 1, 118: 1,
    119: 2, 123: 4, 125: 4, 127: 5, 128: 3, 129: 5, 131: 4, 133: 5, 135: 5, 136: 30, 138: 5, 139: 2, 140: 1,
    141: 4, 142: 7, 143: 5, 144: 41, 145: 1, 146: 5, 148: 13, 149: 4, 150: 1, 151: 3, 154: 3, 155: 4, 156: 20,
    157: 5, 158: 4, 159: 5, 160: 3, 161: 4, 162: 19, 163: 2, 164: 8, 165: 1, 166: 7, 168: 4, 169: 1, 170: 25,
    171: 2, 172: 17, 173: 3, 174: 4, 177: 4, 178: 21, 179: 1, 181: 1, 182: 5, 183: 3, 184: 3, 185: 5, 187: 2,
    189: 5, 190: 4, 191: 1, 192: 1, 193: 2, 194: 3, 195: 2, 196: 5, 197: 4, 199: 3, 201: 2, 202: 5, 203: 6,
    204: 23, 205: 2, 206: 1, 207: 3, 208: 1, 209: 5, 211: 2, 212: 3, 213: 2, 214: 5, 215: 6, 216: 29, 217: 5,
    218: 3, 219: 4, 220: 5, 221: 2, 222: 36, 225: 3, 229: 4, 232: 2, 233: 3, 234: 5, 235: 1, 236: 24, 237: 3,
    238: 1, 239: 3, 240: 5, 241: 1, 242: 88, 243: 3, 244: 5, 245: 5, 247: 6, 249: 4, 252: 5, 253: 3, 254: 1,
    255: 1, 257: 3, 258: 93, 259: 2, 260: 1, 263: 4, 267: 2, 268: 3, 269: 1, 272: 5, 275: 4, 276: 34, 277: 5,
    278: 5, 280: 5, 282: 4, 285: 3, 286: 1, 287: 3, 289: 3, 291: 4, 293: 5, 294: 5, 295: 4, 296: 4, 297: 3,
    298: 15, 299: 1,
}


def test_mutated_sources_fail_with_pinned_messages():
    # the line, the expected token and the found token of every error
    errors = {}
    for k, text in enumerate(_mutated_sources()):
        try:
            parse_source(text, "X.java")
        except SourceSyntaxError as exc:
            errors[k] = [type(exc).__name__, exc.line, sorted(exc.expected), exc.found]
    assert {k: e[1] for k, e in errors.items()} == MUTATION_ERROR_LINES
    digest = hashlib.sha256(json.dumps(errors, sort_keys=True).encode()).hexdigest()
    assert digest == "d5c7e40f8012d6efd20fd147ae8a08c0b6ca70e14c1cc43b000dc040576480cc"


def assert_lexes_as_the_oracle(text: str) -> None:
    """The stream of ``text`` gives the token tuple lexer's (kind, value,
    line) triples, comment spans and token count."""
    spans: list[tuple[int, int]] = []
    oracle = oracle_tokenize(text, spans)
    toks = tokenize(text)
    assert len(toks) == len(oracle)
    assert triples(toks) == oracle
    assert toks.vals == [{"str": '"', "char": "'"}.get(t.kind, t.value) for t in oracle]
    assert toks.comments == spans


def test_token_stream_equals_the_token_tuple_lexer():
    rng = random.Random(43)
    for k in range(100):
        make = random_soup_class_source if k % 2 else random_class_source
        assert_lexes_as_the_oracle(make(rng, name="T", n_methods=rng.randrange(1, 4))[0])
    for path in sorted(FIXTURES.rglob("*.java")):
        assert_lexes_as_the_oracle(path.read_text())
    for text in _mutated_sources():
        assert_lexes_as_the_oracle(text)
