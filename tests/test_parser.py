"""Source parser: subset recognition, line/comment counting, degradation,
determinism, and the facts round trip on generated classes."""

import json
import random

import pytest

from helpers import random_class_source
from oometrics.cli import main
from oometrics.errors import SourceSyntaxError
from oometrics.javasrc import count_lines, parse_source, tokenize
from oometrics.model import build_system_model, facts_to_model, model_to_facts


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
    assert all(m["cfg"]["nodes"] >= 3 for m in methods)


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
    assert m["cfg"]["nodes"] >= 3  # entry, something, exit


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
    values = [(t.kind, t.value) for t in toks]
    assert ("op", ">>=") in values
    assert ("str", "hi") in values
    assert ("char", "x") in values
    assert any(k == "num" and v.startswith("1.5e") for k, v in values)


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
    # the statement parser and the CFG builder keep nested statements on a
    # heap stack: 300 levels once ended the whole batch in a RecursionError
    depth = 300
    opening, closing = NESTING_SHAPES[shape]
    body = opening * depth + "x = x - 1; " + closing * depth
    (tmp_path / "Nest.java").write_text(f"class Nest {{ int run(int x) {{ {body}return x; }} }}")
    assert main(["analyze", str(tmp_path)]) == 0
    (method,) = json.loads(capsys.readouterr().out)["classes"][0]["metrics"]["methods"]
    decisions = 0 if shape in ("block", "labeled_synchronized") else depth
    assert (method["v"], method["ev"]) == (decisions + 1, 1)
