"""Halstead counting against the shipped classification table."""

import random

import pytest

from oometrics.halstead import HalsteadCounts, halstead_counts, merge_counts
from oometrics.javasrc import parse_source, tokenize


def test_empty_body_all_zero():
    c = halstead_counts([])
    assert (c.n1, c.n2, c.N1, c.N2) == (0, 0, 0, 0)
    assert c.volume == 0.0


def test_assignment_example_hand_count():
    # a = b + c;  ->  operators {=, +, ;}  operands {a, b, c}
    c = halstead_counts(tokenize("a = b + c;"))
    assert (c.n1, c.n2, c.N1, c.N2) == (3, 3, 3, 3)


def test_call_name_is_operator_and_parens_pair_once():
    c = halstead_counts(tokenize("foo(a);"))
    # operators: foo(), (), ;   operands: a
    assert c.n1 == 3 and c.N1 == 3
    assert c.n2 == 1 and c.N2 == 1


def test_keywords_with_behavior_are_operators():
    c = halstead_counts(tokenize("if (a) return b;"))
    # operators: if, (), return, ;  operands: a, b
    assert c.n1 == 4 and c.N1 == 4
    assert c.n2 == 2 and c.N2 == 2


def test_literals_are_operands():
    c = halstead_counts(tokenize('x = 1 + 1; s = "t"; ok = true;'))
    assert c.N2 == 7  # x, 1, 1, s, "t", ok, true
    assert c.n2 == 6  # the repeated 1 collapses


def test_monotone_under_appends():
    rng = random.Random(9)
    snippets = ["a = b + c;", "foo(x);", "if (k) { bar(); }", "y = y * 2;"]
    text = ""
    prev = halstead_counts(tokenize(text))
    for _ in range(50):
        text += rng.choice(snippets)
        cur = halstead_counts(tokenize(text))
        assert cur.n1 >= prev.n1 and cur.n2 >= prev.n2
        assert cur.N1 >= prev.N1 and cur.N2 >= prev.N2
        prev = cur


def test_counts_validate():
    with pytest.raises(ValueError):
        HalsteadCounts(n1=2, n2=0, N1=1, N2=0)
    with pytest.raises(ValueError):
        HalsteadCounts(n1=-1, n2=0, N1=0, N2=0)


def test_merge_adds_totals():
    a = halstead_counts(tokenize("a = b;"))
    b = halstead_counts(tokenize("c = d;"))
    m = merge_counts([a, b])
    assert m.N1 == a.N1 + b.N1 and m.N2 == a.N2 + b.N2


def test_volume_formula():
    c = HalsteadCounts(n1=2, n2=2, N1=4, N2=4)
    assert c.volume == 8 * 2.0  # (4+4) * log2(4)


def test_counts_over_a_range_equal_counts_over_its_slice():
    toks = tokenize("int m() { a = b(c); return d; } e(f);")
    lo = [t.value for t in toks].index("{") + 1
    hi = [t.value for t in toks].index("}")
    assert halstead_counts(toks, lo, hi) == halstead_counts(toks[lo:hi])
    # a name last in the range is an operand, even where '(' follows outside
    hi = [t.value for t in toks].index("e") + 1
    assert halstead_counts(toks, lo, hi) == halstead_counts(toks[lo:hi])
    assert halstead_counts(toks, lo, hi).n2 == halstead_counts(toks, lo, hi - 1).n2 + 1


def test_parser_merges_each_class_over_its_method_bodies():
    # no entry for a class without methods; a bodiless method counts zero
    src = "abstract class A { int x; } abstract class B { abstract void n(); int m() { return f(1); } int k; }"
    assert parse_source(src, "A.java").halstead == {"B": halstead_counts(tokenize("return f(1);"))}
