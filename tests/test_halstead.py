"""Halstead counting against the shipped classification table."""

import random
from collections import Counter
from pathlib import Path

import pytest

from helpers import random_class_source
from helpers import tokenize as oracle_tokenize
from oometrics.halstead import (
    CLOSERS, LITERAL_WORDS, OPERATOR_KEYWORDS, PAIRED, HalsteadCounts, halstead_counts, merge_counts,
)
from oometrics.javasrc import parse_source, tokenize

FIXTURES = Path(__file__).parent / "fixtures"


def test_empty_body_all_zero():
    c = halstead_counts(tokenize(""))
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
    text = "int m() { a = b(c); return d; } e(f);"
    toks = tokenize(text)

    def alone(lo: int, hi: int):
        """Counts over the text of tokens [lo, hi), lexed by itself."""
        return halstead_counts(tokenize(text[toks.starts[lo]:toks.starts[hi]]))

    lo = toks.vals.index("{") + 1
    hi = toks.vals.index("}")
    assert halstead_counts(toks, lo, hi) == alone(lo, hi)
    # a name last in the range is an operand, even where '(' follows outside
    hi = toks.vals.index("e") + 1
    assert halstead_counts(toks, lo, hi) == alone(lo, hi)
    assert halstead_counts(toks, lo, hi).n2 == halstead_counts(toks, lo, hi - 1).n2 + 1


def tuple_counts(tokens) -> HalsteadCounts:
    """Halstead counts over a list of ``(kind, value, line)`` tokens, by
    the classification the module docstring gives."""
    operators, operands = Counter(), Counter()
    for i, t in enumerate(tokens):
        if t.kind in ("num", "str", "char"):
            operands[f"{t.kind}:{t.value}"] += 1
        elif t.kind == "ident":
            if t.value in LITERAL_WORDS:
                operands[t.value] += 1
            elif t.value in OPERATOR_KEYWORDS:
                operators[t.value] += 1
            elif i + 1 < len(tokens) and tokens[i + 1].kind == "op" and tokens[i + 1].value == "(":
                operators[t.value + "()"] += 1
            else:
                operands[t.value] += 1
        elif t.value in PAIRED:
            operators[PAIRED[t.value]] += 1
        elif t.value not in CLOSERS:
            operators[t.value] += 1
    return HalsteadCounts(len(operators), len(operands), sum(operators.values()), sum(operands.values()))


def test_counts_equal_the_token_tuple_counts():
    # the stream's counts equal a count over the oracle lexer's tokens, on
    # generated classes and every fixture source, whole and per method body
    rng = random.Random(41)
    texts = [random_class_source(rng, f"H{i}", n_methods=3)[0] for i in range(40)]
    texts += [path.read_text() for path in sorted(FIXTURES.rglob("*.java"))]
    for text in texts:
        toks, oracle = tokenize(text), oracle_tokenize(text)
        assert halstead_counts(toks) == tuple_counts(oracle)
        for lo in [i for i, v in enumerate(toks.vals) if v == "{"][:6]:
            hi = next((j for j in range(lo + 1, len(toks)) if toks.vals[j] == "}"), len(toks))
            assert halstead_counts(toks, lo + 1, hi) == tuple_counts(oracle[lo + 1:hi])


def test_parser_merges_every_method_body_of_the_file():
    # one total over both classes' bodies; a bodiless method counts zero
    src = "class A { int x; void p() { g(2); } } abstract class B { abstract void n(); int m() { return f(1); } }"
    bodies = [halstead_counts(tokenize(body)) for body in ("g(2);", "return f(1);")]
    assert parse_source(src, "A.java").halstead == merge_counts(bodies)
    assert parse_source("abstract class B { abstract void n(); }", "B.java").halstead == HalsteadCounts(0, 0, 0, 0)
    # a file without methods has no total
    assert parse_source("class A { int x; } class C { }", "A.java").halstead is None
