"""Halstead token counting over a range of a token stream.

Classification (shipped here as data):

operators
    behavioral keywords, all symbolic operators and separators, a method
    call name (counted as ``name()``), and each matched pair of
    parentheses/braces/brackets counted once.
operands
    identifiers outside call position, literals (numbers, strings, chars,
    ``true``/``false``/``null``), and type names.

Only n1/n2/N1/N2 are kept; volume V = (N1+N2) * log2(n1+n2) is what the
maintainability index consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # javasrc imports this module
    from collections.abc import Sequence

    from .javasrc import Token

OPERATOR_KEYWORDS = {
    "if", "else", "while", "do", "for", "switch", "case", "default", "break",
    "continue", "return", "throw", "throws", "try", "catch", "finally", "new",
    "instanceof", "synchronized", "assert",
}

LITERAL_WORDS = {"true", "false", "null"}

PAIRED = {"(": "()", "{": "{}", "[": "[]"}
CLOSERS = {")", "}", "]"}


@dataclass(frozen=True)
class HalsteadCounts:
    n1: int  # distinct operators
    n2: int  # distinct operands
    N1: int  # total operators
    N2: int  # total operands

    def __post_init__(self):
        if min(self.n1, self.n2, self.N1, self.N2) < 0:
            raise ValueError("negative Halstead count")
        if self.n1 > self.N1 or self.n2 > self.N2:
            raise ValueError("distinct counts exceed totals")

    @property
    def vocabulary(self) -> int:
        return self.n1 + self.n2

    @property
    def length(self) -> int:
        return self.N1 + self.N2

    @property
    def volume(self) -> float:
        if self.length == 0 or self.vocabulary == 0:
            return 0.0
        return self.length * math.log2(self.vocabulary)


def halstead_counts(tokens: Sequence[Token], lo: int = 0, hi: int | None = None) -> HalsteadCounts:
    """Counts over ``tokens[lo:hi]``, taken in place.  A name in the last
    position of the range is never in call position."""
    operators: dict[str, int] = {}
    operands: dict[str, int] = {}

    def op(sym: str) -> None:
        operators[sym] = operators.get(sym, 0) + 1

    def operand(sym: str) -> None:
        operands[sym] = operands.get(sym, 0) + 1

    hi = len(tokens) if hi is None else hi
    for i in range(lo, hi):
        t = tokens[i]
        if t.kind in ("num", "str", "char"):
            operand(f"{t.kind}:{t.value}")
        elif t.kind == "ident":
            if t.value in LITERAL_WORDS:
                operand(t.value)
            elif t.value in OPERATOR_KEYWORDS:
                op(t.value)
            elif i + 1 < hi and tokens[i + 1].value == "(" and tokens[i + 1].kind == "op":
                op(t.value + "()")  # call position
            else:
                operand(t.value)
        else:  # op
            v = t.value
            if v in PAIRED:
                op(PAIRED[v])  # the pair counts once, on the opener
            elif v in CLOSERS:
                pass
            else:
                op(v)
    return HalsteadCounts(
        n1=len(operators),
        n2=len(operands),
        N1=sum(operators.values()),
        N2=sum(operands.values()),
    )


def merge_counts(parts: list[HalsteadCounts]) -> HalsteadCounts:
    """Upper-bound merge for class/system rollups: totals add, distincts
    add (token identity is not kept across parts)."""
    return HalsteadCounts(
        n1=sum(p.n1 for p in parts),
        n2=sum(p.n2 for p in parts),
        N1=sum(p.N1 for p in parts),
        N2=sum(p.N2 for p in parts),
    )
