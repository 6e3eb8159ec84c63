"""Halstead token counting over a range of a file's token stream.

Classification (shipped here as data):

operators
    behavioral keywords, all symbolic operators and separators, a method
    call name (counted as ``name()``), and each matched pair of
    parentheses/braces/brackets counted once.
operands
    identifiers outside call position, literals (numbers, strings, chars,
    ``true``/``false``/``null``), and type names.

A token is read from the stream's kinds and structural values; only a
string or char literal's text is read from its token texts.  Only
n1/n2/N1/N2 are kept; volume V = (N1+N2) * log2(n1+n2) is what the
maintainability index consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # javasrc imports this module
    from .javasrc import TokenStream

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


def halstead_counts(tokens: TokenStream, lo: int = 0, hi: int | None = None) -> HalsteadCounts:
    """Counts over tokens [lo, hi) of the stream, taken in place.  A name
    in the last position of the range is never in call position."""
    kinds, vals = tokens.kinds, tokens.vals
    hi = len(kinds) if hi is None else hi
    operators: list[str] = []
    operands: list[str] = []
    for i in range(lo, hi):
        kind, v = kinds[i], vals[i]
        if kind == "op":
            if v in PAIRED:
                operators.append(PAIRED[v])  # the pair counts once, on the opener
            elif v not in CLOSERS:
                operators.append(v)
        elif kind == "ident":
            if v in LITERAL_WORDS:
                operands.append(v)
            elif v in OPERATOR_KEYWORDS:
                operators.append(v)
            elif i + 1 < hi and vals[i + 1] == "(":
                operators.append(v + "()")  # call position
            else:
                operands.append(v)
        else:  # num, str, char
            operands.append(f"{kind}:{tokens.texts[i]}")
    return HalsteadCounts(
        n1=len(set(operators)),
        n2=len(set(operands)),
        N1=len(operators),
        N2=len(operands),
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
