"""Maintainability index and SIG model ratings."""

import math
import random

import pytest

from helpers import class_rec, method_rec, cfg_with_v
from oometrics.errors import DomainError, EmptyModel
from oometrics.javasrc import parse_source
from oometrics.maintain import (
    duplicated_line_flags,
    duplication_percent,
    maintainability_index,
    sig_rating,
)
from oometrics.model import build_system_model


def _mi_reference(V, G, LOC, CM):
    """Independent re-statement of the formula for cross-checking."""
    term_v = 5.2 * (math.log(V) / math.log(2.0))
    term_loc = 16.2 * (math.log(LOC) / math.log(2.0))
    sine = 50.0 * math.sin(math.sqrt(2.4 * CM)) if CM is not None else 0.0
    return 171.0 - term_v - 0.23 * G - term_loc + sine


def test_mi_at_unity_inputs():
    assert maintainability_index(1, 1, 1, 0) == pytest.approx(170.77)


def test_mi_power_of_two_case():
    # 171 - 5.2*8 - 0.23*10 - 16.2*10 = -34.9
    assert maintainability_index(256, 10, 1024, 0) == pytest.approx(-34.9)


def test_mi_matches_independent_evaluation():
    rng = random.Random(63)
    for _ in range(1000):
        V = rng.uniform(1e-3, 1e6)
        G = rng.uniform(1, 300)
        LOC = rng.uniform(1, 1e6)
        CM = rng.uniform(0, 100)
        assert abs(maintainability_index(V, G, LOC, CM) - _mi_reference(V, G, LOC, CM)) < 1e-9


def test_mi_strictly_decreasing_in_g():
    prev = None
    for g in range(1, 50):
        mi = maintainability_index(100, g, 100, 10)
        if prev is not None:
            assert mi < prev
        prev = mi


def test_mi_domain_errors():
    with pytest.raises(DomainError):
        maintainability_index(0, 1, 10, 0)
    with pytest.raises(DomainError):
        maintainability_index(10, 1, 0, 0)
    with pytest.raises(DomainError):
        maintainability_index(10, 0.5, 10, 0)
    with pytest.raises(DomainError):
        maintainability_index(10, 1, 10, 150)


def test_mi_optional_comment_term_dropped():
    with_cm = maintainability_index(100, 5, 100, 50)
    without = maintainability_index(100, 5, 100, None)
    assert with_cm != without
    assert without == pytest.approx(_mi_reference(100, 5, 100, None))


# ---------------------------------------------------------------------------
# SIG
# ---------------------------------------------------------------------------


def _simple_system():
    src = """
class Tidy {
    void a() { int x = 1; }
    void b() { int y = 2; }
}
"""
    return build_system_model(parse_source(src, "t.java").classes)


def test_sig_best_bands_for_simple_system():
    rating = sig_rating(_simple_system())
    assert rating.volume == "++"
    assert rating.complexity_per_unit == "++"
    assert rating.unit_size == "++"
    assert rating.duplication == "not-assessed"
    assert rating.unit_testing == "not-assessed"
    assert rating.overall == "++"


def test_sig_empty_model():
    with pytest.raises(EmptyModel):
        sig_rating(build_system_model([]))


def test_sig_complexity_band_monotone_under_bad_method():
    order = ["--", "-", "o", "+", "++"]
    good = [class_rec("A", lines=40, methods=[
        method_rec(f"m{i}", cfg=cfg_with_v(1), lines=5) for i in range(6)
    ])]
    before = sig_rating(build_system_model(good)).complexity_per_unit
    bad = [class_rec("A", lines=400, methods=[
        method_rec(f"m{i}", cfg=cfg_with_v(1), lines=5) for i in range(6)
    ] + [method_rec("huge", cfg=cfg_with_v(60), lines=300)])]
    after = sig_rating(build_system_model(bad)).complexity_per_unit
    assert order.index(after) <= order.index(before)


def test_sig_overall_between_best_and_worst():
    order = ["--", "-", "o", "+", "++"]
    texts = {"a.java": ("x = 1;\n" * 40)}
    model = _simple_system()
    rating = sig_rating(model, source_texts=texts)
    rated = [rating.volume, rating.complexity_per_unit, rating.duplication, rating.unit_size]
    idx = [order.index(r) for r in rated if r in order]
    assert min(idx) <= order.index(rating.overall) <= max(idx)


# ---------------------------------------------------------------------------
# duplication
# ---------------------------------------------------------------------------

BLOCK = "alpha();\nbeta();\ngamma();\ndelta();\nepsilon();\nzeta();\n"


def test_duplicated_block_twice_in_one_file():
    text = BLOCK + BLOCK  # 12 lines, every one duplicated
    assert duplication_percent({"f.java": text}) == pytest.approx(100.0 * 12 / 12)


def test_duplication_ratio_with_unique_tail():
    unique = "".join(f"unique{i}();\n" for i in range(12))
    text = BLOCK + BLOCK + unique  # 24 lines, 12 duplicated
    assert duplication_percent({"f.java": text}) == pytest.approx(50.0)


def test_duplication_across_files_and_symmetry():
    t1 = BLOCK + "one();\n"
    t2 = "two();\n" + BLOCK
    p1 = duplication_percent({"a.java": t1, "b.java": t2})
    p2 = duplication_percent({"b.java": t2, "a.java": t1})
    assert p1 == p2 > 0


def test_duplication_idempotent_and_whitespace_normalized():
    t1 = BLOCK
    t2 = BLOCK.replace("();", "  ();").replace("\n", "   \n")
    flags = duplicated_line_flags({"a.java": t1, "b.java": t2})
    assert all(flags["a.java"]) and all(flags["b.java"])
    again = duplicated_line_flags({"a.java": t1, "b.java": t2})
    assert flags == again


def test_no_duplication_below_window():
    short = "a();\nb();\nc();\n"
    assert duplication_percent({"f.java": short + "x();\n" + short}) == 0.0


def _flags_oracle(texts, window):
    """The window index as first written: every window's line tuple mapped
    to all of its (file, line) positions."""
    files = sorted(texts)
    norm = {f: ["".join(l.split()) for l in texts[f].splitlines()] for f in files}
    positions = {}
    for f in files:
        lines = norm[f]
        for i in range(len(lines) - window + 1):
            positions.setdefault(tuple(lines[i:i + window]), []).append((f, i))
    flags = {f: [False] * len(norm[f]) for f in files}
    for occ in positions.values():
        if len(occ) > 1:
            for f, i in occ:
                for j in range(i, i + window):
                    flags[f][j] = True
    return flags


@pytest.mark.parametrize("seed", range(40))
def test_duplicated_line_flags_match_the_tuple_index(seed):
    rng = random.Random(seed)
    window = rng.randint(1, 8)
    # few distinct lines, so that windows repeat, overlap inside one file
    # and across files; some files are shorter than the window
    vocab = [f"s{k}();" for k in range(rng.randint(1, 4))] + ["  s0 ( ) ;", "", "\t"]
    texts = {}
    for k in range(rng.randint(1, 5)):
        n = rng.choice([0, 1, window - 1, window, rng.randint(0, 40)])
        texts[f"f{k}.java"] = "\n".join(rng.choice(vocab) for _ in range(n))
    texts["rep.java"] = "a();\n" * (window + rng.randint(0, 3))  # overlapping repeats of one run
    assert duplicated_line_flags(texts, window) == _flags_oracle(texts, window)
