"""CK suite, coupling measures, and the class mnemonics against the
bundled fixture diagrams and brute-force oracles."""

import random
from pathlib import Path

import pytest

from helpers import (
    ancestors,
    class_rec,
    descendants,
    hand_built_hierarchies,
    lexical_analyzer_model,
    method_rec,
    neural_network_model,
    random_model,
    readme_facts,
    used,
)
from oometrics import ck
from oometrics.errors import DegenerateSystem
from oometrics.javasrc import parse_source
from oometrics.model import build_system_model, facts_to_model
from oometrics.qmood import qmood_class_metrics
from oometrics.report import compute_class_record

FIXTURES = Path(__file__).parent / "fixtures" / "src"


def load_fixture(name):
    text = (FIXTURES / f"{name}.java").read_text()
    return build_system_model(parse_source(text, name).classes)


# ---------------------------------------------------------------------------
# fixture-diagram values
# ---------------------------------------------------------------------------


def test_cbo_fixture_table():
    m = load_fixture("cbo_dac")
    values = {c: ck.cbo(m, f"fixtures.cbo.{c}") for c in ("ClassA", "ClassB", "ClassC", "ClassD")}
    assert values == {"ClassA": 1, "ClassB": 1, "ClassC": 2, "ClassD": 1}


def test_cbo_isolated_class_zero():
    m = build_system_model([class_rec("A"), class_rec("B")])
    assert ck.cbo(m, "A") == 0


def test_dac_fixture_string_field_ignored():
    m = load_fixture("cbo_dac")
    assert compute_class_record(m, "fixtures.cbo.ClassC")["dac"] == 1


def test_dac_primitive_fields_zero():
    m = build_system_model([
        class_rec("A", attributes=[
            {"name": "x", "type": "int", "visibility": "private", "static": False},
            {"name": "y", "type": "double", "visibility": "private", "static": False},
        ]),
    ])
    assert qmood_class_metrics(m, "A")["moa"] == 0


def test_rfc_fixture_table():
    m = load_fixture("rfc")
    values = {c: ck.rfc(m, f"fixtures.rfc.{c}") for c in ("ClassA", "ClassB", "ClassC", "ClassD")}
    assert values == {"ClassA": 2, "ClassB": 3, "ClassC": 5, "ClassD": 1}


def test_rfc_no_calls_is_method_count():
    m = build_system_model([
        class_rec("A", methods=[method_rec(f"m{i}") for i in range(4)]),
    ])
    assert ck.rfc(m, "A") == 4


def test_dit_noc_fixture_table():
    m = load_fixture("dit")
    dits = [ck.dit(m, f"fixtures.dit.Class{x}") for x in "ABCDEF"]
    assert dits == [0, 1, 2, 2, 3, 3]
    assert ck.logiscope_mnemonics(m, "fixtures.dit.ClassB")["in_noc"] == 2
    assert ck.dit(m, "fixtures.dit.ClassA") == 0


def test_coupling_factor_fixture():
    m = load_fixture("cf")
    assert ck.coupling_factor(m) == pytest.approx(0.25)


def test_coupling_factor_isolated_classes_zero():
    m = build_system_model([class_rec(f"C{i}") for i in range(5)])
    assert ck.coupling_factor(m) == 0.0


def test_coupling_factor_degenerate():
    with pytest.raises(DegenerateSystem):
        ck.coupling_factor(build_system_model([class_rec("Only")]))


def test_mpc_multiplicity():
    m = build_system_model([
        class_rec("A", methods=[method_rec("m", invokes=[("B.x", 3)])]),
        class_rec("B", methods=[method_rec("x")]),
    ])
    assert ck.mpc(m, "A") == 3


def test_mpc_self_calls_zero():
    m = build_system_model([
        class_rec("A", methods=[method_rec("m", invokes=[("A.m", 5)])]),
    ])
    assert ck.mpc(m, "A") == 0


# ---------------------------------------------------------------------------
# random-model oracles
# ---------------------------------------------------------------------------


def test_coupling_table_matches_the_edge_scan_and_its_transpose():
    models = [random_model(random.Random(seed)) for seed in range(30)]
    models += hand_built_hierarchies()
    models.append(facts_to_model(readme_facts()))
    for m in models:
        names = m.internal_class_names
        oracle = {c: used(m, c) for c in names}
        assert set(m.coupling) == set(names)
        for c in names:
            assert m.coupling[c].used == oracle[c]
            assert m.coupling[c].users == {d for d in names if c in oracle[d]}


def test_cbo_matches_pairwise_uses_oracle():
    rng = random.Random(101)
    for _ in range(15):
        m = random_model(rng)
        internal = m.internal_class_names
        for c in internal:
            expected = 0
            for d in internal:
                if d == c:
                    continue
                if d in used(m, c) or c in used(m, d):
                    expected += 1
            assert ck.cbo(m, c) == expected
            assert ck.cbo(m, c) <= len(internal) - 1


def test_cbo_symmetric_closure():
    rng = random.Random(103)
    for _ in range(10):
        m = random_model(rng)
        internal = m.internal_class_names
        for c in internal:
            for d in internal:
                if c < d:
                    coupled = d in used(m, c) or c in used(m, d)
                    assert (d in m.coupling[c].used | m.coupling[c].users) == coupled
                    assert (c in m.coupling[d].used | m.coupling[d].users) == coupled


def test_rfc_matches_set_union_oracle_and_bounds():
    rng = random.Random(107)
    for _ in range(15):
        m = random_model(rng)
        for c in m.internal_class_names:
            info = m.get(c)
            declared = {(c, mm.signature) for mm in info.member_functions}
            names = {mm.name for mm in info.member_functions}
            invoked = set()
            for mm in info.methods:
                for inv in mm.invocations:
                    if inv.target_class == c and inv.method_name in names:
                        continue
                    invoked.add((inv.target_class, inv.target_method))
            assert ck.rfc(m, c) == len(declared | invoked)
            assert ck.rfc(m, c) >= len(info.regular_methods)


def test_mpc_matches_multiplicity_sum_oracle():
    rng = random.Random(109)
    for _ in range(15):
        m = random_model(rng)
        for c in m.internal_class_names:
            info = m.get(c)
            expected = sum(
                inv.count
                for mm in info.methods
                for inv in mm.invocations
                if inv.target_class != c
            )
            assert ck.mpc(m, c) == expected
            distinct = {
                (inv.target_class, inv.target_method)
                for mm in info.methods
                for inv in mm.invocations
                if inv.target_class != c
            }
            assert ck.mpc(m, c) >= len(distinct)


def test_dac_matches_field_type_scan():
    rng = random.Random(113)
    for _ in range(15):
        m = random_model(rng)
        for c in m.internal_class_names:
            info = m.get(c)
            expected = sum(
                1
                for a in info.attributes
                if a.declared_type in m
                and a.declared_type != c
            )
            assert qmood_class_metrics(m, c)["moa"] == expected


def test_coupling_factor_matches_brute_force():
    rng = random.Random(127)
    for _ in range(20):
        m = random_model(rng, n_classes=10)
        names = m.internal_class_names
        tc = len(names)
        num = 0
        for c in names:
            for d in names:
                if c == d:
                    continue
                related = d in ancestors(m, c) or d in descendants(m, c)
                if not related and d in used(m, c):
                    num += 1
        den = tc * tc - tc - 2 * sum(len(descendants(m, c)) for c in names)
        if den <= 0:
            with pytest.raises(DegenerateSystem):
                ck.coupling_factor(m)
            continue
        cf = ck.coupling_factor(m)
        assert cf == pytest.approx(num / den)
        assert 0.0 <= cf <= 1.0


def test_cdused_cdusers_cross_check():
    rng = random.Random(131)
    for _ in range(10):
        m = random_model(rng)
        internal = set(m.internal_class_names)
        for c in internal:
            mn = ck.logiscope_mnemonics(m, c)
            assert mn["cu_cdused"] == len(used(m, c))
            assert mn["cu_cdusers"] == sum(1 for d in internal if c in used(m, d))


# ---------------------------------------------------------------------------
# mnemonics against the reference table
# ---------------------------------------------------------------------------


def test_lexical_analyzer_shaped_mnemonics():
    model, name = lexical_analyzer_model()
    mn = ck.logiscope_mnemonics(model, name)
    assert round(mn["cl_comf"], 2) == 0.19
    assert mn["cl_comm"] == 147
    assert mn["cl_data"] == 3
    assert mn["cl_data_publ"] == 0
    assert mn["cl_func"] == 7
    assert mn["cl_func_publ"] == 6
    assert mn["cl_line"] == 788
    assert mn["cl_stat"] == 268
    assert mn["cl_wmc"] == 65
    assert mn["cu_cdused"] == 17
    assert mn["cu_cdusers"] == 3
    assert mn["in_bases"] == 1
    assert mn["in_noc"] == 0


def test_neural_network_shaped_mnemonics():
    model, name = neural_network_model()
    mn = ck.logiscope_mnemonics(model, name)
    assert round(mn["cl_comf"], 2) == 0.26
    assert mn["cl_data"] == 17
    assert mn["cl_data_publ"] == 8
    assert mn["cl_func"] == 27
    assert mn["cl_func_publ"] == 21
    assert mn["cl_wmc"] == 115
    assert mn["cu_cdused"] == 33
    assert mn["in_bases"] == 6


def test_empty_class_mnemonics():
    m = build_system_model([class_rec("E")])
    mn = ck.logiscope_mnemonics(m, "E")
    assert mn["cl_comf"] is None
    assert all(
        mn[k] == 0
        for k in ("cl_comm", "cl_data", "cl_func", "cl_line", "cl_stat", "cl_wmc",
                  "cu_cdused", "cu_cdusers", "in_bases", "in_noc")
    )
