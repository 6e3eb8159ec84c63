"""Acceptance suite: one test per criterion, at the stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to get the one-line
PASS/FAIL verdict per criterion (a test that fails its assertions never
reaches its PASS line; pytest's own FAILED line is the fail marker).
"""

import json
import math
import random
import time
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    coh,
    lcom,
    lexical_analyzer_model,
    neural_network_model,
    random_cohesion_class,
    random_method_source,
    similarity_cohesion,
    tcc_lcc,
)
from oometrics import ck, cohesion
from oometrics.complexity import class_wmc, cyclomatic, essential, module_design, quadrant
from oometrics.evolution import fit_churn_baseline, relative_complexity
from oometrics.javasrc import parse_source
from oometrics.maintain import maintainability_index
from oometrics.model import build_system_model, facts_to_model, model_to_facts
from oometrics.qmood import (
    PROPERTY_NAMES,
    qmood_class_metrics,
    qmood_system_metrics,
    quality_indices,
)
from oometrics.quality import DEFAULT_RANGES, metric_status
from oometrics.report import compute_report, serialize_report

FIXTURES = Path(__file__).parent / "fixtures"


def _model(name):
    text = (FIXTURES / "src" / f"{name}.java").read_text()
    return build_system_model(parse_source(text, name).classes)


def _passed(n, title):
    print(f"ACCEPTANCE {n} ({title}): PASS")


def test_criterion_1_fixture_exactness():
    start = time.monotonic()

    m = _model("cbo_dac")
    assert {c: ck.cbo(m, f"fixtures.cbo.{c}") for c in ("ClassA", "ClassB", "ClassC", "ClassD")} == {
        "ClassA": 1, "ClassB": 1, "ClassC": 2, "ClassD": 1,
    }
    m = _model("rfc")
    assert {c: ck.rfc(m, f"fixtures.rfc.{c}") for c in ("ClassA", "ClassB", "ClassC", "ClassD")} == {
        "ClassA": 2, "ClassB": 3, "ClassC": 5, "ClassD": 1,
    }
    m = _model("dit")
    assert [ck.dit(m, f"fixtures.dit.Class{x}") for x in "ABCDEF"] == [0, 1, 2, 2, 3, 3]

    assert ck.coupling_factor(_model("cf")) == 0.25

    m = _model("wmc")
    assert class_wmc(m.get("fixtures.wmc.ClassA")) == 5

    assert qmood_class_metrics(_model("dcc"), "fixtures.dcc.ClassA")["dcc"] == 2

    _, noh, _ = qmood_system_metrics(_model("noh"))
    assert noh == 4

    records = []
    for f in sorted((FIXTURES / "metric_test").glob("*.java")):
        records.extend(parse_source(f.read_text(), str(f)).classes)
    dsc, noh13, _ = qmood_system_metrics(build_system_model(records))
    assert (dsc, noh13) == (13, 0)

    assert qmood_class_metrics(_model("nop"), "fixtures.nop.Polymorphism")["nop"] == 2

    assert time.monotonic() - start < 5.0
    _passed(1, "fixture exactness, reference tables")


def test_criterion_2_logiscope_status_replication():
    ranges = DEFAULT_RANGES
    table_values = {
        "LexicalAnalyzer": (
            {"cl_comf": 0.19, "cl_comm": 147, "cl_data": 3, "cl_data_publ": 0,
             "cl_func": 7, "cl_func_publ": 6, "cl_line": 788, "cl_stat": 268,
             "cl_wmc": 65, "cu_cdused": 17, "cu_cdusers": 3, "in_bases": 1, "in_noc": 0},
            {"cl_comf", "cl_stat", "cl_wmc", "cu_cdused"},
        ),
        "NeuralNetwork": (
            {"cl_comf": 0.26, "cl_comm": 354, "cl_data": 17, "cl_data_publ": 8,
             "cl_func": 27, "cl_func_publ": 21, "cl_line": 1348, "cl_stat": 372,
             "cl_wmc": 115, "cu_cdused": 33, "cu_cdusers": 3, "in_bases": 6, "in_noc": 0},
            {"cl_data", "cl_data_publ", "cl_func", "cl_func_publ", "cl_stat",
             "cl_wmc", "cu_cdused", "in_bases"},
        ),
    }
    for name, (values, expected_out) in table_values.items():
        flagged = {
            mnemonic
            for mnemonic, value in values.items()
            if metric_status(ranges, mnemonic, value) != "IN"
        }
        assert flagged == expected_out, name
    _passed(2, "status columns, 4 and 8 violations")


def test_criterion_3_comment_rate_arithmetic():
    model, name = lexical_analyzer_model()
    comf = ck.logiscope_mnemonics(model, name)["cl_comf"]
    assert round(comf, 2) == 0.19
    model2, name2 = neural_network_model()
    comf2 = ck.logiscope_mnemonics(model2, name2)["cl_comf"]
    assert round(comf2, 2) == 0.26
    _passed(3, "comment rate to 2 d.p.")


def test_criterion_4_quality_index_algebra():
    ones = dict.fromkeys(PROPERTY_NAMES, 1.0)
    qi = quality_indices(ones)
    assert qi["Reusability"] == pytest.approx(1.0, abs=1e-12)
    assert qi["Flexibility"] == pytest.approx(1.0, abs=1e-12)
    assert qi["Understandability"] == pytest.approx(-0.99, abs=1e-12)
    assert qi["Functionality"] == pytest.approx(1.0, abs=1e-12)
    assert qi["Extendibility"] == pytest.approx(1.0, abs=1e-12)
    assert qi["Effectiveness"] == pytest.approx(1.0, abs=1e-12)
    assert qi["TQI"] == pytest.approx(qi["Reusability"] + qi["Flexibility"] + qi["Understandability"]
                                      + qi["Functionality"] + qi["Extendibility"] + qi["Effectiveness"],
                                      abs=1e-12)
    rng = random.Random(4001)
    for _ in range(1000):
        p = {k: rng.uniform(-5, 5) for k in PROPERTY_NAMES}
        q = {k: rng.uniform(-5, 5) for k in PROPERTY_NAMES}
        a, b = rng.uniform(-2, 2), rng.uniform(-2, 2)
        combo = {k: a * p[k] + b * q[k] for k in PROPERTY_NAMES}
        qc = quality_indices(combo)
        qp = quality_indices(p)
        qq = quality_indices(q)
        for key in qc:
            assert abs(qc[key] - (a * qp[key] + b * qq[key])) < 1e-12
    _passed(4, "index coefficients and linearity")


def test_criterion_5_maintainability_index():
    assert maintainability_index(1, 1, 1, 0) == 170.77

    def independent(V, G, LOC, CM):
        return (171.0
                - 5.2 * (math.log(V) / math.log(2.0))
                - 0.23 * G
                - 16.2 * (math.log(LOC) / math.log(2.0))
                + 50.0 * math.sin(math.sqrt(2.4 * CM)))

    rng = random.Random(5001)
    for _ in range(1000):
        V = rng.uniform(1e-6, 1e7)
        G = rng.uniform(1, 500)
        LOC = rng.uniform(1, 1e7)
        CM = rng.uniform(0, 100)
        assert abs(maintainability_index(V, G, LOC, CM) - independent(V, G, LOC, CM)) < 1e-9
    _passed(5, "MI formula to 1e-9")


def test_criterion_6_complexity_invariants():
    rng = random.Random(6001)
    for _ in range(1000):
        src, decisions = random_method_source(rng)
        facts = parse_source(f"class W {{\n{src}\n void helper() {{ }} }}", "w.java")
        rec = [m for m in facts.classes[0]["methods"] if m["name"] == "gen"][0]
        g = rec["cfg"]
        v = cyclomatic(g)
        assert v == 1 + decisions
        assert essential(g) == 1
        assert 1 <= module_design(g) <= v
    assert quadrant(10, 4) == "III"
    _passed(6, "1000-method corpus: v, ev, iv")


def test_criterion_7_cohesion_oracle_equivalence():
    rng = random.Random(7001)
    for i in range(200):
        rec = random_cohesion_class(rng, model_name=f"A{i}")
        info = build_system_model([rec]).get(f"A{i}")
        sets = [s for _, s in cohesion.method_attribute_sets(info)]
        m = len(sets)
        a = len(info.attributes)

        p = q = 0
        for x in range(m):
            for y in range(x + 1, m):
                if sets[x] & sets[y]:
                    q += 1
                else:
                    p += 1
        assert lcom(info, "CK") == max(p - q, 0)

        def comps(extra=frozenset()):
            parent = list(range(m))

            def find(i2):
                while parent[i2] != i2:
                    parent[i2] = parent[parent[i2]]
                    i2 = parent[i2]
                return i2

            for x in range(m):
                for y in range(x + 1, m):
                    if sets[x] & sets[y]:
                        parent[find(x)] = find(y)
            for x, y in extra:
                parent[find(x)] = find(y)
            return len({find(i2) for i2 in range(m)})

        assert lcom(info, "LH") == comps()

        methods = info.regular_methods
        calls = set()
        by_name = {}
        for idx, mm in enumerate(methods):
            by_name.setdefault(mm.name, []).append(idx)
        for idx, mm in enumerate(methods):
            for inv in mm.invocations:
                if inv.target_class == info.name:
                    for jdx in by_name.get(inv.method_name, ()):
                        if idx != jdx:
                            calls.add((idx, jdx))
        assert lcom(info, "HM") == comps(frozenset(calls))

        if m >= 2 and a >= 1:
            usage = sum(sum(1 for s in sets if att.name in s) for att in info.attributes)
            assert lcom(info, "HS") == (m - usage / a) / (m - 1)
            assert coh(info) == usage / (m * a)
        if m >= 2:
            total = m * (m - 1) // 2
            direct = sum(1 for x in range(m) for y in range(x + 1, m) if sets[x] & sets[y])
            tcc, lcc = tcc_lcc(info)
            assert tcc == direct / total
            reach = [[bool(sets[x] & sets[y]) and x != y for y in range(m)] for x in range(m)]
            for k in range(m):
                for x in range(m):
                    if reach[x][k]:
                        for y in range(m):
                            if reach[k][y]:
                                reach[x][y] = True
            pairs = sum(1 for x in range(m) for y in range(x + 1, m) if reach[x][y])
            assert lcc == pairs / total
            sim = sum(
                (len(sets[x] & sets[y]) / len(sets[x] | sets[y])) if sets[x] | sets[y] else 0.0
                for x in range(m)
                for y in range(x + 1, m)
            )
            assert similarity_cohesion(info) == sim / total
    _passed(7, "cohesion equals brute-force oracles on 200 classes")


def test_criterion_8_evolution_closed_forms():
    from oometrics.evolution import enom, weighted_enom

    def version(nom):
        return {"C": nom}

    rng = random.Random(8001)
    for _ in range(100):
        n = rng.randrange(4, 9)
        series = [rng.randrange(0, 10) for _ in range(n)]
        h = {f"v{i}": version(s) for i, s in enumerate(series)}
        mid = rng.randrange(2, n)
        assert enom(h, "C", 1, n) == enom(h, "C", 1, mid) + enom(h, "C", mid, n)

    h = {f"v{i}": version(s) for i, s in enumerate([5, 7, 6, 6])}
    assert weighted_enom(h, "C", 1, 4, "EARLIEST") == 20.0

    metric_names = ("x", "y", "z")
    build = {}
    for i in range(15):
        base = rng.uniform(0, 50)
        build[f"M{i}"] = {"x": base + rng.uniform(0, 5),
                          "y": 2 * base + rng.uniform(0, 5),
                          "z": rng.uniform(0, 100)}
    baseline = fit_churn_baseline(build, metric_names)
    rho = np.array(list(relative_complexity(build, baseline).values()))
    assert abs(rho.mean() - 50.0) < 1e-6
    assert abs(rho.std() - 10.0) < 1e-6
    _passed(8, "telescoping, EENOM=20, churn 50/10")


def test_criterion_9_determinism_and_round_trips():
    # whole-project tables from the original case studies are out of reach;
    # the stated replacement is determinism plus round-trip fidelity
    records = []
    for f in sorted((FIXTURES / "metric_test").glob("*.java")):
        records.extend(parse_source(f.read_text(), str(f)).classes)
    model = build_system_model(records)

    doc1 = model_to_facts(model)
    doc2 = model_to_facts(facts_to_model(doc1))
    assert doc1 == doc2

    report1 = serialize_report(compute_report(model))
    report2 = serialize_report(compute_report(facts_to_model(doc1)))
    assert report1 == report2
    assert json.loads(report1) == json.loads(report2)
    _passed(9, "determinism and round-trip replacements")
