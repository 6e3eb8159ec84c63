"""Cohesion suite against explicit pair/component enumeration oracles."""

import random

import pytest

from helpers import (
    attr_rec, call_pairs, class_rec, coh, lcom, method_rec, random_cohesion_class, random_model, similarity_cohesion,
    tcc_lcc,
)
from oometrics import cohesion
from oometrics.errors import UndefinedMetric
from oometrics.model import build_system_model, model_to_facts


def _cls(attr_names, method_accesses, calls=()):
    """Class with given attributes; method_accesses: list of sets of
    attribute names per method; calls: (i, j) method index pairs."""
    attrs = [attr_rec(a) for a in attr_names]
    methods = []
    for i, touched in enumerate(method_accesses):
        invokes = [(f"X.m{j}", 1) for (a, j) in calls if a == i]
        methods.append(
            method_rec(f"m{i}", accesses=[f"X.{t}" for t in touched], invokes=invokes)
        )
    model = build_system_model([class_rec("X", attributes=attrs, methods=methods)])
    return model.get("X")


def test_maximal_cohesion_all_variants():
    info = _cls(["x"], [{"x"}, {"x"}, {"x"}])
    assert lcom(info, "CK") == 0  # P=0 Q=3
    assert lcom(info, "LH") == 1
    assert lcom(info, "HM") == 1
    assert lcom(info, "HS") == 0.0  # (3 - 3)/2
    assert coh(info) == 1.0
    assert tcc_lcc(info) == (1.0, 1.0)
    assert similarity_cohesion(info) == 1.0


def test_minimal_cohesion_all_variants():
    info = _cls(["a", "b", "c"], [{"a"}, {"b"}, {"c"}])
    assert lcom(info, "CK") == 3
    assert lcom(info, "LH") == 3
    assert lcom(info, "HS") == 1.0  # (3 - 1)/2
    assert tcc_lcc(info) == (0.0, 0.0)
    assert similarity_cohesion(info) == 0.0


def test_hm_call_edges_merge_components():
    info = _cls(["a", "b"], [{"a"}, {"b"}], calls=[(0, 1)])
    assert lcom(info, "LH") == 2
    assert lcom(info, "HM") == 1


def test_coh_no_access_zero():
    info = _cls(["a"], [set(), set()])
    assert coh(info) == 0.0


def test_tcc_lcc_chain():
    # m0-x-m1, m1-y-m2: direct pairs 2/3, transitive closes the third
    info = _cls(["x", "y"], [{"x"}, {"x", "y"}, {"y"}])
    tcc, lcc = tcc_lcc(info)
    assert tcc == pytest.approx(2 / 3)
    assert lcc == 1.0


def test_similarity_jaccard_hand_case():
    # one shared of two attrs each: |I|=1, |U|=3 -> 1/3
    info = _cls(["a", "b", "c"], [{"a", "b"}, {"b", "c"}])
    assert similarity_cohesion(info) == pytest.approx(1 / 3)


def test_identical_attribute_sets_similarity_one():
    info = _cls(["a", "b"], [{"a", "b"}, {"a", "b"}])
    assert similarity_cohesion(info) == 1.0


def test_undefined_preconditions():
    one_method = _cls(["a"], [{"a"}])
    with pytest.raises(UndefinedMetric):
        lcom(one_method, "HS")
    with pytest.raises(UndefinedMetric):
        tcc_lcc(one_method)
    with pytest.raises(UndefinedMetric):
        similarity_cohesion(one_method)
    no_attrs = _cls([], [{"x"}, {"y"}])
    with pytest.raises(UndefinedMetric):
        coh(no_attrs)
    with pytest.raises(UndefinedMetric):
        lcom(no_attrs, "HS")


def test_constructors_excluded():
    attrs = [attr_rec("a")]
    methods = [
        method_rec("<init>", accesses=["X.a"]),
        method_rec("m0", accesses=["X.a"]),
        method_rec("m1", accesses=["X.a"]),
    ]
    model = build_system_model([class_rec("X", attributes=attrs, methods=methods)])
    sets = cohesion.method_attribute_sets(model.get("X"))
    assert len(sets) == 2


def test_inherited_attributes_not_counted():
    model = build_system_model([
        class_rec("Base", attributes=[attr_rec("inherited", visibility="protected")]),
        class_rec("Kid", extends=["Base"], attributes=[attr_rec("own")], methods=[
            method_rec("m0", accesses=["Base.inherited", "Kid.own"]),
            method_rec("m1", accesses=["Base.inherited"]),
        ]),
    ])
    info = model.get("Kid")
    sets = dict(cohesion.method_attribute_sets(info))
    assert sets["m0()"] == {"own"}
    assert sets["m1()"] == frozenset()


# ---------------------------------------------------------------------------
# oracle equivalence on 200 random classes (acceptance backbone)
# ---------------------------------------------------------------------------


def _oracle_all(info):
    sets = [touched for _, touched in cohesion.method_attribute_sets(info)]
    m = len(sets)
    a = len(info.attributes)
    out = {}

    p = q = 0
    for i in range(m):
        for j in range(i + 1, m):
            if sets[i] & sets[j]:
                q += 1
            else:
                p += 1
    out["CK"] = max(p - q, 0)

    def components(extra_pairs=()):
        comp = list(range(m))

        def root(x):
            while comp[x] != x:
                comp[x] = comp[comp[x]]
                x = comp[x]
            return x

        for i in range(m):
            for j in range(i + 1, m):
                if sets[i] & sets[j]:
                    comp[root(i)] = root(j)
        for i, j in extra_pairs:
            comp[root(i)] = root(j)
        return len({root(i) for i in range(m)})

    out["LH"] = components()

    out["HM"] = components(call_pairs(info))

    if m >= 2 and a >= 1:
        usage = sum(
            sum(1 for s in sets if attr.name in s) for attr in info.attributes
        )
        out["HS"] = (m - usage / a) / (m - 1)
        out["Coh"] = usage / (m * a)
    if m >= 2:
        direct = sum(
            1 for i in range(m) for j in range(i + 1, m) if sets[i] & sets[j]
        )
        total = m * (m - 1) // 2
        out["TCC"] = direct / total
        # transitive closure by repeated squaring of the adjacency
        reach = [[bool(sets[i] & sets[j]) and i != j for j in range(m)] for i in range(m)]
        for k in range(m):
            for i in range(m):
                if reach[i][k]:
                    for j in range(m):
                        if reach[k][j]:
                            reach[i][j] = True
        lcc_pairs = sum(1 for i in range(m) for j in range(i + 1, m) if reach[i][j])
        out["LCC"] = lcc_pairs / total
        sim = 0.0
        for i in range(m):
            for j in range(i + 1, m):
                u = sets[i] | sets[j]
                if u:
                    sim += len(sets[i] & sets[j]) / len(u)
        out["SIM"] = sim / total
    return out


def test_all_variants_match_oracles_on_200_random_classes():
    rng = random.Random(200)
    for i in range(200):
        rec = random_cohesion_class(rng, model_name=f"R{i}")
        info = build_system_model([rec]).get(f"R{i}")
        oracle = _oracle_all(info)
        assert lcom(info, "CK") == oracle["CK"]
        assert lcom(info, "LH") == oracle["LH"]
        assert lcom(info, "HM") == oracle["HM"]
        if "HS" in oracle:
            assert lcom(info, "HS") == pytest.approx(oracle["HS"])
            assert coh(info) == pytest.approx(oracle["Coh"])
        if "TCC" in oracle:
            tcc, lcc = tcc_lcc(info)
            assert tcc == pytest.approx(oracle["TCC"])
            assert lcc == pytest.approx(oracle["LCC"])
            assert similarity_cohesion(info) == pytest.approx(oracle["SIM"])
            assert tcc <= lcc
        # HM components never exceed LH components
        assert lcom(info, "HM") <= lcom(info, "LH")


def test_ck_zero_when_every_pair_shares():
    rng = random.Random(17)
    for _ in range(20):
        m = rng.randrange(2, 6)
        info = _cls(["shared"], [{"shared"} for _ in range(m)])
        assert lcom(info, "CK") == 0


def test_renaming_invariance():
    info1 = _cls(["a", "b"], [{"a"}, {"a", "b"}, {"b"}])
    info2 = _cls(["zz", "qq"], [{"zz"}, {"zz", "qq"}, {"qq"}])
    assert coh(info1) == coh(info2)
    assert similarity_cohesion(info1) == similarity_cohesion(info2)


# ---------------------------------------------------------------------------
# LCOM-HM call edges: joined once per called name, against the pairwise oracle
# ---------------------------------------------------------------------------


def _overloads_by_name(model, rng):
    """The model's records with about half of each class's methods renamed
    to ``m0``, each kept apart by a parameter list of its own length: calls
    to ``m0`` then reach a group of overloads."""
    records = model_to_facts(model)["classes"]
    for rec in records:
        for k, meth in enumerate(rec["methods"]):
            if rng.random() < 0.5:
                meth["name"] = "m0"
                meth["paramTypes"] += ["int"] * (3 * k + 3)  # 3k+3 to 3k+5 parameters: no clash
    return build_system_model(records)


def test_hm_call_edges_match_pairwise_oracle_on_random_models():
    checked = 0
    for seed in range(60):
        rng = random.Random(seed)
        model = random_model(rng)
        if seed % 2:
            model = _overloads_by_name(model, rng)
        for name in model.internal_class_names:
            info = model.get(name)
            assert lcom(info, "HM") == _oracle_all(info)["HM"], (seed, name)
            checked += 1
    assert checked >= 400


def _class_x(methods, others=()):
    model = build_system_model([class_rec("X", attributes=[attr_rec("a")], methods=methods), *others])
    return model.get("X")


@pytest.mark.parametrize("methods, others, hm", [
    pytest.param([], (), None, id="no-methods"),
    pytest.param([method_rec("m", invokes=[("X.m", 1)]), method_rec("n")], (), 2, id="lone-self-call"),
    pytest.param([method_rec("m", params=["int"] * k, invokes=[("X.m", 1)]) for k in range(5)] + [method_rec("n")],
                 (), 2, id="overloads-each-call-m"),
    pytest.param([method_rec("a", invokes=[("X.m", 1)]), method_rec("m", params=["int"]),
                  method_rec("m", params=["String"]), method_rec("z")], (), 2, id="caller-outside-the-group"),
    pytest.param([method_rec("a", invokes=[("X.zz", 1)]), method_rec("b")], (), 2, id="undeclared-name"),
    pytest.param([method_rec("a", invokes=[("Y.b", 1)]), method_rec("b")],
                 [class_rec("Y", methods=[method_rec("b")])], 2, id="same-name-in-another-class"),
])
def test_hm_call_edge_shapes(methods, others, hm):
    info = _class_x(methods, others)
    if hm is None:
        with pytest.raises(UndefinedMetric):
            lcom(info, "HM")
    else:
        assert lcom(info, "HM") == hm == _oracle_all(info)["HM"]


def test_hm_joins_overloads_in_linear_unions(monkeypatch):
    """200 overloads that each call their own name and touch no attribute:
    one union per overload after the first and one per call, where the
    pairwise edges would take 200 * 199 / 2 = 19,900."""
    unions = 0
    union = cohesion._UnionFind.union

    def counting(self, a, b):
        nonlocal unions
        unions += 1
        union(self, a, b)

    monkeypatch.setattr(cohesion._UnionFind, "union", counting)
    info = _class_x([method_rec("m", params=["int"] * k, invokes=[("X.m", 1)]) for k in range(200)])
    assert lcom(info, "HM") == 1
    assert len(call_pairs(info)) == 19_900
    assert unions <= 400
