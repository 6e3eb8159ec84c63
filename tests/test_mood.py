"""MOOD factors against a member-by-member enumeration oracle."""

import random

import pytest

from helpers import attr_rec, class_rec, hand_built_hierarchies, method_rec, random_hierarchy, random_model
from oometrics import ck, qmood
from oometrics.errors import DegenerateSystem
from oometrics.model import build_system_model
from oometrics.mood import mood


def test_all_private_attributes_ahf_100():
    m = build_system_model([
        class_rec("A", attributes=[attr_rec("x", visibility="private")]),
        class_rec("B", attributes=[attr_rec("y", visibility="private")]),
    ])
    factors = mood(m)
    assert factors.ahf == 1.0
    assert factors.as_percentages()["AHF"] == 100.0


def test_no_inheritance_mif_aif_zero_pf_undefined():
    m = build_system_model([
        class_rec("A", methods=[method_rec("m")]),
        class_rec("B", methods=[method_rec("n")]),
    ])
    factors = mood(m)
    assert factors.mif == 0.0
    assert factors.aif == 0.0
    assert factors.pf is None


def test_degenerate_single_class():
    with pytest.raises(DegenerateSystem):
        mood(build_system_model([class_rec("A")]))


def test_protected_hiding_fraction():
    # 4 classes; Base has 1 descendant: hidden = (4 - 1 - 1) / 3
    m = build_system_model([
        class_rec("Base", methods=[method_rec("p", visibility="protected")]),
        class_rec("Kid", extends=["Base"]),
        class_rec("C"),
        class_rec("D"),
    ])
    assert mood(m).mhf == pytest.approx(2 / 3)


def test_pf_simple_override():
    m = build_system_model([
        class_rec("Base", methods=[method_rec("hook", visibility="public")]),
        class_rec("Kid", extends=["Base"], methods=[method_rec("hook", visibility="public")]),
    ])
    factors = mood(m)
    # Base declares 1 new method with 1 descendant -> capacity 1; Kid overrides it
    assert factors.pf == 1.0


def test_pf_defined_iff_new_method_with_descendants():
    no_descendants = build_system_model([
        class_rec("A", methods=[method_rec("m", visibility="public")]),
        class_rec("B"),
    ])
    assert mood(no_descendants).pf is None
    with_desc = build_system_model([
        class_rec("A", methods=[method_rec("m", visibility="public")]),
        class_rec("B", extends=["A"]),
    ])
    assert mood(with_desc).pf == 0.0


def _oracle(m):
    names = m.internal_class_names
    tc = len(names)
    hid_m = tot_m = hid_a = tot_a = 0.0
    inh_m = dec_m = inh_a = dec_a = 0
    overrides = 0
    capacity = 0
    for c in names:
        info = m.get(c)
        desc = len(m.descendants(c))

        def hidden(vis):
            if vis == "private":
                return 1.0
            if vis == "protected":
                return (tc - 1 - desc) / (tc - 1)
            return 0.0

        for mm in info.regular_methods:
            tot_m += 1
            hid_m += hidden(mm.visibility)
        for a in info.attributes:
            tot_a += 1
            hid_a += hidden(a.visibility)
        inh_m += len(m.inherited_methods(c))
        dec_m += len(info.regular_methods)
        inh_a += len(m.inherited_attributes(c))
        dec_a += len(info.attributes)
        sigs = set()
        for anc in m.ancestors(c):
            for mm in m.get(anc).regular_methods:
                if mm.visibility != "private" and not mm.is_static:
                    sigs.add(mm.signature)
        new = 0
        for mm in info.regular_methods:
            if mm.signature in sigs:
                overrides += 1
            elif mm.visibility != "private" and not mm.is_static:
                new += 1
        capacity += new * desc
    return {
        "mhf": hid_m / tot_m if tot_m else 0.0,
        "ahf": hid_a / tot_a if tot_a else 0.0,
        "mif": inh_m / (inh_m + dec_m) if inh_m + dec_m else 0.0,
        "aif": inh_a / (inh_a + dec_a) if inh_a + dec_a else 0.0,
        "pf": overrides / capacity if capacity else None,
    }


def _coupling_oracle(m):
    """The coupling factor as it was computed from the ancestor and
    descendant walks; None where it is undefined."""
    names = m.internal_class_names
    tc = len(names)
    if tc < 2:
        return None
    numerator = desc_total = 0
    for c in names:
        desc = m.descendants(c)
        related = set(m.ancestors(c)) | desc
        desc_total += len(desc)
        for d in m.used_classes(c):
            if not m.get(d).is_external and d != c and d not in related:
                numerator += 1
    denominator = tc * tc - tc - 2 * desc_total
    return numerator / denominator if denominator > 0 else None


def _depth_oracle(m, c):
    supers = [m.get(s) for s in m.get(c).superclasses if s in m]
    return max((s.external_depth if s.is_external else 1 + _depth_oracle(m, s.name) for s in supers), default=0)


def _qmood_system_oracle(m):
    names = m.internal_class_names
    noh = sum(1 for c in names if len(m.ancestors(c)) == 0 and m.descendants(c))
    return len(names), noh, sum(len(m.ancestors(c)) for c in names) / len(names)


def test_table_metrics_equal_the_walk_formulas():
    rng = random.Random(707)
    models = [random_hierarchy(rng) for _ in range(300)] + hand_built_hierarchies()
    for m in models:
        cf = _coupling_oracle(m)
        if cf is None:
            with pytest.raises(DegenerateSystem):
                ck.coupling_factor(m)
        else:
            assert ck.coupling_factor(m) == cf
        assert qmood.qmood_system_metrics(m) == _qmood_system_oracle(m)
        for c in m.internal_class_names:
            assert ck.dit(m, c) == _depth_oracle(m, c)
            declared = len(m.get(c).regular_methods)
            inherited = len(m.inherited_methods(c))
            assert ck.logiscope_mnemonics(m, c)["in_bases"] == len(m.ancestors(c))
            mfa = inherited / (inherited + declared) if inherited + declared else None
            assert qmood.qmood_class_metrics(m, c).mfa == mfa
        if len(m.internal_class_names) < 2:
            continue
        got, want = mood(m), _oracle(m)
        assert (got.mhf, got.ahf, got.mif, got.aif, got.pf, got.cf) == (
            want["mhf"], want["ahf"], want["mif"], want["aif"], want["pf"], cf
        )


def test_factors_match_enumeration_oracle_on_random_systems():
    rng = random.Random(88)
    for _ in range(25):
        m = random_model(rng, n_classes=8)
        got = mood(m)
        want = _oracle(m)
        assert got.mhf == pytest.approx(want["mhf"])
        assert got.ahf == pytest.approx(want["ahf"])
        assert got.mif == pytest.approx(want["mif"])
        assert got.aif == pytest.approx(want["aif"])
        if want["pf"] is None:
            assert got.pf is None
        else:
            assert got.pf == pytest.approx(want["pf"])
        for v in (got.mhf, got.ahf, got.mif, got.aif):
            assert 0.0 <= v <= 1.0


def test_privatizing_a_method_never_decreases_mhf():
    records = [
        class_rec("A", methods=[method_rec("m", visibility="public"), method_rec("n", visibility="public")]),
        class_rec("B", methods=[method_rec("o", visibility="public")]),
    ]
    before = mood(build_system_model(records)).mhf
    records[0]["methods"][0]["visibility"] = "private"
    after = mood(build_system_model(records)).mhf
    assert after >= before


def test_mif_normalization_small_vs_large_system():
    def system(n_extra):
        recs = [
            class_rec("Base", methods=[method_rec("m", visibility="public")]),
            class_rec("Kid", extends=["Base"]),
        ]
        recs += [class_rec(f"Pad{i}", methods=[method_rec(f"p{i}")]) for i in range(n_extra)]
        return recs

    def delta(recs):
        without = mood(build_system_model(recs)).mif
        extended = [dict(r) for r in recs]
        extended[0] = dict(extended[0])
        extended[0]["methods"] = extended[0]["methods"] + [method_rec("extra", visibility="public")]
        with_extra = mood(build_system_model(extended)).mif
        return with_extra - without

    assert delta(system(1)) > delta(system(8))
