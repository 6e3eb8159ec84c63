"""QMOOD design metrics, property mapping, and the quality indices."""

import random
from pathlib import Path

import pytest

from helpers import attr_rec, class_rec, method_rec
from oometrics.errors import EmptyModel, MissingProperty
from oometrics.javasrc import parse_source
from oometrics.model import build_system_model
from oometrics.qmood import (
    PROPERTY_NAMES,
    property_vector,
    qmood_class_metrics,
    qmood_system_metrics,
    quality_indices,
)

FIXTURES = Path(__file__).parent / "fixtures" / "src"


def load_fixture(name):
    text = (FIXTURES / f"{name}.java").read_text()
    return build_system_model(parse_source(text, name).classes)


def _vec(value) -> dict:
    return dict.fromkeys(PROPERTY_NAMES, value)


def test_dcc_fixture():
    m = load_fixture("dcc")
    assert qmood_class_metrics(m, "fixtures.dcc.ClassA")["dcc"] == 2


def test_nop_fixture():
    m = load_fixture("nop")
    assert qmood_class_metrics(m, "fixtures.nop.Polymorphism")["nop"] == 2
    assert qmood_class_metrics(m, "fixtures.nop.ClassA")["nop"] == 0


def test_cis_fixture():
    m = load_fixture("cis")
    assert qmood_class_metrics(m, "fixtures.cis.ClassA")["cis"] == 2
    assert qmood_class_metrics(m, "fixtures.cis.ClassB")["cis"] == 1


def test_dam_all_private():
    m = build_system_model([
        class_rec("A", attributes=[attr_rec(f"a{i}", visibility="private") for i in range(3)]),
    ])
    assert qmood_class_metrics(m, "A")["dam"] == 1.0


def test_dam_mixed_and_undefined():
    m = build_system_model([
        class_rec("A", attributes=[
            attr_rec("p", visibility="private"),
            attr_rec("q", visibility="public"),
            attr_rec("r", visibility="protected"),
            attr_rec("s", visibility="default"),
        ]),
        class_rec("B"),
    ])
    assert qmood_class_metrics(m, "A")["dam"] == pytest.approx(0.5)
    assert qmood_class_metrics(m, "B")["dam"] is None


def test_mfa_inherited_over_available():
    m = build_system_model([
        class_rec("Base", methods=[method_rec("a"), method_rec("b")]),
        class_rec("Kid", extends=["Base"], methods=[method_rec("own"), method_rec("a")]),
    ])
    qm = qmood_class_metrics(m, "Kid")
    # inherits b only (a overridden): 1 / (1 + 2)
    assert qm["mfa"] == pytest.approx(1 / 3)


def test_cam_parameter_type_overlap():
    m = build_system_model([
        class_rec("A", methods=[
            method_rec("m0", params=["int", "String"]),
            method_rec("m1", params=["int"]),
        ]),
    ])
    # union {int, String}: (2 + 1) / (2 * 2)
    assert qmood_class_metrics(m, "A")["cam"] == pytest.approx(0.75)


def test_cam_undefined_without_parameters():
    m = build_system_model([class_rec("A", methods=[method_rec("m")])])
    assert qmood_class_metrics(m, "A")["cam"] is None


def test_noh_fixture():
    m = load_fixture("noh")
    dsc, noh, ana = qmood_system_metrics(m)
    assert noh == 4
    assert dsc == 8


def test_metric_test_package_dsc_13_noh_0():
    records = []
    for f in sorted((Path(__file__).parent / "fixtures" / "metric_test").glob("*.java")):
        records.extend(parse_source(f.read_text(), str(f)).classes)
    m = build_system_model(records)
    dsc, noh, _ = qmood_system_metrics(m)
    assert dsc == 13
    assert noh == 0


def test_single_class_system():
    m = build_system_model([class_rec("A")])
    assert qmood_system_metrics(m) == (1, 0, 0.0)


def test_empty_model_raises():
    with pytest.raises(EmptyModel):
        qmood_system_metrics(build_system_model([]))


# ---------------------------------------------------------------------------
# property vector
# ---------------------------------------------------------------------------


def test_self_normalization_gives_ones():
    m = load_fixture("noh")
    v = property_vector(m)
    normalized = property_vector(m, baseline=v)
    for name, value in normalized.items():
        if value is not None:
            assert value == pytest.approx(1.0)


def test_unnormalized_messaging_two_public_methods():
    m = build_system_model([
        class_rec("A", methods=[method_rec("p1"), method_rec("p2")]),
    ])
    assert property_vector(m)["Messaging"] == 2.0


def test_normalization_is_componentwise_division():
    m1 = load_fixture("noh")
    m2 = load_fixture("dit")
    base = property_vector(m1)
    norm = property_vector(m2, baseline=base)
    raw = property_vector(m2)
    for name in PROPERTY_NAMES:
        b = base[name]
        r = raw[name]
        n = norm[name]
        if b in (None, 0) or r is None:
            assert n is None
        else:
            assert n == pytest.approx(r / b)


# ---------------------------------------------------------------------------
# quality indices
# ---------------------------------------------------------------------------


def test_all_ones_index_values():
    qi = quality_indices(_vec(1.0))
    assert qi["Reusability"] == pytest.approx(1.0)
    assert qi["Flexibility"] == pytest.approx(1.0)
    assert qi["Understandability"] == pytest.approx(-0.99)
    assert qi["Functionality"] == pytest.approx(1.0)
    assert qi["Extendibility"] == pytest.approx(1.0)
    assert qi["Effectiveness"] == pytest.approx(1.0)
    assert qi["TQI"] == pytest.approx(1.0 * 5 - 0.99)


def test_all_zeros_all_indices_zero():
    qi = quality_indices(_vec(0.0))
    assert all(v == 0.0 for v in qi.values())


def test_doubling_messaging_effects():
    base = quality_indices(_vec(1.0))
    bumped = quality_indices(_vec(1.0) | {"Messaging": 2.0})
    assert bumped["Reusability"] - base["Reusability"] == pytest.approx(0.5)
    assert bumped["Functionality"] - base["Functionality"] == pytest.approx(0.22)


def test_linearity_on_random_vectors():
    rng = random.Random(4)
    for _ in range(1000):
        p = {k: rng.uniform(-5, 5) for k in PROPERTY_NAMES}
        q = {k: rng.uniform(-5, 5) for k in PROPERTY_NAMES}
        a, b = rng.uniform(-2, 2), rng.uniform(-2, 2)
        combo = {k: a * p[k] + b * q[k] for k in PROPERTY_NAMES}
        qi_combo = quality_indices(combo)
        qi_p = quality_indices(p)
        qi_q = quality_indices(q)
        for name in qi_combo:
            assert abs(qi_combo[name] - (a * qi_p[name] + b * qi_q[name])) < 1e-12


def test_sign_monotonicity():
    base = _vec(1.0)
    more_cohesion = base | {"Cohesion": 2.0}
    for name in ("Reusability", "Understandability", "Functionality"):
        assert quality_indices(more_cohesion)[name] >= quality_indices(base)[name]
    more_coupling = base | {"Coupling": 2.0}
    for name in ("Reusability", "Flexibility", "Understandability", "Extendibility"):
        assert quality_indices(more_coupling)[name] <= quality_indices(base)[name]


def test_tqi_is_six_way_sum():
    rng = random.Random(12)
    for _ in range(100):
        p = {k: rng.uniform(-3, 3) for k in PROPERTY_NAMES}
        qi = quality_indices(p)
        total = (qi["Reusability"] + qi["Flexibility"] + qi["Understandability"]
                 + qi["Functionality"] + qi["Extendibility"] + qi["Effectiveness"])
        assert abs(qi["TQI"] - total) < 1e-12


def test_missing_property_reported():
    broken = _vec(1.0) | {"Coupling": None}
    with pytest.raises(MissingProperty) as exc:
        quality_indices(broken)
    assert exc.value.property == "Coupling"
