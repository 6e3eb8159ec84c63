"""System model: building, resolution, inheritance queries, uses(), and
facts round-tripping."""

import random

import pytest

from helpers import class_rec, method_rec, random_model
from oometrics.errors import DuplicateClass, InheritanceCycle, UnknownClass
from oometrics.model import (
    build_system_model,
    class_to_record,
    facts_to_model,
    model_to_facts,
)


def test_two_class_chain_descendants():
    model = build_system_model([
        class_rec("A"),
        class_rec("B", extends=["A"]),
    ])
    assert model.descendants("A") == {"B"}
    assert list(model.ancestors("B")) == ["A"]


def test_duplicate_class_rejected():
    with pytest.raises(DuplicateClass):
        build_system_model([class_rec("A"), class_rec("A")])


def test_self_extends_is_a_cycle():
    with pytest.raises(InheritanceCycle):
        build_system_model([class_rec("C", extends=["C"])])


def test_longer_cycle_reported_with_path():
    with pytest.raises(InheritanceCycle) as exc:
        build_system_model([
            class_rec("A", extends=["B"]),
            class_rec("B", extends=["C"]),
            class_rec("C", extends=["A"]),
        ])
    assert len(exc.value.path) >= 3


def test_cycle_through_a_deep_chain_reported_with_path():
    # the DFS is iterative: a 1,500-class cycle is an InheritanceCycle,
    # not a RecursionError
    depth = 1500
    with pytest.raises(InheritanceCycle) as exc:
        build_system_model([
            class_rec(f"K{i}", extends=[f"K{(i - 1) % depth}"]) for i in range(depth)
        ])
    path = exc.value.path
    assert len(path) == depth + 1 and path[0] == path[-1]
    assert path[:3] == ["K0", f"K{depth - 1}", f"K{depth - 2}"]


def test_unknown_class_queries_raise():
    model = build_system_model([class_rec("A")])
    with pytest.raises(UnknownClass):
        model.get("Nope")
    with pytest.raises(UnknownClass):
        model.ancestors("Nope")


def test_external_parent_excluded_from_ancestors():
    model = build_system_model([class_rec("A", extends=["some.lib.Base"])])
    assert list(model.ancestors("A")) == []
    assert model.get("some.lib.Base").is_external
    assert model.inheritance_depth("A") == 0
    assert "some.lib.Base" not in model.internal_class_names


def test_simple_name_resolution_unique_match():
    model = build_system_model([
        class_rec("pkg.one.A"),
        class_rec("pkg.two.B", extends=["A"]),
    ])
    assert list(model.ancestors("pkg.two.B")) == ["pkg.one.A"]


def test_ambiguous_simple_name_becomes_external():
    model = build_system_model([
        class_rec("p.A"),
        class_rec("q.A"),
        class_rec("r.C", extends=["A"]),
    ])
    assert model.get("A").is_external
    assert list(model.ancestors("r.C")) == []


def test_no_class_is_its_own_ancestor_and_duality():
    rng = random.Random(7)
    for _ in range(20):
        model = random_model(rng, n_classes=rng.randrange(3, 12))
        for c in model.internal_class_names:
            assert c not in model.ancestors(c)
            # duality: descendants(c) == {d : c in ancestors(d)}
            derived = {d for d in model.internal_class_names if c in model.ancestors(d)}
            assert model.descendants(c) == derived


def _closure_oracle(edges: dict[str, set[str]]) -> dict[str, set[str]]:
    """Floyd-Warshall style reachability over the parent relation."""
    nodes = sorted(edges)
    reach = {n: set(edges[n]) for n in nodes}
    for k in nodes:
        for i in nodes:
            if k in reach[i]:
                reach[i] |= reach[k]
    return reach


def test_ancestors_match_transitive_closure_oracle():
    rng = random.Random(21)
    for _ in range(10):
        n = 20
        names = [f"C{i}" for i in range(n)]
        parents: dict[str, set[str]] = {c: set() for c in names}
        records = []
        for i, c in enumerate(names):
            sup = []
            for j in range(i):
                if rng.random() < 0.15:
                    sup.append(names[j])
            parents[c] = set(sup)
            records.append(class_rec(c, extends=sup))
        model = build_system_model(records)
        oracle = _closure_oracle(parents)
        for c in names:
            assert set(model.ancestors(c)) == oracle[c]


def test_inheritance_depth_matches_longest_path_oracle():
    rng = random.Random(13)
    for _ in range(10):
        names = [f"C{i}" for i in range(25)]
        records, parents = [], {}
        for i, c in enumerate(names):
            sup = [names[j] for j in range(i) if rng.random() < 0.12]
            if rng.random() < 0.2:
                sup.append("lib.External")
            parents[c] = [p for p in sup if p in names]
            records.append(class_rec(c, extends=sup))
        model = build_system_model(records)

        def longest(c):
            return max((1 + longest(p) for p in parents[c]), default=0)

        # deepest class first, so the memo fills from the bottom up
        for c in reversed(names):
            assert model.inheritance_depth(c) == longest(c)


def test_inherited_methods_are_memoized():
    model = build_system_model([
        class_rec("A", methods=[method_rec("m")]),
        class_rec("B", extends=["A"]),
        class_rec("C", extends=["B"]),
    ])
    assert model.inherited_methods("C") is model.inherited_methods("C")
    assert [m.name for m in model.inherited_methods("C")] == ["m"]
    assert model.descendants("A") == {"B", "C"}


def test_uses_matches_exhaustive_edge_scan():
    rng = random.Random(31)
    for _ in range(15):
        model = random_model(rng)
        for c in model.internal_class_names:
            info = model.get(c)
            expected = set()
            for a in info.attributes:
                if a.declared_type in model and a.declared_type != c:
                    expected.add(a.declared_type)
            for m in info.methods:
                for p in m.parameter_types:
                    if p in model and p != c:
                        expected.add(p)
                for inv in m.invocations:
                    if inv.target_class != c:
                        expected.add(inv.target_class)
                for owner, _attr in m.accessed_attributes:
                    if owner != c:
                        expected.add(owner)
            assert model.used_classes(c) == expected
            for d in model.internal_class_names:
                if d != c:
                    assert model.uses(c, d) == (d in expected)


def test_empty_class_uses_nothing():
    model = build_system_model([class_rec("A"), class_rec("B")])
    assert not model.uses("A", "B")
    assert not model.uses("B", "A")


def test_facts_round_trip_identity():
    rng = random.Random(42)
    for _ in range(10):
        model = random_model(rng)
        doc = model_to_facts(model)
        rebuilt = facts_to_model(doc)
        assert rebuilt.class_names == model.class_names
        for name in model.internal_class_names:
            assert class_to_record(rebuilt.get(name)) == class_to_record(model.get(name))
        # serialization of the rebuilt model is bit-identical
        assert model_to_facts(rebuilt) == doc


def test_invocation_multiplicities_merge():
    model = build_system_model([
        class_rec("A", methods=[method_rec("m", invokes=[("B.x", 2), ("B.x", 3)])]),
        class_rec("B", methods=[method_rec("x")]),
    ])
    invs = model.get("A").methods[0].invocations
    assert len(invs) == 1 and invs[0].count == 5


def test_inherited_methods_exclude_overrides_and_private():
    model = build_system_model([
        class_rec("Base", methods=[
            method_rec("shared"),
            method_rec("hidden", visibility="private"),
            method_rec("kept"),
        ]),
        class_rec("Child", extends=["Base"], methods=[method_rec("shared")]),
    ])
    inherited = model.inherited_methods("Child")
    assert [m.name for m in inherited] == ["kept"]
