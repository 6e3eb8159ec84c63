"""System model: building, resolution, inheritance queries, uses(), and
facts round-tripping."""

import random

import pytest

from helpers import class_rec, hand_built_hierarchies, method_rec, random_hierarchy, random_model
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


def hierarchy_corpus():
    """300 reshaped random systems plus the hand-built shapes."""
    rng = random.Random(606)
    return [random_hierarchy(rng) for _ in range(300)] + hand_built_hierarchies()


def _row_oracle(model, c) -> dict:
    """Every hierarchy-table field, from the walk queries alone."""
    info = model.get(c)
    passed = {
        m.signature
        for a in model.ancestors(c)
        for m in model.get(a).regular_methods
        if m.visibility != "private" and not m.is_static
    }

    def depth(name):
        supers = [model.get(s) for s in model.get(name).superclasses if s in model]
        return max((s.external_depth if s.is_external else 1 + depth(s.name) for s in supers), default=0)

    return {
        "depth": depth(c),
        "ancestor_count": len(model.ancestors(c)),
        "descendant_count": len(model.descendants(c)),
        "inherited_method_count": len(model.inherited_methods(c)),
        "inherited_attribute_count": len(model.inherited_attributes(c)),
        "override_count": sum(1 for m in info.regular_methods if m.signature in passed),
        "new_method_count": sum(
            1 for m in info.regular_methods
            if m.signature not in passed and m.visibility != "private" and not m.is_static
        ),
    }


def test_hierarchy_table_matches_walk_oracles():
    for model in hierarchy_corpus():
        rows = model.hierarchy
        assert sorted(r.index for r in rows.values()) == list(range(len(model)))
        for c in model.internal_class_names:
            row = rows[c]
            got = {k: getattr(row, k) for k in _row_oracle(model, c)}
            assert got == _row_oracle(model, c), c
            assert row.ancestor_bits == sum(1 << rows[a].index for a in model.ancestors(c))
            assert row.ancestor_bits < 1 << row.index  # parents first
            assert model.inheritance_depth(c) == row.depth


def test_private_override_is_an_override_and_never_new():
    model = hand_built_hierarchies()[2]
    kid, grand = model.hierarchy["Kid"], model.hierarchy["Grand"]
    assert (kid.override_count, kid.new_method_count) == (1, 0)
    # Grand still inherits Base.hook past Kid's private one, and overrides it
    assert (grand.override_count, grand.new_method_count) == (1, 1)
    assert [m.name for m in model.inherited_methods("Grand")] == ["other"]
    assert (kid.inherited_attribute_count, grand.inherited_attribute_count) == (1, 2)


def test_external_parent_depth_counts_and_adds_no_ancestor():
    model = hand_built_hierarchies()[1]
    assert model.inheritance_depth("A") == 3
    assert model.inheritance_depth("B") == 4
    assert model.hierarchy["B"].ancestor_count == 1
    assert model.ancestors("B").external_depth == 3


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
