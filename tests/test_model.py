"""System model: building, resolution, the hierarchy and coupling tables
against walk oracles, and facts round-tripping."""

import random

import pytest

from helpers import (
    ancestors,
    attr_rec,
    cfg_with_v,
    class_rec,
    descendants,
    hand_built_hierarchies,
    inherited_attributes,
    inherited_methods,
    method_rec,
    random_hierarchy,
    random_model,
    used,
)
from oometrics import ck
from oometrics import model as modelmod
from oometrics.cfg import ControlFlowGraph
from oometrics.errors import DuplicateClass, FactsError, InheritanceCycle, UnknownClass
from oometrics.model import (
    CouplingRow,
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
    assert model.children("A") == ("B",)
    assert model.hierarchy["A"].descendant_count == 1
    assert model.hierarchy["B"].ancestor_count == 1
    assert descendants(model, "A") == {"B"}
    assert ancestors(model, "B") == ("A",)


def test_duplicate_class_rejected():
    with pytest.raises(DuplicateClass):
        build_system_model([class_rec("A"), class_rec("A")])


def test_repeated_extends_entry_is_one_parent():
    model = build_system_model([
        class_rec("p.A"),
        class_rec("p.B", extends=["p.A", "p.A", "A"]),
    ])
    assert model.children("p.A") == ("p.B",)
    assert model.get("p.B").superclasses == ("p.A",)
    assert ck.logiscope_mnemonics(model, "p.A")["in_noc"] == 1
    assert model_to_facts(model)["classes"][1]["extends"] == ["p.A"]


def test_self_extends_is_a_cycle():
    with pytest.raises(InheritanceCycle) as exc:
        build_system_model([class_rec("C", extends=["C"])])
    assert str(exc.value) == "inheritance cycle: C -> C"


def test_longer_cycle_reported_with_path():
    with pytest.raises(InheritanceCycle) as exc:
        build_system_model([
            class_rec("A", extends=["B"]),
            class_rec("B", extends=["C"]),
            class_rec("C", extends=["A"]),
        ])
    assert str(exc.value) == "inheritance cycle: A -> B -> C -> A"


def test_cycle_reported_from_where_the_walk_meets_it():
    # D is left below the cycle; the path starts where the walk up from D
    # first repeats a class
    with pytest.raises(InheritanceCycle) as exc:
        build_system_model([
            class_rec("D", extends=["A"]),
            class_rec("A", extends=["B"]),
            class_rec("B", extends=["A"]),
        ])
    assert exc.value.path == ["A", "B", "A"]


def test_cycle_through_a_deep_chain_reported_with_path():
    # the walk is iterative: a 1,500-class cycle is an InheritanceCycle,
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
        model.children("Nope")


def test_external_parent_excluded_from_ancestors():
    model = build_system_model([class_rec("A", extends=["some.lib.Base"])])
    assert ancestors(model, "A") == ()
    assert model.hierarchy["A"].ancestor_count == 0
    assert model.externals == ("some.lib.Base",)
    assert ck.dit(model, "A") == 0
    assert "some.lib.Base" not in model


def test_simple_name_resolution_unique_match():
    model = build_system_model([
        class_rec("pkg.one.A"),
        class_rec("pkg.two.B", extends=["A"]),
    ])
    assert model.get("pkg.two.B").superclasses == ("pkg.one.A",)
    assert ancestors(model, "pkg.two.B") == ("pkg.one.A",)


def test_ambiguous_simple_name_becomes_external():
    model = build_system_model([
        class_rec("p.A"),
        class_rec("q.A"),
        class_rec("r.C", extends=["A"]),
    ])
    assert model.externals == ("A",)
    assert model.get("r.C").superclasses == ("A",)
    assert ancestors(model, "r.C") == ()


def test_no_class_is_its_own_ancestor_and_duality():
    rng = random.Random(7)
    for _ in range(20):
        model = random_model(rng, n_classes=rng.randrange(3, 12))
        for c in model.internal_class_names:
            assert c not in ancestors(model, c)
            # duality: the walk down the children meets {d : c in ancestors(d)}
            derived = {d for d in model.internal_class_names if c in ancestors(model, d)}
            assert descendants(model, c) == derived


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
            assert set(ancestors(model, c)) == oracle[c]


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
            assert ck.dit(model, c) == longest(c)


def hierarchy_corpus():
    """300 reshaped random systems plus the hand-built shapes."""
    rng = random.Random(606)
    return [random_hierarchy(rng) for _ in range(300)] + hand_built_hierarchies()


def _row_oracle(model, c) -> dict:
    """Every hierarchy-table field, from the walk oracles alone."""
    info = model.get(c)
    passed = {
        m.signature
        for a in ancestors(model, c)
        for m in model.get(a).regular_methods
        if m.visibility != "private" and not m.is_static
    }

    def depth(name):
        return max((1 + depth(s) for s in model.get(name).superclasses if s in model), default=0)

    return {
        "depth": depth(c),
        "ancestor_count": len(ancestors(model, c)),
        "descendant_count": len(descendants(model, c)),
        "inherited_method_count": len(inherited_methods(model, c)),
        "inherited_attribute_count": len(inherited_attributes(model, c)),
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
            assert row.ancestor_bits == sum(1 << rows[a].index for a in ancestors(model, c))
            assert row.ancestor_bits < 1 << row.index  # parents first
            assert ck.dit(model, c) == row.depth


def _dfs_cycle(parents: dict[str, list[str]]) -> list[str] | None:
    """The cycle an iterative depth-first search meets first, roots and
    parents taken in order, or None: the path the model must report."""
    white, grey, black = 0, 1, 2
    color = dict.fromkeys(parents, white)
    for root in parents:
        if color[root] != white:
            continue
        color[root] = grey
        trail = [root]
        pending = [iter(parents[root])]
        while pending:
            for sup in pending[-1]:
                if color[sup] == grey:
                    return trail[trail.index(sup):] + [sup]
                if color[sup] == white:
                    color[sup] = grey
                    trail.append(sup)
                    pending.append(iter(parents[sup]))
                    break
            else:
                pending.pop()
                color[trail.pop()] = black
    return None


def _random_extends_records(rng: random.Random) -> list[dict]:
    """1-12 classes, each extending 0-3 names drawn from the class names,
    itself, an external name and an unknown name, in shuffled order."""
    names = [f"p.C{i}" for i in range(rng.randrange(1, 13))]
    records = []
    for name in names:
        pool = names + [name, "X.Ext", "Gone"]
        methods = [method_rec(f"m{k}", visibility=rng.choice(["public", "private"])) for k in range(rng.randrange(3))]
        attrs = [attr_rec(f"a{k}", visibility=rng.choice(["public", "private"])) for k in range(rng.randrange(3))]
        extends = [rng.choice(pool) for _ in range(rng.choice((0, 0, 0, 1, 1, 2, 3)))]
        records.append(class_rec(name, extends=extends, methods=methods, attributes=attrs))
    rng.shuffle(records)
    return records


def test_cycle_path_and_rows_match_a_depth_first_oracle():
    rng = random.Random(5)
    cyclic = 0
    for _ in range(1000):
        records = _random_extends_records(rng)
        parents = {
            rec["name"]: [s for s in dict.fromkeys(rec["extends"]) if s.startswith("p.")] for rec in records
        }
        expected = _dfs_cycle(parents)
        if expected is not None:
            cyclic += 1
            with pytest.raises(InheritanceCycle) as exc:
                build_system_model(records)
            assert exc.value.path == expected
            continue
        model = build_system_model(records)
        rows = model.hierarchy
        for c in model.internal_class_names:
            assert {k: getattr(rows[c], k) for k in _row_oracle(model, c)} == _row_oracle(model, c), c
            assert rows[c].ancestor_bits == sum(1 << rows[a].index for a in ancestors(model, c))
    assert 100 < cyclic < 900  # both kinds drawn


def test_private_override_is_an_override_and_never_new():
    model = hand_built_hierarchies()[2]
    kid, grand = model.hierarchy["Kid"], model.hierarchy["Grand"]
    assert (kid.override_count, kid.new_method_count) == (1, 0)
    # Grand still inherits Base.hook past Kid's private one, and overrides it
    assert (grand.override_count, grand.new_method_count) == (1, 1)
    assert [m.name for m in inherited_methods(model, "Grand")] == ["other"]
    assert (kid.inherited_attribute_count, grand.inherited_attribute_count) == (1, 2)


def test_library_parent_adds_no_depth_and_no_ancestor():
    model = hand_built_hierarchies()[1]
    assert ck.dit(model, "A") == 0
    assert ck.dit(model, "B") == 1
    assert model.hierarchy["A"].ancestor_count == 0
    assert model.hierarchy["B"].ancestor_count == 1
    assert ancestors(model, "B") == ("A",)


def test_uses_matches_exhaustive_edge_scan():
    rng = random.Random(31)
    for _ in range(15):
        model = random_model(rng)
        for c in model.internal_class_names:
            expected = used(model, c)
            assert model.coupling[c].used == expected
            for d in model.internal_class_names:
                if d != c:
                    assert (c in model.coupling[d].users) == (d in expected)


def test_empty_class_uses_nothing():
    model = build_system_model([class_rec("A"), class_rec("B")])
    assert model.coupling["A"] == model.coupling["B"] == CouplingRow(frozenset(), frozenset())


def test_facts_round_trip_identity():
    rng = random.Random(42)
    for _ in range(10):
        model = random_model(rng)
        doc = model_to_facts(model)
        rebuilt = facts_to_model(doc)
        assert rebuilt.internal_class_names == model.internal_class_names
        assert rebuilt.externals == model.externals
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
    inherited = inherited_methods(model, "Child")
    assert [m.name for m in inherited] == ["kept"]
    assert model.hierarchy["Child"].inherited_method_count == 1


# ---------------------------------------------------------------------------
# one build does each piece of work once per distinct value
# ---------------------------------------------------------------------------


def _count_validate(monkeypatch) -> list[int]:
    calls = [0]
    real = ControlFlowGraph.validate

    def counting(self):
        calls[0] += 1
        real(self)

    monkeypatch.setattr(ControlFlowGraph, "validate", counting)
    return calls


def test_identical_facts_graphs_in_one_build_are_one_object(monkeypatch):
    calls = _count_validate(monkeypatch)
    records = [
        class_rec(f"p.C{i}", methods=[method_rec(f"m{j}", cfg=cfg_with_v(2 + j % 2)) for j in range(5)])
        for i in range(4)
    ]
    model = build_system_model(records)
    graphs = [m.cfg for c in model.internal_classes for m in c.methods]
    assert len(graphs) == 20 and len({id(g) for g in graphs}) == 2
    assert calls[0] == 2  # the graph checks run once per distinct shape
    again = build_system_model(records)  # the table belongs to one build
    assert again.get("p.C0").methods[0].cfg is not model.get("p.C0").methods[0].cfg
    assert calls[0] == 4


def test_a_class_without_statements_counts_the_statement_nodes_of_its_graphs():
    # every node kind, in graphs the methods share; no record has "statements"
    statement_kinds = {"plain", "decision", "loop-head", "switch-head", "call-bearing", "return", "jump"}
    every = ["entry", *sorted(statement_kinds), "plain", "exit"]
    shapes = [cfg_with_v(1), cfg_with_v(3), {"nodes": len(every), "kinds": every,
                                             "edges": [[i, i + 1] for i in range(len(every) - 1)]}]
    records = [
        class_rec(f"C{i}", methods=[method_rec(f"m{j}", cfg=shapes[(i + j) % 3]) for j in range(i % 5)])
        for i in range(12)
    ]
    model = build_system_model(records)
    for rec in records:
        kinds = [k for m in rec["methods"] for k in m["cfg"]["kinds"]]
        assert model.get(rec["name"]).statement_count == sum(k in statement_kinds for k in kinds)


def _shape_with(**changes) -> dict:
    g = cfg_with_v(2)
    g.update(changes)
    return g


@pytest.mark.parametrize("bad, reason", [
    (_shape_with(nodes=5), "kinds length disagrees with node count"),
    (_shape_with(edges=[[0, 1], [1, 2.0], [1, 2]]), "cfg node ids must be integers"),
    (_shape_with(edges=[[0, True], [1, 2], [1, 2]]), "cfg node ids must be integers"),
    (_shape_with(kinds=["entry", ["decision"], "exit"]), "unknown node kind: ['decision']"),
])
def test_a_record_repeating_a_valid_shape_is_still_checked(bad, reason):
    # the same kinds and edges as a graph already built in this build: the
    # facts schema checks every record before the build interns any graph
    records = [
        class_rec("p.A", methods=[method_rec("ok", cfg=cfg_with_v(2))]),
        class_rec("p.B", methods=[method_rec("ok", cfg=cfg_with_v(2)), method_rec("bad", params=["int"], cfg=bad)]),
    ]
    with pytest.raises(FactsError) as exc:
        facts_to_model({"classes": records})
    assert str(exc.value) == f"p.B.bad(int): {reason}"


def test_each_distinct_member_reference_is_split_once(monkeypatch):
    calls = []
    real = modelmod._parse_member_ref
    monkeypatch.setattr(modelmod, "_parse_member_ref", lambda ref: calls.append(ref) or real(ref))
    methods = [
        method_rec(f"m{i}", accesses=["ext.Lib.x", "B.y", "p.A.z", "w"],
                   invokes=[("ext.Lib.run", 1), ("ext.Lib.run(int)", 2), ("B.go", 1), ("go", 3)])
        for i in range(30)
    ]
    model = build_system_model([class_rec("p.A", methods=methods), class_rec("p.B"), class_rec("q.B")])
    assert sorted(calls) == sorted([
        "ext.Lib.x", "B.y", "p.A.z", "w", "ext.Lib.run", "ext.Lib.run", "B.go", "go",
    ])  # the two ext.Lib.run targets differ in their signature
    # a stub referenced 180 times is listed once; the ambiguous B is a stub
    assert model.externals == ("B", "ext.Lib")
    m = model.get("p.A").methods[7]
    assert m.accessed_attributes == (("B", "y"), ("ext.Lib", "x"), ("p.A", "w"), ("p.A", "z"))
    assert [(i.target_class, i.target_method, i.count) for i in m.invocations] == [
        ("B", "go", 1), ("ext.Lib", "run", 1), ("ext.Lib", "run(int)", 2), ("p.A", "go", 3),
    ]

