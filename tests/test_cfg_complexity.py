"""CFG construction and the McCabe complexity family.

Oracles kept independent of the implementation:
- cyclomatic: undirected cycle-space rank (spanning-forest redundancy)
  with the virtual exit->entry edge;
- essential: naive prime-collapse over explicit adjacency rebuilt each
  pass;
- structured corpus: the generator counts decision outcomes textually.
"""

import random
import time
from collections import Counter
from pathlib import Path

import pytest

from helpers import (
    cfg_with_v, essential_residue, oracle_ev, oracle_iv, random_class_source, random_method_source, random_model,
)
from oometrics import cfg as cfgmod
from oometrics import cli, complexity
from oometrics.cfg import ControlFlowGraph
from oometrics.cli import main
from oometrics.complexity import (
    class_wmc,
    complexity_triple,
    cyclomatic,
    essential,
    module_design,
    quadrant,
)
from oometrics.errors import MalformedGraph
from oometrics.javasrc import parse_source
from oometrics.model import build_system_model

FIXTURES = Path(__file__).parent / "fixtures"


def _method_cfgs(src: str):
    facts = parse_source(src, "x.java")
    out = {}
    for rec in facts.classes:
        for m in rec["methods"]:
            if "cfg" in m:
                out[m["name"]] = m["cfg"]
    return out


# ---------------------------------------------------------------------------
# construction-time invariants
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kinds, edges", [
    (("entry", "entry", "exit"), ((0, 2), (1, 2))),  # two entry nodes
    (("entry", "exit"), ((0, 1), (0, 5))),  # edge out of range
    (("entry", "plain", "exit"), ((0, 2), (1, 2))),  # node 1 unreachable from entry
    (("entry", "plain", "exit"), ((0, 1), (1, 1), (0, 2))),  # node 1 cannot reach exit
])
def test_invalid_graph_rejected_at_construction(kinds, edges):
    with pytest.raises(MalformedGraph):
        ControlFlowGraph(kinds=kinds, edges=edges, entry=0, exit=len(kinds) - 1)


# ---------------------------------------------------------------------------
# cyclomatic
# ---------------------------------------------------------------------------


def test_linear_graph_v1():
    g = _method_cfgs("class W { void m() { x = 1; y = 2; z = 3; } }")["m"]
    assert cyclomatic(g) == 1
    assert g.edge_count - g.node_count + 2 == 1


def test_figure_wmc_methods():
    src = """
class A {
    void m1() {
        int i = 0;
        while (i < 10) { System.out.println(i); }
    }
    void m2() {
        int i = 3;
        do { if (i % 3 == 0) System.out.println(i); } while (i < 10);
    }
}
"""
    graphs = _method_cfgs(src)
    assert cyclomatic(graphs["m1"]) == 2
    assert cyclomatic(graphs["m2"]) == 3


def test_class_wmc_figure_value():
    src = """
class A {
    void m1() { int i = 0; while (i < 10) { System.out.println(i); } }
    void m2() { int i = 3; do { if (i % 3 == 0) System.out.println(i); } while (i < 10); }
}
"""
    model = build_system_model(parse_source(src, "A.java").classes)
    assert class_wmc(model.get("A")) == 5


def test_wmc_empty_class_zero_and_abstract_counts_one():
    model = build_system_model(parse_source("class E { }", "E.java").classes)
    assert class_wmc(model.get("E")) == 0
    model2 = build_system_model(
        parse_source("abstract class F { abstract void m(); }", "F.java").classes
    )
    assert class_wmc(model2.get("F")) == 1


class _UF:
    def __init__(self):
        self.p = {}

    def find(self, x):
        self.p.setdefault(x, x)
        while self.p[x] != x:
            self.p[x] = self.p[self.p[x]]
            x = self.p[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.p[rb] = ra
        return True


def _cycle_rank_oracle(g: ControlFlowGraph) -> int:
    """Independent cycles in the undirected multigraph with the virtual
    exit->entry edge closing the flowgraph."""
    uf = _UF()
    redundant = 0
    edges = list(g.edges) + [(g.exit, g.entry)]
    for a, b in edges:
        if not uf.union(a, b):
            redundant += 1
    return redundant


def test_cyclomatic_equals_cycle_rank_oracle_on_random_cfgs():
    rng = random.Random(17)
    checked = 0
    while checked < 1000:
        src, _ = random_class_source(rng, "R", n_methods=1)
        graphs = _method_cfgs(src)
        for g in graphs.values():
            # inject extra forward edges between statement nodes: still a
            # valid flowgraph, no longer tree-like
            edges = list(g.edges)
            nodes = [i for i, k in enumerate(g.kinds) if k not in ("entry", "exit")]
            for _ in range(rng.randrange(0, 3)):
                if len(nodes) >= 2:
                    a, b = rng.sample(nodes, 2)
                    edges.append((a, b))
            try:
                g2 = ControlFlowGraph(
                    kinds=g.kinds, edges=tuple(edges), entry=g.entry, exit=g.exit
                )
            except MalformedGraph:
                g2 = g  # injected edge broke reachability; use the original
            assert cyclomatic(g2) == _cycle_rank_oracle(g2)
            checked += 1


def test_cyclomatic_is_one_plus_branch_outdegrees():
    rng = random.Random(23)
    for _ in range(200):
        src, _ = random_class_source(rng, "B", n_methods=1)
        for g in _method_cfgs(src).values():
            outdeg = {}
            for a, _b in g.edges:
                outdeg[a] = outdeg.get(a, 0) + 1
            total = sum(d - 1 for n, d in outdeg.items() if d > 1)
            assert cyclomatic(g) == 1 + total


# ---------------------------------------------------------------------------
# essential
# ---------------------------------------------------------------------------


def _drop_loop_or_parallel(edges) -> bool:
    """Remove one self-loop, else one parallel edge; report whether one went."""
    for e in edges:
        if e[0] == e[1]:
            edges.remove(e)
            return True
    seen = set()
    for e in edges:
        if e in seen:
            edges.remove(e)
            return True
        seen.add(e)
    return False


def _contract_one_arm(edges, nodes, frozen) -> bool:
    """Contract one straight-line node between a branch and a join."""
    for n in sorted(nodes - frozen):
        ps = [a for a, b in edges if b == n]
        ss = [b for a, b in edges if a == n]
        if len(ps) == 1 and len(ss) == 1 and ps[0] != n and ss[0] != n:
            edges.remove((ps[0], n))
            edges.remove((n, ss[0]))
            edges.append((ps[0], ss[0]))
            nodes.remove(n)
            return True
    return False


def _essential_oracle(g: ControlFlowGraph) -> int:
    """Naive prime collapse: rebuild adjacency from scratch every pass and
    apply one reduction at a time until nothing applies.  Return-kind nodes
    are never contracted (mid-method returns stay unstructured)."""
    edges = list(g.edges)
    nodes = set(range(g.node_count))
    entry, exit_ = g.entry, g.exit
    is_return = {n for n in nodes if g.kinds[n] == "return"}

    def succs(n):
        return [b for a, b in edges if a == n]

    def preds(n):
        return [a for a, b in edges if b == n]

    def sequence_merge() -> bool:
        # u -> v, only edge out of u, only edge into v
        nonlocal exit_
        for (u, v) in list(edges):
            if u != v and v not in is_return and len(succs(u)) == 1 and len(preds(v)) == 1:
                edges.remove((u, v))
                for t in succs(v):
                    edges.remove((v, t))
                    edges.append((u, t))
                nodes.remove(v)
                if v == exit_:
                    exit_ = u
                return True
        return False

    while (
        _drop_loop_or_parallel(edges)
        or sequence_merge()
        or _contract_one_arm(edges, nodes, {entry, exit_} | is_return)
    ):
        pass
    return len(edges) - len(nodes) + 2


def _module_design_oracle(g: ControlFlowGraph) -> int:
    """Naive iv reduction: one self-loop drop, parallel merge or arm
    contraction at a time until nothing applies.  Call-bearing nodes, the
    entry and the exit are never contracted."""
    if not g.call_nodes:
        return 1
    edges = list(g.edges)
    nodes = set(range(g.node_count))
    frozen = {g.entry, g.exit} | set(g.call_nodes)
    while _drop_loop_or_parallel(edges) or _contract_one_arm(edges, nodes, frozen):
        pass
    return len(edges) - len(nodes) + 2


def test_structured_compositions_reduce_to_one():
    src = """
class S {
    void m() {
        int a = 0;
        if (a > 0) { a = 1; } else { a = 2; }
        while (a < 10) {
            for (int i = 0; i < 3; i++) {
                if (i == a) { a = a + 1; }
            }
        }
        switch (a) {
            case 1: a = 0; break;
            case 2: a = 9; break;
            default: a = 3; break;
        }
        try { a = risky(); } catch (Exception e) { a = -1; }
    }
    int risky() { return 1; }
}
"""
    for name, g in _method_cfgs(src).items():
        if name == "m":
            assert essential(g) == 1


def test_break_from_nested_if_survives_reduction():
    src = """
class S {
    void m() {
        while (c()) {
            if (d()) { break; }
            work();
        }
    }
    boolean c() { return true; }
    boolean d() { return true; }
    void work() { }
}
"""
    g = _method_cfgs(src)["m"]
    ev = essential(g)
    assert ev == _essential_oracle(g)
    assert ev >= 2  # the escaping jump is irreducible
    assert ev <= cyclomatic(g)


def test_labeled_continue_across_two_loops():
    src = """
class S {
    void m() {
        outer:
        for (int i = 0; i < 9; i++) {
            for (int j = 0; j < 9; j++) {
                if (i == j) { continue outer; }
                work();
            }
        }
    }
    void work() { }
}
"""
    g = _method_cfgs(src)["m"]
    ev = essential(g)
    assert ev == _essential_oracle(g)
    assert ev >= 3


def test_early_return_in_conditional_is_unstructured():
    src = """
class S {
    void m() {
        if (c()) { return; }
        work();
        work();
    }
    boolean c() { return true; }
    void work() { }
}
"""
    g = _method_cfgs(src)["m"]
    assert essential(g) == _essential_oracle(g) == 2


def test_essential_matches_oracle_on_random_methods():
    rng = random.Random(77)
    for _ in range(500):
        src, _ = random_method_source(rng)
        g = _method_cfgs(f"class W {{\n{src}\n void helper() {{ }} }}")["gen"]
        assert essential(g) == _essential_oracle(g)


def test_essential_idempotent():
    # reducing the residue again changes nothing: ev of a graph built from
    # the residue (which the dict-of-sets oracle reduction keeps) equals the
    # residue's cyclomatic number
    src = """
class S {
    void m() {
        while (c()) { if (d()) { break; } work(); }
        if (c()) { return; }
        work();
    }
    boolean c() { return true; }
    boolean d() { return true; }
    void work() { }
}
"""
    g = _method_cfgs(src)["m"]
    mg = essential_residue(g)
    first = mg.cyclomatic()
    assert essential(g) == first
    # rebuild a CFG from the residue (original kinds preserved) and reduce again
    ids = sorted(mg.succ)
    remap = {n: i for i, n in enumerate(ids)}
    kinds = []
    for n in ids:
        if n == mg.entry:
            kinds.append("entry")
        elif n == mg.exit:
            kinds.append("exit")
        elif n in mg.frozen:
            kinds.append("return")  # a merge may move a return's mark
        elif g.kinds[n] in ("entry", "exit"):
            kinds.append("plain")
        else:
            kinds.append(g.kinds[n])
    edges = tuple((remap[a], remap[b]) for a, outs in mg.succ.items() for b in outs)
    assert len(edges) == mg.edges
    g2 = ControlFlowGraph(kinds=tuple(kinds), edges=edges, entry=remap[mg.entry], exit=remap[mg.exit])
    assert essential(g2) == first


# ---------------------------------------------------------------------------
# module design (iv)
# ---------------------------------------------------------------------------


def test_iv_no_calls_is_one():
    src = """
class S {
    void m() {
        int a = 0;
        if (a > 0) { a = 1; }
        while (a < 5) { a = a + 1; }
    }
}
"""
    g = _method_cfgs(src)["m"]
    assert module_design(g) == 1


def test_iv_one_if_with_call_in_then_branch():
    src = """
class S {
    void m(int a) {
        if (a > 0) { work(); } else { a = 1; }
    }
    void work() { }
}
"""
    g = _method_cfgs(src)["m"]
    assert module_design(g) == 2


def test_iv_calls_on_every_branch_equals_v():
    rng = random.Random(3)
    for k in (1, 2, 3, 4):
        cond_lines = []
        close = []
        for i in range(k):
            cond_lines.append("    " * (i + 2) + f"if (x > {i}) {{ a(); ")
            close.append("    " * (i + 2) + "} else { b(); }")
        body = "\n".join(cond_lines) + "\n" + "\n".join(reversed(close))
        src = f"""
class S {{
    void m(int x) {{
{body}
    }}
    void a() {{ }}
    void b() {{ }}
}}
"""
        g = _method_cfgs(src)["m"]
        assert cyclomatic(g) == k + 1
        assert module_design(g) == cyclomatic(g)


def test_iv_bounds_on_random_corpus():
    rng = random.Random(7)
    for _ in range(200):
        src, _ = random_method_source(rng)
        g = _method_cfgs(f"class W {{\n{src}\n void helper() {{ }} }}")["gen"]
        iv = module_design(g)
        assert 1 <= iv <= cyclomatic(g)


def test_iv_matches_oracle_on_random_methods():
    rng = random.Random(91)
    values = set()
    for _ in range(300):
        src, _ = random_method_source(rng)
        g = _method_cfgs(f"class W {{\n{src}\n void helper() {{ }} }}")["gen"]
        iv = module_design(g)
        assert iv == _module_design_oracle(g)
        values.add(iv)
    assert len(values) >= 3  # the corpus exercises more than call-free bodies


def _renumbered_with_jumps(g: ControlFlowGraph, rng: random.Random) -> ControlFlowGraph:
    """``g`` with node ids shuffled and up to two extra edges between
    statement nodes: unstructured, and visited in a different order."""
    edges = list(g.edges)
    inner = [i for i, k in enumerate(g.kinds) if k not in ("entry", "exit")]
    for _ in range(rng.randrange(0, 3)):
        if len(inner) >= 2:
            edges.append(tuple(rng.sample(inner, 2)))
    perm = list(range(g.node_count))
    rng.shuffle(perm)
    kinds = [""] * g.node_count
    for old, new in enumerate(perm):
        kinds[new] = g.kinds[old]
    return ControlFlowGraph(
        kinds=tuple(kinds),
        edges=tuple((perm[a], perm[b]) for a, b in edges),
        entry=perm[g.entry],
        exit=perm[g.exit],
    )


def test_reductions_match_oracles_on_renumbered_unstructured_graphs():
    rng = random.Random(101)
    checked = 0
    while checked < 400:
        src, _ = random_method_source(rng)
        g = _method_cfgs(f"class W {{\n{src}\n void helper() {{ }} }}")["gen"]
        try:
            g2 = _renumbered_with_jumps(g, rng)
        except MalformedGraph:
            continue  # an extra edge broke reachability
        assert essential(g2) == _essential_oracle(g2)
        assert module_design(g2) == _module_design_oracle(g2)
        checked += 1


# ---------------------------------------------------------------------------
# scaling: the reductions are linear in graph size
# ---------------------------------------------------------------------------


def _sequential_ifs(n: int, with_calls: bool) -> ControlFlowGraph:
    then = "g();" if with_calls else "x++;"
    return _method_cfgs(f"class W {{ void m(boolean a) {{ {f'if (a) {then} ' * n}}} }}")["m"]


def test_essential_scales_to_20000_sequential_ifs():
    g = _sequential_ifs(20_000, with_calls=False)
    start = time.perf_counter()
    assert essential(g) == 1
    assert time.perf_counter() - start < 2.0


def test_module_design_scales_to_5000_sequential_ifs_with_calls():
    # the oracle is too slow for the big graph; its value on small ones
    # gives the closed form iv = n + 1 for this shape
    for n in (1, 2, 5, 12):
        assert _module_design_oracle(_sequential_ifs(n, with_calls=True)) == n + 1
    g = _sequential_ifs(5_000, with_calls=True)
    start = time.perf_counter()
    assert module_design(g) == 5_001
    assert time.perf_counter() - start < 2.0


def _chain_into_branch(n: int) -> ControlFlowGraph:
    """entry -> s1 -> ... -> sn -> W, W branching to n return arms.  W has
    the lowest id and the chain is numbered from its far end, so the
    worklist meets W first and then climbs the chain."""
    branch, exit_, entry = 0, 2 * n + 1, 2 * n + 2
    chain = list(range(n, 0, -1))
    arms = range(n + 1, 2 * n + 1)
    edges = [(entry, chain[0]), *zip(chain, chain[1:]), (chain[-1], branch)]
    edges += [(branch, a) for a in arms] + [(a, exit_) for a in arms]
    kinds = ["decision"] + ["plain"] * n + ["return"] * n + ["exit", "entry"]
    return ControlFlowGraph(kinds=tuple(kinds), edges=tuple(edges), entry=entry, exit=exit_)


def _join_into_chain(n: int) -> ControlFlowGraph:
    """The mirror: n return arms join at J, then J -> c1 -> ... -> cn ->
    exit.  J has the lowest id and the chain is numbered from J onwards."""
    join, branch, exit_, entry = 0, 2 * n + 1, 2 * n + 2, 2 * n + 3
    chain = list(range(1, n + 1))
    arms = range(n + 1, 2 * n + 1)
    edges = [(entry, branch)] + [(branch, a) for a in arms] + [(a, join) for a in arms]
    edges += [(join, chain[0]), *zip(chain, chain[1:]), (chain[-1], exit_)]
    kinds = ["plain"] * (n + 1) + ["return"] * n + ["decision", "exit", "entry"]
    return ControlFlowGraph(kinds=tuple(kinds), edges=tuple(edges), entry=entry, exit=exit_)


@pytest.mark.parametrize("shape", [_chain_into_branch, _join_into_chain])
def test_sequence_merges_scale_when_a_chain_meets_a_wide_node(shape):
    # a merge moves the smaller side; always moving one fixed side makes
    # the chain carry the n arms along, n times over (about 5 s for 4,000)
    for n in (1, 2, 5, 12):
        assert essential(shape(n)) == _essential_oracle(shape(n)) == max(n, 1)
    g = shape(4_000)
    start = time.perf_counter()
    assert essential(g) == 4_000
    assert time.perf_counter() - start < 2.0


# ---------------------------------------------------------------------------
# corpus invariants (acceptance criterion backbone)
# ---------------------------------------------------------------------------


def test_structured_corpus_v_ev_iv():
    rng = random.Random(2024)
    checked = 0
    while checked < 1000:
        src, decisions = random_method_source(rng)
        g = _method_cfgs(f"class W {{\n{src}\n void helper() {{ }} }}")["gen"]
        assert cyclomatic(g) == 1 + decisions
        assert essential(g) == 1
        assert 1 <= module_design(g) <= cyclomatic(g)
        checked += 1


def test_ev_le_v_everywhere():
    rng = random.Random(55)
    for _ in range(150):
        src, _ = random_method_source(rng)
        g = _method_cfgs(f"class W {{\n{src}\n void helper() {{ }} }}")["gen"]
        assert 1 <= essential(g) <= cyclomatic(g)


# ---------------------------------------------------------------------------
# quadrants
# ---------------------------------------------------------------------------


def test_quadrant_table():
    assert quadrant(1, 1).label == "III"
    assert quadrant(11, 5).label == "I"
    assert quadrant(11, 5).meaning == "Unreliable/Unmaintainable"
    assert quadrant(5, 5).label == "II"
    assert quadrant(12, 2).label == "IV"
    assert quadrant(10, 4).label == "III"  # boundary is in-threshold
    assert quadrant(10, 5).label == "II"
    assert quadrant(11, 4).label == "IV"


def test_quadrant_partition_total_and_exclusive():
    for v in range(1, 25):
        for ev in range(1, min(v, 12) + 1):
            labels = [quadrant(v, ev).label]
            assert len(labels) == 1 and labels[0] in ("I", "II", "III", "IV")


def test_facts_cfg_round_trip():
    g = cfg_with_v(4)
    parsed = ControlFlowGraph.from_facts(g)
    assert cyclomatic(parsed) == 4
    assert parsed.to_facts() == g


def _parsed_graphs():
    """Every graph the parser builds from the fixture sources and from 300
    generated method bodies."""
    for path in sorted(FIXTURES.glob("*/*.java")):
        for rec in parse_source(path.read_text(), path.name).classes:
            yield from (m["cfg"] for m in rec["methods"] if "cfg" in m)
    rng = random.Random(303)
    for _ in range(300):
        src, _ = random_method_source(rng)
        yield _method_cfgs(f"class W {{\n{src}\n void helper() {{ }} }}")["gen"]


def test_parsed_graphs_survive_the_facts_round_trip():
    # the call nodes are read from the kinds, so the facts form, which
    # carries no call set, loses nothing
    graphs = list(_parsed_graphs())
    assert len(graphs) > 300 and any(g.call_nodes for g in graphs)
    for g in graphs:
        assert ControlFlowGraph.from_facts(g.to_facts()) == g


def _random_cfg(rng: random.Random) -> ControlFlowGraph:
    """A random valid flowgraph: a tree from the entry and a path on to the
    exit from every node keep it valid; extra edges add back edges,
    self-loops and parallel edges; node ids are shuffled.  Many return
    nodes, as a frozen node's mark moves only in a merge next to one."""
    n = rng.randint(0, 14)
    kinds = ["entry"] + [rng.choice(("plain", "decision", "return", "return", "call-bearing")) for _ in range(n)]
    kinds.append("exit")
    edges = [(rng.randrange(0, i), i) for i in range(1, n + 1)]
    edges += [(i, rng.randint(i + 1, n + 1)) for i in range(n + 1)]
    edges += [(rng.randint(0, n), rng.randint(1, n + 1)) for _ in range(rng.randint(0, 2 * n))]
    perm = list(range(n + 2))
    rng.shuffle(perm)
    shuffled = [""] * (n + 2)
    for old, new in enumerate(perm):
        shuffled[new] = kinds[old]
    return ControlFlowGraph(kinds=tuple(shuffled), edges=tuple((perm[a], perm[b]) for a, b in edges),
                            entry=perm[0], exit=perm[n + 1])


def test_reductions_equal_the_dict_of_sets_reduction():
    # the list-indexed reduction keeps the dict-of-sets one's visiting
    # order and merge rules
    rng = random.Random(2027)
    graphs = [_random_cfg(rng) for _ in range(2000)]
    graphs += [shape(n) for shape in (_chain_into_branch, _join_into_chain) for n in (1, 2, 5, 12, 300)]
    graphs += [_sequential_ifs(n, calls) for n in (1, 5, 60) for calls in (False, True)]
    graphs += list(_parsed_graphs())
    assert len({essential(g) for g in graphs}) > 5 and len({module_design(g) for g in graphs}) > 5
    for g in graphs:
        assert (essential(g), module_design(g)) == (oracle_ev(g), oracle_iv(g)), g


def test_a_merge_into_a_return_node_moves_its_mark():
    # entry -> return -> decision: the decision, with more out-edges than
    # the return has in-edges, takes the return's place and its mark, and
    # so survives as unstructured
    g = ControlFlowGraph(kinds=("decision", "exit", "entry", "plain", "return"),
                         edges=((2, 4), (4, 0), (0, 3), (2, 1), (4, 0), (0, 1), (3, 1), (3, 1)), entry=2, exit=1)
    assert essential(g) == oracle_ev(g) == 2


@pytest.mark.parametrize("body, v", [
    ("if (a > 0) { return g(); } return false;", 2),
    ("while (a > 0) { if (g()) { break; } a--; } return true;", 3),
    ("do { a++; } while (g()); return true;", 2),
])
def test_a_call_in_a_condition_or_return_is_not_a_call_node(body, v):
    # iv counts call-bearing statements only: these calls sit in a return
    # or a condition, so iv is 1 whatever the branching around them
    src = f"class W {{ boolean g() {{ return true; }} boolean m(int a) {{ {body} }} }}"
    model = build_system_model(parse_source(src, "W.java").classes)
    g = next(m.cfg for m in model.get("W").methods if m.name == "m")
    assert (cyclomatic(g), module_design(g)) == (v, 1)


def test_analyze_of_source_validates_each_graph_once(monkeypatch, capsys):
    # the model takes the parser's graphs as they are: no facts round trip.
    # Parsed in process, so that the graphs are built where they are counted
    monkeypatch.setattr(cli, "_worker_count", lambda n_files: 1)
    calls = {"build_cfg": 0, "validate": 0}
    real_build, real_validate = cfgmod.build_cfg, ControlFlowGraph.validate

    def counting_build(kinds, edges, pending, exits):
        calls["build_cfg"] += 1
        return real_build(kinds, edges, pending, exits)

    def counting_validate(self):
        calls["validate"] += 1
        real_validate(self)

    def forbidden(*args):
        raise AssertionError("facts round trip on the source path")

    monkeypatch.setattr(cfgmod, "build_cfg", counting_build)
    monkeypatch.setattr(ControlFlowGraph, "validate", counting_validate)
    monkeypatch.setattr(ControlFlowGraph, "to_facts", forbidden)
    monkeypatch.setattr(ControlFlowGraph, "from_facts", classmethod(forbidden))
    assert main(["analyze", str(FIXTURES / "metric_test")]) == 0
    capsys.readouterr()
    assert calls["build_cfg"] > 10 and calls["validate"] == calls["build_cfg"]


def test_cached_ev_iv_equal_a_fresh_reduction(monkeypatch):
    # the acceptance corpus's 1000 generated methods in one build, and random
    # facts models: one graph object per distinct graph, each reduced once
    rng = random.Random(6001)
    records = []
    for i in range(1000):
        src, _ = random_method_source(rng)
        records += parse_source(f"class W{i} {{\n{src}\n void helper() {{ }} }}", f"W{i}.java").classes
    models = [build_system_model(records)]
    models += [random_model(random.Random(seed), n_classes=10, max_methods=6) for seed in range(30)]
    reduced: Counter = Counter()
    real_essential = complexity.essential
    monkeypatch.setattr(complexity, "essential", lambda g: reduced.update([id(g)]) or real_essential(g))
    for model in models:
        graphs = [m.cfg for c in model.internal_classes for m in c.methods if m.cfg is not None]
        assert len({id(g) for g in graphs}) == len({(g.kinds, g.edges) for g in graphs})
        for g in graphs:
            t = complexity_triple(g)
            fresh = ControlFlowGraph.from_facts(g.to_facts())
            assert (t.ev, t.iv) == (real_essential(fresh), module_design(fresh))
    assert set(reduced.values()) == {1}
    corpus = [m.cfg for c in models[0].internal_classes for m in c.methods]
    assert len(corpus) == 2000 and len({id(g) for g in corpus}) < 1000


# ---------------------------------------------------------------------------
# one pass: the parser lowers each statement as it parses it
# ---------------------------------------------------------------------------


def _graph_and_statements(body: str) -> tuple[ControlFlowGraph, int]:
    (rec,) = parse_source(f"class W {{ int m(boolean c, int x) {{ {body} }} }}", "W.java").classes
    (method,) = rec["methods"]
    return method["cfg"], rec["statements"]


def test_a_statement_that_fails_to_parse_leaves_nothing_it_built():
    # the do-while's body, and its break to the outer loop, are built
    # before the misspelt 'whle' is seen; the whole statement becomes one
    # opaque node, as if it had never been lowered
    failed = _graph_and_statements("outer: while (c) { do { break outer; } whle (x); y(); }")
    assert failed == _graph_and_statements("outer: while (c) { z; y(); }")


def test_dead_code_counts_as_statements_but_adds_no_node():
    g, statements = _graph_and_statements("return 1; x = 2;")
    assert statements == 2
    assert g.kinds == ("entry", "return", "exit")


def test_a_repeated_default_adds_one_head_edge():
    g, _ = _graph_and_statements("switch (x) { default: default: }")
    (head,) = [i for i, k in enumerate(g.kinds) if k == "switch-head"]
    assert [b for a, b in g.edges if a == head] == [g.exit]


def test_a_try_node_branches_only_once_a_catch_is_seen():
    g, _ = _graph_and_statements("try { x(); } finally { y(); }")
    assert "decision" not in g.kinds and cyclomatic(g) == 1
    g, _ = _graph_and_statements("try { x(); } catch (E e) { y(); } finally { z(); }")
    assert g.kinds.count("decision") == 1 and cyclomatic(g) == 2
