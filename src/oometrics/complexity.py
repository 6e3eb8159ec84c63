"""McCabe complexity family over control-flow graphs.

v(G)  - cyclomatic complexity: E - N + 2 for a single-exit graph.
ev(G) - essential complexity: v(G) of the graph after all structured
        primes (sequences, if arms that rejoin, self-contained loops,
        multiway branches whose arms rejoin) are collapsed.  Jumps out of
        a structure survive the reduction.
iv(G) - module design complexity: v(G) after removing decision structure
        that cannot influence which subordinate calls execute.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cfg import ControlFlowGraph
from .errors import MalformedGraph
from .model import ClassInfo

CYCLOMATIC_THRESHOLD = 10
ESSENTIAL_THRESHOLD = 4


@dataclass(frozen=True)
class ComplexityTriple:
    v: int
    ev: int
    iv: int

    def __post_init__(self):
        if not (1 <= self.ev <= self.v and 1 <= self.iv <= self.v):
            raise ValueError(f"inconsistent complexity triple {self}")


@dataclass(frozen=True)
class Quadrant:
    label: str  # I | II | III | IV
    meaning: str


_QUADRANTS = {
    "I": Quadrant("I", "Unreliable/Unmaintainable"),
    "II": Quadrant("II", "Reliable/Unmaintainable"),
    "III": Quadrant("III", "Reliable/Maintainable"),
    "IV": Quadrant("IV", "Unreliable/Maintainable"),
}


def cyclomatic(g: ControlFlowGraph) -> int:
    return g.edge_count - g.node_count + 2


class _MultiGraph:
    """Mutable multigraph scratchpad for the reductions."""

    def __init__(self, g: ControlFlowGraph):
        self.succ: dict[int, list[int]] = {i: [] for i in range(g.node_count)}
        self.pred: dict[int, list[int]] = {i: [] for i in range(g.node_count)}
        for a, b in g.edges:
            self.succ[a].append(b)
            self.pred[b].append(a)
        self.entry = g.entry
        self.exit = g.exit
        self.kinds = g.kinds

    @property
    def nodes(self) -> list[int]:
        return list(self.succ)

    def edge_count(self) -> int:
        return sum(len(v) for v in self.succ.values())

    def cyclomatic(self) -> int:
        return self.edge_count() - len(self.succ) + 2

    def remove_node(self, n: int) -> None:
        del self.succ[n]
        del self.pred[n]
        for v in self.succ.values():
            while n in v:
                v.remove(n)
        for v in self.pred.values():
            while n in v:
                v.remove(n)

    def add_edge(self, a: int, b: int) -> None:
        self.succ[a].append(b)
        self.pred[b].append(a)

    def drop_self_loops(self) -> bool:
        changed = False
        for n, outs in self.succ.items():
            while n in outs:
                outs.remove(n)
                self.pred[n].remove(n)
                changed = True
        return changed

    def merge_parallel(self) -> bool:
        changed = False
        for n, outs in self.succ.items():
            seen: set[int] = set()
            dups = [t for t in outs if t in seen or seen.add(t)]
            for t in dups:
                outs.remove(t)
                self.pred[t].remove(n)
                changed = True
        return changed


def _reduce_essential(g: ControlFlowGraph) -> _MultiGraph:
    """Collapse structured primes; nodes of kind ``return`` are never
    contracted, so a mid-method return survives as unstructured."""
    mg = _MultiGraph(g)

    def protected(n: int) -> bool:
        return mg.kinds[n] == "return"

    changed = True
    while changed:
        changed = mg.drop_self_loops() or mg.merge_parallel()
        # sequence: sole successor v of u is entered only from u
        for u in mg.nodes:
            if u not in mg.succ:
                continue
            outs = mg.succ[u]
            if len(outs) != 1:
                continue
            v = outs[0]
            if v == u or v == mg.entry or len(mg.pred[v]) != 1 or protected(v):
                continue
            targets = list(mg.succ[v])
            if v == mg.exit:
                mg.exit = u
            mg.remove_node(v)
            for t in targets:
                if t != v:
                    mg.add_edge(u, t)
            changed = True
        # arm: straight-line node between a branch and a rejoin point
        for a in mg.nodes:
            if a not in mg.succ or a in (mg.entry, mg.exit) or protected(a):
                continue
            if len(mg.pred[a]) == 1 and len(mg.succ[a]) == 1:
                p, t = mg.pred[a][0], mg.succ[a][0]
                if p == a or t == a:
                    continue
                mg.remove_node(a)
                mg.add_edge(p, t)
                changed = True
    return mg


def essential(g: ControlFlowGraph) -> int:
    """Collapse structured primes to fixpoint, return v of the residue."""
    return _reduce_essential(g).cyclomatic()


def module_design(g: ControlFlowGraph, call_nodes: set[int] | None = None) -> int:
    """Reduce away decision structure with no calls on any branch, return v.

    ``call_nodes`` defaults to the graph's recorded call-bearing nodes.
    """
    calls = set(g.call_nodes) if call_nodes is None else set(call_nodes)
    if not calls <= set(range(g.node_count)):
        raise MalformedGraph("call_nodes outside graph")
    if not calls:
        return 1
    mg = _MultiGraph(g)
    changed = True
    while changed:
        changed = mg.drop_self_loops() or mg.merge_parallel()
        for n in mg.nodes:
            if n not in mg.succ or n in (mg.entry, mg.exit) or n in calls:
                continue
            if len(mg.pred[n]) == 1 and len(mg.succ[n]) == 1:
                p, t = mg.pred[n][0], mg.succ[n][0]
                if p == n or t == n:
                    continue
                mg.remove_node(n)
                mg.add_edge(p, t)
                changed = True
    return mg.cyclomatic()


def complexity_triple(g: ControlFlowGraph, call_nodes: set[int] | None = None) -> ComplexityTriple:
    return ComplexityTriple(cyclomatic(g), essential(g), module_design(g, call_nodes))


def class_wmc(c: ClassInfo) -> int:
    """Sum of per-method cyclomatic complexity; bodyless methods count 1.

    Constructors included, initializer blocks excluded.
    """
    total = 0
    for m in c.member_functions:
        total += cyclomatic(m.cfg) if m.cfg is not None else 1
    return total


def quadrant(v: int, ev: int) -> Quadrant:
    """Reliability/maintainability verdict from (v, ev) against (10, 4);
    boundary values are in-threshold."""
    if v < 1 or ev < 1:
        raise ValueError("complexities start at 1")
    high_v = v > CYCLOMATIC_THRESHOLD
    high_ev = ev > ESSENTIAL_THRESHOLD
    if high_v and high_ev:
        return _QUADRANTS["I"]
    if high_ev:
        return _QUADRANTS["II"]
    if high_v:
        return _QUADRANTS["IV"]
    return _QUADRANTS["III"]
