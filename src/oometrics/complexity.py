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


class _ReductionGraph:
    """Mutable graph scratchpad for the reductions.

    Self-loops and parallel edges are dropped on the way in, as the
    reductions would drop them first anyway, and ``link`` never adds one.
    ``edges`` is the running edge total, so removing a node costs O(its
    degree) and v(G) of the residue is O(1).  ``frozen`` nodes are never
    contracted away; a merge that keeps the other node moves the mark.
    """

    def __init__(self, g: ControlFlowGraph, frozen):
        self.succ: dict[int, set[int]] = {i: set() for i in range(g.node_count)}
        self.pred: dict[int, set[int]] = {i: set() for i in range(g.node_count)}
        for a, b in g.edges:
            if a != b:
                self.succ[a].add(b)
                self.pred[b].add(a)
        self.edges = sum(map(len, self.succ.values()))
        self.entry = g.entry
        self.exit = g.exit
        self.frozen = set(frozen)

    def cyclomatic(self) -> int:
        return self.edges - len(self.succ) + 2

    def link(self, a: int, b: int) -> None:
        """Add a->b unless it is a self-loop or parallels an existing edge."""
        if a != b and b not in self.succ[a]:
            self.succ[a].add(b)
            self.pred[b].add(a)
            self.edges += 1

    def remove_node(self, n: int) -> None:
        for t in self.succ[n]:
            self.pred[t].remove(n)
        for s in self.pred[n]:
            self.succ[s].remove(n)
        self.edges -= len(self.succ.pop(n)) + len(self.pred.pop(n))


def _sole(adj: set[int]) -> int | None:
    """The only neighbour in an adjacency set, if there is one."""
    return next(iter(adj)) if len(adj) == 1 else None


def _reduce(mg: _ReductionGraph, sequences: bool) -> _ReductionGraph:
    """Contract ``mg`` to a fixpoint with a worklist.

    Sequence (when ``sequences``): the sole successor v of u, entered only
    from u and neither the entry nor frozen, merges with u.  Arm: a node
    other than entry, exit or a frozen one with one edge in and one edge out
    is replaced by an edge.

    Every node is visited once, then again only when a contraction changes
    its edges.  An arm costs O(1).  A merge moves the smaller of u's
    in-edges and v's out-edges onto the other node.  The merged node keeps
    both sides, and one of them must drop to a single edge before it can
    merge again, so the moves add up to O(edges) over the whole reduction.
    """
    frozen = mg.frozen
    work = list(reversed(mg.succ))
    queued = set(work)

    def touch(n: int) -> None:
        if n not in queued:
            queued.add(n)
            work.append(n)

    def mergeable(u: int | None, v: int | None) -> bool:
        return (
            u is not None and v is not None and v != mg.entry and v not in frozen
            and _sole(mg.succ[u]) == v and _sole(mg.pred[v]) == u
        )

    while work:
        n = work.pop()
        queued.discard(n)
        if n not in mg.succ:
            continue
        if sequences:
            # n as u, else n as v: a dropped self-loop may leave n one edge in
            u, v = n, _sole(mg.succ[n])
            if not mergeable(u, v):
                u, v = _sole(mg.pred[n]), n
            if mergeable(u, v):
                if len(mg.pred[u]) < len(mg.succ[v]):
                    # v takes u's place
                    sources = list(mg.pred[u])
                    if u == mg.entry:
                        mg.entry = v
                    if u == mg.exit:
                        mg.exit = v
                    if u in frozen:
                        frozen.add(v)
                    mg.remove_node(u)
                    for s in sources:
                        mg.link(s, v)
                    touch(v)
                else:
                    targets = list(mg.succ[v])
                    if v == mg.exit:
                        mg.exit = u
                    mg.remove_node(v)
                    for t in targets:
                        mg.link(u, t)
                    touch(u)
                continue
        if n in (mg.entry, mg.exit) or n in frozen:
            continue
        p, t = _sole(mg.pred[n]), _sole(mg.succ[n])
        if p is not None and t is not None:
            mg.remove_node(n)
            mg.link(p, t)
            touch(p)
            touch(t)
    return mg


def _reduce_essential(g: ControlFlowGraph) -> _ReductionGraph:
    """Collapse structured primes; nodes of kind ``return`` are never
    contracted, so a mid-method return survives as unstructured."""
    returns = {n for n, kind in enumerate(g.kinds) if kind == "return"}
    return _reduce(_ReductionGraph(g, returns), sequences=True)


def essential(g: ControlFlowGraph) -> int:
    """Collapse structured primes to fixpoint, return v of the residue."""
    return _reduce_essential(g).cyclomatic()


def module_design(g: ControlFlowGraph) -> int:
    """Reduce away decision structure with no call-bearing node on any
    branch, return v of the residue."""
    calls = g.call_nodes
    if not calls:
        return 1
    return _reduce(_ReductionGraph(g, calls), sequences=False).cyclomatic()


def complexity_triple(g: ControlFlowGraph) -> ComplexityTriple:
    """v, ev and iv of ``g``; ev and iv are reduced once per graph object
    (see ``ControlFlowGraph.ev``/``iv``), so a graph a model shares between
    methods is reduced once."""
    return ComplexityTriple(cyclomatic(g), g.ev, g.iv)


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
