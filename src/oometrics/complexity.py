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


def _reduce(g: ControlFlowGraph, frozen: set[int], sequences: bool) -> int:
    """Contract ``g`` to a fixpoint with a worklist; return v of the residue.

    The scratch graph holds each node's successor and predecessor sets in
    lists indexed by node; a removed node's sets become None.  Self-loops
    and parallel edges are dropped on the way in, as the reductions would
    drop them first anyway, and no contraction adds one.  ``edges`` is the
    running edge total, so removing a node costs O(its degree).

    Sequence (when ``sequences``): the sole successor v of u, entered only
    from u and neither the entry nor frozen, merges with u.  Arm: a node
    other than entry, exit or a frozen one with one edge in and one edge out
    is replaced by an edge.  ``frozen`` nodes are never contracted away; a
    merge that keeps the other node moves the mark.

    Every node is visited once, node 0 first, then again only when a
    contraction changes its edges.  An arm costs O(1).  A merge moves the
    smaller of u's in-edges and v's out-edges onto the other node.  The
    merged node keeps both sides, and one of them must drop to a single
    edge before it can merge again, so the moves add up to O(edges) over
    the whole reduction.
    """
    n = g.node_count
    succ: list[set[int] | None] = [set() for _ in range(n)]
    pred: list[set[int] | None] = [set() for _ in range(n)]
    for a, b in g.edges:
        if a != b:
            succ[a].add(b)
            pred[b].add(a)
    edges = sum(map(len, succ))
    nodes, entry, exit_ = n, g.entry, g.exit
    work = list(range(n - 1, -1, -1))
    queued = bytearray(b"\1") * n

    while work:
        x = work.pop()
        queued[x] = 0
        sx = succ[x]
        if sx is None:
            continue
        px = pred[x]
        if sequences:
            # x as u, else x as v: a dropped self-loop may leave x one edge in
            u = v = None
            if len(sx) == 1:
                (v,) = sx
                if v != entry and v not in frozen and len(pred[v]) == 1:
                    u = x
            if u is None and len(px) == 1 and x != entry and x not in frozen:
                (u,) = px
                v = x if len(succ[u]) == 1 else None
            if v is not None and u is not None:
                if len(pred[u]) < len(succ[v]):
                    # v takes u's place
                    gone, keep, moved = u, v, list(pred[u])
                    if u == entry:
                        entry = v
                    if u == exit_:
                        exit_ = v
                    if u in frozen:
                        frozen.add(v)
                else:
                    gone, keep, moved = v, u, list(succ[v])
                    if v == exit_:
                        exit_ = u
                for t in succ[gone]:
                    pred[t].remove(gone)
                for s in pred[gone]:
                    succ[s].remove(gone)
                edges -= len(succ[gone]) + len(pred[gone])
                succ[gone] = pred[gone] = None
                nodes -= 1
                out, into = (succ, pred) if keep == u else (pred, succ)
                for t in moved:
                    if t != keep and t not in out[keep]:
                        out[keep].add(t)
                        into[t].add(keep)
                        edges += 1
                if not queued[keep]:
                    queued[keep] = 1
                    work.append(keep)
                continue
        if len(px) != 1 or len(sx) != 1 or x == entry or x == exit_ or x in frozen:
            continue
        (p,), (t,) = px, sx
        pred[t].remove(x)
        succ[p].remove(x)
        succ[x] = pred[x] = None
        edges -= 2
        nodes -= 1
        if p != t and t not in succ[p]:
            succ[p].add(t)
            pred[t].add(p)
            edges += 1
        for y in (p, t):
            if not queued[y]:
                queued[y] = 1
                work.append(y)
    return edges - nodes + 2


def essential(g: ControlFlowGraph) -> int:
    """Collapse structured primes to fixpoint, return v of the residue.
    Nodes of kind ``return`` are never contracted, so a mid-method return
    survives as unstructured."""
    return _reduce(g, {i for i, kind in enumerate(g.kinds) if kind == "return"}, sequences=True)


def module_design(g: ControlFlowGraph) -> int:
    """Reduce away decision structure with no call-bearing node on any
    branch, return v of the residue."""
    calls = g.call_nodes
    if not calls:
        return 1
    return _reduce(g, set(calls), sequences=False)


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
