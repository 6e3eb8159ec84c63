"""Control-flow graphs for method bodies.

A graph has exactly one entry and one exit node; every node is reachable
from the entry and the exit is reachable from every node.  Construction
checks these invariants, so every metric can trust any graph it is given.
Edges form a list, not a set: parallel edges are meaningful (each decision
outcome is one edge, even when two outcomes land on the same node).

Node kinds: entry, exit, plain, decision, loop-head, switch-head,
call-bearing, return, jump.  Every executable statement contributes one
node; short-circuit operators and ternaries in a statement contribute
extra ``decision`` nodes chained next to it.  The Java parser lowers each
method body to nodes and edges as it parses it, and :func:`build_cfg`
finishes the graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import MalformedGraph

ENTRY = "entry"
EXIT = "exit"
PLAIN = "plain"
DECISION = "decision"
LOOP_HEAD = "loop-head"
SWITCH_HEAD = "switch-head"
CALL_BEARING = "call-bearing"
RETURN = "return"
JUMP = "jump"

NODE_KINDS = {ENTRY, EXIT, PLAIN, DECISION, LOOP_HEAD, SWITCH_HEAD, CALL_BEARING, RETURN, JUMP}


@dataclass(frozen=True, slots=True)
class ControlFlowGraph:
    kinds: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]
    entry: int
    exit: int
    # what is known of the graph beyond its value: set once, never compared
    _ev: int | None = field(default=None, init=False, repr=False, compare=False)
    _iv: int | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.validate()

    @property
    def call_nodes(self) -> frozenset[int]:
        """The ``call-bearing`` nodes: those that module design complexity keeps."""
        return frozenset(i for i, k in enumerate(self.kinds) if k == CALL_BEARING)

    @property
    def node_count(self) -> int:
        return len(self.kinds)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def statement_node_count(self) -> int:
        """Nodes that stand for an executable statement (the fallback when a
        facts file carries no statement count): every node but the one
        entry and the one exit, so no kind is scanned."""
        return len(self.kinds) - 2

    @property
    def ev(self) -> int:
        """Essential complexity, reduced on first read and kept with the graph."""
        if self._ev is None:
            from .complexity import essential

            object.__setattr__(self, "_ev", essential(self))
        return self._ev

    @property
    def iv(self) -> int:
        """Module design complexity, reduced on first read and kept with the graph."""
        if self._iv is None:
            from .complexity import module_design

            object.__setattr__(self, "_iv", module_design(self))
        return self._iv

    def validate(self) -> None:
        """Raise MalformedGraph unless the single-entry/single-exit invariants hold."""
        n = self.node_count
        if n < 2:
            raise MalformedGraph("graph needs at least entry and exit")
        if self.kinds.count(ENTRY) != 1 or self.kinds[self.entry] != ENTRY:
            raise MalformedGraph("exactly one entry node required")
        if self.kinds.count(EXIT) != 1 or self.kinds[self.exit] != EXIT:
            raise MalformedGraph("exactly one exit node required")
        for k in self.kinds:
            if not isinstance(k, str) or k not in NODE_KINDS:
                raise MalformedGraph(f"unknown node kind: {k}")
        fwd: list[list[int]] = [[] for _ in range(n)]
        rev: list[list[int]] = [[] for _ in range(n)]
        for a, b in self.edges:
            if not (0 <= a < n and 0 <= b < n):
                raise MalformedGraph(f"edge ({a},{b}) out of range")
            fwd[a].append(b)
            rev[b].append(a)
        if len(_reachable(fwd, self.entry)) != n:
            raise MalformedGraph("not all nodes reachable from entry")
        if len(_reachable(rev, self.exit)) != n:
            raise MalformedGraph("exit not reachable from all nodes")

    def to_facts(self) -> dict:
        """Facts-file representation: {"nodes": n, "edges": [[a,b],...], "kinds": [...]}."""
        return {
            "nodes": self.node_count,
            "edges": [[a, b] for a, b in self.edges],
            "kinds": list(self.kinds),
        }

    @classmethod
    def from_facts(cls, data: dict, interned: dict | None = None) -> "ControlFlowGraph":
        """Build a graph from its facts form, once the facts table's ``cfg``
        rule (``model.FACTS_SCHEMA``) has accepted it.  ``interned``, a
        table that belongs to one model build, maps the kinds and edges of
        each graph already built to that graph: a record that repeats them
        gets the same object, so the graph checks and the ev/iv reductions
        run once per distinct graph.
        """
        key = kinds, edges = tuple(data["kinds"]), tuple(map(tuple, data["edges"]))
        hit = None if interned is None else interned.get(key)
        if hit is not None:
            return hit
        entry = kinds.index(ENTRY) if ENTRY in kinds else 0  # a missing node fails validation
        exit_ = kinds.index(EXIT) if EXIT in kinds else 0
        g = cls(kinds=kinds, edges=edges, entry=entry, exit=exit_)
        if interned is not None:
            interned[key] = g
        return g


def _reachable(adj: list[list[int]], start: int) -> set[int]:
    seen = {start}
    todo = [start]
    while todo:
        for nxt in adj[todo.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return seen


def build_cfg(kinds: list[str], edges: list[tuple[int, int]], pending: list[int], exits: list[int]) -> ControlFlowGraph:
    """Finish a lowered method body as its control-flow graph.

    ``kinds`` and ``edges`` are the body's nodes and edges, node 0 being the
    entry; ``pending`` are the dangling exits of its last statement and
    ``exits`` its return/throw nodes.  Adds the exit node, wires both to it,
    drops the nodes no path from the entry reaches (dead code after jumps)
    and freezes the graph, which validates it.
    """
    exit_ = len(kinds)
    edges = edges + [(src, exit_) for src in pending] + [(src, exit_) for src in exits]
    fwd: list[list[int]] = [[] for _ in range(exit_ + 1)]
    for a, c in edges:
        fwd[a].append(c)
    live = _reachable(fwd, 0)
    live.add(exit_)  # even when no path reaches it: validation rejects that
    order = sorted(live)
    remap = {old: new for new, old in enumerate(order)}
    kinds = kinds + [EXIT]
    return ControlFlowGraph(
        kinds=tuple(kinds[old] for old in order),
        edges=tuple((remap[a], remap[c]) for a, c in edges if a in live and c in live),
        entry=0,
        exit=remap[exit_],
    )
