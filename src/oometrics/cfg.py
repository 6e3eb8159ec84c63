"""Control-flow graphs for method bodies.

A graph has exactly one entry and one exit node; every node is reachable
from the entry and the exit is reachable from every node.  Construction
checks these invariants, so every metric can trust any graph it is given.
Edges form a list, not a set: parallel edges are meaningful (each decision
outcome is one edge, even when two outcomes land on the same node).

Node kinds: entry, exit, plain, decision, loop-head, switch-head,
call-bearing, return, jump.  Every executable statement contributes one
node; short-circuit operators and ternaries in a statement contribute
extra ``decision`` nodes chained next to it.
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

#: kinds that stand for one executable statement (used as a fallback when a
#: facts file carries no explicit statement count)
STATEMENT_KINDS = {PLAIN, DECISION, LOOP_HEAD, SWITCH_HEAD, CALL_BEARING, RETURN, JUMP}


@dataclass(frozen=True)
class ControlFlowGraph:
    kinds: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]
    entry: int
    exit: int

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

    def validate(self) -> None:
        """Raise MalformedGraph unless the single-entry/single-exit invariants hold."""
        n = self.node_count
        if n < 2:
            raise MalformedGraph("graph needs at least entry and exit")
        if [k for k in self.kinds if k == ENTRY] != [ENTRY] or self.kinds[self.entry] != ENTRY:
            raise MalformedGraph("exactly one entry node required")
        if [k for k in self.kinds if k == EXIT] != [EXIT] or self.kinds[self.exit] != EXIT:
            raise MalformedGraph("exactly one exit node required")
        for k in self.kinds:
            if not isinstance(k, str) or k not in NODE_KINDS:
                raise MalformedGraph(f"unknown node kind: {k}")
        fwd: dict[int, list[int]] = {i: [] for i in range(n)}
        rev: dict[int, list[int]] = {i: [] for i in range(n)}
        for a, b in self.edges:
            if not (0 <= a < n and 0 <= b < n):
                raise MalformedGraph(f"edge ({a},{b}) out of range")
            fwd[a].append(b)
            rev[b].append(a)
        if _reachable(fwd, self.entry) != set(range(n)):
            raise MalformedGraph("not all nodes reachable from entry")
        if _reachable(rev, self.exit) != set(range(n)):
            raise MalformedGraph("exit not reachable from all nodes")

    def statement_node_count(self) -> int:
        return sum(1 for k in self.kinds if k in STATEMENT_KINDS)

    def to_facts(self) -> dict:
        """Facts-file representation: {"nodes": n, "edges": [[a,b],...], "kinds": [...]}."""
        return {
            "nodes": self.node_count,
            "edges": [[a, b] for a, b in self.edges],
            "kinds": list(self.kinds),
        }

    @classmethod
    def from_facts(cls, data: dict) -> "ControlFlowGraph":
        try:
            nodes, edges, kinds = data["nodes"], data["edges"], data["kinds"]
        except (KeyError, TypeError):
            raise MalformedGraph("cfg needs 'nodes', 'edges' and 'kinds'") from None
        if not isinstance(edges, list) or not isinstance(kinds, list):
            raise MalformedGraph("cfg 'edges' and 'kinds' must be lists")
        try:
            pairs = tuple((int(a), int(b)) for a, b in edges)
        except (TypeError, ValueError):
            raise MalformedGraph("every cfg edge must be a pair of node ids") from None
        kinds = tuple(kinds)
        if len(kinds) != nodes:
            raise MalformedGraph("kinds length disagrees with node count")
        try:
            entry = kinds.index(ENTRY)
            exit_ = kinds.index(EXIT)
        except ValueError as exc:
            raise MalformedGraph("entry/exit missing") from exc
        return cls(kinds=kinds, edges=pairs, entry=entry, exit=exit_)


def _reachable(adj: dict[int, list[int]], start: int) -> set[int]:
    seen = {start}
    todo = [start]
    while todo:
        for nxt in adj[todo.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return seen


# ---------------------------------------------------------------------------
# Statement tree
# ---------------------------------------------------------------------------
#
# The parser lowers method bodies into these nodes; build_cfg turns them
# into a graph.  ``decisions`` counts extra short-circuit/ternary decision
# points inside the statement's expressions (beyond the statement's own
# branching).  ``Simple.has_call`` marks a statement whose expressions
# invoke methods: it becomes a ``call-bearing`` node, the only kind that
# module design complexity counts as a call.


@dataclass
class Simple:
    kind: str = "expr"  # expr | decl | opaque | assert | empty
    has_call: bool = False
    decisions: int = 0
    counts: bool = True  # executable-statement counting ('int x;' does not count)


@dataclass
class ReturnStmt:
    decisions: int = 0


@dataclass
class ThrowStmt:
    decisions: int = 0


@dataclass
class BreakStmt:
    label: str | None = None


@dataclass
class ContinueStmt:
    label: str | None = None


@dataclass
class Block:
    stmts: list = field(default_factory=list)


@dataclass
class IfStmt:
    then: Block
    orelse: Block | None = None
    decisions: int = 0


@dataclass
class WhileStmt:
    body: Block
    decisions: int = 0


@dataclass
class DoWhileStmt:
    body: Block
    decisions: int = 0


@dataclass
class ForStmt:
    body: Block
    decisions: int = 0


@dataclass
class SwitchArm:
    labels: int  # number of case labels on this arm (default excluded)
    is_default: bool
    body: Block


@dataclass
class SwitchStmt:
    arms: list[SwitchArm]
    decisions: int = 0


@dataclass
class TryStmt:
    body: Block
    handlers: list[Block] = field(default_factory=list)
    final: Block | None = None
    decisions: int = 0


@dataclass
class Labeled:
    label: str
    stmt: object = None


def count_statements(stmts: list) -> int:
    """Executable statements in a statement list, nested bodies included."""
    total = 0
    todo = [stmts]  # statement lists still to count; a stack, so nesting depth is free
    while todo:
        for s in todo.pop():
            if isinstance(s, Block):
                todo.append(s.stmts)
            elif isinstance(s, Simple):
                total += 1 if s.counts else 0
            elif isinstance(s, (ReturnStmt, ThrowStmt, BreakStmt, ContinueStmt)):
                total += 1
            elif isinstance(s, IfStmt):
                total += 1
                todo.append(s.then.stmts)
                if s.orelse is not None:
                    todo.append(s.orelse.stmts)
            elif isinstance(s, (WhileStmt, DoWhileStmt, ForStmt)):
                total += 1
                todo.append(s.body.stmts)
            elif isinstance(s, SwitchStmt):
                total += 1
                todo.extend(a.body.stmts for a in s.arms)
            elif isinstance(s, TryStmt):
                total += 1
                todo.append(s.body.stmts)
                todo.extend(h.stmts for h in s.handlers)
                if s.final is not None:
                    todo.append(s.final.stmts)
            elif isinstance(s, Labeled):
                todo.append([s.stmt])
    return total


def _trampoline(gen):
    """Run a generator whose nested calls are yielded, not made.

    A generator yields the generator of each call it would otherwise make
    and receives that call's return value, or has its exception raised at
    the ``yield``.  The calls stack up in a list on the heap, so statement
    nesting of any depth runs within the interpreter's recursion limit.
    Private, so the benchmark tracer (which spans public functions) counts
    the work it runs in the caller's layer: parsing stays javasrc time.
    """
    stack = [gen]
    top = gen
    value = error = None
    while True:
        try:
            call = top.send(value) if error is None else top.throw(error)
        except StopIteration as done:
            stack.pop()
            if not stack:
                return done.value
            top = stack[-1]
            value, error = done.value, None
        except Exception as exc:
            stack.pop()
            if not stack:
                raise
            top = stack[-1]
            value, error = None, exc
        else:
            stack.append(call)
            top = call
            value = error = None


# ---------------------------------------------------------------------------
# CFG construction
# ---------------------------------------------------------------------------


class _Frame:
    """Break/continue target bookkeeping for one loop, switch or labeled statement."""

    __slots__ = ("label", "breaks", "continue_target", "takes_continue", "continues")

    def __init__(self, label: str | None, continue_target: int | None, takes_continue: bool = False):
        self.label = label
        self.breaks: list[int] = []
        self.continue_target = continue_target
        self.takes_continue = takes_continue
        self.continues: list[int] = []  # deferred wiring (do-while)


class _Builder:
    def __init__(self):
        self.kinds: list[str] = []
        self.edges: list[tuple[int, int]] = []
        self.exit_pending: list[int] = []  # return/throw sources, wired to exit at the end
        self.frames: list[_Frame] = []
        self.pending_label: str | None = None

    # -- graph primitives ---------------------------------------------------

    def node(self, kind: str) -> int:
        self.kinds.append(kind)
        return len(self.kinds) - 1

    def edge(self, a: int, b: int) -> None:
        self.edges.append((a, b))

    def attach(self, pending: list[int], target: int) -> None:
        for src in pending:
            self.edge(src, target)

    def inline_decisions(self, pending: list[int], count: int) -> list[int]:
        """Short-circuit operators and ternaries: each becomes one decision
        node whose two outcomes rejoin immediately.  This canonical shape
        adds one independent path per operator and stays structured under
        the essential-complexity reduction."""
        for _ in range(count):
            d = self.node(DECISION)
            self.attach(pending, d)
            pending = [d, d]
        return pending

    def take_label(self) -> str | None:
        label, self.pending_label = self.pending_label, None
        return label

    def find_frame(self, label: str | None, want_break: bool) -> _Frame:
        for frame in reversed(self.frames):
            if label is not None and frame.label != label:
                continue
            if not want_break and not frame.takes_continue:
                continue  # switch/labeled-block frames take breaks only
            return frame
        raise MalformedGraph(f"jump outside loop/switch (label={label!r})")

    # -- statement lowering --------------------------------------------------

    # stmt_list and stmt are generators run by _trampoline(): each nested
    # statement is yielded, and its dangling exits sent back.

    def stmt_list(self, stmts: list, pending: list[int]):
        for s in stmts:
            pending = yield self.stmt(s, pending)
        return pending

    def stmt(self, s, pending: list[int]):
        if not pending:
            return []  # unreachable code after return/break: dropped
        if isinstance(s, Block):
            return (yield self.stmt_list(s.stmts, pending))

        if isinstance(s, Labeled):
            frame = _Frame(s.label, None)
            self.frames.append(frame)
            self.pending_label = s.label
            try:
                out = yield self.stmt(s.stmt, pending)
            finally:
                self.pending_label = None
                self.frames.pop()
            return out + frame.breaks

        if isinstance(s, Simple):
            if s.kind == "empty":
                return pending
            n = self.node(CALL_BEARING if s.has_call else PLAIN)
            self.attach(pending, n)
            return self.inline_decisions([n], s.decisions)

        if isinstance(s, ReturnStmt):
            pending = self.inline_decisions(pending, s.decisions)
            n = self.node(RETURN)
            self.attach(pending, n)
            self.exit_pending.append(n)
            return []

        if isinstance(s, ThrowStmt):
            pending = self.inline_decisions(pending, s.decisions)
            n = self.node(JUMP)
            self.attach(pending, n)
            self.exit_pending.append(n)
            return []

        if isinstance(s, BreakStmt):
            n = self.node(JUMP)
            self.attach(pending, n)
            self.find_frame(s.label, want_break=True).breaks.append(n)
            return []

        if isinstance(s, ContinueStmt):
            n = self.node(JUMP)
            self.attach(pending, n)
            frame = self.find_frame(s.label, want_break=False)
            if frame.continue_target is None:
                frame.continues.append(n)  # do-while: condition not built yet
            else:
                self.edge(n, frame.continue_target)
            return []

        if isinstance(s, IfStmt):
            self.take_label()
            pending = self.inline_decisions(pending, s.decisions)
            d = self.node(DECISION)
            self.attach(pending, d)
            out = yield self.stmt_list(s.then.stmts, [d])
            if s.orelse is not None:
                out = out + (yield self.stmt_list(s.orelse.stmts, [d]))
            else:
                out = out + [d]
            return out

        if isinstance(s, (WhileStmt, ForStmt)):
            label = self.take_label()
            mark = len(self.kinds)
            pending = self.inline_decisions(pending, s.decisions)
            h = self.node(LOOP_HEAD)
            self.attach(pending, h)
            header_entry = mark if len(self.kinds) - mark > 1 else h
            frame = _Frame(label, header_entry, takes_continue=True)
            self.frames.append(frame)
            body_out = yield self.stmt_list(s.body.stmts, [h])
            self.frames.pop()
            self.attach(body_out, header_entry)  # back edge re-evaluates the condition
            return [h] + frame.breaks

        if isinstance(s, DoWhileStmt):
            label = self.take_label()
            frame = _Frame(label, None, takes_continue=True)
            self.frames.append(frame)
            mark = len(self.kinds)
            body_out = yield self.stmt_list(s.body.stmts, pending)
            self.frames.pop()
            body_created = len(self.kinds) > mark
            chain = [self.node(DECISION) for _ in range(s.decisions)]
            d = self.node(LOOP_HEAD)
            cond_entry = chain[0] if chain else d
            body_entry = mark if body_created else cond_entry
            cursor = body_out
            for c in chain:
                self.attach(cursor, c)
                cursor = [c, c]
            self.attach(cursor, d)
            self.edge(d, body_entry)
            for j in frame.continues:
                self.edge(j, cond_entry)
            return [d] + frame.breaks

        if isinstance(s, SwitchStmt):
            self.take_label()
            pending = self.inline_decisions(pending, s.decisions)
            h = self.node(SWITCH_HEAD)
            self.attach(pending, h)
            frame = _Frame(None, None)
            self.frames.append(frame)
            carried: list[int] = []
            has_default = False
            for arm in s.arms:
                entries = [h] * arm.labels
                if arm.is_default:
                    has_default = True
                    entries.append(h)
                carried = yield self.stmt_list(arm.body.stmts, entries + carried)
            self.frames.pop()
            after = list(carried)
            if not has_default:
                after.append(h)
            return after + frame.breaks

        if isinstance(s, TryStmt):
            self.take_label()
            t = self.node(DECISION if s.handlers else PLAIN)
            self.attach(pending, t)
            out = yield self.stmt_list(s.body.stmts, [t])
            for h in s.handlers:
                out = out + (yield self.stmt_list(h.stmts, [t]))
            if s.final is not None:
                out = yield self.stmt_list(s.final.stmts, out)
            return out

        raise TypeError(f"unknown statement node: {s!r}")


def build_cfg(body: list) -> ControlFlowGraph:
    """Lower a parsed statement list to its control-flow graph."""
    b = _Builder()
    entry = b.node(ENTRY)
    pending = _trampoline(b.stmt_list(body, [entry]))
    exit_ = b.node(EXIT)
    b.attach(pending, exit_)
    b.attach(b.exit_pending, exit_)

    # prune nodes made unreachable by dead code after jumps
    fwd: dict[int, list[int]] = {i: [] for i in range(len(b.kinds))}
    for a, c in b.edges:
        fwd[a].append(c)
    live = _reachable(fwd, entry)
    live.add(exit_)
    order = sorted(live)
    remap = {old: new for new, old in enumerate(order)}
    return ControlFlowGraph(
        kinds=tuple(b.kinds[old] for old in order),
        edges=tuple((remap[a], remap[c]) for a, c in b.edges if a in live and c in live),
        entry=remap[entry],
        exit=remap[exit_],
    )
