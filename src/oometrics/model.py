"""Language-neutral structural model of an analyzed system.

The model is built from "facts": per-class records in the facts-file JSON
schema (see README).  The source parser produces the same records, except
that a method's ``cfg`` is the ControlFlowGraph it built rather than its
JSON form, so a model can be built from parsed source, from a facts file
written by this tool, or from a facts file written by an external front
end for another language.

A built model is immutable and safe to share between metric computations.
"""

from __future__ import annotations

import json
import reprlib
from collections.abc import Iterable
from itertools import chain
from dataclasses import dataclass, field
from functools import cached_property

from .cfg import ControlFlowGraph
from .errors import DuplicateClass, FactsError, InheritanceCycle, MalformedGraph, MetricsError, UnknownClass

PRIMITIVE_TYPES = {
    "void", "int", "long", "short", "byte", "char", "boolean", "float", "double", "var",
}

VISIBILITIES = ("public", "protected", "private", "default")

CONSTRUCTOR_NAME = "<init>"
INITIALIZER_PREFIX = "<init-block"


@dataclass(frozen=True)
class AttributeInfo:
    name: str
    declared_type: str = ""
    visibility: str = "default"
    is_static: bool = False


@dataclass(frozen=True)
class Invocation:
    """One static invocation edge: target class, target method spec
    ("name" or "name(sig)"), and how many call sites hit it, at least one
    (:data:`FACTS_SCHEMA` holds a facts file's counts to that)."""

    target_class: str
    target_method: str
    count: int = 1

    @property
    def method_name(self) -> str:
        return self.target_method.split("(", 1)[0]


@dataclass(frozen=True)
class MethodInfo:
    name: str
    parameter_types: tuple[str, ...] = ()
    visibility: str = "default"
    is_abstract: bool = False
    is_static: bool = False
    accessed_attributes: tuple[tuple[str, str], ...] = ()  # (class, attribute)
    invocations: tuple[Invocation, ...] = ()
    cfg: ControlFlowGraph | None = None
    line_count: int | None = None
    signature: str = field(init=False, repr=False, compare=False)  # name(parameter types)

    def __post_init__(self):
        object.__setattr__(self, "signature", f"{self.name}({','.join(self.parameter_types)})")

    @property
    def is_constructor(self) -> bool:
        return self.name == CONSTRUCTOR_NAME

    @property
    def is_initializer(self) -> bool:
        return self.name.startswith(INITIALIZER_PREFIX)


@dataclass(frozen=True)
class ClassInfo:
    name: str
    kind: str = "class"  # class | interface | abstract-class
    superclasses: tuple[str, ...] = ()
    methods: tuple[MethodInfo, ...] = ()
    attributes: tuple[AttributeInfo, ...] = ()
    line_count: int = 0
    comment_lines: int = 0
    statement_count: int = 0

    def __post_init__(self):
        if self.comment_lines > self.line_count:
            raise FactsError(f"{self.name}: commentLines {self.comment_lines} exceeds lines {self.line_count}")
        sigs: set[str] = set()
        for m in self.methods:
            if m.signature in sigs:
                raise FactsError(f"{self.name}.{m.signature}: duplicate method signature")
            sigs.add(m.signature)
        attr_names: set[str] = set()
        for a in self.attributes:
            if a.name in attr_names:
                raise FactsError(f"{self.name}: duplicate attribute {a.name}")
            attr_names.add(a.name)

    @cached_property
    def regular_methods(self) -> tuple[MethodInfo, ...]:
        """Declared methods without constructors and initializer blocks
        (kept after the first read: several metrics ask for it per class)."""
        return tuple(m for m in self.methods if not m.is_constructor and not m.is_initializer)

    @property
    def constructors(self) -> tuple[MethodInfo, ...]:
        return tuple(m for m in self.methods if m.is_constructor)

    @property
    def member_functions(self) -> tuple[MethodInfo, ...]:
        """Methods plus constructors (initializer blocks excluded)."""
        return tuple(m for m in self.methods if not m.is_initializer)


@dataclass(frozen=True, slots=True)
class HierarchyRow:
    """One class's inheritance facts, as the metrics read them.

    ``index`` is the class's place in a parents-first order of the model;
    bit ``j`` of ``ancestor_bits`` is set when the class at index ``j`` is
    one of its resolvable ancestors, so every set bit lies below ``index``.
    ``ancestor_count`` counts the system classes above this one, a library
    parent left out; ``descendant_count`` the classes below it.  Ancestors
    pass down their non-private, non-static regular methods and non-private
    attributes; ``inherited_method_count`` and ``inherited_attribute_count``
    count the distinct signatures and names passed down that the class does
    not declare itself.  ``override_count`` is the number of declared
    regular methods whose signature an ancestor passes down, whatever their
    own visibility; ``new_method_count`` the declared non-private,
    non-static regular methods that override nothing.
    """

    index: int
    depth: int
    ancestor_bits: int
    ancestor_count: int
    descendant_count: int
    inherited_method_count: int
    inherited_attribute_count: int
    override_count: int
    new_method_count: int

    def has_ancestor(self, other: HierarchyRow) -> bool:
        """Whether ``other``'s class is one of this class's ancestors."""
        return bool(self.ancestor_bits >> other.index & 1)


@dataclass(frozen=True, slots=True)
class CouplingRow:
    """One system class's place in the uses relation, system classes only:
    ``used`` are the classes it uses, ``users`` the classes that use it."""

    used: frozenset[str]
    users: frozenset[str]


class SystemModel:
    """Immutable graph of the system's classes and their relations.

    A library class is no class of the model: ``externals`` holds, sorted,
    the names of the referenced classes that no class declares (library
    stubs), and every query takes system classes only.  Construct via
    :func:`build_system_model`; direct instantiation skips reference
    resolution.  Either way a class on an inheritance cycle raises
    InheritanceCycle.
    """

    def __init__(self, classes: dict[str, ClassInfo], externals: Iterable[str]):
        self._classes = dict(classes)
        self._names = tuple(sorted(self._classes))
        self.externals = tuple(sorted(externals))
        kids: dict[str, list[str]] = {name: [] for name in self._classes}
        for info in self._classes.values():
            for sup in info.superclasses:
                if sup in kids:
                    kids[sup].append(info.name)
        self._children = {name: tuple(sorted(v)) for name, v in kids.items()}

        # the one walk over the inheritance graph: a breadth-first
        # topological sort, parents first, which never reaches a class on a
        # cycle or below one
        waiting = {name: sum(1 for s in info.superclasses if s in kids) for name, info in self._classes.items()}
        order = [name for name in self._names if waiting[name] == 0]
        for name in order:  # grows while iterated
            for kid in self._children[name]:
                waiting[kid] -= 1
                if waiting[kid] == 0:
                    order.append(kid)
        if len(order) < len(self._classes):
            # every class left has a superclass left: walk up the first one
            # from the first class left until a class repeats
            trail: dict[str, int] = {}
            name = next(name for name in self._classes if waiting[name])
            while name not in trail:
                trail[name] = len(trail)
                name = next(s for s in self._classes[name].superclasses if waiting.get(s))
            raise InheritanceCycle(list(trail)[trail[name]:] + [name])
        self._order = order

    # -- basic access --------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._classes

    def __len__(self) -> int:
        return len(self._classes)

    def get(self, name: str) -> ClassInfo:
        try:
            return self._classes[name]
        except KeyError:
            raise UnknownClass(name) from None

    @property
    def internal_class_names(self) -> tuple[str, ...]:
        """The system classes' names, sorted."""
        return self._names

    @property
    def internal_classes(self) -> tuple[ClassInfo, ...]:
        return tuple(self._classes[n] for n in self._names)

    # -- inheritance ---------------------------------------------------------

    def children(self, name: str) -> tuple[str, ...]:
        self.get(name)
        return self._children[name]

    @cached_property
    def hierarchy(self) -> dict[str, HierarchyRow]:
        """Every class's inheritance facts, built on first use in two passes
        over the parents-first order (see :func:`hierarchy_rows`)."""
        return hierarchy_rows(self._classes, self._children, self._order)

    # -- the uses relation -----------------------------------------------------

    @cached_property
    def coupling(self) -> dict[str, CouplingRow]:
        """Every system class's used and user system classes, built on
        first use.  A class uses the system classes it invokes a method of,
        whose attributes it accesses, and that type its attributes and
        parameters; never itself, and a plain ``extends`` is no use."""
        classes = self._classes
        used: dict[str, frozenset[str]] = {}
        for c in self._names:
            info = classes[c]
            refs = [a.declared_type for a in info.attributes]
            for m in info.methods:
                refs += m.parameter_types
                refs += [inv.target_class for inv in m.invocations]
                refs += [owner for owner, _ in m.accessed_attributes]
            found = classes.keys() & refs
            found.discard(c)
            used[c] = frozenset(found)
        users: dict[str, set[str]] = {c: set() for c in self._names}
        for c, targets in used.items():
            for d in targets:
                users[d].add(c)
        return {c: CouplingRow(used[c], frozenset(users[c])) for c in self._names}


def hierarchy_rows(
    classes: dict[str, ClassInfo], children: dict[str, tuple[str, ...]], order: list[str]
) -> dict[str, HierarchyRow]:
    """All inheritance facts in two passes over ``order``, every class after
    its superclasses: the order :class:`SystemModel` finds when it is built,
    by the same walk that rejects a cycle.

    The backward pass ORs each class's descendants into its parents as a
    Python-int bitset and keeps their count; a class's set is dropped once
    its parents have it, so a chain holds O(N) such bits at a time.  The
    forward pass carries bitsets of each class's ancestors and of the
    method signatures and attribute names its ancestors pass down.  Only
    members that some class with children passes down get a bit, so a
    class without ancestors holds only zeros.  Ancestor sets stay: about
    N*N/16 bytes for one chain of N classes.
    """
    index = {name: i for i, name in enumerate(order)}
    parents = [[index[s] for s in classes[name].superclasses if s in classes] for name in order]

    n = len(order)
    descendant_count = [0] * n
    below = [0] * n
    for i in reversed(range(n)):
        mine, below[i] = below[i], 0
        descendant_count[i] = mine.bit_count()
        for j in parents[i]:
            below[j] |= (1 << i) | mine

    sig_bit: dict[str, int] = {}
    attr_bit: dict[str, int] = {}
    depth = [0] * n
    ancestors = [0] * n
    inherited_sigs = [0] * n  # what its ancestors pass down, overridden or not
    inherited_attrs = [0] * n
    passed_sigs = [0] * n  # what the class itself passes down
    passed_attrs = [0] * n
    rows: dict[str, HierarchyRow] = {}
    for i, name in enumerate(order):
        info = classes[name]
        depth[i] = max((1 + depth[j] for j in parents[i]), default=0)  # a library parent adds no depth
        anc = sigs = attrs = 0
        for j in parents[i]:
            anc |= (1 << j) | ancestors[j]
            sigs |= passed_sigs[j] | inherited_sigs[j]
            attrs |= passed_attrs[j] | inherited_attrs[j]
        ancestors[i], inherited_sigs[i], inherited_attrs[i] = anc, sigs, attrs

        overrides = new = 0
        for m in info.regular_methods:
            bit = sig_bit.get(m.signature)
            if bit is not None and sigs >> bit & 1:
                overrides += 1
            elif m.visibility != "private" and not m.is_static:
                new += 1
        shadowed = 0
        for a in info.attributes:
            bit = attr_bit.get(a.name)
            if bit is not None and attrs >> bit & 1:
                shadowed += 1
        rows[name] = HierarchyRow(
            index=i,
            depth=depth[i],
            ancestor_bits=anc,
            ancestor_count=anc.bit_count(),
            descendant_count=descendant_count[i],
            inherited_method_count=sigs.bit_count() - overrides,
            inherited_attribute_count=attrs.bit_count() - shadowed,
            override_count=overrides,
            new_method_count=new,
        )

        if children[name]:
            for m in info.regular_methods:
                if m.visibility != "private" and not m.is_static:
                    passed_sigs[i] |= 1 << sig_bit.setdefault(m.signature, len(sig_bit))
            for a in info.attributes:
                if a.visibility != "private":
                    passed_attrs[i] |= 1 << attr_bit.setdefault(a.name, len(attr_bit))
    return rows


# ---------------------------------------------------------------------------
# Building a model from facts records
# ---------------------------------------------------------------------------


def _parse_member_ref(ref: str) -> tuple[str, str]:
    """Split "Class.member" / "pkg.Class.member" at the last dot."""
    cls, _, member = ref.rpartition(".")
    if not cls:
        return "", ref
    return cls, member


class _Resolver:
    """Reference resolution for one model build.  Each distinct reference
    string is resolved, and each distinct member reference split, once."""

    def __init__(self, declared: dict[str, list]):
        self.declared = declared
        simple: dict[str, list[str]] = {}
        for qual in declared:
            simple.setdefault(qual.rsplit(".", 1)[-1], []).append(qual)
        self.simple = simple
        self.externals: set[str] = set()
        self.resolved: dict[str, str | None] = {}
        self.accesses: dict[str, tuple[str, str | None, str]] = {}
        self.targets: dict[str, tuple[str, str | None, str]] = {}

    def resolve(self, ref: str) -> str | None:
        """Qualified match, unique simple-name match, else the reference
        itself: a library name, kept in ``externals``."""
        try:
            return self.resolved[ref]
        except KeyError:
            pass
        key, ref = ref, ref.strip()
        if not ref or ref in PRIMITIVE_TYPES:
            out = None
        elif ref in self.declared:
            out = ref
        else:
            candidates = self.simple.get(ref.rsplit(".", 1)[-1], [])
            if len(candidates) == 1:
                out = candidates[0]
            else:
                self.externals.add(ref)
                out = ref
        self.resolved[key] = out
        return out

    def member(self, ref: str, here: str, call: bool = False) -> tuple[str, str] | None:
        """Owner and member of an ``accesses`` entry ("Class.attr") or, with
        ``call``, of an ``invokes`` target ("Class.method(sig)", the
        signature kept with the method).  A bare member is ``here``'s; None
        means the owner resolves to nothing (blank or primitive)."""
        memo = self.targets if call else self.accesses
        split = memo.get(ref)
        if split is None:
            head, paren, spec = ref.partition("(") if call else (ref, "", "")
            cls_ref, tail = _parse_member_ref(head)
            split = memo[ref] = (cls_ref, cls_ref and self.resolve(cls_ref), tail + paren + spec)
        cls_ref, owner, tail = split
        if not cls_ref:
            return here, tail
        return None if owner is None else (owner, tail)


def build_system_model(class_records, source=None) -> SystemModel:
    """Read, check and resolve class records, from a facts file or the
    parser (whose ``cfg`` is the ControlFlowGraph it built), into a model.

    Each value is checked through :data:`FACTS_SCHEMA` as it is read: every
    class record's own keys and name first, then each class's members and
    invariants, in order.  Methods whose graphs have the same kinds and
    edges share one graph object, so its checks and ev/iv reductions run
    once per build.  A rejected record raises FactsError, or MalformedGraph
    for a graph that is not a valid CFG, naming the class, method, key and
    ``source``: the records' file, or a list of each record's file.
    Colliding names raise DuplicateClass, a cycle InheritanceCycle.  A
    reference that no record declares, or whose simple name more than one
    record declares, stays a name: one of the model's ``externals``.
    """
    declared: dict[str, list] = {}
    for ci, rec in enumerate(class_records):
        try:
            values = _take(rec, "class")
        except _Bad as bad:
            index = ci - source.index(source[ci]) if type(source) is list else ci  # its place in its file
            raise _fail(FactsError, _label("class", rec, index), bad.args[1], source, ci) from None
        if values[0] in declared:
            raise DuplicateClass(values[0])
        declared[values[0]] = values

    resolver = _Resolver(declared)
    # one object per distinct graph and invocation edge, shared by the
    # methods that repeat it: both are immutable (see from_facts)
    graphs: dict = {}
    invocations: dict[tuple[str, str, int], Invocation] = {}
    classes: dict[str, ClassInfo] = {}

    for ci, (name, kind, extends, lines, comment_lines, statements, attributes, methods) in enumerate(
        declared.values()
    ):
        supers = []
        for sup in extends:
            resolved = resolver.resolve(sup)
            if resolved is not None and resolved not in supers:
                supers.append(resolved)  # a self-reference is a cycle the model rejects

        try:
            attrs = []
            for ai, a in enumerate(attributes):
                a_name, a_type, visibility, static = _take(a, "attribute")
                attrs.append(AttributeInfo(name=a_name, declared_type=resolver.resolve(a_type) or a_type,
                                           visibility=visibility, is_static=static))

            members = []
            for mi, m in enumerate(methods):
                m_name, param_types, visibility, abstract, static, refs, invokes, cfg, m_lines = _take(m, "method")
                params = tuple(resolver.resolve(p) or p for p in param_types)
                accesses: set[tuple[str, str]] = set()
                for ref in refs:
                    found = resolver.member(ref, name)
                    if found is not None:
                        accesses.add(found)
                merged: dict[tuple[str, str], int] = {}
                for ii, inv in enumerate(invokes):
                    target, count = _take(inv, "invocation")
                    key = resolver.member(target, name, True)
                    if key is not None:
                        merged[key] = merged.get(key, 0) + count
                calls = []
                for (c, m_), n in sorted(merged.items()):
                    edge = invocations.get((c, m_, n))
                    if edge is None:
                        edge = invocations[c, m_, n] = Invocation(c, m_, n)
                    calls.append(edge)
                if type(cfg) is ControlFlowGraph:
                    cfg = graphs.setdefault((cfg.kinds, cfg.edges), cfg)
                elif cfg is not None:
                    cfg = ControlFlowGraph.from_facts(cfg, graphs)
                members.append(
                    MethodInfo(
                        name=m_name,
                        parameter_types=params,
                        visibility=visibility,
                        is_abstract=abstract,
                        is_static=static,
                        accessed_attributes=tuple(sorted(accesses)),
                        invocations=tuple(calls),
                        cfg=cfg,
                        line_count=m_lines,
                    )
                )

            if statements is None:
                statements = sum(m.cfg.statement_node_count for m in members if m.cfg is not None)
            classes[name] = ClassInfo(
                name=name,
                kind=kind,
                superclasses=tuple(supers),
                methods=tuple(members),
                attributes=tuple(attrs),
                line_count=lines,
                comment_lines=comment_lines,
                statement_count=statements,
            )
        except _Bad as bad:
            level, text = bad.args
            where = name + (_label("attribute", a, ai) if level == "attribute" else _label("method", m, mi))
            if level == "invocation":
                where += _label("invocation", inv, ii)
            raise _fail(FactsError, where, text, source, ci) from None
        except MalformedGraph as exc:
            raise _fail(MalformedGraph, name + _label("method", m, mi), exc, source, ci) from None
        except FactsError as exc:  # the class's own invariants, named in the message
            raise _fail(FactsError, "", exc, source, ci) from None

    return SystemModel(classes, resolver.externals)


# ---------------------------------------------------------------------------
# Facts-file serialization
# ---------------------------------------------------------------------------


def _record(level: str, *values) -> dict:
    """A record of ``level``: ``values``, in the table's order, under its
    keys; a None value (no graph, no line count) is left out."""
    return {key: value for key, value in zip(FACTS_SCHEMA[level], values, strict=True) if value is not None}


def class_to_record(info: ClassInfo) -> dict:
    """The facts record that :func:`build_system_model` reads back to ``info``."""
    methods = [
        _record(
            "method", m.name, list(m.parameter_types), m.visibility, m.is_abstract, m.is_static,
            sorted(f"{owner}.{attr}" for owner, attr in set(m.accessed_attributes)),
            [_record("invocation", f"{inv.target_class}.{inv.target_method}", inv.count)
             for inv in sorted(m.invocations, key=lambda i: (i.target_class, i.target_method))],
            None if m.cfg is None else m.cfg.to_facts(), m.line_count,
        )
        for m in info.methods
    ]
    attributes = [_record("attribute", a.name, a.declared_type, a.visibility, a.is_static) for a in info.attributes]
    return _record("class", info.name, info.kind, list(info.superclasses), info.line_count, info.comment_lines,
                   info.statement_count, attributes, methods)


def model_to_facts(model: SystemModel) -> dict:
    """Serialize the system classes (loading resolves the library names again)."""
    return _record("document", [class_to_record(c) for c in model.internal_classes])


# ---------------------------------------------------------------------------
# The facts schema: one table reads, checks and writes every record
# ---------------------------------------------------------------------------

CLASS_KINDS = ("class", "interface", "abstract-class")

#: the default of a key that every record of its level must have
REQUIRED = object()


def _graph(cfg) -> str | None:
    """What is wrong with a method's ``cfg``, or None: a graph the parser
    built, or a record with exactly ``nodes``, ``edges`` and ``kinds``,
    every edge a pair of integer node ids, every kind a string, and
    ``nodes`` the number of kinds.  Which strings name a kind, and which ids
    a node, the graph checks."""
    if type(cfg) is ControlFlowGraph:
        return None  # checked when the parser built it
    if type(cfg) is not dict or not cfg.keys() >= {"nodes", "edges", "kinds"}:
        return "cfg needs 'nodes', 'edges' and 'kinds'"
    if len(cfg) > 3:
        return f"cfg has no key {next(k for k in cfg if k not in ('nodes', 'edges', 'kinds'))!r}"
    nodes, edges, kinds = cfg["nodes"], cfg["edges"], cfg["kinds"]
    if type(edges) is not list or type(kinds) is not list:
        return "cfg 'edges' and 'kinds' must be lists"
    if not {*map(type, edges)} <= {list} or not {*map(len, edges)} <= {2}:
        return "every cfg edge must be a pair of node ids"
    if not {*map(type, chain.from_iterable(edges))} <= {int}:
        return "cfg node ids must be integers"
    if type(nodes) is not int:
        return "cfg 'nodes' must be an integer"
    if not {*map(type, kinds)} <= {str}:
        return f"unknown node kind: {next(k for k in kinds if type(k) is not str)}"
    return None if nodes == len(kinds) else "kinds length disagrees with node count"


#: The facts format.  Each record level maps its keys, in the order the
#: model reads them, to (type, default); a key without a default is
#: REQUIRED.  A type is an int n for an int of at least n (exact: never a
#: float, a string or a bool), ``str`` or ``bool``; a tuple of the strings
#: allowed; ``[level]`` for a list of records of that level, ``[str]`` for a
#: list of strings; or a function that says what is wrong with a value, as
#: :func:`_graph` does for a method's ``cfg``.  A key that its level does
#: not list is an error.  :func:`build_system_model` reads every record
#: through this table and :func:`class_to_record` writes every record from it.
FACTS_SCHEMA: dict[str, dict[str, tuple]] = {
    "document": {"classes": (["class"], REQUIRED)},
    "class": {
        "name": (str, REQUIRED), "kind": (CLASS_KINDS, "class"), "extends": ([str], ()), "lines": (0, 0),
        "commentLines": (0, 0), "statements": (0, None), "attributes": (["attribute"], ()),
        "methods": (["method"], ()),
    },
    "attribute": {"name": (str, REQUIRED), "type": (str, ""), "visibility": (VISIBILITIES, "default"),
                  "static": (bool, False)},
    "method": {
        "name": (str, REQUIRED), "paramTypes": ([str], ()), "visibility": (VISIBILITIES, "default"),
        "abstract": (bool, False), "static": (bool, False), "accesses": ([str], ()),
        "invokes": (["invocation"], ()), "cfg": (_graph, None), "lines": (0, None),
    },
    "invocation": {"target": (str, REQUIRED), "count": (1, 1)},
}
# per level: the keys a record must have, each key's place and type, the defaults in place order
_READ = {
    level: ([key for key, (_, default) in keys.items() if default is REQUIRED],
            {key: (i, kind) for i, (key, (kind, _)) in enumerate(keys.items())},
            [default for _, default in keys.values()])
    for level, keys in FACTS_SCHEMA.items()
}
_TYPE_NAMES = {str: "a string", bool: "true or false"}
# how a failure names the records it sits in: by name, else by place
_LABELS = {"class": ("{}", "classes[{}]"), "method": (".{}", ".methods[{}]"),
           "attribute": (": attribute {}", ": attributes[{}]"), "invocation": (": invokes {}", ": invokes[{}]")}


class _Bad(Exception):
    """What the facts table rejects: args are the record's level and the text."""


def _take(rec, level: str) -> list:
    """The values of a record of ``level`` in the table's order, each checked
    as it is taken, an absent key's at its default; a list of records is
    checked as a list, for the model to take its records.  Raises _Bad."""
    needs, slots, defaults = _READ[level]
    if type(rec) is not dict:
        raise _Bad(level, f"{level} {reprlib.repr(rec)} is not an object")
    for key in needs:
        if key not in rec:
            raise _Bad(level, f"{level} needs {key!r}")
    values = defaults.copy()
    for key, value in rec.items():
        try:
            i, kind = slots[key]
        except KeyError:
            raise _Bad(level, f"{level} has no key {key!r}") from None
        values[i] = value
        # the common cases inline: a string or bool, an int in range, one of
        # the strings allowed, a list of records or of strings
        if type(value) is kind or type(kind) is int and type(value) is int and value >= kind:
            continue
        if type(kind) is tuple and value in kind:
            continue
        if type(value) is list and type(kind) is list and (type(kind[0]) is str or {*map(type, value)} <= {kind[0]}):
            continue
        text = _check(value, kind, key)
        if text is not None:
            raise _Bad(level, text)
    return values


def _check(value, kind, key: str) -> str | None:
    """What is wrong with ``value`` as a ``kind`` other than a list of
    records (the model takes those one by one), or None."""
    if type(kind) is list:
        if type(value) is not list:
            return f"{key} {reprlib.repr(value)} is not a list"
        if not {*map(type, value)} <= {kind[0]}:
            return next(filter(None, (_check(v, kind[0], f"{key}[{i}]") for i, v in enumerate(value))), None)
    elif type(kind) is int:
        if type(value) is not int:
            return f"{key} {reprlib.repr(value)} is not an integer"
        if value < kind:
            return f"{key} {value} is below {kind}"
    elif type(kind) is tuple:
        if value not in kind:
            return f"{key} {reprlib.repr(value)} is not one of {', '.join(kind)}"
    elif kind in _TYPE_NAMES:
        if type(value) is not kind:
            return f"{key} {reprlib.repr(value)} is not {_TYPE_NAMES[kind]}"
    else:
        return kind(value)
    return None


def _label(level: str, rec, index: int) -> str:
    """How an error names the record of ``level`` at ``index``."""
    name = rec.get("target" if level == "invocation" else "name") if type(rec) is dict else None
    if type(name) is not str:
        return _LABELS[level][1].format(index)
    if level == "method":
        params = rec.get("paramTypes", [])
        name += f"({','.join(params) if _check(params, [str], '') is None else '?'})"
    return _LABELS[level][0].format(name)


def _fail(error: type, where: str, what, source, ci: int) -> MetricsError:
    """An ``error`` saying ``what`` of the records at ``where``, in class record
    ``ci``'s file: ``source``, or ``source[ci]`` for a list of files."""
    source = source[ci] if type(source) is list else source
    message = f"{where}: {what}" if where else str(what)
    return error(message if source is None else f"{message} (in {source})")


def _classes(doc, source=None) -> list:
    """The class records of a facts document, whose own keys the table
    checks; the records are checked as the model reads them."""
    try:
        return _take(doc, "document")[0]
    except _Bad as bad:
        raise _fail(FactsError, "", bad.args[1], source, 0) from None


def facts_to_model(doc) -> SystemModel:
    return build_system_model(_classes(doc))


def load_facts(path) -> list:
    """The class records of one facts file, for ``build_system_model(records,
    path)`` to read and check.  A file that cannot be read, is not JSON or
    is not a facts document raises FactsError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise FactsError(f"{path}: line {exc.lineno}: {exc.msg}") from None
    except OSError as exc:
        raise FactsError(str(exc)) from None
    return _classes(doc, path)
