"""Language-neutral structural model of an analyzed system.

The model is built from "facts": per-class records in the facts-file JSON
schema (see README).  The source parser produces the same records, so a
model can be built from parsed source, from a facts file written by this
tool, or from a facts file written by an external front end for another
language.

A built model is immutable and safe to share between metric computations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

from .cfg import ControlFlowGraph
from .errors import DuplicateClass, InheritanceCycle, UnknownClass

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
    ("name" or "name(sig)"), and how many call sites hit it."""

    target_class: str
    target_method: str
    count: int = 1

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("invocation multiplicity must be >= 1")

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

    @property
    def signature(self) -> str:
        return f"{self.name}({','.join(self.parameter_types)})"

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
    is_external: bool = False
    external_depth: int = 0

    def __post_init__(self):
        if self.comment_lines > self.line_count:
            raise ValueError(f"{self.name}: comment_lines exceeds line_count")
        sigs = [m.signature for m in self.methods]
        if len(sigs) != len(set(sigs)):
            raise ValueError(f"{self.name}: duplicate method signature")
        attr_names = [a.name for a in self.attributes]
        if len(attr_names) != len(set(attr_names)):
            raise ValueError(f"{self.name}: duplicate attribute name")

    @cached_property
    def regular_methods(self) -> tuple[MethodInfo, ...]:
        """Declared methods without constructors and initializer blocks
        (kept after the first read: ancestor scans ask for it per descendant)."""
        return tuple(m for m in self.methods if not m.is_constructor and not m.is_initializer)

    @property
    def constructors(self) -> tuple[MethodInfo, ...]:
        return tuple(m for m in self.methods if m.is_constructor)

    @property
    def member_functions(self) -> tuple[MethodInfo, ...]:
        """Methods plus constructors (initializer blocks excluded)."""
        return tuple(m for m in self.methods if not m.is_initializer)


@dataclass(frozen=True)
class AncestorChain:
    """Resolvable transitive superclasses, nearest first.  External parents
    are excluded from ``names``; the deepest declared depth of an external
    parent encountered along any chain lands in ``external_depth``."""

    names: tuple[str, ...]
    external_depth: int = 0

    def __iter__(self):
        return iter(self.names)

    def __len__(self):
        return len(self.names)

    def __contains__(self, item):
        return item in self.names


@dataclass(frozen=True, slots=True)
class HierarchyRow:
    """One class's inheritance facts, as the metrics read them.

    ``index`` is the class's place in a parents-first order of the model;
    bit ``j`` of ``ancestor_bits`` is set when the class at index ``j`` is
    one of its resolvable ancestors, so every set bit lies below ``index``.
    Counts follow the walk queries: ``ancestor_count`` is
    ``len(ancestors(c))``, ``inherited_method_count`` and
    ``inherited_attribute_count`` are ``len(inherited_methods(c))`` and
    ``len(inherited_attributes(c))``.  ``descendant_count`` counts the
    classes that have this class among their ancestors, which for a model
    from :func:`build_system_model` (stubs have no parents) is
    ``len(descendants(c))``.  ``override_count`` is the number of declared
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


class SystemModel:
    """Immutable graph of classes and their relations.

    Construct via :func:`build_system_model`; direct instantiation skips
    reference resolution.
    """

    def __init__(self, classes: dict[str, ClassInfo]):
        self._classes = dict(classes)
        self._children: dict[str, tuple[str, ...]] = {}
        kids: dict[str, list[str]] = {name: [] for name in self._classes}
        for info in self._classes.values():
            for sup in info.superclasses:
                if sup in kids:
                    kids[sup].append(info.name)
        self._children = {name: tuple(sorted(v)) for name, v in kids.items()}
        self._used_cache: dict[str, frozenset[str]] = {}
        self._users_cache: dict[str, frozenset[str]] | None = None

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
    def class_names(self) -> tuple[str, ...]:
        return tuple(sorted(self._classes))

    @property
    def classes(self) -> tuple[ClassInfo, ...]:
        return tuple(self._classes[n] for n in self.class_names)

    @property
    def internal_class_names(self) -> tuple[str, ...]:
        return tuple(n for n in self.class_names if not self._classes[n].is_external)

    @property
    def internal_classes(self) -> tuple[ClassInfo, ...]:
        return tuple(c for c in self.classes if not c.is_external)

    @property
    def total_classes(self) -> int:
        """TC: system classes only, external stubs excluded."""
        return len(self.internal_class_names)

    # -- inheritance ---------------------------------------------------------

    def children(self, name: str) -> tuple[str, ...]:
        self.get(name)
        return self._children.get(name, ())

    def descendants(self, name: str) -> frozenset[str]:
        self.get(name)
        seen: set[str] = set()
        todo = list(self._children.get(name, ()))
        while todo:
            cur = todo.pop()
            if cur not in seen:
                seen.add(cur)
                todo.extend(self._children.get(cur, ()))
        return frozenset(seen)

    def ancestors(self, name: str) -> AncestorChain:
        """Transitive resolvable superclasses of ``name``, nearest first."""
        info = self.get(name)
        names: list[str] = []
        seen = {name}
        ext_depth = 0
        layer = list(info.superclasses)
        while layer:
            nxt: list[str] = []
            for sup in layer:
                if sup in seen or sup not in self._classes:
                    continue
                sup_info = self._classes[sup]
                if sup_info.is_external:
                    ext_depth = max(ext_depth, sup_info.external_depth)
                    seen.add(sup)
                    continue
                seen.add(sup)
                names.append(sup)
                nxt.extend(sup_info.superclasses)
            layer = nxt
        return AncestorChain(tuple(names), ext_depth)

    def inheritance_depth(self, name: str) -> int:
        """Longest superclass path length; unresolved/external parents
        contribute their declared external depth instead of an edge."""
        self.get(name)
        return self.hierarchy[name].depth

    @cached_property
    def hierarchy(self) -> dict[str, HierarchyRow]:
        """Every class's inheritance facts, built on first use in two passes
        over the classes (see :func:`hierarchy_rows`)."""
        return hierarchy_rows(self._classes, self._children)

    # -- the uses relation -----------------------------------------------------

    def used_classes(self, name: str) -> frozenset[str]:
        """All classes ``name`` uses: invocation targets, accessed-attribute
        owners, attribute types, parameter types.  Externals included;
        callers filter.  Plain ``extends`` is not use."""
        if name in self._used_cache:
            return self._used_cache[name]
        info = self.get(name)
        out: set[str] = set()
        for attr in info.attributes:
            if attr.declared_type in self._classes:
                out.add(attr.declared_type)
        for m in info.methods:
            for p in m.parameter_types:
                if p in self._classes:
                    out.add(p)
            for inv in m.invocations:
                if inv.target_class in self._classes:
                    out.add(inv.target_class)
            for owner, _ in m.accessed_attributes:
                if owner in self._classes:
                    out.add(owner)
        out.discard(name)
        result = frozenset(out)
        self._used_cache[name] = result
        return result

    def user_classes(self, name: str) -> frozenset[str]:
        self.get(name)
        if self._users_cache is None:
            users: dict[str, set[str]] = {n: set() for n in self._classes}
            for c in self._classes:
                for d in self.used_classes(c):
                    users[d].add(c)
            self._users_cache = {n: frozenset(v) for n, v in users.items()}
        return self._users_cache[name]

    def uses(self, c: str, d: str) -> bool:
        """Directional: c invokes a method of d, accesses an attribute of d,
        or declares an attribute/parameter of type d."""
        self.get(d)
        if c == d:
            raise ValueError("uses() requires two distinct classes")
        return d in self.used_classes(c)

    # -- derived member views --------------------------------------------------

    def inherited_methods(self, name: str) -> tuple[MethodInfo, ...]:
        """Methods ``name`` inherits: non-private, non-static regular methods
        of ancestors, nearest definition first, overridden ones excluded."""
        info = self.get(name)
        own = {m.signature for m in info.regular_methods}
        collected: dict[str, MethodInfo] = {}
        for anc in self.ancestors(name):
            for m in self._classes[anc].regular_methods:
                sig = m.signature
                if m.visibility == "private" or m.is_static:
                    continue
                if sig in own or sig in collected:
                    continue
                collected[sig] = m
        return tuple(collected.values())

    def inherited_attributes(self, name: str) -> tuple[AttributeInfo, ...]:
        info = self.get(name)
        own = {a.name for a in info.attributes}
        collected: dict[str, AttributeInfo] = {}
        for anc in self.ancestors(name):
            for a in self._classes[anc].attributes:
                if a.visibility == "private" or a.name in own or a.name in collected:
                    continue
                collected[a.name] = a
        return tuple(collected.values())


def hierarchy_rows(classes: dict[str, ClassInfo], children: dict[str, tuple[str, ...]]) -> dict[str, HierarchyRow]:
    """All inheritance facts in two passes over a parents-first order.

    The backward pass ORs each class's descendants into its parents as a
    Python-int bitset and keeps their count; a class's set is dropped once
    its parents have it, so a chain holds O(N) such bits at a time.  The
    forward pass carries bitsets of each class's ancestors and of the
    method signatures and attribute names its ancestors pass down.  Only
    members that some class with children passes down get a bit, so a
    class without ancestors holds only zeros.  Ancestor sets stay: about
    N*N/16 bytes for one chain of N classes.
    """
    waiting = {name: sum(1 for s in info.superclasses if s in classes) for name, info in classes.items()}
    order = [name for name in sorted(classes) if waiting[name] == 0]
    for name in order:  # grows while iterated: a breadth-first topological sort
        for kid in children[name]:
            waiting[kid] -= 1
            if waiting[kid] == 0:
                order.append(kid)
    index = {name: i for i, name in enumerate(order)}
    parents = [
        [index[s] for s in classes[name].superclasses if s in classes and not classes[s].is_external]
        for name in order
    ]

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
        supers = [classes[s] for s in info.superclasses if s in classes]
        depth[i] = max((s.external_depth if s.is_external else 1 + depth[index[s.name]] for s in supers), default=0)
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

        if children[name] and not info.is_external:
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
    def __init__(self, declared: dict[str, dict]):
        self.declared = declared
        simple: dict[str, list[str]] = {}
        for qual in declared:
            simple.setdefault(qual.rsplit(".", 1)[-1], []).append(qual)
        self.simple = simple
        self.externals: set[str] = set()

    def resolve(self, ref: str) -> str | None:
        """Qualified match, unique simple-name match, else external stub."""
        ref = ref.strip()
        if not ref or ref in PRIMITIVE_TYPES:
            return None
        if ref in self.declared:
            return ref
        candidates = self.simple.get(ref.rsplit(".", 1)[-1], [])
        if len(candidates) == 1:
            return candidates[0]
        self.externals.add(ref)
        return ref


def build_system_model(class_records) -> SystemModel:
    """Assemble and resolve a SystemModel from facts-schema class records.

    Raises DuplicateClass for colliding names and InheritanceCycle when the
    resolved inheritance relation is cyclic.
    """
    records = list(class_records)
    declared: dict[str, dict] = {}
    for rec in records:
        name = rec["name"]
        if name in declared:
            raise DuplicateClass(name)
        declared[name] = rec

    resolver = _Resolver(declared)
    classes: dict[str, ClassInfo] = {}

    for name, rec in declared.items():
        supers = []
        for sup in rec.get("extends", ()):
            resolved = resolver.resolve(sup)
            if resolved is not None:
                supers.append(resolved)  # self-references surface as a cycle below

        attrs = []
        for a in rec.get("attributes", ()):
            attrs.append(
                AttributeInfo(
                    name=a["name"],
                    declared_type=resolver.resolve(a.get("type", "")) or a.get("type", ""),
                    visibility=a.get("visibility", "default"),
                    is_static=bool(a.get("static", False)),
                )
            )

        methods = []
        for m in rec.get("methods", ()):
            accesses: set[tuple[str, str]] = set()
            for ref in m.get("accesses", ()):
                cls_ref, attr = _parse_member_ref(ref)
                owner = resolver.resolve(cls_ref) if cls_ref else name
                if owner is not None:
                    accesses.add((owner, attr))
            merged: dict[tuple[str, str], int] = {}
            for inv in m.get("invokes", ()):
                target = inv["target"]
                spec = ""
                if "(" in target:
                    target, _, spec = target.partition("(")
                    spec = "(" + spec
                cls_ref, meth = _parse_member_ref(target)
                owner = resolver.resolve(cls_ref) if cls_ref else name
                if owner is None:
                    continue
                key = (owner, meth + spec)
                merged[key] = merged.get(key, 0) + int(inv.get("count", 1))
            invokes = [Invocation(c, m_, n) for (c, m_), n in sorted(merged.items())]
            cfg = None
            if m.get("cfg") is not None:
                cfg = ControlFlowGraph.from_facts(m["cfg"])
            methods.append(
                MethodInfo(
                    name=m["name"],
                    parameter_types=tuple(
                        resolver.resolve(p) or p for p in m.get("paramTypes", ())
                    ),
                    visibility=m.get("visibility", "default"),
                    is_abstract=bool(m.get("abstract", False)),
                    is_static=bool(m.get("static", False)),
                    accessed_attributes=tuple(sorted(accesses)),
                    invocations=tuple(invokes),
                    cfg=cfg,
                    line_count=m.get("lines"),
                )
            )

        statements = rec.get("statements")
        if statements is None:
            statements = sum(m.cfg.statement_node_count() for m in methods if m.cfg is not None)

        classes[name] = ClassInfo(
            name=name,
            kind=rec.get("kind", "class"),
            superclasses=tuple(supers),
            methods=tuple(methods),
            attributes=tuple(attrs),
            line_count=int(rec.get("lines", 0)),
            comment_lines=int(rec.get("commentLines", 0)),
            statement_count=int(statements),
        )

    for ext in sorted(resolver.externals):
        if ext not in classes:
            classes[ext] = ClassInfo(name=ext, is_external=True)

    _check_acyclic(classes)
    return SystemModel(classes)


def _check_acyclic(classes: dict[str, ClassInfo]) -> None:
    """Depth-first search over resolvable superclasses; iterative, so a
    deep chain cannot exhaust the interpreter stack."""
    WHITE, GREY, BLACK = 0, 1, 2
    color = {name: WHITE for name in classes}
    for root in classes:
        if color[root] != WHITE or classes[root].is_external:
            continue
        color[root] = GREY
        trail = [root]
        pending = [iter(classes[root].superclasses)]
        while pending:
            for sup in pending[-1]:
                if sup not in classes or classes[sup].is_external:
                    continue
                if color[sup] == GREY:
                    raise InheritanceCycle(trail[trail.index(sup):] + [sup])
                if color[sup] == WHITE:
                    color[sup] = GREY
                    trail.append(sup)
                    pending.append(iter(classes[sup].superclasses))
                    break
            else:
                pending.pop()
                color[trail.pop()] = BLACK


# ---------------------------------------------------------------------------
# Facts-file serialization
# ---------------------------------------------------------------------------


def class_to_record(info: ClassInfo) -> dict:
    rec: dict = {
        "name": info.name,
        "kind": info.kind,
        "extends": list(info.superclasses),
        "lines": info.line_count,
        "commentLines": info.comment_lines,
        "statements": info.statement_count,
        "attributes": [
            {
                "name": a.name,
                "type": a.declared_type,
                "visibility": a.visibility,
                "static": a.is_static,
            }
            for a in info.attributes
        ],
        "methods": [],
    }
    for m in info.methods:
        mrec: dict = {
            "name": m.name,
            "paramTypes": list(m.parameter_types),
            "visibility": m.visibility,
            "abstract": m.is_abstract,
            "static": m.is_static,
            "accesses": sorted(f"{owner}.{attr}" for owner, attr in set(m.accessed_attributes)),
            "invokes": [
                {"target": f"{inv.target_class}.{inv.target_method}", "count": inv.count}
                for inv in sorted(
                    m.invocations, key=lambda i: (i.target_class, i.target_method)
                )
            ],
        }
        if m.cfg is not None:
            mrec["cfg"] = m.cfg.to_facts()
        if m.line_count is not None:
            mrec["lines"] = m.line_count
        rec["methods"].append(mrec)
    return rec


def model_to_facts(model: SystemModel) -> dict:
    """Serialize the system classes (stubs are reconstructed on load)."""
    return {"classes": [class_to_record(c) for c in model.internal_classes]}


def facts_to_model(doc: dict) -> SystemModel:
    return build_system_model(doc.get("classes", []))


def load_facts(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def dump_facts(doc: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
