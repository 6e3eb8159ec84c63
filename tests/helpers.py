"""Shared builders for facts records and random models used across tests."""

from __future__ import annotations

import json
import random
import re
from pathlib import Path
from typing import NamedTuple

from oometrics.cfg import ControlFlowGraph
from oometrics.cohesion import class_cohesion
from oometrics.errors import UndefinedMetric
from oometrics.model import AttributeInfo, ClassInfo, MethodInfo, SystemModel, build_system_model, model_to_facts


def cfg_with_v(v: int) -> dict:
    """Facts CFG with cyclomatic complexity v: a chain of v-1 decision
    nodes, each with two parallel edges to its successor."""
    kinds = ["entry"] + ["decision"] * (v - 1) + ["exit"]
    edges = []
    prev = 0
    for nid in range(1, len(kinds)):
        edges.append([prev, nid])
        if 0 < prev:  # decision nodes branch twice
            edges.append([prev, nid])
        prev = nid
    return {"nodes": len(kinds), "edges": edges, "kinds": kinds}


def cfg_with_v_and_statements(v: int, statements: int) -> dict:
    """CFG with the given complexity whose statement-kind node count is
    exactly ``statements`` (>= v)."""
    assert statements >= v
    plains = statements - v + 1 - 1  # decisions: v-1, plus filler plains
    kinds = ["entry"] + ["plain"] * max(plains, 0) + ["decision"] * (v - 1) + ["exit"]
    edges = []
    prev = 0
    for nid in range(1, len(kinds)):
        edges.append([prev, nid])
        if kinds[prev] == "decision":
            edges.append([prev, nid])
        prev = nid
    return {"nodes": len(kinds), "edges": edges, "kinds": kinds}


def method_rec(
    name,
    params=(),
    visibility="public",
    abstract=False,
    static=False,
    accesses=(),
    invokes=(),
    cfg=None,
    lines=None,
):
    rec = {
        "name": name,
        "paramTypes": list(params),
        "visibility": visibility,
        "abstract": abstract,
        "static": static,
        "accesses": list(accesses),
        "invokes": [{"target": t, "count": c} for t, c in invokes],
    }
    if cfg is not None:
        rec["cfg"] = cfg
    if lines is not None:
        rec["lines"] = lines
    return rec


def attr_rec(name, type_="int", visibility="private", static=False):
    return {"name": name, "type": type_, "visibility": visibility, "static": static}


def class_rec(name, kind="class", extends=(), lines=0, comment_lines=0,
              statements=None, attributes=(), methods=()):
    rec = {
        "name": name,
        "kind": kind,
        "extends": list(extends),
        "lines": lines,
        "commentLines": comment_lines,
        "attributes": list(attributes),
        "methods": list(methods),
    }
    if statements is not None:
        rec["statements"] = statements
    return rec


def table21_class(
    name,
    lines,
    comment_lines,
    data,
    data_publ,
    func,
    func_publ,
    statements,
    wmc,
    used,
    users,
    bases,
):
    """Facts records reconstructing one column of the tool-report table:
    the class itself, its used/user satellites, and its base chain."""
    records = []
    attrs = [
        attr_rec(f"f{i}", visibility="public" if i < data_publ else "private")
        for i in range(data)
    ]
    used_names = [f"{name}Used{i}" for i in range(used)]
    user_names = [f"{name}User{i}" for i in range(users)]
    base_names = [f"{name}Base{i}" for i in range(bases)]

    methods = []
    per_method_v = [wmc - (func - 1)] + [1] * (func - 1) if func else []
    per_method_stmts = _split_statements(statements, per_method_v)
    for i in range(func):
        invokes = []
        if i == 0:
            invokes = [(f"{u}.use", 1) for u in used_names]
        methods.append(
            method_rec(
                f"m{i}",
                visibility="public" if i < func_publ else "private",
                invokes=invokes,
                cfg=cfg_with_v_and_statements(per_method_v[i], per_method_stmts[i]),
            )
        )
    records.append(
        class_rec(
            name,
            extends=base_names[:1],
            lines=lines,
            comment_lines=comment_lines,
            statements=statements,
            attributes=attrs,
            methods=methods,
        )
    )
    for i, u in enumerate(used_names):
        records.append(class_rec(u, methods=[method_rec("use")]))
    for i, u in enumerate(user_names):
        records.append(
            class_rec(u, methods=[method_rec("call", invokes=[(f"{name}.m0", 1)])])
        )
    for i, b in enumerate(base_names):
        records.append(class_rec(b, extends=base_names[i + 1:i + 2]))
    return records


def _split_statements(total: int, per_method_v: list[int]) -> list[int]:
    if not per_method_v:
        return []
    mins = [max(v, 1) for v in per_method_v]
    rest = total - sum(mins)
    assert rest >= 0, "statement budget below complexity floor"
    out = list(mins)
    out[0] += rest
    return out


def lexical_analyzer_model():
    """Class shaped like the report's first reference column."""
    records = table21_class(
        "LexicalAnalyzer",
        lines=788, comment_lines=147, data=3, data_publ=0, func=7, func_publ=6,
        statements=268, wmc=65, used=17, users=3, bases=1,
    )
    return build_system_model(records), "LexicalAnalyzer"


def neural_network_model():
    """Class shaped like the report's second reference column."""
    records = table21_class(
        "NeuralNetwork",
        lines=1348, comment_lines=354, data=17, data_publ=8, func=27, func_publ=21,
        statements=372, wmc=115, used=33, users=3, bases=6,
    )
    return build_system_model(records), "NeuralNetwork"


def multiple_inheritance_records() -> list[dict]:
    """Interfaces joined in a diamond, an external parent, a private and a
    static redeclaration of inherited signatures, shadowed attributes."""
    return [
        class_rec("app.Shape", kind="interface", attributes=[attr_rec("ORIGIN", visibility="public", static=True)],
                  methods=[method_rec("area", abstract=True), method_rec("scale", params=["int"], abstract=True)]),
        class_rec("app.Named", kind="interface", extends=["app.Shape"],
                  methods=[method_rec("name", abstract=True), method_rec("area", abstract=True)]),
        class_rec("app.Movable", kind="interface", extends=["app.Shape"],
                  methods=[method_rec("move", params=["int", "int"], abstract=True)]),
        class_rec("app.Base", extends=["app.Named", "app.Movable", "lib.Widget"], lines=80, comment_lines=12,
                  attributes=[attr_rec("ORIGIN", visibility="protected"), attr_rec("id", visibility="protected"),
                              attr_rec("owner", type_="app.Registry")],
                  methods=[
                      method_rec("area", visibility="private", cfg=cfg_with_v(2), accesses=["app.Base.id"]),
                      method_rec("name", cfg=cfg_with_v(1), invokes=[("app.Registry.lookup", 2)]),
                      method_rec("scale", params=["int"], static=True, cfg=cfg_with_v(3)),
                      method_rec("move", params=["int", "int"], visibility="protected", cfg=cfg_with_v(4)),
                      method_rec("draw", visibility="protected", cfg=cfg_with_v(2), accesses=["app.Base.owner"]),
                  ]),
        class_rec("app.Leaf", extends=["app.Base", "app.Movable"], lines=60, comment_lines=3,
                  attributes=[attr_rec("id", visibility="public"), attr_rec("color", type_="String")],
                  methods=[
                      method_rec("draw", cfg=cfg_with_v(5), accesses=["app.Leaf.color", "app.Base.id"]),
                      method_rec("move", params=["int", "int"], visibility="private", cfg=cfg_with_v(2)),
                      method_rec("paint", params=["app.Registry"], cfg=cfg_with_v(3),
                                 invokes=[("app.Base.name", 1), ("app.Registry.lookup", 1)]),
                  ]),
        class_rec("app.Twig", extends=["app.Leaf"], lines=20,
                  methods=[method_rec("paint", params=["app.Registry"], cfg=cfg_with_v(1))]),
        class_rec("app.Registry", lines=40, attributes=[attr_rec("items", type_="app.Leaf")],
                  methods=[method_rec("lookup", cfg=cfg_with_v(2), accesses=["app.Registry.items"],
                                      invokes=[("app.Leaf.draw", 1)])]),
    ]


def write_facts(doc: dict, path) -> None:
    """Write a facts document as ``analyze --out`` writes ``facts.json``."""
    # imported here: bench/workloads.py loads this module, and the report
    # layer would add every metric module to the benchmark process
    from oometrics.report import serialize_report

    Path(path).write_text(serialize_report(doc), encoding="utf-8")


def readme_facts() -> dict:
    """The facts document of the README's "Facts file" section, its
    ``//`` comments dropped."""
    readme = Path(__file__).parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8").split("## Facts file", 1)[1]
    block = text.split("```json\n", 1)[1].split("```", 1)[0]
    return json.loads(re.sub(r"\s*//[^\n]*", "", block))


# ---------------------------------------------------------------------------
# Random model generation for oracle tests
# ---------------------------------------------------------------------------


def random_model(rng: random.Random, n_classes=8, max_methods=4, max_attrs=3,
                 p_edge=0.25, p_inherit=0.3):
    """Random resolvable system: DAG inheritance, random invocations,
    accesses, attribute and parameter types."""
    names = [f"C{i}" for i in range(n_classes)]
    records = []
    for i, name in enumerate(names):
        extends = []
        if i > 0 and rng.random() < p_inherit:
            extends = [names[rng.randrange(i)]]  # earlier classes only: acyclic
        attrs = []
        for a in range(rng.randrange(max_attrs + 1)):
            t = rng.choice(["int", "String"] + names)
            attrs.append(attr_rec(f"a{a}", type_=t, visibility=rng.choice(
                ["public", "private", "protected", "default"])))
        methods = []
        for mi in range(rng.randrange(1, max_methods + 1)):
            invokes = []
            accesses = []
            for other in names:
                if other != name and rng.random() < p_edge:
                    invokes.append((f"{other}.m0", rng.randrange(1, 4)))
                if other != name and rng.random() < p_edge / 2:
                    accesses.append(f"{other}.a0")
            if rng.random() < 0.5 and attrs:
                accesses.append(f"{name}.{rng.choice(attrs)['name']}")
            if rng.random() < 0.3:
                invokes.append((f"{name}.m0", 1))
            params = [rng.choice(["int", "String"] + names)
                      for _ in range(rng.randrange(3))]
            methods.append(
                method_rec(
                    f"m{mi}",
                    params=params,
                    visibility=rng.choice(["public", "private", "protected", "default"]),
                    accesses=accesses,
                    invokes=invokes,
                    cfg=cfg_with_v(rng.randrange(1, 5)),
                )
            )
        records.append(
            class_rec(name, extends=extends, lines=rng.randrange(10, 200),
                      comment_lines=rng.randrange(0, 10), attributes=attrs,
                      methods=methods)
        )
    return build_system_model(records)


def random_hierarchy(rng: random.Random):
    """A ``random_model`` system, then reshaped: extra parents among earlier
    classes (multiple inheritance, diamonds), external parents and static
    methods, none of which ``random_model`` draws itself."""
    n = rng.randrange(2, 16)
    model = random_model(rng, n_classes=n, max_methods=rng.randrange(1, 6),
                         p_inherit=rng.choice((0.3, 0.6, 0.9)))
    if rng.random() < 0.3:
        return model
    records = sorted(model_to_facts(model)["classes"], key=lambda r: int(r["name"][1:]))
    for i, rec in enumerate(records):
        for j in range(i):
            if rng.random() < 0.15:
                rec["extends"].append(f"C{j}")
        if rng.random() < 0.1:
            rec["extends"].append(f"lib.Base{rng.randrange(3)}")
        for m in rec["methods"]:
            m["static"] = rng.random() < 0.15
    return build_system_model(records)


def hand_built_hierarchies() -> list[SystemModel]:
    """Inheritance shapes the random systems miss or rarely draw."""
    # a library parent is a name, no class: it adds no depth and no ancestor
    library_parent = SystemModel({
        "A": ClassInfo(name="A", superclasses=("lib.Deep",)),
        "B": ClassInfo(name="B", superclasses=("A", "lib.Deep")),
    }, externals=("lib.Deep",))
    # a private method that overrides is an override, never a new method
    private_override = build_system_model([
        class_rec("Base", methods=[method_rec("hook"), method_rec("other")],
                  attributes=[attr_rec("x", visibility="protected"), attr_rec("y", visibility="public")]),
        class_rec("Kid", extends=["Base"], methods=[method_rec("hook", visibility="private")],
                  attributes=[attr_rec("x", visibility="private")]),
        class_rec("Grand", extends=["Kid"], methods=[method_rec("hook"), method_rec("fresh")]),
        class_rec("Peer", methods=[method_rec("hook")]),
    ])
    chain = build_system_model([
        class_rec(f"K{i}", extends=[f"K{i - 1}"] if i else [],
                  methods=[method_rec(f"m{i}"), method_rec("shared")])
        for i in range(40)
    ])
    return [build_system_model(multiple_inheritance_records()), library_parent, private_override, chain]


def random_cohesion_class(rng: random.Random, model_name="X"):
    """Facts record for a single class with random method/attribute access
    structure plus intra-class calls (for the HM variant)."""
    n_attrs = rng.randrange(1, 6)
    n_methods = rng.randrange(1, 7)
    attrs = [attr_rec(f"a{i}") for i in range(n_attrs)]
    methods = []
    for mi in range(n_methods):
        accesses = [
            f"{model_name}.a{ai}" for ai in range(n_attrs) if rng.random() < 0.4
        ]
        invokes = []
        for mj in range(n_methods):
            if mj != mi and rng.random() < 0.2:
                invokes.append((f"{model_name}.m{mj}", 1))
        methods.append(method_rec(f"m{mi}", accesses=accesses, invokes=invokes))
    return class_rec(model_name, attributes=attrs, methods=methods)


# ---------------------------------------------------------------------------
# Random structured Java source generation
# ---------------------------------------------------------------------------


class SourceGen:
    """Emits random well-formed structured method bodies and tracks the
    textual decision-outcome count (ifs, loops, case labels, catches,
    short-circuit operators, ternaries)."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.decisions = 0
        self.calls = 0
        self.var_n = 0

    def fresh(self):
        self.var_n += 1
        return f"v{self.var_n}"

    def condition(self):
        base = f"{self.fresh_ref()} < {self.rng.randrange(100)}"
        while self.rng.random() < 0.3:
            op = self.rng.choice(["&&", "||"])
            self.decisions += 1
            base += f" {op} {self.fresh_ref()} != {self.rng.randrange(9)}"
        return base

    def fresh_ref(self):
        return f"x{self.rng.randrange(4)}"

    def simple(self, indent):
        r = self.rng.random()
        pad = " " * indent
        if r < 0.25:
            v = self.fresh()
            return f"{pad}int {v} = {self.rng.randrange(50)};"
        if r < 0.5:
            self.calls += 1
            return f"{pad}helper();"
        if r < 0.6:
            self.decisions += 1  # ternary
            return f"{pad}x0 = x1 > 0 ? x2 : x3;"
        return f"{pad}x{self.rng.randrange(4)} = x{self.rng.randrange(4)} + 1;"

    def block(self, depth, indent):
        n = self.rng.randrange(1, 4)
        return "\n".join(self.statement(depth, indent) for _ in range(n))

    def statement(self, depth, indent):
        pad = " " * indent
        if depth <= 0:
            return self.simple(indent)
        r = self.rng.random()
        if r < 0.45:
            return self.simple(indent)
        if r < 0.6:
            self.decisions += 1
            out = f"{pad}if ({self.condition()}) {{\n{self.block(depth - 1, indent + 4)}\n{pad}}}"
            if self.rng.random() < 0.5:
                out += f" else {{\n{self.block(depth - 1, indent + 4)}\n{pad}}}"
            return out
        if r < 0.7:
            self.decisions += 1
            return f"{pad}while ({self.condition()}) {{\n{self.block(depth - 1, indent + 4)}\n{pad}}}"
        if r < 0.78:
            self.decisions += 1
            return f"{pad}do {{\n{self.block(depth - 1, indent + 4)}\n{pad}}} while ({self.condition()});"
        if r < 0.86:
            self.decisions += 1
            v = self.fresh()
            return (
                f"{pad}for (int {v} = 0; {v} < {self.rng.randrange(2, 20)}; {v}++) {{\n"
                f"{self.block(depth - 1, indent + 4)}\n{pad}}}"
            )
        if r < 0.94:
            n_cases = self.rng.randrange(1, 4)
            self.decisions += n_cases  # one outcome per case label
            arms = []
            for k in range(n_cases):
                arms.append(
                    f"{pad}case {k}:\n{self.block(depth - 1, indent + 4)}\n"
                    f"{' ' * (indent + 4)}break;"
                )
            arms.append(f"{pad}default:\n{self.block(depth - 1, indent + 4)}\n"
                        f"{' ' * (indent + 4)}break;")
            body = "\n".join(arms)
            return f"{pad}switch (x0) {{\n{body}\n{pad}}}"
        self.decisions += 1  # one catch handler
        return (
            f"{pad}try {{\n{self.block(depth - 1, indent + 4)}\n{pad}}} "
            f"catch (Exception e) {{\n{self.block(depth - 1, indent + 4)}\n{pad}}}"
        )


def random_method_source(rng: random.Random, name="gen"):
    """(method text, expected decision-outcome count)."""
    g = SourceGen(rng)
    body = g.block(rng.randrange(1, 4), 8)
    text = (
        f"    public void {name}() {{\n"
        f"        int x0 = 0; int x1 = 1; int x2 = 2; int x3 = 3;\n"
        f"{body}\n"
        f"    }}\n"
    )
    return text, g.decisions


def random_class_source(rng: random.Random, name="Gen", n_methods=2):
    methods = []
    total = []
    for i in range(n_methods):
        text, d = random_method_source(rng, name=f"gen{i}")
        methods.append(text)
        total.append(d)
    helper = "    private void helper() { }\n"
    src = f"package gen.p;\n\npublic class {name} {{\n" + helper + "\n".join(methods) + "}\n"
    return src, total


class StatementSoup:
    """Emits random method bodies that mix what the statement parser must
    survive without failing the file: labels on loops, blocks and plain
    statements; jumps to enclosing, missing and no labels, inside and
    outside loops and switches; statements it cannot parse, some after
    nested bodies it has already built; dead code after ``return`` and
    ``throw``; switch fallthrough and repeated labels; try/catch/finally and
    try-with-resources.  Braces always balance, so every method keeps its
    body; parentheses and brackets need not."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.labels: list[str] = []  # labels of the enclosing statements
        self.n_labels = 0

    def block(self, depth: int) -> str:
        return "{ " + " ".join(self.statement(depth) for _ in range(self.rng.randrange(4))) + " }"

    def jump(self) -> str:
        kind = self.rng.choice(["break", "continue"])
        target = self.rng.choice([None, None, "nosuch", *self.labels[-2:]])
        return f"{kind};" if target is None else f"{kind} {target};"

    def simple(self) -> str:
        return self.rng.choice([
            "x0++;", "helper();", "x1 = x0 > 0 ? helper2() : 2;", "int y = x0 && x1 || x2;",
            "int z;", ";", "return;", "throw new RuntimeException();", "assert x0 > 0 : helper2();",
            self.jump(), self.jump(),
        ])

    def unparseable(self, depth: int) -> str:
        forms = [
            f"do {self.block(depth)} whle (x0 > 0);",
            f"try {self.block(depth)} catch {self.block(depth)}",
            f"if (x0 > 0) {self.block(depth)} else do {self.block(depth)} until (x1);",
            "switch x0 { case 1: x0++; }",
            "try x0++;",
            "x0 = helper2());",
            "x1 = x0];",
            "return x0);",
        ]
        return self.rng.choice(forms)

    def switch(self, depth: int) -> str:
        arms = []
        for k in range(self.rng.randrange(1, 5)):
            heads = [self.rng.choice([f"case {k}:", f"case {k + 10}:", "default:"])
                     for _ in range(self.rng.randrange(1, 3))]
            body = " ".join(self.statement(depth) for _ in range(self.rng.randrange(3)))
            if self.rng.random() < 0.4:
                body += " break;"
            arms.append(" ".join(heads) + " " + body)
        return "switch (x0 + x1) { " + " ".join(arms) + " }"

    def statement(self, depth: int) -> str:
        rng = self.rng
        if depth <= 0 or rng.random() < 0.35:
            return self.simple()
        d = depth - 1
        shape = rng.randrange(11)
        if shape == 0:
            self.n_labels += 1
            label = f"l{self.n_labels}"
            self.labels.append(label)
            inner = rng.choice([self.block, self.statement])(d)
            self.labels.pop()
            return f"{label}: {inner}"
        if shape == 1:
            out = f"if (x0 > 1 && x1 < 2) {self.block(d)}"
            return out + (f" else {self.statement(d)}" if rng.random() < 0.5 else "")
        if shape == 2:
            return f"while (x0 > 0 || x2 < 0) {self.block(d)}"
        if shape == 3:
            return f"do {self.block(d)} while (x1 < 3);"
        if shape == 4:
            return f"for (int i = 0; i < 3 && x0 > 0; i++) {self.block(d)}"
        if shape == 5:
            return self.switch(d)
        if shape == 6:
            out = f"try {self.block(d)}"
            for _ in range(rng.randrange(3)):
                out += f" catch (IllegalStateException | RuntimeException e) {self.block(d)}"
            return out + (f" finally {self.block(d)}" if rng.random() < 0.5 else "")
        if shape == 7:
            return f"try (Res r = open(x0 > 0 && x1 > 0 ? 1 : 2); Res s = open(x2)) {self.block(d)}"
        if shape == 8:
            return f"synchronized (this) {self.block(d)}"
        if shape == 9:
            return f"{self.simple()} {self.simple()} return; {self.statement(d)}"
        return self.unparseable(d)


def random_soup_class_source(rng: random.Random, name="Soup", n_methods=3):
    """(class text, number of methods with a body) for a class whose
    method bodies are :class:`StatementSoup`."""
    soup = StatementSoup(rng)
    methods = [f"    int m{i}(int x0, int x1, int x2) {soup.block(4)}\n" for i in range(n_methods)]
    helpers = "    abstract int helper();\n    int helper2() { return 1; }\n"
    return f"abstract class {name} {{\n{helpers}{''.join(methods)}}}\n", n_methods + 1


# ---------------------------------------------------------------------------
# Single cohesion values, read from cohesion.class_cohesion
# ---------------------------------------------------------------------------


def _defined(values: dict[str, int | float | UndefinedMetric], name: str) -> int | float:
    value = values[name]
    if isinstance(value, UndefinedMetric):
        raise value
    return value


_LCOM_FIELDS = {"CK": "lcom_ck", "LH": "lcom_lh", "HM": "lcom_hm", "HS": "lcom_hs"}


def lcom(info: ClassInfo, variant: str = "CK") -> int | float:
    """Lack of cohesion of methods.

    CK: max(P - Q, 0) over attribute-disjoint vs attribute-sharing pairs.
    LH: connected components over attribute-share edges.
    HM: components over attribute-share plus intra-class call edges.
    HS: (m - mean attribute usage) / (m - 1), Henderson-Sellers form.
    """
    if variant not in _LCOM_FIELDS:
        raise UndefinedMetric(f"LCOM-{variant}", "unknown variant")
    return _defined(class_cohesion(info), _LCOM_FIELDS[variant])


def coh(info: ClassInfo) -> float:
    """Briand et al.: sum of per-attribute access counts over m*a."""
    return _defined(class_cohesion(info), "coh")


def tcc_lcc(info: ClassInfo) -> tuple[float, float]:
    """Tight/loose class cohesion: directly / transitively attribute-connected
    method pairs over all pairs."""
    values = class_cohesion(info)
    return _defined(values, "tcc"), _defined(values, "lcc")


def similarity_cohesion(info: ClassInfo) -> float:
    """Mean pairwise Jaccard similarity of attribute sets; disjoint-empty
    pairs contribute 0."""
    return _defined(class_cohesion(info), "sim_cohesion")


# ---------------------------------------------------------------------------
# Inheritance and uses, walked from each class's own facts: oracles for the
# model's hierarchy and coupling tables, which they never read
# ---------------------------------------------------------------------------


def ancestors(model: SystemModel, c: str) -> tuple[str, ...]:
    """Transitive system superclasses of ``c``, nearest first: a
    breadth-first walk up the superclass lists; a library parent is no
    class of the model and is left out."""
    names: list[str] = []
    seen = {c}
    todo = list(model.get(c).superclasses)
    for sup in todo:  # grows while iterated
        if sup in seen or sup not in model:
            continue
        seen.add(sup)
        names.append(sup)
        todo.extend(model.get(sup).superclasses)
    return tuple(names)


def descendants(model: SystemModel, c: str) -> frozenset[str]:
    """Every class below ``c``: a depth-first walk down the children."""
    seen: set[str] = set()
    todo = list(model.children(c))
    while todo:
        cur = todo.pop()
        if cur not in seen:
            seen.add(cur)
            todo.extend(model.children(cur))
    return frozenset(seen)


def inherited_methods(model: SystemModel, c: str) -> tuple[MethodInfo, ...]:
    """Non-private, non-static regular methods of ``c``'s ancestors whose
    signature ``c`` does not declare, nearest definition first."""
    own = {m.signature for m in model.get(c).regular_methods}
    collected: dict[str, MethodInfo] = {}
    for anc in ancestors(model, c):
        for m in model.get(anc).regular_methods:
            if m.visibility != "private" and not m.is_static and m.signature not in own:
                collected.setdefault(m.signature, m)
    return tuple(collected.values())


def inherited_attributes(model: SystemModel, c: str) -> tuple[AttributeInfo, ...]:
    """Non-private attributes of ``c``'s ancestors whose name ``c`` does
    not declare, nearest definition first."""
    own = {a.name for a in model.get(c).attributes}
    collected: dict[str, AttributeInfo] = {}
    for anc in ancestors(model, c):
        for a in model.get(anc).attributes:
            if a.visibility != "private" and a.name not in own:
                collected.setdefault(a.name, a)
    return tuple(collected.values())


def used(model: SystemModel, c: str) -> set[str]:
    """The system classes other than ``c`` that ``c`` uses, by a scan of
    its edges: attribute and parameter types, invocation targets and the
    owners of accessed attributes."""
    info = model.get(c)
    out = set()
    for a in info.attributes:
        if a.declared_type in model and a.declared_type != c:
            out.add(a.declared_type)
    for m in info.methods:
        for p in m.parameter_types:
            if p in model and p != c:
                out.add(p)
        for inv in m.invocations:
            if inv.target_class in model and inv.target_class != c:
                out.add(inv.target_class)
        for owner, _attr in m.accessed_attributes:
            if owner in model and owner != c:
                out.add(owner)
    return out


# ---------------------------------------------------------------------------
# The lexer and the ev/iv reduction as they were before the flat token
# stream and the list-indexed reduction: oracles for both
# ---------------------------------------------------------------------------


#: One lexeme per match, tried in this order.  ``str`` and ``char`` run to
#: the closing quote or to the end of the text; an unclosed block comment
#: runs to the end of the text.  Operators go longest first.
_LEXEME = re.compile(
    r"""
      (?P<space>[ \t\r\f\n]+)
    | (?P<line_comment>//[^\n]*)
    | (?P<block_comment>/\*.*?(?:\*/|\Z))
    | "(?P<str>[^"\\]*(?:\\.[^"\\]*)*\\?)"?
    | '(?P<char>[^'\\]*(?:\\.[^'\\]*)*\\?)'?
    | (?P<num>\.?\d(?:[eE][+-]|[\w.])*)
    | (?P<ident>[\w$]+)
    | (?P<op>>>>=|<<=|>>=|>>>|\.\.\.|[=!<>]=|&&|\|\||\+\+|--|[-+*/%&|^]=|<<|>>|->|::|.)
    """,
    re.VERBOSE | re.DOTALL,
)
_NUMBER_TAIL = re.compile(r"(?:[eE][+-]|[\w.])*")


class Token(NamedTuple):
    kind: str  # ident | num | str | char | op
    value: str
    line: int


def tokenize(text: str, comment_spans: list[tuple[int, int]] | None = None) -> list[Token]:
    """Lex the source in one pass, one ``Token`` per lexeme, counting
    lines as it goes; comments and whitespace are dropped.

    When ``comment_spans`` is given, the 1-based (first, last) line pair of
    every comment is appended to it.  Comment markers inside string and
    char literals are literal text."""
    toks: list[Token] = []
    spans = [] if comment_spans is None else comment_spans
    pos, n, line = 0, len(text), 1
    while pos < n:
        m = _LEXEME.match(text, pos)
        kind, end = m.lastgroup, m.end()
        if kind == "space":
            line += text.count("\n", pos, end)
        elif kind == "line_comment":
            spans.append((line, line))
        elif kind == "block_comment":
            first, line = line, line + text.count("\n", pos, end)
            spans.append((first, line))
        elif kind == "str" or kind == "char":
            toks.append(Token(kind, m.group(kind), line))
            line += text.count("\n", pos, end)
        else:
            # str.isalpha/str.isdigit on the first character decide between
            # name, number and operator, as \w and \d do not: '²' and '.²'
            # start numbers, '½' is an operator
            ch = text[pos]
            if kind == "ident" and not (ch.isalpha() or ch in "_$"):
                kind = "num" if ch.isdigit() else "op"
            elif kind == "op" and ch == "." and text[pos + 1:pos + 2].isdigit():
                kind = "num"
            if kind != m.lastgroup:
                end = _NUMBER_TAIL.match(text, pos + 1).end() if kind == "num" else pos + 1
            toks.append(Token(kind, text[pos:end], line))
        pos = end
    return toks


class ReductionGraph:
    """Mutable graph scratchpad for the reductions, on dicts of sets.

    Self-loops and parallel edges are dropped on the way in, as the
    reductions would drop them first anyway, and ``link`` never adds one.
    ``edges`` is the running edge total.  ``frozen`` nodes are never
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


def reduce_graph(mg: ReductionGraph, sequences: bool) -> ReductionGraph:
    """Contract ``mg`` to a fixpoint with a worklist, node 0 first.

    Sequence (when ``sequences``): the sole successor v of u, entered only
    from u and neither the entry nor frozen, merges with u.  Arm: a node
    other than entry, exit or a frozen one with one edge in and one edge out
    is replaced by an edge.  A merge moves the smaller of u's in-edges and
    v's out-edges onto the other node."""
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


def essential_residue(g: ControlFlowGraph) -> ReductionGraph:
    """The residue of the ev reduction: ``return`` nodes are never
    contracted, so a mid-method return survives as unstructured."""
    returns = {n for n, kind in enumerate(g.kinds) if kind == "return"}
    return reduce_graph(ReductionGraph(g, returns), sequences=True)


def oracle_ev(g: ControlFlowGraph) -> int:
    return essential_residue(g).cyclomatic()


def oracle_iv(g: ControlFlowGraph) -> int:
    """iv by the dict-of-sets reduction: 1 without call nodes."""
    calls = g.call_nodes
    if not calls:
        return 1
    return reduce_graph(ReductionGraph(g, calls), sequences=False).cyclomatic()
