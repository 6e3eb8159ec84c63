"""Shared builders for facts records and random models used across tests."""

from __future__ import annotations

import random

from oometrics.model import ClassInfo, SystemModel, build_system_model, model_to_facts


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
    deep_external = SystemModel({
        "lib.Deep": ClassInfo(name="lib.Deep", is_external=True, external_depth=3),
        "A": ClassInfo(name="A", superclasses=("lib.Deep",)),
        "B": ClassInfo(name="B", superclasses=("A", "lib.Deep")),
    })
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
    return [build_system_model(multiple_inheritance_records()), deep_external, private_override, chain]


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
