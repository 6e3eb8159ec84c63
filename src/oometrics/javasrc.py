"""Parser for a Java-like object-oriented source subset.

Recognized: package/import declarations, class/interface/abstract-class
declarations with extends/implements, fields, methods, constructors,
initializer blocks, and the structured statement set (if/else, while, do,
for, enhanced for, switch, break/continue with labels, return, throw,
try/catch/finally, blocks, locals, expression statements).  Generics,
annotations and lambdas are tolerated and skipped; inner classes are
flattened to ``Outer.Inner``.  Unsupported constructs inside method bodies
degrade to opaque statements; only malformed declarations raise.

Output is a :class:`CompilationFacts`: class records in the facts-file
schema plus per-method token streams for Halstead counting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import cfg as cfgmod
from .errors import SourceSyntaxError, UnbalancedBlock

MODIFIERS = {
    "public", "protected", "private", "static", "final", "abstract",
    "synchronized", "native", "transient", "volatile", "strictfp", "default",
}

KEYWORDS = {
    "package", "import", "class", "interface", "enum", "extends", "implements",
    "if", "else", "while", "do", "for", "switch", "case", "break", "continue",
    "return", "throw", "throws", "try", "catch", "finally", "new", "instanceof",
    "this", "super", "assert", "void",
} | MODIFIERS

PRIMITIVES = {"void", "int", "long", "short", "byte", "char", "boolean", "float", "double"}

_TWO_CHAR_OPS = {
    "==", "!=", "<=", ">=", "&&", "||", "++", "--", "+=", "-=", "*=", "/=",
    "%=", "&=", "|=", "^=", "<<", ">>", "->", "::",
}
_THREE_CHAR_OPS = {"<<=", ">>=", ">>>", "..."}
_FOUR_CHAR_OPS = {">>>="}


@dataclass(frozen=True)
class Token:
    kind: str  # ident | num | str | char | op
    value: str
    line: int


def tokenize(text: str) -> list[Token]:
    """Lex the source; comments and whitespace are dropped."""
    toks: list[Token] = []
    i, n, line = 0, len(text), 1
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            i += 1
            continue
        if ch in " \t\r\f":
            i += 1
            continue
        if ch == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == "/" and i + 1 < n and text[i + 1] == "*":
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n and text[i + 1] == "/"):
                if text[i] == "\n":
                    line += 1
                i += 1
            i += 2
            continue
        if ch == '"':
            j, buf = i + 1, []
            while j < n and text[j] != '"':
                if text[j] == "\\" and j + 1 < n:
                    buf.append(text[j:j + 2])
                    j += 2
                else:
                    buf.append(text[j])
                    j += 1
            toks.append(Token("str", "".join(buf), line))
            line += text.count("\n", i, min(j + 1, n))
            i = j + 1
            continue
        if ch == "'":
            j = i + 1
            while j < n and text[j] != "'":
                j += 2 if text[j] == "\\" else 1
            toks.append(Token("char", text[i + 1:j], line))
            i = j + 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] in "._xXbB"):
                if text[j] in "eE" and j + 1 < n and text[j + 1] in "+-":
                    j += 1
                j += 1
            toks.append(Token("num", text[i:j], line))
            i = j
            continue
        if ch.isalpha() or ch in "_$":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] in "_$"):
                j += 1
            toks.append(Token("ident", text[i:j], line))
            i = j
            continue
        if text[i:i + 4] in _FOUR_CHAR_OPS:
            toks.append(Token("op", text[i:i + 4], line))
            i += 4
            continue
        if text[i:i + 3] in _THREE_CHAR_OPS:
            toks.append(Token("op", text[i:i + 3], line))
            i += 3
            continue
        if text[i:i + 2] in _TWO_CHAR_OPS:
            toks.append(Token("op", text[i:i + 2], line))
            i += 2
            continue
        toks.append(Token("op", ch, line))
        i += 1
    return toks


def count_lines(text: str) -> tuple[int, int]:
    """(cl_line, cl_comm): physical lines, and lines carrying any comment
    content.  Comment markers inside string/char literals do not count."""
    return _count_lines(text, comment_line_spans(text))


def _count_lines(text: str, spans: list[tuple[int, int]]) -> tuple[int, int]:
    cl_line = text.count("\n")
    if text and not text.endswith("\n"):
        cl_line += 1
    comm: set[int] = set()
    for a, b in spans:
        comm.update(range(a, b + 1))
    return cl_line, len(comm)


def comment_line_spans(text: str) -> list[tuple[int, int]]:
    """1-based (first, last) line pairs of every comment in the text."""
    spans: list[tuple[int, int]] = []
    i, n, line = 0, len(text), 1
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            i += 1
        elif ch == "/" and i + 1 < n and text[i + 1] == "/":
            spans.append((line, line))
            while i < n and text[i] != "\n":
                i += 1
        elif ch == "/" and i + 1 < n and text[i + 1] == "*":
            start = line
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n and text[i + 1] == "/"):
                if text[i] == "\n":
                    line += 1
                i += 1
            i += 2
            spans.append((start, line))
        elif ch == '"':
            i += 1
            while i < n and text[i] != '"':
                if text[i] == "\n":
                    line += 1  # unterminated string: stay safe
                i += 2 if text[i] == "\\" else 1
            i += 1
        elif ch == "'":
            i += 1
            while i < n and text[i] != "'":
                i += 2 if text[i] == "\\" else 1
            i += 1
        else:
            i += 1
    return spans


# ---------------------------------------------------------------------------


@dataclass
class CompilationFacts:
    path: str
    package: str
    classes: list[dict] = field(default_factory=list)
    #: (class name, method signature) -> body token stream
    method_tokens: dict[tuple[str, str], list[Token]] = field(default_factory=dict)


@dataclass
class _Member:
    kind: str  # field | method | ctor | init
    name: str = ""
    type: str = ""
    param_types: list[str] = field(default_factory=list)
    param_names: list[str] = field(default_factory=list)
    visibility: str = "default"
    is_static: bool = False
    is_abstract: bool = False
    body: tuple[int, int] | None = None  # token range inside braces
    initializer_ranges: list[tuple[int, int]] = field(default_factory=list)  # field inits
    line: int = 0
    end_line: int = 0


@dataclass
class _ClassDecl:
    name: str  # flattened, package-qualified
    simple_name: str
    kind: str = "class"
    supers: list[str] = field(default_factory=list)
    extends_target: str | None = None  # for super.x resolution
    members: list[_Member] = field(default_factory=list)
    line: int = 0
    end_line: int = 0


class Parser:
    def __init__(self, text: str, path: str = "<source>"):
        self.text = text
        self.path = path
        self.toks = tokenize(text)
        self.i = 0
        self.package = ""
        self.imports: dict[str, str] = {}
        self.decls: list[_ClassDecl] = []

    # -- token helpers -------------------------------------------------------

    def _tok(self, k: int = 0) -> Token | None:
        j = self.i + k
        return self.toks[j] if j < len(self.toks) else None

    def _val(self, k: int = 0) -> str:
        t = self._tok(k)
        return t.value if t else ""

    def _line(self) -> int:
        t = self._tok()
        if t:
            return t.line
        return self.toks[-1].line if self.toks else 1

    def _advance(self) -> Token:
        t = self._tok()
        if t is None:
            raise SourceSyntaxError(self._line(), "more input", "end of file")
        self.i += 1
        return t

    def _accept(self, value: str) -> bool:
        if self._val() == value:
            self.i += 1
            return True
        return False

    def _expect(self, value: str) -> Token:
        t = self._tok()
        if t is None or t.value != value:
            raise SourceSyntaxError(self._line(), value, t.value if t else "end of file")
        self.i += 1
        return t

    def _skip_balanced(self, open_c: str, close_c: str) -> int:
        """Consume from the current opening delimiter to its match; returns
        the index of the closing token."""
        start_line = self._line()
        self._expect(open_c)
        depth = 1
        while depth:
            t = self._tok()
            if t is None:
                raise UnbalancedBlock(start_line)
            if t.value == open_c:
                depth += 1
            elif t.value == close_c:
                depth -= 1
            self.i += 1
        return self.i - 1

    def _skip_annotations(self) -> None:
        while self._val() == "@":
            self.i += 1
            if self._tok() and self._tok().kind == "ident":
                self.i += 1
                while self._val() == "." and self._tok(1) and self._tok(1).kind == "ident":
                    self.i += 2
            if self._val() == "(":
                self._skip_balanced("(", ")")

    def _skip_generics(self) -> None:
        """Consume a <...> section if one starts here.  Caller must ensure a
        type position; '<' in expressions is never passed through this."""
        if self._val() != "<":
            return
        depth = 0
        while True:
            t = self._tok()
            if t is None:
                raise UnbalancedBlock(self._line())
            v = t.value
            if v == "<":
                depth += 1
            elif v == ">":
                depth -= 1
            elif v == ">>":
                depth -= 2
            elif v == ">>>":
                depth -= 3
            self.i += 1
            if depth <= 0:
                return

    def _qualified_name(self) -> str:
        t = self._tok()
        if t is None or t.kind != "ident":
            raise SourceSyntaxError(self._line(), "identifier", t.value if t else "end of file")
        parts = [self._advance().value]
        while self._val() == "." and self._tok(1) and self._tok(1).kind == "ident":
            self.i += 1
            parts.append(self._advance().value)
        return ".".join(parts)

    def _type_ref(self) -> str:
        """Type reference eroded to its raw element name: generics stripped,
        array brackets dropped."""
        name = self._qualified_name()
        self._skip_generics()
        while self._val() == "[":
            self._expect("[")
            self._expect("]")
        if self._val() == "...":
            self.i += 1
        return name

    # -- compilation unit ----------------------------------------------------

    def parse(self) -> CompilationFacts:
        if self._val() == "package":
            self.i += 1
            self.package = self._qualified_name()
            self._expect(";")
        while self._val() == "import":
            self.i += 1
            if self._val() == "static":
                self.i += 1
            name = self._qualified_name()
            if self._val() == "." and self._val(1) == "*":
                self.i += 2  # star imports carry no resolution info
            else:
                self.imports[name.rsplit(".", 1)[-1]] = name
            self._expect(";")
        while self._tok() is not None:
            self._skip_annotations()
            if self._tok() is None:
                break
            if self._accept(";"):
                continue
            self._parse_type_decl(outer=None)

        facts = CompilationFacts(self.path, self.package)
        spans = comment_line_spans(self.text)
        file_lines, file_comments = _count_lines(self.text, spans)
        for decl in self.decls:
            builder = _ClassBuilder(self, decl)
            record, tokens = builder.build()
            if len(self.decls) == 1:
                # one class per file: the whole file is the class, header
                # comments and package line included (matches tool practice)
                record["lines"] = file_lines
                record["commentLines"] = file_comments
            else:
                record["lines"] = max(decl.end_line - decl.line + 1, 0)
                record["commentLines"] = _comment_lines_in(spans, decl.line, decl.end_line)
            facts.classes.append(record)
            facts.method_tokens.update(tokens)
        return facts

    def _parse_type_decl(self, outer: _ClassDecl | None) -> None:
        mods = self._modifiers()
        kw = self._val()
        if kw not in ("class", "interface", "enum"):
            raise SourceSyntaxError(self._line(), {"class", "interface"}, kw or "end of file")
        start_line = self._line()
        self.i += 1
        name_tok = self._tok()
        if name_tok is None or name_tok.kind != "ident":
            raise SourceSyntaxError(self._line(), "type name")
        simple = self._advance().value
        self._skip_generics()

        decl = _ClassDecl(name="", simple_name=simple, line=start_line)
        if kw == "interface":
            decl.kind = "interface"
        elif "abstract" in mods:
            decl.kind = "abstract-class"
        flat = f"{outer.simple_name}.{simple}" if outer else simple
        decl.simple_name = flat
        decl.name = f"{self.package}.{flat}" if self.package else flat

        if self._accept("extends"):
            first = True
            while True:
                ref = self._type_ref()
                decl.supers.append(ref)
                if first and kw == "class":
                    decl.extends_target = ref
                first = False
                if not self._accept(","):
                    break
        if self._accept("implements"):
            while True:
                decl.supers.append(self._type_ref())
                if not self._accept(","):
                    break
        while self._val() not in ("{", "") and self._tok() is not None:
            self.i += 1  # tolerate e.g. 'permits'
        if self._tok() is None:
            raise SourceSyntaxError(start_line, "{", "end of file")

        if kw == "enum":
            end = self._skip_balanced("{", "}")  # out of subset: keep the shell only
            decl.end_line = self.toks[end].line
            self.decls.append(decl)
            return

        self._expect("{")
        self.decls.append(decl)
        self._parse_class_body(decl)

    def _modifiers(self) -> set[str]:
        mods: set[str] = set()
        while True:
            self._skip_annotations()
            v = self._val()
            if v in MODIFIERS and not (v == "default" and self._val(1) == ":"):
                mods.add(v)
                self.i += 1
            else:
                return mods

    def _parse_class_body(self, decl: _ClassDecl) -> None:
        init_count = 0
        while True:
            t = self._tok()
            if t is None:
                raise UnbalancedBlock(decl.line)
            if t.value == "}":
                decl.end_line = t.line
                self.i += 1
                return
            if t.value == ";":
                self.i += 1
                continue
            mods = self._modifiers()
            v = self._val()
            if v in ("class", "interface", "enum"):
                self._parse_inner_type(decl, mods)
                continue
            if v == "{":
                member = _Member(kind="init", name=f"<init-block-{init_count}>", line=self._line())
                init_count += 1
                member.is_static = "static" in mods
                member.body = self._member_body_range()
                member.end_line = self.toks[member.body[1]].line if member.body else member.line
                decl.members.append(member)
                continue
            if v == "<":
                self._skip_generics()  # generic method type parameters
            self._parse_member(decl, mods)

    def _parse_inner_type(self, outer: _ClassDecl, mods: set[str]) -> None:
        kw = self._val()
        line = self._line()
        self.i += 1
        if self._tok() is None or self._tok().kind != "ident":
            raise SourceSyntaxError(line, "type name")
        simple = self._advance().value
        self._skip_generics()
        inner = _ClassDecl(name="", simple_name=f"{outer.simple_name}.{simple}", line=line)
        if kw == "interface":
            inner.kind = "interface"
        elif "abstract" in mods:
            inner.kind = "abstract-class"
        inner.name = f"{self.package}.{inner.simple_name}" if self.package else inner.simple_name
        if self._accept("extends"):
            first = True
            while True:
                ref = self._type_ref()
                inner.supers.append(ref)
                if first and kw == "class":
                    inner.extends_target = ref
                first = False
                if not self._accept(","):
                    break
        if self._accept("implements"):
            while True:
                inner.supers.append(self._type_ref())
                if not self._accept(","):
                    break
        if kw == "enum":
            end = self._skip_balanced("{", "}")
            inner.end_line = self.toks[end].line
            self.decls.append(inner)
            return
        self._expect("{")
        self.decls.append(inner)
        self._parse_class_body(inner)

    def _member_body_range(self) -> tuple[int, int]:
        """Range (first, last_exclusive) of tokens strictly inside a brace pair."""
        open_i = self.i
        close_i = self._skip_balanced("{", "}")
        return (open_i + 1, close_i)

    def _parse_member(self, decl: _ClassDecl, mods: set[str]) -> None:
        line = self._line()
        t = self._tok()
        if t is None:
            raise UnbalancedBlock(decl.line)
        simple_last = decl.simple_name.rsplit(".", 1)[-1]

        # constructor: bare class name followed by '('
        if t.kind == "ident" and t.value == simple_last and self._val(1) == "(":
            member = _Member(kind="ctor", name="<init>", line=line)
            self.i += 1
            self._finish_callable(decl, member, mods)
            return

        type_name = self._type_ref() if t.kind == "ident" else ""
        if not type_name:
            raise SourceSyntaxError(line, "type", t.value)
        name_tok = self._tok()
        if name_tok is None or name_tok.kind != "ident":
            raise SourceSyntaxError(self._line(), "member name", name_tok.value if name_tok else "end of file")
        name = self._advance().value

        if self._val() == "(":
            member = _Member(kind="method", name=name, type=type_name, line=line)
            self._finish_callable(decl, member, mods)
            return

        # field declarator list
        member = _Member(kind="field", name=name, type=type_name, line=line)
        member.visibility = _visibility(mods)
        if decl.kind == "interface" and member.visibility == "default":
            member.visibility = "public"  # interface constants are public
        member.is_static = "static" in mods or decl.kind == "interface"
        names = [name]
        ranges: list[tuple[int, int]] = []
        while True:
            while self._val() == "[":
                self._expect("[")
                self._expect("]")
            if self._accept("="):
                start = self.i
                self._skip_field_initializer()
                ranges.append((start, self.i))
            if self._accept(","):
                nxt = self._tok()
                if nxt is None or nxt.kind != "ident":
                    raise SourceSyntaxError(self._line(), "field name")
                names.append(self._advance().value)
                continue
            break
        self._expect(";")
        member.end_line = self._line()
        member.param_names = names  # all declarators of this statement
        member.initializer_ranges = ranges
        decl.members.append(member)

    def _skip_field_initializer(self) -> None:
        depth = 0
        while True:
            t = self._tok()
            if t is None:
                raise UnbalancedBlock(self._line())
            v = t.value
            if v in "([{":
                depth += 1
            elif v in ")]}":
                if depth == 0:
                    raise SourceSyntaxError(t.line, {";", ","}, v)
                depth -= 1
            elif depth == 0 and v in (",", ";"):
                return
            self.i += 1

    def _finish_callable(self, decl: _ClassDecl, member: _Member, mods: set[str]) -> None:
        member.visibility = _visibility(mods)
        if decl.kind == "interface" and "private" not in mods:
            member.visibility = "public"
        member.is_static = "static" in mods
        self._expect("(")
        while self._val() != ")":
            self._skip_annotations()
            if self._accept("final"):
                pass
            ptype = self._type_ref()
            pname = ""
            if self._tok() and self._tok().kind == "ident":
                pname = self._advance().value
            while self._val() == "[":
                self._expect("[")
                self._expect("]")
            member.param_types.append(ptype)
            member.param_names.append(pname)
            if not self._accept(","):
                break
        self._expect(")")
        if self._accept("throws"):
            while True:
                self._qualified_name()
                if not self._accept(","):
                    break
        if self._val() == "{":
            member.body = self._member_body_range()
            member.end_line = self.toks[member.body[1]].line
            member.is_abstract = False
        else:
            self._expect(";")
            member.end_line = self._line()
            member.is_abstract = "abstract" in mods or (
                decl.kind == "interface" and "static" not in mods and "default" not in mods
            )
        decl.members.append(member)


def _visibility(mods: set[str]) -> str:
    for v in ("public", "protected", "private"):
        if v in mods:
            return v
    return "default"


def _comment_lines_in(spans: list[tuple[int, int]], lo: int, hi: int) -> int:
    lines: set[int] = set()
    for a, b in spans:
        for ln in range(max(a, lo), min(b, hi) + 1):
            lines.add(ln)
    return len(lines)


# ---------------------------------------------------------------------------
# Per-class build: bodies -> statements, calls, accesses, CFGs
# ---------------------------------------------------------------------------


class _ClassBuilder:
    def __init__(self, parser: Parser, decl: _ClassDecl):
        self.p = parser
        self.decl = decl
        self.fields: dict[str, str] = {}
        for m in decl.members:
            if m.kind == "field":
                for nm in m.param_names:
                    self.fields[nm] = m.type
        self.known_types = {d.simple_name: d.name for d in parser.decls}
        self.known_types.update({d.name: d.name for d in parser.decls})
        self.method_names = {m.name for m in decl.members if m.kind == "method"}

    def resolve_type(self, ref: str) -> str:
        if ref in PRIMITIVES:
            return ref
        if ref in self.known_types:
            return self.known_types[ref]
        if ref in self.p.imports:
            return self.p.imports[ref]
        head = ref.split(".", 1)[0]
        if head in self.known_types and "." in ref:
            return self.known_types[head] + ref[len(head):]
        return ref

    def build(self) -> tuple[dict, dict[tuple[str, str], list[Token]]]:
        record: dict = {
            "name": self.decl.name,
            "kind": self.decl.kind,
            "extends": [self.resolve_type(s) for s in self.decl.supers],
            "lines": 0,
            "commentLines": 0,
            "attributes": [],
            "methods": [],
        }
        tokens: dict[tuple[str, str], list[Token]] = {}
        statements = 0

        for m in self.decl.members:
            if m.kind == "field":
                for nm in m.param_names:
                    record["attributes"].append(
                        {
                            "name": nm,
                            "type": self.resolve_type(m.type),
                            "visibility": m.visibility,
                            "static": m.is_static,
                        }
                    )
                if m.initializer_ranges:
                    statements += len(m.initializer_ranges)
                    self._field_init_scan = getattr(self, "_field_init_scan", None) or _BodyScanner(self, {})
                    for lo, hi in m.initializer_ranges:
                        self._field_init_scan.scan_expr(lo, hi)
                continue

            name = m.name
            sig = f"{name}({','.join(self.resolve_type(t) for t in m.param_types)})"
            env = {
                pn: self.resolve_type(pt)
                for pn, pt in zip(m.param_names, m.param_types)
                if pn
            }
            scan = _BodyScanner(self, env)
            graph = None
            body_tokens: list[Token] = []
            if m.body is not None:
                lo, hi = m.body
                body_tokens = self.p.toks[lo:hi]
                stmts = _StatementParser(self.p.toks, lo, hi, scan).parse_block_body()
                statements += cfgmod.count_statements(stmts)
                graph = cfgmod.build_cfg(stmts)
            mrec = self._method_record(
                name=name,
                param_types=[self.resolve_type(t) for t in m.param_types],
                visibility=m.visibility,
                is_abstract=m.is_abstract,
                is_static=m.is_static,
                scan=scan,
                graph=graph,
                lines=(m.end_line - m.line + 1) if m.end_line else None,
            )
            record["methods"].append(mrec)
            tokens[(self.decl.name, sig)] = body_tokens

        init_scan = getattr(self, "_field_init_scan", None)
        if init_scan is not None and (init_scan.invokes or init_scan.accesses):
            record["methods"].append(
                self._method_record(
                    name="<init-block-fields>", param_types=[], visibility="private",
                    is_abstract=False, is_static=False,
                    scan=init_scan, graph=None, lines=None,
                )
            )
        record["statements"] = statements
        return record, tokens

    def _method_record(self, name, param_types, visibility, is_abstract, is_static, scan, graph, lines) -> dict:
        merged: dict[str, int] = {}
        for target, cnt in scan.invokes:
            merged[target] = merged.get(target, 0) + cnt
        rec = {
            "name": name,
            "paramTypes": param_types,
            "visibility": visibility,
            "abstract": is_abstract,
            "static": is_static,
            "accesses": sorted(set(scan.accesses)),
            "invokes": [{"target": t, "count": c} for t, c in sorted(merged.items())],
        }
        if graph is not None:
            rec["cfg"] = graph.to_facts()
        if lines is not None:
            rec["lines"] = lines
        return rec


class _BodyScanner:
    """Expression-level extraction: invocation targets, attribute accesses,
    short-circuit/ternary decision counts, call presence."""

    def __init__(self, cb: _ClassBuilder, env: dict[str, str]):
        self.cb = cb
        self.env = env  # local/parameter name -> resolved type
        self.invokes: list[tuple[str, int]] = []
        self.accesses: list[str] = []

    def declare(self, name: str, type_ref: str) -> None:
        self.env[name] = self.cb.resolve_type(type_ref)

    def scan_expr(self, lo: int, hi: int) -> tuple[int, bool]:
        """Scan tokens [lo, hi); returns (extra decision count, has_call)."""
        toks = self.cb.p.toks
        decisions = 0
        has_call = False
        i = lo
        while i < hi:
            t = toks[i]
            if t.kind == "op":
                if t.value in ("&&", "||", "?"):
                    decisions += 1
                i += 1
                continue
            if t.kind != "ident":
                i += 1
                continue
            if t.value == "new":
                j = i + 1
                parts = []
                while j < hi and toks[j].kind == "ident" and toks[j].value not in KEYWORDS:
                    parts.append(toks[j].value)
                    j += 1
                    if j < hi and toks[j].value == "." :
                        j += 1
                    else:
                        break
                if parts and j < hi and toks[j].value == "(":
                    target = self.cb.resolve_type(".".join(parts))
                    self.invokes.append((f"{target}.<init>", 1))
                    has_call = True
                i = j if j > i + 1 else i + 1
                continue
            if t.value in ("this", "super") and i + 1 < hi and toks[i + 1].value == ".":
                chain = [t.value]
                j = i + 1
            elif t.value in KEYWORDS:
                i += 1
                continue
            else:
                chain = [t.value]
                j = i + 1
            while j + 1 < hi and toks[j].value == "." and toks[j + 1].kind == "ident":
                chain.append(toks[j + 1].value)
                j += 2
            is_call = j < hi and toks[j].value == "("
            if is_call:
                has_call = True
                self._record_call(chain)
            else:
                self._record_access(chain)
            i = j
        return decisions, has_call

    def _owner_of(self, receiver: list[str]) -> str | None:
        """Resolve a receiver chain to a class name, or None when static
        typing cannot tell."""
        cb = self.cb
        if not receiver:
            return cb.decl.name
        head = receiver[0]
        rest = receiver[1:]
        if head == "this":
            base = cb.decl.name
        elif head == "super":
            if cb.decl.extends_target is None:
                return None
            base = cb.resolve_type(cb.decl.extends_target)
        elif head in self.env:
            base = self.env[head]
        elif head in cb.fields:
            base = cb.resolve_type(cb.fields[head])
            self.accesses.append(f"{cb.decl.name}.{head}")
        elif head in cb.known_types or head in cb.p.imports:
            base = cb.resolve_type(head)
        else:
            dotted = ".".join(receiver)
            if dotted in cb.known_types or dotted in cb.p.imports:
                return cb.resolve_type(dotted)
            if head[:1].isupper():
                base = cb.resolve_type(head)
            else:
                return None
        if rest:
            return None  # no type inference through member chains
        return base

    def _record_call(self, chain: list[str]) -> None:
        method = chain[-1]
        receiver = chain[:-1]
        if receiver == ["this"] and method in self.cb.method_names:
            receiver = []
        if not receiver and method not in self.cb.method_names:
            # unqualified call to something we do not declare: could be an
            # inherited method; attribute it to the superclass when there is
            # one, otherwise keep it on this class
            if self.cb.decl.extends_target is not None:
                owner = self.cb.resolve_type(self.cb.decl.extends_target)
                self.invokes.append((f"{owner}.{method}", 1))
                return
        owner = self._owner_of(receiver)
        if owner is None or owner in PRIMITIVES:
            return
        self.invokes.append((f"{owner}.{method}", 1))

    def _record_access(self, chain: list[str]) -> None:
        if len(chain) == 1:
            name = chain[0]
            if name in self.env or name in ("true", "false", "null"):
                return
            if name in self.cb.fields:
                self.accesses.append(f"{self.cb.decl.name}.{name}")
            return
        attr = chain[-1]
        owner = self._owner_of(chain[:-1])
        if owner is None or owner in PRIMITIVES:
            return
        if attr == "length" or attr == "class":
            return
        self.accesses.append(f"{owner}.{attr}")


class _StatementParser:
    """Statement-level recursive descent over a method body token range.

    The descent methods are generators: each nested statement is yielded
    to :func:`cfg._trampoline` instead of called, so nesting depth costs
    heap, not interpreter stack."""

    def __init__(self, toks: list[Token], lo: int, hi: int, scan: _BodyScanner):
        self.toks = toks
        self.i = lo
        self.hi = hi
        self.scan = scan
        self.loop_depth = 0

    def _val(self, k: int = 0) -> str:
        j = self.i + k
        return self.toks[j].value if j < self.hi else ""

    def _kind(self, k: int = 0) -> str:
        j = self.i + k
        return self.toks[j].kind if j < self.hi else ""

    def _line(self) -> int:
        j = min(self.i, self.hi - 1)
        return self.toks[j].line if 0 <= j < len(self.toks) else 1

    def _match_paren(self) -> tuple[int, int]:
        """At '(': return the inner token range and step past ')'."""
        if self._val() != "(":
            raise SourceSyntaxError(self._line(), "(", self._val())
        depth = 0
        start = self.i + 1
        while self.i < self.hi:
            v = self._val()
            if v == "(":
                depth += 1
            elif v == ")":
                depth -= 1
                if depth == 0:
                    end = self.i
                    self.i += 1
                    return start, end
            self.i += 1
        raise UnbalancedBlock(self._line())

    def parse_block_body(self) -> list:
        return cfgmod._trampoline(self._statements(closing=False))

    def _statements(self, closing: bool = True):
        """Statements up to a closing brace, which ``closing`` requires and
        consumes, or to the end of the range.  Statements degrade instead
        of failing the file: on any parse trouble, consume to a statement
        boundary and emit an opaque node."""
        stmts = []
        while self.i < self.hi and self._val() != "}":
            before = self.i
            try:
                stmts.append((yield self.parse_statement()))
            except SourceSyntaxError:
                self.i = max(before + 1, self.i)
                depth = 0
                while self.i < self.hi:
                    v = self._val()
                    if v in "([{":
                        depth += 1
                    elif v in ")]}":
                        if depth == 0:
                            break
                        depth -= 1
                    elif v == ";" and depth == 0:
                        self.i += 1
                        break
                    self.i += 1
                stmts.append(cfgmod.Simple(kind="opaque"))
        if closing:
            if self._val() != "}":
                raise UnbalancedBlock(self._line())
            self.i += 1
        return stmts

    def parse_statement(self):
        """One statement; a generator (see :func:`cfg._trampoline`)."""
        v = self._val()
        if v == "{":
            self.i += 1
            inner = yield self._statements()
            return cfgmod.Block(inner)
        if v == ";":
            self.i += 1
            return cfgmod.Simple(kind="empty", counts=False)
        if v == "if":
            self.i += 1
            lo, hi = self._match_paren()
            d, c = self.scan.scan_expr(lo, hi)
            then = cfgmod.Block([(yield self.parse_statement())])
            orelse = None
            if self._val() == "else":
                self.i += 1
                orelse = cfgmod.Block([(yield self.parse_statement())])
            return cfgmod.IfStmt(then=then, orelse=orelse, has_call=c, decisions=d)
        if v == "while":
            self.i += 1
            lo, hi = self._match_paren()
            d, c = self.scan.scan_expr(lo, hi)
            self.loop_depth += 1
            body = cfgmod.Block([(yield self.parse_statement())])
            self.loop_depth -= 1
            return cfgmod.WhileStmt(body=body, has_call=c, decisions=d)
        if v == "do":
            self.i += 1
            self.loop_depth += 1
            body = cfgmod.Block([(yield self.parse_statement())])
            self.loop_depth -= 1
            if self._val() != "while":
                raise SourceSyntaxError(self._line(), "while", self._val())
            self.i += 1
            lo, hi = self._match_paren()
            d, c = self.scan.scan_expr(lo, hi)
            self._accept_semi()
            return cfgmod.DoWhileStmt(body=body, has_call=c, decisions=d)
        if v == "for":
            self.i += 1
            lo, hi = self._match_paren()
            d, c = self._scan_for_header(lo, hi)
            self.loop_depth += 1
            body = cfgmod.Block([(yield self.parse_statement())])
            self.loop_depth -= 1
            return cfgmod.ForStmt(body=body, has_call=c, decisions=d)
        if v == "switch":
            return (yield self._parse_switch())
        if v == "try":
            return (yield self._parse_try())
        if v == "return":
            self.i += 1
            lo = self.i
            self._skip_to_semi()
            d, c = self.scan.scan_expr(lo, self.i - 1)
            return cfgmod.ReturnStmt(has_call=c, decisions=d)
        if v == "throw":
            self.i += 1
            lo = self.i
            self._skip_to_semi()
            d, c = self.scan.scan_expr(lo, self.i - 1)
            return cfgmod.ThrowStmt(has_call=c, decisions=d)
        if v == "break":
            self.i += 1
            label = None
            if self._kind() == "ident" and self._val() not in KEYWORDS:
                label = self._val()
                self.i += 1
            self._accept_semi()
            if self.loop_depth == 0 and label is None:
                return cfgmod.Simple(kind="opaque")  # stray break: degrade
            return cfgmod.BreakStmt(label=label)
        if v == "continue":
            self.i += 1
            label = None
            if self._kind() == "ident" and self._val() not in KEYWORDS:
                label = self._val()
                self.i += 1
            self._accept_semi()
            if self.loop_depth == 0:
                return cfgmod.Simple(kind="opaque")
            return cfgmod.ContinueStmt(label=label)
        if v == "synchronized" and self._val(1) == "(":
            self.i += 1
            lo, hi = self._match_paren()
            d, c = self.scan.scan_expr(lo, hi)
            body = yield self.parse_statement()
            return cfgmod.Block([cfgmod.Simple(kind="expr", has_call=c, decisions=d), body])
        if v == "assert":
            self.i += 1
            lo = self.i
            self._skip_to_semi()
            d, c = self.scan.scan_expr(lo, self.i - 1)
            return cfgmod.Simple(kind="assert", has_call=c, decisions=d)
        if v in ("class", "interface", "enum", "abstract", "final") and self._kind() == "ident":
            # local type declaration: skip as opaque
            while self.i < self.hi and self._val() != "{":
                self.i += 1
            self._skip_braces()
            return cfgmod.Simple(kind="opaque")
        if self._kind() == "ident" and self._val() not in KEYWORDS and self._val(1) == ":" and self._val(2) != ":":
            label = self._val()
            self.i += 2
            self.loop_depth += 1  # the label itself is a break target
            inner = yield self.parse_statement()
            self.loop_depth -= 1
            return cfgmod.Labeled(label=label, stmt=inner)
        return self._parse_simple()

    # -- helpers ---------------------------------------------------------------

    def _accept_semi(self) -> None:
        if self._val() == ";":
            self.i += 1

    def _skip_to_semi(self) -> None:
        """Advance past the statement-terminating ';' (depth 0)."""
        depth = 0
        while self.i < self.hi:
            v = self._val()
            if v in "([{":
                depth += 1
            elif v in ")]}":
                if depth == 0:
                    return  # let the caller see the closing brace
                depth -= 1
            elif v == ";" and depth == 0:
                self.i += 1
                return
            self.i += 1

    def _skip_braces(self) -> None:
        if self._val() != "{":
            return
        depth = 0
        while self.i < self.hi:
            v = self._val()
            if v == "{":
                depth += 1
            elif v == "}":
                depth -= 1
                if depth == 0:
                    self.i += 1
                    return
            self.i += 1

    def _scan_for_header(self, lo: int, hi: int) -> tuple[int, bool]:
        toks = self.toks
        colon = None
        depth = 0
        for j in range(lo, hi):
            v = toks[j].value
            if v in "([{":
                depth += 1
            elif v in ")]}":
                depth -= 1
            elif v == ":" and depth == 0:
                colon = j
                break
        if colon is not None:
            # enhanced for: Type name : expr
            if colon - lo >= 2 and toks[colon - 1].kind == "ident":
                var = toks[colon - 1].value
                type_ref = _join_type(toks, lo, colon - 1)
                if type_ref:
                    self.scan.declare(var, type_ref)
            d, c = self.scan.scan_expr(colon + 1, hi)
            return d, c
        # classic for: pick apart init; cond; update
        parts: list[tuple[int, int]] = []
        start = lo
        depth = 0
        for j in range(lo, hi):
            v = toks[j].value
            if v in "([{":
                depth += 1
            elif v in ")]}":
                depth -= 1
            elif v == ";" and depth == 0:
                parts.append((start, j))
                start = j + 1
        parts.append((start, hi))
        decisions = 0
        has_call = False
        for idx, (a, b) in enumerate(parts):
            if idx == 0:
                self._maybe_declare_locals(a, b)
            d, c = self.scan.scan_expr(a, b)
            decisions += d
            has_call = has_call or c
        return decisions, has_call

    def _parse_switch(self):
        self.i += 1  # 'switch'
        lo, hi = self._match_paren()
        d, c = self.scan.scan_expr(lo, hi)
        if self._val() != "{":
            raise SourceSyntaxError(self._line(), "{", self._val())
        self.i += 1
        arms: list[cfgmod.SwitchArm] = []
        labels = 0
        is_default = False
        body: list = []
        started = False

        def flush():
            nonlocal labels, is_default, body, started
            if started:
                arms.append(cfgmod.SwitchArm(labels=labels, is_default=is_default, body=cfgmod.Block(body)))
            labels, is_default, body, started = 0, False, [], False

        while self.i < self.hi and self._val() != "}":
            v = self._val()
            if v == "case":
                if body:
                    flush()
                started = True
                self.i += 1
                lo2 = self.i
                while self.i < self.hi and self._val() not in (":", "{", "}"):
                    self.i += 1
                self.scan.scan_expr(lo2, self.i)
                if self._val() == ":":
                    self.i += 1
                labels += 1
                continue
            if v == "default":
                if body:
                    flush()
                started = True
                self.i += 1
                if self._val() == ":":
                    self.i += 1
                is_default = True
                continue
            if not started:  # stray tokens before the first label: skip
                self.i += 1
                continue
            self.loop_depth += 1  # break binds to the switch
            body.append((yield self.parse_statement()))
            self.loop_depth -= 1
        flush()
        if self._val() == "}":
            self.i += 1
        return cfgmod.SwitchStmt(arms=arms, has_call=c, decisions=d)

    def _parse_try(self):
        self.i += 1  # 'try'
        has_call = False
        decisions = 0
        if self._val() == "(":
            lo, hi = self._match_paren()
            self._maybe_declare_locals(lo, hi)
            decisions, has_call = self.scan.scan_expr(lo, hi)
        if self._val() != "{":
            raise SourceSyntaxError(self._line(), "{", self._val())
        self.i += 1
        body = cfgmod.Block((yield self._statements()))
        handlers: list[cfgmod.Block] = []
        final = None
        while self._val() == "catch":
            self.i += 1
            lo, hi = self._match_paren()
            # catch (A | B name): type(s) and the variable
            names = [t for t in self.toks[lo:hi] if t.kind == "ident"]
            if len(names) >= 2:
                self.scan.declare(names[-1].value, names[0].value)
            if self._val() != "{":
                raise SourceSyntaxError(self._line(), "{", self._val())
            self.i += 1
            handlers.append(cfgmod.Block((yield self._statements())))
        if self._val() == "finally":
            self.i += 1
            if self._val() != "{":
                raise SourceSyntaxError(self._line(), "{", self._val())
            self.i += 1
            final = cfgmod.Block((yield self._statements()))
        return cfgmod.TryStmt(body=body, handlers=handlers, final=final, has_call=has_call, decisions=decisions)

    def _parse_simple(self):
        """Local declaration or expression statement, up to ';'."""
        start = self.i
        is_decl, has_init = self._maybe_declare_locals_stmt()
        lo = self.i
        self._skip_to_semi()
        end = self.i - 1 if self.i > lo and self.toks[self.i - 1].value == ";" else self.i
        d, c = self.scan.scan_expr(start if not is_decl else lo, end)
        if is_decl:
            return cfgmod.Simple(kind="decl", has_call=c, decisions=d, counts=has_init)
        return cfgmod.Simple(kind="expr", has_call=c, decisions=d)

    def _maybe_declare_locals_stmt(self) -> tuple[bool, bool]:
        """Detect 'Type name (= init)? (, name ...)* ;' at the cursor.

        On a match, declares the variables and leaves the cursor after the
        declarator names so initializer expressions still get scanned.
        Returns (is_declaration, any_initializer).
        """
        j = self.i
        toks = self.toks
        if j >= self.hi or toks[j].kind != "ident":
            return False, False
        if toks[j].value == "final":
            j += 1
        k = j
        if k >= self.hi or toks[k].kind != "ident" or toks[k].value in KEYWORDS and toks[k].value not in PRIMITIVES:
            if k >= self.hi or toks[k].value not in PRIMITIVES:
                return False, False
        # type: qualified name
        k += 1
        while k + 1 < self.hi and toks[k].value == "." and toks[k + 1].kind == "ident":
            k += 2
        # generics in declaration position
        if k < self.hi and toks[k].value == "<":
            depth = 0
            k2 = k
            while k2 < self.hi:
                v = toks[k2].value
                if v == "<":
                    depth += 1
                elif v == ">":
                    depth -= 1
                elif v == ">>":
                    depth -= 2
                elif v in (";", "{", "&&", "||") or depth < 0:
                    return False, False
                k2 += 1
                if depth == 0:
                    break
            else:
                return False, False
            k = k2
        while k + 1 < self.hi and toks[k].value == "[" and toks[k + 1].value == "]":
            k += 2
        if k >= self.hi or toks[k].kind != "ident" or toks[k].value in KEYWORDS:
            return False, False
        if k + 1 < self.hi and toks[k + 1].value not in ("=", ";", ",", "["):
            return False, False
        type_ref = _join_type(toks, self.i + (1 if toks[self.i].value == "final" else 0), k)
        if not type_ref:
            return False, False
        # declare each declarator
        names = [toks[k].value]
        has_init = False
        m = k + 1
        depth = 0
        while m < self.hi:
            v = toks[m].value
            if v in "([{":
                depth += 1
            elif v in ")]}":
                if depth == 0:
                    break
                depth -= 1
            elif depth == 0 and v == "=":
                has_init = True
            elif depth == 0 and v == ",":
                if m + 1 < self.hi and toks[m + 1].kind == "ident":
                    names.append(toks[m + 1].value)
            elif depth == 0 and v == ";":
                break
            m += 1
        for nm in names:
            self.scan.declare(nm, type_ref)
        self.i = k + 1  # expressions from the first declarator onward get scanned
        return True, has_init

    def _maybe_declare_locals(self, lo: int, hi: int) -> None:
        """Best-effort declaration extraction inside for-init / resources."""
        toks = self.toks
        j = lo
        if j < hi and toks[j].kind == "ident" and toks[j].value == "final":
            j += 1
        if j + 1 < hi and toks[j].kind == "ident" and toks[j + 1].kind == "ident":
            self.scan.declare(toks[j + 1].value, toks[j].value)


def _join_type(toks: list[Token], lo: int, hi: int) -> str:
    """Raw element type name from a declaration token span."""
    parts = []
    for t in toks[lo:hi]:
        if t.kind == "ident":
            if t.value in ("final",):
                continue
            parts.append(t.value)
        elif t.value == "." and parts:
            parts.append(".")
        elif t.value in ("<", "["):
            break
    name = "".join(parts)
    return name.rstrip(".")


def parse_source(text: str, path: str = "<source>") -> CompilationFacts:
    """Parse one file of the supported subset into compilation facts."""
    return Parser(text, path).parse()
