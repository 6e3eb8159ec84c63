"""Parser for a Java-like object-oriented source subset.

Recognized: package/import declarations, class/interface/abstract-class
declarations with extends/implements, fields, methods, constructors,
initializer blocks, and the structured statement set (if/else, while, do,
for, enhanced for, switch, break/continue with labels, return, throw,
try/catch/finally, blocks, locals, expression statements).  Generics,
annotations and lambdas are tolerated and skipped; inner classes are
flattened to ``Outer.Inner``.  Unsupported constructs inside method bodies,
and jumps with no enclosing target, degrade to opaque statements; only
malformed declarations raise.  Each method body is lowered to its
control-flow graph, and its statements counted, in the pass that parses it.

Output is a :class:`CompilationFacts`: class records in the facts-file
schema, except that each method's ``cfg`` is the built
:class:`~oometrics.cfg.ControlFlowGraph`, plus per-class Halstead counts
taken over each method body's token range.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import NamedTuple

from . import cfg as cfgmod
from .errors import SourceSyntaxError, UnbalancedBlock
from .halstead import HalsteadCounts, halstead_counts, merge_counts

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
    """Lex the source in one pass; comments and whitespace are dropped.

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


def count_lines(text: str) -> tuple[int, int]:
    """(cl_line, cl_comm): physical lines, and lines carrying any comment
    content.  Comment markers inside string/char literals do not count."""
    spans: list[tuple[int, int]] = []
    tokenize(text, spans)
    return _count_lines(text, spans)


def _count_lines(text: str, spans: list[tuple[int, int]]) -> tuple[int, int]:
    cl_line = text.count("\n")
    if text and not text.endswith("\n"):
        cl_line += 1
    comm: set[int] = set()
    for a, b in spans:
        comm.update(range(a, b + 1))
    return cl_line, len(comm)


# ---------------------------------------------------------------------------


@dataclass
class CompilationFacts:
    path: str
    package: str
    classes: list[dict] = field(default_factory=list)
    #: class name -> its methods' Halstead counts, merged; a class without
    #: methods has no entry, a method without a body counts zero
    halstead: dict[str, HalsteadCounts] = field(default_factory=dict)


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
        self.comment_spans: list[tuple[int, int]] = []
        self.toks = tokenize(text, self.comment_spans)
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

    def _type_refs(self) -> list[str]:
        """A comma-separated list of type references."""
        refs = [self._type_ref()]
        while self._accept(","):
            refs.append(self._type_ref())
        return refs

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
            self._parse_type_decl(None, self._modifiers())

        facts = CompilationFacts(self.path, self.package)
        file_lines, file_comments = _count_lines(self.text, self.comment_spans)
        method_counts: dict[str, dict[str, HalsteadCounts]] = {}
        for decl in self.decls:
            builder = _ClassBuilder(self, decl)
            record, counts = builder.build()
            if len(self.decls) == 1:
                # one class per file: the whole file is the class, header
                # comments and package line included (matches tool practice)
                record["lines"] = file_lines
                record["commentLines"] = file_comments
            else:
                record["lines"] = max(decl.end_line - decl.line + 1, 0)
                record["commentLines"] = _comment_lines_in(self.comment_spans, decl.line, decl.end_line)
            facts.classes.append(record)
            method_counts.setdefault(decl.name, {}).update(counts)
        facts.halstead = {cls: merge_counts(list(c.values())) for cls, c in method_counts.items() if c}
        return facts

    def _parse_type_decl(self, outer: _ClassDecl | None, mods: set[str]) -> None:
        """A class, interface or enum declaration from its keyword on;
        ``outer`` is the enclosing declaration of an inner type."""
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

        flat = f"{outer.simple_name}.{simple}" if outer else simple
        name = f"{self.package}.{flat}" if self.package else flat
        decl = _ClassDecl(name=name, simple_name=flat, line=start_line)
        if kw == "interface":
            decl.kind = "interface"
        elif "abstract" in mods:
            decl.kind = "abstract-class"
        if self._accept("extends"):
            decl.supers = self._type_refs()
            if kw == "class":
                decl.extends_target = decl.supers[0]
        if self._accept("implements"):
            decl.supers += self._type_refs()
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
                self._parse_type_decl(decl, mods)
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

    def build(self) -> tuple[dict, dict[str, HalsteadCounts]]:
        """The class record, and each method's Halstead counts by signature."""
        record: dict = {
            "name": self.decl.name,
            "kind": self.decl.kind,
            "extends": [self.resolve_type(s) for s in self.decl.supers],
            "lines": 0,
            "commentLines": 0,
            "attributes": [],
            "methods": [],
        }
        counts: dict[str, HalsteadCounts] = {}
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
            lo = hi = 0  # a bodiless method counts zero
            if m.body is not None:
                lo, hi = m.body
                graph, count = _StatementParser(self.p.toks, lo, hi, scan).parse_block_body()
                statements += count
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
            counts[sig] = halstead_counts(self.p.toks, lo, hi)

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
        return record, counts

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
            rec["cfg"] = graph
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


class _Frame:
    """Break/continue targets of one loop, switch or labeled statement."""

    __slots__ = ("label", "breaks", "continue_target", "takes_continue", "continues")

    def __init__(self, label: str | None, continue_target: int | None, takes_continue: bool = False):
        self.label = label
        self.breaks: list[int] = []
        self.continue_target = continue_target
        self.takes_continue = takes_continue
        self.continues: list[int] = []  # deferred wiring (do-while)


def _trampoline(gen):
    """Run a generator whose nested calls are yielded, not made.

    A generator yields the generator of each call it would otherwise make
    and receives that call's return value, or has its exception raised at
    the ``yield``.  The calls stack up in a list on the heap, so statement
    nesting of any depth runs within the interpreter's recursion limit.
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


class _StatementParser:
    """Statement-level recursive descent over a method body token range
    that lowers each statement to flowgraph nodes as it parses it.

    Each descent method takes the dangling exits (``pending``) of the code
    before it, the nodes whose next edge goes to whatever follows, and
    returns its own; a jump, return or throw returns none.  Code after such
    a statement is still parsed, built and counted: its nodes have no way
    in, and :func:`cfg.build_cfg` drops them.  The descent methods are
    generators: each nested statement is yielded to :func:`_trampoline`
    instead of called, so nesting depth costs heap, not interpreter stack.
    """

    def __init__(self, toks: list[Token], lo: int, hi: int, scan: _BodyScanner):
        self.toks = toks
        self.i = lo
        self.hi = hi
        self.scan = scan
        self.kinds: list[str] = [cfgmod.ENTRY]
        self.edges: list[tuple[int, int]] = []
        self.exits: list[int] = []  # return/throw nodes, wired to the exit at the end
        self.frames: list[_Frame] = []
        self.pending_label: str | None = None  # taken by the next block or branching statement
        self.statement_count = 0  # executable statements, for cl_stat

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

    # -- graph primitives ------------------------------------------------------

    def _node(self, kind: str, pending: list[int]) -> int:
        n = len(self.kinds)
        self.kinds.append(kind)
        for src in pending:
            self.edges.append((src, n))
        return n

    def _decisions(self, pending: list[int], count: int) -> list[int]:
        """Short-circuit operators and ternaries: each becomes one decision
        node whose two outcomes rejoin immediately.  This canonical shape
        adds one independent path per operator and stays structured under
        the essential-complexity reduction."""
        for _ in range(count):
            d = self._node(cfgmod.DECISION, pending)
            pending = [d, d]
        return pending

    def _simple(self, pending: list[int], has_call: bool, decisions: int) -> list[int]:
        """A statement that does not branch: ``call-bearing`` when its
        expressions call (the only kind module design complexity counts as
        a call), else ``plain``; then its short-circuit decisions."""
        n = self._node(cfgmod.CALL_BEARING if has_call else cfgmod.PLAIN, pending)
        return self._decisions([n], decisions)

    def _opaque(self, pending: list[int]) -> list[int]:
        """A statement the parser cannot follow: one counted plain node."""
        self.statement_count += 1
        return [self._node(cfgmod.PLAIN, pending)]

    def _take_label(self) -> str | None:
        label, self.pending_label = self.pending_label, None
        return label

    def _find_frame(self, label: str | None, want_break: bool) -> _Frame | None:
        for frame in reversed(self.frames):
            if label is not None and frame.label != label:
                continue
            if not want_break and not frame.takes_continue:
                continue  # switch/labeled-block frames take breaks only
            return frame
        return None

    def _rollback(self, mark: tuple) -> None:
        """Undo everything a failed statement built since ``mark``."""
        nodes, edges, exits, frames, self.pending_label, self.statement_count = mark
        del self.kinds[nodes:], self.edges[edges:], self.exits[exits:], self.frames[frames:]
        for frame in self.frames:
            frame.breaks = [j for j in frame.breaks if j < nodes]
            frame.continues = [j for j in frame.continues if j < nodes]

    # -- statements --------------------------------------------------------------

    def parse_block_body(self) -> tuple[cfgmod.ControlFlowGraph, int]:
        """The body's flowgraph and its executable statement count."""
        pending = _trampoline(self._statements([0], closing=False))
        return cfgmod.build_cfg(self.kinds, self.edges, pending, self.exits), self.statement_count

    def _statements(self, pending: list[int], closing: bool = True):
        """Statements up to a closing brace, which ``closing`` requires and
        consumes, or to the end of the range.  Statements degrade instead
        of failing the file: on any parse trouble, undo what the statement
        built, consume to a statement boundary and emit an opaque node."""
        while self.i < self.hi and self._val() != "}":
            before = self.i
            mark = (len(self.kinds), len(self.edges), len(self.exits), len(self.frames),
                    self.pending_label, self.statement_count)
            try:
                pending = yield self.parse_statement(pending)
            except SourceSyntaxError:
                self.i = max(before + 1, self.i)
                self._skip_to_semi()
                self._rollback(mark)
                pending = self._opaque(pending)
        if closing:
            if self._val() != "}":
                raise UnbalancedBlock(self._line())
            self.i += 1
        return pending

    def parse_statement(self, pending: list[int]):
        """One statement; a generator (see :func:`_trampoline`)."""
        v = self._val()
        if v == "{":
            self.i += 1
            self._take_label()  # a label on a block belongs to the block
            return (yield self._statements(pending))
        if v == ";":
            self.i += 1
            return pending
        if v == "if":
            self.i += 1
            lo, hi = self._match_paren()
            d, _ = self.scan.scan_expr(lo, hi)
            self._take_label()
            self.statement_count += 1
            head = self._node(cfgmod.DECISION, self._decisions(pending, d))
            out = yield self.parse_statement([head])
            if self._val() == "else":
                self.i += 1
                return out + (yield self.parse_statement([head]))
            return out + [head]
        if v == "while":
            self.i += 1
            lo, hi = self._match_paren()
            return (yield self._parse_loop(pending, self.scan.scan_expr(lo, hi)[0]))
        if v == "for":
            self.i += 1
            lo, hi = self._match_paren()
            return (yield self._parse_loop(pending, self._scan_for_header(lo, hi)))
        if v == "do":
            return (yield self._parse_do(pending))
        if v == "switch":
            return (yield self._parse_switch(pending))
        if v == "try":
            return (yield self._parse_try(pending))
        if v in ("return", "throw"):
            self.i += 1
            lo = self.i
            self._skip_to_semi()
            d, _ = self.scan.scan_expr(lo, self.i - 1)
            self.statement_count += 1
            kind = cfgmod.RETURN if v == "return" else cfgmod.JUMP
            self.exits.append(self._node(kind, self._decisions(pending, d)))
            return []
        if v in ("break", "continue"):
            self.i += 1
            label = None
            if self._kind() == "ident" and self._val() not in KEYWORDS:
                label = self._val()
                self.i += 1
            self._accept_semi()
            frame = self._find_frame(label, want_break=v == "break")
            if frame is None:
                return self._opaque(pending)  # no target: degrade
            self.statement_count += 1
            n = self._node(cfgmod.JUMP, pending)
            if v == "break":
                frame.breaks.append(n)
            elif frame.continue_target is None:
                frame.continues.append(n)  # do-while: condition not built yet
            else:
                self.edges.append((n, frame.continue_target))
            return []
        if v == "synchronized" and self._val(1) == "(":
            self.i += 1
            lo, hi = self._match_paren()
            d, c = self.scan.scan_expr(lo, hi)
            self.statement_count += 1
            return (yield self.parse_statement(self._simple(pending, c, d)))
        if v == "assert":
            self.i += 1
            lo = self.i
            self._skip_to_semi()
            d, c = self.scan.scan_expr(lo, self.i - 1)
            self.statement_count += 1
            return self._simple(pending, c, d)
        if v in ("class", "interface", "enum", "abstract", "final") and self._kind() == "ident":
            # local type declaration: skip as opaque
            while self.i < self.hi and self._val() != "{":
                self.i += 1
            self._skip_braces()
            return self._opaque(pending)
        if self._kind() == "ident" and self._val() not in KEYWORDS and self._val(1) == ":" and self._val(2) != ":":
            frame = _Frame(self._val(), None)
            self.i += 2
            self.frames.append(frame)
            self.pending_label = frame.label
            out = yield self.parse_statement(pending)
            self.pending_label = None
            self.frames.pop()
            return out + frame.breaks
        return self._parse_simple(pending)

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
                if depth == 0 and v == "}":
                    return  # let the caller see the closing brace
                depth = max(depth - 1, 0)  # a stray ')' or ']' is skipped
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

    def _scan_for_header(self, lo: int, hi: int) -> int:
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
            return self.scan.scan_expr(colon + 1, hi)[0]
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
        for idx, (a, b) in enumerate(parts):
            if idx == 0:
                self._maybe_declare_locals(a, b)
            decisions += self.scan.scan_expr(a, b)[0]
        return decisions

    def _parse_loop(self, pending: list[int], decisions: int):
        """A while or for loop, from after its header."""
        label = self._take_label()
        self.statement_count += 1
        mark = len(self.kinds)
        head = self._node(cfgmod.LOOP_HEAD, self._decisions(pending, decisions))
        header_entry = mark if head > mark else head
        frame = _Frame(label, header_entry, takes_continue=True)
        self.frames.append(frame)
        body_out = yield self.parse_statement([head])
        self.frames.pop()
        for src in body_out:
            self.edges.append((src, header_entry))  # back edge re-evaluates the condition
        return [head] + frame.breaks

    def _parse_do(self, pending: list[int]):
        self.i += 1  # 'do'
        self.statement_count += 1
        frame = _Frame(self._take_label(), None, takes_continue=True)
        self.frames.append(frame)
        mark = len(self.kinds)
        body_out = yield self.parse_statement(pending)
        self.frames.pop()
        if self._val() != "while":
            raise SourceSyntaxError(self._line(), "while", self._val())
        self.i += 1
        lo, hi = self._match_paren()
        d, _ = self.scan.scan_expr(lo, hi)
        self._accept_semi()
        cond_entry = len(self.kinds)
        head = self._node(cfgmod.LOOP_HEAD, self._decisions(body_out, d))
        self.edges.append((head, mark if mark < cond_entry else cond_entry))
        for src in frame.continues:
            self.edges.append((src, cond_entry))
        return [head] + frame.breaks

    def _parse_switch(self, pending: list[int]):
        self.i += 1  # 'switch'
        lo, hi = self._match_paren()
        d, _ = self.scan.scan_expr(lo, hi)
        if self._val() != "{":
            raise SourceSyntaxError(self._line(), "{", self._val())
        self.i += 1
        self._take_label()
        self.statement_count += 1
        head = self._node(cfgmod.SWITCH_HEAD, self._decisions(pending, d))
        frame = _Frame(None, None)
        self.frames.append(frame)
        carried: list[int] = []  # exits of the arms so far, falling through
        labels = 0  # head edges of the arm being opened: one per case, one for a default
        default = has_default = started = False
        while self.i < self.hi and self._val() != "}":
            v = self._val()
            if v == "case":
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
                started = default = has_default = True
                self.i += 1
                if self._val() == ":":
                    self.i += 1
                continue
            if not started:  # stray tokens before the first label: skip
                self.i += 1
                continue
            if labels or default:  # the arm's first statement
                carried = [head] * (labels + default) + carried
                labels, default = 0, False
            carried = yield self.parse_statement(carried)
        carried = [head] * (labels + default) + carried
        self.frames.pop()
        if self._val() == "}":
            self.i += 1
        return carried + ([] if has_default else [head]) + frame.breaks

    def _parse_try(self, pending: list[int]):
        self.i += 1  # 'try'
        if self._val() == "(":
            lo, hi = self._match_paren()
            self._maybe_declare_locals(lo, hi)
            self.scan.scan_expr(lo, hi)
        if self._val() != "{":
            raise SourceSyntaxError(self._line(), "{", self._val())
        self.i += 1
        self._take_label()
        self.statement_count += 1
        node = self._node(cfgmod.PLAIN, pending)
        out = yield self._statements([node])
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
            self.kinds[node] = cfgmod.DECISION  # a handler makes the try branch
            out = out + (yield self._statements([node]))
        if self._val() == "finally":
            self.i += 1
            if self._val() != "{":
                raise SourceSyntaxError(self._line(), "{", self._val())
            self.i += 1
            out = yield self._statements(out)
        return out

    def _parse_simple(self, pending: list[int]) -> list[int]:
        """Local declaration or expression statement, up to ';'.  A
        declaration without an initializer is a node but not a statement."""
        start = self.i
        is_decl, has_init = self._maybe_declare_locals_stmt()
        lo = self.i
        self._skip_to_semi()
        end = self.i - 1 if self.i > lo and self.toks[self.i - 1].value == ";" else self.i
        d, c = self.scan.scan_expr(start if not is_decl else lo, end)
        if has_init or not is_decl:
            self.statement_count += 1
        return self._simple(pending, c, d)

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
