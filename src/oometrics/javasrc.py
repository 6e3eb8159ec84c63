"""Parser for a Java-like object-oriented source subset.

Recognized: package/import declarations, class/interface/abstract-class
declarations with extends/implements, fields, methods, constructors,
initializer blocks, and the structured statement set (if/else, while, do,
for, enhanced for, switch, break/continue with labels, return, throw,
try/catch/finally, blocks, locals, expression statements).  Generics,
annotations and lambdas are tolerated and skipped; inner classes are
flattened to ``Outer.Inner``.  A string or char literal is an operand,
never a bracket, separator or keyword.  Unsupported constructs inside method bodies,
and jumps with no enclosing target, degrade to opaque statements; only
malformed declarations raise.  Each method body is lowered to its
control-flow graph, and its statements counted, in the pass that parses it.

Each file is lexed once, into a :class:`TokenStream` of parallel lists
(kinds, structural values, texts, start offsets) that the parser and the
Halstead count read by index.  A line number is looked up in the file's
line-start table only where one is needed: class and member spans,
comment spans and error messages.

Output is a :class:`CompilationFacts`: class records in the facts-file
schema, except that each method's ``cfg`` is the built
:class:`~oometrics.cfg.ControlFlowGraph`, plus one Halstead total for the
file, merged from the counts over each method body's token range.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate

from . import cfg as cfgmod
from .errors import SourceSyntaxError, UnbalancedBlock
from .halstead import HalsteadCounts, halstead_counts, merge_counts
from .model import _record

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

#: One lexeme per match, after the whitespace before it, tried in this
#: order; at the end of the text only the whitespace matches.  ``str`` and
#: ``char`` run to the closing quote or to the end of the text; an unclosed
#: block comment runs to the end of the text.  ``word`` and ``dot`` start
#: with a character outside ASCII, where :func:`tokenize` decides between
#: name, number and operator.  Operators go longest first.
_LEXEME = re.compile(
    r"""[ \t\r\f\n]*(?:
      (?P<line_comment>//[^\n]*)
    | (?P<block_comment>/\*.*?(?:\*/|\Z))
    | "(?P<str>[^"\\]*(?:\\.[^"\\]*)*\\?)"?
    | '(?P<char>[^'\\]*(?:\\.[^'\\]*)*\\?)'?
    | (?P<num>\.?\d(?:[eE][+-]|[\w.])*)
    | (?P<ident>[a-zA-Z_$][\w$]*)
    | (?P<word>[\w$]+)
    | (?P<dot>\.(?=[^\x00-\x7f]))
    | (?P<op>>>>=|<<=|>>=|>>>|\.\.\.|[=!<>]=|&&|\|\||\+\+|--|[-+*/%&|^]=|<<|>>|->|::|.)
    | \Z)""",
    re.VERBOSE | re.DOTALL,
)
_NUMBER_TAIL = re.compile(r"(?:[eE][+-]|[\w.])*")


class TokenStream:
    """One file's tokens as parallel lists, indexed by token.

    ``kinds`` holds ident, num, str, char or op; ``vals`` the structural
    value, the text or, for a literal, its opening quote, so literal text
    never counts as a bracket, separator or keyword; ``texts`` the text,
    a literal's without its quotes; ``starts`` the offset where each token
    starts.  ``comments`` is the 1-based (first, last) line pair of every
    comment, and ``line_starts`` the offset where each line starts."""

    __slots__ = ("kinds", "vals", "texts", "starts", "comments", "line_starts")

    def __init__(self, kinds, vals, texts, starts, comments, line_starts):
        self.kinds: list[str] = kinds
        self.vals: list[str] = vals
        self.texts: list[str] = texts
        self.starts: list[int] = starts
        self.comments: list[tuple[int, int]] = comments
        self.line_starts: list[int] = line_starts

    def __len__(self) -> int:
        return len(self.kinds)

    def _line(self, i: int) -> int:
        """The line token ``i`` starts on."""
        return bisect_right(self.line_starts, self.starts[i])


def tokenize(text: str) -> TokenStream:
    """Lex the source in one pass; comments and whitespace are dropped.
    Comment markers inside string and char literals are literal text."""
    kinds: list[str] = []
    vals: list[str] = []
    starts: list[int] = []
    literals: list[tuple[int, str]] = []  # (index, text) of each literal
    comments: list[tuple[int, int]] = []  # (start, end) offsets
    add_kind, add_val, add_start = kinds.append, vals.append, starts.append
    pos = 0
    while pos is not None:
        for m in _LEXEME.finditer(text, pos):
            kind = m.lastgroup
            if kind == "op" or kind == "ident" or kind == "num":
                add_kind(kind)
                add_val(m[kind])
                add_start(m.start(kind))
            elif kind == "str" or kind == "char":
                literals.append((len(kinds), m[kind]))
                add_kind(kind)
                add_val('"' if kind == "str" else "'")
                add_start(m.start(kind) - 1)
            elif kind == "line_comment" or kind == "block_comment":
                comments.append(m.span(kind))
            elif kind is not None:  # word or dot; None is the end of the text
                # str.isalpha/str.isdigit on the first character decide
                # between name, number and operator, as \w and \d do not:
                # '²' and '.²' start numbers, '½' is an operator
                start, end = m.start(kind), m.end()
                ch = text[start + 1] if kind == "dot" else text[start]
                if kind == "word" and ch.isalpha():
                    kind = "ident"
                elif ch.isdigit():
                    kind, end = "num", _NUMBER_TAIL.match(text, start + 1).end()
                else:
                    kind, end = "op", start + 1
                add_kind(kind)
                add_val(text[start:end])
                add_start(start)
                if end != m.end():  # lex on from where the token ends
                    pos = end
                    break
        else:
            pos = None
    texts = vals.copy()
    for i, literal in literals:
        texts[i] = literal
    line_starts = list(accumulate(map((1).__add__, map(len, text.split("\n"))), initial=0))
    comments = [(bisect_right(line_starts, a), bisect_right(line_starts, b)) for a, b in comments]
    return TokenStream(kinds, vals, texts, starts, comments, line_starts)


def _comment_table(text: str, spans: list[tuple[int, int]]) -> list[int]:
    """Running comment-line counts, one entry per physical line after entry
    0: entry k is how many of lines 1..k carry any comment content, given
    the comment ``spans`` of a :class:`TokenStream`, so the table's last
    index is cl_line and lines lo..hi hold ``t[hi] - t[lo - 1]``.  A comment
    left open at the end of the file spans one line past it: that line is
    not counted."""
    n = text.count("\n") + (1 if text and not text.endswith("\n") else 0)
    flags = bytearray(n + 1)
    for a, b in spans:
        b = min(b, n)
        flags[a:b + 1] = b"\1" * (b + 1 - a)
    return list(accumulate(flags))


# ---------------------------------------------------------------------------


@dataclass
class CompilationFacts:
    path: str
    package: str
    classes: list[dict] = field(default_factory=list)
    #: the Halstead counts of every method body in the file, merged; None
    #: for a file without methods, and a method without a body counts zero
    halstead: HalsteadCounts | None = None


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


_OPENERS = frozenset("([{")
_CLOSERS = frozenset(")]}")
_TYPE_ARG_CLOSERS = {">": 1, ">>": 2, ">>>": 3}  # levels each closes
_NOT_IN_TYPE_ARGS = frozenset({";", "{", "&&", "||"})
_SEMI = frozenset({";"})
_FOR_SEPARATORS = frozenset({";", ":"})
_DECLARATOR_SEPARATORS = frozenset({"=", ",", ";"})
_FIELD_DECLARATOR_ENDS = frozenset({",", ";"})
_AFTER_LOCAL_NAME = frozenset({"=", ";", ",", "[", ""})  # "" is the end of the range


class _Cursor:
    """A read position ``i`` over ``toks`` that reads nothing at or past
    ``hi``: the end of the file for :class:`Parser`, the end of one method
    body for :class:`_StatementParser`, the end of a bracketed header for
    a cursor over that header.  Structure is read from the structural
    values ``vals``, so literal text never counts as a bracket, separator
    or keyword."""

    def __init__(self, toks: TokenStream, i: int, hi: int):
        self.toks = toks
        self.kinds = toks.kinds
        self.vals = toks.vals
        self.i = i
        self.hi = hi

    def _sub(self, lo: int, hi: int) -> _Cursor:
        """A cursor over tokens [lo, hi)."""
        return _Cursor(self.toks, lo, hi)

    def _val(self, k: int = 0) -> str:
        """The structural value ``k`` tokens on; "" past the end."""
        j = self.i + k
        return self.vals[j] if j < self.hi else ""

    def _kind(self, k: int = 0) -> str:
        j = self.i + k
        return self.kinds[j] if j < self.hi else ""

    def _found(self) -> str:
        """The current token's text, as an error message names it."""
        return self.toks.texts[self.i] if self.i < self.hi else "end of file"

    def _line(self) -> int:
        """The current token's line; past the end, the last readable one's."""
        j = min(self.i, self.hi - 1)
        return self.toks._line(j) if j >= 0 else 1

    def _advance(self) -> str:
        """Step over the current token, whose kind the caller has checked,
        and return its value."""
        self.i += 1
        return self.vals[self.i - 1]

    def _accept(self, value: str) -> bool:
        if self._val() == value:
            self.i += 1
            return True
        return False

    def _expect(self, value: str) -> None:
        if self._val() != value:
            raise SourceSyntaxError(self._line(), value, self._found())
        self.i += 1

    def _skip_balanced(self, open_c: str, close_c: str) -> int:
        """Consume from the current opening delimiter to its match, counting
        only that pair; returns the index of the closing token."""
        start = self.i
        self._expect(open_c)
        vals, i, hi, depth = self.vals, self.i, self.hi, 1
        while depth:
            if i >= hi:
                self.i = i
                raise UnbalancedBlock(self.toks._line(start))
            v = vals[i]
            if v == open_c:
                depth += 1
            elif v == close_c:
                depth -= 1
            i += 1
        self.i = i
        return i - 1

    def _walk_to(self, stops: frozenset[str]) -> str:
        """Step to the first token at depth 0 whose value is in ``stops``,
        or to the first closer that closes nothing, and return its value;
        "" at the end.  Each ``()``, ``[]`` or ``{}`` group is skipped
        whole, any closer closing the innermost open group."""
        vals, i, hi, depth = self.vals, self.i, self.hi, 0
        while i < hi:
            v = vals[i]
            if v in _OPENERS:
                depth += 1
            elif v in _CLOSERS:
                if not depth:
                    break
                depth -= 1
            elif not depth and v in stops:
                break
            i += 1
        self.i = i
        return vals[i] if i < hi else ""

    def _skip_dims(self) -> None:
        """Consume array brackets ``[]``, any number of pairs."""
        while self._accept("["):
            self._expect("]")

    def _skip_type_args(self) -> bool:
        """At '<': consume the type-argument section, where ``>>`` and
        ``>>>`` close two and three levels.  False when it meets ``;``,
        ``{``, ``&&``, ``||`` or the end first, or closes more levels than
        it opened."""
        depth = 0
        while True:
            v = self._val()
            if v == "<":
                depth += 1
            elif v in _TYPE_ARG_CLOSERS:
                depth -= _TYPE_ARG_CLOSERS[v]
            elif not v or v in _NOT_IN_TYPE_ARGS:
                return False
            self.i += 1
            if depth <= 0:
                return depth == 0

    def _qualified_name(self) -> str:
        if self._kind() != "ident":
            raise SourceSyntaxError(self._line(), "identifier", self._found())
        parts = [self._advance()]
        while self._val() == "." and self._kind(1) == "ident":
            self.i += 1
            parts.append(self._advance())
        return ".".join(parts)

    def _local_type(self) -> str:
        """Step over a local variable's type, ``[final] Name[.Name]*[<...>][[]]*``,
        and return its element name; "" when no such type starts here."""
        self._accept("final")
        v = self._val()
        if self._kind() != "ident" or v in KEYWORDS and v not in PRIMITIVES:
            return ""
        name = self._qualified_name()
        if self._val() == "<" and not self._skip_type_args():
            return ""
        while self._val() == "[" and self._val(1) == "]":
            self.i += 2
        return name


class Parser(_Cursor):
    def __init__(self, text: str, path: str = "<source>"):
        self.text = text
        self.path = path
        toks = tokenize(text)
        super().__init__(toks, 0, len(toks))
        self.package = ""
        self.imports: dict[str, str] = {}
        self.decls: list[_ClassDecl] = []
        self.known_types: dict[str, str] = {}  # simple or full declared name -> full name

    def _skip_annotations(self) -> None:
        while self._accept("@"):
            if self._kind() == "ident":
                self.i += 1
                while self._val() == "." and self._kind(1) == "ident":
                    self.i += 2
            if self._val() == "(":
                self._skip_balanced("(", ")")

    def _skip_generics(self) -> None:
        """Consume a <...> section if one starts here.  Caller must ensure a
        type position; '<' in expressions is never passed through this."""
        if self._val() == "<" and not self._skip_type_args():
            if self.i >= self.hi:
                raise UnbalancedBlock(self._line())
            raise SourceSyntaxError(self._line(), ">", self._found())

    def _type_ref(self) -> str:
        """Type reference eroded to its raw element name: generics stripped,
        array brackets dropped."""
        name = self._qualified_name()
        self._skip_generics()
        self._skip_dims()
        self._accept("...")
        return name

    def _type_refs(self) -> list[str]:
        """A comma-separated list of type references."""
        refs = [self._type_ref()]
        while self._accept(","):
            refs.append(self._type_ref())
        return refs

    # -- compilation unit ----------------------------------------------------

    def parse(self) -> CompilationFacts:
        if self._accept("package"):
            self.package = self._qualified_name()
            self._expect(";")
        while self._accept("import"):
            self._accept("static")
            name = self._qualified_name()
            if self._val() == "." and self._val(1) == "*":
                self.i += 2  # star imports carry no resolution info
            else:
                self.imports[name.rsplit(".", 1)[-1]] = name
            self._expect(";")
        while self.i < self.hi:
            self._skip_annotations()
            if self.i >= self.hi:
                break
            if self._accept(";"):
                continue
            self._parse_type_decl(None, self._modifiers())

        facts = CompilationFacts(self.path, self.package)
        comments = _comment_table(self.text, self.toks.comments)
        self.known_types = {d.simple_name: d.name for d in self.decls} | {d.name: d.name for d in self.decls}
        method_counts: list[HalsteadCounts] = []
        for decl in self.decls:
            # one type in the file: the whole file is the class, header
            # comments and package line included (matches tool practice);
            # else the class's own lines, its inner types' included
            lo, hi = (1, len(comments) - 1) if len(self.decls) == 1 else (decl.line, decl.end_line)
            builder = _ClassBuilder(self, decl)
            facts.classes.append(builder.build(hi - lo + 1, comments[hi] - comments[lo - 1], method_counts))
        if method_counts:
            facts.halstead = merge_counts(method_counts)
        return facts

    def _parse_type_decl(self, outer: _ClassDecl | None, mods: set[str]) -> None:
        """A class, interface or enum declaration from its keyword on;
        ``outer`` is the enclosing declaration of an inner type."""
        kw = self._val()
        if kw not in ("class", "interface", "enum"):
            raise SourceSyntaxError(self._line(), {"class", "interface"}, kw or "end of file")
        start_line = self._line()
        self.i += 1
        if self._kind() != "ident":
            raise SourceSyntaxError(self._line(), "type name")
        simple = self._advance()
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
        while self._val() not in ("{", ""):
            self.i += 1  # tolerate e.g. 'permits'
        if self.i >= self.hi:
            raise SourceSyntaxError(start_line, "{", "end of file")

        if kw == "enum":
            end = self._skip_balanced("{", "}")  # out of subset: keep the shell only
            decl.end_line = self.toks._line(end)
            self.decls.append(decl)
            return

        self._expect("{")
        self.decls.append(decl)
        self._parse_class_body(decl)

    def _resolve_type(self, ref: str) -> str:
        """A type name as written here, resolved against the file's
        declarations and imports; left as written when neither has it."""
        if ref in PRIMITIVES:
            return ref
        if ref in self.known_types:
            return self.known_types[ref]
        if ref in self.imports:
            return self.imports[ref]
        head = ref.split(".", 1)[0]
        if head in self.known_types and "." in ref:
            return self.known_types[head] + ref[len(head):]
        return ref

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
            v = self._val()
            if not v:
                raise UnbalancedBlock(decl.line)
            if v == "}":
                decl.end_line = self._line()
                self.i += 1
                return
            if v == ";":
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
                member.end_line = self.toks._line(member.body[1])
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
        if self.i >= self.hi:
            raise UnbalancedBlock(decl.line)
        if self._kind() != "ident":
            raise SourceSyntaxError(line, "type", self._found())

        # constructor: bare class name followed by '('
        if self._val() == decl.simple_name.rsplit(".", 1)[-1] and self._val(1) == "(":
            member = _Member(kind="ctor", name="<init>", line=line)
            self.i += 1
            self._finish_callable(decl, member, mods)
            return

        type_name = self._type_ref()
        if self._kind() != "ident":
            raise SourceSyntaxError(self._line(), "member name", self._found())
        name = self._advance()

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
            self._skip_dims()
            if self._accept("="):
                start = self.i
                v = self._walk_to(_FIELD_DECLARATOR_ENDS)
                if not v:
                    raise UnbalancedBlock(self._line())
                if v not in _FIELD_DECLARATOR_ENDS:
                    raise SourceSyntaxError(self._line(), _FIELD_DECLARATOR_ENDS, v)
                ranges.append((start, self.i))
            if self._accept(","):
                if self._kind() != "ident":
                    raise SourceSyntaxError(self._line(), "field name")
                names.append(self._advance())
                continue
            break
        self._expect(";")
        member.end_line = self._line()
        member.param_names = names  # all declarators of this statement
        member.initializer_ranges = ranges
        decl.members.append(member)

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
            if self._kind() == "ident":
                pname = self._advance()
            self._skip_dims()
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
            member.end_line = self.toks._line(member.body[1])
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
        self.method_names = {m.name for m in decl.members if m.kind == "method"}

    def build(self, lines: int, comment_lines: int, counts: list[HalsteadCounts]) -> dict:
        """The class record; each method's Halstead counts go on ``counts``."""
        attributes: list[dict] = []
        methods: list[dict] = []
        statements = 0
        init_scan = None  # one scanner for every field initializer
        resolve = self.p._resolve_type

        for m in self.decl.members:
            if m.kind == "field":
                for nm in m.param_names:
                    attributes.append(_record("attribute", nm, resolve(m.type), m.visibility, m.is_static))
                if m.initializer_ranges:
                    statements += len(m.initializer_ranges)
                    if init_scan is None:
                        init_scan = _BodyScanner(self, {})
                    for lo, hi in m.initializer_ranges:
                        init_scan.scan_expr(lo, hi)
                continue

            name = m.name
            env = {
                pn: resolve(pt)
                for pn, pt in zip(m.param_names, m.param_types)
                if pn
            }
            scan = _BodyScanner(self, env)
            graph = None
            lo = hi = 0  # a bodiless method counts zero
            if m.body is not None:
                lo, hi = m.body
                graph, count = _StatementParser(self.p, lo, hi, scan).parse_block_body()
                statements += count
            mrec = self._method_record(
                name=name,
                param_types=[resolve(t) for t in m.param_types],
                visibility=m.visibility,
                is_abstract=m.is_abstract,
                is_static=m.is_static,
                scan=scan,
                graph=graph,
                lines=(m.end_line - m.line + 1) if m.end_line else None,
            )
            methods.append(mrec)
            counts.append(halstead_counts(self.p.toks, lo, hi))

        if init_scan is not None and (init_scan.invokes or init_scan.accesses):
            methods.append(
                self._method_record(
                    name="<init-block-fields>", param_types=[], visibility="private",
                    is_abstract=False, is_static=False,
                    scan=init_scan, graph=None, lines=None,
                )
            )
        supers = [resolve(s) for s in self.decl.supers]
        return _record("class", self.decl.name, self.decl.kind, supers, lines, comment_lines, statements,
                       attributes, methods)

    def _method_record(self, name, param_types, visibility, is_abstract, is_static, scan, graph, lines) -> dict:
        invokes = [_record("invocation", t, c) for t, c in sorted(Counter(scan.invokes).items())]
        return _record("method", name, param_types, visibility, is_abstract, is_static, sorted(set(scan.accesses)),
                       invokes, graph, lines)


class _BodyScanner:
    """Expression-level extraction: invocation targets, attribute accesses,
    short-circuit/ternary decision counts, call presence."""

    def __init__(self, cb: _ClassBuilder, env: dict[str, str]):
        self.cb = cb
        self.p = cb.p
        self.env = env  # local/parameter name -> resolved type
        self.invokes: list[str] = []  # one target per call
        self.accesses: list[str] = []

    def declare(self, name: str, type_ref: str) -> None:
        self.env[name] = self.p._resolve_type(type_ref)

    def scan_expr(self, lo: int, hi: int) -> tuple[int, bool]:
        """Scan tokens [lo, hi); returns (extra decision count, has_call)."""
        kinds, vals = self.p.kinds, self.p.vals
        decisions = 0
        has_call = False
        i = lo
        while i < hi:
            kind, v = kinds[i], vals[i]
            if kind == "op":
                if v in ("&&", "||", "?"):
                    decisions += 1
                i += 1
                continue
            if kind != "ident":
                i += 1
                continue
            if v == "new":
                j = i + 1
                parts = []
                while j < hi and kinds[j] == "ident" and vals[j] not in KEYWORDS:
                    parts.append(vals[j])
                    j += 1
                    if j < hi and vals[j] == ".":
                        j += 1
                    else:
                        break
                if parts and j < hi and vals[j] == "(":
                    target = self.p._resolve_type(".".join(parts))
                    self.invokes.append(f"{target}.<init>")
                    has_call = True
                i = j if j > i + 1 else i + 1
                continue
            if v in KEYWORDS and not (v in ("this", "super") and i + 1 < hi and vals[i + 1] == "."):
                i += 1
                continue
            chain = [v]
            j = i + 1
            while j + 1 < hi and vals[j] == "." and kinds[j + 1] == "ident":
                chain.append(vals[j + 1])
                j += 2
            is_call = j < hi and vals[j] == "("
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
        cb, p = self.cb, self.p
        if not receiver:
            return cb.decl.name
        head = receiver[0]
        rest = receiver[1:]
        if head == "this":
            base = cb.decl.name
        elif head == "super":
            if cb.decl.extends_target is None:
                return None
            base = p._resolve_type(cb.decl.extends_target)
        elif head in self.env:
            base = self.env[head]
        elif head in cb.fields:
            base = p._resolve_type(cb.fields[head])
            self.accesses.append(f"{cb.decl.name}.{head}")
        elif head in p.known_types or head in p.imports:
            base = p._resolve_type(head)
        else:
            dotted = ".".join(receiver)
            if dotted in p.known_types or dotted in p.imports:
                return p._resolve_type(dotted)
            if head[:1].isupper():
                base = p._resolve_type(head)
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
                owner = self.p._resolve_type(self.cb.decl.extends_target)
                self.invokes.append(f"{owner}.{method}")
                return
        owner = self._owner_of(receiver)
        if owner is None or owner in PRIMITIVES:
            return
        self.invokes.append(f"{owner}.{method}")

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


class _StatementParser(_Cursor):
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

    def __init__(self, parser: Parser, lo: int, hi: int, scan: _BodyScanner):
        super().__init__(parser.toks, lo, hi)
        self.scan = scan
        self.node_kinds: list[str] = [cfgmod.ENTRY]
        self.edges: list[tuple[int, int]] = []
        self.exits: list[int] = []  # return/throw nodes, wired to the exit at the end
        self.frames: list[_Frame] = []
        self.pending_label: str | None = None  # taken by the next block or branching statement
        self.statement_count = 0  # executable statements, for cl_stat

    def _match_paren(self) -> tuple[int, int]:
        """At '(': return the inner token range and step past ')'."""
        lo = self.i + 1
        return lo, self._skip_balanced("(", ")")

    # -- graph primitives ------------------------------------------------------

    def _node(self, kind: str, pending: list[int]) -> int:
        n = len(self.node_kinds)
        self.node_kinds.append(kind)
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
        del self.node_kinds[nodes:], self.edges[edges:], self.exits[exits:], self.frames[frames:]
        for frame in self.frames:
            frame.breaks = [j for j in frame.breaks if j < nodes]
            frame.continues = [j for j in frame.continues if j < nodes]

    # -- statements --------------------------------------------------------------

    def parse_block_body(self) -> tuple[cfgmod.ControlFlowGraph, int]:
        """The body's flowgraph and its executable statement count."""
        pending = _trampoline(self._statements([0], closing=False))
        return cfgmod.build_cfg(self.node_kinds, self.edges, pending, self.exits), self.statement_count

    def _statements(self, pending: list[int], closing: bool = True):
        """Statements up to a closing brace, which ``closing`` requires and
        consumes, or to the end of the range.  Statements degrade instead
        of failing the file: on any parse trouble, undo what the statement
        built, consume to a statement boundary and emit an opaque node."""
        while self.i < self.hi and self._val() != "}":
            before = self.i
            mark = (len(self.node_kinds), len(self.edges), len(self.exits), len(self.frames),
                    self.pending_label, self.statement_count)
            try:
                pending = yield self.parse_statement(pending)
            except SourceSyntaxError:
                self.i = max(before + 1, self.i)
                self._skip_to_semi()
                self._rollback(mark)
                pending = self._opaque(pending)
        if closing:
            self._expect("}")
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
            if self._accept("else"):
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
            self._accept(";")
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
        local_type = ("class", "interface", "enum")
        if (v in local_type or v in ("abstract", "final") and self._val(1) in local_type) and self._kind() == "ident":
            # local type declaration (a final local variable is a simple
            # statement): skip as opaque.  Without a '{' it runs to the end
            # of the body, and is still not a failure of the statement
            # around it; with one, its match is in the body, whose braces
            # balance
            while self.i < self.hi and self._val() != "{":
                self.i += 1
            if self.i < self.hi:
                self._skip_balanced("{", "}")
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

    def _skip_to_semi(self) -> None:
        """Advance past the statement-terminating ';' at depth 0.  Stop at
        a '}' that closes nothing, for the caller to see; skip a stray ')'
        or ']'."""
        while (v := self._walk_to(_SEMI)) in (")", "]"):
            self.i += 1
        if v == ";":
            self.i += 1

    def _scan_for_header(self, lo: int, hi: int) -> int:
        """Declare a for header's variables and count its decisions.  A
        header with a ';' at depth 0 is classic, ``init; cond; update``,
        even when a ternary's ':' precedes it; one without is enhanced,
        ``Type name : expr``, split at its first ':' at depth 0."""
        head = self._sub(lo, hi)
        splits: list[int] = []
        colon = None
        while (v := head._walk_to(_FOR_SEPARATORS)) in _FOR_SEPARATORS:
            if v == ";":
                splits.append(head.i)
            elif colon is None:
                colon = head.i
            head.i += 1
        if not splits and colon is not None:
            self._declare_locals(self._sub(lo, colon))
            return self.scan.scan_expr(colon + 1, hi)[0]
        head.i = lo
        self._declare_locals(head)  # the init's expressions start after its first name
        decisions = 0
        for a, b in zip([head.i] + [j + 1 for j in splits], splits + [hi]):
            decisions += self.scan.scan_expr(a, b)[0]
        return decisions

    def _parse_loop(self, pending: list[int], decisions: int):
        """A while or for loop, from after its header."""
        label = self._take_label()
        self.statement_count += 1
        mark = len(self.node_kinds)
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
        mark = len(self.node_kinds)
        body_out = yield self.parse_statement(pending)
        self.frames.pop()
        self._expect("while")
        lo, hi = self._match_paren()
        d, _ = self.scan.scan_expr(lo, hi)
        self._accept(";")
        cond_entry = len(self.node_kinds)
        head = self._node(cfgmod.LOOP_HEAD, self._decisions(body_out, d))
        self.edges.append((head, mark if mark < cond_entry else cond_entry))
        for src in frame.continues:
            self.edges.append((src, cond_entry))
        return [head] + frame.breaks

    def _parse_switch(self, pending: list[int]):
        self.i += 1  # 'switch'
        lo, hi = self._match_paren()
        d, _ = self.scan.scan_expr(lo, hi)
        self._expect("{")
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
                self._accept(":")
                labels += 1
                continue
            if v == "default":
                started = default = has_default = True
                self.i += 1
                self._accept(":")
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
        self._accept("}")
        return carried + ([] if has_default else [head]) + frame.breaks

    def _parse_try(self, pending: list[int]):
        self.i += 1  # 'try'
        if self._val() == "(":
            lo, hi = self._match_paren()
            resources = self._sub(lo, hi)
            while resources.i < hi:
                self._declare_locals(resources)
                start = resources.i
                resources._walk_to(_SEMI)
                self.scan.scan_expr(start, resources.i)
                resources.i += 1
        self._expect("{")
        self._take_label()
        self.statement_count += 1
        node = self._node(cfgmod.PLAIN, pending)
        out = yield self._statements([node])
        while self._accept("catch"):
            lo, hi = self._match_paren()
            param = self._sub(lo, hi)
            type_ref = param._local_type()
            while param._accept("|"):  # catch (A | B e): e is typed by A
                param._local_type()
            self._declare_names(param, type_ref, lo)
            self._expect("{")
            self.node_kinds[node] = cfgmod.DECISION  # a handler makes the try branch
            out = out + (yield self._statements([node]))
        if self._accept("finally"):
            self._expect("{")
            out = yield self._statements(out)
        return out

    def _parse_simple(self, pending: list[int]) -> list[int]:
        """Local declaration or expression statement, up to ';'.  A
        declaration without an initializer is a node but not a statement."""
        has_init = self._declare_locals(self)
        lo = self.i
        self._skip_to_semi()
        end = self.i - 1 if self.i > lo and self.vals[self.i - 1] == ";" else self.i
        d, c = self.scan.scan_expr(lo, end)
        if has_init is not False:
            self.statement_count += 1
        return self._simple(pending, c, d)

    def _declare_locals(self, cur: _Cursor) -> bool | None:
        """Declare the variables of a local declaration at ``cur``:
        ``[final] Type name [= init] (, name [= init])*`` in a statement, a
        for init or a try resource, or ``Type name`` before an enhanced
        for's ':'.  See :meth:`_declare_names` for the result."""
        start = cur.i
        return self._declare_names(cur, cur._local_type(), start)

    def _declare_names(self, cur: _Cursor, type_ref: str, start: int) -> bool | None:
        """Declare the names that follow ``type_ref`` at ``cur`` up to the
        ';', unmatched closer or end that ends them.  Returns whether any
        has an initializer, with ``cur`` just past the first name, where
        the initializers start; None, with ``cur`` back at ``start``, when
        no declared name follows a type."""
        v = cur._val()
        if not type_ref or cur._kind() != "ident" or v in KEYWORDS or cur._val(1) not in _AFTER_LOCAL_NAME:
            cur.i = start
            return None
        cur.i += 1
        names, after, has_init = [v], cur.i, False
        while (v := cur._walk_to(_DECLARATOR_SEPARATORS)) in ("=", ","):
            cur.i += 1
            if v == "=":
                has_init = True
            elif cur._kind() == "ident":
                names.append(cur._val())
        for name in names:
            self.scan.declare(name, type_ref)
        cur.i = after
        return has_init


def parse_source(text: str, path: str = "<source>") -> CompilationFacts:
    """Parse one file of the supported subset into compilation facts."""
    return Parser(text, path).parse()
