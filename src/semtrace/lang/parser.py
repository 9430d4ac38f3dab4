"""Scanner and precedence-climbing parser for MiniImp.

Both transcribe the normative grammar in docs/grammar.md.  Each named group
of ``_TOKEN_RE`` is one lexical rule, and each ``parse_*`` method one syntax
rule, except that the levels from ``or-expr`` down to ``term`` are the table
``BIN_PREC`` with ``NOT_PREC``, which the one loop in ``parse_expr`` climbs,
and ``parse_unary`` reads both ``unary`` and ``postfix``.  Every input either
yields exactly one AST or one :class:`ParseError`; nothing panics.

Programs repeat their lines, so four bounded memos (each a
:class:`semtrace.values.Memo` of ``LINE_MEMO_CAPACITY`` keys, which keeps
every key while it has room and, once full, the keys looked up most)
spare ``parse_program`` most of its work, and make a statement that recurs
across parses one node, which keeps its compiled code (:mod:`semtrace.tracer`):

- No token spans a line break, so ``tokenize`` scans each line on its own
  and keeps the line's finished tokens by line number and line text.  The
  tokens, their positions and every error are those of a scan of the whole
  source.
- A statement that begins a line, other than ``if``, ``while`` and ``for``,
  is kept by line number, line text and the kind and text of the token after
  the line, and only when it covers exactly the line's tokens.  Parsed from
  a line's first token, such a statement has read only the line's tokens
  and the one token after them: the loop of ``parse_expr``, the postfix
  ``[`` and comparison-chain checks and the ``INT_MAX + 1`` peek each look
  at most one token past the last one they take.  Its ``loc`` follows from
  the line number and text, and expressions carry none, so a kept statement
  is the one a fresh parse would build.
- An ``if``, ``while`` or ``for`` header whose keyword begins a line (the
  condition after ``if`` or ``while``, the head after ``for``) is kept by
  line number and line text, and only when it stops at the line's last
  token, which ``parse_block`` then takes as its ``{``.  By the same count
  of look-ahead such a header has read no token past its ``{``, so a kept
  header is the one a fresh parse would build; the ``{`` and the bound on
  nested blocks are checked outside the memo, by ``parse_block``.
- An ``if``, ``while`` or ``for`` whose header is kept is kept too, once
  it has parsed, by its kind, ``loc``, a ``for``'s variable and the
  identities of its parts, each block's apart.  The kept node holds those
  parts, so no identity in its key is reused while it is kept: a compound
  whose parts are each one node is one node, at every depth, and every
  error, the nesting bound's included, is a fresh parse's.

The statement, header and compound memos are turned on by the source lines
that ``parse_program`` hands the parser; a ``_Parser`` built from tokens
alone parses without them.  A line whose scan raises and a statement or
header whose parse raises are never kept.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from operator import itemgetter
from typing import Callable, List, Optional, Tuple, TypeVar

from ..values import INT_MAX, LONE_SURROGATE, Memo
from . import nodes
from .nodes import (
    Append,
    Assign,
    BinOp,
    Break,
    Call,
    Continue,
    For,
    If,
    Index,
    IndexAssign,
    ListLit,
    Literal,
    Loc,
    Program,
    Return,
    SetLit,
    UnaryOp,
    Var,
    While,
)

LITERALS = {"true": True, "false": False, "null": None, "inf": float("inf")}
KEYWORDS = {
    "fn", "if", "else", "while", "for", "in", "range", "break", "continue",
    "return", "append", "and", "or", "not", *LITERALS, *nodes.BUILTINS,
}

# character -> its escape inside a STRING; the formatter escapes with this
# table and the scanner reads it backwards
ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t"}
_UNESCAPE = {esc[1]: ch for ch, esc in ESCAPES.items()}
_ESCAPE_RE = re.compile(r"\\(.)")

HOLE_RE = re.compile(r"__HOLE_([0-9]+)__")
# A match is one token and the blanks before it; after the longest blank run
# some alternative always matches, so no blank is ever scanned twice.  It
# scans one line, so ``end`` matches at the line's end.
_TOKEN_RE = re.compile(r"""
    [ \t\r]*
    (?:
      (?P<comment>  \#[^\n]* )
    | (?P<string>   " (?P<body> (?: [^"\\\n] | \\[%s] )* ) (?P<close> ")? )
    | (?P<hole>     __HOLE_[0-9]+__ )
    | (?P<float>    [0-9]+ (?: \.[0-9]* (?: [eE][+-]?[0-9]+ )? | [eE][+-]?[0-9]+ ) )
    | (?P<int>      [0-9]+ )
    | (?P<ident>    [A-Za-z][A-Za-z0-9_]* )
    | (?P<punct>    == | != | <= | >= | // | [-+*/%%(){}\[\],=<>] )
    | (?P<mismatch> . )
    | (?P<end>      \Z )
    )
""" % re.escape("".join(_UNESCAPE)), re.VERBOSE)
# keys kept by each memo; the largest benchmark workload (perfbench's
# tools) looks up 2,246 distinct (line number, line text) keys, 1,639
# statement keys and 440 header keys, each more than once, so each memo
# keeps all of them from their first lookup; a 10-step train-loops run keeps
# 825 compound statements
LINE_MEMO_CAPACITY = 4096
_LINES = Memo(LINE_MEMO_CAPACITY)  # (line number, line text) -> its tokens
# (line number, line text, kind and text of the next token) -> the statement
# that covers exactly the line
_STMTS = Memo(LINE_MEMO_CAPACITY)
# (line number, line text) -> the header, up to its ``{``, that begins the line
_HEADERS = Memo(LINE_MEMO_CAPACITY)
# (kind, loc, a for's variable, identities of the parts) -> the if, while or
# for statement; each kept one holds its subtree and compiled code alive
_COMPOUNDS = Memo(LINE_MEMO_CAPACITY)
# the grammar's bounds on nesting, which keep every tool within Python's limits
MAX_BLOCKS = 6  # if, else, while and for bodies around a statement
MAX_NESTING = 16  # levels within one expression
MAX_EXPR_TOKENS = 256  # tokens of one expression that a statement holds


class ParseError(ValueError):
    """Lexical or syntax error with position and expected-token info."""

    def __init__(self, message: str, line: int, col: int, expected: Tuple[str, ...] = ()):
        self.message = message
        self.line = line
        self.col = col
        self.expected = tuple(expected)
        suffix = ""
        if expected:
            suffix = " (expected %s)" % ", ".join(expected)
        super().__init__("%s at line %d, col %d%s" % (message, line, col, suffix))


class Token(tuple):
    """``(kind, text, line, col)``, kind one of ident, int, float, string,
    punct, kw, hole or eof; the parser reads the fields by index."""

    __slots__ = ()
    kind = property(itemgetter(0))
    text = property(itemgetter(1))
    line = property(itemgetter(2))
    col = property(itemgetter(3))


def _scan(source: str, start: int, stop: int, line: int) -> Tuple[Token, ...]:
    """The tokens of line ``line``, which is ``source[start:stop]`` without
    its line break."""
    bad = LONE_SURROGATE(source, start, stop)
    if bad:  # in a string or a comment too: no UTF-8 output can hold it
        raise ParseError("lone surrogate %r is not a character" % bad[0], line, bad.start() - start + 1)
    tokens: List[Token] = []
    append, new = tokens.append, tuple.__new__
    for m in _TOKEN_RE.finditer(source, start, stop):
        kind = m.lastgroup
        # a token ends where its match does; its match may begin with blanks
        if kind == "ident":
            text = m[kind]
            append(new(Token, ("kw" if text in KEYWORDS else "ident", text, line, m.end() - len(text) - start + 1)))
        elif kind == "punct" or kind == "int" or kind == "float" or kind == "hole":
            text = m[kind]
            append(new(Token, (kind, text, line, m.end() - len(text) - start + 1)))
        elif kind == "string":
            col = m.start(kind) - start + 1
            if m.group("close") is None:
                # the string rule stopped at a line end, the end of input or
                # a backslash that starts no escape
                end = m.end()
                if source.startswith("\\", end):
                    if end + 1 == len(source):
                        raise ParseError("unterminated string escape", line, end - start + 1)
                    raise ParseError("unknown string escape \\%s" % source[end + 1], line, end - start + 1)
                raise ParseError("unterminated string literal", line, col)
            text = _ESCAPE_RE.sub(lambda e: _UNESCAPE[e.group(1)], m.group("body"))
            append(new(Token, ("string", text, line, col)))
        elif kind == "mismatch":
            raise ParseError("unexpected character %r" % m.group(kind), line, m.start(kind) - start + 1)
        elif kind == "end":
            break
    return tuple(tokens)


def tokenize(source: str) -> List[Token]:
    if not isinstance(source, str):
        raise TypeError("source must be a str, not %s" % type(source).__name__)  # not str.split's AttributeError
    tokens: List[Token] = []
    extend, memo = tokens.extend, _LINES.get
    start = 0
    for line, text in enumerate(source.split("\n"), 1):
        stop = start + len(text)
        extend(memo((line, text), lambda: _scan(source, start, stop, line)))
        start = stop + 1
    tokens.append(Token(("eof", "", line, len(text) + 1)))
    return tokens


# precedence table for binary operators (higher binds tighter); the
# formatter parenthesizes by the same table
BIN_PREC = {
    "or": 1,
    "and": 2,
    "==": 4, "!=": 4, "<": 4, "<=": 4, ">": 4, ">=": 4,
    "+": 5, "-": 5,
    "*": 6, "/": 6, "//": 6, "%": 6,
}
CMP_OPS = {"==", "!=", "<", "<=", ">", ">="}
NOT_PREC = 3  # prefix 'not' sits between 'and' and the comparisons

T = TypeVar("T")


class _NotOneLine(Exception):
    """Carries a statement or header that does not stop where its memo needs
    it to out of the memo, which keeps nothing when its compute raises."""

    def __init__(self, value):
        super().__init__()
        self.value = value


class _Parser:
    def __init__(self, tokens: List[Token], lines: Optional[List[str]] = None):
        """``lines``, the source's lines, turn the statement and header memos on."""
        self.tokens = tokens
        self.pos = 0
        self.lines = lines
        self.blocks, self.depth = -1, 0  # blocks around a statement but the function body; levels open
        if lines is not None:
            # the line of each token but eof, for bisecting out a line's tokens
            self.token_lines = list(map(itemgetter(2), tokens[:-1]))

    def error(self, expected: Tuple[str, ...], tok: Optional[Token] = None) -> ParseError:
        kind, text, line, col = tok or self.tokens[self.pos]
        shown = text if kind != "eof" else "end of input"
        return ParseError("unexpected %r" % shown, line, col, expected)

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        tok = self.tokens[self.pos]
        if tok[0] != kind or (text is not None and tok[1] != text):
            raise self.error((text if text is not None else kind,))
        self.pos += 1  # never eof: no rule expects it
        return tok

    def at(self, kind: str, text: str) -> bool:
        tok = self.tokens[self.pos]
        return tok[1] == text and tok[0] == kind

    def nested(self, tok: Token, parse: Callable[..., T], *args) -> T:
        """``parse(*args)`` one level of nesting deeper, the level that ``tok`` opens."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError("expression nested more than %d levels deep" % MAX_NESTING, tok[2], tok[3])
        result = parse(*args)
        self.depth -= 1
        return result

    def comma_list(self, item: Callable[[], T], close: str) -> List[T]:
        """``[ item { "," item } ] close``: parameters, call arguments and
        list and set literals."""
        items = [] if self.at("punct", close) else [item()]
        while self.at("punct", ","):
            self.pos += 1
            items.append(item())
        self.expect("punct", close)
        return items

    # --- program ---

    def parse_program(self) -> Program:
        self.expect("kw", "fn")
        name = self.expect("ident")[1]
        self.expect("punct", "(")
        params: List[str] = []

        def param() -> None:
            _, text, line, col = self.expect("ident")
            if text in params:
                raise ParseError("duplicate parameter %r" % text, line, col)
            params.append(text)

        self.comma_list(param, ")")
        body = self.parse_block()
        if self.tokens[self.pos][0] != "eof":
            raise self.error(("end of input",))
        return Program(name=name, params=tuple(params), body=body)

    def parse_block(self) -> Tuple[nodes.Stmt, ...]:
        _, _, line, col = self.expect("punct", "{")
        self.blocks += 1
        if self.blocks > MAX_BLOCKS:
            raise ParseError("block nested more than %d blocks deep" % MAX_BLOCKS, line, col)
        stmts: List[nodes.Stmt] = []
        while not self.at("punct", "}"):
            stmts.append(self.memoized_stmt())
        self.pos += 1
        self.blocks -= 1
        return tuple(stmts)

    # --- statements ---

    def line_end(self, start: int) -> int:
        """The position of the first token past the line of token ``start``,
        or -1 when the memos are off or the token does not begin its line."""
        line = self.tokens[start][2]
        if self.lines is None or (start and self.token_lines[start - 1] == line):
            return -1
        return bisect_left(self.token_lines, line + 1, start)

    def kept(self, memo: Memo, key: tuple, stop: int, parse: Callable[[], T]) -> T:
        """``parse()``, kept in ``memo`` under ``key`` when it stops at token ``stop``."""

        def parse_to_stop() -> T:
            value = parse()
            if self.pos != stop:
                raise _NotOneLine(value)
            return value

        try:
            value = memo.get(key, parse_to_stop)
        except _NotOneLine as e:
            return e.value
        self.pos = stop
        return value

    def memoized_stmt(self) -> nodes.Stmt:
        """``parse_stmt``, through the statement memo when it is on and the
        statement begins a line and is not an ``if``, ``while`` or ``for``."""
        _, text, line, _ = self.tokens[self.pos]
        if text in ("if", "while", "for") or (end := self.line_end(self.pos)) < 0:
            return self.parse_stmt()
        after = self.tokens[end]
        return self.kept(_STMTS, (line, self.lines[line - 1], after[0], after[1]), end, self.parse_stmt)

    def header(self, parse: Callable[[], T]) -> Tuple[T, bool]:
        """``parse()``, the rest of an ``if``, ``while`` or ``for`` header up
        to its ``{``, through the header memo when it is on and the header's
        keyword, the last token taken, begins a line; and whether it is kept."""
        start = self.pos - 1
        end = self.line_end(start)
        if end < 0:
            return parse(), False
        line = self.tokens[start][2]
        return self.kept(_HEADERS, (line, self.lines[line - 1]), end - 1, parse), self.pos == end - 1

    @staticmethod
    def compound(key, cls: type, *fields, loc: Loc):
        """``cls(*fields, loc=loc)``, an ``if``, ``while`` or ``for``; through
        the compound memo under ``key`` unless ``key`` is False, as it is when
        the statement's header is not kept."""
        if key is False:
            return cls(*fields, loc=loc)
        return _COMPOUNDS.get(key, lambda: cls(*fields, loc=loc))

    def parse_stmt(self) -> nodes.Stmt:
        tok = self.tokens[self.pos]
        kind, text, line, col = tok
        loc = Loc(line, col)
        self.pos += 1  # past the leading ident or keyword
        if kind == "ident":
            if self.at("punct", "="):
                self.pos += 1
                return Assign(text, self.expression(), loc=loc)
            if self.at("punct", "["):
                self.pos += 1
                index = self.expression()
                self.expect("punct", "]")
                self.expect("punct", "=")
                return IndexAssign(text, index, self.expression(), loc=loc)
            raise self.error(("=", "["))
        if kind == "kw":
            if text == "return":
                return Return(self.expression(), loc=loc)
            if text == "if":
                cond, kept = self.header(self.expression)
                then_body = self.parse_block()
                else_body: Tuple[nodes.Stmt, ...] = ()
                if self.at("kw", "else"):
                    self.pos += 1
                    else_body = self.parse_block()
                key = kept and (If, line, col, id(cond), tuple(map(id, then_body)), tuple(map(id, else_body)))
                return self.compound(key, If, cond, then_body, else_body, loc=loc)
            if text == "while":
                cond, kept = self.header(self.expression)
                body = self.parse_block()
                return self.compound(kept and (While, line, col, id(cond), tuple(map(id, body))), While, cond, body,
                                     loc=loc)
            if text == "for":
                (var, start, stop, step), kept = self.header(self.for_head)
                body = self.parse_block()
                key = kept and (For, line, col, var, id(start), id(stop), id(step), tuple(map(id, body)))
                return self.compound(key, For, var, start, stop, step, body, loc=loc)
            if text == "break":
                return Break(loc=loc)
            if text == "continue":
                return Continue(loc=loc)
            if text == "append":
                self.expect("punct", "(")
                target = self.expect("ident")[1]
                self.expect("punct", ",")
                value = self.expression()
                self.expect("punct", ")")
                return Append(target, value, loc=loc)
        raise self.error(("statement",), tok)

    def for_head(self) -> Tuple[str, nodes.Expr, nodes.Expr, Optional[nodes.Expr]]:
        """A ``for`` loop's variable, start, stop and step, after its ``for``."""
        var = self.expect("ident")[1]
        self.expect("kw", "in")
        self.expect("kw", "range")
        self.expect("punct", "(")
        start = self.expression()
        self.expect("punct", ",")
        stop = self.expression()
        step = None
        if self.at("punct", ","):
            self.pos += 1
            step = self.expression()
        self.expect("punct", ")")
        return var, start, stop, step

    # --- expressions (precedence climbing) ---

    def expression(self) -> nodes.Expr:
        """An expression that a statement holds, of at most ``MAX_EXPR_TOKENS`` tokens."""
        start = self.pos
        expr = self.parse_expr()
        if self.pos - start > MAX_EXPR_TOKENS:
            _, _, line, col = self.tokens[start + MAX_EXPR_TOKENS]
            raise ParseError("expression longer than %d tokens" % MAX_EXPR_TOKENS, line, col)
        return expr

    def parse_expr(self, min_prec: int = 1) -> nodes.Expr:
        """An expression whose binary operators have at least ``min_prec``;
        a prefix ``not`` is read only where ``min_prec`` <= ``NOT_PREC``."""
        tokens = self.tokens
        tok = tokens[self.pos]
        if tok[1] == "not" and tok[0] == "kw" and min_prec <= NOT_PREC:
            self.pos += 1
            left = UnaryOp("not", self.nested(tok, self.parse_expr, NOT_PREC))
        else:
            left = self.parse_unary()
        while True:
            tok = tokens[self.pos]
            op = tok[1]
            # an operator's text is never that of an int, float, ident, hole
            # or eof token, so only a string needs ruling out
            prec = BIN_PREC.get(op, 0)
            if prec < min_prec or tok[0] == "string":
                return left
            self.pos += 1
            left = BinOp(op, left, self.parse_expr(prec + 1))
            if op in CMP_OPS:
                # comparisons are non-chaining
                kind, text, line, col = tokens[self.pos]
                if text in CMP_OPS and kind == "punct":
                    raise ParseError("comparisons cannot be chained; use parentheses", line, col)

    def parse_unary(self) -> nodes.Expr:
        """``unary`` and ``postfix``: minus, then a primary and its indexes."""
        tokens = self.tokens
        tok = tokens[self.pos]
        if tok[1] == "-" and tok[0] == "punct":
            self.pos += 1
            # INT_MAX + 1 is read only as the direct, unindexed operand of
            # unary minus, so that INT_MIN can be written; an INT token is
            # always followed by another token, at least eof
            operand = tokens[self.pos]
            if operand[0] == "int" and int(operand[1]) == INT_MAX + 1 and tokens[self.pos + 1][:2] != ("punct", "["):
                self.pos += 1
                return UnaryOp("-", self.nested(tok, Literal, INT_MAX + 1))
            return UnaryOp("-", self.nested(tok, self.parse_unary))
        expr = self.parse_primary()
        tok = tokens[self.pos]
        while tok[1] == "[" and tok[0] == "punct":
            self.pos += 1
            index = self.nested(tok, self.parse_expr)
            self.expect("punct", "]")
            expr = Index(expr, index)
            tok = tokens[self.pos]
        return expr

    def parse_primary(self) -> nodes.Expr:
        tok = self.tokens[self.pos]
        kind, text = tok[0], tok[1]
        self.pos += 1  # an eof token ends in the error below
        if kind == "ident":
            if self.at("punct", "("):
                raise ParseError(
                    "unknown function %r (builtins: %s)" % (text, ", ".join(nodes.BUILTINS)),
                    tok[2], tok[3],
                )
            return Var(text)
        if kind == "int":
            value = int(text)
            if value > INT_MAX:
                raise ParseError("integer literal %s is outside the int64 range" % text, tok[2], tok[3])
            return Literal(value)
        if kind == "punct":
            if text == "(":
                expr = self.nested(tok, self.parse_expr)
                self.expect("punct", ")")
                return expr
            if text == "[":
                return ListLit(tuple(self.nested(tok, self.comma_list, self.parse_expr, "]")))
            if text == "{":
                if self.at("punct", "}"):  # a set literal is never empty
                    raise self.error(("expression",))
                return SetLit(tuple(self.nested(tok, self.comma_list, self.parse_expr, "}")))
        elif kind == "kw":
            if text in LITERALS:
                return Literal(LITERALS[text])
            if text in nodes.BUILTINS:
                self.expect("punct", "(")
                return Call(text, tuple(self.nested(tok, self.comma_list, self.parse_expr, ")")))
        elif kind == "float":
            return Literal(float(text))
        elif kind == "string":
            return Literal(text)
        elif kind == "hole":
            raise ParseError("hole placeholder %r in program source" % text, tok[2], tok[3])
        raise self.error(("expression",), tok)


def parse_program(source: str) -> Program:
    """Parse MiniImp source into a :class:`Program`; raises :class:`ParseError`."""
    return _Parser(tokenize(source), source.split("\n")).parse_program()

