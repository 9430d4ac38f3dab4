"""Scanner and precedence-climbing parser for MiniImp.

Both transcribe the normative grammar in docs/grammar.md.  Each named group
of ``_TOKEN_RE`` is one lexical rule, and each ``parse_*`` method one syntax
rule, except that the levels from ``or-expr`` down to ``term`` are the table
``BIN_PREC`` with ``NOT_PREC``, which the one loop in ``parse_expr`` climbs,
and ``parse_unary`` reads both ``unary`` and ``postfix``.  Every input either
yields exactly one AST or one :class:`ParseError`; nothing panics.
"""

from __future__ import annotations

import re
from operator import itemgetter
from typing import Callable, List, Optional, Tuple, TypeVar

from ..values import INT_MAX
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
# some alternative always matches, so no blank is ever scanned twice.
_TOKEN_RE = re.compile(r"""
    [ \t\r]*
    (?:
      (?P<comment>  \#[^\n]* )
    | (?P<newline>  \n )
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


def tokenize(source: str) -> List[Token]:
    tokens: List[Token] = []
    append, new = tokens.append, tuple.__new__
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(source):
        kind = m.lastgroup
        # a token ends where its match does; its match may begin with blanks
        if kind == "ident":
            text = m[kind]
            col = m.end() - len(text) - line_start + 1
            append(new(Token, ("kw" if text in KEYWORDS else "ident", text, line, col)))
        elif kind == "punct" or kind == "int" or kind == "float" or kind == "hole":
            text = m[kind]
            append(new(Token, (kind, text, line, m.end() - len(text) - line_start + 1)))
        elif kind == "newline":
            line += 1
            line_start = m.end()
        elif kind == "string":
            col = m.start(kind) - line_start + 1
            if m.group("close") is None:
                # the string rule stopped at a line end, the end of input or
                # a backslash that starts no escape
                end = m.end()
                if source.startswith("\\", end):
                    if end + 1 == len(source):
                        raise ParseError("unterminated string escape", line, end - line_start + 1)
                    raise ParseError("unknown string escape \\%s" % source[end + 1], line, end - line_start + 1)
                raise ParseError("unterminated string literal", line, col)
            text = _ESCAPE_RE.sub(lambda e: _UNESCAPE[e.group(1)], m.group("body"))
            append(new(Token, ("string", text, line, col)))
        elif kind == "mismatch":
            raise ParseError("unexpected character %r" % m.group(kind), line, m.start(kind) - line_start + 1)
        elif kind == "end":
            break
    append(new(Token, ("eof", "", line, len(source) - line_start + 1)))
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


class _Parser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0

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
        self.expect("punct", "{")
        stmts: List[nodes.Stmt] = []
        while not self.at("punct", "}"):
            stmts.append(self.parse_stmt())
        self.pos += 1
        return tuple(stmts)

    # --- statements ---

    def parse_stmt(self) -> nodes.Stmt:
        tok = self.tokens[self.pos]
        kind, text, line, col = tok
        loc = Loc(line, col)
        self.pos += 1  # past the leading ident or keyword
        if kind == "ident":
            if self.at("punct", "="):
                self.pos += 1
                return Assign(text, self.parse_expr(), loc=loc)
            if self.at("punct", "["):
                self.pos += 1
                index = self.parse_expr()
                self.expect("punct", "]")
                self.expect("punct", "=")
                return IndexAssign(text, index, self.parse_expr(), loc=loc)
            raise self.error(("=", "["))
        if kind == "kw":
            if text == "return":
                return Return(self.parse_expr(), loc=loc)
            if text == "if":
                cond = self.parse_expr()
                then_body = self.parse_block()
                else_body: Tuple[nodes.Stmt, ...] = ()
                if self.at("kw", "else"):
                    self.pos += 1
                    else_body = self.parse_block()
                return If(cond, then_body, else_body, loc=loc)
            if text == "while":
                return While(self.parse_expr(), self.parse_block(), loc=loc)
            if text == "for":
                var = self.expect("ident")[1]
                self.expect("kw", "in")
                self.expect("kw", "range")
                self.expect("punct", "(")
                start = self.parse_expr()
                self.expect("punct", ",")
                stop = self.parse_expr()
                step = None
                if self.at("punct", ","):
                    self.pos += 1
                    step = self.parse_expr()
                self.expect("punct", ")")
                return For(var, start, stop, step, self.parse_block(), loc=loc)
            if text == "break":
                return Break(loc=loc)
            if text == "continue":
                return Continue(loc=loc)
            if text == "append":
                self.expect("punct", "(")
                target = self.expect("ident")[1]
                self.expect("punct", ",")
                value = self.parse_expr()
                self.expect("punct", ")")
                return Append(target, value, loc=loc)
        raise self.error(("statement",), tok)

    # --- expressions (precedence climbing) ---

    def parse_expr(self, min_prec: int = 1) -> nodes.Expr:
        """An expression whose binary operators have at least ``min_prec``;
        a prefix ``not`` is read only where ``min_prec`` <= ``NOT_PREC``."""
        tokens = self.tokens
        tok = tokens[self.pos]
        if tok[1] == "not" and tok[0] == "kw" and min_prec <= NOT_PREC:
            self.pos += 1
            left = UnaryOp("not", self.parse_expr(NOT_PREC))
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
            tok = tokens[self.pos]
            if tok[0] == "int" and int(tok[1]) == INT_MAX + 1:
                after = tokens[self.pos + 1]
                if not (after[1] == "[" and after[0] == "punct"):
                    self.pos += 1
                    return UnaryOp("-", Literal(INT_MAX + 1))
            return UnaryOp("-", self.parse_unary())
        expr = self.parse_primary()
        tok = tokens[self.pos]
        while tok[1] == "[" and tok[0] == "punct":
            self.pos += 1
            index = self.parse_expr()
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
                expr = self.parse_expr()
                self.expect("punct", ")")
                return expr
            if text == "[":
                return ListLit(tuple(self.comma_list(self.parse_expr, "]")))
            if text == "{":
                if self.at("punct", "}"):  # a set literal is never empty
                    raise self.error(("expression",))
                return SetLit(tuple(self.comma_list(self.parse_expr, "}")))
        elif kind == "kw":
            if text in LITERALS:
                return Literal(LITERALS[text])
            if text in nodes.BUILTINS:
                self.expect("punct", "(")
                return Call(text, tuple(self.comma_list(self.parse_expr, ")")))
        elif kind == "float":
            return Literal(float(text))
        elif kind == "string":
            return Literal(text)
        elif kind == "hole":
            raise ParseError("hole placeholder %r in program source" % text, tok[2], tok[3])
        raise self.error(("expression",), tok)


def parse_program(source: str) -> Program:
    """Parse MiniImp source into a :class:`Program`; raises :class:`ParseError`."""
    return _Parser(tokenize(source)).parse_program()

