"""Scanner and recursive-descent parser for MiniImp.

Both transcribe the normative grammar in docs/grammar.md: each named group of
``_TOKEN_RE`` is one lexical rule and each ``parse_*`` method one syntax
rule.  Every input either yields exactly one AST or one :class:`ParseError`;
nothing panics.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
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
_TOKEN_RE = re.compile(r"""
    (?P<skip>     [ \t\r]+ | \#[^\n]* )
  | (?P<newline>  \n )
  | (?P<string>   " (?P<body> (?: [^"\\\n] | \\[%s] )* ) (?P<close> ")? )
  | (?P<hole>     __HOLE_[0-9]+__ )
  | (?P<float>    [0-9]+ (?: \.[0-9]* (?: [eE][+-]?[0-9]+ )? | [eE][+-]?[0-9]+ ) )
  | (?P<int>      [0-9]+ )
  | (?P<ident>    [A-Za-z][A-Za-z0-9_]* )
  | (?P<punct>    == | != | <= | >= | // | [-+*/%%(){}\[\],=<>] )
  | (?P<mismatch> . )
""" % re.escape("".join(_UNESCAPE)), re.VERBOSE)


class ParseError(Exception):
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


@dataclass
class Token:
    kind: str  # ident | int | float | string | punct | kw | hole | eof
    text: str
    line: int
    col: int


def tokenize(source: str) -> List[Token]:
    tokens: List[Token] = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(source):
        kind = m.lastgroup
        if kind == "skip":
            continue
        col = m.start() - line_start + 1
        if kind == "newline":
            line += 1
            line_start = m.end()
        elif kind == "string":
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
            tokens.append(Token("string", text, line, col))
        elif kind == "mismatch":
            raise ParseError("unexpected character %r" % m.group(), line, col)
        else:
            text = m.group()
            if kind == "ident" and text in KEYWORDS:
                kind = "kw"
            tokens.append(Token(kind, text, line, col))
    tokens.append(Token("eof", "", line, len(source) - line_start + 1))
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

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def error(self, expected: Tuple[str, ...], tok: Optional[Token] = None) -> ParseError:
        tok = tok or self.peek()
        shown = tok.text if tok.kind != "eof" else "end of input"
        return ParseError("unexpected %r" % shown, tok.line, tok.col, expected)

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            raise self.error((text if text is not None else kind,))
        return self.advance()

    def at(self, kind: str, text: Optional[str] = None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (text is None or tok.text == text)

    def comma_list(self, item: Callable[[], T], close: str) -> List[T]:
        """``[ item { "," item } ] close``: parameters, call arguments and
        list and set literals."""
        items = [] if self.at("punct", close) else [item()]
        while self.at("punct", ","):
            self.advance()
            items.append(item())
        self.expect("punct", close)
        return items

    # --- program ---

    def parse_program(self) -> Program:
        self.expect("kw", "fn")
        name = self.expect("ident").text
        self.expect("punct", "(")
        params: List[str] = []

        def param() -> None:
            tok = self.expect("ident")
            if tok.text in params:
                raise ParseError("duplicate parameter %r" % tok.text, tok.line, tok.col)
            params.append(tok.text)

        self.comma_list(param, ")")
        body = self.parse_block()
        tok = self.peek()
        if tok.kind != "eof":
            raise self.error(("end of input",))
        return Program(name=name, params=tuple(params), body=body)

    def parse_block(self) -> Tuple[nodes.Stmt, ...]:
        self.expect("punct", "{")
        stmts: List[nodes.Stmt] = []
        while not self.at("punct", "}"):
            stmts.append(self.parse_stmt())
        self.expect("punct", "}")
        return tuple(stmts)

    # --- statements ---

    def parse_stmt(self) -> nodes.Stmt:
        tok = self.peek()
        loc = Loc(tok.line, tok.col)
        if tok.kind == "kw":
            if tok.text == "if":
                return self.parse_if(loc)
            if tok.text == "while":
                self.advance()
                cond = self.parse_expr()
                body = self.parse_block()
                return While(cond, body, loc=loc)
            if tok.text == "for":
                return self.parse_for(loc)
            if tok.text == "break":
                self.advance()
                return Break(loc=loc)
            if tok.text == "continue":
                self.advance()
                return Continue(loc=loc)
            if tok.text == "return":
                self.advance()
                return Return(self.parse_expr(), loc=loc)
            if tok.text == "append":
                self.advance()
                self.expect("punct", "(")
                target = self.expect("ident").text
                self.expect("punct", ",")
                value = self.parse_expr()
                self.expect("punct", ")")
                return Append(target, value, loc=loc)
            raise self.error(("statement",))
        if tok.kind == "ident":
            name = self.advance().text
            if self.at("punct", "="):
                self.advance()
                return Assign(name, self.parse_expr(), loc=loc)
            if self.at("punct", "["):
                self.advance()
                index = self.parse_expr()
                self.expect("punct", "]")
                self.expect("punct", "=")
                return IndexAssign(name, index, self.parse_expr(), loc=loc)
            raise self.error(("=", "["))
        raise self.error(("statement",))

    def parse_if(self, loc: Loc) -> If:
        self.expect("kw", "if")
        cond = self.parse_expr()
        then_body = self.parse_block()
        else_body: Tuple[nodes.Stmt, ...] = ()
        if self.at("kw", "else"):
            self.advance()
            else_body = self.parse_block()
        return If(cond, then_body, else_body, loc=loc)

    def parse_for(self, loc: Loc) -> For:
        self.expect("kw", "for")
        var = self.expect("ident").text
        self.expect("kw", "in")
        self.expect("kw", "range")
        self.expect("punct", "(")
        start = self.parse_expr()
        self.expect("punct", ",")
        stop = self.parse_expr()
        step = None
        if self.at("punct", ","):
            self.advance()
            step = self.parse_expr()
        self.expect("punct", ")")
        body = self.parse_block()
        return For(var, start, stop, step, body, loc=loc)

    # --- expressions (precedence climbing) ---

    def parse_expr(self) -> nodes.Expr:
        return self.parse_binary(1)

    def parse_binary(self, min_prec: int) -> nodes.Expr:
        left = self.parse_not() if min_prec <= NOT_PREC else self.parse_unary()
        return self._continue_binary(left, min_prec)

    def parse_not(self) -> nodes.Expr:
        if self.at("kw", "not"):
            self.advance()
            return UnaryOp("not", self.parse_not())
        return self.parse_binary(NOT_PREC + 1)

    def _continue_binary(self, left: nodes.Expr, min_prec: int) -> nodes.Expr:
        while True:
            tok = self.peek()
            op = tok.text if tok.kind in ("punct", "kw") else None
            if op not in BIN_PREC or BIN_PREC[op] < min_prec:
                return left
            prec = BIN_PREC[op]
            self.advance()
            left = BinOp(op, left, self.parse_binary(prec + 1))
            # comparisons are non-chaining
            nxt = self.peek()
            if op in CMP_OPS and nxt.kind == "punct" and nxt.text in CMP_OPS:
                raise ParseError(
                    "comparisons cannot be chained; use parentheses",
                    nxt.line, nxt.col,
                )

    def parse_unary(self) -> nodes.Expr:
        if self.at("punct", "-"):
            self.advance()
            # INT_MAX + 1 is read only as the direct, unindexed operand of
            # unary minus, so that INT_MIN can be written; an INT token is
            # always followed by another token, at least eof
            tok = self.peek()
            if tok.kind == "int" and int(tok.text) == INT_MAX + 1:
                after = self.tokens[self.pos + 1]
                if not (after.kind == "punct" and after.text == "["):
                    self.advance()
                    return UnaryOp("-", Literal(INT_MAX + 1))
            return UnaryOp("-", self.parse_unary())
        return self.parse_postfix()

    def parse_postfix(self) -> nodes.Expr:
        expr = self.parse_primary()
        while self.at("punct", "["):
            self.advance()
            index = self.parse_expr()
            self.expect("punct", "]")
            expr = Index(expr, index)
        return expr

    def parse_primary(self) -> nodes.Expr:
        tok = self.advance()
        kind, text = tok.kind, tok.text
        if kind == "int":
            value = int(text)
            if value > INT_MAX:
                raise ParseError("integer literal %s is outside the int64 range" % text, tok.line, tok.col)
            return Literal(value)
        if kind == "float":
            return Literal(float(text))
        if kind == "string":
            return Literal(text)
        if kind == "kw" and text in LITERALS:
            return Literal(LITERALS[text])
        if kind == "kw" and text in nodes.BUILTINS:
            self.expect("punct", "(")
            return Call(text, tuple(self.comma_list(self.parse_expr, ")")))
        if kind == "ident":
            if self.at("punct", "("):
                raise ParseError(
                    "unknown function %r (builtins: %s)" % (text, ", ".join(nodes.BUILTINS)),
                    tok.line, tok.col,
                )
            return Var(text)
        if kind == "punct" and text == "(":
            expr = self.parse_expr()
            self.expect("punct", ")")
            return expr
        if kind == "punct" and text == "[":
            return ListLit(tuple(self.comma_list(self.parse_expr, "]")))
        if kind == "punct" and text == "{":
            if self.at("punct", "}"):  # a set literal is never empty
                raise self.error(("expression",))
            return SetLit(tuple(self.comma_list(self.parse_expr, "}")))
        if kind == "hole":
            raise ParseError("hole placeholder %r in program source" % text, tok.line, tok.col)
        raise self.error(("expression",), tok)


def parse_program(source: str) -> Program:
    """Parse MiniImp source into a :class:`Program`; raises :class:`ParseError`."""
    return _Parser(tokenize(source)).parse_program()


def parse_expression(source: str) -> nodes.Expr:
    """Parse a standalone expression.  Nothing in the package calls it; the
    tests use it to check the formatter round trip."""
    parser = _Parser(tokenize(source))
    expr = parser.parse_expr()
    if parser.peek().kind != "eof":
        raise parser.error(("end of input",))
    return expr
