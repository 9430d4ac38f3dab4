"""Lexer and recursive-descent parser for MiniImp.

The grammar is documented in docs/grammar.md (normative EBNF).  Every input
either yields exactly one AST or one :class:`ParseError`; nothing panics.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional, Tuple

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

KEYWORDS = {
    "fn", "if", "else", "while", "for", "in", "range", "break", "continue",
    "return", "append", "true", "false", "null", "inf", "and", "or", "not",
}

_PUNCT = [
    "==", "!=", "<=", ">=", "//",
    "(", ")", "{", "}", "[", "]", ",", "=", "<", ">", "+", "-", "*", "/", "%",
]

HOLE_RE = re.compile(r"__HOLE_(\d+)__")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_NUM_RE = re.compile(r"\d+(\.\d+)?([eE][+-]?\d+)?")


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
    line, col = 1, 1
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":  # comment to end of line
            while i < n and source[i] != "\n":
                i += 1
            continue
        if ch == '"':
            start_line, start_col = line, col
            i += 1
            col += 1
            buf = []
            while True:
                if i >= n or source[i] == "\n":
                    raise ParseError("unterminated string literal", start_line, start_col)
                c = source[i]
                if c == '"':
                    i += 1
                    col += 1
                    break
                if c == "\\":
                    if i + 1 >= n:
                        raise ParseError("unterminated string escape", line, col)
                    esc = source[i + 1]
                    mapping = {"\\": "\\", '"': '"', "n": "\n", "t": "\t"}
                    if esc not in mapping:
                        raise ParseError("unknown string escape \\%s" % esc, line, col)
                    buf.append(mapping[esc])
                    i += 2
                    col += 2
                else:
                    buf.append(c)
                    i += 1
                    col += 1
            tokens.append(Token("string", "".join(buf), start_line, start_col))
            continue
        m = HOLE_RE.match(source, i)
        if m:
            tokens.append(Token("hole", m.group(0), line, col))
            col += len(m.group(0))
            i = m.end()
            continue
        m = _NUM_RE.match(source, i)
        if m and ch.isdigit():
            text = m.group(0)
            kind = "float" if (m.group(1) or m.group(2)) else "int"
            tokens.append(Token(kind, text, line, col))
            col += len(text)
            i = m.end()
            continue
        m = _IDENT_RE.match(source, i)
        if m:
            text = m.group(0)
            kind = "kw" if text in KEYWORDS else "ident"
            tokens.append(Token(kind, text, line, col))
            col += len(text)
            i = m.end()
            continue
        for p in _PUNCT:
            if source.startswith(p, i):
                tokens.append(Token("punct", p, line, col))
                col += len(p)
                i += len(p)
                break
        else:
            raise ParseError("unexpected character %r" % ch, line, col)
    tokens.append(Token("eof", "", line, col))
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


class _Parser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def error(self, expected: Tuple[str, ...]) -> ParseError:
        tok = self.peek()
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

    # --- program ---

    def parse_program(self) -> Program:
        self.expect("kw", "fn")
        name = self.expect("ident").text
        self.expect("punct", "(")
        params: List[str] = []
        if not self.at("punct", ")"):
            while True:
                tok = self.expect("ident")
                if tok.text in params:
                    raise ParseError("duplicate parameter %r" % tok.text, tok.line, tok.col)
                params.append(tok.text)
                if self.at("punct", ","):
                    self.advance()
                else:
                    break
        self.expect("punct", ")")
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
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            return Literal(int(tok.text))
        if tok.kind == "float":
            self.advance()
            return Literal(float(tok.text))
        if tok.kind == "string":
            self.advance()
            return Literal(tok.text)
        if tok.kind == "kw":
            if tok.text == "true":
                self.advance()
                return Literal(True)
            if tok.text == "false":
                self.advance()
                return Literal(False)
            if tok.text == "null":
                self.advance()
                return Literal(None)
            if tok.text == "inf":
                self.advance()
                return Literal(float("inf"))
            raise self.error(("expression",))
        if tok.kind == "ident":
            name = self.advance().text
            if self.at("punct", "("):
                if name not in nodes.BUILTINS:
                    raise ParseError(
                        "unknown function %r (builtins: %s)" % (name, ", ".join(nodes.BUILTINS)),
                        tok.line, tok.col,
                    )
                self.advance()
                args: List[nodes.Expr] = []
                if not self.at("punct", ")"):
                    while True:
                        args.append(self.parse_expr())
                        if self.at("punct", ","):
                            self.advance()
                        else:
                            break
                self.expect("punct", ")")
                return Call(name, tuple(args))
            return Var(name)
        if tok.kind == "punct":
            if tok.text == "(":
                self.advance()
                expr = self.parse_expr()
                self.expect("punct", ")")
                return expr
            if tok.text == "[":
                self.advance()
                items: List[nodes.Expr] = []
                if not self.at("punct", "]"):
                    while True:
                        items.append(self.parse_expr())
                        if self.at("punct", ","):
                            self.advance()
                        else:
                            break
                self.expect("punct", "]")
                return ListLit(tuple(items))
            if tok.text == "{":
                self.advance()
                items = []
                if not self.at("punct", "}"):
                    while True:
                        items.append(self.parse_expr())
                        if self.at("punct", ","):
                            self.advance()
                        else:
                            break
                self.expect("punct", "}")
                return SetLit(tuple(items))
        if tok.kind == "hole":
            raise ParseError("hole placeholder %r in program source" % tok.text, tok.line, tok.col)
        raise self.error(("expression",))


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
