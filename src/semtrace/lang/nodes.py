"""AST node types for MiniImp.

Programs are immutable; structural equality ignores source locations, so a
program and its formatted-then-reparsed twin compare equal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple, Union


@dataclass(frozen=True)
class Loc:
    line: int
    col: int


# --- expressions ---


@dataclass(frozen=True)
class Literal:
    """Atomic literal: int, float (incl. inf), bool, str, or None."""

    value: object

    def __eq__(self, other):
        # dataclass eq would treat 2 == 2.0 and True == 1; literals must keep
        # the lexical type distinct
        return (
            isinstance(other, Literal)
            and type(self.value) is type(other.value)
            and self.value == other.value
        )

    def __hash__(self):
        return hash((type(self.value).__name__, self.value))


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class UnaryOp:
    op: str  # "-" or "not"
    operand: "Expr"


@dataclass(frozen=True)
class Index:
    base: "Expr"
    index: "Expr"


@dataclass(frozen=True)
class Call:
    func: str  # one of BUILTINS
    args: Tuple["Expr", ...]


@dataclass(frozen=True)
class ListLit:
    items: Tuple["Expr", ...]


@dataclass(frozen=True)
class SetLit:
    items: Tuple["Expr", ...]


Expr = Union[Literal, Var, BinOp, UnaryOp, Index, Call, ListLit, SetLit]

BUILTINS = ("len", "abs", "min", "max")


# --- statements ---


@dataclass(frozen=True)
class Assign:
    target: str
    value: Expr
    loc: Optional[Loc] = field(default=None, compare=False)


@dataclass(frozen=True)
class IndexAssign:
    target: str
    index: Expr
    value: Expr
    loc: Optional[Loc] = field(default=None, compare=False)


@dataclass(frozen=True)
class Append:
    target: str
    value: Expr
    loc: Optional[Loc] = field(default=None, compare=False)


@dataclass(frozen=True)
class If:
    cond: Expr
    then_body: Tuple["Stmt", ...]
    else_body: Tuple["Stmt", ...]
    loc: Optional[Loc] = field(default=None, compare=False)


@dataclass(frozen=True)
class While:
    cond: Expr
    body: Tuple["Stmt", ...]
    loc: Optional[Loc] = field(default=None, compare=False)


@dataclass(frozen=True)
class For:
    var: str
    start: Expr
    stop: Expr
    step: Optional[Expr]
    body: Tuple["Stmt", ...]
    loc: Optional[Loc] = field(default=None, compare=False)


@dataclass(frozen=True)
class Break:
    loc: Optional[Loc] = field(default=None, compare=False)


@dataclass(frozen=True)
class Continue:
    loc: Optional[Loc] = field(default=None, compare=False)


@dataclass(frozen=True)
class Return:
    value: Expr
    loc: Optional[Loc] = field(default=None, compare=False)


Stmt = Union[Assign, IndexAssign, Append, If, While, For, Break, Continue, Return]


@dataclass(frozen=True)
class Program:
    name: str
    params: Tuple[str, ...]
    body: Tuple[Stmt, ...]


_CHILDREN = {
    Literal: lambda n: (),
    Var: lambda n: (),
    BinOp: lambda n: (n.left, n.right),
    UnaryOp: lambda n: (n.operand,),
    Index: lambda n: (n.base, n.index),
    Call: lambda n: n.args,
    ListLit: lambda n: n.items,
    SetLit: lambda n: n.items,
    Assign: lambda n: (n.value,),
    IndexAssign: lambda n: (n.index, n.value),
    Append: lambda n: (n.value,),
    If: lambda n: (n.cond,) + n.then_body + n.else_body,
    While: lambda n: (n.cond,) + n.body,
    For: lambda n: (n.start, n.stop) + (() if n.step is None else (n.step,)) + n.body,
    Break: lambda n: (),
    Continue: lambda n: (),
    Return: lambda n: (n.value,),
    Program: lambda n: n.body,
}


def children(node) -> tuple:
    """The direct sub-nodes of a program, statement or expression, in source
    order."""
    try:
        return _CHILDREN[type(node)](node)
    except KeyError:
        raise TypeError("not an AST node: %r" % (node,)) from None


def walk(node):
    """Pre-order iteration over ``node`` and all its descendants, in source
    order."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(children(node)))


def count_nodes(node) -> int:
    """Number of AST nodes in a statement/expression tree (Program counts 1)."""
    return sum(1 for _ in walk(node))


def list_variables(p: Program):
    """Ordered variable list V: parameters first, then every other variable at
    its first textual definition point, each name once."""
    seen = dict.fromkeys(p.params)  # insertion-ordered set

    def visit(node):
        # only statements define variables, so recurse into compound
        # statements and skip expression subtrees
        for s in children(node):
            if isinstance(s, (Assign, IndexAssign, Append)):
                seen.setdefault(s.target)
            elif isinstance(s, For):
                seen.setdefault(s.var)
                visit(s)
            elif isinstance(s, (If, While)):
                visit(s)

    visit(p)
    return list(seen)
