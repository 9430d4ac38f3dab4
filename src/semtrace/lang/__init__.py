"""MiniImp: the small deterministic imperative language used throughout."""

from .formatter import format_expr, format_program
from .nodes import (
    Append,
    Assign,
    BinOp,
    Break,
    Call,
    Continue,
    Expr,
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
    Stmt,
    UnaryOp,
    Var,
    While,
    children,
    list_variables,
    walk,
)
from .parser import ParseError, parse_program, tokenize
from .template import HoleTemplate, TemplateError, instantiate_template

__all__ = [
    "Append", "Assign", "BinOp", "Break", "Call", "Continue", "Expr", "For",
    "HoleTemplate", "If", "Index", "IndexAssign", "ListLit", "Literal", "Loc",
    "ParseError", "Program", "Return", "SetLit", "Stmt", "TemplateError",
    "UnaryOp", "Var", "While", "children", "format_expr",
    "format_program", "instantiate_template", "list_variables",
    "parse_program", "tokenize", "walk",
]
