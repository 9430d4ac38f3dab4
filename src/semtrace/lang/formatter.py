"""Canonical pretty-printer for MiniImp programs.

``parse_program(format_program(p))`` is structurally equal to ``p``, and
formatting is idempotent; the formatted text is the canonical form used for
content hashing and buffer deduplication.
"""

from __future__ import annotations

import math

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
    Program,
    Return,
    SetLit,
    Stmt,
    UnaryOp,
    Var,
    While,
)
from .parser import BIN_PREC, CMP_OPS, ESCAPES, NOT_PREC

_INDENT = "    "

_PREC_NEG = 7
_PREC_POSTFIX = 8
_PREC_ATOM = 9

_ESCAPE_TABLE = str.maketrans(ESCAPES)


def format_expr(expr: Expr, min_prec: int = 0) -> str:
    text, prec = _format_expr(expr)
    if prec < min_prec:
        return "(" + text + ")"
    return text


def _format_expr(expr: Expr):
    if isinstance(expr, Literal):
        v = expr.value
        if v is None:
            return "null", _PREC_ATOM
        if isinstance(v, bool):
            return ("true" if v else "false"), _PREC_ATOM
        if isinstance(v, int):
            return str(v), _PREC_ATOM
        if isinstance(v, float):
            if math.isinf(v):
                # negative infinity is never a Literal; it parses as -inf
                return "inf", _PREC_ATOM
            return repr(v), _PREC_ATOM
        if isinstance(v, str):
            return '"%s"' % v.translate(_ESCAPE_TABLE), _PREC_ATOM
        raise TypeError("unsupported literal: %r" % (v,))
    if isinstance(expr, Var):
        return expr.name, _PREC_ATOM
    if isinstance(expr, BinOp):
        prec = BIN_PREC[expr.op]
        # binary operators are left-associative; comparisons are non-chaining
        left = format_expr(expr.left, prec + 1 if expr.op in CMP_OPS else prec)
        right = format_expr(expr.right, prec + 1)
        return "%s %s %s" % (left, expr.op, right), prec
    if isinstance(expr, UnaryOp):
        if expr.op == "not":
            return "not " + format_expr(expr.operand, NOT_PREC), NOT_PREC
        return "-" + format_expr(expr.operand, _PREC_NEG), _PREC_NEG
    if isinstance(expr, Index):
        return "%s[%s]" % (format_expr(expr.base, _PREC_POSTFIX), format_expr(expr.index)), _PREC_POSTFIX
    if isinstance(expr, Call):
        return "%s(%s)" % (expr.func, ", ".join(format_expr(a) for a in expr.args)), _PREC_ATOM
    if isinstance(expr, ListLit):
        return "[%s]" % ", ".join(format_expr(i) for i in expr.items), _PREC_ATOM
    if isinstance(expr, SetLit):
        return "{%s}" % ", ".join(format_expr(i) for i in expr.items), _PREC_ATOM
    raise TypeError("not an expression: %r" % (expr,))


def _format_stmt(stmt: Stmt, depth: int, lines):
    pad = _INDENT * depth
    if isinstance(stmt, Assign):
        lines.append("%s%s = %s" % (pad, stmt.target, format_expr(stmt.value)))
    elif isinstance(stmt, IndexAssign):
        lines.append("%s%s[%s] = %s" % (pad, stmt.target, format_expr(stmt.index), format_expr(stmt.value)))
    elif isinstance(stmt, Append):
        lines.append("%sappend(%s, %s)" % (pad, stmt.target, format_expr(stmt.value)))
    elif isinstance(stmt, If):
        lines.append("%sif %s {" % (pad, format_expr(stmt.cond)))
        for s in stmt.then_body:
            _format_stmt(s, depth + 1, lines)
        if stmt.else_body:
            lines.append("%s} else {" % pad)
            for s in stmt.else_body:
                _format_stmt(s, depth + 1, lines)
        lines.append("%s}" % pad)
    elif isinstance(stmt, While):
        lines.append("%swhile %s {" % (pad, format_expr(stmt.cond)))
        for s in stmt.body:
            _format_stmt(s, depth + 1, lines)
        lines.append("%s}" % pad)
    elif isinstance(stmt, For):
        head = "%s, %s" % (format_expr(stmt.start), format_expr(stmt.stop))
        if stmt.step is not None:
            head += ", %s" % format_expr(stmt.step)
        lines.append("%sfor %s in range(%s) {" % (pad, stmt.var, head))
        for s in stmt.body:
            _format_stmt(s, depth + 1, lines)
        lines.append("%s}" % pad)
    elif isinstance(stmt, Break):
        lines.append("%sbreak" % pad)
    elif isinstance(stmt, Continue):
        lines.append("%scontinue" % pad)
    elif isinstance(stmt, Return):
        lines.append("%sreturn %s" % (pad, format_expr(stmt.value)))
    else:
        raise TypeError("not a statement: %r" % (stmt,))


def format_program(p: Program) -> str:
    lines = ["fn %s(%s) {" % (p.name, ", ".join(p.params))]
    for s in p.body:
        _format_stmt(s, 1, lines)
    lines.append("}")
    return "\n".join(lines) + "\n"
