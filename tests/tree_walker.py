"""The tree-walking step interpreter that ``semtrace.tracer.execute``
replaced: the reference its compiled closures are checked against.

It dispatches on node type at every visit and copies a list on every write,
exactly as the interpreter did before it was compiled.  :func:`tree_walk_records`
gives its records at many budgets from one walk.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from semtrace.lang import (
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
from semtrace.tracer import (
    DEFAULT_BUDGET,
    E_DIV_ZERO,
    E_INDEX,
    E_NAN,
    E_OVERFLOW,
    E_RANGE,
    E_TYPE,
    E_UNDEF,
    E_UNHASHABLE,
    STATUS_BUDGET,
    STATUS_ERROR,
    STATUS_RETURNED,
    ExecutionRecord,
    MimRuntimeError,
    StepEvent,
    trajectory_final_values,
)
from semtrace.values import INT_MAX, INT_MIN, MimSet, Value, is_number, values_equal


class _Budget(Exception):
    pass


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class _Return(Exception):
    def __init__(self, value):
        self.value = value
        super().__init__()


def _check_int(v: int, loc) -> int:
    if not INT_MIN <= v <= INT_MAX:
        raise MimRuntimeError(E_OVERFLOW, "integer overflow", loc)
    return v


def _check_float(v: float, loc) -> float:
    if math.isnan(v):
        raise MimRuntimeError(E_NAN, "operation produced NaN", loc)
    return v



class _Interp:
    def __init__(self, budget: int, full_trace: bool):
        self.budget = budget
        self.env: Dict[str, Value] = {}  # also the last-definition final-value map
        self.steps_used = 0
        self.trajectory: Optional[List[StepEvent]] = [] if full_trace else None
        self.cur_loc: Optional[Loc] = None

    # --- step bookkeeping ---

    def tick(self, loc) -> None:
        if self.steps_used >= self.budget:
            raise _Budget()
        self.steps_used += 1
        self.cur_loc = loc
        if self.trajectory is not None:
            # placeholder event; definitions overwrite it via define()
            self.trajectory.append(StepEvent(self.steps_used, loc, None, None))

    def define(self, name: str, value: Value) -> None:
        """Bind ``name``; always the write of the statement just ticked."""
        self.env[name] = value
        if self.trajectory is not None:
            self.trajectory[-1] = StepEvent(self.steps_used, self.cur_loc, name, value)

    # --- expression evaluation ---

    def eval(self, e) -> Value:
        loc = self.cur_loc
        if isinstance(e, Literal):
            return e.value
        if isinstance(e, Var):
            if e.name not in self.env:
                raise MimRuntimeError(E_UNDEF, "undefined variable %r" % e.name, loc)
            return self.env[e.name]
        if isinstance(e, BinOp):
            return self.binop(e.op, e.left, e.right, loc)
        if isinstance(e, UnaryOp):
            v = self.eval(e.operand)
            if e.op == "-":
                if isinstance(v, bool) or not isinstance(v, (int, float)):
                    raise MimRuntimeError(E_TYPE, "unary - needs a number", loc)
                if isinstance(v, int):
                    return _check_int(-v, loc)
                return -v
            if not isinstance(v, bool):
                raise MimRuntimeError(E_TYPE, "'not' needs a boolean", loc)
            return not v
        if isinstance(e, Index):
            base = self.eval(e.base)
            idx = self.eval(e.index)
            return self.index(base, idx, loc)
        if isinstance(e, Call):
            return self.call(e.func, [self.eval(a) for a in e.args], loc)
        if isinstance(e, ListLit):
            return [self.eval(i) for i in e.items]
        if isinstance(e, SetLit):
            members = [self.eval(i) for i in e.items]
            for m in members:
                if m is None or isinstance(m, (list, MimSet)):
                    raise MimRuntimeError(E_UNHASHABLE, "unhashable set member", loc)
            return MimSet(members)
        raise TypeError("not an expression: %r" % (e,))

    def binop(self, op, left_e, right_e, loc) -> Value:
        if op == "and":
            left = self.eval(left_e)
            if not isinstance(left, bool):
                raise MimRuntimeError(E_TYPE, "'and' needs booleans", loc)
            if not left:
                return False
            right = self.eval(right_e)
            if not isinstance(right, bool):
                raise MimRuntimeError(E_TYPE, "'and' needs booleans", loc)
            return right
        if op == "or":
            left = self.eval(left_e)
            if not isinstance(left, bool):
                raise MimRuntimeError(E_TYPE, "'or' needs booleans", loc)
            if left:
                return True
            right = self.eval(right_e)
            if not isinstance(right, bool):
                raise MimRuntimeError(E_TYPE, "'or' needs booleans", loc)
            return right

        a = self.eval(left_e)
        b = self.eval(right_e)
        if op == "==":
            return values_equal(a, b)
        if op == "!=":
            return not values_equal(a, b)
        if op in ("<", "<=", ">", ">="):
            if is_number(a) and is_number(b):
                pass
            elif isinstance(a, str) and isinstance(b, str):
                pass
            else:
                raise MimRuntimeError(E_TYPE, "%r needs two numbers or two strings" % op, loc)
            if op == "<":
                return a < b
            if op == "<=":
                return a <= b
            if op == ">":
                return a > b
            return a >= b
        if op == "+" and isinstance(a, str) and isinstance(b, str):
            return a + b
        if not (is_number(a) and is_number(b)):
            raise MimRuntimeError(E_TYPE, "%r needs two numbers" % op, loc)
        both_int = isinstance(a, int) and isinstance(b, int)
        if op == "+":
            return _check_int(a + b, loc) if both_int else _check_float(a + b, loc)
        if op == "-":
            return _check_int(a - b, loc) if both_int else _check_float(a - b, loc)
        if op == "*":
            return _check_int(a * b, loc) if both_int else _check_float(a * b, loc)
        if op == "/":
            # always produces a float; int / int-zero is an error, while a
            # float zero divisor yields +-inf (0.0 / 0.0 would be NaN)
            if both_int:
                if b == 0:
                    raise MimRuntimeError(E_DIV_ZERO, "integer division by zero", loc)
                return _check_float(a / b, loc)
            if b == 0:
                if a == 0:
                    raise MimRuntimeError(E_NAN, "0/0 is undefined", loc)
                return math.inf if (a > 0) == (math.copysign(1.0, float(b)) > 0) else -math.inf
            return _check_float(a / b, loc)
        if op in ("//", "%"):
            if not both_int:
                raise MimRuntimeError(E_TYPE, "%r needs two integers" % op, loc)
            if b == 0:
                raise MimRuntimeError(E_DIV_ZERO, "integer %s by zero" % ("division" if op == "//" else "modulo"), loc)
            return _check_int(a // b if op == "//" else a % b, loc)
        raise TypeError("unknown operator %r" % op)

    def index(self, base, idx, loc) -> Value:
        if isinstance(idx, bool) or not isinstance(idx, int):
            raise MimRuntimeError(E_TYPE, "index must be an integer", loc)
        if isinstance(base, list):
            if not 0 <= idx < len(base):
                raise MimRuntimeError(E_INDEX, "index %d out of range for length %d" % (idx, len(base)), loc)
            return base[idx]
        if isinstance(base, str):
            if not 0 <= idx < len(base):
                raise MimRuntimeError(E_INDEX, "index %d out of range for length %d" % (idx, len(base)), loc)
            return base[idx]
        raise MimRuntimeError(E_TYPE, "only lists and strings are indexable", loc)

    def call(self, func, args, loc) -> Value:
        if func == "len":
            if len(args) != 1 or not isinstance(args[0], (list, MimSet, str)):
                raise MimRuntimeError(E_TYPE, "len needs one list, set, or string", loc)
            return len(args[0])
        if func == "abs":
            if len(args) != 1 or not is_number(args[0]):
                raise MimRuntimeError(E_TYPE, "abs needs one number", loc)
            v = args[0]
            return _check_int(abs(v), loc) if isinstance(v, int) else abs(v)
        if func in ("min", "max"):
            if len(args) == 1 and isinstance(args[0], (list, MimSet)):
                items = list(args[0])
            elif len(args) >= 2:
                items = args
            else:
                raise MimRuntimeError(E_TYPE, "%s needs a collection or >=2 arguments" % func, loc)
            if not items or not all(is_number(v) for v in items):
                raise MimRuntimeError(E_TYPE, "%s needs non-empty numeric input" % func, loc)
            return min(items) if func == "min" else max(items)
        raise MimRuntimeError(E_TYPE, "unknown builtin %r" % func, loc)

    # --- statements ---

    def run_block(self, body) -> None:
        for stmt in body:
            self.run_stmt(stmt)

    def run_stmt(self, stmt) -> None:
        if isinstance(stmt, Assign):
            self.tick(stmt.loc)
            self.define(stmt.target, self.eval(stmt.value))
        elif isinstance(stmt, IndexAssign):
            self.tick(stmt.loc)
            if stmt.target not in self.env:
                raise MimRuntimeError(E_UNDEF, "undefined variable %r" % stmt.target, stmt.loc)
            base = self.env[stmt.target]
            if not isinstance(base, list):
                raise MimRuntimeError(E_TYPE, "indexed assignment needs a list", stmt.loc)
            idx = self.eval(stmt.index)
            if isinstance(idx, bool) or not isinstance(idx, int):
                raise MimRuntimeError(E_TYPE, "index must be an integer", stmt.loc)
            if not 0 <= idx < len(base):
                raise MimRuntimeError(E_INDEX, "index %d out of range for length %d" % (idx, len(base)), stmt.loc)
            value = self.eval(stmt.value)
            updated = list(base)
            updated[idx] = value
            self.define(stmt.target, updated)
        elif isinstance(stmt, Append):
            self.tick(stmt.loc)
            if stmt.target not in self.env:
                raise MimRuntimeError(E_UNDEF, "undefined variable %r" % stmt.target, stmt.loc)
            base = self.env[stmt.target]
            if not isinstance(base, list):
                raise MimRuntimeError(E_TYPE, "append needs a list", stmt.loc)
            self.define(stmt.target, base + [self.eval(stmt.value)])
        elif isinstance(stmt, If):
            self.tick(stmt.loc)
            cond = self.eval(stmt.cond)
            if not isinstance(cond, bool):
                raise MimRuntimeError(E_TYPE, "if condition must be a boolean", stmt.loc)
            self.run_block(stmt.then_body if cond else stmt.else_body)
        elif isinstance(stmt, While):
            while True:
                self.tick(stmt.loc)
                cond = self.eval(stmt.cond)
                if not isinstance(cond, bool):
                    raise MimRuntimeError(E_TYPE, "while condition must be a boolean", stmt.loc)
                if not cond:
                    break
                try:
                    self.run_block(stmt.body)
                except _Continue:
                    pass
                except _Break:
                    break
        elif isinstance(stmt, For):
            self.cur_loc = stmt.loc
            bounds = [self.eval(stmt.start), self.eval(stmt.stop)]
            bounds.append(self.eval(stmt.step) if stmt.step is not None else 1)
            for v in bounds:
                if isinstance(v, bool) or not isinstance(v, int):
                    raise MimRuntimeError(E_TYPE, "range bounds must be integers", stmt.loc)
            start, stop, step = bounds
            if step == 0:
                raise MimRuntimeError(E_RANGE, "range step must be non-zero", stmt.loc)
            i = start
            while (step > 0 and i < stop) or (step < 0 and i > stop):
                self.tick(stmt.loc)
                self.define(stmt.var, i)
                try:
                    self.run_block(stmt.body)
                except _Continue:
                    pass
                except _Break:
                    break
                i += step
        elif isinstance(stmt, Break):
            self.tick(stmt.loc)
            raise _Break()
        elif isinstance(stmt, Continue):
            self.tick(stmt.loc)
            raise _Continue()
        elif isinstance(stmt, Return):
            self.tick(stmt.loc)
            raise _Return(self.eval(stmt.value))
        else:
            raise TypeError("not a statement: %r" % (stmt,))


def tree_walk_execute(
    p: Program,
    inputs: Sequence[Value],
    budget: int = DEFAULT_BUDGET,
    mode: str = "summary",
) -> ExecutionRecord:
    """What ``semtrace.tracer.execute`` returns, computed by walking the
    tree."""
    if mode not in ("summary", "full"):
        raise ValueError("mode must be 'summary' or 'full'")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if len(inputs) != len(p.params):
        raise ValueError(
            "arity mismatch: %s takes %d parameters, got %d inputs"
            % (p.name, len(p.params), len(inputs))
        )
    interp = _Interp(budget, full_trace=(mode == "full"))
    # parameters are bound in the initial state, before any step
    interp.env.update(zip(p.params, inputs))
    status = STATUS_RETURNED
    return_value: Optional[Value] = None
    error_kind = None
    error_loc = None
    try:
        interp.run_block(p.body)
        return_value = None  # fell off the end: implicit `return null`
    except _Return as r:
        return_value = r.value
    except (_Break, _Continue):
        # break/continue outside a loop is a (degenerate) runtime error
        status = STATUS_ERROR
        error_kind = E_TYPE
        error_loc = interp.cur_loc
    except _Budget:
        status = STATUS_BUDGET
    except MimRuntimeError as err:
        status = STATUS_ERROR
        error_kind = err.kind
        error_loc = err.loc if err.loc is not None else interp.cur_loc
    return ExecutionRecord(
        status=status,
        return_value=return_value,
        final_vars=interp.env,
        steps_used=interp.steps_used,
        error_kind=error_kind,
        error_loc=error_loc,
        trajectory=interp.trajectory,
    )


def tree_walk_records(
    p: Program, inputs: Sequence[Value], budgets: Iterable[int]
) -> Iterator[Tuple[int, str, ExecutionRecord]]:
    """``(budget, mode, tree_walk_execute(p, inputs, budget, mode))`` for
    each budget and both modes, from one full-mode walk at the largest
    budget.  The budget is checked only as a statement starts its step, so a
    run cut at a budget ``b`` below the walk's ``steps_used`` has done the
    walk's first ``b`` steps and no more: it ran out of budget, with those
    steps' events, and its variables are the parameters as those events
    updated them.  At a budget of the walk's ``steps_used`` or more, the run
    is the walk.  Summary mode drops only the trajectory."""
    budgets = list(budgets)
    walk = tree_walk_execute(p, inputs, budget=max(budgets), mode="full")
    for budget in budgets:
        if budget < walk.steps_used:
            events = walk.trajectory[:budget]
            full = ExecutionRecord(STATUS_BUDGET, None, {}, budget, trajectory=events)
            full.final_vars = trajectory_final_values(full, dict(zip(p.params, inputs)))
        else:
            full = walk
        yield budget, "summary", dataclasses.replace(full, trajectory=None)
        yield budget, "full", full
