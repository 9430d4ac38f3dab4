"""Small-step MiniImp interpreter with per-statement step accounting.

Each executed statement is one step: assignments, appends, indexed writes,
``break``/``continue``/``return``, each ``if`` condition check, each ``while``
condition check, and each ``for`` loop-variable binding.  Evaluating an
expression is not a step.  Runtime errors are recorded in the returned
:class:`ExecutionRecord`, never raised past :func:`execute`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from .lang import (
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
    list_variables,
)
from .values import INT_MAX, INT_MIN, MimSet, Value, is_number, values_equal

DEFAULT_BUDGET = 100_000

STATUS_RETURNED = "returned"
STATUS_ERROR = "runtime_error"
STATUS_BUDGET = "budget_exceeded"

# runtime error kinds
E_TYPE = "type_mismatch"
E_DIV_ZERO = "division_by_zero"
E_INDEX = "index_out_of_range"
E_UNDEF = "undefined_variable"
E_OVERFLOW = "integer_overflow"
E_UNHASHABLE = "unhashable_set_member"
E_NAN = "nan_result"
E_RANGE = "bad_range"


@dataclass(frozen=True)
class StepEvent:
    step_index: int
    loc: Optional[Loc]
    defined_variable: Optional[str]
    value_written: Optional[Value]


@dataclass
class ExecutionRecord:
    status: str
    return_value: Optional[Value]
    final_vars: Dict[str, Value]
    steps_used: int
    error_kind: Optional[str] = None
    error_loc: Optional[Loc] = None
    trajectory: Optional[List[StepEvent]] = field(default=None)


class MimRuntimeError(Exception):
    def __init__(self, kind: str, message: str, loc: Optional[Loc] = None):
        self.kind = kind
        self.loc = loc
        super().__init__(message)


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


def execute(
    p: Program,
    inputs: Sequence[Value],
    budget: int = DEFAULT_BUDGET,
    mode: str = "summary",
) -> ExecutionRecord:
    """Run ``p`` on ``inputs`` under a step budget.

    ``mode="summary"`` keeps only the running last-definition map (O(|V|)
    memory); ``mode="full"`` additionally records every :class:`StepEvent`.
    Arity mismatches and invalid budgets are rejected up front with
    ``ValueError``; everything that happens *during* execution lands in the
    record's status.
    """
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


def final_values(rec: ExecutionRecord) -> Dict[str, Value]:
    """The last-definition final-value map recorded by the run."""
    return dict(rec.final_vars)


def traced_variables(p: Program, rec: ExecutionRecord) -> Dict[str, Value]:
    """V with final values: ``list_variables(p)`` (first-definition order)
    restricted to the variables the run defined."""
    return {v: rec.final_vars[v] for v in list_variables(p) if v in rec.final_vars}


def trajectory_final_values(rec: ExecutionRecord, bindings: Dict[str, Value]) -> Dict[str, Value]:
    """Brute-force reduction of a full-mode trajectory: starting from the
    initial parameter ``bindings``, each variable's last written value."""
    if rec.trajectory is None:
        raise ValueError("record has no trajectory (summary mode)")
    out = dict(bindings)
    for ev in rec.trajectory:
        if ev.defined_variable is not None:
            out[ev.defined_variable] = ev.value_written
    return out


# --- independent big-step reference evaluator (differential-testing oracle) ---


class ReferenceTimeout(Exception):
    pass


_REF_CAP = 2_000_000


def reference_evaluate(p: Program, inputs: Sequence[Value]):
    """Deliberately separate recursive evaluator used only to cross-check
    :func:`execute`.  Returns ``(return_value, final_vars)`` and raises
    :class:`MimRuntimeError` with the same error taxonomy."""
    if len(inputs) != len(p.params):
        raise ValueError("arity mismatch")
    env: Dict[str, Value] = dict(zip(p.params, inputs))
    writes: Dict[str, Value] = dict(env)
    counter = [0]

    def ev(e):
        if isinstance(e, Literal):
            return e.value
        if isinstance(e, Var):
            try:
                return env[e.name]
            except KeyError:
                raise MimRuntimeError(E_UNDEF, e.name)
        if isinstance(e, UnaryOp):
            v = ev(e.operand)
            if e.op == "not":
                if type(v) is not bool:
                    raise MimRuntimeError(E_TYPE, "not")
                return not v
            if type(v) is bool or not isinstance(v, (int, float)):
                raise MimRuntimeError(E_TYPE, "neg")
            out = -v
            if isinstance(out, int) and not INT_MIN <= out <= INT_MAX:
                raise MimRuntimeError(E_OVERFLOW, "neg")
            return out
        if isinstance(e, Index):
            base, idx = ev(e.base), ev(e.index)
            if type(idx) is bool or not isinstance(idx, int):
                raise MimRuntimeError(E_TYPE, "index")
            if not isinstance(base, (list, str)):
                raise MimRuntimeError(E_TYPE, "index")
            if idx < 0 or idx >= len(base):
                raise MimRuntimeError(E_INDEX, "index")
            return base[idx]
        if isinstance(e, ListLit):
            return [ev(i) for i in e.items]
        if isinstance(e, SetLit):
            vs = [ev(i) for i in e.items]
            if any(v is None or isinstance(v, (list, MimSet)) for v in vs):
                raise MimRuntimeError(E_UNHASHABLE, "set")
            return MimSet(vs)
        if isinstance(e, Call):
            vs = [ev(a) for a in e.args]
            if e.func == "len":
                if len(vs) != 1 or not isinstance(vs[0], (list, MimSet, str)):
                    raise MimRuntimeError(E_TYPE, "len")
                return len(vs[0])
            if e.func == "abs":
                if len(vs) != 1 or type(vs[0]) is bool or not isinstance(vs[0], (int, float)):
                    raise MimRuntimeError(E_TYPE, "abs")
                out = abs(vs[0])
                if isinstance(out, int) and out > INT_MAX:
                    raise MimRuntimeError(E_OVERFLOW, "abs")
                return out
            if e.func in ("min", "max"):
                pool = list(vs[0]) if len(vs) == 1 and isinstance(vs[0], (list, MimSet)) else (vs if len(vs) >= 2 else None)
                if not pool or any(type(v) is bool or not isinstance(v, (int, float)) for v in pool):
                    raise MimRuntimeError(E_TYPE, e.func)
                return (min if e.func == "min" else max)(pool)
            raise MimRuntimeError(E_TYPE, e.func)
        if isinstance(e, BinOp):
            if e.op in ("and", "or"):
                a = ev(e.left)
                if type(a) is not bool:
                    raise MimRuntimeError(E_TYPE, e.op)
                if e.op == "and" and not a:
                    return False
                if e.op == "or" and a:
                    return True
                b = ev(e.right)
                if type(b) is not bool:
                    raise MimRuntimeError(E_TYPE, e.op)
                return b
            a, b = ev(e.left), ev(e.right)
            if e.op == "==":
                return values_equal(a, b)
            if e.op == "!=":
                return not values_equal(a, b)
            num = lambda v: type(v) is not bool and isinstance(v, (int, float))
            if e.op in ("<", "<=", ">", ">="):
                ok = (num(a) and num(b)) or (isinstance(a, str) and isinstance(b, str))
                if not ok:
                    raise MimRuntimeError(E_TYPE, e.op)
                return {"<": a < b, "<=": a <= b, ">": a > b, ">=": a >= b}[e.op]
            if e.op == "+" and isinstance(a, str) and isinstance(b, str):
                return a + b
            if not (num(a) and num(b)):
                raise MimRuntimeError(E_TYPE, e.op)
            ints = isinstance(a, int) and isinstance(b, int)
            if e.op in ("+", "-", "*"):
                out = {"+": a + b, "-": a - b, "*": a * b}[e.op]
            elif e.op == "/":
                if ints and b == 0:
                    raise MimRuntimeError(E_DIV_ZERO, "/")
                if not ints and b == 0:
                    if a == 0:
                        raise MimRuntimeError(E_NAN, "/")
                    sign = math.copysign(1.0, float(b)) * math.copysign(1.0, float(a))
                    return math.inf if sign > 0 else -math.inf
                out = a / b
            else:  # // or %
                if not ints:
                    raise MimRuntimeError(E_TYPE, e.op)
                if b == 0:
                    raise MimRuntimeError(E_DIV_ZERO, e.op)
                out = a // b if e.op == "//" else a % b
            if isinstance(out, int) and not isinstance(out, bool):
                if not INT_MIN <= out <= INT_MAX:
                    raise MimRuntimeError(E_OVERFLOW, e.op)
            elif isinstance(out, float) and math.isnan(out):
                raise MimRuntimeError(E_NAN, e.op)
            return out
        raise TypeError(repr(e))

    class Signal(Exception):
        def __init__(self, tag, value=None):
            self.tag = tag
            self.value = value

    def bump():
        counter[0] += 1
        if counter[0] > _REF_CAP:
            raise ReferenceTimeout()

    def write(name, value):
        env[name] = value
        writes[name] = value

    def run(stmts):
        for s in stmts:
            bump()
            if isinstance(s, Assign):
                write(s.target, ev(s.value))
            elif isinstance(s, IndexAssign):
                if s.target not in env:
                    raise MimRuntimeError(E_UNDEF, s.target)
                base = env[s.target]
                if not isinstance(base, list):
                    raise MimRuntimeError(E_TYPE, "[]=")
                idx = ev(s.index)
                if type(idx) is bool or not isinstance(idx, int):
                    raise MimRuntimeError(E_TYPE, "[]=")
                if idx < 0 or idx >= len(base):
                    raise MimRuntimeError(E_INDEX, "[]=")
                v = ev(s.value)
                write(s.target, base[:idx] + [v] + base[idx + 1:])
            elif isinstance(s, Append):
                if s.target not in env:
                    raise MimRuntimeError(E_UNDEF, s.target)
                base = env[s.target]
                if not isinstance(base, list):
                    raise MimRuntimeError(E_TYPE, "append")
                write(s.target, base + [ev(s.value)])
            elif isinstance(s, If):
                c = ev(s.cond)
                if type(c) is not bool:
                    raise MimRuntimeError(E_TYPE, "if")
                run(s.then_body if c else s.else_body)
            elif isinstance(s, While):
                while True:
                    c = ev(s.cond)
                    if type(c) is not bool:
                        raise MimRuntimeError(E_TYPE, "while")
                    if not c:
                        break
                    try:
                        run(s.body)
                    except Signal as sig:
                        if sig.tag == "continue":
                            pass
                        elif sig.tag == "break":
                            break
                        else:
                            raise
                    bump()
            elif isinstance(s, For):
                a, b = ev(s.start), ev(s.stop)
                c = ev(s.step) if s.step is not None else 1
                for v in (a, b, c):
                    if type(v) is bool or not isinstance(v, int):
                        raise MimRuntimeError(E_TYPE, "range")
                if c == 0:
                    raise MimRuntimeError(E_RANGE, "range")
                for i in range(a, b, c):
                    bump()
                    write(s.var, i)
                    try:
                        run(s.body)
                    except Signal as sig:
                        if sig.tag == "continue":
                            continue
                        if sig.tag == "break":
                            break
                        raise
            elif isinstance(s, Break):
                raise Signal("break")
            elif isinstance(s, Continue):
                raise Signal("continue")
            elif isinstance(s, Return):
                raise Signal("return", ev(s.value))
            else:
                raise TypeError(repr(s))

    ret: Optional[Value] = None
    try:
        run(p.body)
    except Signal as sig:
        if sig.tag == "return":
            ret = sig.value
        else:
            raise MimRuntimeError(E_TYPE, "loop control outside loop")
    return ret, dict(writes)
