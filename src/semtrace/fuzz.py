"""Random MiniImp program generation and differential testing.

The generator builds programs that terminate by construction: every loop is
either a literal-bounded for or a counter-guarded while, indices are reduced
modulo the list length, and integer assignments wrap to a small range so no
arithmetic can overflow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

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
    Program,
    Return,
    SetLit,
    UnaryOp,
    Var,
    While,
)
from .tracer import (
    MimRuntimeError,
    STATUS_ERROR,
    STATUS_RETURNED,
    execute,
    final_values,
    reference_evaluate,
    trajectory_final_values,
)
from .values import values_equal

WRAP = 1009  # keeps every int assignment far from the int64 bounds
MAX_STMTS = 8
MAX_DEPTH = 2


@dataclass
class _Scope:
    int_vars: List[str] = field(default_factory=list)
    float_vars: List[str] = field(default_factory=list)
    list_vars: List[str] = field(default_factory=list)
    counter: int = 0

    def fresh(self, prefix: str) -> str:
        self.counter += 1
        return "%s%d" % (prefix, self.counter)


def _wrap(expr) -> BinOp:
    # x % WRAP keeps magnitudes bounded regardless of loop iteration count
    return BinOp("%", expr, Literal(WRAP))


def _int_lit(v: int):
    # negative literals parse as unary minus, so emit that shape directly
    if v < 0:
        return UnaryOp("-", Literal(-v))
    return Literal(v)


class ProgramFuzzer:
    """Deterministic random generator of terminating MiniImp programs."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng

    # --- expressions ---

    def int_expr(self, scope: _Scope, depth: int = 0):
        r = self.rng
        choices = ["lit", "lit"]
        if scope.int_vars:
            choices += ["var", "var", "var"]
        if depth < 2:
            choices += ["binop", "binop", "call"]
            if scope.list_vars:
                choices += ["len", "index"]
        kind = choices[int(r.integers(len(choices)))]
        if kind == "lit":
            return _int_lit(int(r.integers(-20, 21)))
        if kind == "var":
            return Var(scope.int_vars[int(r.integers(len(scope.int_vars)))])
        if kind == "binop":
            op = ("+", "-", "*", "//", "%")[int(r.integers(5))]
            left = self.int_expr(scope, depth + 1)
            if op in ("//", "%"):
                # nonzero literal denominator rules out division by zero
                right = Literal(int(r.integers(2, 10)))
            else:
                right = self.int_expr(scope, depth + 1)
            return BinOp(op, left, right)
        if kind == "call":
            fn = ("abs", "min", "max")[int(r.integers(3))]
            if fn == "abs":
                return Call("abs", (self.int_expr(scope, depth + 1),))
            return Call(fn, (self.int_expr(scope, depth + 1), self.int_expr(scope, depth + 1)))
        if kind == "len":
            return Call("len", (Var(self._pick(scope.list_vars)),))
        # guarded index read: i % len(l) is always in range (lists never shrink)
        name = self._pick(scope.list_vars)
        return Index(Var(name), BinOp("%", self.int_expr(scope, depth + 1), Call("len", (Var(name),))))

    def bool_expr(self, scope: _Scope, depth: int = 0):
        r = self.rng
        if depth < 1 and r.random() < 0.3:
            op = ("and", "or")[int(r.integers(2))]
            return BinOp(op, self.bool_expr(scope, depth + 1), self.bool_expr(scope, depth + 1))
        if depth < 1 and r.random() < 0.15:
            return UnaryOp("not", self.bool_expr(scope, depth + 1))
        cmp_op = ("==", "!=", "<", "<=", ">", ">=")[int(r.integers(6))]
        return BinOp(cmp_op, self.int_expr(scope, 1), self.int_expr(scope, 1))

    def float_expr(self, scope: _Scope):
        # floats never feed back into floats, so magnitudes stay finite
        r = self.rng
        if scope.float_vars and r.random() < 0.3:
            return Var(self._pick(scope.float_vars))
        return BinOp("/", self.int_expr(scope, 1), Literal(int(r.integers(2, 10))))

    def _pick(self, names: List[str]) -> str:
        return names[int(self.rng.integers(len(names)))]

    # --- statements ---

    def statement(self, scope: _Scope, depth: int, in_loop: bool, allow_continue: bool):
        r = self.rng
        choices = ["assign", "assign", "assign"]
        if scope.list_vars:
            choices += ["append", "index_assign"]
        choices += ["new_list", "float_assign"]
        if depth < MAX_DEPTH:
            choices += ["if", "for", "while"]
        if r.random() < 0.1:
            choices.append("set_assign")
        if in_loop and r.random() < 0.15:
            choices.append("break")
        if in_loop and allow_continue and r.random() < 0.1:
            choices.append("continue")
        kind = choices[int(r.integers(len(choices)))]

        if kind == "assign":
            if scope.int_vars and r.random() < 0.6:
                name = self._pick(scope.int_vars)
            else:
                name = scope.fresh("x")
            stmt = Assign(name, _wrap(self.int_expr(scope)))
            if name not in scope.int_vars:
                scope.int_vars.append(name)
            return [stmt]
        if kind == "float_assign":
            expr = self.float_expr(scope)
            name = scope.fresh("f")
            scope.float_vars.append(name)
            return [Assign(name, expr)]
        if kind == "new_list":
            name = scope.fresh("l")
            items = tuple(_int_lit(int(r.integers(-9, 10))) for _ in range(int(r.integers(2, 6))))
            scope.list_vars.append(name)
            return [Assign(name, ListLit(items))]
        if kind == "set_assign":
            name = scope.fresh("s")
            items = tuple(_int_lit(int(r.integers(-5, 6))) for _ in range(int(r.integers(1, 5))))
            return [Assign(name, SetLit(items))]
        if kind == "append":
            return [Append(self._pick(scope.list_vars), _wrap(self.int_expr(scope)))]
        if kind == "index_assign":
            name = self._pick(scope.list_vars)
            idx = BinOp("%", self.int_expr(scope, 1), Call("len", (Var(name),)))
            return [IndexAssign(name, idx, _wrap(self.int_expr(scope)))]
        if kind == "if":
            then_body = self.block(scope, depth + 1, in_loop, allow_continue)
            else_body = self.block(scope, depth + 1, in_loop, allow_continue) if r.random() < 0.5 else ()
            return [If(self.bool_expr(scope), then_body, else_body)]
        if kind == "for":
            var = scope.fresh("i")
            scope.int_vars.append(var)
            start = Literal(int(r.integers(0, 3)))
            stop = Literal(int(r.integers(1, 7)))
            step = Literal(int(r.integers(1, 3))) if r.random() < 0.3 else None
            body = self.block(scope, depth + 1, True, True)
            # zero-iteration ranges leave the loop var unbound afterwards
            scope.int_vars.remove(var)
            return [For(var, start, stop, step, body)]
        if kind == "while":
            # counter-guarded; continue is banned inside so the increment runs,
            # and the counter stays out of int_vars so nothing reassigns it
            counter = scope.fresh("c")
            bound = int(r.integers(2, 8))
            cond = BinOp("<", Var(counter), Literal(bound))
            if r.random() < 0.4:
                cond = BinOp("and", cond, self.bool_expr(scope))
            inner = self.block(scope, depth + 1, True, False)
            body = tuple(inner) + (Assign(counter, BinOp("+", Var(counter), Literal(1))),)
            return [Assign(counter, Literal(0)), While(cond, body)]
        if kind == "break":
            return [Break()]
        return [Continue()]

    def block(self, scope: _Scope, depth: int, in_loop: bool, allow_continue: bool) -> Tuple:
        n = int(self.rng.integers(1, 4))
        # variables first defined under a conditional or loop must not be read
        # outside it, so the scope snapshot is restored on exit
        saved = (len(scope.int_vars), len(scope.float_vars), len(scope.list_vars))
        out: List = []
        for _ in range(n):
            out.extend(self.statement(scope, depth, in_loop, allow_continue))
        del scope.int_vars[saved[0]:]
        del scope.float_vars[saved[1]:]
        del scope.list_vars[saved[2]:]
        return tuple(out)

    def program(self) -> Program:
        r = self.rng
        n_params = int(r.integers(1, 4))
        params = tuple("p%d" % k for k in range(n_params))
        scope = _Scope(int_vars=list(params))
        body: List = []
        for _ in range(int(r.integers(2, MAX_STMTS + 1))):
            body.extend(self.statement(scope, 0, False, False))
        ret_pool = list(scope.int_vars)
        if scope.list_vars:
            ret_pool += scope.list_vars
        if r.random() < 0.8 and ret_pool:
            ret: object = Var(self._pick(ret_pool))
        else:
            ret = _wrap(self.int_expr(scope))
        body.append(Return(ret))
        return Program(name="fuzzed", params=params, body=tuple(body))

    def inputs_for(self, p: Program) -> List[int]:
        return [int(self.rng.integers(-20, 21)) for _ in p.params]


@dataclass
class CampaignResult:
    total: int
    returned: int
    mismatches: List[str]

    @property
    def ok(self) -> bool:
        return not self.mismatches


def differential_campaign(n_programs: int, seed: int = 0) -> CampaignResult:
    """Generate programs and compare the step interpreter against the
    independent big-step evaluator on status, return value, and final
    variable values, and check the full trajectory against the final map."""
    rng = np.random.default_rng(seed)
    fuzzer = ProgramFuzzer(rng)
    mismatches: List[str] = []
    returned = 0
    for k in range(n_programs):
        program = fuzzer.program()
        inputs = fuzzer.inputs_for(program)
        rec = execute(program, inputs, mode="full")
        label = "program %d" % k
        try:
            ref_ret, ref_finals = reference_evaluate(program, inputs)
        except MimRuntimeError as err:
            if rec.status != STATUS_ERROR:
                mismatches.append("%s: reference raised %s, step run %s" % (label, err.kind, rec.status))
            elif rec.error_kind != err.kind:
                mismatches.append("%s: error kind %s vs %s" % (label, rec.error_kind, err.kind))
            continue
        if rec.status != STATUS_RETURNED:
            mismatches.append("%s: reference returned, step run %s" % (label, rec.status))
            continue
        returned += 1
        if not values_equal(rec.return_value, ref_ret):
            mismatches.append("%s: return value differs" % label)
        step_finals = final_values(rec)
        if set(step_finals) != set(ref_finals):
            mismatches.append("%s: final variable sets differ" % label)
        else:
            for name in step_finals:
                if not values_equal(step_finals[name], ref_finals[name]):
                    mismatches.append("%s: variable %r differs" % (label, name))
        traj = trajectory_final_values(rec, dict(zip(program.params, inputs)))
        if set(traj) != set(step_finals) or any(
            not values_equal(traj[n], step_finals[n]) for n in traj
        ):
            mismatches.append("%s: trajectory scan disagrees with final map" % label)
    return CampaignResult(total=n_programs, returned=returned, mismatches=mismatches)
