"""Random MiniImp program generation and differential testing.

The generator builds programs that terminate by construction: every loop is
either a literal-bounded for or a counter-guarded while, indices are reduced
modulo the list length, and integer assignments wrap to a small range so no
arithmetic can overflow.

The randomness is the caller's ``np.random.Generator``, which must run on
``PCG64`` (``default_rng``'s).  The fuzzer reads its raw 64-bit words in
blocks and turns them into exactly the draws that numpy 2.4.6's
``Generator.integers`` and ``Generator.random`` would give (:class:`_Draws`).
So a seed gives the same programs and inputs as drawing through numpy.  The
fuzzer owns the generator from then on: a caller that draws between programs
draws from ``fuzzer.draws``, which continues numpy's stream.
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
    ReferenceTimeout,
    STATUS_BUDGET,
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


_BLOCK = 64  # raw words read at a time; a program takes about 70
_HALF = 0xFFFFFFFF


class _Draws:
    """numpy's random stream of a ``Generator`` on ``PCG64``, drawn from the
    bit generator's raw 64-bit words, :data:`_BLOCK` at a time.

    :meth:`integers` is numpy's ``Generator.integers`` (``int64``) for up to
    ``2**32`` values: Lemire's rejection on 32-bit draws, where a word gives
    its low half first and keeps its high half for the next 32-bit draw in
    ``uinteger`` (numpy's buffer, with its flag ``has_uint32``).
    :meth:`random` is ``Generator.random``: ``(word >> 11) * 2**-53``.
    The buffer is read from the generator's state once, on construction, and
    words are never given back: the generator runs up to a block ahead of the
    draws, so further draws in its stream come from here, not from it."""

    __slots__ = ("bitgen", "words", "has_uint32", "uinteger")

    def __init__(self, rng: np.random.Generator):
        bitgen = rng.bit_generator
        if type(bitgen) is not np.random.PCG64:
            raise TypeError("the fuzzer draws from a PCG64 generator, not %s" % type(bitgen).__name__)
        self.bitgen = bitgen
        state = bitgen.state
        self.has_uint32, self.uinteger = state["has_uint32"], state["uinteger"]
        self.words = []  # the words read and not used, last first

    def word(self) -> int:
        words = self.words
        if not words:
            words += self.bitgen.random_raw(_BLOCK)[::-1].tolist()
        return words.pop()

    def integers(self, low: int, high=None) -> int:
        """An int in ``[low, high)``, or in ``[0, low)`` without ``high``."""
        if high is None:
            low, high = 0, low
        span = high - low
        if span == 1:
            return low  # draws nothing
        if not 1 < span <= 1 << 32:
            raise ValueError("integers draws from 1 to 2**32 values, not %d" % span)
        threshold = (1 << 32) % span  # numpy's (UINT32_MAX - rng) % rng_excl
        while True:
            if self.has_uint32:
                self.has_uint32 = 0
                m = self.uinteger * span
            else:
                word = self.word()
                self.has_uint32, self.uinteger = 1, word >> 32
                m = (word & _HALF) * span
            if m & _HALF >= threshold:
                return low + (m >> 32)

    def random(self) -> float:
        """A float in ``[0, 1)``."""
        return (self.word() >> 11) * 2.0 ** -53


class ProgramFuzzer:
    """Deterministic random generator of terminating MiniImp programs."""

    def __init__(self, rng: np.random.Generator):
        self.draws = _Draws(rng)

    # --- expressions ---

    def int_expr(self, scope: _Scope, depth: int = 0):
        r = self.draws
        choices = ["lit", "lit"]
        if scope.int_vars:
            choices += ["var", "var", "var"]
        if depth < 2:
            choices += ["binop", "binop", "call"]
            if scope.list_vars:
                choices += ["len", "index"]
        kind = choices[r.integers(len(choices))]
        if kind == "lit":
            return _int_lit(r.integers(-20, 21))
        if kind == "var":
            return Var(scope.int_vars[r.integers(len(scope.int_vars))])
        if kind == "binop":
            op = ("+", "-", "*", "//", "%")[r.integers(5)]
            left = self.int_expr(scope, depth + 1)
            if op in ("//", "%"):
                # nonzero literal denominator rules out division by zero
                right = Literal(r.integers(2, 10))
            else:
                right = self.int_expr(scope, depth + 1)
            return BinOp(op, left, right)
        if kind == "call":
            fn = ("abs", "min", "max")[r.integers(3)]
            if fn == "abs":
                return Call("abs", (self.int_expr(scope, depth + 1),))
            return Call(fn, (self.int_expr(scope, depth + 1), self.int_expr(scope, depth + 1)))
        if kind == "len":
            return Call("len", (Var(self._pick(scope.list_vars)),))
        # guarded index read: i % len(l) is always in range (lists never shrink)
        name = self._pick(scope.list_vars)
        return Index(Var(name), BinOp("%", self.int_expr(scope, depth + 1), Call("len", (Var(name),))))

    def bool_expr(self, scope: _Scope, depth: int = 0):
        r = self.draws
        if depth < 1 and r.random() < 0.3:
            op = ("and", "or")[r.integers(2)]
            return BinOp(op, self.bool_expr(scope, depth + 1), self.bool_expr(scope, depth + 1))
        if depth < 1 and r.random() < 0.15:
            return UnaryOp("not", self.bool_expr(scope, depth + 1))
        cmp_op = ("==", "!=", "<", "<=", ">", ">=")[r.integers(6)]
        return BinOp(cmp_op, self.int_expr(scope, 1), self.int_expr(scope, 1))

    def float_expr(self, scope: _Scope):
        # floats never feed back into floats, so magnitudes stay finite
        r = self.draws
        if scope.float_vars and r.random() < 0.3:
            return Var(self._pick(scope.float_vars))
        return BinOp("/", self.int_expr(scope, 1), Literal(r.integers(2, 10)))

    def _pick(self, names: List[str]) -> str:
        return names[self.draws.integers(len(names))]

    # --- statements ---

    def statement(self, scope: _Scope, depth: int, in_loop: bool, allow_continue: bool):
        r = self.draws
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
        kind = choices[r.integers(len(choices))]

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
            items = tuple(_int_lit(r.integers(-9, 10)) for _ in range(r.integers(2, 6)))
            scope.list_vars.append(name)
            return [Assign(name, ListLit(items))]
        if kind == "set_assign":
            name = scope.fresh("s")
            items = tuple(_int_lit(r.integers(-5, 6)) for _ in range(r.integers(1, 5)))
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
            start = Literal(r.integers(0, 3))
            stop = Literal(r.integers(1, 7))
            step = Literal(r.integers(1, 3)) if r.random() < 0.3 else None
            body = self.block(scope, depth + 1, True, True)
            # zero-iteration ranges leave the loop var unbound afterwards
            scope.int_vars.remove(var)
            return [For(var, start, stop, step, body)]
        if kind == "while":
            # counter-guarded; continue is banned inside so the increment runs,
            # and the counter stays out of int_vars so nothing reassigns it
            counter = scope.fresh("c")
            bound = r.integers(2, 8)
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
        n = self.draws.integers(1, 4)
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
        r = self.draws
        n_params = r.integers(1, 4)
        params = tuple("p%d" % k for k in range(n_params))
        scope = _Scope(int_vars=list(params))
        body: List = []
        for _ in range(r.integers(2, MAX_STMTS + 1)):
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
        return [self.draws.integers(-20, 21) for _ in p.params]


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
    variable values, and check the full trajectory against the final map.
    A program on which the evaluator times out must exhaust the step budget."""
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
        except ReferenceTimeout:
            if rec.status != STATUS_BUDGET:
                mismatches.append("%s: reference timed out, step run %s" % (label, rec.status))
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
