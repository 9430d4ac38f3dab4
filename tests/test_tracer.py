"""Interpreter semantics: step accounting, final-value maps, error taxonomy,
and agreement with the independent big-step evaluator."""

import math

import numpy as np
import pytest

from semtrace.fuzz import ProgramFuzzer, differential_campaign
from semtrace.lang import parse_program
from semtrace.tracer import (
    E_DIV_ZERO,
    E_INDEX,
    E_NAN,
    E_OVERFLOW,
    E_TYPE,
    E_UNDEF,
    E_UNHASHABLE,
    STATUS_BUDGET,
    STATUS_ERROR,
    STATUS_RETURNED,
    MimRuntimeError,
    execute,
    final_values,
    reference_evaluate,
    trajectory_final_values,
)
from semtrace.values import MimSet, canonical_serialize, values_equal


def run(src, inputs, **kw):
    return execute(parse_program(src), inputs, **kw)


def test_identity(identity_program):
    rec = execute(identity_program, [5])
    assert rec.status == STATUS_RETURNED
    assert rec.return_value == 5
    assert rec.final_vars == {"x": 5}


def test_sum_program(sum_program):
    rec = execute(sum_program, [])
    assert rec.status == STATUS_RETURNED
    assert rec.return_value == 6
    assert rec.final_vars == {"t": 6, "i": 3}


def test_no_variable_program_has_empty_final_map():
    rec = run("fn k() { return 1 }", [])
    assert rec.final_vars == {}
    assert final_values(rec) == {}


def test_budget_exceeded_counts_completed_assignments():
    # 1 step for x=0, then alternating condition check / body assignment;
    # at budget 1000 exactly 499 assignments have completed
    rec = run("fn w() { x = 0 while true { x = x + 1 } }", [], budget=1000)
    assert rec.status == STATUS_BUDGET
    assert rec.return_value is None
    assert rec.final_vars == {"x": 499}
    assert rec.steps_used == 1000


def test_budget_monotonicity():
    for budget in (1, 7, 50, 333):
        rec = run("fn w() { x = 0 while true { x = x + 1 } }", [], budget=budget)
        assert rec.steps_used <= budget
        assert rec.status == STATUS_BUDGET
        assert rec.steps_used == budget


def test_arity_mismatch_rejected_before_execution(identity_program):
    with pytest.raises(ValueError):
        execute(identity_program, [1, 2])


@pytest.mark.parametrize(
    "src,inputs,kind",
    [
        ("fn f(a) { x = a // 0 return x }", [1], E_DIV_ZERO),
        ("fn f(a) { x = a % 0 return x }", [1], E_DIV_ZERO),
        ("fn f() { x = 1 / 0 return x }", [], E_DIV_ZERO),
        ("fn f(xs) { return xs[5] }", [[1, 2]], E_INDEX),
        ("fn f() { return y }", [], E_UNDEF),
        ("fn f(a) { return a + true }", [1], E_TYPE),
        ("fn f() { if 1 { x = 2 } return 0 }", [], E_TYPE),
        ("fn f() { x = 0.0 / 0.0 return x }", [], E_NAN),
        ("fn f() { x = inf - inf return x }", [], E_NAN),
        ("fn f() { s = {[1]} return s }", [], E_UNHASHABLE),
        ("fn f(a) { x = a * a return x }", [2**62], E_OVERFLOW),
    ],
)
def test_runtime_error_taxonomy(src, inputs, kind):
    rec = run(src, inputs)
    assert rec.status == STATUS_ERROR
    assert rec.error_kind == kind


def test_float_division_by_zero_gives_infinity():
    rec = run("fn f(a) { x = a / 0.0 return x }", [3.0])
    assert rec.return_value == math.inf
    rec = run("fn f(a) { x = a / 0.0 return x }", [-3.0])
    assert rec.return_value == -math.inf


def test_int_division_yields_float():
    rec = run("fn f() { x = 7 / 2 return x }", [])
    assert isinstance(rec.return_value, float)
    assert rec.return_value == 3.5


def test_mutation_advances_last_definition():
    src = "fn f() { xs = [1, 2] append(xs, 3) xs[0] = 9 return xs }"
    rec = run(src, [], mode="full")
    assert rec.final_vars["xs"] == [9, 2, 3]
    writes = [e for e in rec.trajectory if e.defined_variable == "xs"]
    assert len(writes) == 3  # initial, append, indexed assignment


def test_branch_not_taken_variable_absent():
    src = "fn f(a) { if a > 0 { b = 1 } else { c = 2 } return a }"
    rec = run(src, [5])
    assert "b" in rec.final_vars and "c" not in rec.final_vars


def test_summary_and_full_mode_agree(sum_program):
    fast = execute(sum_program, [], mode="summary")
    full = execute(sum_program, [], mode="full")
    assert fast.final_vars == full.final_vars
    assert fast.return_value == full.return_value
    assert trajectory_final_values(full, {}) == full.final_vars


def test_summary_mode_has_no_trajectory(sum_program):
    assert execute(sum_program, [], mode="summary").trajectory is None
    with pytest.raises(ValueError):
        trajectory_final_values(execute(sum_program, []), {})


def test_determinism(sum_program):
    a = execute(sum_program, [], mode="full")
    b = execute(sum_program, [], mode="full")
    assert a == b


def test_value_semantics_no_aliasing():
    # ys = xs must snapshot, not alias; later mutation of xs is invisible in ys
    src = "fn f() { xs = [1] ys = xs append(xs, 2) return ys }"
    rec = run(src, [])
    assert rec.return_value == [1]
    assert rec.final_vars["xs"] == [1, 2]


def test_set_literal_dedups_under_canonical_equality():
    rec = run("fn f() { s = {2, 2.0, 1} return len(s) }", [])
    assert rec.return_value == 2


def test_equal_int_and_float_set_members_keep_the_int_in_either_order():
    assert canonical_serialize(MimSet([2, 2.0])) == canonical_serialize(MimSet([2.0, 2])) == "[2]"
    program = parse_program("fn f() { s = {2.0, 2} return min(s) }")
    rec = execute(program, [])
    value, ref_vars = reference_evaluate(program, [])
    assert canonical_serialize(rec.return_value) == canonical_serialize(value) == "2"
    assert canonical_serialize(rec.final_vars["s"]) == canonical_serialize(ref_vars["s"]) == "[2]"


def test_equal_signed_zero_set_members_keep_the_positive_zero_in_either_order():
    assert canonical_serialize(MimSet([0.0, -0.0])) == canonical_serialize(MimSet([-0.0, 0.0])) == "[0.0]"
    assert canonical_serialize(MimSet([-0.0])) == "[-0.0]"  # a lone -0.0 keeps its sign
    assert canonical_serialize(MimSet([-0.0, 0, 0.0])) == "[0]"
    program = parse_program("fn f() { s = {-0.0, 0.0} x = 1 / min(s) return x }")
    rec = execute(program, [])
    value, _ = reference_evaluate(program, [])
    assert rec.return_value == value == math.inf


def test_break_continue_outside_loop_is_runtime_error():
    assert run("fn f() { break }", []).status == STATUS_ERROR
    assert run("fn f() { continue }", []).status == STATUS_ERROR


def test_reference_agrees_on_identity(identity_program):
    ret, finals = reference_evaluate(identity_program, [5])
    assert ret == 5 and finals == {"x": 5}


def test_reference_agrees_on_fixture_corpus():
    fixtures = [
        ("fn f(n) { t = 0 for i in range(1, n + 1) { t = t + i } return t }", [10]),
        ("fn f(xs) { s = {1} for i in range(0, len(xs)) { append(xs, 0) } return xs }", [[5]]),
        ("fn f(a, b) { while a < b { a = a + 2 } return a }", [0, 9]),
        ("fn f(x) { y = x / 0.0 return y }", [2.5]),
        ("fn f(t) { m = min(t, 0) n = max(t, 0) return m + n }", [-4]),
    ]
    for src, inputs in fixtures:
        p = parse_program(src)
        rec = execute(p, inputs)
        ret, finals = reference_evaluate(p, inputs)
        assert rec.status == STATUS_RETURNED
        assert values_equal(rec.return_value, ret)
        assert set(rec.final_vars) == set(finals)
        for k in finals:
            assert values_equal(rec.final_vars[k], finals[k])


def test_reference_error_taxonomy_matches():
    p = parse_program("fn f(a) { x = a // 0 return x }")
    with pytest.raises(MimRuntimeError) as exc:
        reference_evaluate(p, [1])
    assert exc.value.kind == E_DIV_ZERO


def test_differential_campaign_clean():
    result = differential_campaign(200, seed=99)
    assert result.ok
    assert result.returned >= 150


def test_fuzzer_programs_mostly_terminate():
    rng = np.random.default_rng(5)
    fuzzer = ProgramFuzzer(rng)
    ok = 0
    for _ in range(100):
        p = fuzzer.program()
        if execute(p, fuzzer.inputs_for(p)).status == STATUS_RETURNED:
            ok += 1
    assert ok >= 95
