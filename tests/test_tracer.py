"""Interpreter semantics: step accounting, final-value maps, error taxonomy,
copy-on-write lists, and agreement with the tree-walking interpreter and the
independent big-step evaluator."""

import copy
import math
from operator import itemgetter

import numpy as np
import pytest

from semtrace import tracer
from semtrace.fuzz import ProgramFuzzer, differential_campaign
from semtrace.lang import Loc, format_program, parse_program
from semtrace.tracer import (
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
    MimRuntimeError,
    StepEvent,
    execute,
    final_values,
    reference_evaluate,
    trajectory_final_values,
)
from semtrace.values import MimSet, canonical_serialize, values_equal
from grammar_programs import grammar_programs
from tree_walker import tree_walk_execute, tree_walk_records

MODES = ("summary", "full")


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


def test_int_min_literal_is_int_min_in_both_evaluators():
    program = parse_program("fn f() { x = -9223372036854775808 return x }")
    rec = execute(program, [])
    value, finals = reference_evaluate(program, [])
    assert rec.status == STATUS_RETURNED
    assert rec.return_value == rec.final_vars["x"] == value == finals["x"] == -(2**63)
    # negating it again overflows in both
    program = parse_program("fn f() { x = --9223372036854775808 return x }")
    assert execute(program, []).error_kind == E_OVERFLOW
    with pytest.raises(MimRuntimeError) as exc:
        reference_evaluate(program, [])
    assert exc.value.kind == E_OVERFLOW


def test_reference_error_taxonomy_matches():
    p = parse_program("fn f(a) { x = a // 0 return x }")
    with pytest.raises(MimRuntimeError) as exc:
        reference_evaluate(p, [1])
    assert exc.value.kind == E_DIV_ZERO


def test_differential_campaign_clean():
    result = differential_campaign(200, seed=99)
    assert result.ok
    assert result.returned >= 150


@pytest.mark.parametrize(
    "src,status",
    [("fn f(a) { while true { a = a + 0 } return a }", STATUS_BUDGET),
     ("fn f(a) { n = 0 while n < 200 { n = n + 1 } return n }", STATUS_RETURNED),
     ("fn f(a) { n = 0 while n < 200 { n = n + 1 } return n // 0 }", STATUS_ERROR)],
    ids=["budget", "returned", "error"],
)
def test_differential_campaign_agrees_with_a_reference_timeout_only_on_a_budget_overrun(monkeypatch, src, status):
    """The reference evaluator times out on each program; only the step run
    that exhausts its budget agrees with that, and the campaign goes on."""
    monkeypatch.setattr(tracer, "_REF_CAP", 100)
    monkeypatch.setattr(ProgramFuzzer, "program", lambda self: parse_program(src))
    result = differential_campaign(2, seed=1)
    assert result.total == 2 and result.returned == 0
    assert result.mismatches == ([] if status == STATUS_BUDGET else
                                 ["program %d: reference timed out, step run %s" % (k, status) for k in range(2)])


def test_fuzzer_programs_mostly_terminate():
    rng = np.random.default_rng(5)
    fuzzer = ProgramFuzzer(rng)
    ok = 0
    for _ in range(100):
        p = fuzzer.program()
        if execute(p, fuzzer.inputs_for(p)).status == STATUS_RETURNED:
            ok += 1
    assert ok >= 95


# --- the compiled interpreter against the tree walker it replaced ---


def exact(v):
    """A value with its exact types: 2 and 2.0, a list and a set, 0.0 and
    -0.0 all differ."""
    if isinstance(v, list):
        return ("list", [exact(x) for x in v])
    if isinstance(v, MimSet):
        return ("set", [exact(x) for x in v])
    return (type(v).__name__, repr(v))


_HEAD, _WRITTEN = itemgetter(0, 1, 2), itemgetter(3)


def exact_events(events):
    """``events`` in a form whose ``==`` is the type-exact equality of
    ``exact``: the step, loc and variable of each event, then each value
    written as its ``repr``.  A value's ``repr`` tells 2 from 2.0, True from
    1, a list from a set (``MimSet([...])``) and 0.0 from -0.0, writes every
    NaN as ``nan``, and quotes a string, so two values have the same ``repr``
    exactly when they have the same ``exact`` form."""
    return None if events is None else (list(map(_HEAD, events)), list(map(repr, map(_WRITTEN, events))))


def record_fields(rec):
    """The record's fields, with exact values."""
    return (
        rec.status,
        exact(rec.return_value),
        [(name, exact(v)) for name, v in rec.final_vars.items()],
        rec.steps_used,
        rec.error_kind,
        rec.error_loc,
        exact_events(rec.trajectory),
    )


def assert_matches_tree_walker(program, inputs):
    """Both interpreters agree field for field, in both modes, at every
    budget from 1 to one past the steps the program needs; the inputs are
    left as they were."""
    assert_matches_at(program, inputs, range(1, tree_walk_execute(program, inputs).steps_used + 2))


def assert_matches_at(program, inputs, budgets):
    snapshot = exact(inputs)
    for budget, mode, want in tree_walk_records(program, inputs, budgets):
        got = execute(program, inputs, budget=budget, mode=mode)
        assert record_fields(got) == record_fields(want), (budget, mode)
    assert exact(inputs) == snapshot


def test_exact_events_are_as_strict_as_exact():
    """Values written that ``==`` calls equal but whose types or signs
    differ give events that differ, and a NaN equals a NaN, as in ``exact``."""
    nan = float("inf") - float("inf")

    def written(value):
        return exact_events([StepEvent(1, Loc(1, 5), "x", value)])

    differ = [(2, 2.0), (True, 1), (False, 0), ([1], MimSet([1])), (0.0, -0.0), ([2], [2.0]), ([[0.0]], [[-0.0]]),
              (MimSet([2]), MimSet([2.0])), ("1", 1), (None, "None")]
    for a, b in differ:
        assert exact(a) != exact(b) and written(a) != written(b), (a, b)
    for a, b in [(nan, float("nan")), ([nan], [-nan]), (MimSet([1, "a"]), MimSet(["a", 1]))]:
        assert exact(a) == exact(b) and written(a) == written(b), (a, b)
    other_loc, other_step = StepEvent(1, Loc(1, 6), "x", 1), StepEvent(2, Loc(1, 5), "x", 1)
    assert written(1) != exact_events([other_loc]) and written(1) != exact_events([other_step])


def wrong_type(value, draws):
    """A value of another type than ``value``, picked with ``draws``, to
    drive programs into their runtime-error paths."""
    options = [0, -3, 2.5, -0.0, float("inf"), True, "ab", None, [], [1, [2]], MimSet([1, 2])]
    options = [o for o in options if type(o) is not type(value)]
    return copy.deepcopy(options[draws.integers(len(options))])


def test_compiled_interpreter_matches_tree_walker_on_fuzzed_programs():
    check_fuzzed_programs()


def check_fuzzed_programs():
    """30 fuzzed programs on their inputs, then on a wrong-typed input."""
    fuzzer = ProgramFuzzer(np.random.default_rng(2024))
    for _ in range(30):
        program = fuzzer.program()
        inputs = fuzzer.inputs_for(program)
        assert_matches_tree_walker(program, inputs)
        if inputs:
            k = fuzzer.draws.integers(len(inputs))
            inputs[k] = wrong_type(inputs[k], fuzzer.draws)
            assert_matches_tree_walker(program, inputs)


ERROR_PROGRAMS = [
    ("fn f(a) { x = 1 y = a // 0 return y }", [1], E_DIV_ZERO),
    ("fn f(a) { x = 1 y = a % 0 return y }", [1], E_DIV_ZERO),
    ("fn f(a) { x = 1 / a return x }", [0], E_DIV_ZERO),
    ("fn f(xs) { t = 0 for i in range(0, 5) { t = t + xs[i] } return t }", [[1, 2]], E_INDEX),
    ("fn f(xs) { xs[2] = 1 return xs }", [[1, 2]], E_INDEX),
    ("fn f(s) { c = s[3] return c }", ["ab"], E_INDEX),
    ("fn f() { x = 1 return y }", [], E_UNDEF),
    ("fn f() { append(ys, 1) return 0 }", [], E_UNDEF),
    ("fn f() { ys[0] = 1 return 0 }", [], E_UNDEF),
    ("fn f(a) { x = a + true return x }", [1], E_TYPE),
    ("fn f(a) { x = a < \"b\" return x }", [1], E_TYPE),
    ("fn f(a) { x = a // 2.0 return x }", [1], E_TYPE),
    ("fn f(a) { x = -a return x }", ["s"], E_TYPE),
    ("fn f(a) { x = not a return x }", [1], E_TYPE),
    ("fn f(a) { x = a and true return x }", [1], E_TYPE),
    ("fn f(a) { x = false or a return x }", [1], E_TYPE),
    ("fn f(a) { x = a[0] return x }", [5], E_TYPE),
    ("fn f(xs) { x = xs[true] return x }", [[1]], E_TYPE),
    ("fn f(a) { append(a, 1) return a }", [3], E_TYPE),
    ("fn f(a) { a[0] = 1 return a }", ["s"], E_TYPE),
    ("fn f(xs) { xs[1.0] = 1 return xs }", [[1, 2]], E_TYPE),
    ("fn f(a) { n = len(a) return n }", [3], E_TYPE),
    ("fn f(a) { n = abs(a) return n }", ["s"], E_TYPE),
    ("fn f(a) { n = min(a) return n }", [[]], E_TYPE),
    ("fn f(a) { n = max(a, \"s\") return n }", [1], E_TYPE),
    ("fn f(a) { if a { x = 1 } return 0 }", [1], E_TYPE),
    ("fn f(a) { while a { a = 0 } return a }", [1], E_TYPE),
    ("fn f(a) { t = 0 for i in range(0, a) { t = t + i } return t }", [1.5], E_TYPE),
    ("fn f(a) { t = 0 for i in range(0, len(a)) { t = t + i } return t }", [3], E_TYPE),
    ("fn f(a) { t = 0 for i in range(0, 5 // a) { t = t + i } return t }", [0], E_DIV_ZERO),
    ("fn f(a) { t = 0 for i in range(a, 3, 1) { t = t + i } return t }", [True], E_TYPE),
    ("fn f(a) { t = 0 for i in range(0, 3, a) { t = t + i } return t }", [0], E_RANGE),
    ("fn f(a) { t = 0 for i in range(0, 3, a) { t = t + i } return t }", ["s"], E_TYPE),
    ("fn f(a) { x = 1 break }", [1], E_TYPE),
    ("fn f(a) { x = 1 if a > 0 { continue } return x }", [1], E_TYPE),
    ("fn f(a) { x = a * a return x }", [2**62], E_OVERFLOW),
    ("fn f(a) { x = -a return x }", [-(2**63)], E_OVERFLOW),
    ("fn f(a) { x = abs(a) return x }", [-(2**63)], E_OVERFLOW),
    ("fn f(a) { x = a // -1 return x }", [-(2**63)], E_OVERFLOW),
    ("fn f(a) { s = {1, a} return s }", [[1]], E_UNHASHABLE),
    ("fn f() { s = {1, null} return s }", [], E_UNHASHABLE),
    ("fn f(a) { x = a - inf return x }", [float("inf")], E_NAN),
    ("fn f(a) { x = a / 0.0 return x }", [0], E_NAN),
    ("fn f(a) { x = a * 0 return x }", [float("-inf")], E_NAN),
    # an unbound variable read in each position its parent reads in place,
    # and in the positions read through a closure
    ("fn f(a) { x = y + a return x }", [1], E_UNDEF),
    ("fn f(a) { x = a * y return x }", [1], E_UNDEF),
    ("fn f(a) { x = y < 1 return x }", [1], E_UNDEF),
    ("fn f(a) { x = 1 >= y return x }", [1], E_UNDEF),
    ("fn f(a) { x = a[0] + y return x }", [[1]], E_UNDEF),
    ("fn f(a) { x = ys[0] return x }", [1], E_UNDEF),
    ("fn f(a) { x = a[k] return x }", [[1]], E_UNDEF),
    ("fn f(a) { x = a[k + 1] return x }", [[1]], E_UNDEF),
    ("fn f(a) { n = len(ys) return n }", [1], E_UNDEF),
    ("fn f(a) { x = a < len(ys) return x }", [1], E_UNDEF),
    ("fn f(a) { x = 1 if c { x = 2 } return x }", [1], E_UNDEF),
    ("fn f(a) { x = 1 while x < n { x = x + 1 } return x }", [1], E_UNDEF),
    ("fn f(a) { t = 0 for i in range(s, 3) { t = t + i } return t }", [1], E_UNDEF),
    ("fn f(a) { t = 0 for i in range(0, n) { t = t + i } return t }", [1], E_UNDEF),
    ("fn f(a) { t = 0 for i in range(0, 3, k) { t = t + i } return t }", [1], E_UNDEF),
    ("fn f(a) { x = 1 return y + x }", [1], E_UNDEF),
    ("fn f(xs) { xs[k] = 1 return xs }", [[1, 2]], E_UNDEF),
    ("fn f(xs) { xs[0] = y return xs }", [[1, 2]], E_UNDEF),
    ("fn f(xs) { xs[0] = xs[1] - y return xs }", [[1, 2]], E_UNDEF),
    ("fn f(xs) { append(xs, y) return xs }", [[1, 2]], E_UNDEF),
    ("fn f(a) { x = [1, y] return x }", [1], E_UNDEF),
    ("fn f(a) { s = {1, y} return s }", [1], E_UNDEF),
    ("fn f(a) { n = min(a, y) return n }", [1], E_UNDEF),
    ("fn f(a) { x = true and y return x }", [1], E_UNDEF),
    ("fn f(a) { x = y or true return x }", [1], E_UNDEF),
    ("fn f(a) { x = -y return x }", [1], E_UNDEF),
    ("fn f(a) { x = not y return x }", [1], E_UNDEF),
    ("fn f(a) { x = y return x }", [1], E_UNDEF),
    ("fn f(xs) { t = 0 for i in range(0, 3) { t = t + xs[i] if i == 2 { t = t + y } } return t }", [[1, 2, 3]],
     E_UNDEF),
    ("fn f(xs) { j = 0 out = xs while j < len(out) { out[j] = out[j] + 1 j = j + 1 append(out, w) } }", [[1]], E_UNDEF),
]


# The shapes of the cold tier, which lowers one node deep: each statement
# with a generated step (a definition, an if or while condition, a return)
# over each operand form, an atom alone or an operator, index or len node
# over atoms.  Run on inputs that reach the fragments' fast and slow paths,
# then with ``a`` wrong-typed.
# a variable, a literal, and four nodes that are closure calls below a node
COLD_ATOMS = ["a", "1", "(-b)", "[a]", "(p and q)", "min(a, b)"]
COLD_STATEMENTS = [
    "x = {} return x",
    "append(xs, {}) return xs",
    "xs[{}] = 7 return xs",
    "xs[0] = {} return xs",
    "if {} {{ x = 1 }} else {{ x = 2 }} return x",
    "n = 0 while {} {{ n = n + 1 if n == 2 {{ return n }} }} return n",
    "return {}",
]
# Every variant of the generated control flow: an if with an empty block, a
# loop body that reads the operand or holds an if of a jump, and a jump
# outside any loop.  An empty while body is reached only when its condition
# is not true, so that it ends.
COLD_STATEMENTS += [
    "if {} {{ a = 7 }} return a",
    "if {0} {{ }} else {{ a = 7 }} if {0} {{ }} return a",
    "if ({0}) == true {{ a = 7 }} else {{ while {0} {{ }} }} return a",
    "for i in range(0, 2) {{ x = {} }} return x",
    "n = 0 while n < 3 {{ n = n + 1 if {} {{ break }} }} return n",
    "n = 0 while n < 3 {{ n = n + 1 if {} {{ continue }} a = n }} return a",
    "n = 0 while n < 3 {{ n = n + 1 if {} {{ return n }} }} return a",
    "n = 0 for i in range(0, 3) {{ n = i if {} {{ break }} }} return n",
    "n = 0 for i in range(0, 3) {{ if {} {{ continue }} n = n + i }} return n",
    "n = 0 for i in range(0, 3) {{ if {} {{ return i }} n = i }} return n",
    "if {} {{ break }} else {{ continue }} return 0",
]
COLD_INPUTS = [[1, 0, True, False, [4, 5, 6]], ["s", 0, True, False, [4, 5, 6]]]


def cold_programs(singles, pairs):
    """A program for each statement and each form: a single atom, ``+`` (``==``
    in a condition, so that it can hold), an index or ``len``."""
    programs = []
    for stmt in COLD_STATEMENTS:
        op = "==" if stmt.startswith(("if", "n = 0")) else "+"
        forms = (singles + ["%s %s %s" % (x, op, y) for x, y in pairs] + ["%s[%s]" % (x, y) for x, y in pairs]
                 + ["len(%s)" % x for x in singles])
        programs += ["fn f(a, b, p, q, xs) { %s }" % stmt.format(form) for form in forms]
    return programs


# an unbound variable in each operand position of each cold-tier shape, read
# in place or through a closure
UNBOUND_ATOMS = ["u", "(-u)", "[u]", "(p and u)", "min(u, b)"]
ERROR_PROGRAMS += [(src, COLD_INPUTS[0], E_UNDEF) for src in cold_programs(
    UNBOUND_ATOMS, [(u, "1") for u in UNBOUND_ATOMS] + [("1", u) for u in UNBOUND_ATOMS])]

# An unbound variable read left of an operand that raises, in a loop of 40
# values, which runs on its kernel: the read comes first, so the error is
# undefined_variable.  The unbound variable is a binary operator's left
# operand or an index's base.  The operand to its right is a fragment that
# needs lines of its own in a kernel: an index, an operator over a set
# literal, or a set or list literal alone (on closures, a closure call).
# Each sits in each place of a loop body.
UNBOUND_LEFT = ["u + R", "u[R]"]
RAISING_RIGHT = ["ys[5]", "(5 - {1, 2})", "[1][5]", "{ys}", "[ys[5]]"]
KERNEL_PLACES = [
    "for i in range(0, 40) { n = n + 1 b = E }",
    "for i in range(0, 40) { n = n + 1 ys[E] = 1 }",
    "for i in range(0, 40) { n = n + 1 ys[0] = E }",
    "for i in range(0, 40) { n = n + 1 append(ys, E) }",
    "for i in range(0, 40) { n = n + 1 if E == 0 { b = 1 } }",
    "while E == 0 { n = n + 1 }",
]
UNBOUND_FIRST = ["fn f(ys) { for i in range(0, 40) { b = xs + ys[5] } return ys }"] + [
    "fn f(ys) { n = 0 %s return n }" % place.replace("E", left.replace("R", right))
    for place in KERNEL_PLACES for left in UNBOUND_LEFT for right in RAISING_RIGHT]
ERROR_PROGRAMS += [(src, [[1]], E_UNDEF) for src in UNBOUND_FIRST]

# Semantics that no fuzzed program reaches: a negative index reads and writes
# nothing, and a float operation that makes NaN fails there.  Each in a loop
# of 3 values, which runs on closures at the default HOT.
EDGE_CASES = [(stmt, E_INDEX) for stmt in ("x = xs[-1]", "x = xs[0 - 1]", "x = xs[a]", "x = xs[a - 3]",
                                           "x = s[-1]", "x = s[a]", "xs[-1] = 7", "xs[a] = 7", "xs[0 - 3] = 7")]
EDGE_CASES += [("s[a] = 7", E_TYPE)]  # a string is never written
EDGE_CASES += [(stmt, E_NAN) for stmt in ("x = inf / inf", "x = -inf / inf", "x = inf * 0.0", "x = b / b",
                                          "x = -b / b", "x = b * 0.0")]
ERROR_PROGRAMS += [("fn f(xs, s, a, b) { n = 0 for i in range(0, 3) { n = n + 1 %s } return n }" % stmt,
                    [[4, 5, 6], "abc", -1, float("inf")], kind) for stmt, kind in EDGE_CASES]


@pytest.mark.parametrize("src,inputs,kind", ERROR_PROGRAMS)
def test_reference_evaluator_raises_every_error_kind(src, inputs, kind):
    with pytest.raises(MimRuntimeError) as exc:
        reference_evaluate(parse_program(src), inputs)
    assert exc.value.kind == kind


@pytest.mark.parametrize("src,inputs,kind", ERROR_PROGRAMS)
def test_compiled_interpreter_matches_tree_walker_on_every_error_kind(src, inputs, kind):
    program = parse_program(src)
    rec = execute(program, inputs)
    assert rec.status == STATUS_ERROR and rec.error_kind == kind
    assert rec.error_loc is not None
    assert_matches_tree_walker(program, inputs)


NON_ADVANCING = "fn f(out) { j = 0 while j < len(out) { out[j] = out[j] + 5 j = j } return out }"


def test_non_advancing_loop_matches_tree_walker_at_small_budgets():
    """The loop never ends, so every budget runs out; each pass writes one
    owned list in place, which full mode's events copy."""
    program = parse_program(NON_ADVANCING)
    inputs = [[1, 2, 3]]
    for budget in range(1, 61):
        for mode in MODES:
            got = execute(program, inputs, budget=budget, mode=mode)
            want = tree_walk_execute(program, inputs, budget=budget, mode=mode)
            assert record_fields(got) == record_fields(want), (budget, mode)
            assert got.status == STATUS_BUDGET
    assert inputs == [[1, 2, 3]]


CONTROL_FLOW = [
    ("fn f(n) { i = 0 while true { i = i + 1 if i > n { break } if i % 2 == 0 { continue } } return i }", [7]),
    ("fn f(n) { t = 0 for i in range(n, 0, -2) { if i == 3 { continue } t = t + i } return t }", [9]),
    ("fn f(xs) { ys = [] for i in range(0, len(xs)) { append(ys, xs[i] * 2) ys[0] = i } return ys }", [[4, 5, 6]]),
    ("fn f(s) { t = s + \"!\" b = t >= s c = {t, s, 1, 1.0, true} return [b, c, len(c)] }", ["ab"]),
    ("fn f(a) { x = a / 4 y = -x z = {0.0, -0.0} return [x, y, min(z), max(y, x)] }", [-2]),
    ("fn f(a) { x = a == 2.0 y = [a] != [2] return x and y or not x }", [2]),
    ("fn f() { xss = [[1]] ys = xss[0] append(ys, 2) append(xss, ys) xss[0] = xss return xss }", []),
    ("fn f(n) { while n > 0 { n = n - 1 } }", [4]),
    ("fn f() { a = -0.0 b = --3 c = -inf d = -\"s\" return [a, b, c, d] }", []),
]


COLD_SHAPES = [(src, inputs) for src in cold_programs(COLD_ATOMS, [(x, y) for x in COLD_ATOMS for y in COLD_ATOMS])
               for inputs in COLD_INPUTS]
CONTROL_FLOW += COLD_SHAPES

# Loops whose kernels keep variables apart from the environment: one list
# under two names, a variable first defined in the body (in straight-line
# code and inside an if), a variable read before it is assigned in the same
# iteration while unbound at entry, and min, abs and a negation of variables
# that the body writes.
KERNEL_LOCALS = [
    "fn f(xs) { append(xs, 0) ys = xs for k in range(0, 4) { append(xs, k) ys[0] = k append(ys, xs[1]) } "
    "return [xs, ys] }",
    "fn f(xs) { xs = [1] append(xs, 2) ys = xs k = 0 while k < 4 { xs[0] = k append(ys, k) ys[1] = xs[0] k = k + 1 } "
    "return [xs, ys] }",
    "fn f(xs) { ys = [] for k in range(0, 4) { ys = xs append(ys, k) xs[0] = k } return [xs, ys] }",
    "fn f(xs) { ys = [] k = 0 while k < 4 { append(xs, k) ys = xs ys[0] = k append(xs, ys[1]) k = k + 1 } "
    "return [xs, ys] }",
    "fn f(xs) { for k in range(0, 4) { a = k b = a + 1 } return [a, b] }",
    "fn f(xs) { k = 0 while k < 4 { a = k b = a + 1 k = k + 1 } return [a, b] }",
    "fn f(xs) { for k in range(0, 4) { if k > 0 { b = k } a = k } return [a, b] }",
    "fn f(xs) { k = 0 while k < 4 { if k == 0 { b = k } a = k k = k + 1 } return [a, b] }",
    "fn f(xs) { k = 0 while k < 4 { if k == 2 { b = k } a = k k = k + 1 } return [a, b] }",
    "fn f(xs) { for k in range(0, 4) { if k > 0 { c = c + k } c = k } return c }",
    "fn f(xs) { k = 0 while k < 4 { k = k + 1 if k > 2 { d = d + 1 } d = k } return d }",
    "fn f(xs) { for k in range(0, 4) { c = c + k c = k } return c }",
    "fn f(xs) { k = 0 while k < 4 { if k > 0 { append(zs, k) } zs = [] k = k + 1 } return zs }",
    "fn f(xs) { t = 0 for k in range(0, 5) { t = t + k m = min(t, 6) n = abs(m - 9) } return [t, m, n] }",
    "fn f(xs) { t = 1 k = 0 while k < 5 { t = t + k u = -t k = k + 1 } return [t, u] }",
    "fn f(xs) { for k in range(0, 4) { append(xs, k) m = min(xs) n = max(m, k) } return [xs, m, n] }",
]
CONTROL_FLOW += [(src, [[5, 6]]) for src in KERNEL_LOCALS]

# Jumps in a kernel: a 40-value for or a 40-iteration while around an inner
# loop that breaks or continues, a return from an inner loop after writing a
# variable bound at entry (t) and one first defined in the body (u), an outer
# break after an inner loop, and loops three deep.
KERNEL_JUMPS = [
    "fn f(xs) { t = 0 for i in range(0, 40) { for j in range(0, 5) { if j > i % 4 { break } t = t + j } } return t }",
    "fn f(xs) { t = 0 i = 0 while i < 40 { i = i + 1 j = 0 while j < 5 { j = j + 1 if j == i % 5 { continue } "
    "t = t + j } } return t }",
    "fn f(xs) { t = 0 for i in range(0, 40) { j = 0 while true { j = j + 1 if j > 2 { break } } if i % 3 == 0 { continue } "
    "t = t + i } return [t, j] }",
    "fn f(xs) { t = 0 for i in range(0, 40) { u = i * 2 for j in range(0, 3) { t = t + j if t > 50 { return [t, u, j] } } } "
    "return t }",
    "fn f(xs) { t = 0 i = 0 while i < 40 { i = i + 1 u = [i] k = 0 while k < 3 { k = k + 1 append(xs, k) t = t + k "
    "if i == 30 { return [t, u, xs] } } } return t }",
    "fn f(xs) { t = 0 for i in range(0, 40) { for j in range(0, 3) { t = t + j } if t > 40 { break } } return [t, i] }",
    "fn f(xs) { t = 0 i = 0 while i < 40 { i = i + 1 for j in range(0, i) { t = t + 1 } if t > 100 { break } } "
    "return [t, i] }",
    "fn f(xs) { t = 0 for i in range(0, 40) { j = 0 while j < 3 { j = j + 1 for k in range(0, j) { if k == 1 { continue } "
    "if t > 200 { break } t = t + k + 1 } } } return [t, i, j] }",
    "fn f(xs) { t = 0 i = 0 while i < 40 { i = i + 1 for j in range(0, 2) { for k in range(0, 2) { t = t + i * j + k "
    "if t > 1000 { return [t, i, j, k] } } } } return t }",
]
CONTROL_FLOW += [(src, [[5, 6]]) for src in KERNEL_JUMPS]

# A left operand that decides an and or an or, whose right operand raises if
# it is read: an index out of range, a zero divisor, an unbound variable.
# Each in each place of a loop body and in a statement outside any loop.
SHORT_CIRCUIT = ["false and ys[9]", "true or 1 // 0", "p or u", "not p and u"]
CONTROL_FLOW += [("fn f(ys, p) { n = 0 %s return n }" % place.replace("E", "(%s)" % e), [[1], True])
                 for place in KERNEL_PLACES for e in SHORT_CIRCUIT]
CONTROL_FLOW += [("fn f(ys, p) { b = %s return b }" % e, [[1], True]) for e in SHORT_CIRCUIT]

# An empty list and a builtin called with no arguments, alone and below each
# cold-tier statement's top node, where on closures each is a closure of no
# operands, and inline in a set or builtin call of their own.
NO_OPERANDS = ["xs == []", "[[]]", "[1, []]", "len([])", "a + []", "[][[]]", "{[]}",
               "min()", "max()", "abs()", "len()"]
CONTROL_FLOW += [("fn f(a, b, p, q, xs) { %s }" % stmt.format(e), COLD_INPUTS[0])
                 for stmt in COLD_STATEMENTS for e in NO_OPERANDS]


@pytest.mark.parametrize("src,inputs", CONTROL_FLOW)
def test_compiled_interpreter_matches_tree_walker_on_control_flow_and_values(src, inputs):
    assert_matches_tree_walker(parse_program(src), inputs)


def test_records_from_one_walk_are_those_of_separate_walks():
    """What ``assert_matches_at`` compares ``execute`` with, the tree
    walker's records at many budgets from one walk, is a separate walk's
    record at each budget and in each mode: on loops that jump, on runtime
    errors, and on a loop that never ends."""
    cases = []
    sample = [(src, [[5, 6]]) for src in KERNEL_JUMPS] + [(src, inputs) for src, inputs, _ in ERROR_PROGRAMS[::4]]
    for src, inputs in sample:
        program = parse_program(src)
        steps = tree_walk_execute(program, inputs).steps_used
        cases.append((program, inputs, [1, 2, steps // 3, steps // 2, steps - 1, steps, steps + 1]))
    cases.append((parse_program(NON_ADVANCING), [[1, 2, 3]], [*range(1, 61), 2000]))
    for program, inputs, budgets in cases:
        for budget, mode, record in tree_walk_records(program, inputs, sorted({b for b in budgets if b >= 1})):
            want = tree_walk_execute(program, inputs, budget=budget, mode=mode)
            assert record_fields(record) == record_fields(want), (format_program(program), budget, mode)


# --- copy-on-write lists keep value semantics ---


def final(src, inputs, mode):
    rec = execute(parse_program(src), inputs, mode=mode)
    assert rec.status == STATUS_RETURNED
    return rec


@pytest.mark.parametrize("mode", MODES)
def test_copy_then_append_leaves_the_copy(mode):
    rec = final("fn f() { xs = [] append(xs, 0) ys = xs append(xs, 1) return ys }", [], mode)
    assert rec.return_value == [0] and rec.final_vars["xs"] == [0, 1]


@pytest.mark.parametrize("mode", MODES)
def test_list_literal_item_is_not_changed_by_an_indexed_write(mode):
    rec = final("fn f() { xs = [1] append(xs, 2) zs = [xs] xs[0] = 9 return zs }", [], mode)
    assert rec.return_value == [[1, 2]] and rec.final_vars["xs"] == [9, 2]


@pytest.mark.parametrize("mode", MODES)
def test_append_a_list_to_itself(mode):
    rec = final("fn f() { xs = [1] append(xs, 2) append(xs, xs) append(xs, 3) return xs }", [], mode)
    assert rec.return_value == [1, 2, [1, 2], 3]


@pytest.mark.parametrize("mode", MODES)
def test_append_to_an_element_read_leaves_the_outer_list(mode):
    rec = final("fn f() { xss = [[1]] append(xss, [2]) ys = xss[0] append(ys, 5) return xss }", [], mode)
    assert rec.return_value == [[1], [2]] and rec.final_vars["ys"] == [1, 5]


@pytest.mark.parametrize("mode", MODES)
def test_input_lists_are_not_mutated(mode):
    xs, xss = [1, 2], [[3], [4]]
    src = "fn f(xs, xss) { append(xs, 5) xs[0] = 6 ys = xss[1] append(ys, 7) xss[0] = ys append(xss, xs) return xss }"
    rec = final(src, [xs, xss], mode)
    assert xs == [1, 2] and xss == [[3], [4]]
    assert rec.return_value == [[4, 7], [4], [6, 2, 5]]


@pytest.mark.parametrize("mode", MODES)
def test_returned_list_is_not_changed_by_its_variable(mode):
    rec = final("fn f() { xs = [] append(xs, 1) ys = [xs, xs] append(xs, 2) return ys }", [], mode)
    assert rec.return_value == [[1], [1]] and rec.final_vars["xs"] == [1, 2]


def test_full_mode_events_keep_the_value_written():
    rec = final("fn f() { xs = [] append(xs, 1) append(xs, 2) xs[0] = 9 return xs }", [], "full")
    written = [e.value_written for e in rec.trajectory if e.defined_variable == "xs"]
    assert written == [[], [1], [1, 2], [9, 2]]


# --- hot loops run on kernels, which must match the tree walker too ---


@pytest.fixture(params=[0, 1], ids=["hot0", "hot1"])
def promoted(request, monkeypatch):
    """Every loop runs on its kernel from its head (``HOT`` 0), or (``HOT`` 1) a
    ``for`` over two or more values from its head and a ``while`` loop after
    one iteration on closures."""
    monkeypatch.setattr(tracer, "HOT", request.param)


@pytest.mark.parametrize("src,inputs,kind", ERROR_PROGRAMS)
def test_kernels_match_tree_walker_on_every_error_kind(promoted, src, inputs, kind):
    assert_matches_tree_walker(parse_program(src), inputs)


@pytest.mark.parametrize("src,inputs", CONTROL_FLOW)
def test_kernels_match_tree_walker_on_control_flow_and_values(promoted, src, inputs):
    assert_matches_tree_walker(parse_program(src), inputs)


def test_kernels_match_tree_walker_on_the_non_advancing_loop(promoted):
    assert_matches_at(parse_program(NON_ADVANCING), [[1, 2, 3]], [*range(1, 61), 2000])


def test_kernels_match_tree_walker_on_fuzzed_programs(promoted):
    check_fuzzed_programs()


def test_differential_campaign_clean_on_kernels(promoted):
    result = differential_campaign(200, seed=7)
    assert result.ok, result.mismatches[:5]


# the programs of the copy-on-write tests, each inside a loop
COPY_ON_WRITE = [
    ("fn f() { xs = [] for k in range(0, 3) { append(xs, k) ys = xs append(xs, 1) } return ys }", []),
    ("fn f() { xs = [1] zs = [] k = 0 while k < 3 { append(xs, 2) zs = [xs] xs[0] = 9 k = k + 1 } return zs }", []),
    ("fn f() { xs = [1] for k in range(0, 3) { append(xs, 2) append(xs, xs) append(xs, 3) } return xs }", []),
    ("fn f() { xss = [[1]] for k in range(0, 3) { append(xss, [k]) ys = xss[0] append(ys, 5) } return [xss, ys] }", []),
    ("fn f(xs, xss) { for k in range(0, 3) { append(xs, 5) xs[0] = 6 ys = xss[1] append(ys, 7) xss[0] = ys "
     "append(xss, xs) } return xss }", [[1, 2], [[3], [4]]]),
    ("fn f() { xs = [] ys = [] for k in range(0, 3) { append(xs, k) ys = [xs, xs] append(xs, 2) } return ys }", []),
    ("fn f() { xs = [] for k in range(0, 3) { append(xs, 1) append(xs, 2) xs[0] = 9 } return xs }", []),
]


@pytest.mark.parametrize("src,inputs", COPY_ON_WRITE)
def test_kernels_match_tree_walker_on_copy_on_write(promoted, src, inputs):
    assert_matches_tree_walker(parse_program(src), inputs)


# Loops that fail, or carry other values than ints, after 18 iterations: on
# their kernel at the default HOT too.  LATE puts a statement in the 19th.
LATE = "fn f(xs, a) {{ i = 0 x = 0 while i < 20 {{ i = i + 1 if i > 18 {{ {} }} }} return x }}"
KERNEL_PROGRAMS = [
    # an unbound variable read in each position of a kernel
    ("fn f(xs, a) { i = 0 while i < y { i = i + 1 } return i }", E_UNDEF),
    (LATE.format("if y > 0 { x = 1 }"), E_UNDEF),
    (LATE.format("x = y + 1"), E_UNDEF),
    (LATE.format("x = y"), E_UNDEF),
    (LATE.format("x = xs[k]"), E_UNDEF),
    (LATE.format("x = len(ys)"), E_UNDEF),
    (LATE.format("xs[k] = 1"), E_UNDEF),
    (LATE.format("xs[0] = y"), E_UNDEF),
    (LATE.format("append(xs, y)"), E_UNDEF),
    (LATE.format("append(zs, 1)"), E_UNDEF),
    (LATE.format("x = min(a, y)"), E_UNDEF),
    (LATE.format("x = (((a + y) + 1) + 1) + 1"), E_UNDEF),  # four nodes deep
    # other errors raised inside a promoted iteration
    (LATE.format("if a { x = 1 }"), E_TYPE),
    (LATE.format("if i - 18 { x = 1 }"), E_TYPE),  # 1, not true
    ("fn f(xs, a) { i = 0 while i < 20 and true { i = i + 1 } while i { i = 0 } return i }", E_TYPE),
    ("fn f(xs, a) { i = 0 while i < 20 and true { i = i + 1 } while i - 20 { i = 0 } return i }", E_TYPE),  # 0
    (LATE.format("x = xs[i]"), E_INDEX),
    (LATE.format("xs[i] = 0"), E_INDEX),
    (LATE.format("x = a // (i - 19)"), E_DIV_ZERO),
    (LATE.format("x = a % (19 - i)"), E_DIV_ZERO),
    (LATE.format("x = inf + (a - inf)"), E_NAN),
    (LATE.format("xs = a append(xs, 1)"), E_TYPE),
    ("fn f(xs, a) { x = a for i in range(0, 70) { x = x * 2 } return x }", E_OVERFLOW),
    # floats, strings and sets through a kernel
    ("fn f(xs, a) { x = a + 0.5 s = \"\" t = {1} for i in range(0, 25) { x = x / 2.0 + 0.25 s = s + \"ab\" "
     "if i % 5 == 0 { t = {i, x} } n = len(t) + len(s) c = s[i] b = s < \"abb\" } return [x, s, t, n, c, b] }",
     None),
    # copies and writes through either name
    ("fn f(xs, a) { ys = [] for i in range(0, 20) { ys = xs append(xs, i) ys[0] = i zs = ys append(zs, a) "
     "xs[1] = zs[0] } return [xs, ys, zs] }", None),
    # a for body that reassigns its loop variable
    ("fn f(xs, a) { t = 0 for i in range(0, 25) { i = i * a t = t + i xs[0] = i } return [t, i, xs] }", None),
]


@pytest.mark.parametrize("hot", [0, 1, tracer.HOT])
@pytest.mark.parametrize("src,kind", KERNEL_PROGRAMS)
def test_kernels_match_tree_walker_on_loop_cases(monkeypatch, hot, src, kind):
    monkeypatch.setattr(tracer, "HOT", hot)
    program, inputs = parse_program(src), [list(range(19)), 3]
    rec = execute(program, inputs)
    assert (rec.status, rec.error_kind) == ((STATUS_RETURNED, None) if kind is None else (STATUS_ERROR, kind))
    assert_matches_tree_walker(program, inputs)


def test_budgets_around_promotion_match_tree_walker(monkeypatch):
    """At the default HOT, every budget that runs out in a statement of the
    iterations before and after the ``while`` loop's kernel takes over, and
    in the ``for`` loop that starts in its kernel."""
    promoted = []
    kernel = tracer._Compiler.kernel
    monkeypatch.setattr(tracer._Compiler, "kernel", lambda run, loop: promoted.append(loop) or kernel(run, loop))
    src = ("fn f(n) { xs = [0] i = 0 while i < n { if i % 2 == 0 { append(xs, i) } else { xs[0] = i } i = i + 1 } "
           "t = 0 for k in range(0, n) { t = t + xs[k % len(xs)] } return [xs, t] }")
    assert_matches_tree_walker(parse_program(src), [tracer.HOT + 3])
    assert {type(loop).__name__ for loop in promoted} == {"While", "For"}


def test_a_cold_block_generates_one_closure_per_statement(monkeypatch):
    """Each statement of a block on closures, a loop included, is one
    generated closure: a loop's choice of tier and its hand-off to its kernel
    are fragments of it, whether the loop runs on closures or not."""
    made, blocks = [], []
    generated, block = tracer._Compiler.generated, tracer._Compiler.block
    monkeypatch.setattr(tracer._Compiler, "generated",
                        lambda run, shape, operands, loc=None: made.append(shape) or generated(run, shape, operands, loc))
    monkeypatch.setattr(tracer._Compiler, "block", lambda run, body: blocks.append(body) or block(run, body))
    program = parse_program("fn f(n) { t = 0 for i in range(0, n) { t = t + i } k = 0 while k < n { k = k + 1 } "
                            "if t > k { t = k } return t }")
    for n, t in ((3, 3), (tracer.HOT + 4, tracer.HOT + 4)):
        del made[:], blocks[:]
        assert execute(program, [n]).return_value == t
        assert len(made) == sum(map(len, blocks))
        assert all(tracer._NAMES.get(shape[0], "").startswith("loc") for shape in made)  # statements only


# Hot loops inside blocks that run on closures at the default HOT: each
# outer loop or if stays cold, and the loop inside it hands each activation
# to its kernel.  In the kernel the run returns, fails or runs out of budget.
HOT_IN_COLD = [
    # a long for inside a short while and inside an if
    ("fn f(xs, n) { t = 0 j = 0 while j < 2 { for i in range(0, n) { t = t + xs[i % 3] } j = j + 1 } return t }",
     (STATUS_RETURNED, None)),
    ("fn f(xs, n) { t = 0 if n > 0 { for i in range(0, n) { t = t + i } } else { t = 1 } return t }",
     (STATUS_RETURNED, None)),
    # a while past HOT iterations inside a short for
    ("fn f(xs, n) { t = 0 for j in range(0, 2) { k = 0 while k < n { k = k + 1 t = t + k * j } } return t }",
     (STATUS_RETURNED, None)),
    # a return from each kernel
    ("fn f(xs, n) { j = 0 while j < 2 { for i in range(0, n) { if i == n - 2 { return [j, i] } } j = j + 1 } "
     "return 0 }", (STATUS_RETURNED, None)),
    ("fn f(xs, n) { for j in range(0, 2) { k = 0 while k < n { k = k + 1 if k == n - 1 { return [j, k] } } } "
     "return 0 }", (STATUS_RETURNED, None)),
    # a runtime error in each kernel
    ("fn f(xs, n) { t = 0 if n > 0 { for i in range(0, n) { t = t + xs[i] } } return t }", (STATUS_ERROR, E_INDEX)),
    ("fn f(xs, n) { t = 0 for j in range(0, 2) { k = 0 while k < n { k = k + 1 if k == n - 1 { t = xs[k] } } } "
     "return t }", (STATUS_ERROR, E_INDEX)),
    # the budget runs out in an endless while's kernel
    ("fn f(xs, n) { for j in range(0, 2) { k = 0 while true { k = k + 1 } } return 0 }", (STATUS_BUDGET, None)),
]


@pytest.mark.parametrize("src,outcome", HOT_IN_COLD)
def test_hot_loop_inside_a_cold_block_hands_its_activation_to_its_kernel(tiers, src, outcome):
    lookups, _ = tiers
    program, inputs = parse_program(src), [[1, 2, 3], tracer.HOT + 4]
    rec = execute(program, inputs)
    assert (rec.status, rec.error_kind) == outcome
    if rec.status == STATUS_BUDGET:
        assert_matches_at(program, inputs, [1, 2, tracer.HOT, 2 * tracer.HOT + 4, 2 * tracer.HOT + 5, 200, 1000])
    else:
        assert_matches_tree_walker(program, inputs)
    # only the inner loop reaches a kernel, always from within a cold block
    assert lookups and all(found and not any(loop is s for s in program.body) for loop, _, found in lookups)


# --- a for loop over more than HOT values starts in its kernel ---


@pytest.fixture
def tiers(monkeypatch):
    """Records each kernel lookup as (loop, steps done, kernel found) and each
    statement list compiled to closures."""
    lookups, blocks = [], []
    kernel, block = tracer._Compiler.kernel, tracer._Compiler.block

    def spy_kernel(run, loop):
        found = kernel(run, loop)
        lookups.append((loop, run.steps, bool(found)))
        return found

    monkeypatch.setattr(tracer._Compiler, "kernel", spy_kernel)
    monkeypatch.setattr(tracer._Compiler, "block", lambda run, body, *args: blocks.append(body) or block(run, body, *args))
    return lookups, blocks


LONG_FOR = "fn f(xs, a) {{ t = 0 for i in range(0, {}) {{ {} }} return t }}"


def the_loop(program):
    loop = program.body[1]
    assert type(loop).__name__ == "For"
    return loop


def compiled(blocks, body):
    return any(b is body for b in blocks)


def test_for_loop_of_hot_values_runs_on_closures(tiers):
    lookups, blocks = tiers
    program = parse_program(LONG_FOR.format(tracer.HOT, "t = t + xs[i] * a"))
    assert_matches_tree_walker(program, [list(range(tracer.HOT)), 3])
    assert lookups == [] and compiled(blocks, the_loop(program).body)


def test_for_loop_of_more_than_hot_values_starts_in_its_kernel(tiers):
    lookups, blocks = tiers
    program = parse_program(LONG_FOR.format(tracer.HOT + 1, "t = t + xs[i] * a"))
    assert_matches_tree_walker(program, [list(range(tracer.HOT + 1)), 3])
    loop = the_loop(program)
    assert lookups and all(found_loop is loop and found and at == 1 for found_loop, at, found in lookups)
    assert not compiled(blocks, loop.body)


@pytest.mark.parametrize(
    "body,inputs,kind",
    [("t = t + xs[i]", [[], 3], E_INDEX),  # past the end at i = 0
     ("t = t + y", [[1], 3], E_UNDEF),
     ("t = a * 2", [[1], tracer.INT_MAX], E_OVERFLOW)],
    ids=["index", "unbound", "overflow"],
)
def test_long_for_loop_failing_in_its_first_iteration_fails_in_its_kernel(tiers, body, inputs, kind):
    lookups, blocks = tiers
    program = parse_program(LONG_FOR.format(tracer.HOT + 4, body))
    rec = execute(program, inputs)
    assert (rec.status, rec.error_kind, rec.steps_used) == (STATUS_ERROR, kind, 3)
    assert_matches_tree_walker(program, inputs)
    assert lookups and all(found and at == 1 for _, at, found in lookups)
    assert not compiled(blocks, the_loop(program).body)


@pytest.mark.parametrize(
    "body",
    ["if i == 19 { break } t = t + xs[i % 2]", "for j in range(0, 2) { t = t + xs[j] * a }",
     "if i % 3 == 0 { continue } t = t + xs[i % 2]", "if i == 19 { return [t, i] } t = t + xs[i % 2]",
     "j = 0 while j < 2 { t = t + xs[j] * a j = j + 1 }"],
    ids=["break", "nested-for", "continue", "return", "nested-while"],
)
def test_long_for_loop_starts_in_its_kernel_whatever_its_body(tiers, body):
    """Every statement lowers into a kernel: a loop whose body jumps or holds
    a loop of its own runs whole there, and no statement list of its body is
    compiled to closures."""
    lookups, blocks = tiers
    program = parse_program(LONG_FOR.format(tracer.HOT + 4, body))
    assert_matches_tree_walker(program, [[4, 5], 3])
    loop = the_loop(program)
    assert lookups and all(found_loop is loop and found and at == 1 for found_loop, at, found in lookups)
    assert blocks and all(b is program.body for b in blocks)


def test_every_loop_of_a_campaign_finds_its_kernel(monkeypatch, tiers):
    monkeypatch.setattr(tracer, "HOT", 0)
    lookups, _ = tiers
    assert differential_campaign(200, seed=7).ok
    assert lookups and all(found for _, _, found in lookups)


def test_short_loops_never_look_up_a_kernel(tiers):
    """At the default HOT the fuzzer's loops, which run at most 7 times, and
    a fold shaped like train-repeat's over 3-5 values never reach a kernel."""
    lookups, _ = tiers
    assert differential_campaign(200, seed=99).ok
    fold = parse_program("fn s(xs, m) { acc = m for i in range(0, len(xs)) { acc = acc * xs[i] } return acc + m }")
    for n in (3, 4, 5):
        for mode in MODES:
            assert execute(fold, [list(range(1, n + 1)), 2], mode=mode).return_value == math.factorial(n) * 2 + 2
    assert lookups == []


# A loop body that nests every kind of expression four or more deep (and, or,
# not, a negation, abs, min of a list, max of two arguments, list and set
# literals) and every kind of statement: a nested for and while, break,
# continue and return.
EVERY_KIND = ("fn f(a) { t = a for i in range(0, 40) { t = t + i "
              "b = not (abs(min([t, -t, max(t, i)])) > 0 and ({t, i} != {i} or false)) "
              "for j in range(0, 3) { if j == i % 3 { continue } t = t - j } "
              "k = 0 while true { k = k + 1 if k > 2 { break } } "
              "if t > 300 { return [t, b, k] } } return [t, b] }")


def test_kernel_lowers_every_expression_kind_and_builds_no_closure(monkeypatch):
    generated, kernel = tracer._Compiler.generated, tracer._Compiler.kernel
    looking, made, found = [], [], []

    def spy_generated(run, shape, operands, loc=None):
        if looking:
            made.append(shape)
        return generated(run, shape, operands, loc)

    def spy_kernel(run, loop):
        looking.append(loop)
        try:
            found.append(kernel(run, loop))
        finally:
            looking.pop()
        return found[-1]

    monkeypatch.setattr(tracer._Compiler, "generated", spy_generated)
    monkeypatch.setattr(tracer._Compiler, "kernel", spy_kernel)
    program = parse_program(EVERY_KIND)
    for value in (3, -2, True):
        assert_matches_at(program, [value], [1, 2, 40, 81, 100, 1000])
    assert execute(program, [3]).return_value[0] > 300
    assert found and all(found) and made == []


def logic(depth):
    """``p or p and (…)`` with ``depth`` levels of parentheses: four levels of
    indentation each in a kernel, the most any expression nests there."""
    return "p or p and (" * depth + "p" + ")" * depth


# Statements at the grammar's bounds: an expression 16 levels deep, one of
# 256 tokens (a 127-operand chain behind a negation) and a literal of 127
# items, the most that 256 tokens hold.
AT_BOUND = ("b = %s t = -t%s - c xs = [%s]"
            % (logic(16), " + r" * 126, ", ".join(["t", "r", "q", "c", "1", "b", "s"][k % 7] for k in range(127))))
# Six nested loops, the most blocks a statement sits in, and an if beside the
# sixth.  The sixth ends in the statement that Python's compiler finds
# deepest, an indexed write whose index is ``logic(16)``: on 3.11 its kernel
# compiles up to ``logic(20)`` before passing Python's 100 indentation levels,
# and eight nested loops compile where nine pass its 20 nested blocks.  The
# sixth loop runs m times; the write fails on its boolean index.  The
# statements also run on closures, alone and in a short loop.
DEEPEST = ("fn f(p, n, m) {{ t = 0 c = 1 r = 1 q = 2 s = 0 b = false xs = [0] {0} for s in range(0, 3) {{ {0} }} "
           "for i in range(0, 17) {{ j = 0 while j < n {{ j = j + 1 for k in range(0, n) {{ "
           "l = 0 while l < n {{ l = l + 1 for q in range(0, n) {{ if q == 0 {{ {0} }} else {{ c = c + 1 }} "
           "for r in range(0, m) {{ {0} xs[{1}] = t }} }} }} }} }} }} return [t, b, xs, c] }}").format(AT_BOUND, logic(16))


def spy_kernels(monkeypatch, seen):
    """Calls ``seen(key, maker)`` for each kernel that ``_maker`` compiles,
    keyed by its loop's shape, variable pattern and bound-at-entry flags."""
    maker = tracer._maker

    def spy(shape, *pattern):
        made = maker(shape, *pattern)
        if pattern:
            seen((shape, *pattern), made)
        return made

    monkeypatch.setattr(tracer, "_maker", spy)


@pytest.mark.parametrize("hot", [0, 1, tracer.HOT])
def test_program_at_the_grammars_bounds_runs_each_hot_loop_in_its_kernel(monkeypatch, hot):
    """Every kernel compiles, at every HOT, so each loop runs in one tier;
    both tiers match the tree walker and the big-step evaluator."""
    monkeypatch.setattr(tracer, "HOT", hot)
    compiled = []
    spy_kernels(monkeypatch, lambda key, kernel: compiled.append(kernel))
    tracer._KERNELS.clear()
    program = parse_program(DEEPEST)
    for inputs, status in (([True, 2, 0], STATUS_RETURNED), ([False, 2, 1], STATUS_ERROR)):
        rec = execute(program, inputs)
        assert rec.status == status
        assert_matches_at(program, inputs, [1, 2, 40, 500, rec.steps_used - 1, rec.steps_used, rec.steps_used + 1])
        if status == STATUS_RETURNED:
            assert reference_evaluate(program, inputs) == (rec.return_value, rec.final_vars)
        else:
            with pytest.raises(MimRuntimeError):
                reference_evaluate(program, inputs)
    assert compiled and all(callable(kernel) for kernel in compiled)


# two loops that differ only in their variable names, and one that reads
# another variable where they read the one they write
KERNEL_KEYS = [
    ("fn f(out, ys) { j = 0 while j < len(out) { out[j] = out[j] + 1 j = j + 1 } return out }", "same"),
    ("fn f(zs, ws) { i = 0 while i < len(zs) { zs[i] = zs[i] + 1 i = i + 1 } return zs }", "same"),
    ("fn f(out, ys) { j = 0 while j < len(out) { out[j] = ys[j] + 1 j = j + 1 } return out }", "other"),
]


@pytest.mark.parametrize("order", [(0, 1, 2), (2, 1, 0), (0, 2, 1)])
def test_kernel_key_is_the_loop_shape_and_its_variable_pattern(monkeypatch, order):
    """A kernel is compiled for a new variable pattern, not for new names;
    in any order each program matches the tree walker."""
    monkeypatch.setattr(tracer, "HOT", 0)
    compiled = []
    spy_kernels(monkeypatch, lambda key, kernel: compiled.append(key))
    tracer._KERNELS.clear()
    patterns = set()
    for k in order:
        src, pattern = KERNEL_KEYS[k]
        assert_matches_tree_walker(parse_program(src), [[1, 2, 3], [4, 5, 6]])
        patterns.add(pattern)
        assert len(set(compiled)) == len(patterns)
    assert len({shape for shape, _, _ in compiled}) == 1


def shape_program(k, bits):
    """A loop of a shape of its own for each ``k`` below ``2 ** bits``."""
    body = " ".join("x = x + 1" if k >> b & 1 else "x = 1 + x" for b in range(bits))
    return parse_program("fn f() { x = 0 i = 0 while i < 2 { %s i = i + 1 } return x }" % body)


def test_kernel_table_holds_at_most_its_capacity(monkeypatch):
    """Long runs hold bounded state: more loop shapes than the table holds
    never grow it past its capacity, which is far above the ~10 shapes of
    the template workloads; each shape compiles once, and a shape evicted by
    one looked up more often compiles again."""
    monkeypatch.setattr(tracer, "HOT", 1)
    compiled = []
    spy_kernels(monkeypatch, lambda key, kernel: compiled.append(key))
    table, count = tracer._KERNELS, tracer.KERNEL_CAPACITY + 8
    table.clear()
    bits = count.bit_length()
    programs = [shape_program(k, bits) for k in range(count)]
    for program in programs:
        for _ in range(2):  # one lookup of the loop's kernel each
            assert execute(program, []).return_value == 2 * bits
            assert len(table) <= tracer.KERNEL_CAPACITY
    assert len(table) == tracer.KERNEL_CAPACITY and len(compiled) == len(set(compiled)) == count
    # a new shape looked up four times, then pushed out of the table's
    # window (the KERNEL_CAPACITY // 16 shapes last compiled) by as many new
    # shapes, displaces programs[0]'s, the least recent and looked up twice
    for _ in range(4):
        execute(shape_program(count, bits), [])
    for k in range(tracer.KERNEL_CAPACITY // 16):
        execute(shape_program(count + 1 + k, bits), [])
    assert len(table) == tracer.KERNEL_CAPACITY
    before = len(compiled)
    assert_matches_tree_walker(programs[0], [])  # evicted, so compiled again
    assert len(compiled) == before + 1
    before = len(compiled)
    assert_matches_tree_walker(programs[1], [])  # still kept
    assert len(compiled) == before


def test_running_cold_shapes_again_compiles_no_new_maker(monkeypatch):
    """The closure makers need no memo to stay bounded: each shape compiles
    once, so running the same programs again, in either mode, compiles none."""
    programs = [(parse_program(src), inputs) for src, inputs in COLD_SHAPES]
    for program, inputs in programs:
        execute(program, inputs)
    made, maker = [], tracer._maker
    monkeypatch.setattr(tracer, "_maker", lambda shape: made.append(shape) or maker(shape))
    for program, inputs in programs:
        for mode in MODES:
            execute(program, inputs, mode=mode)
    assert made == []


# --- grammar-level programs against both oracles ---


GRAMMAR_SEED, GRAMMAR_COUNT = 38, 1000


@pytest.mark.parametrize("hot", [tracer.HOT, 0])
def test_grammar_level_programs_match_tree_walker_and_reference(monkeypatch, hot):
    """Random programs over every form of the grammar match the tree walker
    field for field, in both modes, on closures and (``HOT`` 0) with every
    loop in its kernel; a run that ends before its budget of at most 40
    steps matches the big-step evaluator too."""
    monkeypatch.setattr(tracer, "HOT", hot)
    for program, inputs, budget in grammar_programs(GRAMMAR_COUNT, GRAMMAR_SEED):
        for mode in MODES:
            got = execute(program, inputs, budget=budget, mode=mode)
            want = tree_walk_execute(program, inputs, budget=budget, mode=mode)
            assert record_fields(got) == record_fields(want), (format_program(program), inputs, budget, mode)
        if got.status == STATUS_RETURNED:
            ret, finals = reference_evaluate(program, inputs)
            assert exact(ret) == exact(got.return_value)
            assert {k: exact(v) for k, v in finals.items()} == {k: exact(v) for k, v in got.final_vars.items()}
        elif got.status == STATUS_ERROR:
            with pytest.raises(MimRuntimeError) as exc:
                reference_evaluate(program, inputs)
            assert exc.value.kind == got.error_kind, format_program(program)
