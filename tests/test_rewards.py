"""Functional-correctness and variable-precision rewards."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from semtrace import rewards
from semtrace.fuzz import ProgramFuzzer
from semtrace.lang import parse_program
from semtrace.rewards import (
    SemPrediction,
    TestCase,
    gen_reward,
    matches_expected,
    sem_reward,
)
from semtrace.tracer import DEFAULT_BUDGET, STATUS_RETURNED
from semtrace.values import MimSet, values_equal
from test_tracer import ERROR_PROGRAMS, exact, record_fields
from tree_walker import tree_walk_execute


# --- canonical equality ---


def test_set_equality_is_order_free():
    assert values_equal(MimSet([3, 1, 2]), MimSet([2, 3, 1]))


def test_infinity_equality():
    assert values_equal(math.inf, math.inf)
    assert not values_equal(math.inf, -math.inf)


def test_numeric_coercion_equality():
    assert values_equal(2, 2.0)
    assert values_equal([1, 2.0], [1.0, 2])
    assert not values_equal(2, 3.0)


def test_bool_never_coerces_to_number():
    assert not values_equal(True, 1)
    assert not values_equal(False, 0)
    assert values_equal(True, True)


def test_equality_total_on_mixed_shapes():
    assert not values_equal([1], 1)
    assert not values_equal(MimSet([1]), [1])
    assert not values_equal(None, 0)
    assert not values_equal("2", 2)


def test_matches_expected_accepts_ascending_list_for_set():
    assert matches_expected(MimSet([3, 1, 2]), [1, 2, 3])
    assert not matches_expected(MimSet([3, 1, 2]), [3, 1, 2])


# --- R_gen ---


def test_identity_program_passes(identity_program):
    report = gen_reward(identity_program, [TestCase([5], 5), TestCase([0], 0)])
    assert report.reward == 1
    assert report.first_failing_terminating is None
    assert all(t.matched for t in report.per_test)


def test_off_by_one_sum_fails_first_test():
    buggy = parse_program(
        "fn s(n) { t = 0 for i in range(1, n) { t = t + i } return t }"
    )
    tests = [TestCase([3], 6), TestCase([4], 10)]
    report = gen_reward(buggy, tests)
    assert report.reward == 0
    assert report.first_failing_terminating == 0
    assert [t.matched for t in report.per_test] == [False, False]


def test_nontermination_cannot_pass():
    p = parse_program("fn f(a) { while a > 1 { a = a } return a }")
    tests = [TestCase([1], 1), TestCase([5], 5), TestCase([0], 0)]
    report = gen_reward(p, tests, budget=500)
    assert report.reward == 0
    assert report.per_test[1].status == "budget_exceeded"
    # budget exhaustion is not a wrong answer, so no failing-terminating index
    assert report.first_failing_terminating is None


def test_gen_reward_checks_arity_itself_and_rejects_a_zero_budget(identity_program):
    report = gen_reward(identity_program, [TestCase([1, 2], 1), TestCase([1], 1)])
    assert [t.status for t in report.per_test] == ["arity_mismatch", "returned"]
    with pytest.raises(ValueError, match="budget"):
        gen_reward(identity_program, [TestCase([1], 1)], budget=0)


def test_gen_reward_requires_tests(identity_program):
    with pytest.raises(ValueError):
        gen_reward(identity_program, [])


def test_gen_reward_is_binary(identity_program):
    for tests in ([TestCase([1], 1)], [TestCase([1], 2)]):
        assert gen_reward(identity_program, tests).reward in (0, 1)


# --- which tests gen_reward runs, and when ---

OFF_BY_ONE_SUM = "fn s(n) { t = 0 for i in range(1, n) { t = t + i } return t }"


@pytest.fixture
def executions(monkeypatch):
    """The inputs of every ``execute`` call that ``gen_reward`` makes."""
    calls = []
    real = rewards.execute

    def counting(p, inputs, *args, **kwargs):
        calls.append(list(inputs))
        return real(p, inputs, *args, **kwargs)

    monkeypatch.setattr(rewards, "execute", counting)
    return calls


def test_first_wrong_answer_settles_the_report_and_a_later_test_runs_when_read(executions):
    report = gen_reward(parse_program(OFF_BY_ONE_SUM), [TestCase([3], 6), TestCase([4], 10)])
    assert (report.reward, report.first_failing_terminating, executions) == (0, 0, [[3]])
    assert report.per_test[0].actual == 3 and executions == [[3]]
    assert report.per_test[1].actual == 6 and executions == [[3], [4]]
    assert report.per_test[1] is report.per_test[-1] and executions == [[3], [4]]  # run once, then kept


@pytest.mark.parametrize(
    "src,tests,runs,first",
    [
        # passes run until the first wrong answer
        ("fn f(a) { r = a * 2 return r }", [TestCase([1], 2), TestCase([2], 4), TestCase([3], 5), TestCase([4], 0)],
         [[1], [2], [3]], 2),
        # a runtime error and a budget overrun are not wrong answers, so the next test runs
        ("fn f(a) { r = 6 // a while r > 5 { r = r } return r }",
         [TestCase([0], 1), TestCase([1], 6), TestCase([3], 3), TestCase([2], 3)], [[0], [1], [3]], 2),
        # an arity mismatch runs nothing and settles nothing
        ("fn f(a) { return a }", [TestCase([1, 2], 1), TestCase([1], 2), TestCase([2], 2)], [[1]], 1),
        # with no wrong answer every test runs
        ("fn f(a) { r = 6 // a return r }", [TestCase([1], 6), TestCase([0], 0), TestCase([2], 3)],
         [[1], [0], [2]], None),
    ],
    ids=["pass-then-fail", "error-then-fail", "arity-then-fail", "no-wrong-answer"],
)
def test_tests_run_up_to_the_first_wrong_answer(executions, src, tests, runs, first):
    report = gen_reward(parse_program(src), tests, budget=500)
    assert (executions, report.first_failing_terminating, report.reward) == (runs, first, 0)


def eager_gen_reward(p, tests, budget):
    """``gen_reward`` as one loop over every test, on the tree-walking
    interpreter: ``(reward, first_failing_terminating, per_test)``."""
    per_test, first = [], None
    for i, tc in enumerate(tests):
        if len(tc.input) != len(p.params):
            per_test.append(rewards.TestOutcome(status="arity_mismatch", actual=None, matched=False))
            continue
        rec = tree_walk_execute(p, list(tc.input), budget=budget)
        if rec.status != STATUS_RETURNED:
            per_test.append(rewards.TestOutcome(status=rec.status, actual=None, matched=False, record=rec))
            continue
        matched = matches_expected(rec.return_value, tc.expected)
        per_test.append(rewards.TestOutcome(status=rec.status, actual=rec.return_value, matched=matched, record=rec))
        if not matched and first is None:
            first = i
    return (1 if all(t.matched for t in per_test) else 0), first, per_test


def outcome_fields(outcome):
    return (outcome.status, exact(outcome.actual), outcome.matched,
            None if outcome.record is None else record_fields(outcome.record))


def fixture_programs():
    """The tree-walker fixtures: the error-kind programs and fuzzed programs,
    each with its inputs."""
    cases = [(parse_program(src), inputs) for src, inputs, _ in ERROR_PROGRAMS]
    fuzzer = ProgramFuzzer(np.random.default_rng(2024))
    for _ in range(20):
        program = fuzzer.program()
        cases.append((program, fuzzer.inputs_for(program)))
    return cases


def test_gen_reward_matches_an_eager_loop_on_the_tree_walker_fixtures():
    for program, inputs in fixture_programs():
        full = tree_walk_execute(program, inputs)
        right = TestCase(inputs, full.return_value)
        wrong = TestCase(inputs, "no program returns this")
        arity = TestCase(inputs + [0], 0)
        suites = [list(s) for s in itertools.permutations([right, wrong, arity], 3)]
        suites += [[right, right], [right, wrong, right, wrong], [wrong]]
        for budget in sorted({1, max(1, full.steps_used // 2), full.steps_used, full.steps_used + 1, DEFAULT_BUDGET}):
            for tests in suites:
                reward, first, per_test = eager_gen_reward(program, tests, budget)
                report = gen_reward(program, tests, budget=budget)
                assert (report.reward, report.first_failing_terminating) == (reward, first), (budget, tests)
                assert [outcome_fields(o) for o in report.per_test] == [outcome_fields(o) for o in per_test]
                assert len(report.per_test) == len(tests)


def test_reports_compare_and_print_as_their_outcome_lists():
    program = parse_program(OFF_BY_ONE_SUM)
    tests = [TestCase([3], 3), TestCase([4], 10), TestCase([5], 10)]
    report, other = gen_reward(program, tests), gen_reward(program, tests)
    _, _, per_test = eager_gen_reward(program, tests, DEFAULT_BUDGET)
    assert report == other and report.per_test == per_test
    assert repr(report.per_test) == repr(per_test) and "actual=6" in repr(report)
    assert report.per_test[1:] == per_test[1:] and list(reversed(report.per_test)) == per_test[::-1]


# --- R_sem ---


def test_sem_reward_example():
    truth = {"a": 1, "b": 2, "c": 3}
    pred = SemPrediction(variables={"a": 1, "b": 2, "c": 0})
    assert sem_reward(pred, truth, ["a", "b", "c"]) == Fraction(2, 3)


def test_perfect_prediction():
    truth = {"a": 1, "b": [2, 3]}
    assert sem_reward(SemPrediction(variables=dict(truth)), truth, ["a", "b"]) == 1


def test_absent_variable_counts_incorrect():
    truth = {"a": 1, "b": 2}
    assert sem_reward(SemPrediction(variables={"a": 1}), truth, ["a", "b"]) == Fraction(1, 2)


def test_empty_v_is_contract_violation():
    with pytest.raises(ValueError):
        sem_reward(SemPrediction(), {}, [])


def test_all_correctness_patterns_exact():
    # brute force over every subset of correct variables for |V| up to 6
    for n in range(1, 7):
        variables = ["v%d" % i for i in range(n)]
        truth = {v: i for i, v in enumerate(variables)}
        seen = set()
        for pattern in itertools.product([False, True], repeat=n):
            pred = SemPrediction(
                variables={
                    v: (truth[v] if ok else truth[v] + 100)
                    for v, ok in zip(variables, pattern)
                }
            )
            r = sem_reward(pred, truth, variables)
            assert r == Fraction(sum(pattern), n)
            seen.add(r)
        assert seen == {Fraction(k, n) for k in range(n + 1)}


def test_sem_reward_monotonicity():
    variables = ["a", "b", "c", "d"]
    truth = {v: i for i, v in enumerate(variables)}
    wrong = {v: truth[v] + 1 for v in variables}
    base = sem_reward(SemPrediction(variables=dict(wrong)), truth, variables)
    for v in variables:
        fixed = dict(wrong)
        fixed[v] = truth[v]
        r = sem_reward(SemPrediction(variables=fixed), truth, variables)
        assert r - base == Fraction(1, 4)


def test_sem_reward_permutation_invariance():
    variables = ["a", "b", "c"]
    truth = {"a": 1, "b": 2, "c": 3}
    pred = SemPrediction(variables={"a": 1, "b": 0, "c": 3})
    rewards = {
        sem_reward(pred, truth, list(perm))
        for perm in itertools.permutations(variables)
    }
    assert rewards == {Fraction(2, 3)}


def test_self_consistency_of_truth(sum_program):
    from semtrace.tracer import execute, final_values

    rec = execute(sum_program, [])
    truth = final_values(rec)
    variables = list(truth)
    assert sem_reward(SemPrediction(variables=dict(truth)), truth, variables) == 1
