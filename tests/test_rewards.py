"""Functional-correctness and variable-precision rewards."""

import itertools
import math
from fractions import Fraction

import pytest

from semtrace.lang import parse_program
from semtrace.rewards import (
    SemPrediction,
    TestCase,
    gen_reward,
    matches_expected,
    sem_reward,
)
from semtrace.values import MimSet, values_equal


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
