"""Verifiable rewards: binary functional correctness for generated programs
and fractional precision for variable-state predictions.

Both rewards are computed in exact rational form; conversion to float happens
only at the policy-gradient boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from .lang import Program
from .tracer import DEFAULT_BUDGET, STATUS_RETURNED, ExecutionRecord, execute
from .values import MimSet, Value, values_equal


@dataclass(frozen=True)
class TestCase:
    __test__ = False  # not a test class despite the name

    input: tuple
    expected: Value

    def __init__(self, input: Sequence[Value], expected: Value):
        object.__setattr__(self, "input", tuple(input))
        object.__setattr__(self, "expected", expected)


@dataclass
class TestOutcome:
    status: str
    actual: Optional[Value]
    matched: bool
    record: Optional[ExecutionRecord] = None  # None for an arity mismatch


@dataclass
class GenRewardReport:
    reward: int  # 0 or 1
    per_test: List[TestOutcome]
    first_failing_terminating: Optional[int]


@dataclass(frozen=True)
class SemPrediction:
    variables: Dict[str, Value] = field(default_factory=dict)


def matches_expected(actual: Value, expected: Value) -> bool:
    """Canonical equality, additionally accepting a list encoding of a set:
    stored expected values come from JSON, where a set appears as its
    ascending member list."""
    if values_equal(actual, expected):
        return True
    if isinstance(actual, MimSet) and isinstance(expected, list):
        return values_equal(list(actual.members), expected)
    if isinstance(actual, list) and isinstance(expected, list):
        return len(actual) == len(expected) and all(
            matches_expected(a, e) for a, e in zip(actual, expected)
        )
    return False


def gen_reward(p: Program, tests: Sequence[TestCase], budget: int = DEFAULT_BUDGET) -> GenRewardReport:
    """Execute ``p`` on every test; reward 1 iff every return value matches.

    Execution failures (runtime error, budget exhaustion, arity mismatch)
    become unmatched entries, never exceptions.  Each outcome keeps its
    test's execution record, so callers never need to run a test again.
    """
    if not tests:
        raise ValueError("at least one test case is required")
    per_test: List[TestOutcome] = []
    first_failing_terminating: Optional[int] = None
    for i, tc in enumerate(tests):
        try:
            rec = execute(p, list(tc.input), budget=budget)
        except ValueError:
            per_test.append(TestOutcome(status="arity_mismatch", actual=None, matched=False))
            continue
        if rec.status != STATUS_RETURNED:
            per_test.append(TestOutcome(status=rec.status, actual=None, matched=False, record=rec))
            continue
        matched = matches_expected(rec.return_value, tc.expected)
        per_test.append(TestOutcome(status=rec.status, actual=rec.return_value, matched=matched, record=rec))
        if not matched and first_failing_terminating is None:
            first_failing_terminating = i
    reward = 1 if all(t.matched for t in per_test) else 0
    return GenRewardReport(reward=reward, per_test=per_test, first_failing_terminating=first_failing_terminating)


def sem_reward(pred: SemPrediction, truth: Dict[str, Value], variables: Sequence[str]) -> Fraction:
    """Precision of predicted final variable values over the ordered list V.

    Exactly k/|V| where k counts variables whose prediction canonically
    equals the ground truth; absent predictions count as incorrect.
    """
    if not variables:
        raise ValueError("V must be non-empty")
    for v in variables:
        if v not in truth:
            raise ValueError("ground truth missing variable %r" % v)
    correct = sum(
        1
        for v in variables
        if v in pred.variables and values_equal(pred.variables[v], truth[v])
    )
    return Fraction(correct, len(variables))
