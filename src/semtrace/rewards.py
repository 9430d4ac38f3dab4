"""Verifiable rewards: binary functional correctness for generated programs
and fractional precision for variable-state predictions.

Both rewards are computed in exact rational form; conversion to float happens
only at the policy-gradient boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, Optional, Sequence

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


class _Outcomes(Sequence[TestOutcome]):
    """Test outcomes in test order, each run once when first read; ``==`` and ``repr`` as a list's."""

    def __init__(self, run: Callable[[int], TestOutcome], n: int):
        self._run, self._outcomes = run, [None] * n

    def __len__(self) -> int:
        return len(self._outcomes)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        if self._outcomes[i] is None:
            self._outcomes[i] = self._run(i)
        return self._outcomes[i]

    def __eq__(self, other) -> bool:
        return list(self) == (list(other) if isinstance(other, _Outcomes) else other)

    def __repr__(self) -> str:
        return repr(list(self))


@dataclass
class GenRewardReport:
    reward: int  # 0 or 1
    per_test: Sequence[TestOutcome]  # read-only; see gen_reward for which tests have run
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
    """Execute ``p`` on the tests in order; reward 1 iff every return matches.

    Tests run until one returns a wrong answer, which settles ``reward`` and
    ``first_failing_terminating``.  A later test runs, with the same program,
    input and budget, when its ``per_test`` entry is first read.

    Execution failures (runtime error, budget exhaustion, arity mismatch)
    become unmatched entries, never exceptions; a budget below 1 raises
    ``ValueError``.  Each outcome keeps its test's execution record, so
    callers never need to run a test again.
    """
    if not tests:
        raise ValueError("at least one test case is required")

    def run(i: int) -> TestOutcome:
        tc = tests[i]
        if len(tc.input) != len(p.params):
            return TestOutcome(status="arity_mismatch", actual=None, matched=False)
        rec = execute(p, list(tc.input), budget=budget)
        if rec.status != STATUS_RETURNED:
            return TestOutcome(status=rec.status, actual=None, matched=False, record=rec)
        return TestOutcome(rec.status, rec.return_value, matches_expected(rec.return_value, tc.expected), rec)

    per_test = _Outcomes(run, len(tests))
    for i, outcome in enumerate(per_test):
        if outcome.status == STATUS_RETURNED and not outcome.matched:
            return GenRewardReport(0, per_test, i)
    return GenRewardReport(1 if all(t.matched for t in per_test) else 0, per_test, None)


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
