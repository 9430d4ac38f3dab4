"""The fuzzer's draw source against numpy's own draws, the fuzzer's
programs pinned by hash, and the differential campaign's reports."""

import dataclasses
import hashlib
import random

import numpy as np
import pytest

from semtrace import fuzz, tracer
from semtrace.fuzz import ProgramFuzzer, _Draws
from semtrace.lang import format_program
from semtrace.tracer import (E_INDEX, E_TYPE, STATUS_BUDGET, STATUS_ERROR, STATUS_RETURNED, MimRuntimeError,
                             ReferenceTimeout, StepEvent)


def spans(plan):
    """Numbers of values to draw from: small ones, as the fuzzer draws, any
    up to 2**32, and ones that Lemire's method rejects often."""
    yield from (1, 2, 3, 5, 21, 2**32, 2**31 + 1, 3 * 2**30 + 7, 2**32 - 1)
    while True:
        yield plan.choice((plan.randrange(1, 50), plan.randrange(1, (1 << plan.randrange(1, 33)) + 1),
                          2**31 + plan.randrange(2**31)))


@pytest.mark.parametrize("buffered", [False, True], ids=["fresh", "buffered"])
@pytest.mark.parametrize("seed", [0, 1, 2024])
def test_draws_match_numpy_draw_by_draw(seed, buffered):
    """Random sequences of ``integers`` (with and without ``low``) and
    ``random``, from a fresh generator or from one that holds numpy's
    buffered half when the draw source takes it over: every value is
    numpy's."""
    plan = random.Random(seed)
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    if buffered:
        assert ours.integers(7) == theirs.integers(7)
        assert ours.bit_generator.state["has_uint32"] == 1
    draws = _Draws(ours)
    span = spans(plan)
    for run in range(300):
        for _ in range(plan.choice((0, 1, 2, plan.randrange(200)))):
            if plan.random() < 0.25:
                value, want = draws.random(), theirs.random()
                assert type(value) is float
            elif plan.random() < 0.5:
                n = next(span)
                value, want = draws.integers(n), theirs.integers(n)
                assert type(value) is int
            else:
                n = next(span)
                low = plan.randrange(-2**33, 2**33)
                value, want = draws.integers(low, low + n), theirs.integers(low, low + n)
            assert value == want, run


def test_integers_draw_from_one_to_two_to_the_32_values():
    draws = _Draws(np.random.default_rng(1))
    assert draws.integers(5, 6) == 5 and draws.words == []  # one value draws nothing
    for low, high in ((0, 0), (3, 2), (0, 2**32 + 1)):
        with pytest.raises(ValueError):
            draws.integers(low, high)


@pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.Philox, np.random.SFC64])
def test_fuzzer_needs_a_pcg64_generator(bit_generator):
    with pytest.raises(TypeError):
        ProgramFuzzer(np.random.Generator(bit_generator(1)))


def programs_digest(seed, n=300, caller_draws=False):
    """SHA-256 of ``n`` fuzzed programs, formatted, and their inputs; with
    ``caller_draws``, of draws the caller makes from the fuzzer's draw
    source between the fuzzer's calls too."""
    fuzzer = ProgramFuzzer(np.random.default_rng(seed))
    digest = hashlib.sha256()
    for _ in range(n):
        program = fuzzer.program()
        digest.update(format_program(program).encode())
        if caller_draws:
            digest.update(repr(int(fuzzer.draws.integers(3))).encode())
        digest.update(repr(fuzzer.inputs_for(program)).encode())
        if caller_draws:
            digest.update(repr(float(fuzzer.draws.random())).encode())
    return digest.hexdigest()


# recorded with numpy 2.4.6 when the fuzzer still drew through
# Generator.integers and Generator.random
@pytest.mark.parametrize("seed,caller_draws,want", [
    (11, False, "c49eb61621df9956086cdbaf34ea7b7ed9906d85a1eff8fb2165ab74ed2cd578"),
    (2024, False, "45d837cea41d2ac5c0f1a1ac659dbe6836669b9581aaa9fbacb825a949bd242f"),
    (2024, True, "66bdd3d9e8b040031081fda31b16d0d5d8e2e6b449e3bf3efe0836fcf6d30641"),
])
def test_fuzzed_programs_are_numpys(seed, caller_draws, want):
    assert programs_digest(seed, caller_draws=caller_draws) == want


# --- the campaign reports each kind of disagreement ---


def _raise(kind):
    """A reference evaluator that raises the error ``kind``, or with none times out."""

    def reference(program, inputs):
        raise MimRuntimeError(kind, "perturbed") if kind else ReferenceTimeout()

    return reference


def _first_returning_program():
    """A seed whose campaign's first program returns with a variable bound,
    and that variable."""
    for seed in range(100):
        fuzzer = ProgramFuzzer(np.random.default_rng(seed))
        program = fuzzer.program()
        rec = tracer.execute(program, fuzzer.inputs_for(program))
        if rec.status == STATUS_RETURNED and rec.final_vars:
            return seed, next(iter(rec.final_vars))
    raise AssertionError("no returning program")


SEED, FIRST = _first_returning_program()


def _edit_reference(edit):
    """The reference evaluator with ``edit`` applied to its return value and final variables."""
    return lambda program, inputs: edit(*tracer.reference_evaluate(program, inputs))


def _edit_record(**changes):
    """``execute`` with fields of its record replaced, each by a value or a function of the record."""

    def execute(*args, **kwargs):
        rec = tracer.execute(*args, **kwargs)
        return dataclasses.replace(rec, **{k: v(rec) if callable(v) else v for k, v in changes.items()})

    return execute


PERTURBATIONS = {
    "reference-raises": ({}, _raise(E_TYPE), "reference raised type_mismatch, step run returned"),
    "error-kind": ({"status": STATUS_ERROR, "error_kind": E_INDEX}, _raise(E_TYPE),
                   "error kind index_out_of_range vs type_mismatch"),
    "reference-times-out": ({}, _raise(None), "reference timed out, step run returned"),
    "reference-returns": ({"status": STATUS_BUDGET}, None, "reference returned, step run budget_exceeded"),
    "return-value": ({}, _edit_reference(lambda ret, finals: ("other", finals)), "return value differs"),
    "variable-set": ({}, _edit_reference(lambda ret, finals: (ret, dict(finals, extra=1))),
                     "final variable sets differ"),
    "variable": ({}, _edit_reference(lambda ret, finals: (ret, dict(finals, **{FIRST: "other"}))),
                 "variable %r differs" % FIRST),
    "trajectory": ({"trajectory": lambda rec: rec.trajectory + [StepEvent(0, None, "extra", 1)]}, None,
                   "trajectory scan disagrees with final map"),
}


@pytest.mark.parametrize("case", PERTURBATIONS)
def test_campaign_reports_each_disagreement(monkeypatch, case):
    """One field of the step run or of the reference, perturbed, is the one
    mismatch of a one-program campaign."""
    changes, reference, message = PERTURBATIONS[case]
    monkeypatch.setattr(fuzz, "execute", _edit_record(**changes))
    if reference is not None:
        monkeypatch.setattr(fuzz, "reference_evaluate", reference)
    result = fuzz.differential_campaign(1, seed=SEED)
    assert result.mismatches == ["program 0: " + message]
