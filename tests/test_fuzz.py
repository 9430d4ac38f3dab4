"""The fuzzer's draw source against numpy's own draws, and the fuzzer's
programs pinned by hash."""

import hashlib
import random

import numpy as np
import pytest

from semtrace.fuzz import ProgramFuzzer, _Draws
from semtrace.lang import format_program


def spans(plan):
    """Numbers of values to draw from: small ones, as the fuzzer draws, any
    up to 2**32, and ones that Lemire's method rejects often."""
    yield from (1, 2, 3, 5, 21, 2**32, 2**31 + 1, 3 * 2**30 + 7, 2**32 - 1)
    while True:
        yield plan.choice((plan.randrange(1, 50), plan.randrange(1, (1 << plan.randrange(1, 33)) + 1),
                          2**31 + plan.randrange(2**31)))


@pytest.mark.parametrize("seed", [0, 1, 2024])
def test_draws_match_numpy_draw_by_draw(seed):
    """Random sequences of ``integers`` (with and without ``low``) and
    ``random`` between syncs, with the caller drawing from the generator
    between them: every value, and the generator's state after each sync,
    are numpy's."""
    plan = random.Random(seed)
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    draws = _Draws(ours)
    span = spans(plan)
    for sync in range(300):
        draws.open()
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
            assert value == want, sync
        draws.close()
        assert ours.bit_generator.state == theirs.bit_generator.state, sync
        if plan.random() < 0.3:  # the caller draws too, maybe taking a buffered half
            n = plan.choice((7, 2**40))
            assert ours.integers(n) == theirs.integers(n)


def test_integers_draw_from_one_to_two_to_the_32_values():
    draws = _Draws(np.random.default_rng(1))
    draws.open()
    assert draws.integers(5, 6) == 5 and draws.words == []  # one value draws nothing
    for low, high in ((0, 0), (3, 2), (0, 2**32 + 1)):
        with pytest.raises(ValueError):
            draws.integers(low, high)
    draws.close()


@pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.Philox, np.random.SFC64])
def test_fuzzer_needs_a_pcg64_generator(bit_generator):
    with pytest.raises(TypeError):
        ProgramFuzzer(np.random.Generator(bit_generator(1)))


def programs_digest(seed, n=300, caller_draws=False):
    """SHA-256 of ``n`` fuzzed programs, formatted, and their inputs; with
    ``caller_draws``, of draws the caller makes from the same generator
    between the fuzzer's calls too."""
    rng = np.random.default_rng(seed)
    fuzzer = ProgramFuzzer(rng)
    digest = hashlib.sha256()
    for _ in range(n):
        program = fuzzer.program()
        digest.update(format_program(program).encode())
        if caller_draws:
            digest.update(repr(int(rng.integers(3))).encode())
        digest.update(repr(fuzzer.inputs_for(program)).encode())
        if caller_draws:
            digest.update(repr(float(rng.random())).encode())
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
