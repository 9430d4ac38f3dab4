"""Malformed input never panics: the parser returns a program or raises
ParseError, and the binary loaders return or raise ValueError, whatever they
are given."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from semtrace.grpo import CategoricalSequencePolicy
from semtrace.lang import ParseError, Program, parse_program
from semtrace.probe import read_feature_file, write_feature_file

# 200 examples per test keep tier-1 fast
FAST = settings(max_examples=200, deadline=None, database=None)

PIECES = [
    "fn", "f", "(", "a", ",", "b", ")", "{", "}", "[", "]", "=", "return", "if", "else", "while",
    "for", "in", "range", "break", "continue", "append", "not", "and", "or", "==", "<", "<=", "+",
    "-", "*", "//", "%", "/", "len", "min", "0", "1", "9223372036854775808", "2.5", "1e3", "1.",
    '"s"', '"a\\n"', '"', "\\", "#", "true", "null", "inf", "__HOLE_1__", "_", "\u0663",
]
SEPARATORS = st.sampled_from(["", " ", "\t", "\r", "\n", "\r\n"])


@st.composite
def miniimp_like(draw):
    pieces = draw(st.lists(st.tuples(st.sampled_from(PIECES), SEPARATORS), max_size=40))
    return "".join(piece + sep for piece, sep in pieces)


@FAST
@given(st.one_of(st.text(), miniimp_like()))
def test_parse_program_returns_a_program_or_raises_parse_error(source):
    try:
        result = parse_program(source)
    except ParseError:
        return
    assert isinstance(result, Program)


def write_features(path):
    write_feature_file(path, 2, [("prob-a", "x", 1.5, np.array([1.0, 2.0])), ("b", "yy", -1.0, np.zeros(2))])


def write_policy(path):
    pol = CategoricalSequencePolicy()
    pol.params = {"prompt": [np.array([1.0, 2.0, 3.0]), np.zeros(0)], "q": [np.array([4.0])]}
    pol.save(path)


def mutated(valid: bytes):
    """Arbitrary bytes, arbitrary bytes after the file's magic, and the
    valid file with some bytes overwritten and its tail cut at some point."""
    edits = st.lists(st.tuples(st.integers(0, len(valid) - 1), st.integers(0, 255)), min_size=1, max_size=4)

    def apply(args):
        changes, keep = args
        data = bytearray(valid)
        for at, byte in changes:
            data[at] = byte
        return bytes(data[:keep])

    return st.one_of(
        st.binary(),
        st.binary().map(lambda tail: valid[:8] + tail),
        st.tuples(edits, st.integers(0, len(valid))).map(apply),
    )


def load_policy(path):
    CategoricalSequencePolicy().load(path)


def check_loader(tmp_path_factory, write, load):
    path = tmp_path_factory.mktemp("no-panic") / "case.bin"
    write(path)

    @FAST
    @given(mutated(path.read_bytes()))
    def run(data):
        path.write_bytes(data)
        try:
            load(path)
        except ValueError:
            pass

    run()


def test_feature_file_loader_returns_or_raises_value_error(tmp_path_factory):
    check_loader(tmp_path_factory, write_features, read_feature_file)


def test_policy_loader_returns_or_raises_value_error(tmp_path_factory):
    check_loader(tmp_path_factory, write_policy, load_policy)
