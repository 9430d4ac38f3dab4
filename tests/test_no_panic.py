"""Malformed input never panics: the parser returns a program or raises
ParseError, and the binary and JSONL loaders return or raise ValueError,
whatever they are given."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semtrace.evalsuite import load_eval_items
from semtrace.grpo import CategoricalSequencePolicy
from semtrace.harness import decode_test_case, load_problems
from semtrace.lang import ParseError, Program, parse_program
from semtrace.probe import read_feature_file, write_feature_file
from semtrace.scheduler import AlignmentPrompt
from semtrace.values import read_jsonl

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


# an opener and its closer, a prefix operator, or a link of an operator or
# item chain: long runs of one pass the grammar's bounds on nesting
RUNS = [("(", ")"), ("[", "]"), ("{", "}"), ("xs[", "]"), ("abs(", ")"), ("-", ""), ("not ", ""),
        ("if a { ", " }"), ("a + ", ""), ("a and ", ""), ("a, ", "")]


@st.composite
def long_runs(draw):
    opener, closer = draw(st.sampled_from(RUNS))
    depth = draw(st.integers(0, 3000))
    run = opener * depth + draw(st.sampled_from(["a", "x = a"])) + closer * draw(st.integers(0, depth))
    return draw(st.sampled_from(["fn f(a, xs) { x = %s return x }", "fn f(a, xs) { %s }", "%s"])) % run


@FAST
@given(st.one_of(st.text(), miniimp_like(), long_runs()))
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


# --- JSONL loaders: one record holding arbitrary JSON under the loader's keys ---

# nested one level deep (the keys' own strategies nest further): st.recursive
# costs three times as much to draw, which tier-1's time cannot afford
SCALAR = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
JSON = SCALAR | st.lists(SCALAR, max_size=3) | st.dictionaries(st.text(max_size=3), SCALAR, max_size=3)
NAMES = ["a", "b", "t", "xs", "ys", "i"]
# valid programs (and a template) let a record get past the parse; JSON holds arbitrary text
SOURCES = st.sampled_from([
    "fn f(a) { b = a return b }",
    "fn f(xs) { ys = [] for i in range(0, len(xs)) { append(ys, xs[i]) } return ys }",
    "fn f(a, b) { t = a __HOLE_1__ b return t }",
])
INPUTS = st.lists(st.integers(-3, 3), max_size=2)
VARIABLES = st.lists(st.sampled_from(NAMES), max_size=3)


def keys(**values):
    """JSON objects holding ``values``' keys, each with, at even odds, arbitrary
    JSON or a value of its own strategy (``JSON | v`` would draw ``v`` about
    a fifth of the time)."""
    return st.fixed_dictionaries({k: st.booleans().flatmap(lambda own, v=v: v if own else JSON)
                                  for k, v in values.items()})


TEST_CASE = keys(input=INPUTS, expected=JSON)
TEMPLATE = keys(source=SOURCES, holes=st.lists(st.lists(st.sampled_from(["+", "-", "*", ")"]), max_size=2), max_size=2))
ALIGNMENT_PROMPT = keys(id=st.text(max_size=3), source=SOURCES, input=INPUTS, variables=VARIABLES,
                        truth=st.dictionaries(st.sampled_from(NAMES), JSON, max_size=3) | st.lists(JSON, max_size=2),
                        origin_step=st.integers())
LOADERS = {
    "problems": (keys(id=st.text(max_size=3), template=TEMPLATE, tests=st.lists(TEST_CASE, max_size=2)),
                 load_problems),
    "test-cases": (TEST_CASE, lambda path: read_jsonl(path, decode_test_case)),
    "eval-items": (keys(id=st.text(max_size=3), source=SOURCES, input=INPUTS, variables=VARIABLES),
                   load_eval_items),
    "alignment-prompts": (ALIGNMENT_PROMPT, lambda path: read_jsonl(path, AlignmentPrompt.from_record)),
    # semtrace eval reads a run's buffer.jsonl as eval items
    "alignment-prompts-as-eval-items": (ALIGNMENT_PROMPT, load_eval_items),
}


@pytest.mark.parametrize("name", list(LOADERS))
def test_jsonl_loader_returns_or_raises_value_error(tmp_path_factory, name):
    records, load = LOADERS[name]
    path = tmp_path_factory.mktemp("no-panic") / "case.jsonl"

    @FAST
    @given(records)
    def run(record):
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        try:
            load(path)
        except ValueError:  # ConfigError included
            pass

    run()
