"""Canonical serialization, strict prediction parsing, and Exact@1 scoring."""

import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semtrace.evalsuite import (
    MalformedPrediction,
    build_eval_item,
    build_prompt,
    canonical_serialize,
    load_eval_items,
    oracle_predictor_for,
    parse_prediction,
    run_eval,
    score_item,
    serialize_record,
)
from semtrace.lang import format_program, parse_program
from semtrace.rewards import matches_expected as values_match_truth
from semtrace.values import (INF_SENTINEL, INT_MAX, INT_MIN, NEG_INF_SENTINEL, MimSet, decode_json_value,
                             encode_json_value, load_json)


GOLDEN_LINE = '{ "final_output": 3, "variables": { "cnt": 2, "buf": [1, 2] } }'


def test_golden_line_byte_exact():
    assert serialize_record(3, {"cnt": 2, "buf": [1, 2]}) == GOLDEN_LINE


def test_sets_serialize_ascending():
    assert canonical_serialize(MimSet([3, 1, 2])) == "[1, 2, 3]"


def test_infinity_sentinels():
    assert canonical_serialize(math.inf) == '"__INF__"'
    assert canonical_serialize(-math.inf) == '"__-INF__"'


def test_mixed_type_set_order():
    s = MimSet(["b", True, 2, "a", 1.5])
    assert canonical_serialize(s) == '[1.5, 2, true, "a", "b"]'


def test_scalar_literals():
    assert canonical_serialize(None) == "null"
    assert canonical_serialize(True) == "true"
    assert canonical_serialize(False) == "false"
    assert canonical_serialize(2.5) == "2.5"
    assert canonical_serialize("x\ny") == '"x\\ny"'


def test_serialization_deterministic():
    v = [MimSet([2, 1]), math.inf, {"no": "objects"} if False else "s"]
    assert canonical_serialize(v) == canonical_serialize(list(v))


# arbitrary text, and strings at and around the sentinels' spelling
_STRINGS = st.text() | st.builds(
    lambda head, core, tail: head + core + tail,
    st.sampled_from(["", "_", "__", "x"]),
    st.sampled_from([INF_SENTINEL, NEG_INF_SENTINEL, "INF__", "-INF__", "_INF_"]),
    st.sampled_from(["", "_", "x"]),
)
_ATOMS = st.one_of(
    st.booleans(),
    st.integers(INT_MIN, INT_MAX),
    st.floats(allow_nan=False),  # +-inf, +-0.0, subnormals and huge floats
    _STRINGS,
)
_VALUES = st.recursive(
    st.one_of(st.none(), _ATOMS, st.lists(_ATOMS, max_size=6).map(MimSet)),
    lambda inner: st.lists(inner, max_size=5),
    max_leaves=12,
)


@settings(max_examples=100, deadline=None, database=None)
@given(_VALUES)
def test_canonical_text_is_one_json_line_that_round_trips(value):
    text = canonical_serialize(value)
    assert "\n" not in text and "\r" not in text
    assert values_match_truth(value, decode_json_value(load_json(text)))


@settings(max_examples=200, deadline=None, database=None)
@given(_STRINGS)
def test_only_a_string_spelled_like_a_sentinel_changes_its_text(text):
    # a sentinel behind zero or more extra "_" gains one "_"
    escaped = re.fullmatch(r"_*__-?INF__", text) is not None
    assert encode_json_value(text) == ("_" + text if escaped else text)
    assert decode_json_value(load_json(canonical_serialize(text))) == text


def test_strings_spelled_like_a_sentinel_round_trip():
    for text in ("__INF__", "___INF__", "__-INF__", "____-INF__"):
        assert canonical_serialize(text) == '"_%s"' % text
        assert decode_json_value(load_json(canonical_serialize(text))) == text
    assert decode_json_value(INF_SENTINEL) == math.inf and decode_json_value(NEG_INF_SENTINEL) == -math.inf


def test_empty_variables_record():
    assert serialize_record(1, {}) == '{ "final_output": 1, "variables": {} }'


# --- prediction parsing ---


def test_parse_takes_last_nonempty_line():
    raw = "thinking about loops...\nmore notes\n\n" + GOLDEN_LINE + "\n"
    pred = parse_prediction(raw)
    assert pred.final_output == 3
    assert pred.variables == {"cnt": 2, "buf": [1, 2]}


def test_single_quotes_rejected():
    with pytest.raises(MalformedPrediction):
        parse_prediction("{'a': 1}")


def test_python_only_literals_rejected():
    for bad in ('{"final_output": NaN, "variables": {}}',
                '{"final_output": Infinity, "variables": {}}',
                '{"final_output": None, "variables": {}}',
                '{"final_output": 1e400, "variables": {}}'):
        with pytest.raises(MalformedPrediction):
            parse_prediction(bad)


def test_sentinels_decode_to_infinities():
    pred = parse_prediction('{"final_output": "__-INF__", "variables": {"a": "__INF__"}}')
    assert pred.final_output == -math.inf
    assert pred.variables["a"] == math.inf


def test_wrong_keys_rejected():
    with pytest.raises(MalformedPrediction):
        parse_prediction('{"final_output": 1}')
    with pytest.raises(MalformedPrediction):
        parse_prediction('{"final_output": 1, "variables": {}, "extra": 2}')


def test_round_trip_through_serialization():
    truth_out = MimSet([2, 1])
    truth_vars = {"a": math.inf, "b": [1, "x", None]}
    line = serialize_record(truth_out, truth_vars)
    pred = parse_prediction(line)
    assert values_match_truth(truth_out, pred.final_output)
    for k, v in truth_vars.items():
        assert values_match_truth(v, pred.variables[k])


# --- Exact@1 ---


SET_SRC = "fn f() { s = {2, 1} return s }"


def test_set_truth_requires_ascending_list():
    item = build_eval_item("t", parse_program(SET_SRC), [])
    good = '{"final_output": [1, 2], "variables": {"s": [1, 2]}}'
    bad = '{"final_output": [2, 1], "variables": {"s": [2, 1]}}'
    assert score_item(item, good).exact
    assert not score_item(item, bad).exact


def test_one_wrong_variable_fails_exact():
    p = parse_program("fn f(a) { b = a + 1 return b }")
    item = build_eval_item("t", p, [4])
    pred = '{"final_output": 5, "variables": {"a": 4, "b": 0}}'
    assert not score_item(item, pred).exact


def test_prompt_contains_code_and_variables():
    p = parse_program("fn f(a) { b = a + 1 return b }")
    item = build_eval_item("t", p, [4])
    prompt = build_prompt(item)
    assert "fn f(a)" in prompt
    assert '"a", "b"' in prompt
    assert "[4]" in prompt
    assert "{function_name}" not in prompt


def test_prompt_shows_code_holding_placeholder_text_verbatim():
    p = parse_program('fn f(a) { s = "{input}" t = "{code}" return a }')
    prompt = build_prompt(build_eval_item("t", p, [7]))
    assert format_program(p).rstrip("\n") in prompt
    assert prompt.count("[7]") == 1


@pytest.mark.parametrize("char", ["\u2028", "\u2029", "\x85"], ids=["U+2028", "U+2029", "U+0085"])
def test_oracle_scores_values_holding_a_unicode_line_break(char):
    """Only a line feed ends a line: the answer line keeps these characters raw."""
    items = [
        build_eval_item("input", parse_program("fn f(s) { n = len(s) return n }"), ["a%sb" % char]),
        build_eval_item("variable", parse_program('fn f(a) { s = "x%sy" return a }' % char), [1]),
    ]
    assert run_eval(items, oracle_predictor_for(items)).exact_at_1 == 1.0


def test_prediction_ending_in_crlf_parses():
    pred = parse_prediction('reasoning\r\n{"final_output": 1, "variables": {"a": "x\u2028y"}}\r\n')
    assert pred.final_output == 1 and pred.variables == {"a": "x\u2028y"}


def test_oracle_predictor_scores_perfectly():
    items = [
        build_eval_item("i1", parse_program("fn f(a) { b = a * 2 return b }"), [3]),
        build_eval_item("i2", parse_program(SET_SRC), []),
        build_eval_item("i3", parse_program("fn f() { x = 1 / 0.0 return x }"), []),
    ]
    report = run_eval(items, oracle_predictor_for(items))
    assert report.exact_at_1 == 1.0


def test_malformed_prediction_isolated_to_its_item():
    items = [
        build_eval_item("i1", parse_program("fn f(a) { b = a return b }"), [1]),
        build_eval_item("i2", parse_program("fn f(a) { b = a return b }"), [2]),
    ]
    oracle = oracle_predictor_for(items)

    def predictor(prompt):
        text = oracle(prompt)
        if "[2]" in prompt:
            return "not json at all"
        return text

    report = run_eval(items, predictor)
    assert report.exact_at_1 == 0.5
    failed = [r for r in report.items if not r.exact]
    assert failed[0].error is not None


def test_constant_null_predictor_scores_zero():
    items = [build_eval_item("i1", parse_program("fn f(a) { b = a + 1 return b }"), [1])]
    report = run_eval(items, lambda prompt: '{"final_output": null, "variables": {}}')
    assert report.exact_at_1 == 0.0


def test_ten_item_fixture_with_faulty_predictor():
    items = [
        build_eval_item("n%d" % k, parse_program("fn f(a) { b = a + %d return b }" % k), [k])
        for k in range(10)
    ]
    oracle = oracle_predictor_for(items)
    wrong_on = {"[0]", "[4]", "[7]"}  # inputs the faulty predictor bungles

    def predictor(prompt):
        if any(tag in prompt for tag in wrong_on):
            return '{"final_output": -1, "variables": {}}'
        return oracle(prompt)

    report = run_eval(items, predictor)
    assert report.exact_at_1 == pytest.approx(0.7)


def test_load_eval_items_regenerates_truth(tmp_path):
    path = tmp_path / "eval_items.jsonl"
    path.write_text(
        json.dumps(
            {
                "id": "a",
                "source": "fn f(x) {\n    y = x + 1\n    return y\n}\n",
                "input": [4],
                "variables": ["x", "y"],
            }
        )
        + "\n"
    )
    items = load_eval_items(path)
    assert items[0].return_value == 5
    assert items[0].truth == {"x": 4, "y": 5}


def test_load_eval_items_rejects_stale_variable_list(tmp_path):
    path = tmp_path / "eval_items.jsonl"
    path.write_text(
        json.dumps(
            {
                "id": "a",
                "source": "fn f(x) {\n    y = x + 1\n    return y\n}\n",
                "input": [4],
                "variables": ["y"],
            }
        )
        + "\n"
    )
    with pytest.raises(ValueError):
        load_eval_items(path)


def test_eval_item_id_with_txt_tmp_takes_at_most_255_bytes_of_utf8(tmp_path):
    path = tmp_path / "eval_items.jsonl"
    record = {"source": "fn f(x) { return x }", "input": [1]}
    for item_id, size in (("x" * 247, None), ("\u00e9" * 123 + "x", None), ("x" * 248, 256), ("\u00e9" * 124, 256)):
        path.write_text(json.dumps(dict(record, id=item_id)) + "\n")
        if size is None:
            assert [item.item_id for item in load_eval_items(path)] == [item_id]
        else:
            with pytest.raises(ValueError, match="takes %d bytes of UTF-8, over the limit of 255" % size):
                load_eval_items(path)


def test_load_eval_items_rejects_out_of_domain_input(tmp_path):
    path = tmp_path / "eval_items.jsonl"
    path.write_text(json.dumps({"id": "a", "source": "fn f(x) { return x }", "input": [2**63]}) + "\n")
    with pytest.raises(ValueError, match="9223372036854775808"):
        load_eval_items(path)
    path.write_text('{"id": "a", "source": "fn f(x) { return x }", "input": [1e400]}\n')
    with pytest.raises(ValueError, match="line 1: number 1e400 is outside the float range"):
        load_eval_items(path)


def test_out_of_domain_prediction_is_malformed_and_scored_wrong():
    for bad in ('{"final_output": 9223372036854775808, "variables": {}}',
                '{"final_output": 1, "variables": {"b": {"k": 1}}}',
                '{"final_output": 1, "variables": {"b": [-1e400]}}'):
        with pytest.raises(MalformedPrediction):
            parse_prediction(bad)
    items = [build_eval_item("i1", parse_program("fn f(a) { b = a return b }"), [1])]
    report = run_eval(items, lambda prompt: '{"final_output": 1, "variables": {"a": 1, "b": 9223372036854775808}}')
    assert report.exact_at_1 == 0.0
    assert report.items[0].error is not None
