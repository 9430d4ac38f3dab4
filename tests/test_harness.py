"""Configuration, dataset loading, atomic persistence, locking."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import semtrace
from semtrace.harness import (
    ConfigError,
    RunConfig,
    RunLock,
    SEED_ENV_VAR,
    atomic_write_text,
    load_problems,
    read_jsonl,
)
from semtrace.lang import parse_program
from semtrace.rewards import TestCase, gen_reward
from semtrace.scheduler import FailureBuffer, build_alignment_prompt
from semtrace.values import MimSet, canonical_serialize, decode_json_value, encode_json_value, load_json


def test_defaults_are_valid():
    RunConfig().validate()


def test_validation_names_the_bad_field():
    cfg = RunConfig(align_ratio=1.5)
    with pytest.raises(ConfigError) as exc:
        cfg.validate()
    assert "align_ratio" in str(exc.value)


@pytest.mark.parametrize(
    "field,value",
    [
        ("seed", -1),
        ("batch_size", 0),
        ("group_size", 1),
        ("clip_eps", 0.0),
        ("learning_rate", -1.0),
        ("learning_rate", math.inf),
        ("learning_rate", math.nan),
        ("kl_beta", math.inf),
        ("kl_beta", math.nan),
        ("optimizer", "rmsprop"),
    ],
)
def test_invalid_fields_rejected(field, value):
    cfg = RunConfig(**{field: value})
    with pytest.raises(ConfigError) as exc:
        cfg.validate()
    assert field in str(exc.value)


def test_from_file_rejects_unknown_fields(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"seed": 1, "warp_factor": 9}))
    with pytest.raises(ConfigError) as exc:
        RunConfig.from_file(path)
    assert "warp_factor" in str(exc.value)


def test_from_file_accepts_an_int_for_a_float_field(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"learning_rate": 1, "kl_beta": 0}))
    cfg = RunConfig.from_file(path)
    assert (cfg.learning_rate, cfg.kl_beta) == (1, 0)


def test_env_var_overrides_seed(tmp_path, monkeypatch):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"seed": 1}))
    monkeypatch.setenv(SEED_ENV_VAR, "77")
    assert RunConfig.from_file(path).seed == 77
    monkeypatch.setenv(SEED_ENV_VAR, "not-a-number")
    with pytest.raises(ConfigError):
        RunConfig.from_file(path)


def test_json_value_round_trip():
    values = [1, 2.5, True, None, "s", [1, [2, "x"]], math.inf, -math.inf]
    for v in values:
        assert decode_json_value(encode_json_value(v)) == v
    assert encode_json_value(MimSet([3, 1])) == [1, 3]
    ints = list(range(-40, 40))
    encoded = encode_json_value(ints)
    assert encoded == ints and encoded is not ints
    assert [type(x) for x in encode_json_value([1, True, 2])] == [int, bool, int]


def test_encoding_a_value_nested_too_deeply_is_a_value_error():
    deep = [1]
    for _ in range(5000):
        deep = [deep, MimSet([2])]
    for encode in (encode_json_value, canonical_serialize):
        with pytest.raises(ValueError, match="nested too deeply"):
            encode(deep)


def test_decode_rejects_values_outside_the_domain():
    assert decode_json_value([2**63 - 1, -(2**63)]) == [2**63 - 1, -(2**63)]
    for raw in (2**63, -(2**63) - 1, math.nan, [1, [math.nan]], {"a": 1}, math.inf, [-math.inf]):
        with pytest.raises(ValueError):
            decode_json_value(raw)
    with pytest.raises(ValueError, match="9223372036854775808"):
        decode_json_value([2**63])
    # a flat int list is checked in one pass, and falls back to the element
    # path for an out-of-range int or a bool
    with pytest.raises(ValueError, match="9223372036854775808"):
        decode_json_value(list(range(100)) + [2**63])
    decoded = decode_json_value([1, True, 2])
    assert decoded == [1, True, 2] and [type(x) for x in decoded] == [int, bool, int]
    assert load_json('[1.5e300, "__INF__"]') == [1.5e300, "__INF__"]
    for text in ("1e400", "[-1e400]", '{"a": [2e308]}'):
        with pytest.raises(ValueError, match="outside the float range"):
            load_json(text)
    for text, constant in (("NaN", "NaN"), ("[1, Infinity]", "Infinity"), ('{"a": -Infinity}', "-Infinity")):
        with pytest.raises(ValueError, match="^%s is not a JSON number$" % constant):
            load_json(text)
    # a lone surrogate is not a character; a pair decodes to one
    for text in ('"\\ud800"', '["a\\udfff"]', '[1, ["\\udc00b"]]', '"\\ude00\\ud83d"'):
        with pytest.raises(ValueError, match="^lone surrogate '.ud[89a-f][0-9a-f]{2}' is not a character$"):
            decode_json_value(load_json(text))
    assert decode_json_value(load_json('["\\ud83d\\ude00"]')) == ["\U0001F600"]


def test_load_problems(tmp_path):
    record = {
        "id": "sum",
        "template": {
            "source": "fn s(a, b) {\n    t = a __HOLE_1__ b\n    return t\n}\n",
            "holes": [["+", "-"]],
        },
        "tests": [{"input": [1, 2], "expected": 3}],
    }
    path = tmp_path / "problems.jsonl"
    path.write_text(json.dumps(record) + "\n")
    problems = load_problems(path)
    assert problems[0].problem_id == "sum"
    assert problems[0].tests[0].expected == 3


def test_load_problems_reports_line_number(tmp_path):
    path = tmp_path / "problems.jsonl"
    source = "fn s(a, b) {\n    t = a __HOLE_1__ b\n    return t\n}\n"
    bad_records = [{"id": "x"}] + [
        {"id": "p", "template": {"source": source, "holes": [["+"]]}, "tests": [bad_test]}
        for bad_test in (
            {"input": [2**63, 0], "expected": 1},
            {"input": [1, 2], "expected": math.nan},
            {"input": [1, 2], "expected": math.inf},
            {"input": [1, 2], "expected": 1e300},
        )
    ]
    for record in bad_records:
        # 1e300 stands in for 1e400, which json.dumps cannot write
        path.write_text(json.dumps(record).replace("1e+300", "1e400") + "\n")
        with pytest.raises(ConfigError) as exc:
            load_problems(path)
        assert "line 1" in str(exc.value)


def test_load_problems_rejects_an_empty_file(tmp_path):
    path = tmp_path / "problems.jsonl"
    path.write_text("\n")
    with pytest.raises(ConfigError, match="is empty$"):
        load_problems(path)


def test_load_problems_rejects_empty_tests(tmp_path):
    record = {
        "id": "p",
        "template": {"source": "fn f(a) {\n    b = a __HOLE_1__ 1\n    return b\n}\n", "holes": [["+"]]},
        "tests": [],
    }
    path = tmp_path / "problems.jsonl"
    path.write_text(json.dumps(record) + "\n")
    with pytest.raises(ConfigError):
        load_problems(path)


def test_atomic_write_leaves_no_temp_file(tmp_path):
    path = tmp_path / "out.txt"
    atomic_write_text(path, "hello\n")
    assert path.read_text() == "hello\n"
    assert list(tmp_path.iterdir()) == [path]


def test_jsonl_round_trip(tmp_path):
    # read_jsonl reads back a failure buffer as a run saves it
    buf = FailureBuffer(capacity=4)
    for k in range(3):
        p = parse_program('fn f(a) { xs = [a, %d] y = a / 0.0 s = "q" r = a + %d return r }' % (k, k))
        tests = [TestCase([1], 0)]
        buf.add(build_alignment_prompt(p, tests, gen_reward(p, tests), origin_step=k))
    path = tmp_path / "buffer.jsonl"
    atomic_write_text(path, buf.jsonl_text())
    records = read_jsonl(path)
    assert records == [p.to_record() for p in buf.entries] and len(records) == 3
    assert records[0]["truth"] == {"a": 1, "xs": [1, 0], "y": "__INF__", "s": "q", "r": 1}


def test_run_lock_exclusive(tmp_path):
    with RunLock(tmp_path):
        with pytest.raises(RuntimeError):
            with RunLock(tmp_path):
                pass
    # released on exit
    with RunLock(tmp_path):
        pass


def test_run_lock_is_released_when_its_holder_dies(tmp_path):
    # the holder exits without leaving the context, as a killed run does
    code = "import os, sys; from semtrace.harness import RunLock; RunLock(sys.argv[1]).__enter__(); os._exit(0)"
    env = dict(os.environ, PYTHONPATH=str(Path(semtrace.__file__).parents[1]))
    subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env, check=True)
    lock = RunLock(tmp_path)
    assert lock.path.exists()
    with lock:
        pass
