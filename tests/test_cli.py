"""End-to-end checks of the command-line interface via cli.main(argv)."""

import json
import math
import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from semtrace import cli, fuzz
from semtrace.grpo import CategoricalSequencePolicy
from semtrace.harness import RunLock
from semtrace.probe import FEATURE_MAGIC, synthetic_linear_samples, write_feature_file

import numpy as np


IDENTITY_SRC = "fn f(a) {\n    b = a\n    return b\n}\n"
DIV_SRC = "fn f(a) {\n    x = a // 0\n    return x\n}\n"
SPIN_SRC = "fn f() {\n    x = 0\n    while true {\n        x = x + 1\n    }\n    return x\n}\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_trace_ok(tmp_path, capsys):
    prog = write(tmp_path, "id.mim", IDENTITY_SRC)
    assert cli.main(["trace", prog, "[7]"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == '{ "final_output": 7, "variables": { "a": 7, "b": 7 } }'


# an empty list below a statement's top node: on closures, an expression
# closure with no operands
EMPTY_LIST_SRC = "fn f(xs) {\n    if xs == [] {\n        return 0\n    }\n    return len(xs)\n}\n"


# returns "ab" doubled 17 times: 262,144 characters, printed twice, which
# is more than a pipe holds
GROW_SRC = "fn f(s) {\n    i = 0\n    while i < 17 {\n        s = s + s\n        i = i + 1\n    }\n    return s\n}\n"


def test_trace_into_a_pipe_closed_early_exits_one_without_a_traceback(tmp_path):
    prog = write(tmp_path, "grow.mim", GROW_SRC)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    with subprocess.Popen([sys.executable, "-m", "semtrace.cli", "trace", prog, '["ab"]'], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.read(24) == b'{ "final_output": "ababa'
        proc.stdout.close()  # as `| head -c 24` does
        assert proc.stderr.read() == b""
        assert proc.wait(timeout=60) == 1


def test_trace_and_reward_of_an_empty_list_operand(tmp_path, capsys):
    prog = write(tmp_path, "empty.mim", EMPTY_LIST_SRC)
    assert cli.main(["trace", prog, "[[1, 2]]"]) == 0
    assert capsys.readouterr().out.strip() == '{ "final_output": 2, "variables": { "xs": [1, 2] } }'
    tests = write(tmp_path, "tests.jsonl", "".join(json.dumps({"input": [xs], "expected": len(xs)}) + "\n"
                                                   for xs in ([1, 2], [])))
    assert cli.main(["reward", prog, tests]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["reward"] == 1 and [t["matched"] for t in payload["per_test"]] == [True, True]


def test_trace_parse_error(tmp_path, capsys):
    prog = write(tmp_path, "bad.mim", "fn f( {")
    assert cli.main(["trace", prog, "[]"]) == 1
    assert "parse error" in capsys.readouterr().err


def test_trace_runtime_error(tmp_path, capsys):
    prog = write(tmp_path, "div.mim", DIV_SRC)
    assert cli.main(["trace", prog, "[1]"]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err


def test_trace_budget_exceeded(tmp_path, capsys):
    prog = write(tmp_path, "spin.mim", SPIN_SRC)
    assert cli.main(["trace", prog, "[]", "--budget", "50"]) == 3
    assert "50" in capsys.readouterr().err


def test_trace_bad_input_json(tmp_path, capsys):
    prog = write(tmp_path, "id.mim", IDENTITY_SRC)
    for bad in ('{"not": "a list"}', "[9223372036854775808]", "[NaN]", "[1e400]", "[[-1e400]]", "[Infinity]"):
        assert cli.main(["trace", prog, bad]) == 1
        captured = capsys.readouterr()
        assert "bad input" in captured.err
        assert captured.out == ""


def test_trace_with_the_wrong_number_of_inputs_exits_two(tmp_path, capsys):
    prog = write(tmp_path, "id.mim", IDENTITY_SRC)
    assert cli.main(["trace", prog, "[1, 2]"]) == 2
    assert_one_line_error(capsys, "execution rejected: arity mismatch: ")


def assert_cannot_read(capsys, path):
    captured = capsys.readouterr()
    assert captured.err.startswith("cannot read %s: " % path)
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_trace_missing_program_file_exits_one(tmp_path, capsys):
    missing = str(tmp_path / "nofile.mi")
    assert cli.main(["trace", missing, "[1]"]) == 1
    assert_cannot_read(capsys, missing)


def test_reward_missing_file_exits_one(tmp_path, capsys):
    prog = write(tmp_path, "id.mim", IDENTITY_SRC)
    tests = write(tmp_path, "tests.jsonl", json.dumps({"input": [1], "expected": 1}) + "\n")
    missing = str(tmp_path / "nofile")
    for argv in (["reward", prog, missing], ["reward", missing, tests]):
        assert cli.main(argv) == 1
        assert_cannot_read(capsys, missing)


def test_eval_missing_items_file_exits_one(tmp_path, capsys):
    missing = str(tmp_path / "nofile.jsonl")
    out = tmp_path / "evalout"
    assert cli.main(["eval", missing, "--out", str(out)]) == 1
    assert_cannot_read(capsys, missing)
    assert not out.exists()


def test_train_missing_file_exits_one(tmp_path, capsys):
    config = write(tmp_path, "config.json", json.dumps({"seed": 1}))
    missing = str(tmp_path / "nofile.jsonl")
    run_dir = str(tmp_path / "run")
    assert cli.main(["train", config, "--run-dir", run_dir, "--dataset", missing]) == 1
    assert_cannot_read(capsys, missing)
    assert cli.main(["train", missing, "--run-dir", run_dir]) == 1
    assert_cannot_read(capsys, missing)


def test_reward_subcommand(tmp_path, capsys):
    prog = write(tmp_path, "id.mim", IDENTITY_SRC)
    tests = write(
        tmp_path,
        "tests.jsonl",
        json.dumps({"input": [1], "expected": 1})
        + "\n"
        + json.dumps({"input": [2], "expected": 3})
        + "\n",
    )
    assert cli.main(["reward", prog, tests]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["reward"] == 0
    assert payload["first_failing_terminating"] == 1
    assert payload["per_test"][0]["matched"] is True
    assert payload["per_test"][1]["actual"] == 2


def test_reward_malformed_tests_file_exits_one(tmp_path, capsys):
    prog = write(tmp_path, "id.mim", IDENTITY_SRC)
    bad_files = [
        json.dumps({"input": [1], "expected": 1}) + "\nnot json\n",
        json.dumps({"input": [1], "expected": {"a": 1}}) + "\n",
        json.dumps({"expected": 1}) + "\n",
        json.dumps({"input": [2**63], "expected": 1}) + "\n",
        "",
    ]
    for k, text in enumerate(bad_files):
        tests = write(tmp_path, "tests%d.jsonl" % k, text)
        assert cli.main(["reward", prog, tests]) == 1
        captured = capsys.readouterr()
        assert "bad tests file" in captured.err
        assert captured.out == ""


def test_eval_malformed_items_file_exits_one(tmp_path, capsys):
    bad_files = [
        "not json\n",
        json.dumps({"id": "a", "source": IDENTITY_SRC}) + "\n",
        json.dumps({"id": "a", "source": IDENTITY_SRC, "input": [2**63]}) + "\n",
    ]
    for k, text in enumerate(bad_files):
        items = write(tmp_path, "items%d.jsonl" % k, text)
        out = tmp_path / ("evalout%d" % k)
        assert cli.main(["eval", items, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "line 1" in captured.err
        assert captured.out == ""
        assert not out.exists()


def test_eval_empty_items_file_exits_one(tmp_path, capsys):
    items = write(tmp_path, "items.jsonl", "\n")
    assert cli.main(["eval", items, "--out", str(tmp_path / "evalout")]) == 1
    captured = capsys.readouterr()
    assert captured.err == "bad eval items: eval items file %s is empty\n" % items
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv,named",
    [
        (["trace", "{prog}", "[1]", "--budget", "0"], "--budget: must be at least 1, got 0"),
        (["reward", "{prog}", "{tests}", "--budget", "0"], "--budget: must be at least 1, got 0"),
        (["eval", "{items}", "--out", "{out}", "--budget", "0"], "--budget: must be at least 1, got 0"),
        (["fuzz", "-n", "-5"], "-n/--count: must be at least 1, got -5"),
        (["trace", "{prog}", "[1]", "--budget", "abc"], "--budget: invalid positive_int value: 'abc'"),
        (["trace", "{prog}"], "required: input"),
    ],
    ids=["trace-budget", "reward-budget", "eval-budget", "fuzz-count", "budget-not-an-int", "missing-argument"],
)
def test_malformed_arguments_exit_one(tmp_path, capsys, argv, named):
    paths = {
        "prog": write(tmp_path, "id.mim", IDENTITY_SRC),
        "tests": write(tmp_path, "tests.jsonl", json.dumps({"input": [1], "expected": 1}) + "\n"),
        "items": write(tmp_path, "items.jsonl", json.dumps({"id": "a", "source": IDENTITY_SRC, "input": [3]}) + "\n"),
        "out": str(tmp_path / "evalout"),
    }
    with pytest.raises(SystemExit) as exc:
        cli.main([arg.format(**paths) for arg in argv])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("semtrace %s: error: " % argv[0]) and captured.err.count("\n") == 1
    assert named in captured.err and captured.out == ""
    assert not (tmp_path / "evalout").exists()


def test_eval_oracle_writes_report_and_transcripts(tmp_path, capsys):
    items = write(
        tmp_path,
        "items.jsonl",
        json.dumps(
            {"id": "a", "source": IDENTITY_SRC, "input": [3], "variables": ["a", "b"]}
        )
        + "\n",
    )
    out = tmp_path / "evalout"
    assert cli.main(["eval", items, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["exact_at_1"] == 1.0
    assert (out / "transcripts" / "a.txt").exists()
    assert "Exact@1 = 1.0000" in capsys.readouterr().out


@pytest.mark.parametrize("text", ["__INF__", "__-INF__", "___INF__"])
def test_eval_oracle_scores_a_string_spelled_like_a_sentinel(tmp_path, capsys, text):
    source = 'fn f() { s = "%s" return s }' % text
    items = write(tmp_path, "items.jsonl", json.dumps({"id": "a", "source": source, "input": []}) + "\n")
    assert cli.main(["eval", items, "--out", str(tmp_path / "evalout")]) == 0
    assert capsys.readouterr().out == "Exact@1 = 1.0000 over 1 items\n"


def test_eval_predictor_command_keeps_its_quoted_argument(tmp_path, capsys):
    items = write(tmp_path, "items.jsonl",
                  json.dumps({"id": "a", "source": IDENTITY_SRC, "input": [3], "variables": ["a", "b"]}) + "\n")
    code = "print(%r)" % json.dumps({"final_output": 3, "variables": {"a": 3, "b": 3}})
    predictor = "%s -c %s" % (shlex.quote(sys.executable), shlex.quote(code))
    assert cli.main(["eval", items, "--out", str(tmp_path / "evalout"), "--predictor", predictor]) == 0
    assert capsys.readouterr().out == "Exact@1 = 1.0000 over 1 items\n"
    unclosed = "%s -c 'print(1)" % shlex.quote(sys.executable)
    assert cli.main(["eval", items, "--out", str(tmp_path / "unclosed"), "--predictor", unclosed]) == 1
    assert_one_line_error(capsys, "bad predictor: No closing quotation")
    assert not (tmp_path / "unclosed").exists()


def test_eval_predictor_that_fails_scores_every_item_wrong(tmp_path, capsys, monkeypatch):
    items = write(tmp_path, "items.jsonl", "".join(
        json.dumps({"id": k, "source": IDENTITY_SRC, "input": [3]}) + "\n" for k in ("a", "b")))
    timeouts = []
    run = cli.subprocess.run
    monkeypatch.setattr(cli.subprocess, "run", lambda *args, **kw: timeouts.append(kw["timeout"]) or run(*args, **kw))
    code = "import sys; sys.stderr.write('no model'); sys.exit(3)"
    predictor = "%s -c %s" % (shlex.quote(sys.executable), shlex.quote(code))
    out = tmp_path / "evalout"
    assert cli.main(["eval", items, "--out", str(out), "--predictor", predictor, "--timeout", "2.5"]) == 0
    assert capsys.readouterr().out == "Exact@1 = 0.0000 over 2 items\n"
    assert timeouts == [2.5, 2.5]
    report = json.loads((out / "report.json").read_text())
    assert [(r["id"], r["exact"], r["output_correct"], r["error"]) for r in report["items"]] == [
        (k, False, False, "predictor failed: predictor exited with 3: no model") for k in ("a", "b")]


@pytest.mark.parametrize("predictor", ["", "   "])
def test_eval_predictor_command_of_no_words_exits_one(tmp_path, capsys, predictor):
    items = write(tmp_path, "items.jsonl", json.dumps({"id": "a", "source": IDENTITY_SRC, "input": [3]}) + "\n")
    assert cli.main(["eval", items, "--out", str(tmp_path / "evalout"), "--predictor", predictor]) == 1
    assert_one_line_error(capsys, "bad predictor: empty command\n")
    assert not (tmp_path / "evalout").exists()


@pytest.mark.parametrize("option", ["--ratio", "--epochs", "--lr"])
def test_removed_probe_setting_is_a_usage_error(tmp_path, capsys, option):
    feat_dir = tmp_path / "features"
    feat_dir.mkdir()
    write_feature_file(feat_dir / "layer0.bin", 0, [("p", "a", 1.0, np.zeros(3))])
    with pytest.raises(SystemExit) as exc:
        cli.main(["probe", str(feat_dir), "--out", str(tmp_path / "out"), option, "2"])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.err == "semtrace: error: unrecognized arguments: %s 2\n" % option and captured.out == ""
    assert not (tmp_path / "out").exists()


def test_probe_csv_is_rerun_deterministic(tmp_path, capsys):
    rng = np.random.default_rng(5)
    samples = synthetic_linear_samples(60, rng)
    feat_dir = tmp_path / "features"
    feat_dir.mkdir()
    for layer in (0, 1):
        recs = [(s.problem_id, s.variable, s.target, s.features[layer]) for s in samples]
        write_feature_file(feat_dir / ("layer%d.bin" % layer), layer, recs)

    out_a = tmp_path / "out_a"
    out_b = tmp_path / "out_b"
    assert cli.main(["probe", str(feat_dir), "--out", str(out_a), "--seed", "4"]) == 0
    assert cli.main(["probe", str(feat_dir), "--out", str(out_b), "--seed", "4"]) == 0
    csv_a = (out_a / "probe_mse.csv").read_bytes()
    assert csv_a == (out_b / "probe_mse.csv").read_bytes()
    assert b"layer" in csv_a


def test_probe_truncated_feature_file_exits_one(tmp_path, capsys):
    feat_dir = tmp_path / "features"
    feat_dir.mkdir()
    path = feat_dir / "layer0.bin"
    write_feature_file(path, 0, [("p", "a", 1.0, np.zeros(3))])
    path.write_bytes(path.read_bytes()[:12])  # cut inside the header
    assert cli.main(["probe", str(feat_dir), "--out", str(tmp_path / "out")]) == 1
    assert "feature error:" in capsys.readouterr().err


def test_probe_feature_file_of_no_records_exits_one_and_writes_nothing(tmp_path, capsys):
    # a whole file whose header counts 0 records: no split can be drawn from it
    feat_dir = tmp_path / "features"
    feat_dir.mkdir()
    path = feat_dir / "layer0.bin"
    path.write_bytes(FEATURE_MAGIC + (0).to_bytes(4, "little") + (0).to_bytes(8, "little") + (3).to_bytes(4, "little"))
    assert len(path.read_bytes()) == 24
    out = tmp_path / "out"
    assert cli.main(["probe", str(feat_dir), "--out", str(out)]) == 1
    assert assert_one_line_error(capsys, "feature error: ") == "feature error: %s holds no records\n" % path
    assert not out.exists()


def test_probe_feature_entry_that_is_a_directory_exits_one(tmp_path, capsys):
    feat_dir = tmp_path / "features"
    (feat_dir / "layer0.bin").mkdir(parents=True)
    assert cli.main(["probe", str(feat_dir), "--out", str(tmp_path / "out")]) == 1
    assert_cannot_read(capsys, feat_dir / "layer0.bin")


def test_probe_seed_env_override(tmp_path, monkeypatch):
    rng = np.random.default_rng(5)
    samples = synthetic_linear_samples(60, rng)
    feat_dir = tmp_path / "features"
    feat_dir.mkdir()
    recs = [(s.problem_id, s.variable, s.target, s.features[1]) for s in samples]
    write_feature_file(feat_dir / "layer1.bin", 1, recs)

    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    monkeypatch.setenv("SEMTRACE_SEED", "11")
    assert cli.main(["probe", str(feat_dir), "--out", str(out_a), "--seed", "0"]) == 0
    monkeypatch.delenv("SEMTRACE_SEED")
    assert cli.main(["probe", str(feat_dir), "--out", str(out_b), "--seed", "11"]) == 0
    assert (out_a / "probe_mse.csv").read_bytes() == (out_b / "probe_mse.csv").read_bytes()


def test_fuzz_subcommand(capsys):
    assert cli.main(["fuzz", "-n", "40", "--seed", "2"]) == 0
    assert "40 programs" in capsys.readouterr().out


def test_fuzz_prints_each_mismatch_and_exits_two(capsys, monkeypatch):
    monkeypatch.setattr(fuzz, "reference_evaluate", lambda program, inputs: ("other", {}))
    assert cli.main(["fuzz", "-n", "3", "--seed", "2"]) == 2
    captured = capsys.readouterr()
    mismatches = captured.err.splitlines()
    assert captured.out == "3 programs, 3 returned, %d mismatches\n" % len(mismatches)
    assert mismatches and all(line.startswith("program ") for line in mismatches)
    assert {line.split(":")[0] for line in mismatches} == {"program 0", "program 1", "program 2"}


def write_train_inputs(tmp_path):
    """A three-problem dataset and a six-step config; returns their paths."""
    dataset = tmp_path / "problems.jsonl"
    records = []
    from semtrace.lang import parse_program
    from semtrace.tracer import reference_evaluate

    for k, op in enumerate(["+", "-", "*"]):
        src = (
            "fn f_%d(a, b) {\n    t = a __HOLE_1__ b\n    r = t + %d\n    return r\n}\n"
            % (k, k)
        )

        truth = parse_program(src.replace("__HOLE_1__", op))
        tests = []
        for a, b in [(2, 3), (5, 1)]:
            ret, _ = reference_evaluate(truth, [a, b])
            tests.append({"input": [a, b], "expected": ret})
        records.append(
            {
                "id": "p%d" % k,
                "template": {"source": src, "holes": [["+", "-", "*"]]},
                "tests": tests,
            }
        )
    dataset.write_text("".join(json.dumps(r) + "\n" for r in records))

    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "seed": 1,
                "batch_size": 4,
                "mini_batch": 2,
                "group_size": 4,
                "max_steps": 6,
                "checkpoint_interval": 3,
                "align_ratio": 0.25,
                "optimizer": "sgd",
                "learning_rate": 0.5,
            }
        )
    )
    return config, dataset


def test_train_and_resume(tmp_path, capsys):
    config, dataset = write_train_inputs(tmp_path)
    run_dir = tmp_path / "run"
    rc = cli.main(
        ["train", str(config), "--run-dir", str(run_dir), "--dataset", str(dataset)]
    )
    assert rc == 0
    lines = (run_dir / "metrics.jsonl").read_text().splitlines()
    assert len(lines) == 6

    # resume is a no-op when the run already reached max_steps
    rc = cli.main(
        [
            "train",
            str(config),
            "--run-dir",
            str(run_dir),
            "--dataset",
            str(dataset),
            "--resume",
        ]
    )
    assert rc == 0
    assert (run_dir / "metrics.jsonl").read_text().splitlines() == lines


def test_train_config_error_exits_one(tmp_path, capsys):
    config = tmp_path / "config.json"
    for text, named in (
        (json.dumps({"align_ratio": 2.0}), "align_ratio"),
        ("{", "not valid JSON"),
        ("[1]", "JSON object"),
        (json.dumps({"batch_size": "x"}), "batch_size"),
    ):
        config.write_text(text)
        assert cli.main(["train", str(config), "--run-dir", str(tmp_path / "r")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and named in err


@pytest.mark.parametrize("missing,named", [("--run-dir", "no run directory (pass --run-dir)"),
                                           ("--dataset", "no dataset (pass --dataset)")])
def test_train_without_a_run_dir_or_dataset_exits_one(tmp_path, capsys, missing, named):
    config, dataset = write_train_inputs(tmp_path)
    options = {"--run-dir": str(tmp_path / "run"), "--dataset": str(dataset)}
    del options[missing]
    assert cli.main(["train", str(config), *[word for item in options.items() for word in item]]) == 1
    assert_one_line_error(capsys, named + "\n")
    assert not (tmp_path / "run").exists()


def test_run_config_that_is_not_an_object_is_a_run_error(tmp_path, capsys):
    argv, _ = finished_run(tmp_path)
    saved = tmp_path / "run" / "config.json"
    saved.write_text("[1]\n")
    capsys.readouterr()
    assert cli.main(argv) == 1
    assert_one_line_error(capsys, "run error: %s must hold a JSON object\n" % saved)


def test_train_run_errors_exit_one(tmp_path, capsys):
    config, dataset = write_train_inputs(tmp_path)
    run_dir = tmp_path / "run"
    argv = ["train", str(config), "--run-dir", str(run_dir), "--dataset", str(dataset)]

    assert cli.main(argv + ["--resume"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("run error: ") and "no checkpoint" in err and err.count("\n") == 1

    assert cli.main(argv) == 0
    capsys.readouterr()
    with RunLock(run_dir):
        assert cli.main(argv + ["--resume"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("run error: ") and "locked" in err and err.count("\n") == 1

    metrics = run_dir / "metrics.jsonl"
    metrics.write_bytes(b"".join(metrics.read_bytes().splitlines(keepends=True)[:2]))
    assert cli.main(argv + ["--resume"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("run error: ") and "2 complete lines, not 6" in err and err.count("\n") == 1

    policy = run_dir / "checkpoints" / "step_6" / "code_policy.bin"
    policy.write_bytes(policy.read_bytes()[:-4])
    assert cli.main(argv + ["--resume"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("run error: ") and "code_policy.bin" in err and err.count("\n") == 1

    (run_dir / "metrics.jsonl").unlink()
    assert cli.main(argv + ["--resume"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("run error: ") and "metrics.jsonl is missing" in err and err.count("\n") == 1


def tree_bytes(root):
    """Every file under ``root``, by relative path, with its bytes."""
    return {str(path.relative_to(root)): path.read_bytes() for path in sorted(root.rglob("*")) if path.is_file()}


@pytest.mark.parametrize(
    "field,value,env",
    [("seed", 5, None), ("seed", 1, "5"), ("group_size", 3, None), ("step_budget", 500, None)],
    ids=["seed", "seed-from-env", "group_size", "step_budget"],
)
def test_train_resume_under_another_config_exits_one_and_writes_nothing(tmp_path, capsys, monkeypatch,
                                                                        field, value, env):
    """A run resumed under another config would mix two configs' steps in
    one metrics.jsonl; it is refused before anything is written."""
    config, dataset = write_train_inputs(tmp_path)
    run_dir = tmp_path / "run"
    argv = ["train", str(config), "--run-dir", str(run_dir), "--dataset", str(dataset)]
    assert cli.main(argv) == 0
    shutil.rmtree(run_dir / "checkpoints" / "step_6")  # so that a resume would run steps 4-6
    before = tree_bytes(run_dir)
    config.write_text(json.dumps(dict(json.loads(config.read_text()), **{field: value})))
    if env is not None:
        monkeypatch.setenv("SEMTRACE_SEED", env)
    capsys.readouterr()
    assert cli.main(argv + ["--resume"]) == 1
    err = assert_one_line_error(capsys, "run error: cannot resume under another config: ")
    assert err.startswith("run error: cannot resume under another config: %s is " % field)
    assert tree_bytes(run_dir) == before


@pytest.mark.parametrize("edit", ["expected", "order"])
def test_train_resume_with_another_dataset_exits_one_and_writes_nothing(tmp_path, capsys, edit):
    """A run resumed with another dataset would mix two datasets' steps in
    one metrics.jsonl; it is refused before anything is written."""
    config, dataset = write_train_inputs(tmp_path)
    run_dir = tmp_path / "run"
    argv = ["train", str(config), "--run-dir", str(run_dir), "--dataset", str(dataset)]
    assert cli.main(argv) == 0
    shutil.rmtree(run_dir / "checkpoints" / "step_6")  # so that a resume would run steps 4-6
    before = tree_bytes(run_dir)
    records = [json.loads(line) for line in dataset.read_text().splitlines()]
    if edit == "expected":
        records[1]["tests"][0]["expected"] += 1
    else:
        records.reverse()
    dataset.write_text("".join(json.dumps(r) + "\n" for r in records))
    capsys.readouterr()
    assert cli.main(argv + ["--resume"]) == 1
    err = assert_one_line_error(capsys, "run error: cannot resume with another dataset: ")
    assert str(run_dir / "problems.sha256") in err
    assert tree_bytes(run_dir) == before


def test_train_on_a_template_comparing_with_an_empty_list_completes(tmp_path, capsys):
    config, _ = write_train_inputs(tmp_path)
    source = EMPTY_LIST_SRC.replace("==", "__HOLE_1__")
    tests = [{"input": [xs], "expected": len(xs)} for xs in ([1, 2], [], [3])]
    dataset = write(tmp_path, "empty.jsonl", json.dumps(
        {"id": "empty", "template": {"source": source, "holes": [["==", "!="]]}, "tests": tests}) + "\n")
    run_dir = tmp_path / "run"
    assert cli.main(["train", str(config), "--run-dir", str(run_dir), "--dataset", dataset]) == 0
    assert (run_dir / "metrics.jsonl").read_text().count("\n") == 6


def test_train_resume_with_more_steps_matches_an_uninterrupted_run(tmp_path, capsys):
    config, dataset = write_train_inputs(tmp_path)
    argv = ["train", str(config), "--dataset", str(dataset), "--run-dir"]
    assert cli.main(argv + [str(tmp_path / "run")]) == 0
    config.write_text(json.dumps(dict(json.loads(config.read_text()), max_steps=9)))
    assert cli.main(argv + [str(tmp_path / "run"), "--resume"]) == 0
    assert cli.main(argv + [str(tmp_path / "full")]) == 0
    resumed = (tmp_path / "run" / "metrics.jsonl").read_bytes()
    assert resumed.count(b"\n") == 9 and resumed == (tmp_path / "full" / "metrics.jsonl").read_bytes()


ONE_HOLE_SRC = "fn f(a, b) {\n    t = a __HOLE_1__ b\n    return t\n}\n"


@pytest.mark.parametrize(
    "source,holes,named",
    [
        (ONE_HOLE_SRC.replace("__HOLE_1__", "__HOLE_3__"), [["+"], ["-"]], "hole indices [3] do not match"),
        (ONE_HOLE_SRC, [["+"], ["-"]], "hole indices [1] do not match vocabulary entries 1..2"),
        (ONE_HOLE_SRC, [["+", 1]], "hole 1 vocabulary"),
        (ONE_HOLE_SRC, ["+-"], "hole 1 vocabulary"),
        (ONE_HOLE_SRC, [[")"]], "unexpected ')' at line 2"),
    ],
    ids=["hole-beyond-vocabulary", "vocabulary-beyond-holes", "non-string-entry", "string-vocabulary",
         "choice-0-unparseable"],
)
def test_train_malformed_template_is_a_dataset_error(tmp_path, capsys, source, holes, named):
    config, dataset = write_train_inputs(tmp_path)
    record = {"id": "p", "template": {"source": source, "holes": holes}, "tests": [{"input": [1, 2], "expected": 3}]}
    dataset.write_text(json.dumps(record) + "\n")
    assert cli.main(["train", str(config), "--run-dir", str(tmp_path / "run"), "--dataset", str(dataset)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("dataset error: problems file %s line 1: problem 'p' template is not instantiable: " % dataset)
    assert named in err and err.count("\n") == 1


def finished_run(tmp_path):
    """The argv that resumes a finished six-step run, and its last checkpoint."""
    config, dataset = write_train_inputs(tmp_path)
    argv = ["train", str(config), "--run-dir", str(tmp_path / "run"), "--dataset", str(dataset)]
    assert cli.main(argv) == 0
    return argv + ["--resume"], tmp_path / "run" / "checkpoints" / "step_6"


def test_train_resume_from_a_malformed_checkpoint_exits_one(tmp_path, capsys):
    argv, ckpt = finished_run(tmp_path)
    capsys.readouterr()
    state_path = ckpt / "state.json"
    state = json.loads(state_path.read_text())
    del state["pool"]
    state_path.write_text(json.dumps(state))
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == "run error: %s: 'pool'\n" % state_path

    state_path.unlink()
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("run error: ") and str(state_path) in err and err.count("\n") == 1


def test_train_resume_from_a_buffer_record_without_source_exits_one(tmp_path, capsys):
    argv, ckpt = finished_run(tmp_path)
    capsys.readouterr()
    buffer = ckpt / "buffer.jsonl"
    lines = buffer.read_text().splitlines(keepends=True)
    record = json.loads(lines[0])
    del record["source"]
    buffer.write_text(json.dumps(record) + "\n" + "".join(lines[1:]))
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == "run error: %s line 1: 'source'\n" % buffer


@pytest.mark.parametrize(
    "pool,named",
    [({"order": ["p1", "nope", "p0"], "cursor": 1}, "pool order is not a permutation of the 3 problem ids"),
     ({"order": ["p1", "p1", "p0"], "cursor": 1}, "pool order is not a permutation of the 3 problem ids"),
     ({"order": ["p1", "p2", "p0"], "cursor": -1}, "pool cursor -1 is outside 0..3"),
     ({"order": ["p1", "p2", "p0"], "cursor": 4}, "pool cursor 4 is outside 0..3")],
    ids=["unknown-id", "repeated-id", "negative-cursor", "cursor-past-the-end"],
)
def test_checkpoint_pool_that_does_not_fit_the_dataset_is_a_run_error(tmp_path, capsys, pool, named):
    argv, ckpt = finished_run(tmp_path)
    state_path = ckpt / "state.json"
    state = json.loads(state_path.read_text())
    state["pool"] = pool
    state_path.write_text(json.dumps(state))
    capsys.readouterr()
    assert cli.main(argv) == 1
    assert_one_line_error(capsys, "run error: %s: %s" % (state_path, named))


def edit_policy(path, edit):
    policy = CategoricalSequencePolicy()
    policy.load(path)
    edit(policy.params)
    policy.save(path)


def test_checkpoint_code_logits_wider_than_the_template_are_a_run_error(tmp_path, capsys):
    argv, ckpt = finished_run(tmp_path)
    path = ckpt / "code_policy.bin"

    def widen(params):
        params["p0"][0] = np.append(params["p0"][0], 0.0)

    edit_policy(path, widen)
    capsys.readouterr()
    assert cli.main(argv) == 1
    assert_one_line_error(
        capsys, "run error: %s: problem 'p0' has logit vectors of sizes [4], but its template's holes have [3] choices"
        % path)


def test_checkpoint_alignment_logits_that_do_not_fit_their_prompt_are_a_run_error(tmp_path, capsys):
    argv, last = finished_run(tmp_path)
    shutil.rmtree(last)  # resume from step 3, so that steps run and sample buffered prompts
    ckpt = last.with_name("step_3")
    path = ckpt / "align_policy.bin"
    buffered = [json.loads(line)["id"] for line in (ckpt / "buffer.jsonl").read_text().splitlines()]
    assert buffered
    edit_policy(path, lambda params: params.update({pid: [np.zeros(1)] for pid in buffered}))
    capsys.readouterr()
    assert cli.main(argv) == 1
    err = assert_one_line_error(capsys, "run error: %s: alignment prompt " % path)
    assert "has logit vectors of sizes [1], not " in err


def _problems_case(tmp_path):
    config, dataset = write_train_inputs(tmp_path)
    return ["train", str(config), "--run-dir", str(tmp_path / "run"), "--dataset", str(dataset)], dataset


def _eval_items_case(tmp_path):
    record = {"id": "a", "source": IDENTITY_SRC, "input": [3]}
    items = write(tmp_path, "items.jsonl", json.dumps(record) + "\n" + json.dumps(dict(record, id="b")) + "\n")
    return ["eval", items, "--out", str(tmp_path / "evalout")], tmp_path / "items.jsonl"


def _reward_tests_case(tmp_path):
    prog = write(tmp_path, "id.mim", IDENTITY_SRC)
    tests = write(tmp_path, "tests.jsonl", json.dumps({"input": [1], "expected": 1}) + "\n" * 2)
    return ["reward", prog, tests], tmp_path / "tests.jsonl"


def _checkpoint_buffer_case(tmp_path):
    argv, ckpt = finished_run(tmp_path)
    return argv, ckpt / "buffer.jsonl"


@pytest.mark.parametrize("bad_line", [b"not json\n", b'"\xff"\n'], ids=["json", "utf8"])
@pytest.mark.parametrize(
    "case", [_problems_case, _eval_items_case, _reward_tests_case, _checkpoint_buffer_case],
    ids=["problems", "eval-items", "reward-tests", "checkpoint-buffer"],
)
def test_bad_second_jsonl_line_is_named(tmp_path, capsys, case, bad_line):
    argv, path = case(tmp_path)
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(lines[0] + bad_line + b"".join(lines[2:]))
    capsys.readouterr()
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert "%s line 2: " % path in captured.err and captured.err.count("\n") == 1
    assert captured.out == ""


def assert_one_line_error(capsys, prefix):
    """Checks that the command printed one stderr line starting with ``prefix``, and nothing on stdout."""
    captured = capsys.readouterr()
    assert captured.err.startswith(prefix) and captured.err.count("\n") == 1, captured.err
    assert "Traceback" not in captured.err and captured.out == ""
    return captured.err


@pytest.mark.parametrize("depth", [600, 100_000])
@pytest.mark.parametrize("command", ["trace", "reward", "eval", "train"])
def test_deeply_nested_json_input_is_a_one_line_error(tmp_path, capsys, command, depth):
    deep = "[" * depth + "]" * depth
    prog = write(tmp_path, "id.mim", IDENTITY_SRC)
    if command == "trace":
        argv, prefix = ["trace", prog, "[%s]" % deep], "bad input: "
    elif command == "reward":
        tests = write(tmp_path, "tests.jsonl", '{"input": [%s], "expected": 1}\n' % deep)
        argv, prefix = ["reward", prog, tests], "bad tests file: "
    elif command == "eval":
        items = write(tmp_path, "items.jsonl", '{"id": "a", "source": %s, "input": [%s]}\n'
                      % (json.dumps(IDENTITY_SRC), deep))
        argv, prefix = ["eval", items, "--out", str(tmp_path / "evalout")], "bad eval items: "
    else:
        config, dataset = write_train_inputs(tmp_path)
        template = json.dumps({"source": ONE_HOLE_SRC, "holes": [["+"]]})
        dataset.write_text('{"id": "p", "template": %s, "tests": [{"input": [%s, 1], "expected": 1}]}\n'
                           % (template, deep))
        argv, prefix = ["train", str(config), "--run-dir", str(tmp_path / "run"), "--dataset", str(dataset)], \
            "dataset error: "
    assert cli.main(argv) == 1
    assert "nested too deeply" in assert_one_line_error(capsys, prefix)
    assert not (tmp_path / "evalout").exists() and not (tmp_path / "run").exists()


# a statement past each bound on nesting of docs/grammar.md: 300 nested
# parenthesized ands, 500 operands, 7 nested ifs and 1,200 items
PAST_BOUNDS = {
    "and300": "b = %sa%s" % ("(a and " * 300, ")" * 300),
    "sum500": "b = a" + " + a" * 499,
    "if7": "if a { " * 7 + "b = a" + " }" * 7,
    "literal1200": "b = [%s]" % ", ".join(["a"] * 1200),
}


@pytest.mark.parametrize("program", PAST_BOUNDS)
@pytest.mark.parametrize("command", ["trace", "reward", "eval", "train"])
def test_program_past_a_bound_on_nesting_is_a_one_line_error(tmp_path, capsys, command, program):
    template = "fn f(a, b) {\n    t = a __HOLE_1__ b\n    %s\n    return t\n}\n" % PAST_BOUNDS[program]
    source = template.replace("__HOLE_1__", "+")
    prog = write(tmp_path, "deep.mim", source)
    if command == "trace":
        argv, prefix = ["trace", prog, "[true, 1]"], "parse error: "
    elif command == "reward":
        argv, prefix = ["reward", prog, write(tmp_path, "tests.jsonl", '{"input": [true, 1], "expected": 1}\n')], \
            "parse error: "
    elif command == "eval":
        items = write(tmp_path, "items.jsonl", json.dumps({"id": "a", "source": source, "input": [True, 1]}) + "\n")
        argv, prefix = ["eval", items, "--out", str(tmp_path / "evalout")], "bad eval items: "
    else:
        config, dataset = write_train_inputs(tmp_path)
        record = {"id": "p", "template": {"source": template, "holes": [["+"]]},
                  "tests": [{"input": [True, 1], "expected": 1}]}
        dataset.write_text(json.dumps(record) + "\n")
        argv, prefix = ["train", str(config), "--run-dir", str(tmp_path / "run"), "--dataset", str(dataset)], \
            "dataset error: "
    assert cli.main(argv) == 1
    assert "at line 3, col " in assert_one_line_error(capsys, prefix)
    assert not (tmp_path / "evalout").exists() and not (tmp_path / "run").exists()


# a loop that nests a list one level deeper per iteration
NESTING_SRC = "fn f(n) {\n    y = []\n    for i in range(0, n) {\n        y = [y]\n    }\n    return %s\n}\n"


def nesting_argv(tmp_path, command, depth):
    """``command``'s arguments for a result that holds a list ``depth`` levels deep."""
    if command == "trace":
        return ["trace", write(tmp_path, "deep.mim", NESTING_SRC % "1"), "[%d]" % depth]
    tests = write(tmp_path, "tests.jsonl", '{"input": [%d], "expected": 1}\n' % depth)
    return ["reward", write(tmp_path, "deep.mim", NESTING_SRC % "y"), tests]


@pytest.mark.parametrize("command", ["trace", "reward"])
def test_result_nested_too_deeply_to_encode_is_a_one_line_error(tmp_path, capsys, command):
    assert cli.main(nesting_argv(tmp_path, command, 1500)) == 1
    assert_one_line_error(capsys, "cannot encode result: JSON value is nested too deeply\n")
    assert cli.main(nesting_argv(tmp_path, command, 300)) == 0
    assert capsys.readouterr().out.count("[") > 300


@pytest.mark.parametrize("command", ["trace", "reward"])
def test_program_that_is_not_utf8_is_a_parse_error(tmp_path, capsys, command):
    prog = tmp_path / "bad.mim"
    prog.write_bytes(b"fn f(a) {\n    return a\n}\n\xff\n")
    tests = write(tmp_path, "tests.jsonl", json.dumps({"input": [1], "expected": 1}) + "\n")
    argv = ["trace", str(prog), "[1]"] if command == "trace" else ["reward", str(prog), tests]
    assert cli.main(argv) == 1
    assert_one_line_error(capsys, "parse error: ")


@pytest.mark.parametrize(
    "case,prefix",
    [(_reward_tests_case, "bad tests file: "), (_eval_items_case, "bad eval items: eval items file "),
     (_checkpoint_buffer_case, "run error: ")],
    ids=["reward-tests", "eval-items", "checkpoint-buffer"],
)
def test_string_input_is_not_split_into_arguments(tmp_path, capsys, case, prefix):
    argv, path = case(tmp_path)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text(json.dumps(dict(json.loads(lines[0]), input="ab")) + "\n" + "".join(lines[1:]))
    capsys.readouterr()
    assert cli.main(argv) == 1
    err = assert_one_line_error(capsys, prefix)
    assert "%s line 1: input must be a JSON array of argument values" % path in err


@pytest.mark.parametrize(
    "ids,line,named",
    [([7, "p1", "p2"], 1, "problem id must be a non-empty UTF-8 string, got 7"),
     (["", "p1", "p2"], 1, "problem id must be a non-empty UTF-8 string, got ''"),
     (["p\ud800", "p1", "p2"], 1, "problem id must be a non-empty UTF-8 string, got 'p\\ud800'"),
     (["p0", "p1", "p0"], 3, "duplicate problem id 'p0'")],
    ids=["integer", "empty", "not-utf8", "duplicate"],
)
def test_bad_problem_id_is_a_dataset_error(tmp_path, capsys, ids, line, named):
    argv, dataset = _problems_case(tmp_path)
    records = [json.loads(text) for text in dataset.read_text().splitlines()]
    dataset.write_text("".join(json.dumps(dict(r, id=i)) + "\n" for r, i in zip(records, ids)))
    assert cli.main(argv) == 1
    assert_one_line_error(capsys, "dataset error: problems file %s line %d: %s" % (dataset, line, named))
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "ids,line,named",
    [(["OUTSIDE/x", "b"], 1, "is not a file name"),
     (["a/b", "b"], 1, "is not a file name"),
     (["a\0b", "b"], 1, "is not a file name"),
     ([".", "b"], 1, "is not a file name"),
     (["..", "b"], 1, "is not a file name"),
     ([3, "b"], 1, "eval item id must be a non-empty UTF-8 string, got 3"),
     (["a", "a"], 2, "duplicate eval item id 'a'"),
     (["x" * 260, "b"], 1, "with .txt.tmp it takes 268 bytes of UTF-8, over the limit of 255")],
    ids=["absolute-path", "slash", "nul", "dot", "dot-dot", "integer", "duplicate", "too-long"],
)
def test_bad_eval_item_id_is_reported_before_anything_is_written(tmp_path, capsys, ids, line, named):
    outside = tmp_path / "outside"
    outside.mkdir()
    argv, items = _eval_items_case(tmp_path)
    records = [json.loads(text) for text in items.read_text().splitlines()]
    ids = [str(outside / "x") if i == "OUTSIDE/x" else i for i in ids]
    items.write_text("".join(json.dumps(dict(r, id=i)) + "\n" for r, i in zip(records, ids)))
    assert cli.main(argv) == 1
    err = assert_one_line_error(capsys, "bad eval items: eval items file %s line %d: " % (items, line))
    assert named in err
    assert not (tmp_path / "evalout").exists() and list(outside.iterdir()) == []


def _probe_case(tmp_path):
    feat_dir = tmp_path / "features"
    feat_dir.mkdir()
    write_feature_file(feat_dir / "layer0.bin", 0, [("p", "v%d" % k, float(k), np.full(3, k)) for k in range(8)])
    return ["probe", str(feat_dir), "--out", str(tmp_path / "out")], tmp_path / "out"


@pytest.mark.parametrize(
    "case,blocked",
    [(_eval_items_case, "evalout"), (_eval_items_case, "evalout/transcripts"), (_probe_case, "out")],
    ids=["eval-out-is-a-file", "eval-transcripts-is-a-file", "probe-out-is-a-file"],
)
def test_output_path_that_is_a_file_is_reported_before_anything_is_written(tmp_path, capsys, case, blocked):
    argv, _ = case(tmp_path)
    (tmp_path / blocked).parent.mkdir(exist_ok=True)
    (tmp_path / blocked).write_text("kept\n")
    before = sorted(tmp_path.rglob("*"))
    assert cli.main(argv) == 1
    assert_one_line_error(capsys, "cannot write %s: " % (tmp_path / blocked))
    assert sorted(tmp_path.rglob("*")) == before and (tmp_path / blocked).read_text() == "kept\n"


@pytest.mark.parametrize(
    "key,value,named",
    [("truth", [1], "truth must be a JSON object"),
     ("id", [1], "alignment prompt id must be a non-empty UTF-8 string"),
     ("truth", lambda truth: dict(truth, **{next(iter(truth)): "edited"}), "stale ground truth for ")],
    ids=["list-truth", "list-id", "stale-truth"],
)
def test_buffer_record_of_the_wrong_shape_is_a_run_error(tmp_path, capsys, key, value, named):
    """A field replaced by ``value``, or edited by it if it is a function."""
    argv, buffer = _checkpoint_buffer_case(tmp_path)
    lines = buffer.read_text().splitlines(keepends=True)
    record = json.loads(lines[0])
    record[key] = value(record[key]) if callable(value) else value
    buffer.write_text(json.dumps(record) + "\n" + "".join(lines[1:]))
    capsys.readouterr()
    assert cli.main(argv) == 1
    assert_one_line_error(capsys, "run error: %s line 1: %s" % (buffer, named))


def test_config_that_names_the_run_or_dataset_path_is_rejected(tmp_path, capsys):
    argv, _ = _problems_case(tmp_path)
    config = tmp_path / "config.json"
    base = json.loads(config.read_text())
    for key in ("run_dir", "dataset_path"):
        config.write_text(json.dumps(dict(base, **{key: str(tmp_path / "x")})))
        assert cli.main(argv) == 1
        assert_one_line_error(capsys, "config error: unknown config fields: %s" % key)
    assert not (tmp_path / "run").exists()


def test_config_number_beyond_the_float_range_is_a_config_error(tmp_path, capsys):
    config, _ = write_train_inputs(tmp_path)
    config.write_text('{"learning_rate": 1e400}')
    assert cli.main(["train", str(config), "--run-dir", str(tmp_path / "run")]) == 1
    err = assert_one_line_error(capsys, "config error: config file %s is not valid JSON: " % config)
    assert "1e400 is outside the float range" in err


def test_config_that_is_not_finite_is_a_config_error(tmp_path, capsys):
    # Python's json reads Infinity, and an infinite kl_beta trains to a NaN loss
    config, dataset = write_train_inputs(tmp_path)
    config.write_text('{"kl_beta": Infinity}')
    assert cli.main(["train", str(config), "--run-dir", str(tmp_path / "run"), "--dataset", str(dataset)]) == 1
    assert_one_line_error(capsys, "config error: config file %s is not valid JSON: Infinity is not a JSON number"
                          % config)
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["fuzz", "probe"])
def test_seed_override_that_is_not_an_integer_exits_one(tmp_path, capsys, monkeypatch, command):
    feat_dir = tmp_path / "feat"
    feat_dir.mkdir()
    samples = synthetic_linear_samples(8, np.random.default_rng(0))
    records = [(s.problem_id, s.variable, s.target, s.features[0]) for s in samples]
    write_feature_file(feat_dir / "layer0.bin", 0, records)
    monkeypatch.setenv("SEMTRACE_SEED", "x")
    argv = ["fuzz", "-n", "2"] if command == "fuzz" else ["probe", str(feat_dir), "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 1
    assert_one_line_error(capsys, "error: SEMTRACE_SEED must be an integer, got 'x'")


@pytest.mark.parametrize("case", ["fuzz", "probe", "config", "env"])
def test_negative_seed_exits_one_before_any_output(tmp_path, capsys, monkeypatch, case):
    config, dataset = write_train_inputs(tmp_path)
    train = ["train", str(config), "--run-dir", str(tmp_path / "run"), "--dataset", str(dataset)]
    feat_dir = tmp_path / "feat"
    feat_dir.mkdir()
    write_feature_file(feat_dir / "layer0.bin", 0, [("p", "a", 1.0, np.zeros(3))])
    prefix = "error: "
    if case == "fuzz":
        argv = ["fuzz", "-n", "3", "--seed", "-1"]
    elif case == "probe":
        argv = ["probe", str(feat_dir), "--out", str(tmp_path / "out"), "--seed", "-1"]
    elif case == "config":
        config.write_text(json.dumps(dict(json.loads(config.read_text()), seed=-1)))
        argv, prefix = train, "config error: "
    else:
        monkeypatch.setenv("SEMTRACE_SEED", "-1")
        argv, prefix = train, "config error: "
    assert cli.main(argv) == 1
    assert_one_line_error(capsys, prefix + "seed must be at least 0, got -1\n")
    assert not (tmp_path / "run").exists() and not (tmp_path / "out").exists()


@pytest.mark.parametrize("timeout", ["-1", "0", "nan", "inf"])
def test_eval_timeout_that_is_not_a_finite_positive_number_exits_one(tmp_path, capsys, timeout):
    items = write(tmp_path, "items.jsonl", json.dumps({"id": "a", "source": IDENTITY_SRC, "input": [3]}) + "\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["eval", items, "--out", str(tmp_path / "evalout"), "--predictor", "cat", "--timeout", timeout])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.err == ("semtrace eval: error: argument --timeout: must be a finite number above 0, got %s\n"
                            % timeout)
    assert captured.out == "" and not (tmp_path / "evalout").exists()


@pytest.mark.parametrize(
    "variables", ["ab", {"a": 0, "b": 0}, ["a", "b", "b"]], ids=["string", "object", "repeated"])
def test_eval_item_variables_must_be_the_traced_list(tmp_path, capsys, variables):
    record = {"id": "a", "source": IDENTITY_SRC, "input": [3]}
    items = write(tmp_path, "items.jsonl", json.dumps(dict(record, variables=["a", "b"])) + "\n"
                  + json.dumps(dict(record, id="b", variables=variables)) + "\n")
    out = tmp_path / "evalout"
    assert cli.main(["eval", items, "--out", str(out)]) == 1
    assert_one_line_error(capsys, "bad eval items: eval items file %s line 2: stored variable list " % items)
    assert not out.exists()


def test_oracle_scores_every_prompt_of_a_run_buffer_exactly(tmp_path, capsys):
    # eval reads a run's buffer.jsonl as eval items, so this checks that
    # every harvested prompt is consistent with itself
    finished_run(tmp_path)
    buffer = tmp_path / "run" / "buffer.jsonl"
    n = len(buffer.read_text().splitlines())
    capsys.readouterr()
    assert n > 0 and cli.main(["eval", str(buffer), "--out", str(tmp_path / "evalout")]) == 0
    assert capsys.readouterr().out == "Exact@1 = 1.0000 over %d items\n" % n
    assert len(list((tmp_path / "evalout" / "transcripts").iterdir())) == n


def edit_state(ckpt, **changes):
    state_path = ckpt / "state.json"
    state_path.write_text(json.dumps(dict(json.loads(state_path.read_text()), **changes)))
    return state_path


@pytest.mark.parametrize(
    "step,named",
    [(2.5, "step must be an integer of at least 0, got 2.5"),
     (True, "step must be an integer of at least 0, got True"),
     ("6", "step must be an integer of at least 0, got '6'"),
     (-1, "step must be an integer of at least 0, got -1")],
    ids=["float", "bool", "string", "negative"],
)
def test_checkpoint_step_that_is_not_a_count_is_a_run_error(tmp_path, capsys, step, named):
    argv, ckpt = finished_run(tmp_path)
    state_path = edit_state(ckpt, step=step)
    capsys.readouterr()
    assert cli.main(argv) == 1
    assert_one_line_error(capsys, "run error: %s: %s" % (state_path, named))


@pytest.mark.parametrize("step", [1, 3, 7])
def test_checkpoint_step_must_match_its_directory(tmp_path, capsys, step):
    argv, ckpt = finished_run(tmp_path)
    state_path = edit_state(ckpt, step=step)
    capsys.readouterr()
    assert cli.main(argv) == 1
    assert_one_line_error(capsys, "run error: %s: step %d does not match the directory's step 6" % (state_path, step))


@pytest.mark.parametrize("cursor", [1.5, True, "1"], ids=["float", "bool", "string"])
def test_checkpoint_pool_cursor_that_is_not_an_integer_is_a_run_error(tmp_path, capsys, cursor):
    argv, ckpt = finished_run(tmp_path)
    state = json.loads((ckpt / "state.json").read_text())
    state_path = edit_state(ckpt, pool=dict(state["pool"], cursor=cursor))
    capsys.readouterr()
    assert cli.main(argv) == 1
    assert_one_line_error(capsys, "run error: %s: pool cursor must be an integer, got %r" % (state_path, cursor))


def finished_adam_run(tmp_path):
    """``finished_run`` under ``optimizer="adam"``, whose checkpoint holds moments."""
    config, dataset = write_train_inputs(tmp_path)
    config.write_text(json.dumps(dict(json.loads(config.read_text()), optimizer="adam")))
    argv = ["train", str(config), "--run-dir", str(tmp_path / "run"), "--dataset", str(dataset)]
    assert cli.main(argv) == 0
    ckpt = tmp_path / "run" / "checkpoints" / "step_6"
    state = json.loads((ckpt / "state.json").read_text())
    assert state["opt_code"]["t"] > 1 and len(state["opt_code"]["m"]["p0"][0]) == 3
    assert cli.main(argv + ["--resume"]) == 0  # the saved moments fit
    return argv + ["--resume"], ckpt, state


@pytest.mark.parametrize(
    "edit,named",
    [(lambda opt: opt.update(t=1.9), "opt_code: adam t must be an integer of at least 1, got 1.9"),
     (lambda opt: opt.update(t=0), "opt_code: adam t must be an integer of at least 1, got 0"),
     (lambda opt: opt["m"].update(p0=[[0.0]]),
      "opt_code: adam moments of 'p0' have shapes [(1,)], but its logit vectors have [(3,)]"),
     (lambda opt: opt["v"].update(p0=[[0.0, 0.0, 0.0], [0.0]]),
      "opt_code: adam moments of 'p0' have shapes [(3,), (1,)], but its logit vectors have [(3,)]"),
     (lambda opt: opt["v"].update(p0=[[[0.0, 0.0, 0.0]]]),
      "opt_code: adam moments of 'p0' have shapes [(1, 3)], but its logit vectors have [(3,)]"),
     (lambda opt: opt["m"].update(nope=[[0.0]]), "opt_code: adam moments name 'nope', which has no logits"),
     (lambda opt: opt.update(m=[]), "opt_code: 'list' object has no attribute 'items'")],
    ids=["float-t", "zero-t", "short-m", "extra-v-vector", "nested-v", "unknown-prompt", "list-m"],
)
def test_checkpoint_adam_state_that_does_not_fit_its_policy_is_a_run_error(tmp_path, capsys, edit, named):
    argv, ckpt, state = finished_adam_run(tmp_path)
    edit(state["opt_code"])
    state_path = edit_state(ckpt, opt_code=state["opt_code"])
    capsys.readouterr()
    assert cli.main(argv) == 1
    err = assert_one_line_error(capsys, "run error: %s: " % state_path)
    assert named in err


def test_checkpoint_adam_moments_that_are_not_finite_are_a_run_error(tmp_path, capsys):
    # the step_3 checkpoint resumes into steps 4-6, so a NaN moment read as a
    # number would write a poisoned step before failing
    argv, ckpt, state = finished_adam_run(tmp_path)
    shutil.rmtree(ckpt)
    state_path = edit_state(ckpt.with_name("step_3"), opt_code=dict(state["opt_code"], v={"p0": [[math.nan] * 3]}))
    metrics = (tmp_path / "run" / "metrics.jsonl").read_bytes()
    capsys.readouterr()
    assert cli.main(argv) == 1
    assert_one_line_error(capsys, "run error: %s: NaN is not a JSON number" % state_path)
    assert (tmp_path / "run" / "metrics.jsonl").read_bytes() == metrics


# --- a lone surrogate (U+D800-U+DFFF) is not a character ---


def lone_surrogate_argv(tmp_path, case):
    """``case``'s arguments, with a lone surrogate in an input, an expected
    value, a string literal or a comment, and the error's prefix."""
    prog = write(tmp_path, "id.mim", IDENTITY_SRC)
    if case == "trace":
        return ["trace", prog, '["a\\ud800"]'], "bad input: "
    if case == "reward":
        tests = write(tmp_path, "tests.jsonl", json.dumps({"input": [1], "expected": "\udfff"}) + "\n")
        return ["reward", prog, tests], "bad tests file: "
    if case.startswith("eval"):
        record = {"id": "a", "source": IDENTITY_SRC, "input": ["\ud800"]}
        if case == "eval-source":
            record = {"id": "a", "source": IDENTITY_SRC.replace("b = a", 'b = "a\ud800"'), "input": [1]}
        items = write(tmp_path, "items.jsonl", json.dumps(record) + "\n")
        return ["eval", items, "--out", str(tmp_path / "evalout")], "bad eval items: "
    config, dataset = write_train_inputs(tmp_path)
    records = [json.loads(line) for line in dataset.read_text().splitlines()]
    if case == "train-input":
        records[1]["tests"][0]["input"][0] = "\ud800"
    else:
        records[1]["template"]["source"] = records[1]["template"]["source"].replace("b\n", "b  # \ud800\n", 1)
    dataset.write_text("".join(json.dumps(r) + "\n" for r in records))
    return ["train", str(config), "--run-dir", str(tmp_path / "run"), "--dataset", str(dataset)], "dataset error: "


@pytest.mark.parametrize("case", ["trace", "reward", "eval-input", "eval-source", "train-input", "train-source"])
def test_lone_surrogate_is_a_one_line_error(tmp_path, capsys, case):
    """No UTF-8 output can hold a lone surrogate, so it is refused where it
    is read, before anything is run or written."""
    argv, prefix = lone_surrogate_argv(tmp_path, case)
    assert cli.main(argv) == 1
    err = assert_one_line_error(capsys, prefix)
    assert "lone surrogate '\\ud" in err and "is not a character" in err
    if case.endswith("source"):
        assert "at line 2, col " in err
    assert not (tmp_path / "evalout").exists() and not (tmp_path / "run").exists()


def test_surrogate_pair_is_one_character(tmp_path, capsys):
    prog = tmp_path / "pair.mim"
    prog.write_bytes(IDENTITY_SRC.replace("b = a", 'b = a + "\U0001F600"').encode("utf-8"))
    assert cli.main(["trace", str(prog), '["\\ud83d\\ude00"]']) == 0
    assert capsys.readouterr().out == '{ "final_output": "\U0001F600\U0001F600", "variables": { "a": "\U0001F600", ' \
                                      '"b": "\U0001F600\U0001F600" } }\n'
