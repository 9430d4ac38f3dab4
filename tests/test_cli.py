"""End-to-end checks of the command-line interface via cli.main(argv)."""

import json
import shutil

import pytest

from semtrace import cli
from semtrace.grpo import CategoricalSequencePolicy
from semtrace.harness import RunLock
from semtrace.probe import synthetic_linear_samples, write_feature_file

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
     (["a", "a"], 2, "duplicate eval item id 'a'")],
    ids=["absolute-path", "slash", "nul", "dot", "dot-dot", "integer", "duplicate"],
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


@pytest.mark.parametrize(
    "key,value,named",
    [("truth", [1], "truth must be a JSON object"),
     ("id", [1], "alignment prompt id must be a non-empty UTF-8 string")],
    ids=["list-truth", "list-id"],
)
def test_buffer_record_of_the_wrong_shape_is_a_run_error(tmp_path, capsys, key, value, named):
    argv, buffer = _checkpoint_buffer_case(tmp_path)
    lines = buffer.read_text().splitlines(keepends=True)
    buffer.write_text(json.dumps(dict(json.loads(lines[0]), **{key: value})) + "\n" + "".join(lines[1:]))
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
