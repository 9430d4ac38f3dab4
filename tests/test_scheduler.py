"""Mixed batches, failure harvesting, the FIFO buffer, and the training loop."""

import json

import numpy as np
import pytest

from semtrace.grpo import KIND_CODEGEN, RolloutGroup, RolloutSample
from semtrace.harness import RunConfig
from semtrace.lang import parse_program
from semtrace.rewards import TestCase, gen_reward
from semtrace.scheduler import (
    AlignmentPrompt,
    CodePromptPool,
    FailureBuffer,
    alignment_prompt_id,
    build_alignment_prompt,
    harvest_failures,
    mix_batch,
    run_training,
)

from conftest import make_problem

BUGGY_SUM = "fn s(n) { t = 0 for i in range(1, n) { t = t + i } return t }"
SUM_TESTS = [TestCase([3], 6), TestCase([4], 10)]


def test_alignment_prompt_from_failing_program():
    p = parse_program(BUGGY_SUM)
    prompt = build_alignment_prompt(p, SUM_TESTS, gen_reward(p, SUM_TESTS))
    assert prompt is not None
    assert prompt.input == [3]
    assert prompt.truth == {"n": 3, "t": 3, "i": 2}
    assert prompt.variables == ["n", "t", "i"]


def test_crashing_program_is_ineligible():
    p = parse_program("fn f(a) { x = a // 0 return x }")
    tests = [TestCase([1], 1)]
    assert build_alignment_prompt(p, tests, gen_reward(p, tests)) is None


def test_input_selection_prefers_first_failing_terminating():
    # correct on test 0, wrong on test 1
    p = parse_program("fn f(a) { r = a + 1 return r }")
    tests = [TestCase([0], 1), TestCase([5], 99)]
    prompt = build_alignment_prompt(p, tests, gen_reward(p, tests))
    assert prompt.input == [5]


def test_prompt_from_a_report_executes_nothing(monkeypatch):
    import semtrace.scheduler

    p = parse_program(BUGGY_SUM)
    report = gen_reward(p, SUM_TESTS)

    def execute(*args, **kwargs):
        raise AssertionError("the report already holds every execution")

    monkeypatch.setattr(semtrace.scheduler, "execute", execute)
    prompt = build_alignment_prompt(p, SUM_TESTS, report)
    assert prompt.prompt_id == alignment_prompt_id(p, [3])
    assert prompt.variables == ["n", "t", "i"]
    assert prompt.truth == {"n": 3, "t": 3, "i": 2}


def test_prompt_id_keyed_by_program_and_input():
    p = parse_program(BUGGY_SUM)
    assert alignment_prompt_id(p, [3]) != alignment_prompt_id(p, [4])
    assert alignment_prompt_id(p, [3]) == alignment_prompt_id(parse_program(BUGGY_SUM), [3])


def test_buffer_dedup_and_fifo_eviction(rng):
    buf = FailureBuffer(capacity=3)
    prompts = []
    for n in range(4):
        p = parse_program("fn f(a) { r = a + %d return r }" % n)
        tests = [TestCase([0], -1)]
        prompts.append(build_alignment_prompt(p, tests, gen_reward(p, tests)))
    assert buf.add(prompts[0])
    assert not buf.add(prompts[0])  # duplicate id
    buf.add(prompts[1])
    buf.add(prompts[2])
    buf.add(prompts[3])  # evicts the oldest
    ids = [e.prompt_id for e in buf.entries]
    assert len(ids) == 3
    assert prompts[0].prompt_id not in ids
    assert ids == [p.prompt_id for p in prompts[1:]]


def make_codegen_group(programs, tests, budget=100_000):
    group = RolloutGroup(prompt_id="p", kind=KIND_CODEGEN, samples=[])
    reports = {}
    for i, src in enumerate(programs):
        prog = parse_program(src)
        report = gen_reward(prog, tests, budget=budget)
        reports[i] = report
        group.samples.append(
            RolloutSample(actions=[i], logp_old=[0.0], artifact=prog, reward=float(report.reward))
        )
    return group, reports


def test_harvest_mixed_group():
    # 3 wrong-answer terminating, 2 crashing, 3 passing
    programs = (
        ["fn f(a) { r = a + %d return r }" % k for k in (1, 2, 3)]
        + ["fn f(a) { r = a // 0 return r }"] * 2
        + ["fn f(a) { r = a return r }"] * 3
    )
    tests = [TestCase([5], 5)]
    group, reports = make_codegen_group(programs, tests)
    buf = FailureBuffer(capacity=64)
    added, ineligible = harvest_failures(group, tests, buf, reports, origin_step=1)
    assert added == 3
    assert ineligible == 2
    assert len(buf) == 3


def test_harvest_skips_passing_and_dedups():
    tests = [TestCase([5], 5)]
    group, reports = make_codegen_group(["fn f(a) { r = a return r }"] * 4, tests)
    buf = FailureBuffer(capacity=8)
    added, _ = harvest_failures(group, tests, buf, reports, origin_step=1)
    assert added == 0

    group, reports = make_codegen_group(["fn f(a) { r = a + 1 return r }"] * 2, tests)
    added, _ = harvest_failures(group, tests, buf, reports, origin_step=2)
    assert added == 1


def test_buffer_only_holds_wrong_answer_terminating_programs():
    tests = [TestCase([2], 4)]
    buf = FailureBuffer(capacity=16)
    programs = [
        "fn f(a) { r = a * a return r }",  # passes
        "fn f(a) { r = a + 1 return r }",  # wrong answer
        "fn f(a) { while a > 0 { a = a } return a }",  # spins
    ]
    group, reports = make_codegen_group(programs, tests, budget=200)
    harvest_failures(group, tests, buf, reports, origin_step=1)
    for entry in buf.entries:
        report = gen_reward(entry.p_fail, tests, budget=200)
        assert report.reward == 0
        assert report.first_failing_terminating is not None


def test_mix_batch_compositions(rng):
    pool = CodePromptPool(["c%d" % k for k in range(12)])
    buf = FailureBuffer(capacity=64)

    batch = mix_batch(pool, buf, 10, 0.4, rng)
    assert len(batch.code_prompts) == 10 and batch.align_prompts == []

    for n in range(6):
        p = parse_program("fn f(a) { r = a + %d return r }" % (n + 1))
        tests = [TestCase([0], 0)]
        buf.add(build_alignment_prompt(p, tests, gen_reward(p, tests)))
    batch = mix_batch(pool, buf, 10, 0.4, rng)
    assert len(batch.align_prompts) == 4
    assert len(batch.code_prompts) == 6


def test_mix_batch_shortfall_backfills_with_code(rng):
    pool = CodePromptPool(["a", "b", "c", "d", "e", "f", "g", "h"])
    buf = FailureBuffer(capacity=64)
    for n in range(2):
        p = parse_program("fn f(a) { r = a + %d return r }" % (n + 1))
        tests = [TestCase([0], 0)]
        buf.add(build_alignment_prompt(p, tests, gen_reward(p, tests)))
    batch = mix_batch(pool, buf, 10, 0.4, rng)
    assert len(batch.align_prompts) == 2
    assert len(batch.code_prompts) == 8


def test_alignment_prompt_record_round_trip():
    p = parse_program(BUGGY_SUM)
    prompt = build_alignment_prompt(p, SUM_TESTS, gen_reward(p, SUM_TESTS), origin_step=7)
    back = AlignmentPrompt.from_record(prompt.to_record())
    assert back.prompt_id == prompt.prompt_id
    assert back.truth == prompt.truth
    assert back.variables == prompt.variables
    assert back.input == prompt.input


def test_record_with_out_of_domain_value_is_rejected():
    p = parse_program(BUGGY_SUM)
    rec = build_alignment_prompt(p, SUM_TESTS, gen_reward(p, SUM_TESTS)).to_record()
    for key, bad in (("input", [2**63]), ("truth", {"n": 3, "t": float("nan"), "i": 2})):
        with pytest.raises(ValueError):
            AlignmentPrompt.from_record(dict(rec, **{key: bad}))


def desk_config(**overrides):
    base = dict(
        seed=3,
        batch_size=10,
        mini_batch=4,
        learning_rate=0.5,
        max_steps=12,
        group_size=8,
        align_ratio=0.4,
        checkpoint_interval=5,
        optimizer="sgd",
    )
    base.update(overrides)
    return RunConfig(**base)


def desk_problems():
    return [
        make_problem("add", "+"),
        make_problem("sub", "-"),
        make_problem("mul", "*"),
        make_problem("add7", "+", extra=7),
        make_problem("sub7", "-", extra=7),
        make_problem("mul7", "*", extra=7),
    ]


def test_one_step_run_writes_single_metric(tmp_path):
    cfg = desk_config(max_steps=1)
    run_training(cfg, desk_problems(), tmp_path / "run")
    lines = (tmp_path / "run" / "metrics.jsonl").read_text().splitlines()
    assert len(lines) == 1
    rec = json.loads(lines[0])
    assert rec["step"] == 1
    assert rec["n_align_in_batch"] == 0  # buffer starts empty


def test_identical_seeds_are_bitwise_identical(tmp_path):
    cfg = desk_config()
    run_training(cfg, desk_problems(), tmp_path / "a")
    run_training(desk_config(), desk_problems(), tmp_path / "b")
    assert (tmp_path / "a" / "metrics.jsonl").read_bytes() == (
        tmp_path / "b" / "metrics.jsonl"
    ).read_bytes()


def test_resume_matches_uninterrupted_run(tmp_path):
    import shutil

    cfg = desk_config(max_steps=10, checkpoint_interval=5)
    run_training(cfg, desk_problems(), tmp_path / "full")
    full = (tmp_path / "full" / "metrics.jsonl").read_bytes()

    # rebuild a run directory as if the process died right after step 5
    partial = tmp_path / "partial"
    (partial / "checkpoints").mkdir(parents=True)
    shutil.copytree(
        tmp_path / "full" / "checkpoints" / "step_5", partial / "checkpoints" / "step_5"
    )
    lines = (tmp_path / "full" / "metrics.jsonl").read_text().splitlines(keepends=True)
    (partial / "metrics.jsonl").write_text("".join(lines[:5]))
    run_training(desk_config(max_steps=10, checkpoint_interval=5), desk_problems(), partial, resume=True)
    assert (partial / "metrics.jsonl").read_bytes() == full
    assert (partial / "buffer.jsonl").read_bytes() == (tmp_path / "full" / "buffer.jsonl").read_bytes()
    # the resumed run saves exactly the checkpoint the uninterrupted one saved
    expected = tmp_path / "full" / "checkpoints" / "step_10"
    resumed = partial / "checkpoints" / "step_10"
    assert sorted(p.name for p in resumed.iterdir()) == sorted(p.name for p in expected.iterdir())
    for path in expected.iterdir():
        assert (resumed / path.name).read_bytes() == path.read_bytes(), path.name


def test_resume_after_a_killed_save_takes_the_last_complete_checkpoint(tmp_path, monkeypatch):
    from semtrace.grpo import ValuePredictorPolicy

    cfg = desk_config(max_steps=12, checkpoint_interval=5)
    run_training(cfg, desk_problems(), tmp_path / "full")
    full = (tmp_path / "full" / "metrics.jsonl").read_bytes()

    # the process dies inside the step-10 save, after the code policy is written
    class Killed(Exception):
        pass

    save = ValuePredictorPolicy.save

    def dying_save(self, path):
        if "step_10" in str(path):
            raise Killed
        save(self, path)

    monkeypatch.setattr(ValuePredictorPolicy, "save", dying_save)
    with pytest.raises(Killed):
        run_training(desk_config(max_steps=12, checkpoint_interval=5), desk_problems(), tmp_path / "run")
    monkeypatch.undo()
    ckpts = tmp_path / "run" / "checkpoints"
    assert sorted(p.name for p in ckpts.iterdir()) == ["step_10.tmp", "step_5"]

    run_training(desk_config(max_steps=12, checkpoint_interval=5), desk_problems(), tmp_path / "run", resume=True)
    assert (tmp_path / "run" / "metrics.jsonl").read_bytes() == full
    assert sorted(p.name for p in ckpts.iterdir()) == ["step_10", "step_12", "step_5"]


def test_resume_drops_metric_lines_past_the_checkpoint_and_a_torn_line(tmp_path):
    import shutil

    cfg = desk_config(max_steps=10, checkpoint_interval=5)
    run_training(cfg, desk_problems(), tmp_path / "full")
    full = (tmp_path / "full" / "metrics.jsonl").read_bytes()

    # the process died while writing step 8's line, after checkpoint step_5
    partial = tmp_path / "partial"
    (partial / "checkpoints").mkdir(parents=True)
    shutil.copytree(
        tmp_path / "full" / "checkpoints" / "step_5", partial / "checkpoints" / "step_5"
    )
    lines = full.splitlines(keepends=True)
    (partial / "metrics.jsonl").write_bytes(b"".join(lines[:7]) + lines[7][: len(lines[7]) // 2])
    run_training(desk_config(max_steps=10, checkpoint_interval=5), desk_problems(), partial, resume=True)
    assert (partial / "metrics.jsonl").read_bytes() == full


def test_each_distinct_rollout_is_decoded_and_scored_at_most_twice(tmp_path, monkeypatch):
    from collections import Counter

    import semtrace.grpo
    import semtrace.scheduler

    decodes, scores = Counter(), Counter()
    instantiate, score = semtrace.grpo.instantiate_template, semtrace.scheduler.gen_reward

    def counted_instantiate(template, choices):
        decodes[(template, tuple(choices))] += 1
        return instantiate(template, choices)

    def counted_score(program, tests, budget):
        scores[(program, id(tests))] += 1
        return score(program, tests, budget=budget)

    monkeypatch.setattr(semtrace.grpo, "instantiate_template", counted_instantiate)
    monkeypatch.setattr(semtrace.scheduler, "gen_reward", counted_score)
    cfg = desk_config()
    run_training(cfg, desk_problems(), tmp_path / "run")
    scored = cfg.max_steps * cfg.batch_size * cfg.group_size
    assert 0 < sum(scores.values()) < scored / 4
    assert max(decodes.values()) <= 2
    assert max(scores.values()) <= 2


def test_resume_without_checkpoint_fails(tmp_path):
    with pytest.raises(RuntimeError):
        run_training(desk_config(), desk_problems(), tmp_path / "r", resume=True)


def test_post_saturation_batches_hold_exact_alignment_count(tmp_path):
    cfg = desk_config(max_steps=30)
    run_training(cfg, desk_problems(), tmp_path / "run")
    recs = [json.loads(l) for l in (tmp_path / "run" / "metrics.jsonl").read_text().splitlines()]
    assert recs[0]["n_align_in_batch"] == 0
    saturated = [r for r in recs if r["buffer_size"] >= 4]
    assert saturated, "buffer never reached 4 distinct failures"
    first = min(r["step"] for r in saturated)
    for r in recs:
        if r["step"] > first:
            assert r["n_align_in_batch"] == 4


def test_buffer_dump_revalidates_against_tracer(tmp_path):
    from semtrace.tracer import STATUS_RETURNED, execute, final_values

    cfg = desk_config(max_steps=8)
    run_training(cfg, desk_problems(), tmp_path / "run")
    records = [
        json.loads(l)
        for l in (tmp_path / "run" / "buffer.jsonl").read_text().splitlines()
        if l.strip()
    ]
    assert records
    for raw in records:
        prompt = AlignmentPrompt.from_record(raw)
        rec = execute(prompt.p_fail, prompt.input)
        assert rec.status == STATUS_RETURNED
        assert final_values(rec) == prompt.truth
