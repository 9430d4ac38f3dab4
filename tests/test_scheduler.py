"""Mixed batches, failure harvesting, the FIFO buffer, and the training loop."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from semtrace import grpo, scheduler
from semtrace.grpo import (
    KIND_ALIGNMENT,
    KIND_CODEGEN,
    CategoricalSequencePolicy,
    RolloutGroup,
    SurrogateMetrics,
    TemplatePolicy,
    log_softmax,
)
from semtrace.harness import ProblemRecord, RunConfig
from semtrace.lang import HoleTemplate, format_program, instantiate_template, parse_program
from semtrace.rewards import TestCase, gen_reward, sem_reward
from semtrace.scheduler import (
    AlignmentPrompt,
    CodePromptPool,
    FailureBuffer,
    Trainer,
    alignment_prompt_id,
    build_alignment_prompt,
    harvest_failures,
    mix_batch,
    run_training,
)
from semtrace.tracer import execute
from semtrace.values import MimSet

from conftest import choice_loop, make_problem, scalar_surrogate

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


def test_input_selection_falls_back_to_the_first_terminating_test():
    # test 0 fails with a runtime error and test 1 passes, so no test both
    # terminates and fails
    p = parse_program("fn f(a) { x = 10 // a return x }")
    tests = [TestCase([0], 0), TestCase([5], 2)]
    report = gen_reward(p, tests)
    assert report.first_failing_terminating is None
    prompt = build_alignment_prompt(p, tests, report)
    assert prompt.input == [5] and prompt.truth == {"a": 5, "x": 2}


def test_prompt_from_a_report_executes_nothing(monkeypatch):
    import semtrace.evalsuite

    p = parse_program(BUGGY_SUM)
    report = gen_reward(p, SUM_TESTS)

    def execute(*args, **kwargs):
        raise AssertionError("the report already holds every execution")

    monkeypatch.setattr(semtrace.evalsuite, "execute", execute)
    prompt = build_alignment_prompt(p, SUM_TESTS, report)
    assert prompt.item_id == alignment_prompt_id(format_program(p), [3])
    assert prompt.variables == ["n", "t", "i"]
    assert prompt.truth == {"n": 3, "t": 3, "i": 2}


def test_prompt_id_keyed_by_program_and_input():
    source = format_program(parse_program(BUGGY_SUM))
    assert alignment_prompt_id(source, [3]) != alignment_prompt_id(source, [4])
    assert alignment_prompt_id(source, [3]) == alignment_prompt_id(format_program(parse_program(BUGGY_SUM)), [3])


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
    ids = [e.item_id for e in buf.entries]
    assert len(ids) == 3
    assert prompts[0].item_id not in ids
    assert ids == [p.item_id for p in prompts[1:]]


def make_codegen_group(programs, tests, budget=100_000, origin_step=1):
    """A scored group of ``programs`` and the prompts scoring builds for it:
    one per failed sample, None for the others, as ``Trainer`` builds them.
    A None program is a sample that did not decode."""
    group = RolloutGroup("p", KIND_CODEGEN, np.arange(len(programs))[:, None], np.zeros((len(programs), 1)))
    prompts = []
    for sample, src in zip(group.samples, programs):
        prompts.append(None)
        if src is not None:
            sample.artifact = prog = parse_program(src)
            report = gen_reward(prog, tests, budget=budget)
            prompts[-1] = build_alignment_prompt(prog, tests, report, origin_step) if report.reward == 0 else None
            sample.reward = float(report.reward)
    return group, prompts


def test_harvest_mixed_group():
    # 3 wrong-answer terminating, 2 crashing, 3 passing, 1 that did not decode
    programs = (
        ["fn f(a) { r = a + %d return r }" % k for k in (1, 2, 3)]
        + ["fn f(a) { r = a // 0 return r }"] * 2
        + ["fn f(a) { r = a return r }"] * 3
    )
    tests = [TestCase([5], 5)]
    group, prompts = make_codegen_group(programs + [None], tests)
    buf = FailureBuffer(capacity=64)
    added, ineligible = harvest_failures(group, buf, prompts, origin_step=1)
    assert added == 3
    assert ineligible == 3
    assert len(buf) == 3
    with pytest.raises(ValueError):
        harvest_failures(group, buf, prompts[:-1], origin_step=1)


def test_harvest_skips_passing_and_dedups(monkeypatch):
    import semtrace.scheduler

    copies = []
    replace = semtrace.scheduler.replace

    def counted_replace(prompt, **changes):
        copies.append(changes)
        return replace(prompt, **changes)

    monkeypatch.setattr(semtrace.scheduler, "replace", counted_replace)
    tests = [TestCase([5], 5)]
    group, prompts = make_codegen_group(["fn f(a) { r = a return r }"] * 4, tests)
    buf = FailureBuffer(capacity=8)
    assert harvest_failures(group, buf, prompts, origin_step=1) == (0, 0)

    group, prompts = make_codegen_group(["fn f(a) { r = a + 1 return r }"] * 2, tests, origin_step=2)
    added, _ = harvest_failures(group, buf, prompts, origin_step=2)
    assert added == 1
    # prompts the buffer already holds are neither added nor copied
    added, _ = harvest_failures(group, buf, prompts, origin_step=3)
    assert (added, copies) == (0, [])
    # a prompt built at an earlier step is copied once, with its source
    fresh = FailureBuffer(capacity=8)
    added, _ = harvest_failures(group, fresh, prompts, origin_step=4)
    assert (added, copies) == (1, [{"origin_step": 4}])
    (prompt,) = fresh.entries
    assert prompt.origin_step == 4 and prompt.source == format_program(prompt.p_fail)


def test_harvests_count_and_refill_an_evicting_buffer():
    tests = [TestCase([5], 5)]
    # actions k pick program k: wrong answers 0-2, a crash 3, a pass 4
    programs = ["fn f(a) { r = a + %d return r }" % k for k in (1, 2, 3)]
    programs += ["fn f(a) { r = a // 0 return r }", "fn f(a) { r = a return r }"]
    steps = [[0, 1, 3, 4], [0, 1, 3], [0, 1, 3], [2, 2, 3], [0, 1, 2]]
    _, built = make_codegen_group(programs, tests)  # each prompt built once, at step 1
    buf = FailureBuffer(capacity=2)  # evicts, so prompts come back
    counts = []
    for step, picks in enumerate(steps, 1):
        group, _ = make_codegen_group([programs[k] for k in picks], tests)
        counts.append(harvest_failures(group, buf, [built[k] for k in picks], origin_step=step))
    assert counts == [(2, 1), (0, 1), (0, 1), (1, 1), (3, 0)]
    # step 5 re-adds the evicted prompts under its own origin_step
    assert [(p.item_id, p.origin_step) for p in buf.entries] == [(built[1].item_id, 5), (built[2].item_id, 5)]


def test_buffer_only_holds_wrong_answer_terminating_programs():
    tests = [TestCase([2], 4)]
    buf = FailureBuffer(capacity=16)
    programs = [
        "fn f(a) { r = a * a return r }",  # passes
        "fn f(a) { r = a + 1 return r }",  # wrong answer
        "fn f(a) { while a > 0 { a = a } return a }",  # spins
    ]
    group, prompts = make_codegen_group(programs, tests, budget=200)
    assert harvest_failures(group, buf, prompts, origin_step=1) == (1, 1)
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
    assert back.item_id == prompt.item_id
    assert back.truth == prompt.truth
    assert back.variables == prompt.variables
    assert back.input == prompt.input


def test_record_with_out_of_domain_value_is_rejected():
    p = parse_program(BUGGY_SUM)
    rec = build_alignment_prompt(p, SUM_TESTS, gen_reward(p, SUM_TESTS)).to_record()
    for key, bad in (("input", [2**63]), ("truth", {"n": 3, "t": float("nan"), "i": 2})):
        with pytest.raises(ValueError):
            AlignmentPrompt.from_record(dict(rec, **{key: bad}))


def test_alignment_prompt_is_immutable():
    p = parse_program(BUGGY_SUM)
    prompt = build_alignment_prompt(p, SUM_TESTS, gen_reward(p, SUM_TESTS))
    with pytest.raises(dataclasses.FrozenInstanceError):
        prompt.origin_step = 3


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


def save_and_check_buffer(trainer, run_dir):
    """Save a checkpoint; its buffer.jsonl must be what every save wrote
    before lines were cached, which stays here as the reference."""
    ckpt = trainer.save_checkpoint(run_dir)
    text = (ckpt / "buffer.jsonl").read_text()
    assert text == "".join(json.dumps(p.to_record()) + "\n" for p in trainer.buffer.entries)
    return text


def test_saved_buffer_lines_equal_fresh_records_across_eviction_and_resume(tmp_path):
    # a 3-prompt buffer evicts, so harvest re-adds prompts it saved before
    cfg = desk_config(max_steps=8, checkpoint_interval=4, optimizer="adam", buffer_capacity=3)
    trainer = Trainer(cfg, desk_problems())
    saved = {}
    for step in range(1, 9):
        trainer.run_step()
        if step in (4, 7, 8):
            saved[step] = save_and_check_buffer(trainer, tmp_path / "full")
    origins = {
        step: {r["id"]: r["origin_step"] for r in map(json.loads, text.splitlines())}
        for step, text in saved.items()
    }
    # a prompt saved at step 4 was evicted and came back under a new origin_step
    assert any(origins[4].get(pid, origin) != origin for pid, origin in origins[7].items())

    resumed = Trainer(cfg, desk_problems())
    resumed.load_checkpoint(tmp_path / "full" / "checkpoints" / "step_7")
    assert save_and_check_buffer(resumed, tmp_path / "resumed") == saved[7]
    resumed.run_step()
    assert save_and_check_buffer(resumed, tmp_path / "resumed") == saved[8]


def test_a_buffered_prompt_is_formatted_and_recorded_once(tmp_path, monkeypatch):
    from collections import Counter

    import semtrace.scheduler

    formats, records = Counter(), Counter()
    format_program_, to_record = semtrace.scheduler.format_program, AlignmentPrompt.to_record

    def counted_format(program):
        formats[program] += 1
        return format_program_(program)

    def counted_to_record(prompt):
        records[prompt.item_id] += 1
        return to_record(prompt)

    monkeypatch.setattr(semtrace.scheduler, "format_program", counted_format)
    monkeypatch.setattr(AlignmentPrompt, "to_record", counted_to_record)
    p = parse_program(BUGGY_SUM)
    built = build_alignment_prompt(p, SUM_TESTS, gen_reward(p, SUM_TESTS), origin_step=1)
    q = parse_program("fn f(a) { r = a + 1 return r }")
    tests = [TestCase([1], 1)]
    loaded = AlignmentPrompt.from_record(
        build_alignment_prompt(q, tests, gen_reward(q, tests), origin_step=1).to_record()
    )
    formats.clear()
    records.clear()
    trainer = Trainer(desk_config(), desk_problems())
    trainer.buffer.add(built)
    trainer.buffer.add(loaded)
    for step in (1, 2):
        trainer.step = step
        trainer.save_checkpoint(tmp_path)
    # each prompt kept the source its id was hashed from: the built one the
    # formatter's, the loaded one its record's
    assert formats == Counter()
    assert records == Counter({built.item_id: 1, loaded.item_id: 1})


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


def test_desk_run_decodes_and_scores_each_distinct_rollout_once(tmp_path, monkeypatch):
    """The scoring memo holds every distinct rollout of a desk run, so each
    is decoded and scored exactly once."""
    from collections import Counter

    import semtrace.grpo
    import semtrace.scheduler

    decodes, scores, rollouts = Counter(), Counter(), set()
    instantiate, score = semtrace.grpo.instantiate_template, semtrace.scheduler.gen_reward
    harvest = semtrace.scheduler.harvest_failures

    def counted_instantiate(template, choices):
        decodes[(template, tuple(choices))] += 1
        return instantiate(template, choices)

    def counted_score(program, tests, budget):
        scores[(program, id(tests))] += 1
        return score(program, tests, budget=budget)

    def recorded_harvest(group, *args):
        rollouts.update((group.prompt_id, tuple(s.actions)) for s in group.samples)
        return harvest(group, *args)

    monkeypatch.setattr(semtrace.grpo, "instantiate_template", counted_instantiate)
    monkeypatch.setattr(semtrace.scheduler, "gen_reward", counted_score)
    monkeypatch.setattr(semtrace.scheduler, "harvest_failures", recorded_harvest)
    run_training(desk_config(), desk_problems(), tmp_path / "run")
    assert set(decodes.values()) == set(scores.values()) == {1}
    assert sum(decodes.values()) == len(rollouts)


def chain_problem():
    """A problem whose hole choices each parse but whose joint choice
    ("<", "<") does not: ``a < b < c`` chains two comparisons."""
    template = HoleTemplate(
        template_source="fn f(a, b, c) {\n    x = a __HOLE_1__ b __HOLE_2__ c\n    return x\n}\n",
        hole_vocab=(("+", "<"), ("+", "<")),
    )
    return ProblemRecord(problem_id="chain", template=template, tests=[TestCase([1, 2, 3], 6), TestCase([4, 0, 1], 5)])


def run_chain(tmp_path, monkeypatch):
    """Five steps on :func:`chain_problem`, batch 4 x group 4; returns
    (problem id, actions, artifact, reward) of every code sample."""
    import semtrace.scheduler

    samples = []
    harvest = semtrace.scheduler.harvest_failures

    def recorded_harvest(group, *args):
        samples.extend((group.prompt_id, tuple(s.actions), s.artifact, s.reward) for s in group.samples)
        return harvest(group, *args)

    monkeypatch.setattr(semtrace.scheduler, "harvest_failures", recorded_harvest)
    run_training(desk_config(batch_size=4, group_size=4, max_steps=5), [chain_problem()], tmp_path / "run")
    return samples


def test_rollout_that_does_not_decode_is_instantiated_at_most_twice(tmp_path, monkeypatch):
    from collections import Counter

    import semtrace.grpo

    problem = chain_problem()
    with pytest.raises(ValueError):
        instantiate_template(problem.template, [1, 1])
    instantiations = Counter()
    instantiate = semtrace.grpo.instantiate_template

    def counted_instantiate(template, choices):
        instantiations[tuple(choices)] += 1
        return instantiate(template, choices)

    monkeypatch.setattr(semtrace.grpo, "instantiate_template", counted_instantiate)
    samples = run_chain(tmp_path, monkeypatch)
    assert sum(actions == (1, 1) for _, actions, _, _ in samples) > 2
    assert set(instantiations) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert max(instantiations.values()) <= 2
    # each sample's artifact and reward are those of decoding and scoring it alone
    for _, actions, artifact, reward in samples:
        if actions == (1, 1):
            assert artifact is None and reward == 0.0
        else:
            program = instantiate_template(problem.template, list(actions))
            assert artifact == program
            assert reward == float(gen_reward(program, problem.tests).reward)


def test_template_policy_decodes_only_on_a_scoring_miss(tmp_path, monkeypatch):
    from collections import Counter

    decodes = Counter()
    decode = TemplatePolicy.decode

    def counted_decode(self, prompt_id, actions):
        decodes[prompt_id, tuple(actions)] += 1
        return decode(self, prompt_id, actions)

    monkeypatch.setattr(TemplatePolicy, "decode", counted_decode)
    samples = run_chain(tmp_path, monkeypatch)
    assert len(samples) == 64
    # four distinct rollouts, each a miss on its first lookup only
    assert decodes == {key: 1 for key in {(pid, actions) for pid, actions, _, _ in samples}}
    assert sum(decodes.values()) == 4


def test_a_step_decodes_its_new_rollouts_before_it_scores_any(tmp_path, monkeypatch):
    """Each step decodes the rollouts that the scoring memo does not keep in
    one pass, before its first ``gen_reward``: in the log of a desk run, one
    ``|`` per step, ``d`` per decode and ``s`` per score, no ``d`` follows an
    ``s`` within a step."""
    import semtrace.scheduler

    log = []
    decode, score, run_step = TemplatePolicy.decode, semtrace.scheduler.gen_reward, Trainer.run_step

    def logged_decode(self, prompt_id, actions):
        log.append("d")
        return decode(self, prompt_id, actions)

    def logged_score(program, tests, budget):
        log.append("s")
        return score(program, tests, budget=budget)

    def logged_step(self):
        log.append("|")
        return run_step(self)

    monkeypatch.setattr(TemplatePolicy, "decode", logged_decode)
    monkeypatch.setattr(semtrace.scheduler, "gen_reward", logged_score)
    monkeypatch.setattr(Trainer, "run_step", logged_step)
    run_training(desk_config(), desk_problems(), tmp_path / "run")
    steps = "".join(log).split("|")[1:]
    assert len(steps) == desk_config().max_steps and "d" in steps[0] and "s" in steps[0]
    assert [step for step in steps if "sd" in step] == []


def test_each_failing_rollout_builds_its_prompt_at_most_twice(tmp_path, monkeypatch):
    from collections import Counter

    import semtrace.scheduler

    builds, failures = Counter(), []
    build, harvest = semtrace.scheduler.build_alignment_prompt, semtrace.scheduler.harvest_failures

    def counted_build(program, tests, report, origin_step=0):
        assert report.reward == 0  # only a failure gets a prompt
        builds[program] += 1
        return build(program, tests, report, origin_step)

    def counted_harvest(group, *args):
        failures.extend(s for s in group.samples if s.artifact is not None and s.reward == 0)
        return harvest(group, *args)

    monkeypatch.setattr(semtrace.scheduler, "build_alignment_prompt", counted_build)
    monkeypatch.setattr(semtrace.scheduler, "harvest_failures", counted_harvest)
    run_training(desk_config(), desk_problems(), tmp_path / "run")
    assert 0 < sum(builds.values()) < len(failures) / 4
    assert max(builds.values()) <= 2


def test_record_whose_id_does_not_match_its_content_is_refused():
    p = parse_program(BUGGY_SUM)
    rec = build_alignment_prompt(p, SUM_TESTS, gen_reward(p, SUM_TESTS)).to_record()
    assert AlignmentPrompt.from_record(rec).source == rec["source"]
    # another input's id, and a source that parses to the same program but
    # is not the text the id was hashed from
    for bad in (dict(rec, id=alignment_prompt_id(rec["source"], [4])), dict(rec, source=rec["source"] + "\n")):
        with pytest.raises(ValueError, match="alignment prompt id %r does not match" % bad["id"]):
            AlignmentPrompt.from_record(bad)


def test_buffered_prompt_holding_sentinel_strings_survives_a_resume(tmp_path):
    p = parse_program('fn f(a) { s = "__INF__" t = "___-INF__" r = a return r }')
    tests = [TestCase([1], 2)]
    prompt = build_alignment_prompt(p, tests, gen_reward(p, tests), origin_step=1)
    assert prompt.truth == {"a": 1, "s": "__INF__", "t": "___-INF__", "r": 1}
    trainer = Trainer(desk_config(), desk_problems())
    trainer.buffer.add(prompt)
    resumed = Trainer(desk_config(), desk_problems())
    resumed.load_checkpoint(trainer.save_checkpoint(tmp_path))
    (back,) = resumed.buffer.entries
    assert back == prompt and back.jsonl_line == prompt.jsonl_line


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


# --- alignment rewards: a per-prompt table of correct pool entries ---


def traced_prompt(source, input_values):
    """The alignment prompt of ``source`` run on ``input_values``."""
    program = parse_program(source)
    text = format_program(program)
    return AlignmentPrompt.traced(alignment_prompt_id(text, input_values), program, input_values,
                                  execute(program, input_values), text)


def sampled(prompts):
    """A trainer whose first step sampled, and so registered, each of ``prompts``."""
    trainer = Trainer(desk_config(batch_size=len(prompts), align_ratio=1.0), desk_problems())
    for prompt in prompts:
        trainer.buffer.add(prompt)
    trainer.run_step()
    assert set(trainer._correct) == {prompt.item_id for prompt in prompts}
    return trainer


def table_reward(trainer, prompt_id, actions):
    rows = trainer._correct[prompt_id]
    return sum(row[a] for row, a in zip(rows, actions, strict=True)) / len(rows)


def decoded_reward(trainer, prompt, actions):
    """The reward of decoding ``actions`` and scoring the prediction by its definition."""
    prediction = trainer.align_policy.decode(prompt.item_id, actions)
    return float(sem_reward(prediction, prompt.truth, prompt.variables))


def recorded_alignment_samples(monkeypatch):
    """Records (prompt id, actions, reward) of every alignment sample the trainer updates on."""
    import semtrace.scheduler

    seen = []
    update = semtrace.scheduler.train_step

    def recorded(policy, groups, *args, **kwargs):
        seen.extend((g.prompt_id, tuple(s.actions), s.reward) for g in groups if g.kind == KIND_ALIGNMENT
                    for s in g.samples)
        return update(policy, groups, *args, **kwargs)

    monkeypatch.setattr(semtrace.scheduler, "train_step", recorded)
    return seen


# small prompts whose pools hold values that values_equal matches across
# types (2 and 2.0, -0.0 and 0, a list holding 2 and one holding 2.0, sets)
# or keeps apart (True and 1), with inf, null and strings
HAND_BUILT = [
    ("fn f(x) { a = 2.0 b = -0.0 return a }", [2]),
    ("fn f(s) { t = true o = 1 return o }", [True]),
    ("fn f(xs, s) { l = [1, [2.0, \"x\"]] q = {1, 2.0} return l }", [[1, [2, "x"]], MimSet([2, 1])]),
    ("fn f(u) { i = inf n = null return u }", ["ab"]),
]


def test_table_reward_equals_sem_reward_on_every_action_vector_of_hand_built_prompts(monkeypatch):
    import itertools

    prompts = [traced_prompt(source, x) for source, x in HAND_BUILT]
    seen = recorded_alignment_samples(monkeypatch)
    trainer = sampled(prompts)
    by_id = {prompt.item_id: prompt for prompt in prompts}
    assert seen and all(reward == decoded_reward(trainer, by_id[pid], a) for pid, a, reward in seen)
    rows = {prompt.item_id: trainer._correct[prompt.item_id] for prompt in prompts}
    assert [sum(row) for row in rows[prompts[0].item_id]] == [2, 2, 3]  # x and a: 2, 2.0; b: 0, 0.0, -0.0
    assert [sum(row) for row in rows[prompts[1].item_id]] == [1, 1, 1]  # true is not 1
    assert [sum(row) for row in rows[prompts[2].item_id]] == [2, 2, 2, 2]  # each list (set) equals the other
    for prompt in prompts:
        pool = trainer.align_policy.pools[prompt.item_id]
        for actions in itertools.product(range(len(pool)), repeat=len(prompt.variables)):
            assert table_reward(trainer, prompt.item_id, actions) == decoded_reward(trainer, prompt, actions)


LOOPS_SOURCE = """fn w_{pid}(xs, m) {{
    out = []
    for i in range(0, len(xs)) {{
        v = xs[i] __HOLE_1__ m
        if v __HOLE_2__ 50 {{
            append(out, v)
        }}
    }}
    j = 0
    while j < len(out) {{
        out[j] = __HOLE_3__
        j = __HOLE_4__
    }}
    return out
}}
"""
LOOPS_HOLES = (
    ("+", "-", "*", "//", "/"),
    ("<", ">", "<=", ">=", "!="),
    ("out[j] + 3", "out[j] * 3", "out[j] - m", "out[j] % 3", "out[j] / 2"),
    ("j + 1", "j + 2", "len(out)"),
)


def loops_problem(pid, truth, inputs):
    """A four-hole list problem shaped like the benchmark's train-loops
    ones; its tests expect what the ``truth`` choices return."""
    template = HoleTemplate(template_source=LOOPS_SOURCE.format(pid=pid), hole_vocab=LOOPS_HOLES)
    program = instantiate_template(template, truth)
    tests = [TestCase(list(x), execute(program, list(x)).return_value) for x in inputs]
    return ProblemRecord(problem_id=pid, template=template, tests=tests)


def test_table_reward_equals_sem_reward_on_prompts_of_a_short_loops_run(monkeypatch):
    rng = np.random.default_rng(17)
    problems = [loops_problem("w%d" % k, [int(rng.integers(len(h))) for h in LOOPS_HOLES],
                              [[[int(v) for v in rng.integers(1, 99, size=n)], int(rng.integers(2, 9))]
                               for n in (6, 9)])
                for k in range(4)]
    seen = recorded_alignment_samples(monkeypatch)
    trainer = Trainer(desk_config(batch_size=8, group_size=4, max_steps=6), problems)
    for _ in range(6):
        trainer.run_step()
    prompts = {prompt.item_id: prompt for prompt in trainer.buffer.entries}
    registered = [prompts[pid] for pid in trainer._correct]
    assert len(registered) >= 4 and len(seen) >= 40
    assert {pid for pid, _, _ in seen} == set(trainer._correct)
    assert all(reward == decoded_reward(trainer, prompts[pid], a) for pid, a, reward in seen)
    # the pools mix ints, floats and lists, and rewards take several values
    assert any(isinstance(v, float) for p in registered for v in trainer.align_policy.pools[p.item_id])
    assert len({reward for _, _, reward in seen}) >= 3
    for _ in range(2000):
        prompt = registered[int(rng.integers(len(registered)))]
        pool = trainer.align_policy.pools[prompt.item_id]
        actions = [int(a) for a in rng.integers(len(pool), size=len(prompt.variables))]
        assert table_reward(trainer, prompt.item_id, actions) == decoded_reward(trainer, prompt, actions)


def test_training_scores_alignment_samples_without_decoding_them(tmp_path, monkeypatch):
    import semtrace.rewards
    import semtrace.scheduler

    cfg = desk_config(max_steps=10, align_ratio=0.4)
    run_training(cfg, desk_problems(), tmp_path / "plain")

    def refuse(*args, **kwargs):
        raise AssertionError("alignment samples are scored from the table")

    monkeypatch.setattr(grpo.ValuePredictorPolicy, "decode", refuse)
    monkeypatch.setattr(grpo.ValuePredictorPolicy, "artifact", refuse)
    monkeypatch.setattr(semtrace.rewards, "sem_reward", refuse)
    monkeypatch.setattr(semtrace.scheduler, "sem_reward", refuse, raising=False)
    run_training(cfg, desk_problems(), tmp_path / "table")
    metrics = (tmp_path / "plain" / "metrics.jsonl").read_bytes()
    assert any(json.loads(line)["n_align_in_batch"] for line in metrics.splitlines())
    assert (tmp_path / "table" / "metrics.jsonl").read_bytes() == metrics


def test_prompt_whose_loaded_logits_do_not_fit_gets_no_table_row():
    prompt = traced_prompt(*HAND_BUILT[0])
    trainer = Trainer(desk_config(batch_size=1, align_ratio=1.0), desk_problems())
    trainer.buffer.add(prompt)
    trainer.align_policy.params[prompt.item_id] = [np.zeros(1)] * len(prompt.variables)
    with pytest.raises(ValueError, match="has logit vectors of sizes"):
        trainer.run_step()
    assert prompt.item_id not in trainer._correct and prompt.item_id not in trainer.align_policy.pools


def test_buffer_record_of_a_program_that_defines_no_variables_is_rejected(tmp_path):
    from semtrace.values import read_jsonl

    record = dict(traced_prompt("fn f() { return 1 }", []).to_record())
    assert record["variables"] == []
    path = tmp_path / "buffer.jsonl"
    path.write_text(json.dumps(record) + "\n")
    with pytest.raises(ValueError) as exc:
        read_jsonl(path, AlignmentPrompt.from_record)
    assert str(exc.value) == "%s line 1: alignment prompt %r defines no variables" % (path, record["id"])


def fixed_seed_outputs(run_dir):
    """The bytes of metrics.jsonl and of the final checkpoint of an 8-step
    run.  Adam clips (the policy moves between mini-batches) and a 3-prompt
    buffer evicts, so harvest re-adds prompts with a later origin_step."""
    cfg = desk_config(max_steps=8, checkpoint_interval=4, optimizer="adam", buffer_capacity=3)
    run = run_training(cfg, desk_problems(), run_dir)
    recs = [json.loads(l) for l in (run / "metrics.jsonl").read_text().splitlines()]
    assert any(r["clip_fraction"] > 0 for r in recs) and any(r["n_align_in_batch"] for r in recs)
    outputs = [run / "metrics.jsonl"] + sorted((run / "checkpoints" / "step_8").iterdir())
    return {p.name: p.read_bytes() for p in outputs}


def reference_sample_many(policy, prompt_ids, group_size, rng):
    """One ``choice_loop`` per prompt, in order."""
    drawn = []
    for pid in prompt_ids:
        step_logits = policy.step_logits(pid)
        actions, logps = choice_loop(step_logits, group_size, rng)
        shape = (group_size, len(step_logits))
        drawn.append((np.array(actions, dtype=np.intp).reshape(shape), np.array(logps, dtype=float).reshape(shape)))
    return drawn


def reference_surrogates(policy, groups, ref_policy, cfg):
    """One ``scalar_surrogate`` per group, in order."""
    results = []
    for group in groups:
        objective, grads, kl, clip_fraction = scalar_surrogate(policy, group, ref_policy, cfg)
        results.append((objective, grads, SurrogateMetrics(objective, kl, clip_fraction)))
    return results


def test_fixed_seed_run_equals_a_run_on_the_reference_sampler_and_surrogate(tmp_path, monkeypatch):
    # the trainer draws through sample_many and updates through surrogates,
    # so those are the entry points the reference loops replace
    outputs = fixed_seed_outputs(tmp_path / "arrays")
    monkeypatch.setattr(CategoricalSequencePolicy, "sample_many", reference_sample_many)
    monkeypatch.setattr(grpo, "surrogates", reference_surrogates)
    assert fixed_seed_outputs(tmp_path / "reference") == outputs


# SHA-256 of every output of fixed_seed_outputs, recorded under numpy 2.4.6
# on an x86-64 CPU with AVX-512F.  numpy's float64 exp and log take SIMD
# loops only with AVX-512F and libm otherwise, whose last bits may differ,
# so elsewhere these hashes are a record, not a check.
PINNED_SHA256 = {
    "metrics.jsonl": "5307e2655f5a1c1c149da59b6d2d186f37c271dbee5a47397189ccf512cfc4e3",
    "align_policy.bin": "9ed25a2f1b32fb23227a66c7061967e81922b562e6f754af97b2438a190c2f8a",
    "buffer.jsonl": "e421e1a3fd5d0de89f1442926916d6d3228ac4d053226d1431be2c8417c7dd3a",
    "code_policy.bin": "9cc0d4f389ee11f38034de2662963dbb54886d6d0bf3f9c408af57421f3592fc",
    "state.json": "bcbfc92ecd73ae463c9e78ccaed05cc1b15e3cc1f6b4018d28ea4314d89d9241",
}


def recorded_cpu_and_numpy() -> bool:
    if np.__version__ != "2.4.6":
        return False
    from numpy._core._multiarray_umath import __cpu_features__

    return bool(__cpu_features__.get("AVX512F"))


@pytest.mark.skipif(not recorded_cpu_and_numpy(), reason="hashes recorded under numpy 2.4.6 with AVX-512F")
def test_fixed_seed_run_reproduces_pinned_bytes(tmp_path):
    outputs = fixed_seed_outputs(tmp_path / "run")
    assert {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()} == PINNED_SHA256


def test_a_steps_surrogates_normalize_once_per_group_and_vocabulary_size(monkeypatch):
    # one mini-batch per step, so each policy's groups of a step are one call
    calls = []

    def train_step(policy, groups, *args, **kwargs):
        calls.append((policy.snapshot(), groups))
        return grpo.train_step(policy, groups, *args, **kwargs)

    monkeypatch.setattr(scheduler, "train_step", train_step)
    trainer = Trainer(desk_config(mini_batch=10), desk_problems())
    while not any(g.kind == KIND_ALIGNMENT for _, groups in calls for g in groups):
        trainer.run_step()
    assert [{g.kind for g in groups} for _, groups in calls[-2:]] == [{KIND_CODEGEN}, {KIND_ALIGNMENT}]
    normalized = []
    monkeypatch.setattr(grpo, "log_softmax", lambda logits: normalized.append(logits) or log_softmax(logits))
    for policy, groups in calls[-2:]:  # the step's code call and its alignment call
        shapes = {(len(g.actions), len(vec)) for g in groups for vec in policy.params[g.prompt_id]}
        per_shape_and_step = {(len(g.actions), tuple(map(len, policy.params[g.prompt_id])), t)
                              for g in groups for t in range(g.actions.shape[1])}
        normalized.clear()
        grpo.surrogates(policy, groups, None, trainer.config)
        stacks = [lp for lp in normalized if lp.ndim == 2]
        uniform = [len(lp) for lp in normalized if lp.ndim == 1 and not lp.any()]
        assert len(stacks) + len(uniform) == len(normalized)
        assert len(stacks) == len(shapes)
        assert sorted(uniform) == sorted({size for _, size in shapes})
    assert len(per_shape_and_step) > len(shapes)  # in the alignment call, once per (shape, step) is more


def test_scoring_a_program_whose_first_test_is_a_wrong_answer_runs_one_execution(monkeypatch):
    from semtrace import rewards

    calls = []
    real = rewards.execute
    monkeypatch.setattr(rewards, "execute", lambda p, inputs, **kw: calls.append(list(inputs)) or real(p, inputs, **kw))
    trainer = Trainer(desk_config(), desk_problems())
    report, prompt = trainer._score(parse_program(BUGGY_SUM), SUM_TESTS)
    assert calls == [[3]]
    assert (report.reward, prompt.input, prompt.truth) == (0, [3], {"n": 3, "t": 3, "i": 2})


@pytest.mark.parametrize(
    "key,value,named",
    [
        ("origin_step", 5.7, "origin_step must be an integer of at least 0, got 5.7"),
        ("origin_step", True, "origin_step must be an integer of at least 0, got True"),
        ("origin_step", "7", "origin_step must be an integer of at least 0, got '7'"),
        ("origin_step", -1, "origin_step must be an integer of at least 0, got -1"),
        ("variables", "nti", "lists variables 'nti', but its run defines ['n', 't', 'i']"),
        ("variables", [], "lists variables [], but its run defines ['n', 't', 'i']"),
        ("variables", ["n", "n"], "lists variables ['n', 'n'], but its run defines ['n', 't', 'i']"),
        ("variables", ["t", "n", "i"], "lists variables ['t', 'n', 'i'], but its run defines ['n', 't', 'i']"),
    ],
    ids=["float-step", "bool-step", "string-step", "negative-step", "string-variables", "no-variables",
         "repeated-variable", "reordered-variables"],
)
def test_buffer_record_with_a_bad_field_is_rejected_naming_file_and_line(tmp_path, key, value, named):
    from semtrace.values import read_jsonl

    p = parse_program(BUGGY_SUM)
    good = build_alignment_prompt(p, SUM_TESTS, gen_reward(p, SUM_TESTS), origin_step=0).to_record()
    path = tmp_path / "buffer.jsonl"
    path.write_text(json.dumps(good) + "\n" + json.dumps(dict(good, **{key: value})) + "\n")
    with pytest.raises(ValueError) as exc:
        read_jsonl(path, AlignmentPrompt.from_record)
    assert str(exc.value).startswith("%s line 2: " % path) and named in str(exc.value)
    assert AlignmentPrompt.from_record(good).origin_step == 0


@pytest.mark.parametrize(
    "truth,named",
    [
        ({"n": 3, "t": 3, "i": 2, "zz": [1, 2]}, "truth keys do not match its variables: extra ['zz'], missing []"),
        ({"n": 3, "i": 2}, "truth keys do not match its variables: extra [], missing ['t']"),
        ({"n": 3, "i": 2, "x": 0}, "truth keys do not match its variables: extra ['x'], missing ['t']"),
    ],
    ids=["extra-key", "missing-key", "renamed-key"],
)
def test_buffer_record_truth_keys_must_be_its_variables(tmp_path, truth, named):
    from semtrace.values import read_jsonl

    p = parse_program(BUGGY_SUM)
    good = build_alignment_prompt(p, SUM_TESTS, gen_reward(p, SUM_TESTS), origin_step=0).to_record()
    assert good["truth"] == {"n": 3, "t": 3, "i": 2}
    path = tmp_path / "buffer.jsonl"
    path.write_text(json.dumps(dict(good, truth=truth)) + "\n")
    with pytest.raises(ValueError) as exc:
        read_jsonl(path, AlignmentPrompt.from_record)
    assert str(exc.value).startswith("%s line 1: alignment prompt %r " % (path, good["id"]))
    assert named in str(exc.value)
