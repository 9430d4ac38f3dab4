"""Tests of the benchmark's own code.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (str(BENCH), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workload  # noqa: E402
from semtrace import harness, lang, rewards, scheduler  # noqa: E402


def _files(directory):
    return {p.relative_to(directory): p.read_bytes() for p in sorted(directory.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", ["train-repeat", "train-loops", "tools"])
def test_generator_is_deterministic_per_seed(tmp_path, name):
    for label, seed in (("a", 5), ("b", 5), ("c", 6)):
        gen.main(["--workload", name, "--seed", str(seed), "--out", str(tmp_path / label)])
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


@pytest.mark.parametrize("name", ["train-repeat", "train-loops"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generated_templates_validate_and_truth_scores_one(tmp_path, name, seed):
    gen.main(["--workload", name, "--seed", str(seed), "--out", str(tmp_path)])
    problems = harness.load_problems(tmp_path / "problems.jsonl")
    truth = json.loads((tmp_path / "truth.json").read_text())
    assert len(problems) == 32
    budget = workload.TRAIN_SHAPES[name].get("step_budget", harness.RunConfig().step_budget)
    for problem in problems:
        problem.template.validate()
        program = lang.instantiate_template(problem.template, truth[problem.problem_id])
        assert rewards.gen_reward(program, problem.tests, budget=budget).reward == 1, problem.problem_id


def test_wrapper_passes_results_and_exceptions_through():
    rec = tracing.Recorder()
    marker = object()

    def inner(x, y=0):
        if x < 0:
            raise KeyError(x)
        return marker

    def outer(x):
        return wrapped_inner(x, y=1)

    wrapped_inner = rec.wrap("lang.inner", inner)
    wrapped_outer = rec.wrap("grpo.outer", outer)
    assert wrapped_outer(1) is marker
    with pytest.raises(KeyError):
        wrapped_outer(-1)
    assert rec.calls["lang.inner"] == 2 and rec.calls["grpo.outer"] == 2
    names = [rec.names[i] for i in rec.span_name]
    assert names == ["grpo.outer", "lang.inner", "grpo.outer", "lang.inner"]
    assert list(rec.span_parent) == [-1, 0, -1, 2]
    assert all(e >= s for s, e in zip(rec.span_start, rec.span_end))
    assert 0.0 <= rec.self_s["grpo.outer"] <= rec.incl_s["grpo.outer"]
    assert rec.layer_self_s("grpo") + rec.layer_self_s("lang") == pytest.approx(rec.incl_s["grpo.outer"])


def test_install_wraps_every_binding_and_uninstall_restores_them():
    from semtrace import rewards as rewards_module

    original = rewards_module.gen_reward
    problem = harness.ProblemRecord(
        "p",
        lang.HoleTemplate("fn f(a, b) {\n    t = a __HOLE_1__ b\n    return t\n}\n", (("+", "-"),)),
        [rewards.TestCase([2, 3], 5)],
    )
    program = lang.instantiate_template(problem.template, [0])
    expected = original(program, problem.tests)

    rec = tracing.Recorder()
    undo = tracing.install(rec)
    try:
        assert scheduler.gen_reward is rewards_module.gen_reward is not original
        assert scheduler.gen_reward(program, problem.tests) == expected
        assert rec.calls["rewards.gen_reward"] == 1
        assert rec.calls["tracer.execute"] == 1
    finally:
        tracing.uninstall(undo)
    assert scheduler.gen_reward is rewards_module.gen_reward is original
    assert all(getattr(owner, attr) is fn for owner, attr, fn in undo)


def test_benchmark_json_matches_the_metrics_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.E2E_UNITS.items())
    per_layer = [(name, unit, better) for name, unit, better, _ in tracing.PER_LAYER]
    per_layer += [("trace.overhead_ratio", "ratio", "lower"), ("trace.spans", "count", "lower")]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == per_layer
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.NOMINAL_RATE)


def test_tail_percentile_leaves_ten_samples_beyond():
    for n in (20, 57, 80, 100, 300):
        p = workload.tail_percentile(n)
        values = list(range(n))
        assert n - 1 - workload.percentile(values, p) >= 10
        assert n - 1 - workload.percentile(values, p + 1) < 10 or p == 50


def test_speed_sampler_subtracts_its_slices_and_scales_by_their_mean():
    sampler = workload.SpeedSampler()
    period, nominal = workload.SLICE_PERIOD_S, workload.SLICE_NOMINAL_S
    sampler.at = [k * period for k in range(5)]
    sampler.took = [2 * nominal] * 5
    wall, at_ref = sampler.measure(0.5 * period, 3.5 * period)
    assert wall == pytest.approx(3 * period - 3 * 2 * nominal)
    # slices took twice their nominal time, so the machine ran at half speed
    assert at_ref == pytest.approx(wall / 2)


def test_speed_sampler_takes_slices_while_started():
    sampler = workload.SpeedSampler()
    sampler.start()
    try:
        start = workload.clock()
        while workload.clock() - start < 10 * workload.SLICE_PERIOD_S:
            pass
        end = workload.clock()
    finally:
        sampler.stop()
    assert len(sampler.took) >= 3
    wall, at_ref = sampler.measure(start, end)
    assert 0 < wall < end - start and at_ref > 0
