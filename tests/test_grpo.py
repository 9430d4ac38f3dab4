"""Group-normalized advantages, surrogate objective, analytic gradients, and
the two toy policies."""

import math

import numpy as np
import pytest

from semtrace import grpo
from semtrace.grpo import (
    KIND_ALIGNMENT,
    KIND_CODEGEN,
    CategoricalSequencePolicy,
    GrpoConfig,
    Memo,
    RolloutGroup,
    RolloutSample,
    TemplatePolicy,
    ValuePredictorPolicy,
    candidate_value_pool,
    group_advantages,
    log_softmax,
    sample_rollouts,
    SurrogateMetrics,
    surrogate_and_grad,
    surrogates,
    train_step,
)
from semtrace.lang import HoleTemplate, instantiate_template, parse_program
from semtrace.rewards import SemPrediction

from conftest import choice_loop, scalar_surrogate


def softmax(logits):
    return np.exp(log_softmax(logits))


def kl_categorical(p_logits, q_logits) -> float:
    """Exact KL(softmax(p_logits) || softmax(q_logits))."""
    p_logits = np.asarray(p_logits, dtype=float)
    q_logits = np.asarray(q_logits, dtype=float)
    if p_logits.shape != q_logits.shape:
        raise ValueError("logit vectors must have the same shape")
    lp = log_softmax(p_logits)
    lq = log_softmax(q_logits)
    return float(np.sum(np.exp(lp) * (lp - lq)))


def logprob(policy, prompt_id, actions):
    """Per-step log-probabilities of one action sequence under ``policy``."""
    step_logits = policy.step_logits(prompt_id)
    if len(actions) != len(step_logits):
        raise ValueError("action sequence length mismatch")
    return [float(log_softmax(logits)[a]) for logits, a in zip(step_logits, actions)]


def test_group_advantages_example():
    adv = group_advantages([1.0, 0.0, 0.0, 0.0])
    assert adv[0] == pytest.approx(1.7320508, abs=1e-6)
    for a in adv[1:]:
        assert a == pytest.approx(-0.5773503, abs=1e-6)


def test_group_advantages_zero_variance_guard():
    assert group_advantages([0.5, 0.5, 0.5]) == [0.0, 0.0, 0.0]


def test_group_advantages_normalization_identity(rng):
    for _ in range(50):
        rewards = list(rng.normal(size=int(rng.integers(2, 12))))
        adv = group_advantages(rewards)
        if np.std(rewards) > 1e-6:
            assert abs(np.mean(adv)) <= 1e-12
            assert abs(np.std(adv) - 1.0) <= 1e-9


def test_group_advantages_requires_two():
    with pytest.raises(ValueError):
        group_advantages([1.0])


def test_kl_identical_is_zero(rng):
    logits = rng.normal(size=6)
    assert kl_categorical(logits, logits) == pytest.approx(0.0, abs=1e-15)


def test_kl_closed_form():
    p = np.log([0.75, 0.25])
    q = np.log([0.5, 0.5])
    expected = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)
    assert kl_categorical(p, q) == pytest.approx(expected, abs=1e-12)


def test_kl_nonnegative(rng):
    for _ in range(100):
        p = rng.normal(size=5)
        q = rng.normal(size=5)
        assert kl_categorical(p, q) >= -1e-12


# --- policies ---


def one_hole_template():
    return HoleTemplate(
        template_source="fn f(a, b) {\n    t = a __HOLE_1__ b\n    return t\n}\n",
        hole_vocab=(("+", "-", "*", "//"),),
    )


def test_template_policy_sampling_deterministic():
    actions = []
    for _ in range(2):
        pol = TemplatePolicy()
        pol.register_template("p", one_hole_template())
        rng = np.random.default_rng(17)
        group = sample_rollouts(pol, "p", KIND_CODEGEN, 8, rng)
        actions.append([s.actions for s in group.samples])
    assert actions[0] == actions[1]


def test_template_policy_decodes_to_program():
    pol = TemplatePolicy()
    pol.register_template("p", one_hole_template())
    program = pol.decode("p", [0])
    assert program == parse_program("fn f(a, b) { t = a + b return t }")


def test_memo_admits_on_second_lookup_and_evicts_least_recent():
    computed = []

    def lookup(memo, key):
        return memo.get(key, lambda: computed.append(key) or key.upper())

    memo = Memo(capacity=3)
    assert lookup(memo, "a") == "A"
    assert len(memo) == 0  # the first lookup keeps no value
    assert lookup(memo, "a") == "A"
    assert lookup(memo, "a") == "A"
    assert computed == ["a", "a"]
    for key in ("b", "b", "c", "c"):
        lookup(memo, key)
    assert len(memo) == 3
    lookup(memo, "a")  # a hit makes "a" the most recent value
    lookup(memo, "d")
    lookup(memo, "d")  # admits "d" and evicts "b", the least recent value
    assert len(memo) == 3
    del computed[:]
    for key in ("a", "c", "d", "b"):
        lookup(memo, key)
    assert computed == ["b"]


def test_memo_forgets_keys_seen_once_beyond_its_capacity():
    memo = Memo(capacity=2)
    computed = []
    for key in ("x", "y", "z", "x", "x"):  # "y" and "z" push out the record of "x"
        memo.get(key, lambda: computed.append(key))
    assert computed == ["x", "y", "z", "x", "x"]
    assert len(memo) == 1


def test_memo_stores_nothing_when_compute_raises():
    memo = Memo(capacity=2)

    def fail():
        raise ValueError("no value")

    for _ in range(3):
        with pytest.raises(ValueError):
            memo.get("k", fail)
    assert len(memo) == 0
    assert memo.get("k", lambda: 1) == 1


def test_memoized_decode_matches_instantiate_template():
    pol = TemplatePolicy()
    template = one_hole_template()
    pol.register_template("p", template)
    for choice in (0, 1, 0, 1, 0, 1):
        assert pol.decode("p", [choice]) == instantiate_template(template, [choice])
    replaced = HoleTemplate(
        template_source="fn g(a, b) {\n    t = b __HOLE_1__ a\n    return t\n}\n",
        hole_vocab=(("*", "-"),),
    )
    pol.register_template("p", replaced)
    for choice in (0, 1, 0, 1):
        assert pol.decode("p", [choice]) == instantiate_template(replaced, [choice])


def test_logprob_normalization_and_consistency(rng):
    pol = TemplatePolicy()
    pol.register_template("p", one_hole_template())
    pol.params["p"][0][:] = rng.normal(size=4)
    logits = pol.params["p"][0]
    assert np.exp(logits - np.logaddexp.reduce(logits)).sum() == pytest.approx(1.0, abs=1e-9)
    actions, logps = (row.tolist() for [row] in pol.sample_many(["p"], 1, rng)[0])
    assert logprob(pol, "p", actions) == logps


def test_sampling_frequencies_match_softmax(rng):
    pol = TemplatePolicy()
    pol.register_template("p", one_hole_template())
    pol.params["p"][0][:] = np.array([0.8, -0.3, 0.1, -1.2])
    probs = softmax(pol.params["p"][0])
    n = 100_000
    [(actions, _)] = pol.sample_many(["p"], n, rng)
    counts = np.bincount(actions[:, 0], minlength=4)
    for j in range(4):
        sigma = math.sqrt(n * probs[j] * (1 - probs[j]))
        assert abs(counts[j] - n * probs[j]) <= 3 * sigma


def test_group_draw_matches_a_choice_loop():
    shapes = np.random.default_rng(99)
    for seed in range(60):
        for group_size in (1, 2, 8):
            n_steps = int(shapes.integers(0, 6))
            scale = float(shapes.choice([0.1, 1.0, 40.0]))  # 40: peaked
            pol = CategoricalSequencePolicy()
            pol.params["p"] = [
                shapes.normal(scale=scale, size=int(shapes.integers(1, 10))) for _ in range(n_steps)
            ]
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            [(actions, logps)] = pol.sample_many(["p"], group_size, rng)
            assert actions.shape == logps.shape == (group_size, n_steps)
            assert (actions.tolist(), logps.tolist()) == choice_loop(pol.params["p"], group_size, ref_rng)
            assert rng.bit_generator.state == ref_rng.bit_generator.state


# sizes that make prompts share stacks, on both sides of 8, where numpy's
# pairwise summation changes, up to the width of a wide alignment pool
MIXED_VOCABS = (1, 2, 3, 5, 7, 8, 9, 13, 14, 16, 17, 40)


def mixed_policy(rng, n_prompts, min_steps, max_steps):
    pol = TuplePolicy()
    for k in range(n_prompts):
        scale = float(rng.choice([0.1, 1.0, 40.0]))  # 40: peaked
        pol.params["p%d" % k] = [
            rng.normal(scale=scale, size=int(rng.choice(MIXED_VOCABS)))
            for _ in range(int(rng.integers(min_steps, max_steps + 1)))
        ]
    return pol


def test_one_draw_over_many_prompts_matches_a_choice_loop_per_prompt():
    shapes = np.random.default_rng(5)
    for seed in range(12):
        pol = mixed_policy(shapes, 12, 0, 5)
        prompt_ids = [str(pid) for pid in shapes.choice(sorted(pol.params), size=20)]  # repeats, like a batch
        for group_size in (1, 2, 8):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            drawn = pol.sample_many(prompt_ids, group_size, rng)
            expected = [choice_loop(pol.params[pid], group_size, ref_rng) for pid in prompt_ids]
            assert [(a.tolist(), lp.tolist()) for a, lp in drawn] == expected
            assert [a.shape for a, _ in drawn] == [(group_size, len(pol.params[pid])) for pid in prompt_ids]
            assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_a_draw_of_no_prompts_draws_nothing():
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    assert TuplePolicy().sample_many([], 8, rng) == []
    assert rng.bit_generator.state == state


def test_a_bad_distribution_is_named_in_draw_order():
    pol = CategoricalSequencePolicy()
    pol.params["a"] = [np.zeros(3)]
    pol.params["b"] = [np.zeros(2), np.zeros(4), np.array([0.0, math.nan])]
    pol.params["c"] = [np.array([math.nan, 0.0, 1.0])]  # stacked with a's step, before b's step 2
    with pytest.raises(ValueError, match="step 2 of prompt 'b'"):
        pol.sample_many(["a", "b", "c", "b"], 4, np.random.default_rng(0))


def test_one_surrogate_call_over_mixed_groups_matches_the_scalar_loop_per_group():
    rng = np.random.default_rng(21)
    cfg = GrpoConfig(clip_eps=0.2, kl_beta=1e-2)
    seen = {"clipped": 0, "unclipped": 0, "degenerate": 0}
    for case in range(8):
        pol = mixed_policy(rng, 10, 1, 5)
        ref = None
        if case % 2:
            ref = pol.snapshot()
            del ref.params["p0"]  # a prompt the reference lacks is scored against the uniform policy
        groups = []
        for pid in rng.choice(sorted(pol.params), size=24):
            group_size = int(rng.choice([1, 2, 8]))
            group = sample_rollouts(pol, str(pid), KIND_CODEGEN, group_size, rng)
            if group_size == 1:
                group.advantages = [float(rng.normal())]
            elif rng.random() < 0.2:
                group.advantages = [0.0] * group_size
            else:
                for s in group.samples:
                    s.reward = float(rng.integers(0, 3))
                group.fill_advantages()
            groups.append(group)
        for vecs in pol.params.values():
            for vec in vecs:
                vec += rng.normal(size=len(vec)) * 0.5  # move off-policy so both branches run
        results = surrogates(pol, groups, ref, cfg)
        assert len(results) == len(groups)
        for group, (obj, grads, metrics) in zip(groups, results):
            ref_obj, ref_grads, kl, clip_fraction = scalar_surrogate(pol, group, ref, cfg)
            assert (obj, metrics.objective, metrics.kl, metrics.clip_fraction) == (ref_obj, ref_obj, kl, clip_fraction)
            assert [g.tobytes() for g in grads] == [g.tobytes() for g in ref_grads]
            seen["clipped"] += clip_fraction > 0.0
            seen["unclipped"] += clip_fraction < 1.0
            seen["degenerate"] += not any(group.advantages)
    assert min(seen.values()) > 10, seen


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_logit_raises(bad):
    pol = CategoricalSequencePolicy()
    pol.params["p"] = [np.zeros(3), np.array([0.0, bad, 1.0])]
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="step 1"):
        pol.sample_many(["p"], 4, np.random.default_rng(0))


def test_value_predictor_decodes_full_prediction(rng):
    pol = ValuePredictorPolicy()
    pol.register_prompt("q", ["a", "b", "c"], [0, 1, 2, None])
    group = sample_rollouts(pol, "q", KIND_ALIGNMENT, 8, rng)
    for s in group.samples:
        assert isinstance(s.artifact, SemPrediction)
        assert set(s.artifact.variables) == {"a", "b", "c"}


def test_candidate_pool_contains_truth_and_base_values():
    p = parse_program("fn f(a) { x = a + 3 return x }")
    pool = candidate_value_pool(p, [7], {"a": 7, "x": 10})
    for v in (3, 7, 10, -1, 0, 1, 2, True, False, None, math.inf):
        assert any(type(c) is type(v) and c == v for c in pool)
    # deterministic ordering
    assert pool == candidate_value_pool(p, [7], {"a": 7, "x": 10})


def test_decode_failure_scores_zero(rng):
    pol = TemplatePolicy()
    pol.register_template(
        "p",
        HoleTemplate(
            template_source="fn f(a) {\n    t = a __HOLE_1__ 2\n    return t\n}\n",
            hole_vocab=(("+", "-"),),
        ),
    )

    broken = pol.decode

    def decode(prompt_id, actions):
        raise RuntimeError("forced decode failure")

    pol.decode = decode
    group = sample_rollouts(pol, "p", KIND_CODEGEN, 4, rng)
    pol.decode = broken
    assert all(s.artifact is None and s.reward == 0.0 for s in group.samples)


# --- surrogate objective ---


class TuplePolicy(CategoricalSequencePolicy):
    def decode(self, prompt_id, actions):
        return tuple(actions)


def make_group(pol, rewards, rng):
    group = sample_rollouts(pol, "p", KIND_CODEGEN, len(rewards), rng)
    for s, r in zip(group.samples, rewards):
        s.reward = r
    group.fill_advantages()
    return group


def test_on_policy_objective_and_ratio(rng):
    pol = TuplePolicy()
    pol.params["p"] = [rng.normal(size=5)]
    ref = pol.snapshot()
    cfg = GrpoConfig(group_size=4)
    group = make_group(pol, [1.0, 0.0, 0.0, 1.0], rng)
    obj, grads, metrics = surrogate_and_grad(pol, group, ref, cfg)
    # theta == theta_old: every ratio is 1 and the clip never binds
    assert metrics.clip_fraction == 0.0
    assert metrics.kl == pytest.approx(0.0, abs=1e-12)
    assert obj == pytest.approx(np.mean(group.advantages), abs=1e-9)


def test_clipped_branch_contributes_constant():
    # a hand-built one-sample group with ratio 1.5 and positive advantage
    pol = TuplePolicy()
    pol.params["p"] = [np.zeros(2)]
    ref = pol.snapshot()
    cfg = GrpoConfig(group_size=2, clip_eps=0.2, kl_beta=0.0)
    rng = np.random.default_rng(0)
    group = make_group(pol, [1.0, 0.0], rng)
    for s in group.samples:
        # fake a stale sampling distribution so the current ratio is 1.5
        s.logp_old = [lp - math.log(1.5) for lp in s.logp_old]
    obj, grads, metrics = surrogate_and_grad(pol, group, ref, cfg)
    adv = np.array(group.advantages)
    expected = np.mean(np.where(adv > 0, 1.2 * adv, 1.5 * adv))
    assert obj == pytest.approx(expected, abs=1e-9)
    assert metrics.clip_fraction > 0.0


def test_array_surrogate_equals_the_scalar_loop_bit_for_bit():
    rng = np.random.default_rng(8)
    clipped = 0
    for case in range(60):
        pol = TuplePolicy()
        pol.params["p"] = [rng.normal(size=int(rng.integers(1, 8))) for _ in range(int(rng.integers(1, 5)))]
        ref = None if case % 2 else pol.snapshot()
        group = make_group(pol, list(rng.integers(0, 3, size=8).astype(float)), rng)
        for vec in pol.params["p"]:
            vec += rng.normal(size=len(vec)) * 0.5  # move off-policy so both branches run
        cfg = GrpoConfig(clip_eps=0.2, kl_beta=1e-2)
        obj, grads, metrics = surrogate_and_grad(pol, group, ref, cfg)
        ref_obj, ref_grads, kl, clip_fraction = scalar_surrogate(pol, group, ref, cfg)
        assert (obj, metrics.kl, metrics.clip_fraction) == (ref_obj, kl, clip_fraction)
        assert [g.tobytes() for g in grads["p"]] == [g.tobytes() for g in ref_grads]
        clipped += 0.0 < clip_fraction < 1.0
    assert clipped > 10


def test_surrogate_rejects_a_group_without_samples_or_steps():
    pol = TuplePolicy()
    pol.params["p"] = [np.zeros(3)]
    cfg = GrpoConfig()
    with pytest.raises(ValueError, match="needs samples and steps"):
        surrogate_and_grad(pol, RolloutGroup("p", KIND_CODEGEN, [], advantages=[]), None, cfg)
    pol.params["q"] = []
    group = RolloutGroup("q", KIND_CODEGEN, [RolloutSample([], []), RolloutSample([], [])], advantages=[1.0, -1.0])
    with pytest.raises(ValueError, match="needs samples and steps"):
        surrogate_and_grad(pol, group, None, cfg)


def finite_difference_check(pol, ref, group, cfg, h=1e-5):
    _, grads, _ = surrogate_and_grad(pol, group, ref, cfg)
    max_rel = 0.0
    for pid, vecs in pol.params.items():
        for pos, vec in enumerate(vecs):
            for j in range(len(vec)):
                vec[j] += h
                up, _, _ = surrogate_and_grad(pol, group, ref, cfg)
                vec[j] -= 2 * h
                down, _, _ = surrogate_and_grad(pol, group, ref, cfg)
                vec[j] += h
                fd = (up - down) / (2 * h)
                an = grads[pid][pos][j]
                rel = abs(fd - an) / max(abs(fd), abs(an), 1e-8)
                max_rel = max(max_rel, rel)
    return max_rel


def test_gradient_matches_finite_differences_template_policy():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(20):
        pol = TemplatePolicy()
        pol.register_template("p", one_hole_template())
        pol.params["p"][0][:] = rng.normal(size=4)
        ref = TemplatePolicy()
        ref.register_template("p", one_hole_template())
        ref.params["p"][0][:] = rng.normal(size=4) * 0.5
        cfg = GrpoConfig(group_size=4, kl_beta=1e-2)
        group = make_group(pol, list(rng.integers(0, 2, size=4).astype(float)), rng)
        pol.params["p"][0] += rng.normal(size=4) * 0.2  # move off-policy
        worst = max(worst, finite_difference_check(pol, ref, group, cfg))
    assert worst <= 1e-4


def test_gradient_matches_finite_differences_value_policy():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(20):
        pol = ValuePredictorPolicy()
        pol.register_prompt("p", ["a", "b"], [0, 1, 2])
        for vec in pol.params["p"]:
            vec[:] = rng.normal(size=3)
        ref = pol.snapshot()
        cfg = GrpoConfig(group_size=4, kl_beta=1e-2)
        group = make_group(pol, list(rng.random(size=4)), rng)
        for vec in pol.params["p"]:
            vec += rng.normal(size=3) * 0.2
        worst = max(worst, finite_difference_check(pol, ref, group, cfg))
    assert worst <= 1e-4


def test_train_step_increases_positive_advantage_probability(rng):
    pol = TuplePolicy()
    pol.params["p"] = [np.zeros(4)]
    ref = pol.snapshot()
    cfg = GrpoConfig(group_size=4, learning_rate=0.1, kl_beta=0.0)
    group = make_group(pol, [1.0, 0.0, 0.0, 0.0], rng)
    winner = group.samples[0].actions
    before = sum(logprob(pol, "p", winner))
    train_step(pol, [group], ref, cfg)
    after = sum(logprob(pol, "p", winner))
    assert after > before


def test_train_step_rejects_empty_groups():
    pol = TuplePolicy()
    with pytest.raises(ValueError):
        train_step(pol, [], pol.snapshot(), GrpoConfig())


def test_train_step_sums_each_prompts_gradients_as_one_add_per_group_would(monkeypatch):
    # per prompt, in group order, from +0.0 rows: 0.0 + -0.0 is +0.0, and
    # with 1e16 among the terms another order would round differently
    vals = [-0.0, 0.0, 0.1, 0.2, 0.3, -0.3, 1e16, -1e16, 1.0, -1e-300]
    rng = np.random.default_rng(3)
    prompts = {"a": [4, 2], "b": [3], "c": [4, 2]}
    order = ["a", "b", "a", "c", "a", "b", "c", "a"]
    grads = [[rng.choice(vals, size) for size in prompts[pid]] for pid in order]
    for i in (1, 5):  # both of b's groups
        grads[i][0][0] = -0.0
    groups = [RolloutGroup(prompt_id=pid, kind=KIND_CODEGEN, samples=[]) for pid in order]
    metrics = SurrogateMetrics(objective=0.0, kl=0.0, clip_fraction=0.0)
    monkeypatch.setattr(grpo, "surrogates", lambda policy, gs, ref, cfg: [(0.0, g, metrics) for g in grads])
    applied = []
    monkeypatch.setattr(grpo, "_apply_update", lambda policy, totals, cfg: applied.append(totals))
    n = 3
    train_step(CategoricalSequencePolicy(), groups, None, GrpoConfig(), group_count=n)
    want = {}
    for pid, g in zip(order, grads):
        totals = want.setdefault(pid, [np.zeros_like(v) for v in g])
        for total, v in zip(totals, g):
            total += v / n
    [got] = applied
    assert list(got) == list(want)
    assert all(a.tobytes() == b.tobytes() for pid in want for a, b in zip(got[pid], want[pid], strict=True))
    assert not np.signbit(got["b"][0][0])  # a sum from b's first row, not from zero, would keep -0.0


def test_bandit_convergence_regression():
    # one rewarded action of 8; the committed seed must clear 0.9 mean reward
    pol = TuplePolicy()
    pol.params["p"] = [np.zeros(8)]
    ref = pol.snapshot()
    cfg = GrpoConfig(group_size=8, learning_rate=0.5, optimizer="sgd")
    rng = np.random.default_rng(42)
    for step in range(1, 301):
        group = sample_rollouts(pol, "p", KIND_CODEGEN, 8, rng)
        for s in group.samples:
            s.reward = 1.0 if s.artifact == (3,) else 0.0
        group.fill_advantages()
        train_step(pol, [group], ref, cfg)
        if sum(s.reward for s in group.samples) / 8 >= 0.9:
            break
    else:
        pytest.fail("bandit did not converge within 300 steps")
    assert step < 300


def test_policy_checkpoint_round_trip(tmp_path, rng):
    pol = TemplatePolicy()
    pol.register_template("p", one_hole_template())
    pol.params["p"][0][:] = rng.normal(size=4)
    path = tmp_path / "policy.bin"
    pol.save(path)
    other = TemplatePolicy()
    other.register_template("p", one_hole_template())
    other.load(path)
    assert np.array_equal(other.params["p"][0], pol.params["p"][0])


def test_policy_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
    pol = TemplatePolicy()
    with pytest.raises(ValueError):
        pol.load(path)


# offsets into a saved policy with one prompt "prompt" and one 3-vector:
# magic 0-8, prompt count 8-12, id length 12-16, id 16-22, step count 22-26,
# vector length 26-30, vector 30-54
@pytest.mark.parametrize("keep", range(54))
def test_policy_load_rejects_a_truncated_file(tmp_path, keep):
    pol = CategoricalSequencePolicy()
    pol.params["prompt"] = [np.array([1.0, 2.0, 3.0])]
    path = tmp_path / "policy.bin"
    pol.save(path)
    assert len(path.read_bytes()) == 54
    path.write_bytes(path.read_bytes()[:keep])
    with pytest.raises(ValueError, match="policy.bin"):
        CategoricalSequencePolicy().load(path)


def test_adam_optimizer_also_converges():
    pol = TuplePolicy()
    pol.params["p"] = [np.zeros(8)]
    ref = pol.snapshot()
    cfg = GrpoConfig(group_size=8, learning_rate=0.05, optimizer="adam")
    rng = np.random.default_rng(11)
    last = 0.0
    for _ in range(300):
        group = sample_rollouts(pol, "p", KIND_CODEGEN, 8, rng)
        for s in group.samples:
            s.reward = 1.0 if s.artifact == (5,) else 0.0
        group.fill_advantages()
        train_step(pol, [group], ref, cfg)
        last = sum(s.reward for s in group.samples) / 8
        if last >= 0.9:
            break
    assert last >= 0.9
