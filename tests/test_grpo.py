"""Group-normalized advantages, surrogate objective, analytic gradients, and
the two toy policies."""

import math

import numpy as np
import pytest

from semtrace.grpo import (
    KIND_ALIGNMENT,
    KIND_CODEGEN,
    CategoricalSequencePolicy,
    GrpoConfig,
    Memo,
    TemplatePolicy,
    ValuePredictorPolicy,
    candidate_value_pool,
    group_advantages,
    kl_categorical,
    sample_rollouts,
    softmax,
    surrogate_and_grad,
    train_step,
)
from semtrace.lang import HoleTemplate, instantiate_template, parse_program
from semtrace.rewards import SemPrediction


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
    actions, logps = pol.sample("p", rng)
    assert pol.logprob("p", actions) == logps


def test_sampling_frequencies_match_softmax(rng):
    pol = TemplatePolicy()
    pol.register_template("p", one_hole_template())
    pol.params["p"][0][:] = np.array([0.8, -0.3, 0.1, -1.2])
    probs = softmax(pol.params["p"][0])
    n = 100_000
    counts = np.zeros(4)
    for _ in range(n):
        a, _ = pol.sample("p", rng)
        counts[a[0]] += 1
    for j in range(4):
        sigma = math.sqrt(n * probs[j] * (1 - probs[j]))
        assert abs(counts[j] - n * probs[j]) <= 3 * sigma


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
    before = sum(pol.logprob("p", winner))
    train_step(pol, [group], ref, cfg)
    after = sum(pol.logprob("p", winner))
    assert after > before


def test_train_step_rejects_empty_groups():
    pol = TuplePolicy()
    with pytest.raises(ValueError):
        train_step(pol, [], pol.snapshot(), GrpoConfig())


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
@pytest.mark.parametrize("keep", [10, 14, 19, 40, 46])
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
