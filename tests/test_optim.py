"""The one Adam update: its bits, its JSON state, and both learners on it."""

import json

import numpy as np

from semtrace.grpo import CategoricalSequencePolicy, GrpoConfig, _apply_update
from semtrace.optim import Adam
from semtrace.probe import synthetic_linear_samples, train_probe


def reference_adam(theta, grads, lr):
    """Adam written out for one vector, ``lr * m_hat / (sqrt(v_hat) + eps)``
    evaluated left to right."""
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    for t, g in enumerate(grads, 1):
        m = 0.9 * m + (1 - 0.9) * g
        v = 0.999 * v + (1 - 0.999) * g * g
        m_hat = m / (1 - 0.9**t)
        v_hat = v / (1 - 0.999**t)
        theta = theta + lr * m_hat / (np.sqrt(v_hat) + 1e-8)
    return theta


def test_policy_update_is_the_written_out_adam_bit_for_bit():
    rng = np.random.default_rng(4)
    grads = [rng.normal(scale=3.0, size=64) for _ in range(6)]
    start = np.zeros(64)  # a zero start keeps every bit of the updates
    pol = CategoricalSequencePolicy()
    pol.params["p"] = [start.copy()]
    cfg = GrpoConfig(learning_rate=1e-3, optimizer="adam")
    for g in grads:
        _apply_update(pol, {"p": [g]}, cfg)
    assert pol.params["p"][0].tobytes() == reference_adam(start, grads, 1e-3).tobytes()
    assert pol.adam.t == 6


def test_probe_is_the_written_out_adam_descent_bit_for_bit():
    samples = synthetic_linear_samples(50, np.random.default_rng(2))
    X = np.stack([s.features[1] for s in samples])
    y = np.array([s.target for s in samples])
    n, d = X.shape
    w, b = np.zeros(d), 0.0
    m_w, v_w, m_b, v_b = np.zeros(d), np.zeros(d), 0.0, 0.0
    for t in range(1, 11):
        resid = X @ w + b - y
        g_w = 2.0 / n * (X.T @ resid)
        g_b = 2.0 / n * float(np.sum(resid))
        m_w = 0.9 * m_w + (1 - 0.9) * g_w
        v_w = 0.999 * v_w + (1 - 0.999) * g_w * g_w
        m_b = 0.9 * m_b + (1 - 0.9) * g_b
        v_b = 0.999 * v_b + (1 - 0.999) * g_b * g_b
        w -= 1e-3 * (m_w / (1 - 0.9**t)) / (np.sqrt(v_w / (1 - 0.999**t)) + 1e-8)
        b -= 1e-3 * (m_b / (1 - 0.9**t)) / (np.sqrt(v_b / (1 - 0.999**t)) + 1e-8)
    probe = train_probe(samples, 1)
    assert probe.weights.tobytes() == w.tobytes() and probe.bias == b


def test_state_round_trips_through_json():
    assert Adam().to_json() == {} and Adam.from_json({}).t == 0
    params = {"a": [np.zeros(3), np.zeros(2)], "b": [np.zeros(1)]}
    adam = Adam()
    for scale in (1.0, -0.5):
        adam.ascend(params, {"a": [np.full(3, scale), np.full(2, scale)], "b": [np.full(1, 0.1)]}, 0.01)
    raw = json.loads(json.dumps(adam.to_json()))
    back = Adam.from_json(raw)
    assert back.t == 2 and back.to_json() == raw
    # a restored state continues exactly as the original
    p1 = {k: [x.copy() for x in vs] for k, vs in params.items()}
    p2 = {k: [x.copy() for x in vs] for k, vs in params.items()}
    step = {"a": [np.full(3, 0.3), np.full(2, 0.3)], "b": [np.full(1, 0.3)]}
    adam.ascend(p1, step, 0.01)
    back.ascend(p2, step, 0.01)
    assert all(x.tobytes() == y.tobytes() for k in p1 for x, y in zip(p1[k], p2[k]))
