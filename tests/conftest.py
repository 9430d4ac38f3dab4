import numpy as np
import pytest

from semtrace.grpo import log_softmax
from semtrace.harness import ProblemRecord
from semtrace.lang import HoleTemplate, parse_program
from semtrace.rewards import TestCase

SUM_SRC = "fn s() {\n    t = 0\n    for i in range(1, 4) {\n        t = t + i\n    }\n    return t\n}\n"
IDENTITY_SRC = "fn id(x) {\n    return x\n}\n"


@pytest.fixture
def sum_program():
    return parse_program(SUM_SRC)


@pytest.fixture
def identity_program():
    return parse_program(IDENTITY_SRC)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def make_problem(pid, truth_op="+", extra=0):
    """One-hole arithmetic problem; sources differ per pid so failing
    instantiations from different problems never collide in the buffer."""
    src = (
        "fn f_%s(a, b) {\n"
        "    t = a __HOLE_1__ b\n"
        "    r = t + %d\n"
        "    return r\n"
        "}\n" % (pid, extra)
    )
    template = HoleTemplate(template_source=src, hole_vocab=(("+", "-", "*"),))
    ops = {"+": lambda a, b: a + b, "-": lambda a, b: a - b, "*": lambda a, b: a * b}
    fn = ops[truth_op]
    tests = [
        TestCase(input=[a, b], expected=fn(a, b) + extra)
        for a, b in [(2, 3), (5, 7), (10, 4)]
    ]
    return ProblemRecord(problem_id=pid, template=template, tests=tests)


def choice_loop(step_logits, group_size, rng):
    """Reference sampler: one ``rng.choice`` per sample and step."""
    actions, logps = [], []
    for _ in range(group_size):
        lps = [log_softmax(logits) for logits in step_logits]
        row = [int(rng.choice(len(lp), p=np.exp(lp))) for lp in lps]
        actions.append(row)
        logps.append([float(lp[a]) for lp, a in zip(lps, row)])
    return actions, logps


def scalar_surrogate(policy, group, ref_policy, cfg):
    """Reference surrogate: one sample and step at a time, in Python floats."""
    pid = group.prompt_id
    step_logits = policy.step_logits(pid)
    n_steps = len(step_logits)
    grads = [np.zeros_like(v) for v in step_logits]
    log_ps = [log_softmax(v) for v in step_logits]
    ps = [np.exp(lp) for lp in log_ps]
    weight = 1.0 / (len(group.samples) * n_steps)
    objective = 0.0
    clipped_steps = 0
    for sample, adv in zip(group.samples, group.advantages):
        for t, (a, lp_old) in enumerate(zip(sample.actions, sample.logp_old)):
            ratio = float(np.exp(log_ps[t][a] - lp_old))
            unclipped = ratio * adv
            clipped = float(np.clip(ratio, 1.0 - cfg.clip_eps, 1.0 + cfg.clip_eps)) * adv
            if unclipped <= clipped:
                objective += weight * unclipped
                coeff = weight * adv * ratio
                grads[t] -= coeff * ps[t]
                grads[t][a] += coeff
            else:
                objective += weight * clipped
                clipped_steps += 1
    kl_total = 0.0
    for t in range(n_steps):
        if ref_policy is not None and pid in ref_policy.params:
            ref_logits = ref_policy.params[pid][t]
        else:
            ref_logits = np.zeros_like(step_logits[t])
        lq = log_softmax(ref_logits)
        kl_t = float(np.sum(ps[t] * (log_ps[t] - lq)))
        kl_total += kl_t
        grads[t] -= cfg.kl_beta * ps[t] * ((log_ps[t] - lq) - kl_t)
    objective -= cfg.kl_beta * kl_total
    return objective, grads, kl_total, clipped_steps / (len(group.samples) * n_steps)
