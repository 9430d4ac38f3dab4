"""Group Relative Policy Optimization over product-of-categoricals policies.

A prompt maps to a fixed sequence of independent categorical distributions
(one per decision step); an action sequence picks one index per step.  The
surrogate is the clipped importance-weighted advantage, averaged over samples
and steps, minus a KL penalty against a reference policy.  A ``None``
reference is the uniform policy, which is every policy's initial state and
the reference the trainer uses.  Gradients are analytic (softmax Jacobian)
and cross-checked against finite differences in the test suite.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from .lang import HoleTemplate, Literal, Program, instantiate_template, walk
from .rewards import SemPrediction
from .values import MimSet, Value, canonical_serialize, truncated

KIND_CODEGEN = "codegen"
KIND_ALIGNMENT = "alignment"

MEMO_CAPACITY = 1024
_ABSENT = object()

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
STD_FLOOR = 1e-6  # advantage denominator floor
P_SUM_TOL = float(np.sqrt(np.finfo(float).eps))  # Generator.choice's bound on |sum(p) - 1|
_U32 = struct.Struct("<I").unpack_from


class Memo:
    """Bounded LRU memo of a pure function that keeps a value only on the
    second lookup of its key.  The first lookup records just the key's hash,
    like the doorkeeper of TinyLFU (Einziger et al., ACM ToS 2017), so a key
    seen once costs no value memory.  Values and hashes are each bounded by
    ``capacity``, least recently used first out.  A ``compute`` that raises
    stores nothing."""

    def __init__(self, capacity: int = MEMO_CAPACITY):
        self.capacity = capacity
        self._values: dict = {}  # key -> value; dicts keep insertion order
        self._seen: dict = {}  # hash of a key looked up once -> None

    def __len__(self) -> int:
        return len(self._values)

    def clear(self) -> None:
        self._values.clear()
        self._seen.clear()

    def get(self, key, compute):
        """The value for ``key``, calling ``compute()`` unless it is kept."""
        value = self._values.pop(key, _ABSENT)
        if value is _ABSENT:
            value = compute()
            seen = hash(key)
            if self._seen.pop(seen, _ABSENT) is _ABSENT:
                self._put(self._seen, seen, None)
                return value
        self._put(self._values, key, value)
        return value

    def _put(self, table: dict, key, value) -> None:
        table[key] = value
        if len(table) > self.capacity:
            del table[next(iter(table))]


@dataclass
class GrpoConfig:
    group_size: int = 8
    clip_eps: float = 0.2
    kl_beta: float = 1e-3
    learning_rate: float = 0.5
    optimizer: str = "sgd"  # "sgd" | "adam"


def group_advantages(rewards: Sequence[float]) -> List[float]:
    """Group-normalized advantages: (R_i - mean) / max(population std, floor).

    Degenerate groups (all rewards equal) yield exactly zero advantages.
    """
    n = len(rewards)
    if n < 2:
        raise ValueError("a group needs at least 2 rewards")
    rs = [float(r) for r in rewards]
    mean = sum(rs) / n
    centered = [r - mean for r in rs]
    if all(c == 0.0 for c in centered):
        return [0.0] * n
    std = (sum(c * c for c in centered) / n) ** 0.5
    denom = max(std, STD_FLOOR)
    return [c / denom for c in centered]


def log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - np.max(logits)
    return shifted - np.log(np.sum(np.exp(shifted)))


@functools.lru_cache(maxsize=64)
def _uniform_log_probs(n: int) -> np.ndarray:
    """``log_softmax`` of ``n`` zero logits, computed once per size; shared,
    so read-only."""
    lq = log_softmax(np.zeros(n))
    lq.flags.writeable = False
    return lq


@dataclass
class RolloutSample:
    actions: List[int]
    logp_old: List[float]
    artifact: object = None  # Program, SemPrediction, or None on decode failure
    reward: float = 0.0


@dataclass
class RolloutGroup:
    prompt_id: str
    kind: str  # KIND_CODEGEN | KIND_ALIGNMENT
    samples: List[RolloutSample]
    advantages: Optional[List[float]] = None

    def fill_advantages(self) -> None:
        self.advantages = group_advantages([s.reward for s in self.samples])


class CategoricalSequencePolicy:
    """Base policy: per prompt id, one logit vector per decision step."""

    def __init__(self):
        self.params: Dict[str, List[np.ndarray]] = {}
        self.opt_state: dict = {}

    def step_logits(self, prompt_id: str) -> List[np.ndarray]:
        if prompt_id not in self.params:
            raise KeyError("prompt %r not registered" % prompt_id)
        return self.params[prompt_id]

    def sample(self, prompt_id: str, group_size: int, rng: np.random.Generator):
        """Draw ``group_size`` action sequences; returns ``(actions, logps)``,
        two ``(group_size, n_steps)`` arrays.  Equal, draws included, to one
        ``rng.choice(len(p), p=p)`` per sample and step, which maps one
        ``random()`` double u to ``searchsorted(cumsum(p) / cumsum(p)[-1], u,
        side="right")``; ``choice``'s checks on p are kept."""
        step_logits = self.step_logits(prompt_id)
        u = rng.random((group_size, len(step_logits)))
        actions = np.empty(u.shape, dtype=np.intp)
        logps = np.empty(u.shape)
        for t, logits in enumerate(step_logits):
            lp = log_softmax(logits)
            p = np.exp(lp)
            if not (np.all(p >= 0) and abs(p.sum() - 1.0) <= P_SUM_TOL):  # NaN fails both
                raise ValueError("step %d of prompt %r has no valid distribution" % (t, prompt_id))
            cdf = np.cumsum(p)
            cdf /= cdf[-1]
            actions[:, t] = np.searchsorted(cdf, u[:, t], side="right")
            logps[:, t] = lp[actions[:, t]]
        return actions, logps

    def snapshot(self) -> "CategoricalSequencePolicy":
        """Frozen copy usable as the old or reference policy."""
        frozen = CategoricalSequencePolicy()
        frozen.params = {k: [v.copy() for v in vs] for k, vs in self.params.items()}
        return frozen

    def decode(self, prompt_id: str, actions: Sequence[int]):
        raise NotImplementedError

    # --- checkpoint serialization (little-endian float64 logit vectors) ---

    MAGIC = b"SEMPOL01"

    def save(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(self.MAGIC)
            fh.write(struct.pack("<I", len(self.params)))
            for pid in sorted(self.params):
                raw = pid.encode("utf-8")
                fh.write(struct.pack("<I", len(raw)))
                fh.write(raw)
                vecs = self.params[pid]
                fh.write(struct.pack("<I", len(vecs)))
                for vec in vecs:
                    fh.write(struct.pack("<I", len(vec)))
                    fh.write(np.asarray(vec, dtype="<f8").tobytes())

    def load(self, path) -> None:
        data = Path(path).read_bytes()
        size = len(data)
        if size < 8:
            raise truncated(path, 8, size)
        if data[:8] != self.MAGIC:
            raise ValueError("%s: bad policy checkpoint magic %r" % (path, data[:8]))
        if size < 12:
            raise truncated(path, 4, size - 8)
        (n_prompts,) = _U32(data, 8)
        off = 12
        params: Dict[str, List[np.ndarray]] = {}
        for _ in range(n_prompts):
            if off + 4 > size:
                raise truncated(path, 4, size - off)
            (n,) = _U32(data, off)
            off += 4
            if off + n > size:
                raise truncated(path, n, size - off)
            pid = data[off:off + n].decode("utf-8")
            off += n
            if off + 4 > size:
                raise truncated(path, 4, size - off)
            (n_steps,) = _U32(data, off)
            off += 4
            params[pid] = []
            for _ in range(n_steps):
                if off + 4 > size:
                    raise truncated(path, 4, size - off)
                (dim,) = _U32(data, off)
                off += 4
                if off + 8 * dim > size:
                    raise truncated(path, 8 * dim, size - off)
                params[pid].append(np.frombuffer(data, dtype="<f8", count=dim, offset=off).astype(float))
                off += 8 * dim
        # loaded vectors replace any registered initializations
        self.params.update(params)


class TemplatePolicy(CategoricalSequencePolicy):
    """Toy code-generation policy: one categorical per template hole.
    Decoded programs are memoized per (prompt id, actions)."""

    def __init__(self):
        super().__init__()
        self.templates: Dict[str, HoleTemplate] = {}
        self._decoded = Memo()

    def register_template(self, prompt_id: str, template: HoleTemplate) -> None:
        self.templates[prompt_id] = template
        self._decoded.clear()  # a replaced template must not decode stale programs
        if prompt_id not in self.params:
            self.params[prompt_id] = [
                np.zeros(len(vocab), dtype=float) for vocab in template.hole_vocab
            ]

    def decode(self, prompt_id: str, actions: Sequence[int]) -> Program:
        template = self.templates[prompt_id]
        choices = list(actions)
        key = (prompt_id, tuple(choices))
        return self._decoded.get(key, lambda: instantiate_template(template, choices))


class ValuePredictorPolicy(CategoricalSequencePolicy):
    """Toy trace-inference policy: per alignment prompt, one categorical per
    listed variable, over a deterministic candidate value pool."""

    def __init__(self):
        super().__init__()
        self.pools: Dict[str, List[Value]] = {}
        self.variables: Dict[str, List[str]] = {}

    def register_prompt(self, prompt_id: str, variables: Sequence[str], pool: Sequence[Value]) -> None:
        self.pools[prompt_id] = list(pool)
        self.variables[prompt_id] = list(variables)
        if prompt_id not in self.params:
            self.params[prompt_id] = [
                np.zeros(len(pool), dtype=float) for _ in variables
            ]

    def decode(self, prompt_id: str, actions: Sequence[int]) -> SemPrediction:
        pool = self.pools[prompt_id]
        names = self.variables[prompt_id]
        return SemPrediction(variables={v: pool[a] for v, a in zip(names, actions)})


def candidate_value_pool(program: Program, input_values: Sequence[Value], truth: Dict[str, Value]) -> List[Value]:
    """Deterministic candidate pool: literal constants in the program, atomic
    values from the input, a small base set, and the ground-truth values
    themselves (so the optimum is attainable); deduplicated and ordered by
    canonical serialization."""
    values: List[Value] = [n.value for n in walk(program) if isinstance(n, Literal)]

    def atoms(v):
        if isinstance(v, (list, MimSet)):
            for x in v:
                yield from atoms(x)
        else:
            yield v

    for v in input_values:
        values.extend(atoms(v))
    values.extend([-1, 0, 1, 2, True, False, None, float("inf")])
    values.extend(truth.values())

    pool = {}
    for v in values:
        pool.setdefault(canonical_serialize(v), v)
    return [pool[key] for key in sorted(pool)]


def sample_rollouts(
    policy: CategoricalSequencePolicy,
    prompt_id: str,
    kind: str,
    group_size: int,
    rng: np.random.Generator,
) -> RolloutGroup:
    """Draw G independent samples with frozen old log-probabilities; rewards
    are filled in by the caller.  Decode failures become reward-0 samples."""
    actions, logps = policy.sample(prompt_id, group_size, rng)
    samples = [RolloutSample(actions=a, logp_old=lp) for a, lp in zip(actions.tolist(), logps.tolist())]
    for sample in samples:
        try:
            sample.artifact = policy.decode(prompt_id, sample.actions)
        except Exception:  # decode must never be fatal; the artifact stays None
            pass
    return RolloutGroup(prompt_id=prompt_id, kind=kind, samples=samples)


@dataclass
class SurrogateMetrics:
    objective: float
    kl: float
    clip_fraction: float


def surrogate_and_grad(
    policy: CategoricalSequencePolicy,
    group: RolloutGroup,
    ref_policy: Optional[CategoricalSequencePolicy],
    cfg: GrpoConfig,
):
    """Clipped surrogate objective and its analytic gradient for one group.

    Returns ``(objective, grads, metrics)`` where ``grads`` maps the group's
    prompt id to per-step logit gradients (ascent direction).  Where the
    clipped branch of ``min`` is active its gradient is zero.
    """
    if group.advantages is None:
        raise ValueError("advantages must be populated before the surrogate")
    pid = group.prompt_id
    step_logits = policy.step_logits(pid)
    n_steps = len(step_logits)
    G = len(group.samples)
    if G == 0 or n_steps == 0:
        raise ValueError("prompt %r: a group needs samples and steps" % pid)
    if any(len(s.actions) != n_steps for s in group.samples):
        raise ValueError("sample/actions mismatch for prompt %r" % pid)
    actions = np.array([s.actions for s in group.samples], dtype=np.intp).reshape(G, n_steps)
    logp_old = np.array([s.logp_old for s in group.samples], dtype=float).reshape(G, n_steps)
    log_ps = [log_softmax(v) for v in step_logits]
    ps = [np.exp(lp) for lp in log_ps]

    ratio = np.exp(np.column_stack([lp[actions[:, t]] for t, lp in enumerate(log_ps)]) - logp_old)
    adv = np.array(group.advantages, dtype=float).reshape(G, 1)
    weight = 1.0 / (G * n_steps)
    unclipped = ratio * adv
    clipped = np.minimum(np.maximum(ratio, 1.0 - cfg.clip_eps), 1.0 + cfg.clip_eps) * adv
    kept = unclipped <= clipped
    objective = 0.0
    for term in (weight * np.where(kept, unclipped, clipped)).ravel().tolist():
        objective += term  # sample-major, one rounding per term
    # d(ratio)/d(logits) = ratio * (onehot - p)
    coeff = weight * adv * ratio

    grads = []
    kl_total = 0.0
    for t in range(n_steps):
        # the kept samples' updates in sample order: -c*p, then +c at the
        # action; add.accumulate sums rows sequentially, np.sum would not
        idx = np.flatnonzero(kept[:, t])
        c = coeff[idx, t]
        rows = np.zeros((2 * len(idx) + 1, len(ps[t])))
        rows[1::2] = -c[:, None] * ps[t]
        rows[2::2][np.arange(len(idx)), actions[idx, t]] = c
        g = np.add.accumulate(rows, axis=0)[-1]
        if ref_policy is not None and pid in ref_policy.params:
            lq = log_softmax(ref_policy.params[pid][t])
        else:
            lq = _uniform_log_probs(len(step_logits[t]))
        kl_t = float(np.sum(ps[t] * (log_ps[t] - lq)))
        kl_total += kl_t
        # d/dlogits of KL(p||q) = p * ((log p - log q) - KL)
        g -= cfg.kl_beta * ps[t] * ((log_ps[t] - lq) - kl_t)
        grads.append(g)
    objective -= cfg.kl_beta * kl_total

    metrics = SurrogateMetrics(
        objective=objective,
        kl=kl_total,
        clip_fraction=(kept.size - np.count_nonzero(kept)) / kept.size,
    )
    return objective, {pid: grads}, metrics


def _apply_update(policy: CategoricalSequencePolicy, grads: Dict[str, List[np.ndarray]], cfg: GrpoConfig) -> None:
    """One ascent update on the accumulated gradients."""
    if cfg.optimizer == "sgd":
        for pid, vecs in grads.items():
            for t, g in enumerate(vecs):
                policy.params[pid][t] += cfg.learning_rate * g
        return
    state = policy.opt_state.setdefault("adam", {"t": 0, "m": {}, "v": {}})
    state["t"] += 1
    t_step = state["t"]
    for pid, vecs in grads.items():
        m_list = state["m"].setdefault(pid, [np.zeros_like(g) for g in vecs])
        v_list = state["v"].setdefault(pid, [np.zeros_like(g) for g in vecs])
        for t, g in enumerate(vecs):
            m_list[t] = ADAM_BETA1 * m_list[t] + (1 - ADAM_BETA1) * g
            v_list[t] = ADAM_BETA2 * v_list[t] + (1 - ADAM_BETA2) * g * g
            m_hat = m_list[t] / (1 - ADAM_BETA1 ** t_step)
            v_hat = v_list[t] / (1 - ADAM_BETA2 ** t_step)
            policy.params[pid][t] += cfg.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def train_step(
    policy: CategoricalSequencePolicy,
    groups: Sequence[RolloutGroup],
    ref_policy: Optional[CategoricalSequencePolicy],
    cfg: GrpoConfig,
    group_count: Optional[int] = None,
) -> SurrogateMetrics:
    """One optimizer update on the surrogate averaged over ``groups``.

    ``group_count`` lets a caller average over a larger universe of groups
    (e.g. a mixed batch split across two policies) so that every group keeps
    identical weight.
    """
    if not groups:
        raise ValueError("at least one rollout group is required")
    n = group_count if group_count is not None else len(groups)
    total_grads: Dict[str, List[np.ndarray]] = {}
    objective = 0.0
    kl = 0.0
    clip_fraction = 0.0
    for group in groups:
        obj, grads, metrics = surrogate_and_grad(policy, group, ref_policy, cfg)
        objective += obj / n
        kl += metrics.kl / n
        clip_fraction += metrics.clip_fraction / len(groups)
        for pid, vecs in grads.items():
            if pid not in total_grads:
                total_grads[pid] = [np.zeros_like(g) for g in vecs]
            for t, g in enumerate(vecs):
                total_grads[pid][t] += g / n
    _apply_update(policy, total_grads, cfg)
    return SurrogateMetrics(objective=objective, kl=kl, clip_fraction=clip_fraction)
