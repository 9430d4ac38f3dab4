"""Group Relative Policy Optimization over product-of-categoricals policies.

A prompt maps to a fixed sequence of independent categorical distributions
(one per decision step); an action sequence picks one index per step.  The
surrogate is the clipped importance-weighted advantage, averaged over samples
and steps, minus a KL penalty against a reference policy.  A ``None``
reference is the uniform policy, which is every policy's initial state and
the reference the trainer uses.  Gradients are analytic (softmax Jacobian)
and cross-checked against finite differences in the test suite.

Sampling (``CategoricalSequencePolicy.sample_many``, ``sample_groups``) and
the surrogate (``surrogates``) each work on all groups of one call, stacked
by shape, with the bits of a per-sample loop; ``sample_rollouts`` and
``surrogate_and_grad`` are their one-group forms.  ``optimizer="adam"``
updates through each policy's :class:`semtrace.optim.Adam`.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from .lang import HoleTemplate, Literal, Program, instantiate_template, walk
from .optim import Adam
from .rewards import SemPrediction
from .values import MimSet, Value, canonical_serialize, truncated

KIND_CODEGEN = "codegen"
KIND_ALIGNMENT = "alignment"

MEMO_CAPACITY = 1024
_ABSENT = object()

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
    """Log-probabilities along the last axis, so each row of a stack of
    logit vectors gets the bits it gets alone."""
    shifted = logits - np.max(logits, axis=-1, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))


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
        self.adam = Adam()  # used under optimizer="adam"

    def step_logits(self, prompt_id: str) -> List[np.ndarray]:
        if prompt_id not in self.params:
            raise KeyError("prompt %r not registered" % prompt_id)
        return self.params[prompt_id]

    def sample_many(self, prompt_ids: Sequence[str], group_size: int, rng: np.random.Generator):
        """Draw ``group_size`` action sequences for each prompt in turn;
        returns one ``(actions, logps)`` pair of ``(group_size, n_steps)``
        arrays per prompt.  Equal, draws included, to one ``rng.choice(len(p),
        p=p)`` per prompt, sample and step, which maps one ``random()`` double
        u to ``searchsorted(cumsum(p) / cumsum(p)[-1], u, side="right")``, the
        count of cdf entries <= u; ``choice``'s checks on p are kept.  Each
        distinct (prompt, step) is normalized once, stacked with the others of
        its vocabulary size."""
        prompts = [(pid, self.step_logits(pid)) for pid in prompt_ids]
        u = rng.random(group_size * sum(len(step_logits) for _, step_logits in prompts))
        # per vocabulary size: the distinct (prompt, step) rows in draw order,
        # and for each prompt's step its row and the index of its first draw
        # (the others follow every n_steps)
        buckets: Dict[int, tuple] = {}
        spans = []
        offset = 0
        for pid, step_logits in prompts:
            n_steps = len(step_logits)
            spans.append((offset, n_steps))
            for t, logits in enumerate(step_logits):
                rows, stack, picks = buckets.setdefault(len(logits), ({}, [], []))
                if (pid, t) not in rows:
                    rows[pid, t] = len(stack)
                    stack.append(logits)
                picks.append((rows[pid, t], offset + t, n_steps))
            offset += group_size * n_steps
        stacked = []
        bad = set()
        for rows, stack, picks in buckets.values():
            lp = log_softmax(np.array(stack))
            p = np.exp(lp)
            valid = np.all(p >= 0, axis=-1) & (np.abs(p.sum(axis=-1) - 1.0) <= P_SUM_TOL)  # NaN fails both
            bad.update(key for key, ok in zip(rows, valid.tolist()) if not ok)
            stacked.append((picks, lp, p))
        if bad:  # name the first in draw order
            pid, t = next((pid, t) for pid, step_logits in prompts for t in range(len(step_logits)) if (pid, t) in bad)
            raise ValueError("step %d of prompt %r has no valid distribution" % (t, pid))
        actions = np.empty(u.shape, dtype=np.intp)
        logps = np.empty(u.shape)
        samples = np.arange(group_size)
        for picks, lp, p in stacked:
            cdf = np.cumsum(p, axis=-1)
            cdf = cdf / cdf[:, -1:]
            row, first, stride = np.array(picks, dtype=np.intp).T
            draws = first[:, None] + stride[:, None] * samples
            drawn = np.count_nonzero(cdf[row][:, None, :] <= u[draws][:, :, None], axis=-1)
            actions[draws] = drawn
            logps[draws] = lp[row[:, None], drawn]
        return [
            (actions[o:o + group_size * n].reshape(group_size, n), logps[o:o + group_size * n].reshape(group_size, n))
            for o, n in spans
        ]

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
        """Kept logits (loaded from a checkpoint) must be one ``len(pool)``
        vector per variable; a new prompt starts uniform."""
        kept = self.params.get(prompt_id)
        if kept is not None and [len(vec) for vec in kept] != [len(pool)] * len(variables):
            raise ValueError("alignment prompt %r has logit vectors of sizes %s, not %d of size %d"
                             % (prompt_id, [len(vec) for vec in kept], len(variables), len(pool)))
        self.pools[prompt_id] = list(pool)
        self.variables[prompt_id] = list(variables)
        if kept is None:
            self.params[prompt_id] = [np.zeros(len(pool), dtype=float) for _ in variables]

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


def sample_groups(
    policy: CategoricalSequencePolicy,
    prompt_ids: Sequence[str],
    kind: str,
    group_size: int,
    rng: np.random.Generator,
) -> List[RolloutGroup]:
    """Draw one group of G independent samples per prompt, in one call, with
    frozen old log-probabilities; rewards are filled in by the caller.
    Decode failures become reward-0 samples."""
    groups = []
    for pid, (actions, logps) in zip(prompt_ids, policy.sample_many(prompt_ids, group_size, rng)):
        samples = [RolloutSample(actions=a, logp_old=lp) for a, lp in zip(actions.tolist(), logps.tolist())]
        for sample in samples:
            try:
                sample.artifact = policy.decode(pid, sample.actions)
            except Exception:  # decode must never be fatal; the artifact stays None
                pass
        groups.append(RolloutGroup(prompt_id=pid, kind=kind, samples=samples))
    return groups


def sample_rollouts(
    policy: CategoricalSequencePolicy,
    prompt_id: str,
    kind: str,
    group_size: int,
    rng: np.random.Generator,
) -> RolloutGroup:
    """``sample_groups`` for one prompt."""
    [group] = sample_groups(policy, [prompt_id], kind, group_size, rng)
    return group


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
    """``surrogates`` for one group; ``grads`` maps its prompt id to the
    per-step logit gradients."""
    [(objective, grads, metrics)] = surrogates(policy, [group], ref_policy, cfg)
    return objective, {group.prompt_id: grads}, metrics


def surrogates(
    policy: CategoricalSequencePolicy,
    groups: Sequence[RolloutGroup],
    ref_policy: Optional[CategoricalSequencePolicy],
    cfg: GrpoConfig,
) -> List[tuple]:
    """Clipped surrogate objective and its analytic gradient for each group.

    Returns one ``(objective, grads, metrics)`` per group, ``grads`` being
    its prompt's per-step logit gradients (ascent direction).  Where the
    clipped branch of ``min`` is active its gradient is zero.  Groups of
    one sample count and per-step vocabulary sizes are computed together;
    each result has the bits of a one-sample-at-a-time loop.
    """
    shapes: Dict[tuple, List[int]] = {}
    for i, group in enumerate(groups):
        if group.advantages is None:
            raise ValueError("advantages must be populated before the surrogate")
        step_logits = policy.step_logits(group.prompt_id)
        if not group.samples or not step_logits:
            raise ValueError("prompt %r: a group needs samples and steps" % group.prompt_id)
        if any(len(s.actions) != len(step_logits) for s in group.samples):
            raise ValueError("sample/actions mismatch for prompt %r" % group.prompt_id)
        shapes.setdefault((len(group.samples), tuple(map(len, step_logits))), []).append(i)
    results: List[tuple] = [None] * len(groups)
    for (G, sizes), members in shapes.items():
        batch = [groups[i] for i in members]
        K, n_steps = len(batch), len(sizes)
        prompt_rows: Dict[str, int] = {}  # each prompt's logits are stacked once
        prow = np.array([prompt_rows.setdefault(g.prompt_id, len(prompt_rows)) for g in batch])
        pids = list(prompt_rows)
        actions = np.array([[s.actions for s in g.samples] for g in batch], dtype=np.intp)
        logp_old = np.array([[s.logp_old for s in g.samples] for g in batch], dtype=float).reshape(K, G, n_steps)
        adv = np.array([g.advantages for g in batch], dtype=float).reshape(K, G, 1)

        ps, kl_grads = [], []
        kl_total = np.zeros(len(pids))
        lp_taken = np.empty((K, G, n_steps))
        for t, vocab in enumerate(sizes):
            lp = log_softmax(np.array([policy.params[pid][t] for pid in pids]))
            p = np.exp(lp)
            if ref_policy is None:
                lq = _uniform_log_probs(vocab)
            else:
                lq = log_softmax(np.array([ref_policy.params[pid][t] if pid in ref_policy.params else np.zeros(vocab)
                                           for pid in pids]))
            kl_t = np.sum(p * (lp - lq), axis=-1)
            kl_total += kl_t
            # d/dlogits of KL(p||q) = p * ((log p - log q) - KL)
            kl_grads.append(cfg.kl_beta * p * ((lp - lq) - kl_t[:, None]))
            lp_taken[:, :, t] = lp[prow[:, None], actions[:, :, t]]
            ps.append(p[prow])

        ratio = np.exp(lp_taken - logp_old)
        cells = G * n_steps
        weight = 1.0 / cells
        unclipped = ratio * adv
        clipped = np.minimum(np.maximum(ratio, 1.0 - cfg.clip_eps), 1.0 + cfg.clip_eps) * adv
        kept = unclipped <= clipped
        terms = (weight * np.where(kept, unclipped, clipped)).reshape(K, -1).tolist()
        # d(ratio)/d(logits) = ratio * (onehot - p), zero for unkept samples
        coeff = np.where(kept, weight * adv * ratio, 0.0)
        grads = []
        group_ix = np.arange(K)[:, None]
        for t in range(n_steps):
            # each sample's update in sample order: -c*p, then +c at the
            # action; add.accumulate sums rows sequentially, np.sum would
            # not, and an unkept sample's -0.0 and +0.0 rows change no bit
            c = coeff[:, :, t]
            rows = np.zeros((K, 2 * G + 1, sizes[t]))
            rows[:, 1::2] = -c[:, :, None] * ps[t][:, None, :]
            rows[:, 2::2][group_ix, np.arange(G), actions[:, :, t]] = c
            g = np.add.accumulate(rows, axis=1)[:, -1]
            g -= kl_grads[t][prow]
            grads.append(g)

        kls = kl_total.tolist()
        unkept = (cells - np.count_nonzero(kept.reshape(K, -1), axis=1)).tolist()
        for k, i in enumerate(members):
            objective = 0.0
            for term in terms[k]:
                objective += term  # sample-major, one rounding per term
            kl = kls[prow[k]]
            objective -= cfg.kl_beta * kl
            metrics = SurrogateMetrics(objective=objective, kl=kl, clip_fraction=unkept[k] / cells)
            results[i] = (objective, [g[k] for g in grads], metrics)
    return results


def _apply_update(policy: CategoricalSequencePolicy, grads: Dict[str, List[np.ndarray]], cfg: GrpoConfig) -> None:
    """One ascent update on the accumulated gradients."""
    if cfg.optimizer == "sgd":
        for pid, vecs in grads.items():
            for t, g in enumerate(vecs):
                policy.params[pid][t] += cfg.learning_rate * g
        return
    policy.adam.ascend(policy.params, grads, cfg.learning_rate)


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
    steps: Dict[str, List[slice]] = {}  # prompt id -> where each step's gradient sits in the flat totals
    size = 0
    vecs, bins = [], []
    objective = 0.0
    kl = 0.0
    clip_fraction = 0.0
    for group, (obj, grads, metrics) in zip(groups, surrogates(policy, groups, ref_policy, cfg)):
        objective += obj / n
        kl += metrics.kl / n
        clip_fraction += metrics.clip_fraction / len(groups)
        where = steps.get(group.prompt_id)
        if where is None:
            where = steps[group.prompt_id] = []
            for g in grads:
                where.append(slice(size, size + len(g)))
                size += len(g)
        vecs.extend(grads)
        bins.append(np.arange(where[0].start, where[-1].stop))
    # bincount adds each weight into its bin in index order, from 0.0, so a
    # prompt's totals are ((0.0 + g1 / n) + g2 / n) + ... in group order:
    # the bits, signed zeros included, of one `total += g / n` per group
    flat = np.bincount(np.concatenate(bins), weights=np.concatenate(vecs) / n)
    _apply_update(policy, {pid: [flat[s] for s in where] for pid, where in steps.items()}, cfg)
    return SurrogateMetrics(objective=objective, kl=kl, clip_fraction=clip_fraction)
