"""Group Relative Policy Optimization over product-of-categoricals policies.

A prompt maps to a fixed sequence of independent categorical distributions
(one per decision step); an action sequence picks one index per step.  The
surrogate is the clipped importance-weighted advantage, averaged over samples
and steps, minus a KL penalty against a reference policy.  A ``None``
reference is the uniform policy, which is every policy's initial state and
the reference the trainer uses.  Gradients are analytic (softmax Jacobian)
and cross-checked against finite differences in the test suite.

A step is columnar: each :class:`RolloutGroup` keeps its samples as arrays
from the draw to the update.  ``sample_groups`` and ``surrogates`` each take
all groups of a call at once, normalizing each distinct (prompt, step) once
in one stack per vocabulary size (``vocab_stacks``); ``step_advantages``
normalizes a step's reward matrix.  Results keep the bits of a per-sample
loop on every Python: sums run left to right, and a sum padded to a longer
group's length is padded only at its end.  ``sample_rollouts`` and
``surrogate_and_grad`` are the one-group forms, and whoever reads a sample's
artifact decodes it.  ``optimizer="adam"`` updates through ``optim.Adam``.
"""

from __future__ import annotations

import collections
import itertools
import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from .harness import GrpoConfig
from .lang import HoleTemplate, Literal, Program, instantiate_template, walk
from .optim import Adam
from .rewards import SemPrediction
from .values import BinaryFile, MimSet, Value, canonical_serialize, length_prefixed

KIND_CODEGEN = "codegen"
KIND_ALIGNMENT = "alignment"

STD_FLOOR = 1e-6  # advantage denominator floor
P_SUM_TOL = float(np.sqrt(np.finfo(float).eps))  # Generator.choice's bound on |sum(p) - 1|


def left_sums(rows: np.ndarray) -> np.ndarray:
    """Each row's sum along the last axis, added left to right from 0.0: the
    bits of ``total = 0.0; for x in row: total += x``, which Python's ``sum``
    of floats also gives before 3.12 (from 3.12 on it compensates)."""
    return np.add.accumulate(rows, axis=-1)[..., -1] + 0.0  # + 0.0: a sum from 0.0 is never -0.0


def step_advantages(rewards: np.ndarray) -> np.ndarray:
    """Group-normalized advantages of each row of a ``(groups, G)`` reward
    matrix: (R_i - mean) / max(population std, floor), summing left to
    right.  A row of equal rewards yields exactly zero advantages."""
    rewards = np.asarray(rewards, dtype=float)
    n = rewards.shape[-1]
    if n < 2:
        raise ValueError("a group needs at least 2 rewards")
    centered = rewards - (left_sums(rewards) / n)[:, None]
    # Python's ** 0.5 is C's pow, which need not round as np.sqrt does
    std = np.array([v ** 0.5 for v in (left_sums(centered * centered) / n).tolist()])
    advantages = centered / np.maximum(std, STD_FLOOR)[:, None]
    advantages[(rewards == rewards[:, :1]).all(axis=1)] = 0.0
    return advantages


def group_advantages(rewards: Sequence[float]) -> List[float]:
    """``step_advantages`` of one group."""
    return step_advantages([rewards])[0].tolist()


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log-probabilities along the last axis, so each row of a stack of
    logit vectors gets the bits it gets alone.  np.max and np.sum would run
    the same reductions, at a higher cost per call on small rows."""
    shifted = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    return shifted - np.log(np.add.reduce(np.exp(shifted), axis=-1, keepdims=True))


def vocab_stacks(policy: "CategoricalSequencePolicy", prompt_ids: Sequence[str], group_sizes: Sequence[int]):
    """The layout of one call over the listed prompts, prompt ``i`` taking
    ``group_sizes[i]`` samples: a cell is one (prompt, sample, step), in listing
    order and each prompt's as its ``(G, n_steps)`` arrays ravel.  Returns
    ``((first_cells, n_steps), stacks, uses)``: ``stacks[V]`` holds the distinct
    (prompt id, step) keys of vocabulary size V, in order of first listing, and
    their log-probabilities and probabilities; ``uses[G, V]`` holds, per listed
    step of that shape, its stack row, its G cells and its listing index."""
    stacks, uses, spans = collections.defaultdict(dict), collections.defaultdict(list), []
    cell = step = 0
    for pid, G in zip(prompt_ids, group_sizes):
        step_logits = policy.step_logits(pid)
        n_steps = len(step_logits)
        spans.append((cell, n_steps))
        for t, logits in enumerate(step_logits):
            rows = stacks[len(logits)]  # (prompt id, step) -> its row
            uses[G, len(logits)].append((rows.setdefault((pid, t), len(rows)), cell + t, n_steps, step + t))
        cell, step = cell + G * n_steps, step + n_steps
    for (G, vocab), use in uses.items():
        rows, first, stride, steps = np.fromiter(itertools.chain(*use), np.intp, 4 * len(use)).reshape(-1, 4).T
        uses[G, vocab] = rows, first[:, None] + stride[:, None] * np.arange(G), steps
    for vocab, rows in stacks.items():
        lp = log_softmax(np.concatenate([policy.params[pid][t] for pid, t in rows]).reshape(-1, vocab))
        stacks[vocab] = list(rows), lp, np.exp(lp)
    return np.array(spans, dtype=np.intp).reshape(-1, 2).T, stacks, uses


class RolloutSample:
    """Sample ``i`` of ``group``; its fields read and write the group's arrays."""

    def __init__(self, group: "RolloutGroup", i: int):
        self.group, self.i = group, i

    actions = property(lambda self: self.group.actions[self.i].tolist())
    logp_old = property(lambda self: self.group.logp_old[self.i].tolist(),
                        lambda self, value: self.group.logp_old.__setitem__(self.i, value))
    reward = property(lambda self: float(self.group.rewards[self.i]),
                      lambda self, value: self.group.rewards.__setitem__(self.i, value))
    artifact = property(lambda self: self.group.artifacts[self.i],
                        lambda self, value: self.group.artifacts.__setitem__(self.i, value))


@dataclass
class RolloutGroup:
    """One prompt's G samples: ``(G, n_steps)`` actions and old log-probabilities,
    and per sample a reward (0.0 until scored), an advantage and an artifact
    (Program, SemPrediction, or None on decode failure), where decoded."""

    prompt_id: str
    kind: str  # KIND_CODEGEN | KIND_ALIGNMENT
    actions: np.ndarray
    logp_old: np.ndarray
    rewards: Optional[np.ndarray] = None
    advantages: Optional[np.ndarray] = None
    artifacts: Optional[list] = None

    def __post_init__(self):
        self.rewards = np.zeros(len(self.actions)) if self.rewards is None else self.rewards
        self.artifacts = [None] * len(self.actions) if self.artifacts is None else self.artifacts

    @property
    def samples(self) -> List[RolloutSample]:
        return [RolloutSample(self, i) for i in range(len(self.actions))]

    def fill_advantages(self) -> None:
        [self.advantages] = step_advantages([self.rewards])


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
        """Draw ``group_size`` action sequences for each prompt in turn; returns
        one ``(actions, logps)`` pair of ``(group_size, n_steps)`` arrays per
        prompt.  Equal, draws included, to one ``rng.choice(len(p), p=p)`` per
        prompt, sample and step: a ``random()`` double u picks the count of entries
        <= u of ``cumsum(p) / cumsum(p)[-1]``; ``choice``'s checks on p are kept."""
        (first, n_steps), stacks, uses = vocab_stacks(self, prompt_ids, [group_size] * len(prompt_ids))
        u = rng.random(group_size * int(n_steps.sum()))
        bad = {key for keys, _, p in stacks.values() for key, ok in zip(keys, (  # NaN fails both checks
               np.all(p >= 0, axis=-1) & (np.abs(p.sum(axis=-1) - 1.0) <= P_SUM_TOL)).tolist()) if not ok}
        if bad:  # name the first in draw order
            pid, t = next((pid, t) for pid in prompt_ids for t in range(len(self.params[pid])) if (pid, t) in bad)
            raise ValueError("step %d of prompt %r has no valid distribution" % (t, pid))
        actions, logps = np.empty(u.shape, dtype=np.intp), np.empty(u.shape)
        for (_, vocab), (rows, cells, _) in uses.items():
            _, lp, p = stacks[vocab]
            cdf = p[rows].cumsum(axis=-1)
            drawn = ((cdf / cdf[:, -1:])[:, None, :] <= u[cells][:, :, None]).sum(axis=-1)
            actions[cells], logps[cells] = drawn, lp[rows[:, None], drawn]
        return [(actions[o:o + group_size * n].reshape(group_size, n), logps[o:o + group_size * n].reshape(group_size, n))
                for o, n in zip(first.tolist(), n_steps.tolist())]

    def snapshot(self) -> "CategoricalSequencePolicy":
        """Frozen copy usable as the old or reference policy."""
        frozen = CategoricalSequencePolicy()
        frozen.params = {k: [v.copy() for v in vs] for k, vs in self.params.items()}
        return frozen

    def decode(self, prompt_id: str, actions: Sequence[int]):
        raise NotImplementedError

    def artifact(self, prompt_id: str, actions: Sequence[int]):
        """``decode``, or None if it raises: a failed decode is never fatal."""
        try:
            return self.decode(prompt_id, actions)
        except Exception:
            return None

    # --- checkpoint serialization ---

    MAGIC = b"SEMPOL01"

    def save(self, path) -> None:
        """Layout, little-endian: the magic ``SEMPOL01``, a u32 prompt count,
        then per prompt in id order its UTF-8 id behind a u32 byte length, a
        u32 step count, and per step a u32 logit count and float64 logits.
        A non-finite logit is a ``ValueError`` naming its prompt and step,
        raised before the file is opened."""
        vecs = {pid: [np.asarray(vec, dtype="<f8") for vec in self.params[pid]] for pid in sorted(self.params)}
        flat = [vec for pid_vecs in vecs.values() for vec in pid_vecs]
        if flat and not np.isfinite(np.concatenate(flat)).all():
            pid, step = next((pid, t) for pid, pid_vecs in vecs.items() for t, vec in enumerate(pid_vecs)
                             if not np.isfinite(vec).all())
            raise ValueError("cannot save %s: prompt %r step %d holds a non-finite logit" % (path, pid, step))
        with open(path, "wb") as fh:
            fh.write(self.MAGIC)
            fh.write(struct.pack("<I", len(vecs)))
            for pid, pid_vecs in vecs.items():
                fh.write(length_prefixed(pid.encode("utf-8")) + struct.pack("<I", len(pid_vecs)))
                for vec in pid_vecs:
                    fh.write(struct.pack("<I", len(vec)) + vec.tobytes())

    def load(self, path) -> None:
        """Read what :meth:`save` wrote; ``ValueError`` naming the file if
        it is malformed or holds a non-finite logit."""
        f = BinaryFile(path, self.MAGIC, "policy checkpoint")
        # a dict comprehension reads each prompt's id before its vectors
        raw = {f.text(): [f.take(8 * f.u32()) for _ in range(f.u32())] for _ in range(f.u32())}
        if not np.isfinite(np.frombuffer(b"".join(b for vecs in raw.values() for b in vecs), dtype="<f8")).all():
            raise ValueError("%s holds a non-finite logit" % path)
        # loaded vectors replace any registered initializations
        self.params.update({pid: [np.frombuffer(b, dtype="<f8").astype(float) for b in vecs] for pid, vecs in raw.items()})


class TemplatePolicy(CategoricalSequencePolicy):
    """Toy code-generation policy: one categorical per template hole."""

    def __init__(self):
        super().__init__()
        self.templates: Dict[str, HoleTemplate] = {}

    def register_template(self, prompt_id: str, template: HoleTemplate) -> None:
        self.templates[prompt_id] = template
        if prompt_id not in self.params:
            self.params[prompt_id] = [np.zeros(len(vocab), dtype=float) for vocab in template.hole_vocab]

    def decode(self, prompt_id: str, actions: Sequence[int]) -> Program:
        return instantiate_template(self.templates[prompt_id], list(actions))


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


def sample_groups(policy: CategoricalSequencePolicy, prompt_ids: Sequence[str], kind: str, group_size: int,
                  rng: np.random.Generator) -> List[RolloutGroup]:
    """Draw one group of G independent samples per prompt, in one call, with
    frozen old log-probabilities; the caller fills in artifacts and rewards."""
    return [RolloutGroup(pid, kind, actions, logps)
            for pid, (actions, logps) in zip(prompt_ids, policy.sample_many(prompt_ids, group_size, rng))]


def sample_rollouts(policy: CategoricalSequencePolicy, prompt_id: str, kind: str, group_size: int,
                    rng: np.random.Generator) -> RolloutGroup:
    """``sample_groups`` for one prompt, its samples decoded by ``policy.artifact``."""
    [group] = sample_groups(policy, [prompt_id], kind, group_size, rng)
    group.artifacts = [policy.artifact(prompt_id, actions) for actions in group.actions.tolist()]
    return group


@dataclass
class SurrogateMetrics:
    objective: float
    kl: float
    clip_fraction: float


def surrogate_and_grad(policy: CategoricalSequencePolicy, group: RolloutGroup,
                       ref_policy: Optional[CategoricalSequencePolicy], cfg: GrpoConfig):
    """``surrogates`` for one group; ``grads`` maps its prompt id to the
    per-step logit gradients."""
    [(objective, grads, metrics)] = surrogates(policy, [group], ref_policy, cfg)
    return objective, {group.prompt_id: grads}, metrics


def surrogates(policy: CategoricalSequencePolicy, groups: Sequence[RolloutGroup],
               ref_policy: Optional[CategoricalSequencePolicy], cfg: GrpoConfig) -> List[tuple]:
    """Clipped surrogate objective and its analytic gradient for each group:
    one ``(objective, grads, metrics)`` per group, ``grads`` its prompt's
    per-step logit gradients (ascent direction), zero where the clipped branch
    of ``min`` is active.  Each has the bits of a one-sample loop: the log-softmax
    runs per vocabulary size (``vocab_stacks``), the KL terms and gradient rows
    per (G, V), all on unpadded rows, the per-cell terms once per call, and a
    group's sums left to right, padded with +0.0 at the end (which moves no bit)."""
    for group in groups:
        pid, shape, advantages = group.prompt_id, group.actions.shape, group.advantages
        if len(shape) != 2 or 0 in shape or shape[1] != len(policy.step_logits(pid)):
            raise ValueError("prompt %r: a group needs samples and steps, one action per step" % pid)
        if advantages is None or group.logp_old.shape != shape or len(advantages) != shape[0]:
            raise ValueError("prompt %r: actions of shape %s need logp_old of that shape and advantages of shape %s, "
                             "not %s and %s" % (pid, shape, shape[:1], group.logp_old.shape, np.shape(advantages)))
    if not groups:
        return []
    samples = [len(g.actions) for g in groups]
    (starts, n), stacks, uses = vocab_stacks(policy, [g.prompt_id for g in groups], samples)
    actions = np.concatenate([g.actions.ravel() for g in groups])
    vocab, at = np.empty((2, len(actions)), np.intp)  # per cell: its step's size and row's offset in the stacks
    offsets = dict(zip(stacks, itertools.accumulate((lp.size for _, lp, _ in stacks.values()), initial=0)))
    for (_, size), (rows, where, _) in uses.items():
        vocab[where], at[where] = size, (offsets[size] + rows * size)[:, None]
    bad = ((actions < 0) | (actions >= vocab)).nonzero()[0]
    if bad.size:
        k = starts.searchsorted(bad[0], side="right") - 1
        raise ValueError("prompt %r: step %d has action %d, outside its vocabulary of %d"
                         % (groups[k].prompt_id, (bad[0] - starts[k]) % n[k], actions[bad[0]], vocab[bad[0]]))

    # per cell, in the call's order
    lp_taken = np.concatenate([lp.ravel() for _, lp, _ in stacks.values()])[at + actions]
    ratio = np.exp(lp_taken - np.concatenate([g.logp_old.ravel() for g in groups]))
    adv = np.concatenate([g.advantages for g in groups], axis=None, dtype=float).repeat(n.repeat(samples))
    cells = np.array(samples) * n
    weight = (1.0 / cells).repeat(cells)
    unclipped = ratio * adv
    clipped = np.minimum(np.maximum(ratio, 1.0 - cfg.clip_eps), 1.0 + cfg.clip_eps) * adv
    kept = unclipped <= clipped
    # d(ratio)/d(logits) = ratio * (onehot - p), zero for unkept samples
    coeff = np.where(kept, weight * adv * ratio, 0.0)

    kl_steps, grads = np.empty(int(n.sum())), [None] * int(n.sum())  # per listed step
    for (G, size), (rows, where, steps) in uses.items():
        keys, lp, p = stacks[size]
        lp, p = lp[rows], p[rows]
        lq = log_softmax(np.zeros(size) if ref_policy is None else np.array(
            [ref_policy.params[pid][t] if pid in ref_policy.params else np.zeros(size)  # a prompt it lacks: uniform
             for pid, t in map(keys.__getitem__, rows.tolist())]))
        gap = lp - lq
        kl = kl_steps[steps] = np.sum(p * gap, axis=-1)
        # the steps' rows end to end; per sample, in sample order, -c*p and then
        # +c at its action, added one after another (np.sum would not keep the
        # order); an unkept sample's -0.0 and +0.0 change no bit
        c, width = coeff[where.T], len(rows) * size
        updates = np.zeros((G, 2, width))
        updates[:, 0] = c.repeat(size, axis=1) * -p.ravel()
        updates[np.arange(G)[:, None], 1, np.arange(0, width, size) + actions[where.T]] = c
        total = np.zeros(width)
        for update in updates.reshape(2 * G, width):
            total += update
        # d/dlogits of KL(p||q) = p * ((log p - log q) - KL)
        for step, g in zip(steps.tolist(), total.reshape(-1, size) - cfg.kl_beta * p * (gap - kl[:, None])):
            grads[step] = g
    # each group's terms and its steps' KL, summed left to right
    terms = np.zeros((len(groups), cells.max()))
    terms[np.arange(terms.shape[1]) < cells[:, None]] = weight * np.where(kept, unclipped, clipped)
    kl_rows = np.zeros((len(groups), n.max()))
    kl_rows[np.arange(kl_rows.shape[1]) < n[:, None]] = kl_steps
    kl = left_sums(kl_rows)
    objectives = left_sums(terms) - cfg.kl_beta * kl
    clip_fractions = np.add.reduceat(~kept, starts, dtype=np.intp) / cells
    return [(metrics.objective, grads[a:a + b], metrics) for a, b, metrics in
            zip((n.cumsum() - n).tolist(), n.tolist(),
                map(SurrogateMetrics, objectives.tolist(), kl.tolist(), clip_fractions.tolist()))]


def _apply_update(policy: CategoricalSequencePolicy, grads: Dict[str, List[np.ndarray]], cfg: GrpoConfig) -> None:
    """One ascent update on the accumulated gradients."""
    if cfg.optimizer == "sgd":
        for pid, vecs in grads.items():
            for t, g in enumerate(vecs):
                policy.params[pid][t] += cfg.learning_rate * g
        return
    policy.adam.ascend(policy.params, grads, cfg.learning_rate)


def train_step(policy: CategoricalSequencePolicy, groups: Sequence[RolloutGroup],
               ref_policy: Optional[CategoricalSequencePolicy], cfg: GrpoConfig,
               group_count: Optional[int] = None) -> SurrogateMetrics:
    """One optimizer update on the surrogate averaged over ``groups``.

    ``group_count`` lets a caller average over a larger universe of groups
    (e.g. a mixed batch split across two policies) so that every group keeps
    identical weight.
    """
    if not groups:
        raise ValueError("at least one rollout group is required")
    n = group_count if group_count is not None else len(groups)
    bounds: Dict[str, List[int]] = {}  # prompt id -> where its steps' gradients start and end in the flat totals
    size = 0
    vecs, starts, lengths = [], [], []
    objective = kl = clip_fraction = 0.0
    for group, (obj, grads, metrics) in zip(groups, surrogates(policy, groups, ref_policy, cfg)):
        objective += obj / n
        kl += metrics.kl / n
        clip_fraction += metrics.clip_fraction / len(groups)
        where = bounds.get(group.prompt_id)
        if where is None:
            where = bounds[group.prompt_id] = list(itertools.accumulate(map(len, grads), initial=size))
            size = where[-1]
        vecs.extend(grads)
        starts.append(where[0])
        lengths.append(where[-1] - where[0])
    # each group's gradients, laid end to end, go to its prompt's bins;
    # bincount adds each weight into its bin in index order, from 0.0, so a
    # prompt's totals are ((0.0 + g1 / n) + g2 / n) + ... in group order:
    # the bits, signed zeros included, of one `total += g / n` per group
    flat = np.concatenate(vecs) / n
    lengths = np.array(lengths)
    bins = np.arange(len(flat)) + np.repeat(np.array(starts) - (np.cumsum(lengths) - lengths), lengths)
    totals = np.bincount(bins, weights=flat)
    _apply_update(policy, {pid: [totals[a:b] for a, b in zip(where, where[1:])] for pid, where in bounds.items()}, cfg)
    return SurrogateMetrics(objective=objective, kl=kl, clip_fraction=clip_fraction)
