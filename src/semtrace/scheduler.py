"""Mixed-batch training loop: code-generation prompts plus alignment prompts
harvested on the fly from failed rollouts.

Warmup is emergent: while the failure buffer is empty every batch is pure
code generation; once failures accumulate, each batch carries
``floor(align_ratio * batch_size)`` alignment prompts (capped by the buffer).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import shutil
from collections import deque
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .grpo import (
    KIND_ALIGNMENT,
    KIND_CODEGEN,
    Memo,
    RolloutGroup,
    TemplatePolicy,
    ValuePredictorPolicy,
    candidate_value_pool,
    sample_groups,
    train_step,
)
from .harness import ProblemRecord, RunConfig, RunLock, atomic_write_text
from .lang import Program, format_program, parse_program
from .optim import Adam
from .rewards import GenRewardReport, SemPrediction, gen_reward, matches_expected, sem_reward
from .tracer import DEFAULT_BUDGET, STATUS_RETURNED, execute, traced_variables
from .values import (Value, canonical_serialize, decode_inputs, decode_json_value, encode_json_value, read_jsonl,
                     record_id)


@dataclass(frozen=True)
class AlignmentPrompt:
    """A trace-inference prompt: the final values ``truth`` of ``variables``
    after running ``p_fail`` on ``input``.  Immutable (its lists and dict are
    never mutated either), so its JSONL line is built at most once, the
    first time a save needs it."""

    prompt_id: str  # alignment_prompt_id(source, input)
    p_fail: Program
    input: List[Value]
    variables: List[str]  # V: first-definition order, restricted to defined vars
    truth: Dict[str, Value]
    origin_step: int
    source: str = field(repr=False, compare=False)  # the text p_fail was parsed from or formatted to

    def to_record(self) -> dict:
        return {
            "id": self.prompt_id,
            "source": self.source,
            "input": [encode_json_value(v) for v in self.input],
            "variables": list(self.variables),
            "truth": {k: encode_json_value(v) for k, v in self.truth.items()},
            "origin_step": self.origin_step,
        }

    @cached_property
    def jsonl_line(self) -> str:
        return json.dumps(self.to_record()) + "\n"

    @classmethod
    def from_record(cls, rec: dict, budget: int = DEFAULT_BUDGET) -> "AlignmentPrompt":
        source = rec["source"]
        program = parse_program(source)
        input_values = decode_inputs(rec["input"])
        prompt_id = record_id(rec["id"], set(), "alignment prompt")
        if prompt_id != alignment_prompt_id(source, input_values):
            raise ValueError("alignment prompt id %r does not match its source and input" % (prompt_id,))
        origin_step = rec["origin_step"]
        if not isinstance(origin_step, int) or isinstance(origin_step, bool) or origin_step < 0:
            raise ValueError("origin_step must be an integer of at least 0, got %r" % (origin_step,))
        if not isinstance(rec["truth"], dict):
            raise ValueError("truth must be a JSON object")
        truth = {k: decode_json_value(v) for k, v in rec["truth"].items()}
        # stored ground truth must revalidate against a fresh trace
        fresh = execute(program, input_values, budget=budget)
        if fresh.status != STATUS_RETURNED:
            raise ValueError("alignment prompt %r no longer terminates" % prompt_id)
        # the freshly traced values, so the in-memory truth is exact
        fresh_truth = traced_variables(program, fresh)
        variables = list(fresh_truth)
        if rec["variables"] != variables:
            raise ValueError("alignment prompt %r lists variables %r, but its run defines %r"
                             % (prompt_id, rec["variables"], variables))
        for v in variables:
            if not matches_expected(fresh_truth[v], truth[v]):
                raise ValueError("stale ground truth for %r in prompt %r" % (v, prompt_id))
        return cls(
            prompt_id=prompt_id,
            p_fail=program,
            input=input_values,
            variables=variables,
            truth=fresh_truth,
            origin_step=origin_step,
            source=source,
        )


def alignment_prompt_id(source: str, input_values: Sequence[Value]) -> str:
    """The id of a prompt on the program whose ``format_program`` is ``source``."""
    payload = source + "\n" + canonical_serialize(list(input_values))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def build_alignment_prompt(
    p_fail: Program,
    tests,
    report: GenRewardReport,
    origin_step: int = 0,
) -> Optional[AlignmentPrompt]:
    """Turn one failed program into an alignment prompt, or None if no test
    input terminates normally or the program defines no variables.

    ``report`` is ``gen_reward(p_fail, tests)``.  Input selection: the first
    failing-but-terminating test, else the first terminating test.  The final
    values come from that test's record in the report, so nothing is executed.
    """
    index = report.first_failing_terminating
    if index is None:
        for i, outcome in enumerate(report.per_test):
            if outcome.status == STATUS_RETURNED:
                index = i
                break
    if index is None:
        return None
    x = list(tests[index].input)
    truth = traced_variables(p_fail, report.per_test[index].record)
    if not truth:
        return None
    source = format_program(p_fail)
    return AlignmentPrompt(
        prompt_id=alignment_prompt_id(source, x),
        p_fail=p_fail,
        input=x,
        variables=list(truth),
        truth=truth,
        origin_step=origin_step,
        source=source,
    )


class FailureBuffer:
    """FIFO buffer of alignment prompts, deduplicated by prompt id."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.entries: deque = deque()
        self._ids = set()

    def __len__(self):
        return len(self.entries)

    def __contains__(self, prompt_id: str) -> bool:
        return prompt_id in self._ids

    def add(self, prompt: AlignmentPrompt) -> bool:
        if prompt.prompt_id in self._ids:
            return False
        self.entries.append(prompt)
        self._ids.add(prompt.prompt_id)
        while len(self.entries) > self.capacity:
            evicted = self.entries.popleft()
            self._ids.discard(evicted.prompt_id)
        return True

    def sample(self, n: int, rng: np.random.Generator) -> List[AlignmentPrompt]:
        """Uniform draw of ``min(n, len)`` distinct entries."""
        n = min(n, len(self.entries))
        if n == 0:
            return []
        idx = rng.choice(len(self.entries), size=n, replace=False)
        pool = list(self.entries)
        return [pool[i] for i in sorted(int(i) for i in idx)]

    def jsonl_text(self) -> str:
        """The entries as JSONL, oldest first; each line is serialized once."""
        return "".join(p.jsonl_line for p in self.entries)


def harvest_failures(
    group: RolloutGroup,
    buffer: FailureBuffer,
    prompts: Sequence[Optional[AlignmentPrompt]],
    origin_step: int = 0,
) -> Tuple[int, int]:
    """Push the alignment prompts that scoring built for the group's failed
    samples; ``prompts[i]`` is sample i's prompt, or None if it has none.

    Returns (added, ineligible).  Only wrong-answer samples whose chosen
    input terminates normally are eligible; duplicates count as neither.  A
    prompt built at an earlier step is copied with the new ``origin_step``.
    """
    if group.kind != KIND_CODEGEN:
        raise ValueError("only code-generation groups are harvested")
    added = 0
    ineligible = 0
    for sample, prompt in zip(group.samples, prompts, strict=True):
        if float(sample.reward) != 0.0:
            continue
        if prompt is None:
            ineligible += 1
        elif prompt.prompt_id not in buffer:
            if prompt.origin_step != origin_step:
                prompt = replace(prompt, origin_step=origin_step)
            buffer.add(prompt)
            added += 1
    return added, ineligible


class CodePromptPool:
    """Without-replacement sampler over problem ids, reshuffled per epoch."""

    def __init__(self, problem_ids: Sequence[str]):
        if not problem_ids:
            raise ValueError("code prompt pool must be non-empty")
        self.problem_ids = list(problem_ids)
        self.order: List[str] = []
        self.cursor = 0

    def draw(self, n: int, rng: np.random.Generator) -> List[str]:
        out = []
        for _ in range(n):
            if self.cursor >= len(self.order):
                self.order = list(self.problem_ids)
                rng.shuffle(self.order)
                self.cursor = 0
            out.append(self.order[self.cursor])
            self.cursor += 1
        return out

    def state(self) -> dict:
        return {"order": list(self.order), "cursor": self.cursor}

    def restore(self, state: dict) -> None:
        """Take a saved ``state``: ``order`` empty or a permutation of the
        problem ids, and ``0 <= cursor <= len(order)``."""
        order = list(state["order"])
        cursor = int(state["cursor"])
        if order and sorted(order) != sorted(self.problem_ids):
            raise ValueError("pool order is not a permutation of the %d problem ids" % len(self.problem_ids))
        if not 0 <= cursor <= len(order):
            raise ValueError("pool cursor %d is outside 0..%d" % (cursor, len(order)))
        self.order = order
        self.cursor = cursor


@dataclass
class MixedBatch:
    code_prompts: List[str]
    align_prompts: List[AlignmentPrompt] = field(default_factory=list)


def mix_batch(
    code_pool: CodePromptPool,
    buffer: FailureBuffer,
    batch_size: int,
    align_ratio: float,
    rng: np.random.Generator,
) -> MixedBatch:
    """Compose one batch: floor(align_ratio * B) alignment prompts (capped by
    the buffer), the remainder code prompts."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    target_align = math.floor(align_ratio * batch_size)
    align_prompts = buffer.sample(target_align, rng)
    code_prompts = code_pool.draw(batch_size - len(align_prompts), rng)
    return MixedBatch(code_prompts=code_prompts, align_prompts=align_prompts)


# --- end-to-end training ---


class Trainer:
    def __init__(self, config: RunConfig, problems: Sequence[ProblemRecord]):
        config.validate()
        self.config = config
        self.problems = {p.problem_id: p for p in problems}
        self.rng = np.random.Generator(np.random.PCG64(config.seed))
        self.code_policy = TemplatePolicy()
        for pid, problem in self.problems.items():
            self.code_policy.register_template(pid, problem.template)
        self.align_policy = ValuePredictorPolicy()
        self.buffer = FailureBuffer(config.buffer_capacity)
        self.pool = CodePromptPool(sorted(self.problems))
        self.step = 0
        # (problem id, actions) -> (GenRewardReport, alignment prompt or
        # None); tests and budget are fixed per trainer, so both are pure
        # functions of the key (a prompt's origin_step is its build step)
        self._scored = Memo()
        self._align_path: Optional[Path] = None  # where load_checkpoint read align logits

    # --- one training step ---

    def _score(self, program: Program, tests) -> Tuple[GenRewardReport, Optional[AlignmentPrompt]]:
        """The reward report of ``program``, and its alignment prompt if it fails."""
        report = gen_reward(program, tests, budget=self.config.step_budget)
        prompt = build_alignment_prompt(program, tests, report, self.step) if report.reward == 0 else None
        return report, prompt

    def run_step(self) -> dict:
        self.step += 1
        batch = mix_batch(
            self.pool,
            self.buffer,
            self.config.batch_size,
            self.config.align_ratio,
            self.rng,
        )
        # all code groups are drawn in one call, then each is harvested as
        # soon as it is scored: the buffer was sampled by mix_batch, so this
        # step's batch cannot see the additions, and only one group's prompts
        # are listed at a time.  Nothing between the draws uses the generator.
        code_groups = sample_groups(self.code_policy, batch.code_prompts, KIND_CODEGEN, self.config.group_size,
                                    self.rng)
        for group in code_groups:
            problem = self.problems[group.prompt_id]
            prompts: List[Optional[AlignmentPrompt]] = [None] * len(group.samples)
            for i, sample in enumerate(group.samples):
                if sample.artifact is None:
                    sample.reward = 0.0
                    continue
                report, prompts[i] = self._scored.get(
                    (group.prompt_id, tuple(sample.actions)), partial(self._score, sample.artifact, problem.tests)
                )
                sample.reward = float(report.reward)
            group.fill_advantages()
            harvest_failures(group, self.buffer, prompts, self.step)

        for prompt in batch.align_prompts:
            if prompt.prompt_id not in self.align_policy.pools:
                # a prompt is registered when first sampled; register_prompt
                # keeps the logits a checkpoint loaded for it, and rejects
                # them if they do not fit (logits made here always fit)
                pool = candidate_value_pool(prompt.p_fail, prompt.input, prompt.truth)
                try:
                    self.align_policy.register_prompt(prompt.prompt_id, prompt.variables, pool)
                except ValueError as exc:
                    raise ValueError("%s: %s" % (self._align_path, exc)) from exc
        align_groups = sample_groups(self.align_policy, [p.prompt_id for p in batch.align_prompts], KIND_ALIGNMENT,
                                     self.config.group_size, self.rng)
        for prompt, group in zip(batch.align_prompts, align_groups):
            for sample in group.samples:
                if isinstance(sample.artifact, SemPrediction):
                    sample.reward = float(
                        sem_reward(sample.artifact, prompt.truth, prompt.variables)
                    )
                else:
                    sample.reward = 0.0
            group.fill_advantages()

        n_total = len(code_groups) + len(align_groups)
        objective = 0.0
        kl = 0.0
        clip_fraction = 0.0
        # mini-batches share the same frozen old log-probabilities (one inner
        # epoch); the KL reference is the initial uniform policy (ref None)
        mini = self.config.mini_batch
        all_groups = [(g, self.code_policy) for g in code_groups] + [
            (g, self.align_policy) for g in align_groups
        ]
        for start in range(0, len(all_groups), mini):
            chunk = all_groups[start : start + mini]
            for policy in (self.code_policy, self.align_policy):
                groups = [g for g, pol in chunk if pol is policy]
                if not groups:
                    continue
                m = train_step(policy, groups, None, self.config, group_count=n_total)
                objective += m.objective
                kl += m.kl
                clip_fraction += m.clip_fraction * len(groups) / n_total

        gen_rewards = [s.reward for g in code_groups for s in g.samples]
        sem_rewards = [s.reward for g in align_groups for s in g.samples]
        mean_r_gen = sum(gen_rewards) / len(gen_rewards) if gen_rewards else None
        mean_r_sem = sum(sem_rewards) / len(sem_rewards) if sem_rewards else None

        record = {
            "step": self.step,
            "loss": -objective,
            "kl": kl,
            "clip_fraction": clip_fraction,
            "mean_R_gen": mean_r_gen,
            "mean_R_sem": mean_r_sem,
            "buffer_size": len(self.buffer),
            "n_align_in_batch": len(batch.align_prompts),
        }
        return record

    # --- persistence ---

    def save_checkpoint(self, run_dir: Path) -> Path:
        """Write ``checkpoints/step_<n>/``, complete or not at all: its files
        go into ``step_<n>.tmp/``, which is renamed into place at the end."""
        ckpt = run_dir / "checkpoints" / ("step_%d" % self.step)
        tmp = ckpt.with_name(ckpt.name + ".tmp")
        for stale in (tmp, ckpt):
            if stale.exists():
                shutil.rmtree(stale)
        tmp.mkdir(parents=True)
        self.code_policy.save(tmp / "code_policy.bin")
        self.align_policy.save(tmp / "align_policy.bin")
        (tmp / "buffer.jsonl").write_text(self.buffer.jsonl_text(), encoding="utf-8")
        state = {
            "step": self.step,
            "rng": self.rng.bit_generator.state,
            "pool": self.pool.state(),
            "opt_code": self.code_policy.adam.to_json(),
            "opt_align": self.align_policy.adam.to_json(),
        }
        (tmp / "state.json").write_text(json.dumps(state), encoding="utf-8")
        os.replace(tmp, ckpt)
        return ckpt

    def load_checkpoint(self, ckpt: Path) -> None:
        """Restore the trainer; a malformed file, or one that does not fit
        the dataset, raises a ``ValueError`` naming it.  Loaded alignment
        logits are checked when their prompt is first sampled."""
        state_path = ckpt / "state.json"
        try:
            state = json.loads(state_path.read_text("utf-8"))
            self.step = int(state["step"])
            self.rng.bit_generator.state = state["rng"]
            self.pool.restore(state["pool"])
            self.code_policy.adam = Adam.from_json(state["opt_code"])
            self.align_policy.adam = Adam.from_json(state["opt_align"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError("%s: %s" % (state_path, exc)) from exc
        code_path = ckpt / "code_policy.bin"
        self.code_policy.load(code_path)
        for pid, problem in self.problems.items():
            sizes = [len(vec) for vec in self.code_policy.params[pid]]
            vocab = [len(choices) for choices in problem.template.hole_vocab]
            if sizes != vocab:
                raise ValueError("%s: problem %r has logit vectors of sizes %s, but its template's holes have %s choices"
                                 % (code_path, pid, sizes, vocab))
        self._align_path = ckpt / "align_policy.bin"
        self.align_policy.load(self._align_path)
        self.buffer = FailureBuffer(self.config.buffer_capacity)
        decode = partial(AlignmentPrompt.from_record, budget=self.config.step_budget)
        for prompt in read_jsonl(ckpt / "buffer.jsonl", decode):
            self.buffer.add(prompt)


def _last_checkpoint(run_dir: Path) -> Optional[Path]:
    ckpt_root = run_dir / "checkpoints"
    if not ckpt_root.is_dir():
        return None
    best = None
    best_step = -1
    for entry in ckpt_root.iterdir():
        if entry.is_dir() and entry.name.startswith("step_"):
            try:
                step = int(entry.name.split("_", 1)[1])
            except ValueError:
                continue
            if step > best_step:
                best_step = step
                best = entry
    return best


def run_training(
    config: RunConfig,
    problems: Sequence[ProblemRecord],
    run_dir,
    resume: bool = False,
) -> Path:
    """Drive the full loop; returns the run directory.

    The run directory receives ``config.json``, ``metrics.jsonl`` (one record
    per step, appended and flushed as the step ends), periodic
    ``checkpoints/step_<n>/``, and ``buffer.jsonl``, written once when the
    run ends.  A checkpoint directory is built as ``step_<n>.tmp/`` and
    renamed into place once complete, so resume finds only whole ones.
    Reruns with identical (seed, config, dataset) are bitwise identical.

    Each step's groups are drawn in one call per policy, with the random
    stream of a per-sample draw, and each mini-batch's surrogate is one call
    per policy.  Each distinct (problem, action sequence) is decoded, and
    scored together with building its alignment prompt when it fails, at
    most twice while it stays in a bounded memo (``grpo.Memo``); the prompt
    reuses the executions of the reward report.  The memos are pure
    functions of their keys and are not checkpoint state, so a resumed run
    starts with empty memos and still matches an uninterrupted one exactly.  Resuming
    needs the run's ``metrics.jsonl`` with a complete line for every step done.
    """
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    metrics_path = run_dir / "metrics.jsonl"
    with RunLock(run_dir):
        trainer = Trainer(config, problems)
        kept = 0  # bytes of metrics.jsonl the run keeps: one line per step done
        if resume:
            ckpt = _last_checkpoint(run_dir)
            if ckpt is None:
                raise RuntimeError("no checkpoint to resume from in %s" % run_dir)
            if not metrics_path.is_file():
                raise RuntimeError("cannot resume from %s: %s is missing" % (ckpt, metrics_path))
            trainer.load_checkpoint(ckpt)
            # lines past the checkpoint, a torn last line among them, are
            # steps that will run again
            with open(metrics_path, "rb") as fh:
                done = [line for line in itertools.islice(fh, trainer.step) if line.endswith(b"\n")]
            if len(done) < trainer.step:
                raise RuntimeError("cannot resume from %s: %s has %d complete lines, not %d"
                                   % (ckpt, metrics_path, len(done), trainer.step))
            kept = sum(map(len, done))
        atomic_write_text(run_dir / "config.json", json.dumps(config.to_dict(), indent=2) + "\n")
        with open(metrics_path, "ab") as metrics:
            metrics.truncate(kept)
            while trainer.step < config.max_steps:
                record = trainer.run_step()
                metrics.write((json.dumps(record) + "\n").encode("utf-8"))
                metrics.flush()
                if trainer.step % config.checkpoint_interval == 0 or trainer.step == config.max_steps:
                    trainer.save_checkpoint(run_dir)
        atomic_write_text(run_dir / "buffer.jsonl", trainer.buffer.jsonl_text())
    return run_dir
