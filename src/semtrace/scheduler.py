"""Mixed-batch training loop: code-generation prompts plus alignment prompts
harvested on the fly from failed rollouts.

Warmup is emergent: while the failure buffer is empty every batch is pure
code generation; once failures accumulate, each batch carries
``floor(align_ratio * batch_size)`` alignment prompts (capped by the buffer).
"""

from __future__ import annotations

import itertools
import json
import math
import os
import shutil
from collections import deque
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

# a buffered alignment prompt is the one trace-inference record
from .evalsuite import TraceItem as AlignmentPrompt, alignment_prompt_id
from .grpo import (
    KIND_ALIGNMENT,
    KIND_CODEGEN,
    RolloutGroup,
    TemplatePolicy,
    ValuePredictorPolicy,
    candidate_value_pool,
    left_sums,
    sample_groups,
    step_advantages,
    train_step,
)
from .harness import ProblemRecord, RunConfig, RunLock, atomic_write_text, problems_digest
from .lang import Program, format_program
from .optim import Adam
from .rewards import GenRewardReport, gen_reward
from .tracer import STATUS_RETURNED
from .values import Memo, load_json, read_jsonl, stored_int, values_equal


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
    source = format_program(p_fail)
    prompt = AlignmentPrompt.traced(alignment_prompt_id(source, x), p_fail, x, report.per_test[index].record, source,
                                    origin_step)
    return prompt if prompt.variables else None


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
        if prompt.item_id in self._ids:
            return False
        self.entries.append(prompt)
        self._ids.add(prompt.item_id)
        while len(self.entries) > self.capacity:
            evicted = self.entries.popleft()
            self._ids.discard(evicted.item_id)
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
    added = ineligible = 0
    for reward, prompt in zip(group.rewards.tolist(), prompts, strict=True):
        if reward != 0.0:
            continue
        if prompt is None:
            ineligible += 1
        elif prompt.item_id not in buffer:
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
        cursor = stored_int(state["cursor"], "pool cursor")
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
        # (problem id, actions) -> _rollout's (program, reward, prompt);
        # templates, tests and budget are fixed per trainer, so each is a pure
        # function of the key (a prompt's origin_step is its build step)
        self._scored = Memo()
        # alignment prompt id -> a (variables, pool) uint8 table, 1 where the
        # pool entry equals the variable's truth; filled when the prompt is
        # registered and a pure function of it, so not checkpoint state
        self._correct: Dict[str, np.ndarray] = {}
        self._align_path: Optional[Path] = None  # where load_checkpoint read align logits

    # --- one training step ---

    def _score(self, program: Program, tests) -> Tuple[GenRewardReport, Optional[AlignmentPrompt]]:
        """The reward report of ``program``, and its alignment prompt if it fails."""
        report = gen_reward(program, tests, budget=self.config.step_budget)
        prompt = build_alignment_prompt(program, tests, report, self.step) if report.reward == 0 else None
        return report, prompt

    def _rollout(self, key: Tuple[str, Tuple[int, ...]], decoded: dict) -> tuple:
        """(program, reward, alignment prompt) of the code rollout ``key``, a
        (problem id, actions) pair; ``(None, 0.0, None)`` if it does not
        decode.  The program comes out of ``decoded`` when it holds the key."""
        program = decoded.pop(key) if key in decoded else self.code_policy.artifact(*key)
        if program is None:
            return None, 0.0, None
        report, prompt = self._score(program, self.problems[key[0]].tests)
        return program, float(report.reward), prompt

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
        keys = [[(group.prompt_id, tuple(actions)) for actions in group.actions.tolist()] for group in code_groups]
        # each distinct rollout that the scoring memo does not keep is decoded
        # before any is scored, so that parsing and execution do not take
        # turns; its first scoring miss takes the program out of the table,
        # and a key evicted since the pass is decoded where it is scored
        decoded = {key: self.code_policy.artifact(*key)
                   for key in dict.fromkeys(itertools.chain.from_iterable(keys)) if key not in self._scored}
        for group, group_keys in zip(code_groups, keys):
            scored = [self._scored.get(key, partial(self._rollout, key, decoded)) for key in group_keys]
            group.artifacts, group.rewards[:], prompts = map(list, zip(*scored))
            harvest_failures(group, self.buffer, prompts, self.step)

        for prompt in batch.align_prompts:
            if prompt.item_id not in self._correct:
                # a prompt is registered when first sampled; register_prompt
                # keeps the logits a checkpoint loaded for it, and rejects
                # them if they do not fit (logits made here always fit)
                pool = candidate_value_pool(prompt.p_fail, prompt.input, prompt.truth)
                try:
                    self.align_policy.register_prompt(prompt.item_id, prompt.variables, pool)
                except ValueError as exc:
                    raise ValueError("%s: %s" % (self._align_path, exc)) from exc
                self._correct[prompt.item_id] = np.array([[values_equal(c, prompt.truth[v]) for c in pool]
                                                          for v in prompt.variables], dtype=np.uint8)
        align_groups = sample_groups(self.align_policy, [p.item_id for p in batch.align_prompts], KIND_ALIGNMENT,
                                     self.config.group_size, self.rng)
        for group in align_groups:
            # sem_reward of the decoded sample, gathered from the prompt's
            # table: the share of variables whose chosen pool entry is correct
            table = self._correct[group.prompt_id]
            group.rewards = table[np.arange(len(table)), group.actions].sum(axis=1) / len(table)
        # the step's advantages and mean rewards come from one reward matrix
        groups = code_groups + align_groups
        rewards = np.array([group.rewards for group in groups])
        for group, advantages in zip(groups, step_advantages(rewards)):
            group.advantages = advantages
        mean_r_gen, mean_r_sem = (float(left_sums(r.ravel()) / r.size) if r.size else None
                                  for r in (rewards[:len(code_groups)], rewards[len(code_groups):]))

        n_total = len(groups)
        objective = kl = clip_fraction = 0.0
        # mini-batches share the same frozen old log-probabilities (one inner
        # epoch); the KL reference is the initial uniform policy (ref None)
        mini = self.config.mini_batch
        for start in range(0, n_total, mini):
            chunk = groups[start : start + mini]
            for policy, kind in ((self.code_policy, KIND_CODEGEN), (self.align_policy, KIND_ALIGNMENT)):
                part = [g for g in chunk if g.kind == kind]
                if not part:
                    continue
                m = train_step(policy, part, None, self.config, group_count=n_total)
                objective += m.objective
                kl += m.kl
                clip_fraction += m.clip_fraction * len(part) / n_total

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
            state = load_json(state_path.read_text("utf-8"))
            self.step = stored_int(state["step"], "step", 0)
            self.rng.bit_generator.state = state["rng"]
            self.pool.restore(state["pool"])
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
        for key, policy in (("opt_code", self.code_policy), ("opt_align", self.align_policy)):
            try:
                policy.adam = Adam.from_json(state[key])
                policy.adam.check_fits(policy.params)
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                raise ValueError("%s: %s: %s" % (state_path, key, exc)) from exc
        self.buffer = FailureBuffer(self.config.buffer_capacity)
        decode = partial(AlignmentPrompt.from_record, budget=self.config.step_budget)
        for prompt in read_jsonl(ckpt / "buffer.jsonl", decode):
            self.buffer.add(prompt)


def _last_checkpoint(run_dir: Path) -> Tuple[Optional[Path], int]:
    """The ``step_<n>`` directory of the largest n, and n."""
    ckpt_root = run_dir / "checkpoints"
    if not ckpt_root.is_dir():
        return None, -1
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
    return best, best_step


def _check_resumed_config(config: RunConfig, path: Path) -> None:
    """A ``ValueError`` naming the first field other than ``max_steps`` in
    which ``config`` differs from the run's ``config.json`` at ``path``, so
    that one config reproduces every step of a resumed run.  A run directory
    without the file resumes under ``config``."""
    if not path.is_file():
        return
    saved = load_json(path.read_text("utf-8"))
    if not isinstance(saved, dict):
        raise ValueError("%s must hold a JSON object" % path)
    wanted = config.to_dict()
    for name in dict.fromkeys([*wanted, *saved]):
        if name != "max_steps" and saved.get(name) != wanted.get(name):
            raise ValueError("cannot resume under another config: %s is %s in %s, %s now (only max_steps may change)"
                             % (name, json.dumps(saved.get(name)), path, json.dumps(wanted.get(name))))


def run_training(
    config: RunConfig,
    problems: Sequence[ProblemRecord],
    run_dir,
    resume: bool = False,
) -> Path:
    """Drive the full loop; returns the run directory.

    The run directory receives ``config.json``, ``problems.sha256`` (the
    dataset's :func:`~semtrace.harness.problems_digest`), ``metrics.jsonl``
    (one record per step, appended and flushed as the step ends), periodic
    ``checkpoints/step_<n>/``, and ``buffer.jsonl``, written once when the
    run ends.  A checkpoint directory is built as ``step_<n>.tmp/`` and
    renamed into place once complete, so resume finds only whole ones.
    Reruns with identical (seed, config, dataset) are bitwise identical.

    Each step's groups are drawn in one call per policy, with the random stream
    of a per-sample draw, and stay arrays up to the update: the advantages and
    mean rewards come from one reward matrix, summed left to right, and each
    mini-batch's surrogate is one call per policy, which stacks rows per
    vocabulary size and pads sums only at their end.  Each distinct (problem,
    action sequence), one that fails to decode included, is decoded and scored,
    together with building its alignment prompt when it fails, once while it
    stays in a bounded memo (``values.Memo``, which keeps every rollout while
    it has room); the prompt reuses the executions of the reward report.  A
    step decodes the rollouts that the memo does not keep in one pass before it
    scores any, so that its parses run back to back; the pass only tests
    membership, so the memo and the decode and score counts are those of
    decoding each rollout where it is scored.  An alignment sample is scored
    without decoding it, by a gather from its prompt's table of correct
    candidates: per variable, which pool entries equal the truth, built when
    the prompt is first sampled.  The memos and the table are pure functions of
    their keys and are not checkpoint state, so a resumed run starts with them
    empty and still matches an uninterrupted one exactly.  Resuming needs the
    run's ``metrics.jsonl`` with a complete line for every step done and, when
    the run directory holds a ``config.json``, the config that it records, only
    ``max_steps`` excepted; when it holds a ``problems.sha256``, the dataset
    that it records.
    """
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    metrics_path = run_dir / "metrics.jsonl"
    with RunLock(run_dir):
        trainer = Trainer(config, problems)
        kept = 0  # bytes of metrics.jsonl the run keeps: one line per step done
        digest, digest_path = problems_digest(problems) + "\n", run_dir / "problems.sha256"
        if resume:
            _check_resumed_config(config, run_dir / "config.json")
            if digest_path.is_file() and digest_path.read_text("utf-8") != digest:
                raise ValueError("cannot resume with another dataset: its digest is not the one in %s" % digest_path)
            ckpt, ckpt_step = _last_checkpoint(run_dir)
            if ckpt is None:
                raise RuntimeError("no checkpoint to resume from in %s" % run_dir)
            if not metrics_path.is_file():
                raise RuntimeError("cannot resume from %s: %s is missing" % (ckpt, metrics_path))
            trainer.load_checkpoint(ckpt)
            if trainer.step != ckpt_step:
                raise ValueError("%s: step %d does not match the directory's step %d"
                                 % (ckpt / "state.json", trainer.step, ckpt_step))
            # lines past the checkpoint, a torn last line among them, are
            # steps that will run again
            with open(metrics_path, "rb") as fh:
                done = [line for line in itertools.islice(fh, trainer.step) if line.endswith(b"\n")]
            if len(done) < trainer.step:
                raise RuntimeError("cannot resume from %s: %s has %d complete lines, not %d"
                                   % (ckpt, metrics_path, len(done), trainer.step))
            kept = sum(map(len, done))
        atomic_write_text(run_dir / "config.json", json.dumps(config.to_dict(), indent=2) + "\n")
        atomic_write_text(digest_path, digest)
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
