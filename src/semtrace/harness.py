"""Run configuration, dataset ingestion, and persistence helpers.

Datasets are JSONL with canonically serialized values; file writes outside a
checkpoint go through :func:`atomic_write_text` (write-temp-then-rename) so a
killed run never leaves a torn file.
"""

from __future__ import annotations

import fcntl
import hashlib
import math
import os
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path
from typing import List, Optional

from .lang import HoleTemplate, instantiate_template
from .rewards import TestCase
from .tracer import DEFAULT_BUDGET
from .values import canonical_serialize, decode_inputs, decode_json_value, load_json, read_jsonl, record_id

SEED_ENV_VAR = "SEMTRACE_SEED"


class ConfigError(ValueError):
    pass


def seed_override(seed: int) -> int:
    """The integer in ``SEMTRACE_SEED`` if it is set, else ``seed``; a
    ``ConfigError`` if it is below 0, which numpy's generators refuse."""
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            seed = int(env)
        except ValueError:
            raise ConfigError("%s must be an integer, got %r" % (SEED_ENV_VAR, env))
    if seed < 0:
        raise ConfigError("seed must be at least 0, got %d" % seed)
    return seed


@dataclass
class GrpoConfig:
    """The GRPO update's settings (:mod:`semtrace.grpo`), kept here so that
    the harness imports no policy code."""

    group_size: int = 8
    clip_eps: float = 0.2
    kl_beta: float = 1e-3
    learning_rate: float = 0.5
    optimizer: str = "sgd"  # "sgd" | "adam"


@dataclass
class RunConfig(GrpoConfig):
    """A training run: the GRPO settings plus the loop's own."""

    seed: int = 0
    batch_size: int = 128
    mini_batch: int = 64
    learning_rate: float = 1e-6
    max_steps: int = 1000
    align_ratio: float = 0.4
    step_budget: int = DEFAULT_BUDGET
    buffer_capacity: int = 4096
    checkpoint_interval: int = 25

    def validate(self) -> None:
        checks = [
            ("seed", self.seed >= 0),
            ("batch_size", self.batch_size >= 1),
            ("mini_batch", self.mini_batch >= 1),
            ("learning_rate", 0 < self.learning_rate < math.inf),
            ("max_steps", self.max_steps >= 1),
            ("group_size", self.group_size >= 2),
            ("align_ratio", 0.0 <= self.align_ratio <= 1.0),
            ("clip_eps", 0.0 < self.clip_eps < 1.0),
            ("kl_beta", 0 <= self.kl_beta < math.inf),
            ("step_budget", self.step_budget >= 1),
            ("buffer_capacity", self.buffer_capacity >= 1),
            ("checkpoint_interval", self.checkpoint_interval >= 1),
            ("optimizer", self.optimizer in ("sgd", "adam")),
        ]
        for name, ok in checks:
            if not ok:
                raise ConfigError("invalid value for %r: %r" % (name, getattr(self, name)))

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        try:
            raw = load_json(Path(path).read_text("utf-8"))
        except ValueError as exc:
            raise ConfigError("config file %s is not valid JSON: %s" % (path, exc)) from exc
        if not isinstance(raw, dict):
            raise ConfigError("config file %s must hold a JSON object" % path)
        fields = cls.__dataclass_fields__
        unknown = set(raw) - set(fields)
        if unknown:
            raise ConfigError("unknown config fields: %s" % ", ".join(sorted(unknown)))
        for name, value in raw.items():
            # each default's type is the field's type; an int is a valid float
            want = type(fields[name].default)
            if isinstance(value, bool) or not isinstance(value, (int, float) if want is float else want):
                raise ConfigError("config field %r must be a JSON %s, got %r" % (name, want.__name__, value))
        cfg = cls(**raw)
        cfg.seed = seed_override(cfg.seed)
        cfg.validate()
        return cfg

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class ProblemRecord:
    problem_id: str
    template: HoleTemplate
    tests: List[TestCase]

    def validate(self) -> None:
        """Check the tests, the template's structure and that its choice 0 parses."""
        if not self.tests:
            raise ConfigError("problem %r has no test cases" % self.problem_id)
        try:
            self.template.check_structure()
            instantiate_template(self.template, [0] * self.template.hole_count)
        except ValueError as exc:  # TemplateError or ParseError
            raise ConfigError("problem %r template is not instantiable: %s" % (self.problem_id, exc)) from exc


def decode_test_case(raw: dict) -> TestCase:
    """One ``{"input": [...], "expected": ...}`` record as a :class:`TestCase`."""
    return TestCase(
        input=decode_inputs(raw["input"]),
        expected=decode_json_value(raw["expected"]),
    )


def decode_problem(raw: dict, seen: set) -> ProblemRecord:
    """One ``{id, template: {source, holes}, tests}`` record, validated; its
    id must not be in ``seen``, which it joins."""
    problem_id = record_id(raw["id"], seen, "problem")
    # a vocabulary that is not a list stays as it is, for validate to reject
    holes = tuple(tuple(v) if isinstance(v, list) else v for v in raw["template"]["holes"])
    template = HoleTemplate(template_source=raw["template"]["source"], hole_vocab=holes)
    record = ProblemRecord(problem_id, template, [decode_test_case(t) for t in raw["tests"]])
    record.validate()
    return record


def load_problems(path) -> List[ProblemRecord]:
    """Read a problems JSONL file of :func:`decode_problem` records."""
    try:
        problems = read_jsonl(path, partial(decode_problem, seen=set()))
    except ValueError as exc:
        raise ConfigError("problems file %s" % exc) from exc
    if not problems:
        raise ConfigError("problems file %s is empty" % path)
    return problems


def problems_digest(problems) -> str:
    """The SHA-256 of every field of ``problems`` that :func:`load_problems`
    reads, in file order."""
    fields = [[p.problem_id, p.template.template_source, list(map(list, p.template.hole_vocab)),
               [[list(t.input), t.expected] for t in p.tests]] for p in problems]
    return hashlib.sha256(canonical_serialize(fields).encode("utf-8")).hexdigest()


# --- atomic persistence ---


def atomic_write_text(path, text: str) -> None:
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


class RunLock:
    """Exclusive ownership of a run directory: an ``flock`` on its ``.lock``
    file.  The kernel releases the lock when its holder exits, however it
    exits, so a killed run never blocks a resume.  The file stays: unlinking
    a locked file would let two processes lock two inodes at one path."""

    def __init__(self, run_dir):
        self.path = Path(run_dir) / ".lock"
        self._fd: Optional[int] = None

    def __enter__(self):
        fd = os.open(self.path, os.O_CREAT | os.O_WRONLY)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            os.close(fd)
            raise RuntimeError("run directory is locked by another process: %s" % self.path)
        self._fd = fd
        return self

    def __exit__(self, *exc):
        os.close(self._fd)  # closing the only descriptor releases the lock
        self._fd = None
        return False

