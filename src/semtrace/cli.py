"""Command-line interface: trace, reward, train, eval, probe, fuzz.

Exit codes for ``trace``: 0 returned, 1 parse error, 2 runtime error,
3 budget exceeded.  Every subcommand exits 1 on an input file that is
malformed or cannot be read, or on a malformed argument (a usage error, a
``--budget`` or ``fuzz -n`` below 1, a seed below 0, an ``eval --predictor``
command of no words, or an ``eval --timeout`` that is not a finite number
above 0).  Every input is loaded inside
:func:`_reading`, so each such failure is one stderr line, ``cannot read
<file>: <reason>`` or ``<what>: <message>``; stdout carries only the
canonical payload of each subcommand.  ``eval`` and ``probe`` also exit 1
when an ``--out`` directory (or ``eval``'s ``transcripts`` in it) cannot be
made, with ``cannot write <path>: <reason>``, before any item is scored or
any sweep runs, so no output is written.  ``trace`` and ``reward`` exit 1
with ``cannot encode result: JSON value is nested too deeply``, and print
nothing on stdout, when a value of their result is nested too deeply to
encode as JSON (a list of a list of ... 1,500 levels deep, as a loop can
build).  A closed stdout (``| head``) exits 1 with nothing on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shlex
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Sequence

import numpy as np

from . import probe as probe_mod
from .evalsuite import TraceItem, load_eval_items, oracle_predictor_for, run_eval
from .fuzz import differential_campaign
from .harness import (
    RunConfig,
    atomic_write_text,
    decode_test_case,
    load_problems,
    seed_override,
)
from .lang import parse_program
from .rewards import gen_reward
from .scheduler import run_training
from .tracer import (
    DEFAULT_BUDGET,
    STATUS_BUDGET,
    STATUS_ERROR,
    STATUS_RETURNED,
    execute,
)
from .values import decode_inputs, encode_json_value, load_json, read_jsonl

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_RUNTIME = 2
EXIT_BUDGET = 3


class _Failed(Exception):
    """Ends a subcommand: :func:`main` prints the message to stderr and exits with ``code``."""

    def __init__(self, message: str, code: int = EXIT_PARSE):
        super().__init__(message)
        self.code = code


@contextmanager
def _reading(what: str, path=None):
    """Reports a failure to load an input (or to encode a result): an
    ``OSError`` as ``cannot read <file>: <reason>``, a ``ValueError`` as
    ``<what>: <message>``."""
    try:
        yield
    except OSError as exc:
        raise _Failed("cannot read %s: %s" % (exc.filename or path, exc.strerror or exc)) from None
    except ValueError as exc:
        raise _Failed("%s: %s" % (what, exc)) from None


def _output_dir(path) -> Path:
    """``path`` as a directory, made if missing; called before any work, so an
    output path that cannot be a directory fails as ``cannot write <path>: <reason>``."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _Failed("cannot write %s: %s" % (exc.filename or path, exc.strerror or exc)) from None
    return path


# --- subcommands ---


def cmd_trace(args) -> int:
    with _reading("parse error", args.program):
        source = Path(args.program).read_text("utf-8")
        program = parse_program(source)
    with _reading("bad input"):
        inputs = decode_inputs(load_json(args.input))
    try:
        rec = execute(program, inputs, budget=args.budget)
    except ValueError as exc:
        raise _Failed("execution rejected: %s" % exc, EXIT_RUNTIME) from None
    if rec.status == STATUS_ERROR:
        loc = rec.error_loc
        where = " at line %d col %d" % (loc.line, loc.col) if loc else ""
        raise _Failed("runtime error: %s%s" % (rec.error_kind, where), EXIT_RUNTIME)
    if rec.status == STATUS_BUDGET:
        raise _Failed("budget of %d steps exceeded" % args.budget, EXIT_BUDGET)
    assert rec.status == STATUS_RETURNED
    with _reading("cannot encode result"):
        line = TraceItem.traced(args.program, program, inputs, rec, source).answer_line()
    print(line)
    return EXIT_OK


def cmd_reward(args) -> int:
    with _reading("parse error", args.program):
        program = parse_program(Path(args.program).read_text("utf-8"))
    with _reading("bad tests file", args.tests):
        tests = read_jsonl(args.tests, decode_test_case)
        if not tests:
            raise ValueError("%s has no test cases" % args.tests)
    report = gen_reward(program, tests, budget=args.budget)
    with _reading("cannot encode result"):
        per_test = [
            {"status": t.status, "matched": t.matched, "actual": encode_json_value(t.actual)}
            for t in report.per_test
        ]
    print(
        json.dumps(
            {
                "reward": report.reward,
                "per_test": per_test,
                "first_failing_terminating": report.first_failing_terminating,
            }
        )
    )
    return EXIT_OK


def cmd_train(args) -> int:
    with _reading("config error", args.config):
        config = RunConfig.from_file(args.config)
    if not args.run_dir:
        raise _Failed("no run directory (pass --run-dir)")
    if not args.dataset:
        raise _Failed("no dataset (pass --dataset)")
    with _reading("dataset error", args.dataset):
        problems = load_problems(args.dataset)
    start = time.monotonic()
    try:
        run_training(config, problems, args.run_dir, resume=args.resume)
    except (OSError, RuntimeError, ValueError) as exc:
        # no checkpoint or metrics.jsonl, a malformed checkpoint, a locked run dir
        raise _Failed("run error: %s" % exc) from None
    elapsed = time.monotonic() - start
    print("run complete: %s (%.1f s, %d steps)" % (args.run_dir, elapsed, config.max_steps))
    return EXIT_OK


def subprocess_predictor(command: Sequence[str], timeout: float):
    """Predictor adapter: run ``command``, prompt on stdin, text on stdout."""

    def predict(prompt: str) -> str:
        proc = subprocess.run(
            list(command),
            input=prompt.encode("utf-8"),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            timeout=timeout,
        )
        if proc.returncode != 0:
            raise RuntimeError(
                "predictor exited with %d: %s" % (proc.returncode, proc.stderr.decode("utf-8", "replace").strip())
            )
        return proc.stdout.decode("utf-8")

    return predict


def cmd_eval(args) -> int:
    with _reading("bad eval items", args.items):
        items = load_eval_items(args.items, budget=args.budget)
    if args.predictor == "oracle":
        predictor = oracle_predictor_for(items)
    else:
        with _reading("bad predictor"):  # an unclosed quote, or no words
            argv = shlex.split(args.predictor)
            if not argv:
                raise ValueError("empty command")
            predictor = subprocess_predictor(argv, timeout=args.timeout)
    out_dir = _output_dir(args.out)
    transcripts = _output_dir(out_dir / "transcripts")
    report = run_eval(items, predictor)
    atomic_write_text(out_dir / "report.json", json.dumps(report.to_dict(), indent=2) + "\n")
    for result in report.items:
        atomic_write_text(transcripts / ("%s.txt" % result.item_id), result.raw)
    print("Exact@1 = %.4f over %d items" % (report.exact_at_1, len(report.items)))
    return EXIT_OK


def cmd_probe(args) -> int:
    with _reading("feature error", args.features):
        data = probe_mod.load_feature_dir(args.features)
    layers = sorted(data.features)
    with _reading("error"):
        rng = np.random.default_rng(seed_override(args.seed))
    out = _output_dir(args.out)
    results = probe_mod.probe_sweep(data, layers, rng=rng)
    probe_mod.write_sweep_csv(results, out / "probe_mse.csv")
    for layer in layers:
        print(
            "layer %d  train_mse=%.6g  test_mse=%.6g"
            % (layer, results[layer]["train_mse"], results[layer]["test_mse"])
        )
    return EXIT_OK


def cmd_fuzz(args) -> int:
    with _reading("error"):
        seed = seed_override(args.seed)
    result = differential_campaign(args.count, seed=seed)
    print(
        "%d programs, %d returned, %d mismatches"
        % (result.total, result.returned, len(result.mismatches))
    )
    for line in result.mismatches:
        print(line, file=sys.stderr)
    return EXIT_OK if result.ok else EXIT_RUNTIME


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` whose usage errors print one line and exit 1."""

    def error(self, message):
        self.exit(EXIT_PARSE, "%s: error: %s\n" % (self.prog, message))


def positive_int(text: str) -> int:
    """An argparse type: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1, got %d" % value)
    return value


def positive_float(text: str) -> float:
    """An argparse type: a finite number above 0."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError("must be a finite number above 0, got %s" % text)
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="semtrace")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("trace", help="execute a program and print its final state")
    p.add_argument("program", help="program source file")
    p.add_argument("input", help="JSON array of argument values")
    p.add_argument("--budget", type=positive_int, default=DEFAULT_BUDGET)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("reward", help="score a program against a test file")
    p.add_argument("program")
    p.add_argument("tests", help="JSONL of {input, expected}")
    p.add_argument("--budget", type=positive_int, default=DEFAULT_BUDGET)
    p.set_defaults(func=cmd_reward)

    p = sub.add_parser("train", help="run the training loop")
    p.add_argument("config", help="JSON run configuration")
    p.add_argument("--run-dir", default=None)
    p.add_argument("--dataset", default=None)
    p.add_argument("--resume", action="store_true", help="continue from the last checkpoint")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a predictor on trace-inference items")
    p.add_argument("items", help="JSONL eval items")
    p.add_argument("--predictor", default="oracle", help='"oracle" or a command, split into words as a shell would')
    p.add_argument("--out", default="eval_out")
    p.add_argument("--budget", type=positive_int, default=DEFAULT_BUDGET)
    p.add_argument("--timeout", type=positive_float, default=60.0)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("probe", help="linear-probe sweep over feature files")
    p.add_argument("features", help="directory of per-layer .bin feature files")
    p.add_argument("--out", default="probe_out")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("fuzz", help="differential campaign against the reference evaluator")
    p.add_argument("-n", "--count", type=positive_int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_fuzz)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a closed pipe raises here
        return code
    except _Failed as exc:
        print(exc, file=sys.stderr)
        return exc.code
    except BrokenPipeError:
        # exit 1 as Python does on EPIPE; the flush at exit then goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
