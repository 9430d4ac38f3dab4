"""Command-line interface: trace, reward, train, eval, probe, fuzz.

Exit codes for ``trace``: 0 returned, 1 parse error, 2 runtime error,
3 budget exceeded.  Every subcommand exits 1 on an input file that is
malformed or cannot be read, or on a malformed argument.  All diagnostics
go to stderr; stdout carries only the canonical payload of each subcommand.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import probe as probe_mod
from .evalsuite import load_eval_items, oracle_predictor_for, run_eval, serialize_record
from .fuzz import differential_campaign
from .harness import (
    ConfigError,
    RunConfig,
    atomic_write_text,
    decode_test_case,
    load_problems,
    read_jsonl,
    seed_override,
    subprocess_predictor,
)
from .lang import ParseError, parse_program
from .rewards import gen_reward
from .scheduler import run_training
from .tracer import (
    DEFAULT_BUDGET,
    STATUS_BUDGET,
    STATUS_ERROR,
    STATUS_RETURNED,
    execute,
    traced_variables,
)
from .values import decode_json_value, encode_json_value, load_json

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_RUNTIME = 2
EXIT_BUDGET = 3


def _load_program(path):
    source = Path(path).read_text("utf-8")
    return parse_program(source)


def _cannot_read(path, exc: OSError) -> int:
    print("cannot read %s: %s" % (path, exc.strerror or exc), file=sys.stderr)
    return EXIT_PARSE


def _parse_input_values(text: str):
    raw = load_json(text)
    if not isinstance(raw, list):
        raise ValueError("input must be a JSON array of argument values")
    return [decode_json_value(v) for v in raw]


# --- subcommands ---


def cmd_trace(args) -> int:
    try:
        program = _load_program(args.program)
    except OSError as exc:
        return _cannot_read(args.program, exc)
    except ParseError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    try:
        inputs = _parse_input_values(args.input)
    except ValueError as exc:
        print("bad input: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    try:
        rec = execute(program, inputs, budget=args.budget)
    except ValueError as exc:
        print("execution rejected: %s" % exc, file=sys.stderr)
        return EXIT_RUNTIME
    if rec.status == STATUS_ERROR:
        loc = rec.error_loc
        where = " at line %d col %d" % (loc.line, loc.col) if loc else ""
        print("runtime error: %s%s" % (rec.error_kind, where), file=sys.stderr)
        return EXIT_RUNTIME
    if rec.status == STATUS_BUDGET:
        print("budget of %d steps exceeded" % args.budget, file=sys.stderr)
        return EXIT_BUDGET
    assert rec.status == STATUS_RETURNED
    print(serialize_record(rec.return_value, traced_variables(program, rec)))
    return EXIT_OK


def cmd_reward(args) -> int:
    try:
        program = _load_program(args.program)
    except OSError as exc:
        return _cannot_read(args.program, exc)
    except ParseError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    try:
        tests = [decode_test_case(raw) for raw in read_jsonl(args.tests)]
        if not tests:
            raise ValueError("no test cases")
    except OSError as exc:
        return _cannot_read(args.tests, exc)
    except (KeyError, TypeError, ValueError) as exc:
        print("bad tests file %s: %s" % (args.tests, exc), file=sys.stderr)
        return EXIT_PARSE
    report = gen_reward(program, tests, budget=args.budget)
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
    try:
        config = RunConfig.from_file(args.config)
    except OSError as exc:
        return _cannot_read(args.config, exc)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    run_dir = args.run_dir or config.run_dir
    if not run_dir:
        print("no run directory (set run_dir in the config or pass --run-dir)", file=sys.stderr)
        return EXIT_PARSE
    dataset = args.dataset or config.dataset_path
    if not dataset:
        print("no dataset (set dataset_path in the config or pass --dataset)", file=sys.stderr)
        return EXIT_PARSE
    try:
        problems = load_problems(dataset)
    except OSError as exc:
        return _cannot_read(dataset, exc)
    except ConfigError as exc:
        print("dataset error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    start = time.monotonic()
    try:
        run_training(config, problems, run_dir, resume=args.resume)
    except (RuntimeError, ValueError) as exc:
        # no checkpoint or metrics.jsonl, a truncated checkpoint, a locked run dir
        print("run error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    elapsed = time.monotonic() - start
    print("run complete: %s (%.1f s, %d steps)" % (run_dir, elapsed, config.max_steps))
    return EXIT_OK


def cmd_eval(args) -> int:
    try:
        items = load_eval_items(args.items, budget=args.budget)
    except OSError as exc:
        return _cannot_read(args.items, exc)
    except ValueError as exc:
        print("bad eval items: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    if args.predictor == "oracle":
        predictor = oracle_predictor_for(items)
    else:
        predictor = subprocess_predictor(args.predictor.split(), timeout=args.timeout)
    report = run_eval(items, predictor)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    atomic_write_text(out_dir / "report.json", json.dumps(report.to_dict(), indent=2) + "\n")
    transcripts = out_dir / "transcripts"
    transcripts.mkdir(exist_ok=True)
    for result in report.items:
        atomic_write_text(transcripts / ("%s.txt" % result.item_id), result.raw)
    print("Exact@1 = %.4f over %d items" % (report.exact_at_1, len(report.items)))
    return EXIT_OK


def cmd_probe(args) -> int:
    try:
        samples = probe_mod.load_feature_dir(args.features)
    except ValueError as exc:
        print("feature error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    layers = sorted({layer for s in samples for layer in s.features})
    rng = np.random.default_rng(seed_override(args.seed))
    results = probe_mod.probe_sweep(
        samples, layers, ratio=args.ratio, rng=rng, epochs=args.epochs, lr=args.lr
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    probe_mod.write_sweep_csv(results, out / "probe_mse.csv")
    for layer in layers:
        print(
            "layer %d  train_mse=%.6g  test_mse=%.6g"
            % (layer, results[layer]["train_mse"], results[layer]["test_mse"])
        )
    return EXIT_OK


def cmd_fuzz(args) -> int:
    result = differential_campaign(args.count, seed=seed_override(args.seed))
    print(
        "%d programs, %d returned, %d mismatches"
        % (result.total, result.returned, len(result.mismatches))
    )
    for line in result.mismatches:
        print(line, file=sys.stderr)
    return EXIT_OK if result.ok else EXIT_RUNTIME


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="semtrace")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("trace", help="execute a program and print its final state")
    p.add_argument("program", help="program source file")
    p.add_argument("input", help="JSON array of argument values")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("reward", help="score a program against a test file")
    p.add_argument("program")
    p.add_argument("tests", help="JSONL of {input, expected}")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.set_defaults(func=cmd_reward)

    p = sub.add_parser("train", help="run the training loop")
    p.add_argument("config", help="JSON run configuration")
    p.add_argument("--run-dir", default=None)
    p.add_argument("--dataset", default=None)
    p.add_argument("--resume", action="store_true", help="continue from the last checkpoint")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a predictor on trace-inference items")
    p.add_argument("items", help="JSONL eval items")
    p.add_argument("--predictor", default="oracle", help='"oracle" or an external command')
    p.add_argument("--out", default="eval_out")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--timeout", type=float, default=60.0)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("probe", help="linear-probe sweep over feature files")
    p.add_argument("features", help="directory of per-layer .bin feature files")
    p.add_argument("--out", default="probe_out")
    p.add_argument("--ratio", type=float, default=0.8)
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("fuzz", help="differential campaign against the reference evaluator")
    p.add_argument("-n", "--count", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_fuzz)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
