"""One benchmark workload in one process; started by ``perfbench/run.py``.

    python3 perfbench/workload.py --workload train-repeat --seed 1 --size 40 \
        --inputs DIR --work DIR --result FILE --t0 T [--trace]

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process, so ``setup_s`` covers interpreter start, importing semtrace, loading
the inputs and (train workloads) constructing a ``Trainer``.  ``--size`` is
the fixed amount of work: training steps, or tool rounds.  A train workload
then runs ``run_training`` once and resumes from its final checkpoint at
least three times.  Untraced, every timed operation is also reported at the
reference speed (see ``SpeedSampler``).

Correctness checks run after the timed region.  With ``--trace`` the
workload first runs untraced (for the tracing overhead), then again with
spans around every call into semtrace's modules (see ``tracing.py``).

The result, a JSON file, holds this process's end-to-end metrics, the
checks, and with ``--trace`` the per-layer metrics and workload properties.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import math
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

import tracing

TRAIN_SHAPES = {
    # the re-anchor shape: 32 problems, batch 128 x group 8
    "train-repeat": dict(batch_size=128, group_size=8, align_ratio=0.4, checkpoint_interval=5),
    # a smaller batch so that a run holds enough steps for a tail percentile;
    # checkpoint steps (every third and the last) outnumber the ten steps
    # beyond that percentile, so the tail measures them rather than noise,
    # and are fewer than half, so the median is a step without one; the
    # reduced budget bounds the cost of the never-advancing loop choice
    "train-loops": dict(batch_size=16, group_size=8, align_ratio=0.4, checkpoint_interval=3, step_budget=2000),
}
TOOLS_FUZZ_PROGRAMS = 150
RELOAD_BUDGET_S = 1.0
# See SpeedSampler.  SLICE_NOMINAL_S is about a slice's time on a quiet
# 2-core Xeon sandbox.
SLICE_PERIOD_S = 0.02
SLICE_ITERATIONS = 600
SLICE_NOMINAL_S = 0.0006
clock = time.perf_counter


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    k = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[k - 1]


def tail_percentile(n):
    """The highest whole percentile with at least ten samples beyond it."""
    return max(50, math.floor(100.0 * (n - 10) / n)) if n > 10 else 50


class SpeedSampler:
    """Samples the machine's speed while a workload runs.

    Other tenants of a small shared host slow it down by up to 2x, in phases
    that change within a second.  While the sampler runs, a timer interrupts
    the process every SLICE_PERIOD_S and times one slice of a reference
    kernel: fixed pure-Python work (dict stores, small lists, tuples and
    strs) that uses no semtrace code, run with the collector off so that the
    heap semtrace has built does not change its cost.  The kernel slows down
    with semtrace, so an operation's time over the mean slice time during it
    holds steady where its wall time does not.  The handler runs between
    bytecodes and touches no semtrace state.
    """

    def __init__(self):
        self.at = []  # slice start times, ascending
        self.took = []  # slice durations

    def _slice(self, signum, frame):
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = clock()
            table = {}
            for i in range(SLICE_ITERATIONS):
                table[("k", i % 50)] = [i, str(i), (i, i + 1)]
                [j for j in range(8)]
            end = clock()
        finally:
            if collecting:
                gc.enable()
        self.at.append(start)
        self.took.append(end - start)

    def start(self):
        signal.signal(signal.SIGALRM, self._slice)
        signal.setitimer(signal.ITIMER_REAL, SLICE_PERIOD_S, SLICE_PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def measure(self, start, end):
        """(wall, at reference speed) for the operation from ``start`` to
        ``end``: the wall time less the slices run inside it, and that
        scaled by SLICE_NOMINAL_S over the mean slice time in the interval,
        widened by one period on each side so that it holds a slice."""
        inside = self.took[bisect.bisect_left(self.at, start):bisect.bisect_left(self.at, end)]
        lo = bisect.bisect_left(self.at, start - SLICE_PERIOD_S)
        hi = max(lo + 1, bisect.bisect_left(self.at, end + SLICE_PERIOD_S))
        wall = end - start - sum(inside)
        return wall, wall * SLICE_NOMINAL_S / statistics.fmean(self.took[lo:hi])


class Checks:
    def __init__(self):
        self.items = []

    def add(self, name, ok, detail=""):
        self.items.append({"name": name, "ok": bool(ok), "detail": detail})

    def run(self, name, fn):
        """Record ``fn()``'s (ok, detail); an exception fails the check."""
        try:
            ok, detail = fn()
        except Exception:
            ok, detail = False, traceback.format_exc(limit=3)
        self.add(name, ok, detail)

    @property
    def failed(self):
        return sum(1 for c in self.items if not c["ok"])


# --- train workloads ---


def train_setup(args):
    from semtrace import harness, scheduler

    problems = harness.load_problems(Path(args.inputs) / "problems.jsonl")
    config = harness.RunConfig(seed=args.seed, max_steps=args.size, **TRAIN_SHAPES[args.workload])
    scheduler.Trainer(config, problems)
    return problems, config


def train_once(config, problems, run_dir):
    """Run the loop once; returns (per-step (start, end) times, the whole
    call's (start, end), error)."""
    from semtrace import scheduler

    starts = []
    inner = scheduler.Trainer.run_step

    def timed_run_step(self):
        starts.append(clock())
        return inner(self)

    scheduler.Trainer.run_step = timed_run_step
    error = None
    start = clock()
    try:
        scheduler.run_training(config, problems, run_dir)
    except Exception:
        error = traceback.format_exc(limit=5)
    finally:
        end = clock()
        scheduler.Trainer.run_step = inner
    # a step lasts from its run_step call to the next one, so it includes
    # the metrics write and any checkpoint that follow it
    return list(zip(starts, starts[1:] + [end])), (start, end), error


def resume(config, problems, ckpt):
    """Build a Trainer and load ``ckpt``; returns ((start, end), trainer)."""
    from semtrace import scheduler

    start = clock()
    trainer = scheduler.Trainer(config, problems)
    trainer.load_checkpoint(ckpt)
    return (start, clock()), trainer


def timed_resumes(config, problems, ckpt, sampler):
    """Resume as many times as fit in RELOAD_BUDGET_S of wall time (at least
    three, at most ten).  Returns each resume's (wall, at reference speed)
    and the last resumed trainer."""
    times, trainer = [], None
    while len(times) < 3 or (sum(t for t, _ in times) < RELOAD_BUDGET_S and len(times) < 10):
        trainer = None  # so that peak_rss_mb counts one resumed trainer, not two
        span, trainer = resume(config, problems, ckpt)
        times.append(sampler.measure(*span))
    return times, trainer


def reference_reward(program, tests, report):
    """Re-score with the big-step reference evaluator.  It has no step
    budget, so a test the step interpreter ran out of budget on is unmatched
    without running it."""
    from semtrace import rewards, tracer

    for tc, outcome in zip(tests, report.per_test):
        if outcome.status == tracer.STATUS_BUDGET:
            return 0
        try:
            value, _ = tracer.reference_evaluate(program, list(tc.input))
        except (tracer.MimRuntimeError, tracer.ReferenceTimeout):
            return 0
        if not rewards.matches_expected(value, tc.expected):
            return 0
    return 1


def train_checks(checks, args, config, problems, run_dir, trainer):
    import numpy as np
    from semtrace import grpo, lang, rewards

    steps = config.max_steps
    ckpt = run_dir / "checkpoints" / ("step_%d" % steps)
    metrics_path = run_dir / "metrics.jsonl"

    def one_record_per_step():
        records = [json.loads(line) for line in metrics_path.read_text("utf-8").splitlines()]
        return [r["step"] for r in records] == list(range(1, steps + 1)), "%d records" % len(records)

    def resume_revalidated():
        saved = sum(1 for line in (ckpt / "buffer.jsonl").read_text("utf-8").splitlines() if line.strip())
        ok = trainer is not None and trainer.step == steps and len(trainer.buffer) == saved
        return ok, "%d buffered prompts re-traced" % saved

    def rescore(actions_for, label):
        def check():
            bad = []
            for problem in problems:
                program = lang.instantiate_template(problem.template, actions_for(problem))
                report = rewards.gen_reward(program, problem.tests, budget=config.step_budget)
                ref = reference_reward(program, problem.tests, report)
                if report.reward != ref or (label == "truth" and ref != 1):
                    bad.append("%s: gen_reward %d, reference %d" % (problem.problem_id, report.reward, ref))
            return not bad, "; ".join(bad) or "%d problems" % len(problems)

        return check

    policy = grpo.TemplatePolicy()
    policy.load(ckpt / "code_policy.bin")
    truth = json.loads((Path(args.inputs) / "truth.json").read_text("utf-8"))

    checks.run("metrics.jsonl has one record per step", one_record_per_step)
    checks.run("resume re-validated every buffered prompt", resume_revalidated)
    checks.run(
        "argmax-policy programs: gen_reward equals the reference re-score",
        rescore(lambda p: [int(np.argmax(v)) for v in policy.params[p.problem_id]], "argmax"),
    )
    checks.run(
        "generator's truth programs score 1 under gen_reward and the reference",
        rescore(lambda p: truth[p.problem_id], "truth"),
    )


def run_train(args, result, checks):
    work = Path(args.work)
    recorder = tracing.Recorder() if args.trace else None
    undo = tracing.install(recorder) if args.trace else []
    problems, config = train_setup(args)
    setup_done(args, result)
    tracing.uninstall(undo)

    run_dir = work / "run"
    steps, (start, end), error = train_once(config, problems, run_dir)
    checks.add("training ran every step without raising", error is None and len(steps) == config.max_steps,
               error or "%d steps" % len(steps))
    scored = config.max_steps * config.batch_size * config.group_size
    ckpt = run_dir / "checkpoints" / ("step_%d" % config.max_steps)
    trainer = None
    if error is None and args.trace:
        undo = tracing.install(recorder)
        traced_dir = work / "traced"
        try:
            _, (traced_start, traced_end), traced_error = train_once(config, problems, traced_dir)
            if traced_error is None:
                _, trainer = resume(config, problems, traced_dir / "checkpoints" / ckpt.name)
        finally:
            tracing.uninstall(undo)
        checks.add("traced training ran without raising", traced_error is None, traced_error or "")
        checks.add(
            "traced run's metrics.jsonl is byte-identical to the untraced run's",
            (traced_dir / "metrics.jsonl").read_bytes() == (run_dir / "metrics.jsonl").read_bytes(),
        )
        result["trace"] = finish_trace(recorder, args, (traced_end - traced_start) / (end - start))
        result["properties"] = train_properties(args.workload, result["trace"])
    elif error is None:
        reloads, trainer = timed_resumes(config, problems, ckpt, args.sampler)
        wall_steps, ref_steps = zip(*(args.sampler.measure(*span) for span in steps))
        wall_total, ref_total = args.sampler.measure(start, end)
        result["metrics"] = {
            "step_s_p50": percentile(ref_steps, 50),
            "scored_per_s": scored / ref_total,
        }
        result["extra"].update(wall_step_s_p50=percentile(wall_steps, 50), wall_scored_per_s=scored / wall_total,
                               wall_reload_s=statistics.median(t for t, _ in reloads))
        result["samples"] = {"step_s": ref_steps, "wall_step_s": wall_steps, "reload_s": [t for _, t in reloads]}
    result["peak_rss_mb"] = peak_rss_mb()

    if error is None:
        train_checks(checks, args, config, problems, run_dir, trainer)
        result["extra"]["metrics_sha256"] = hashlib.sha256((run_dir / "metrics.jsonl").read_bytes()).hexdigest()
    result["attempted"] = config.max_steps + len(checks.items)
    result["failed"] = checks.failed


def train_properties(workload, trace):
    m = {k: v["value"] for k, v in trace["per_layer"].items()}
    ratio = m["rewards.gen_reward_distinct_ratio"]
    if workload == "train-repeat":
        return [{"name": "rewards.gen_reward_distinct_ratio < 0.05", "ok": ratio < 0.05, "value": ratio}]
    shares = {layer: m[layer + ".self_s"] for layer in tracing.LAYERS}
    top = max(shares, key=shares.get)
    statuses = [m["tracer.status." + s] for s in ("returned", "runtime_error", "budget_exceeded")]
    return [
        {"name": "rewards.gen_reward_distinct_ratio > 0.8", "ok": ratio > 0.8, "value": ratio},
        {"name": "all three tracer statuses occur", "ok": min(statuses) > 0, "value": statuses},
        {"name": "tracer has the largest layer self time", "ok": top == "tracer", "value": top},
    ]


# --- tools workload ---


def run_tools(args, result, checks):
    import numpy as np
    from semtrace import evalsuite, fuzz, probe

    recorder = tracing.Recorder() if args.trace else None
    inputs = Path(args.inputs)
    spec = json.loads((inputs / "spec.json").read_text("utf-8"))
    setup_done(args, result)

    def rounds():
        out = []
        for r in range(args.size):
            t0 = clock()
            campaign = fuzz.differential_campaign(TOOLS_FUZZ_PROGRAMS, seed=args.seed * 1_000_003 + r)
            t1 = clock()
            items = evalsuite.load_eval_items(inputs / "items.jsonl")
            t2 = clock()
            report = evalsuite.run_eval(items, evalsuite.oracle_predictor_for(items))
            t3 = clock()
            samples = probe.load_feature_dir(inputs / "features")
            t4 = clock()
            sweep = probe.probe_sweep(samples, spec["probe_layers"], rng=np.random.default_rng([args.seed, r]))
            t5 = clock()
            out.append({
                "times": (t0, t1, t2, t3, t4, t5),
                "mismatches": campaign.mismatches,
                "items": len(items),
                "not_exact": [i.item_id for i in report.items if not i.exact],
                "sweep": sweep,
            })
        return out

    done = rounds()
    n_items = sum(r["items"] for r in done)
    round_s = [r["times"][5] - r["times"][0] for r in done]
    scored = args.size * TOOLS_FUZZ_PROGRAMS + n_items
    if args.trace:
        undo = tracing.install(recorder)
        try:
            start = clock()
            done = rounds()
            traced_total = clock() - start
        finally:
            tracing.uninstall(undo)
        result["trace"] = finish_trace(recorder, args, traced_total / sum(round_s))
        per_layer = result["trace"]["per_layer"]
        ran = [layer for layer in ("grpo", "scheduler") if per_layer[layer + ".self_s"]["value"]]
        result["properties"] = [{"name": "no grpo or scheduler code runs", "ok": not ran, "value": ran}]
    else:
        measure = args.sampler.measure
        wall_rounds, ref_rounds = zip(*(measure(r["times"][0], r["times"][5]) for r in done))
        reloads = [[a + b for a, b in zip(measure(*r["times"][1:3]), measure(*r["times"][3:5]))] for r in done]
        result["metrics"] = {
            "step_s_p50": percentile(ref_rounds, 50),
            "scored_per_s": scored / sum(ref_rounds),
        }
        result["extra"].update(
            wall_step_s_p50=percentile(wall_rounds, 50),
            wall_scored_per_s=scored / sum(wall_rounds),
            wall_reload_s=statistics.median(t for t, _ in reloads),
            fuzz_programs_per_s=args.size * TOOLS_FUZZ_PROGRAMS / sum(r["times"][1] - r["times"][0] for r in done),
            eval_items_per_s=n_items / sum(r["times"][3] - r["times"][1] for r in done),
            probe_sweep_s=statistics.median(r["times"][5] - r["times"][3] for r in done),
        )
        result["samples"] = {"step_s": ref_rounds, "wall_step_s": wall_rounds, "reload_s": [t for _, t in reloads]}
    result["peak_rss_mb"] = peak_rss_mb()

    signal_layer = spec["signal_layer"]

    def probe_ok(sweep):
        test = {layer: v["test_mse"] for layer, v in sweep.items()}
        return all(math.isfinite(v) for v in test.values()) and all(
            test[signal_layer] < v for layer, v in test.items() if layer != signal_layer
        )

    mismatches = [m for r in done for m in r["mismatches"]]
    not_exact = [i for r in done for i in r["not_exact"]]
    probe_bad = [k for k, r in enumerate(done) if not probe_ok(r["sweep"])]
    checks.add("differential campaign has 0 mismatches", not mismatches, "; ".join(mismatches[:5]))
    checks.add("oracle Exact@1 is 1.0", not not_exact, ", ".join(not_exact[:10]))
    checks.add("probe test MSE is finite and the signal layer beats every noise layer", not probe_bad,
               "failing rounds %s" % probe_bad if probe_bad else "")
    result["attempted"] = scored + args.size
    result["failed"] = len(mismatches) + len(not_exact) + len(probe_bad)


# --- shared ---


def finish_trace(recorder, args, overhead):
    recorder.dump(Path(args.work) / "spans.npz")
    per_layer = tracing.layer_metrics(recorder)
    per_layer["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
    per_layer["trace.spans"] = {"value": float(len(recorder.span_start)), "unit": "count"}
    return {"per_layer": per_layer, "spans_file": str(Path(args.work) / "spans.npz")}


def setup_done(args, result):
    """Record setup_s, from the parent's ``--t0`` to now: at reference speed
    and as measured, untraced; as measured, traced."""
    end = clock()
    start = end - (time.monotonic() - args.t0)
    if args.sampler:
        result["extra"]["wall_setup_s"], result["setup_s"] = args.sampler.measure(start, end)
    else:
        result["setup_s"] = end - start


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("train-repeat", "train-loops", "tools"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", type=int, required=True)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    # the sampler's slices would sit inside the traced run's spans
    args.sampler = None if args.trace else SpeedSampler()
    if args.sampler:
        args.sampler.start()
    Path(args.work).mkdir(parents=True, exist_ok=True)
    result = {"workload": args.workload, "extra": {}, "metrics": {}}
    checks = Checks()
    try:
        if args.workload == "tools":
            run_tools(args, result, checks)
        else:
            run_train(args, result, checks)
    finally:
        if args.sampler:
            args.sampler.stop()
    if args.sampler:
        result["extra"]["slice_s"] = statistics.median(args.sampler.took)
    result["checks"] = checks.items
    result["numpy"] = sys.modules["numpy"].__version__
    Path(args.result).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
