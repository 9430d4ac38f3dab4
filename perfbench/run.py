"""Benchmark for the semtrace RLVR loop and the tools beside it.

    python3 perfbench/run.py --workload train-repeat --seed 1 --seconds 20 --trace 0

Run from the root of a semtrace checkout.  Generates the seeded inputs
(``gen.py``), runs the workload REPEATS times, each in a fresh process
(``workload.py``), and prints every metric; the last line is one JSON
object.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
from workload import percentile, tail_percentile

HERE = Path(__file__).resolve().parent

# Each run is REPEATS[workload] fresh workload processes, one after another,
# each doing a fixed amount of work: training steps or tool rounds.
# NOMINAL_RATE is work units per second of --seconds, summed over the repeats.
REPEATS = {"train-repeat": 4, "train-loops": 4, "tools": 4}
NOMINAL_RATE = {"train-repeat": 3.2, "train-loops": 2.0, "tools": 2.4}
MIN_SIZE = 8
DEADLINE_S = 170.0
OUT_DIR = ".bench_out"
# The end-to-end metrics (see combine).  The times and rates are at the
# reference speed (workload.at_reference_speed), in ref_s; setup_s is
# scaled too but keeps the unit s that BENCHMARK.json gives it.
E2E_UNITS = {
    "setup_s": "s",
    "step_s_p50": "ref_s",
    "step_s_tail": "ref_s",
    "scored_per_s": "1/ref_s",
    "reload_s": "ref_s",
    "peak_rss_mb": "MB",
}


class RunFailed(Exception):
    pass


def child_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(cmd, env, deadline, label):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunFailed("%s: out of time" % label)
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise RunFailed("%s: timed out" % label)  # subprocess.run kills and waits
    if proc.returncode != 0:
        raise RunFailed("%s exited with %d:\n%s" % (label, proc.returncode, proc.stderr.decode("utf-8", "replace")[-3000:]))


def environment(root, repeats):
    return {
        "src_lines": sum(len(p.read_bytes().splitlines()) for p in sorted((root / "src").rglob("*.py"))),
        "python": platform.python_version(),
        "numpy": repeats[0]["numpy"],
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def combine(repeats):
    """One result from the repeats: every check, the median over the
    repeats of each metric and numeric extra, and step_s_tail and reload_s
    over the steps and resumes (or rounds) of all repeats."""
    steps, reloads = ([t for rep in repeats for t in rep.get("samples", {}).get(key, [])]
                      for key in ("step_s", "reload_s"))
    for rep in repeats:
        rep["metrics"].update(setup_s=rep.pop("setup_s"), peak_rss_mb=rep.pop("peak_rss_mb"))
    result = {key: repeats[0][key] for key in ("workload", "extra", "trace", "properties") if key in repeats[0]}
    metrics = {name: statistics.median(rep["metrics"][name] for rep in repeats)
               for name in E2E_UNITS if all(name in rep["metrics"] for rep in repeats)}
    for name, value in result["extra"].items():
        if isinstance(value, float):
            result["extra"][name] = statistics.median(rep["extra"][name] for rep in repeats)
    if steps:
        p_tail = tail_percentile(len(steps))
        metrics.update(step_s_tail=percentile(steps, p_tail), reload_s=statistics.median(reloads))
        result["extra"].update(step_s_tail_percentile=p_tail, step_samples=len(steps), reload_samples=len(reloads))
    result["metrics"] = {name: {"value": metrics[name], "unit": unit} for name, unit in E2E_UNITS.items() if name in metrics}
    checks = {}
    for rep in repeats:
        for c in rep["checks"]:
            merged = checks.setdefault(c["name"], dict(c))
            if merged["ok"] and not c["ok"]:
                merged.update(ok=False, detail=c["detail"])
    result["attempted"] = sum(rep["attempted"] for rep in repeats)
    result["failed"] = sum(rep["failed"] for rep in repeats)
    digests = sorted({rep["extra"]["metrics_sha256"] for rep in repeats if "metrics_sha256" in rep["extra"]})
    if len(repeats) > 1 and digests:
        same = len(digests) == 1
        checks["determinism"] = {"name": "every repeat wrote a byte-identical metrics.jsonl", "ok": same,
                                 "detail": " ".join(digests)}
        result["attempted"] += 1
        result["failed"] += 0 if same else 1
    result["checks"] = list(checks.values())
    result["repeats"] = repeats
    return result


def run(args, root):
    deadline = time.monotonic() + DEADLINE_S
    if not (root / "src" / "semtrace" / "__init__.py").is_file():
        raise RunFailed("no src/semtrace here; run from the root of a semtrace checkout")
    env = child_env(root)
    count = 1 if args.trace else REPEATS[args.workload]
    size = max(MIN_SIZE, round(args.seconds * NOMINAL_RATE[args.workload] / REPEATS[args.workload]))
    label = "%s_seed%d%s" % (args.workload, args.seed, "_trace" if args.trace else "")
    out = root / OUT_DIR
    work = out / ("work-%s-%d" % (label, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    repeats = []
    try:
        run_child([sys.executable, str(HERE / "gen.py"), "--workload", args.workload, "--seed", str(args.seed),
                   "--out", str(work / "inputs")], env, deadline, "input generator")
        for k in range(count):
            rep_dir = work / ("repeat%d" % k)
            result_file = work / ("repeat%d.json" % k)
            run_child([sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
                       "--seed", str(args.seed), "--size", str(size), "--inputs", str(work / "inputs"),
                       "--work", str(rep_dir), "--result", str(result_file)]
                      + (["--trace"] if args.trace else []) + ["--t0", repr(time.monotonic())],
                      env, deadline, "workload")
            repeats.append(json.loads(result_file.read_text("utf-8")))
            if args.trace:
                spans = out / ("spans_%s.npz" % label)
                shutil.copyfile(repeats[-1]["trace"]["spans_file"], spans)
                repeats[-1]["trace"]["spans_file"] = str(spans.relative_to(root))
            shutil.rmtree(rep_dir, ignore_errors=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = combine(repeats)
    result.update(seed=args.seed, seconds=args.seconds, size=size, environment=environment(root, repeats),
                  layer_map=tracing.LAYER_MAP)
    out_file = out / ("BENCH_%s.json" % label)
    out_file.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return result, out_file.relative_to(root)


def report(args, result, out_file):
    ok = all(c["ok"] for c in result["checks"])
    print("workload %s  seed %d  %s  %d x size %d" % (
        args.workload, args.seed, "traced" if args.trace else "untraced", len(result["repeats"]), result["size"]))
    env = result["environment"]
    print("  src %d lines  python %s  numpy %s  nproc %s" % (env["src_lines"], env["python"], env["numpy"], env["nproc"]))
    for name, m in result["metrics"].items():
        if name in result["repeats"][0]["metrics"]:
            how = "median of " + " ".join("%.4g" % rep["metrics"][name] for rep in result["repeats"])
        else:
            how = "over the samples of all repeats"
        print("  %-22s %14.6g %-7s (%s)" % (name, m["value"], m["unit"], how))
    for name, value in result["extra"].items():
        print("  %-22s %s" % (name, value))
    print("  %-22s %.6g (%d failed of %d attempted)" % (
        "error_rate", result["failed"] / result["attempted"], result["failed"], result["attempted"]))
    for c in result["checks"]:
        print("check %s  %s%s" % ("PASS" if c["ok"] else "FAIL", c["name"], "" if c["ok"] else ": " + c["detail"]))
    if args.trace:
        for name, m in result["trace"]["per_layer"].items():
            print("  %-36s %14.6g %s" % (name, m["value"], m["unit"]))
        for p in result["properties"]:
            print("property %s  %s (%s)" % ("holds" if p["ok"] else "DOES NOT HOLD", p["name"], p["value"]))
    print("result file %s" % out_file)
    metrics = result["trace"]["per_layer"] if args.trace else result["metrics"]
    print(json.dumps({"correct": ok, "attempted": result["attempted"], "failed": result["failed"], "metrics": metrics}))
    return ok


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(NOMINAL_RATE))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path.cwd()
    try:
        result, out_file = run(args, root)
    except RunFailed as exc:
        print("benchmark could not run: %s" % exc, file=sys.stderr)
        return 2
    return 0 if report(args, result, out_file) else 1


if __name__ == "__main__":
    sys.exit(main())
