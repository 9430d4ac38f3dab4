"""Input generator for the benchmark workloads.

Runs in its own process, before the workload process, so that the program
under test receives only files and the generator's memory is not counted in
the workload's peak RSS.  The same ``--workload``/``--seed`` pair always
writes byte-identical files.

    python3 perfbench/gen.py --workload train-repeat --seed 1 --out DIR

Train workloads get ``problems.jsonl`` (the dataset format ``load_problems``
reads) and ``truth.json`` (the hole choices each problem's tests were derived
from, read only by the correctness checks).  Expected outputs are computed
here in plain Python, independently of the MiniImp interpreter.  The
``tools`` workload gets an eval-items file built from fuzzed programs and a
directory of per-layer probe feature files.
"""

from __future__ import annotations

import argparse
import json
import operator
import random
import sys
from pathlib import Path

ARITH_OPS = ("+", "-", "*")
PY_OPS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "%": operator.mod,
    "//": operator.floordiv,
    "<": operator.lt,
    ">": operator.gt,
    "<=": operator.le,
    ">=": operator.ge,
    "!=": operator.ne,
    "==": operator.eq,
}

# train-repeat: one-hole arithmetic (vocabulary 3) ...
ARITH_SRC = """fn a{idx}(a, b) {{
    t = a __HOLE_1__ b
    r = t + {c}
    return r
}}
"""

# ... and three-hole folds over short lists (27 programs per template).
FOLD_SRC = """fn s{idx}(xs, m) {{
    acc = __HOLE_1__
    for i in range(0, len(xs)) {{
        acc = acc __HOLE_2__ xs[i]
    }}
    return acc __HOLE_3__ m
}}
"""
FOLD_HOLES = (("0", "1", "m"), ARITH_OPS, ARITH_OPS)

# train-loops: filter-then-rewrite over 40-80 element lists, 6 choices per
# hole.  The last choice of holes 1, 3 and 4 fails at run time: "/" makes
# floats that the integer-only ops of hole 3 reject, "out[j + 1]" indexes
# past the end, and "j" never advances, so the loop runs until the step
# budget is gone.  Truth choices are drawn below TRUTH_LIMIT; "==" is left
# out so that the truth program's filter keeps about half of each input.
LOOPS_SRC = """fn w{idx}(xs, m) {{
    out = []
    for i in range(0, len(xs)) {{
        v = xs[i] __HOLE_1__ m
        if v __HOLE_2__ {c} {{
            append(out, v)
        }}
    }}
    j = 0
    while j < len(out) {{
        out[j] = __HOLE_3__
        j = __HOLE_4__
    }}
    return out
}}
"""
LOOPS_H1 = ("+", "-", "*", "%", "//", "/")
LOOPS_H2 = ("<", ">", "<=", ">=", "!=", "==")
LOOPS_H3 = ("out[j] + {d}", "out[j] * {d}", "out[j] - m", "out[j] % {d}", "out[j] // {d}", "out[j] + out[j + 1]")
LOOPS_H4 = ("j + 1", "j + 2", "j + 3", "j + {s}", "len(out)", "j")
LOOPS_TRUTH_LIMIT = (5, 5, 5, 5)

TOOLS_EVAL_ITEMS = 150
TOOLS_PROBE_LAYERS = 4
TOOLS_PROBE_SIGNAL_LAYER = 1
TOOLS_PROBE_PROBLEMS = 8
TOOLS_PROBE_RECORDS = 2400
TOOLS_PROBE_DIM = 16
TOOLS_PROBE_GAIN = 22.0  # see semtrace.probe.SIGNAL_GAIN


def _problem(pid, source, holes, tests):
    return {
        "id": pid,
        "template": {"source": source, "holes": [list(h) for h in holes]},
        "tests": [{"input": list(inp), "expected": exp} for inp, exp in tests],
    }


def _arith_problem(rng, idx):
    c = rng.randint(1, 20)
    truth = rng.randrange(3)
    op = PY_OPS[ARITH_OPS[truth]]
    tests = []
    for _ in range(4):
        a, b = rng.randint(3, 30), rng.randint(3, 30)
        tests.append(([a, b], op(a, b) + c))
    source = ARITH_SRC.format(idx=idx, c=c)
    return _problem("a%02d" % idx, source, (ARITH_OPS,), tests), [truth]


def _fold_problem(rng, idx, lengths):
    truth = [rng.randrange(len(h)) for h in FOLD_HOLES]
    tests = []
    for n in lengths:
        xs = [rng.randint(1, 9) for _ in range(n)]
        m = rng.randint(1, 9)
        acc = (0, 1, m)[truth[0]]
        for x in xs:
            acc = PY_OPS[ARITH_OPS[truth[1]]](acc, x)
        tests.append(([xs, m], PY_OPS[ARITH_OPS[truth[2]]](acc, m)))
    return _problem("s%02d" % idx, FOLD_SRC.format(idx=idx), FOLD_HOLES, tests), truth


def _loops_eval(xs, m, c, d, s, truth):
    h1, h2, h3, h4 = truth
    out = []
    for x in xs:
        v = PY_OPS[LOOPS_H1[h1]](x, m)
        if PY_OPS[LOOPS_H2[h2]](v, c):
            out.append(v)
    j = 0
    while j < len(out):
        out[j] = (out[j] + d, out[j] * d, out[j] - m, out[j] % d, out[j] // d)[h3]
        j = (j + 1, j + 2, j + 3, j + s, len(out))[h4]
    return out


def _loops_problem(rng, idx, lengths):
    d, s = rng.randint(2, 9), rng.randint(4, 6)
    truth = [rng.randrange(n) for n in LOOPS_TRUTH_LIMIT]
    inputs = [([rng.randint(1, 99) for _ in range(n)], rng.randint(2, 9)) for n in lengths]
    # the filter threshold is the median of the first test's values, so the
    # truth program keeps about half of every input
    xs, m = inputs[0]
    c = sorted(PY_OPS[LOOPS_H1[truth[0]]](x, m) for x in xs)[len(xs) // 2]
    tests = [([xs, m], _loops_eval(xs, m, c, d, s, truth)) for xs, m in inputs]
    holes = (LOOPS_H1, LOOPS_H2, tuple(h.format(d=d) for h in LOOPS_H3), tuple(h.format(s=s) for h in LOOPS_H4))
    return _problem("w%02d" % idx, LOOPS_SRC.format(idx=idx, c=c), holes, tests), truth


def _spread_lengths(rng, lo, hi, problems, tests):
    """Input lengths spread evenly over [lo, hi] and shuffled, so every seed
    gives the same total input size and seeds differ only in content."""
    count = problems * tests
    lengths = [lo + (hi - lo) * k // (count - 1) for k in range(count)]
    rng.shuffle(lengths)
    return [lengths[k * tests:(k + 1) * tests] for k in range(problems)]


def train_repeat_problems(seed):
    rng = random.Random("train-repeat:%d" % seed)
    made = [_arith_problem(rng, k) for k in range(24)]
    made += [_fold_problem(rng, k, n) for k, n in enumerate(_spread_lengths(rng, 3, 5, 8, 4))]
    return [p for p, _ in made], {p["id"]: t for p, t in made}


def train_loops_problems(seed):
    rng = random.Random("train-loops:%d" % seed)
    made = [_loops_problem(rng, k, n) for k, n in enumerate(_spread_lengths(rng, 40, 80, 32, 2))]
    return [p for p, _ in made], {p["id"]: t for p, t in made}


def _write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def write_train_inputs(workload, seed, out):
    make = train_repeat_problems if workload == "train-repeat" else train_loops_problems
    problems, truth = make(seed)
    _write_jsonl(out / "problems.jsonl", problems)
    (out / "truth.json").write_text(json.dumps(truth, sort_keys=True) + "\n", encoding="utf-8")


def write_tools_inputs(seed, out):
    import numpy as np

    from semtrace.evalsuite import build_eval_item
    from semtrace.fuzz import ProgramFuzzer
    from semtrace.lang import format_program
    from semtrace.probe import write_feature_file

    fuzzer = ProgramFuzzer(np.random.default_rng([seed, 1]))
    items = []
    for k in range(TOOLS_EVAL_ITEMS):
        program = fuzzer.program()
        inputs = fuzzer.inputs_for(program)
        item = build_eval_item("item%d" % k, program, inputs)
        items.append({"id": item.item_id, "source": format_program(program), "input": inputs, "variables": item.variables})
    _write_jsonl(out / "items.jsonl", items)

    rng = np.random.default_rng([seed, 2])
    targets = rng.uniform(-5.0, 5.0, size=TOOLS_PROBE_RECORDS)
    keys = [("p%d" % (k % TOOLS_PROBE_PROBLEMS), "v%d" % k, float(y)) for k, y in enumerate(targets)]
    features = out / "features"
    features.mkdir(exist_ok=True)
    for layer in range(TOOLS_PROBE_LAYERS):
        if layer == TOOLS_PROBE_SIGNAL_LAYER:
            vecs = np.zeros((len(keys), TOOLS_PROBE_DIM))
            vecs[:, 0] = targets * TOOLS_PROBE_GAIN
        else:
            vecs = rng.normal(size=(len(keys), TOOLS_PROBE_DIM))
        records = [(pid, var, y, vec) for (pid, var, y), vec in zip(keys, vecs)]
        write_feature_file(features / ("layer_%d.bin" % layer), layer, records)
    spec = {"probe_layers": list(range(TOOLS_PROBE_LAYERS)), "signal_layer": TOOLS_PROBE_SIGNAL_LAYER}
    (out / "spec.json").write_text(json.dumps(spec, sort_keys=True) + "\n", encoding="utf-8")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("train-repeat", "train-loops", "tools"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.workload == "tools":
        write_tools_inputs(args.seed, out)
    else:
        write_train_inputs(args.workload, args.seed, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
