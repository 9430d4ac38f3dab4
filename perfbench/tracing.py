"""Spans around calls into semtrace's modules, for the traced benchmark run.

:class:`Recorder` wraps a function so that each call opens a span (name,
start, end, parent span) and, on return, hands the arguments, the result and
the call's duration to an optional observer that updates counters.  A
wrapper returns exactly what the wrapped function returns and re-raises
whatever it raises.  :func:`install` replaces a function at every name its
callers look it up by: each ``semtrace`` module global bound to the same
object, so ``semtrace.scheduler.gen_reward`` and ``semtrace.rewards.gen_reward``
are both covered.  Nothing under ``src/`` changes; the wrappers are removed
again by :func:`uninstall`.

Spans stay in memory (four flat arrays) and are written out by
:meth:`Recorder.dump` when the workload ends.  A span's self time is its
duration minus the time its child spans cover; a layer's self time is the
sum over its spans.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("lang", "tracer", "rewards", "grpo", "scheduler", "harness", "evalsuite", "fuzz", "probe")


class Recorder:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self._stack = []  # [span index, time covered by children]
        self._active = Counter()  # open spans per name, so recursion is not double counted
        self.calls = Counter()
        self.incl_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(float)
        self.distinct = defaultdict(set)

    def wrap(self, name, fn, observe=None):
        """Return a wrapper of ``fn`` that records a span called ``name``."""
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.span_start)
            self.span_name.append(name_id)
            self.span_parent.append(self._stack[-1][0] if self._stack else -1)
            self.span_end.append(0.0)
            frame = [index, 0.0]
            self._stack.append(frame)
            self._active[name] += 1
            self.calls[name] += 1
            start = clock()
            self.span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self.span_end[index] = end
                self._stack.pop()
                duration = end - start
                self.self_s[name] += duration - frame[1]
                self._active[name] -= 1
                if not self._active[name]:
                    self.incl_s[name] += duration
                if self._stack:
                    self._stack[-1][1] += duration
            if observe is not None:
                observe(self, args, kwargs, result, duration)
            return result

        return wrapper

    def layer_self_s(self, layer):
        return sum(t for name, t in self.self_s.items() if name.split(".", 1)[0] == layer)

    def dump(self, path):
        """Write every span to ``path`` as a compressed numpy archive."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
        )


# --- observers: counts taken at the same boundaries as the spans ---


def _arg(args, kwargs, pos, key, default=None):
    if key in kwargs:
        return kwargs[key]
    return args[pos] if len(args) > pos else default


def _observe_execute(rec, args, kwargs, result, duration):
    mode = _arg(args, kwargs, 3, "mode", "summary")
    rec.counters["tracer.steps"] += result.steps_used
    rec.counters["tracer.steps." + mode] += result.steps_used
    rec.counters["tracer.time." + mode] += duration
    rec.counters["tracer.status." + result.status] += 1


def _observe_instantiate(rec, args, kwargs, result, duration):
    template, choices = args[0], _arg(args, kwargs, 1, "choices")
    rec.distinct["lang.instantiations"].add(hash((template.template_source, tuple(choices))))


def _observe_gen_reward(rec, args, kwargs, result, duration):
    rec.distinct["rewards.gen_reward"].add((hash(args[0]), id(_arg(args, kwargs, 1, "tests"))))


def _observe_sample_rollouts(rec, args, kwargs, result, duration):
    rec.counters["grpo.decode_failures"] += sum(1 for s in result.samples if s.artifact is None)


def _observe_harvest(rec, args, kwargs, result, duration):
    added, ineligible = result
    rec.counters["scheduler.harvest_added"] += added
    rec.counters["scheduler.harvest_ineligible"] += ineligible
    rec.counters["scheduler.harvest_zero_reward"] += sum(1 for s in args[0].samples if float(s.reward) == 0.0)


def _observe_save_checkpoint(rec, args, kwargs, result, duration):
    rec.counters["scheduler.checkpoint_bytes"] += sum(p.stat().st_size for p in Path(result).iterdir())


def _observe_load_checkpoint(rec, args, kwargs, result, duration):
    rec.counters["scheduler.align_prompts_registered"] = len(args[0].align_policy.params)


def _observe_write(rec, args, kwargs, result, duration):
    rec.counters["harness.bytes_written"] += len(_arg(args, kwargs, 1, "text").encode("utf-8"))


def _observe_run_eval(rec, args, kwargs, result, duration):
    rec.counters["evalsuite.items"] += len(result.items)
    rec.counters["evalsuite.exact"] += sum(1 for r in result.items if r.exact)


def _observe_campaign(rec, args, kwargs, result, duration):
    rec.counters["fuzz.total"] += result.total
    rec.counters["fuzz.returned"] += result.returned
    rec.counters["fuzz.mismatches"] += len(result.mismatches)


def _observe_read_features(rec, args, kwargs, result, duration):
    rec.counters["probe.records"] += len(result[1])


# (dotted path of the function, observer).  The span name is the path with
# the leading "semtrace." and any "lang.<submodule>." narrowed to "lang.".
TARGETS = (
    ("semtrace.lang.parser.parse_program", None),
    ("semtrace.lang.parser.tokenize", None),
    ("semtrace.lang.template.instantiate_template", _observe_instantiate),
    ("semtrace.lang.formatter.format_program", None),
    ("semtrace.tracer.execute", _observe_execute),
    ("semtrace.tracer.reference_evaluate", None),
    ("semtrace.rewards.gen_reward", _observe_gen_reward),
    ("semtrace.rewards.sem_reward", None),
    ("semtrace.grpo.sample_rollouts", _observe_sample_rollouts),
    ("semtrace.grpo.surrogate_and_grad", None),
    ("semtrace.grpo.train_step", None),
    ("semtrace.grpo.candidate_value_pool", None),
    ("semtrace.scheduler.Trainer.run_step", None),
    ("semtrace.scheduler.harvest_failures", _observe_harvest),
    ("semtrace.scheduler.Trainer.save_checkpoint", _observe_save_checkpoint),
    ("semtrace.scheduler.Trainer.load_checkpoint", _observe_load_checkpoint),
    ("semtrace.harness.atomic_write_text", _observe_write),
    ("semtrace.harness.load_problems", None),
    ("semtrace.evalsuite.load_eval_items", None),
    ("semtrace.evalsuite.build_prompt", None),
    ("semtrace.evalsuite.score_item", None),
    ("semtrace.evalsuite.run_eval", _observe_run_eval),
    ("semtrace.fuzz.ProgramFuzzer.program", None),
    ("semtrace.fuzz.differential_campaign", _observe_campaign),
    ("semtrace.probe.load_feature_dir", None),
    ("semtrace.probe.read_feature_file", _observe_read_features),
    ("semtrace.probe.probe_sweep", None),
    ("semtrace.probe.train_probe", None),
)

MODULES = tuple("semtrace." + layer for layer in LAYERS)


def span_name(path):
    parts = path.split(".")[1:]
    if parts[0] == "lang":
        parts = ["lang"] + parts[2:]
    return ".".join(parts)


def _resolve(path):
    """(owner, attribute, value) for a dotted module or class attribute."""
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:-1]:
            owner = getattr(owner, attr)
        return owner, parts[-1], owner.__dict__[parts[-1]]
    raise ValueError("cannot resolve %s" % path)


def install(recorder):
    """Wrap every target at every binding; returns the undo list."""
    for name in MODULES:
        importlib.import_module(name)
    undo = []
    for path, observe in TARGETS:
        owner, attr, fn = _resolve(path)
        wrapper = recorder.wrap(span_name(path), fn, observe)
        if isinstance(owner, type):
            undo.append((owner, attr, fn))
            setattr(owner, attr, wrapper)
            continue
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] != "semtrace" or module is None:
                continue
            for key, value in list(vars(module).items()):
                if value is fn:
                    undo.append((module, key, fn))
                    setattr(module, key, wrapper)
    return undo


def uninstall(undo):
    for owner, attr, fn in reversed(undo):
        setattr(owner, attr, fn)


# --- per-layer metrics: (name, unit, better, value from a recorder) ---


def _ratio(a, b):
    return a / b if b else 0.0


def _metric_table():
    def calls(name):
        return lambda r: r.calls[name]

    def incl(name):
        return lambda r: r.incl_s[name]

    def count(key):
        return lambda r: r.counters[key]

    def per_call_us(name):
        return lambda r: _ratio(r.incl_s[name], r.calls[name]) * 1e6

    def steps_per_s(mode):
        return lambda r: _ratio(r.counters["tracer.steps." + mode], r.counters["tracer.time." + mode])

    table = [
        ("lang.parse_calls", "count", "lower", calls("lang.parse_program")),
        ("lang.parse_s", "s", "lower", incl("lang.parse_program")),
        ("lang.tokenize_s", "s", "lower", incl("lang.tokenize")),
        ("lang.parse_us_per_call", "us", "lower", per_call_us("lang.parse_program")),
        ("lang.distinct_ratio", "ratio", "higher",
         lambda r: _ratio(len(r.distinct["lang.instantiations"]), r.calls["lang.instantiate_template"])),
        ("lang.format_s", "s", "lower", incl("lang.format_program")),
        ("tracer.execute_calls", "count", "lower", calls("tracer.execute")),
        ("tracer.execute_s", "s", "lower", incl("tracer.execute")),
        ("tracer.steps", "count", "lower", count("tracer.steps")),
        ("tracer.steps_per_s_summary", "1/s", "higher", steps_per_s("summary")),
        ("tracer.steps_per_s_full", "1/s", "higher", steps_per_s("full")),
        ("tracer.status.returned", "count", "higher", count("tracer.status.returned")),
        ("tracer.status.runtime_error", "count", "lower", count("tracer.status.runtime_error")),
        ("tracer.status.budget_exceeded", "count", "lower", count("tracer.status.budget_exceeded")),
        ("tracer.reference_calls", "count", "lower", calls("tracer.reference_evaluate")),
        ("tracer.reference_s", "s", "lower", incl("tracer.reference_evaluate")),
        ("rewards.gen_reward_calls", "count", "lower", calls("rewards.gen_reward")),
        ("rewards.gen_reward_s", "s", "lower", incl("rewards.gen_reward")),
        ("rewards.gen_reward_distinct_ratio", "ratio", "higher",
         lambda r: _ratio(len(r.distinct["rewards.gen_reward"]), r.calls["rewards.gen_reward"])),
        ("rewards.sem_reward_s", "s", "lower", incl("rewards.sem_reward")),
        ("grpo.sample_rollouts_s", "s", "lower", lambda r: r.self_s["grpo.sample_rollouts"]),
        ("grpo.decode_failures", "count", "lower", count("grpo.decode_failures")),
        ("grpo.surrogate_us_per_group", "us", "lower", per_call_us("grpo.surrogate_and_grad")),
        ("grpo.train_step_s", "s", "lower", incl("grpo.train_step")),
        ("grpo.candidate_pool_s", "s", "lower", incl("grpo.candidate_value_pool")),
        ("scheduler.run_step_self_s", "s", "lower", lambda r: r.self_s["scheduler.Trainer.run_step"]),
        ("scheduler.harvest_s", "s", "lower", incl("scheduler.harvest_failures")),
        ("scheduler.harvest_added", "count", "higher", count("scheduler.harvest_added")),
        ("scheduler.harvest_ineligible", "count", "lower", count("scheduler.harvest_ineligible")),
        ("scheduler.harvest_yield", "ratio", "higher",
         lambda r: _ratio(r.counters["scheduler.harvest_added"], r.counters["scheduler.harvest_zero_reward"])),
        ("scheduler.save_checkpoint_s", "s", "lower", incl("scheduler.Trainer.save_checkpoint")),
        ("scheduler.checkpoint_bytes", "B", "lower", count("scheduler.checkpoint_bytes")),
        ("scheduler.load_checkpoint_s", "s", "lower", incl("scheduler.Trainer.load_checkpoint")),
        ("scheduler.align_prompts_registered", "count", "lower", count("scheduler.align_prompts_registered")),
        ("harness.write_calls", "count", "lower", calls("harness.atomic_write_text")),
        ("harness.bytes_written", "B", "lower", count("harness.bytes_written")),
        ("harness.write_s", "s", "lower", incl("harness.atomic_write_text")),
        ("harness.load_problems_s", "s", "lower", incl("harness.load_problems")),
        ("evalsuite.load_items_s", "s", "lower", incl("evalsuite.load_eval_items")),
        ("evalsuite.build_prompt_s", "s", "lower", incl("evalsuite.build_prompt")),
        ("evalsuite.score_s", "s", "lower", incl("evalsuite.score_item")),
        ("evalsuite.exact_at_1", "ratio", "higher",
         lambda r: _ratio(r.counters["evalsuite.exact"], r.counters["evalsuite.items"])),
        ("fuzz.generate_s", "s", "lower", incl("fuzz.ProgramFuzzer.program")),
        ("fuzz.programs", "count", "higher", calls("fuzz.ProgramFuzzer.program")),
        ("fuzz.returned_ratio", "ratio", "higher",
         lambda r: _ratio(r.counters["fuzz.returned"], r.counters["fuzz.total"])),
        ("fuzz.mismatches", "count", "lower", count("fuzz.mismatches")),
        ("probe.load_s", "s", "lower", incl("probe.load_feature_dir")),
        ("probe.records_per_s", "1/s", "higher",
         lambda r: _ratio(r.counters["probe.records"], r.incl_s["probe.load_feature_dir"])),
        ("probe.train_s", "s", "lower", incl("probe.train_probe")),
    ]
    for layer in LAYERS:
        table.append(("%s.self_s" % layer, "s", "lower", (lambda layer: lambda r: r.layer_self_s(layer))(layer)))
    return table


PER_LAYER = _metric_table()

# Which end-to-end metric each per-layer metric should move, on which
# workload ("=" predicts no change).  Recorded in every result file.
LAYER_MAP = {
    "lang.*": "scored_per_s and step_s_p50 on train-repeat; small or no change on train-loops",
    "tracer.execute_*, tracer.steps*, tracer.status.*": "scored_per_s, step_s_p50 and peak_rss_mb on train-loops",
    "tracer.steps_per_s_full, tracer.reference_*": "scored_per_s (fuzz programs/s) on tools",
    "rewards.*": "scored_per_s on train-repeat; no change on train-loops",
    "grpo.*": "step_s_p50 on train-repeat",
    "scheduler.run_step_self_s, scheduler.harvest_*": "step_s_p50 on train-repeat and train-loops",
    "scheduler.save_checkpoint_s, scheduler.checkpoint_bytes": "step_s_tail and scored_per_s on train-loops",
    "scheduler.load_checkpoint_s, scheduler.align_prompts_registered": "reload_s and peak_rss_mb on train-loops",
    "harness.write_*, harness.bytes_written": "scored_per_s and step_s_tail on train-repeat and train-loops",
    "harness.load_problems_s": "setup_s on train-repeat and train-loops",
    "evalsuite.*": "scored_per_s (eval items/s) and reload_s on tools",
    "fuzz.*": "scored_per_s (fuzz programs/s) on tools",
    "probe.*": "step_s_p50, reload_s and peak_rss_mb on tools",
}


def layer_metrics(recorder):
    out = {}
    for name, unit, _better, value in PER_LAYER:
        v = float(value(recorder))
        out[name] = {"value": v if math.isfinite(v) else 0.0, "unit": unit}
    return out
