"""Trace-inference evaluation: the one trace-inference record (an alignment
prompt of the failure buffer or an item of the eval set) and its decoder,
the canonical answer line, strict prediction parsing, and Exact@1 scoring.

The canonical answer line is a single line of strict JSON with keys
"final_output" and "variables"; values are rendered by
:func:`semtrace.values.canonical_serialize`.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from functools import cache, cached_property, partial
from importlib import resources
from typing import Callable, Dict, List, Optional, Sequence

from .lang import Program, format_program, parse_program
from .rewards import matches_expected
from .tracer import DEFAULT_BUDGET, STATUS_RETURNED, ExecutionRecord, execute, traced_variables
from .values import (Value, canonical_serialize, decode_inputs, decode_json_value, encode_json_value, load_json,
                     read_jsonl, record_id, stored_int)


class MalformedPrediction(ValueError):
    pass


def serialize_record(final_output: Value, variables: Dict[str, Value]) -> str:
    """The canonical answer line: final output plus variables in V order."""
    if variables:
        body = ", ".join('"%s": %s' % (k, canonical_serialize(v)) for k, v in variables.items())
        vars_text = "{ %s }" % body
    else:
        vars_text = "{}"
    return '{ "final_output": %s, "variables": %s }' % (canonical_serialize(final_output), vars_text)


@dataclass
class Prediction:
    final_output: Value
    variables: Dict[str, Value]


def parse_prediction(raw: str) -> Prediction:
    """Parse the last non-empty line of ``raw`` as the strict answer object.

    Raises :class:`MalformedPrediction` for anything that is not one strict
    JSON object with exactly the two required keys; eval runs score such
    predictions as fully incorrect instead of aborting.
    """
    lines = [ln for ln in raw.split("\n") if ln.strip()]  # not splitlines: U+2028 may sit in a JSON string
    if not lines:
        raise MalformedPrediction("empty prediction")
    last = lines[-1].strip()
    try:
        obj = load_json(last)
    except ValueError as exc:
        raise MalformedPrediction("last line is not strict JSON: %s" % exc) from exc
    if not isinstance(obj, dict) or set(obj.keys()) != {"final_output", "variables"}:
        raise MalformedPrediction('expected exactly the keys "final_output" and "variables"')
    if not isinstance(obj["variables"], dict):
        raise MalformedPrediction('"variables" must be an object')
    try:
        return Prediction(
            final_output=decode_json_value(obj["final_output"]),
            variables={k: decode_json_value(v) for k, v in obj["variables"].items()},
        )
    except ValueError as exc:
        raise MalformedPrediction(str(exc)) from exc


@dataclass(frozen=True)
class TraceItem:
    """A trace-inference question and its answer, ``p_fail`` run on ``input``:
    a prompt of the failure buffer or an item of the eval set.  Immutable (its
    lists and dict too), so its buffer line is built at most once."""

    item_id: str  # a prompt's alignment_prompt_id(source, input); an eval item's transcript file name
    p_fail: Program
    input: List[Value]
    variables: List[str]  # V: first-definition order, restricted to defined vars
    truth: Dict[str, Value]
    return_value: Value
    source: str = field(repr=False, compare=False)  # the text p_fail was parsed from or formatted to
    origin_step: int = 0  # the training step that harvested a prompt

    @classmethod
    def traced(cls, item_id, p_fail: Program, input_values, run: ExecutionRecord, source, origin_step=0) -> "TraceItem":
        """The item whose answer is ``run``, the returned run of ``p_fail`` on ``input_values``."""
        truth = traced_variables(p_fail, run)
        return cls(item_id, p_fail, input_values, list(truth), truth, run.return_value, source, origin_step)

    def answer_line(self) -> str:
        """The canonical answer line of this item's run."""
        return serialize_record(self.return_value, self.truth)

    def to_record(self) -> dict:
        return {
            "id": self.item_id,
            "source": self.source,
            "input": [encode_json_value(v) for v in self.input],
            "variables": list(self.variables),
            "truth": {k: encode_json_value(v) for k, v in self.truth.items()},
            "origin_step": self.origin_step,
        }

    @cached_property
    def jsonl_line(self) -> str:
        return json.dumps(self.to_record()) + "\n"

    @cached_property
    def prompt(self) -> str:
        """The verbatim prompt template filled for this item, in one pass over
        the template, so that a placeholder's text in the code stays as it is."""
        fills = {"function_name": self.p_fail.name,
                 "variable_names": ", ".join('"%s"' % v for v in self.variables),
                 "code": format_program(self.p_fail).rstrip("\n"),
                 "input": canonical_serialize(self.input)}
        return _PLACEHOLDER.sub(lambda m: fills[m.group(1)], prompt_template())

    @classmethod
    def from_record(cls, rec: dict, budget: int = DEFAULT_BUDGET) -> "TraceItem":
        """A failure-buffer record, by :func:`decode_item`; its id is
        ``alignment_prompt_id(source, input)``, and the run defines at least one
        variable and reproduces its ``truth``."""
        origin_step = stored_int(rec["origin_step"], "origin_step", 0)
        if not isinstance(rec["truth"], dict):
            raise ValueError("truth must be a JSON object")
        truth = {k: decode_json_value(v) for k, v in rec["truth"].items()}
        item = decode_item(rec, "alignment prompt", _prompt_id, budget, origin_step=origin_step)
        if not item.variables:  # as build_alignment_prompt: nothing to predict
            raise ValueError("alignment prompt %r defines no variables" % item.item_id)
        if truth.keys() != item.truth.keys():
            raise ValueError("alignment prompt %r truth keys do not match its variables: extra %s, missing %s"
                             % (item.item_id, sorted(truth.keys() - item.truth.keys()),
                                sorted(item.truth.keys() - truth.keys())))
        for v in item.variables:
            if not matches_expected(item.truth[v], truth[v]):
                raise ValueError("stale ground truth for %r in prompt %r" % (v, item.item_id))
        return item


def alignment_prompt_id(source: str, input_values: Sequence[Value]) -> str:
    """The id of a prompt on the program whose ``format_program`` is ``source``."""
    payload = source + "\n" + canonical_serialize(list(input_values))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _prompt_id(raw, source: str, input_values: List[Value]) -> str:
    prompt_id = record_id(raw, set(), "alignment prompt")
    if prompt_id != alignment_prompt_id(source, input_values):
        raise ValueError("alignment prompt id %r does not match its source and input" % (prompt_id,))
    return prompt_id


def _run_item(kind: str, item_id: str, program: Program, input_values: List[Value], source: str, budget: int,
              origin_step: int = 0) -> TraceItem:
    run = execute(program, input_values, budget=budget)
    if run.status != STATUS_RETURNED:
        raise ValueError("%s %r does not terminate normally (%s)" % (kind, item_id, run.status))
    return TraceItem.traced(item_id, program, input_values, run, source, origin_step)


def decode_item(rec: dict, kind: str, read_id: Callable[[object, str, List[Value]], str], budget: int,
                origin_step: int = 0, variables_optional: bool = False) -> TraceItem:
    """The item of one JSONL record of ``kind``, whose ``id`` is checked by
    ``read_id(id, source, input)``; its run must return and define exactly its
    ``variables`` (optional when ``variables_optional``), in order."""
    source = rec["source"]
    program = parse_program(source)
    input_values = decode_inputs(rec["input"])
    item_id = read_id(rec["id"], source, input_values)
    item = _run_item(kind, item_id, program, input_values, source, budget, origin_step)
    stored = rec.get("variables", item.variables) if variables_optional else rec["variables"]
    if stored != item.variables:
        raise ValueError("stored variable list does not match: %s %r lists variables %r, but its run defines %r"
                         % (kind, item_id, stored, item.variables))
    return item


def build_eval_item(item_id: str, program: Program, input_values: Sequence[Value],
                    budget: int = DEFAULT_BUDGET) -> TraceItem:
    """Derive the ground truth for one item by tracing the program."""
    return _run_item("eval item", item_id, program, list(input_values), format_program(program), budget)


def load_eval_items(path, budget: int = DEFAULT_BUDGET) -> List[TraceItem]:
    """Read ``eval_items.jsonl`` (a run's ``buffer.jsonl`` too) by
    :func:`decode_item`.  An id names its transcript file, so it must be
    unique and a file name of at most 255 bytes with ``.txt.tmp``.  Raises
    ``ValueError`` naming the line for a malformed record, or if there is none."""
    seen = set()

    def read_id(raw, source: str, input_values: List[Value]) -> str:
        item_id = record_id(raw, seen, "eval item")
        if "/" in item_id or "\0" in item_id or item_id in (".", ".."):
            raise ValueError("eval item id %r is not a file name" % item_id)
        size = len(item_id.encode("utf-8")) + len(".txt.tmp")
        if size > 255:  # NAME_MAX on most file systems
            raise ValueError("eval item id %r is too long for a file name: with .txt.tmp it takes %d bytes of "
                             "UTF-8, over the limit of 255" % (item_id, size))
        return item_id

    try:
        items = read_jsonl(path, partial(decode_item, kind="eval item", read_id=read_id, budget=budget,
                                         variables_optional=True))
    except ValueError as exc:
        raise ValueError("eval items file %s" % exc) from exc
    if not items:
        raise ValueError("eval items file %s is empty" % path)
    return items


@cache
def prompt_template() -> str:
    return resources.files("semtrace.resources").joinpath("trace_prompt.txt").read_text("utf-8")


_PLACEHOLDER = re.compile(r"\{(function_name|variable_names|code|input)\}")


def build_prompt(item: TraceItem) -> str:
    """The prompt of one eval item, built once (``TraceItem.prompt``)."""
    return item.prompt


@dataclass
class ItemResult:
    item_id: str
    exact: bool
    output_correct: bool
    per_variable: Dict[str, bool]
    error: Optional[str] = None
    raw: str = ""


@dataclass
class EvalReport:
    items: List[ItemResult] = field(default_factory=list)

    @property
    def exact_at_1(self) -> float:
        if not self.items:
            return 0.0
        return sum(1 for r in self.items if r.exact) / len(self.items)

    def to_dict(self) -> dict:
        return {
            "exact_at_1": self.exact_at_1,
            "n_items": len(self.items),
            "items": [
                {
                    "id": r.item_id,
                    "exact": r.exact,
                    "output_correct": r.output_correct,
                    "per_variable": r.per_variable,
                    "error": r.error,
                }
                for r in self.items
            ],
        }


def _all_wrong(item: TraceItem, error: str, raw: str = "") -> ItemResult:
    per_variable = dict.fromkeys(item.variables, False)
    return ItemResult(item.item_id, exact=False, output_correct=False, per_variable=per_variable, error=error, raw=raw)


def score_item(item: TraceItem, raw: str) -> ItemResult:
    try:
        pred = parse_prediction(raw)
    except MalformedPrediction as exc:
        return _all_wrong(item, str(exc), raw)
    output_correct = matches_expected(item.return_value, pred.final_output)
    per_variable = {
        v: v in pred.variables and matches_expected(item.truth[v], pred.variables[v])
        for v in item.variables
    }
    return ItemResult(
        item_id=item.item_id,
        exact=output_correct and all(per_variable.values()),
        output_correct=output_correct,
        per_variable=per_variable,
        raw=raw,
    )


def run_eval(items: Sequence[TraceItem], predictor: Callable[[str], str]) -> EvalReport:
    """Prompt the predictor for each item, parse and score; a predictor
    failure scores that one item incorrect and is recorded."""
    if not items:
        raise ValueError("at least one eval item is required")
    report = EvalReport()
    for item in items:
        prompt = build_prompt(item)
        try:
            raw = predictor(prompt)
        except Exception as exc:  # predictor is external code
            report.items.append(_all_wrong(item, "predictor failed: %s" % exc))
            continue
        report.items.append(score_item(item, raw))
    return report


def oracle_predictor_for(items: Sequence[TraceItem]) -> Callable[[str], str]:
    """Predictor that answers every prompt with the serialized ground truth."""
    by_prompt = {build_prompt(item): item for item in items}

    def predict(prompt: str) -> str:
        return by_prompt[prompt].answer_line()

    return predict
