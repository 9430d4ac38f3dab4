"""Trace-inference evaluation: the canonical answer line, strict prediction
parsing, and Exact@1 scoring.

The canonical answer line is a single line of strict JSON with keys
"final_output" and "variables"; values are rendered by
:func:`semtrace.values.canonical_serialize`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from importlib import resources
from typing import Callable, Dict, List, Optional, Sequence

from .lang import Program, format_program, parse_program
from .rewards import matches_expected
from .tracer import DEFAULT_BUDGET, STATUS_RETURNED, execute, traced_variables
from .values import Value, canonical_serialize, decode_json_value, load_json, read_jsonl


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
    lines = [ln for ln in raw.splitlines() if ln.strip()]
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


@dataclass
class EvalItem:
    item_id: str
    program: Program
    input: List[Value]
    variables: List[str]  # V, in first-definition order
    truth_output: Value
    truth_vars: Dict[str, Value]


def build_eval_item(item_id: str, program: Program, input_values: Sequence[Value],
                    budget: int = DEFAULT_BUDGET) -> EvalItem:
    """Derive the ground truth for one item by tracing the program."""
    rec = execute(program, list(input_values), budget=budget)
    if rec.status != STATUS_RETURNED:
        raise ValueError("eval item %r does not terminate normally (%s)" % (item_id, rec.status))
    truth_vars = traced_variables(program, rec)
    return EvalItem(
        item_id=item_id,
        program=program,
        input=list(input_values),
        variables=list(truth_vars),
        truth_output=rec.return_value,
        truth_vars=truth_vars,
    )


def load_eval_items(path, budget: int = DEFAULT_BUDGET) -> List[EvalItem]:
    """Read ``eval_items.jsonl``: one record per line with id, source, input,
    and the expected variable list; ground truth is regenerated by tracing.

    Raises ``ValueError`` naming the line for any malformed record, and for
    a file without records."""

    def decode(rec: dict) -> EvalItem:
        inputs = [decode_json_value(v) for v in rec["input"]]
        item = build_eval_item(rec["id"], parse_program(rec["source"]), inputs, budget=budget)
        if "variables" in rec and list(rec["variables"]) != item.variables:
            raise ValueError("stored variable list %s does not match traced %s" % (rec["variables"], item.variables))
        return item

    try:
        items = read_jsonl(path, decode)
    except ValueError as exc:
        raise ValueError("eval items file %s" % exc) from exc
    if not items:
        raise ValueError("eval items file %s is empty" % path)
    return items


@cache
def prompt_template() -> str:
    return resources.files("semtrace.resources").joinpath("trace_prompt.txt").read_text("utf-8")


def build_prompt(item: EvalItem) -> str:
    """Fill the verbatim prompt template for one eval item."""
    text = prompt_template()
    text = text.replace("{function_name}", item.program.name)
    text = text.replace("{variable_names}", ", ".join('"%s"' % v for v in item.variables))
    text = text.replace("{code}", format_program(item.program).rstrip("\n"))
    text = text.replace("{input}", canonical_serialize(item.input))
    return text


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


def _all_wrong(item: EvalItem, error: str, raw: str = "") -> ItemResult:
    per_variable = dict.fromkeys(item.variables, False)
    return ItemResult(item.item_id, exact=False, output_correct=False, per_variable=per_variable, error=error, raw=raw)


def score_item(item: EvalItem, raw: str) -> ItemResult:
    try:
        pred = parse_prediction(raw)
    except MalformedPrediction as exc:
        return _all_wrong(item, str(exc), raw)
    output_correct = matches_expected(item.truth_output, pred.final_output)
    per_variable = {
        v: v in pred.variables and matches_expected(item.truth_vars[v], pred.variables[v])
        for v in item.variables
    }
    return ItemResult(
        item_id=item.item_id,
        exact=output_correct and all(per_variable.values()),
        output_correct=output_correct,
        per_variable=per_variable,
        raw=raw,
    )


def run_eval(items: Sequence[EvalItem], predictor: Callable[[str], str]) -> EvalReport:
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


def oracle_predictor_for(items: Sequence[EvalItem]) -> Callable[[str], str]:
    """Predictor that answers every prompt with the serialized ground truth."""
    by_prompt = {build_prompt(item): item for item in items}

    def predict(prompt: str) -> str:
        item = by_prompt[prompt]
        return serialize_record(item.truth_output, dict(item.truth_vars))

    return predict
