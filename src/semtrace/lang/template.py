"""Hole templates: MiniImp source with ``__HOLE_k__`` placeholders plus a
finite substitution vocabulary per hole.  Instantiating a template with one
vocabulary choice per hole yields a parseable program."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from .nodes import Program
from .parser import HOLE_RE, ParseError, parse_program


class TemplateError(ValueError):
    pass


@dataclass(frozen=True)
class HoleTemplate:
    template_source: str
    hole_vocab: Tuple[Tuple[str, ...], ...]  # hole_vocab[k-1] is the vocabulary of __HOLE_k__

    @property
    def hole_count(self) -> int:
        return len(self.hole_vocab)

    def check_structure(self) -> None:
        """Check hole indices are exactly 1..H, each appearing once, and that
        every vocabulary is a non-empty sequence of strings."""
        found = sorted(int(m.group(1)) for m in HOLE_RE.finditer(self.template_source))
        if found != list(range(1, self.hole_count + 1)):
            raise TemplateError("hole indices %s do not match vocabulary entries 1..%d" % (found, self.hole_count))
        for k, vocab in enumerate(self.hole_vocab, 1):
            if not isinstance(vocab, (list, tuple)) or not vocab or not all(isinstance(c, str) for c in vocab):
                raise TemplateError("hole %d vocabulary %r is not a non-empty list of strings" % (k, vocab))

    def validate(self) -> None:
        """:meth:`check_structure`, then check that every substitution parses
        in context (others fixed at choice 0)."""
        self.check_structure()
        for k in range(self.hole_count):
            for j in range(len(self.hole_vocab[k])):
                choices = [0] * self.hole_count
                choices[k] = j
                try:
                    instantiate_template(self, choices)
                except ParseError as exc:
                    raise TemplateError(
                        "hole %d choice %d does not parse in context: %s" % (k + 1, j, exc)
                    ) from exc


def instantiate_template(t: HoleTemplate, choices: Sequence[int]) -> Program:
    """Substitute one vocabulary entry per hole and parse the result."""
    if len(choices) != t.hole_count:
        raise TemplateError(
            "expected %d choices, got %d" % (t.hole_count, len(choices))
        )
    for k, c in enumerate(choices):
        if not 0 <= c < len(t.hole_vocab[k]):
            raise TemplateError(
                "choice %d out of range for hole %d (vocabulary size %d)"
                % (c, k + 1, len(t.hole_vocab[k]))
            )

    def replace(m):
        k = int(m.group(1))
        return t.hole_vocab[k - 1][choices[k - 1]]

    source = HOLE_RE.sub(replace, t.template_source)
    return parse_program(source)
