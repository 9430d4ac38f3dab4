"""Seeded random MiniImp programs at the level of the grammar.

Each program is source text over every expression and statement form of
docs/grammar.md, parsed as any program is: empty and nested lists, builtin
calls of 0 to 3 arguments, sets (a list member included), strings, ``inf``,
``-0.0`` and the int64 bounds, ``and``/``or``/``not``, reads and indexes of
variables that may be unbound, and ``break``, ``continue`` and ``return`` in
``for`` and ``while`` loops, some over more than ``tracer.HOT`` values.
Every compound operand is parenthesized, so no comparison chains, and
blocks nest at most three deep, within the grammar's bounds.  Half the
programs are tame: their expressions are ints and their conditions
comparisons, so that more of their runs end before the budget and reach the
big-step evaluator's loop exits.
"""

import random

from semtrace.lang import parse_program

PARAMS = ("a", "xs", "s")
READS = PARAMS + ("b", "c", "ys", "i")
UNBOUND = "u"  # never written
WRITES = ("a", "b", "c", "xs", "ys")
NUMBERS = ("0", "1", "2", "3")
ATOMS = ("-3", "9223372036854775807", "-9223372036854775808", "1.5", "-0.0", "inf", "-inf",
         '"ab"', '""', "true", "false", "null")
OPERATORS = ("+", "-", "*", "/", "//", "%", "==", "!=", "<", "<=", ">", ">=", "and", "or")
BUILTINS = ("len", "abs", "min", "max")
INPUTS = {
    "a": (0, 1, -2, 3, 2**63 - 1, -(2**63), 2.5, -0.0, float("inf"), True, "ab", None),
    "xs": ([], [1, 2, 3], [[1], []], [1, 2.5, "s"], list(range(20))),
    "s": ("", "ab", "abc"),
}


class GrammarPrograms:
    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.tame, self.writes, self.lists = False, WRITES, WRITES  # int-only; variables assigned, appended to

    def expr(self, depth):
        r = self.rng
        if self.tame:
            if depth <= 0 or r.random() < 0.4:
                return r.choice(("b", "c", "1", "2", "len(xs)"))
            return "(%s) %s (%s)" % (self.expr(depth - 1), r.choice("+-*"), self.expr(depth - 1))
        if depth <= 0 or r.random() < 0.3:
            return r.choice(r.choices((READS, NUMBERS, ATOMS, (UNBOUND,)), (6, 6, 3, 1))[0])
        sub = lambda: "(%s)" % self.expr(depth - 1)
        items = lambda lo: ", ".join(sub() for _ in range(r.randint(lo, 3)))
        form = r.randrange(8)
        if form == 0:
            return "%s %s %s" % (sub(), r.choice(OPERATORS), sub())
        if form == 1:
            return "%s %s" % (r.choice(("not", "-")), sub())
        if form == 2:
            return "%s[%s]" % (r.choice((r.choice(READS), "[1, 2]", '"ab"', sub())), sub())
        if form == 3:
            return "%s(%s)" % (r.choice(BUILTINS), items(0))
        if form == 4:
            return "[%s]" % items(0)
        if form == 5:
            return "{%s}" % items(1)
        if form == 6:
            return r.choice(("[]", "[[]]", "[1, []]", "min()", "len([])", "{[]}", "xs == []"))
        return "%s %s %s" % (sub(), r.choice(("and", "or")), sub())

    def condition(self):
        """Mostly a comparison, so that most conditions are booleans."""
        if not self.tame and self.rng.random() < 0.3:
            return self.expr(2)
        return "(%s) %s (%s)" % (self.expr(1), self.rng.choice(OPERATORS[6:12]), self.expr(1))

    def block(self, depth, loops):
        return " ".join(self.statement(depth, loops) for _ in range(self.rng.randint(0, 3)))

    def statement(self, depth, loops):
        r = self.rng
        form = r.randrange(10 if depth < 3 else 6)
        if form in (0, 4, 5):
            return "%s = %s" % (r.choice(self.writes), self.expr(r.choice((1, 2))))
        if form == 1:
            return "%s[%s] = %s" % (r.choice(self.lists), self.expr(1), self.expr(2))
        if form == 2:
            return "append(%s, %s)" % (r.choice(self.lists), self.expr(2))
        if form == 3:  # a jump, mostly inside a loop and behind a guard
            jump = r.choice(("break", "continue", "return %s" % self.expr(1)) if loops or r.random() < 0.2
                            else ("return %s" % self.expr(1),))
            guard = r.choice(("c == 2", "i == 1", "b > 0", "true", self.condition()))
            return "if %s { %s }" % (guard, jump) if loops and r.random() < 0.7 else jump
        if form == 6:
            tail = " else { %s }" % self.block(depth + 1, loops) if r.random() < 0.5 else ""
            return "if %s { %s }%s" % (self.condition(), self.block(depth + 1, loops), tail)
        if form == 7:  # a while that counts, or one on any condition
            if r.random() < 0.7:
                return "c = 0 while c < %d { c = c + 1 %s }" % (r.choice((2, 3, 20)), self.block(depth + 1, True))
            return "while %s { %s }" % (self.condition(), self.block(depth + 1, True))
        bounds = ", ".join(r.choice(("0", "1", "20", "-1", "len(xs)", self.expr(1))) for _ in range(r.choice((2, 3))))
        if r.random() < 0.6:
            bounds = "0, %s" % r.choice(("2", "3", "17", "20", "len(xs)"))
        return "for %s in range(%s) { %s }" % (r.choice(("i", "b")), bounds, self.block(depth + 1, True))

    def program(self):
        """A program, its inputs and a step budget of at most 40."""
        self.tame = self.rng.random() < 0.5
        self.writes, self.lists = (("b", "c"), ("ys",)) if self.tame else (WRITES, WRITES)
        body = ("b = 1 c = 0 ys = [] " if self.tame or self.rng.random() < 0.8 else "") + self.block(0, False)
        if self.rng.random() < 0.8:
            body += " return %s" % self.expr(2)
        inputs = [self.rng.choice(INPUTS[name]) for name in PARAMS]
        return parse_program("fn g(%s) { %s }" % (", ".join(PARAMS), body)), inputs, self.rng.randint(1, 40)


def grammar_programs(count, seed):
    generator = GrammarPrograms(seed)
    return [generator.program() for _ in range(count)]
