"""Parser, formatter, variable listing, and hole templates."""

import functools
import itertools

import numpy as np
import pytest

from semtrace.fuzz import ProgramFuzzer
from semtrace.lang import (
    Assign,
    BinOp,
    For,
    HoleTemplate,
    Index,
    Literal,
    ParseError,
    Program,
    Return,
    TemplateError,
    UnaryOp,
    Var,
    children,
    format_program,
    instantiate_template,
    list_variables,
    parse_program,
    tokenize,
    walk,
)
from semtrace.lang import parser as lang_parser
from semtrace.lang.parser import _Parser
from test_scanner import clear_memos, memo_free_parse, parse_outcome


def parse_expression(source):
    """Parse a standalone expression, for the formatter round trip."""
    parser = _Parser(tokenize(source))
    expr = parser.parse_expr()
    if parser.tokens[parser.pos].kind != "eof":
        raise parser.error(("end of input",))
    return expr


def test_parse_identity():
    p = parse_program("fn id(x) { return x }")
    assert p.name == "id"
    assert p.params == ("x",)
    assert p.body == (Return(Var("x")),)


def test_parse_error_dangling_assignment():
    with pytest.raises(ParseError):
        parse_program("fn f() { x = 1 y = }")


def test_parse_sum_program_matches_handwritten_ast():
    src = "fn s(n) { t = 0 for i in range(1, n + 1) { t = t + i } return t }"
    p = parse_program(src)
    expected = Program(
        name="s",
        params=("n",),
        body=(
            Assign("t", Literal(0)),
            For(
                "i",
                Literal(1),
                BinOp("+", Var("n"), Literal(1)),
                None,
                (Assign("t", BinOp("+", Var("t"), Var("i"))),),
            ),
            Return(Var("t")),
        ),
    )
    assert p == expected
    assert len(list(walk(p))) == len(list(walk(expected)))
    assert sum(1 for s in p.body if isinstance(s, For)) == 1


def test_duplicate_parameter_rejected():
    with pytest.raises(ParseError):
        parse_program("fn f(a, a) { return a }")


def test_parse_error_carries_position():
    try:
        parse_program("fn f() {\n    x = @\n}")
    except ParseError as exc:
        assert exc.line == 2
    else:
        pytest.fail("expected a parse error")


def test_comparisons_do_not_chain():
    with pytest.raises(ParseError):
        parse_program("fn f(a) { x = 1 < a < 3 return x }")


def test_hole_token_rejected_in_plain_source():
    with pytest.raises(ParseError):
        parse_program("fn f(a) { x = a __HOLE_1__ 1 return x }")


ALL_ESCAPES = Program("f", (), (Return(Literal('q\\"\n\tz')),))

# source -> its tokens as (kind, text, line, col), the ParseError of
# parse_program as (message, line, col), or the Program it parses to
GRAMMAR_CASES = [
    ('"\\\\\\"\\n\\t"', [("string", '\\"\n\t', 1, 1), ("eof", "", 1, 11)]),
    ("fn f(a) {\r\n    return len(a)\r\n}\r\n", [
        ("kw", "fn", 1, 1), ("ident", "f", 1, 4), ("punct", "(", 1, 5), ("ident", "a", 1, 6),
        ("punct", ")", 1, 7), ("punct", "{", 1, 9), ("kw", "return", 2, 5), ("kw", "len", 2, 12),
        ("punct", "(", 2, 15), ("ident", "a", 2, 16), ("punct", ")", 2, 17), ("punct", "}", 3, 1),
        ("eof", "", 4, 1),
    ]),
    ("x # note", [("ident", "x", 1, 1), ("eof", "", 1, 9)]),
    ('fn f() { return "ab }', ("unterminated string literal", 1, 17)),
    ('fn f() { return "ab\\', ("unterminated string escape", 1, 20)),
    ('fn f() { return "a\\qb" }', ("unknown string escape \\q", 1, 19)),
    ("fn f(a) { x = a + __HOLE_1__ return x }", ("hole placeholder '__HOLE_1__' in program source", 1, 19)),
    ("fn f(a) { return foo(a) }", ("unknown function 'foo' (builtins: len, abs, min, max)", 1, 18)),
    # the FLOAT rule allows a bare trailing point
    ("fn f() { return 1. }", Program("f", (), (Return(Literal(1.0)),))),
    # there is no empty-set literal
    ("fn f() { x = {} return x }", ("unexpected '}'", 1, 15)),
    # builtin names are keywords
    ("fn f() { len = 3 return len }", ("unexpected 'len'", 1, 10)),
    # an IDENT begins with a letter and a digit is 0-9
    ("fn f() { _a = 3 return _a }", ("unexpected character '_'", 1, 10)),
    ("fn f() { return \u0663 }", ("unexpected character '\u0663'", 1, 17)),
    # an INT is at most INT_MAX, or INT_MAX + 1 as the direct operand of
    # unary minus
    ("fn f() { x = 99999999999999999999 return x }",
     ("integer literal 99999999999999999999 is outside the int64 range", 1, 14)),
    ("fn f() { x = 9223372036854775808 return x }",
     ("integer literal 9223372036854775808 is outside the int64 range", 1, 14)),
    ("fn f() { x = -9223372036854775809 return x }",
     ("integer literal 9223372036854775809 is outside the int64 range", 1, 15)),
    ("fn f() { x = 1 - 9223372036854775808 return x }",
     ("integer literal 9223372036854775808 is outside the int64 range", 1, 18)),
    ("fn f() { x = -(9223372036854775808) return x }",
     ("integer literal 9223372036854775808 is outside the int64 range", 1, 16)),
    ("fn f() { x = -9223372036854775808[0] return x }",
     ("integer literal 9223372036854775808 is outside the int64 range", 1, 15)),
    ("fn f() { x = -9223372036854775808 return x }",
     Program("f", (), (Assign("x", UnaryOp("-", Literal(2**63))), Return(Var("x"))))),
    ("fn f() { x = 9223372036854775807 return x }",
     Program("f", (), (Assign("x", Literal(2**63 - 1)), Return(Var("x"))))),
    (format_program(ALL_ESCAPES), ALL_ESCAPES),
    # blanks at the end of input are skipped, not read as characters
    ("x \t\r", [("ident", "x", 1, 1), ("eof", "", 1, 5)]),
    ("fn f() { return 1 } \t\r", Program("f", (), (Return(Literal(1)),))),
    # 'not' binds looser than a comparison and is no comparison operand
    ("fn f(a) { return a == not a }", ("unexpected 'not'", 1, 23)),
    ("fn f(a, b) { return not a == b }",
     Program("f", ("a", "b"), (Return(UnaryOp("not", BinOp("==", Var("a"), Var("b")))),))),
    ("fn f(a, b, c) { return a and not b < c }",
     Program("f", ("a", "b", "c"), (
         Return(BinOp("and", Var("a"), UnaryOp("not", BinOp("<", Var("b"), Var("c"))))),))),
    ("fn f() { return - - 1 }", Program("f", (), (Return(UnaryOp("-", UnaryOp("-", Literal(1)))),))),
    ("fn f(xs) { return xs[0][1] }",
     Program("f", ("xs",), (Return(Index(Index(Var("xs"), Literal(0)), Literal(1))),))),
    ("fn f() { return -9223372036854775808 }", Program("f", (), (Return(UnaryOp("-", Literal(2**63))),))),
]


@pytest.mark.parametrize("source, expected", GRAMMAR_CASES)
def test_scanner_and_parser_follow_the_grammar(source, expected):
    if isinstance(expected, list):
        assert [(t.kind, t.text, t.line, t.col) for t in tokenize(source)] == expected
    elif isinstance(expected, Program):
        assert parse_program(source) == expected
    else:
        with pytest.raises(ParseError) as info:
            parse_program(source)
        assert (info.value.message, info.value.line, info.value.col) == expected


def test_format_single_statement_canonical_form():
    p = parse_program("fn id(x) { return x }")
    assert format_program(p) == "fn id(x) {\n    return x\n}\n"


def test_format_is_idempotent():
    src = "fn g(a) { if a > 0 { b = {1, 2} } else { b = {3} } return len(b) }"
    once = format_program(parse_program(src))
    assert format_program(parse_program(once)) == once


def test_precedence_survives_round_trip():
    cases = [
        "(a + b) * c",
        "a + b * c",
        "-(a - b)",
        "not (a and b)",
        "a or b and not c",
        "xs[i + 1]",
        "min(a, len(xs)) % 7",
    ]
    for text in cases:
        e = parse_expression(text)
        # the formatter must preserve structure, not necessarily spelling
        from semtrace.lang import format_expr

        assert parse_expression(format_expr(e)) == e


def test_fuzzer_round_trip_property():
    # parse(format(p)) == p over a large random AST population
    rng = np.random.default_rng(1234)
    fuzzer = ProgramFuzzer(rng)
    for _ in range(1000):
        p = fuzzer.program()
        assert parse_program(format_program(p)) == p


def test_list_variables_order(sum_program):
    src = "fn s(n) { t = 0 for i in range(1, n + 1) { t = t + i } return t }"
    assert list_variables(parse_program(src)) == ["n", "t", "i"]
    assert list_variables(parse_program("fn id(x) { return x }")) == ["x"]
    assert list_variables(parse_program("fn f() { a = 1 a = 2 return a }")) == ["a"]


def test_list_variables_includes_collection_mutation_targets():
    src = "fn f(xs) { append(xs, 1) xs[0] = 2 q = 3 return q }"
    assert list_variables(parse_program(src)) == ["xs", "q"]


def test_list_variables_prefix_stable():
    base = "fn f(a) {\n    b = 1\n    return a\n}\n"
    longer = "fn f(a) {\n    b = 1\n    c = 2\n    return a\n}\n"
    vs = list_variables(parse_program(base))
    vl = list_variables(parse_program(longer))
    assert vl[: len(vs)] == vs
    assert len(vl) == len(vs) + 1


# --- templates ---


def test_template_direct_substitution():
    t = HoleTemplate(
        template_source="fn f(t, i) {\n    t = t __HOLE_1__ i\n    return t\n}\n",
        hole_vocab=(("+", "-", "*"),),
    )
    p = instantiate_template(t, [0])
    assert p.body[0] == Assign("t", BinOp("+", Var("t"), Var("i")))


def test_template_choice_out_of_range():
    t = HoleTemplate(
        template_source="fn f(a) {\n    b = a __HOLE_1__ 1\n    return b\n}\n",
        hole_vocab=(("+", "-", "*"),),
    )
    with pytest.raises(TemplateError):
        instantiate_template(t, [3])


def test_two_hole_template_enumerates_distinct_programs():
    t = HoleTemplate(
        template_source="fn f(a, b) {\n    x = a __HOLE_1__ b\n    y = x __HOLE_2__ a\n    return y\n}\n",
        hole_vocab=(("+", "-", "*"), ("+", "-", "*")),
    )
    seen = set()
    for i in range(3):
        for j in range(3):
            p = instantiate_template(t, [i, j])
            seen.add(format_program(p))
    assert len(seen) == 9


def test_template_validation_rejects_bad_hole_indexing():
    with pytest.raises(TemplateError):
        HoleTemplate(
            template_source="fn f(a) {\n    b = a __HOLE_2__ 1\n    return b\n}\n",
            hole_vocab=(("+",),),
        ).validate()


def test_walk_is_preorder_in_source_order():
    p = parse_program("fn f(a) { for i in range(0, a, 2) { b = [i, -1] } return b }")
    kinds = [type(n).__name__ for n in walk(p)]
    assert kinds == [
        "Program", "For", "Literal", "Var", "Literal", "Assign", "ListLit",
        "Var", "UnaryOp", "Literal", "Return", "Var",
    ]
    assert len(list(walk(p))) == len(kinds)
    assert children(p.body[1]) == (Var("b"),)
    with pytest.raises(TypeError):
        children(3)


# --- the statement and header memos ---


FIRST_WORD = {"Assign": "target", "IndexAssign": "target", "Append": "append", "Break": "break",
              "Continue": "continue", "Return": "return", "If": "if", "While": "while", "For": "for"}


def assert_parses_as_without_memos(sources, parse=parse_program):
    """Cold, then three warm passes: ``parse`` gives every program and error
    that the parser without the statement and header memos gives for the
    source, and every statement's ``loc`` points at its own first token."""
    clear_memos()
    expected = [parse_outcome(memo_free_parse, s) for s in sources]
    lang_parser._LINES.clear()
    for _ in range(3):
        assert [parse_outcome(parse, s) for s in sources] == expected
    assert len(lang_parser._STMTS) > 0 and len(lang_parser._HEADERS) > 0
    for source in sources:
        lines = source.split("\n")
        for node in walk(parse(source)):
            name = type(node).__name__
            if name in FIRST_WORD:
                word = getattr(node, FIRST_WORD[name], FIRST_WORD[name])
                assert lines[node.loc.line - 1][node.loc.col - 1:].startswith(word), (source, node)


def test_fuzzed_programs_parse_as_without_the_statement_memo():
    fuzzer = ProgramFuzzer(np.random.default_rng(2024))
    assert_parses_as_without_memos([format_program(fuzzer.program()) for _ in range(300)])


# shaped like the train-loops templates of perfbench/gen.py
LOOPS_TEMPLATE = HoleTemplate(
    template_source="""fn w(xs, m) {
    out = []
    for i in range(0, len(xs)) {
        v = xs[i] __HOLE_1__ m
        if v __HOLE_2__ 50 {
            append(out, v)
        }
    }
    j = 0
    while j < len(out) {
        out[j] = __HOLE_3__
        j = __HOLE_4__
    }
    return out
}
""",
    hole_vocab=(
        ("+", "-", "*", "%", "//", "/"),
        ("<", ">", "<=", ">=", "!=", "=="),
        ("out[j] + 3", "out[j] * 3", "out[j] - m", "out[j] % 3", "out[j] // 3", "out[j] + out[j + 1]"),
        ("j + 1", "j + 2", "j + 3", "j + 5", "len(out)", "j"),
    ),
)


def test_every_template_instantiation_parses_as_without_the_statement_memo():
    LOOPS_TEMPLATE.validate()
    vocab, sources = LOOPS_TEMPLATE.hole_vocab, {}
    for choices in itertools.product(*(range(len(v)) for v in vocab)):
        source = LOOPS_TEMPLATE.template_source
        for k, c in enumerate(choices, 1):
            source = source.replace("__HOLE_%d__" % k, vocab[k - 1][c])
        sources[source] = choices
    assert_parses_as_without_memos(list(sources), lambda s: instantiate_template(LOOPS_TEMPLATE, sources[s]))


# --- the bounds on nesting ---


PROGRAM = "fn f(a, xs) {\n    y = 1\n    %s\n    return y\n}\n"
# each nesting construct around an expression (%s), and the offset of the
# token that opens its level
NESTERS = {"paren": ("(%s)", 0), "index": ("xs[%s]", 2), "call": ("abs(%s)", 0), "list": ("[%s]", 0),
           "set": ("{%s}", 0), "minus": ("- %s", 0), "not": ("not %s", 0)}
# each statement position of an expression
POSITIONS = ["x = %s", "xs[%s] = 1", "xs[0] = %s", "append(xs, %s)", "return %s", "if %s { x = 1 }",
             "while %s { x = 1 }", "for i in range(%s, 2) { x = 1 }", "for i in range(0, %s) { x = 1 }",
             "for i in range(0, 2, %s) { x = 1 }"]
# the head of each block kind, a line of its own, whose first { opens the block
BLOCKS = {"if": "if a {\n", "else": "if a { y = 2 } else {\n", "while": "while a {\n",
          "for": "for i in range(0, 1) {\n"}


def position(source, index):
    """The (line, col) of ``source[index]``."""
    return source.count("\n", 0, index) + 1, index - source.rfind("\n", 0, index)


def assert_bound(at, past, index, bound):
    """``at`` parses and round-trips, and ``past`` raises a ParseError that
    names ``bound`` at ``past[index]``: cold, with the memos warm from
    ``at`` and from itself, and without the statement and header memos."""
    clear_memos()
    outcomes = [parse_outcome(parse_program, past)]
    for _ in range(2):
        program = parse_program(at)
        assert parse_program(format_program(program)) == program
    outcomes += [parse_outcome(parse_program, past), parse_outcome(memo_free_parse, past)]
    message, line, col = outcomes[0]
    assert outcomes == [outcomes[0]] * 3
    assert (line, col) == position(past, index) and str(bound) in message


@pytest.mark.parametrize("nester", NESTERS)
def test_an_expression_nests_at_most_the_bound(nester):
    wrap, offset = NESTERS[nester]
    bound = lang_parser.MAX_NESTING

    def nested(depth):
        return PROGRAM % ("x = " + functools.reduce(lambda inner, _: wrap % inner, range(depth), "a"))

    past = nested(bound + 1)
    assert_bound(nested(bound), past, PROGRAM.index("%s") + 4 + bound * wrap.index("%s") + offset, bound)


def test_the_minus_of_the_least_int_is_a_level():
    bound, least = lang_parser.MAX_NESTING, "-9223372036854775808"
    past = PROGRAM % ("x = " + "- " * bound + least)
    assert_bound(PROGRAM % ("x = " + "- " * (bound - 1) + least), past, PROGRAM.index("%s") + 4 + 2 * bound, bound)


@pytest.mark.parametrize("statement", POSITIONS)
def test_an_expression_spans_at_most_the_bound_in_tokens(statement):
    bound = lang_parser.MAX_EXPR_TOKENS
    at = "-a" + " + a" * ((bound - 2) // 2)  # 256 tokens
    past = "a" + " + a" * (bound // 2)  # 257: the last is the 257th
    source = PROGRAM % (statement % past)
    assert_bound(PROGRAM % (statement % at), source, PROGRAM.index("%s") + statement.index("%s") + len(past) - 1, bound)


@pytest.mark.parametrize("kind", BLOCKS)
def test_a_statement_sits_in_at_most_the_bound_in_blocks(kind):
    bound, head = lang_parser.MAX_BLOCKS, BLOCKS[kind]

    def nested(depth):
        return PROGRAM % (head * depth + "x = 1" + " }" * depth)

    assert_bound(nested(bound), nested(bound + 1), PROGRAM.index("%s") + bound * len(head) + head.index("{"), bound)


def nth(text, piece, n):
    """The index of the ``n``th ``piece`` in ``text``."""
    index = -1
    for _ in range(n):
        index = text.index(piece, index + 1)
    return index


# statements far past the bounds, each with the index of the token that
# passes one: deep enough for Python's recursion limit, or past its limits
# on indentation (100 levels) and nested blocks (20) in a loop's kernel
OLD_DEEP = {
    "and300": ("b = %sa%s" % ("(a and " * 300, ")" * 300), lambda s: nth(s, "(", 17)),
    "and100": ("b = %sa%s" % ("(a and " * 100, ")" * 100), lambda s: nth(s, "(", 17)),
    "sum500": ("b = a" + " + a" * 499, lambda s: nth(s, "a", 129)),
    "if100": ("if a { " * 100 + "b = 1" + " }" * 100, lambda s: nth(s, "{", 7)),
    "for9": ("for k in range(0, 1) { " * 9 + "b = 1" + " }" * 9, lambda s: nth(s, "{", 7)),
    "literal1200": ("b = [%s]" % ", ".join(["a"] * 1200), lambda s: nth(s, ",", 128)),
}


@pytest.mark.parametrize("case", OLD_DEEP)
def test_programs_past_the_bounds_are_parse_errors(case):
    statement, where = OLD_DEEP[case]
    with pytest.raises(ParseError) as info:
        parse_program(PROGRAM % statement)
    assert (info.value.line, info.value.col) == position(PROGRAM % statement, PROGRAM.index("%s") + where(statement))
