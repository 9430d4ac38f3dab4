"""The three memos under ``parse_program``.  ``tokenize`` scans each line on
its own and keeps its tokens by line number and text, and the tokens,
positions and errors stay those of one scan over the whole source;
``whole_source_tokenize`` below is that scan, kept as the reference.  The
parser keeps a statement that covers exactly its line by line number, line
text and the token after the line, and an ``if``, ``while`` or ``for``
header that begins its line and stops at the line's last token, its ``{``,
by line number and line text.  Every program and error stays that of
``_Parser(tokenize(source))``, which parses without the statement and
header memos.  Standard library, pytest and semtrace.lang only, so this
file also runs without numpy and without conftest.py."""

import random
import re

import pytest

from semtrace.lang import parser
from semtrace.lang.parser import (
    ESCAPES,
    KEYWORDS,
    LINE_MEMO_CAPACITY,
    MAX_BLOCKS,
    MAX_EXPR_TOKENS,
    MAX_NESTING,
    ParseError,
    Token,
    _Parser,
    parse_program,
    tokenize,
)

_UNESCAPE = {esc[1]: ch for ch, esc in ESCAPES.items()}
_ESCAPE_RE = re.compile(r"\\(.)")
_WHOLE_SOURCE_RE = re.compile(r"""
    [ \t\r]*
    (?:
      (?P<comment>  \#[^\n]* )
    | (?P<newline>  \n )
    | (?P<string>   " (?P<body> (?: [^"\\\n] | \\[%s] )* ) (?P<close> ")? )
    | (?P<hole>     __HOLE_[0-9]+__ )
    | (?P<float>    [0-9]+ (?: \.[0-9]* (?: [eE][+-]?[0-9]+ )? | [eE][+-]?[0-9]+ ) )
    | (?P<int>      [0-9]+ )
    | (?P<ident>    [A-Za-z][A-Za-z0-9_]* )
    | (?P<punct>    == | != | <= | >= | // | [-+*/%%(){}\[\],=<>] )
    | (?P<mismatch> . )
    | (?P<end>      \Z )
    )
""" % re.escape("".join(_UNESCAPE)), re.VERBOSE)
_LONE_SURROGATE = re.compile("[\ud800-\udfff]")


def check_line(source, line_start, line):
    """A line that holds a lone surrogate fails at the first one, before any
    of its tokens."""
    end = source.find("\n", line_start)
    bad = _LONE_SURROGATE.search(source, line_start, len(source) if end < 0 else end)
    if bad:
        raise ParseError("lone surrogate %r is not a character" % bad[0], line, bad.start() - line_start + 1)


def whole_source_tokenize(source):
    """The scanner before the line memo: one regex pass over the source."""
    tokens = []
    line, line_start = 1, 0
    check_line(source, line_start, line)
    for m in _WHOLE_SOURCE_RE.finditer(source):
        kind = m.lastgroup
        if kind in ("ident", "punct", "int", "float", "hole"):
            text = m[kind]
            if kind == "ident" and text in KEYWORDS:
                kind = "kw"
            tokens.append(Token((kind, text, line, m.end() - len(text) - line_start + 1)))
        elif kind == "newline":
            line += 1
            line_start = m.end()
            check_line(source, line_start, line)
        elif kind == "string":
            col = m.start(kind) - line_start + 1
            if m.group("close") is None:
                end = m.end()
                if source.startswith("\\", end):
                    if end + 1 == len(source):
                        raise ParseError("unterminated string escape", line, end - line_start + 1)
                    raise ParseError("unknown string escape \\%s" % source[end + 1], line, end - line_start + 1)
                raise ParseError("unterminated string literal", line, col)
            text = _ESCAPE_RE.sub(lambda e: _UNESCAPE[e.group(1)], m.group("body"))
            tokens.append(Token(("string", text, line, col)))
        elif kind == "mismatch":
            raise ParseError("unexpected character %r" % m.group(kind), line, m.start(kind) - line_start + 1)
        elif kind == "end":
            break
    tokens.append(Token(("eof", "", line, len(source) - line_start + 1)))
    return tokens


def outcome(scan, source):
    """The tokens as (kind, text, line, col), or the ParseError as
    (message, line, col)."""
    try:
        return [tuple(t) for t in scan(source)]
    except ParseError as e:
        return (e.message, e.line, e.col)


FIXTURES = [
    "fn s() {\n    t = 0\n    for i in range(1, 4) {\n        t = t + i\n    }\n    return t\n}\n",
    "fn id(x) {\n    return x\n}\n",
    """fn f(xs, n) {
  s = {1, 2.5, 3e-2, 4.E+1}  # a set
  ys = [true, null, "a\\"b\\\\c\\n\\t", -inf]
  for i in range(0, n) { append(ys, xs[i]) }
  while len(ys) < n and not (n >= 2 or n != 3) { ys[0] = abs(min(1, 2) // 3 % 4 / 5) }
  if n <= 0 { break } else { continue }
  return ys
}
""",
    "fn w0(xs, m) {\n    out = []\n    for i in range(0, len(xs)) {\n        v = xs[i] __HOLE_1__ m\n"
    "        if v __HOLE_2__ 250 {\n            append(out, v)\n        }\n    }\n    return out\n}\n",
]
CRLF = [src.replace("\n", "\r\n") for src in FIXTURES]
EDGES = [
    "",
    "\n",
    "\n\n\n",
    "fn f() { return 1 }",  # no trailing newline
    "fn f() {\n  return 1\n}",
    "x \t\r",
    "x\r",
    "# only a comment",
    '"a\\',  # a backslash at the end of the source
    '"a\\\n',  # the same line, followed by a line break: another error
    '"ab\n"',
    '"\\q"',
    "x = 1\n$\n",
    "٣\n",
    's = "a\ud800"\n',  # a lone surrogate in a string,
    "x = 1\n# \udfff\n",  # in a comment,
    '$ "\udc00"',  # and on a line that fails earlier
    "x = \ud800 + \U0001F600\n",
    's = "\U0001F600"',  # a pair is one character
]

ATOMS = ["\n", "\r", "\t", " ", '"', "\\", "#", ".", "e", "E", "__HOLE_3__", "_"]
ATOMS += list("0123456789") + list("abxyzfnr") + ["fn", "in", "not", "len"]
ATOMS += ["==", "!=", "<=", ">=", "//", "-", "+", "*", "/", "%", "(", ")", "{", "}", "[", "]", ",", "=", "<", ">"]


def random_sources(n, seed):
    rng = random.Random(seed)
    return ["".join(rng.choice(ATOMS) for _ in range(rng.randrange(40))) for _ in range(n)]


INPUTS = FIXTURES + CRLF + EDGES + random_sources(1500, seed=3)


MEMOS = {"lines": parser._LINES, "statements": parser._STMTS, "headers": parser._HEADERS}


def clear_memos():
    for memo in MEMOS.values():
        memo.clear()


@pytest.fixture
def cold_memo():
    clear_memos()
    yield
    clear_memos()


def kept_keys():
    return {(name, key) for name, memo in MEMOS.items() for key in memo._values}


def fill_the_memos():
    """Evict every kept line, statement and header: look up new keys in
    each memo, as parsing five programs of ``LINE_MEMO_CAPACITY`` // 4 new
    lines 16 times each in a row would, so that they are looked up more
    often than the kept ones, until none of the keys kept before is left.
    A full memo gives up a key only to one looked up more often, so the
    lines that many inputs share (looked up a few hundred times) go only
    once their counts have halved a few times.  The new keys are no
    source's, so a parse after the fill misses on every line."""
    earlier = kept_keys()
    for _ in range(4):
        for chunk in range(5):
            for _ in range(16):
                for k in range(LINE_MEMO_CAPACITY // 4):
                    for memo in MEMOS.values():
                        memo.get(("filler", chunk, k), lambda: None)
        if not earlier & kept_keys():
            break
    assert not earlier & kept_keys()
    assert [len(memo) for memo in MEMOS.values()] == [LINE_MEMO_CAPACITY] * 3


def test_tokens_match_the_whole_source_scan_cold_and_warm(cold_memo):
    expected = [outcome(whole_source_tokenize, s) for s in INPUTS]
    # the memo has room for every line, so a line is kept from its first
    # scan on and the later passes read only kept lines
    for _ in range(3):
        assert [outcome(tokenize, s) for s in INPUTS] == expected


def test_tokens_match_after_the_memo_has_evicted(cold_memo):
    expected = [outcome(whole_source_tokenize, s) for s in INPUTS]
    for s in INPUTS:
        outcome(tokenize, s)
        outcome(tokenize, s)
    fill_the_memos()
    assert [outcome(tokenize, s) for s in INPUTS] == expected


SCAN_ERRORS = ("unexpected character", "unterminated string literal", "unterminated string escape",
               "unknown string escape", "lone surrogate")


def test_the_inputs_reach_every_token_kind_and_scan_error():
    outcomes = [outcome(whole_source_tokenize, s) for s in INPUTS]
    kinds = {tok[0] for o in outcomes if isinstance(o, list) for tok in o}
    errors = {e for o in outcomes if isinstance(o, tuple) for e in SCAN_ERRORS if o[0].startswith(e)}
    assert kinds == {"kw", "ident", "int", "float", "string", "punct", "hole", "eof"}
    assert errors == set(SCAN_ERRORS)


def test_a_line_that_raises_is_not_kept(cold_memo):
    for _ in range(3):
        with pytest.raises(ParseError):
            tokenize('x = "a\\q"')
    assert len(parser._LINES) == 0


def body(*lines):
    return "fn f(a, b, d, xs) {\n%s\n}\n" % "\n".join("    " + line for line in lines)


# Sources whose statements read past a line break or share a line.  Each
# line that joins the next also appears where it ends its statement, so a
# warm memo holds both readings of the same line text at the same line.
LINE_JOINS = [
    body("x = a", "+ b", "return x"),
    body("x = a", "return x"),
    body("x = a", "- b", "return x"),
    body("y = xs", "[0]", "return y"),
    body("y = xs", "return y"),
    body("y = xs", "[0] = 1", "return y"),
    body("c = a < b", "< d", "return c"),
    body("c = a < b", "return c"),
    body("return -", "9223372036854775808"),
    body("return -", "9223372036854775808[0]"),
    body("return -", "9223372036854775807"),
    body("return -", "a"),
    body("x = 1 y = 2", "return x"),
    body("x = 1", "y = 2 return y"),
    body("x = 1", "x = 1", "return x"),
    body("", "x = 1", "return x"),
    body("x = 1 }"),
    body("while true {", "    append(xs, 1)", "    break", "}", "for i in range(0, 3) {", "    continue", "}",
         "return xs"),
    body("while true {", "    break", "    append(xs, 1)", "}", "return xs"),
    body("while true {", "    continue", "    break", "}", "return xs"),
    body("append(xs, 1)", "append(xs, 1) return xs"),
    "fn f(a) {\n    return a",
    "fn f(a) {\n    x = a\n",
]
NESTED = "(" * MAX_NESTING + "a" + ")" * MAX_NESTING  # at the bound, and one level past it in parentheses
LONG = "-a" + " + a" * ((MAX_EXPR_TOKENS - 2) // 2)  # MAX_EXPR_TOKENS tokens, and one more with "- "
# Headers that begin their line and whose ``{`` ends it, so they are kept:
# ``if``, ``while`` and ``for`` with and without a step, the same header text
# at two line numbers, headers at the expression bounds, and headers kept
# although the block their ``{`` opens is one too deep.
KEPT_HEADERS = [
    body("if a < b {", "    return a", "}", "return b"),
    body("x = 0", "if a < b {", "    return a", "}", "return b"),
    body("while a < b {", "    a = a + 1", "}", "return a"),
    body("for i in range(0, b) {", "    a = a + i", "}", "return a"),
    body("for i in range(a, b, 2) {", "    d = d + i", "}", "return d"),
    body("if %s {" % NESTED, "    return a", "}", "return b"),
    body("while %s {" % LONG, "    a = a + 1", "}", "return a"),
    body(*["    " * k + "if a {" for k in range(MAX_BLOCKS)], "    " * MAX_BLOCKS + "x = 1", *["}"] * MAX_BLOCKS),
    body(*["    " * k + "if a {" for k in range(MAX_BLOCKS + 1)], "x = 1", *["}"] * (MAX_BLOCKS + 1)),
]
# Headers that are not kept: one whose block shares its line, one that runs
# onto the next line, and four that raise.
LEFT_HEADERS = [
    body("if a { x = 1 }", "return x"),
    body("if a == {", "1} {", "    return a", "}", "return b"),
]
RAISING_HEADERS = [
    body("while a < b < d {", "}", "return a"),
    body("for i in range(0, b,) {", "}", "return a"),
    body("if (%s) {" % NESTED, "    return a", "}", "return b"),
    body("while - %s {" % LONG, "    a = a + 1", "}", "return a"),
]
PROGRAMS = INPUTS + FIXTURES * 3 + LINE_JOINS + KEPT_HEADERS + LEFT_HEADERS + RAISING_HEADERS


def parse_outcome(parse, source):
    """The program's repr, which holds every ``loc`` (``==`` ignores them), or
    the ParseError as (message, line, col)."""
    try:
        return repr(parse(source))
    except ParseError as e:
        return (e.message, e.line, e.col)


def memo_free_parse(source):
    return _Parser(tokenize(source)).parse_program()


def test_the_line_joins_parse_and_fail_as_written():
    assert parse_outcome(memo_free_parse, body("x = a", "+ b", "return x")).count("BinOp(op='+'") == 1
    assert "Index(" in parse_outcome(memo_free_parse, body("y = xs", "[0]", "return y"))
    assert parse_outcome(memo_free_parse, body("c = a < b", "< d", "return c"))[1:] == (3, 5)
    assert "Literal(value=9223372036854775808)" in parse_outcome(memo_free_parse, body("return -", "9223372036854775808"))
    two = parse_outcome(memo_free_parse, body("x = 1 y = 2", "return x"))
    assert "Loc(line=2, col=5)" in two and "Loc(line=2, col=11)" in two
    assert "Loc(line=3, col=5)" in parse_outcome(memo_free_parse, body("x = 1", "x = 1", "return x"))


def test_programs_match_the_memo_free_parse_cold_warm_and_evicted(cold_memo):
    expected = [parse_outcome(memo_free_parse, s) for s in PROGRAMS]
    parser._LINES.clear()
    # the memo has room for every statement, so one is kept from its first
    # parse on and the later passes read every statement that can be kept
    # from the memo
    for _ in range(3):
        assert [parse_outcome(parse_program, s) for s in PROGRAMS] == expected
    assert len(parser._STMTS) > 0 and len(parser._HEADERS) > 0
    fill_the_memos()
    assert [parse_outcome(parse_program, s) for s in PROGRAMS] == expected


def test_a_statement_that_raises_or_leaves_its_line_is_not_kept(cold_memo):
    for _ in range(3):
        with pytest.raises(ParseError):
            parse_program(body("x = )", "return x"))
        with pytest.raises(ParseError):
            parse_program(body("c = a < b", "< d", "return c"))
    assert len(parser._STMTS) == 0
    for _ in range(3):
        parse_program(body("x = a", "+ b", "return x"))
        parse_program(body("x = 1 y = 2", "return x"))
    # only the two ``return x`` lines, at lines 3 and 4, cover their lines
    assert sorted(key[:2] for key in parser._STMTS._values) == [(3, "    return x"), (4, "    return x")]


def test_a_header_that_raises_or_leaves_its_line_is_not_kept(cold_memo):
    errors = [parse_outcome(memo_free_parse, s) for s in RAISING_HEADERS]
    assert [error[0].split()[:2] for error in errors] == [
        ["comparisons", "cannot"], ["unexpected", "')'"], ["expression", "nested"], ["expression", "longer"]]
    for _ in range(3):
        assert [parse_outcome(parse_program, s) for s in RAISING_HEADERS] == errors
        for source in LEFT_HEADERS:
            parse_program(source)
    assert len(parser._HEADERS) == 0


def test_headers_that_end_their_line_are_kept_by_line_number_and_text(cold_memo):
    for source in KEPT_HEADERS:
        parse_outcome(parse_program, source)
    # every line after the first that ends in ``{`` is a header, and it is kept
    ends = {(n, line) for source in KEPT_HEADERS for n, line in enumerate(source.split("\n"), 1) if line.endswith("{")}
    assert set(parser._HEADERS._values) == {(n, line) for n, line in ends if n > 1}
    assert {text.split()[0] for _, text in parser._HEADERS._values} == {"if", "while", "for"}
    assert {(2, "    if a < b {"), (3, "    if a < b {")} <= set(parser._HEADERS._values)


@pytest.mark.parametrize("source", [None, b"fn f() { return 1 }", 3])
def test_a_source_that_is_not_a_str_raises_type_error(source):
    with pytest.raises(TypeError):
        tokenize(source)
    with pytest.raises(TypeError):
        parse_program(source)
