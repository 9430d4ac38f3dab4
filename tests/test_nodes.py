"""The AST node types: constructors, immutability, equality, hashing, repr,
pickling and children.  Standard library, pytest and semtrace.lang only,
so this file also runs without numpy and without conftest.py."""

import copy
import pickle
import weakref

import pytest

from semtrace.lang import (
    Append, Assign, BinOp, Break, Call, Continue, For, If, Index, IndexAssign, ListLit, Literal, Loc, Program,
    Return, SetLit, UnaryOp, Var, While, children, format_program, parse_program, walk,
)

# one program that holds every node type, with its locations
SOURCE = """fn f(xs, n) {
  s = {1, 2.5}
  ys = [true, null, "a", -inf]
  for i in range(0, n) { append(ys, xs[i]) }
  for j in range(n, 0, -1) {
    if not (j > 2) { break } else { continue }
  }
  while len(ys) < n { ys[0] = abs(min(1, 2) // 3) }
  return ys
}
"""

SOURCE_REPR = (
    "Program(name='f', params=('xs', 'n'), body=(Assign(target='s', value=SetLit(items=(Literal(value=1), "
    "Literal(value=2.5))), loc=Loc(line=2, col=3)), Assign(target='ys', value=ListLit(items=(Literal(value=True), "
    "Literal(value=None), Literal(value='a'), UnaryOp(op='-', operand=Literal(value=inf)))), loc=Loc(line=3, col=3)), "
    "For(var='i', start=Literal(value=0), stop=Var(name='n'), step=None, body=(Append(target='ys', "
    "value=Index(base=Var(name='xs'), index=Var(name='i')), loc=Loc(line=4, col=26)),), loc=Loc(line=4, col=3)), "
    "For(var='j', start=Var(name='n'), stop=Literal(value=0), step=UnaryOp(op='-', operand=Literal(value=1)), "
    "body=(If(cond=UnaryOp(op='not', operand=BinOp(op='>', left=Var(name='j'), right=Literal(value=2))), "
    "then_body=(Break(loc=Loc(line=6, col=22)),), else_body=(Continue(loc=Loc(line=6, col=37)),), "
    "loc=Loc(line=6, col=5)),), loc=Loc(line=5, col=3)), While(cond=BinOp(op='<', left=Call(func='len', "
    "args=(Var(name='ys'),)), right=Var(name='n')), body=(IndexAssign(target='ys', index=Literal(value=0), "
    "value=Call(func='abs', args=(BinOp(op='//', left=Call(func='min', args=(Literal(value=1), Literal(value=2))), "
    "right=Literal(value=3)),)), loc=Loc(line=8, col=23)),), loc=Loc(line=8, col=3)), Return(value=Var(name='ys'), "
    "loc=Loc(line=9, col=3))))"
)

# every type's fields, in constructor order
FIELDS = {
    Loc: ("line", "col"),
    Literal: ("value",),
    Var: ("name",),
    BinOp: ("op", "left", "right"),
    UnaryOp: ("op", "operand"),
    Index: ("base", "index"),
    Call: ("func", "args"),
    ListLit: ("items",),
    SetLit: ("items",),
    Assign: ("target", "value", "loc"),
    IndexAssign: ("target", "index", "value", "loc"),
    Append: ("target", "value", "loc"),
    If: ("cond", "then_body", "else_body", "loc"),
    While: ("cond", "body", "loc"),
    For: ("var", "start", "stop", "step", "body", "loc"),
    Break: ("loc",),
    Continue: ("loc",),
    Return: ("value", "loc"),
    Program: ("name", "params", "body"),
}


def one_of_each():
    """An instance of every type in FIELDS, taken from the parsed SOURCE."""
    found = {Loc: Loc(1, 2)}
    for node in walk(parse_program(SOURCE)):
        found.setdefault(type(node), node)
    assert set(found) == set(FIELDS)
    return found


def test_parsed_repr_is_pinned():
    assert repr(parse_program(SOURCE)) == SOURCE_REPR


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda cls: cls.__name__)
def test_every_field_is_immutable(cls):
    node = one_of_each()[cls]
    before = repr(node)
    for name in FIELDS[cls] + ("other",):
        with pytest.raises(AttributeError):
            setattr(node, name, None)
        with pytest.raises(AttributeError):
            delattr(node, name)
    assert repr(node) == before


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda cls: cls.__name__)
def test_keyword_construction_gives_the_same_node(cls):
    node = one_of_each()[cls]
    values = [getattr(node, name) for name in FIELDS[cls]]
    rebuilt = cls(**dict(zip(FIELDS[cls], values)))
    assert repr(rebuilt) == repr(cls(*values)) == repr(node)


def test_positional_and_keyword_construction():
    loc = Loc(3, 4)
    stmt = Assign("t", Literal(1), loc=loc)
    assert (stmt.target, stmt.value, stmt.loc) == ("t", Literal(1), loc)
    assert Assign("t", Literal(1), loc) == stmt
    assert Assign("t", Literal(1)).loc is None
    program = Program(name="f", params=("a",), body=(stmt,))
    assert program == Program("f", ("a",), (stmt,))
    assert repr(program) == ("Program(name='f', params=('a',), body=(Assign(target='t', value=Literal(value=1), "
                             "loc=Loc(line=3, col=4)),))")
    with pytest.raises(TypeError):
        Var()
    with pytest.raises(TypeError):
        Var("a", "b")
    with pytest.raises(TypeError):
        Program("f", (), (), loc=loc)


@pytest.mark.parametrize("clone", [lambda p: pickle.loads(pickle.dumps(p)), copy.copy, copy.deepcopy],
                         ids=["pickle", "copy", "deepcopy"])
def test_pickle_and_copies_keep_fields_and_locations(clone):
    program = parse_program(SOURCE)
    twin = clone(program)
    assert type(twin) is Program
    assert twin == program and hash(twin) == hash(program)
    assert repr(twin) == SOURCE_REPR
    assert [n.loc for n in walk(twin) if hasattr(n, "loc")] == [n.loc for n in walk(program) if hasattr(n, "loc")]


def test_equality_and_hash_ignore_locations():
    program = parse_program(SOURCE)
    reparsed = parse_program(format_program(program))
    assert repr(reparsed) != repr(program)  # the formatter moves the statements
    assert reparsed == program and hash(reparsed) == hash(program)
    assert Break(Loc(1, 1)) == Break() and hash(Break(Loc(1, 1))) == hash(Break())
    assert Assign("x", Var("y"), loc=Loc(1, 1)) == Assign("x", Var("y"), loc=Loc(2, 5))
    assert Assign("x", Var("y")) != Assign("x", Var("z"))
    assert Loc(1, 2) == Loc(1, 2) and Loc(1, 2) != Loc(2, 1)
    assert ListLit((Var("a"),)) != SetLit((Var("a"),))
    assert len({program, reparsed, parse_program(SOURCE)}) == 1


def test_literals_keep_their_lexical_type():
    assert Literal(2) != Literal(2.0)
    assert Literal(True) != Literal(1)
    assert Literal(False) != Literal(0)
    assert Literal(2) == Literal(2) and hash(Literal("a")) == hash(Literal("a"))
    assert BinOp("+", Literal(1), Var("x")) != BinOp("+", Literal(1.0), Var("x"))
    assert len({Literal(2), Literal(2.0), Literal(True), Literal(1)}) == 4


def test_children_in_source_order_for_every_type():
    a, b, c, d = Var("a"), Var("b"), Var("c"), Var("d")
    s1, s2 = Break(), Continue()
    expected = [
        (Literal(1), ()),
        (a, ()),
        (BinOp("+", a, b), (a, b)),
        (UnaryOp("-", a), (a,)),
        (Index(a, b), (a, b)),
        (Call("min", (a, b, c)), (a, b, c)),
        (Call("len", ()), ()),
        (ListLit((c, a)), (c, a)),
        (SetLit((b,)), (b,)),
        (Assign("x", a), (a,)),
        (IndexAssign("x", a, b), (a, b)),
        (Append("x", a), (a,)),
        (If(a, (s1,), (s2,)), (a, s1, s2)),
        (If(a, (s1, s2), ()), (a, s1, s2)),
        (While(a, (s1, s2)), (a, s1, s2)),
        (For("i", a, b, None, (s1,)), (a, b, s1)),
        (For("i", a, b, c, (s1, s2)), (a, b, c, s1, s2)),
        (For("i", a, b, d, ()), (a, b, d)),
        (Break(), ()),
        (Continue(), ()),
        (Return(a), (a,)),
        (Program("f", ("a",), (s1, s2)), (s1, s2)),
    ]
    assert {type(node) for node, _ in expected} == set(FIELDS) - {Loc}
    for node, kids in expected:
        got = children(node)
        assert type(got) is tuple and got == kids, node
        assert all(x is y for x, y in zip(got, kids)), node
    for not_a_node in (3, "x", None, Loc(1, 2)):
        with pytest.raises(TypeError):
            children(not_a_node)


# the private slots in which semtrace.tracer keeps a statement's compiled code
PRIVATE = {cls: ("_code", "_kernel") if cls in (While, For) else ("_code",)
           for cls in FIELDS if "loc" in FIELDS[cls] and cls is not Loc}


@pytest.mark.parametrize("cls", list(PRIVATE), ids=lambda cls: cls.__name__)
def test_private_slots_are_outside_the_fields(cls):
    """A statement's private slots start None in a new node and in every
    rebuilt one, and no field reader sees them: not ``_fields``, ``==``,
    ``hash``, ``repr``, nor the pickle and copy payloads."""
    node = one_of_each()[cls]
    values = [getattr(node, name) for name in FIELDS[cls]]
    fresh, kept = cls(*values), object()
    assert all(getattr(fresh, name) is None for name in PRIVATE[cls])
    before = (repr(node), hash(node), node.__reduce__(), pickle.dumps(node))
    for name in PRIVATE[cls]:
        assert name not in cls._fields
        object.__setattr__(node, name, kept)
        with pytest.raises(AttributeError):
            setattr(node, name, None)
    try:
        assert (repr(node), hash(node), node.__reduce__(), pickle.dumps(node)) == before
        assert node == fresh and hash(node) == hash(fresh)
        for twin in (pickle.loads(pickle.dumps(node)), copy.copy(node), copy.deepcopy(node)):
            assert twin is not node and repr(twin) == before[0]
            assert all(getattr(twin, name) is None for name in PRIVATE[cls])
    finally:
        for name in PRIVATE[cls]:
            object.__setattr__(node, name, None)


def test_a_loop_is_weakly_referable():
    node = one_of_each()
    for cls in (While, For):
        assert weakref.ref(node[cls])() is node[cls]
    with pytest.raises(TypeError):
        weakref.ref(node[Assign])
