"""AST node types for MiniImp.

Every node type, and ``Loc``, is declared once, as one row below: its
fields in constructor order, which of them hold sub-nodes, and whether it
carries a source ``loc``.  ``_declare`` builds the class from the row, with
the constructor, ``==``, ``hash``, ``repr``, ``children`` and pickling.

Nodes are immutable: setting or deleting an attribute raises
``AttributeError``.  Structural equality ignores source locations, so a
program and its formatted-then-reparsed twin compare equal.  Nodes pickle,
copy and deepcopy by rebuilding through their constructor, ``loc`` kept.
"""

from __future__ import annotations

from typing import Union

# How a field holds sub-nodes, after a colon in a row: "node" one, "node?"
# one or None, "nodes" a tuple of them.  A bare field holds no sub-node.
_CHILD_CODE = {"node": "self.{0}, ", "node?": "*(() if self.{0} is None else (self.{0},)), ", "nodes": "*self.{0}, "}


# generated once per class at import, as namedtuple does; fields are stored
# through the slot descriptors, past the raising __setattr__
_METHODS = """
def __init__(self, {params}):
    {sets}
def __eq__(self, other):
    return ({key}) == ({other_key}) if type(other) is type(self) else NotImplemented
def __hash__(self):
    return hash(({key}))
def _children(self):
    return ({kids})
"""


class _Node:
    """Shared behaviour of the declared types; fields live in ``__slots__``."""

    __slots__ = ()
    _fields = ()  # constructor order; ``loc`` last when carried

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __delattr__(self, name):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join("%s=%r" % (f, getattr(self, f)) for f in self._fields))

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)


def _declare(name: str, row: str, loc: bool = False, ast: bool = True) -> type:
    """The class of one row: ``row`` lists the fields, each as ``field`` or
    ``field:kind`` (see ``_CHILD_CODE``); ``loc`` adds a trailing ``loc=None``
    that ``==`` and ``hash`` ignore; ``ast`` gives it children."""
    specs = [f.partition(":")[::2] for f in row.split()]
    compared = [f for f, _ in specs]
    fields = compared + ["loc"] * loc
    cls = type(name, (_Node,), {"__slots__": tuple(fields), "__module__": __name__, "_fields": tuple(fields)})
    code = _METHODS.format(
        params=", ".join(compared + ["loc=None"] * loc),
        sets="; ".join("_set_%s(self, %s)" % (f, f) for f in fields) or "pass",
        key="".join("self.%s, " % f for f in compared),
        other_key="".join("other.%s, " % f for f in compared),
        kids="".join(_CHILD_CODE[kind].format(f) for f, kind in specs if kind),
    )
    namespace = {"_set_%s" % f: getattr(cls, f).__set__ for f in fields}
    exec(code, namespace)
    for method in ("__init__", "__eq__", "__hash__") + ("_children",) * ast:
        setattr(cls, method, namespace[method])
    return cls


Loc = _declare("Loc", "line col", ast=False)

# --- expressions ---

Literal = _declare("Literal", "value")  # int, float (incl. inf), bool, str, or None
Var = _declare("Var", "name")
BinOp = _declare("BinOp", "op left:node right:node")
UnaryOp = _declare("UnaryOp", "op operand:node")  # op is "-" or "not"
Index = _declare("Index", "base:node index:node")
Call = _declare("Call", "func args:nodes")  # func is one of BUILTINS
ListLit = _declare("ListLit", "items:nodes")
SetLit = _declare("SetLit", "items:nodes")

Expr = Union[Literal, Var, BinOp, UnaryOp, Index, Call, ListLit, SetLit]

BUILTINS = ("len", "abs", "min", "max")

# --- statements ---

Assign = _declare("Assign", "target value:node", loc=True)
IndexAssign = _declare("IndexAssign", "target index:node value:node", loc=True)
Append = _declare("Append", "target value:node", loc=True)
If = _declare("If", "cond:node then_body:nodes else_body:nodes", loc=True)
While = _declare("While", "cond:node body:nodes", loc=True)
For = _declare("For", "var start:node stop:node step:node? body:nodes", loc=True)
Break = _declare("Break", "", loc=True)
Continue = _declare("Continue", "", loc=True)
Return = _declare("Return", "value:node", loc=True)

Stmt = Union[Assign, IndexAssign, Append, If, While, For, Break, Continue, Return]

Program = _declare("Program", "name params body:nodes")


def _literal_eq(self, other):
    # plain equality would treat 2 == 2.0 and True == 1; literals must keep
    # the lexical type distinct
    if type(other) is not Literal:
        return NotImplemented
    return type(self.value) is type(other.value) and self.value == other.value


Literal.__eq__ = _literal_eq
Literal.__hash__ = lambda self: hash((type(self.value).__name__, self.value))


def children(node) -> tuple:
    """The direct sub-nodes of a program, statement or expression, in source
    order."""
    try:
        return node._children()
    except AttributeError:
        raise TypeError("not an AST node: %r" % (node,)) from None


def walk(node):
    """Pre-order iteration over ``node`` and all its descendants, in source
    order."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(children(node)))


def list_variables(p: Program):
    """Ordered variable list V: parameters first, then every other variable at
    its first textual definition point, each name once."""
    seen = dict.fromkeys(p.params)  # insertion-ordered set

    def visit(node):
        # only statements define variables, so recurse into compound
        # statements and skip expression subtrees
        for s in children(node):
            if isinstance(s, (Assign, IndexAssign, Append)):
                seen.setdefault(s.target)
            elif isinstance(s, For):
                seen.setdefault(s.var)
                visit(s)
            elif isinstance(s, (If, While)):
                visit(s)

    visit(p)
    return list(seen)
