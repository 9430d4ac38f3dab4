"""Small-step MiniImp interpreter with per-statement step accounting.

Each executed statement is one step: assignments, appends, indexed writes,
``break``/``continue``/``return``, each ``if`` condition check, each ``while``
condition check, and each ``for`` loop-variable binding.  Evaluating an
expression is not a step.  Runtime errors are recorded in the returned
:class:`ExecutionRecord`, never raised past :func:`execute`, which compiles
the program into closures for each call and runs hot loops in kernels kept
per loop shape and variable pattern (:class:`_Compiler`): a ``for`` over
more than ``HOT`` values from its head, a ``while`` loop after ``HOT``
iterations.  A kernel keeps the loop's variables in Python locals.  One
lowering and one renderer generate both tiers from the same fragments, one
for each kind of statement and expression: a kernel lowers its loop whole,
whatever its body holds, and a closure is a node lowered one node deep, by
a maker compiled once per shape.  A loop's closure hands a hot activation
to its kernel from a fragment too.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, NamedTuple, Optional, Sequence

from .lang import (
    Append,
    Assign,
    BinOp,
    Break,
    Call,
    Continue,
    For,
    If,
    Index,
    IndexAssign,
    ListLit,
    Literal,
    Loc,
    Program,
    Return,
    SetLit,
    UnaryOp,
    Var,
    While,
    list_variables,
)
from .values import INT_MAX, INT_MIN, Memo, MimSet, Value, is_number, values_equal

DEFAULT_BUDGET = 100_000

STATUS_RETURNED = "returned"
STATUS_ERROR = "runtime_error"
STATUS_BUDGET = "budget_exceeded"

# runtime error kinds
E_TYPE = "type_mismatch"
E_DIV_ZERO = "division_by_zero"
E_INDEX = "index_out_of_range"
E_UNDEF = "undefined_variable"
E_OVERFLOW = "integer_overflow"
E_UNHASHABLE = "unhashable_set_member"
E_NAN = "nan_result"
E_RANGE = "bad_range"


class StepEvent(NamedTuple):
    step_index: int
    loc: Optional[Loc]
    defined_variable: Optional[str]
    value_written: Optional[Value]


@dataclass
class ExecutionRecord:
    status: str
    return_value: Optional[Value]
    final_vars: Dict[str, Value]
    steps_used: int
    error_kind: Optional[str] = None
    error_loc: Optional[Loc] = None
    trajectory: Optional[List[StepEvent]] = field(default=None)


class MimRuntimeError(Exception):
    def __init__(self, kind: str, message: str, loc: Optional[Loc] = None):
        self.kind = kind
        self.loc = loc
        super().__init__(message)


class _Budget(Exception):
    pass


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class _Return(Exception):
    pass  # args[0] is the returned value


def _check_int(v: int, loc) -> int:
    if not INT_MIN <= v <= INT_MAX:
        raise MimRuntimeError(E_OVERFLOW, "integer overflow", loc)
    return v


def _check_float(v: float, loc) -> float:
    if math.isnan(v):
        raise MimRuntimeError(E_NAN, "operation produced NaN", loc)
    return v


# the strict binary operators, shared by the int-int fast path and the slow path
_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv, "//": operator.floordiv,
        "%": operator.mod, "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
        "==": operator.eq, "!=": operator.ne}
_OP_ARGS = {op: (op, f, op in ("/", "//", "%")) for op, f in _OPS.items()}  # values of a _BINOP's names
_ONE = Literal(1)  # the step of a for loop that gives none, and the unread index of an append
_NULL = Literal(None)  # the value of a break or continue step


def _binop(op, a, b, loc) -> Value:
    """A strict binary operator on operands the int-int fast path does not take."""
    if op == "==":
        return values_equal(a, b)
    if op == "!=":
        return not values_equal(a, b)
    if op in ("<", "<=", ">", ">="):
        if not (is_number(a) and is_number(b) or isinstance(a, str) and isinstance(b, str)):
            raise MimRuntimeError(E_TYPE, "%r needs two numbers or two strings" % op, loc)
        return _OPS[op](a, b)
    if op == "+" and isinstance(a, str) and isinstance(b, str):
        return a + b
    if not (is_number(a) and is_number(b)):
        raise MimRuntimeError(E_TYPE, "%r needs two numbers" % op, loc)
    both_int = isinstance(a, int) and isinstance(b, int)
    if op in ("+", "-", "*"):
        v = _OPS[op](a, b)
        return _check_int(v, loc) if both_int else _check_float(v, loc)
    if op == "/":
        # always produces a float; int / int-zero is an error, while a
        # float zero divisor yields +-inf (0.0 / 0.0 would be NaN)
        if b == 0:
            if both_int:
                raise MimRuntimeError(E_DIV_ZERO, "integer division by zero", loc)
            if a == 0:
                raise MimRuntimeError(E_NAN, "0/0 is undefined", loc)
            return math.inf if (a > 0) == (math.copysign(1.0, float(b)) > 0) else -math.inf
        return _check_float(a / b, loc)
    if not both_int:
        raise MimRuntimeError(E_TYPE, "%r needs two integers" % op, loc)
    if b == 0:
        raise MimRuntimeError(E_DIV_ZERO, "integer %s by zero" % ("division" if op == "//" else "modulo"), loc)
    return _check_int(_OPS[op](a, b), loc)


def _index(base, idx, loc) -> Value:
    if isinstance(idx, bool) or not isinstance(idx, int):
        raise MimRuntimeError(E_TYPE, "index must be an integer", loc)
    if not isinstance(base, (list, str)):
        raise MimRuntimeError(E_TYPE, "only lists and strings are indexable", loc)
    if not 0 <= idx < len(base):
        raise MimRuntimeError(E_INDEX, "index %d out of range for length %d" % (idx, len(base)), loc)
    return base[idx]


def _call(func, args, loc) -> Value:
    if func == "len":
        if len(args) != 1 or not isinstance(args[0], (list, MimSet, str)):
            raise MimRuntimeError(E_TYPE, "len needs one list, set, or string", loc)
        return len(args[0])
    if func == "abs":
        if len(args) != 1 or not is_number(args[0]):
            raise MimRuntimeError(E_TYPE, "abs needs one number", loc)
        v = args[0]
        return _check_int(abs(v), loc) if isinstance(v, int) else abs(v)
    if func in ("min", "max"):
        if len(args) == 1 and isinstance(args[0], (list, MimSet)):
            items = list(args[0])
        elif len(args) >= 2:
            items = args
        else:
            raise MimRuntimeError(E_TYPE, "%s needs a collection or >=2 arguments" % func, loc)
        if not items or not all(is_number(v) for v in items):
            raise MimRuntimeError(E_TYPE, "%s needs non-empty numeric input" % func, loc)
        return min(items) if func == "min" else max(items)
    raise MimRuntimeError(E_TYPE, "unknown builtin %r" % func, loc)


# The fragments: source that leaves one node's value in ``r{n}``, from its
# operands ``{0}``, ``{1}`` and its ``_NAMES``, each suffixed by ``{n}``; an
# error carries ``{loc}``.  A store to the variable that a name of
# ``_VARIABLES`` holds is written ``{target} = ...`` or ``{var} = ...``.
# :func:`_render` inlines them into both tiers.
_BINOP = """\
a{n}, b{n} = {0}, {1}
if (type(a{n}) is not int or type(b{n}) is not int or divides{n} and not b{n}
        or not INT_MIN <= (r{n} := fast{n}(a{n}, b{n})) <= INT_MAX):
    r{n} = _binop(op{n}, a{n}, b{n}, {loc})"""
_INDEX = """\
base{n}, idx{n} = {0}, {1}
if type(base{n}) is list and type(idx{n}) is int and 0 <= idx{n} < len(base{n}):
    r{n} = base{n}[idx{n}]
else:
    r{n} = _index(base{n}, idx{n}, {loc})"""
_LEN = """\
v{n} = {0}
r{n} = len(v{n}) if type(v{n}) is list or isinstance(v{n}, (list, MimSet, str)) else _call("len", [v{n}], {loc})"""
# and, or: the right operand is read only when the left one is the boolean
# that does not decide the result
_LOGIC = """\
r{n} = {0}
if r{n} is not decides{n}:
    if type(r{n}) is bool:
        r{n} = {1}
    if type(r{n}) is not bool:
        raise MimRuntimeError(E_TYPE, "%r needs booleans" % op{n}, {loc})"""
_UNARY = """\
r{n} = {0}
if negate{n} and is_number(r{n}):
    r{n} = _check_int(-r{n}, {loc}) if isinstance(r{n}, int) else -r{n}
elif negate{n} or type(r{n}) is not bool:
    raise MimRuntimeError(E_TYPE, "unary - needs a number" if negate{n} else "'not' needs a boolean", {loc})
else:
    r{n} = not r{n}"""
# A list literal's items, a set literal's members and a builtin's arguments
# are a fresh list, built left to right: empty, of the first item, or the
# list so far {0} and the next item {1}.  Each head takes such a list.  On
# closures a list of more items is its first item's, then one _LINK closure
# per item past the first, run in turn on the list ``it``.  A shape that
# carried the arity would have 3**k leaf patterns for k items (a variable, a
# literal or a closure call each), and _MAKERS is never evicted.
_EMPTY = "r{n} = []"
_FIRST = "r{n} = [{0}]"
_NEXT = "r{n} = {0}\nr{n}.append({1})"
_IT = "r{n} = it"  # the list that a closure is given, or the iterator of a kernel's loop
_LINK = _IT + "\nr{n}.append({0})"
_LINKS = _FIRST + "\nfor link{n} in {1}:\n    link{n}(r{n})"
_SET_OF = """\
r{n} = {0}
try:
    r{n} = MimSet(r{n})
except TypeError:  # a list, set or null member
    raise MimRuntimeError(E_UNHASHABLE, "unhashable set member", {loc}) from None"""
_BUILTIN = "r{n} = _call(func{n}, {0}, {loc})"
# a for loop's head, without a step: the iterator over its range
_RANGE = """\
try:
    a{n}, b{n}, c{n} = {0}, {1}, {2}
except _UNBOUND as err:
    raise _undefined(err, {loc}) from None
if type(a{n}) is not int or type(b{n}) is not int or type(c{n}) is not int:
    raise MimRuntimeError(E_TYPE, "range bounds must be integers", {loc})
if not c{n}:
    raise MimRuntimeError(E_RANGE, "range step must be non-zero", {loc})
r{n} = iter(range(a{n}, b{n}, c{n}))"""
# an append or indexed write to the list {0}, the variable ``target`` names
_WRITE = """\
r{n} = {0}
if type(r{n}) is not list and not isinstance(r{n}, list):
    raise MimRuntimeError(E_TYPE, ("indexed assignment" if indexed{n} else "append") + " needs a list", {loc})
if indexed{n}:
    idx{n} = {1}
    if type(idx{n}) is not int or not 0 <= idx{n} < len(r{n}):
        _index(r{n}, idx{n}, {loc})  # raises the type or range error
item{n} = {2}
if owned.get(target{n}) is not r{n}:
    r{n} = owned[target{n}] = list(r{n})
if indexed{n}:
    r{n}[idx{n}] = item{n}
else:
    r{n}.append(item{n})"""


def _indent(text):
    return "".join("    " + line for line in text.splitlines(True))


# The statements: fragments that take their own ``loc``, whose ``{i}`` alone
# on a line is a statement list.  Each inlines its step check, its event and
# the conversion of an unbound variable's error (``_UNBOUND``) at its
# ``loc``, and lowers alike in both tiers.
_STEP = "if steps >= budget:\n    raise _Budget()\nsteps += 1\n"
_UNBOUND = (KeyError, NameError)  # what reading an unbound variable raises: env, or a kernel's local
_EVENT = "if trajectory is not None:\n    trajectory.append(StepEvent(steps, {loc}, %s))\n"
_DEFINE = _STEP + """try:
    {target} = r{n} = {0}
except (MimRuntimeError, *_UNBOUND) as err:
""" + _indent(_EVENT % "None, None") + """\
    raise (err if type(err) is MimRuntimeError else _undefined(err, {loc})) from None
""" + _EVENT
_SET, _SET_LIST = (_DEFINE % ("target{n}, " + record) for record in ("r{n}", "list(r{n})"))
_HEAD = _STEP + _EVENT % "None, None" + """try:
    r{n} = {0}
except _UNBOUND as err:
    raise _undefined(err, {loc}) from None
"""
_IF = _HEAD + """if r{n} is True:
    {1}
elif r{n} is False:
    {2}
else:
    raise MimRuntimeError(E_TYPE, "if condition must be a boolean", {loc})"""
_BODY = "try:\n    {%d}\nexcept _Continue:\n    pass\nexcept _Break:\n    break\n"  # a _Break leaves its loop only
# A loop runs over the ``it`` its kernel is given (_IT); nested in a kernel,
# over its own: a for's _RANGE, a while's endless _FOREVER.  On the cold tier
# a while runs at most HOT iterations (_UNTIL_HOT), and the statement list
# {3} that runs when they are all done hands the rest to its kernel
# (_WHILE_REST); a for's _COLD_RANGE runs a range of more than HOT values
# whole in its kernel, which leaves the closures none.
_WHILE = "for _ in {2}:\n" + _indent(_HEAD + """if r{n} is not True:
    if r{n} is False:
        break
    raise MimRuntimeError(E_TYPE, "while condition must be a boolean", {loc})
""" + _BODY % 1) + "else:\n    {3}"
_FOR = "for i{n} in {1}:\n" + _indent(_STEP + "{var} = i{n}\n" + _EVENT % "var{n}, i{n}" + _BODY % 0)
_FOREVER = "r{n} = itertools.repeat(None)"
_UNTIL_HOT = "r{n} = range(HOT)"
# a _Return, _Break or _Continue; execute reports either of the last two leaving the program as an error at {loc}
_JUMP = _HEAD + "raise signal{n}(r{n}, {loc})"
# A call that keeps the step count in ``run.steps``: a statement list of the
# cold tier, the closures in the list {0}, which {1} compiles them into on its
# first run, or the hand-off of a loop's activation to its kernel over an iterator.
_SYNC = "run.steps = steps\ntry:\n%sfinally:\n    steps = run.steps"
_CALL = _SYNC % "    for r{n} in {0} or {1}:\n        r{n}()\n"
_HANDOFF = _SYNC % "    run.kernel(loop{n})(%s)\n"
_WHILE_REST = _HANDOFF % "itertools.repeat(None)"
_COLD_RANGE = _RANGE + "\nif r{n}.__length_hint__() > HOT:\n" + _indent(_HANDOFF % "r{n}") + "\n    r{n} = ()"
# the names a fragment takes besides its operands, each suffixed like its locals
_NAMES = {_BINOP: "op fast divides", _LOGIC: "op decides", _UNARY: "negate", _BUILTIN: "func",
          _WRITE: "target indexed", _SET: "loc target", _SET_LIST: "loc target", _IF: "loc", _WHILE: "loc",
          _FOR: "loc var", _JUMP: "loc signal", _WHILE_REST: "loop", _COLD_RANGE: "loop"}
_VARIABLES = ("target", "var")  # the names that hold a variable's name
_SIGNALS = {Return: _Return, Break: _Break, Continue: _Continue}
_KERNEL = """def kernel(run, names, %s, it):
    env, owned, trajectory, budget, steps = run.env, run.owned, run.trajectory, run.budget, run.steps
%s    try:
%s
    finally:
        run.steps = steps
%s"""
_STORED = "stored"  # the shape of a variable an assignment stores: its ownership ends

HOT = 16  # a for over more values starts in its kernel; a while moves there after this many iterations
# Kernels by loop shape and variable pattern.  Far above the 7 keys that a
# train-loops run compiles, once each (train-repeat and tools reach none),
# so that a dataset of many templates keeps its kernels; past this many
# keys, values.Memo keeps the table full of those looked up most.
KERNEL_CAPACITY = 128
_KERNELS = Memo(KERNEL_CAPACITY)
_POSITIONS = Memo(KERNEL_CAPACITY)  # the positions of a loop shape's variable operands (_render)


def _render(shape, loc, pad, pattern=None, held=()):
    """The names of the operands of ``shape`` (in the order that
    :class:`_Compiler` lowers them), the lines at indentation ``pad`` that
    leave its value in ``r0``, and the positions of its variable operands,
    those that name a variable; ``loc`` names the location of errors outside
    a statement.

    Without a ``pattern`` each variable is read and stored as a subscript of
    ``env``, as the cold tier does.  A kernel's ``pattern`` is the local
    ``local{k}`` of each variable operand, in order.  The locals ``held`` are
    bound at entry and kept apart from ``env``; a store to any other local
    writes ``env`` too, so ``env`` gains the variable when the cold tier's
    would and a read of it while unbound raises ``NameError``.

    Operands are read left to right: when an operand needs lines of its
    own, each read to its left that can raise (an ``env`` subscript, a
    closure call, a local not held) is taken into a temporary first."""
    params, lines, variables, nodes, slots = [], [], [], itertools.count(), iter(pattern or ())
    unbound = set()  # the locals not held, whose read raises while unbound

    def variable(x):
        """How the variable that the operand ``x`` names is read, and stored."""
        variables.append(params.index(x))
        if pattern is None:
            return "env[%s]" % x, "env[%s]" % x
        k = next(slots)
        local = "local%d" % k
        if k not in held:
            unbound.add(local)
        return local, local if k in held else "env[%s] = %s" % (x, local)

    def emit(key, loc, pad):
        """Append the lines that compute ``key`` at indentation ``pad``; return what reads its value."""
        if type(key) is not tuple:  # a leaf operand
            x = "x%d" % len(params)
            params.append(x)
            if key is Literal:
                return x
            if key is None:
                return x + "()"
            if key is _STORED:
                lines.append("%sowned.pop(%s, None)" % (pad, x))
            return variable(x)[0]
        text, kids, n = key[0], key[1:], next(nodes)
        names = _NAMES.get(text, "").split()
        params.extend(name + str(n) for name in names)
        stores = {name: variable(name + str(n))[1] for name in names if name in _VARIABLES}
        loc = "loc%d" % n if names[:1] == ["loc"] else loc
        for line in text.splitlines():
            indent = pad + " " * (len(line) - len(line.lstrip()))
            holes = [i for i in range(len(kids)) if "{%d}" % i in line]
            if holes and line.strip() == "{%d}" % holes[0]:  # a statement list
                for stmt in kids[holes[0]]:
                    emit(stmt, loc, indent)
                lines.extend([indent + "pass"] * (not kids[holes[0]]))
                continue
            reads = {}
            for i in holes:
                mark = len(lines)
                read = emit(kids[i], loc, indent)
                if len(lines) > mark:  # it needs lines: the reads left of it that can raise go first
                    early = [j for j in reads if reads[j] in unbound or not reads[j].isidentifier()]
                    lines[mark:mark] = ["%st%d_%d = %s" % (indent, n, j, reads[j]) for j in early]
                    reads.update((j, "t%d_%d" % (n, j)) for j in early)
                reads[i] = read
            lines.append(pad + line.format(*map(reads.get, range(len(kids))), n=n, loc=loc, **stores))
        return "r%d" % n

    emit(shape, loc, pad)
    return params, lines, tuple(variables)


def _kernel(key):
    """Compile the kernel of ``key`` (:meth:`_Compiler.kernel`), a loop's
    shape, the local of each variable operand (its name's number in
    first-seen order) and whether each local's variable was bound at entry,
    as ``kernel(run, names, *operands, it)``: ``names`` are the locals'
    variables and ``it`` is the iterator the loop runs over."""
    shape, pattern, bound = key
    held = [k for k in range(len(bound)) if bound[k]]
    params, lines, _ = _render(shape, None, " " * 8, pattern, held)
    loads = "".join("    local%d = env[names[%d]]\n" % (k, k) for k in held)
    stores = "\n".join("        env[names[%d]] = local%d" % (k, k) for k in held)
    exec(_KERNEL % (", ".join(params), loads, "\n".join(lines), stores), globals(), ns := {})
    return ns["kernel"]


_MAKER = """def make(run, %s, loc):
%s    def closure(it=None):
%s
    return closure
"""
_STEPS = "steps = run.steps\ntry:\n%sfinally:\n    run.steps = steps"
_RUN = ("env", "owned", "trajectory", "budget")  # the run's state a closure may read


def _maker(shape):
    """Compile the closure maker of a statement or expression of ``shape``,
    ``make(run, *operands, loc)``: an expression's closure returns the
    fragment's value; a statement's keeps the step count in ``steps``, as a
    kernel does.  The maker binds only the state of the run that its closure
    reads."""
    params, lines, _ = _render(shape, "loc", "")
    body = "\n".join(lines) + "\n"
    body = _STEPS % _indent(body) if _NAMES.get(shape[0], "").startswith("loc") else body + "return r0"
    words = set(re.findall(r"\w+", body))
    state = [name for name in _RUN if name in words]
    bind = "    %s = %s\n" % (", ".join(state), ", ".join("run." + name for name in state)) if state else ""
    exec(_MAKER % (", ".join(params), bind, _indent(_indent(body))), globals(), ns := {})
    return ns["make"]


# Closure makers by shape, never evicted: the cold tier lowers one node deep,
# so there are at most 2,390 shapes, each a statement over a variable, a
# literal or one node of leaves (a variable, a literal or a closure call), or
# such a node alone: 44 assignments, 1,936 indexed writes and appends, 48
# nodes, 176 ifs (44 conditions, each block empty or not), 88 whiles, 54
# fors (a range of three leaves, the body empty or not) and 44 jumps.  A
# 10-step train-loops run makes 15, the tools eval items 71, and a
# 2,000-program fuzz campaign 72.
_MAKERS: Dict[tuple, object] = {}


def _undefined(err, loc) -> MimRuntimeError:
    """``E_UNDEF`` for ``err``, raised by reading an unbound variable (``_UNBOUND``)."""
    return MimRuntimeError(E_UNDEF, "undefined variable %r" % err.args[0] if type(err) is KeyError
                           else "undefined variable", loc)


class _Compiler:
    """Turns one run's program into closures over that run's state.

    Node types and operators are dispatched here, once per node; each error
    carries the ``loc`` of its enclosing statement, fixed when the statement
    is compiled.  Nested blocks are compiled the first time they run, to a
    list of statement closures that ``if``, the loops and :func:`execute`
    run inline.  A variable or literal operand is read in place (:meth:`lower`);
    an unbound variable raises ``KeyError`` (in a kernel, ``NameError``),
    which the statement that read it turns into ``E_UNDEF``.

    Lists are copy-on-write: ``owned`` maps a variable to the list that only
    it holds, one its own ``append`` or indexed write made.  Such a list is
    updated in place; any other list is copied first.  A read that can store
    a value elsewhere (``stores``) ends the ownership, so an owned list never
    holds an owned list, and full mode's event for a write keeps a shallow
    copy of the list.  Full mode differs from summary mode only in the events.

    One lowering (:meth:`statement`, and :meth:`lower` for expressions) and
    one renderer (:func:`_render`) generate both tiers from the fragments,
    one for each kind of node.  The cold tier is closures: each statement,
    and each expression below it that is not a variable or literal, is its
    fragment lowered one node deep, by a maker compiled once per shape
    (:func:`_maker`); a statement list that an ``if`` or a loop runs is one
    node of the shape (:meth:`nested`), and so is a loop's hand-off to its
    kernel, so each statement of a block is one closure (:meth:`block`).  A
    ``for`` activation over more than :data:`HOT` values runs whole in its
    loop's kernel (:meth:`kernel`), from after its range, and a ``while``
    activation that completes :data:`HOT` iterations runs the rest there:
    one Python loop for the loop lowered whole, whatever its
    body holds (nested loops, ``break``, ``continue`` and ``return``
    included), on the run's own ``owned`` and step count.  Each variable
    the loop reads or writes is a Python local of the kernel, loaded from
    ``env`` on entry and written back on exit; a variable unbound at entry
    is written to ``env`` at each store too, so ``env`` keeps the cold
    tier's order of first definitions.  Kernels are kept per
    shape and variable pattern (which variable operands name the same
    variable, and which of those were bound at entry), so loops that differ
    only in their names share one, in one ``values.Memo`` of
    :data:`KERNEL_CAPACITY` keys, so each is compiled once while the table
    has room.
    """

    __slots__ = ("env", "owned", "trajectory", "budget", "steps")

    def __init__(self, env: Dict[str, Value], budget: int, trajectory: Optional[List[StepEvent]]):
        self.env, self.owned, self.trajectory, self.budget, self.steps = env, {}, trajectory, budget, 0

    def generated(self, shape, operands, loc=None):
        """The cold-tier closure of ``shape`` over ``operands``; ``loc`` locates
        the errors of an expression's."""
        return (_MAKERS.get(shape) or _MAKERS.setdefault(shape, _maker(shape)))(self, *operands, loc)

    def lower(self, e, loc, operands, stores=False, depth=math.inf):
        """``e``'s shape; its operands go to ``operands``.  A variable or
        literal, a negative number literal included, is read in place (with
        ``stores``, a variable's ownership ends); any other node ``depth``
        deep is inlined from its fragment, and one below that is a closure
        call (``None``)."""
        t = type(e)
        if t is Var or t is Literal:
            operands.append(e.name if t is Var else e.value)
            return _STORED if stores and t is Var else t
        if t is UnaryOp and e.op == "-" and type(e.operand) is Literal:
            v = e.operand.value
            if type(v) is float or type(v) is int and INT_MIN <= -v <= INT_MAX:
                operands.append(-v)
                return Literal
        if not depth:  # a closure of its own, lowered one node deep
            made = []
            operands.append(self.generated(self.lower(e, loc, made, stores, 1), made, loc))
            return None
        depth -= 1
        if t is BinOp:
            logic = e.op not in _OPS
            operands += (e.op, e.op == "or") if logic else _OP_ARGS[e.op]
            return (_LOGIC if logic else _BINOP, self.lower(e.left, loc, operands, False, depth),
                    self.lower(e.right, loc, operands, False, depth))
        if t is Index:
            return (_INDEX, self.lower(e.base, loc, operands, False, depth),
                    self.lower(e.index, loc, operands, False, depth))
        if t is UnaryOp:
            operands.append(e.op == "-")
            return _UNARY, self.lower(e.operand, loc, operands, False, depth)
        if t is ListLit:
            return self.items(e.items, loc, operands, True, depth)
        if t is Call and e.func == "len" and len(e.args) == 1:
            return _LEN, self.lower(e.args[0], loc, operands, False, depth)
        if t is Call:
            operands.append(e.func)
        head, items = (_SET_OF, e.items) if t is SetLit else (_BUILTIN, e.args)
        if depth:
            return head, self.items(items, loc, operands, False, depth - 1)
        made = []  # the cold tier's items are a closure of their own
        operands.append(self.generated(self.items(items, loc, made, False, 0), made, loc))
        return head, None

    def items(self, items, loc, operands, stores, depth):
        """The shape of a fresh list of ``items``, built left to right, each
        item lowered ``depth`` deep.  At depth 0, the cold tier's, each item
        past the first is a ``_LINK`` closure, so that the shape does not
        carry the literal's arity."""
        if not items:
            return (_EMPTY,)
        shape = _FIRST, self.lower(items[0], loc, operands, stores, depth)
        if len(items) > 1 and not depth:
            links = []
            for item in items[1:]:
                made = []
                links.append(self.generated((_LINK, self.lower(item, loc, made, stores, 0)), made, loc))
            operands.append(links)
            return _LINKS, shape[1], Literal
        for item in items[1:]:
            shape = _NEXT, shape, self.lower(item, loc, operands, stores, depth)
        return shape

    def statement(self, s, operands, depth, it=None):
        """The shape of the statement ``s``; its operands go to ``operands``.
        At ``depth`` 1, the cold tier's, its expressions are lowered one node
        deep (a ``for``'s range is that node), each statement list it runs is
        a node (:meth:`nested`), and a loop hands a hot activation to its
        kernel (:meth:`kernel`).  In a kernel ``depth`` is infinite and ``s``
        is lowered whole; a loop runs over the iterator ``it`` it is given,
        or with ``it`` None, nested, over its own."""
        t, loc = type(s), s.loc
        if t is Assign:
            operands += (loc, s.target)
            return _SET, self.lower(s.value, loc, operands, True, depth)
        if t is For:
            operands += (loc, s.var)
            if it is None:  # its own range, whose bounds are one node below it
                if depth == 1:
                    operands.append(s)
                it = (_COLD_RANGE if depth == 1 else _RANGE, self.lower(s.start, loc, operands, False, depth - 1),
                      self.lower(s.stop, loc, operands, False, depth - 1),
                      self.lower(s.step or _ONE, loc, operands, False, depth - 1))
            return _FOR, self.nested(s.body, operands, depth), it
        if t is While:
            operands.append(loc)
            cond = self.lower(s.cond, loc, operands, False, depth)
            body = self.nested(s.body, operands, depth)
            if depth > 1:
                return _WHILE, cond, body, it or (_FOREVER,), ()
            operands.append(s)
            return _WHILE, cond, body, (_UNTIL_HOT,), ((_WHILE_REST,),)
        if t is If:
            operands.append(loc)
            cond = self.lower(s.cond, loc, operands, False, depth)
            return _IF, cond, self.nested(s.then_body, operands, depth), self.nested(s.else_body, operands, depth)
        if t is Append or t is IndexAssign:
            target, indexed = s.target, t is IndexAssign
            operands += (loc, target, target, indexed, target)
            return _SET_LIST, (_WRITE, Var, self.lower(s.index if indexed else _ONE, loc, operands, False, depth),
                               self.lower(s.value, loc, operands, True, depth))
        operands += (loc, _SIGNALS[t])
        return _JUMP, self.lower(s.value if t is Return else _NULL, loc, operands, True, depth)

    def nested(self, body, operands, depth):
        """The shape of a statement list that an ``if`` or a loop runs: in a
        kernel, its statements lowered whole; on the cold tier none if it is
        empty, else a ``_CALL`` of the list its closures are compiled into
        (:meth:`block`) the first time it runs."""
        if depth == 1:
            if not body:
                return ()
            closures = []
            operands += (closures, lambda: closures.extend(self.block(body)) or closures)
            return ((_CALL, Literal, None),)
        shapes = []  # not a comprehension, which would make cells of its names on each call
        for s in body:
            shapes.append(self.statement(s, operands, depth))
        return tuple(shapes)

    def kernel(self, loop):
        """A callable that runs the rest of a ``loop`` activation from its head,
        given a ``for`` loop's iterator or a ``while`` loop's endless one."""
        operands = []
        shape = self.statement(loop, operands, math.inf, (_IT,))
        variables = tuple(map(operands.__getitem__, _POSITIONS.get(shape, lambda: _render(shape, None, "")[2])))
        names = tuple(dict.fromkeys(variables))
        key = shape, tuple(map(names.index, variables)), tuple(map(self.env.__contains__, names))
        return partial(_KERNELS.get(key, lambda: _kernel(key)), self, names, *operands)

    def block(self, body):
        """The closures of a statement list, each its :meth:`statement`
        lowered one node deep."""
        return [self.generated(self.statement(s, ops := [], 1), ops) for s in body]


def execute(
    p: Program,
    inputs: Sequence[Value],
    budget: int = DEFAULT_BUDGET,
    mode: str = "summary",
) -> ExecutionRecord:
    """Run ``p`` on ``inputs`` under a step budget.

    ``mode="summary"`` keeps only the running last-definition map (O(|V|)
    memory); ``mode="full"`` additionally records every :class:`StepEvent`.
    Arity mismatches and invalid budgets are rejected up front with
    ``ValueError``; everything that happens *during* execution lands in the
    record's status, an unbound variable as ``E_UNDEF`` at the statement that
    read it.  Each call compiles the program anew, reading variable and literal
    operands in place (:class:`_Compiler`), and drops the compiled form on return;
    a long ``for`` loop, or a ``while`` loop that proves hot, runs in a kernel
    kept per loop shape, with the same record.  ``p`` keeps the nesting bounds
    of docs/grammar.md, as every parsed or fuzzed program does.
    """
    if mode not in ("summary", "full"):
        raise ValueError("mode must be 'summary' or 'full'")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if len(inputs) != len(p.params):
        raise ValueError(
            "arity mismatch: %s takes %d parameters, got %d inputs"
            % (p.name, len(p.params), len(inputs))
        )
    # parameters are bound before any step; input lists are never owned, so never mutated
    run = _Compiler(dict(zip(p.params, inputs)), budget, [] if mode == "full" else None)
    status = STATUS_RETURNED
    return_value: Optional[Value] = None  # falling off the end: implicit `return null`
    error_kind = error_loc = None
    try:
        for stmt in run.block(p.body):
            stmt()
    except _Return as r:
        return_value = r.args[0]
    except (_Break, _Continue) as jump:  # outside a loop
        status, error_kind, error_loc = STATUS_ERROR, E_TYPE, jump.args[1]
    except _Budget:
        status = STATUS_BUDGET
    except MimRuntimeError as err:
        status = STATUS_ERROR
        error_kind = err.kind
        error_loc = err.loc
    return ExecutionRecord(
        status=status,
        return_value=return_value,
        final_vars=run.env,
        steps_used=run.steps,
        error_kind=error_kind,
        error_loc=error_loc,
        trajectory=run.trajectory,
    )


def final_values(rec: ExecutionRecord) -> Dict[str, Value]:
    """The last-definition final-value map recorded by the run."""
    return dict(rec.final_vars)


def traced_variables(p: Program, rec: ExecutionRecord) -> Dict[str, Value]:
    """V with final values: ``list_variables(p)`` (first-definition order)
    restricted to the variables the run defined."""
    return {v: rec.final_vars[v] for v in list_variables(p) if v in rec.final_vars}


def trajectory_final_values(rec: ExecutionRecord, bindings: Dict[str, Value]) -> Dict[str, Value]:
    """Brute-force reduction of a full-mode trajectory: starting from the
    initial parameter ``bindings``, each variable's last written value."""
    if rec.trajectory is None:
        raise ValueError("record has no trajectory (summary mode)")
    out = dict(bindings)
    for ev in rec.trajectory:
        if ev.defined_variable is not None:
            out[ev.defined_variable] = ev.value_written
    return out


# --- independent big-step reference evaluator (differential-testing oracle) ---


class ReferenceTimeout(Exception):
    pass


class _Signal(Exception):
    """A ``break``, ``continue`` or ``return`` (``tag``) of :func:`reference_evaluate`."""

    def __init__(self, tag, value=None):
        self.tag = tag
        self.value = value


_REF_CAP = 2_000_000


def reference_evaluate(p: Program, inputs: Sequence[Value]):
    """Deliberately separate recursive evaluator used only to cross-check
    :func:`execute`, with its precondition on ``p``.  Returns ``(return_value,
    final_vars)`` and raises :class:`MimRuntimeError` with the same error taxonomy."""
    if len(inputs) != len(p.params):
        raise ValueError("arity mismatch")
    env: Dict[str, Value] = dict(zip(p.params, inputs))
    counter = [0]

    def ev(e):
        if isinstance(e, Literal):
            return e.value
        if isinstance(e, Var):
            try:
                return env[e.name]
            except KeyError:
                raise MimRuntimeError(E_UNDEF, e.name)
        if isinstance(e, UnaryOp):
            v = ev(e.operand)
            if e.op == "not":
                if type(v) is not bool:
                    raise MimRuntimeError(E_TYPE, "not")
                return not v
            if type(v) is bool or not isinstance(v, (int, float)):
                raise MimRuntimeError(E_TYPE, "neg")
            out = -v
            if isinstance(out, int) and not INT_MIN <= out <= INT_MAX:
                raise MimRuntimeError(E_OVERFLOW, "neg")
            return out
        if isinstance(e, Index):
            base, idx = ev(e.base), ev(e.index)
            if type(idx) is bool or not isinstance(idx, int):
                raise MimRuntimeError(E_TYPE, "index")
            if not isinstance(base, (list, str)):
                raise MimRuntimeError(E_TYPE, "index")
            if idx < 0 or idx >= len(base):
                raise MimRuntimeError(E_INDEX, "index")
            return base[idx]
        if isinstance(e, ListLit):
            return [ev(i) for i in e.items]
        if isinstance(e, SetLit):
            vs = [ev(i) for i in e.items]
            if any(v is None or isinstance(v, (list, MimSet)) for v in vs):
                raise MimRuntimeError(E_UNHASHABLE, "set")
            return MimSet(vs)
        if isinstance(e, Call):
            vs = [ev(a) for a in e.args]
            if e.func == "len":
                if len(vs) != 1 or not isinstance(vs[0], (list, MimSet, str)):
                    raise MimRuntimeError(E_TYPE, "len")
                return len(vs[0])
            if e.func == "abs":
                if len(vs) != 1 or type(vs[0]) is bool or not isinstance(vs[0], (int, float)):
                    raise MimRuntimeError(E_TYPE, "abs")
                out = abs(vs[0])
                if isinstance(out, int) and out > INT_MAX:
                    raise MimRuntimeError(E_OVERFLOW, "abs")
                return out
            if e.func in ("min", "max"):
                pool = list(vs[0]) if len(vs) == 1 and isinstance(vs[0], (list, MimSet)) else (vs if len(vs) >= 2 else None)
                if not pool or any(type(v) is bool or not isinstance(v, (int, float)) for v in pool):
                    raise MimRuntimeError(E_TYPE, e.func)
                return (min if e.func == "min" else max)(pool)
            raise MimRuntimeError(E_TYPE, e.func)
        if isinstance(e, BinOp):
            if e.op in ("and", "or"):
                a = ev(e.left)
                if type(a) is not bool:
                    raise MimRuntimeError(E_TYPE, e.op)
                if e.op == "and" and not a:
                    return False
                if e.op == "or" and a:
                    return True
                b = ev(e.right)
                if type(b) is not bool:
                    raise MimRuntimeError(E_TYPE, e.op)
                return b
            a, b = ev(e.left), ev(e.right)
            if e.op == "==":
                return values_equal(a, b)
            if e.op == "!=":
                return not values_equal(a, b)
            num = lambda v: type(v) is not bool and isinstance(v, (int, float))
            if e.op in ("<", "<=", ">", ">="):
                ok = (num(a) and num(b)) or (isinstance(a, str) and isinstance(b, str))
                if not ok:
                    raise MimRuntimeError(E_TYPE, e.op)
                return {"<": a < b, "<=": a <= b, ">": a > b, ">=": a >= b}[e.op]
            if e.op == "+" and isinstance(a, str) and isinstance(b, str):
                return a + b
            if not (num(a) and num(b)):
                raise MimRuntimeError(E_TYPE, e.op)
            ints = isinstance(a, int) and isinstance(b, int)
            if e.op in ("+", "-", "*"):
                out = {"+": a + b, "-": a - b, "*": a * b}[e.op]
            elif e.op == "/":
                if ints and b == 0:
                    raise MimRuntimeError(E_DIV_ZERO, "/")
                if not ints and b == 0:
                    if a == 0:
                        raise MimRuntimeError(E_NAN, "/")
                    sign = math.copysign(1.0, float(b)) * math.copysign(1.0, float(a))
                    return math.inf if sign > 0 else -math.inf
                out = a / b
            else:  # // or %
                if not ints:
                    raise MimRuntimeError(E_TYPE, e.op)
                if b == 0:
                    raise MimRuntimeError(E_DIV_ZERO, e.op)
                out = a // b if e.op == "//" else a % b
            if isinstance(out, int) and not isinstance(out, bool):
                if not INT_MIN <= out <= INT_MAX:
                    raise MimRuntimeError(E_OVERFLOW, e.op)
            elif isinstance(out, float) and math.isnan(out):
                raise MimRuntimeError(E_NAN, e.op)
            return out
        raise TypeError(repr(e))

    def bump():
        counter[0] += 1
        if counter[0] > _REF_CAP:
            raise ReferenceTimeout()

    def write(name, value):
        env[name] = value

    def run(stmts):
        for s in stmts:
            bump()
            if isinstance(s, Assign):
                write(s.target, ev(s.value))
            elif isinstance(s, IndexAssign):
                if s.target not in env:
                    raise MimRuntimeError(E_UNDEF, s.target)
                base = env[s.target]
                if not isinstance(base, list):
                    raise MimRuntimeError(E_TYPE, "[]=")
                idx = ev(s.index)
                if type(idx) is bool or not isinstance(idx, int):
                    raise MimRuntimeError(E_TYPE, "[]=")
                if idx < 0 or idx >= len(base):
                    raise MimRuntimeError(E_INDEX, "[]=")
                v = ev(s.value)
                write(s.target, base[:idx] + [v] + base[idx + 1:])
            elif isinstance(s, Append):
                if s.target not in env:
                    raise MimRuntimeError(E_UNDEF, s.target)
                base = env[s.target]
                if not isinstance(base, list):
                    raise MimRuntimeError(E_TYPE, "append")
                write(s.target, base + [ev(s.value)])
            elif isinstance(s, If):
                c = ev(s.cond)
                if type(c) is not bool:
                    raise MimRuntimeError(E_TYPE, "if")
                run(s.then_body if c else s.else_body)
            elif isinstance(s, While):
                while True:
                    c = ev(s.cond)
                    if type(c) is not bool:
                        raise MimRuntimeError(E_TYPE, "while")
                    if not c:
                        break
                    try:
                        run(s.body)
                    except _Signal as sig:
                        if sig.tag == "continue":
                            pass
                        elif sig.tag == "break":
                            break
                        else:
                            raise
                    bump()
            elif isinstance(s, For):
                a, b = ev(s.start), ev(s.stop)
                c = ev(s.step) if s.step is not None else 1
                for v in (a, b, c):
                    if type(v) is bool or not isinstance(v, int):
                        raise MimRuntimeError(E_TYPE, "range")
                if c == 0:
                    raise MimRuntimeError(E_RANGE, "range")
                for i in range(a, b, c):
                    bump()
                    write(s.var, i)
                    try:
                        run(s.body)
                    except _Signal as sig:
                        if sig.tag == "continue":
                            continue
                        if sig.tag == "break":
                            break
                        raise
            elif isinstance(s, Break):
                raise _Signal("break")
            elif isinstance(s, Continue):
                raise _Signal("continue")
            elif isinstance(s, Return):
                raise _Signal("return", ev(s.value))
            else:
                raise TypeError(repr(s))

    ret: Optional[Value] = None
    try:
        run(p.body)
    except _Signal as sig:
        if sig.tag == "return":
            ret = sig.value
        else:
            raise MimRuntimeError(E_TYPE, "loop control outside loop")
    return ret, dict(env)
