"""Runtime values for MiniImp, canonical equality over them, and their one
JSON codec.

A MiniImp value is one of: int (signed 64-bit), float (may be +-inf, never
NaN), bool, str, None, list of values, or :class:`MimSet`.  Python's bool is
deliberately treated as a category of its own: ``true`` is not the number 1.

In JSON a set appears as its ascending member list and the infinities as the
sentinel strings ``"__INF__"`` / ``"__-INF__"``; a value's canonical text is
this JSON's text.  Every value read from a file (JSONL through
:func:`read_jsonl`) or an argument is parsed by :func:`load_json` and goes
through :func:`decode_json_value`, which rejects anything outside the value
domain.
Binary files (policy checkpoints, probe features) are read whole; each field's
length is checked against the file size before it is read (:func:`truncated`).
"""

from __future__ import annotations

import json
import math
from typing import Callable, Union

INT_MIN = -(2**63)
INT_MAX = 2**63 - 1

Value = Union[int, float, bool, str, None, list, "MimSet"]

INF_SENTINEL = "__INF__"
NEG_INF_SENTINEL = "__-INF__"

_INT_ONLY = frozenset((int,))  # element types of a flat int list (bool excluded)


def is_number(v) -> bool:
    """True for int/float values, excluding booleans."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


class MimSet:
    """Immutable set of hashable MiniImp values (numbers, booleans, strings).

    Members are deduplicated under canonical equality, an int kept over an
    equal float and ``0.0`` over ``-0.0``, and stored sorted in canonical
    order (numbers ascending, then booleans, then strings), so iteration and
    serialization are deterministic.
    """

    __slots__ = ("members",)

    def __init__(self, items=()):
        nums, bools, strs = {}, [], []
        bool_seen, str_seen = set(), set()
        for item in items:
            if isinstance(item, bool):
                if item not in bool_seen:
                    bool_seen.add(item)
                    bools.append(item)
            elif isinstance(item, (int, float)):
                if isinstance(item, float) and math.isnan(item):
                    raise ValueError("NaN cannot be a set member")
                # int and float hash/compare exactly in CPython, so 2 and 2.0
                # (and 0.0 and -0.0) share one key; whatever the order, the
                # int is kept, else 0.0 over -0.0
                kept = nums.get(item)
                if kept is None or not isinstance(item, float) or (
                    isinstance(kept, float) and math.copysign(1.0, kept) < 0
                ):
                    nums[item] = item
            elif isinstance(item, str):
                if item not in str_seen:
                    str_seen.add(item)
                    strs.append(item)
            else:
                raise TypeError("unhashable set member: %r" % (item,))
        object.__setattr__(self, "members", tuple(sorted(nums.values())) + tuple(sorted(bools)) + tuple(sorted(strs)))

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, v):
        return any(values_equal(v, m) for m in self.members)

    def __eq__(self, other):
        return isinstance(other, MimSet) and values_equal(self, other)

    def __hash__(self):
        return hash(("MimSet", self.members))

    def __repr__(self):
        return "MimSet(%r)" % (list(self.members),)


def values_equal(a: Value, b: Value) -> bool:
    """Canonical equality: total, with int/float numeric coercion.

    Booleans only equal booleans; 2 == 2.0; +inf == +inf; lists compare
    elementwise; sets compare as their canonically sorted member sequences.
    """
    a_bool, b_bool = isinstance(a, bool), isinstance(b, bool)
    if a_bool or b_bool:
        return a_bool and b_bool and a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return a == b  # exact mixed int/float comparison
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, str) and isinstance(b, str):
        return a == b
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(values_equal(x, y) for x, y in zip(a, b))
    if isinstance(a, MimSet) and isinstance(b, MimSet):
        return len(a.members) == len(b.members) and all(
            values_equal(x, y) for x, y in zip(a.members, b.members)
        )
    return False


def encode_json_value(v: Value):
    """MiniImp value -> JSON value (sets become ascending lists)."""
    if isinstance(v, float):
        if math.isinf(v):
            return INF_SENTINEL if v > 0 else NEG_INF_SENTINEL
        return v
    if v is None or isinstance(v, (bool, int, str)):
        return v
    if isinstance(v, list):
        if set(map(type, v)) <= _INT_ONLY:
            return v[:]
        return [encode_json_value(x) for x in v]
    if isinstance(v, MimSet):
        return [encode_json_value(x) for x in v.members]
    raise ValueError("not an encodable value: %r" % (v,))


_CANONICAL = json.JSONEncoder(ensure_ascii=False, allow_nan=False)


def canonical_serialize(v: Value) -> str:
    """Deterministic single-line rendering: the JSON text of :func:`encode_json_value`."""
    return _CANONICAL.encode(encode_json_value(v))


def _finite_float(text: str) -> float:
    value = float(text)
    if math.isinf(value):
        raise ValueError("number %s is outside the float range" % text)
    return value


_JSON_DECODER = json.JSONDecoder(parse_float=_finite_float)


def load_json(text: str):
    """``json.loads`` that rejects a number beyond the float range (such as
    ``1e400``) instead of reading it as infinity: in JSON, infinity is
    spelled only by the sentinel strings."""
    return _JSON_DECODER.decode(text)


def read_jsonl(path, decode: Callable = lambda raw: raw) -> list:
    """``decode(load_json(line))`` for each non-blank line of a UTF-8 JSONL
    file.  A ``KeyError``, ``TypeError`` or ``ValueError`` from a line (bad
    UTF-8 included) becomes a ``ValueError`` naming the file and the line."""
    out = []
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, 1):
            if line.strip():
                try:
                    out.append(decode(load_json(line.decode("utf-8"))))
                except (KeyError, TypeError, ValueError) as exc:
                    raise ValueError("%s line %d: %s" % (path, line_no, exc)) from exc
    return out


def decode_json_value(raw) -> Value:
    """JSON value -> MiniImp value, decoding the infinity sentinels.

    Raises ``ValueError`` for anything outside the value domain (objects,
    integers beyond int64, NaN) and for a float infinity, which JSON spells
    only as a sentinel.
    """
    if isinstance(raw, str):
        if raw == INF_SENTINEL:
            return math.inf
        if raw == NEG_INF_SENTINEL:
            return -math.inf
        return raw
    if raw is None or isinstance(raw, bool):
        return raw
    if isinstance(raw, int):
        if not INT_MIN <= raw <= INT_MAX:
            raise ValueError("integer %d is outside the int64 range" % raw)
        return raw
    if isinstance(raw, float):
        if math.isnan(raw):
            raise ValueError("NaN is not a MiniImp value")
        if math.isinf(raw):
            raise ValueError('infinity must be spelled "%s" or "%s"' % (INF_SENTINEL, NEG_INF_SENTINEL))
        return raw
    if isinstance(raw, list):
        # a flat int list is checked in one pass; anything else, an
        # out-of-range int included, goes element by element, which names
        # the first bad element
        if raw and set(map(type, raw)) <= _INT_ONLY and INT_MIN <= min(raw) and max(raw) <= INT_MAX:
            return raw[:]
        return [decode_json_value(x) for x in raw]
    raise ValueError("not a MiniImp value: %r" % (raw,))


def truncated(path, wanted: int, found: int) -> ValueError:
    """The error for a binary file that holds ``found`` of the ``wanted``
    bytes of its next field."""
    return ValueError("%s is truncated: wanted %d more bytes, found %d" % (path, wanted, found))
