"""Runtime values for MiniImp, canonical equality over them, and their one
JSON codec.

A MiniImp value is one of: int (signed 64-bit), float (may be +-inf, never
NaN), bool, str, None, list of values, or :class:`MimSet`.  Python's bool is
deliberately treated as a category of its own: ``true`` is not the number 1.
A str is of characters, and a lone surrogate (a code point in U+D800-U+DFFF,
:data:`LONE_SURROGATE`) is not one: no UTF-8 text can hold it.

In JSON a set appears as its ascending member list and the infinities as the
sentinel strings ``"__INF__"`` / ``"__-INF__"``; a string of sentinel form (a
sentinel behind zero or more extra ``_``) gains one ``_``, so every string
round-trips.  A value's canonical text is this JSON's text.  Every value read
from a file (JSONL through :func:`read_jsonl`) or an argument is parsed by
:func:`load_json` and goes through :func:`decode_json_value`, which rejects
anything outside the value domain (an argument list through
:func:`decode_inputs`, which first checks that it is a JSON array).  A
record's id is checked by :func:`record_id`, a stored integer by
:func:`stored_int`.  Binary files (policy checkpoints, probe features) are
read whole by one :class:`BinaryFile`, which checks each field's length
against the bytes left before it is read.  :class:`Memo` is the one bounded
memo of a pure function (scored rollouts, scanned lines, parsed statements,
loop kernels): it keeps every value while it has room and, once full, keeps
a new key only in place of a less looked-up one.
"""

from __future__ import annotations

import json
import math
import re
import struct
from collections import OrderedDict
from pathlib import Path
from typing import Callable, Optional, Union

INT_MIN = -(2**63)
INT_MAX = 2**63 - 1

Value = Union[int, float, bool, str, None, list, "MimSet"]

INF_SENTINEL = "__INF__"
NEG_INF_SENTINEL = "__-INF__"
_SENTINEL_FORM = re.compile(r"_*__-?INF__").fullmatch  # a sentinel behind zero or more extra "_"
# a code point in U+D800-U+DFFF: half of a UTF-16 pair, which no UTF-8 text holds
LONE_SURROGATE = re.compile("[\ud800-\udfff]").search

_INT_ONLY = frozenset((int,))  # element types of a flat int list (bool excluded)
_U32 = struct.Struct("<I")  # the length field of binary files

MEMO_CAPACITY = 1024
_TOO_DEEP = "JSON value is nested too deeply"
# Memo's admission rule, for a memo of capacity c: its window holds the
# c // _WINDOW keys (at least one) last kept on a miss, the counts of at most
# _COUNTED * c keys not kept are held by hash, and every count halves once
# per _PERIOD * c lookups
_WINDOW = 16
_COUNTED = 2
_PERIOD = 10


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

    def __eq__(self, other):
        return isinstance(other, MimSet) and values_equal(self, other)

    def __hash__(self):
        return hash(("MimSet", self.members))

    def __repr__(self):
        return "MimSet(%r)" % (list(self.members),)


def values_equal(a: Value, b: Value) -> bool:
    """Canonical equality: total, with int/float numeric coercion.

    Booleans only equal booleans; 2 == 2.0; +inf == +inf; lists compare
    elementwise, flat int lists whole by one ``==``; sets by their sorted members.
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
        if set(map(type, a)) <= _INT_ONLY and set(map(type, b)) <= _INT_ONLY:
            return a == b
        return len(a) == len(b) and all(values_equal(x, y) for x, y in zip(a, b))
    if isinstance(a, MimSet) and isinstance(b, MimSet):
        return len(a.members) == len(b.members) and all(
            values_equal(x, y) for x, y in zip(a.members, b.members)
        )
    return False


def encode_json_value(v: Value):
    """MiniImp value -> JSON value (sets become ascending lists); a
    ``ValueError`` for a value nested too deeply to encode."""
    if isinstance(v, float):
        if math.isinf(v):
            return INF_SENTINEL if v > 0 else NEG_INF_SENTINEL
        return v
    if isinstance(v, str):
        return "_" + v if _SENTINEL_FORM(v) else v
    if v is None or isinstance(v, (bool, int)):
        return v
    if isinstance(v, MimSet):
        v = v.members
    elif not isinstance(v, list):
        raise ValueError("not an encodable value: %r" % (v,))
    elif set(map(type, v)) <= _INT_ONLY:
        return v[:]
    try:
        return [encode_json_value(x) for x in v]
    except RecursionError:
        raise ValueError(_TOO_DEEP) from None


_CANONICAL = json.JSONEncoder(ensure_ascii=False, allow_nan=False)


def canonical_serialize(v: Value) -> str:
    """Deterministic single-line rendering: the JSON text of :func:`encode_json_value`."""
    return _CANONICAL.encode(encode_json_value(v))


def _finite_float(text: str) -> float:
    value = float(text)
    if math.isinf(value):
        raise ValueError("number %s is outside the float range" % text)
    return value


def _no_constant(name: str):
    raise ValueError("%s is not a JSON number" % name)


_JSON_DECODER = json.JSONDecoder(parse_float=_finite_float, parse_constant=_no_constant)


def load_json(text: str):
    """``json.loads`` that rejects ``NaN``, ``Infinity``, ``-Infinity`` and a
    number beyond the float range (such as ``1e400``), as JSON spells infinity
    only by the sentinel strings, and a value nested too deeply to decode."""
    try:
        return _JSON_DECODER.decode(text)
    except RecursionError:
        raise ValueError(_TOO_DEEP) from None


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
    """JSON value -> MiniImp value, decoding the infinity sentinels and
    dropping the ``_`` a string of sentinel form gained.

    Raises ``ValueError`` for anything outside the value domain (objects,
    integers beyond int64, NaN, a string holding a lone surrogate), for a
    float infinity, which JSON spells only as a sentinel, and for lists
    nested too deeply to decode.
    """
    if isinstance(raw, str):
        bad = LONE_SURROGATE(raw)
        if bad:
            raise ValueError("lone surrogate %r is not a character" % bad[0])
        if raw == INF_SENTINEL:
            return math.inf
        if raw == NEG_INF_SENTINEL:
            return -math.inf
        return raw[1:] if _SENTINEL_FORM(raw) else raw
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
        try:
            return [decode_json_value(x) for x in raw]
        except RecursionError:
            raise ValueError(_TOO_DEEP) from None
    raise ValueError("not a MiniImp value: %r" % (raw,))


def decode_inputs(raw) -> list:
    """A JSON argument list -> MiniImp values; ``ValueError`` unless ``raw`` is a JSON array."""
    if not isinstance(raw, list):
        raise ValueError("input must be a JSON array of argument values")
    return decode_json_value(raw)


def record_id(raw, seen: set, what: str) -> str:
    """``raw`` as the id of a record in a file: a non-empty string that
    encodes as UTF-8 (holds no lone surrogate) and is not in ``seen``, which
    it joins."""
    if not isinstance(raw, str) or not raw or LONE_SURROGATE(raw):
        raise ValueError("%s id must be a non-empty UTF-8 string, got %r" % (what, raw))
    if raw in seen:
        raise ValueError("duplicate %s id %r" % (what, raw))
    seen.add(raw)
    return raw


def stored_int(raw, what: str, lo: Optional[int] = None) -> int:
    """``raw`` as an integer field of a stored record: an int, not a bool,
    and at least ``lo`` unless that is None."""
    if isinstance(raw, bool) or not isinstance(raw, int) or (lo is not None and raw < lo):
        raise ValueError("%s must be an integer%s, got %r" % (what, "" if lo is None else " of at least %d" % lo, raw))
    return raw


class BinaryFile:
    """A binary file read whole, whose fields are taken in order after its
    magic; each :meth:`take` first checks that the file still holds it."""

    def __init__(self, path, magic: bytes, what: str):
        self.path, self.data, self.off = path, Path(path).read_bytes(), 0
        self.size = len(self.data)
        if self.take(len(magic)) != magic:
            raise ValueError("%s: bad %s magic %r" % (path, what, self.data[:len(magic)]))

    def take(self, n: int) -> bytes:
        """The next ``n`` bytes; a ``ValueError`` naming the file if fewer are left."""
        off, end = self.off, self.off + n
        if end > self.size:
            raise ValueError("%s is truncated: wanted %d more bytes, found %d" % (self.path, n, self.size - off))
        self.off = end
        return self.data[off:end]

    def u32(self) -> int:
        return _U32.unpack(self.take(4))[0]

    def text(self) -> str:
        """A UTF-8 string behind its byte length as a u32; a ``ValueError``
        naming the file and the offset of the first bad byte if it is not UTF-8."""
        raw = self.take(self.u32())
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as e:
            raise ValueError("%s holds invalid UTF-8 at byte %d" % (self.path, self.off - len(raw) + e.start)) from None


def length_prefixed(raw: bytes) -> bytes:
    """``raw`` behind its length as a u32, as :meth:`BinaryFile.text` reads it."""
    return _U32.pack(len(raw)) + raw


class Memo:
    """Bounded memo of a pure function, least recently used value out, with
    the admission rule of W-TinyLFU (Einziger, Friedman and Manes, "TinyLFU:
    A Highly Efficient Cache Admission Policy", ACM ToS 2017).

    Every miss keeps its value in the window, the ``capacity`` // 16 keys
    (at least one) last kept on a miss, so a key looked up several times in
    a row is computed once.  A key pushed out of the window stays while the
    memo holds at most ``capacity`` values.  In a full memo it stays only if
    it has been looked up more than once more often than the least recent
    value outside the window, which goes instead; so a working set larger
    than the memo keeps a full memo of its most looked-up keys rather than
    cycling through it.  Lookup counts live in the kept entries, and by hash
    for at most 2 x ``capacity`` keys not kept; they halve once per
    10 x ``capacity`` lookups (applied at the next miss, the only place
    they are compared), so a working set that moves is kept again.  A
    ``compute`` that raises stores nothing."""

    def __init__(self, capacity: int = MEMO_CAPACITY):
        self.capacity = capacity
        # kept key -> [value, lookup count], least recent first: a plain dict,
        # whose pop and reinsert on a hit cost less than OrderedDict.move_to_end
        self._values: dict = {}
        self._window = OrderedDict()  # the keys last kept on a miss, oldest first -> None
        self._counts = OrderedDict()  # hash of a key not kept -> its lookup count, oldest first
        self._lookups = 0  # since the counts last halved

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, key) -> bool:
        """Whether ``key`` is kept; no lookup is counted and nothing moves."""
        return key in self._values

    def clear(self) -> None:
        self._values.clear()
        self._window.clear()
        self._counts.clear()
        self._lookups = 0

    def get(self, key, compute):
        """The value for ``key``, calling ``compute()`` unless it is kept."""
        self._lookups += 1
        entry = self._values.pop(key, None)
        if entry is None:
            value = compute()
            self._keep(key, value)
            return value
        self._values[key] = entry
        entry[1] += 1
        return entry[0]

    def _keep(self, key, value) -> None:
        """Keep ``value`` as the window's newest; then, if the window is
        over its size and the memo over ``capacity``, drop the window's
        oldest key or the least recent value outside the window, whichever
        has fewer lookups (the window's oldest on a tie or a lead of one)."""
        values, window, counts, capacity = self._values, self._window, self._counts, self.capacity
        halvings = self._lookups // (_PERIOD * capacity)
        if halvings:
            self._lookups -= halvings * _PERIOD * capacity
            for entry in values.values():
                entry[1] >>= halvings
            self._counts = counts = OrderedDict((h, n >> halvings) for h, n in counts.items() if n >> halvings)
        values[key] = [value, counts.pop(hash(key), 0) + 1]
        window[key] = None
        if len(window) > max(1, capacity // _WINDOW):
            candidate = window.popitem(last=False)[0]
            if len(values) > capacity:
                victim = next((k for k in values if k not in window and k is not candidate), None)
                loser = victim if victim is not None and values[candidate][1] > values[victim][1] + 1 else candidate
                counts[hash(loser)] = values.pop(loser)[1]
                if len(counts) > _COUNTED * capacity:
                    counts.popitem(last=False)
