"""Exception types shared across the package, and the checks that raise
them naming the offending argument, field or row: ``check_real`` and
``check_int``, the one rule for scalar arguments, ``float_array`` and
``int_array``, the one rule for array arguments and the ranges of their
values, and ``bool_array``, the rule for masks.

A list or tuple given for an array is read in one walk, level by level:
each level must hold lists or tuples of one length, which gives the shape,
and is flattened once, and the set of the next level's types is taken as
the walk goes.  Where every leaf is a Python float, as in a decoded JSON file of
points, the array is built from the flat leaves, bit for bit what
``np.asarray`` gives, and the leaves are scanned no further.  Any other
list, ragged, empty at some level or holding ints, booleans, numpy
scalars, strings, None or arrays, is read by ``np.asarray``, and the
walk's leaf types answer the boolean rule wherever they are the leaves
numpy read."""

import math
from itertools import chain
from numbers import Integral, Real

import numpy as np


class ValidationError(ValueError):
    """Input data violates a documented invariant (bad shape, range, or schema)."""


class SchemaError(ValidationError):
    """A serialized file failed schema validation.

    The message names the offending field, e.g. ``keypoints[3].dx``.
    """

    def __init__(self, field, problem):
        self.field = field
        self.problem = problem
        super().__init__(f"{field}: {problem}")


_BOOLS = frozenset((bool, np.bool_))
_FLOAT_MAX = float(np.finfo(float).max)
# Checked by type first: isinstance against an ABC costs a Python call.
_PLAIN_REALS = frozenset((float, int, np.float64))
_SEQUENCES = frozenset((list, tuple))
_FLOAT_ONLY = frozenset((float,))
# Levels ``_walk`` reads at most: numpy 1.x's limit on dimensions, so that
# the shape it reads always reshapes, and a list holding itself ends the
# walk.  Deeper input is read by numpy.
_MAX_WALK = 32

# Phrases for the intervals whose generic "lie in [a, b)" reads badly.
_INTERVAL_PHRASES = {(0, math.inf, "()"): "be positive and finite",
                     (0, math.inf, "[)"): "be finite and non-negative",
                     (0, math.inf, "[]"): "be non-negative",
                     (-math.inf, math.inf, "()"): "be finite",
                     (-math.inf, math.inf, "[]"): "be a number",
                     (-2 ** 63, 2 ** 63, "[)"): "lie in the int64 range"}

# Intervals, as ``within`` takes them, that several arguments share.
FINITE = (-math.inf, math.inf, "()")
UNIT = (0, 1, "[]")
NON_NEGATIVE = (0, math.inf, "[]")
INT64 = (-2 ** 63, 2 ** 63, "[)")


def _above(values, low, end):
    """Whether ``values``, a number or an array of them, lie above ``low``,
    or at it if ``end`` is ``"["``; NaN lies nowhere."""
    return low < values if end == "(" else low <= values


def _below(values, high, end):
    """``_above``'s twin: ``values`` below ``high``, or at it if ``end`` is ``"]"``."""
    return values < high if end == ")" else values <= high


def _phrase(low, high, ends):
    bounds = (f"{v:g}" if isinstance(v, float) else f"{v}" for v in (low, high))
    return _INTERVAL_PHRASES.get((low, high, ends), "lie in {}{}, {}{}".format(
        ends[0], *bounds, ends[1]))


def _shown(value):
    """``repr(value)``, or the size of an int too long for ``repr``."""
    try:
        return repr(value)
    except ValueError:   # more digits than the interpreter converts
        return f"{'a negative' if value < 0 else 'an'} integer of {value.bit_length()} bits"


def check_real(value, name, low=-math.inf, high=math.inf, ends="()"):
    """``value``, which must be a real number between ``low`` and ``high``,
    ends open or closed as ``ends`` says (``"[)"`` is [low, high)); anything
    else (a bool, NaN, an int no float holds) raises ValidationError naming ``name``."""
    if not ((type(value) in _PLAIN_REALS or isinstance(value, Real) and type(value) not in _BOOLS)
            and _above(value, low, ends[0]) and _below(value, high, ends[1])
            and (type(value) is not int or -_FLOAT_MAX <= value <= _FLOAT_MAX)):
        raise ValidationError(f"{name} must {_phrase(low, high, ends)}, got {_shown(value)}")
    return value


def check_int(value, name, low=None):
    """``value`` as a Python int; anything but an integer of at least ``low``,
    a bool or a float such as 2.0 included, raises ValidationError naming ``name``."""
    if not ((type(value) is int or isinstance(value, Integral) and type(value) not in _BOOLS)
            and (low is None or value >= low)):
        phrase = ("an integer" if low is None else "a non-negative integer" if low == 0
                  else f"an integer >= {low}")
        raise ValidationError(f"{name} must be {phrase}, got {_shown(value)}")
    return int(value)


def float_array(values, name, shape=None, row_name=None, within=None):
    """``values`` as a float array, the one rule for array arguments: anything
    but a rectangular array of numbers (ragged input, strings, booleans,
    integers beyond 64 bits) is rejected as ``name``.  Only a list's or
    tuple's entries are scanned for booleans, which numpy turns into 1.0 and
    0.0 beside other numbers; an array is judged by its dtype.  A list or
    tuple is read in one walk, and where every leaf is a float the array is
    built from the flat leaves with no further scan (module docstring).

    ``shape``, if given, is the pattern the array must match: one length per
    axis, None matching any length.  An empty 1-D input reads as zero rows, so
    ``[]`` matches ``(None, 4)`` as a ``(0, 4)`` array.  With ``row_name``, a
    list or tuple with a boolean, a non-number or a ragged row names the
    first row bad alone or unlike row 0 in shape, ``row_name.format(row)``.

    ``within``, if given, is the interval ``(low, high, ends)`` every entry
    must lie in, read as ``check_real`` reads it, e.g. ``(0, 1, "[]")``; NaN
    lies in none.  An entry outside it raises ValidationError naming the
    first row that holds one, ``row_name.format(row)`` if given, else
    ``name[row]``, and the entry: ``x[2] must lie in [0, 1], got 1.5``."""
    array = _number_array(values, name, shape, "iuf", row_name).astype(float, copy=False)
    return array if within is None else _within(array, name, row_name, *within)


def int_array(values, name, shape=None, row_name=None, within=None):
    """``values`` as an int64 array, the integer twin of ``float_array``: its
    rule for booleans, ragged input, non-numbers, ``shape``, ``row_name`` and
    ``within``, and besides that ``check_int``'s rule for every entry (no
    float, not even 2.0) and no integer outside the int64 range.  Those two
    name the first row holding a bad entry as ``within`` does.  An integer
    array is judged by its dtype alone; other input, a float or a uint64
    array or Python integers beyond int64, is read entry by entry."""
    array = _number_array(values, name, shape, "iufO", row_name)
    if not (array.dtype.kind == "i" or array.size == 0 or (
            array.dtype.kind == "u" and array.max() < 2 ** 63)):
        # A float array, or Python ints that numpy read as float64 or object.
        entries = np.atleast_1d(np.asarray(values, dtype=object))
        entries = entries.reshape(len(entries), -1)
        for row, row_entries in enumerate(entries.tolist()):
            label = (row_name or name + "[{}]").format(row)
            for value in row_entries:
                check_int(value, label)
        _within(entries, name, row_name, *INT64)
    array = array.astype(np.int64, copy=False)
    return array if within is None else _within(array, name, row_name, *within)


def bool_array(values, name, shape):
    """``values`` as a boolean array of exactly ``shape``, a mask; anything
    else, numbers such as 0 and 1 included, raises ValidationError naming
    ``name``."""
    try:
        array = np.asarray(values)
    except ValueError:  # a ragged list
        array = None
    if array is None or array.dtype.kind != "b":
        raise ValidationError(f"{name}: expected a boolean array, got "
                              + ("a ragged list" if array is None else str(array.dtype)))
    if array.shape != tuple(shape):
        raise ValidationError(f"{name} must have shape {tuple(shape)}, got {array.shape}")
    return array


def _within(array, name, row_name, low, high, ends):
    """``array``, whose every entry must lie in the interval ``low``, ``high``,
    ``ends``; ``float_array`` states the rule and the message.  NaN propagates
    through min and max, so a valid array costs one reduction per end that
    bounds, and the rows are scanned only when one fails."""
    if not array.size:
        return array
    low_free = ends[0] == "[" and low == -math.inf
    high_free = ends[1] == "]" and high == math.inf
    if ((low_free or _above(np.minimum.reduce(array, None), low, ends[0]))
            and (high_free and not low_free
                 or _below(np.maximum.reduce(array, None), high, ends[1]))):
        return array
    rows = np.atleast_1d(array)
    rows = rows.reshape(len(rows), -1)
    bad = ~(_above(rows, low, ends[0]) & _below(rows, high, ends[1]))
    row = int(bad.any(axis=1).argmax())
    value = rows[row][bad[row]].tolist()[0]
    label = (row_name or name + "[{}]").format(row)
    raise ValidationError(f"{label} must {_phrase(low, high, ends)}, got {_shown(value)}")


def _number_array(values, name, shape, kinds, row_name=None):
    """``values`` as numpy reads them, checked by ``float_array``'s rule with
    the dtype kinds ``kinds`` taken as numbers.  A list or tuple is read
    by one ``_walk`` (module docstring); ``_holds_bool`` scans only input
    whose leaves the walk did not reach, such as an array inside a list."""
    dims, leaves, types = _walk(values) if isinstance(values, (list, tuple)) else (None,) * 3
    if types == _FLOAT_ONLY:
        array, boolean = np.fromiter(leaves, float, len(leaves)).reshape(dims), False
    else:
        try:
            array = np.asarray(values)
        except ValueError:  # a ragged list
            array = None
        boolean = array is not None and (array.dtype.kind == "b" or (
            array.dtype.kind in kinds and dims is not None
            and (not _BOOLS.isdisjoint(types) if array.ndim == len(dims)
                 else _holds_bool(values, array.ndim))))
    if boolean or array is None or array.dtype.kind not in kinds:
        if row_name is not None and isinstance(values, (list, tuple)):
            row_shape = shape and shape[1:]
            for row, entry in enumerate(values):   # later rows must match the first
                row_shape = _number_array(entry, row_name.format(row), row_shape, kinds).shape
        raise ValidationError(f"{name}: " + ("expected numbers, got a boolean" if boolean
                                             else "expected a rectangular array of numbers"))
    if shape is not None:
        if array.shape == (0,) and shape and shape[0] in (None, 0):
            array = array.reshape((0,) + tuple(n or 0 for n in shape[1:]))
        if len(array.shape) != len(shape) or any(
                n is not None and n != have for n, have in zip(shape, array.shape)):
            pattern = ", ".join("*" if n is None else str(n) for n in shape)
            pattern += "," if len(shape) == 1 else ""
            raise ValidationError(f"{name} must have shape ({pattern}), got {array.shape}")
    return array


def _walk(values):
    """The nested lists or tuples ``values`` read level by level, down to the
    first level that is not all lists or tuples of one length, or empty, or
    ``_MAX_WALK`` deep: the shape read, that level's entries, flattened
    once per level, and the set of their types."""
    dims, level = [len(values)], values
    types = set(map(type, level))
    while level and types <= _SEQUENCES and len(dims) < _MAX_WALK:
        lengths = set(map(len, level))
        if len(lengths) > 1:   # ragged
            break
        dims.append(lengths.pop())
        level = list(chain.from_iterable(level))
        types = set(map(type, level))
    return dims, level, types


def _holds_bool(values, depth):
    """Whether the ``depth``-deep nested lists or tuples ``values`` hold a boolean."""
    for _ in range(depth - 1):
        values = chain.from_iterable(values)
    return not _BOOLS.isdisjoint(map(type, values))


def unchecked(cls, **fields):
    """A ``cls`` record, a frozen dataclass, holding ``fields`` as given:
    its ``__post_init__`` rule is skipped.  It is the private constructor of
    every record type, for values that the module defining ``cls`` has just
    made or checked, in the types and order the rule would give them; a
    test fails on a call from any other module."""
    record = object.__new__(cls)
    record.__dict__.update(fields)
    return record


class NoGroundIntersection(ValueError):
    """A camera ray does not hit the ground plane in front of the camera."""
