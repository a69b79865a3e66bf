"""Exception types shared across the package, and the checks that raise
them naming the offending argument, field or row: ``check_real`` and
``check_int``, the one rule for scalar arguments, ``float_array`` and
``int_array``, the one rule for array arguments, and the row checks."""

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
_INT64 = np.iinfo(np.int64)
_FLOAT_MAX = float(np.finfo(float).max)
# Checked by type first: isinstance against an ABC costs a Python call.
_PLAIN_REALS = frozenset((float, int, np.float64))

# Phrases for the intervals whose generic "lie in [a, b)" reads badly.
_INTERVAL_PHRASES = {(0, math.inf, "()"): "be positive and finite",
                     (0, math.inf, "[)"): "be finite and non-negative",
                     (-math.inf, math.inf, "()"): "be finite",
                     (-math.inf, math.inf, "[]"): "be a number"}


def check_real(value, name, low=-math.inf, high=math.inf, ends="()"):
    """``value``, which must be a real number between ``low`` and ``high``,
    ends open or closed as ``ends`` says (``"[)"`` is [low, high)); anything
    else (a bool, NaN, an int no float holds) raises ValidationError naming ``name``."""
    if not ((type(value) in _PLAIN_REALS or isinstance(value, Real) and type(value) not in _BOOLS)
            and (low < value if ends[0] == "(" else low <= value)
            and (value < high if ends[1] == ")" else value <= high)
            and (type(value) is not int or -_FLOAT_MAX <= value <= _FLOAT_MAX)):
        phrase = _INTERVAL_PHRASES.get((low, high, ends),
                                       f"lie in {ends[0]}{low:g}, {high:g}{ends[1]}")
        raise ValidationError(f"{name} must {phrase}, got {value!r}")
    return value


def check_int(value, name, low=None):
    """``value`` as a Python int; anything but an integer of at least ``low``,
    a bool or a float such as 2.0 included, raises ValidationError naming ``name``."""
    if not ((type(value) is int or isinstance(value, Integral) and type(value) not in _BOOLS)
            and (low is None or value >= low)):
        phrase = ("an integer" if low is None else "a non-negative integer" if low == 0
                  else f"an integer >= {low}")
        raise ValidationError(f"{name} must be {phrase}, got {value!r}")
    return int(value)


def reject_rows(bad, array, field, problem):
    """Raises ValidationError for the first row flagged in ``bad``, naming
    it as ``array[row]field``."""
    if bad.any():
        row = int(bad.nonzero()[0][0])
        raise ValidationError(f"{array}[{row}]{field}: {problem}")


def reject_non_finite(values, array, field=""):
    """Raises ValidationError naming the first row of ``values`` that holds
    a NaN or an infinity."""
    finite = np.isfinite(values)
    if not finite.all():
        reject_rows(~finite.reshape(len(values), -1).all(axis=1), array, field, "not finite")


def float_array(values, name, shape=None, row_name=None):
    """``values`` as a float array, the one rule for array arguments: anything
    but a rectangular array of numbers (ragged input, strings, booleans,
    integers beyond 64 bits) is rejected as ``name``.  Only a list's or
    tuple's entries are scanned for booleans, which numpy turns into 1.0 and
    0.0 beside other numbers; an array is judged by its dtype.

    ``shape``, if given, is the pattern the array must match: one length per
    axis, None matching any length.  An empty 1-D input reads as zero rows, so
    ``[]`` matches ``(None, 4)`` as a ``(0, 4)`` array.  No value is checked;
    finiteness and ranges are the caller's rule.  With ``row_name``, a list
    or tuple with a boolean, a non-number or a ragged row names the first row
    bad alone or unlike row 0 in shape, ``row_name.format(row)``."""
    return _number_array(values, name, shape, "iuf", row_name).astype(float, copy=False)


def int_array(values, name, shape=None, row_name=None):
    """``values`` as an int64 array, the integer twin of ``float_array``: its
    rule for booleans, ragged input, non-numbers, ``shape`` and ``row_name``,
    and besides that ``check_int``'s rule for every entry (no float, not even
    2.0) and no integer outside the int64 range.  Those two name the first
    row holding a bad entry, ``row_name.format(row)`` if given, else
    ``name[row]``.  An integer array is judged by its dtype alone; other
    input, a float or a uint64 array or Python integers beyond int64, is
    read entry by entry.  No value is checked against a range of indices;
    that is the caller's rule."""
    array = _number_array(values, name, shape, "iufO", row_name)
    if array.dtype.kind == "i" or array.size == 0 or (
            array.dtype.kind == "u" and array.max() <= _INT64.max):
        return array.astype(np.int64, copy=False)
    # A float array, or Python ints that numpy read as float64 or object.
    entries = np.atleast_1d(np.asarray(values, dtype=object))
    for row, row_entries in enumerate(entries.reshape(len(entries), -1).tolist()):
        label = (row_name or name + "[{}]").format(row)
        for value in row_entries:
            if not _INT64.min <= check_int(value, label) <= _INT64.max:
                raise ValidationError(f"{label}: outside the int64 range")
    return array.astype(np.int64)


def _number_array(values, name, shape, kinds, row_name=None):
    """``values`` as numpy reads them, checked by ``float_array``'s rule with
    the dtype kinds ``kinds`` taken as numbers."""
    try:
        array = np.asarray(values)
    except ValueError:  # a ragged list
        array = None
    boolean = array is not None and (array.dtype.kind == "b" or (
        array.dtype.kind in kinds and isinstance(values, (list, tuple))
        and _holds_bool(values, array.ndim)))
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


def _holds_bool(values, depth):
    """Whether the ``depth``-deep nested lists or tuples ``values`` hold a boolean."""
    for _ in range(depth - 1):
        values = chain.from_iterable(values)
    return not _BOOLS.isdisjoint(map(type, values))


class NoGroundIntersection(ValueError):
    """A camera ray does not hit the ground plane in front of the camera."""
