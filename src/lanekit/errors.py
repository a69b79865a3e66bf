"""Exception types shared across the package, and the generic array checks
that raise them, naming the offending field or row."""

from itertools import chain

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


def float_array(values, name):
    """``values`` as a float array; anything but a rectangular array of numbers
    (ragged lists, strings, booleans, integers beyond 64 bits) is rejected as
    ``name``.  Only a list's entries are scanned for booleans, which numpy
    turns into 1.0 and 0.0 beside other numbers; an array is judged by its
    dtype."""
    try:
        array = np.asarray(values)
    except ValueError:  # a ragged list
        array = np.empty(0, dtype=object)
    if array.dtype.kind == "b" or (array.dtype.kind in "iuf" and isinstance(values, list)
                                   and _holds_bool(values, array.ndim)):
        raise ValidationError(f"{name}: expected numbers, got a boolean")
    if array.dtype.kind not in "iuf":
        raise ValidationError(f"{name}: expected a rectangular array of numbers")
    return array.astype(float, copy=False)


_BOOLS = frozenset((bool, np.bool_))


def _holds_bool(values, depth):
    """Whether the ``depth``-deep nested list ``values`` holds a boolean."""
    for _ in range(depth - 1):
        values = chain.from_iterable(values)
    return not _BOOLS.isdisjoint(map(type, values))


class NoGroundIntersection(ValueError):
    """A camera ray does not hit the ground plane in front of the camera."""
