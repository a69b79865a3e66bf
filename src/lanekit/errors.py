"""Exception types shared across the package, and the checks that raise them."""

from numbers import Real

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
    (ragged lists, strings, integers beyond 64 bits) is rejected as ``name``."""
    try:
        array = np.asarray(values)
        if array.dtype.kind in "biuf":
            return array.astype(float, copy=False)
    except ValueError:  # a ragged list
        pass
    raise ValidationError(f"{name}: expected a rectangular array of numbers")


def check_lane(points, confidence=1.0):
    """The lane rule: ``points`` form an (N >= 2, 3) array of finite
    (x, y, z) rows whose y does not decrease, and ``confidence`` lies in
    [0, 1].  Returns the points as a float array."""
    points = float_array(points, "points")
    if points.ndim != 2 or points.shape[1] != 3 or len(points) < 2:
        raise ValidationError(f"lane points must be (N >= 2, 3), got shape {points.shape}")
    reject_non_finite(points, "points")
    if (points[1:, 1] < points[:-1, 1]).any():
        raise ValidationError("lane points must have non-decreasing y")
    # NaN fails both comparisons.
    if not (isinstance(confidence, Real) and 0.0 <= confidence <= 1.0):
        raise ValidationError(f"confidence must lie in [0, 1], got {confidence!r}")
    return points


class NoGroundIntersection(ValueError):
    """A camera ray does not hit the ground plane in front of the camera."""
