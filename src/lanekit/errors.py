"""Exception types shared across the package, and the checks that raise them."""

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


class NoGroundIntersection(ValueError):
    """A camera ray does not hit the ground plane in front of the camera."""
