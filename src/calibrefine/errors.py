"""Exception types shared across the calibration pipeline, and the one type
rule of every typed config: :func:`check_field_types`."""
from __future__ import annotations

import numbers
from dataclasses import fields

# Field annotation -> (accepted type, what the refusal calls it). A bool is
# an int to isinstance, so only a bool field takes one.
_FIELD_TYPES = {
    "int": (numbers.Integral, "an integer"),
    "float": (numbers.Real, "a number"),
    "bool": (bool, "a boolean"),
}


def check_field_types(config) -> None:
    """Refuse a wrong type in any ``int``, ``float`` or ``bool`` field of a
    dataclass config with ``ValueError("<field> must be an integer|a 64-bit
    integer|a number|a boolean, got <repr>")``.

    An ``int`` field holds an integral number that is not a bool (numpy
    integers pass, ``2.0`` does not) and that an int64 can hold (``2**63``
    does not: counts size arrays and sizes become floats), a ``float`` field
    a real number that is not a bool and that a float can hold (ints pass,
    ``10**400`` does not) and a ``bool`` field a bool. Enum- and
    config-typed fields are left to their own types.
    """
    for f in fields(config):
        rule = _FIELD_TYPES.get(getattr(f.type, "__name__", f.type))
        if rule is None:
            continue
        kind, what = rule
        value = getattr(config, f.name)
        ok = isinstance(value, kind) and isinstance(value, bool) == (kind is bool)
        if ok and kind is numbers.Real:
            try:
                float(value)
            except OverflowError:  # an int past the float range
                ok = False
        if not ok:
            raise ValueError(f"{f.name} must be {what}, got {value!r}")
        if kind is numbers.Integral and not -(2**63) <= value < 2**63:
            raise ValueError(f"{f.name} must be a 64-bit integer, got {value!r}")


class CalibrationError(Exception):
    """Base class for all calibration failures."""


class DegenerateProjection(CalibrationError):
    """A point maps to (or too close to) the line at infinity."""


class SingularMatrixError(CalibrationError):
    """A matrix failed the non-singularity check."""


class SingularResult(SingularMatrixError):
    """A matrix product came out singular; inputs are likely corrupt."""


class InsufficientPairs(CalibrationError):
    """Fewer correspondences than the operation requires."""


class DegenerateConfiguration(CalibrationError):
    """Correspondences cannot determine a homography (rank-deficient system)."""


class EmptySet(CalibrationError):
    """An operation that needs at least one element got none."""


class ConsensusFailure(CalibrationError):
    """RANSAC could not find an inlier set large enough to trust."""

    def __init__(self, message: str, n_pairs: int = 0, best_inliers: int = 0):
        super().__init__(message)
        self.n_pairs = n_pairs
        self.best_inliers = best_inliers


class OutOfOrderFrame(CalibrationError):
    """Frame ids must be strictly increasing within a stream."""


class NonConvergenceWarning(UserWarning):
    """The damped least-squares loop hit its iteration cap; best iterate returned."""
