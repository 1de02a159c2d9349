"""Exception types, the cost guard and the scalar rules shared across the package."""

import math
import numbers
import os

__all__ = [
    "TfsimError",
    "SchemaError",
    "UnknownGateError",
    "CostGuardError",
    "InsufficientMassError",
    "DEFAULT_MAX_COST",
]

DEFAULT_MAX_COST = 1_000_000


def _check_cost(cost, what):
    """Raise CostGuardError when ``what`` costs more units than the limit: TFSIM_MAX_COST
    (a non-negative decimal integer), else DEFAULT_MAX_COST."""
    env = os.environ.get("TFSIM_MAX_COST") or str(DEFAULT_MAX_COST)
    if not (env.isascii() and env.isdigit()):
        raise ValueError(f"TFSIM_MAX_COST must be a non-negative decimal integer, got {env!r}")
    limit = int(env)
    if cost > limit:
        raise CostGuardError(f"{what} costs {cost} > limit {limit}")


def _check_int(value, name, minimum=0):
    """The one count rule: int(value), else ValueError unless a non-bool integer >= minimum."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}")
    return int(value)


def _check_real(value, name, positive=False):
    """The one real-number rule: float(value), else ValueError unless a finite non-bool real
    number (so no complex number or string), > 0 when ``positive``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    value = float(value)
    if not math.isfinite(value) or (positive and not value > 0):
        raise ValueError(f"{name} must be {'positive and ' if positive else ''}finite")
    return value


class TfsimError(Exception):
    """Base class for errors raised by tfsim."""


class SchemaError(TfsimError):
    """A circuit description violates the published schema.

    Parameters
    ----------
    message : str
        Human-readable diagnostic.
    location : str, optional
        Dotted path of the offending field, e.g. ``"ops[2].gate"``.
    """

    def __init__(self, message, location=None):
        self.location = location
        if location is not None:
            message = f"{location}: {message}"
        super().__init__(message)


class UnknownGateError(SchemaError):
    """A circuit references a gate name the simulator does not provide."""


class CostGuardError(TfsimError):
    """A requested computation exceeds the configured cost guard."""


class InsufficientMassError(TfsimError):
    """The truncated distribution holds too little probability mass to sample.

    Attributes
    ----------
    mass : float
        The probability mass actually enclosed by the requested cutoff.
    """

    def __init__(self, mass, required):
        self.mass = float(mass)
        self.required = float(required)
        super().__init__(
            f"truncated distribution holds mass {mass:.12g} < required {required:g}; "
            "raise the cutoff"
        )
