"""Exception types shared across the package, and the one check of every numeric argument.

A domain (words, lo, hi) holds the numbers lo <= x < hi; when lo is an int, only ints,
compared exactly however large.
"""

import math
import numbers


class ValidationError(ValueError):
    """An input failed a structural or numerical precondition."""


class UsageError(ValueError):
    """A call or command was malformed (bad flags, empty grids, ...)."""


class ImpossibleBranchError(ValidationError):
    """A conditional state was requested for a zero-probability branch."""


class PlanningError(ValidationError):
    """Network planning cannot proceed on the given graph."""


POSITIVE = "finite and > 0", math.ulp(0.0), math.inf  # lo is the least float above 0
NON_NEGATIVE = "finite and >= 0", 0.0, math.inf
BELOW_ONE = "in [0, 1)", 0.0, 1.0
PROBABILITY = "in [0, 1]", 0.0, math.nextafter(1.0, math.inf)
TRANSMITTANCE = "in (0, 1]", math.ulp(0.0), math.nextafter(1.0, math.inf)
COUNT = ">= 1", 1, math.inf
SEED = ">= 0", 0, math.inf
#: Party ids and coordinates in a network document; lo is the least finite float.
FINITE = "finite and within float range", math.nextafter(-math.inf, 0.0), math.inf
#: The least intensity whose square is above 0: loss_povm divides by about mu**2.
POVM_MU_MIN = math.sqrt(math.ulp(0.0))
POVM_INTENSITY = f"finite and >= {POVM_MU_MIN!r}", POVM_MU_MIN, math.inf


def in_domain(x, domain) -> bool:
    """Whether x is a number of the domain: not a bool, a real that a float holds, in [lo, hi)."""
    _, lo, hi = domain
    if type(x) is float and type(lo) is float:  # the common case first
        return lo <= x < hi  # also false for NaN, and hi <= inf refuses inf
    integral = type(lo) is int
    if isinstance(x, bool) or not isinstance(x, numbers.Integral if integral else numbers.Real):
        return False
    try:
        return lo <= (x if integral else float(x)) < hi
    except OverflowError:  # an int that no float holds
        return False


def check(name: str, x, domain):
    """x, if it is in the domain; else ValidationError(f"{name} must be {words}, got {x!r}")."""
    if in_domain(x, domain):
        return x
    words, lo, _ = domain
    if type(lo) is int and (isinstance(x, bool) or not isinstance(x, numbers.Integral)):
        words = "an integer"
    raise ValidationError(f"{name} must be {words}, got {x!r}")
