"""Tail exponents of max-infinitely divisible laws.

An exponent is the function psi(x) = -log F(x) of a base distribution
F.  Three families are supported, each with the classical extreme-value
support shape:

    frechet:  psi(x) = x**-alpha   for x > 0, +inf otherwise
    weibull:  psi(x) = (-x)**alpha for x < 0, 0 otherwise
    gumbel:   psi(x) = exp(-x)     on the whole line

Everything that depends on the family lives in one record per family
in _FAMILIES: psi and its inverse in place, the support, whether alpha
is pinned to 1, and the sign of the semi-stable scale's exponent.  No
other code tests the family.  Every d.f. of the package takes a number
or an array through one helper, _apply, and returns a float for a
number, else an array.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable

import numpy as np

from ._checks import positive_finite

__all__ = ["Family", "Exponent", "frechet", "weibull", "gumbel"]


class Family(str, Enum):
    FRECHET = "frechet"
    WEIBULL = "weibull"
    GUMBEL = "gumbel"


@dataclass(frozen=True)
class Support:
    """Closure of the set where a law's d.f. lies strictly between 0 and 1."""

    lower: float
    upper: float = np.inf


def _apply(fn, x, *args):
    """fn(buffer, *args) on one float copy of x with at least one
    dimension, which fn may overwrite and return.  A Python float for a
    number, a numpy scalar or a 0-d array, else the array.  A result
    beyond float range is its IEEE limit, without an overflow warning."""
    buffer = np.array(x, dtype=float, order="C")
    with np.errstate(over="ignore"):
        out = fn(np.atleast_1d(buffer), *args)
    return float(out[0]) if buffer.ndim == 0 else out


@dataclass(frozen=True)
class _Family:
    """What a family is.  psi and inverse overwrite the float array they
    get; NaN passes through every psi as the positive NaN."""

    psi: Callable  # (x, alpha) -> psi(x)
    inverse: Callable  # (s, alpha) -> the x with psi(x) = s; s = +inf gives the support bottom
    support: Support
    shaped: bool = True  # False: alpha is pinned to 1
    scale_sign: float | None = None  # b = p**(scale_sign/alpha) has psi(b*x) = psi(x)/p; None: no b


def _power(x, power):
    x **= power  # Python's in-place **: np.power differs, as ** takes -1, 0.5 and 2 to reciprocal, sqrt and square
    return x


def _half_line(x, outside, power, value):
    # |x|**power, then value where outside, a mask taken before abs changed the sign of x's zeros
    _power(np.abs(x, out=x), power)[outside] = value
    return x


# frechet and weibull mirror each other: psi = |x|**(-/+alpha) on a half-line,
# where abs changes only the sign of a NaN, as it does after gumbel's exp
_FAMILIES = {
    Family.FRECHET: _Family(lambda x, a: _half_line(x, x <= 0, -a, np.inf), lambda s, a: _power(s, -1.0 / a), Support(0.0), scale_sign=1.0),
    Family.WEIBULL: _Family(
        lambda x, a: _half_line(x, x >= 0, a, 0.0), lambda s, a: np.negative(_power(s, 1.0 / a), out=s), Support(-np.inf, 0.0), scale_sign=-1.0
    ),
    Family.GUMBEL: _Family(
        lambda x, a: np.abs(np.exp(np.negative(x, out=x), out=x), out=x), lambda s, a: np.negative(np.log(s, out=s), out=s), Support(-np.inf), shaped=False
    ),
}


@dataclass(frozen=True)
class Exponent:
    """One member of an exponent family; alpha is ignored for gumbel."""

    family: Family
    alpha: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.family, Family):
            object.__setattr__(self, "family", Family(self.family))
        if not _FAMILIES[self.family].shaped:
            object.__setattr__(self, "alpha", 1.0)
        positive_finite(self.alpha, "alpha")

    def eval(self, x):
        """psi(x); nonincreasing, with value +inf below a frechet support.
        NaN gives NaN in every family, and so in every d.f. built on psi."""
        return _apply(self._eval_raw, x)

    # the in-place cores: x and s are float arrays the caller allocated; the
    # inverse's callers silence the division by zero of a zero s

    def _eval_raw(self, x):
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            return _FAMILIES[self.family].psi(x, self.alpha)

    def _inverse_raw(self, s):
        return _FAMILIES[self.family].inverse(s, self.alpha)

    def support(self) -> Support:
        return _FAMILIES[self.family].support


# bounded: alpha is any positive float, so the exponents a process meets are unbounded
@lru_cache(maxsize=64)
def _min_inside(exponent: Exponent) -> float:
    """Smallest representable x at which psi is still finite; quantile
    transforms park otherwise-unrepresentable lower-tail values here."""
    with np.errstate(over="ignore"):
        x = float(exponent._inverse_raw(np.full(1, np.finfo(float).max))[0])
    while not np.isfinite(exponent.eval(x)):
        x = np.nextafter(x, np.inf)
    return x


def frechet(alpha: float = 1.0) -> Exponent:
    return Exponent(Family.FRECHET, alpha)


def weibull(alpha: float = 1.0) -> Exponent:
    return Exponent(Family.WEIBULL, alpha)


def gumbel() -> Exponent:
    return Exponent(Family.GUMBEL)
