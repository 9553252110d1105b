"""Tail exponents of max-infinitely divisible laws.

An exponent is the function psi(x) = -log F(x) of a base distribution
F.  Three families are supported, each with the classical extreme-value
support shape:

    frechet:  psi(x) = x**-alpha   for x > 0, +inf otherwise
    weibull:  psi(x) = (-x)**alpha for x < 0, 0 otherwise
    gumbel:   psi(x) = exp(-x)     on the whole line

Every d.f. of the package takes a number or an array through one
helper, _apply, and returns a float for a number, else an array.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

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
class Exponent:
    """One member of an exponent family; alpha is ignored for gumbel."""

    family: Family
    alpha: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.family, Family):
            object.__setattr__(self, "family", Family(self.family))
        if self.family is Family.GUMBEL:
            object.__setattr__(self, "alpha", 1.0)
        positive_finite(self.alpha, "alpha")

    def eval(self, x):
        """psi(x); nonincreasing, with value +inf below a frechet support.

        A NaN x gives NaN in every family, so every d.f., -log d.f. and
        composed d.f. built on psi maps NaN to NaN rather than to a
        family-dependent 0 or 1.
        """
        return _apply(self._eval_raw, x)

    def _eval_raw(self, x):
        # in-place core of eval: x is a float array the caller allocated,
        # overwritten with psi(x) and returned.  The support mask is taken
        # first; the formula then runs over the whole array and the entries
        # outside the support are overwritten; NaN passes through both.  |x|
        # is x on the frechet support and -x on the weibull one, and exp is
        # never negative, so the abs changes only the sign of a NaN: every
        # family returns the positive NaN, whatever the sign of the NaN it got.
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            if self.family is Family.FRECHET:
                outside = x <= 0
                np.abs(x, out=x)
                x **= -self.alpha
                x[outside] = np.inf
            elif self.family is Family.WEIBULL:
                outside = x >= 0
                np.abs(x, out=x)
                x **= self.alpha
                x[outside] = 0.0
            else:
                np.abs(np.exp(np.negative(x, out=x), out=x), out=x)
        return x

    def _inverse_raw(self, s):
        # the x with psi(x) = s; s = +inf maps to the support bottom by IEEE limits.
        # s is a float array the caller allocated, overwritten with the result.
        # Python's in-place ** is kept because np.power differs in the last
        # bit: an array's ** turns the exponents -1, 0.5 and 2 into reciprocal,
        # sqrt and square.
        if self.family is Family.FRECHET:
            s **= -1.0 / self.alpha
            return s
        if self.family is Family.WEIBULL:
            s **= 1.0 / self.alpha
            return np.negative(s, out=s)
        with np.errstate(divide="ignore"):
            return np.negative(np.log(s, out=s), out=s)

    def support(self) -> Support:
        if self.family is Family.FRECHET:
            return Support(0.0, np.inf)
        if self.family is Family.WEIBULL:
            return Support(-np.inf, 0.0)
        return Support(-np.inf, np.inf)


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
