"""Tail exponents of max-infinitely divisible laws.

An exponent is the function psi(x) = -log F(x) of a base distribution
F.  Three families are supported, each with the classical extreme-value
support shape:

    frechet:  psi(x) = x**-alpha   for x > 0, +inf otherwise
    weibull:  psi(x) = (-x)**alpha for x < 0, 0 otherwise
    gumbel:   psi(x) = exp(-x)     on the whole line

All evaluation routines accept scalars or numpy arrays and return the
matching shape.
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


def _as_array(x) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    return np.atleast_1d(arr), arr.ndim == 0


def _unwrap(out: np.ndarray, scalar: bool):
    return float(out[0]) if scalar else out


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
        xs, scalar = _as_array(x)
        return _unwrap(self._eval_raw(xs.copy()), scalar)

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

    def inverse(self, s):
        """The x with psi(x) = s, for finite s > 0; an x beyond float
        range is returned as its IEEE limit, without a warning."""
        ss, scalar = _as_array(s)
        if np.any(~np.isfinite(ss)) or np.any(ss <= 0):
            raise ValueError("inverse requires finite s > 0")
        with np.errstate(over="ignore"):
            return _unwrap(self._inverse_raw(ss.copy()), scalar)

    def _inverse_raw(self, s):
        # unchecked path: s = +inf maps to the support bottom by IEEE limits.
        # An array s is overwritten with the result, so callers pass arrays
        # they allocated; a numpy scalar s (one draw) gives a new scalar.
        # Python's ** is kept, in place or not, because np.power differs in
        # the last bit: an array's ** turns the exponents -1, 0.5 and 2 into
        # reciprocal, sqrt and square, and a numpy scalar's ** is libm pow
        # where np.power may run a vector kernel.
        out = s if np.ndim(s) else None
        if self.family is Family.FRECHET:
            s **= -1.0 / self.alpha
            return s
        if self.family is Family.WEIBULL:
            s **= 1.0 / self.alpha
            return np.negative(s, out=out)
        with np.errstate(divide="ignore"):
            return np.negative(np.log(s, out=out), out=out)

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
        x = float(exponent._inverse_raw(np.asarray(np.finfo(float).max)))
    while not np.isfinite(exponent.eval(x)):
        x = np.nextafter(x, np.inf)
    return x


def frechet(alpha: float = 1.0) -> Exponent:
    return Exponent(Family.FRECHET, alpha)


def weibull(alpha: float = 1.0) -> Exponent:
    return Exponent(Family.WEIBULL, alpha)


def gumbel() -> Exponent:
    return Exponent(Family.GUMBEL)
