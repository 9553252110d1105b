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

import numpy as np

from ._checks import positive_finite

__all__ = ["Family", "Exponent", "Support", "frechet", "weibull", "gumbel"]


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
        """psi(x); nonincreasing, with value +inf below a frechet support."""
        xs, scalar = _as_array(x)
        with np.errstate(over="ignore"):
            if self.family is Family.FRECHET:
                out = np.full(xs.shape, np.inf)
                pos = xs > 0
                out[pos] = xs[pos] ** -self.alpha
            elif self.family is Family.WEIBULL:
                out = np.zeros(xs.shape)
                neg = xs < 0
                out[neg] = (-xs[neg]) ** self.alpha
            else:
                out = np.exp(-xs)
        return _unwrap(out, scalar)

    def inverse(self, s):
        """The x with psi(x) = s, for finite s > 0."""
        ss, scalar = _as_array(s)
        if np.any(~np.isfinite(ss)) or np.any(ss <= 0):
            raise ValueError("inverse requires finite s > 0")
        return _unwrap(self._inverse_raw(ss), scalar)

    def _inverse_raw(self, s: np.ndarray) -> np.ndarray:
        # unchecked path: s = +inf maps to the support bottom by IEEE limits
        if self.family is Family.FRECHET:
            return s ** (-1.0 / self.alpha)
        if self.family is Family.WEIBULL:
            return -(s ** (1.0 / self.alpha))
        with np.errstate(divide="ignore"):
            return -np.log(s)

    def support(self) -> Support:
        if self.family is Family.FRECHET:
            return Support(0.0, np.inf)
        if self.family is Family.WEIBULL:
            return Support(-np.inf, 0.0)
        return Support(-np.inf, np.inf)

    def _min_inside(self) -> float:
        # smallest representable x at which psi is still finite; quantile
        # transforms park otherwise-unrepresentable lower-tail values here
        with np.errstate(over="ignore"):
            x = float(self._inverse_raw(np.asarray(np.finfo(float).max)))
        while not np.isfinite(self.eval(x)):
            x = np.nextafter(x, np.inf)
        return x


def frechet(alpha: float = 1.0) -> Exponent:
    return Exponent(Family.FRECHET, alpha)


def weibull(alpha: float = 1.0) -> Exponent:
    return Exponent(Family.WEIBULL, alpha)


def gumbel() -> Exponent:
    return Exponent(Family.GUMBEL)
