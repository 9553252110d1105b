"""Extremal processes and their subordinated (time-changed) versions.

An extremal process driven by a d.f. F has marginal F(x)**t at time t
and independent max-increments: on a grid t_1 < ... < t_k the path is

    Y(t_1) = J_1,   Y(t_j) = max(Y(t_{j-1}), J_j),   J_j ~ F**(t_j - t_{j-1}).

Subordination replaces t with a positive random time T(t).  With T(t)
gamma(t, 1) the compound marginal is phi(-log F)**t for the gamma
Laplace transform phi(lam) = 1/(1+lam); the log-compounded subordinator
is supported at unit time only, where phi(lam) = 1/(1+beta*log(1+lam)).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._checks import open_unit, positive_finite, sample_size
from .exponents import _as_array, _unwrap
from .laws import MaxLaw, _quantile_w, _sample_max, sample_ggamma

__all__ = [
    "SubKind",
    "SubordinatorSpec",
    "ExtremalSpec",
    "PathGrid",
    "ep_marginal_cdf",
    "ep_marginal_quantile",
    "ep_max_increment_sample",
    "ep_simulate_path",
    "ep_simulate_ensemble",
    "subordinator_marginal",
    "subordinator_path",
    "compound_marginal_cdf",
    "compound_simulate",
]


class SubKind(str, Enum):
    GAMMA = "gamma"
    GGAMMA_UNIT = "ggamma"


@dataclass(frozen=True)
class SubordinatorSpec:
    """Random-time law; beta only matters for the unit-time ggamma kind."""

    kind: SubKind
    beta: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.kind, SubKind):
            object.__setattr__(self, "kind", SubKind(self.kind))
        positive_finite(self.beta, "beta")


@dataclass(frozen=True)
class ExtremalSpec:
    base: MaxLaw


@dataclass(frozen=True, eq=False)
class PathGrid:
    """A sampled path: values observed on a strictly increasing time grid."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if times.ndim != 1 or times.size == 0:
            raise ValueError("times must be a nonempty 1-d array")
        if np.any(times <= 0) or np.any(np.diff(times) <= 0):
            raise ValueError("times must be positive and strictly increasing")
        if values.shape != times.shape:
            raise ValueError("values must match the time grid shape")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)


def _check_time(t: float, sub: SubordinatorSpec | None = None) -> float:
    """A finite positive time, at which sub (when given) is defined."""
    t = positive_finite(float(t), "time")
    if sub is not None and sub.kind is SubKind.GGAMMA_UNIT and t != 1.0:
        raise ValueError("the ggamma subordinator is defined at t = 1 only")
    return t


def _check_times(times) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a nonempty 1-d array")
    if np.any(~np.isfinite(times)) or np.any(times <= 0) or np.any(np.diff(times) <= 0):
        raise ValueError("times must be finite, positive and strictly increasing")
    return times


def ep_marginal_cdf(spec: ExtremalSpec, t: float, x):
    """P{Y(t) <= x} = F(x)**t, through the -log channel."""
    t = _check_time(t)
    v, scalar = _as_array(spec.base.neg_log_cdf(x))
    return _unwrap(np.exp(-t * v), scalar)


def ep_marginal_quantile(spec: ExtremalSpec, t: float, u):
    """Quantile of F**t: the base quantile evaluated at u**(1/t).

    Computed in w = -log(u) space, so very small u or large t do not
    lose precision forming u**(1/t).
    """
    t = _check_time(t)
    us, scalar = _as_array(u)
    return _unwrap(_quantile_w(spec.base, -np.log(open_unit(us)), t), scalar)


def ep_max_increment_sample(spec: ExtremalSpec, dt: float, rng: np.random.Generator, n: int) -> np.ndarray:
    """Draws of the fresh max-increment over an interval of length dt.

    The increment law is F**dt whatever the interval's left endpoint;
    the path simulator composes these draws with running maxima.
    """
    dt = _check_time(dt)
    return _sample_max(spec.base, rng, sample_size(n), dt)


def ep_simulate_ensemble(spec: ExtremalSpec, times, rng: np.random.Generator, n: int) -> np.ndarray:
    """n independent paths on a shared grid; shape (n, len(times))."""
    times = _check_times(times)
    sample_size(n)
    out = np.empty((n, times.size))
    out[:, 0] = ep_max_increment_sample(spec, times[0], rng, n)
    for j in range(1, times.size):
        jump = ep_max_increment_sample(spec, times[j] - times[j - 1], rng, n)
        out[:, j] = np.maximum(out[:, j - 1], jump)
    return out


def ep_simulate_path(spec: ExtremalSpec, times, rng: np.random.Generator) -> PathGrid:
    values = ep_simulate_ensemble(spec, times, rng, 1)[0]
    return PathGrid(np.asarray(times, dtype=float), values)


def subordinator_marginal(sub: SubordinatorSpec, t: float, rng: np.random.Generator, size: int | None = None):
    """Draw T(t); the ggamma kind exists at t = 1 only.

    Draws that underflow to 0.0 stand for positive sub-float times and
    are returned as-is; consumers map them to the bottom of the target
    support, mirroring quantile handling of unrepresentable extremes.
    """
    t = _check_time(t, sub)
    n = sample_size(1 if size is None else size)
    if sub.kind is SubKind.GAMMA:
        out = np.atleast_1d(rng.gamma(t, 1.0, n))
    else:
        out = np.atleast_1d(sample_ggamma(sub.beta, rng, n))
    return float(out[0]) if size is None else out


def subordinator_path(sub: SubordinatorSpec, times, rng: np.random.Generator) -> PathGrid:
    """Nondecreasing random-time path on a grid.

    The gamma kind has independent gamma(dt, 1) increments.  The ggamma
    kind has no path construction: only the one-point grid [1.0] is
    accepted, yielding its unit-time marginal.
    """
    times = _check_times(times)
    if sub.kind is SubKind.GGAMMA_UNIT:
        if times.size != 1:
            raise ValueError("the ggamma subordinator only supports the one-point grid [1.0]")
        return PathGrid(times, subordinator_marginal(sub, times[0], rng, 1))
    increments = rng.gamma(np.diff(np.concatenate(([0.0], times))), 1.0)
    return PathGrid(times, np.cumsum(increments))


def compound_marginal_cdf(spec: ExtremalSpec, sub: SubordinatorSpec, t: float, x):
    """P{Y(T(t)) <= x} = phi(-log F(x))**t for the subordinator's LT phi."""
    t = _check_time(t, sub)
    v, scalar = _as_array(spec.base.neg_log_cdf(x))
    if sub.kind is SubKind.GAMMA:
        out = np.exp(-t * np.log1p(v))
    else:
        out = 1.0 / (1.0 + sub.beta * np.log1p(v))
    return _unwrap(out, scalar)


def compound_simulate(spec: ExtremalSpec, sub: SubordinatorSpec, t: float, rng: np.random.Generator, n: int) -> np.ndarray:
    """Draws of Y(T(t)): a random time first, then the marginal at it."""
    sample_size(n)
    return _sample_max(spec.base, rng, n, subordinator_marginal(sub, t, rng, n))
