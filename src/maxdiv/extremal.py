"""Extremal processes and their subordinated (time-changed) versions.

An extremal process driven by a d.f. F has marginal F(x)**t at time t
and independent max-increments: on a grid t_1 < ... < t_k the path is

    Y(t_1) = J_1,   Y(t_j) = max(Y(t_{j-1}), J_j),   J_j ~ F**(t_j - t_{j-1}).

Paths are drawn that way without a Python step per grid point: the
increments of many grid points come from one vectorised F**dt draw in
grid-major order, and a running maximum along the grid turns them into
paths.  Seeded paths are byte-identical to a point-by-point loop.

Subordination replaces t with a positive random time T(t).  With T(t)
gamma(t, 1) the compound marginal is phi(-log F)**t for the gamma
Laplace transform phi(lam) = 1/(1+lam); the log-compounded subordinator
is supported at unit time only, where phi(lam) = 1/(1+beta*log(1+lam)).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._checks import positive_finite, positive_integer
from .exponents import _as_array, _unwrap
from .laws import MaxLaw, _sample_max, sample_ggamma

# variates per ep_simulate_ensemble block: large enough to amortise the
# per-call cost over long grids, small enough (0.5 MB of float64) that
# the block's temporaries stay in cache for large ensembles
_EP_BLOCK_VARIATES = 2**16

__all__ = [
    "SubKind",
    "SubordinatorSpec",
    "ExtremalSpec",
    "ep_marginal_cdf",
    "ep_simulate_path",
    "ep_simulate_ensemble",
    "subordinator_marginal",
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


def ep_simulate_ensemble(spec: ExtremalSpec, times, rng: np.random.Generator, n: int) -> np.ndarray:
    """n independent paths on a shared grid; shape (n, len(times)).

    The generator is read grid-major, as by a loop over grid points that
    draws n increments each, but in blocks of whole grid rows of about
    _EP_BLOCK_VARIATES variates: one _sample_max call with the interval
    lengths as k, then a running maximum along the grid that starts
    from the previous block's last column.  Seeded output is
    byte-identical to that loop except where a uniform is exactly 0.0
    (probability 2**-53 per variate): uniform_open redraws it after the
    whole block, the loop after its own grid point.
    """
    times = _check_times(times)
    n = positive_integer(n, "n")
    dt = np.diff(times, prepend=0.0)
    rows = max(1, _EP_BLOCK_VARIATES // n)
    out = np.empty((n, times.size))
    for j in range(0, times.size, rows):
        block = _sample_max(spec.base, rng, (min(rows, times.size - j), n), dt[j : j + rows, None])
        if j:
            np.maximum(out[:, j - 1], block[0], out=block[0])
        _running_max_rows(block)
        out[:, j : j + rows] = block.T
    return out


def _running_max_rows(block: np.ndarray) -> None:
    """In place, row i becomes the elementwise max of rows 0..i.

    A doubling scan: ceil(log2(rows)) vectorised maxima over contiguous
    rows.  np.maximum.accumulate(axis=0) runs its inner loop once per
    column, ~7 ns per element, which for wide blocks of few rows costs
    more than drawing them.  The max of a set does not depend on the
    order of comparisons, so this equals a sequential running max for
    values that hold no NaN and no zeros of both signs; quantile draws
    are never NaN and their only zero is -0.0.
    """
    step = 1
    while step < block.shape[0]:
        # numpy buffers the overlapping operands, so each pass reads the previous one
        np.maximum(block[:-step], block[step:], out=block[step:])
        step *= 2


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
    n = positive_integer(1 if size is None else size, "size")
    if sub.kind is SubKind.GAMMA:
        out = np.atleast_1d(rng.gamma(t, 1.0, n))
    else:
        out = np.atleast_1d(sample_ggamma(sub.beta, rng, n))
    return float(out[0]) if size is None else out


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
    n = positive_integer(n, "n")
    return _sample_max(spec.base, rng, n, subordinator_marginal(sub, t, rng, n))
