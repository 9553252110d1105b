"""Extremal processes and their subordinated (time-changed) versions.

An extremal process driven by a d.f. F has marginal F(x)**t at time t
and independent max-increments: on a grid t_1 < ... < t_k the path is

    Y(t_1) = J_1,   Y(t_j) = max(Y(t_{j-1}), J_j),   J_j ~ F**(t_j - t_{j-1}).

Paths are drawn that way without a Python step per grid point: the
increments of many grid points come from one vectorised F**dt draw in
grid-major order, and a running maximum along the grid turns them into
paths.  Seeded paths are byte-identical to a point-by-point loop.

Subordination replaces t with a positive random time T(t), and the
compound marginal is phi(-log F) for the Laplace transform phi of T(t).
Both times are mixing times of law kinds, drawn and transformed by
their laws._KINDS records: gamma(t, 1) is gamma-mid's at shape t, and
the log-compounded time, at unit time only, ggamma-mid's at shape beta.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._checks import positive_finite, positive_integer
from .exponents import _apply
from .laws import _BLOCK, _KINDS, LawKind, MaxLaw, _neg_log_cdf_raw, _sample_max

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


def _time_kind(sub: SubordinatorSpec, t: float):
    """The law kind's record and shape b whose mixing time is T(t)."""
    t = positive_finite(float(t), "time")
    if sub.kind is SubKind.GAMMA:
        return _KINDS[LawKind.GAMMA_MID], t
    if t != 1.0:
        raise ValueError("the ggamma subordinator is defined at t = 1 only")
    return _KINDS[LawKind.GGAMMA_MID], sub.beta


def _check_times(times) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a nonempty 1-d array")
    if np.any(~np.isfinite(times)) or np.any(times <= 0) or np.any(np.diff(times) <= 0):
        raise ValueError("times must be finite, positive and strictly increasing")
    return times


def ep_marginal_cdf(spec: ExtremalSpec, t: float, x):
    """P{Y(t) <= x} = F(x)**t, through the -log channel."""
    t = positive_finite(float(t), "time")
    return _apply(lambda s: _KINDS[LawKind.BASE].cdf(np.multiply(t, _neg_log_cdf_raw(s, spec.base), out=s), 1.0), x)


def ep_simulate_ensemble(spec: ExtremalSpec, times, rng: np.random.Generator, n: int) -> np.ndarray:
    """n independent paths on a shared grid; shape (n, len(times)).

    The generator is read grid-major, as by a loop over grid points that
    draws n increments each, but in blocks of whole grid rows of about
    _BLOCK variates: one _sample_max call whose k holds the block's
    interval lengths, one per increment, then a running maximum along
    the grid that starts from the previous block's last column.  Each
    block differences its own rows of times (the same subtractions as
    differencing the whole grid), and for one path those differences
    become the draws, so a call holds its output and a few blocks.
    Each increment reads exactly one uniform, an exact 0 read as 2**-54
    (rng.uniform_open), so seeded output is byte-identical to that loop.
    """
    times = _check_times(times)
    n = positive_integer(n, "n")
    rows = max(1, _BLOCK // n)
    out = np.empty((n, times.size))
    for j in range(0, times.size, rows):
        dt = np.diff(times[j - 1 : j + rows]) if j else np.diff(times[:rows], prepend=0.0)
        # one k per increment, overwritten with the draws
        k = dt if n == 1 else np.repeat(dt, n)
        block = _sample_max(spec.base, rng, k.size, k).reshape(-1, n)
        if j:
            np.maximum(out[:, j - 1], block[0], out=block[0])
        out[:, j : j + rows] = _running_max(block).T
    return out


def _running_max(x: np.ndarray, free: np.ndarray | None = None) -> np.ndarray:
    """In place along axis 0, x[i] becomes the max of x[0] .. x[i], or
    with flags free (free[i]: no stretch starts at i) of x[i]'s stretch
    up to i; returns x, and overwrites free.

    A doubling scan of ceil(log2(len)) vectorised passes at most: after
    the pass with step s, x[i] is the max of the last 2s values up to i.
    np.maximum.accumulate(axis=0) runs its inner loop once per column,
    ~7 ns per element, which for wide blocks of few rows costs more than
    drawing them.  With free, a pass copies x[i - s] into x[i] where
    free[i] holds, unless x[i] > x[i - s], so ties keep the earlier value
    as a step-by-step max(previous, new) does, then sets free[i] &=
    free[i - s] (no stretch starts in the last 2s steps); the scan stops
    when no flag is left.  Without free a pass is np.maximum, whose zero
    on a +-0 tie is left to the platform; that is exact for quantile
    draws, which are never NaN and whose only zero is -0.0.

    The two rules stay apart because each is the faster one for its
    caller: the masked copy made the scans of paths ~10 times slower,
    and np.maximum(..., where=) made ar1_simulate slower at p >= 0.2
    (README, "Numerical notes").
    """
    step = 1
    while step < x.shape[0] and (free is None or free[step:].any()):
        if free is None:
            # numpy buffers the overlapping operands, so each pass reads the previous one
            np.maximum(x[:-step], x[step:], out=x[step:])
        else:
            take = ~(x[step:] > x[:-step])
            take &= free[step:]
            np.copyto(x[step:], x[:-step], where=take)  # copies the overlapping source first
            free[2 * step :] &= free[step:-step]
        step *= 2
    return x


def ep_simulate_path(spec: ExtremalSpec, times, rng: np.random.Generator) -> PathGrid:
    values = ep_simulate_ensemble(spec, times, rng, 1)[0]
    return PathGrid(np.asarray(times, dtype=float), values)


def subordinator_marginal(sub: SubordinatorSpec, t: float, rng: np.random.Generator, size: int) -> np.ndarray:
    """size draws of T(t); the ggamma kind exists at t = 1 only.

    Draws that underflow to 0.0 stand for positive sub-float times and
    are returned as-is; consumers map them to the bottom of the target
    support, mirroring quantile handling of unrepresentable extremes.
    """
    kind, b = _time_kind(sub, t)
    return kind.mixing(b, rng, positive_integer(size, "size"))


def compound_marginal_cdf(spec: ExtremalSpec, sub: SubordinatorSpec, t: float, x):
    """P{Y(T(t)) <= x} = phi(-log F(x)) for the Laplace transform phi of T(t)."""
    kind, b = _time_kind(sub, t)
    return _apply(lambda s: kind.cdf(_neg_log_cdf_raw(s, spec.base), b), x)


def compound_simulate(spec: ExtremalSpec, sub: SubordinatorSpec, t: float, rng: np.random.Generator, n: int) -> np.ndarray:
    """Draws of Y(T(t)): a random time first, then the marginal at it."""
    n = positive_integer(n, "n")
    return _sample_max(spec.base, rng, n, subordinator_marginal(sub, t, rng, n))
