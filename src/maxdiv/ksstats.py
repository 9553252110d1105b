"""Empirical-d.f. machinery: KS statistics, critical bands, grids."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import positive_integer
from .laws import MaxLaw, _cdf_raw

__all__ = [
    "KS_COEFFICIENTS",
    "KSReport",
    "ks_one_sample",
    "ks_two_sample",
    "critical_one_sample",
    "sup_norm_grid",
    "quantile_grid",
    "cdf_validity_gap",
]

# the classical asymptotic coefficient c at the 1% level, the only level
# tested: critical value c/sqrt(n) one-sample, c*sqrt((n+m)/(n*m)) two-sample
KS_COEFFICIENTS = {0.01: 1.628}

# points per block of the one-sample statistic: 64 KB of float64
_KS_BLOCK = 2**13


@dataclass(frozen=True)
class KSReport:
    statistic: float
    n: int
    m: int | None
    critical_value: float
    passed: bool


def critical_one_sample(n: int) -> float:
    positive_integer(n, "n")
    return float(KS_COEFFICIENTS[0.01] / np.sqrt(n))


def critical_two_sample(n: int, m: int) -> float:
    positive_integer(n, "n")
    positive_integer(m, "m")
    return float(KS_COEFFICIENTS[0.01] * np.sqrt((n + m) / (n * m)))


def _sorted_sample(samples, overwrite_input: bool = False) -> np.ndarray:
    """A one-dimensional sample as a sorted float array: a sorted copy,
    or, with overwrite_input, a writeable float64 array sorted in place.

    An ensemble's columns follow different laws, so a 2-d array is
    rejected rather than flattened into one sample.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"a KS sample must be one-dimensional, got shape {x.shape}")
    if not (overwrite_input and x.flags.writeable):
        x = x.copy()
    x.sort()
    return x


def ks_one_sample(samples, cdf, *, overwrite_input: bool = False) -> KSReport:
    """Sup distance between the empirical d.f. and a target d.f.

    cdf may be a MaxLaw or any vectorized d.f. callable.  The statistic
    is evaluated on both sides of each jump of the empirical d.f.

    The statistic is computed on a sorted copy of samples.  With
    overwrite_input=True (numpy's name), a writeable one-dimensional
    float64 array is sorted and evaluated in its own buffer instead, so
    the call holds no copy of it; its contents are undefined afterwards.
    The statistic is the same to the bit either way.
    """
    xs = _sorted_sample(samples, overwrite_input)
    n = xs.size
    if n < 1:
        raise ValueError("ks_one_sample needs at least one sample")
    # xs is ours to overwrite: a MaxLaw's d.f. is evaluated in its buffer
    f = _cdf_raw(xs, cdf) if isinstance(cdf, MaxLaw) else np.asarray(cdf(xs), dtype=float)
    stat = _ks_distance(f)
    crit = critical_one_sample(n)
    return KSReport(stat, n, None, crit, stat < crit)


def _ks_distance(f: np.ndarray) -> float:
    """Largest of (i+1)/n - f[i] and f[i] - ((i+1)/n - 1/n) over i, for f
    the target d.f. at the sorted sample; NaN if any f[i] is NaN.

    Runs over _KS_BLOCK points at a time, with one steps array per block
    and one scratch buffer for all blocks: both stay in cache, where
    whole-sample differences take n-arrays that the heap hands back to
    the system after every call and faults in again.
    """
    n = f.size
    scratch = np.empty(min(n, _KS_BLOCK))
    maxima = []
    for lo in range(0, n, _KS_BLOCK):
        steps = np.arange(lo + 1.0, min(lo + _KS_BLOCK, n) + 1.0)
        steps /= n
        block = f[lo : lo + steps.size]
        maxima.append(np.max(np.subtract(steps, block, out=scratch[: steps.size])))
        steps -= 1.0 / n
        maxima.append(np.max(np.subtract(block, steps, out=steps)))
    return float(np.max(maxima))


def ks_two_sample(a, b) -> KSReport:
    """Sup distance between two empirical d.f.s over the pooled points;
    NaN, so the test fails, if either sample holds a NaN."""
    a, b = _sorted_sample(a), _sorted_sample(b)
    n, m = a.size, b.size
    if n < 1 or m < 1:
        raise ValueError("ks_two_sample needs nonempty samples")
    pooled = np.concatenate([a, b])
    fa = np.searchsorted(a, pooled, side="right") / n
    fb = np.searchsorted(b, pooled, side="right") / m
    # the sort puts NaN last, where searchsorted counts it as a point
    stat = float("nan") if np.isnan(a[-1]) or np.isnan(b[-1]) else float(np.max(np.abs(fa - fb)))
    crit = critical_two_sample(n, m)
    return KSReport(stat, n, m, crit, stat < crit)


def sup_norm_grid(f, g, grid) -> float:
    """max |f - g| over a grid; f and g are vectorized callables."""
    grid = np.asarray(grid, dtype=float)
    return float(np.max(np.abs(np.asarray(f(grid)) - np.asarray(g(grid)))))


def quantile_grid(law: MaxLaw, count: int = 1000) -> np.ndarray:
    """Grid of law quantiles at count equally spaced u in [0.001, 0.999]."""
    count = positive_integer(count, "count")
    if count < 2:
        raise ValueError(f"count must be >= 2, got {count}")
    return law.quantile(np.linspace(0.001, 0.999, count))


def cdf_validity_gap(cdf, grid, bottom: float, top: float) -> float:
    """Largest violation of the d.f. axioms on a grid.

    Checks range [0, 1], monotonicity along the (sorted) grid, and the
    limit values at the two probe points; returns the worst violation,
    0.0 for a clean distribution function, NaN if any value is NaN.
    """
    fn = cdf.cdf if isinstance(cdf, MaxLaw) else cdf
    grid = np.sort(np.asarray(grid, dtype=float))
    vals = np.asarray(fn(grid), dtype=float)
    ends = np.array([fn(bottom), fn(top)], dtype=float)
    if np.isnan(vals).any() or np.isnan(ends).any():
        return float("nan")
    gaps = [
        float(max(0.0, np.max(-vals))),
        float(max(0.0, np.max(vals - 1.0))),
        float(max(0.0, np.max(vals[:-1] - vals[1:]))) if vals.size > 1 else 0.0,
        abs(float(ends[0])),
        abs(1.0 - float(ends[1])),
    ]
    return max(gaps)
