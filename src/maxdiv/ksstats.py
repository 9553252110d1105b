"""Empirical-d.f. machinery: KS statistics, critical bands, grids."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import sample_size
from .exponents import _as_array, _unwrap
from .laws import MaxLaw

__all__ = [
    "KS_COEFFICIENTS",
    "KSReport",
    "ecdf",
    "ks_one_sample",
    "ks_two_sample",
    "critical_one_sample",
    "critical_two_sample",
    "sup_norm_grid",
    "quantile_grid",
    "cdf_validity_gap",
]

# classical asymptotic coefficients c(alpha): critical value is
# c/sqrt(n) one-sample and c*sqrt((n+m)/(n*m)) two-sample
KS_COEFFICIENTS = {0.10: 1.224, 0.05: 1.358, 0.01: 1.628}


def _coefficient(alpha: float) -> float:
    try:
        return KS_COEFFICIENTS[alpha]
    except KeyError:
        raise ValueError(f"no critical coefficient for alpha={alpha}; choose from {sorted(KS_COEFFICIENTS)}")


@dataclass(frozen=True)
class KSReport:
    statistic: float
    n: int
    m: int | None
    critical_value: float
    alpha_level: float
    passed: bool


def ecdf(samples, x):
    """Fraction of samples <= x (right-continuous empirical d.f.)."""
    samples = np.sort(np.asarray(samples, dtype=float))
    if samples.size == 0:
        raise ValueError("ecdf needs at least one sample")
    xs, scalar = _as_array(x)
    out = np.searchsorted(samples, xs, side="right") / samples.size
    return _unwrap(out, scalar)


def critical_one_sample(n: int, alpha: float = 0.01) -> float:
    sample_size(n, "n")
    return float(_coefficient(alpha) / np.sqrt(n))


def critical_two_sample(n: int, m: int, alpha: float = 0.01) -> float:
    if n < 1 or m < 1:
        raise ValueError(f"both sample sizes must be >= 1, got {n}, {m}")
    return float(_coefficient(alpha) * np.sqrt((n + m) / (n * m)))


def ks_one_sample(samples, cdf, alpha: float = 0.01) -> KSReport:
    """Sup distance between the empirical d.f. and a target d.f.

    cdf may be a MaxLaw or any vectorized d.f. callable.  The statistic
    is evaluated on both sides of each jump of the empirical d.f.
    """
    fn = cdf.cdf if isinstance(cdf, MaxLaw) else cdf
    xs = np.sort(np.asarray(samples, dtype=float))
    n = xs.size
    if n < 1:
        raise ValueError("ks_one_sample needs at least one sample")
    f = np.asarray(fn(xs), dtype=float)
    steps = np.arange(1, n + 1) / n
    stat = float(max(np.max(steps - f), np.max(f - (steps - 1.0 / n))))
    crit = critical_one_sample(n, alpha)
    return KSReport(stat, n, None, crit, alpha, stat < crit)


def ks_two_sample(a, b, alpha: float = 0.01) -> KSReport:
    """Sup distance between two empirical d.f.s over the pooled points."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    n, m = a.size, b.size
    if n < 1 or m < 1:
        raise ValueError("ks_two_sample needs nonempty samples")
    pooled = np.concatenate([a, b])
    fa = np.searchsorted(a, pooled, side="right") / n
    fb = np.searchsorted(b, pooled, side="right") / m
    stat = float(np.max(np.abs(fa - fb)))
    crit = critical_two_sample(n, m, alpha)
    return KSReport(stat, n, m, crit, alpha, stat < crit)


def sup_norm_grid(f, g, grid) -> float:
    """max |f - g| over a grid; f and g are vectorized callables."""
    grid = np.asarray(grid, dtype=float)
    return float(np.max(np.abs(np.asarray(f(grid)) - np.asarray(g(grid)))))


def quantile_grid(law: MaxLaw, lo: float = 0.001, hi: float = 0.999, count: int = 1000) -> np.ndarray:
    """Grid of law quantiles at count equally spaced u in [lo, hi]."""
    if not (0.0 < lo < hi < 1.0):
        raise ValueError(f"need 0 < lo < hi < 1, got {lo}, {hi}")
    if count < 2:
        raise ValueError(f"count must be >= 2, got {count}")
    return law.quantile(np.linspace(lo, hi, count))


def cdf_validity_gap(cdf, grid, bottom: float, top: float) -> float:
    """Largest violation of the d.f. axioms on a grid.

    Checks range [0, 1], monotonicity along the (sorted) grid, and the
    limit values at the two probe points; returns the worst violation,
    0.0 for a clean distribution function.
    """
    fn = cdf.cdf if isinstance(cdf, MaxLaw) else cdf
    grid = np.sort(np.asarray(grid, dtype=float))
    vals = np.asarray(fn(grid), dtype=float)
    gaps = [
        float(max(0.0, np.max(-vals))),
        float(max(0.0, np.max(vals - 1.0))),
        float(max(0.0, np.max(vals[:-1] - vals[1:]))) if vals.size > 1 else 0.0,
        abs(float(fn(bottom))),
        abs(1.0 - float(fn(top))),
    ]
    return max(gaps)
