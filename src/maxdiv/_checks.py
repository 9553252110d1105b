"""Argument checks shared by the layers; each raises ValueError or
returns its argument unchanged."""

from __future__ import annotations

import numpy as np


def positive_finite(value, name: str):
    if not (np.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be a finite positive number, got {value}")
    return value


def sample_size(n, name: str = "sample size"):
    if n < 1:
        raise ValueError(f"{name} must be >= 1, got {n}")
    return n


def positive_integer(n, name: str = "n"):
    """A whole number >= 1; an integral float such as 3.0 passes."""
    if not (1 <= n < np.inf and int(n) == n):
        raise ValueError(f"{name} must be a positive integer, got {n}")
    return n


def probability(p, name: str = "p", *, allow_one: bool = False):
    """p inside (0, 1), or inside (0, 1] when allow_one is set."""
    if allow_one:
        if not (0.0 < p <= 1.0):
            raise ValueError(f"{name} must lie in (0, 1], got {p}")
    elif not (0.0 < p < 1.0):
        raise ValueError(f"{name} must lie strictly inside (0, 1), got {p}")
    return p


def open_unit(u: np.ndarray) -> np.ndarray:
    """Quantile levels: every u finite and strictly inside (0, 1)."""
    if np.any(~np.isfinite(u)) or np.any(u <= 0.0) or np.any(u >= 1.0):
        raise ValueError("quantile requires u strictly inside (0, 1)")
    return u
