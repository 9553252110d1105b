"""Reproducible random generators keyed by (seed, stream)."""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

__all__ = ["RandomSource", "uniform_open"]


@dataclass(frozen=True)
class RandomSource:
    """Address of a reproducible random stream.

    The same (seed, stream, branch) triple always yields a generator
    producing the same draw sequence; distinct stream indices (and
    distinct substream branches under one stream) give statistically
    independent generators for the same seed.
    """

    seed: int
    stream: int = 0
    branch: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", _index(self.seed))
        object.__setattr__(self, "stream", _index(self.stream))
        object.__setattr__(self, "branch", tuple(map(_index, self.branch)))

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(self.seed, spawn_key=(self.stream, *self.branch))
        )

    def substream(self, index: int) -> "RandomSource":
        """Child source; children of distinct indices never collide across sources."""
        return RandomSource(self.seed, self.stream, self.branch + (index,))


def _index(value) -> int:
    """value as a nonnegative int; numpy integers and bools pass, while
    1.5, 2.0 and "3" fail like -1 does."""
    try:
        index = operator.index(value)
    except TypeError:
        index = -1
    if index < 0:
        raise ValueError("seed, stream, and branch indices must be nonnegative integers")
    return index


def uniform_open(rng: np.random.Generator, size: int | None = None):
    """Uniform draws restricted to the open interval (0, 1).

    numpy's random() covers [0, 1); exact zeros are redrawn because the
    quantile transforms used downstream are undefined at u = 0.
    """
    if size is None:
        u = rng.random()
        while u == 0.0:
            u = rng.random()
        return u
    u = rng.random(size)
    zero = u == 0.0
    while np.any(zero):
        u[zero] = rng.random(int(zero.sum()))
        zero = u == 0.0
    return u
