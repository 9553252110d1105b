"""Reproducible random generators keyed by (seed, stream)."""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from ._checks import positive_integer

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


def uniform_open(rng: np.random.Generator, size: int) -> np.ndarray:
    """size uniforms in (0, 1), a 1-d array, from exactly size draws of
    rng.random(), for a whole number size >= 1.  numpy's draws are
    j * 2**-53 on [0, 1), and the quantile transforms downstream are
    undefined at 0, so an exact 0 is read as 2**-54, the midpoint of its
    cell [0, 2**-53)."""
    return _open(rng.random(positive_integer(size, "size")))


def _open(u: np.ndarray) -> np.ndarray:
    # uniform_open's rule, in place: every draw but 0 is at least 2**-53 and keeps its bits
    return np.maximum(u, 2**-54, out=u)
