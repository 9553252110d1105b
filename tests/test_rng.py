"""Seeded source handling: reproducibility, substreams, open-interval uniforms."""

import numpy as np
import pytest

from maxdiv import RandomSource, uniform_open


def test_same_source_reproduces_output():
    a = RandomSource(5, 2).generator().random(32)
    b = RandomSource(5, 2).generator().random(32)
    np.testing.assert_array_equal(a, b)


def test_distinct_seeds_and_streams_differ():
    base = RandomSource(5, 2).generator().random(32)
    assert not np.array_equal(base, RandomSource(6, 2).generator().random(32))
    assert not np.array_equal(base, RandomSource(5, 3).generator().random(32))


def test_substreams_are_deterministic_and_distinct():
    source = RandomSource(9, 4)
    a = source.substream(0).generator().random(16)
    b = source.substream(1).generator().random(16)
    again = source.substream(0).generator().random(16)
    np.testing.assert_array_equal(a, again)
    assert not np.array_equal(a, b)


def test_substreams_nest_without_colliding():
    # child i of stream s must differ from stream s+i itself: the branch
    # is a separate axis, not an offset on the stream number
    source = RandomSource(9, 4)
    child = source.substream(1).generator().random(16)
    sibling_stream = RandomSource(9, 5).generator().random(16)
    assert not np.array_equal(child, sibling_stream)
    grandchild = source.substream(1).substream(0).generator().random(16)
    assert not np.array_equal(grandchild, child)


def test_source_validation():
    for bad in (-1, -7):
        with pytest.raises(ValueError):
            RandomSource(bad, 0)
        with pytest.raises(ValueError):
            RandomSource(0, bad)
        with pytest.raises(ValueError):
            RandomSource(0, 0).substream(bad)


def test_source_rejects_an_index_that_is_not_an_integer():
    for bad in (1.5, 2.0, -0.0, "3"):
        with pytest.raises(ValueError):
            RandomSource(bad)
        with pytest.raises(ValueError):
            RandomSource(0, bad)
    with pytest.raises(ValueError):
        RandomSource(0).substream(1.0)
    # numpy integers and bools are integers: they address the same stream as an int
    same = RandomSource(np.int64(5), True).substream(np.uint8(2))
    assert same == RandomSource(5, 1).substream(2)
    np.testing.assert_array_equal(same.generator().random(8), RandomSource(5, 1, (2,)).generator().random(8))


def test_uniform_open_stays_inside_the_open_interval():
    rng = RandomSource(0, 0).generator()
    draws = uniform_open(rng, 10_000)
    assert draws.shape == (10_000,)
    assert np.all((draws > 0.0) & (draws < 1.0))


def test_uniform_open_scalar_form():
    rng = RandomSource(0, 0).generator()
    u = uniform_open(rng)
    assert isinstance(u, float)
    assert 0.0 < u < 1.0
