"""Extremal processes: marginals, paths, subordination, compound identities."""

import itertools
import time

import numpy as np
import pytest

from maxdiv import (
    Exponent,
    ExtremalSpec,
    RandomSource,
    SubKind,
    SubordinatorSpec,
    base_law,
    compound_marginal_cdf,
    compound_simulate,
    ep_marginal_cdf,
    ep_simulate_ensemble,
    ep_simulate_path,
    frechet,
    g_mid,
    gamma_mid,
    ggamma_mid,
    gumbel,
    ks_one_sample,
    ks_two_sample,
    n_max_cdf,
    quantile_grid,
    subordinator_marginal,
    weibull,
)
from maxdiv.extremal import PathGrid
from maxdiv.laws import _quantile_w

from oracles import reference_ep_ensemble, reference_sample_max

E1 = frechet(1.0)

# closed-form constants, frozen from a 50-digit computation
INV_1_PLUS_LN2 = 0.59061610914964125  # 1/(1 + ln 2)
# 3-sigma band on the mean of a gamma(3, 1) sample of size 10^4
BAND_MEAN_GAMMA_3_N1E4 = 0.017  # pinned working band; exact 3 sigma is 0.01643...

MAKERS = {
    "base": lambda beta, e: base_law(e),
    "g-mid": lambda beta, e: g_mid(e),
    "gamma-mid": gamma_mid,
    "ggamma-mid": ggamma_mid,
}
LAW_CASES = list(itertools.product(MAKERS, ("frechet", "weibull", "gumbel"), (0.5, 2.0)))


def _spec(kind, family, beta):
    return ExtremalSpec(MAKERS[kind](beta, Exponent(family, 1.5)))


def test_marginal_cdf_is_the_t_power():
    law = gamma_mid(2.0, E1)
    spec = ExtremalSpec(law)
    grid = quantile_grid(law)
    for t in (0.5, 1.0, 3.0):
        np.testing.assert_allclose(
            ep_marginal_cdf(spec, t, grid), law.cdf(grid) ** t, rtol=1e-13, atol=0.0
        )


# the quantile of the marginal F**t at u is _quantile_w(F, -log u, t), with t
# an array of one per u: the transform every increment and compound draw goes through


def test_marginal_quantile_spot_values():
    law = base_law(E1)
    # F(x)^t = u  with  F = exp(-1/x):  x = t / (-log u)
    assert _quantile_w(law, -np.log(np.exp([-1.0])), np.array([0.5])) == pytest.approx(0.5, rel=1e-13)
    assert _quantile_w(law, -np.log(np.exp([-2.0])), np.array([2.0])) == pytest.approx(1.0, rel=1e-13)


def test_marginal_quantile_inverts_marginal_cdf():
    spec = ExtremalSpec(g_mid(E1))
    u = np.linspace(0.01, 0.99, 99)
    for t in (0.5, 2.0):
        x = _quantile_w(spec.base, -np.log(u), np.full(u.size, t))
        np.testing.assert_allclose(ep_marginal_cdf(spec, t, x), u, rtol=0, atol=1e-10)


def test_marginal_quantile_collapse_below_the_float_floor():
    # at t < 1 the marginal F^t inflates the deep lower tail: quantiles
    # below the smallest representable point park on it, and the d.f.
    # value there reports the collapsed mass honestly
    spec = ExtremalSpec(ggamma_mid(0.5, E1))
    (x,) = _quantile_w(spec.base, -np.log([0.01]), np.array([0.5]))
    assert x > 0.0
    assert ep_marginal_cdf(spec, 0.5, x) > 0.01  # collapsed mass sits above u


def test_time_validation():
    spec = ExtremalSpec(base_law(E1))
    rng = RandomSource(0, 20).generator()
    for bad in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            ep_marginal_cdf(spec, bad, 1.0)
        with pytest.raises(ValueError):
            ep_simulate_ensemble(spec, [bad], rng, 4)


def test_paths_are_nondecreasing_and_deterministic():
    spec = ExtremalSpec(g_mid(E1))
    times = np.array([0.5, 1.0, 1.5, 2.0, 3.0])
    path = ep_simulate_path(spec, times, RandomSource(5, 21).generator())
    again = ep_simulate_path(spec, times, RandomSource(5, 21).generator())
    assert isinstance(path, PathGrid)
    np.testing.assert_array_equal(path.times, times)
    assert np.all(np.diff(path.values) >= 0.0)
    np.testing.assert_array_equal(path.values, again.values)


def test_path_grid_validation():
    spec = ExtremalSpec(g_mid(E1))
    rng = RandomSource(5, 21).generator()
    with pytest.raises(ValueError):
        ep_simulate_path(spec, [0.0, 1.0], rng)  # times must be positive
    with pytest.raises(ValueError):
        ep_simulate_path(spec, [2.0, 1.0], rng)  # strictly increasing
    with pytest.raises(ValueError):
        ep_simulate_path(spec, [1.0, np.inf], rng)  # finite
    with pytest.raises(ValueError):
        ep_simulate_path(spec, [[1.0, 2.0]], rng)  # one-dimensional


def test_ensemble_marginal_matches_power_law():
    # the ensemble at grid time t follows F^t: one-sample check, n = 20000
    spec = ExtremalSpec(g_mid(E1))
    times = np.array([0.5, 2.0])
    ensemble = ep_simulate_ensemble(spec, times, RandomSource(6, 22).generator(), 20_000)
    assert ensemble.shape == (20_000, 2)
    for j, t in enumerate(times):
        report = ks_one_sample(ensemble[:, j], lambda x, t=t: ep_marginal_cdf(spec, t, x))
        assert report.passed, (t, report.statistic)


def test_one_point_ensemble_matches_direct_increment_law():
    # Y(t) for a single time equals the max-increment over [0, t]
    spec = ExtremalSpec(g_mid(E1))
    a = ep_simulate_ensemble(spec, [3.0], RandomSource(8, 24).generator(), 20_000)[:, 0]
    b = reference_sample_max(spec.base, RandomSource(9, 24).generator(), 20_000, 3.0)
    report = ks_two_sample(a, b)
    assert report.passed, report.statistic


def test_gamma_subordinator_mean_grows_linearly():
    rng = RandomSource(10, 25).generator()
    draws = subordinator_marginal(SubordinatorSpec(SubKind.GAMMA), 3.0, rng, 10_000)
    assert abs(float(draws.mean()) - 3.0) < BAND_MEAN_GAMMA_3_N1E4
    assert np.all(draws >= 0.0)


def test_ggamma_subordinator_exists_at_unit_time_only():
    sub = SubordinatorSpec(SubKind.GGAMMA_UNIT, 2.0)
    rng = RandomSource(12, 27).generator()
    draws = subordinator_marginal(sub, 1.0, rng, 100)
    assert draws.shape == (100,)
    with pytest.raises(ValueError):
        subordinator_marginal(sub, 2.0, rng, 100)


def test_compound_marginal_closed_forms():
    # gamma time change of the base law gives the gamma-shaped law;
    # the unit-time ggamma change gives the log-compounded law
    base = ExtremalSpec(base_law(E1))
    x = quantile_grid(gamma_mid(2.0, E1))
    np.testing.assert_allclose(
        compound_marginal_cdf(base, SubordinatorSpec(SubKind.GAMMA), 2.0, x),
        gamma_mid(2.0, E1).cdf(x),
        rtol=0,
        atol=1e-15,
    )
    np.testing.assert_allclose(
        compound_marginal_cdf(base, SubordinatorSpec(SubKind.GGAMMA_UNIT, 0.5), 1.0, x),
        ggamma_mid(0.5, E1).cdf(x),
        rtol=0,
        atol=1e-15,
    )
    assert compound_marginal_cdf(
        base, SubordinatorSpec(SubKind.GGAMMA_UNIT, 1.0), 1.0, 1.0
    ) == pytest.approx(INV_1_PLUS_LN2, rel=0, abs=1e-15)
    with pytest.raises(ValueError):
        compound_marginal_cdf(base, SubordinatorSpec(SubKind.GGAMMA_UNIT, 1.0), 2.0, 1.0)


def test_compound_simulation_follows_the_compound_marginal():
    # both the gamma and the unit-time ggamma routes, 1% band, n = 20000
    spec = ExtremalSpec(base_law(E1))
    gamma_draws = compound_simulate(
        spec, SubordinatorSpec(SubKind.GAMMA), 1.5, RandomSource(13, 29).generator(), 20_000
    )
    report = ks_one_sample(
        gamma_draws,
        lambda x: compound_marginal_cdf(spec, SubordinatorSpec(SubKind.GAMMA), 1.5, x),
    )
    assert report.passed, report.statistic

    ggamma_draws = compound_simulate(
        spec,
        SubordinatorSpec(SubKind.GGAMMA_UNIT, 0.5),
        1.0,
        RandomSource(14, 30).generator(),
        20_000,
    )
    report = ks_one_sample(ggamma_draws, ggamma_mid(0.5, E1))
    assert report.passed, report.statistic


def test_compound_draws_stay_inside_support():
    spec = ExtremalSpec(base_law(E1))
    draws = compound_simulate(
        spec, SubordinatorSpec(SubKind.GGAMMA_UNIT, 0.5), 1.0, RandomSource(15, 31).generator(), 50_000
    )
    assert np.all(draws > 0.0)
    assert np.all(np.isfinite(draws))


def test_marginal_cdf_tends_to_one_as_time_shrinks():
    spec = ExtremalSpec(g_mid(E1))
    x = 1.0
    values = [ep_marginal_cdf(spec, t, x) for t in (1.0, 0.1, 0.01, 1e-6)]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert values[-1] > 0.999999


def _same_bits(value, target, grid):
    """value and target agree bit for bit on grid and at single points of it."""
    assert value(grid).tobytes() == target(grid).tobytes()
    for x in grid[::50]:
        one, other = value(float(x)), target(float(x))
        assert type(one) is type(other) is float
        assert np.float64(one).tobytes() == np.float64(other).tobytes(), x


@pytest.mark.parametrize("exponent", [frechet(1.0), weibull(2.0), gumbel()], ids=["frechet", "weibull", "gumbel"])
def test_compound_marginals_are_the_mixing_kinds_dfs_bit_for_bit(exponent):
    # the base process at a gamma(t) time is gamma-mid at shape t, and at
    # the unit-time ggamma(beta) time ggamma-mid at shape beta
    spec = ExtremalSpec(base_law(exponent))
    for beta in (0.5, 2.0):
        law = ggamma_mid(beta, exponent)
        sub = SubordinatorSpec(SubKind.GGAMMA_UNIT, beta)
        _same_bits(lambda x: compound_marginal_cdf(spec, sub, 1.0, x), law.cdf, quantile_grid(law))
    for t in (0.5, 1.0, 2.5):
        law = gamma_mid(t, exponent)
        sub = SubordinatorSpec(SubKind.GAMMA)
        _same_bits(lambda x: compound_marginal_cdf(spec, sub, t, x), law.cdf, quantile_grid(law))


@pytest.mark.parametrize("exponent", [frechet(1.0), weibull(2.0), gumbel()], ids=["frechet", "weibull", "gumbel"])
def test_extremal_marginal_at_n_is_the_n_max_df_bit_for_bit(exponent):
    for base in (base_law(exponent), g_mid(exponent), ggamma_mid(0.5, exponent)):
        spec = ExtremalSpec(base)
        for n in (1, 3, 50):
            _same_bits(lambda x: ep_marginal_cdf(spec, n, x), lambda x: n_max_cdf(base, n, x), quantile_grid(base))


# Grids whose row blocks fall on both sides of the samplers' blocks; an
# exact 0.0 uniform at a seam is tested in tests/test_bytes.py.
BLOCK_GRIDS = {
    "one-point": ([1.7], 4),
    "one-grid-point-per-block": (np.linspace(0.1, 3.0, 10), 2**16),
    "several-blocks-and-a-partial-one": (np.linspace(0.5, 3.0, 1000), 300),
    "extreme-steps": ([1e-300, 1.0, 1e300], 3),
    # one grid row per block, whose draws span two of the samplers' blocks
    "more-paths-than-one-block": ([0.5, 1.0, 2.0], 2**16 + 3),
}


def _assert_same_array(got, want):
    assert got.shape == want.shape
    assert got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind,family,beta", LAW_CASES)
def test_ensemble_is_byte_identical_to_the_step_loop(kind, family, beta):
    spec = _spec(kind, family, beta)
    for i, (times, n) in enumerate(BLOCK_GRIDS.values()):
        got = ep_simulate_ensemble(spec, times, RandomSource(40, i).generator(), n)
        _assert_same_array(got, reference_ep_ensemble(spec, times, RandomSource(40, i).generator(), n))


@pytest.mark.parametrize("kind,family,beta", [("ggamma-mid", "frechet", 0.5), ("gamma-mid", "weibull", 2.0), ("g-mid", "gumbel", 2.0)])
def test_long_path_is_byte_identical_to_the_step_loop(kind, family, beta):
    # 20,000 points in one block
    spec = _spec(kind, family, beta)
    times = np.linspace(0.5, 100.0, 20_000)
    got = ep_simulate_ensemble(spec, times, RandomSource(41).generator(), 1)
    _assert_same_array(got, reference_ep_ensemble(spec, times, RandomSource(41).generator(), 1))
    path = ep_simulate_path(spec, times, RandomSource(41).generator())
    assert path.values.tobytes() == got[0].tobytes()


def test_long_path_does_not_step_grid_point_by_grid_point():
    # 10^6 points take well under a second in blocks; a per-point loop
    # takes tens of seconds
    spec = ExtremalSpec(gamma_mid(2.0, gumbel()))
    times = np.linspace(1e-3, 1e3, 1_000_000)
    start = time.perf_counter()
    path = ep_simulate_path(spec, times, RandomSource(42).generator())
    assert time.perf_counter() - start < 2.0
    assert path.values.shape == times.shape
    assert np.all(np.diff(path.values) >= 0.0)


def test_weibull_extreme_steps_keep_negative_zeros_byte_identical():
    # a 1e300 step sends every Weibull increment to -0.0; the running
    # maximum must keep them exactly as np.maximum.accumulate does
    spec = ExtremalSpec(base_law(weibull(0.5)))
    times = [1e-300, 1.0, 1e300, 2e300]
    got = ep_simulate_ensemble(spec, times, RandomSource(43).generator(), 50)
    assert np.all(np.signbit(got[:, 2:]))
    _assert_same_array(got, reference_ep_ensemble(spec, times, RandomSource(43).generator(), 50))
