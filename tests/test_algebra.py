"""Geometric-max composition operators and their closed-form identities."""

import time

import numpy as np
import pytest

from maxdiv import (
    RandomSource,
    base_law,
    expr_from_law,
    frechet,
    g_mid,
    gamma_mid,
    geo_max_cdf,
    geo_max_sample,
    ggamma_mid,
    gumbel,
    iterate_transform,
    ks_one_sample,
    ks_two_sample,
    limit_geo_gamma_cdf,
    n_max_cdf,
    quantile_grid,
    scale_exponent,
    semi_stable_scale,
    sup_norm_grid,
    weibull,
)
from maxdiv.algebra import CdfExpr

E1 = frechet(1.0)
BETAS = (0.5, 1.0, 2.0)
PS = (0.2, 0.5, 0.9)

# closed-form constants, frozen from a 50-digit computation
INV_1_PLUS_2LN2 = 0.41905978419640521  # 1/(1 + 2 ln 2)
# F_100(1) = 1/(1 + 100 (2^(1/100) - 1)) for the unit-shape scheme
GEO_GAMMA_N100_AT_1 = 0.58977738655180924
# (1 + 0.01 ln 2)^(-100), the powered scheme at the same point
POWERED_N100_AT_1 = 0.50119704144455027


def test_geo_max_rejects_p_outside_unit_interval():
    law = g_mid(E1)
    rng = RandomSource(0, 0).generator()
    assert geo_max_cdf(law, 1.0, 1.0) == law.cdf(1.0)
    for bad in (0.0, -0.5, 1.5, np.nan):
        with pytest.raises(ValueError):
            geo_max_cdf(law, bad, 1.0)
        with pytest.raises(ValueError):
            geo_max_sample(law, bad, rng, 10)


def test_geo_max_of_ggamma_divides_the_shape_by_p():
    for beta in BETAS:
        for p in PS:
            start = ggamma_mid(beta, E1)
            target = ggamma_mid(beta / p, E1)
            grid = quantile_grid(target)
            diff = np.abs(geo_max_cdf(start, p, grid) - target.cdf(grid))
            assert float(np.max(diff)) < 1e-12, (beta, p)


def test_geo_max_spot_value():
    observed = geo_max_cdf(ggamma_mid(1.0, E1), 0.5, 1.0)
    assert observed == pytest.approx(INV_1_PLUS_2LN2, rel=0, abs=1e-15)


def test_geo_max_accepts_plain_callables():
    law = g_mid(E1)
    x = np.array([0.5, 1.0, 4.0])
    via_law = geo_max_cdf(law, 0.3, x)
    via_callable = geo_max_cdf(law.cdf, 0.3, x)
    np.testing.assert_array_equal(via_law, via_callable)


def test_geo_max_with_p_one_is_identity():
    law = ggamma_mid(2.0, E1)
    grid = quantile_grid(law)
    np.testing.assert_array_equal(geo_max_cdf(law, 1.0, grid), law.cdf(grid))


def test_semi_stable_scale_factors():
    assert semi_stable_scale(0.25, frechet(2.0)) == 0.5
    assert semi_stable_scale(0.25, frechet(1.0)) == 0.25
    assert semi_stable_scale(0.25, weibull(2.0)) == 2.0
    with pytest.raises(ValueError):
        semi_stable_scale(0.5, gumbel())


def test_geo_max_of_geometric_stable_law_is_a_rescaling():
    for make in (frechet, weibull):
        for alpha in (1.0, 2.0):
            law = g_mid(make(alpha))
            grid = quantile_grid(law)
            for p in PS:
                b = semi_stable_scale(p, law.exponent)
                diff = np.abs(geo_max_cdf(law, p, grid) - law.cdf(b * grid))
                assert float(np.max(diff)) < 1e-12, (make.__name__, alpha, p)


def test_scale_exponent_matches_geometric_composition():
    h = expr_from_law(g_mid(E1))
    grid = quantile_grid(g_mid(E1))
    for p in PS:
        scaled = scale_exponent(h, 1.0 / p)
        diff = np.abs(scaled.cdf(grid) - geo_max_cdf(h, p, grid))
        assert float(np.max(diff)) < 1e-12


def test_scale_exponent_composes_multiplicatively():
    h = expr_from_law(g_mid(frechet(2.0)))
    grid = quantile_grid(g_mid(frechet(2.0)))
    once = scale_exponent(scale_exponent(h, 2.0), 3.0)
    direct = scale_exponent(h, 6.0)
    np.testing.assert_allclose(once.cdf(grid), direct.cdf(grid), rtol=0, atol=1e-15)
    assert once.gmid_scale == direct.gmid_scale == 6.0


def test_scale_exponent_requires_rational_structure():
    with pytest.raises(ValueError):
        scale_exponent(expr_from_law(base_law(E1)), 2.0)
    h = expr_from_law(g_mid(E1))
    for bad in (0.0, -1.0, np.inf):
        with pytest.raises(ValueError):
            scale_exponent(h, bad)


def test_iterate_transform_walks_the_kind_chain():
    once = iterate_transform(expr_from_law(base_law(E1)))
    twice = iterate_transform(once)
    grid_1 = quantile_grid(g_mid(E1))
    grid_2 = quantile_grid(ggamma_mid(1.0, E1))
    assert sup_norm_grid(once.cdf, g_mid(E1).cdf, grid_1) <= 1e-15
    assert sup_norm_grid(twice.cdf, ggamma_mid(1.0, E1).cdf, grid_2) <= 1e-15


def test_iterate_transform_preserves_df_range_and_monotonicity():
    expr = expr_from_law(gamma_mid(2.0, E1))
    grid = quantile_grid(gamma_mid(2.0, E1))
    for _ in range(4):
        expr = iterate_transform(expr)
        values = expr.cdf(grid)
        assert np.all((values >= 0.0) & (values <= 1.0))
        assert np.all(np.diff(values) >= 0.0)


def test_n_max_cdf_is_the_nth_power():
    law = g_mid(E1)
    grid = quantile_grid(law)
    np.testing.assert_allclose(n_max_cdf(law, 3, grid), law.cdf(grid) ** 3, rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(n_max_cdf(law, 1, grid), law.cdf(grid), rtol=0, atol=1e-15)
    assert n_max_cdf(law, 3, 1.0) == pytest.approx(0.125, rel=0, abs=1e-16)


def test_n_max_cdf_accepts_expressions_and_validates_n():
    expr = expr_from_law(g_mid(E1))
    assert n_max_cdf(expr, 2, 1.0) == pytest.approx(0.25, rel=0, abs=1e-15)
    assert n_max_cdf(expr, 2.0, 1.0) == n_max_cdf(expr, 2, 1.0)
    for bad in (0, -1, 2.5, np.inf, np.nan):
        with pytest.raises(ValueError):
            n_max_cdf(expr, bad, 1.0)


def test_limit_scheme_spot_values():
    assert limit_geo_gamma_cdf(1.0, 100, E1, 1.0) == pytest.approx(
        GEO_GAMMA_N100_AT_1, rel=0, abs=1e-15
    )
    powered = n_max_cdf(ggamma_mid(1.0 / 100, E1), 100, 1.0)
    assert powered == pytest.approx(POWERED_N100_AT_1, rel=0, abs=1e-14)


def test_limit_scheme_converges_to_log_compounded_law():
    for beta in BETAS:
        law = ggamma_mid(beta, E1)
        grid = quantile_grid(law)
        sups = [
            sup_norm_grid(lambda x, n=n: limit_geo_gamma_cdf(beta, n, E1, x), law.cdf, grid)
            for n in (10, 100, 1000, 10000)
        ]
        assert all(a > b for a, b in zip(sups, sups[1:]))
        assert sups[-1] < 1e-3


def test_powered_scheme_converges_to_gamma_shaped_law():
    for beta in BETAS:
        law = gamma_mid(beta, E1)
        grid = quantile_grid(law)
        sups = [
            sup_norm_grid(lambda x, n=n: n_max_cdf(ggamma_mid(beta / n, E1), n, x), law.cdf, grid)
            for n in (10, 100, 1000, 10000)
        ]
        assert all(a > b for a, b in zip(sups, sups[1:]))
        assert sups[-1] < 1e-3


def test_limit_scheme_members_are_dfs_and_validated():
    grid = quantile_grid(ggamma_mid(2.0, E1))
    values = limit_geo_gamma_cdf(2.0, 7, E1, grid)
    assert np.all((values >= 0.0) & (values <= 1.0))
    assert np.all(np.diff(values) >= 0.0)
    with pytest.raises(ValueError):
        limit_geo_gamma_cdf(0.0, 10, E1, 1.0)
    assert limit_geo_gamma_cdf(2.0, 7.0, E1, 1.0) == limit_geo_gamma_cdf(2.0, 7, E1, 1.0)
    for bad in (0, 2.5, np.inf, np.nan):
        with pytest.raises(ValueError):
            limit_geo_gamma_cdf(1.0, bad, E1, 1.0)


def test_limit_scheme_is_zero_where_its_power_term_overflows():
    # (1+psi)**(beta/n) - 1 is beyond float range at beta = 1e308; F_n is
    # then its IEEE limit 0, without an overflow warning
    x = np.array([0.5, 1.0, 2.0])
    assert np.array_equal(limit_geo_gamma_cdf(1e308, 3, E1, x), np.zeros(3))
    assert limit_geo_gamma_cdf(1e308, 3, E1, 1.0) == 0.0


def test_geo_max_sample_follows_the_composed_df():
    # empirical draws vs the rational-form d.f. at the 1% band, n = 20000
    law = g_mid(E1)
    p = 0.5
    draws = geo_max_sample(law, p, RandomSource(2, 9).generator(), 20_000)
    report = ks_one_sample(draws, lambda x: geo_max_cdf(law, p, x))
    assert report.passed, report.statistic


def test_geo_max_sample_of_ggamma_lands_on_the_divided_shape():
    draws = geo_max_sample(ggamma_mid(1.0, E1), 0.5, RandomSource(4, 9).generator(), 20_000)
    report = ks_one_sample(draws, ggamma_mid(2.0, E1))
    assert report.passed, report.statistic


def _geo_max_by_counts(law, p, rng, n):
    # the former sampler, kept as an oracle: draw N ~ geometric(p) per
    # output, then take the max of N inner draws (about n/p draws in all)
    counts = rng.geometric(p, n)
    draws = law.sample_inverse(rng, int(counts.sum()))
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    return np.maximum.reduceat(draws, starts)


@pytest.mark.parametrize("p", [0.5, 0.01])
def test_geo_max_sample_matches_the_counting_oracle(p):
    law = ggamma_mid(1.5, gumbel())
    n = 20_000
    draws = geo_max_sample(law, p, RandomSource(6, 9).substream(0).generator(), n)
    oracle = _geo_max_by_counts(law, p, RandomSource(6, 9).substream(1).generator(), n)
    report = ks_two_sample(draws, oracle)
    assert report.passed, (p, report.statistic, report.critical_value)


def test_geo_max_sample_with_p_one_is_a_plain_draw():
    law = ggamma_mid(2.0, weibull(1.5))
    draws = geo_max_sample(law, 1.0, RandomSource(7, 9).generator(), 1000)
    plain = law.sample_inverse(RandomSource(7, 9).generator(), 1000)
    assert draws.tobytes() == plain.tobytes()


def test_geo_max_sample_cost_does_not_grow_as_p_shrinks():
    # the counting route would need about 10^10 inner draws here
    start = time.perf_counter()
    draws = geo_max_sample(ggamma_mid(1.0, E1), 1e-9, RandomSource(8, 9).generator(), 10)
    assert time.perf_counter() - start < 1.0
    assert draws.shape == (10,)
    assert np.all(draws > 0.0)


def test_geo_max_sample_scalar_and_validation():
    rng = RandomSource(0, 9).generator()
    x = geo_max_sample(g_mid(E1), 0.5, rng)
    assert isinstance(x, float)
    with pytest.raises(ValueError):
        geo_max_sample(g_mid(E1), 0.5, rng, 0)


def test_expr_from_law_keeps_rational_structure_only_for_gmid():
    assert expr_from_law(g_mid(E1)).gmid_scale == 1.0
    assert expr_from_law(base_law(E1)).gmid_scale is None
    assert expr_from_law(gamma_mid(2.0, E1)).gmid_scale is None


def test_cdf_expr_call_and_neg_log_fallback():
    expr = CdfExpr(tag="unit", neg_log=lambda x: np.asarray(x, dtype=float) * 0.0 + 1.0)
    assert expr(123.0) == pytest.approx(np.exp(-1.0), rel=0, abs=0)
