"""Empirical-d.f. distances, critical bands, grids, d.f. validity probes."""

import numpy as np
import pytest

from maxdiv import (
    RandomSource,
    cdf_validity_gap,
    critical_one_sample,
    frechet,
    g_mid,
    ggamma_mid,
    ks_one_sample,
    ks_two_sample,
    quantile_grid,
    sup_norm_grid,
)
from maxdiv.ksstats import _KS_BLOCK, critical_two_sample

E1 = frechet(1.0)


def test_critical_band_constants():
    # one-sample: c(alpha)/sqrt(n) with c = 1.224, 1.358, 1.628
    assert critical_one_sample(100, alpha=0.10) == pytest.approx(0.1224, rel=0, abs=1e-15)
    assert critical_one_sample(100, alpha=0.05) == pytest.approx(0.1358, rel=0, abs=1e-15)
    assert critical_one_sample(100, alpha=0.01) == pytest.approx(0.1628, rel=0, abs=1e-15)
    assert critical_one_sample(100_000) == pytest.approx(0.0051481880307541216, rel=0, abs=1e-15)
    # two-sample: c(alpha) * sqrt((n + m)/(n m))
    assert critical_two_sample(100_000, 100_000) == pytest.approx(
        0.0072806373347393153, rel=0, abs=1e-15
    )
    assert critical_two_sample(20_000, 20_000) == pytest.approx(0.01628, rel=0, abs=1e-15)


def test_unknown_alpha_rejected():
    with pytest.raises(ValueError):
        critical_one_sample(100, alpha=0.2)
    with pytest.raises(ValueError):
        critical_two_sample(100, 100, alpha=0.001)


@pytest.mark.parametrize("bad", [0, -3, 2.5, np.inf, np.nan])
def test_critical_values_reject_a_sample_size_that_is_not_a_whole_number(bad):
    # unchecked, inf gives a band of 0.0 (one-sample) or NaN (two-sample), and 2.5 a band no sample has
    with pytest.raises(ValueError):
        critical_one_sample(bad)
    with pytest.raises(ValueError):
        critical_two_sample(bad, 3)
    with pytest.raises(ValueError):
        critical_two_sample(3, bad)


def test_critical_values_accept_an_integral_float():
    assert critical_one_sample(3.0) == critical_one_sample(3)
    assert critical_two_sample(3.0, 4.0) == critical_two_sample(3, 4)


def test_one_sample_single_point_statistic():
    # a single draw at the median gives max(1 - 0.5, 0.5 - 0) = 0.5
    report = ks_one_sample(np.array([1.0]), g_mid(E1))
    assert report.statistic == 0.5
    assert report.n == 1 and report.m is None


def test_one_sample_statistic_uses_both_step_sides():
    # two points at the 0.25 and 0.75 quantiles: the empirical d.f. is
    # 0 below, 0.5 between, 1 above; the distance is exactly 0.25
    law = g_mid(E1)
    samples = law.quantile(np.array([0.25, 0.75]))
    report = ks_one_sample(samples, law)
    assert report.statistic == pytest.approx(0.25, rel=0, abs=1e-12)


def _whole_sample_statistic(samples, cdf):
    """The one-sample statistic with whole-sample step and difference arrays."""
    xs = np.sort(samples)
    f = cdf(xs)
    steps = np.arange(1, xs.size + 1) / xs.size
    return float(max(np.max(steps - f), np.max(f - (steps - 1.0 / xs.size))))


@pytest.mark.parametrize("n", [1, 2, _KS_BLOCK - 1, _KS_BLOCK, _KS_BLOCK + 1, 3 * _KS_BLOCK + 17, 100_000])
def test_one_sample_statistic_equals_the_whole_sample_formula(n):
    law = ggamma_mid(0.5, E1)
    draws = law.sample_inverse(RandomSource(n, 52).generator(), n)
    assert ks_one_sample(draws, law).statistic == _whole_sample_statistic(draws, law.cdf)
    # a NaN in the last block of the d.f. makes the statistic NaN
    top = np.max(draws)
    with_nan = lambda x: np.where(x == top, np.nan, law.cdf(x))
    assert np.isnan(ks_one_sample(draws, with_nan).statistic)
    assert np.isnan(_whole_sample_statistic(draws, with_nan))


def test_one_sample_accepts_law_or_callable():
    law = ggamma_mid(0.5, E1)
    draws = law.sample_inverse(RandomSource(30, 50).generator(), 5000)
    via_law = ks_one_sample(draws, law)
    via_callable = ks_one_sample(draws, law.cdf)
    assert via_law.statistic == via_callable.statistic
    assert via_law.passed


def test_one_sample_rejects_a_wrong_law():
    draws = ggamma_mid(0.5, E1).sample_inverse(RandomSource(30, 51).generator(), 5000)
    report = ks_one_sample(draws, ggamma_mid(2.0, E1))
    assert not report.passed


def test_degenerate_sample_fails():
    report = ks_one_sample(np.full(1000, 1.0), g_mid(E1))
    assert not report.passed
    assert report.statistic >= 0.5  # all mass at the median of this law


def test_ks_rejects_a_sample_that_is_not_one_dimensional():
    # an ensemble's columns follow different laws: no flattening
    ensemble = np.full((100, 2), 1.0)
    with pytest.raises(ValueError, match=r"shape \(100, 2\)"):
        ks_one_sample(ensemble, g_mid(E1))
    with pytest.raises(ValueError, match=r"shape \(\)"):
        ks_one_sample(1.0, g_mid(E1).cdf)
    with pytest.raises(ValueError, match=r"shape \(100, 2\)"):
        ks_two_sample(ensemble, ensemble[:, 0])
    with pytest.raises(ValueError, match=r"shape \(100, 2\)"):
        ks_two_sample(ensemble[:, 0], ensemble)


def test_two_sample_identical_and_disjoint():
    a = np.arange(1.0, 101.0)
    assert ks_two_sample(a, a.copy()).statistic == 0.0
    report = ks_two_sample(a, a + 1000.0)
    assert report.statistic == 1.0
    assert not report.passed
    assert report.m == 100


def test_two_sample_agrees_on_same_law_draws():
    law = g_mid(E1)
    rng = RandomSource(31, 52).generator()
    report = ks_two_sample(law.sample_inverse(rng, 10_000), law.sample_inverse(rng, 10_000))
    assert report.passed


def test_report_pass_flag_matches_band():
    rng = RandomSource(32, 53).generator()
    draws = g_mid(E1).sample_inverse(rng, 2000)
    report = ks_one_sample(draws, g_mid(E1))
    assert report.passed == (report.statistic < report.critical_value)
    assert report.alpha_level == 0.01
    assert report.critical_value == pytest.approx(1.628 / np.sqrt(2000), rel=0, abs=1e-15)


def test_sup_norm_grid():
    grid = np.linspace(0.1, 10.0, 100)
    assert sup_norm_grid(np.sqrt, np.sqrt, grid) == 0.0
    gap = sup_norm_grid(lambda x: x, lambda x: x + 0.25, grid)
    assert gap == pytest.approx(0.25, rel=0, abs=1e-15)


def test_quantile_grid_properties():
    law = ggamma_mid(2.0, E1)
    grid = quantile_grid(law)
    assert grid.shape == (1000,)
    assert np.all(np.diff(grid) > 0.0)
    f = law.cdf(grid)
    assert abs(f[0] - 0.001) < 1e-9
    assert abs(f[-1] - 0.999) < 1e-9
    custom = quantile_grid(law, lo=0.25, hi=0.75, count=5)
    assert custom.shape == (5,)
    with pytest.raises(ValueError):
        quantile_grid(law, lo=0.5, hi=0.4)
    with pytest.raises(ValueError):
        quantile_grid(law, count=1)


def test_validity_gap_is_zero_for_true_dfs():
    for law in (g_mid(E1), ggamma_mid(0.5, E1)):
        gap = cdf_validity_gap(law, quantile_grid(law), 0.0, np.inf)
        assert gap == 0.0


def test_validity_gap_flags_broken_dfs():
    grid = np.linspace(0.1, 10.0, 50)
    # the broken callables stay finite at both probes, so each case is
    # flagged by its own violation rather than by a NaN
    # not monotone (|sin| is 0 at the bottom probe and 1 at the top one)
    assert cdf_validity_gap(lambda x: np.abs(np.sin(np.minimum(x, 7.5 * np.pi))), grid, 0.0, np.inf) > 0.0
    # escapes [0, 1]
    assert cdf_validity_gap(lambda x: np.full(np.shape(x), 1.5), grid, 0.0, np.inf) > 0.0
    # wrong bottom limit
    assert cdf_validity_gap(lambda x: np.full(np.shape(x), 0.5), grid, 0.0, np.inf) > 0.0


def test_validity_gap_is_nan_where_the_df_is_nan():
    # a NaN value must not pass for a clean d.f.: the gap is NaN, so
    # gap < tolerance fails
    law = g_mid(E1)
    grid = quantile_grid(law)
    holes = {
        "everywhere": lambda x: np.full(np.shape(x), np.nan),
        "one grid point": lambda x: np.where(x == grid[10], np.nan, law.cdf(x)),
        "bottom probe": lambda x: np.where(x == 0.0, np.nan, law.cdf(x)),
        "top probe": lambda x: np.where(np.isinf(x), np.nan, law.cdf(x)),
    }
    for where, fn in holes.items():
        assert np.isnan(cdf_validity_gap(fn, grid, 0.0, np.inf)), where
