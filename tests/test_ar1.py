"""Max-autoregressive recursion: stationarity, innovations, decrease rates."""

import numpy as np
import pytest

from maxdiv import (
    Ar1Spec,
    RandomSource,
    ar1_ensemble,
    ar1_simulate,
    frechet,
    geo_max_cdf,
    ggamma_mid,
    gumbel,
    innovation_cdf_from_marginal,
    ks_one_sample,
    ks_two_sample,
    quantile_grid,
    stationary_innovation_shape,
    weibull,
)
from maxdiv.ar1 import _segmented_running_max
from maxdiv.ksstats import critical_two_sample
from maxdiv.laws import _sample_max

E1 = frechet(1.0)


# -- step-by-step oracles: the recursion as written, one value at a time --


def ar1_step(x_prev: float, innovation: float, u: float, p: float) -> float:
    """One transition; u is the branch uniform (u < p means reset)."""
    if u < p:
        return float(innovation)
    return float(max(x_prev, innovation))


def _innovation_law(spec, innovation_beta):
    beta = spec.innovation_beta if innovation_beta is None else innovation_beta
    return ggamma_mid(beta, spec.exponent)


def simulate_by_steps(spec, n_steps, rng, init=None, innovation_beta=None):
    """ar1_simulate's draws in its order, then a Python loop of ar1_step."""
    u = rng.random(n_steps - 1) if n_steps > 1 else np.empty(0)
    x0 = float(_sample_max(spec.marginal_law(), rng, None)) if init is None else float(init)
    eps = _sample_max(_innovation_law(spec, innovation_beta), rng, n_steps - 1) if n_steps > 1 else np.empty(0)
    out = np.empty(n_steps)
    out[0] = x0
    for k in range(1, n_steps):
        out[k] = ar1_step(out[k - 1], eps[k - 1], u[k - 1], spec.p)
    return out


def ensemble_lockstep(spec, lag, rng, n_chains, init=None, innovation_beta=None):
    """X_lag of n_chains chains advanced together, one transition per lag."""
    x = _sample_max(spec.marginal_law(), rng, n_chains) if init is None else np.full(n_chains, float(init))
    innovation = _innovation_law(spec, innovation_beta)
    for _ in range(lag):
        u = rng.random(n_chains)
        eps = _sample_max(innovation, rng, n_chains)
        x = np.where(u < spec.p, eps, np.maximum(x, eps))
    return x

# P{X_n < X_(n-1)} at stationarity: p/(1-p) + p^2 ln(p)/(1-p)^2,
# frozen from a 50-digit computation
DECREASE_RATE = {
    0.2: 0.14941013047286873,
    0.5: 0.30685281944005469,
    0.9: 0.4657982317160696,
}


def test_spec_validation_and_innovation_shape():
    spec = Ar1Spec(0.25, 2.0, E1)
    assert spec.innovation_beta == 0.5
    assert stationary_innovation_shape(0.25, 2.0) == 0.5
    for bad_p in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            Ar1Spec(bad_p, 1.0, E1)
    for bad_beta in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError):
            Ar1Spec(0.5, bad_beta, E1)


def test_marginal_and_innovation_laws():
    spec = Ar1Spec(0.5, 2.0, E1)
    assert spec.marginal_law() == ggamma_mid(2.0, E1)
    assert spec.innovation_law() == ggamma_mid(1.0, E1)


def test_one_step_preserves_the_marginal_df():
    # P{X_new <= x} = F_eps(x) * (p + (1-p) F(x)) must return F(x)
    for p in (0.2, 0.5, 0.9):
        for beta in (0.5, 1.0, 2.0):
            spec = Ar1Spec(p, beta, E1)
            marginal = spec.marginal_law()
            grid = quantile_grid(marginal)
            f = marginal.cdf(grid)
            f_eps = innovation_cdf_from_marginal(f, p)
            restored = f_eps * (p + (1.0 - p) * f)
            assert float(np.max(np.abs(restored - f))) < 1e-12, (p, beta)


def test_innovation_df_geo_max_round_trip():
    # the marginal is the geometric(p)-max of the innovation d.f.
    spec = Ar1Spec(0.5, 1.0, E1)
    grid = quantile_grid(spec.marginal_law())
    f = spec.marginal_law().cdf(grid)
    f_eps = innovation_cdf_from_marginal(f, spec.p)
    np.testing.assert_allclose(
        geo_max_cdf(lambda x: innovation_cdf_from_marginal(spec.marginal_law().cdf(x), spec.p), spec.p, grid),
        f,
        rtol=0,
        atol=1e-12,
    )
    assert np.all(np.diff(f_eps) >= 0.0)
    assert np.all((f_eps >= 0.0) & (f_eps <= 1.0))


def test_innovation_df_matches_divided_shape_law():
    # with a shape-beta marginal the innovations follow the shape-p*beta law
    spec = Ar1Spec(0.5, 2.0, E1)
    grid = quantile_grid(spec.marginal_law())
    f_eps = innovation_cdf_from_marginal(spec.marginal_law().cdf(grid), spec.p)
    np.testing.assert_allclose(f_eps, spec.innovation_law().cdf(grid), rtol=0, atol=1e-12)


def test_innovation_cdf_validates_range():
    for bad in (-0.1, 1.1, np.nan):
        with pytest.raises(ValueError):
            innovation_cdf_from_marginal(bad, 0.5)


def test_step_semantics():
    # the oracle's transition, which the vectorised samplers must reproduce
    assert ar1_step(3.0, 1.0, 0.1, 0.5) == 1.0  # refresh branch
    assert ar1_step(3.0, 1.0, 0.9, 0.5) == 3.0  # max branch keeps the past
    assert ar1_step(1.0, 3.0, 0.9, 0.5) == 3.0  # max branch takes the innovation


@pytest.mark.parametrize("n_steps", [1, 2, 5000])
@pytest.mark.parametrize("init", [None, 7.5, 0.0, -0.0, np.inf, -np.inf, np.nan])
def test_simulate_is_byte_identical_to_the_step_loop(n_steps, init):
    # at p = 1e-9 the chain is one segment, so the running max takes every
    # doubling pass up to the chain length
    for exponent in (E1, weibull(2.0), gumbel()):
        for p in (1e-9, 0.01, 0.5, 0.9):
            for innovation_beta in (None, 3.0):
                spec = Ar1Spec(p, 1.5, exponent)
                fast = ar1_simulate(spec, n_steps, RandomSource(n_steps, 47).generator(), init, innovation_beta)
                slow = simulate_by_steps(spec, n_steps, RandomSource(n_steps, 47).generator(), init, innovation_beta)
                assert fast.tobytes() == slow.tobytes(), (exponent.family, p, innovation_beta)


def test_segmented_running_max_breaks_ties_like_python_max():
    # many ties and signed zeros: max(previous, new) keeps the earlier
    # of equal values, so the sign bit of a zero depends on the order
    rng = np.random.default_rng(52)
    values = rng.choice([-1.0, -0.0, 0.0, 1.0, 2.0], 2000)
    heads = rng.random(2000) < 0.1
    heads[0] = True
    expected = []
    for value, head in zip(values.tolist(), heads.tolist()):
        expected.append(value if head else max(expected[-1], value))
    got = _segmented_running_max(values, heads)
    assert got.tobytes() == np.array(expected).tobytes()


# ar1_ensemble against the lockstep oracle: 3 p x 2 starts x 3 lags = 18
# two-sample KS comparisons, each held to a 1%/18 level so the family
# of them keeps a 1% false-alarm rate (Bonferroni)
ENSEMBLE_PS = (0.01, 0.5, 0.9)
ENSEMBLE_LAGS = (0, 1, 100)
ENSEMBLE_TESTS = len(ENSEMBLE_PS) * 2 * len(ENSEMBLE_LAGS)
ENSEMBLE_C = float(np.sqrt(-0.5 * np.log(0.01 / ENSEMBLE_TESTS / 2.0)))


@pytest.mark.parametrize("p", ENSEMBLE_PS)
@pytest.mark.parametrize("fixed_start", [False, True])
def test_ensemble_matches_the_lockstep_oracle(p, fixed_start):
    # at p = 0.01 and lag 100 about 37% of chains never reset, so the
    # max with X_0 is exercised; a fixed start at the marginal median
    # makes that branch visible in the law
    spec = Ar1Spec(p, 1.5, E1)
    init = float(spec.marginal_law().quantile(0.5)) if fixed_start else None
    n = 40_000
    source = RandomSource(23, 49)
    for j, lag in enumerate(ENSEMBLE_LAGS):
        fast = ar1_ensemble(spec, lag, source.substream(2 * j).generator(), n, init)
        slow = ensemble_lockstep(spec, lag, source.substream(2 * j + 1).generator(), n, init)
        report = ks_two_sample(fast, slow)
        band = ENSEMBLE_C / 1.628 * critical_two_sample(n, n)
        assert report.statistic < band, (lag, report.statistic, band)


def test_ensemble_lag_zero_is_the_start():
    spec = Ar1Spec(0.5, 1.0, E1)
    np.testing.assert_array_equal(ar1_ensemble(spec, 0, RandomSource(0, 50).generator(), 10, init=2.5), 2.5)
    start = _sample_max(spec.marginal_law(), RandomSource(1, 50).generator(), 10)
    np.testing.assert_array_equal(ar1_ensemble(spec, 0, RandomSource(1, 50).generator(), 10), start)


def test_simulate_shape_and_determinism():
    spec = Ar1Spec(0.5, 1.0, E1)
    a = ar1_simulate(spec, 500, RandomSource(17, 40).generator())
    b = ar1_simulate(spec, 500, RandomSource(17, 40).generator())
    c = ar1_simulate(spec, 500, RandomSource(18, 40).generator())
    assert a.shape == (500,)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.all(a > 0.0)


def test_simulate_honours_explicit_start():
    spec = Ar1Spec(0.5, 1.0, E1)
    path = ar1_simulate(spec, 10, RandomSource(19, 41).generator(), init=7.5)
    assert path[0] == 7.5


def test_chain_decrease_rate_matches_closed_form():
    # long single chains; the closed form depends on both the marginal
    # being stationary and the innovations carrying shape p*beta
    n = 200_000
    for p, rate in DECREASE_RATE.items():
        spec = Ar1Spec(p, 1.0, E1)
        path = ar1_simulate(spec, n, RandomSource(20, 42).generator())
        observed = float(np.mean(np.diff(path) < 0.0))
        assert abs(observed - rate) < 0.005, (p, observed, rate)


def test_ensemble_starts_at_the_stationary_marginal():
    spec = Ar1Spec(0.5, 2.0, weibull(2.0))
    draws = ar1_ensemble(spec, 0, RandomSource(21, 43).generator(), 20_000)
    report = ks_one_sample(draws, spec.marginal_law())
    assert report.passed, report.statistic


def test_lag_100_marginal_is_still_stationary():
    spec = Ar1Spec(0.5, 1.0, E1)
    draws = ar1_ensemble(spec, 100, RandomSource(22, 44).generator(), 20_000)
    report = ks_one_sample(draws, spec.marginal_law())
    assert report.passed, report.statistic


def test_wrong_innovation_shape_breaks_stationarity():
    # beta/p innovations (instead of p*beta) must fail the same check
    spec = Ar1Spec(0.5, 1.0, E1)
    draws = ar1_ensemble(
        spec, 100, RandomSource(22, 45).generator(), 20_000,
        innovation_beta=spec.marginal_beta / spec.p,
    )
    report = ks_one_sample(draws, spec.marginal_law())
    assert not report.passed, report.statistic


@pytest.mark.parametrize("p", [0.01, 0.9])
def test_wrong_innovation_shape_fails_at_other_reset_rates(p):
    spec = Ar1Spec(p, 1.0, E1)
    draws = ar1_ensemble(
        spec, 100, RandomSource(22, 51).generator(), 20_000,
        innovation_beta=spec.marginal_beta / spec.p,
    )
    report = ks_one_sample(draws, spec.marginal_law())
    assert not report.passed, report.statistic


def test_ensemble_validation():
    spec = Ar1Spec(0.5, 1.0, E1)
    rng = RandomSource(0, 46).generator()
    with pytest.raises(ValueError):
        ar1_ensemble(spec, -1, rng, 100)
    with pytest.raises(TypeError):
        ar1_ensemble(spec, 2.5, rng, 100)
    with pytest.raises(ValueError):
        ar1_ensemble(spec, 10, rng, 0)
    with pytest.raises(ValueError):
        ar1_simulate(spec, 0, rng)
