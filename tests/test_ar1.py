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
    weibull,
)
from maxdiv.ar1 import _geometric
from maxdiv.extremal import _running_max
from maxdiv.ksstats import critical_two_sample
from maxdiv.rng import uniform_open

from oracles import ar1_by_steps, ar1_step, lockstep_ar1_ensemble, reference_sample_max

E1 = frechet(1.0)


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
    for bad_p in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            Ar1Spec(bad_p, 1.0, E1)
    for bad_beta in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError):
            Ar1Spec(0.5, bad_beta, E1)


def test_marginal_and_innovation_laws():
    spec = Ar1Spec(0.5, 2.0, E1)
    assert spec.marginal_law() == ggamma_mid(2.0, E1)
    assert spec.innovation_beta == 1.0


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
    np.testing.assert_allclose(f_eps, ggamma_mid(spec.innovation_beta, E1).cdf(grid), rtol=0, atol=1e-12)


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
@pytest.mark.parametrize("innovation_beta", [None, 3.0])
def test_simulate_is_byte_identical_to_the_step_loop(n_steps, innovation_beta):
    # at p = 1e-9 the chain is one segment, so the running max takes every
    # doubling pass up to the chain length
    for exponent in (E1, weibull(2.0), gumbel()):
        for p in (1e-9, 0.01, 0.5, 0.9):
            spec = Ar1Spec(p, 1.5, exponent)
            fast = ar1_simulate(spec, n_steps, RandomSource(n_steps, 47).generator(), innovation_beta=innovation_beta)
            slow = ar1_by_steps(spec, n_steps, RandomSource(n_steps, 47).generator(), innovation_beta)
            assert fast.tobytes() == slow.tobytes(), (exponent.family, p)


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
    got = _running_max(values.copy(), ~heads)
    assert got.tobytes() == np.array(expected).tobytes()


# ar1_ensemble against the lockstep oracle: 3 p x 2 innovation shapes x
# 3 lags = 18 two-sample KS comparisons, each held to a 1%/18 level so the
# family of them keeps a 1% false-alarm rate (Bonferroni)
ENSEMBLE_PS = (0.01, 0.5, 0.9)
ENSEMBLE_LAGS = (0, 1, 100)
ENSEMBLE_TESTS = len(ENSEMBLE_PS) * 2 * len(ENSEMBLE_LAGS)
ENSEMBLE_C = float(np.sqrt(-0.5 * np.log(0.01 / ENSEMBLE_TESTS / 2.0)))


@pytest.mark.parametrize("p", ENSEMBLE_PS)
@pytest.mark.parametrize("control", [False, True])
def test_ensemble_matches_the_lockstep_oracle(p, control):
    # at p = 0.01 and lag 100 about 37% of chains never reset, so the
    # max with X_0 is exercised; the control's beta/p innovations make
    # the chain non-stationary, so X_lag's law depends on that branch
    spec = Ar1Spec(p, 1.5, E1)
    innovation_beta = spec.marginal_beta / p if control else None
    n = 40_000
    source = RandomSource(23, 49)
    for j, lag in enumerate(ENSEMBLE_LAGS):
        fast = ar1_ensemble(spec, lag, source.substream(2 * j).generator(), n, innovation_beta=innovation_beta)
        slow = lockstep_ar1_ensemble(spec, lag, source.substream(2 * j + 1).generator(), n, innovation_beta)
        report = ks_two_sample(fast, slow)
        band = ENSEMBLE_C / 1.628 * critical_two_sample(n, n)
        assert report.statistic < band, (lag, report.statistic, band)


def test_ensemble_lag_zero_is_the_start():
    spec = Ar1Spec(0.5, 1.0, E1)
    start = reference_sample_max(spec.marginal_law(), RandomSource(1, 50).generator(), 10)
    np.testing.assert_array_equal(ar1_ensemble(spec, 0, RandomSource(1, 50).generator(), 10), start)


@pytest.mark.parametrize(
    "spec",
    [Ar1Spec(0.3, 2.0, frechet(1.7)), Ar1Spec(0.3, 2.0, weibull(1.7)), Ar1Spec(0.3, 2.0, E1), Ar1Spec(0.3, 2.0, gumbel())],
    ids=["frechet-1.7", "weibull-1.7", "frechet-1", "gumbel"],
)
def test_a_one_step_chain_is_the_lag_zero_ensemble_to_the_bit(spec):
    # both samplers draw X_0 by one transform of one open uniform
    for seed in range(300):
        chain = ar1_simulate(spec, 1, RandomSource(seed).generator())
        start = ar1_ensemble(spec, 0, RandomSource(seed).generator(), 1)
        assert chain.tobytes() == start.tobytes(), seed


def test_simulate_shape_and_determinism():
    spec = Ar1Spec(0.5, 1.0, E1)
    a = ar1_simulate(spec, 500, RandomSource(17, 40).generator())
    b = ar1_simulate(spec, 500, RandomSource(17, 40).generator())
    c = ar1_simulate(spec, 500, RandomSource(18, 40).generator())
    assert a.shape == (500,)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.all(a > 0.0)


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
    # innovation_beta is keyword-only: a fourth positional number is rejected
    with pytest.raises(TypeError):
        ar1_simulate(spec, 10, rng, 2.0)
    with pytest.raises(TypeError):
        ar1_ensemble(spec, 10, rng, 100, 2.0)


# -- the look-back draw: G = max(1, ceil(E / -log1p(-p))) for every p --

LOOK_BACK_PS = [0.01, 0.2, 1 / 3, 0.5, 0.7, 0.9]


@pytest.mark.parametrize("p", LOOK_BACK_PS)
def test_look_back_counts_are_equal_in_law_to_numpys_geometric(p):
    # two-sample KS at the 1% level (conservative for a discrete law) over
    # seeds 0..9 at n = 10**5, the two sides drawn from different streams:
    # at most one seed of ten may reject, as for the registry's checks
    rejected = 0
    for seed in range(10):
        counts = _geometric(RandomSource(seed, 60).generator(), p, 10**5)
        assert counts.dtype == np.float64
        rejected += not ks_two_sample(counts, RandomSource(seed, 61).generator().geometric(p, 10**5)).passed
    assert rejected <= 1


@pytest.mark.parametrize("p", LOOK_BACK_PS)
def test_look_back_tail_frequencies_are_powers_of_one_minus_p(p):
    # the share of G > g is binomial(n, (1-p)**g) / n: within 5 standard
    # deviations at every g where (1-p)**g >= 1e-3
    n = 10**6
    counts = _geometric(RandomSource(7, 62).generator(), p, n)
    assert counts.min() == 1 and np.all(counts == np.floor(counts))
    for g in (1, 2, 3, 5, 10, 30, 100, 300):
        tail = (1 - p) ** g
        if tail >= 1e-3:
            assert abs(np.mean(counts > g) - tail) <= 5 * np.sqrt(tail * (1 - tail) / n), g


class _ZeroExponentials:
    """A generator whose standard_exponential draws exact zeros; all else passes through."""

    def __init__(self, seed):
        self._rng = RandomSource(seed, 63).generator()

    def standard_exponential(self, n):
        return np.zeros(n)

    def __getattr__(self, name):
        return getattr(self._rng, name)


@pytest.mark.parametrize("p", [0.01, 0.2, 0.5, 0.9])
def test_an_exponential_variate_of_zero_looks_back_one_step(p):
    # ceil(0 / -log1p(-p)) is 0, which would draw the maximum of no
    # innovations, the bottom of the support; a count is at least 1, so
    # the chain draws one innovation
    np.testing.assert_array_equal(_geometric(_ZeroExponentials(0), p, 5), np.ones(5))
    spec = Ar1Spec(p, 0.5, frechet(1.7))
    rng = RandomSource(0, 63).generator()
    uniform_open(rng, 1000)  # X_0's uniforms
    expected = reference_sample_max(ggamma_mid(spec.innovation_beta, spec.exponent), rng, 1000)
    assert ar1_ensemble(spec, 100, _ZeroExponentials(0), 1000).tobytes() == expected.tobytes()


def test_a_look_back_past_the_lag_joins_x0_at_every_lag_it_passes():
    # at p = 1e-300 every G is ~1e300: past lags 2**63 - 1 to 2**70, where
    # each chain keeps X_0 (the 2**63 innovations of shape 1.5e-300 lie
    # below it), but short of 10**400, read as the largest float, where
    # no chain does.  At p = 0.3 no count comes near these lags, so they
    # all draw the same values
    spec = Ar1Spec(1e-300, 1.5, frechet(1.7))
    x0 = ar1_ensemble(spec, 0, RandomSource(0, 53).generator(), 1000)
    for lag in (2**63 - 1, 2**63, 2**70):
        assert ar1_ensemble(spec, lag, RandomSource(0, 53).generator(), 1000).tobytes() == x0.tobytes()
    assert np.any(ar1_ensemble(spec, 10**400, RandomSource(0, 53).generator(), 1000) < x0)
    # at the smallest subnormal p nearly every count is past float range:
    # inf, with no overflow warning, and past even 10**400
    spec = Ar1Spec(5e-324, 1.5, frechet(1.7))
    assert np.isinf(_geometric(RandomSource(0, 53).generator(), spec.p, 1000)).sum() > 990
    x0 = ar1_ensemble(spec, 0, RandomSource(0, 53).generator(), 1000)
    assert np.all(ar1_ensemble(spec, 10**400, RandomSource(0, 53).generator(), 1000) >= x0)
    spec = Ar1Spec(0.3, 0.5, frechet(1.7))
    largest = ar1_ensemble(spec, 2**63 - 1, RandomSource(0, 53).generator(), 1000)
    for lag in (2**63, 2**70, 10**400):
        assert ar1_ensemble(spec, lag, RandomSource(0, 53).generator(), 1000).tobytes() == largest.tobytes()
