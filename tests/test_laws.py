"""Law families: d.f. closed forms, quantiles, sampling routes, serialization."""

import warnings

import numpy as np
import pytest

from maxdiv import (
    Ar1Spec,
    ExtremalSpec,
    LawKind,
    MaxLaw,
    RandomSource,
    SubKind,
    SubordinatorSpec,
    ar1_ensemble,
    ar1_simulate,
    base_law,
    compound_marginal_cdf,
    compound_simulate,
    ep_marginal_cdf,
    ep_simulate_ensemble,
    frechet,
    g_mid,
    gamma_mid,
    geo_max_cdf,
    geo_max_sample,
    ggamma_mid,
    gumbel,
    ks_two_sample,
    law_from_dict,
    law_to_dict,
    lt_ggamma,
    sample_ggamma,
    subordinator_marginal,
    weibull,
)

E1 = frechet(1.0)
ALL_EXPONENTS = (frechet(1.0), frechet(2.0), weibull(1.0), weibull(2.0), gumbel())

# closed-form constants, frozen from a 50-digit computation
EXP_NEG_1 = 0.36787944117144232  # e^-1
INV_1_PLUS_LN2 = 0.59061610914964125  # 1/(1 + ln 2)
INV_1_PLUS_2LN2 = 0.41905978419640521  # 1/(1 + 2 ln 2)
INV_1_PLUS_HALF_LN2 = 0.74262558483126432  # 1/(1 + 0.5 ln 2)
SQRT_HALF = 0.70710678118654752  # 2^(-1/2)
# 3-sigma Monte Carlo bands at n = 10^5, frozen from the same computation
BAND_LT_BETA_1 = 0.0033898403013726047  # 3*sd(e^-T)/sqrt(1e5), unit shape
BAND_LT_BETA_2 = 0.0035134620095707305  # 3*sd(e^-T)/sqrt(1e5), shape 2


def all_laws(exponent):
    return (
        base_law(exponent),
        g_mid(exponent),
        gamma_mid(0.5, exponent),
        gamma_mid(2.0, exponent),
        ggamma_mid(0.5, exponent),
        ggamma_mid(2.0, exponent),
    )


def test_cdf_spot_values_where_exponent_is_one():
    # the frechet(1) exponent has psi(1) = 1, isolating each closed form
    assert base_law(E1).cdf(1.0) == pytest.approx(EXP_NEG_1, rel=0, abs=1e-16)
    assert g_mid(E1).cdf(1.0) == 0.5
    assert gamma_mid(0.5, E1).cdf(1.0) == pytest.approx(SQRT_HALF, rel=0, abs=1e-15)
    assert gamma_mid(2.0, E1).cdf(1.0) == pytest.approx(0.25, rel=0, abs=1e-16)
    assert ggamma_mid(0.5, E1).cdf(1.0) == pytest.approx(INV_1_PLUS_HALF_LN2, rel=0, abs=1e-15)
    assert ggamma_mid(1.0, E1).cdf(1.0) == pytest.approx(INV_1_PLUS_LN2, rel=0, abs=1e-15)
    assert ggamma_mid(2.0, E1).cdf(1.0) == pytest.approx(INV_1_PLUS_2LN2, rel=0, abs=1e-15)


def test_neg_log_cdf_agrees_with_cdf():
    u = np.linspace(0.01, 0.99, 99)
    for exponent in ALL_EXPONENTS:
        for law in all_laws(exponent):
            x = law.quantile(u)
            np.testing.assert_allclose(np.exp(-law.neg_log_cdf(x)), law.cdf(x), rtol=5e-15, atol=0.0)


def test_cdf_is_nondecreasing():
    u = np.linspace(0.001, 0.999, 999)
    for exponent in ALL_EXPONENTS:
        for law in all_laws(exponent):
            f = law.cdf(law.quantile(u))
            assert np.all(np.diff(f) >= 0.0)


@pytest.mark.parametrize("exponent", [frechet(1.5), weibull(1.5), gumbel()], ids=lambda e: e.family.value)
def test_nan_in_gives_nan_out(exponent):
    # one policy for all families: before, cdf(nan) was 0 for frechet,
    # 1 for weibull and nan for gumbel
    x = np.array([np.nan, -0.5, 0.5, 2.0])
    for law in all_laws(exponent):
        spec = ExtremalSpec(law)
        values = {
            "cdf": law.cdf(x),
            "neg_log_cdf": law.neg_log_cdf(x),
            "geo_max_cdf": geo_max_cdf(law, 0.3, x),
            "ep_marginal_cdf": ep_marginal_cdf(spec, 2.0, x),
            "compound gamma": compound_marginal_cdf(spec, SubordinatorSpec(SubKind.GAMMA), 2.0, x),
            "compound ggamma": compound_marginal_cdf(spec, SubordinatorSpec(SubKind.GGAMMA_UNIT, 0.5), 1.0, x),
        }
        for name, v in values.items():
            assert np.isnan(v[0]), (law, name)
            assert not np.any(np.isnan(v[1:])), (law, name)
        assert np.isnan(law.cdf(np.nan)) and np.isnan(law.neg_log_cdf(np.nan))
        np.testing.assert_array_equal(values["cdf"][1:], law.cdf(x[1:]))


def test_quantile_then_cdf_round_trip():
    u = np.linspace(0.005, 0.995, 199)
    for exponent in ALL_EXPONENTS:
        for law in all_laws(exponent):
            back = law.cdf(law.quantile(u))
            assert float(np.max(np.abs(back - u))) < 1e-10


def test_cdf_then_quantile_round_trip():
    u = np.linspace(0.01, 0.99, 99)
    for exponent in ALL_EXPONENTS:
        for law in all_laws(exponent):
            x = law.quantile(u)
            x2 = law.quantile(law.cdf(x))
            assert np.all(np.abs(x2 - x) <= 1e-8 * (1.0 + np.abs(x)))


def test_gamma_shape_one_is_the_geometric_stable_kind():
    x = g_mid(E1).quantile(np.linspace(0.005, 0.995, 500))
    np.testing.assert_allclose(gamma_mid(1.0, E1).cdf(x), g_mid(E1).cdf(x), rtol=0, atol=1e-15)


def test_unshaped_kinds_pin_beta_to_one():
    assert MaxLaw(LawKind.BASE, E1, 7.0).beta == 1.0
    assert MaxLaw(LawKind.GMID, E1, 7.0).beta == 1.0
    assert gamma_mid(7.0, E1).beta == 7.0


def test_shape_must_be_finite_and_positive():
    for bad in (0.0, -2.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            gamma_mid(bad, E1)
        with pytest.raises(ValueError):
            ggamma_mid(bad, E1)


def test_quantile_rejects_closed_endpoints():
    law = ggamma_mid(1.0, E1)
    for bad in (0.0, 1.0, -0.1, 1.1, np.nan):
        with pytest.raises(ValueError):
            law.quantile(bad)


def test_deep_lower_quantile_stays_inside_support():
    # below the smallest representable point the quantile parks on it
    law = ggamma_mid(0.5, E1)
    x = law.quantile(1e-9)
    assert x > 0.0
    assert 0.0 < law.cdf(x) < 1e-2


def test_deep_weibull_quantiles_do_not_warn():
    # with alpha < 1, -(s ** (1/alpha)) overflows at the largest float s
    # while the quantile is parked inside the support; that overflow is
    # expected and must stay silent
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        xs = [ggamma_mid(0.5, weibull(0.5)).quantile(1e-12), g_mid(weibull(0.5)).quantile(1e-300)]
    for x in xs:
        assert np.isfinite(x) and x < 0.0


def test_deep_upper_quantile_is_finite():
    law = ggamma_mid(0.5, E1)
    x = law.quantile(1.0 - 1e-12)
    assert np.isfinite(x)
    assert law.cdf(x) > 0.999999


def test_sampling_is_deterministic_per_source():
    law = ggamma_mid(1.0, E1)
    a = law.sample_inverse(RandomSource(7, 3).generator(), 1000)
    b = law.sample_inverse(RandomSource(7, 3).generator(), 1000)
    c = law.sample_inverse(RandomSource(7, 4).generator(), 1000)
    d = law.sample_latent(RandomSource(7, 3).generator(), 1000)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_samples_stay_inside_support():
    for exponent in ALL_EXPONENTS:
        support = exponent.support()
        for law in all_laws(exponent):
            draws = law.sample_inverse(RandomSource(0, 1).generator(), 5000)
            assert np.all(np.isfinite(draws))
            assert np.all(draws > support.lower)
            assert np.all(draws <= support.upper)


def test_latent_route_parks_sub_representable_draws_inside_support():
    # about 0.28% of this law's mass lies below the smallest positive
    # float; those draws must collapse onto it, not escape the support
    law = ggamma_mid(0.5, E1)
    draws = law.sample_latent(RandomSource(1, 2).generator(), 100_000)
    assert np.all(draws > 0.0)
    smallest = float(draws.min())
    assert law.cdf(smallest) > 0.0
    atom = float(np.mean(draws == smallest))
    assert 0.001 < atom < 0.006


def test_base_kind_has_no_latent_route():
    with pytest.raises(ValueError):
        base_law(E1).sample_latent(RandomSource(0, 0).generator(), 10)


def test_sample_size_validation():
    law = g_mid(E1)
    rng = RandomSource(0, 0).generator()
    for route in (law.sample_inverse, law.sample_latent):
        with pytest.raises(ValueError):
            route(rng, 0)
        with pytest.raises(ValueError):
            route(rng, -5)


SAMPLERS = {
    "sample_inverse": lambda rng, n: ggamma_mid(0.5, E1).sample_inverse(rng, n),
    "sample_latent": lambda rng, n: ggamma_mid(0.5, E1).sample_latent(rng, n),
    "geo_max_sample": lambda rng, n: geo_max_sample(ggamma_mid(0.5, E1), 0.3, rng, n),
    "sample_ggamma": lambda rng, n: sample_ggamma(0.5, rng, n),
    "subordinator_marginal": lambda rng, n: subordinator_marginal(SubordinatorSpec(SubKind.GAMMA), 2.0, rng, n),
    "compound_simulate": lambda rng, n: compound_simulate(
        ExtremalSpec(g_mid(E1)), SubordinatorSpec(SubKind.GAMMA), 2.0, rng, n
    ),
    "ep_simulate_ensemble": lambda rng, n: ep_simulate_ensemble(ExtremalSpec(g_mid(E1)), [0.5, 1.0], rng, n),
    "ar1_simulate": lambda rng, n: ar1_simulate(Ar1Spec(0.3, 1.0, E1), n, rng),
    "ar1_ensemble": lambda rng, n: ar1_ensemble(Ar1Spec(0.3, 1.0, E1), 5, rng, n),
}


@pytest.mark.parametrize("sampler", SAMPLERS)
def test_samplers_take_a_whole_number_of_draws(sampler):
    # unchecked, numpy rejects 2.5, NaN and inf with a TypeError, and 3.0 too
    draw = SAMPLERS[sampler]
    for bad in (0, -3, 2.5, np.nan, np.inf):
        with pytest.raises(ValueError):
            draw(RandomSource(0).generator(), bad)
    three = draw(RandomSource(0).generator(), 3)
    assert len(three) == 3
    assert draw(RandomSource(0).generator(), 3.0).tobytes() == three.tobytes()


def test_inverse_and_latent_routes_agree():
    # two-sample comparison at the 1% band, n = m = 20000
    for law in (g_mid(E1), gamma_mid(2.0, E1), ggamma_mid(0.5, E1)):
        rng = RandomSource(3, 11).generator()
        a = law.sample_inverse(rng, 20_000)
        b = law.sample_latent(rng, 20_000)
        report = ks_two_sample(a, b)
        assert report.passed, (law.kind, report.statistic, report.critical_value)


def test_sample_ggamma_matches_its_laplace_transform():
    for beta, band in ((1.0, BAND_LT_BETA_1), (2.0, BAND_LT_BETA_2)):
        draws = sample_ggamma(beta, RandomSource(0, 6).generator(), 100_000)
        assert np.all(draws >= 0.0)
        observed = float(np.mean(np.exp(-draws)))
        assert abs(observed - lt_ggamma(beta, 1.0)) < band


def test_sample_ggamma_scalar_and_validation():
    rng = RandomSource(0, 7).generator()
    x = sample_ggamma(1.0, rng)
    assert isinstance(x, float) and x >= 0.0
    with pytest.raises(ValueError):
        sample_ggamma(-1.0, rng)
    with pytest.raises(ValueError):
        sample_ggamma(1.0, rng, 0)


def test_sample_ggamma_survives_subnormal_shape():
    # beta * Exp(1) rounds to 0.0 whenever Exp(1) <= 0.5 (about 39% of
    # draws) at this beta; those shapes are redrawn until all are positive
    n = 1000
    draws = sample_ggamma(5e-324, RandomSource(0, 8).generator(), n)
    assert draws.shape == (n,)
    assert np.all(np.isfinite(draws)) and np.all(draws >= 0.0)


def test_sample_ggamma_returns_inf_for_a_shape_beyond_float_range():
    # at beta = 1e308, beta * Exp(1) overflows whenever Exp(1) > ~1.8; the
    # shape and its draw are then the IEEE limit inf, without a warning
    draws = sample_ggamma(1e308, RandomSource(0, 9).generator(), 100)
    assert draws.shape == (100,)
    assert np.all(draws > 0.0)
    assert 0 < np.count_nonzero(np.isinf(draws)) < 100


def test_lt_ggamma_closed_form():
    assert lt_ggamma(1.0, 0.0) == 1.0
    assert lt_ggamma(1.0, 1.0) == pytest.approx(INV_1_PLUS_LN2, rel=0, abs=1e-15)
    assert lt_ggamma(2.0, 1.0) == pytest.approx(INV_1_PLUS_2LN2, rel=0, abs=1e-15)
    with pytest.raises(ValueError):
        lt_ggamma(1.0, -0.5)
    with pytest.raises(ValueError):
        lt_ggamma(0.0, 1.0)


def test_law_dict_round_trip():
    laws = (
        base_law(gumbel()),
        g_mid(frechet(2.0)),
        gamma_mid(0.5, weibull(2.0)),
        ggamma_mid(3.0, E1),
    )
    for law in laws:
        assert law_from_dict(law_to_dict(law)) == law


def test_law_from_dict_rejects_unknown_kind():
    with pytest.raises(ValueError):
        law_from_dict({"kind": "cauchy", "family": "frechet", "alpha": 1.0, "beta": 1.0})
