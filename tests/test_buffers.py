"""Buffer ownership: samplers and d.f.s transform only arrays they allocated.

The draw pipeline (-log U, division by k, s_of_w, inverse exponent,
nudge off the support bottom) and the d.f. closed forms run in place on
buffers the package allocated.  These tests hold them to two promises:
an array a caller passes in is never written, and seeded output equals
the out-of-place computation bit for bit.
"""

import numpy as np
import pytest

from maxdiv import (
    Ar1Spec,
    ExtremalSpec,
    LawKind,
    RandomSource,
    SubKind,
    SubordinatorSpec,
    ar1_ensemble,
    base_law,
    compound_marginal_cdf,
    ep_marginal_cdf,
    frechet,
    g_mid,
    gamma_mid,
    geo_max_cdf,
    ggamma_mid,
    gumbel,
    ks_one_sample,
    ks_two_sample,
    weibull,
)
from maxdiv.exponents import Family
from maxdiv.laws import _KINDS, _sample_max
from maxdiv.rng import uniform_open

# -- out-of-place reference: every step allocates its result ---------------

_S_OF_W = {
    LawKind.BASE: lambda w, b: w,
    LawKind.GMID: lambda w, b: np.expm1(w),
    LawKind.GAMMA_MID: lambda w, b: np.expm1(w / b),
    LawKind.GGAMMA_MID: lambda w, b: np.expm1(np.expm1(w) / b),
}


def _inverse(exponent, s):
    if exponent.family is Family.FRECHET:
        return s ** (-1.0 / exponent.alpha)
    if exponent.family is Family.WEIBULL:
        return -(s ** (1.0 / exponent.alpha))
    with np.errstate(divide="ignore"):
        return -np.log(s)


def _min_inside(exponent):
    with np.errstate(over="ignore"):
        x = float(_inverse(exponent, np.asarray(np.finfo(float).max)))
    while not np.isfinite(exponent.eval(x)):
        x = np.nextafter(x, np.inf)
    return x


def reference_sample_max(law, rng, n, k=None):
    """-log(uniform_open) -> /k -> s_of_w -> inverse -> nudge, out of place."""
    w = np.asarray(-np.log(uniform_open(rng, n)), dtype=float)
    with np.errstate(over="ignore", divide="ignore"):
        if k is not None:
            w = w / k
        x = _inverse(law.exponent, _S_OF_W[law.kind](w, law.beta))
    collapsed = x == law.exponent.support().lower
    return np.where(collapsed, _min_inside(law.exponent), x) if np.any(collapsed) else x


def reference_ar1_ensemble(spec, lag, rng, n_chains, init=None, innovation_beta=None):
    x0 = reference_sample_max(spec.marginal_law(), rng, n_chains) if init is None else np.full(n_chains, float(init))
    if lag == 0:
        return x0
    back = rng.geometric(spec.p, n_chains)
    beta = spec.innovation_beta if innovation_beta is None else innovation_beta
    x = reference_sample_max(ggamma_mid(beta, spec.exponent), rng, n_chains, np.minimum(back, lag))
    return np.where(back > lag, np.maximum(x, x0), x)


def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


def laws(alpha):
    # ggamma_mid(0.5) parks ~0.3% of its draws on the smallest inside point
    return [
        make(exponent)
        for exponent in (frechet(alpha), weibull(alpha), gumbel())
        for make in (base_law, g_mid, lambda e: gamma_mid(2.0, e), lambda e: ggamma_mid(0.5, e))
    ]


def rngs(seed):
    return RandomSource(seed, 3).generator(), RandomSource(seed, 3).generator()


# -- seeded draws equal the reference --------------------------------------


@pytest.mark.parametrize("alpha", [1.0, 1.7])
def test_both_routes_equal_the_out_of_place_reference(alpha):
    for i, law in enumerate(laws(alpha)):
        new, ref = rngs(i)
        np.testing.assert_array_equal(bits(law.sample_inverse(new, 5000)), bits(reference_sample_max(law, ref, 5000)))
        mixing = _KINDS[law.kind].mixing
        if mixing is not None:
            new, ref = rngs(i)
            expected = reference_sample_max(base_law(law.exponent), ref, 5000, mixing(law.beta, ref, 5000))
            np.testing.assert_array_equal(bits(law.sample_latent(new, 5000)), bits(expected))


@pytest.mark.parametrize("alpha", [1.0, 1.7])
def test_single_draws_equal_the_out_of_place_reference(alpha):
    # n=None works in numpy scalars, whose ** is libm pow, not the array kernel
    for i, law in enumerate(laws(alpha)):
        new, ref = rngs(i)
        for _ in range(50):
            assert bits(_sample_max(law, new, None)) == bits(reference_sample_max(law, ref, None))


@pytest.mark.parametrize("alpha", [1.0, 1.7])
def test_maxima_of_k_draws_equal_the_out_of_place_reference(alpha):
    counts = np.random.default_rng(5).geometric(0.1, 4000)
    dt = np.array([0.5, 1e-300, 3.0, 0.25])[:, None]
    for i, law in enumerate(laws(alpha)):
        # k as a scalar, a per-draw int array (ar1_ensemble) and a (rows, 1) column (ep_simulate_ensemble)
        for n, k in ((4000, 2.5), (4000, np.minimum(counts, 100)), ((4, 1000), dt)):
            new, ref = rngs(i)
            np.testing.assert_array_equal(bits(_sample_max(law, new, n, k)), bits(reference_sample_max(law, ref, n, k)))


@pytest.mark.parametrize("alpha", [1.0, 1.7])
@pytest.mark.parametrize("lag, init, innovation_beta", [(0, None, None), (100, None, None), (30, 2.0, None), (100, None, 4.0)])
def test_ar1_ensemble_equals_the_out_of_place_reference(alpha, lag, init, innovation_beta):
    spec = Ar1Spec(0.3, 0.5, frechet(alpha))
    new, ref = rngs(lag)
    got = ar1_ensemble(spec, lag, new, 4000, init=init, innovation_beta=innovation_beta)
    np.testing.assert_array_equal(bits(got), bits(reference_ar1_ensemble(spec, lag, ref, 4000, init, innovation_beta)))


# At p = 0.3 and lag >= 30, X_0 is read in ~2e-5 of the chains, so in none of
# the 4,000 above.  These read it in ~37% (p = 0.01, lag 100) and ~21%
# (p = 0.05, lag 30), so the draws of X_0 and their join are compared too.
@pytest.mark.parametrize("p, lag", [(0.01, 100), (0.05, 30)])
@pytest.mark.parametrize("exponent", [frechet(1.7), weibull(1.7), gumbel()], ids=lambda e: e.family.value)
@pytest.mark.parametrize("init, innovation_beta", [(None, None), (2.0, None), (np.nan, None), (None, 4.0)])
def test_ar1_ensemble_joins_x0_where_no_reset_happened(p, lag, exponent, init, innovation_beta):
    spec = Ar1Spec(p, 0.5, exponent)
    new, ref = rngs(lag)
    got = ar1_ensemble(spec, lag, new, 4000, init=init, innovation_beta=innovation_beta)
    np.testing.assert_array_equal(bits(got), bits(reference_ar1_ensemble(spec, lag, ref, 4000, init, innovation_beta)))
    if init is not None and np.isnan(init):
        # a NaN X_0 marks the chains that read it
        assert 0.15 < np.mean(np.isnan(got)) < 0.45


# -- the one-sample KS d.f. runs in the sorted copy --------------------------

# the d.f. as a function of s = psi(x), out of place: every step allocates its result
_CDF_OF_S = {
    LawKind.BASE: lambda s, b: np.exp(-s),
    LawKind.GMID: lambda s, b: 1.0 / (1.0 + s),
    LawKind.GAMMA_MID: lambda s, b: np.exp(-b * np.log1p(s)),
    LawKind.GGAMMA_MID: lambda s, b: 1.0 / (1.0 + b * np.log1p(s)),
}


def reference_psi(exponent, x):
    """psi(x), out of place: the formula, then the limit value outside the support."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if exponent.family is Family.FRECHET:
            return np.where(x <= 0, np.inf, np.abs(x) ** -exponent.alpha)
        if exponent.family is Family.WEIBULL:
            return np.where(x >= 0, 0.0, np.abs(x) ** exponent.alpha)
        return np.abs(np.exp(-x))


def edge_points(exponent):
    """Signed zeros, the smallest inside point and its neighbour, the
    infinities, and points outside the support."""
    outside = {Family.FRECHET: [-1.0, -1e-300], Family.WEIBULL: [1.0, 1e-300], Family.GUMBEL: []}
    bottom = _min_inside(exponent)
    return [-0.0, 0.0, bottom, np.nextafter(bottom, np.inf), -np.inf, np.inf, *outside[exponent.family]]


@pytest.mark.parametrize("alpha", [1.0, 1.7])
def test_ks_one_sample_law_equals_its_cdf_callable(alpha):
    for i, law in enumerate(laws(alpha)):
        reference = lambda x: _CDF_OF_S[law.kind](reference_psi(law.exponent, x), law.beta)
        draws = law.sample_inverse(RandomSource(i, 4).generator(), 20_000)
        edges = edge_points(law.exponent)
        for sample in (edges + list(draws[:40]), edges + list(draws), edges + [np.nan] + list(draws[:40])):
            x = read_only(sample)
            statistic = ks_one_sample(x, law).statistic
            assert bits(statistic) == bits(ks_one_sample(x, law.cdf).statistic), (law, len(sample))
            assert bits(statistic) == bits(ks_one_sample(x, reference).statistic), (law, len(sample))
            assert np.isnan(statistic) == bool(np.isnan(x).any())


# -- caller arrays are never written ----------------------------------------


def read_only(values):
    a = np.array(values, dtype=float)
    a.setflags(write=False)
    return a


def test_caller_arrays_are_never_written():
    law = ggamma_mid(0.5, frechet(1.7))
    spec = ExtremalSpec(gamma_mid(2.0, weibull(1.7)))
    x = read_only([np.nan, -1.0, -0.0, 0.0, 1e-300, 0.5, 1.0, 3.0, np.inf])
    u = read_only([1e-300, 0.1, 0.5, 0.9, 1.0 - 1e-16])
    w = read_only([1e-300, 0.1, 1.0, 30.0, 700.0])
    sample = read_only(law.sample_inverse(RandomSource(1).generator(), 500))
    other = read_only(law.sample_inverse(RandomSource(2).generator(), 300))
    calls = [
        lambda: law.cdf(x),
        lambda: law.neg_log_cdf(x),
        lambda: law.quantile(u),
        lambda: law.exponent.eval(x),
        lambda: law.exponent.inverse(w),
        lambda: ep_marginal_cdf(spec, 1.5, x),
        lambda: compound_marginal_cdf(spec, SubordinatorSpec(SubKind.GAMMA), 1.5, x),
        lambda: compound_marginal_cdf(ExtremalSpec(base_law(gumbel())), SubordinatorSpec(SubKind.GGAMMA_UNIT, 0.5), 1.0, x),
        lambda: geo_max_cdf(law, 0.3, x),
        lambda: geo_max_cdf(lambda v: v, 0.3, u),
        lambda: ks_one_sample(sample, law),
        lambda: ks_one_sample(u, lambda v: v),
        lambda: ks_two_sample(sample, other),
    ]
    before = [bits(a).copy() for a in (x, u, w, sample, other)]
    for call in calls:
        call()
    for a, b in zip((x, u, w, sample, other), before):
        np.testing.assert_array_equal(bits(a), b)
