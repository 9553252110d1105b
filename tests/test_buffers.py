"""Buffer ownership: samplers and d.f.s transform only arrays they allocated.

The samplers and d.f.s run in place on buffers the package allocated.
These tests hold them to two promises: an array a caller passes in is
never written, and seeded draws and d.f. values equal the out-of-place
references of oracles.py bit for bit, so no in-place step reads a
buffer another step has already overwritten (for _sample_max and both
routes of every law, see test_bytes.py).
"""

import warnings

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
    cdf_validity_gap,
    compound_marginal_cdf,
    ep_marginal_cdf,
    ep_simulate_ensemble,
    expr_from_law,
    frechet,
    g_mid,
    gamma_mid,
    geo_max_cdf,
    ggamma_mid,
    gumbel,
    innovation_cdf_from_marginal,
    iterate_transform,
    ks_one_sample,
    ks_two_sample,
    limit_geo_gamma_cdf,
    lt_ggamma,
    n_max_cdf,
    quantile_grid,
    scale_exponent,
    sup_norm_grid,
    weibull,
)
from maxdiv.ar1 import _COUNT_BLOCK
from maxdiv.exponents import Family

from oracles import (
    KINDS,
    bits,
    every_law,
    min_inside,
    reference_ar1_ensemble,
    reference_ep_ensemble,
    reference_psi,
)


def rngs(seed):
    return RandomSource(seed, 3).generator(), RandomSource(seed, 3).generator()


# -- seeded draws equal the reference --------------------------------------


@pytest.mark.parametrize("alpha", [1.0, 1.7])
def test_ep_simulate_ensemble_equals_the_out_of_place_reference(alpha):
    # one k per increment, grid-major; a first interval of 1e-300 takes the
    # quantile transform to the edge of float range.  One path draws into
    # its own interval lengths, here over two blocks
    grids = [(np.cumsum([1e-300, 0.5, 3.0, 0.25]), 1000), (np.linspace(0.5, 3.0, 2**16 + 5), 1)]
    for i, law in enumerate(every_law(alpha)):
        spec = ExtremalSpec(law)
        for times, n in grids:
            new, ref = rngs(i)
            np.testing.assert_array_equal(bits(ep_simulate_ensemble(spec, times, new, n)), bits(reference_ep_ensemble(spec, times, ref, n)))


# The ids name the start X_0 before the innovation beta: None, drawn from
# the stationary marginal, in every case.
@pytest.mark.parametrize("alpha", [1.0, 1.7])
@pytest.mark.parametrize(
    "lag, innovation_beta",
    [(0, None), (30, None), (100, None), (100, 4.0)],
    ids=["0-None-None", "30-None-None", "100-None-None", "100-None-4.0"],
)
def test_ar1_ensemble_equals_the_out_of_place_reference(alpha, lag, innovation_beta):
    spec = Ar1Spec(0.3, 0.5, frechet(alpha))
    new, ref = rngs(lag)
    got = ar1_ensemble(spec, lag, new, 4000, innovation_beta=innovation_beta)
    np.testing.assert_array_equal(bits(got), bits(reference_ar1_ensemble(spec, lag, ref, 4000, innovation_beta)))


# At p = 0.3 and lag >= 30, X_0 is read in ~2e-5 of the chains, so in none of
# the 4,000 above.  These read it in ~37% (p = 0.01, lag 100) and ~21%
# (p = 0.05, lag 30), so the draws of X_0 and their join are compared too,
# over two of the look-back counts' blocks and part of a third.
JOIN_CHAINS = 2 * _COUNT_BLOCK + 1000


@pytest.mark.parametrize("p, lag", [(0.01, 100), (0.05, 30)])
@pytest.mark.parametrize("exponent", [frechet(1.7), weibull(1.7), gumbel()], ids=lambda e: e.family.value)
@pytest.mark.parametrize("innovation_beta", [None, 4.0], ids=["None-None", "None-4.0"])
def test_ar1_ensemble_joins_x0_where_no_reset_happened(p, lag, exponent, innovation_beta):
    spec = Ar1Spec(p, 0.5, exponent)
    new, ref = rngs(lag)
    got = ar1_ensemble(spec, lag, new, JOIN_CHAINS, innovation_beta=innovation_beta)
    np.testing.assert_array_equal(bits(got), bits(reference_ar1_ensemble(spec, lag, ref, JOIN_CHAINS, innovation_beta)))


# At p = 1e-300 every look-back count G is ~1e300, past 2**63, where a
# cast to int64 would wrap, and past every lag but 10**400, which is past
# float range: there no chain joins X_0.  Lags from 2**63 up must not raise.
@pytest.mark.parametrize("lag", [100, 2**63 - 1, 2**70, 10**400], ids=["100", "2**63-1", "2**70", "10**400"])
def test_ar1_ensemble_past_the_int64_range_equals_the_out_of_place_reference(lag):
    spec = Ar1Spec(1e-300, 1.5, frechet(1.7))
    new, ref = rngs(5)
    got = ar1_ensemble(spec, lag, new, 1000)
    assert not np.isnan(got).any()
    np.testing.assert_array_equal(bits(got), bits(reference_ar1_ensemble(spec, lag, ref, 1000)))


# -- the one-sample KS d.f. runs in the sorted copy --------------------------


def edge_points(exponent):
    """Signed zeros, the smallest inside point and its neighbour, the
    infinities, and points outside the support."""
    outside = {Family.FRECHET: [-1.0, -1e-300], Family.WEIBULL: [1.0, 1e-300], Family.GUMBEL: []}
    bottom = min_inside(exponent)
    return [-0.0, 0.0, bottom, np.nextafter(bottom, np.inf), -np.inf, np.inf, *outside[exponent.family]]


@pytest.mark.parametrize("alpha", [1.0, 1.7])
def test_ks_one_sample_law_equals_its_cdf_callable(alpha):
    for i, law in enumerate(every_law(alpha)):
        reference = lambda x: KINDS[law.kind].cdf(reference_psi(law.exponent, x), law.beta)
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
    expr = expr_from_law(g_mid(frechet(1.7)))
    x = read_only([np.nan, -1.0, -0.0, 0.0, 1e-300, 0.5, 1.0, 3.0, np.inf])
    u = read_only([1e-300, 0.1, 0.5, 0.9, 1.0 - 1e-16])
    w = read_only([1e-300, 0.1, 1.0, 30.0, 700.0])
    grid = read_only(quantile_grid(law, count=50))
    sample = read_only(law.sample_inverse(RandomSource(1).generator(), 500))
    other = read_only(law.sample_inverse(RandomSource(2).generator(), 300))
    calls = [
        lambda: law.cdf(x),
        lambda: law.neg_log_cdf(x),
        lambda: law.quantile(u),
        lambda: law.exponent.eval(x),
        lambda: lt_ggamma(0.5, w),
        lambda: ep_marginal_cdf(spec, 1.5, x),
        lambda: compound_marginal_cdf(spec, SubordinatorSpec(SubKind.GAMMA), 1.5, x),
        lambda: compound_marginal_cdf(ExtremalSpec(base_law(gumbel())), SubordinatorSpec(SubKind.GGAMMA_UNIT, 0.5), 1.0, x),
        lambda: geo_max_cdf(law, 0.3, x),
        lambda: geo_max_cdf(lambda v: v, 0.3, u),
        lambda: scale_exponent(expr, 2.5).cdf(x),
        lambda: scale_exponent(expr, 2.5).neg_log_cdf(x),
        lambda: iterate_transform(expr).cdf(x),
        lambda: iterate_transform(expr).neg_log_cdf(x),
        lambda: n_max_cdf(law, 3, x),
        lambda: n_max_cdf(expr, 3, x),
        lambda: limit_geo_gamma_cdf(0.5, 3, law.exponent, x),
        lambda: innovation_cdf_from_marginal(u, 0.3),
        lambda: cdf_validity_gap(law, grid, 0.0, np.inf),
        lambda: sup_norm_grid(law.cdf, expr, grid),
        lambda: ks_one_sample(sample, law),
        lambda: ks_one_sample(u, lambda v: v),
        lambda: ks_two_sample(sample, other),
    ]
    before = [bits(a).copy() for a in (x, u, w, grid, sample, other)]
    for call in calls:
        call()
    for a, b in zip((x, u, w, grid, sample, other), before):
        np.testing.assert_array_equal(bits(a), b)


# -- one boundary: a number gives a float, an array an array of its shape ----

_E = frechet(1.7)
_EXPR = expr_from_law(g_mid(_E))
_DFS = {
    "Exponent.eval": _E.eval,
    "MaxLaw.cdf": ggamma_mid(0.5, _E).cdf,
    "MaxLaw.neg_log_cdf": ggamma_mid(0.5, _E).neg_log_cdf,
    "MaxLaw.quantile": ggamma_mid(0.5, _E).quantile,
    "lt_ggamma": lambda v: lt_ggamma(0.5, v),
    "geo_max_cdf": lambda v: geo_max_cdf(g_mid(_E), 0.3, v),
    "scale_exponent.cdf": scale_exponent(_EXPR, 2.5).cdf,
    "scale_exponent.neg_log_cdf": scale_exponent(_EXPR, 2.5).neg_log_cdf,
    "iterate_transform.cdf": iterate_transform(_EXPR).cdf,
    "iterate_transform.neg_log_cdf": iterate_transform(_EXPR).neg_log_cdf,
    "n_max_cdf": lambda v: n_max_cdf(g_mid(_E), 3, v),
    "limit_geo_gamma_cdf": lambda v: limit_geo_gamma_cdf(0.5, 3, _E, v),
    "innovation_cdf_from_marginal": lambda v: innovation_cdf_from_marginal(v, 0.3),
    "ep_marginal_cdf": lambda v: ep_marginal_cdf(ExtremalSpec(gamma_mid(2.0, _E)), 1.5, v),
    "compound_marginal_cdf": lambda v: compound_marginal_cdf(ExtremalSpec(base_law(_E)), SubordinatorSpec(SubKind.GAMMA), 1.5, v),
}


@pytest.mark.parametrize("name", sorted(_DFS))
def test_a_number_gives_a_float_and_an_array_an_array(name):
    fn = _DFS[name]
    for number in (0.25, np.float64(0.25), np.float32(0.25), np.array(0.25)):
        value = fn(number)
        assert type(value) is float, (name, type(number))
        assert bits(value) == bits(fn(np.array([0.25])))[0], name
    for array in ([0.25, 0.5], np.array([[0.1, 0.25, 0.5], [0.6, 0.75, 0.9]])):
        value = fn(array)
        assert type(value) is np.ndarray and value.shape == np.shape(array), (name, np.shape(array))


# -- overflow deep in the lower tail is silent ------------------------------


@pytest.mark.parametrize("beta", [0.5, 1e308])
@pytest.mark.parametrize("exponent", [frechet(1.0), weibull(1.0), gumbel()], ids=lambda e: e.family.value)
def test_lower_tail_overflow_gives_the_ieee_limit_without_a_warning(exponent, beta):
    # psi(x) is near the float maximum here, so n * (-log F), beta * log1p(psi)
    # and 2 * psi overflow; each d.f. is the value of its formula in IEEE
    # arithmetic, where an overflowed term is inf, but ggamma-mid's, which
    # takes log1p(beta * log1p(psi)) from logs where the product overflows
    x = {Family.FRECHET: 1e-308, Family.WEIBULL: -1e308, Family.GUMBEL: -709.0}[exponent.family]
    s = reference_psi(exponent, np.array([x]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lt = lt_ggamma(beta, exponent.eval(x))
    with np.errstate(over="ignore"):
        assert bits(lt) == bits(KINDS[LawKind.GGAMMA_MID].cdf(s, beta)[0])
    for law in (base_law(exponent), g_mid(exponent), gamma_mid(beta, exponent), ggamma_mid(beta, exponent)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = {
                "cdf": law.cdf(x),
                "cdf of an array": law.cdf([x])[0],
                "neg_log_cdf": law.neg_log_cdf(x),
                "n_max_cdf": n_max_cdf(law, 2, x),
                "ep_marginal_cdf": ep_marginal_cdf(ExtremalSpec(law), 2.0, [x])[0],
                "geo_max_cdf": geo_max_cdf(law, 0.5, x),
                "ks_one_sample": ks_one_sample([x], law).statistic,
            }
            if law.kind is LawKind.GMID:
                got["scale_exponent"] = scale_exponent(expr_from_law(law), 2.0).cdf([x])[0]
        with np.errstate(over="ignore"):
            f = KINDS[law.kind].cdf(s, law.beta)[0]
            neg_log = KINDS[law.kind].neg_log(s, law.beta)[0]
            expected = {
                "cdf": f,
                "cdf of an array": f,
                "neg_log_cdf": neg_log,
                "n_max_cdf": np.exp(-(2.0 * neg_log)),
                "ep_marginal_cdf": np.exp(-(2.0 * neg_log)),
                "geo_max_cdf": 0.5 * f / (1.0 - 0.5 * f),
                "ks_one_sample": max(1.0 - f, f),
                "scale_exponent": (1.0 / (1.0 + 2.0 * s))[0],
            }
        for name, value in got.items():
            assert bits(value) == bits(expected[name]), (law, name)
