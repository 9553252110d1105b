"""Dependence: what the max-AR(1) chain's steps and the extremal
process's grid points keep of each other.

X_k = X_{k-1} exactly when step k is not a reset and the innovation
falls below X_{k-1}.  Stationarity gives F_eps = F/(p + (1-p)F), so

    P(X_k = X_{k-1}) = (1-p) * int_0^1 u/(p + (1-p)u) du = 1 + p log p/(1-p),

for every continuous stationary chain, whatever its marginal.

Each X_k is at least eps_k and at most max(X_0, eps_1..eps_k), so the
maximum M_m of X_0..X_m is max(X_0, eps_1..eps_m), whatever the resets:

    P(M_m <= x) = F(x) * F_eps(x)**m,

where m + 1 independent values would give F(x)**(m + 1).

Looking back from step k, the last reset is g <= k steps back with
probability p*(1-p)**(g-1), and then X_k is the maximum of g
innovations, independent of X_0; with no reset X_k is max(X_0,
eps_1..eps_k).  So the lag-k joint d.f. is

    P(X_0 <= x, X_k <= y) = (1-p)**k F(min(x, y)) F_eps(y)**k
                            + F(x) * sum_{g=1..k} p (1-p)**(g-1) F_eps(y)**g.

In the upper tail -log F_eps / -log F -> p, so P(M_m <= u) is about
F(u)**(1 + p*m) there: the chain's extremal index is theta = p, the
reciprocal of the mean length of a run of high values (Alpuim, J. Appl.
Probab. 26, 1989).

An extremal path at s < t is Y(t) = max(Y(s), J) with J independent of
Y(s) and of law F**(t - s), so

    P(Y(s) <= x, Y(t) <= y) = F(min(x, y))**s * F(y)**(t - s).
"""

import math
from functools import lru_cache

import numpy as np
import pytest

from maxdiv import (
    Ar1Spec,
    ExtremalSpec,
    RandomSource,
    ar1_simulate,
    base_law,
    ep_simulate_ensemble,
    frechet,
    g_mid,
    ggamma_mid,
    gumbel,
    innovation_cdf_from_marginal,
    ks_one_sample,
    weibull,
)

TIE_STEPS = 10**6
TIE_Z = 4.0  # nine cells: a false alarm about once in 1,700 seeds


def tie_rate(p):
    return 1.0 + p * np.log(p) / (1.0 - p)


def tie_variance(p):
    """Asymptotic variance per step of the tie count of a chain.

    Ties are correlated, but the chain starts afresh at each reset: the
    stretches between resets are i.i.d., of length L ~ geometric(p).  In
    a stretch of length L every step ties but the records of its L
    innovations, so its tie count is C = L - R with R a sum of
    independent Bernoulli(1/i), i <= L.  Over m steps the count minus
    r*m sums C - r*L over ~p*m stretches, so its variance is
    m * p * Var(C - r*L), where, with H_L = sum 1/i and H2_L = sum 1/i**2,

        Var(C - r*L) = (1-r)**2 Var(L) - 2(1-r) Cov(L, H_L)
                       + E[H_L - H2_L] + Var(H_L).

    The sums over L run until (1-p)**L is far below double precision.
    """
    length = np.arange(1.0, 20_001.0)
    weight = p * (1.0 - p) ** (length - 1.0)  # P(L = length)
    h, h2 = np.cumsum(1.0 / length), np.cumsum(1.0 / length**2)
    r = tie_rate(p)
    mean_h = weight @ h
    var_h = weight @ h**2 - mean_h**2
    cov_lh = weight @ (length * h) - mean_h / p
    var_r = weight @ (h - h2) + var_h
    return p * ((1.0 - r) ** 2 * (1.0 - p) / p**2 - 2.0 * (1.0 - r) * cov_lh + var_r)


def test_tie_variance_matches_its_binomial_limit():
    # at p -> 1 ties are rare and nearly independent: r(1 - r) per step;
    # at p = 0.5 stretches of ties add to it
    assert tie_variance(0.999) == pytest.approx(tie_rate(0.999) * (1 - tie_rate(0.999)), rel=2e-3)
    assert tie_variance(0.5) > 1.2 * tie_rate(0.5) * (1 - tie_rate(0.5))


@pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("stream, exponent", enumerate([frechet(1.0), weibull(2.0), gumbel()]), ids=["frechet", "weibull", "gumbel"])
def test_chain_ties_its_last_value_at_the_reset_rate(p, stream, exponent):
    """The share of steps with X_k == X_{k-1} over one chain of 10**6
    steps is 1 + p log p/(1-p), and a chain whose p were off by 0.01
    would be rejected: that moves the rate by about 15 to 27 standard
    errors.

    This checks the resets and the scan's ties, not the marginal: every
    continuous stationary chain ties at this rate, whatever its marginal
    or innovation law, so a wrong beta or family passes here (the
    beta/p control moves the rate only through X_0's transient).  On
    one seed every family ties at the same steps, since ties depend only
    on the order of the draws, so each family takes a stream of its own.
    """
    spec = Ar1Spec(p, 2.0, exponent)
    chain = ar1_simulate(spec, TIE_STEPS + 1, RandomSource(3, 60 + stream).generator())
    observed = np.count_nonzero(chain[1:] == chain[:-1]) / TIE_STEPS

    def z(q):
        return (observed - tie_rate(q)) / np.sqrt(tie_variance(q) / TIE_STEPS)

    assert abs(z(p)) < TIE_Z, (observed, tie_rate(p))
    assert min(abs(z(p - 0.01)), abs(z(p + 0.01))) > TIE_Z, observed


PATH_M = 20
PATH_BLOCKS = 20_000


@lru_cache(maxsize=3)  # the three p of the tests below
def stretch_maxima(p):
    """The chain's spec and the maxima of PATH_BLOCKS stretches of
    PATH_M + 1 values, g steps apart in one long chain."""
    gap = int(np.ceil(np.log(1e-15) / np.log1p(-p)))
    spec = Ar1Spec(p, 1.0, frechet(1.0))
    chain = ar1_simulate(spec, PATH_BLOCKS * (PATH_M + 1 + gap), RandomSource(7, 70).generator())
    return spec, chain.reshape(PATH_BLOCKS, -1)[:, : PATH_M + 1].max(axis=1)


@pytest.mark.parametrize("p", [0.2, 0.5, 0.9])
def test_a_stretch_maximum_follows_the_marginal_times_m_innovations(p):
    """The maximum of m + 1 = 21 consecutive values follows F * F_eps**m
    within the 1% KS band (0.0115 at 20,000 maxima), and not F**(m + 1),
    the law of 21 independent values: here they read 0.0048, 0.0064 and
    0.0061 against F * F_eps**m, and 0.48, 0.23 and 0.040 against
    F**(m + 1), at p = 0.2, 0.5 and 0.9.

    The maxima come from blocks of m + 1 values of one long chain, g
    steps apart: a reset in the gap makes the next block independent of
    the last, and (1 - p)**g < 1e-15 is the chance that none happens.
    F_eps is solved from the marginal through the stationarity equation,
    not taken from the innovation law the sampler draws.  The three
    cases take about 0.3 s, most of it the 3.5 * 10**6-step chain at
    p = 0.2.
    """
    spec, maxima = stretch_maxima(p)
    law = spec.marginal_law()

    def path_max_cdf(x):
        f = law.cdf(x)
        return f * innovation_cdf_from_marginal(f, p) ** PATH_M

    report = ks_one_sample(maxima, path_max_cdf)
    assert report.passed, report
    assert not ks_one_sample(maxima, lambda x: law.cdf(x) ** (PATH_M + 1)).passed


@pytest.mark.parametrize("p", [0.01, 0.2, 0.5, 0.9])
@pytest.mark.parametrize("exponent", [frechet(1.0), weibull(2.0), gumbel()], ids=["frechet", "weibull", "gumbel"])
def test_the_innovation_tail_is_p_times_the_marginal_tail(p, exponent):
    """-log F_eps / -log F -> p as F -> 1.

    In w = -log F, stationarity gives -log F_eps = w + log1p((1-p)
    expm1(-w)) = p*w*(1 + (1-p)*w/2 + O(w**2)).  The ratio is taken
    through neg_log_cdf at the quantiles with w = 0.1 down to 1e-15,
    where F itself rounds to 1: its relative excess over p falls with w,
    stays within [0, w] and ends at rounding.  The innovation law the
    samplers draw, ggamma-mid at shape p*beta, is that solved -log F_eps
    to 1e-13.
    """
    spec = Ar1Spec(p, 2.0, exponent)
    law = spec.marginal_law()
    x = law.quantile(np.exp(-(10.0 ** -np.arange(1, 16))))
    w = law.neg_log_cdf(x)
    w_eps = ggamma_mid(spec.innovation_beta, exponent).neg_log_cdf(x)
    np.testing.assert_allclose(w_eps, w + np.log1p((1 - p) * np.expm1(-w)), rtol=1e-13)
    excess = w_eps / (p * w) - 1
    assert np.all((excess >= 0) & (excess <= w)) and np.all(np.diff(excess) <= 0), excess
    assert excess[-1] < 1e-15, excess


THETA_BAND = 0.04


def block_theta(maxima, law):
    """The block-maxima estimate of the extremal index at u, the 0.7
    quantile of the maxima: P(M_m <= u) = F(u)**(1 + theta*m), solved
    for theta with the maxima's empirical d.f. at u."""
    u = np.quantile(maxima, 0.7)
    return (-np.log(np.mean(maxima <= u)) / law.neg_log_cdf(u) - 1.0) / PATH_M


@pytest.mark.parametrize("p", [0.2, 0.5, 0.9])
def test_block_maxima_recover_the_extremal_index_p(p):
    """The stretch maxima give theta within 0.04 of p, and m + 1
    independent values, theta = 1, do not.

    X_0 heads each stretch, so its F(u) is taken out: m + 1 values of
    extremal index theta would give F(u)**((m + 1)*theta) instead.  At
    the 0.7 quantile of the maxima, w = -log F(u) is 0.36/(1 + p*m),
    where theta reads p*(1 + (1-p)*w/2), at most 0.006 above p.  Over
    seeds 7..16 the estimate spread with a standard deviation of 0.003,
    0.005 and 0.013 at p = 0.2, 0.5 and 0.9, and independent blocks read
    1 within 0.03.  Here the chains read 0.206, 0.502 and 0.898, and the
    independent blocks 0.998.
    """
    spec, maxima = stretch_maxima(p)
    law = spec.marginal_law()
    theta = block_theta(maxima, law)
    assert abs(theta - p) < THETA_BAND, theta
    iid = law.sample_inverse(RandomSource(7, 71).generator(), maxima.size * (PATH_M + 1))
    theta_iid = block_theta(iid.reshape(maxima.size, -1).max(axis=1), law)
    assert abs(theta_iid - 1.0) < THETA_BAND, theta_iid
    assert abs(theta_iid - p) > THETA_BAND, theta_iid


JOINT_PAIRS = 20_000
JOINT_LEVELS = (0.2, 0.4, 0.6, 0.8)  # marginal quantiles: 5 x 5 cells
JOINT_ALPHA = 1e-3  # per case, fixed before any run


def lag_joint_cdf(f_x, f_y, p, k):
    """P(X_0 <= x, X_k <= y) from the marginal d.f. values F(x) and F(y)."""
    q = 1.0 - p
    f_eps = innovation_cdf_from_marginal(f_y, p)
    looks_back = sum(p * q ** (g - 1) * f_eps**g for g in range(1, k + 1))
    return q**k * np.minimum(f_x, f_y) * f_eps**k + f_x * looks_back


def chi2_sf_even(x, df):
    """P(chi2_df > x) for an even df: a Poisson(x/2) count below df/2."""
    return math.exp(-x / 2) * sum((x / 2) ** j / math.factorial(j) for j in range(df // 2))


def cell_p_value(pairs, law, edges, joint_cdf):
    """Pearson's chi-square p-value of pairs over the 5 x 5 cells between
    the edges, each cell's probability from joint_cdf(F(x), F(y)) at its
    corners by inclusion-exclusion; 0 if a pair falls in a cell of
    probability 0."""
    f = np.concatenate(([0.0], law.cdf(edges), [1.0]))
    cells = np.diff(np.diff(joint_cdf(f[:, None], f[None, :]), axis=0), axis=1)
    size = len(edges) + 1
    index = np.searchsorted(edges, pairs[:, 0]) * size + np.searchsorted(edges, pairs[:, 1])
    observed = np.bincount(index, minlength=size * size).reshape(size, size)
    possible = cells > 0
    if observed[~possible].any():
        return 0.0
    expected = len(pairs) * cells[possible]
    return chi2_sf_even(float(np.sum((observed[possible] - expected) ** 2 / expected)), possible.sum() - 1)


@pytest.mark.parametrize("p, k, stream", [(0.2, 1, 72), (0.2, 3, 73), (0.5, 1, 74), (0.5, 3, 75)])
def test_lag_k_pairs_follow_the_joint_law(p, k, stream):
    """Pairs (X_0, X_k) fall in 5 x 5 marginal-quantile cells as the
    lag-k joint d.f. says, and pairs of independent marginal draws,
    with the same marginals, do not.

    The pairs come from one chain, k + g steps apart: a reset among the
    g steps between two pairs makes them independent, and (1-p)**g <
    1e-15 is the chance that none happens.  The level 1e-3 of each case
    was fixed before any run.  Here the chains read p-values of 0.50 to
    0.76 (0.002 to 0.90 over seeds 0..9), and the independent pairs
    below 1e-33; the joint law of lag k + 1, or beta/p innovations, put
    the chains below 1e-15.
    """
    gap = int(np.ceil(np.log(1e-15) / np.log1p(-p)))
    spec = Ar1Spec(p, 1.0, frechet(1.0))
    law = spec.marginal_law()
    chain = ar1_simulate(spec, JOINT_PAIRS * (k + gap), RandomSource(7, stream).generator())
    pairs = chain.reshape(JOINT_PAIRS, -1)[:, [0, k]]
    edges = law.quantile(np.array(JOINT_LEVELS))

    def joint_cdf(f_x, f_y):
        return lag_joint_cdf(f_x, f_y, p, k)

    assert cell_p_value(pairs, law, edges, joint_cdf) > JOINT_ALPHA
    independent = law.sample_inverse(RandomSource(7, stream + 4).generator(), 2 * JOINT_PAIRS).reshape(-1, 2)
    assert cell_p_value(independent, law, edges, joint_cdf) < JOINT_ALPHA


# Paths on two grid points in as many row blocks: one block's grid row is
# at most _BLOCK // n wide, so with more than 2**15 paths each point is a
# block of its own, and Y(t) is Y(s) carried into the next block.
PATH_PAIRS = 40_000


def path_joint_cdf(s, t):
    """P(Y(s) <= x, Y(t) <= y) = F(min(x, y))**s * F(y)**(t - s), s < t,
    from F(x) and F(y): Y(t) is the maximum of Y(s) and an independent
    max-increment of law F**(t - s)."""
    return lambda f_x, f_y: np.minimum(f_x, f_y) ** s * f_y ** (t - s)


@pytest.mark.parametrize(
    "law, s, t, stream",
    [(g_mid(frechet(1.0)), 1.0, 2.0, 80), (ggamma_mid(0.5, weibull(1.7)), 0.5, 3.0, 81), (base_law(gumbel()), 0.2, 0.25, 82)],
    ids=["g-mid-frechet-1-2", "ggamma-mid-weibull-0.5-3", "base-gumbel-0.2-0.25"],
)
def test_extremal_path_pairs_follow_the_joint_law(law, s, t, stream):
    """Pairs (Y(s), Y(t)) of extremal paths fall in 5 x 5 cells as the
    joint d.f. says, and pairs of independent paths' Y(s) and Y(t), with
    the same marginals, do not.

    The edges are the quantiles of F**((s + t)/2), one set for both
    coordinates, so the cells below the diagonal, where Y(s) > Y(t),
    have probability 0: the chi-square runs over the other 15, and one
    pair in such a cell fails the case.  The level 1e-3 of each case was
    fixed before any run, as for the chain's lag-k pairs.  Here the
    paths read p-values of 0.036, 0.79 and 0.35 (0.036 to 0.96 over seeds
    0..9), and the independent pairs 0: some fall below the diagonal.
    """
    spec = ExtremalSpec(law)
    pairs = ep_simulate_ensemble(spec, [s, t], RandomSource(7, stream).generator(), PATH_PAIRS)
    edges = law.quantile(np.array(JOINT_LEVELS) ** (2 / (s + t)))
    assert cell_p_value(pairs, law, edges, path_joint_cdf(s, t)) > JOINT_ALPHA
    other = ep_simulate_ensemble(spec, [s, t], RandomSource(7, stream + 10).generator(), PATH_PAIRS)
    independent = np.column_stack((pairs[:, 0], other[:, 1]))
    assert cell_p_value(independent, law, edges, path_joint_cdf(s, t)) < JOINT_ALPHA


INTERVALS_STEPS = 10**6
INTERVALS_TAIL = 0.02  # the marginal's upper tail beyond the threshold
INTERVALS_BAND = 0.03  # fixed before any run


def intervals_theta(x, u):
    """Ferro and Segers' intervals estimator of the extremal index from
    the gaps T between the exceedances of u (J. R. Stat. Soc. B 65, 2003):
    2 (sum T)**2 / ((N - 1) sum T**2) if no gap exceeds 2, else the same
    of T - 1 over (N - 1) sum (T - 1)(T - 2); at most 1."""
    gaps = np.diff(np.flatnonzero(x > u)).astype(float)
    if gaps.max() <= 2:
        theta = 2 * gaps.sum() ** 2 / (gaps.size * np.sum(gaps**2))
    else:
        theta = 2 * np.sum(gaps - 1) ** 2 / (gaps.size * np.sum((gaps - 1) * (gaps - 2)))
    return min(1.0, theta)


@pytest.mark.parametrize("p", [0.2, 0.5, 0.9])
def test_exceedance_gaps_recover_the_extremal_index_p(p):
    """The intervals estimator over one chain of 10**6 steps reads theta
    within 0.03 of p, and an i.i.d. sequence of the same marginal reads 1
    within 0.03, with no block length to choose.  The threshold, the
    marginal's 0.98 quantile, gives ~20,000 p clusters.  The band was
    fixed before any run.  Here the chains read 0.199, 0.497 and 0.903
    (standard deviations 0.004 to 0.006 over seeds 7..16), and the i.i.d.
    sequence 0.996.
    """
    spec = Ar1Spec(p, 1.0, frechet(1.0))
    law = spec.marginal_law()
    u = law.quantile(1.0 - INTERVALS_TAIL)
    chain = ar1_simulate(spec, INTERVALS_STEPS, RandomSource(7, 90).generator())
    assert abs(intervals_theta(chain, u) - p) < INTERVALS_BAND
    iid = law.sample_inverse(RandomSource(7, 91).generator(), INTERVALS_STEPS)
    theta_iid = intervals_theta(iid, u)
    assert abs(theta_iid - 1.0) < INTERVALS_BAND and abs(theta_iid - p) > INTERVALS_BAND, theta_iid
