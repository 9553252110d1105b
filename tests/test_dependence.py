"""The max-AR(1) chain's dependence: what one step keeps of the last.

X_k = X_{k-1} exactly when step k is not a reset and the innovation
falls below X_{k-1}.  Stationarity gives F_eps = F/(p + (1-p)F), so

    P(X_k = X_{k-1}) = (1-p) * int_0^1 u/(p + (1-p)u) du = 1 + p log p/(1-p),

for every continuous stationary chain, whatever its marginal.
"""

import numpy as np
import pytest

from maxdiv import Ar1Spec, RandomSource, ar1_simulate, frechet, gumbel, weibull

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
