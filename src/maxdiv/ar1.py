"""First-order max-autoregressive scheme with a stationary target law.

The transition keeps the running maximum with probability 1-p and
restarts from a fresh innovation with probability p:

    X_n = eps_n               with probability p
    X_n = max(X_{n-1}, eps_n) with probability 1-p

The stationary d.f. then satisfies F = p*F_eps + (1-p)*F*F_eps, i.e.
F_eps = F / (p + (1-p)*F).  Because a geometric(p)-max of the
log-compounded law with shape b has shape b/p, the chain is stationary
with marginal shape beta exactly when the innovations carry shape
p*beta.  Innovations with shape beta/p do NOT give a beta-stationary
chain; that variant is kept reachable (innovation_beta override) as a
negative control for the verification harness.

Both samplers draw X_0 from the stationary marginal, so every X_n
follows it, and by one transform of open uniforms (_marginal): a chain
of one step is, to the bit, the lag-0 ensemble of one chain drawn from
the same generator.  Neither steps the recursion one value at a time.
Between two resets the chain is the running maximum of the innovations
since the last reset, X_0 heading the stretch before the first one, so
a whole chain is a segmented running maximum (ar1_simulate).  For a
single lag L, look back from step L: each step was a reset with
probability p, independently, so the number of steps back to the last
reset is G ~ geometric(p) on {1, 2, ...}.  If G <= L, X_L is the
maximum of the G innovations since that reset; if G > L, no reset
happened and X_L is the maximum of X_0 and all L innovations.  Either
way X_L is the maximum of k = min(G, L) innovations, joined by X_0
when G > L, and the maximum of k i.i.d. innovations is one quantile of
F_eps**k (ar1_ensemble).  X_0's uniforms are drawn first, for every
chain, but turned into marginal draws only where G > L: at p = 0.2 and
L = 100 that is ~2e-10 of the chains.

Beside their output both samplers hold a few blocks and little else:
the chain a reset flag per step, as it scans its output a block at a
time; the ensemble a block index and X_0's uniform for each chain with
G > L, as it draws G a block at a time and writes the counts min(G, L)
over X_0's uniforms, whose buffer becomes the output.

G is drawn by one exact inversion for every p, G = max(1,
ceil(E / -log1p(-p))) of an exponential variate E (_geometric; Devroye,
Non-Uniform Random Variate Generation, 1986), and kept as a
float64: the ensemble reads only min(G, L) and whether G > L.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

from ._checks import positive_finite, positive_integer, probability
from .exponents import Exponent, _apply
from .extremal import _running_max
from .laws import _BLOCK, MaxLaw, _neg_log, _quantile_w, _sample_max, ggamma_mid
from .rng import uniform_open

__all__ = [
    "Ar1Spec",
    "innovation_cdf_from_marginal",
    "ar1_simulate",
    "ar1_ensemble",
]


@dataclass(frozen=True)
class Ar1Spec:
    """Reset probability p, stationary marginal shape, tail exponent."""

    p: float
    marginal_beta: float
    exponent: Exponent

    def __post_init__(self) -> None:
        probability(self.p)
        positive_finite(self.marginal_beta, "marginal_beta")

    @property
    def innovation_beta(self) -> float:
        return self.p * self.marginal_beta

    def marginal_law(self) -> MaxLaw:
        return ggamma_mid(self.marginal_beta, self.exponent)


def innovation_cdf_from_marginal(marginal_value, p: float):
    """Solve F = p*F_eps + (1-p)*F*F_eps for F_eps given F(x) values."""
    probability(p)
    return _apply(_innovation_cdf, marginal_value, p)


def _innovation_cdf(f: np.ndarray, p: float) -> np.ndarray:
    if not np.all((f >= 0.0) & (f <= 1.0)):  # NaN included
        raise ValueError("marginal d.f. values must lie in [0, 1]")
    return f / (p + (1.0 - p) * f)


def _innovations(spec: Ar1Spec, rng: np.random.Generator, n: int, beta_override: float | None, k=None, out=None) -> np.ndarray:
    """n innovation draws, each the maximum of k of them (k = None: one),
    into k or out as _sample_max writes them."""
    beta = spec.innovation_beta if beta_override is None else float(beta_override)
    return _sample_max(ggamma_mid(beta, spec.exponent), rng, n, k, out)


def _marginal(spec: Ar1Spec, u: np.ndarray) -> np.ndarray:
    """Stationary marginal draws from open uniforms u, in u's buffer."""
    return _quantile_w(spec.marginal_law(), _neg_log(u))


def ar1_simulate(
    spec: Ar1Spec,
    n_steps: int,
    rng: np.random.Generator,
    *,
    innovation_beta: float | None = None,
) -> np.ndarray:
    """A single chain of n_steps values, X_0 included.

    X_0 follows the stationary marginal, drawn as ar1_ensemble draws
    it.  Branch uniforms for the whole chain are drawn first (u < p is
    a reset), then X_0's uniform, then the innovations, so equal-seed
    runs reproduce byte for byte.  The chain is the running-max scan of
    extremal paths, restarted at each reset, given the flags u >= p.

    The call holds its output, one flag per step and the scan's few
    blocks (1.15 times the output at 10**6 steps, where the whole-chain
    scan held 6.25): the branch uniforms are drawn _BLOCK at a time into
    the output (the same bits as one rng.random(n_steps - 1)) and kept
    only as flags, X_0 and the innovations are drawn over them, and the
    scan runs over one block at a time.  Each block starts at the last
    value of the block before, which is final and heads the block's
    first stretch, so the scan picks the same value of each stretch as
    a whole-chain scan.
    """
    n_steps = positive_integer(n_steps, "n_steps")
    free = np.empty(n_steps, dtype=bool)  # free[i]: step i is no reset; free[0] is not read
    out = np.empty(n_steps)
    for i in range(1, n_steps, _BLOCK):
        np.greater_equal(rng.random(out=out[i : i + _BLOCK]), spec.p, out=free[i : i + _BLOCK])
    out[:1] = _marginal(spec, uniform_open(rng, 1))
    _innovations(spec, rng, n_steps - 1, innovation_beta, out=out[1:])
    for i in range(0, n_steps - 1, _BLOCK):
        _running_max(out[i : i + _BLOCK + 1], free[i : i + _BLOCK + 1])
    return out


# look-back counts drawn per block: 64 KB of float64, which the heap hands
# out again to the next block, where a _BLOCK of them (512 KB) is mapped
# fresh and faulted in every time; an index in a block fits a uint16
_COUNT_BLOCK = 2**13


def _geometric(rng: np.random.Generator, p: float, n: int) -> np.ndarray:
    """n look-back counts G ~ geometric(p) on {1, 2, ...}, as float64.

    G = ceil(E / -log1p(-p)) of exponential variates E, the exact
    inversion P(G > g) = exp(-g * -log1p(-p)) = (1-p)**g, and at least 1,
    which the inversion misses only at E = 0.  A count past float range
    (p subnormal) is inf, past every lag, without an overflow warning.
    """
    g = rng.standard_exponential(n)
    with np.errstate(over="ignore"):
        np.divide(g, -math.log1p(-p), out=g)
    np.ceil(g, out=g)
    return np.maximum(g, 1.0, out=g)


def ar1_ensemble(
    spec: Ar1Spec,
    lag: int,
    rng: np.random.Generator,
    n_chains: int,
    *,
    innovation_beta: float | None = None,
) -> np.ndarray:
    """X_lag across n_chains independent chains, drawn from its exact law.

    The stream holds, in order: the uniforms of X_0, which follows the
    stationary marginal, the look-back G ~ geometric(p) to the last
    reset, and one draw of the maximum of min(G, lag) innovations, which
    X_0 joins where G > lag: at most three variates per chain, whatever
    the lag.  X_0 is read only where G > lag.  So G is drawn
    _COUNT_BLOCK at a time by _geometric; each block keeps the X_0
    uniforms of its chains with G > lag, with their uint16 indices in
    the block, and then writes min(G, lag) over its X_0 uniforms.  That
    buffer receives the draws, and the kept uniforms are turned into
    marginal draws and joined in; every value is the one that
    transforming all of them would give.  Beside the output the call
    holds a few blocks and, where G > lag, 10 bytes per chain: 1.07
    times the output at p = 0.5 and lag 100, 1.54 at p = 0.01, where
    37% of the chains keep X_0.

    Every whole lag >= 0 is accepted.  G and lag are compared as
    float64: lag is read as the nearest float64, or as the largest one
    beyond float range, so lags from 2**53 up are rounded.  A count past
    the lag joins X_0 whatever its size: at p = 1e-300, G is ~1e300 and
    every chain joins X_0 at lag 2**63 - 1, but none at lag 10**400.
    """
    lag = operator.index(lag)  # rejects a float lag: a fractional innovation count
    if lag < 0:
        raise ValueError(f"lag must be >= 0, got {lag}")
    lag = float(min(lag, sys.float_info.max))
    n_chains = positive_integer(n_chains, "n_chains")
    x = uniform_open(rng, n_chains)
    if lag == 0:
        return _marginal(spec, x)
    joins = []  # (block start, indices in the block, X_0 uniforms) of the chains with G > lag
    for i in range(0, n_chains, _COUNT_BLOCK):
        back = _geometric(rng, spec.p, min(_COUNT_BLOCK, n_chains - i))
        block = x[i : i + back.size]
        no_reset = np.flatnonzero(back > lag).astype(np.uint16)
        if no_reset.size:
            joins.append((i, no_reset, block[no_reset]))
        np.minimum(back, lag, out=block)
    x = _innovations(spec, rng, n_chains, innovation_beta, k=x)
    for i, no_reset, u0 in joins:
        block = x[i : i + _COUNT_BLOCK]
        block[no_reset] = np.maximum(block[no_reset], _marginal(spec, u0))
    return x
