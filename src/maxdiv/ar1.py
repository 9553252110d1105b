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

Neither sampler steps the recursion one value at a time.  Between two
resets the chain is the running maximum of the innovations since the
last reset, X_0 heading the stretch before the first one, so a whole
chain is a segmented running maximum (ar1_simulate).  For a single
lag L, look back from step L: each step was a reset with probability
p, independently, so the number of steps back to the last reset is
G ~ geometric(p) on {1, 2, ...}.  If G <= L, X_L is the maximum of
the G innovations since that reset; if G > L, no reset happened and
X_L is the maximum of X_0 and all L innovations.  Either way X_L is
the maximum of k = min(G, L) innovations, joined by X_0 when G > L,
and the maximum of k i.i.d. innovations is one quantile of F_eps**k
(ar1_ensemble).  X_0's uniforms are drawn first, for every chain, but
turned into marginal draws only where G > L: at p = 0.2 and L = 100
that is ~2e-10 of the chains.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from ._checks import positive_finite, positive_integer, probability
from .exponents import Exponent, _as_array, _unwrap
from .laws import MaxLaw, _neg_log, _quantile_w, _sample_max, ggamma_mid
from .rng import uniform_open

__all__ = [
    "Ar1Spec",
    "stationary_innovation_shape",
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
        return stationary_innovation_shape(self.p, self.marginal_beta)

    def marginal_law(self) -> MaxLaw:
        return ggamma_mid(self.marginal_beta, self.exponent)

    def innovation_law(self) -> MaxLaw:
        return ggamma_mid(self.innovation_beta, self.exponent)


def stationary_innovation_shape(p: float, marginal_beta: float) -> float:
    """Innovation shape that makes the chain stationary at marginal_beta."""
    return probability(p) * positive_finite(marginal_beta, "marginal_beta")


def innovation_cdf_from_marginal(marginal_value, p: float):
    """Solve F = p*F_eps + (1-p)*F*F_eps for F_eps given F(x) values."""
    probability(p)
    f, scalar = _as_array(marginal_value)
    if np.any(f < 0.0) or np.any(f > 1.0) or np.any(np.isnan(f)):
        raise ValueError("marginal d.f. values must lie in [0, 1]")
    return _unwrap(f / (p + (1.0 - p) * f), scalar)


def _innovations(spec: Ar1Spec, rng: np.random.Generator, n: int, beta_override: float | None, k=None) -> np.ndarray:
    """n innovation draws, each the maximum of k of them (k = None: one)."""
    beta = spec.innovation_beta if beta_override is None else float(beta_override)
    return _sample_max(ggamma_mid(beta, spec.exponent), rng, n, k)


def _marginal(spec: Ar1Spec, u: np.ndarray) -> np.ndarray:
    """Stationary marginal draws from open uniforms u, in u's buffer."""
    return _quantile_w(spec.marginal_law(), _neg_log(u))


def _segmented_running_max(values: np.ndarray, heads: np.ndarray) -> np.ndarray:
    """Running maximum of values, restarted at every index where heads is set.

    A doubling scan: after the pass with step s, x[i] is the maximum of
    the last 2s values up to i within its segment.  Each pass takes
    x[i - s] into x[i] unless x[i] > x[i - s], so ties keep the earlier
    element (max(-0.0, 0.0) stays -0.0) and a NaN X_0 holds its segment
    to the end, as a step-by-step max(previous, new) does; innovations
    are never NaN.  np.maximum would not do: which zero it returns on a
    +-0 tie is left to the platform.
    """
    idx = np.arange(values.size)
    pos = idx - np.maximum.accumulate(np.where(heads, idx, 0))  # steps since the head
    x = values.copy()
    step, top = 1, pos.max(initial=0)
    while step <= top:
        take = pos[step:] >= step
        take &= ~(x[step:] > x[:-step])
        np.copyto(x[step:], x[:-step], where=take)  # copies the overlapping source first
        step *= 2
    return x


def ar1_simulate(
    spec: Ar1Spec,
    n_steps: int,
    rng: np.random.Generator,
    init: float | None = None,
    innovation_beta: float | None = None,
) -> np.ndarray:
    """A single chain of n_steps values, X_0 included.

    init = None draws X_0 from the stationary marginal; a number fixes
    X_0.  Branch uniforms for the whole chain are drawn first (u < p is
    a reset), then X_0, then the innovations, so equal-seed runs
    reproduce byte for byte.
    """
    n_steps = positive_integer(n_steps, "n_steps")
    u = rng.random(n_steps - 1) if n_steps > 1 else np.empty(0)
    if init is None:
        x0 = float(_sample_max(spec.marginal_law(), rng, None))
    else:
        x0 = float(init)
    eps = _innovations(spec, rng, n_steps - 1, innovation_beta) if n_steps > 1 else np.empty(0)
    values = np.concatenate(([x0], eps))
    heads = np.concatenate(([True], u < spec.p))
    return _segmented_running_max(values, heads)


def ar1_ensemble(
    spec: Ar1Spec,
    lag: int,
    rng: np.random.Generator,
    n_chains: int,
    init: float | None = None,
    innovation_beta: float | None = None,
) -> np.ndarray:
    """X_lag across n_chains independent chains, drawn from its exact law.

    The stream holds, in order: the uniforms of X_0 (only when init is
    None, and X_0 then follows the stationary marginal; a number fixes
    X_0), the look-back G ~ geometric(p) to the last reset, and one draw
    of the maximum of min(G, lag) innovations, which X_0 joins where
    G > lag: at most three variates per chain, whatever the lag.  X_0 is
    read only where G > lag, so its uniforms are turned into marginal
    draws only there; every value is the one that transforming all of
    them would give.
    """
    # index() rejects a float lag, which would become a fractional innovation count
    if operator.index(lag) < 0:
        raise ValueError(f"lag must be >= 0, got {lag}")
    n_chains = positive_integer(n_chains, "n_chains")
    u0 = uniform_open(rng, n_chains) if init is None else None
    if lag == 0:
        return _marginal(spec, u0) if init is None else np.full(n_chains, float(init))
    back = rng.geometric(spec.p, n_chains)
    no_reset = np.flatnonzero(back > lag)
    x = _innovations(spec, rng, n_chains, innovation_beta, k=np.minimum(back, lag, out=back))
    x0 = _marginal(spec, u0[no_reset]) if init is None else float(init)
    x[no_reset] = np.maximum(x[no_reset], x0)
    return x
