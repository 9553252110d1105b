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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import positive_finite, probability, sample_size
from .exponents import Exponent, _as_array, _unwrap
from .laws import MaxLaw, _sample_max, ggamma_mid

__all__ = [
    "Ar1Spec",
    "stationary_innovation_shape",
    "innovation_cdf_from_marginal",
    "ar1_step",
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


def ar1_step(x_prev: float, innovation: float, u: float, p: float) -> float:
    """One transition; u is the branch uniform (u < p means reset)."""
    if not (0.0 <= u < 1.0):
        raise ValueError(f"branch uniform must lie in [0, 1), got {u}")
    # checked inline, not through _checks: ar1_simulate calls this once
    # per step, and a helper call there costs about a fifth of its time
    if not (0.0 < p < 1.0):
        raise ValueError(f"p must lie strictly inside (0, 1), got {p}")
    if u < p:
        return float(innovation)
    return float(max(x_prev, innovation))


def _innovations(spec: Ar1Spec, rng: np.random.Generator, n: int, beta_override: float | None) -> np.ndarray:
    beta = spec.innovation_beta if beta_override is None else float(beta_override)
    return _sample_max(ggamma_mid(beta, spec.exponent), rng, n)


def ar1_simulate(
    spec: Ar1Spec,
    n_steps: int,
    rng: np.random.Generator,
    init: float | None = None,
    innovation_beta: float | None = None,
) -> np.ndarray:
    """A single chain of n_steps values, X_0 included.

    init = None draws X_0 from the stationary marginal; a number fixes
    X_0.  Branch uniforms for the whole chain are drawn first, then the
    innovations, so equal-seed runs reproduce byte for byte.
    """
    sample_size(n_steps, "n_steps")
    u = rng.random(n_steps - 1) if n_steps > 1 else np.empty(0)
    if init is None:
        x0 = float(_sample_max(spec.marginal_law(), rng, None))
    else:
        x0 = float(init)
    eps = _innovations(spec, rng, n_steps - 1, innovation_beta) if n_steps > 1 else np.empty(0)
    out = np.empty(n_steps)
    out[0] = x0
    for k in range(1, n_steps):
        out[k] = ar1_step(out[k - 1], eps[k - 1], u[k - 1], spec.p)
    return out


def ar1_ensemble(
    spec: Ar1Spec,
    lag: int,
    rng: np.random.Generator,
    n_chains: int,
    init: float | None = None,
    innovation_beta: float | None = None,
) -> np.ndarray:
    """X_lag across n_chains independent chains, advanced in lockstep."""
    if lag < 0:
        raise ValueError(f"lag must be >= 0, got {lag}")
    sample_size(n_chains, "n_chains")
    if init is None:
        x = _sample_max(spec.marginal_law(), rng, n_chains)
    else:
        x = np.full(n_chains, float(init))
    for _ in range(lag):
        u = rng.random(n_chains)
        eps = _innovations(spec, rng, n_chains, innovation_beta)
        x = np.where(u < spec.p, eps, np.maximum(x, eps))
    return x
