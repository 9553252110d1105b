"""Whole-array, out-of-place references that tests hold the package to.

Each reference reads the generator in its sampler's stream order but
draws every variate of a call at once and allocates each step's result,
so a sampler that draws by blocks (block seams) or reuses buffers
(aliasing) must equal it bit for bit.  Past uniform_open, the open
uniforms every sampler starts from, no reference calls a sampler, d.f.
or kind record of the package: each family's psi and inverse and each
kind's s(w), F(s) and -log F(s) are written here, once.

The stream order of each public sampler:

- sample_inverse, and the maximum of k draws inside every sampler
  (reference_sample_max): n open uniforms, as one uniform_open call
  (exactly n draws, an exact 0 read as 2**-54); each u becomes
  w = -log u, w / k, s(w), the inverse exponent, and where that is the
  support bottom, the smallest point inside it.
- sample_latent: n mixing times (reference_mixing), then n base-law
  draws with k = those times.  compound_simulate reads the same: the
  gamma subordinator's times are gamma-mid's mixing times at shape t,
  the unit-time ggamma's ggamma-mid's at shape beta.
- mixing times: g-mid's are n standard exponentials, gamma-mid's one
  standard_gamma(beta, n), ggamma-mid's (sample_ggamma) n shapes beta * E
  of standard exponentials E, then one standard_gamma over the n shapes
  (a shape that underflowed to 0.0 gives 0.0 and reads nothing).
- ep_simulate_ensemble: grid-major, one base-law draw per increment with
  k its interval length, then a running max along the grid; exactly one
  uniform per increment, so the blocks of grid rows read it as one call.
- ar1_simulate: n - 1 reset uniforms (one rng.random; u < p resets),
  X_0 as one marginal draw, then n - 1 innovations.  Two recursions read
  them: a Python loop of ar1_step, and one doubling scan of the whole
  chain by the steps since the last reset (the sampler scans a block at
  a time by its reset flags).
- ar1_ensemble: n open uniforms of X_0; for lag >= 1, n look-back counts
  G = max(1, ceil(E / -log1p(-p))) of standard exponentials E; then the
  maximum of k = min(G, lag) innovations, the lag taken as a float64,
  which X_0's marginal draw joins where G > lag.  At lag 0 the call is
  the marginal draws of X_0 alone.
"""

import math
import sys
from typing import Callable, NamedTuple

import numpy as np

from maxdiv import Family, LawKind, base_law, frechet, g_mid, gamma_mid, ggamma_mid, gumbel, uniform_open, weibull


def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


def every_law(alpha):
    """Every kind x family; ggamma_mid(0.5) parks ~0.3% of its draws on the smallest inside point."""
    return [
        make(exponent)
        for exponent in (frechet(alpha), weibull(alpha), gumbel())
        for make in (base_law, g_mid, lambda e: gamma_mid(2.0, e), lambda e: ggamma_mid(0.5, e))
    ]


# -- closed forms --------------------------------------------------------------


def reference_psi(exponent, x):
    """psi(x) as a 1-d array: the formula, then the limit value outside the support."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if exponent.family is Family.FRECHET:
            return np.where(x <= 0, np.inf, np.abs(x) ** -exponent.alpha)
        if exponent.family is Family.WEIBULL:
            return np.where(x >= 0, 0.0, np.abs(x) ** exponent.alpha)
        return np.abs(np.exp(-x))


def reference_inverse(exponent, s):
    """The x with psi(x) = s; s = inf gives the support bottom."""
    if exponent.family is Family.FRECHET:
        return s ** (-1.0 / exponent.alpha)
    if exponent.family is Family.WEIBULL:
        return -(s ** (1.0 / exponent.alpha))
    with np.errstate(divide="ignore"):
        return -np.log(s)


def min_inside(exponent):
    """The smallest x inside the support whose exponent is finite."""
    with np.errstate(over="ignore"):
        x = float(reference_inverse(exponent, np.asarray(np.finfo(float).max)))
    while not np.isfinite(reference_psi(exponent, x)[0]):
        x = np.nextafter(x, np.inf)
    return x


def _ggamma(s, b, cdf):
    """ggamma-mid's F (cdf) or -log F at s.  Where y = b*log1p(s)
    overflows while log1p(s) is finite, -log F = log1p(y) is taken as
    log(b) + log(log1p(s)) and F as exp of minus that."""
    log1p_s = np.log1p(s)
    y = b * log1p_s
    with np.errstate(divide="ignore"):
        log_y = np.log(b) + np.log(log1p_s)
    deep = np.isinf(y) & np.isfinite(log1p_s)
    if cdf:
        return np.where(deep, np.exp(-log_y), 1.0 / (1.0 + y))
    return np.where(deep, log_y, np.log1p(y))


class Kind(NamedTuple):
    """A law kind as functions of s = psi(x) and the shape b."""

    s_of_w: Callable  # (w, b) -> the s at which -log F = w
    cdf: Callable  # (s, b) -> F
    neg_log: Callable  # (s, b) -> -log F


KINDS = {
    LawKind.BASE: Kind(lambda w, b: w, lambda s, b: np.exp(-s), lambda s, b: s),
    LawKind.GMID: Kind(lambda w, b: np.expm1(w), lambda s, b: 1.0 / (1.0 + s), lambda s, b: np.log1p(s)),
    LawKind.GAMMA_MID: Kind(lambda w, b: np.expm1(w / b), lambda s, b: np.exp(-b * np.log1p(s)), lambda s, b: b * np.log1p(s)),
    LawKind.GGAMMA_MID: Kind(lambda w, b: np.expm1(np.expm1(w) / b), lambda s, b: _ggamma(s, b, True), lambda s, b: _ggamma(s, b, False)),
}


# -- samplers ----------------------------------------------------------------


def reference_sample_max(law, rng, n, k=None):
    """-log(uniform_open) -> /k -> s_of_w -> inverse -> nudge, out of place."""
    w = -np.log(uniform_open(rng, n))
    with np.errstate(over="ignore", divide="ignore"):
        if k is not None:
            w = w / k
        x = reference_inverse(law.exponent, KINDS[law.kind].s_of_w(w, law.beta))
    collapsed = x == law.exponent.support().lower
    return np.where(collapsed, min_inside(law.exponent), x) if np.any(collapsed) else x


def reference_mixing(law, rng, n):
    """n latent mixing times of law's kind (sample_ggamma's for ggamma-mid)."""
    if law.kind is LawKind.GMID:
        return rng.standard_exponential(n)
    if law.kind is LawKind.GAMMA_MID:
        return rng.standard_gamma(law.beta, n)
    with np.errstate(over="ignore"):
        shape = law.beta * rng.standard_exponential(n)
    return rng.standard_gamma(shape, n)


def reference_ep_ensemble(spec, times, rng, n):
    """Every increment at once, grid-major, then a running max along the grid."""
    dt = np.diff(times, prepend=0.0)
    jumps = reference_sample_max(spec.base, rng, dt.size * n, np.repeat(dt, n)).reshape(dt.size, n)
    return np.maximum.accumulate(jumps, axis=0).T


def _innovation_law(spec, innovation_beta):
    return ggamma_mid(spec.innovation_beta if innovation_beta is None else innovation_beta, spec.exponent)


def ar1_step(x_prev, innovation, u, p):
    """One transition; u is the branch uniform (u < p means reset)."""
    if u < p:
        return float(innovation)
    return float(max(x_prev, innovation))


def ar1_simulate_draws(spec, n_steps, rng, innovation_beta=None):
    """ar1_simulate's draws: the reset uniforms, and X_0 followed by the innovations."""
    u = rng.random(n_steps - 1)
    x0 = reference_sample_max(spec.marginal_law(), rng, 1)
    eps = reference_sample_max(_innovation_law(spec, innovation_beta), rng, n_steps - 1) if n_steps > 1 else []
    return u, np.concatenate((x0, eps))


def ar1_by_steps(spec, n_steps, rng, innovation_beta=None):
    """ar1_simulate's draws, then the recursion as written, one ar1_step at a time."""
    u, x = ar1_simulate_draws(spec, n_steps, rng, innovation_beta)
    for i in range(1, n_steps):
        x[i] = ar1_step(x[i - 1], x[i], u[i - 1], spec.p)
    return x


def reference_ar1_simulate(spec, n_steps, rng, innovation_beta=None):
    """ar1_simulate's draws, then one doubling scan of the whole chain by
    the steps since the last reset: the pass with step s takes x[i - s]
    where no reset lies in the last s steps, unless x[i] > x[i - s]."""
    u, x = ar1_simulate_draws(spec, n_steps, rng, innovation_beta)
    steps = np.arange(n_steps)
    since = steps - np.maximum.accumulate(np.where(np.concatenate(([True], u < spec.p)), steps, 0))
    step = 1
    while step <= since.max():
        take = (since[step:] >= step) & ~(x[step:] > x[:-step])
        x[step:] = np.where(take, x[:-step], x[step:])
        step *= 2
    return x


def reference_ar1_ensemble(spec, lag, rng, n, innovation_beta=None):
    x0 = reference_sample_max(spec.marginal_law(), rng, n)
    if lag == 0:
        return x0
    back = np.maximum(np.ceil(rng.standard_exponential(n) / -math.log1p(-spec.p)), 1.0)
    lag = float(min(lag, sys.float_info.max))
    x = reference_sample_max(_innovation_law(spec, innovation_beta), rng, n, np.minimum(back, lag))
    return np.where(back > lag, np.maximum(x, x0), x)


# -- samplers equal in law, not in bits --------------------------------------


def lockstep_ar1_ensemble(spec, lag, rng, n_chains, innovation_beta=None):
    """X_lag of n_chains chains advanced together, one transition per lag."""
    x = reference_sample_max(spec.marginal_law(), rng, n_chains)
    innovation = _innovation_law(spec, innovation_beta)
    for _ in range(lag):
        u = rng.random(n_chains)
        eps = reference_sample_max(innovation, rng, n_chains)
        x = np.where(u < spec.p, eps, np.maximum(x, eps))
    return x


def geo_max_by_counts(law, p, rng, n):
    """geo_max_sample's former route: N ~ geometric(p) per output, then
    the max of N inner draws (about n/p draws in all)."""
    counts = rng.geometric(p, n)
    draws = reference_sample_max(law, rng, int(counts.sum()))
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    return np.maximum.reduceat(draws, starts)
