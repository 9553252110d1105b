"""Whole-array, out-of-place references that tests hold the samplers to.

Each reference reads the generator in the sampler's stream order but
draws every variate of a call at once and allocates each step's result,
so a sampler that draws by blocks (block seams) or works in buffers it
reuses (aliasing) must equal it bit for bit.

reference_sample_max(law, rng, n, k): n open uniforms (uniform_open,
whose exact zeros are redrawn after the whole array), each turned into
one draw of F**k: w = -log u, w / k, the kind's s(w), the inverse
exponent, and the smallest point inside the support where that lands on
the bottom.

reference_ar1_ensemble(spec, lag, rng, n): the stream order of
ar1_ensemble, which is, in order,
  1. n open uniforms of X_0 (one uniform_open call);
  2. for lag >= 1, n look-back counts G = max(1, ceil(E / -log1p(-p)))
     from n standard exponential variates E;
  3. one reference_sample_max of the innovation law with
     k = min(G, lag), the lag compared and taken as a float64.
X_0's uniforms become stationary marginal draws, and X_0 joins the
innovations' maximum where G > lag.  At lag 0 the call is step 1 alone,
the marginal draws.
"""

import math
import sys

import numpy as np

from maxdiv import LawKind, ggamma_mid
from maxdiv.exponents import Family
from maxdiv.rng import uniform_open

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


def min_inside(exponent):
    """The smallest x inside the support whose exponent is finite."""
    with np.errstate(over="ignore"):
        x = float(_inverse(exponent, np.asarray(np.finfo(float).max)))
    while not np.isfinite(exponent.eval(x)):
        x = np.nextafter(x, np.inf)
    return x


def reference_sample_max(law, rng, n, k=None):
    """-log(uniform_open) -> /k -> s_of_w -> inverse -> nudge, out of place."""
    w = -np.log(uniform_open(rng, n))
    with np.errstate(over="ignore", divide="ignore"):
        if k is not None:
            w = w / k
        x = _inverse(law.exponent, _S_OF_W[law.kind](w, law.beta))
    collapsed = x == law.exponent.support().lower
    return np.where(collapsed, min_inside(law.exponent), x) if np.any(collapsed) else x


def reference_ar1_ensemble(spec, lag, rng, n, innovation_beta=None):
    x0 = reference_sample_max(spec.marginal_law(), rng, n)
    if lag == 0:
        return x0
    back = np.maximum(np.ceil(rng.standard_exponential(n) / -math.log1p(-spec.p)), 1.0)
    lag = float(min(lag, sys.float_info.max))
    beta = spec.innovation_beta if innovation_beta is None else innovation_beta
    x = reference_sample_max(ggamma_mid(beta, spec.exponent), rng, n, np.minimum(back, lag))
    return np.where(back > lag, np.maximum(x, x0), x)
