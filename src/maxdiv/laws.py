"""Max-infinitely divisible law families built on a tail exponent.

Every law here is defined through its d.f. as a transform of the
exponent value s = psi(x):

    base:       F(x) = exp(-s)
    g-mid:      F(x) = 1/(1+s)
    gamma-mid:  F(x) = (1+s)**-beta
    ggamma-mid: F(x) = 1/(1 + beta*log(1+s))

Each F**(1/n) stays a d.f. for every n, so all four kinds are
max-infinitely divisible.  The g-mid kind is the geometric(p)-max
attractor of the base kind; gamma-mid generalises it with a gamma
shape; ggamma-mid compounds the base kind with a log-transformed gamma
time and is closed under geometric maxima (shape beta -> beta/p).

Two samplers are provided: inverse transform from the quantile, and a
latent-time route X = inverse(psi, -log(U)/T) where T follows the
kind's mixing law (exp(1) for g-mid, gamma(beta) for gamma-mid, the
log-compounded gamma for ggamma-mid).  Both produce the same law, as
each kind's F(s) is the Laplace transform E exp(-s*T) of its mixing
time T (T = 1 for the base kind); the test-suite cross-checks them.

Everything that depends on the kind lives in one record per kind in
_KINDS: -log F and F as functions of s, the inverse map from
w = -log F back to s, and the latent mixing sampler.  No form is
written elsewhere: MaxLaw, the samplers, lt_ggamma, iterate_transform,
scale_exponent, n_max_cdf, geo_max_sample, ep_marginal_cdf,
compound_marginal_cdf and subordinator_marginal look records up, so
adding a kind means adding one record, one LawKind member and a
constructor, plus tests.  A d.f. takes a number or an array through
exponents._apply, which copies it once for the in-place cores below.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from ._checks import open_unit, positive_finite, positive_integer
from .exponents import Exponent, Family, _apply, _min_inside
from .rng import _open

# draws per block of the samplers' loops (_sample_max, sample_ggamma):
# large enough to amortise the per-call cost over long arrays, small
# enough (0.5 MB of float64) that a block's scratch and temporaries stay
# in cache, and a call holds little more than its output
_BLOCK = 2**16

__all__ = [
    "LawKind",
    "MaxLaw",
    "base_law",
    "g_mid",
    "gamma_mid",
    "ggamma_mid",
    "sample_ggamma",
    "lt_ggamma",
    "law_to_dict",
    "law_from_dict",
]


class LawKind(str, Enum):
    BASE = "base"
    GMID = "g-mid"
    GAMMA_MID = "gamma-mid"
    GGAMMA_MID = "ggamma-mid"


@dataclass(frozen=True)
class _Kind:
    """What a law kind is, as functions of s = psi(x) and the shape b.

    Every form overwrites the array it is given and returns it: neg_log
    and cdf get psi(x) in the buffer x was copied into (for the one-sample
    KS test, its sorted copy of the sample), s_of_w gets w in the draws'
    own buffer.  Each form applies the operations of its formula in the
    formula's order, so its results equal the out-of-place formula's
    bit for bit (ggamma-mid's wherever beta*log1p(s) is finite; see
    _ggamma_form).
    """

    neg_log: Callable  # (s, b) -> -log F, with log1p so deep tails do not cancel
    cdf: Callable  # (s, b) -> F in closed form, not exp(-neg_log)
    s_of_w: Callable  # (w, b) -> the s at which -log F = w
    mixing: Callable | None  # (b, rng, n) -> latent mixing times; None if there is none
    shaped: bool = True  # False: beta is pinned to 1
    gmid_scale: float | None = None  # a, when F has the form 1/(1 + a*s)


# mixing entries look sample_ggamma up at call time, so a rebinding of
# the module attribute (such as a call tracer) reaches them too
_KINDS = {
    LawKind.BASE: _Kind(
        neg_log=lambda s, b: s,
        cdf=lambda s, b: np.exp(np.negative(s, out=s), out=s),
        s_of_w=lambda w, b: w,
        mixing=None,
        shaped=False,
    ),
    LawKind.GMID: _Kind(
        neg_log=lambda s, b: np.log1p(s, out=s),
        cdf=lambda s, b: np.divide(1.0, np.add(1.0, s, out=s), out=s),
        s_of_w=lambda w, b: np.expm1(w, out=w),
        mixing=lambda b, rng, n: rng.standard_exponential(n),
        shaped=False,
        gmid_scale=1.0,
    ),
    LawKind.GAMMA_MID: _Kind(
        neg_log=lambda s, b: np.multiply(b, np.log1p(s, out=s), out=s),
        cdf=lambda s, b: np.exp(np.multiply(-b, np.log1p(s, out=s), out=s), out=s),
        s_of_w=lambda w, b: np.expm1(np.divide(w, b, out=w), out=w),
        mixing=lambda b, rng, n: rng.standard_gamma(b, n),
    ),
    LawKind.GGAMMA_MID: _Kind(
        neg_log=lambda s, b: _ggamma_form(s, b, lambda y: np.log1p(y, out=y), lambda log_y: log_y),
        cdf=lambda s, b: _ggamma_form(s, b, lambda y: np.divide(1.0, np.add(1.0, y, out=y), out=y), lambda log_y: np.exp(-log_y)),
        s_of_w=lambda w, b: np.expm1(np.divide(np.expm1(w, out=w), b, out=w), out=w),
        mixing=lambda b, rng, n: sample_ggamma(b, rng, n),
    ),
}


_LOG1P_MAX = float(np.log1p(np.finfo(float).max))  # the largest finite log1p(s)


def _ggamma_form(s, b, form, of_log):
    """form(y) at y = b*L, L = log1p(s), in the buffer of s.

    Where y overflows while L is finite (b near the float maximum) the
    value is of_log(log b + log L) instead: that is log1p(y) up to
    log1p(1/y) < 1e-308, so -log F keeps its deep tail and F its
    subnormal values, where form(inf) would give inf and 0.  Every entry
    whose product is finite is form(y), bit for bit.
    """
    L = np.log1p(s, out=s)
    if b * _LOG1P_MAX < np.inf:  # b*L is finite wherever L is
        return form(np.multiply(b, L, out=s))
    deep = np.flatnonzero(np.isfinite(L) & (np.multiply(b, L) == np.inf))
    log_y = np.log(b) + np.log(L[deep])
    y = form(np.multiply(b, L, out=s))
    y[deep] = of_log(log_y)
    return y


@dataclass(frozen=True)
class MaxLaw:
    """A law kind plus its exponent; beta is ignored for base and g-mid."""

    kind: LawKind
    exponent: Exponent
    beta: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.kind, LawKind):
            object.__setattr__(self, "kind", LawKind(self.kind))
        if not _KINDS[self.kind].shaped:
            object.__setattr__(self, "beta", 1.0)
        positive_finite(self.beta, "beta")

    # -- distribution function ------------------------------------------

    def neg_log_cdf(self, x):
        """-log F(x); computed with log1p so deep tails do not cancel."""
        return _apply(_neg_log_cdf_raw, x, self)

    def cdf(self, x):
        return _apply(_cdf_raw, x, self)

    def quantile(self, u):
        """Inverse d.f. on (0, 1); endpoints are rejected."""
        return _apply(lambda us: _quantile_w(self, _neg_log(open_unit(us))), u)

    # samplers take an explicit numpy Generator so that identical
    # (seed, stream) sources reproduce identical output

    def sample_inverse(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return _sample_max(self, rng, positive_integer(n, "n"))

    def sample_latent(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw via the latent mixing time; not defined for the base kind.

        Given a mixing time T the draw is the base law to the power T,
        i.e. a max of T base draws.  A mixing time that underflows to
        0.0 stands for a genuinely positive sub-float value, so the draw
        is kept and collapses to the smallest representable point of the
        support, matching the inverse route's handling of unrepresentably
        extreme quantiles.
        """
        n = positive_integer(n, "n")
        mixing = _KINDS[self.kind].mixing
        if mixing is None:
            raise ValueError("base kind has no latent mixing time")
        return _sample_max(base_law(self.exponent), rng, n, mixing(self.beta, rng, n))


def _neg_log_cdf_raw(x: np.ndarray, law: MaxLaw) -> np.ndarray:
    """-log F(x) in x's own buffer, a float array the caller allocated."""
    return _KINDS[law.kind].neg_log(law.exponent._eval_raw(x), law.beta)


def _cdf_raw(x: np.ndarray, law: MaxLaw) -> np.ndarray:
    """F(x) in x's own buffer, as _neg_log_cdf_raw; overflow gives the IEEE limit silently."""
    with np.errstate(over="ignore"):
        return _KINDS[law.kind].cdf(law.exponent._eval_raw(x), law.beta)


def _quantile_w(law: MaxLaw, w, k=None):
    """Quantile evaluated at u = exp(-w), w > 0, without forming u; with
    k, the quantile of F**k, i.e. of law at u = exp(-w/k).

    w and k are float arrays the caller allocated; the result overwrites
    k if given, else w.  Working in w keeps the transform stable when u
    is close to either endpoint.  Quantiles beyond float range are
    mapped to the closest representable point strictly above the
    support bottom, so samples never sit on the bottom itself and
    empirical d.f.s stay aligned with the law's d.f. at the smallest
    representable values.
    """
    with np.errstate(over="ignore", divide="ignore"):
        if k is not None:
            w = np.divide(w, k, out=k)
        s = _KINDS[law.kind].s_of_w(w, law.beta)
        x = law.exponent._inverse_raw(s)
    return _nudge_off_bottom(law.exponent, x)


def _neg_log(u):
    """-log(u) in the buffer of u, a float array the caller allocated."""
    return np.negative(np.log(u, out=u), out=u)


def _sample_max(law: MaxLaw, rng: np.random.Generator, n: int, k=None, out=None):
    """n draws of the maximum of k i.i.d. draws from law, i.e. of F**k;
    k = None stands for k = 1.

    k is None or a float64 array of n positive reals that the caller has
    just drawn (mixing times, interval lengths, look-back counts), which
    the draws overwrite.  A k that underflowed to 0.0 yields the support
    bottom, which _quantile_w moves to the smallest point inside it.
    Without k the draws go into out, a float64 array of n the caller
    owns (a slice of its own output), or into a new array.

    The uniforms are drawn _BLOCK at a time, without k straight into the
    output, with k into one scratch block, whose -log u / k go into k,
    and read as by one uniform_open(rng, n): exactly n draws, an exact 0
    read as 2**-54, so seeded draws do not depend on the block size.
    """
    out = k if k is not None else np.empty(n) if out is None else out
    block = None if k is None else np.empty(min(n, _BLOCK))
    for i in range(0, n, _BLOCK):
        part = out[i : i + _BLOCK]
        u = _open(rng.random(out=part if k is None else block[: part.size]))
        _quantile_w(law, _neg_log(u), None if k is None else part)
    return out


def _nudge_off_bottom(exponent: Exponent, x):
    collapsed = x == exponent.support().lower
    if not np.any(collapsed):
        return x
    x[collapsed] = _min_inside(exponent)
    return x


def sample_ggamma(beta: float, rng: np.random.Generator, size: int) -> np.ndarray:
    """size gamma variates, each of shape beta times a unit exponential:
    the ggamma-mid mixing time, whose Laplace transform is lt_ggamma.

    A call reads size exponentials, then the gammas of their shapes, and
    redraws nothing.  A draw of 0.0 is kept, whether its gamma or its
    shape underflowed (numpy's standard_gamma gives 0.0 at shape 0 and
    reads no variate): the law puts real mass below the smallest float
    (about 1/(1+744*beta)), so a zero is the nearest representable value
    of a genuinely positive draw, and rejecting it would bias every
    quantile of the law.  Downstream transforms send such draws to the
    smallest representable point of the target support.  A shape beta*E
    beyond float range (beta near the float maximum) is inf, and so is
    its draw: the IEEE limit, without an overflow warning.  The gammas
    are drawn _BLOCK at a time and copied over their shapes, so a call
    holds its output and one block.
    """
    positive_finite(beta, "beta")
    n = positive_integer(size, "size")
    shape = rng.standard_exponential(n)
    with np.errstate(over="ignore"):
        shape *= beta
    # the gammas go through a scratch block, not out= over their own shapes,
    # whose aliasing numpy does not document
    block = np.empty(min(n, _BLOCK))
    for i in range(0, n, _BLOCK):
        part = shape[i : i + _BLOCK]
        part[...] = rng.standard_gamma(part, out=block[: part.size])
    return shape


def lt_ggamma(beta: float, lam):
    """Laplace transform of sample_ggamma's law: ggamma-mid's F at s = lam."""
    positive_finite(beta, "beta")
    return _apply(_ggamma_laplace, lam, beta)


def _ggamma_laplace(s: np.ndarray, beta: float) -> np.ndarray:
    if not np.all(s >= 0):  # NaN included
        raise ValueError("Laplace argument must be >= 0")
    return _KINDS[LawKind.GGAMMA_MID].cdf(s, beta)


# -- constructors and JSON descriptors ----------------------------------


def base_law(exponent: Exponent) -> MaxLaw:
    return MaxLaw(LawKind.BASE, exponent)


def g_mid(exponent: Exponent) -> MaxLaw:
    return MaxLaw(LawKind.GMID, exponent)


def gamma_mid(beta: float, exponent: Exponent) -> MaxLaw:
    return MaxLaw(LawKind.GAMMA_MID, exponent, beta)


def ggamma_mid(beta: float, exponent: Exponent) -> MaxLaw:
    return MaxLaw(LawKind.GGAMMA_MID, exponent, beta)


def law_to_dict(law: MaxLaw) -> dict:
    return {
        "kind": law.kind.value,
        "family": law.exponent.family.value,
        "alpha": law.exponent.alpha,
        "beta": law.beta,
    }


def law_from_dict(obj: dict) -> MaxLaw:
    try:
        kind = LawKind(obj["kind"])
        family = Family(obj["family"])
        alpha = float(obj.get("alpha", 1.0))
        beta = float(obj.get("beta", 1.0))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"not a valid law descriptor: {obj!r}") from exc
    return MaxLaw(kind, Exponent(family, alpha), beta)
