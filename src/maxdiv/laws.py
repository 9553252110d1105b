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
log-compounded gamma for ggamma-mid).  Both produce the same law; the
test-suite cross-checks them by two-sample KS.

Everything that depends on the kind lives in one record per kind in
_KINDS: -log F and F as functions of s, the inverse map from
w = -log F back to s, and the latent mixing sampler.  MaxLaw and the
samplers only look records up, so adding a kind means adding one
record, one LawKind member and a constructor, plus tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from ._checks import open_unit, positive_finite, positive_integer
from .exponents import Exponent, Family, _as_array, _min_inside, _unwrap
from .rng import uniform_open

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
    KS test, its sorted copy of the sample), s_of_w gets out=w, the
    draws' own buffer.  For a single draw s_of_w gets out=None and a
    numpy scalar, and computes out of place.  Each form applies the
    operations of its formula in the formula's order, so its results
    equal the out-of-place formula's bit for bit.
    """

    neg_log: Callable  # (s, b) -> -log F, with log1p so deep tails do not cancel
    cdf: Callable  # (s, b) -> F in closed form, not exp(-neg_log)
    s_of_w: Callable  # (w, b, out) -> the s at which -log F = w
    mixing: Callable | None  # (b, rng, n) -> latent mixing times; None if there is none
    shaped: bool = True  # False: beta is pinned to 1
    gmid_scale: float | None = None  # a, when F has the form 1/(1 + a*s)


# mixing entries look sample_ggamma up at call time, so a rebinding of
# the module attribute (such as a call tracer) reaches them too
_KINDS = {
    LawKind.BASE: _Kind(
        neg_log=lambda s, b: s,
        cdf=lambda s, b: np.exp(np.negative(s, out=s), out=s),
        s_of_w=lambda w, b, out: w,
        mixing=None,
        shaped=False,
    ),
    LawKind.GMID: _Kind(
        neg_log=lambda s, b: np.log1p(s, out=s),
        cdf=lambda s, b: np.divide(1.0, np.add(1.0, s, out=s), out=s),
        s_of_w=lambda w, b, out: np.expm1(w, out=out),
        mixing=lambda b, rng, n: rng.standard_exponential(n),
        shaped=False,
        gmid_scale=1.0,
    ),
    LawKind.GAMMA_MID: _Kind(
        neg_log=lambda s, b: np.multiply(b, np.log1p(s, out=s), out=s),
        cdf=lambda s, b: np.exp(np.multiply(-b, np.log1p(s, out=s), out=s), out=s),
        s_of_w=lambda w, b, out: np.expm1(np.divide(w, b, out=out), out=out),
        mixing=lambda b, rng, n: rng.gamma(b, 1.0, n),
    ),
    LawKind.GGAMMA_MID: _Kind(
        neg_log=lambda s, b: np.log1p(np.multiply(b, np.log1p(s, out=s), out=s), out=s),
        cdf=lambda s, b: np.divide(1.0, np.add(1.0, np.multiply(b, np.log1p(s, out=s), out=s), out=s), out=s),
        s_of_w=lambda w, b, out: np.expm1(np.divide(np.expm1(w, out=out), b, out=out), out=out),
        mixing=lambda b, rng, n: sample_ggamma(b, rng, n),
    ),
}


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
        xs, scalar = _as_array(x)
        return _unwrap(_KINDS[self.kind].neg_log(self.exponent._eval_raw(xs.copy()), self.beta), scalar)

    def cdf(self, x):
        xs, scalar = _as_array(x)
        return _unwrap(_cdf_raw(self, xs.copy()), scalar)

    def quantile(self, u):
        """Inverse d.f. on (0, 1); endpoints are rejected."""
        us, scalar = _as_array(u)
        return _unwrap(_quantile_w(self, -np.log(open_unit(us))), scalar)

    def support(self):
        return self.exponent.support()

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


def _cdf_raw(law: MaxLaw, x: np.ndarray) -> np.ndarray:
    """F(x) in x's own buffer: x is a float array the caller allocated,
    which is overwritten with the result."""
    return _KINDS[law.kind].cdf(law.exponent._eval_raw(x), law.beta)


def _quantile_w(law: MaxLaw, w, k=None):
    """Quantile evaluated at u = exp(-w), w > 0, without forming u; with
    k, the quantile of F**k, i.e. of law at u = exp(-w/k).

    w is a float array the caller allocated, which is overwritten with
    the result, or a numpy scalar (one draw), whose result is a new
    numpy scalar.  Working in w keeps the transform stable when u is
    close to either endpoint.  Quantiles beyond float range are mapped
    to the closest representable point strictly above the support
    bottom, so samples never sit on the bottom itself and empirical
    d.f.s stay aligned with the law's d.f. at the smallest
    representable values.
    """
    w = np.asarray(w, dtype=float)
    out = w if w.ndim else None
    with np.errstate(over="ignore", divide="ignore"):
        if k is not None:
            w = np.divide(w, k, out=out)
        s = _KINDS[law.kind].s_of_w(w, law.beta, out)
        x = law.exponent._inverse_raw(s)
    return _nudge_off_bottom(law.exponent, x)


def _neg_log(u):
    """-log(u) in the buffer of u, a float array the caller allocated; a
    new numpy scalar for a numpy scalar u (one draw)."""
    if not np.ndim(u):
        return -np.log(u)
    return np.negative(np.log(u, out=u), out=u)


def _neg_log_uniform(rng: np.random.Generator, n):
    """-log(U) for open-interval uniforms U, in the buffer the uniforms
    were drawn into (one numpy scalar when n is None)."""
    return _neg_log(uniform_open(rng, n))


def _sample_max(law: MaxLaw, rng: np.random.Generator, n: int | None, k=None):
    """n draws (one scalar when n is None) of the maximum of k i.i.d.
    draws from law, i.e. of F**k; k = None stands for k = 1.

    k may be any positive real, or an array of n of them drawn before
    the call; a k that underflowed to 0.0 yields the support bottom,
    which _quantile_w moves to the smallest point inside it.
    """
    return _quantile_w(law, _neg_log_uniform(rng, n), k)


def _nudge_off_bottom(exponent: Exponent, x):
    collapsed = x == exponent.support().lower
    if not np.any(collapsed):
        return x
    if not np.ndim(x):
        return _min_inside(exponent)
    x[collapsed] = _min_inside(exponent)
    return x


def sample_ggamma(beta: float, rng: np.random.Generator, size: int | None = None):
    """Gamma variate whose shape is beta times a unit exponential.

    The resulting positive law has Laplace transform
    1/(1 + beta*log(1+lam)).  Shape draws that underflow to an exact
    zero are redrawn (a zero-shape gamma is a point mass, not a member
    of the family).  Variate draws of exact 0.0 are kept: the law puts
    real mass below the smallest float (about 1/(1+744*beta)), so a
    zero is the nearest representable value of a genuinely positive
    draw, and rejecting it would bias every quantile of the law.
    Downstream transforms send such draws to the smallest representable
    point of the target support.  For a beta near the float maximum a
    shape beta*E beyond float range is inf, and so is its draw: the IEEE
    limit, returned without an overflow warning.
    """
    positive_finite(beta, "beta")
    n = positive_integer(1 if size is None else size, "size")
    with np.errstate(over="ignore"):
        shape = beta * rng.standard_exponential(n)
    while np.any(shape == 0.0):
        zero = shape == 0.0
        shape[zero] = beta * rng.standard_exponential(int(zero.sum()))
    t = rng.gamma(shape, 1.0, n)
    return float(t[0]) if size is None else t


def lt_ggamma(beta: float, lam):
    """Laplace transform of the law drawn by sample_ggamma."""
    positive_finite(beta, "beta")
    ls, scalar = _as_array(lam)
    if np.any(ls < 0) or np.any(np.isnan(ls)):
        raise ValueError("Laplace argument must be >= 0")
    return _unwrap(1.0 / (1.0 + beta * np.log1p(ls)), scalar)


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
    except (KeyError, ValueError) as exc:
        raise ValueError(f"not a valid law descriptor: {obj!r}") from exc
    exponent = Exponent(family, float(obj.get("alpha", 1.0)))
    return MaxLaw(kind, exponent, float(obj.get("beta", 1.0)))
