"""Geometric-max composition algebra on distribution functions.

If N is geometric(p) on {1, 2, ...} and X_1, X_2, ... are i.i.d. with
d.f. H, the maximum of X_1..X_N has d.f.

    G(x) = p H(x) / (1 - (1-p) H(x)).

The operators below implement that composition and the closed forms it
induces on the law families: scaling of a 1/(1+psi) exponent, the
semi-stable rescaling b with psi(b x) = psi(x)/p, the iterate map
f -> 1/(1 - log f), and powered d.f.s for deterministic maxima.

Sampling the composition needs no inner draws.  G(x) = u solves to
H(x) = u / (p + (1-p) u), so the G-quantile at u is the H-quantile at
that level.  In w = -log(u) space the level becomes

    -log H = w + log(p + (1-p) e^-w) = log1p(p * expm1(w)),

the last form free of cancellation for small w and small p.  One
uniform per draw then gives an exact geometric(p)-max for every p,
and p = 1 leaves w unchanged.  The g-mid and base forms in these
operators are those of their records in laws._KINDS.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._checks import positive_finite, positive_integer, probability
from .exponents import _FAMILIES, Exponent, _apply
from .laws import _KINDS, LawKind, MaxLaw, _cdf_raw, _neg_log, _neg_log_cdf_raw, _quantile_w
from .rng import uniform_open

__all__ = [
    "expr_from_law",
    "geo_max_cdf",
    "geo_max_sample",
    "scale_exponent",
    "semi_stable_scale",
    "iterate_transform",
    "n_max_cdf",
    "limit_geo_gamma_cdf",
]

_GMID = _KINDS[LawKind.GMID]
_BASE = _KINDS[LawKind.BASE]


@dataclass(frozen=True)
class CdfExpr:
    """A distribution function with an explicit -log channel.

    The neg_log_cdf channel, named as on MaxLaw, is what downstream
    operators compose; it stays accurate where the plain d.f. value would
    round to 0 or 1.  cdf is the d.f. in closed form.  When the
    expression is known to have the form 1/(1 + scale*psi) the structure
    is kept (gmid_scale, exponent) so exponent-scaling operators can act
    on it exactly.
    """

    neg_log_cdf: Callable
    cdf: Callable
    gmid_scale: float | None = None
    exponent: Exponent | None = None

    def __call__(self, x):
        return self.cdf(x)


def expr_from_law(law: MaxLaw) -> CdfExpr:
    return CdfExpr(
        neg_log_cdf=law.neg_log_cdf,
        cdf=law.cdf,
        gmid_scale=_KINDS[law.kind].gmid_scale,
        exponent=law.exponent,
    )


def geo_max_cdf(h, p, x):
    """d.f. of the maximum of a geometric(p) number of i.i.d. H draws.

    h is a MaxLaw, whose d.f. is evaluated in the one copy of x, or any
    vectorized d.f. callable, a CdfExpr included, whose result is copied.
    The rational form is evaluated literally; results are clipped to
    [0, 1] to absorb one-ulp overshoot at H = 1.
    """
    p = probability(float(p), "geometric parameter", allow_one=True)
    if isinstance(h, MaxLaw):
        return _apply(lambda v: _geo_max(_cdf_raw(v, h), p), x)
    return _apply(_geo_max, h(x), p)


def _geo_max(hv: np.ndarray, p: float) -> np.ndarray:
    """p*H / (1 - (1-p)*H), clipped, in the buffer of the H values hv
    with one scratch array: the literal form's operations in its order."""
    q = np.multiply(1.0 - p, hv)
    np.subtract(1.0, q, out=q)
    np.multiply(p, hv, out=hv)
    np.divide(hv, q, out=hv)
    return np.clip(hv, 0.0, 1.0, out=hv)


def geo_max_sample(law: MaxLaw, p, rng: np.random.Generator, size: int | None = None):
    """Draw max(X_1..X_N) with N ~ geometric(p) and X_i i.i.d. from law.

    Inverts G in w space (see the module docstring): one uniform per
    draw, so time and memory do not grow as p shrinks.
    """
    p = probability(float(p), "geometric parameter", allow_one=True)
    n = positive_integer(1 if size is None else size, "size")
    w = _neg_log(uniform_open(rng, n))
    if p < 1.0:
        # -log H = log1p(p * expm1(w)), in the buffer of w
        _GMID.neg_log(np.multiply(p, _GMID.s_of_w(w, 1.0), out=w), 1.0)
    out = _quantile_w(law, w)
    return float(out[0]) if size is None else out


def scale_exponent(h: CdfExpr, a: float) -> CdfExpr:
    """Exact 1/(1 + a'*psi) expression from one of the same form.

    Defined only for expressions carrying the 1/(1+scale*psi) structure;
    for a >= 1 the result coincides with the geometric(1/a)-max of h,
    and for every a > 0 it is still a distribution function.
    """
    if h.gmid_scale is None or h.exponent is None:
        raise ValueError("scale_exponent needs an expression of the form 1/(1 + a*psi)")
    positive_finite(a, "scale factor")
    scale = a * h.gmid_scale
    exponent = h.exponent
    return CdfExpr(
        neg_log_cdf=lambda x: _apply(_scaled_gmid, x, _GMID.neg_log, scale, exponent),
        cdf=lambda x: _apply(_scaled_gmid, x, _GMID.cdf, scale, exponent),
        gmid_scale=scale,
        exponent=exponent,
    )


def _scaled_gmid(x: np.ndarray, form, scale: float, exponent: Exponent) -> np.ndarray:
    """A g-mid form at s = scale * psi(x), in the buffer of x."""
    return form(np.multiply(scale, exponent._eval_raw(x), out=x), 1.0)


def semi_stable_scale(p, exponent: Exponent) -> float:
    """The b with psi(b*x) = psi(x)/p, so a geometric(p)-max of the
    1/(1+psi) law equals the same law rescaled by b.

    Only power exponents admit such a b; the exponential family shifts
    location instead of scale and is rejected.
    """
    p = probability(float(p), "geometric parameter", allow_one=True)
    sign = _FAMILIES[exponent.family].scale_sign
    if sign is None:
        raise ValueError(f"no scale form exists for the {exponent.family.value} family")
    try:
        return p ** (sign / exponent.alpha)  # Python's pow: numpy's array pow may move the last bit
    except OverflowError:  # b beyond float range: its IEEE limit, without a warning
        return np.inf


def iterate_transform(f: CdfExpr) -> CdfExpr:
    """The map f -> 1/(1 - log f), evaluated through the -log channel.

    Applied to a valid d.f. it returns a valid d.f.; starting from the
    base kind, one application gives the 1/(1+psi) law and two give the
    log-compounded law with unit shape.
    """
    inner = f.neg_log_cdf
    return CdfExpr(neg_log_cdf=lambda x: _apply(_GMID.neg_log, inner(x), 1.0), cdf=lambda x: _apply(_GMID.cdf, inner(x), 1.0))


def n_max_cdf(law, n: int, x):
    """d.f. of the maximum of n i.i.d. draws: F(x)**n via the
    neg_log_cdf channel of law, a MaxLaw, evaluated in the one copy of x,
    or a CdfExpr, whose channel's result is copied."""
    n = float(positive_integer(n))
    if isinstance(law, MaxLaw):
        return _apply(lambda v: _power(_neg_log_cdf_raw(v, law), n), x)
    return _apply(_power, law.neg_log_cdf(x), n)


def _power(y: np.ndarray, n: float) -> np.ndarray:
    """exp(-n*y), in the buffer of the -log F values y."""
    return _BASE.cdf(np.multiply(n, y, out=y), 1.0)


def limit_geo_gamma_cdf(beta: float, n: int, exponent: Exponent, x):
    """n-th member of the scheme converging to the log-compounded law:

        F_n(x) = 1 / (1 + n*((1+psi(x))**(beta/n) - 1))

    F_n is a d.f. for every n >= 1 and converges pointwise, as n grows,
    to 1/(1 + beta*log(1+psi(x))).  Where the power term is beyond float
    range (beta near the float maximum) F_n is its IEEE limit 0, returned
    without an overflow warning.
    """
    positive_finite(beta, "beta")
    positive_integer(n)
    return _apply(lambda s: 1.0 / (1.0 + n * np.expm1((beta / n) * np.log1p(exponent._eval_raw(s)))), x)
