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
and p = 1 leaves w unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._checks import positive_finite, positive_integer, probability
from .exponents import Exponent, Family, _as_array, _unwrap
from .laws import _KINDS, MaxLaw, _neg_log_uniform, _quantile_w

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


@dataclass(frozen=True)
class CdfExpr:
    """A distribution function with an explicit -log channel.

    The neg_log channel is what downstream operators compose; it stays
    accurate where the plain d.f. value would round to 0 or 1.  When the
    expression is known to have the form 1/(1 + scale*psi) the structure
    is kept (gmid_scale, exponent) so exponent-scaling operators can act
    on it exactly.
    """

    tag: str
    neg_log: Callable
    cdf_fn: Callable | None = None
    gmid_scale: float | None = None
    exponent: Exponent | None = None

    def cdf(self, x):
        if self.cdf_fn is not None:
            return self.cdf_fn(x)
        v, scalar = _as_array(self.neg_log(x))
        return _unwrap(np.exp(-v), scalar)

    def __call__(self, x):
        return self.cdf(x)


def expr_from_law(law: MaxLaw) -> CdfExpr:
    tag = f"{law.kind.value}({law.exponent.family.value},alpha={law.exponent.alpha:g},beta={law.beta:g})"
    return CdfExpr(
        tag=tag,
        neg_log=law.neg_log_cdf,
        cdf_fn=law.cdf,
        gmid_scale=_KINDS[law.kind].gmid_scale,
        exponent=law.exponent,
    )


def _cdf_values(h, x):
    if callable(h) and not isinstance(h, (CdfExpr, MaxLaw)):
        return h(x)
    return h.cdf(x)


def geo_max_cdf(h, p, x):
    """d.f. of the maximum of a geometric(p) number of i.i.d. H draws.

    h may be a CdfExpr, a MaxLaw, or any vectorized d.f. callable.  The
    rational form is evaluated literally; results are clipped to [0, 1]
    to absorb one-ulp overshoot at H = 1.
    """
    p = probability(float(p), "geometric parameter", allow_one=True)
    hv, scalar = _as_array(_cdf_values(h, x))
    out = np.clip(p * hv / (1.0 - (1.0 - p) * hv), 0.0, 1.0)
    return _unwrap(out, scalar)


def geo_max_sample(law: MaxLaw, p, rng: np.random.Generator, size: int | None = None):
    """Draw max(X_1..X_N) with N ~ geometric(p) and X_i i.i.d. from law.

    Inverts G in w space (see the module docstring): one uniform per
    draw, so time and memory do not grow as p shrinks.
    """
    p = probability(float(p), "geometric parameter", allow_one=True)
    n = positive_integer(1 if size is None else size, "size")
    w = _neg_log_uniform(rng, n)
    if p < 1.0:
        np.log1p(np.multiply(p, np.expm1(w, out=w), out=w), out=w)
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

    def neg_log(x):
        return np.log1p(scale * exponent.eval(x))

    def cdf_fn(x):
        return 1.0 / (1.0 + scale * exponent.eval(x))

    return CdfExpr(
        tag=f"scale({h.tag},a={a:g})",
        neg_log=neg_log,
        cdf_fn=cdf_fn,
        gmid_scale=scale,
        exponent=exponent,
    )


def semi_stable_scale(p, exponent: Exponent) -> float:
    """The b with psi(b*x) = psi(x)/p, so a geometric(p)-max of the
    1/(1+psi) law equals the same law rescaled by b.

    Only power exponents admit such a b; the exponential family shifts
    location instead of scale and is rejected.
    """
    p = probability(float(p), "geometric parameter", allow_one=True)
    if exponent.family is Family.FRECHET:
        return p ** (1.0 / exponent.alpha)
    if exponent.family is Family.WEIBULL:
        return p ** (-1.0 / exponent.alpha)
    raise ValueError("no scale form exists for the gumbel family")


def iterate_transform(f: CdfExpr) -> CdfExpr:
    """The map f -> 1/(1 - log f), evaluated through the -log channel.

    Applied to a valid d.f. it returns a valid d.f.; starting from the
    base kind, one application gives the 1/(1+psi) law and two give the
    log-compounded law with unit shape.
    """
    inner = f.neg_log

    def neg_log(x):
        v, scalar = _as_array(inner(x))
        return _unwrap(np.log1p(v), scalar)

    def cdf_fn(x):
        v, scalar = _as_array(inner(x))
        return _unwrap(1.0 / (1.0 + v), scalar)

    return CdfExpr(tag=f"iterate({f.tag})", neg_log=neg_log, cdf_fn=cdf_fn)


def n_max_cdf(law, n: int, x):
    """d.f. of the maximum of n i.i.d. draws: F(x)**n via the -log channel."""
    positive_integer(n)
    neg_log = law.neg_log_cdf if isinstance(law, MaxLaw) else law.neg_log
    v, scalar = _as_array(neg_log(x))
    return _unwrap(np.exp(-float(n) * v), scalar)


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
    s, scalar = _as_array(exponent.eval(x))
    with np.errstate(over="ignore"):
        out = 1.0 / (1.0 + n * np.expm1((beta / n) * np.log1p(s)))
    return _unwrap(out, scalar)
