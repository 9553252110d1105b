"""Exponent functions: closed forms, inverses, supports, validation."""

import numpy as np
import pytest

from maxdiv import Exponent, Family, frechet, gumbel, weibull
from maxdiv.exponents import Support

ALL_EXPONENTS = (frechet(1.0), frechet(2.0), weibull(1.0), weibull(2.0), gumbel())


def test_power_family_known_values():
    e = frechet(1.0)
    assert e.eval(1.0) == 1.0
    assert e.eval(2.0) == 0.5
    assert e.eval(0.5) == 2.0
    assert frechet(2.0).eval(2.0) == 0.25
    assert frechet(2.0).eval(0.5) == 4.0


def test_power_family_outside_support_is_infinite():
    e = frechet(1.0)
    assert e.eval(0.0) == np.inf
    assert e.eval(-3.0) == np.inf


def test_negative_power_family_known_values():
    e = weibull(2.0)
    assert e.eval(-2.0) == 4.0
    assert e.eval(-0.5) == 0.25
    assert weibull(1.0).eval(-3.0) == 3.0


def test_negative_power_family_vanishes_on_right_half_line():
    e = weibull(2.0)
    assert e.eval(0.0) == 0.0
    assert e.eval(1.5) == 0.0


def test_exponential_family_known_values():
    e = gumbel()
    assert e.eval(0.0) == 1.0
    assert e.eval(1.0) == pytest.approx(np.exp(-1.0), rel=0, abs=0)
    assert e.eval(-np.log(2.0)) == pytest.approx(2.0, rel=1e-15)


def test_eval_vectorized_matches_scalar():
    xs = np.array([-2.0, -0.5, 0.0, 0.5, 3.0])
    for e in ALL_EXPONENTS:
        vec = np.asarray(e.eval(xs))
        assert vec.shape == xs.shape
        for x, v in zip(xs, vec):
            scalar = e.eval(float(x))
            assert scalar == v or (np.isinf(scalar) and np.isinf(v))


def test_eval_is_nonincreasing():
    # pairwise comparison: differencing would turn inf..inf runs into nan
    xs = np.linspace(-20.0, 20.0, 4001)
    for e in ALL_EXPONENTS:
        vals = np.asarray(e.eval(xs))
        assert np.all(vals[1:] <= vals[:-1])


def test_inverse_round_trip():
    s = np.geomspace(1e-6, 1e6, 101)
    for e in ALL_EXPONENTS:
        x = e.inverse(s)
        np.testing.assert_allclose(e.eval(x), s, rtol=1e-12, atol=0.0)


def test_eval_maps_nan_to_nan_in_every_family():
    xs = np.array([np.nan, -1.0, 1.0])
    for e in ALL_EXPONENTS:
        assert np.isnan(e.eval(np.nan))
        vals = e.eval(xs)
        assert np.isnan(vals[0])
        np.testing.assert_array_equal(vals[1:], [e.eval(-1.0), e.eval(1.0)])


def test_inverse_beyond_float_range_is_the_ieee_limit_without_a_warning():
    # 1/5e-324 and (1e300)**2 overflow; the checked path returns the limit
    # silently, like the quantile transforms' unchecked path
    assert frechet(1.0).inverse(5e-324) == np.inf
    assert weibull(0.5).inverse(1e300) == -np.inf
    np.testing.assert_array_equal(frechet(1.0).inverse([5e-324, 1.0]), [np.inf, 1.0])


def test_inverse_rejects_nonpositive_and_nonfinite():
    e = frechet(1.0)
    for bad in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            e.inverse(bad)


def test_alpha_must_be_finite_and_positive():
    for bad in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            frechet(bad)
        with pytest.raises(ValueError):
            weibull(bad)


def test_exponential_family_has_fixed_unit_rate():
    assert gumbel().alpha == 1.0
    assert Exponent(Family.GUMBEL, 5.0).alpha == 1.0


def test_family_coerces_from_string():
    e = Exponent("frechet", 2.0)
    assert e.family is Family.FRECHET
    with pytest.raises(ValueError):
        Exponent("cauchy", 1.0)


def test_supports():
    assert frechet(2.0).support() == Support(0.0, np.inf)
    assert weibull(1.0).support() == Support(-np.inf, 0.0)
    assert gumbel().support() == Support(-np.inf, np.inf)


def test_exponent_equality_and_hash():
    assert frechet(2.0) == frechet(2.0)
    assert frechet(2.0) != frechet(1.0)
    assert len({frechet(1.0), frechet(1.0), gumbel()}) == 2


def _masked_eval(exponent, x):
    """The gather/scatter form of psi: the formula on the support only,
    the limit value elsewhere, and NaN written over every NaN input."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    with np.errstate(over="ignore"):
        if exponent.family is Family.FRECHET:
            out = np.full(xs.shape, np.inf)
            pos = xs > 0
            out[pos] = xs[pos] ** -exponent.alpha
        elif exponent.family is Family.WEIBULL:
            out = np.zeros(xs.shape)
            neg = xs < 0
            out[neg] = (-xs[neg]) ** exponent.alpha
        else:
            out = np.exp(-xs)
    out[np.isnan(xs)] = np.nan
    return out


TINY = np.finfo(float).tiny
HUGE = np.finfo(float).max
EDGES = np.array(
    [np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1e-310, -3e-320, TINY, -TINY, HUGE, -HUGE]
    + [1e-300, -1e-300, 0.3, -0.3, 1.0, -1.0, 2.0, -2.5, 709.0, -709.0, 710.0, -710.0, 1e300, -1e300]
)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.7, 2.0])
@pytest.mark.parametrize("make", [frechet, weibull, lambda alpha: gumbel()])
def test_eval_equals_the_masked_formula_bit_for_bit(make, alpha):
    # 1 and 2 take numpy's reciprocal/square shortcuts, 0.5 sqrt, 1.7 the general pow
    e = make(alpha)
    bits = lambda a: np.asarray(a, dtype=float).view(np.uint64)
    np.testing.assert_array_equal(bits(e.eval(EDGES)), bits(_masked_eval(e, EDGES)))
    for x in EDGES:
        assert bits(e.eval(float(x))) == bits(_masked_eval(e, float(x))[0])
