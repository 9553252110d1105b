"""Exponent functions: closed forms, supports, validation, and properties
of each family over random alpha (Hypothesis)."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from maxdiv import Exponent, Family, frechet, gumbel, semi_stable_scale, weibull
from maxdiv.exponents import Support

from oracles import bits, reference_psi

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


def test_eval_maps_nan_to_nan_in_every_family():
    xs = np.array([np.nan, -1.0, 1.0])
    for e in ALL_EXPONENTS:
        assert np.isnan(e.eval(np.nan))
        vals = e.eval(xs)
        assert np.isnan(vals[0])
        np.testing.assert_array_equal(vals[1:], [e.eval(-1.0), e.eval(1.0)])


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


TINY = np.finfo(float).tiny
HUGE = np.finfo(float).max
EDGES = np.array(
    [np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1e-310, -3e-320, TINY, -TINY, HUGE, -HUGE]
    + [1e-300, -1e-300, 0.3, -0.3, 1.0, -1.0, 2.0, -2.5, 709.0, -709.0, 710.0, -710.0, 1e300, -1e300]
)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.7, 2.0])
@pytest.mark.parametrize("make", [frechet, weibull, lambda alpha: gumbel()])
def test_eval_equals_the_masked_formula_bit_for_bit(make, alpha):
    # 1 and 2 take numpy's reciprocal/square shortcuts, 0.5 sqrt, 1.7 the
    # general pow; every NaN gives the positive NaN
    e = make(alpha)
    np.testing.assert_array_equal(bits(e.eval(EDGES)), bits(reference_psi(e, EDGES)))
    for x in EDGES:
        assert bits(e.eval(float(x))) == bits(reference_psi(e, float(x))[0])


# -- properties of each family, over alpha in [0.05, 20] ----------------------

EPS = np.finfo(float).eps
ALPHAS = st.floats(min_value=0.05, max_value=20.0)
FAMILIES = pytest.mark.parametrize("make", [frechet, weibull, lambda alpha: gumbel()], ids=["frechet", "weibull", "gumbel"])


def few_ulps_of(got, want, condition):
    """|got - want| within two ulps of want times the condition number."""
    np.testing.assert_array_less(np.abs(got - want), 2 * EPS * condition * np.abs(want))


@FAMILIES
@settings(max_examples=200, deadline=None)
@given(alpha=ALPHAS, s=st.lists(st.floats(min_value=TINY, max_value=HUGE), min_size=1, max_size=20))
def test_inverse_then_psi_round_trips(make, alpha, s):
    e = make(alpha)
    s = np.array(s)
    with np.errstate(over="ignore"):
        x = e._inverse_raw(s.copy())
        back = e.eval(x)
    # Excluded: an x past float range or below the normal range, where the
    # inverse has lost the digits psi needs to come back (a power family at
    # small alpha and large |log s|), and an s so near the float maximum
    # that the round trip's error carries it past float range.  The
    # condition number: x holds its value to half an ulp, which psi scales
    # alpha-fold, and the power's exponent 1/alpha holds its value to half
    # an ulp, which s**(1/alpha) scales |log s|-fold (gumbel's -log s holds
    # x to |log s| half-ulps).
    kept = np.isfinite(x) & (np.abs(x) >= TINY) & np.isfinite(back)
    few_ulps_of(back[kept], s[kept], 1 + e.alpha + np.abs(np.log(s[kept])))


@FAMILIES
@settings(max_examples=200, deadline=None)
@given(alpha=ALPHAS, x=st.lists(st.floats(allow_nan=False), min_size=2, max_size=20))
def test_psi_is_nonincreasing_on_sorted_draws(make, alpha, x):
    values = make(alpha).eval(np.sort(x))
    assert np.all(values[1:] <= values[:-1])


@pytest.mark.parametrize("make, outside, value", [(frechet, lambda x: x <= 0, np.inf), (weibull, lambda x: x >= 0, 0.0)], ids=["frechet", "weibull"])
@settings(max_examples=100, deadline=None)
@given(alpha=ALPHAS, x=st.lists(st.floats(allow_nan=False), min_size=1, max_size=20))
def test_psi_outside_the_support_is_its_limit_value(make, outside, value, alpha, x):
    x = np.array(x)
    values = make(alpha).eval(x)
    np.testing.assert_array_equal(values[outside(x)], value)


@FAMILIES
@settings(max_examples=100, deadline=None)
@given(alpha=ALPHAS, sign=st.integers(0, 1), payload=st.integers(1, 2**52 - 1))
def test_every_nan_maps_to_the_positive_nan(make, alpha, sign, payload):
    # quiet and signalling NaNs of either sign
    nan = np.array([sign << 63 | 0x7FF << 52 | payload], dtype=np.uint64).view(float)
    e = make(alpha)
    for value in (e.eval(nan), np.array([e.eval(float(nan[0]))])):
        assert np.isnan(value[0]) and not np.signbit(value[0])


@pytest.mark.parametrize("make, side", [(frechet, 1.0), (weibull, -1.0)], ids=["frechet", "weibull"])
@settings(max_examples=200, deadline=None)
@given(alpha=ALPHAS, p=st.floats(min_value=0.0, max_value=1.0, exclude_min=True), x=st.lists(st.floats(min_value=TINY, max_value=HUGE), min_size=1, max_size=20))
def test_semi_stable_scale_divides_psi_by_p(make, side, alpha, p, x):
    # Excluded: a b = p**(-/+1/alpha) beyond the normal range, where no
    # normal x has a normal b*x.  Then the points where b*x, psi(x) or
    # psi(x)/p leave the normal range.  The condition number: b carries
    # the half-ulp of the exponent 1/alpha scaled |log p|-fold, and psi
    # scales the relative errors of b and b*x alpha-fold.
    assume(abs(math.log(p)) / alpha < 700)
    e = make(alpha)
    b = semi_stable_scale(p, e)
    x = side * np.array(x)
    with np.errstate(over="ignore"):
        bx, psi = b * x, e.eval(x)
        kept = (np.abs(bx) >= TINY) & np.isfinite(bx) & (psi >= TINY) & np.isfinite(psi / p)
    few_ulps_of(e.eval(bx[kept]), psi[kept] / p, 1 + alpha + abs(math.log(p)))


def test_a_semi_stable_scale_beyond_float_range_is_its_ieee_limit():
    # weibull's b = p**(-1/alpha) = 10**6000 overflows to inf and frechet's
    # p**(1/alpha) underflows to 0.0, both without a warning, which the
    # suite would raise; every finite b keeps the bits of Python's pow
    assert semi_stable_scale(1e-300, weibull(0.05)) == math.inf
    assert semi_stable_scale(1e-300, frechet(0.05)) == 0.0
    for p, alpha in ((1e-300, 2.0), (0.3, 1.7), (5e-324, 20.0), (0.5, 0.05)):
        assert semi_stable_scale(p, weibull(alpha)).hex() == (p ** (-1.0 / alpha)).hex()
        assert semi_stable_scale(p, frechet(alpha)).hex() == (p ** (1.0 / alpha)).hex()


@settings(max_examples=20, deadline=None)
@given(p=st.floats(min_value=0.0, max_value=1.0, exclude_min=True))
def test_gumbel_has_no_semi_stable_scale(p):
    with pytest.raises(ValueError):
        semi_stable_scale(p, gumbel())
