"""Each sampler against its whole-array reference in oracles.py, bit for bit,
across its blocks.

One test per sampler, parametrised over sizes on both sides of the block
seams (_BLOCK draws, and _COUNT_BLOCK look-back counts) and exact-zero
uniforms at a seam; the routes also over every kind x family at alphas
1 and 1.7.  The sampler and its reference draw from twin generators,
which must have read the same variates when both are done.  Each
sampler's other byte cases (step loops, edge parameters, long paths)
are in test_ar1.py, test_extremal.py and test_buffers.py.
"""

import numpy as np
import pytest

from maxdiv import (
    Ar1Spec,
    ExtremalSpec,
    LawKind,
    RandomSource,
    SubordinatorSpec,
    ar1_ensemble,
    ar1_simulate,
    base_law,
    compound_simulate,
    ep_simulate_ensemble,
    frechet,
    g_mid,
    gamma_mid,
    ggamma_mid,
    gumbel,
    sample_ggamma,
    weibull,
)
from maxdiv.ar1 import _COUNT_BLOCK
from maxdiv.laws import _BLOCK, _sample_max

from oracles import bits, every_law, reference_ar1_ensemble, reference_ar1_simulate, reference_ep_ensemble, reference_mixing, reference_sample_max

# the first block alone, one short of a block, one block, one over, and
# three blocks with a last block of one draw
SIZES = [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 1]
# the same for the look-back counts' blocks
COUNT_SIZES = [_COUNT_BLOCK - 1, _COUNT_BLOCK, _COUNT_BLOCK + 1, 3 * _COUNT_BLOCK + 1]
F17 = frechet(1.7)
LAWS = [ggamma_mid(0.5, F17), gamma_mid(2.0, weibull(1.7)), g_mid(gumbel())]


class Stub:
    """A Generator whose random() gives an exact 0.0 at the given indices,
    counted over every uniform it has drawn; all else passes through."""

    def __init__(self, seed, zero_at=()):
        self._rng = RandomSource(seed, 4).generator()
        self._zero_at = np.array(sorted(zero_at), dtype=int)
        self.drawn = 0
        self.zeros = 0

    def random(self, size=None, out=None):
        u = self._rng.random(size, out=out)
        hit = self._zero_at[(self._zero_at >= self.drawn) & (self._zero_at < self.drawn + u.size)] - self.drawn
        u[hit] = 0.0
        self.drawn += u.size
        self.zeros += hit.size
        return u

    def __getattr__(self, name):
        return getattr(self._rng, name)


def twins(seed, zero_at=()):
    return Stub(seed, zero_at), Stub(seed, zero_at)


def assert_twins(got, expected, new, old, zero_at=(), drawn=None):
    """got equals expected to the bit, and the twins read the same variates:
    every zero was drawn, drawn uniforms if given, and the streams go on alike."""
    assert got.shape == expected.shape
    np.testing.assert_array_equal(bits(got), bits(expected))
    assert new.zeros == old.zeros == len(zero_at)
    if drawn is not None:
        assert new.drawn == old.drawn == drawn
    assert new.random(4).tobytes() == old.random(4).tobytes()


# -- the two routes of every law -----------------------------------------------

# zeros in the first block, on both sides of the first seam and in the short
# last block: each is read in place, so a call draws n uniforms
ZERO_AT = (5, 70, _BLOCK - 1, _BLOCK, 3 * _BLOCK)
ROUTE_CASES = [
    *(pytest.param(LAWS, n, (), id=str(n)) for n in SIZES),
    *(pytest.param(every_law(alpha), 5000, (), id=f"every-law-{alpha}") for alpha in (1.0, 1.7)),
    pytest.param(LAWS, 3 * _BLOCK + 1, ZERO_AT, id="zero-uniforms"),
]


@pytest.mark.parametrize("laws, n, zero_at", ROUTE_CASES)
def test_inverse_route(laws, n, zero_at):
    """The maximum of k draws, k none (sample_inverse), a constant or fresh
    mixing times, which the draws overwrite."""
    for i, law in enumerate(laws):
        mixing = RandomSource(i, 9).generator().standard_exponential(n)
        for k in (None, np.full(n, 2.5), mixing):
            new, old = twins(i, zero_at)
            expected = reference_sample_max(law, old, n, k)
            got = law.sample_inverse(new, n) if k is None else _sample_max(law, new, n, k)
            assert k is None or got is k
            assert_twins(got, expected, new, old, zero_at, n)


@pytest.mark.parametrize("laws, n, zero_at", ROUTE_CASES)
def test_latent_route(laws, n, zero_at):
    """sample_latent of every kind with one, and at the seams the draws of
    both time-changed processes and sample_ggamma."""
    for i, law in enumerate(laws):
        if law.kind is not LawKind.BASE:
            new, old = twins(i, zero_at)
            expected = reference_sample_max(base_law(law.exponent), old, n, reference_mixing(law, old, n))
            assert_twins(law.sample_latent(new, n), expected, new, old, zero_at, n)
    if laws is not LAWS or zero_at:
        return
    spec = ExtremalSpec(base_law(F17))
    for sub, t, law in ((SubordinatorSpec("gamma"), 1.5, gamma_mid(1.5, F17)), (SubordinatorSpec("ggamma", 0.5), 1.0, ggamma_mid(0.5, F17))):
        new, old = twins(n)
        expected = reference_sample_max(spec.base, old, n, reference_mixing(law, old, n))
        assert_twins(compound_simulate(spec, sub, t, new, n), expected, new, old)
    new, old = twins(n)
    assert_twins(sample_ggamma(0.7, new, n), reference_mixing(ggamma_mid(0.7, F17), old, n), new, old)


# -- extremal paths ------------------------------------------------------------

# a block of whole grid rows of 300 paths: 218 rows, 65,400 variates
ROW_SEAM = _BLOCK // 300 * 300
PATH_CASES = [
    # zeros on both sides of the first two row-block seams
    pytest.param(np.linspace(0.5, 3.0, 1000), 300, (3, ROW_SEAM - 1, ROW_SEAM, 2 * ROW_SEAM - 1, 2 * ROW_SEAM), id="zeros-at-row-blocks"),
    # one grid row per block over two of _sample_max's blocks: zeros at its
    # seam and at the first row-block seam
    pytest.param(np.array([0.5, 1.0, 2.0]), _BLOCK + 3, (_BLOCK - 1, _BLOCK, _BLOCK + 2, _BLOCK + 3), id="zeros-at-rows-over-a-block"),
]


@pytest.mark.parametrize("times, n, zero_at", PATH_CASES)
def test_ep_simulate_ensemble(times, n, zero_at):
    spec = ExtremalSpec(ggamma_mid(0.5, F17))
    new, old = twins(0, zero_at)
    got = ep_simulate_ensemble(spec, times, new, n)
    assert got.flags.c_contiguous
    assert_twins(got, reference_ep_ensemble(spec, times, old, n), new, old, zero_at, n * times.size)


# -- the max-AR(1) chain ---------------------------------------------------------


# at p = 1e-9 one stretch spans every block, so the value carried into each
# block decides the whole block
SEAM_SPECS = [Ar1Spec(1e-9, 1.5, F17), Ar1Spec(0.01, 0.5, weibull(1.7)), Ar1Spec(0.5, 2.0, gumbel())]
CHAIN_CASES = {
    # n - 1 reset uniforms and innovations fill the blocks as the sizes say,
    # and n + 1 puts X_0 and one block's worth of steps in the first block
    **{str(n): ([n, n + 1], ()) for n in SIZES},
    # zeros among the reset uniforms (a zero is a reset) on both sides of a
    # seam, and among X_0 and the innovations, each read as 2**-54
    "zero-uniforms": ([2 * _BLOCK + 3], (0, _BLOCK - 1, _BLOCK, 2 * _BLOCK + 2, 2 * _BLOCK + 8, 3 * _BLOCK + 4)),
}


@pytest.mark.parametrize("sizes, zero_at", CHAIN_CASES.values(), ids=CHAIN_CASES)
def test_ar1_simulate(sizes, zero_at):
    for i, spec in enumerate(SEAM_SPECS):
        for n in sizes:
            new, old = twins(i, zero_at)
            got = ar1_simulate(spec, n, new)
            # reset uniforms, X_0's and the innovations' uniforms: 2n - 1
            assert_twins(got, reference_ar1_simulate(spec, n, old), new, old, zero_at, 2 * n - 1)


# -- the max-AR(1) ensemble ------------------------------------------------------

# the look-back counts at p = 0.01 and lag 100 pass the lag in ~37% of the
# chains, which then join X_0, at p = 0.3 and lag 1 in 30%, and at p = 0.5
# and lag 100 in none
SEAM_ENSEMBLES = [(Ar1Spec(0.01, 0.5, F17), 100), (Ar1Spec(0.5, 0.5, F17), 100), (Ar1Spec(0.3, 0.5, F17), 1)]


@pytest.mark.parametrize("n", SIZES + COUNT_SIZES)
def test_ar1_ensemble(n):
    for i, (spec, lag) in enumerate(SEAM_ENSEMBLES):
        new, old = twins(i)
        assert_twins(ar1_ensemble(spec, lag, new, n), reference_ar1_ensemble(spec, lag, old, n), new, old)
