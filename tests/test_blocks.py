"""The samplers' block loops: the same bits as the whole-array
references of oracles.py, and memory bounded by the output plus one
block.

Each sampler is run at sizes on both sides of its block seams, and with
exact-zero uniforms at a seam, against the reference that draws the
whole call at once; the maxima of k draws and both routes also for
every kind x family, under one block.  The memory tests trace each
sampler's peak against its output.
"""

import tracemalloc

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
    geo_max_cdf,
    ggamma_mid,
    gumbel,
    lt_ggamma,
    n_max_cdf,
    sample_ggamma,
    weibull,
)
from maxdiv.ar1 import _COUNT_BLOCK
from maxdiv.laws import _BLOCK, _sample_max

from oracles import bits, every_law, reference_ar1_ensemble, reference_ar1_simulate, reference_ep_ensemble, reference_mixing, reference_sample_max

# the first block alone, one short of a block, one block, one over, and
# three blocks with a last block of one draw
SIZES = [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 1]


def twins(seed):
    return RandomSource(seed, 4).generator(), RandomSource(seed, 4).generator()


def k_twins(n, source):
    """k for the sampler and for the reference: none, and twin copies of
    a constant and of fresh float64 mixing times, which the block loop
    turns into its output."""
    mixing = source.generator().standard_exponential(n)
    return [(None, None), (np.full(n, 2.5), np.full(n, 2.5)), (mixing, mixing.copy())]


LAWS = [ggamma_mid(0.5, frechet(1.7)), gamma_mid(2.0, weibull(1.7)), g_mid(gumbel())]


def law_cases(every_law_n):
    """LAWS at every size of SIZES, with the size as the id; and every
    kind x family at alphas 1 and 1.7, at one size under a block."""
    seams = [pytest.param(LAWS, n, id=str(n)) for n in SIZES]
    return seams + [pytest.param(every_law(alpha), every_law_n, id=f"every-law-{alpha}") for alpha in (1.0, 1.7)]


@pytest.mark.parametrize("laws, n", law_cases(4000))
def test_block_loop_equals_the_whole_array_sampler(laws, n):
    for i, law in enumerate(laws):
        for k_new, k_old in k_twins(n, RandomSource(i, 9)):
            new, old = twins(i)
            got = _sample_max(law, new, n, k_new)
            assert got.shape == (n,)
            assert (got is k_new) == (k_new is not None)
            np.testing.assert_array_equal(bits(got), bits(reference_sample_max(law, old, n, k_old)))
            assert new.random(4).tobytes() == old.random(4).tobytes()  # same stream position


@pytest.mark.parametrize("laws, n", law_cases(5000))
def test_public_samplers_equal_the_whole_array_sampler(laws, n):
    for i, law in enumerate(laws):
        new, old = twins(i)
        np.testing.assert_array_equal(bits(law.sample_inverse(new, n)), bits(reference_sample_max(law, old, n)))
        if law.kind is not LawKind.BASE:
            new, old = twins(i)
            expected = reference_sample_max(base_law(law.exponent), old, n, reference_mixing(law, old, n))
            np.testing.assert_array_equal(bits(law.sample_latent(new, n)), bits(expected))
    if laws is not LAWS:
        return  # the compound draws and sample_ggamma run at the block seams only
    spec = ExtremalSpec(base_law(frechet(1.7)))
    for sub, t, law in ((SubordinatorSpec("gamma"), 1.5, gamma_mid(1.5, frechet(1.7))), (SubordinatorSpec("ggamma", 0.5), 1.0, ggamma_mid(0.5, frechet(1.7)))):
        new, old = twins(n)
        expected = reference_sample_max(spec.base, old, n, reference_mixing(law, old, n))
        np.testing.assert_array_equal(bits(compound_simulate(spec, sub, t, new, n)), bits(expected))
    new, old = twins(n)
    np.testing.assert_array_equal(bits(sample_ggamma(0.7, new, n)), bits(reference_mixing(ggamma_mid(0.7, frechet(1.7)), old, n)))


class ZeroedUniforms:
    """A Generator whose random() returns exact 0.0 at the given indices,
    counted over every uniform it has drawn; all else passes through."""

    def __init__(self, seed, zero_at):
        self._rng = RandomSource(seed, 4).generator()
        self._zero_at = np.array(sorted(zero_at))
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


def test_exact_zero_uniforms_are_read_as_by_the_whole_array_sampler():
    # in the first block, on both sides of the first seam and in the short
    # last block: each zero is read in place, so a call draws n uniforms
    n = 3 * _BLOCK + 1
    zero_at = [5, 70, _BLOCK - 1, _BLOCK, 3 * _BLOCK]
    for law in LAWS:
        for k_new, k_old in k_twins(n, RandomSource(2)):
            new, old = ZeroedUniforms(1, zero_at), ZeroedUniforms(1, zero_at)
            got = _sample_max(law, new, n, k_new)
            expected = reference_sample_max(law, old, n, k_old)
            assert new.zeros == old.zeros == len(zero_at)
            assert new.drawn == old.drawn == n
            np.testing.assert_array_equal(bits(got), bits(expected))
        new, old = ZeroedUniforms(1, zero_at), ZeroedUniforms(1, zero_at)
        expected = reference_sample_max(base_law(law.exponent), old, n, reference_mixing(law, old, n))
        np.testing.assert_array_equal(bits(law.sample_latent(new, n)), bits(expected))
        assert new.zeros == old.zeros == len(zero_at)
        assert new.drawn == old.drawn == n


# a block of whole grid rows of 300 paths: 218 rows, 65,400 variates
ROW_SEAM = _BLOCK // 300 * 300


@pytest.mark.parametrize(
    "times, n, zero_at",
    [
        # zeros on both sides of the first two row-block seams
        (np.linspace(0.5, 3.0, 1000), 300, [3, ROW_SEAM - 1, ROW_SEAM, 2 * ROW_SEAM - 1, 2 * ROW_SEAM]),
        # one grid row per block, spanning two of _sample_max's blocks: zeros
        # at its seam and at the first row-block seam
        (np.array([0.5, 1.0, 2.0]), _BLOCK + 3, [_BLOCK - 1, _BLOCK, _BLOCK + 2, _BLOCK + 3]),
    ],
    ids=["row-blocks", "rows-over-a-block"],
)
def test_exact_zero_uniforms_at_a_row_block_seam_leave_paths_equal_to_the_grid_loop(times, n, zero_at):
    spec = ExtremalSpec(ggamma_mid(0.5, frechet(1.7)))
    new, old = ZeroedUniforms(5, zero_at), ZeroedUniforms(5, zero_at)
    got = ep_simulate_ensemble(spec, times, new, n)
    np.testing.assert_array_equal(bits(got), bits(reference_ep_ensemble(spec, times, old, n)))
    assert new.zeros == old.zeros == len(zero_at)
    assert new.drawn == old.drawn == n * times.size


CHAIN_SPECS = [Ar1Spec(1e-9, 1.5, frechet(1.7)), Ar1Spec(0.01, 0.5, weibull(1.7)), Ar1Spec(0.5, 2.0, gumbel())]


@pytest.mark.parametrize("n", SIZES)
def test_a_chain_scanned_by_blocks_equals_the_whole_chain_scan(n):
    # n - 1 reset uniforms and innovations fill the blocks as the sizes
    # say, and n + 1 puts X_0 and one block's worth of steps in the first
    # block; at p = 1e-9 one stretch spans every block, so the value
    # carried into each block decides the whole block
    for size in (n, n + 1):
        for i, spec in enumerate(CHAIN_SPECS):
            new, old = twins(i)
            got = ar1_simulate(spec, size, new)
            np.testing.assert_array_equal(bits(got), bits(reference_ar1_simulate(spec, size, old)))
            assert new.random(4).tobytes() == old.random(4).tobytes()


def test_a_chain_with_exact_zero_uniforms_equals_the_whole_chain_scan():
    # zeros among the reset uniforms (a zero is a reset) on both sides of
    # a seam, and among X_0 and the innovations, each read as 2**-54
    n = 2 * _BLOCK + 3
    zero_at = [0, _BLOCK - 1, _BLOCK, n - 1, n + 5, n + _BLOCK + 1]
    for spec in CHAIN_SPECS:
        new, old = ZeroedUniforms(3, zero_at), ZeroedUniforms(3, zero_at)
        got = ar1_simulate(spec, n, new)
        np.testing.assert_array_equal(bits(got), bits(reference_ar1_simulate(spec, n, old)))
        assert new.zeros == old.zeros == len(zero_at)
        assert new.drawn == old.drawn == 2 * n - 1


# the look-back counts' own blocks: one short of a block, one, one over, and
# three with a last block of one chain
COUNT_SIZES = [_COUNT_BLOCK - 1, _COUNT_BLOCK, _COUNT_BLOCK + 1, 3 * _COUNT_BLOCK + 1]


@pytest.mark.parametrize("n", SIZES + COUNT_SIZES)
def test_ensemble_counts_turned_by_blocks_equal_the_whole_array_sampler(n):
    # at p = 0.01 and lag 100 ~37% of the chains join X_0, at p = 0.5 none
    for i, (p, lag) in enumerate(((0.01, 100), (0.5, 100), (0.3, 1))):
        spec = Ar1Spec(p, 0.5, frechet(1.7))
        new, old = twins(i)
        got = ar1_ensemble(spec, lag, new, n)
        np.testing.assert_array_equal(bits(got), bits(reference_ar1_ensemble(spec, lag, old, n)))
        assert new.random(4).tobytes() == old.random(4).tobytes()


# -- memory ----------------------------------------------------------------

MEMORY_N = 10**6
E = frechet(1.7)
SAMPLERS = {
    "sample_inverse": lambda rng: gamma_mid(2.0, E).sample_inverse(rng, MEMORY_N),
    "sample_latent g-mid": lambda rng: g_mid(E).sample_latent(rng, MEMORY_N),
    "sample_latent gamma-mid": lambda rng: gamma_mid(2.0, E).sample_latent(rng, MEMORY_N),
    "sample_latent ggamma-mid": lambda rng: ggamma_mid(0.5, E).sample_latent(rng, MEMORY_N),
    "compound_simulate gamma": lambda rng: compound_simulate(ExtremalSpec(base_law(E)), SubordinatorSpec("gamma"), 1.5, rng, MEMORY_N),
    "compound_simulate ggamma": lambda rng: compound_simulate(ExtremalSpec(base_law(E)), SubordinatorSpec("ggamma", 0.5), 1.0, rng, MEMORY_N),
    "sample_ggamma": lambda rng: sample_ggamma(0.5, rng, MEMORY_N),
}


def traced_peak(draw):
    """The output of draw() and its tracemalloc peak, after a warm-up call."""
    draw()
    tracemalloc.start()
    try:
        out = draw()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


@pytest.mark.parametrize("name", SAMPLERS)
def test_a_sampler_holds_its_output_and_one_block(name):
    # the output, a quarter of it more for small temporaries such as a
    # block's flags, and two blocks of float64 (the scratch block of the
    # routes with a k per draw and one more for numpy's own buffers); the
    # whole-array samplers held the mixing times and the uniforms at once,
    # 2.1 times the output
    out, peak = traced_peak(lambda: SAMPLERS[name](RandomSource(1).generator()))
    assert out.shape == (MEMORY_N,)
    assert peak <= 1.25 * out.nbytes + 2 * 8 * _BLOCK, peak / out.nbytes


def test_a_path_draws_into_its_own_interval_lengths():
    # the output, a quarter of it more for checking the grid, and blocks:
    # each block's interval lengths, which become its draws, and the
    # running max; holding every interval length took twice the output
    times = np.linspace(1e-3, 1e3, MEMORY_N)
    spec = ExtremalSpec(gamma_mid(2.0, E))
    out, peak = traced_peak(lambda: ep_simulate_ensemble(spec, times, RandomSource(1).generator(), 1))
    assert peak <= 1.25 * out.nbytes + 2 * 8 * _BLOCK, peak / out.nbytes


@pytest.mark.parametrize("p", [0.5, 0.01])
def test_a_chain_holds_its_output_and_a_flag_per_step(p):
    # the output, which the reset uniforms and the innovations are drawn
    # into, one flag per step (an eighth of it), which the scan doubles in
    # place, and the block scan's temporaries; the whole-chain scan held
    # 6.25 times the output, and a scan by int64 steps since the last
    # reset 1.32
    spec = Ar1Spec(p, 1.0, E)
    out, peak = traced_peak(lambda: ar1_simulate(spec, MEMORY_N, RandomSource(1).generator()))
    assert out.shape == (MEMORY_N,)
    assert peak <= 1.125 * out.nbytes + 2 * 8 * _BLOCK, peak / out.nbytes


@pytest.mark.parametrize("p", [0.5, 0.01])
def test_an_ensemble_holds_its_output_and_the_look_back_counts(p):
    # the X_0 uniforms, over which each block of look-back counts is written,
    # so that the buffer becomes the output, and for the share (1 - p)**lag
    # of chains with no reset a uint16 index in its block and a uniform,
    # 10 bytes each; the rest is blocks.  Drawing every count at once
    # beside the uniforms took 2.13 times the output at p = 0.5 and 2.73 at
    # p = 0.01, and an int64 index per kept chain 1.81 at p = 0.01
    lag = 100
    spec = Ar1Spec(p, 1.0, E)
    out, peak = traced_peak(lambda: ar1_ensemble(spec, lag, RandomSource(1).generator(), MEMORY_N))
    assert out.shape == (MEMORY_N,)
    assert peak <= (1.15 + 1.25 * (1 - p) ** lag) * out.nbytes + 2 * 8 * _BLOCK, peak / out.nbytes


def test_law_d_f_compositions_work_in_the_copy_of_x():
    # geo_max_cdf holds the copy and one scratch array, n_max_cdf the copy
    law = ggamma_mid(0.5, E)
    x = np.linspace(0.01, 50.0, MEMORY_N)
    for fn, arrays in ((lambda: geo_max_cdf(law, 0.3, x), 2), (lambda: n_max_cdf(law, 3, x), 1)):
        tracemalloc.start()
        try:
            out = fn()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (arrays + 0.25) * out.nbytes


# -- ggamma-mid where beta * log1p(psi) overflows ----------------------------


def test_ggamma_mid_keeps_its_deep_tail_where_the_shape_product_overflows():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    beta = 1e308
    law = ggamma_mid(beta, frechet(1.0))
    x = np.array([1e-308, 1e-300, 1e-10, 0.1, 1.0, 10.0, 1e300])
    neg_log, cdf = law.neg_log_cdf(x), law.cdf(x)
    lt = lt_ggamma(beta, frechet(1.0).eval(x))
    for i, xi in enumerate(x):
        y = mpmath.mpf(beta) * mpmath.log1p(mpmath.mpf(xi) ** -1)
        assert neg_log[i] == pytest.approx(float(mpmath.log1p(y)), rel=1e-14), xi
        assert cdf[i] == pytest.approx(float(1 / (1 + y)), rel=1e-12), xi
        assert cdf[i] > 0.0
    np.testing.assert_array_equal(bits(lt), bits(cdf))
    assert law.neg_log_cdf(1e-308) == pytest.approx(715.76034087, rel=1e-10)
    assert law.cdf(0.1) == pytest.approx(4.17032391424e-309, rel=1e-10)
    # where the product is finite the literal formula's bits stay
    with np.errstate(over="ignore"):
        log1p_psi = np.log1p(frechet(1.0).eval(x))
        finite = np.isfinite(beta * log1p_psi)
        np.testing.assert_array_equal(bits(neg_log[finite]), bits(np.log1p(beta * log1p_psi[finite])))
        np.testing.assert_array_equal(bits(cdf[finite]), bits(1.0 / (1.0 + beta * log1p_psi[finite])))
    assert 0 < finite.sum() < x.size
    # outside the support psi is inf: F = 0 and -log F = inf, as before
    assert law.cdf(0.0) == 0.0 and law.neg_log_cdf(-1.0) == np.inf
