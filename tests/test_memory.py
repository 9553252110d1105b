"""Memory: each sampler and d.f. composition holds its output and a few
blocks, traced by tracemalloc against the output's size."""

import tracemalloc

import numpy as np
import pytest

from maxdiv import (
    Ar1Spec,
    ExtremalSpec,
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
    n_max_cdf,
    sample_ggamma,
)
from maxdiv.laws import _BLOCK

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
        out, peak = traced_peak(fn)
        assert peak <= (arrays + 0.25) * out.nbytes
