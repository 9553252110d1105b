"""Verification registry: report structure, determinism, pass behavior."""

import dataclasses
import importlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from maxdiv import (
    CHECK_IDS,
    Ar1Spec,
    ExtremalSpec,
    RandomSource,
    SubKind,
    SubordinatorSpec,
    VerificationReport,
    ar1_ensemble,
    compound_marginal_cdf,
    compound_simulate,
    format_report,
    frechet,
    gamma_mid,
    ggamma_mid,
    gumbel,
    innovation_cdf_from_marginal,
    ks_one_sample,
    limit_geo_gamma_cdf,
    n_max_cdf,
    quantile_grid,
    report_to_dict,
    verify,
    verify_all,
    weibull,
)

from maxdiv.laws import _BLOCK

verify_module = importlib.import_module("maxdiv.verify")

ALGEBRAIC_IDS = ("T2_1", "T2_2", "T2_5", "T2_6", "T2_7", "R2_1")
CONVERGENCE_IDS = ("T2_3", "T2_4")
MONTE_CARLO_IDS = ("T3_1", "T3_2", "T3_3")
E1 = frechet(1.0)


def test_registry_lists_eleven_checks():
    assert len(CHECK_IDS) == 11
    assert set(ALGEBRAIC_IDS) | set(CONVERGENCE_IDS) | set(MONTE_CARLO_IDS) == set(CHECK_IDS)


def test_unknown_id_is_rejected():
    with pytest.raises(ValueError):
        verify("T9_9", seed=0)


@pytest.mark.parametrize("theorem_id", ALGEBRAIC_IDS)
def test_algebraic_checks_pass_within_1e_12(theorem_id):
    report = verify(theorem_id, seed=0)
    assert report.mode == "algebraic"
    assert report.tolerance == 1e-12
    assert report.passed, format_report(report)
    assert report.discrepancy < 1e-12


@pytest.mark.parametrize("theorem_id", CONVERGENCE_IDS)
def test_convergence_checks_pass_within_1e_3(theorem_id):
    report = verify(theorem_id, seed=0)
    assert report.mode == "algebraic"
    assert report.tolerance == 1e-3
    assert report.passed, format_report(report)
    assert "sup@n10000" in report.detail


def test_monte_carlo_checks_use_the_ks_band():
    report = verify("T3_1", seed=0)
    assert report.mode == "monte-carlo"
    assert report.tolerance == pytest.approx(1.628 / 100_000**0.5, rel=0, abs=1e-15)
    assert report.passed, format_report(report)


def test_reports_are_deterministic_per_seed():
    a = verify("T3_2", seed=3)
    b = verify("T3_2", seed=3)
    c = verify("T3_2", seed=4)
    assert a == b
    assert a.discrepancy != c.discrepancy


def test_passed_mirrors_discrepancy_against_tolerance():
    for theorem_id in ("T2_1", "T3_3"):
        report = verify(theorem_id, seed=0)
        assert report.passed == (report.discrepancy < report.tolerance)


def test_negative_control_detail_is_reported():
    report = verify("T3_3", seed=0)
    assert "control" in report.detail
    assert "must fail" in report.detail
    assert report.passed, format_report(report)


def test_report_dict_shape():
    report = verify("T2_1", seed=5)
    payload = report_to_dict(report)
    assert payload == {
        "theorem_id": "T2_1",
        "mode": "algebraic",
        "discrepancy": report.discrepancy,
        "tolerance": 1e-12,
        "pass": True,
        "seed": 5,
        "detail": "",
    }


def test_report_carries_the_seed_the_stream_was_built_from():
    # numpy integers and bools are accepted as seeds; the report stores the int
    for given, used in ((np.int64(3), 3), (True, 1)):
        report = verify("T2_1", given)
        assert type(report.seed) is int and report.seed == used
        assert json.loads(json.dumps(report_to_dict(report)))["seed"] == used


def test_format_report_line():
    report = VerificationReport("T2_1", "algebraic", 1e-15, 1e-12, True, 0, "")
    line = format_report(report)
    assert line.startswith("T2_1")
    assert "PASS" in line and "FAIL" not in line
    assert "discrepancy=1.000000e-15" in line
    failing = VerificationReport("T3_3", "monte-carlo", 0.5, 0.005, False, 0, "note")
    assert "FAIL" in format_report(failing)
    assert "[note]" in format_report(failing)


def test_verify_all_runs_every_check_in_order():
    reports = verify_all(seed=0)
    assert [r.theorem_id for r in reports] == list(CHECK_IDS)
    assert all(r.passed for r in reports), [format_report(r) for r in reports]


def test_checks_draw_from_a_reserved_stream_block():
    assert verify_module.STREAM_BLOCK >= len(CHECK_IDS)


# -- NaN cells and the stream layout ---------------------------------------


def _nan_geo_max_at(p_bad, real):
    def geo_max_cdf(law, p, x):
        out = real(law, p, x)
        return np.full(np.shape(out), np.nan) if p == p_bad else out
    return geo_max_cdf


@pytest.mark.parametrize("theorem_id", ("T2_5", "T2_6", "T2_7"))
def test_a_nan_geo_max_cell_fails_its_check(theorem_id, monkeypatch):
    monkeypatch.setattr(verify_module, "geo_max_cdf", _nan_geo_max_at(0.5, verify_module.geo_max_cdf))
    report = verify(theorem_id, seed=0)
    assert math.isnan(report.discrepancy)
    assert not report.passed, format_report(report)


def test_a_convergence_scheme_that_moves_away_fails_its_check(monkeypatch):
    # step n of the patched scheme is step 100000/n of the real one, so its
    # distance to the limit grows with n: the guard sets the discrepancy to
    # the tolerance, which pass == (discrepancy < tolerance) fails
    real = verify_module.limit_geo_gamma_cdf
    monkeypatch.setattr(verify_module, "limit_geo_gamma_cdf", lambda beta, n, exponent, x: real(beta, 100_000 // n, exponent, x))
    report = verify("T2_3", seed=0)
    assert report.discrepancy == report.tolerance == 1e-3
    assert report.detail.startswith("sup sequence not decreasing")
    assert not report.passed, format_report(report)


# T2_4's scheme F_n = ggamma_mid(beta/n)**n tends to F = gamma_mid(beta).
# With y = -log F, F_n = (1 + y/n)**-n = F exp(y**2/(2n) - y**3/(3n**2) + ...), so
#     n (F_n - F) = y**2 F/2 + F (y**4/8 - y**3/3)/n + O(1/n**2).
# sup_y e**-y |y**4/8 - y**3/3| = 0.2460 (at y = 5.10), and the next term,
# e**-y (y**6/48 - y**5/6 + y**4/4)/n**2, is at most 0.39/n**2: K = 0.25
# bounds both from n = 10**3 on (the error measures 0.2457/n and 0.2460/n).
T2_4_RATE_K = 0.25


def t2_4_rate_error(shape, beta, n):
    """sup |n (F_n - F) - y**2 F/2| over the registry's grid, F_n = ggamma_mid(shape)**n."""
    target = gamma_mid(beta, E1)
    grid = quantile_grid(target)
    f, y = target.cdf(grid), target.neg_log_cdf(grid)
    return float(np.max(np.abs(n * (n_max_cdf(ggamma_mid(shape, E1), n, grid) - f) - y**2 * f / 2)))


@pytest.mark.parametrize("n", [10**3, 10**4])
@pytest.mark.parametrize("beta", verify_module.BETAS)
def test_t2_4_converges_at_its_first_order_rate(beta, n):
    """n (F_n - F) is y**2 F/2 to within K/n, and the shapes beta/(n + 1)
    and beta (1 + 1/n)/n, which converge to the same limit, miss it by
    y F, up to 1/e = 0.368.  On the quantile grid every term is a
    function of u = F(x) alone, so the betas differ in rounding only."""
    assert t2_4_rate_error(beta / n, beta, n) <= T2_4_RATE_K / n
    for wrong in (beta / (n + 1), beta * (1 + 1 / n) / n):
        assert t2_4_rate_error(wrong, beta, n) > 0.36


def test_t2_4_cannot_see_the_rate(monkeypatch):
    # what the rate test adds: the registry's monotone, below-1e-3 rule
    # passes the beta/(n + 1) scheme
    real = verify_module.n_max_cdf
    monkeypatch.setattr(verify_module, "n_max_cdf", lambda law, n, x: real(ggamma_mid(law.beta * n / (n + 1), E1), n, x))
    report = verify("T2_4", seed=0)
    assert report.passed, format_report(report)
    assert "sup@n10000=5.869e-05" in report.detail  # 2.707e-05 for the real scheme


# T2_3's scheme F_n = 1/(1 + n expm1(y/n)), y = beta log1p(psi), tends to
# F = 1/(1 + y).  With u = F, y = (1 - u)/u and n expm1(y/n) = y + y**2/(2n)
# + y**3/(6n**2) + ..., so
#     n (F - F_n) = (1 - u)**2/2 + K(u)/n + O(1/n**2),
#     K(u) = ((1 - u)**3/u) (1/6 - (1 - u)/4),
# K(0.001) = -82.8.  The remainder is largest at the grid's lower edge,
# where y/n is not small: 1,275/n**2 at u = 0.001 and n = 10**3, 56/n**2 at
# n = 10**4 (beta = 2; at beta 0.5 and 1 the grid starts higher, at the
# float floor).  C = 2000 bounds both.
T2_3_RATE_C = 2000


def t2_3_rate_error(scheme_beta, beta, n):
    """sup |n (F - F_n) - (1 - u)**2/2 - K(u)/n| over the registry's grid, u = F(x),
    F_n the scheme at shape scheme_beta."""
    target = ggamma_mid(beta, E1)
    grid = quantile_grid(target)
    u = target.cdf(grid)
    k = (1 - u) ** 3 / u * (1 / 6 - (1 - u) / 4)
    return float(np.max(np.abs(n * (u - limit_geo_gamma_cdf(scheme_beta, n, E1, grid)) - (1 - u) ** 2 / 2 - k / n)))


@pytest.mark.parametrize("n", [10**3, 10**4])
@pytest.mark.parametrize("beta", verify_module.BETAS)
def test_t2_3_converges_at_its_first_order_rate(beta, n):
    """n (F - F_n) is (1 - u)**2/2 + K(u)/n to within C/n**2, and the
    shapes beta n/(n + 1) and beta (1 + 1/n), which converge to the same
    limit, miss its first-order term by u (1 - u), up to 0.25."""
    assert t2_3_rate_error(beta, beta, n) <= T2_3_RATE_C / n**2
    for wrong in (beta * n / (n + 1), beta * (1 + 1 / n)):
        assert t2_3_rate_error(wrong, beta, n) > 0.24


@pytest.mark.parametrize("wrong", ["n/(n+1)", "1+1/n"])
def test_t2_3_cannot_see_the_rate(monkeypatch, wrong):
    # what the rate test adds: the registry's monotone, below-1e-3 rule
    # passes both wrong schemes
    real = verify_module.limit_geo_gamma_cdf
    factor = {"n/(n+1)": lambda n: n / (n + 1), "1+1/n": lambda n: 1 + 1 / n}[wrong]
    monkeypatch.setattr(verify_module, "limit_geo_gamma_cdf", lambda beta, n, exponent, x: real(beta * factor(n), n, exponent, x))
    report = verify("T2_3", seed=0)
    assert report.passed, format_report(report)
    expected = {"n/(n+1)": "4.919e-05", "1+1/n": "4.994e-05"}[wrong]
    assert f"beta=1:sup@n10000={expected}" in report.detail  # 4.943e-05 for the real scheme


# -- T3_3's exact twin: the lag-L law of ar1_ensemble's look-back draw ------


def t3_3_lag_cdf(spec, x, innovation_beta=None):
    """P(X_L <= x) at L = verify.AR1_LAG for the innovations ar1_ensemble draws.

    The look-back G ~ geometric(p) gives X_L the d.f. F_eps**g with
    probability p (1-p)**(g-1) for g <= L, and F_eps**L F past L:
        p F_eps (1 - r**L)/(1 - r) + r**L F,  r = (1-p) F_eps.
    log r = log1p(-p) - (-log F_eps) and the ratio is expm1(L log r) /
    expm1(log r), so neither 1 - r nor 1 - r**L cancels where r is near 1
    (small p, large x): the value is good to a few ulps there too.
    """
    beta = spec.innovation_beta if innovation_beta is None else innovation_beta
    innovation, lag = ggamma_mid(beta, spec.exponent), verify_module.AR1_LAG
    log_r = np.log1p(-spec.p) - innovation.neg_log_cdf(x)
    return spec.p * innovation.cdf(x) * np.expm1(lag * log_r) / np.expm1(log_r) + np.exp(lag * log_r) * spec.marginal_law().cdf(x)


@pytest.mark.parametrize("exponent", [frechet(1.0), weibull(2.0), gumbel()], ids=lambda e: e.family.value)
def test_t3_3_exact_twin_holds_the_lag_law_to_1e_12(exponent):
    # the innovation d.f. solves F = p F_eps + (1-p) F F_eps, and the lag-L
    # d.f. it gives is the marginal F; an innovation shape off by 1e-9
    # relative moves it by ~2.5e-10, and the beta/p control by ~0.33
    for beta in verify_module.BETAS:
        for p in verify_module.PS:
            spec = Ar1Spec(p, beta, exponent)
            grid = quantile_grid(spec.marginal_law())
            f = spec.marginal_law().cdf(grid)
            f_eps = ggamma_mid(spec.innovation_beta, exponent).cdf(grid)
            assert np.max(np.abs(f_eps - innovation_cdf_from_marginal(f, p))) <= 1e-12
            assert np.max(np.abs(t3_3_lag_cdf(spec, grid) - f)) <= 1e-12, (beta, p)
            assert np.max(np.abs(t3_3_lag_cdf(spec, grid, spec.innovation_beta * (1 + 1e-9)) - f)) > 1e-12, (beta, p)
    control = Ar1Spec(0.5, 1.0, exponent)
    grid = quantile_grid(control.marginal_law())
    gap = np.max(np.abs(t3_3_lag_cdf(control, grid, control.marginal_beta / control.p) - control.marginal_law().cdf(grid)))
    assert gap > 0.3


# -- T3_1's exact twin: the law compound_simulate draws at a gamma(1) time ---
# T3_2 has no twin: the base process at the unit-time ggamma time and
# ggamma_mid evaluate the same laws._KINDS record, so their d.f.s agree to
# the bit (0.0 on every grid) and the difference would show nothing.


@pytest.mark.parametrize("exponent", [frechet(1.0), frechet(2.0), weibull(1.0), gumbel()], ids=["frechet-1", "frechet-2", "weibull-1", "gumbel"])
def test_t3_1_exact_twin_holds_the_compound_law_to_1e_12(exponent):
    # gamma-mid(beta) at a gamma(t) time has the d.f. (1 + beta log1p(psi))**-t,
    # ggamma-mid(beta) at t = 1 (1.1e-16 measured); a time t of 1 + 1e-9
    # moves it by ~3.7e-10, and t = 1.05 by ~1.8e-2
    sub = SubordinatorSpec(SubKind.GAMMA)
    for beta in verify_module.BETAS:
        spec, target = ExtremalSpec(gamma_mid(beta, exponent)), ggamma_mid(beta, exponent)
        grid = quantile_grid(target)
        gap = lambda t: np.max(np.abs(compound_marginal_cdf(spec, sub, t, grid) - target.cdf(grid)))
        assert gap(1.0) <= 1e-12, beta
        assert gap(1.0 + 1e-9) > 1e-12 and gap(1.05) > 1e-2, beta


def _spy_ks(monkeypatch, nan_call=None):
    """Record every KS report of the registry; call nan_call reports NaN."""
    real, reports = verify_module.ks_one_sample, []

    def ks_one_sample(samples, cdf, **kwargs):
        report = real(samples, cdf, **kwargs)
        if len(reports) == nan_call:
            report = dataclasses.replace(report, statistic=math.nan, passed=False)
        reports.append(report)
        return report

    monkeypatch.setattr(verify_module, "ks_one_sample", ks_one_sample)
    return reports


def test_a_nan_monte_carlo_cell_fails_its_check(monkeypatch):
    _spy_ks(monkeypatch, nan_call=1)  # the beta=1 cell
    report = verify("T3_1", seed=0)
    assert "beta=1:nan" in report.detail
    assert math.isnan(report.discrepancy)
    assert not report.passed, format_report(report)


def test_a_nan_control_statistic_fails_t3_3(monkeypatch):
    _spy_ks(monkeypatch, nan_call=9)  # the beta/p control, the last cell
    report = verify("T3_3", seed=0)
    assert "control=nan must fail; control unexpectedly passed" in report.detail
    assert not report.passed, format_report(report)


def test_verify_all_runs_sixteen_ks_tests(monkeypatch):
    reports = _spy_ks(monkeypatch)
    verify_all(seed=1)
    assert len(reports) == 16
    assert all(r.n == verify_module.MC_SIZE for r in reports)


def test_t3_1_cell_is_one_substream_of_its_check_stream():
    # T3_1 is check 8 of the registry; its beta=1 cell is lattice cell 1
    seed = 42
    rng = RandomSource(seed, verify_module.STREAM_BLOCK + 8).substream(1).generator()
    spec = ExtremalSpec(gamma_mid(1.0, E1))
    draws = compound_simulate(spec, SubordinatorSpec(SubKind.GAMMA), 1.0, rng, verify_module.MC_SIZE)
    statistic = ks_one_sample(draws, ggamma_mid(1.0, E1)).statistic
    assert f"beta=1:{statistic:.5f}" in verify("T3_1", seed).detail


def test_t3_3_control_is_its_last_lattice_cell(monkeypatch):
    # T3_3 is check 10; nine stationary cells come first, the control is cell 9
    seed = 42
    spec = Ar1Spec(0.5, 1.0, E1)
    rng = RandomSource(seed, verify_module.STREAM_BLOCK + 10).substream(9).generator()
    draws = ar1_ensemble(spec, 100, rng, verify_module.MC_SIZE, innovation_beta=2.0)
    statistic = ks_one_sample(draws, ggamma_mid(1.0, E1)).statistic
    reports = _spy_ks(monkeypatch)
    detail = verify("T3_3", seed).detail
    assert reports[-1].statistic == statistic
    assert f"beta/p control={statistic:.5f} must fail" in detail


@pytest.mark.parametrize("theorem_id", MONTE_CARLO_IDS)
def test_a_monte_carlo_check_holds_one_sample_and_two_blocks(theorem_id):
    # each cell's draws go before the next cell draws, the KS test sorts and
    # evaluates them in their own buffer, and ar1_ensemble writes its
    # look-back counts over X_0's uniforms: one sample of MC_SIZE float64
    # and two of the samplers' blocks (their scratch block and numpy's
    # buffers).  Keeping the last cell's draws, a sorted copy of them and
    # every X_0 uniform beside the counts took 2.2-2.5 MB, 1.2-1.4 samples more
    verify(theorem_id, 3)
    tracemalloc.start()
    try:
        verify(theorem_id, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    sample = 8 * verify_module.MC_SIZE
    assert peak <= sample + 2 * 8 * _BLOCK, peak / sample
