"""Package surface: the top-level names and the per-kind table."""

import importlib

import maxdiv
from maxdiv import laws

LAYERS = ("algebra", "ar1", "exponents", "extremal", "ksstats", "laws", "rng", "verify")

# pinned by name, so an accidental addition or removal shows in the diff
PUBLIC = [
    "Ar1Spec", "CHECK_IDS", "Exponent", "ExtremalSpec", "Family", "KSReport",
    "KS_COEFFICIENTS", "LawKind", "MaxLaw", "RandomSource", "SubKind",
    "SubordinatorSpec", "VerificationReport", "ar1_ensemble", "ar1_simulate",
    "base_law", "cdf_validity_gap", "compound_marginal_cdf", "compound_simulate",
    "critical_one_sample", "ep_marginal_cdf", "ep_simulate_ensemble",
    "ep_simulate_path", "expr_from_law", "format_report", "frechet", "g_mid",
    "gamma_mid", "geo_max_cdf", "geo_max_sample", "ggamma_mid", "gumbel",
    "innovation_cdf_from_marginal", "iterate_transform", "ks_one_sample",
    "ks_two_sample", "law_from_dict", "law_to_dict", "limit_geo_gamma_cdf",
    "lt_ggamma", "n_max_cdf", "quantile_grid", "report_to_dict", "sample_ggamma",
    "scale_exponent", "semi_stable_scale", "stationary_innovation_shape",
    "subordinator_marginal", "sup_norm_grid", "uniform_open", "verify",
    "verify_all", "weibull",
]  # fmt: skip


def test_top_level_names_are_the_union_of_the_layers():
    modules = [importlib.import_module(f"maxdiv.{layer}") for layer in LAYERS]
    union = {name for module in modules for name in module.__all__}
    assert set(maxdiv.__all__) == union
    assert maxdiv.__all__ == PUBLIC
    for module in modules:
        for name in module.__all__:
            assert getattr(maxdiv, name) is getattr(module, name)


def test_every_law_kind_has_a_table_record():
    assert set(laws._KINDS) == set(laws.LawKind)
