"""Package surface: the top-level names and the per-kind table."""

import importlib

import maxdiv
from maxdiv import laws

LAYERS = ("algebra", "ar1", "exponents", "extremal", "ksstats", "laws", "rng", "verify")


def test_top_level_names_are_the_union_of_the_layers():
    modules = [importlib.import_module(f"maxdiv.{layer}") for layer in LAYERS]
    union = {name for module in modules for name in module.__all__}
    assert set(maxdiv.__all__) == union
    assert len(maxdiv.__all__) == len(union) == 62
    for module in modules:
        for name in module.__all__:
            assert getattr(maxdiv, name) is getattr(module, name)


def test_every_law_kind_has_a_table_record():
    assert set(laws._KINDS) == set(laws.LawKind)
