"""Max-infinitely divisible laws and their composition calculus.

The package covers four d.f. families built on a tail exponent psi
(base exp(-psi), geometric 1/(1+psi), gamma-shaped (1+psi)**-beta and
log-compounded 1/(1+beta*log(1+psi))), the geometric-max operators
connecting them, extremal and subordinated processes sharing the same
marginal algebra, a stationary max-autoregression, and a registry of
numerical checks confirming every identity at desk scale.

The public names are those of each layer's __all__.  ``import maxdiv``
loads no layer and no numpy: the eight layers are imported, and their
public names bound here, the first time a public name, a layer or
__all__ is asked for (PEP 562), so ``maxdiv --help`` starts without
them.  ``maxdiv.verify`` is the function in every import order, also
after ``import maxdiv.verify`` has loaded the submodule first.
"""

import sys
import types
from importlib import import_module

__version__ = "0.1.0"

_LAYERS = ("algebra", "ar1", "exponents", "extremal", "ksstats", "laws", "rng", "verify")


def _load() -> None:
    """Import every layer and bind its public names and __all__ here, once."""
    if "__all__" in globals():
        return
    public = {}
    for layer in _LAYERS:
        module = import_module(f"{__name__}.{layer}")
        public.update((name, getattr(module, name)) for name in module.__all__)
    globals().update(public, __all__=sorted(public))


def __getattr__(name: str):
    # private and dunder probes (copy, pickle, pytest) must not load numpy
    if name == "__all__" or not name.startswith("_"):
        _load()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    _load()
    return sorted(globals())


class _Package(types.ModuleType):
    """The package module; loading maxdiv.verify binds the function, not the module."""

    def __setattr__(self, name: str, value) -> None:
        if name == "verify" and isinstance(value, types.ModuleType):
            value = value.verify
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
