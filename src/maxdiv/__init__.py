"""Max-infinitely divisible laws and their composition calculus.

The package covers four d.f. families built on a tail exponent psi
(base exp(-psi), geometric 1/(1+psi), gamma-shaped (1+psi)**-beta and
log-compounded 1/(1+beta*log(1+psi))), the geometric-max operators
connecting them, extremal and subordinated processes sharing the same
marginal algebra, a stationary max-autoregression, and a registry of
numerical checks confirming every identity at desk scale.

The public names are those of each layer's __all__.
"""

from . import algebra, ar1, exponents, extremal, ksstats, laws, rng
from . import verify as _verify  # the name verify is the function below
from .algebra import *  # noqa: F401,F403
from .ar1 import *  # noqa: F401,F403
from .exponents import *  # noqa: F401,F403
from .extremal import *  # noqa: F401,F403
from .ksstats import *  # noqa: F401,F403
from .laws import *  # noqa: F401,F403
from .rng import *  # noqa: F401,F403
from .verify import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = sorted(
    name
    for layer in (algebra, ar1, exponents, extremal, ksstats, laws, rng, _verify)
    for name in layer.__all__
)
