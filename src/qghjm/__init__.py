"""One-factor quasi-Gaussian HJM short-rate model with regularized CEV
volatility: Monte Carlo simulation with explosion detection, the
deterministic small-noise limit, explosion certificates with Lyapunov
verification, parameter-region scans, and bond/futures pricing."""

from .errors import (ConfigError, DomainError, GammaOutOfRange,
                     InfeasibleWedge, QGHJMError, UnsupportedGamma)
# the public API is each module's __all__, republished here
from .explosion_criteria import *  # noqa: F401,F403
from .model_core import *  # noqa: F401,F403
from .ode_limit import *  # noqa: F401,F403
from .pricing import *  # noqa: F401,F403
from .sde_engine import *  # noqa: F401,F403

__version__ = "0.1.0"
