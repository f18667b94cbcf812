"""Exception hierarchy shared across the package."""


class QGHJMError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(QGHJMError, ValueError):
    """Invalid model parameters, simulation settings, or run configuration."""


class DomainError(QGHJMError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class UnsupportedGamma(QGHJMError):
    """The deterministic small-noise limit is only defined for gamma = 1."""


class GammaOutOfRange(QGHJMError):
    """Explosion certificates require gamma in (1/2, 1]; below that the
    dynamics are provably non-explosive."""


class EmptySample(QGHJMError):
    """Every simulated path exploded, leaving no sample to average."""


class InfeasibleWedge(QGHJMError):
    """No valid Lyapunov constants could be constructed for the requested
    parameters."""


class CollapsedBond(QGHJMError):
    """A zero-coupon bond price underflowed to zero, so the implied simple
    rate is infinite."""


def as_int(value) -> int:
    """An integer config value: 2 and 2.0 pass, 2.5 is a ConfigError."""
    if not (isinstance(value, int) or float(value).is_integer()):
        raise ConfigError(f"expected an integer, got {value!r}")
    return value if isinstance(value, int) else int(float(value))
