"""Exception hierarchy shared across the package, and the strict reader
of JSON config objects."""

import dataclasses


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


def check_keys(obj, what: str, allowed, required=()) -> dict:
    """obj itself if it is a JSON object with no key outside allowed and
    every key in required; a ConfigError about section what otherwise."""
    if not isinstance(obj, dict):
        raise ConfigError(f"'{what}' must be a JSON object, got {obj!r}")
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown {what} key(s): {sorted(unknown)}")
    missing = set(required) - set(obj)
    if missing:
        raise ConfigError(f"missing {what} key(s): {sorted(missing)}")
    return obj


_CONVERT = {"float": float, "int": as_int,
            "Optional[float]": lambda v: None if v is None else float(v)}


def from_json(cls, obj, what: str):
    """The frozen dataclass cls built from obj, a JSON object keyed by its
    fields. A field without a default is required; a value is converted
    by the field's annotation: float, int (through as_int) or
    Optional[float]."""
    fields = {f.name: f for f in dataclasses.fields(cls)}
    check_keys(obj, what, fields, [k for k, f in fields.items()
                                   if f.default is dataclasses.MISSING])
    kw = {}
    for k, v in obj.items():
        try:
            kw[k] = _CONVERT[fields[k].type](v)
        except (TypeError, ValueError, OverflowError) as e:
            raise ConfigError(f"{k}: {e}") from None
    return cls(**kw)
