"""Exception types shared across the package, and the type check that
configs and their ``validate`` methods share."""

from __future__ import annotations

import dataclasses
import numbers
import os
import sys
import typing


class ErkgError(Exception):
    """Base class for package-specific errors."""


class ParseError(ErkgError):
    """A text input file violates its declared format."""


class ConfigError(ErkgError):
    """Invalid configuration, flags, or an unsupported combination."""


class CheckpointError(ErkgError):
    """A checkpoint file is corrupt, truncated, or incompatible."""


class NumericError(ErkgError):
    """A non-finite value appeared during optimization."""


class InfeasibleError(ErkgError):
    """No restart of a constrained minimization reached feasibility."""


_TYPE_NAMES = {
    int: "an integer", float: "a finite number", bool: "true or false", str: "a string",
    type(None): "null",
}


def typed(value, kind, name: str):
    """``value`` checked to be of ``kind`` (a type or a union of types), or a
    ``ConfigError`` naming it.

    Nothing is coerced: ``int`` accepts only integers, ``float`` finite
    integers or floats (returned as float), and neither accepts
    ``true``/``false``.  numpy's integers and floats count as such.
    """
    members = typing.get_args(kind) or (kind,)
    for t in members:
        if isinstance(value, bool) and t is not bool:
            continue
        if t is float and isinstance(value, numbers.Real):
            # false for NaN, the infinities and integers beyond float range
            x = value if isinstance(value, numbers.Integral) else float(value)
            if abs(x) <= sys.float_info.max:
                return float(value)
        elif isinstance(value, numbers.Integral if t is int else t):
            return value
    names = " or ".join(_TYPE_NAMES.get(t, t.__name__) for t in members)
    raise ConfigError(f"{name} must be {names}, got {value!r}")


def check_seed(value) -> int:
    """``value`` checked to be a seed numpy's ``SeedSequence`` takes, an
    integer >= 0, or a ``ConfigError``."""
    if typed(value, int, "seed") < 0:
        raise ConfigError(f"seed must be an integer >= 0, got {value!r}")
    return value


def check_fields(obj) -> None:
    """Check every field of the dataclass ``obj`` with :func:`typed`
    against its type hint."""
    hints = typing.get_type_hints(type(obj))
    for f in dataclasses.fields(obj):
        typed(getattr(obj, f.name), hints[f.name], f.name)


def check_memory(need: float, what: str, purpose: str) -> None:
    """``ConfigError`` naming ``what`` if ``need`` bytes for ``purpose``
    exceed the machine's physical memory (unchecked where it is unknown),
    so an allocation that cannot succeed is refused before any work."""
    try:
        have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, OSError, ValueError):
        return
    if need > have:
        raise ConfigError(
            f"{what} needs {need / 2**30:.3g} GiB for {purpose}, more than the "
            f"{have / 2**30:.3g} GiB of this machine"
        )
