"""Exception types raised across the package, and the value checks of the
configuration objects that raise them.

:class:`FfinitError` is the base of four leaves, each also a
``ValueError``: :class:`ConfigurationError`, :class:`InvalidInputError`,
:class:`DatasetError` and :class:`CheckpointError`. The CLI exits 2 on
any of them. A training rate that diverges on the data, and untied
weights handed to the energy, are configuration errors.
"""

import enum
import math
import numbers
import sys


class FfinitError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(FfinitError, ValueError):
    """An input array is outside the operation's domain: its shape does not
    fit the network layout, or it holds a non-finite entry."""


class ConfigurationError(FfinitError, ValueError):
    """A configuration object or combination of settings is invalid."""


class DatasetError(FfinitError, ValueError):
    """A dataset is empty, missing, malformed, or inconsistent with the network."""


class CheckpointError(FfinitError, ValueError):
    """A model checkpoint file is malformed or has an unsupported version."""


def check_count(name: str, value, minimum: int, maximum: float = math.inf) -> None:
    """Raise ConfigurationError unless ``value`` is an integer (not a bool) in
    ``[minimum, maximum]``."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or not minimum <= value <= maximum):
        raise ConfigurationError(
            f"{name} must be an integer in [{minimum}, {maximum}], got {value!r}")


def check_real(name: str, value, minimum: float, strict: bool = False) -> None:
    """Raise ConfigurationError unless ``value`` is a finite number ``>= minimum``
    (``> minimum`` when ``strict``); NaN and integers beyond the float range
    never pass."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not abs(value) <= sys.float_info.max   # NaN, infinite or beyond a float
            or value < minimum or (strict and value == minimum)):
        raise ConfigurationError(
            f"{name} must be a finite number {'>' if strict else '>='} {minimum}, got {value!r}")


def check_fits(what: str, rows: int, width: int, error: type[FfinitError]) -> None:
    """Raise ``error`` unless ``rows`` rows of ``width`` fit one float64 array."""
    entries = int(rows) * int(width)
    if entries > sys.maxsize // 8:   # the float64 entries numpy can address
        raise error(f"{what} needs {entries} entries, more than the {sys.maxsize // 8} "
                    "a float64 array can hold")


def check_member(name: str, value, kind: type[enum.Enum]) -> enum.Enum:
    """The member of ``kind`` that ``value`` is, or whose value string it is;
    ConfigurationError listing the allowed values otherwise."""
    if isinstance(value, kind):
        return value
    for member in kind:
        if isinstance(value, str) and value == member.value:
            return member
    raise ConfigurationError(
        f"{name} must be one of {[member.value for member in kind]}, got {value!r}")
