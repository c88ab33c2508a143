"""Exception types raised across the package, and the value checks of the
configuration objects that raise them."""

import enum
import math
import numbers
import sys


class FfinitError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(FfinitError, ValueError):
    """An input value is outside the operation's domain (e.g. non-finite)."""


class DimensionError(FfinitError, ValueError):
    """An array argument has a shape inconsistent with the network layout."""


class ConfigurationError(FfinitError, ValueError):
    """A configuration object or combination of settings is invalid."""


class NotAnEnergyModelError(FfinitError, ValueError):
    """The parameters do not define a symmetric-coupling energy.

    The scalar energy is only defined when every feedback matrix is exactly
    the transpose of the corresponding feedforward matrix; untied weights
    would silently report a meaningless number, so we refuse instead.
    """


class IdxFormatError(FfinitError, ValueError):
    """An IDX file has the wrong magic number or malformed header."""


class IdxLengthError(FfinitError, ValueError):
    """An IDX file's payload does not match the size declared in its header."""


class DatasetError(FfinitError, ValueError):
    """A dataset is empty, missing, or inconsistent with the network."""


class DivergenceError(FfinitError, RuntimeError):
    """Training produced a non-finite loss or parameters.

    Attributes:
        pair_index: 1-based index of the layer pair being trained.
        epoch: 1-based epoch at which the divergence was detected.
    """

    def __init__(self, message: str, pair_index: int, epoch: int):
        super().__init__(message)
        self.pair_index = pair_index
        self.epoch = epoch


class ConstructionError(FfinitError, RuntimeError):
    """A synthetic ground-truth instance could not be constructed."""


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
