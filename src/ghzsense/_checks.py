"""Argument rules, one home each, for the config and the library.

The config readers and the library's constructors and functions read
their scalar arguments through these checkers, so that a key of a
scenario file and the argument it becomes follow one rule.  Each checker
takes the value, the name of the argument for its message, and the error
class its caller raises (``ValueError`` unless the caller documents
another); it returns the value as a Python ``int`` or ``float``, or a
seed as a ``numpy.random.SeedSequence``.  A boolean, Python's or
numpy's, is never a number here, nor inside a sequence of numbers.
One rule reads an array, not a scalar: :func:`table_photons` gives the
photon count N of a table over all 2**N outcome strings.

The module does no work at import and imports nothing from the package,
so that any module may use it.
"""

from __future__ import annotations

import math

import numpy as np

_BOOLS = (bool, np.bool_)
_BOOL_TYPES = frozenset(_BOOLS)
_FLOATS = (float, np.floating)
_INTS = frozenset({int})

#: Integers are held in numpy's 64-bit integers, so none lies outside
#: [-INT64_BOUND, INT64_BOUND).
INT64_BOUND = 2**63


def integer(value, name: str = "value", minimum: int | None = None, error=ValueError) -> int:
    """``value`` as an int: a Python or numpy integer, or an integral
    number such as ``3.0`` (or a string such as ``"3"``).  A boolean, a
    fraction such as ``3.9``, NaN, an infinity, a value below ``minimum``
    or one no 64-bit integer holds (such as ``1e308``) raises ``error``.
    This is the rule of the config's integer keys."""
    if type(value) is not int:
        if isinstance(value, _BOOLS) or (
            isinstance(value, _FLOATS) and not float(value).is_integer()
        ):
            raise error(f"{name} must be an integer, got {value!r}")
        try:
            value = int(value)
        except (TypeError, ValueError, OverflowError):
            raise error(f"{name} must be an integer, got {value!r}") from None
    if minimum is not None and value < minimum:
        raise error(f"{name} must be >= {minimum}, got {value}")
    if not -INT64_BOUND <= value < INT64_BOUND:
        raise error(f"{name} must lie in [-2**63, 2**63), got {value:.3g}")
    return value


def integer_rows(rows, name: str, error=ValueError) -> tuple[tuple[int, ...], ...]:
    """``rows`` as a tuple of tuples of ints, each value read by
    :func:`integer`.  A table of Python ints, the usual case, is checked
    by one pass over the types of its values, with no call per value;
    the caller checks their range."""
    rows = tuple(map(tuple, rows))
    if {type(v) for row in rows for v in row} <= _INTS:
        return rows
    return tuple(tuple(integer(v, f"{name} entry", error=error) for v in row) for row in rows)


def seed_sequence(value, name: str = "seed", error=ValueError) -> np.random.SeedSequence:
    """``value`` as a ``numpy.random.SeedSequence``: one given is returned
    as it is, a non-negative Python or numpy integer seeds a new one (as
    numpy's generators seed themselves from it).  A boolean, a float, an
    integral one included, or a negative integer raises ``error``."""
    if isinstance(value, np.random.SeedSequence):
        return value
    if isinstance(value, _BOOLS) or not isinstance(value, (int, np.integer)):
        raise error(f"{name} must be a non-negative integer or a SeedSequence, got {value!r}")
    if value < 0:
        raise error(f"{name} must be >= 0, got {value}")
    return np.random.SeedSequence(int(value))


def no_booleans(values, name: str, error=ValueError) -> None:
    """Raise ``error`` if the sequence or array ``values`` holds a boolean:
    one look at an array's dtype, or one pass over the types of the
    values, with no call per value."""
    if isinstance(values, np.ndarray) and values.dtype != object:
        kinds = {values.dtype.type}
    else:
        kinds = set(map(type, values))
    if not _BOOL_TYPES.isdisjoint(kinds):
        raise error(f"{name} must hold numbers, not booleans, got {values!r}")


def finite(value, name: str = "value", error=ValueError) -> float:
    """``value`` as a float; a boolean, a value ``float`` cannot read, NaN
    or an infinity raises ``error``."""
    number = value
    if type(number) is not float:
        if isinstance(value, _BOOLS):
            raise error(f"{name} must be a number, got {value!r}")
        try:
            number = float(value)
        except (TypeError, ValueError, OverflowError):
            raise error(f"{name} must be a number, got {value!r}") from None
    if not math.isfinite(number):
        raise error(f"{name} must be finite, got {value!r}")
    return number


def positive(value, name: str, error=ValueError) -> float:
    """:func:`finite`, refusing 0 and negative numbers."""
    number = finite(value, name, error)
    if not number > 0.0:
        raise error(f"{name} must be positive, got {value!r}")
    return number


def unit_interval(value, name: str, error=ValueError) -> float:
    """:func:`finite`, refusing a number outside [0, 1]."""
    number = finite(value, name, error)
    if not 0.0 <= number <= 1.0:
        raise error(f"{name} must lie in [0, 1], got {value!r}")
    return number


def table_photons(table: np.ndarray, name: str, error=ValueError) -> int:
    """num_photons of ``table``, a one-dimensional array of 2**num_photons
    entries (num_photons >= 0); an array of any other shape raises ``error``."""
    size = table.size
    if table.ndim != 1 or not size or size & (size - 1):
        raise error(f"{name} must hold 2**num_photons entries in one dimension, got shape {table.shape}")
    return size.bit_length() - 1
