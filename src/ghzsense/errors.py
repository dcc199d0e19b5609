"""Exception hierarchy.

Two broad families matter to callers: :class:`ValidationError` for bad
inputs or configs (CLI exit code 2) and :class:`NumericalError` for
computations that cannot proceed at the requested point (CLI exit
code 3).
"""

from __future__ import annotations


class GhzSenseError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(GhzSenseError):
    """Invalid input, layout, or configuration."""


class NumericalError(GhzSenseError):
    """A numerical operation is undefined or failed at the given point."""


class NotPureError(ValidationError):
    """Operation requires a pure state (every group coherence equal to 1)."""


class TooLargeError(ValidationError):
    """Photon count exceeds the configured maximum for 2**N sized objects."""


class DimensionMismatchError(ValidationError):
    """Two states do not share the same photon count."""


class InvalidLayoutError(ValidationError):
    """Mode layout is inconsistent with the requested probe strategy."""


class InvalidCoherenceError(ValidationError):
    """Coherence value outside [0, 1] or wrong group multiplicity."""


class LayoutMismatchError(ValidationError):
    """State, layout, and phase vector do not refer to the same modes."""


class BadSubsetError(ValidationError):
    """Photon subset is empty, duplicated, or out of range."""


class ChannelMismatchError(ValidationError):
    """Probe photon count does not match the simulated source channels."""


class UnsupportedLayoutError(ValidationError):
    """No closed-form limit is defined for this strategy and layout."""


class UnknownFigureError(ValidationError):
    """Requested reproduction preset does not exist."""


class ConfigError(ValidationError):
    """Scenario configuration failed validation; message names the field."""


class InsufficientDataError(ValidationError):
    """Too few samples, or samples span too little of a fringe period."""


class SingularPointError(NumericalError):
    """Fisher information diverges: an outcome probability is ~ 0."""


class SingularMatrixError(NumericalError):
    """Fisher matrix is singular; the matrix bound is undefined."""


class DegenerateFitError(NumericalError):
    """Fit design matrix does not constrain the fringe parameters."""


class FlatLikelihoodError(NumericalError):
    """Likelihood carries no phase information (V = 0 or empty counts)."""


class MissingGoldenError(GhzSenseError):
    """A preset has no golden entry, or an expected output file is absent."""
