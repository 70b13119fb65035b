"""Exception types shared across the package."""

from __future__ import annotations


class GcalabError(Exception):
    """Base class for all package errors."""


class DimensionError(GcalabError):
    """Shapes are incompatible for the requested operation."""


class IndexRangeError(GcalabError):
    """An integer index lies outside the valid range (ids, candidates)."""


class DegenerateSliceError(GcalabError):
    """A softmax slice is fully masked and has no valid support."""


class ContractError(GcalabError):
    """A caller violated an operation's precondition."""


class ConfigError(GcalabError):
    """A configuration object failed validation."""


class NanGradientError(GcalabError):
    """A parameter gradient contained NaN or inf at optimizer step time."""


class NanLossError(GcalabError):
    """The training loss became NaN or inf."""


class CheckpointError(GcalabError):
    """A checkpoint file is malformed or does not match the model."""


class ParseError(GcalabError):
    """A data file could not be parsed; message carries the line number."""


class EmptyDatasetError(GcalabError):
    """No users survived filtering."""


class SamplingError(GcalabError):
    """Not enough candidates remain to sample without replacement."""


class InfeasibleMatchError(GcalabError):
    """No hidden width reaches the target parameter count within tolerance."""


class UndefinedCorrelationError(GcalabError):
    """Correlation requested on a zero-variance input."""
