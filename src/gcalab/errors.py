"""Exception types shared across the package, and the one gate through
which a config mapping becomes a config dataclass."""

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


def from_mapping(cls, mapping, section: str):
    """``cls(**mapping)``, with a wrong type or an unknown or missing key
    raised as a ConfigError naming ``section``. An instance of ``cls``
    passes through unchanged."""
    if isinstance(mapping, cls):
        return mapping
    if not isinstance(mapping, dict):
        raise ConfigError(f"{section} must be a mapping, got {mapping!r}")
    try:
        return cls(**mapping)
    except (TypeError, ValueError, LookupError) as exc:
        raise ConfigError(f"{section}: {exc}") from exc
