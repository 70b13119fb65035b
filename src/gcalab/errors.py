"""Exception types shared across the package, and the one gate through
which a config mapping becomes a config dataclass."""

from __future__ import annotations

import typing


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


class CellFileError(GcalabError):
    """A cell file is not valid JSON or lacks the fields of a cell."""


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


# Python's own numbers only: a NumPy integer or float32 would reach
# config_id and data_descriptor, which cannot JSON-encode it.
_SCALARS = {
    int: lambda v: isinstance(v, int) and not isinstance(v, bool),
    float: lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    bool: lambda v: isinstance(v, bool),
    str: lambda v: isinstance(v, str),
}


def _conforms(value, hint) -> bool:
    """Whether ``value`` has the field type ``hint``. A nested config class
    is left to check itself."""
    if hint in _SCALARS:
        return _SCALARS[hint](value)
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)):
            return False
        sized = args[-1] is Ellipsis or len(value) == len(args)
        return sized and all(_conforms(v, args[0]) for v in value)
    if type(None) in args:
        return value is None or _conforms(value, args[0])
    return True


def check_types(cls, values: dict, section: str) -> None:
    """A ConfigError naming ``section``, the key and the type it should
    have, for the first value whose type is not its field's in ``cls``."""
    hints = typing.get_type_hints(cls)
    for key, value in values.items():
        hint = hints.get(key)
        if hint is not None and not _conforms(value, hint):
            expected = hint.__name__ if isinstance(hint, type) else str(hint)
            raise ConfigError(f"{section}.{key} must be {expected}, got {value!r}")


def from_mapping(cls, mapping, section: str):
    """``cls(**mapping)``, with a wrong type or an unknown or missing key
    raised as a ConfigError naming ``section``; a value whose type is not
    its field's is named with the type it should have. Values are passed on
    as given. An instance of ``cls`` has its fields checked the same way and
    is returned unchanged."""
    if isinstance(mapping, cls):
        check_types(cls, vars(mapping), section)
        return mapping
    if not isinstance(mapping, dict):
        raise ConfigError(f"{section} must be a mapping, got {mapping!r}")
    check_types(cls, mapping, section)
    try:
        return cls(**mapping)
    except (TypeError, ValueError, LookupError) as exc:
        raise ConfigError(f"{section}: {exc}") from exc
