"""Shared exception types, and the input type checks that raise them.

``ConfigurationError`` covers anything a user can fix by editing inputs
(config files, layouts, policy files); ``ContractViolationError`` marks a call
that broke an operation's precondition and is a bug in the caller.
"""

import math


class ContractViolationError(ValueError):
    """An operation was invoked outside its documented contract."""


class ConfigurationError(ValueError):
    """A run configuration, layout, or resource file is invalid."""


class PolicyFormatError(ConfigurationError):
    """A policy file does not match the documented on-disk format."""


def is_int(value) -> bool:
    # true/false (JSON, YAML) load as bool, a subclass of int that numpy reads as a mask
    return isinstance(value, int) and not isinstance(value, bool)


def is_finite_number(value) -> bool:
    # JSON NaN/Infinity load as floats; integers too large for a float overflow
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False
