"""The one setting read from the environment, the oracle's byte budget
PBT_ORACLE_BYTES (validated where it is read), and the errors that a
configured or numeric limit raises."""

from __future__ import annotations

import os


class ConfigError(Exception):
    """An environment setting has a value the program cannot use."""


class SizeCapError(ValueError):
    """A computation would exceed a size limit: an oracle run estimated over
    the byte budget PBT_ORACLE_BYTES, or a value beyond float64."""


def env_positive_int(name: str, default: int) -> int:
    """The positive integer in environment variable ``name``, or ``default``
    when it is unset."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise ConfigError(f"{name} must be a positive integer, got {raw!r}")
    return value
