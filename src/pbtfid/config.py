"""Settings read from the environment, validated where they are read."""

from __future__ import annotations

import os


class ConfigError(Exception):
    """An environment setting has a value the program cannot use."""


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
