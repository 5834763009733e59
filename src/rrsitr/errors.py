"""Exception taxonomy shared across the package.

Each class carries the exit code the CLI returns for it.
"""


class RrsitrError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ConfigError(RrsitrError):
    """Invalid hyperparameter, shape, or argument combination."""

    exit_code = 2


class FormatError(RrsitrError):
    """Malformed or truncated dataset/checkpoint file."""

    exit_code = 3


class DataError(RrsitrError):
    """Well-formed data that violates a semantic contract (e.g. noisy eval set)."""

    exit_code = 3


class NumericError(RrsitrError):
    """Numeric-domain violation or divergence (zero norms, non-finite loss)."""

    exit_code = 4
