"""Encoder-decoder ReLU network forecasting toolkit."""

__version__ = "0.1.0"


class ConfigError(ValueError):
    """A malformed config value, series file or model file; the message
    names the field or line, and the command line exits with code 2."""


class NumericFailure(RuntimeError):
    """A computation that left its numeric range (training diverged, a model
    is unstable, a rate solver found no root); the command line exits with
    code 3."""


def integral(value, error=ValueError) -> int:
    """A finite, integral number as an int (60.0 and 1e3 read as 60 and
    1000); a bool, a string or a fraction raises ``error``, never truncated."""
    if isinstance(value, (bool, str)) or not float(value).is_integer():
        raise error(f"expected an integer, got {value!r}")
    return int(value)
