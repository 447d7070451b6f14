"""Encoder-decoder ReLU network forecasting toolkit."""

__version__ = "0.1.0"


class ConfigError(ValueError):
    """A malformed config value, series file or model file; the message
    names the field or line, and the command line exits with code 2."""


class NumericFailure(RuntimeError):
    """A computation that left its numeric range (training diverged, a model
    is unstable, a rate solver found no root); the command line exits with
    code 3."""
