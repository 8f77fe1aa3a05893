"""Shared exception types."""


class SlmforgeError(Exception):
    """Base class for errors raised by this package."""


class UnsupportedWavError(SlmforgeError):
    """WAV container or sample encoding the reader does not handle."""


class TruncatedWavError(SlmforgeError):
    """WAV data chunk declares more bytes than the file contains."""


class ConfigError(SlmforgeError):
    """Invalid or inconsistent configuration values."""


class StageError(SlmforgeError):
    """A processing stage (external tool or built-in) failed.

    When an external subprocess was involved, the message holds its exit
    code and an excerpt of its stderr.
    """


class GraphError(SlmforgeError):
    """Autodiff graph misuse: shape mismatch, non-scalar backward, missing grad."""


class NonFiniteError(SlmforgeError):
    """An op produced NaN or Inf values; the message names the op."""


class CheckpointError(SlmforgeError):
    """Checkpoint file is malformed or incompatible with the target module."""
