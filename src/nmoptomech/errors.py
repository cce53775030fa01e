"""Exception types shared across the package, and where its warnings point."""

import inspect
import os


class ConfigError(ValueError):
    """Raised when a run configuration is malformed or inconsistent."""


class NumericalFailure(RuntimeError):
    """Raised when an integrator detects blow-up, drift, or loss of validity."""


class TruncationError(NumericalFailure):
    """Raised when probability leaks into the top levels of a truncated basis.

    Carries a suggestion for enlarged mode dimensions in ``suggested_dims``.
    """

    def __init__(self, message, suggested_dims=None):
        super().__init__(message)
        self.suggested_dims = suggested_dims


def _outside_stacklevel():
    """``stacklevel`` of the first caller outside this package, for a
    warning raised by the function that calls this one."""
    inside = os.path.dirname(__file__) + os.sep
    frame, level = inspect.currentframe().f_back.f_back, 2
    while frame is not None and frame.f_code.co_filename.startswith(inside):
        frame, level = frame.f_back, level + 1
    return level
