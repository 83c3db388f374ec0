"""Error taxonomy shared across the package.

Exit-code rule of the CLI: 2 when the command line is wrong (a negative
option value works as ``--flag VALUE`` or ``--flag=VALUE``), 3 when an input
file is wrong or a domain error occurred, 4 for a numerical failure. Invalid
arguments to library functions raise plain ValueError (exit 3 in the CLI);
``_is_integer`` is the one integer test those checks share.
"""

from __future__ import annotations

import numpy as np


def _is_integer(value) -> bool:
    """True for Python and numpy integers; bool and float are refused."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


class UnifluxError(Exception):
    """Base class for domain errors. CLI exit code 3 unless overridden."""

    exit_code = 3


class SaturationError(UnifluxError):
    """An amplitude exceeded full scale; carries the peak and sample index."""

    def __init__(self, message: str, peak: float | None = None, index: int | None = None):
        super().__init__(message)
        self.peak = peak
        self.index = index


class NoSolutionError(UnifluxError):
    """A root-finding target lies outside the attainable range."""


class ScheduleError(UnifluxError):
    """A pulse program violates timing or structural rules."""


class ProgramParseError(UnifluxError):
    """Syntax error in a pulse-assembly text program."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column


class NonInvertibleError(UnifluxError):
    """A distortion model cannot be stably inverted at the requested rate."""


class CalibrationError(UnifluxError):
    """A calibration search failed to bracket its optimum."""


class NumericalError(UnifluxError):
    """An internal numerical routine failed to converge."""

    exit_code = 4


class FitError(NumericalError):
    """A model fit did not converge or produced out-of-range parameters."""
