"""Error taxonomy shared across the package.

Exit-code rule of the CLI: 2 when the command line is wrong (a negative
option value works as ``--flag VALUE`` or ``--flag=VALUE``), 3 when an input
file is wrong or a domain error occurred, 4 for a numerical failure. Invalid
arguments to library functions raise plain ValueError (exit 3 in the CLI);
``_is_integer`` is the one integer test those checks share.

Every module that calls SciPy imports this one, so it also holds
``_scipy_extension``, the one rule by which SciPy enters the package: as a
compiled kernel, loaded alone.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from functools import cache

import numpy as np


def _is_integer(value) -> bool:
    """True for Python and numpy integers; bool and float are refused."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@cache
def _scipy_extension(subpackage: str, name: str):
    """scipy.<subpackage>.<name>, one of SciPy's compiled extension modules,
    without importing scipy.<subpackage>.

    The module in sys.modules if there is one; otherwise the extension is
    loaded from scipy's directory, which ``find_spec("scipy")`` names without
    importing anything, and registered under its own name. What the
    extension imports loads with it: LAPACK's ``_flapack`` and brentq's
    ``_zeros`` import nothing, the Cython ``_sosfilt`` ``scipy`` and a few of
    ``scipy._lib``'s modules.
    Its functions are the objects SciPy's own wrappers call, and a later
    ``import scipy.<subpackage>`` reuses the module. The one wart: that
    package then lacks the ``name`` attribute, though SciPy's own ``from
    scipy.<subpackage> import <name>`` still works through sys.modules.
    """
    full = f"scipy.{subpackage}.{name}"
    if full not in sys.modules:
        [root] = importlib.util.find_spec("scipy").submodule_search_locations
        spec = importlib.machinery.PathFinder.find_spec(full, [os.path.join(root, subpackage)])
        sys.modules[full] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[full])
    return sys.modules[full]


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
