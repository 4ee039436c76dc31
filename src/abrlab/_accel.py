"""Numba acceleration switch.

Set ABRLAB_DISABLE_NUMBA=1 to run the pure numpy/Python path (useful for
debugging and for benchmarking the compiled kernels against the fallback).
The numba NUMBA_DISABLE_JIT variable is honoured as well.
"""
import os

_disabled = (
    os.environ.get("ABRLAB_DISABLE_NUMBA", "0") == "1"
    or os.environ.get("NUMBA_DISABLE_JIT", "0") == "1"
)

NUMBA_ENABLED = False

if not _disabled:
    try:
        from numba import njit as _njit

        NUMBA_ENABLED = True
    except ImportError:
        pass

if NUMBA_ENABLED:
    def maybe_njit(fn):
        return _njit(cache=True)(fn)

    @maybe_njit
    def as_floats(a):
        """Compiled code indexes the array itself."""
        return a
else:
    def maybe_njit(fn):
        return fn

    def as_floats(a):
        """The array's elements as a list of Python floats.

        Interpreted arithmetic on Python floats gives the same IEEE results
        as on NumPy scalars, at a fraction of the cost.
        """
        return a.tolist()
