"""Windowed integral estimators.

Both the bandwidth estimate and the ultra-local drift estimate are integrals
of the sampled signal against fixed kernels over a trailing window of length
tau.  The quadrature weights integrate the kernel exactly against the
piecewise-linear interpolant of the samples, so affine signals are handled to
machine precision.

The weights depend only on the window, so each public weight function is
memoized: every episode of a config shares one weight vector, a tuple of
floats, which is also the form ``kernels.window_dot`` is keyed on.
"""
from functools import lru_cache

import numpy as np


def _pl_weights(tau: float, n_seg: int, kfun) -> tuple:
    """Exact weights for integrating kfun(s) * piecewise-linear(samples), as a
    tuple of floats.

    Per segment the product is at most cubic, so Simpson applied to
    kernel-times-hat basis functions is exact.
    """
    h = tau / n_seg
    a = np.arange(n_seg) * h
    m = a + 0.5 * h
    b = a + h
    w = np.zeros(n_seg + 1)
    w[:-1] += h / 6.0 * (kfun(a) + 2.0 * kfun(m))
    w[1:] += h / 6.0 * (2.0 * kfun(m) + kfun(b))
    return tuple(w.tolist())


@lru_cache(maxsize=8)
def linear_kernel_weights(tau: float, n_seg: int) -> tuple:
    """Weights for the kernel (tau - 2s)."""
    return _pl_weights(tau, n_seg, lambda s: tau - 2.0 * s)


@lru_cache(maxsize=8)
def bump_kernel_weights(tau: float, n_seg: int) -> tuple:
    """Weights for the kernel s*(tau - s)."""
    return _pl_weights(tau, n_seg, lambda s: s * (tau - s))
