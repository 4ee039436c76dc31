"""Windowed integral estimators.

Both the bandwidth estimate and the ultra-local drift estimate are integrals
of the sampled signal against fixed kernels over a trailing window of length
tau.  The quadrature weights integrate the kernel exactly against the
piecewise-linear interpolant of the samples, so affine signals are handled to
machine precision.
"""
import numpy as np


def _pl_weights(tau: float, n_seg: int, kfun) -> np.ndarray:
    """Exact weights for integrating kfun(s) * piecewise-linear(samples).

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
    return w


def linear_kernel_weights(tau: float, n_seg: int) -> np.ndarray:
    """Weights for the kernel (tau - 2s)."""
    return _pl_weights(tau, n_seg, lambda s: tau - 2.0 * s)


def bump_kernel_weights(tau: float, n_seg: int) -> np.ndarray:
    """Weights for the kernel s*(tau - s)."""
    return _pl_weights(tau, n_seg, lambda s: s * (tau - s))
