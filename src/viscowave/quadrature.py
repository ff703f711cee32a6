"""Trapezoid and Gauss-Legendre quadrature helpers used across the package.

The package's FFTs all run on numpy.fft at the lengths next_fast_len gives;
trapezoid_convolve is the FFT convolution: forward_trajectory convolves the
forcing with the free responses through it, and the tests check the
angle-addition sums and the march against it.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=64)
def next_fast_len(n: int) -> int:
    """Smallest 5-smooth integer 2^a 3^b 5^c >= n (n >= 1): a length at which
    numpy.fft's real transforms run fast.  Cached, since a march asks for a
    few dozen lengths many times over."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # The least power of two that lifts p35 to at least n.
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def trapezoid_weights(n_nodes: int, dt: float) -> np.ndarray:
    """Composite trapezoid weights on a uniform grid with n_nodes nodes."""
    if n_nodes < 2:
        raise ValueError(f"trapezoid rule needs at least 2 nodes, got {n_nodes}")
    w = np.full(n_nodes, dt)
    w[0] = w[-1] = 0.5 * dt
    return w


def trapezoid_convolve(kernel: np.ndarray, g: np.ndarray, dt: float) -> np.ndarray:
    """Causal convolution (kernel * g)(t_j) = int_0^{t_j} kernel(t_j - s) g(s) ds.

    Product trapezoid rule on the shared uniform grid: full discrete convolution
    with the end weights halved.  The full convolution is one real FFT product
    on numpy.fft, zero-padded to a fast length of at least 2n - 1 so nothing
    wraps.  Both arrays carry time on the last axis and broadcast against each
    other on the leading axes, so batched evaluation over mode or trial axes is
    a single call.
    """
    k = np.asarray(kernel, dtype=float)
    f = np.asarray(g, dtype=float)
    if k.shape[-1] != f.shape[-1]:
        raise ValueError(
            f"kernel and signal disagree on grid length: {k.shape[-1]} vs {f.shape[-1]}"
        )
    n = k.shape[-1]
    size = next_fast_len(max(2 * n - 1, 1))
    spec = np.fft.rfft(k, size, axis=-1) * np.fft.rfft(f, size, axis=-1)
    full = np.fft.irfft(spec, size, axis=-1)[..., :n]
    # Halve the two end contributions of each partial sum (trapezoid ends).
    return dt * (full - 0.5 * (k * f[..., :1] + k[..., :1] * f))


PANEL_ORDER = 8  # nodes of one Gauss-Legendre panel


def panel_node_count(n_nodes: int) -> int:
    """Node count of the rule gauss_legendre_panels builds for n_nodes: the
    fewest whole panels that hold at least n_nodes."""
    return -(-n_nodes // PANEL_ORDER) * PANEL_ORDER


def gauss_legendre_panels(length: float, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule on [0, length] built from 8-point panels.

    Returns (nodes, weights), panel_node_count(n_nodes) of each; weights sum
    to length exactly.
    """
    if length <= 0.0:
        raise ValueError(f"face length must be positive, got {length}")
    if n_nodes < 1:
        raise ValueError(f"node count must be positive, got {n_nodes}")
    panels = panel_node_count(n_nodes) // PANEL_ORDER
    x, w = np.polynomial.legendre.leggauss(PANEL_ORDER)
    edges = np.linspace(0.0, length, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights
