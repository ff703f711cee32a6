"""Second-kind Volterra integral equations on uniform grids.

Equations y(t) = g(t) + int_0^t kappa(t - s) y(s) ds with a difference kernel,
passed as its samples kappa(t_j) on the grid, are solved two independent ways:
product-trapezoid marching (second order), which on nodes >= 1 is one
lower-triangular Toeplitz system solved by a power-series reciprocal and an
FFT product, and Picard iteration on the same quadrature.  The reciprocal
depends on the kernel alone, so it is computed once per kernel row, however
many forcings share that row, and kept as its spectrum at the length of the
full product: each forcing row then costs one forward and one inverse real
FFT.  A FactoredKernel keeps those spectra across marches, so a caller that
solves several problems with one kernel inverts it once.  Inside the
reciprocal both products of a Newton step are cyclic at one length and share
the spectrum of the known coefficients.  The two routes cross-validate each
other; on contraction problems they agree to the fixed-point tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.fft

from .grids import TimeGrid
from .quadrature import trapezoid_convolve

# |1 - (dt/2) kappa(0)| below this is treated as a singular diagonal factor.
_SINGULAR_TOL = 1e-12
# Rows go through the FFTs in blocks of about this many samples (bounds temporaries).
_BLOCK_SAMPLES = 2**16


class StepSizeError(RuntimeError):
    """Marching diagonal factor 1 - (dt/2) kappa(0) is numerically singular."""


@dataclass
class VolterraProblem:
    """Forcing g and difference-kernel samples kappa, both sampled on the grid."""

    forcing: np.ndarray
    kernel: np.ndarray


@dataclass
class PicardResult:
    solution: np.ndarray
    contraction_estimate: float
    iterations: int


def _check_problem(problem: VolterraProblem, grid: TimeGrid) -> tuple[np.ndarray, np.ndarray]:
    g = np.asarray(problem.forcing, dtype=float)
    if g.shape[-1] != grid.n_nodes:
        raise ValueError(
            f"forcing has {g.shape[-1]} samples but the grid has {grid.n_nodes} nodes"
        )
    if not np.all(np.isfinite(g)):
        raise ValueError("forcing contains non-finite samples")
    k = np.asarray(problem.kernel, dtype=float)
    if k.shape[-1] != grid.n_nodes:
        raise ValueError(
            f"difference kernel has {k.shape[-1]} samples, expected {grid.n_nodes}"
        )
    return g, k


class FactoredKernel:
    """Difference-kernel samples with the marching reciprocal of each row.

    march_difference_kernel takes one in place of the samples.  The
    reciprocals are computed by the first march and kept as their spectra,
    so every march through one FactoredKernel inverts each kernel row once.
    """

    def __init__(self, kernel: np.ndarray, dt: float):
        k = np.asarray(kernel, dtype=float)
        if np.any(np.abs(1.0 - 0.5 * dt * k[..., 0]) < _SINGULAR_TOL):
            raise StepSizeError(
                "singular diagonal factor 1 - dt/2*k(0) at node 1; reduce the step size"
            )
        self.kernel = k
        self.dt = dt
        self.memoryless = not np.any(k)
        # Cyclic products at the length of the full product h * rhs do not wrap.
        self.size = scipy.fft.next_fast_len(max(1, 2 * k.shape[-1] - 3), real=True)

    @cached_property
    def spectra(self) -> np.ndarray:
        """rfft of h per kernel row at length self.size, where h holds the
        leading coefficients of 1/a(z)."""
        n = self.kernel.shape[-1]
        k_rows = self.kernel.reshape(-1, n)
        step = max(1, _BLOCK_SAMPLES // n)
        spectra = np.empty((len(k_rows), self.size // 2 + 1), dtype=complex)
        for rows in (slice(s, s + step) for s in range(0, len(k_rows), step)):
            a = -self.dt * k_rows[rows, : n - 1]
            a[:, 0] = 1.0 - 0.5 * self.dt * k_rows[rows, 0]
            spectra[rows] = scipy.fft.rfft(_reciprocal(a), self.size, axis=-1)
        return spectra


def march_difference_kernel(
    kernel: np.ndarray | FactoredKernel, forcing: np.ndarray, dt: float
) -> np.ndarray:
    """Trapezoid marching for difference kernels, batched over leading axes.

    kernel (samples, or a FactoredKernel of them with the same dt) and
    forcing broadcast against each other; time is the last axis.  Each step
    solves the scalar implicit equation

        y_j (1 - dt/2 k_0) = g_j + dt (1/2 k_j y_0 + sum_{0<i<j} k_{j-i} y_i).

    On nodes >= 1 this is y = h * (g + dt/2 k g_0), with h the leading
    coefficients of 1/a(z), a(z) = (1 - dt/2 k_0) - dt sum_{i>=1} k_i z^i.
    h depends on the kernel alone, so it is computed once per kernel row as
    passed in, kept as its spectrum and shared by every forcing row that row
    broadcasts against.
    """
    f = np.asarray(forcing, dtype=float)
    if isinstance(kernel, FactoredKernel):
        if kernel.dt != dt:
            raise ValueError(f"kernel was factored for dt={kernel.dt}, not {dt}")
        factored = kernel
    else:
        k = np.asarray(kernel, dtype=float)
        n = np.broadcast_shapes(k.shape, f.shape)[-1]
        factored = FactoredKernel(np.broadcast_to(k, k.shape[:-1] + (n,)), dt)
    k = factored.kernel
    shape = np.broadcast_shapes(k.shape, f.shape)
    n = shape[-1]
    if factored.memoryless:
        # Every step returns its forcing sample.
        return np.broadcast_to(f, shape).copy()
    f_rows = np.broadcast_to(f, shape).reshape(-1, n)
    k_rows = k.reshape(-1, n)
    # The row of k_rows each output row reads; h is computed once per k row.
    k_of = np.broadcast_to(np.arange(len(k_rows)).reshape(k.shape[:-1]), shape[:-1]).reshape(-1)
    h_spec, size = factored.spectra, factored.size
    step = max(1, _BLOCK_SAMPLES // n)
    y = np.empty(f_rows.shape)
    for rows in (slice(s, s + step) for s in range(0, len(y), step)):
        kr, fr = k_rows[k_of[rows]], f_rows[rows]
        rhs = fr[:, 1:] + 0.5 * dt * kr[:, 1:] * fr[:, :1]
        spec = scipy.fft.rfft(rhs, size, axis=-1)
        spec *= h_spec[k_of[rows]]
        y[rows, 0] = fr[:, 0]
        y[rows, 1:] = scipy.fft.irfft(spec, size, axis=-1)[:, : n - 1]
    return y.reshape(shape)


def _reciprocal(a: np.ndarray) -> np.ndarray:
    """Leading coefficients of 1/a(z) per row by Newton doubling: if h holds the
    first m, then a h = 1 + z^m e(z) and the next m are those of -h e.

    Both products of a step to `top` coefficients are cyclic at one length
    L >= top and share the spectrum of h: the wrap-around of a h lands below
    z^m, where e is not read, and h e has fewer than L terms."""
    h = np.empty_like(a)
    h[:, 0] = 1.0 / a[:, 0]
    m = 1
    while m < a.shape[1]:
        top = min(2 * m, a.shape[1])
        size = scipy.fft.next_fast_len(top, real=True)
        h_spec = scipy.fft.rfft(h[:, :m], size, axis=-1)
        ah = scipy.fft.irfft(scipy.fft.rfft(a[:, :top], size, axis=-1) * h_spec, size, axis=-1)
        e_spec = scipy.fft.rfft(ah[:, m:top], size, axis=-1)
        h[:, m:top] = -scipy.fft.irfft(h_spec * e_spec, size, axis=-1)[:, : top - m]
        m = top
    return h


def solve_marching(problem: VolterraProblem, grid: TimeGrid) -> np.ndarray:
    """March the discretized equation forward; O(dt^2) accurate."""
    g, k = _check_problem(problem, grid)
    return march_difference_kernel(k, g, grid.dt)


def solve_picard(problem: VolterraProblem, grid: TimeGrid, n_iter: int = 20) -> PicardResult:
    """Fixed-point iteration y^(m) = g + K y^(m-1) starting from y^(0) = g.

    Converges geometrically when the quadrature operator is a contraction;
    contraction_estimate is the sup-norm distance of the last two iterates.
    """
    if n_iter < 1:
        raise ValueError(f"n_iter must be >= 1, got {n_iter}")
    g, k = _check_problem(problem, grid)
    y_prev = g
    y = g + trapezoid_convolve(k, g, grid.dt)
    for _ in range(n_iter - 1):
        y_prev, y = y, g + trapezoid_convolve(k, y, grid.dt)
    gap = float(np.max(np.abs(y - y_prev)))
    return PicardResult(solution=y, contraction_estimate=gap, iterations=n_iter)
