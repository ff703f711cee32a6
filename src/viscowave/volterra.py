"""Second-kind Volterra integral equations on uniform grids.

Equations of the form

    y(t) = g(t) + int_0^t k(t, s) y(s) ds

are solved two independent ways: implicit time marching with the product
trapezoid rule (second order), and Picard iteration on the same quadrature.
The two routes cross-validate each other; on contraction problems they agree
to the fixed-point tolerance.

Kernels are difference kernels k(t, s) = kappa(t - s), passed as the samples
kappa(t_j) on the grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import TimeGrid
from .quadrature import trapezoid_convolve

# |1 - (dt/2) kappa(0)| below this is treated as a singular diagonal factor.
_SINGULAR_TOL = 1e-12


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


def march_difference_kernel(kernel: np.ndarray, forcing: np.ndarray, dt: float) -> np.ndarray:
    """Trapezoid marching for difference kernels, batched over leading axes.

    kernel and forcing broadcast against each other; time is the last axis.
    Each step solves the scalar implicit equation

        y_j (1 - dt/2 k_0) = g_j + dt (1/2 k_j y_0 + sum_{0<i<j} k_{j-i} y_i).
    """
    k = np.asarray(kernel, dtype=float)
    f = np.asarray(forcing, dtype=float)
    shape = np.broadcast_shapes(k.shape, f.shape)
    n = shape[-1]
    kb = np.broadcast_to(k, shape)
    fb = np.broadcast_to(f, shape)
    denom = 1.0 - 0.5 * dt * kb[..., 0]
    if np.any(np.abs(denom) < _SINGULAR_TOL):
        raise StepSizeError(
            "singular diagonal factor 1 - dt/2*k(0) at node 1; reduce the step size"
        )
    y = np.empty(shape)
    y[..., 0] = fb[..., 0]
    for j in range(1, n):
        acc = 0.5 * kb[..., j] * y[..., 0]
        if j > 1:
            acc = acc + np.einsum("...i,...i->...", kb[..., j - 1 : 0 : -1], y[..., 1:j])
        y[..., j] = (fb[..., j] + dt * acc) / denom
    return y


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
