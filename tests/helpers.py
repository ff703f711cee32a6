"""Shared oracle utilities for the test suite.

The integrators here are deliberately independent of the package's quadrature
and marching code: RK4 time stepping for ODE-equivalent reference solutions,
a plain O(n^2) product-trapezoid sum for convolution cross-checks, the
step-by-step trapezoid march, and the dense SVDs of the perturbation probe's
matrix and of the adjoint map.  solve_picard is the Volterra oracle: Picard
iteration on the product-trapezoid quadrature through the FFT convolution
quadrature.trapezoid_convolve, never the march; VolterraProblem holds the
one forcing and kernel row on a grid that it and solve_marching both take,
with their length and finiteness checks.  solve_marching, direct_free_march,
forced_march and two_impulse_terminal_maps are the exceptions:
solve_marching is the package's march on such a problem, and the other
three march each datum's own forcing with the package's march, the
references for combining unit responses, for the trajectory formed from
them and for the terminal maps read off them.  forced_march is the forced
trajectory's own route: the Duhamel responses by
quadrature.trapezoid_convolve, then the memory by the march.  weighted_gemm_gram,
modal_forcing_terminal and reversed_table_combination form the Gram, the
forward run's terminal state and the synthesized control the direct way,
through full (2m, n) and (M, n) tables, the references for the factored
products.  pairing_sides evaluates both sides of the pairing identity for
one control and datum, through the adjoint trace and the forward run, the
sampled reference for the entrywise duality_check.  box_basis_reference
builds the lowest box modes one by one, the reference for build_basis.
traced_peak measures the Python-level memory peak of one call.
"""

import math
import tracemalloc
from dataclasses import dataclass
from functools import reduce
from itertools import product

import numpy as np

from viscowave.grids import TimeGrid
from viscowave.memory_kernel import MemoryKernel
from viscowave.modal_dynamics import ModalOperator, adjoint_trace, forward_simulate
from viscowave.quadrature import gauss_legendre_panels, trapezoid_convolve, trapezoid_weights
from viscowave.volterra import FactoredKernel, march_difference_kernel


def traced_peak(call):
    """Python-level peak (tracemalloc) of call() above what was allocated before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def rk4(f, y0, t1, n):
    """Classical fourth-order Runge-Kutta on [0, t1] with n uniform steps.

    Returns the (n+1, len(y0)) array of states including the initial one.
    """
    y = np.array(y0, dtype=float)
    h = t1 / n
    t = 0.0
    out = [y.copy()]
    for _ in range(n):
        k1 = f(t, y)
        k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = f(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
        out.append(y.copy())
    return np.array(out)


def free_memory_reference(xi, eta, mu, b, amplitude, rate, horizon, n):
    """RK4 solution of psi'' = (b - mu^2) psi + q, q' = amplitude psi - rate q.

    The auxiliary variable q carries the convolution with the exponential
    kernel amplitude * exp(-rate t), so this integrates the memory oscillator
    as a stiff-free first-order system.  Initial data: psi(0) = xi,
    psi'(0) = mu * eta, q(0) = 0.  Returns psi samples.
    """

    def rhs(t, y):
        return np.array(
            [y[1], (b - mu * mu) * y[0] + y[2], amplitude * y[0] - rate * y[2]]
        )

    states = rk4(rhs, [xi, mu * eta, 0.0], horizon, n)
    return states[:, 0]


def forced_memory_reference(mu, b, amplitude, rate, g, horizon, n):
    """Same augmented system driven by a forcing g(t), started from rest.

    Returns (psi, psi') samples on the RK4 grid.
    """

    def rhs(t, y):
        return np.array(
            [y[1], (b - mu * mu) * y[0] + y[2] + g(t), amplitude * y[0] - rate * y[2]]
        )

    states = rk4(rhs, [0.0, 0.0, 0.0], horizon, n)
    return states[:, 0], states[:, 1]


def direct_trapezoid_convolution(kernel, signal, dt):
    """O(n^2) reference for the causal product-trapezoid convolution."""
    n = kernel.shape[-1]
    out = np.zeros(n)
    for j in range(1, n):
        vals = kernel[j::-1] * signal[: j + 1]
        out[j] = dt * (np.sum(vals) - 0.5 * (vals[0] + vals[-1]))
    return out


def stepwise_march(kernel, forcing, dt):
    """Step-by-step trapezoid marching, the reference for the Toeplitz solve.

    Each step j >= 1 solves
    y_j (1 - dt/2 k_0) = g_j + dt (1/2 k_j y_0 + sum_{0<i<j} k_{j-i} y_i)
    with an O(j) history sum, broadcasting over leading axes.
    """
    k = np.asarray(kernel, dtype=float)
    f = np.asarray(forcing, dtype=float)
    shape = np.broadcast_shapes(k.shape, f.shape)
    n = shape[-1]
    kb = np.broadcast_to(k, shape)
    fb = np.broadcast_to(f, shape)
    denom = 1.0 - 0.5 * dt * kb[..., 0]
    y = np.empty(shape)
    y[..., 0] = fb[..., 0]
    for j in range(1, n):
        acc = 0.5 * kb[..., j] * y[..., 0]
        if j > 1:
            acc = acc + np.einsum("...i,...i->...", kb[..., j - 1 : 0 : -1], y[..., 1:j])
        y[..., j] = (fb[..., j] + dt * acc) / denom
    return y



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


def solve_marching(problem: VolterraProblem, grid: TimeGrid) -> np.ndarray:
    """March the discretized equation forward; O(dt^2) accurate."""
    g, k = _check_problem(problem, grid)
    return march_difference_kernel(FactoredKernel(k, grid.dt), g)


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

def box_basis_reference(lengths, n_modes, nodes_per_face):
    """Mode by mode (mu, traces, labels, nodes, weights) of the n_modes lowest
    modes of the box (0, L_1) x ... x (0, L_d), in Python loops.

    The c^d modes of indices up to c = ceil(n_modes^(1/d)) lie at or below
    the frequency B of the mode (c, ..., c), so the lowest n_modes do too,
    and each of their per-axis frequencies f_i = (k_i - 1/2) pi / L_i lies
    at or below B.  The candidates are every index tuple under those caps,
    one more for rounding, each with mu the np.hypot chain over its sorted
    per-axis frequencies, sorted by (mu, indices) and cut to n_modes.  Face
    i, {x_i = L_i}, holds the tensor product of gauss_legendre_panels(L_j,
    nodes_per_face) over the other axes in order, each node weighted by the
    product of theirs; nodes_per_face None is 8 per largest kept index, and
    the interval's face is the one point L of weight 1.
    Each kept mode's trace at a node x is norm * sin(f_1 x_1) * ... *
    sin(f_d x_d), left to right, with norm sqrt(2/L) on the interval and
    2^(d/2) / sqrt(L_1 ... L_d) otherwise.
    """
    d = len(lengths)

    def freqs(k):
        return [(k_i - 0.5) * np.pi / length for k_i, length in zip(k, lengths)]

    c = 1
    while c**d < n_modes:
        c += 1
    top = reduce(np.hypot, sorted(freqs((c,) * d)))
    caps = [int(top * length / np.pi + 0.5) + 1 for length in lengths]
    mus = {k: reduce(np.hypot, sorted(freqs(k))) for k in product(*(range(1, cap + 1) for cap in caps))}
    labels = tuple(sorted(mus, key=lambda k: (mus[k], k))[:n_modes])
    if nodes_per_face is None:
        nodes_per_face = 8 * max(map(max, labels))

    faces, weights = [], []
    for i in range(d):
        rules = [
            ([length], [1.0]) if j == i else gauss_legendre_panels(length, nodes_per_face)
            for j, length in enumerate(lengths)
        ]
        for q in product(*(range(len(x)) for x, _ in rules)):
            faces.append([rules[j][0][q[j]] for j in range(d)])
            weights.append(math.prod(rules[j][1][q[j]] for j in range(d)))
    nodes = np.array(faces)
    norm = np.sqrt(2.0 / lengths[0]) if d == 1 else 2.0 ** (d / 2) / np.sqrt(np.prod(lengths))
    traces = np.empty((n_modes, len(nodes)))
    for row, k in enumerate(labels):
        trace = norm
        for f, x in zip(freqs(k), nodes.T):
            trace = trace * np.sin(f * x)
        traces[row] = trace
    return np.array([mus[k] for k in labels]), traces, labels, nodes, np.array(weights)


def perturbation_svd_reference(basis, terminal_maps, n_modes, dt):
    """Singular values of the memory perturbation from its dense matrix.

    terminal_maps is (memory, memoryless), each a pair of terminal impulse
    maps with one row per mode.  Row (slot, mode) of the (2m, n_quad n)
    matrix holds, at column (q, p), the trace-weighted terminal difference
    of a unit nodal impulse at quadrature node q and time node p, divided by
    sqrt(quad_weights[q] * wt[p]) so each column is a unit-L2 control.
    """
    m = n_modes
    memory, memoryless = terminal_maps
    n = memory[0].shape[-1]
    wt = np.full(n, dt)
    wt[0] = wt[-1] = 0.5 * dt
    tw = basis.traces[:m] * basis.quad_weights[None, :]
    blocks = [
        np.einsum("mq,mp->mqp", tw, a[:m] - b[:m]).reshape(m, -1) for a, b in zip(memory, memoryless)
    ]
    matrix = np.vstack(blocks) / np.sqrt(np.outer(basis.quad_weights, wt)).reshape(-1)[None, :]
    return np.linalg.svd(matrix, compute_uv=False)


def direct_free_march(op, xi, eta):
    """Homogeneous modes of the data (xi, eta) on op's leading len(xi) modes,
    marched directly: the forcing xi cos(mu t) + eta sin(mu t) against those
    modes' kernels, with no unit responses in between."""
    m = len(xi)
    phase = op.mus[:m, None] * op.grid.times
    forcing = np.asarray(xi)[:, None] * np.cos(phase) + np.asarray(eta)[:, None] * np.sin(phase)
    return march_difference_kernel(FactoredKernel(op.kernels[:m], op.grid.dt), forcing)


def forced_march(op, forcing, rows=...):
    """Forced memory modes of op.mus[rows] (all by default) from rest under
    the modal forcing, marched: the (w, w') stack, the oracle for
    forward_trajectory, which convolves the forcing with the free responses.

    The memoryless Duhamel responses u = (sin(mu .) * g) / mu and
    u' = cos(mu .) * g come from trapezoid_convolve, 0 at node 0 (from
    rest); w = u + (G/mu) * w then, and w' solves the same equation driven
    by u' (the differentiated displacement equation), both marched through
    a FactoredKernel of their own, FactoredKernel(op.kernels[rows], dt).
    Arrays broadcast on the leading axes.
    """
    mus, dt = op.mus[rows][..., None], op.grid.dt
    phase = mus * op.grid.times
    sine, cosine = (trapezoid_convolve(f(phase), forcing, dt) for f in (np.sin, np.cos))
    u = np.stack([sine / mus, cosine])
    u[..., 0] = 0.0
    return march_difference_kernel(FactoredKernel(op.kernels[rows], dt), u)


def adjoint_norm_reference(basis, op, n_modes, weight=1.0):
    """Largest singular value of the m-mode adjoint map from its dense matrix.

    Row (slot, mode i) of the (2m, n_quad n) matrix holds, at column (q, p),
    weight_i traces_i[q] sqrt(quad_weights[q]) psi_i(T - t_p) sqrt(wt[p]),
    with psi_i mode i's response to the slot's unit datum, (1, 0) or (0, 1),
    marched directly by direct_free_march.
    """
    m = n_modes
    n, dt = op.grid.n_nodes, op.grid.dt
    wt = np.full(n, dt)
    wt[0] = wt[-1] = 0.5 * dt
    ones, zeros = np.ones(m), np.zeros(m)
    psi = np.vstack([direct_free_march(op, ones, zeros), direct_free_march(op, zeros, ones)])
    traces = np.tile(np.broadcast_to(weight, m)[:, None] * basis.traces[:m], (2, 1))
    traces = traces * np.sqrt(basis.quad_weights)
    matrix = np.einsum("rq,rp->rqp", traces, psi[:, ::-1] * np.sqrt(wt)).reshape(2 * m, -1)
    return np.linalg.svd(matrix, compute_uv=False)[0]


def two_impulse_terminal_maps(op):
    """Terminal impulse maps of op from two marched impulses per mode, the
    reference for ModalOperator.terminal_maps and memoryless_maps.

    Returns (memory, memoryless), each a pair (xi, eta) of shape
    op.mus.shape + (n,).  Each mode's forced_march answers impulses at nodes
    0 and 1.  Marching is Toeplitz on nodes >= 1 (only node 0 has the half
    trapezoid weight), so an impulse at node p >= 1 answers with the node-1
    response delayed by p - 1: its terminal value is that response at node
    n - p.  The memoryless maps are the forced march without the memory.
    """
    impulses = np.zeros((2,) + (1,) * op.mus.ndim + (op.grid.n_nodes,))
    impulses[0, ..., 0] = impulses[1, ..., 1] = 1.0
    w = forced_march(op, impulses)
    u = forced_march(ModalOperator(op.mus, MemoryKernel(), op.grid), impulses)

    def weighted_terminal(y):
        xi, eta = np.concatenate([y[:, 0, ..., -1:], y[:, 1, ..., :0:-1]], axis=-1)
        return op.mus[..., None] * xi, eta

    return weighted_terminal(w), weighted_terminal(u)


def weighted_gemm_gram(basis, psi, dt):
    """The Gram of the 2m adjoint traces as one weighted GEMM per factor,
    (boundary trace Gram) x (time correlation (psi wt) psi^T), symmetrized
    from its upper triangle; psi is the (2m, n) table of unit responses."""
    m = psi.shape[0] // 2
    n = psi.shape[-1]
    wt = np.full(n, dt)
    wt[0] = wt[-1] = 0.5 * dt
    tr = basis.traces[:m]
    gram = np.tile((tr * basis.quad_weights) @ tr.T, (2, 2)) * ((psi * wt) @ psi.T)
    return np.triu(gram) + np.triu(gram, 1).T


def modal_forcing_terminal(basis, maps, control):
    """Weighted terminal state (xi, eta) of a boundary control from its
    (M, n) modal forcing g = (traces * quad_weights) f summed against the
    terminal impulse maps, sum(map * g, axis=-1)."""
    g = (basis.traces * basis.quad_weights) @ control.values
    return tuple(np.sum(mp[: basis.n_modes] * g, axis=-1) for mp in maps)


def reversed_table_combination(traces, coeffs, psi):
    """traces.T @ (c[:, None] * psi[:, ::-1]): the coefficient combination of
    the time-reversed rows, scaled as a full (r, n) table before the trace
    product; traces is (r, n_quad)."""
    return traces.T @ (coeffs[:, None] * psi[:, ::-1])


def pairing_sides(basis, kernel, grid, control, v):
    """Both sides (lhs, rhs) of the pairing identity on independent code paths.

    lhs integrates the time-reversed adjoint trace against the control; rhs
    pairs the forward run's weighted terminal state, contracted from the
    free responses and the node-0 term, with the swapped slots of v.
    Agreement is O(dt^2) for smooth data.
    """
    tr = adjoint_trace(basis, kernel, v, grid)
    wt = trapezoid_weights(grid.n_nodes, grid.dt)
    lhs = float(np.sum(basis.quad_weights[:, None] * tr.values * control.values * wt[None, :]))
    sim = forward_simulate(basis, kernel, control, grid)
    m = v.n_modes
    rhs = float(sim.terminal.xi[:m] @ v.eta + sim.terminal.eta[:m] @ v.xi)
    return lhs, rhs
