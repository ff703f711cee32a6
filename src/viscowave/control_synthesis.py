"""Minimum-norm boundary control synthesis via the truncated moment problem.

The pairing identity behind the construction: for a control f and homogeneous
data (xi, eta),

    int_0^T int_{Gamma_1} trace(xi, eta)(x, T-reversed) f  =  <A w(T), eta> + <w'(T), xi>,

where the left side uses the time-reversed adjoint trace and the right side
the weighted terminal state of the controlled solution.  Spanning (xi, eta)
over the 2M canonical modal pairs turns steering into a finite Gram system:
the minimum-norm control in the trace span has coefficients solving
(Gram + reg I) c = rhs with rhs read off the target through the identity.

Note the slot swap: a trace built from (e_m, 0) pins the velocity component
w_m'(T), and one built from (0, e_m) pins mu_m w_m(T).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .grids import TimeGrid
from .memory_kernel import MemoryKernel
from .modal_dynamics import (
    DEFAULT_SEED,
    UNIT_DATA,
    BoundaryControl,
    StatePair,
    adjoint_trace,
    basis_operator,
    control_l2_norm,
    forward_simulate,
)
from .quadrature import trapezoid_weights
from .spectral_basis import SpectralBasis, control_time_lower_bound


class IllPosedSystemError(RuntimeError):
    """Gram system is numerically singular and no regularization was requested."""


@dataclass
class GramSystem:
    """Assembled 2M x 2M Gram matrix of adjoint traces plus its spectrum data.

    Row/column order: the M traces from data (e_m, 0) first, then the M traces
    from (0, e_m).  psi_table keeps the homogeneous modal solutions backing the
    matrix so the synthesized control can be assembled without re-solving.
    """

    matrix: np.ndarray
    min_eigenvalue: float
    max_eigenvalue: float
    condition_number: float
    regularization: float
    psi_table: np.ndarray

    @property
    def n_modes(self) -> int:
        return self.matrix.shape[0] // 2


def _spectrum(matrix: np.ndarray) -> tuple[float, float, float]:
    """Smallest and largest eigenvalue of a symmetric matrix and the condition
    number, their ratio, which is inf unless the smallest is positive."""
    eigs = np.linalg.eigvalsh(matrix)
    min_eig, max_eig = float(eigs[0]), float(eigs[-1])
    return min_eig, max_eig, max_eig / min_eig if min_eig > 0.0 else float("inf")


def assemble_gram(
    basis: SpectralBasis,
    kernel: MemoryKernel,
    grid: TimeGrid,
    n_modes: int,
    regularization: float = 0.0,
    *,
    threads: int = 1,
) -> GramSystem:
    """Gram matrix of the 2M canonical adjoint traces in L2(0,T; L2(Gamma_1)).

    Entries factor into (boundary trace Gram) x (time correlation of the
    homogeneous modal solutions); both integrals use the stored quadrature.
    The matrix is stored unregularized; regularization only enters the solve.
    threads is unread; it stays while the benchmark passes it (ROADMAP item 1).
    Warns when the horizon sits below the sharp control-time bound.
    """
    if not 1 <= n_modes <= basis.n_modes:
        raise ValueError(f"n_modes must lie in [1, {basis.n_modes}], got {n_modes}")
    if regularization < 0.0:
        raise ValueError(f"regularization must be >= 0, got {regularization}")
    t_min = control_time_lower_bound(basis.geometry)
    if grid.horizon < t_min:
        warnings.warn(
            f"horizon {grid.horizon} is below the sharp control-time bound {t_min}; "
            "the Gram system degenerates",
            stacklevel=2,
        )
    m = n_modes
    op = basis_operator(basis, kernel, grid, m)
    # Each mode marches its data (1, 0) and (0, 1) against one kernel, which
    # gives the rows in the (e_m, 0)-first order.
    psi = op.free(*UNIT_DATA)[:, :m].reshape(2 * m, grid.n_nodes)

    wt = trapezoid_weights(grid.n_nodes, grid.dt)
    time_gram = (psi * wt[None, :]) @ psi.T
    tr = basis.traces[:m]
    boundary_gram = (tr * basis.quad_weights[None, :]) @ tr.T
    gram = np.tile(boundary_gram, (2, 2)) * time_gram
    gram = np.triu(gram) + np.triu(gram, 1).T

    min_eig, max_eig, cond = _spectrum(gram)
    return GramSystem(
        matrix=gram,
        min_eigenvalue=min_eig,
        max_eigenvalue=max_eig,
        condition_number=cond,
        regularization=float(regularization),
        psi_table=psi,
    )


@dataclass(frozen=True)
class SynthesisResult:
    control: BoundaryControl
    coefficients: np.ndarray
    residual: float
    rhs: np.ndarray


def solve_min_norm_control(
    gram: GramSystem,
    basis: SpectralBasis,
    kernel: MemoryKernel,
    grid: TimeGrid,
    target: StatePair,
) -> SynthesisResult:
    """Steer (w, w')(T) to the target pair (xi, eta) with the min-norm control.

    The right-hand side reads the target through the pairing identity:
    rhs = (eta_m ; mu_m xi_m) in the (e_m, 0) / (0, e_m) trace order.  The
    synthesized control is the coefficient combination of the time-reversed
    traces, the unique minimizer of the control norm among exact solutions of
    the truncated moment problem.
    """
    m = gram.n_modes
    if target.n_modes < m:
        raise ValueError(f"target has {target.n_modes} modes, Gram system needs {m}")
    rhs = np.concatenate([target.eta[:m], basis.mu[:m] * target.xi[:m]])

    scale = max(gram.max_eigenvalue, np.finfo(float).tiny)
    if gram.regularization == 0.0 and gram.min_eigenvalue < 1e-12 * scale:
        raise IllPosedSystemError(
            f"Gram minimum eigenvalue {gram.min_eigenvalue:.3e} is below 1e-12 of its "
            f"norm {scale:.3e}; pass a regularization (e.g. 1e-10 * trace = "
            f"{1e-10 * float(np.trace(gram.matrix)):.3e}) or enlarge the horizon"
        )
    system = gram.matrix + gram.regularization * np.eye(2 * m)
    coeffs = np.linalg.solve(system, rhs)
    residual = float(np.linalg.norm(gram.matrix @ coeffs - rhs))

    traces = np.vstack([basis.traces[:m], basis.traces[:m]])
    values = traces.T @ (coeffs[:, None] * gram.psi_table[:, ::-1])
    control = BoundaryControl(values=values, grid=grid)
    return SynthesisResult(control=control, coefficients=coeffs, residual=residual, rhs=rhs)


def terminal_error(terminal: StatePair, target: StatePair) -> float:
    """Relative gap between an achieved weighted terminal state and a plain target.

    terminal stores (mu w(T), w'(T)); target stores the desired (w(T), w'(T)).
    Compared over the target's modes in the L2 x L2 metric; inf or nan, with
    no warning, if the states' norms overflow.
    """
    m = target.n_modes
    if terminal.n_modes < m:
        raise ValueError("terminal state has fewer modes than the target")
    got = np.concatenate([terminal.xi[:m], terminal.eta[:m]])
    with np.errstate(over="ignore", invalid="ignore"):
        want = np.concatenate([target.mu * target.xi, target.eta])
        denom = np.linalg.norm(want)
        gap = np.linalg.norm(got - want)
        return float(gap / denom) if denom > 0.0 else float(gap)


@dataclass(frozen=True)
class DualityReport:
    lhs: float
    rhs: float
    rel_gap: float


def duality_check(
    basis: SpectralBasis,
    kernel: MemoryKernel,
    grid: TimeGrid,
    control: BoundaryControl,
    v: StatePair,
) -> DualityReport:
    """Evaluate both sides of the pairing identity on independent code paths.

    lhs integrates the time-reversed adjoint trace against the control; rhs
    pairs the forward-simulated weighted terminal state with the swapped slots
    of v.  Agreement is O(dt^2) for smooth data.
    """
    tr = adjoint_trace(basis, kernel, v, grid)
    wt = trapezoid_weights(grid.n_nodes, grid.dt)
    lhs = float(np.sum(basis.quad_weights[:, None] * tr.values * control.values * wt[None, :]))
    sim = forward_simulate(basis, kernel, control, grid)
    m = v.n_modes
    rhs = float(sim.terminal.xi[:m] @ v.eta + sim.terminal.eta[:m] @ v.xi)
    gap = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30)
    return DualityReport(lhs=lhs, rhs=rhs, rel_gap=gap)


@dataclass(frozen=True)
class GramSpectrumRow:
    n_modes: int
    min_eigenvalue: float
    condition_number: float


def _checked_mode_counts(basis: SpectralBasis, mode_counts) -> list:
    counts = [int(m) for m in mode_counts]
    if not counts or counts[0] < 1 or any(b <= a for a, b in zip(counts, counts[1:])):
        raise ValueError("mode_counts must be a non-empty strictly increasing list of positive counts")
    if counts[-1] > basis.n_modes:
        raise ValueError(f"mode_counts exceed the {basis.n_modes} stored modes")
    return counts


def riesz_fisher_diagnostic(
    basis: SpectralBasis,
    kernel: MemoryKernel,
    grid: TimeGrid,
    mode_counts,
) -> list:
    """Gram spectrum growth across truncation levels.

    A positive, slowly shrinking minimum eigenvalue is the discrete coercivity
    (Riesz-Fisher) signal; the condition number tracks the absent upper frame
    bound.  Modal decoupling makes each smaller Gram a principal submatrix of
    the largest one, so only one assembly is needed, and its own spectrum is
    the last row.
    """
    counts = _checked_mode_counts(basis, mode_counts)
    top = assemble_gram(basis, kernel, grid, counts[-1])
    m_top = counts[-1]
    rows = []
    for m in counts[:-1]:
        idx = np.concatenate([np.arange(m), m_top + np.arange(m)])
        min_eig, _, cond = _spectrum(top.matrix[np.ix_(idx, idx)])
        rows.append(GramSpectrumRow(n_modes=m, min_eigenvalue=min_eig, condition_number=cond))
    rows.append(
        GramSpectrumRow(
            n_modes=m_top, min_eigenvalue=top.min_eigenvalue, condition_number=top.condition_number
        )
    )
    return rows


@dataclass(frozen=True)
class NormGrowthRow:
    n_modes: int
    max_ratio: float
    max_weighted_ratio: float


@dataclass(frozen=True)
class NormGrowthReport:
    rows: list
    alpha: float
    trials: int
    seed: int


def norm_growth_probe(
    basis: SpectralBasis,
    kernel: MemoryKernel,
    grid: TimeGrid,
    mode_counts,
    trials: int = 5,
    seed: int = DEFAULT_SEED,
    alpha: float = 0.55,
) -> NormGrowthReport:
    """Terminal-norm growth of rough controls across truncation levels.

    White-noise nodal controls probe the unboundedness of the control-to-state
    map: the unweighted terminal/control norm ratio keeps growing with the
    mode count, while weighting both terminal slots by mu^(alpha-1) (the
    (H^alpha, H^(alpha-1)) regularity scale of the flow) keeps it bounded.
    The terminal state is linear in the modal forcing, so each trial applies
    one terminal impulse map, marched once per mode, to its modal forcing.
    """
    counts = _checked_mode_counts(basis, mode_counts)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    n = basis.n_modes
    (map_xi, map_eta), _ = basis_operator(basis, kernel, grid, n).terminal_maps
    tw = basis.traces * basis.quad_weights[None, :]
    rng = np.random.default_rng(seed)
    best = {m: 0.0 for m in counts}
    best_weighted = {m: 0.0 for m in counts}
    for _ in range(trials):
        values = rng.standard_normal((basis.n_quad, grid.n_nodes))
        denom = control_l2_norm(basis, BoundaryControl(values, grid))
        g = tw @ values
        sq = np.sum(map_xi[:n] * g, axis=1) ** 2 + np.sum(map_eta[:n] * g, axis=1) ** 2
        wsq = basis.mu ** (2.0 * (alpha - 1.0)) * sq
        for m in counts:
            best[m] = max(best[m], float(np.sqrt(sq[:m].sum())) / denom)
            best_weighted[m] = max(best_weighted[m], float(np.sqrt(wsq[:m].sum())) / denom)
    rows = [
        NormGrowthRow(n_modes=m, max_ratio=best[m], max_weighted_ratio=best_weighted[m])
        for m in counts
    ]
    return NormGrowthReport(rows=rows, alpha=alpha, trials=trials, seed=seed)


@dataclass(frozen=True)
class PerturbationReport:
    singular_values: np.ndarray
    n_modes: int


def perturbation_compactness_probe(
    basis: SpectralBasis,
    kernel: MemoryKernel,
    grid: TimeGrid,
    n_modes: int,
) -> PerturbationReport:
    """Singular values of the discrete memory perturbation of the control map.

    Columns of the probed matrix are the weighted terminal differences
    (controlled-with-memory minus memoryless) of unit-norm nodal impulse
    controls; fast singular-value decay is the compactness signature that
    lets the memoryless controllability survive the perturbation.  Both maps
    come from one operator, whose leading n_modes rows are read.
    """
    if not 1 <= n_modes <= basis.n_modes:
        raise ValueError(f"n_modes must lie in [1, {basis.n_modes}], got {n_modes}")
    m = n_modes
    memory, memoryless = basis_operator(basis, kernel, grid, m).terminal_maps

    # Tensor with the trace/boundary-weight factor and rescale columns so each
    # corresponds to a unit-L2 control; singular values then track the
    # underlying operator, not the grid.
    tw = basis.traces[:m] * basis.quad_weights[None, :]
    blocks = [
        np.einsum("mq,mp->mqp", tw, a[:m] - b[:m]).reshape(m, -1) for a, b in zip(memory, memoryless)
    ]
    matrix = np.vstack(blocks)
    wt = trapezoid_weights(grid.n_nodes, grid.dt)
    col_norm = np.sqrt(np.outer(basis.quad_weights, wt)).reshape(-1)
    matrix = matrix / col_norm[None, :]
    sigma = np.linalg.svd(matrix, compute_uv=False)
    return PerturbationReport(singular_values=sigma, n_modes=m)


def random_smooth_target(
    basis: SpectralBasis, rng: np.random.Generator, decay: float = 2.0, norm: float = 1.0
) -> StatePair:
    """Random reachable target (w, w')(T) with mu^(-decay) coefficient falloff,
    scaled so the weighted pair (mu xi, eta) has the requested norm."""
    xi = rng.standard_normal(basis.n_modes) * basis.mu ** (-decay)
    eta = rng.standard_normal(basis.n_modes) * basis.mu ** (-decay)
    scale = np.sqrt(np.sum((basis.mu * xi) ** 2 + eta**2))
    if scale == 0.0:
        raise ValueError("degenerate random target")
    factor = norm / scale
    return StatePair(xi=factor * xi, eta=factor * eta, mu=basis.mu.copy())

