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
    BoundaryControl,
    StatePair,
    _pair_rows,
    adjoint_trace,
    basis_operator,
)
from .quadrature import trapezoid_weights
from .spectral_basis import SpectralBasis, control_time_lower_bound


class IllPosedSystemError(RuntimeError):
    """Gram system is numerically singular and no regularization was requested."""


@dataclass
class GramSystem:
    """Assembled 2M x 2M Gram matrix of adjoint traces and its spectrum.

    Row/column order: the M traces from data (e_m, 0) first, then the M traces
    from (0, e_m).  The matrix is exactly symmetric: every product behind it
    is a symmetric one.  It is a new array: the boundary trace Gram times the
    operator's cached, read-only time correlation
    (ModalOperator.time_correlation).
    """

    matrix: np.ndarray
    min_eigenvalue: float
    max_eigenvalue: float
    condition_number: float

    @property
    def n_modes(self) -> int:
        return self.matrix.shape[0] // 2


def _spectrum(matrix: np.ndarray) -> tuple[float, float, float]:
    """Smallest and largest eigenvalue of a symmetric matrix and the condition
    number, their ratio, which is inf unless the smallest is positive."""
    eigs = np.linalg.eigvalsh(matrix)
    min_eig, max_eig = float(eigs[0]), float(eigs[-1])
    return min_eig, max_eig, max_eig / min_eig if min_eig > 0.0 else float("inf")


def _trace_gram(basis: SpectralBasis, kernel: MemoryKernel, grid: TimeGrid, m: int):
    """The Gram matrix of the 2m canonical adjoint traces on the leading m
    modes, (boundary trace Gram) x (time correlation) entrywise.

    The time correlation depends on the operator alone and is read from
    ModalOperator.time_correlation, which forms it once per row count and
    keeps the last one, so repeated Grams of one problem re-form only the
    small trace Gram.  It has one row and column per operator row, and its
    per-mode reading is the new array that the trace Gram multiplies.  Both
    factors are symmetric products s @ s.T, which numpy evaluates as one
    symmetric rank-k update and returns exactly symmetric; so is the
    per-mode reading of the correlation.
    """
    tr = basis.traces[:m] * np.sqrt(basis.quad_weights)
    op, rows = basis_operator(basis, kernel, grid, m)
    u = rows[-1] + 1
    pair = _pair_rows(rows, u)
    gram = op.time_correlation(u).take(pair, axis=0).take(pair, axis=1)
    gram.reshape(2, m, 2, m)[...] *= (tr @ tr.T)[:, None, :]
    return gram


def _leading_block(matrix: np.ndarray, m: int) -> np.ndarray:
    """The principal block of a 2M x 2M Gram on its leading m modes: rows and
    columns [:m] and [M:M+m]."""
    idx = np.concatenate([np.arange(m), matrix.shape[0] // 2 + np.arange(m)])
    return matrix[np.ix_(idx, idx)]


def assemble_gram(
    basis: SpectralBasis,
    kernel: MemoryKernel,
    grid: TimeGrid,
    n_modes: int,
    *,
    threads: int = 1,
) -> GramSystem:
    """Gram matrix of the 2M canonical adjoint traces in L2(0,T; L2(Gamma_1)).

    Entries factor into (boundary trace Gram) x (time correlation of the
    homogeneous modal solutions); both integrals use the stored quadrature.
    The time correlation is the operator's: the first Gram of a mode count
    on an operator forms it, a repeated one reads it, so a repeated Gram
    costs the small trace Gram, one entrywise product and the spectrum.
    The matrix is stored unregularized; the solve takes the ridge.
    threads is unread; it stays while the benchmark passes it (ROADMAP item 1).
    Warns when the horizon sits below the sharp control-time bound.
    """
    if not 1 <= n_modes <= basis.n_modes:
        raise ValueError(f"n_modes must lie in [1, {basis.n_modes}], got {n_modes}")
    t_min = control_time_lower_bound(basis.geometry)
    if grid.horizon < t_min:
        warnings.warn(
            f"horizon {grid.horizon} is below the sharp control-time bound {t_min}; "
            "the Gram system degenerates",
            stacklevel=2,
        )
    gram = _trace_gram(basis, kernel, grid, n_modes)
    return GramSystem(gram, *_spectrum(gram))


@dataclass(frozen=True)
class SynthesisResult:
    """The min-norm control, its Gram coefficients and the right-hand side.

    residual is the relative Gram residual |G c - rhs| / |rhs|, or the
    absolute one when rhs = 0, so it reads at rounding level for a target of
    any size.
    """

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
    regularization: float = 0.0,
) -> SynthesisResult:
    """Steer (w, w')(T) to the target pair (xi, eta) with the min-norm control.

    The right-hand side reads the target through the pairing identity:
    rhs = (eta_m ; mu_m xi_m) in the (e_m, 0) / (0, e_m) trace order, and the
    coefficients c solve (Gram + regularization I) c = rhs.  The synthesized
    control is the adjoint trace of the data (c[:m], c[m:]): the unique
    minimizer of the control norm among exact solutions of the truncated
    moment problem.
    """
    if regularization < 0.0:
        raise ValueError(f"regularization must be >= 0, got {regularization}")
    m = gram.n_modes
    if target.n_modes < m:
        raise ValueError(f"target has {target.n_modes} modes, Gram system needs {m}")
    rhs = np.concatenate([target.eta[:m], basis.mu[:m] * target.xi[:m]])

    scale = max(gram.max_eigenvalue, np.finfo(float).tiny)
    if regularization == 0.0 and gram.min_eigenvalue < 1e-12 * scale:
        raise IllPosedSystemError(
            f"Gram minimum eigenvalue {gram.min_eigenvalue:.3e} is below 1e-12 of its "
            f"norm {scale:.3e}; pass a regularization (e.g. 1e-10 * trace = "
            f"{1e-10 * float(np.trace(gram.matrix)):.3e}) or enlarge the horizon"
        )
    system = gram.matrix + regularization * np.eye(2 * m)
    coeffs = np.linalg.solve(system, rhs)
    gap = float(np.linalg.norm(gram.matrix @ coeffs - rhs))
    rhs_norm = float(np.linalg.norm(rhs))
    residual = gap / rhs_norm if rhs_norm > 0.0 else gap

    control = adjoint_trace(basis, kernel, StatePair(coeffs[:m], coeffs[m:], basis.mu[:m]), grid)
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
    """Per-mode gaps of the discrete pairing identity in units of dt, each the
    larger over both slots: interior_gap over time nodes p >= 1, node0_gap at
    node 0."""

    interior_gap: np.ndarray
    node0_gap: np.ndarray


def duality_check(basis: SpectralBasis, kernel: MemoryKernel, grid: TimeGrid) -> DualityReport:
    """The pairing identity entry by entry, for every control and datum at once.

    The identity is bilinear, so it holds exactly when the forward map equals
    the adjoint one: column p of the forward map, the weighted terminal state
    of a unit modal forcing at node p, against the weighted, time-reversed
    unit responses wt_p (psi_s, psi_c)(T - t_p), slots swapped.  The forward
    map here is marched on its own, from the node-0 impulse, not read off
    the operator's terminal_maps, which are built from these very unit
    responses: the two tables come from independent marches, the node-0
    impulse and the data (cos, sin).  They agree to rounding at every node
    p >= 1.  Node 0 alone carries the half trapezoid weight, and there the
    velocity slot differs by (dt/2) r(T), r the march of a unit forcing
    sample at node 0: O(dt^2) absolute, the operator's node0_term.
    """
    op, rows = basis_operator(basis, kernel, grid, basis.n_modes)
    u = rows[-1] + 1
    gap = np.stack([table[:u] for table in op._marched_terminal_maps()])
    gap -= (trapezoid_weights(grid.n_nodes, grid.dt) * op.free_responses[::-1, :u])[..., ::-1]
    gap = np.max(np.abs(gap, out=gap), axis=0) / grid.dt
    return DualityReport(
        interior_gap=np.max(gap[:, 1:], axis=1)[rows],
        node0_gap=gap[rows, 0],
    )


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
    the largest one, so only one assembly is needed, and every row, the
    largest count's too, is the spectrum of its leading block.
    """
    counts = _checked_mode_counts(basis, mode_counts)
    gram = assemble_gram(basis, kernel, grid, counts[-1]).matrix
    rows = []
    for m in counts:
        min_eig, _, cond = _spectrum(_leading_block(gram, m))
        rows.append(GramSpectrumRow(n_modes=m, min_eigenvalue=min_eig, condition_number=cond))
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


def norm_growth_probe(
    basis: SpectralBasis,
    kernel: MemoryKernel,
    grid: TimeGrid,
    mode_counts,
    alpha: float = 0.55,
) -> NormGrowthReport:
    """Norm of the control-to-state map across truncation levels.

    The Gram of the adjoint traces is the map times its adjoint, so the norm
    of the m-mode map, terminal (mu w(T), w'(T)) over control L2 norm, is
    sqrt(max_eig) of the Gram's leading block on m modes; weighting both
    terminal slots by D = mu^(alpha-1) (the (H^alpha, H^(alpha-1)) regularity
    scale of the flow) gives sqrt(max_eig(D G D)).  Under traction the
    unweighted norm grows with the mode count on the square and stays flat on
    the interval: the family is Riesz-Fisher but not Riesz.  One Gram on the
    largest count serves every count, without assemble_gram's control-time
    warning: the upper bound holds at any horizon.
    """
    counts = _checked_mode_counts(basis, mode_counts)
    gram = _trace_gram(basis, kernel, grid, counts[-1])
    weight = np.tile(basis.mu[: counts[-1]] ** (alpha - 1.0), 2)
    weighted = weight[:, None] * gram * weight[None, :]

    def norm(matrix, m):
        return float(np.sqrt(np.linalg.eigvalsh(_leading_block(matrix, m))[-1]))

    rows = [
        NormGrowthRow(n_modes=m, max_ratio=norm(gram, m), max_weighted_ratio=norm(weighted, m))
        for m in counts
    ]
    return NormGrowthReport(rows=rows, alpha=alpha)


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

    Column (q, p) of the probed matrix A is the weighted terminal difference D
    (with memory minus memoryless) of the unit-L2 impulse control at quadrature
    node q and time node p; fast singular-value decay is the compactness
    signature that lets the memoryless controllability survive the perturbation.
    Row i of A is the Kronecker product of traces_i sqrt(w) and D_i / sqrt(wt),
    so with the QR factors L and L' of those two sets of rows, A has the
    singular values of the row-wise Kronecker product of L (tiled over both
    slots) and L', to about eps sigma_1 absolute, and its n_quad n columns are
    never formed.  D_i depends on mode i's frequency alone, so L' factors the
    2u rows of the distinct frequencies, and modes that share one share its
    row of L'.
    """
    if not 1 <= n_modes <= basis.n_modes:
        raise ValueError(f"n_modes must lie in [1, {basis.n_modes}], got {n_modes}")
    m = n_modes
    op, rows = basis_operator(basis, kernel, grid, m)
    u = rows[-1] + 1
    diffs = np.vstack([a[:u] - b[:u] for a, b in zip(op.terminal_maps, op.memoryless_maps)])
    diffs /= np.sqrt(trapezoid_weights(grid.n_nodes, grid.dt))
    # Modes that share a row share its factor row.
    time_factor = np.linalg.qr(diffs.T, mode="r").T[_pair_rows(rows, u)]
    traces = basis.traces[:m] * np.sqrt(basis.quad_weights)
    trace_factor = np.tile(np.linalg.qr(traces.T, mode="r").T, (2, 1))
    factor = (trace_factor[:, :, None] * time_factor[:, None, :]).reshape(2 * m, -1)
    sigma = np.linalg.svd(factor, compute_uv=False)
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

