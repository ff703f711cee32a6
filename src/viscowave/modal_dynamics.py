"""Modal dynamics of the viscoelastic wave system under boundary traction.

Expanding the displacement in the mixed eigenbasis turns

    w'' = Delta w + b w + int_0^t K(t-s) w(s) ds,    dn w = f on the control faces,

into decoupled scalar problems per mode.  The traction enters through the
modal forcing g_n(t) = int_{Gamma_1} (phi_n|_{Gamma_1}) f(., t), and each mode
obeys a second-kind Volterra equation with the difference kernel

    G_n(tau) / mu_n,    G_n = b sin(mu_n tau) + (K * sin(mu_n .))(tau),

driven by the memoryless wave response.  The homogeneous (adjoint) modes use
the same kernel driven by xi_n cos(mu_n t) + eta_n sin(mu_n t), which encodes
initial data psi(0) = xi, psi'(0) with modal coefficients mu_n eta_n.

ModalOperator holds everything that depends on the problem alone: the
sin(mu_n t) and cos(mu_n t) tables, the kernels and their marching
reciprocals.  The public solvers get theirs from basis_operator, which keeps
the last operator it built in one module slot and hands it out again while
the kernel object, the grid and the leading modes match, so solves of one
problem build and invert each mode's kernel once.  release_operator empties
the slot.

Every convolution with sin(mu_n .) or cos(mu_n .) here (the Duhamel responses
and K * sin(mu_n .) in the kernels) is a product-trapezoid sum evaluated by
angle addition, sin(mu (t_j - t_i)) = s_j c_i - c_j s_i, as two cumulative
sums in O(n) per row; quadrature.trapezoid_convolve is the FFT reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grids import TimeGrid
from .memory_kernel import MemoryKernel
from .quadrature import trapezoid_weights
from .spectral_basis import SpectralBasis
from .volterra import FactoredKernel, march_difference_kernel

DEFAULT_SEED = 1870
# The data (xi, eta) = (1, 0) and (0, 1) for every mode, on a leading axis.
UNIT_DATA = np.eye(2)[..., None]
UNIT_DATA.flags.writeable = False


@dataclass(frozen=True)
class StatePair:
    """Modal coefficient pair (xi, eta) over the frequencies mu.

    Depending on context the pair holds plain L2 x L2 data (adjoint initial
    data) or a terminal state in the weighted sense: xi_n = mu_n w_n(T),
    eta_n = w_n'(T).
    """

    xi: np.ndarray
    eta: np.ndarray
    mu: np.ndarray

    def __post_init__(self):
        xi = np.asarray(self.xi, dtype=float)
        eta = np.asarray(self.eta, dtype=float)
        mu = np.asarray(self.mu, dtype=float)
        if not (xi.shape == eta.shape == mu.shape) or xi.ndim != 1:
            raise ValueError("xi, eta, mu must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(xi)) and np.all(np.isfinite(eta))):
            raise ValueError("state coefficients must be finite")
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "mu", mu)

    @property
    def n_modes(self) -> int:
        return self.xi.size


def sobolev_norm(v: StatePair, s: float = 0.0) -> float:
    """Spectral Sobolev norm sqrt(sum mu_n^(2s) (xi_n^2 + eta_n^2)); inf if the
    squares overflow."""
    w = v.mu ** (2.0 * s)
    with np.errstate(over="ignore"):
        return float(np.sqrt(np.sum(w * (v.xi**2 + v.eta**2))))


@dataclass(frozen=True)
class ModalTrajectory:
    """Per-mode displacement and velocity samples, time on the last axis."""

    values: np.ndarray
    velocities: np.ndarray
    mu: np.ndarray
    grid: TimeGrid


@dataclass(frozen=True)
class BoundaryControl:
    """Traction samples f(node, t) on the control-face quadrature nodes."""

    values: np.ndarray
    grid: TimeGrid

    def __post_init__(self):
        # Contiguous storage keeps products with the samples independent of the
        # caller's memory layout (a transposed CSV table rounds differently).
        v = np.ascontiguousarray(self.values, dtype=float)
        if v.ndim != 2:
            raise ValueError("control values must be a (n_nodes, n_times) array")
        if v.shape[1] != self.grid.n_nodes:
            raise ValueError(
                f"control has {v.shape[1]} time samples but the grid has {self.grid.n_nodes}"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("control values must be finite")
        object.__setattr__(self, "values", v)


def zero_control(basis: SpectralBasis, grid: TimeGrid) -> BoundaryControl:
    return BoundaryControl(values=np.zeros((basis.n_quad, grid.n_nodes)), grid=grid)


def tone_control(
    basis: SpectralBasis,
    grid: TimeGrid,
    amplitudes: np.ndarray,
    omegas: np.ndarray,
    phases: np.ndarray,
) -> BoundaryControl:
    """Smooth multi-tone traction sum_k A[q,k] cos(omega_k t + phi[q,k])."""
    amplitudes = np.atleast_2d(np.asarray(amplitudes, dtype=float))
    phases = np.atleast_2d(np.asarray(phases, dtype=float))
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    if amplitudes.shape != (basis.n_quad, omegas.size) or phases.shape != amplitudes.shape:
        raise ValueError("amplitudes/phases must have shape (n_quad, n_tones)")
    t = grid.times
    values = np.einsum(
        "qk,qkt->qt", amplitudes, np.cos(omegas[None, :, None] * t[None, None, :] + phases[..., None])
    )
    return BoundaryControl(values=values, grid=grid)


def control_l2_norm(basis: SpectralBasis, control: BoundaryControl) -> float:
    """Discrete L2(0,T; L2(Gamma_1)) norm of a boundary control; inf if the
    squares overflow."""
    wt = trapezoid_weights(control.grid.n_nodes, control.grid.dt)
    with np.errstate(over="ignore"):
        sq = np.sum(basis.quad_weights[:, None] * control.values**2 * wt[None, :])
    return float(np.sqrt(sq))


def _positive(mu) -> np.ndarray:
    mus = np.asarray(mu, dtype=float)
    if np.any(mus <= 0.0):
        raise ValueError(f"mu must be positive, got {mu}")
    return mus


class ModalOperator:
    """The memory operator I - (G_n/mu_n)* of each mode, built once.

    Holds the sin(mu t) and cos(mu t) tables, the kernels G_n/mu_n (as
    `kernels`) and, from the first march on, the spectrum of each kernel's
    marching reciprocal, so every problem solved through one operator inverts
    each mode's kernel once.  mus may have any shape; like every solver in
    this module, it broadcasts against the leading axes of the data, so
    forcings of shape (r, M, n) give r forcings per mode of mus (M,).
    """

    def __init__(self, mus, kernel: MemoryKernel, grid: TimeGrid):
        self.mus = _positive(mus)
        self.kernel = kernel
        self.grid = grid
        mu = self.mus[..., None]
        phase = mu * grid.times
        self._cos = np.cos(phase)
        self._sin = np.sin(phase, out=phase)
        g = kernel.b * self._sin
        k_samples = np.asarray(kernel.kernel.values(grid.times), dtype=float)
        if np.any(k_samples != 0.0):
            # The convolution commutes: K * sin(mu .) is the sine sum with g = K.
            g += _trig_convolutions(self._sin, self._cos, k_samples, grid.dt, cosine=False)[0]
        g /= mu
        self.kernels = g
        self._factored = FactoredKernel(self.kernels, grid.dt)

    def wave(self, forcing: np.ndarray):
        """Memoryless modal response to a forcing g: Duhamel sine/cosine integrals.

            u(t)  = (1/mu) int_0^t sin(mu (t-s)) g(s) ds
            u'(t) =        int_0^t cos(mu (t-s)) g(s) ds

        Returns (u, u') sampled on the grid; both are O(dt^2) product-trapezoid
        convolutions.
        """
        g = np.asarray(forcing, dtype=float)
        if g.shape[-1] != self.grid.n_nodes:
            raise ValueError(f"forcing has {g.shape[-1]} samples, grid has {self.grid.n_nodes}")
        u, up = _trig_convolutions(self._sin, self._cos, g, self.grid.dt)
        u /= self.mus[..., None]
        return u, up

    def free(self, xi, eta) -> np.ndarray:
        """Homogeneous memory mode with data psi(0) = xi, psi'(0) = mu * eta.

        Solves psi = xi cos(mu t) + eta sin(mu t) + (G/mu) * psi by trapezoid
        marching, the convolution form of the modal memory equation.
        """
        xi, eta = np.asarray(xi, dtype=float)[..., None], np.asarray(eta, dtype=float)[..., None]
        forcing = xi * self._cos + eta * self._sin
        return march_difference_kernel(self._factored, forcing)

    def forced(self, forcing: np.ndarray) -> np.ndarray:
        """Forced memory mode from rest: the (w, w') stack sampled on the grid.

        w solves w = u + (G/mu) * w with u the memoryless Duhamel response; the
        velocity solves the same Volterra equation driven by u' (the
        differentiated displacement equation), so both components are
        second-order consistent.
        """
        return march_difference_kernel(self._factored, np.stack(self.wave(forcing)))

    @cached_property
    def terminal_maps(self):
        """Weighted terminal states (mu w(T), w'(T)) of a unit modal impulse at
        every node, with the memory and without it.

        Returns (memory, memoryless), each a pair of arrays of shape
        mus.shape + (n,); column p answers the modal forcing e_p, so
        sum(map * g, axis=-1) is the terminal state a modal forcing g drives.
        Each mode marches impulses at nodes 0 and 1 against its kernel.
        Marching is Toeplitz on nodes >= 1 (only node 0 has the half trapezoid
        weight), so an impulse at node p >= 1 answers with the node-1 response
        delayed by p - 1: its terminal value is that response at node n - p.
        The memoryless map reads the wave response the march is driven by.
        """
        impulses = np.zeros((2,) + (1,) * self.mus.ndim + (self.grid.n_nodes,))
        impulses[0, ..., 0] = impulses[1, ..., 1] = 1.0
        u = np.stack(self.wave(impulses))
        w = march_difference_kernel(self._factored, u)
        return self._weighted_terminal(w), self._weighted_terminal(u)

    def _weighted_terminal(self, w: np.ndarray):
        # Node 0's terminal value, then the node-1 response read backwards (p = 1..n-1).
        xi, eta = np.concatenate([w[:, 0, ..., -1:], w[:, 1, ..., :0:-1]], axis=-1)
        xi *= self.mus[..., None]
        xi.flags.writeable = eta.flags.writeable = False
        return xi, eta


def memory_oscillator_kernels(
    mus: np.ndarray, kernel: MemoryKernel, grid: TimeGrid
) -> np.ndarray:
    """Per-mode difference kernels G_n/mu_n with G_n = b sin(mu_n t) + K*sin(mu_n .).

    mus may have any shape; the kernels have shape mus.shape + (n_nodes,).
    """
    return ModalOperator(mus, kernel, grid).kernels


def _trig_convolutions(s: np.ndarray, c: np.ndarray, g: np.ndarray, dt: float, cosine=True):
    """Product-trapezoid convolutions of sin(mu .) and cos(mu .) with g.

    s and c hold sin(mu t_j) and cos(mu t_j).  By angle addition the partial
    sums are s C - c S and c C + s S with C = cumsum(c g), S = cumsum(s g).
    Of the halved end terms, the first is g_0 in C (t_0 = 0) and 0 in S, and
    the last is 0 for the sine and g for the cosine.  Arrays broadcast on the
    leading axes, time is the last.  Returns (sine, cosine); the cosine is
    None when not asked for.  The steps run in place, so few temporaries of
    the result's size are alive at once.
    """
    cum_c = np.cumsum(c * g, axis=-1)
    cum_c -= 0.5 * g[..., :1]
    cum_s = np.cumsum(s * g, axis=-1)
    sine = s * cum_c
    sine -= c * cum_s
    sine *= dt
    if not cosine:
        return sine, None
    cum_c *= c
    cum_s *= s
    cum_c += cum_s
    cum_c -= 0.5 * g
    cum_c *= dt
    return sine, cum_c


# The operator basis_operator built last; racing threads at worst build one twice.
_operator: ModalOperator | None = None


def basis_operator(
    basis: SpectralBasis, kernel: MemoryKernel, grid: TimeGrid, modes: int
) -> ModalOperator:
    """The slot's operator if it was built for this kernel object and grid and
    its mus begin with basis.mu[:modes]; else a new ModalOperator(basis.mu[:modes],
    kernel, grid), which takes the slot.  Callers read its leading `modes` rows."""
    global _operator
    mus = basis.mu[:modes]
    op = _operator
    hit = op is not None and op.kernel is kernel and op.grid == grid
    if not (hit and np.array_equal(op.mus[:modes], mus)):
        _operator = None  # the old tables go before the new ones are built
        op = _operator = ModalOperator(mus, kernel, grid)
    return op


def release_operator() -> None:
    """Empty basis_operator's slot, freeing the operator it holds."""
    global _operator
    _operator = None


@dataclass(frozen=True)
class SimulationResult:
    trajectory: ModalTrajectory
    terminal: StatePair


def forward_simulate(
    basis: SpectralBasis,
    kernel: MemoryKernel,
    control: BoundaryControl,
    grid: TimeGrid,
) -> SimulationResult:
    """Drive the system from rest with a boundary traction.

    The terminal StatePair stores (mu_n w_n(T), w_n'(T)), the weighted state
    the synthesis layer targets.
    """
    if control.grid != grid:
        raise ValueError("control was sampled on a different grid")
    if control.values.shape[0] != basis.n_quad:
        raise ValueError(
            f"control has {control.values.shape[0]} boundary nodes, basis has {basis.n_quad}"
        )
    m = basis.n_modes
    g_modal = (basis.traces * basis.quad_weights[None, :]) @ control.values
    op = basis_operator(basis, kernel, grid, m)
    if op.mus.size > m:  # modes of the operator beyond the basis carry no forcing
        g_modal = np.pad(g_modal, ((0, op.mus.size - m), (0, 0)))
    w, wp = op.forced(g_modal)[:, :m]
    trajectory = ModalTrajectory(values=w, velocities=wp, mu=basis.mu, grid=grid)
    terminal = StatePair(xi=basis.mu * w[:, -1], eta=wp[:, -1], mu=basis.mu)
    return SimulationResult(trajectory=trajectory, terminal=terminal)


def adjoint_trace(
    basis: SpectralBasis,
    kernel: MemoryKernel,
    v: StatePair,
    grid: TimeGrid,
) -> BoundaryControl:
    """Control-face trace of the time-reversed homogeneous solution.

    For data (xi, eta) on the leading len(v) modes the returned samples are
    sum_n (phi_n|_{Gamma_1})(x_q) psi_n(T - t_j); the time reversal is exact on
    the uniform grid.  These traces span the synthesis ansatz space.
    """
    m = v.n_modes
    if m > basis.n_modes:
        raise ValueError(f"state pair has {m} modes but the basis stores {basis.n_modes}")
    op = basis_operator(basis, kernel, grid, m)
    # Modes of the operator beyond the data's carry zero data.
    xi, eta = (np.pad(d, (0, op.mus.size - m)) for d in (v.xi, v.eta))
    psi = op.free(xi, eta)[:m]
    values = basis.traces[:m].T @ psi[:, ::-1]
    return BoundaryControl(values=values, grid=grid)


@dataclass(frozen=True)
class GronwallReport:
    m_observed: float
    per_mode_max: np.ndarray
    trials: int
    seed: int


def gronwall_bound_check(
    basis: SpectralBasis,
    kernel: MemoryKernel,
    grid: TimeGrid,
    trials: int = 8,
    seed: int = DEFAULT_SEED,
) -> GronwallReport:
    """Sample max_t |psi_n(t)| over random per-mode unit data (xi_n, eta_n).

    The observed bound should be uniform in the mode index: high modes feel the
    memory only through G_n/mu_n, so adding modes must not inflate it.  psi is
    linear in its data, so each mode marches (1, 0) and (0, 1) once and a
    trial's data (cos theta, sin theta) combines the two responses.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    op = basis_operator(basis, kernel, grid, basis.n_modes)
    psi_c, psi_s = op.free(*UNIT_DATA)[:, : basis.n_modes]
    per_mode = np.zeros(basis.n_modes)
    for _ in range(trials):
        theta = rng.uniform(0.0, 2.0 * np.pi, size=basis.n_modes)[:, None]
        psi = np.cos(theta) * psi_c + np.sin(theta) * psi_s
        per_mode = np.maximum(per_mode, np.max(np.abs(psi), axis=1))
    return GronwallReport(
        m_observed=float(per_mode.max()), per_mode_max=per_mode, trials=trials, seed=seed
    )
