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
reciprocals, and, marched at most once on first use, the unit free
responses that every homogeneous solve combines, and the time correlation
of the free responses that the last Gram read.  The forward map is their
adjoint: the terminal state of a unit modal impulse at node p is
wt_p (psi_s, psi_c)(T - t_p), slots swapped, but for one closed-form
number per mode at node 0 (ModalOperator.node0_term).  So a forward run
reads its terminal state off the free responses too, and its trajectory
is their convolution with the forcing (variation of constants): an
operator marches one table, not two, and only duality_check marches the
forward map on its own, to compare the two.  The public
solvers get theirs from basis_operator, which keeps the last operator it
built in one module slot and hands it out again while the kernel object,
the grid and the leading modes match, so solves of one problem build and
invert the kernel of each distinct frequency once.  The kernel, its
reciprocal and the free responses depend on a mode through mu_n alone, so
that operator holds one row per distinct value of mu, and the slot keeps
each mode's row beside it, an index array for every basis; every solver
reads its per-mode results through it, expanding only its smallest tables.
release_operator empties the slot.

K * sin(mu_n .) in the kernels is a product-trapezoid sum evaluated by angle
addition, sin(mu (t_j - t_i)) = s_j c_i - c_j s_i, as two cumulative sums in
O(n) per row.  The free responses have no such addition rule, so the
trajectory's convolutions with them are FFT products,
quadrature.trapezoid_convolve.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grids import TimeGrid
from .memory_kernel import MemoryKernel
from .quadrature import trapezoid_convolve, trapezoid_weights
from .spectral_basis import SpectralBasis
from .volterra import _BLOCK_SAMPLES, FactoredKernel, march_difference_kernel


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

    @property
    def terminal(self) -> StatePair:
        """The weighted state (mu w(T), w'(T)) at the last sample."""
        return StatePair(xi=self.mu * self.values[:, -1], eta=self.velocities[:, -1], mu=self.mu)


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
    squares overflow.  Contracted row by row, so no temporary of the
    control's size is formed."""
    wt = trapezoid_weights(control.grid.n_nodes, control.grid.dt)
    v = control.values
    with np.errstate(over="ignore"):
        sq = basis.quad_weights @ np.einsum("qt,qt,t->q", v, v, wt)
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
    each mode's kernel once.  The unit free responses, the one table it
    marches, are computed on first use and kept read-only; so are the
    node-0 term and the terminal maps, with and without the memory, which
    are read off the free responses and the trig tables with no march of
    their own, and the last time correlation of the free responses asked
    for, one table per operator.  mus may have any shape, which the per-mode
    tables take as their leading axes.
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
        k = np.asarray(kernel.kernel.values(grid.times), dtype=float)
        if np.any(k != 0.0):
            # K * sin(mu .) by angle addition: dt (s C - c S) with C = cumsum(c K)
            # and S = cumsum(s K).  Of the halved end terms, K_j sin(0) vanishes
            # and K_0 s_j / 2 (t_0 = 0) comes off C.
            cum_c, cum_s = self._cos * k, self._sin * k
            np.cumsum(cum_c, axis=-1, out=cum_c)
            np.cumsum(cum_s, axis=-1, out=cum_s)
            cum_c -= 0.5 * k[..., :1]
            sine = self._sin * cum_c
            sine -= self._cos * cum_s
            sine *= grid.dt
            g += sine
        g /= mu
        self.kernels = g
        self._factored = FactoredKernel(self.kernels, grid.dt)
        self._correlation = None  # time_correlation's one slot

    @cached_property
    def free_responses(self) -> np.ndarray:
        """Read-only homogeneous modes (psi_c, psi_s) of the unit data (1, 0)
        and (0, 1), shape (2,) + mus.shape + (n,).

        Each solves psi = cos(mu t) + (G/mu) * psi, resp. with sin(mu t), by
        trapezoid marching, the convolution form of the modal memory equation,
        in place over the stacked forcing; every homogeneous solve reads this
        one march.
        """
        psi = np.stack([self._cos, self._sin])
        march_difference_kernel(self._factored, psi, out=psi)
        psi.flags.writeable = False
        return psi

    def time_correlation(self, m: int) -> np.ndarray:
        """Read-only (2m, 2m) trapezoid time correlation of the unit free
        responses on the leading m modes of 1-d mus, rows (psi_c, psi_s):
        dt psi psi^T less the half weight of the two end columns.

        psi @ psi.T is one symmetric rank-k update, exactly symmetric.  The
        operator keeps the last table it formed in one slot, at most (2M)^2
        doubles: a request for another m forms that table anew and replaces
        it.  The leading block of a larger table is not read instead, since
        it rounds differently from the m-mode product.
        """
        table = self._correlation
        if table is None or table.shape[0] != 2 * m:
            table = self._correlation = None  # the old table goes before the new one is formed
            psi = self.free_responses[:, :m].reshape(2 * m, self.grid.n_nodes)
            table = psi @ psi.T
            table *= self.grid.dt
            ends = psi[:, [0, -1]]
            table -= (0.5 * self.grid.dt) * (ends @ ends.T)
            table.flags.writeable = False
            self._correlation = table
        return table

    def free(self, xi, eta) -> np.ndarray:
        """Homogeneous memory mode with data psi(0) = xi, psi'(0) = mu * eta.

        psi is linear in its data, so this is xi psi_c + eta psi_s of the unit
        responses `free_responses`, a new array; nothing is marched here.
        """
        xi, eta = np.asarray(xi, dtype=float)[..., None], np.asarray(eta, dtype=float)[..., None]
        psi_c, psi_s = self.free_responses
        return xi * psi_c + eta * psi_s

    @cached_property
    def node0_term(self) -> np.ndarray:
        """Read-only (dt/2) r(T) per mode, shape mus.shape: the amount by which
        the velocity slot of terminal_maps at node 0 lies below the reversed,
        weighted free response.  r is the march of a unit forcing sample at
        node 0, r(T) = (dt/2) sum_i h_i k_(n-1-i) with h the march's
        reciprocal (FactoredKernel.reciprocal) and k the kernel; 0 without
        memory, where h is the unit impulse and k vanishes.
        """
        if self._factored.memoryless:
            term = np.zeros(self.mus.shape)
        else:
            h = self._factored.reciprocal()
            term = np.einsum("...i,...i->...", h, self.kernels[..., :0:-1])
            term *= 0.25 * self.grid.dt**2
        term.flags.writeable = False
        return term

    @cached_property
    def terminal_maps(self):
        """Weighted terminal states (mu w(T), w'(T)) of a unit modal impulse at
        every node: a read-only pair (xi, eta) of arrays of shape
        mus.shape + (n,) whose column p answers the modal forcing e_p, so a
        modal forcing g drives the terminal state sum(map * g, axis=-1).

        By the duality of the control-to-state map and the adjoint trace,
        column p is wt_p (psi_s, psi_c)(T - t_p), the free responses
        reversed and weighted with the slots swapped, except the velocity
        slot at node 0, which only node 0's half trapezoid weight reaches:
        it lies node0_term below.  So nothing is marched here beyond
        free_responses.  The compactness probe reads these maps against
        memoryless_maps; forward_simulate contracts the same construction
        with the control and forms neither.
        """
        psi_c, psi_s = self.free_responses
        xi, eta = _reversed_weighted(psi_s, self.grid), _reversed_weighted(psi_c, self.grid)
        eta[..., 0] -= self.node0_term
        xi.flags.writeable = eta.flags.writeable = False
        return xi, eta

    @cached_property
    def memoryless_maps(self):
        """terminal_maps of the same modes without the memory, in the same
        form: the free responses are then cos(mu t) and sin(mu t)."""
        xi, eta = _reversed_weighted(self._sin, self.grid), _reversed_weighted(self._cos, self.grid)
        xi.flags.writeable = eta.flags.writeable = False
        return xi, eta

    def _marched_terminal_maps(self):
        """terminal_maps from a march of their own, for duality_check, which
        compares it with the free responses: a new pair (xi, eta).

        One march gives every column: that of the node-0 impulse's Duhamel
        response (u, u'), two rows per mode, in place.  Every impulse's
        Duhamel response vanishes at t = 0, and the one at node p >= 1 is
        twice the node-0 response delayed by p plus, in u', (dt/2) e_p (only
        node 0 carries the half trapezoid weight).  Marching is Toeplitz on
        forcings that vanish at t = 0, so with y0 the node-0 response and h
        the march's reciprocal, column p >= 1 is (2 mu y0, 2 y0' + (dt/2) h)
        at node n-1-p and column 0 is (mu y0, y0') at node n-1.
        """
        # The product-trapezoid Duhamel response of the node-0 impulse:
        # (dt/2) (sin(mu t)/mu, cos(mu t)), and u'(0) = 0.
        y = np.empty((2,) + self._sin.shape)
        np.multiply(self._sin, 0.5 * self.grid.dt, out=y[0])
        y[0] /= self.mus[..., None]
        np.multiply(self._cos, 0.5 * self.grid.dt, out=y[1])
        y[1, ..., 0] = 0.0
        march_difference_kernel(self._factored, y, out=y)
        h = self._factored.reciprocal()
        h *= 0.5 * self.grid.dt
        y[..., :-1] *= 2.0
        y[1, ..., :-1] += h
        del h  # before the reversed copy, which then peaks with y alone
        # Node j < n-1 of the doubled response is column p = n-1-j >= 1.
        y[0] *= self.mus[..., None]
        xi, eta = y[..., ::-1].copy()
        return xi, eta


def _reversed_weighted(table: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """(wt table)(T - t), wt the trapezoid weights of grid on the last axis,
    as a new C-contiguous array.  wt is symmetric, so the reversed view times
    wt is the reversed product, formed in one pass and contiguous: a
    negative-stride operand would take numpy's matmul off BLAS."""
    return table[..., ::-1] * trapezoid_weights(grid.n_nodes, grid.dt)


def memory_oscillator_kernels(
    mus: np.ndarray, kernel: MemoryKernel, grid: TimeGrid
) -> np.ndarray:
    """Per-mode difference kernels G_n/mu_n with G_n = b sin(mu_n t) + K*sin(mu_n .).

    mus may have any shape; the kernels have shape mus.shape + (n_nodes,).
    """
    return ModalOperator(mus, kernel, grid).kernels


# The operator basis_operator built last, its modes' frequencies and each
# mode's operator row, ascending; racing threads at worst build one twice.
_slot: tuple[ModalOperator, np.ndarray, np.ndarray] | None = None


def basis_operator(
    basis: SpectralBasis, kernel: MemoryKernel, grid: TimeGrid, modes: int
) -> tuple[ModalOperator, np.ndarray]:
    """The memory operator of basis.mu[:modes] and the operator row of each
    of those modes: (op, rows), rows an index array, arange(modes) where
    every frequency is distinct.

    The operator holds one row per run of equal frequencies, in order, and
    a basis lists its frequencies in ascending order, so that is one row per
    distinct frequency, and the leading modes read the rows[-1] + 1 leading
    rows: the 64 lowest modes of the unit square, where (m, n) and (n, m)
    share mu bit for bit, read 33.  Equality is exact; frequencies one ulp
    apart keep rows of their own.  The slot's operator is handed out again
    if it was built for this kernel object and grid and its modes begin with
    basis.mu[:modes]; else a new one takes the slot, with its row map."""
    global _slot
    mus = basis.mu[:modes]
    slot = _slot
    hit = slot is not None and slot[0].kernel is kernel and slot[0].grid == grid
    if not (hit and np.array_equal(slot[1][:modes], mus)):
        _slot = None  # the old tables go before the new ones are built
        starts = np.diff(mus, prepend=-np.inf) != 0.0  # mode i begins a run of equal mu
        slot = _slot = (ModalOperator(mus[starts], kernel, grid), mus.copy(), np.cumsum(starts) - 1)
    op, _, rows = slot
    return op, rows[:modes]


def _pair_rows(rows: np.ndarray, u: int) -> np.ndarray:
    """Each mode's two rows, rows then rows + u, in a table of 2u rows such
    as the free responses (psi_c, psi_s) flattened."""
    return np.concatenate([rows, rows + u])


def release_operator() -> None:
    """Empty basis_operator's slot, freeing the operator it holds."""
    global _slot
    _slot = None


def _control_values(basis: SpectralBasis, control: BoundaryControl, grid: TimeGrid) -> np.ndarray:
    """The control's (n_quad, n) samples, once its grid and node count match
    the problem's: a product with a 1-node control would broadcast silently."""
    if control.grid != grid:
        raise ValueError("control was sampled on a different grid")
    if control.values.shape[0] != basis.n_quad:
        raise ValueError(
            f"control has {control.values.shape[0]} boundary nodes, basis has {basis.n_quad}"
        )
    return control.values


def forward_trajectory(
    basis: SpectralBasis,
    kernel: MemoryKernel,
    control: BoundaryControl,
    grid: TimeGrid,
) -> ModalTrajectory:
    """Per-mode (w, w') of the system driven from rest by a boundary traction,
    by variation of constants on the operator's free responses, so nothing
    is marched beyond them.

    With g the modal forcing, the trapezoid march of each forced mode from
    rest is, at every node, the product-trapezoid convolutions of
    quadrature.trapezoid_convolve with the mode's operator row

        mu w = psi_s * g,    w' = psi_c * g - (dt/2) r g_0,

    where r is the march of a unit forcing sample at node 0, which carries
    the half trapezoid weight, and both slots are 0 at node 0.  The
    convolutions run a block of modes at a time, as the march does.
    """
    # g_n(t) = int_{Gamma_1} phi_n f(., t) of each basis mode, shape (M, n).
    g = (basis.traces * basis.quad_weights) @ _control_values(basis, control, grid)
    op, rows = basis_operator(basis, kernel, grid, basis.n_modes)
    # (psi_s, psi_c), marched before the reciprocal is read: an overflow
    # raises MarchOverflowError there.
    psi = op.free_responses[::-1]
    # Every modal kernel has k_0 = G_n(0)/mu_n = 0, so the march's reciprocal
    # solves h_j = dt sum_{i<j} k_(j-i) h_i, and r_j = (dt/2) sum_{i<j}
    # k_(j-i) h_i is h_j / 2 on nodes 1..n-2.  h ends there; at the last
    # node (dt/2) r is node0_term.
    h = op._factored.reciprocal()
    y = np.empty((2,) + g.shape)
    step = max(1, _BLOCK_SAMPLES // (2 * grid.n_nodes))  # two rows per mode
    for s in range(0, len(g), step):
        at, g_s, y_s = rows[s : s + step], g[s : s + step], y[:, s : s + step]
        # Both slots' rows of the block share one transform of g.
        y_s[...] = trapezoid_convolve(psi[:, at], g_s, grid.dt)
        y_s[1, :, 1:-1] -= (0.25 * grid.dt) * h[at, 1:] * g_s[:, :1]
        y_s[1, :, -1] -= op.node0_term[at] * g_s[:, 0]
    y[..., 0] = 0.0
    y[0] /= basis.mu[:, None]
    return ModalTrajectory(values=y[0], velocities=y[1], mu=basis.mu, grid=grid)


@dataclass(frozen=True)
class SimulationResult:
    """A forward run from rest: its weighted terminal state, contracted
    from the operator's free responses and node-0 term (the construction
    of its terminal_maps), and its inputs.

    The trajectory is formed when first read, by forward_trajectory of the
    same inputs from the free responses, which it finds again through
    basis_operator (or marches anew if the slot has moved on), and kept.
    Its end, trajectory.terminal, agrees with terminal to rounding.
    """

    terminal: StatePair
    basis: SpectralBasis
    kernel: MemoryKernel
    control: BoundaryControl

    @cached_property
    def trajectory(self) -> ModalTrajectory:
        return forward_trajectory(self.basis, self.kernel, self.control, self.control.grid)


def forward_simulate(
    basis: SpectralBasis,
    kernel: MemoryKernel,
    control: BoundaryControl,
    grid: TimeGrid,
) -> SimulationResult:
    """Drive the system from rest with a boundary traction.

    The terminal StatePair stores (mu_n w_n(T), w_n'(T)), the weighted state
    the synthesis layer targets: sum(map * g, axis=-1) of the modal forcing
    g = tw f, tw = traces * quad_weights, against the operator's
    terminal_maps.  Those maps are the free responses reversed and weighted,
    slots swapped, less node0_term in the velocity slot at node 0, so the
    state is contracted from the operator's cached free_responses directly:
    sum(tw * (psi_s @ ((f wt)(T - t)).T), axis=-1) for xi, psi_c for eta.
    Time is reversed and weighted on whichever operand has fewer rows, the
    control when n_quad < 2u, u the operator rows the modes read, else each
    slot of psi; the (u, n_quad) products are then read per mode.  No (M, n)
    map or forcing is formed once the operator is warm; O(u n n_quad).
    The trajectory is not formed until it is read.
    """
    values = _control_values(basis, control, grid)
    op, rows = basis_operator(basis, kernel, grid, basis.n_modes)
    u = rows[-1] + 1
    # Each slot's leading u rows stay a view when the operator holds more.
    slots = op.free_responses[1, :u], op.free_responses[0, :u]  # (xi, eta) read (psi_s, psi_c)
    tw = basis.traces * basis.quad_weights
    if values.shape[0] < 2 * u:
        reversed_control = _reversed_weighted(values, grid)
        products = (psi @ reversed_control.T for psi in slots)
    else:
        products = (_reversed_weighted(psi, grid) @ values.T for psi in slots)
    xi, eta = (np.sum(tw * product[rows], axis=-1) for product in products)
    eta -= op.node0_term[rows] * (tw @ values[:, 0])
    terminal = StatePair(xi=xi, eta=eta, mu=basis.mu)
    return SimulationResult(terminal=terminal, basis=basis, kernel=kernel, control=control)


def adjoint_trace(
    basis: SpectralBasis,
    kernel: MemoryKernel,
    v: StatePair,
    grid: TimeGrid,
) -> BoundaryControl:
    """Control-face trace of the time-reversed homogeneous solution.

    For data (xi, eta) on the leading len(v) modes the returned samples are
    sum_n (phi_n|_{Gamma_1})(x_q) psi_n(T - t_j); the time reversal is exact on
    the uniform grid.  These traces span the synthesis ansatz space, and the
    min-norm control is the trace of its Gram coefficients.  psi is
    xi psi_c + eta psi_s of the unit responses, so the data go on the small
    (n_quad, 2m) factor of traces, summed over the modes that share an
    operator row into (n_quad, 2u), and psi is never formed.  Time is
    reversed on whichever side has fewer rows: on the product when
    n_quad < 2u (a 1-node product then stays on BLAS), else on the unit
    responses (the product is then contiguous, and BoundaryControl keeps it
    without a copy).
    """
    m = v.n_modes
    if m > basis.n_modes:
        raise ValueError(f"state pair has {m} modes but the basis stores {basis.n_modes}")
    op, rows = basis_operator(basis, kernel, grid, m)
    u = rows.max(initial=-1) + 1  # 0 without modes: the zero control
    # A copy when u is below the operator's rows.  A product over all of
    # them with zero weights would need none but rounds differently from a
    # fresh operator's, which the slot promises to match bit for bit.
    psi = op.free_responses[:, :u].reshape(2 * u, grid.n_nodes)
    weighted = np.zeros((basis.n_quad, 2 * u))
    per_mode = np.tile(basis.traces[:m].T, 2) * np.concatenate([v.xi, v.eta])
    np.add.at(weighted, (slice(None), _pair_rows(rows, u)), per_mode)
    if basis.n_quad < 2 * u:
        values = (weighted @ psi)[:, ::-1]
    else:
        values = weighted @ psi[:, ::-1]
    return BoundaryControl(values=values, grid=grid)


@dataclass(frozen=True)
class GronwallReport:
    m_observed: float
    per_mode_max: np.ndarray


def gronwall_bound_check(
    basis: SpectralBasis, kernel: MemoryKernel, grid: TimeGrid
) -> GronwallReport:
    """max_t |psi_n(t)| over all unit data (cos theta, sin theta) of each mode.

    The observed bound should be uniform in the mode index: high modes feel the
    memory only through G_n/mu_n, so adding modes must not inflate it.  psi is
    cos theta psi_c + sin theta psi_s in the operator's unit responses, whose
    largest value over theta is hypot(psi_c, psi_s) at each time.
    """
    op, rows = basis_operator(basis, kernel, grid, basis.n_modes)
    psi_c, psi_s = op.free_responses[:, : rows[-1] + 1]
    per_mode = np.max(np.hypot(psi_c, psi_s), axis=1)[rows]
    return GronwallReport(m_observed=float(per_mode.max()), per_mode_max=per_mode)
