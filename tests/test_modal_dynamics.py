import numpy as np
import pytest

from viscowave import modal_dynamics
from viscowave.control_synthesis import assemble_gram, duality_check
from viscowave.grids import TimeGrid
from viscowave.memory_kernel import (
    ConstantKernel,
    ExponentialKernel,
    MemoryKernel,
    PronyKernel,
    SampledKernel,
    ZeroKernel,
)
from viscowave.modal_dynamics import (
    BoundaryControl,
    ModalOperator,
    StatePair,
    adjoint_trace,
    basis_operator,
    control_l2_norm,
    forward_simulate,
    forward_trajectory,
    gronwall_bound_check,
    memory_oscillator_kernels,
    sobolev_norm,
    tone_control,
    zero_control,
)
from viscowave.quadrature import trapezoid_convolve
from viscowave.spectral_basis import build_interval_basis, build_rectangle_basis

from helpers import (
    direct_free_march,
    direct_trapezoid_convolution,
    forced_march,
    forced_memory_reference,
    free_memory_reference,
    traced_peak,
    two_impulse_terminal_maps,
)

PRONY = PronyKernel((0.03, 0.05, 0.04), (0.5, 2.0, 5.0))


def one_mode_trajectory(mu, kernel, g, grid):
    """forward_trajectory's (w, w') on the one-mode interval of length
    pi / (2 mu), whose frequency is mu, under the traction that gives it the
    modal forcing g."""
    basis = build_interval_basis(np.pi / (2.0 * mu), 1)
    control = BoundaryControl(np.asarray(g, dtype=float)[None, :] / basis.traces[0, 0], grid)
    trajectory = forward_trajectory(basis, kernel, control, grid)
    return trajectory.values[0], trajectory.velocities[0]


class TestStatePair:
    def test_sobolev_norms(self):
        zero = StatePair(xi=np.zeros(3), eta=np.zeros(3), mu=np.array([1.0, 2.0, 3.0]))
        assert sobolev_norm(zero) == 0.0
        single = StatePair(xi=np.array([1.0]), eta=np.array([0.0]), mu=np.array([2.0]))
        assert sobolev_norm(single, s=0.0) == 1.0
        first = StatePair(xi=np.array([1.0]), eta=np.array([0.0]), mu=np.array([np.pi / 2]))
        assert np.isclose(sobolev_norm(first, s=1.0), np.pi / 2, atol=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            StatePair(xi=np.zeros(2), eta=np.zeros(3), mu=np.zeros(3))
        with pytest.raises(ValueError):
            StatePair(xi=np.array([np.nan]), eta=np.array([0.0]), mu=np.array([1.0]))


class TestWaveModalResponse:
    """The memoryless trajectory of a one-mode interval against closed forms."""

    def test_constant_forcing_closed_form(self):
        # u(t) = (1 - cos(mu t)) / mu^2 for g = 1; at mu = pi/2, t = 2 this is 8/pi^2.
        grid = TimeGrid(2.0, 2000)
        u, up = one_mode_trajectory(np.pi / 2, MemoryKernel(), np.ones(grid.n_nodes), grid)
        assert abs(u[-1] - 8.0 / np.pi**2) <= 1e-5
        assert abs(up[-1]) <= 1e-12

    def test_resonant_forcing(self):
        # g = sin(mu s) at mu = 1 resonates: u = (sin t - t cos t) / 2.
        grid = TimeGrid(np.pi, 3000)
        u, _ = one_mode_trajectory(1.0, MemoryKernel(), np.sin(grid.times), grid)
        exact = 0.5 * (np.sin(grid.times) - grid.times * np.cos(grid.times))
        assert abs(u[-1] - np.pi / 2) <= 1e-12
        assert np.max(np.abs(u - exact)) <= 1e-5

    def test_rejects_bad_input(self):
        # Every entry of an array mu must be positive.
        grid = TimeGrid(1.0, 10)
        with pytest.raises(ValueError, match="mu must be positive"):
            ModalOperator(0.0, MemoryKernel(), grid)
        mus = np.array([[1.0], [-2.0]])
        with pytest.raises(ValueError, match="mu must be positive"):
            ModalOperator(mus, MemoryKernel(), grid).free(1.0, 0.0)


class TestAngleAdditionSums:
    """The kernels' cumulative-sum sine convolutions against the FFT
    product-trapezoid route of quadrature.trapezoid_convolve."""

    grid = TimeGrid(2.5, 1999)
    mus = (np.arange(1, 41) - 0.5) * np.pi

    @staticmethod
    def assert_close(got, ref):
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize(
        "family",
        [
            ZeroKernel(),
            ConstantKernel(0.3),
            ExponentialKernel(0.1, 1.0),
            PronyKernel((0.1, 0.05, 0.2), (1.0, 3.0, 0.5)),
            SampledKernel(np.linspace(0.0, 3.0, 40), np.cos(np.linspace(0.0, 9.0, 40))),
        ],
        ids=["zero", "constant", "exponential", "prony", "sampled"],
    )
    @pytest.mark.parametrize("shape", [(40,), (40, 1)], ids=["modes", "modes-by-one"])
    def test_kernels_every_family(self, family, shape):
        grid = self.grid
        mus = self.mus.reshape(shape)[..., None]
        sines = np.sin(mus * grid.times)
        k_samples = family.values(grid.times) * np.ones(sines.shape)
        ref = (0.2 * sines + trapezoid_convolve(k_samples, sines, grid.dt)) / mus
        got = memory_oscillator_kernels(self.mus.reshape(shape), MemoryKernel(0.2, family), grid)
        self.assert_close(got, ref)


class TestFreeMemoryModal:
    def test_zero_kernel_reduces_to_trig(self):
        grid = TimeGrid(2.0, 500)
        psi = ModalOperator(4.0, MemoryKernel(), grid).free(0.3, -1.2)
        exact = 0.3 * np.cos(4.0 * grid.times) - 1.2 * np.sin(4.0 * grid.times)
        assert np.max(np.abs(psi - exact)) <= 1e-10

    def test_zero_order_term_shifts_frequency(self):
        # b = 1 with mu = 2 means psi'' = -(4 - 1) psi, so psi = cos(sqrt(3) t).
        grid = TimeGrid(1.0, 1000)
        psi = ModalOperator(2.0, MemoryKernel(b=1.0), grid).free(1.0, 0.0)
        assert abs(psi[-1] - np.cos(np.sqrt(3.0))) <= 1e-5
        assert np.max(np.abs(psi - np.cos(np.sqrt(3.0) * grid.times))) <= 1e-5

    def test_exponential_memory_against_rk4_oracle(self):
        # K = e^{-t} augments the oscillator with q' = psi - q, which the
        # helper integrates by RK4 on a grid ten times finer.
        grid = TimeGrid(2.0, 2000)
        kernel = MemoryKernel(b=0.0, kernel=ExponentialKernel(1.0, 1.0))
        psi = ModalOperator(5.0, kernel, grid).free(0.0, 1.0)
        oracle = free_memory_reference(0.0, 1.0, 5.0, 0.0, 1.0, 1.0, 2.0, 20000)[::10]
        assert np.max(np.abs(psi - oracle)) <= 1e-6

    def test_energy_identity_second_order(self):
        # Without memory, E = psi'^2 + mu^2 psi^2 is conserved; the discrete
        # deviation should shrink like dt^2.
        devs = []
        for steps in (1000, 2000):
            grid = TimeGrid(3.0, steps)
            psi = ModalOperator(2.0, MemoryKernel(), grid).free(0.7, -0.4)
            dpsi = np.gradient(psi, grid.dt, edge_order=2)
            energy = dpsi**2 + 4.0 * psi**2
            devs.append(np.max(np.abs(energy - energy[0])) / energy[0])
        assert devs[0] <= 1e-4
        assert 3.0 <= devs[0] / devs[1] <= 5.0


class TestControlledMemoryModal:
    @pytest.mark.parametrize("mu", [np.pi / 2, 1.0, 3.0], ids=["half-pi", "one", "three"])
    def test_zero_kernel_matches_duhamel(self, mu):
        # Without memory the trajectory is the Duhamel sine and cosine sums,
        # here the plain O(n^2) product-trapezoid sums, on a forcing that
        # does not vanish at t = 0.
        grid = TimeGrid(2.0, 400)
        g = np.cos(3.0 * grid.times) + np.random.default_rng(8).standard_normal(grid.n_nodes)
        w, wp = one_mode_trajectory(mu, MemoryKernel(), g, grid)
        phase = mu * grid.times
        u = direct_trapezoid_convolution(np.sin(phase), g, grid.dt) / mu
        up = direct_trapezoid_convolution(np.cos(phase), g, grid.dt)
        assert np.max(np.abs(w - u)) <= 1e-12 * np.max(np.abs(u))
        assert np.max(np.abs(wp - up)) <= 1e-12 * np.max(np.abs(up))

    def test_forced_memory_against_rk4_oracle(self):
        grid = TimeGrid(2.0, 2000)
        kernel = MemoryKernel(b=0.5, kernel=ExponentialKernel(0.2, 1.0))
        w, wp = one_mode_trajectory(3.0, kernel, np.ones(grid.n_nodes), grid)
        ow, owp = forced_memory_reference(3.0, 0.5, 0.2, 1.0, lambda t: np.ones_like(t), 2.0, 20000)
        assert np.max(np.abs(w - ow[::10])) <= 1e-6
        assert np.max(np.abs(wp - owp[::10])) <= 1e-6


class TestForwardSimulate:
    def test_constant_traction_single_mode(self):
        # Unit traction on (0,1) forces mode 1 with g = sqrt(2); the weighted
        # terminal position mu w(2) is 4 sqrt(2) / pi and the velocity vanishes.
        grid = TimeGrid(2.0, 2000)
        basis = build_interval_basis(1.0, 1)
        control = BoundaryControl(values=np.ones((1, grid.n_nodes)), grid=grid)
        sim = forward_simulate(basis, MemoryKernel(), control, grid)
        assert abs(sim.terminal.xi[0] - 4.0 * np.sqrt(2.0) / np.pi) <= 1e-4
        assert abs(sim.terminal.eta[0]) <= 1e-12

    def test_zero_control_stays_at_rest(self):
        grid = TimeGrid(1.0, 50)
        basis = build_interval_basis(1.0, 4)
        sim = forward_simulate(basis, MemoryKernel(b=0.5), zero_control(basis, grid), grid)
        assert np.array_equal(sim.trajectory.values, np.zeros((4, grid.n_nodes)))
        assert sobolev_norm(sim.terminal) == 0.0

    def test_matches_independent_modal_expansion(self):
        # f(t) = cos(2 t) drives mode n with g_n = trace_n cos(2 t), whose
        # Duhamel integral has the closed form (cos 2t - cos mu_n t)/(mu_n^2 - 4).
        grid = TimeGrid(2.0, 20000)
        basis = build_interval_basis(1.0, 3)
        control = BoundaryControl(values=np.cos(2.0 * grid.times)[None, :], grid=grid)
        sim = forward_simulate(basis, MemoryKernel(), control, grid)
        t = grid.times
        for i, mu in enumerate(basis.mu):
            exact = basis.traces[i, 0] * (np.cos(2.0 * t) - np.cos(mu * t)) / (mu**2 - 4.0)
            assert np.max(np.abs(sim.trajectory.values[i] - exact)) <= 1e-8

    def test_linearity_in_the_control(self):
        rng = np.random.default_rng(12)
        grid = TimeGrid(1.5, 300)
        basis = build_interval_basis(1.0, 3)
        kernel = MemoryKernel(b=0.4, kernel=ExponentialKernel(0.3, 1.0))
        f1 = BoundaryControl(rng.standard_normal((1, grid.n_nodes)), grid)
        f2 = BoundaryControl(rng.standard_normal((1, grid.n_nodes)), grid)
        combo = BoundaryControl(2.0 * f1.values - f2.values, grid)
        s1 = forward_simulate(basis, kernel, f1, grid)
        s2 = forward_simulate(basis, kernel, f2, grid)
        s12 = forward_simulate(basis, kernel, combo, grid)
        gap = s12.trajectory.values - (2.0 * s1.trajectory.values - s2.trajectory.values)
        assert np.max(np.abs(gap)) <= 1e-12

    def test_rejects_mismatched_control(self):
        # Both runs name the mismatch; a 1-node control would broadcast
        # against a rectangle's traces without the node-count check.
        grid = TimeGrid(1.0, 20)
        kernel = MemoryKernel(b=0.2, kernel=PRONY)
        interval = build_interval_basis(1.0, 2)
        rectangle = build_rectangle_basis(1.0, 1.5, 6, 8)
        assert rectangle.n_quad == 16
        other_grid = "control was sampled on a different grid"
        cases = [
            (interval, zero_control(interval, TimeGrid(1.0, 40)), other_grid),
            (rectangle, zero_control(rectangle, TimeGrid(1.0, 10)), other_grid),
            (interval, zero_control(rectangle, grid), "control has 16 boundary nodes, basis has 1"),
            (rectangle, zero_control(interval, grid), "control has 1 boundary nodes, basis has 16"),
        ]
        for run in (forward_simulate, forward_trajectory):
            for basis, control, message in cases:
                with pytest.raises(ValueError, match=f"^{message}$"):
                    run(basis, kernel, control, grid)


class TestTerminalResponseMap:
    def test_columns_match_forward_runs_of_nodal_impulses(self):
        # The interval's one control node carries the traces, so an impulse
        # control at node p forces mode m with trace_m e_p.  The reference is
        # the end of the forced march of that forcing, not forward_simulate's
        # terminal state or the trajectory, which read the free responses.
        basis = build_interval_basis(1.0, 6)
        grid = TimeGrid(2.5, 301)
        kernel = MemoryKernel(b=0.2, kernel=PRONY)
        op = ModalOperator(basis.mu, kernel, grid)
        map_xi, map_eta = op.terminal_maps
        assert map_xi.shape == map_eta.shape == (6, grid.n_nodes)
        n = grid.n_nodes
        for p in (0, 1, n // 2, n - 1):
            forcing = np.zeros((6, n))
            forcing[:, p] = basis.traces[:, 0]
            w, wp = forced_march(op, forcing)
            got = basis.traces[:, 0] * np.stack([map_xi[:, p], map_eta[:, p]])
            want = np.stack([basis.mu * w[:, -1], wp[:, -1]])
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize(
        "geometry, family, shape",
        [
            ("interval", "prony", None),
            ("interval", "sampled", None),
            ("rectangle", "prony", None),
            ("rectangle", "sampled", None),
            ("interval", "prony", (3, 2)),
        ],
    )
    def test_one_impulse_matches_two_impulse_march(self, geometry, family, shape):
        # The maps are the free responses reversed and weighted, less the
        # node-0 term; the oracle marches two impulses per mode instead.
        grid = TimeGrid(2.5, 400)
        if geometry == "interval":
            mus = build_interval_basis(1.0, 12 if shape is None else 6).mu
        else:
            mus = build_rectangle_basis(1.0, 1.5, 16, 6).mu
        if shape is not None:
            mus = mus.reshape(shape)
        memory = PRONY
        if family == "sampled":
            t = np.linspace(0.0, 3.0, 61)
            memory = SampledKernel(times=t, samples=0.1 * t * np.exp(-t))
        op = ModalOperator(mus, MemoryKernel(b=0.2, kernel=memory), grid)
        want_maps = two_impulse_terminal_maps(op)
        for got_pair, want_pair in zip((op.terminal_maps, op.memoryless_maps), want_maps):
            for got, want in zip(got_pair, want_pair):
                assert got.shape == want.shape == mus.shape + (grid.n_nodes,)
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("extra_modes", [0, 5])
    @pytest.mark.parametrize("family", ["prony", "sampled"])
    @pytest.mark.parametrize("geometry", ["interval", "rectangle"])
    def test_terminal_state_is_the_trajectory_end(self, geometry, family, extra_modes):
        # The contracted terminal state against the trajectory's end, also
        # when the slot's operator holds more modes than the basis.  The
        # interval's 1 node is fewer than the 2m = 14 rows of psi, so the
        # control is reversed; the rectangle's 16 nodes are more, so psi is.
        grid = TimeGrid(2.5, 500)
        memory = PRONY
        if family == "sampled":
            t = np.linspace(0.0, 3.0, 61)
            memory = SampledKernel(times=t, samples=0.1 * t * np.exp(-t))
        kernel = MemoryKernel(b=0.2, kernel=memory)

        def build(modes):
            if geometry == "interval":
                return build_interval_basis(1.0, modes)
            return build_rectangle_basis(1.0, 1.5, modes, 8)

        basis = build(7)
        assert (basis.n_quad < 14) == (geometry == "interval")
        basis_operator(build(7 + extra_modes), kernel, grid, 7 + extra_modes)
        rng = np.random.default_rng(5)
        control = BoundaryControl(rng.standard_normal((basis.n_quad, grid.n_nodes)), grid)
        sim = forward_simulate(basis, kernel, control, grid)
        got, want = sim.terminal, sim.trajectory.terminal
        assert modal_dynamics._slot[0].mus.size == 7 + extra_modes
        assert got.n_modes == want.n_modes == 7
        gap = np.concatenate([got.xi - want.xi, got.eta - want.eta])
        assert np.linalg.norm(gap) <= 1e-12 * sobolev_norm(want)

    @pytest.mark.parametrize("geometry", ["interval", "rectangle"])
    def test_node0_term_is_the_marched_node0_gap(self, geometry):
        # duality_check marches the forward map from the node-0 impulse, so
        # its node-0 gap checks the closed form.  The gap is the difference
        # of two entries of about (dt/2) psi_c(T), so it cannot resolve the
        # term below their rounding: 1e-12 relative, or 16 eps of the entry
        # where the term is smaller than that allows (the interval's higher
        # modes, whose term is 1e-4 of the entry).
        basis = build_interval_basis(1.0, 8) if geometry == "interval" else build_rectangle_basis(1.0, 1.5, 8)
        kernel = MemoryKernel(b=1.0, kernel=ExponentialKernel(2.0, 1.0))
        grid = TimeGrid(2.5, 400)
        report = duality_check(basis, kernel, grid)
        op, _ = basis_operator(basis, kernel, grid, basis.n_modes)
        term = op.node0_term
        assert term.shape == (basis.n_modes,) and not term.flags.writeable
        entry = 0.5 * grid.dt * np.abs(op.free_responses[0, :, -1])
        rounding = 16.0 * np.finfo(float).eps * entry
        assert np.all(np.abs(np.abs(term) - grid.dt * report.node0_gap) <= 1e-12 * np.abs(term) + rounding)
        # Without memory the term is 0.
        assert not np.any(ModalOperator(basis.mu, MemoryKernel(), grid).node0_term)


class TestForwardTrajectory:
    """The trajectory formed from the free responses against the forced march."""

    @pytest.mark.parametrize(
        "kernel",
        [
            MemoryKernel(b=0.2, kernel=ExponentialKernel(0.1, 1.0)),
            MemoryKernel(b=0.8, kernel=PronyKernel((4.0, -1.0), (1.0, 3.0))),
        ],
        ids=["weak", "strong"],
    )
    @pytest.mark.parametrize("geometry", ["interval", "square"])
    def test_matches_the_forced_march(self, geometry, kernel):
        # A rough traction, nonzero at t = 0; the square's 16 modes read
        # fewer operator rows, each mode's through the row map.
        if geometry == "interval":
            basis = build_interval_basis(1.0, 16)
        else:
            basis = build_rectangle_basis(1.0, 1.0, 16, 8)
        grid = TimeGrid(4.0, 1999)
        values = np.random.default_rng(6).standard_normal((basis.n_quad, grid.n_nodes))
        got = forward_trajectory(basis, kernel, BoundaryControl(values, grid), grid)
        op, rows = basis_operator(basis, kernel, grid, basis.n_modes)
        assert (rows[-1] + 1 < 16) == (geometry == "square")
        g = (basis.traces * basis.quad_weights) @ values
        assert np.all(g[:, 0] != 0.0)
        w, wp = forced_march(op, g, rows)
        for slot, want in ((got.values, w), (got.velocities, wp)):
            assert slot.shape == (16, grid.n_nodes)
            assert np.max(np.abs(slot - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("geometry", ["interval", "square"])
    def test_starts_at_rest(self, geometry):
        if geometry == "interval":
            basis = build_interval_basis(1.0, 6)
        else:
            basis = build_rectangle_basis(1.0, 1.0, 6, 8)
        grid = TimeGrid(2.5, 300)
        control = BoundaryControl(np.ones((basis.n_quad, grid.n_nodes)), grid)
        trajectory = forward_trajectory(basis, MemoryKernel(b=0.2, kernel=PRONY), control, grid)
        assert not np.any(trajectory.values[:, 0])
        assert not np.any(trajectory.velocities[:, 0])
        assert np.all(trajectory.velocities[:, 1] != 0.0)


class TestModalOperator:
    def test_terminal_maps_are_computed_once(self, inverted_rows, marched_rows):
        basis = build_interval_basis(1.0, 6)
        grid = TimeGrid(2.5, 301)
        kernel = MemoryKernel(b=0.2, kernel=PRONY)
        operator = ModalOperator(basis.mu, kernel, grid)
        operator.free_responses
        assert marched_rows == [2 * basis.n_modes]
        assert sum(inverted_rows) == basis.n_modes
        # The maps are read off the free responses: neither marches anything.
        memory = operator.terminal_maps
        assert operator.terminal_maps is memory
        memoryless = operator.memoryless_maps
        assert operator.memoryless_maps is memoryless
        assert marched_rows == [2 * basis.n_modes]
        assert sum(inverted_rows) == basis.n_modes
        assert not any(a.flags.writeable for a in memory + memoryless)
        # The memoryless maps are the zero kernel's maps, which invert nothing.
        zero = ModalOperator(basis.mu, MemoryKernel(), grid).terminal_maps
        for got, want in zip(memoryless, zero):
            assert np.array_equal(got, want)
        assert sum(inverted_rows) == basis.n_modes
        # mus of any shape give maps of shape mus.shape + (n,), row for row.
        square = ModalOperator(basis.mu.reshape(3, 2), kernel, grid).terminal_maps
        for got, want in zip(square, memory):
            assert np.array_equal(got.reshape(want.shape), want)

    def test_warm_forward_run_and_its_trajectory_march_nothing(self, marched_rows):
        basis = build_interval_basis(1.0, 8)
        grid = TimeGrid(2.5, 301)
        kernel = MemoryKernel(b=0.2, kernel=PRONY)
        control = BoundaryControl(values=np.cos(grid.times)[None, :], grid=grid)
        forward_simulate(basis, kernel, control, grid)
        assert marched_rows == [2 * basis.n_modes]  # the free responses, once
        marched_rows.clear()
        sim = forward_simulate(basis, kernel, control, grid)
        trajectory = sim.trajectory
        assert sim.trajectory is trajectory
        assert marched_rows == []
        want = forward_trajectory(basis, kernel, control, grid)
        assert np.array_equal(trajectory.values, want.values)
        assert np.array_equal(trajectory.velocities, want.velocities)
        assert marched_rows == []

    def test_terminal_maps_peak_no_higher_than_a_warm_trajectory(self):
        # Python-level peak (tracemalloc) of each, from the same warm operator.
        grid = TimeGrid(2.5, 5000)
        basis = build_interval_basis(1.0, 64)
        kernel = MemoryKernel(b=0.2, kernel=PRONY)
        op, _ = basis_operator(basis, kernel, grid, basis.n_modes)
        op.free_responses  # the reciprocal spectra exist before either is measured
        control = BoundaryControl(np.random.default_rng(2).standard_normal((1, grid.n_nodes)), grid)
        trajectory_peak = traced_peak(lambda: forward_trajectory(basis, kernel, control, grid))
        map_peak = traced_peak(lambda: op.terminal_maps)
        assert map_peak <= trajectory_peak

    @pytest.mark.parametrize("geometry", ["interval", "square"])
    def test_warm_forward_trajectory_peaks_at_six_modal_tables(self, geometry):
        # The modal forcing, the (w, w') stack, the march's reciprocal on
        # the operator rows (33 of 64 on the square), and a block of modes'
        # gathered free-response rows and convolution temporaries: 5.32
        # tables on the interval and 4.84 on the square, measured.
        if geometry == "interval":
            basis = build_interval_basis(1.0, 64)
        else:
            basis = build_rectangle_basis(1.0, 1.0, 64, 8)
        grid = TimeGrid(4.0, 5000)
        kernel = MemoryKernel(b=0.2, kernel=ExponentialKernel(0.1, 1.0))
        control = BoundaryControl(
            np.random.default_rng(4).standard_normal((basis.n_quad, grid.n_nodes)), grid
        )
        forward_trajectory(basis, kernel, control, grid)  # the reciprocal spectra
        table = basis.n_modes * grid.n_nodes * np.dtype(float).itemsize
        peak = traced_peak(lambda: forward_trajectory(basis, kernel, control, grid))
        assert peak <= 6 * table + 2**14, peak / table

    def test_free_responses_are_computed_once(self, monkeypatch):
        basis = build_interval_basis(1.0, 8)
        grid = TimeGrid(2.5, 301)
        kernel = MemoryKernel(b=0.2, kernel=PRONY)
        forcings = []
        march = modal_dynamics.march_difference_kernel

        def counting(factored, forcing, out=None):
            forcings.append(np.array(forcing))  # the march may overwrite it
            return march(factored, forcing, out=out)

        monkeypatch.setattr(modal_dynamics, "march_difference_kernel", counting)
        operator, _ = basis_operator(basis, kernel, grid, basis.n_modes)
        rng = np.random.default_rng(3)
        v = StatePair(xi=rng.standard_normal(5), eta=rng.standard_normal(5), mu=basis.mu[:5])
        assemble_gram(basis, kernel, grid, basis.n_modes)
        assemble_gram(basis, kernel, grid, 4)
        adjoint_trace(basis, kernel, v, grid)
        gronwall_bound_check(basis, kernel, grid)
        # The maps and the forward run's terminal state and trajectory read
        # the same table.
        operator.terminal_maps, operator.memoryless_maps
        control = BoundaryControl(values=np.cos(grid.times)[None, :], grid=grid)
        forward_simulate(basis, kernel, control, grid).trajectory
        phase = basis.mu[:, None] * grid.times
        assert len(forcings) == 1
        assert np.array_equal(forcings[0], np.stack([np.cos(phase), np.sin(phase)]))
        # duality_check adds the node-0 impulse march and nothing else.
        duality_check(basis, kernel, grid)
        assert len(forcings) == 2
        assert modal_dynamics._slot[0] is operator
        table = operator.free_responses
        assert not table.flags.writeable
        psi = operator.free(np.ones(basis.n_modes), np.zeros(basis.n_modes))
        assert psi.flags.writeable
        assert np.array_equal(psi, table[0])
        assert len(forcings) == 2

    @pytest.mark.parametrize("geometry", ["interval", "rectangle"])
    @pytest.mark.parametrize("family", ["prony", "sampled"])
    def test_unit_responses_combine_as_direct_marches(self, geometry, family):
        # free and adjoint_trace combine the unit responses; marching each
        # datum's forcing directly is the reference route.
        grid = TimeGrid(2.5, 400)
        if geometry == "interval":
            basis = build_interval_basis(1.0, 12)
        else:
            basis = build_rectangle_basis(1.0, 1.5, 16, 6)
        memory = PRONY
        if family == "sampled":
            t = np.linspace(0.0, 3.0, 61)
            memory = SampledKernel(times=t, samples=0.1 * t * np.exp(-t))
        kernel = MemoryKernel(b=0.2, kernel=memory)
        operator, _ = basis_operator(basis, kernel, grid, basis.n_modes)
        xi, eta = np.random.default_rng(11).standard_normal((2, basis.n_modes))
        want = direct_free_march(operator, xi, eta)
        got = operator.free(xi, eta)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        # Data on fewer modes than the operator holds read its leading rows.
        m = basis.n_modes - 5
        v = StatePair(xi=xi[:m], eta=eta[:m], mu=basis.mu[:m])
        got = adjoint_trace(basis, kernel, v, grid).values
        want = basis.traces[:m].T @ direct_free_march(operator, xi[:m], eta[:m])[:, ::-1]
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        assert modal_dynamics._slot[0] is operator


class TestTimeCorrelation:
    """ModalOperator.time_correlation keeps one read-only table per operator,
    for the last mode count asked for; Grams read from it are bitwise those
    of a fresh operator."""

    grid = TimeGrid(2.5, 400)

    def test_one_read_only_table_for_the_last_count(self, formed_correlations):
        basis = build_interval_basis(1.0, 8)
        op = ModalOperator(basis.mu, MemoryKernel(b=0.2, kernel=PRONY), self.grid)
        table = op.time_correlation(8)
        assert table.shape == (16, 16)
        assert not table.flags.writeable
        assert op.time_correlation(8) is table
        assert len(formed_correlations) == 1
        # Another count replaces the table: the operator holds one.
        small = op.time_correlation(3)
        assert small.shape == (6, 6)
        assert op._correlation is small
        assert op.time_correlation(3) is small
        again = op.time_correlation(8)
        assert again is not table and op._correlation is again
        assert np.array_equal(again, table)
        assert len(formed_correlations) == 3

    @pytest.mark.parametrize("family", ["prony", "sampled"])
    def test_grams_equal_a_fresh_operators(self, family, formed_correlations):
        basis = build_interval_basis(1.0, 10)
        memory = PRONY
        if family == "sampled":
            t = np.linspace(0.0, 3.0, 61)
            memory = SampledKernel(times=t, samples=0.1 * t * np.exp(-t))
        kernel, grid = MemoryKernel(b=0.2, kernel=memory), self.grid

        def fresh(m):
            modal_dynamics.release_operator()
            return assemble_gram(basis, kernel, grid, m).matrix

        want = {m: fresh(m) for m in (10, 4)}
        modal_dynamics.release_operator()
        formed_correlations.clear()
        # m = M twice, m < M, then M again, all on the slot's one operator.
        for m, formed in ((10, 1), (10, 1), (4, 2), (10, 3)):
            assert np.array_equal(assemble_gram(basis, kernel, grid, m).matrix, want[m])
            assert len(formed_correlations) == formed
        assert modal_dynamics._slot[0].mus.size == 10


class TestAdjointTrace:
    def test_single_mode_without_memory(self):
        # Data (xi, eta) = (1, 0) on mode 1 propagates as cos(mu_1 t); the trace
        # is its time reversal scaled by the stored boundary value sqrt(2).
        grid = TimeGrid(2.0, 200)
        basis = build_interval_basis(1.0, 4)
        v = StatePair(xi=np.array([1.0]), eta=np.array([0.0]), mu=basis.mu[:1])
        trace = adjoint_trace(basis, MemoryKernel(), v, grid)
        exact = np.sqrt(2.0) * np.cos(basis.mu[0] * (2.0 - grid.times))
        assert np.max(np.abs(trace.values[0] - exact)) <= 1e-12

    def test_series_assembly_is_linear(self):
        grid = TimeGrid(2.0, 300)
        basis = build_interval_basis(1.0, 5)
        kernel = MemoryKernel(b=0.3, kernel=ExponentialKernel(0.2, 2.0))
        rng = np.random.default_rng(9)
        xi = rng.standard_normal(5)
        eta = rng.standard_normal(5)
        combined = adjoint_trace(basis, kernel, StatePair(xi, eta, basis.mu), grid)
        assembled = np.zeros_like(combined.values)
        for n in range(5):
            xin = np.zeros(5)
            etan = np.zeros(5)
            xin[n] = xi[n]
            etan[n] = eta[n]
            assembled += adjoint_trace(basis, kernel, StatePair(xin, etan, basis.mu), grid).values
        assert np.max(np.abs(combined.values - assembled)) <= 1e-10

    def test_smoothed_data_gives_stable_trace_norm(self):
        # Data one Sobolev rung smoother, (xi, eta) -> (-eta/mu, xi/mu), should
        # give trace norms that settle as modes are added.
        kernel = MemoryKernel(b=0.3, kernel=ExponentialKernel(0.2, 2.0))
        grid = TimeGrid(2.0, 1000)
        norms = []
        for m in (8, 16, 32):
            basis = build_interval_basis(1.0, m)
            n = np.arange(1, m + 1)
            xi = 1.0 / n
            eta = (-1.0) ** n / n
            v = StatePair(xi=-eta / basis.mu, eta=xi / basis.mu, mu=basis.mu)
            norms.append(control_l2_norm(basis, adjoint_trace(basis, kernel, v, grid)))
        assert abs(norms[2] - norms[1]) / norms[1] <= 0.05

    @pytest.mark.parametrize("geometry", ["interval", "square"])
    def test_no_modes_give_the_zero_control(self, geometry):
        grid = TimeGrid(2.5, 300)
        if geometry == "interval":
            basis = build_interval_basis(1.0, 4)
        else:
            basis = build_rectangle_basis(1.0, 1.0, 4, 8)
        kernel = MemoryKernel(b=0.2, kernel=PRONY)
        none = StatePair(xi=np.zeros(0), eta=np.zeros(0), mu=basis.mu[:0])
        # On an empty slot and on the slot of the basis's modes.
        for _ in range(2):
            trace = adjoint_trace(basis, kernel, none, grid)
            assert trace.values.shape == (basis.n_quad, grid.n_nodes)
            assert not np.any(trace.values)
            basis_operator(basis, kernel, grid, basis.n_modes)

    def test_rejects_more_modes_than_basis(self):
        grid = TimeGrid(1.0, 20)
        basis = build_interval_basis(1.0, 2)
        v = StatePair(xi=np.ones(3), eta=np.zeros(3), mu=np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError):
            adjoint_trace(basis, MemoryKernel(), v, grid)


class TestGronwallBound:
    def test_zero_kernel_bound_is_one(self):
        # Without memory psi = cos theta cos(mu t) + sin theta sin(mu t).
        basis = build_interval_basis(1.0, 16)
        report = gronwall_bound_check(basis, MemoryKernel(), TimeGrid(2.0, 400))
        assert np.all(np.abs(report.per_mode_max - 1.0) <= 1e-12)

    def test_memory_bound_uniform_in_the_mode_index(self):
        kernel = MemoryKernel(b=1.0, kernel=ExponentialKernel(1.0, 1.0))
        report = gronwall_bound_check(build_interval_basis(1.0, 64), kernel, TimeGrid(4.0, 1200))
        assert np.isfinite(report.m_observed)
        low = report.per_mode_max[:8].max()
        high = report.per_mode_max[8:].max()
        assert high <= low
        # Doubling the mode count must not inflate the observed constant: the
        # second half of the modes stays below the first half's maximum.
        assert abs(report.per_mode_max[:32].max() - report.m_observed) <= 1e-2 * report.m_observed

    def test_maxima_are_the_suprema_over_unit_data(self):
        basis = build_interval_basis(1.0, 16)
        grid = TimeGrid(2.5, 512)
        kernel = MemoryKernel(b=0.2, kernel=PRONY)
        report = gronwall_bound_check(basis, kernel, grid)
        assert report.m_observed == report.per_mode_max.max()
        operator = ModalOperator(basis.mu, kernel, grid)
        # Random data (cos theta, sin theta), each marched directly, stay below.
        rng = np.random.default_rng(5)
        for _ in range(8):
            theta = rng.uniform(0.0, 2.0 * np.pi, size=basis.n_modes)
            psi = direct_free_march(operator, np.cos(theta), np.sin(theta))
            sampled = np.max(np.abs(psi), axis=1)
            assert np.all(sampled <= report.per_mode_max + 1e-13 * report.m_observed)
        # A sweep of theta over half a turn (psi is odd in its data), steps of
        # pi/256, falls short of the supremum by at most 1 - cos(pi/512).
        theta = np.linspace(0.0, np.pi, 256, endpoint=False)[:, None] + np.zeros(basis.n_modes)
        swept = np.max(np.abs(operator.free(np.cos(theta), np.sin(theta))), axis=(0, 2))
        assert np.all(np.abs(swept - report.per_mode_max) <= 1e-4 * report.per_mode_max)


class TestBoundaryControls:
    def test_tone_control_shapes_and_values(self):
        grid = TimeGrid(1.0, 100)
        basis = build_interval_basis(1.0, 2)
        amps = np.array([[1.0, 0.5]])
        phases = np.array([[0.0, np.pi / 2]])
        control = tone_control(basis, grid, amps, np.array([2.0, 3.0]), phases)
        expected = np.cos(2.0 * grid.times) + 0.5 * np.cos(3.0 * grid.times + np.pi / 2)
        assert np.allclose(control.values[0], expected, atol=1e-14)

    def test_tone_control_shape_mismatch(self):
        grid = TimeGrid(1.0, 10)
        basis = build_interval_basis(1.0, 2)
        with pytest.raises(ValueError):
            tone_control(basis, grid, np.ones((2, 2)), np.array([1.0]), np.zeros((2, 2)))

    def test_control_norm_of_constant_traction(self):
        # |f| = 1 on a unit face over [0, 2] has squared norm 2.
        grid = TimeGrid(2.0, 50)
        basis = build_interval_basis(1.0, 1)
        control = BoundaryControl(values=np.ones((1, grid.n_nodes)), grid=grid)
        assert np.isclose(control_l2_norm(basis, control), np.sqrt(2.0), rtol=1e-14)

    def test_control_validation(self):
        grid = TimeGrid(1.0, 10)
        with pytest.raises(ValueError):
            BoundaryControl(values=np.zeros((2, 5)), grid=grid)
        with pytest.raises(ValueError):
            BoundaryControl(values=np.full((1, grid.n_nodes), np.nan), grid=grid)
