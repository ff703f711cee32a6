import numpy as np
import pytest

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
    control_l2_norm,
    forward_simulate,
    gronwall_bound_check,
    memory_oscillator_kernels,
    sobolev_norm,
    tone_control,
    zero_control,
)
from viscowave.quadrature import trapezoid_convolve
from viscowave.spectral_basis import build_interval_basis

from helpers import forced_memory_reference, free_memory_reference


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
    def test_constant_forcing_closed_form(self):
        # u(t) = (1 - cos(mu t)) / mu^2 for g = 1; at mu = pi/2, t = 2 this is 8/pi^2.
        grid = TimeGrid(2.0, 2000)
        u, up = ModalOperator(np.pi / 2, MemoryKernel(), grid).wave(np.ones(grid.n_nodes))
        assert abs(u[-1] - 8.0 / np.pi**2) <= 1e-5
        assert abs(up[-1]) <= 1e-12

    def test_resonant_forcing(self):
        # g = sin(mu s) at mu = 1 resonates: u = (sin t - t cos t) / 2.
        grid = TimeGrid(np.pi, 3000)
        u, _ = ModalOperator(1.0, MemoryKernel(), grid).wave(np.sin(grid.times))
        exact = 0.5 * (np.sin(grid.times) - grid.times * np.cos(grid.times))
        assert abs(u[-1] - np.pi / 2) <= 1e-12
        assert np.max(np.abs(u - exact)) <= 1e-5

    def test_rejects_bad_input(self):
        grid = TimeGrid(1.0, 10)
        with pytest.raises(ValueError):
            ModalOperator(0.0, MemoryKernel(), grid).wave(np.ones(grid.n_nodes))
        with pytest.raises(ValueError):
            ModalOperator(1.0, MemoryKernel(), grid).wave(np.ones(3))
        # Array mu: every entry must be positive, and the forcing length is
        # checked whatever the batch shape.
        mus = np.array([[1.0], [-2.0]])
        with pytest.raises(ValueError, match="mu must be positive"):
            ModalOperator(mus, MemoryKernel(), grid).wave(np.ones((2, grid.n_nodes)))
        with pytest.raises(ValueError, match="mu must be positive"):
            ModalOperator(mus, MemoryKernel(), grid).free(1.0, 0.0)
        with pytest.raises(ValueError, match="mu must be positive"):
            ModalOperator(mus, MemoryKernel(), grid).forced(np.ones(grid.n_nodes))
        with pytest.raises(ValueError, match="forcing has 3 samples"):
            ModalOperator(np.array([1.0, 2.0]), MemoryKernel(), grid).wave(np.ones((2, 3)))
        with pytest.raises(ValueError, match="forcing has 3 samples"):
            ModalOperator(np.array([1.0, 2.0]), MemoryKernel(), grid).forced(np.ones((2, 3)))


class TestAngleAdditionSums:
    """The cumulative-sum Duhamel convolutions against the FFT product-trapezoid
    route of quadrature.trapezoid_convolve."""

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

    def test_wave_responses_of_one_forcing_per_mode(self):
        grid = self.grid
        g = np.random.default_rng(8).standard_normal((self.mus.size, grid.n_nodes))
        u, up = ModalOperator(self.mus, MemoryKernel(), grid).wave(g)
        phase = self.mus[:, None] * grid.times
        self.assert_close(u, trapezoid_convolve(np.sin(phase), g, grid.dt) / self.mus[:, None])
        self.assert_close(up, trapezoid_convolve(np.cos(phase), g, grid.dt))

    def test_wave_responses_of_shared_impulses(self):
        # (M, 1) frequencies against (1, 2, n) unit impulses at nodes 0 and 1,
        # the batch the perturbation probe marches.
        grid = self.grid
        impulses = np.zeros((1, 2, grid.n_nodes))
        impulses[0, 0, 0] = impulses[0, 1, 1] = 1.0
        u, up = ModalOperator(self.mus[:, None], MemoryKernel(), grid).wave(impulses)
        phase = self.mus[:, None, None] * grid.times
        impulses = np.broadcast_to(impulses, (self.mus.size, 2, grid.n_nodes))
        ref_u = trapezoid_convolve(np.sin(phase), impulses, grid.dt) / self.mus[:, None, None]
        self.assert_close(u, ref_u)
        self.assert_close(up, trapezoid_convolve(np.cos(phase), impulses, grid.dt))


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
    def test_zero_kernel_matches_duhamel(self):
        grid = TimeGrid(2.0, 400)
        g = np.cos(3.0 * grid.times)
        w, wp = ModalOperator(2.5, MemoryKernel(), grid).forced(g)
        u, up = ModalOperator(2.5, MemoryKernel(), grid).wave(g)
        assert np.max(np.abs(w - u)) <= 1e-10
        assert np.max(np.abs(wp - up)) <= 1e-10

    def test_forced_memory_against_rk4_oracle(self):
        grid = TimeGrid(2.0, 2000)
        kernel = MemoryKernel(b=0.5, kernel=ExponentialKernel(0.2, 1.0))
        w, wp = ModalOperator(3.0, kernel, grid).forced(np.ones(grid.n_nodes))
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
        grid = TimeGrid(1.0, 20)
        basis = build_interval_basis(1.0, 2)
        with pytest.raises(ValueError):
            forward_simulate(basis, MemoryKernel(), zero_control(basis, TimeGrid(1.0, 40)), grid)
        bad = BoundaryControl(values=np.zeros((3, grid.n_nodes)), grid=grid)
        with pytest.raises(ValueError):
            forward_simulate(basis, MemoryKernel(), bad, grid)


class TestTerminalResponseMap:
    def test_columns_match_forward_runs_of_nodal_impulses(self):
        # The interval's one control node carries the traces, so an impulse
        # control at node p forces mode m with trace_m e_p.
        basis = build_interval_basis(1.0, 6)
        grid = TimeGrid(2.5, 301)
        kernel = MemoryKernel(b=0.2, kernel=PronyKernel((0.03, 0.05, 0.04), (0.5, 2.0, 5.0)))
        map_xi, map_eta = ModalOperator(basis.mu, kernel, grid).terminal_maps[0]
        assert map_xi.shape == map_eta.shape == (6, grid.n_nodes)
        n = grid.n_nodes
        for p in (0, 1, n // 2, n - 1):
            values = np.zeros((1, n))
            values[0, p] = 1.0
            sim = forward_simulate(basis, kernel, BoundaryControl(values, grid), grid)
            got = basis.traces[:, 0] * np.stack([map_xi[:, p], map_eta[:, p]])
            want = np.stack([sim.terminal.xi, sim.terminal.eta])
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestModalOperator:
    def test_terminal_maps_are_computed_once(self, inverted_rows):
        basis = build_interval_basis(1.0, 6)
        grid = TimeGrid(2.5, 301)
        kernel = MemoryKernel(b=0.2, kernel=PronyKernel((0.03, 0.05, 0.04), (0.5, 2.0, 5.0)))
        operator = ModalOperator(basis.mu, kernel, grid)
        memory, memoryless = operator.terminal_maps
        assert operator.terminal_maps[0] is memory
        assert sum(inverted_rows) == basis.n_modes
        assert not memory[0].flags.writeable
        # The memoryless map is the wave response's: a zero kernel marches
        # its forcing unchanged.
        zero = ModalOperator(basis.mu, MemoryKernel(), grid).terminal_maps[0]
        for got, want in zip(memoryless, zero):
            assert np.array_equal(got, want)
        # mus of any shape give maps of shape mus.shape + (n,), row for row.
        square = ModalOperator(basis.mu.reshape(3, 2), kernel, grid).terminal_maps[0]
        for got, want in zip(square, memory):
            assert np.array_equal(got.reshape(want.shape), want)


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

    def test_rejects_more_modes_than_basis(self):
        grid = TimeGrid(1.0, 20)
        basis = build_interval_basis(1.0, 2)
        v = StatePair(xi=np.ones(3), eta=np.zeros(3), mu=np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError):
            adjoint_trace(basis, MemoryKernel(), v, grid)


class TestGronwallBound:
    def test_zero_kernel_bound_is_one(self):
        report = gronwall_bound_check(
            build_interval_basis(1.0, 16), MemoryKernel(), TimeGrid(2.0, 400), trials=3
        )
        assert report.m_observed <= 1.0 + 1e-9
        assert report.trials == 3

    def test_memory_bound_uniform_in_the_mode_index(self):
        kernel = MemoryKernel(b=1.0, kernel=ExponentialKernel(1.0, 1.0))
        report = gronwall_bound_check(
            build_interval_basis(1.0, 64), kernel, TimeGrid(4.0, 1200), trials=4
        )
        assert np.isfinite(report.m_observed)
        low = report.per_mode_max[:8].max()
        high = report.per_mode_max[8:].max()
        assert high <= low
        # Doubling the mode count must not inflate the observed constant: the
        # second half of the modes stays below the first half's maximum.
        assert abs(report.per_mode_max[:32].max() - report.m_observed) <= 1e-2 * report.m_observed

    def test_maxima_match_per_trial_marches(self):
        # psi is linear in its data: the two marched data per mode must give
        # the maxima of marching every trial's data (cos theta, sin theta).
        basis = build_interval_basis(1.0, 16)
        grid = TimeGrid(2.5, 512)
        kernel = MemoryKernel(b=0.2, kernel=PronyKernel((0.03, 0.05, 0.04), (0.5, 2.0, 5.0)))
        report = gronwall_bound_check(basis, kernel, grid, trials=8, seed=5)
        rng = np.random.default_rng(5)
        expected = np.zeros(basis.n_modes)
        for _ in range(8):
            theta = rng.uniform(0.0, 2.0 * np.pi, size=basis.n_modes)
            psi = ModalOperator(basis.mu, kernel, grid).free(np.cos(theta), np.sin(theta))
            expected = np.maximum(expected, np.max(np.abs(psi), axis=1))
        assert np.max(np.abs(report.per_mode_max - expected)) <= 1e-13 * expected.max()
        assert report.m_observed == report.per_mode_max.max()

    def test_rejects_nonpositive_trials(self):
        with pytest.raises(ValueError):
            gronwall_bound_check(
                build_interval_basis(1.0, 2), MemoryKernel(), TimeGrid(1.0, 10), trials=0
            )


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
