import numpy as np
import pytest

from viscowave.control_synthesis import (
    IllPosedSystemError,
    assemble_gram,
    duality_check,
    norm_growth_probe,
    perturbation_compactness_probe,
    random_smooth_target,
    riesz_fisher_diagnostic,
    solve_min_norm_control,
    terminal_error,
)
from viscowave.grids import TimeGrid
from viscowave.memory_kernel import ExponentialKernel, MemoryKernel, PronyKernel
from viscowave.modal_dynamics import (
    BoundaryControl,
    StatePair,
    adjoint_trace,
    basis_operator,
    control_l2_norm,
    forward_simulate,
    gronwall_bound_check,
    release_operator,
    tone_control,
)
from viscowave.quadrature import trapezoid_weights
from viscowave.spectral_basis import build_interval_basis, build_rectangle_basis


class TestGramAssembly:
    def test_single_mode_without_memory(self):
        # Trace solutions sqrt(2) cos(pi t / 2) and sqrt(2) sin(pi t / 2) on
        # [0, 2] cover full periods: diagonal entries 2, zero cross terms.
        basis = build_interval_basis(1.0, 1)
        gram = assemble_gram(basis, MemoryKernel(), TimeGrid(2.0, 1000), n_modes=1)
        assert abs(gram.matrix[0, 0] - 2.0) <= 1e-6
        assert abs(gram.matrix[1, 1] - 2.0) <= 1e-6
        assert abs(gram.matrix[0, 1]) <= 1e-6
        assert abs(gram.min_eigenvalue - 2.0) <= 1e-6
        assert gram.condition_number <= 1.0 + 1e-6

    def test_symmetric_positive_semidefinite(self):
        basis = build_interval_basis(1.0, 5)
        kernel = MemoryKernel(b=0.3, kernel=ExponentialKernel(0.2, 2.0))
        gram = assemble_gram(basis, kernel, TimeGrid(2.5, 600), n_modes=5)
        assert np.array_equal(gram.matrix, gram.matrix.T)
        assert np.linalg.eigvalsh(gram.matrix)[0] >= -1e-10
        assert gram.max_eigenvalue >= gram.min_eigenvalue > 0.0

    def test_small_kernel_perturbation_moves_entries_little(self):
        basis = build_interval_basis(1.0, 4)
        grid = TimeGrid(2.0, 1000)
        base = assemble_gram(basis, MemoryKernel(), grid, n_modes=4)
        bumped = assemble_gram(
            basis, MemoryKernel(kernel=ExponentialKernel(1e-3, 1.0)), grid, n_modes=4
        )
        assert np.max(np.abs(bumped.matrix - base.matrix)) <= 1e-2

    def test_threaded_assembly_matches_serial(self):
        basis = build_interval_basis(1.0, 8)
        kernel = MemoryKernel(b=0.2, kernel=ExponentialKernel(0.1, 1.0))
        grid = TimeGrid(2.5, 400)
        serial = assemble_gram(basis, kernel, grid, n_modes=8, threads=1)
        threaded = assemble_gram(basis, kernel, grid, n_modes=8, threads=2)
        assert np.array_equal(serial.psi_table, threaded.psi_table)
        assert np.array_equal(serial.matrix, threaded.matrix)
        assert serial.min_eigenvalue == threaded.min_eigenvalue

    def test_short_horizon_warns(self):
        basis = build_interval_basis(1.0, 2)
        with pytest.warns(UserWarning, match="control-time bound"):
            assemble_gram(basis, MemoryKernel(), TimeGrid(0.5, 100), n_modes=2)

    def test_validation(self):
        basis = build_interval_basis(1.0, 2)
        grid = TimeGrid(2.0, 100)
        with pytest.raises(ValueError):
            assemble_gram(basis, MemoryKernel(), grid, n_modes=3)
        with pytest.raises(ValueError):
            assemble_gram(basis, MemoryKernel(), grid, n_modes=1, regularization=-1.0)


class TestMinNormSynthesis:
    def test_single_mode_coefficients_and_steering(self):
        # With the 2x2 Gram equal to 2 I the coefficients are just rhs / 2,
        # rhs = (eta_1, mu_1 xi_1); the forward run must hit the target.
        basis = build_interval_basis(1.0, 1)
        grid = TimeGrid(2.0, 1500)
        kernel = MemoryKernel()
        gram = assemble_gram(basis, kernel, grid, n_modes=1)
        target = StatePair(xi=np.array([0.3]), eta=np.array([0.2]), mu=basis.mu)
        result = solve_min_norm_control(gram, basis, kernel, grid, target)
        rhs = np.array([0.2, basis.mu[0] * 0.3])
        assert np.allclose(result.coefficients, rhs / 2.0, atol=1e-6)
        assert np.array_equal(result.rhs, rhs)
        sim = forward_simulate(basis, kernel, result.control, grid)
        assert terminal_error(sim.terminal, target) <= 1e-3

    def test_memory_synthesis_reaches_smooth_target(self):
        basis = build_interval_basis(1.0, 8)
        kernel = MemoryKernel(b=0.2, kernel=ExponentialKernel(0.1, 1.0))
        grid = TimeGrid(2.5, 2000)
        gram = assemble_gram(basis, kernel, grid, n_modes=8)
        target = random_smooth_target(basis, np.random.default_rng(3))
        result = solve_min_norm_control(gram, basis, kernel, grid, target)
        assert result.residual <= 1e-10
        sim = forward_simulate(basis, kernel, result.control, grid)
        assert terminal_error(sim.terminal, target) <= 1e-2

    def test_orthogonal_perturbations_only_add_norm(self):
        # The synthesized control lives in the span of the reversed traces.
        # Adding a component orthogonal to that span leaves every truncated
        # terminal moment unchanged and strictly increases the control norm,
        # which is the minimum-norm property in discrete form.
        basis = build_interval_basis(1.0, 4)
        kernel = MemoryKernel()
        grid = TimeGrid(2.5, 1500)
        m = 4
        gram = assemble_gram(basis, kernel, grid, n_modes=m)
        target = random_smooth_target(basis, np.random.default_rng(21))
        result = solve_min_norm_control(gram, basis, kernel, grid, target)

        tr = np.vstack([basis.traces[:m], basis.traces[:m]])
        taus = tr[:, :, None] * gram.psi_table[:, None, ::-1]
        wt = trapezoid_weights(grid.n_nodes, grid.dt)
        qw = basis.quad_weights

        def inner(a, b):
            return float(np.sum(qw[:, None] * a * b * wt[None, :]))

        rng = np.random.default_rng(22)
        noise = rng.standard_normal((basis.n_quad, grid.n_nodes))
        pairings = np.array([inner(noise, taus[i]) for i in range(2 * m)])
        coeffs = np.linalg.solve(gram.matrix, pairings)
        delta = noise - np.tensordot(coeffs, taus, axes=(0, 0))
        residual_pairings = [abs(inner(delta, taus[i])) for i in range(2 * m)]
        assert max(residual_pairings) <= 1e-10

        perturbed = BoundaryControl(result.control.values + delta, grid)
        sim0 = forward_simulate(basis, kernel, result.control, grid)
        sim1 = forward_simulate(basis, kernel, perturbed, grid)
        base = np.concatenate([sim0.terminal.xi, sim0.terminal.eta])
        moved = np.concatenate([sim1.terminal.xi, sim1.terminal.eta])
        assert np.linalg.norm(moved - base) <= 1e-8 * np.linalg.norm(base)
        assert control_l2_norm(basis, perturbed) > control_l2_norm(basis, result.control)

    def test_target_with_fewer_modes_rejected(self):
        basis = build_interval_basis(1.0, 3)
        grid = TimeGrid(2.0, 200)
        gram = assemble_gram(basis, MemoryKernel(), grid, n_modes=3)
        target = StatePair(xi=np.ones(2), eta=np.zeros(2), mu=basis.mu[:2])
        with pytest.raises(ValueError):
            solve_min_norm_control(gram, basis, MemoryKernel(), grid, target)

    def test_ill_posed_system_raises_and_regularization_recovers(self):
        basis = build_interval_basis(1.0, 8)
        grid = TimeGrid(0.05, 60)
        with pytest.warns(UserWarning, match="control-time bound"):
            gram = assemble_gram(basis, MemoryKernel(), grid, n_modes=8)
        target = random_smooth_target(basis, np.random.default_rng(1))
        with pytest.raises(IllPosedSystemError, match="regularization"):
            solve_min_norm_control(gram, basis, MemoryKernel(), grid, target)
        ridge = 1e-10 * float(np.trace(gram.matrix))
        with pytest.warns(UserWarning, match="control-time bound"):
            regularized = assemble_gram(basis, MemoryKernel(), grid, n_modes=8, regularization=ridge)
        result = solve_min_norm_control(regularized, basis, MemoryKernel(), grid, target)
        assert np.all(np.isfinite(result.coefficients))
        assert np.isfinite(result.residual)


class TestTerminalError:
    def test_exact_match_is_zero(self):
        mu = np.array([1.0, 2.0])
        target = StatePair(xi=np.array([0.5, -0.25]), eta=np.array([1.0, 0.0]), mu=mu)
        terminal = StatePair(xi=mu * target.xi, eta=target.eta, mu=mu)
        assert terminal_error(terminal, target) == 0.0

    def test_zero_target_uses_absolute_gap(self):
        mu = np.array([2.0])
        target = StatePair(xi=np.zeros(1), eta=np.zeros(1), mu=mu)
        terminal = StatePair(xi=np.array([0.3]), eta=np.array([0.4]), mu=mu)
        assert np.isclose(terminal_error(terminal, target), 0.5, atol=1e-14)

    def test_mode_count_checked(self):
        mu = np.array([1.0, 2.0])
        target = StatePair(xi=np.zeros(2), eta=np.zeros(2), mu=mu)
        terminal = StatePair(xi=np.zeros(1), eta=np.zeros(1), mu=mu[:1])
        with pytest.raises(ValueError):
            terminal_error(terminal, target)


class TestDualityCheck:
    def _random_case(self, basis, grid, seed):
        rng = np.random.default_rng(seed)
        omegas = np.arange(1, 4) * np.pi / grid.horizon
        amps = rng.standard_normal((basis.n_quad, 3))
        phases = rng.uniform(0.0, 2.0 * np.pi, (basis.n_quad, 3))
        control = tone_control(basis, grid, amps, omegas, phases)
        v = rng.standard_normal(2 * basis.n_modes)
        v /= np.linalg.norm(v)
        pair = StatePair(xi=v[: basis.n_modes], eta=v[basis.n_modes :], mu=basis.mu)
        return control, pair

    def test_pairing_identity_small_gap(self):
        basis = build_interval_basis(1.0, 6)
        kernel = MemoryKernel(b=0.3, kernel=ExponentialKernel(0.2, 2.0))
        grid = TimeGrid(2.0, 2000)
        control, pair = self._random_case(basis, grid, seed=7)
        report = duality_check(basis, kernel, grid, control, pair)
        assert report.rel_gap <= 1e-4

    def test_gap_shrinks_at_second_order(self):
        basis = build_interval_basis(1.0, 6)
        kernel = MemoryKernel(b=0.3, kernel=ExponentialKernel(0.2, 2.0))
        gaps = []
        for steps in (500, 1000):
            grid = TimeGrid(2.0, steps)
            control, pair = self._random_case(basis, grid, seed=11)
            gaps.append(duality_check(basis, kernel, grid, control, pair).rel_gap)
        assert np.log2(gaps[0] / gaps[1]) >= 1.8


class TestRieszFisherDiagnostic:
    def test_single_mode_value(self):
        basis = build_interval_basis(1.0, 1)
        rows = riesz_fisher_diagnostic(basis, MemoryKernel(), TimeGrid(2.0, 1000), [1])
        assert abs(rows[0].min_eigenvalue - 2.0) <= 1e-6

    def test_minimum_eigenvalue_stays_positive(self):
        basis = build_interval_basis(1.0, 8)
        rows = riesz_fisher_diagnostic(basis, MemoryKernel(), TimeGrid(2.5, 1000), [2, 4, 8])
        assert [r.n_modes for r in rows] == [2, 4, 8]
        assert all(r.min_eigenvalue >= 1e-6 for r in rows)
        assert all(np.isfinite(r.condition_number) for r in rows)

    def test_mode_counts_validated(self):
        basis = build_interval_basis(1.0, 4)
        grid = TimeGrid(2.0, 100)
        with pytest.raises(ValueError):
            riesz_fisher_diagnostic(basis, MemoryKernel(), grid, [4, 2])
        with pytest.raises(ValueError):
            riesz_fisher_diagnostic(basis, MemoryKernel(), grid, [2, 8])
        with pytest.raises(ValueError):
            riesz_fisher_diagnostic(basis, MemoryKernel(), grid, [])


class TestNormGrowthProbe:
    def test_report_structure_and_weighting(self):
        basis = build_interval_basis(1.0, 16)
        grid = TimeGrid(2.5, 300)
        report = norm_growth_probe(basis, MemoryKernel(), grid, [4, 8, 16], trials=3, seed=5)
        assert [r.n_modes for r in report.rows] == [4, 8, 16]
        for row in report.rows:
            assert row.max_ratio > 0.0
            # mu >= pi/2 > 1 on this basis, so the mu^(alpha - 1) weight shrinks
            # every component.
            assert row.max_weighted_ratio < row.max_ratio
        assert report.alpha == 0.55
        assert report.seed == 5

    def test_deterministic_for_fixed_seed(self):
        basis = build_interval_basis(1.0, 8)
        grid = TimeGrid(2.0, 200)
        a = norm_growth_probe(basis, MemoryKernel(), grid, [4, 8], trials=2, seed=9)
        b = norm_growth_probe(basis, MemoryKernel(), grid, [4, 8], trials=2, seed=9)
        assert all(x.max_ratio == y.max_ratio for x, y in zip(a.rows, b.rows))

    def test_validation(self):
        basis = build_interval_basis(1.0, 4)
        grid = TimeGrid(2.0, 100)
        with pytest.raises(ValueError):
            norm_growth_probe(basis, MemoryKernel(), grid, [4, 2])
        with pytest.raises(ValueError):
            norm_growth_probe(basis, MemoryKernel(), grid, [2, 4], trials=0)

    @pytest.mark.parametrize(
        "basis",
        [build_interval_basis(1.0, 12), build_rectangle_basis(1.0, 1.5, 3, 6)],
        ids=["interval", "rectangle"],
    )
    def test_ratios_match_per_trial_forward_runs(self, basis):
        # The terminal map applied to each trial's modal forcing must give the
        # terminal state of a forward run of that trial's control.
        grid = TimeGrid(2.5, 300)
        kernel = MemoryKernel(b=0.2, kernel=PronyKernel((0.03, 0.05, 0.04), (0.5, 2.0, 5.0)))
        counts = [3, basis.n_modes]
        report = norm_growth_probe(basis, kernel, grid, counts, trials=3, seed=4, alpha=0.6)
        rng = np.random.default_rng(4)
        best = np.zeros((len(counts), 2))
        for _ in range(3):
            f = BoundaryControl(rng.standard_normal((basis.n_quad, grid.n_nodes)), grid)
            term = forward_simulate(basis, kernel, f, grid).terminal
            sq = term.xi**2 + term.eta**2
            wsq = basis.mu ** (2.0 * (0.6 - 1.0)) * sq
            ratios = [[np.sqrt(sq[:m].sum()), np.sqrt(wsq[:m].sum())] for m in counts]
            best = np.maximum(best, np.array(ratios) / control_l2_norm(basis, f))
        got = np.array([[r.max_ratio, r.max_weighted_ratio] for r in report.rows])
        assert np.max(np.abs(got - best) / best) <= 1e-12


class TestPerturbationCompactness:
    def test_zero_kernel_perturbation_vanishes(self):
        basis = build_interval_basis(1.0, 4)
        report = perturbation_compactness_probe(basis, MemoryKernel(), TimeGrid(2.0, 100), 4)
        assert np.max(report.singular_values) <= 1e-12

    def test_memory_perturbation_has_fast_singular_decay(self):
        basis = build_interval_basis(1.0, 8)
        kernel = MemoryKernel(b=0.0, kernel=ExponentialKernel(1.0, 1.0))
        report = perturbation_compactness_probe(basis, kernel, TimeGrid(2.5, 200), 8)
        sigma = report.singular_values
        assert sigma[0] > 0.0
        assert sigma[7] / sigma[0] <= 0.2

    def test_mode_count_validated(self):
        basis = build_interval_basis(1.0, 2)
        with pytest.raises(ValueError):
            perturbation_compactness_probe(basis, MemoryKernel(), TimeGrid(2.0, 50), 3)

    def test_sum_of_squares_matches_per_impulse_forward_runs(self):
        # Sum of sigma^2 is the squared Frobenius norm of the probed matrix;
        # rebuild it column by column from forward runs of every unit nodal
        # impulse, with and without memory, scaled to a unit-L2 control.
        basis = build_interval_basis(1.0, 4)
        grid = TimeGrid(2.5, 63)
        memory = MemoryKernel(b=0.2, kernel=PronyKernel((0.03, 0.05, 0.04), (0.5, 2.0, 5.0)))
        report = perturbation_compactness_probe(basis, memory, grid, 4)
        wt = trapezoid_weights(grid.n_nodes, grid.dt)
        expected = 0.0
        for q in range(basis.n_quad):
            for p in range(grid.n_nodes):
                values = np.zeros((basis.n_quad, grid.n_nodes))
                values[q, p] = 1.0
                control = BoundaryControl(values=values, grid=grid)
                a = forward_simulate(basis, memory, control, grid).terminal
                b = forward_simulate(basis, MemoryKernel(), control, grid).terminal
                sq = np.sum((a.xi - b.xi) ** 2) + np.sum((a.eta - b.eta) ** 2)
                expected += sq / (basis.quad_weights[q] * wt[p])
        got = float(np.sum(report.singular_values**2))
        assert abs(got - expected) <= 1e-10 * expected


class TestOneInversePerMode:
    """The memory operator depends on the problem alone: each mode's kernel is
    inverted once, however many forcings and calls it meets."""

    m, probe_modes = 40, 16
    basis = build_interval_basis(1.0, m)
    kernel = MemoryKernel(b=0.2, kernel=ExponentialKernel(0.1, 1.0))
    grid = TimeGrid(2.5, 400)

    def layers(self):
        """(call, modes it reads) for each layer on this problem."""
        basis, kernel, grid, m, probe = self.basis, self.kernel, self.grid, self.m, self.probe_modes
        control = BoundaryControl(values=np.cos(grid.times)[None, :], grid=grid)
        return [
            (lambda: assemble_gram(basis, kernel, grid, n_modes=m), m),
            (lambda: forward_simulate(basis, kernel, control, grid), m),
            (lambda: perturbation_compactness_probe(basis, kernel, grid, probe), probe),
            (lambda: gronwall_bound_check(basis, kernel, grid, trials=3), m),
            (lambda: norm_growth_probe(basis, kernel, grid, [probe, m], trials=3), m),
        ]

    def test_each_layer_inverts_one_row_per_mode(self, inverted_rows):
        for call, modes in self.layers():
            release_operator()
            inverted_rows.clear()
            call()
            assert sum(inverted_rows) == modes

    def test_consecutive_calls_share_one_inversion(self, inverted_rows):
        m = self.m
        first = assemble_gram(self.basis, self.kernel, self.grid, n_modes=m)
        for call, _ in self.layers():
            call()
        assert inverted_rows == [m]
        assert first.psi_table.shape == (2 * m, self.grid.n_nodes)
        again = assemble_gram(self.basis, self.kernel, self.grid, n_modes=m)
        assert np.array_equal(first.matrix, again.matrix)
        assert inverted_rows == [m]


class TestOperatorSlot:
    """basis_operator keeps the last operator it built and reuses it for the
    same kernel object and grid and leading modes; reuse changes no bit."""

    basis = build_interval_basis(1.0, 12)
    grid = TimeGrid(2.5, 400)
    kernel = MemoryKernel(b=0.2, kernel=PronyKernel((0.03, 0.05, 0.04), (0.5, 2.0, 5.0)))

    def calls(self, before_each):
        basis, kernel, grid = self.basis, self.kernel, self.grid
        # Its modes are the leading 7 of basis, so it reads the 12-mode operator.
        small = build_interval_basis(1.0, 7)
        rng = np.random.default_rng(4)
        control = BoundaryControl(values=rng.standard_normal((1, grid.n_nodes)), grid=grid)
        v = StatePair(xi=rng.standard_normal(7), eta=rng.standard_normal(7), mu=basis.mu[:7])
        results = []
        for call in (
            lambda: assemble_gram(basis, kernel, grid, 12),
            lambda: assemble_gram(basis, kernel, grid, 5),
            lambda: forward_simulate(basis, kernel, control, grid),
            lambda: forward_simulate(small, kernel, control, grid),
            lambda: adjoint_trace(basis, kernel, v, grid),
            lambda: duality_check(basis, kernel, grid, control, v),
            lambda: gronwall_bound_check(basis, kernel, grid, trials=3),
            lambda: gronwall_bound_check(small, kernel, grid, trials=3),
            lambda: norm_growth_probe(basis, kernel, grid, [4, 12], trials=3),
            lambda: norm_growth_probe(small, kernel, grid, [4, 7], trials=3),
            lambda: perturbation_compactness_probe(basis, kernel, grid, 5),
        ):
            before_each()
            results.append(call())
        gram, sub, sim, small_sim, trace, dual, gron, small_gron, growth, small_growth, pert = results
        return [
            gram.matrix,
            gram.psi_table,
            sub.matrix,
            sim.trajectory.values,
            sim.trajectory.velocities,
            small_sim.trajectory.values,
            small_sim.trajectory.velocities,
            trace.values,
            np.array([dual.lhs, dual.rhs]),
            gron.per_mode_max,
            small_gron.per_mode_max,
            np.array([(r.max_ratio, r.max_weighted_ratio) for r in growth.rows]),
            np.array([(r.max_ratio, r.max_weighted_ratio) for r in small_growth.rows]),
            pert.singular_values,
        ]

    def test_results_equal_with_the_slot_emptied(self, inverted_rows):
        shared = self.calls(lambda: None)
        assert inverted_rows == [self.basis.n_modes]
        # Emptied before each call, every call builds its own operator of the
        # modes it reads; the leading rows of the 12-mode one are the same bits.
        for got, want in zip(shared, self.calls(release_operator), strict=True):
            assert np.array_equal(got, want)

    def test_another_problem_misses(self, inverted_rows):
        basis, kernel, grid = self.basis, self.kernel, self.grid
        same_values = MemoryKernel(b=kernel.b, kernel=kernel.kernel)
        for other in (
            (basis, same_values, grid),
            (basis, kernel, TimeGrid(2.5, 200)),
            (build_interval_basis(0.9, 12), kernel, grid),
        ):
            assemble_gram(basis, kernel, grid, 12)
            inverted_rows.clear()
            assemble_gram(*other, 12)
            assert inverted_rows == [12]
        # So does a request for more modes than the slot's operator has.
        assemble_gram(basis, kernel, grid, 5)
        inverted_rows.clear()
        assemble_gram(basis, kernel, grid, 12)
        assert inverted_rows == [12]

    def test_fewer_leading_modes_hit(self, inverted_rows):
        basis, kernel, grid = self.basis, self.kernel, self.grid
        full = basis_operator(basis, kernel, grid, 12)
        assemble_gram(basis, kernel, grid, 12)
        assert basis_operator(basis, kernel, grid, 5) is full
        assemble_gram(basis, kernel, grid, 5)
        perturbation_compactness_probe(basis, kernel, grid, 5)
        assert inverted_rows == [12]


class TestRandomSmoothTarget:
    def test_weighted_norm_is_normalized(self):
        basis = build_interval_basis(1.0, 6)
        target = random_smooth_target(basis, np.random.default_rng(2), norm=1.5)
        weighted = np.sqrt(np.sum((basis.mu * target.xi) ** 2 + target.eta**2))
        assert abs(weighted - 1.5) <= 1e-12

    def test_reproducible(self):
        basis = build_interval_basis(1.0, 4)
        a = random_smooth_target(basis, np.random.default_rng(14))
        b = random_smooth_target(basis, np.random.default_rng(14))
        assert np.array_equal(a.xi, b.xi) and np.array_equal(a.eta, b.eta)
