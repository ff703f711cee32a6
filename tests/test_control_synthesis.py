import numpy as np
import pytest

from viscowave import modal_dynamics

from helpers import (
    adjoint_norm_reference,
    forced_march,
    modal_forcing_terminal,
    pairing_sides,
    perturbation_svd_reference,
    reversed_table_combination,
    traced_peak,
    weighted_gemm_gram,
)
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
from viscowave.memory_kernel import (
    ConstantKernel,
    ExponentialKernel,
    MemoryKernel,
    PronyKernel,
    SampledKernel,
)
from viscowave.modal_dynamics import (
    BoundaryControl,
    ModalOperator,
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
from viscowave.spectral_basis import (
    Geometry,
    SpectralBasis,
    build_basis,
    build_interval_basis,
    build_rectangle_basis,
)
from viscowave.volterra import FactoredKernel, march_difference_kernel


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
        # The ridge is the solve's.
        gram = assemble_gram(basis, MemoryKernel(), grid, n_modes=1)
        target = StatePair(xi=np.ones(2), eta=np.zeros(2), mu=basis.mu)
        with pytest.raises(ValueError, match="regularization must be >= 0"):
            solve_min_norm_control(gram, basis, MemoryKernel(), grid, target, regularization=-1.0)


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

    def test_unit_cube_synthesis_is_verified(self):
        # T = 4 lies above the cube's bound 2 sqrt(3); 16 modes on 1728 face
        # nodes, with mu_M dt <= 0.045.
        basis = build_basis(Geometry("box", (1.0, 1.0, 1.0)), 16)
        kernel = MemoryKernel(b=0.2, kernel=ExponentialKernel(0.1, 1.0))
        grid = TimeGrid(4.0, 827)
        gram = assemble_gram(basis, kernel, grid, n_modes=16)
        target = random_smooth_target(basis, np.random.default_rng(3))
        result = solve_min_norm_control(gram, basis, kernel, grid, target)
        sim = forward_simulate(basis, kernel, result.control, grid)
        assert basis.n_quad == 1728
        assert terminal_error(sim.terminal, target) <= 1e-6

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
        psi = basis_operator(basis, kernel, grid, m)[0].free_responses[:, :m].reshape(2 * m, grid.n_nodes)
        taus = tr[:, :, None] * psi[:, None, ::-1]
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

    def test_residual_is_relative_to_the_right_hand_side(self):
        basis = build_interval_basis(1.0, 8)
        kernel = MemoryKernel(b=0.2, kernel=ExponentialKernel(0.1, 1.0))
        grid = TimeGrid(2.5, 800)
        gram = assemble_gram(basis, kernel, grid, n_modes=8)
        target = random_smooth_target(basis, np.random.default_rng(3))
        for scale in (1e-3, 1.0, 1e3):
            scaled = StatePair(xi=scale * target.xi, eta=scale * target.eta, mu=target.mu)
            result = solve_min_norm_control(gram, basis, kernel, grid, scaled)
            gap = np.linalg.norm(gram.matrix @ result.coefficients - result.rhs)
            assert result.residual == gap / np.linalg.norm(result.rhs)
            assert result.residual <= 1e-14
        # A zero right-hand side has no scale: the residual is the absolute gap.
        zero = StatePair(xi=np.zeros(8), eta=np.zeros(8), mu=basis.mu)
        assert solve_min_norm_control(gram, basis, kernel, grid, zero).residual == 0.0

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
        result = solve_min_norm_control(gram, basis, MemoryKernel(), grid, target, ridge)
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


def _sampled_kernel():
    t = np.linspace(0.0, 4.5, 91)
    return SampledKernel(times=t, samples=0.1 * t * np.exp(-t))


def _rel_gap(lhs, rhs):
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30)


_DUALITY_BASES = {
    "interval": lambda: build_interval_basis(1.0, 8),
    "rectangle": lambda: build_rectangle_basis(1.0, 1.5, 8),
}


class TestDualityCheck:
    """The exact gaps of the pairing identity: the forward impulse map against
    the reversed, weighted adjoint responses, entry by entry."""

    strong = MemoryKernel(b=1.0, kernel=ExponentialKernel(2.0, 1.0))

    @pytest.mark.parametrize("geometry", sorted(_DUALITY_BASES))
    @pytest.mark.parametrize("steps", [400, 4000])
    def test_node0_gap_is_half_the_node0_march(self, geometry, steps):
        # Node 0 alone carries the half trapezoid weight; the march answers a
        # unit sample there with r, and the velocity slot is off by (dt/2) r(T).
        basis = _DUALITY_BASES[geometry]()
        grid = TimeGrid(2.5, steps)
        report = duality_check(basis, self.strong, grid)
        op, _ = basis_operator(basis, self.strong, grid, basis.n_modes)
        e0 = np.zeros(grid.n_nodes)
        e0[0] = 1.0
        r = march_difference_kernel(FactoredKernel(op.kernels, grid.dt), e0)[:, -1]
        np.testing.assert_allclose(report.node0_gap, np.abs(r) / 2.0, rtol=1e-9, atol=0.0)
        # The position slot's node-0 entry is at rounding.
        xi_map, _ = op.terminal_maps
        position = xi_map[:, 0] - 0.5 * grid.dt * op.free_responses[1, :, -1]
        assert np.max(np.abs(position)) / grid.dt <= 1e-13

    @pytest.mark.parametrize("geometry", sorted(_DUALITY_BASES))
    @pytest.mark.parametrize(
        "kernel",
        [
            MemoryKernel(b=0.3, kernel=ExponentialKernel(0.2, 2.0)),
            MemoryKernel(b=0.2, kernel=PronyKernel((0.03, 0.05, 0.04), (0.5, 2.0, 5.0))),
            MemoryKernel(b=0.1, kernel=_sampled_kernel()),
            MemoryKernel(b=0.5, kernel=ConstantKernel(0.3)),
        ],
        ids=["exponential", "prony", "sampled", "constant"],
    )
    def test_interior_gap_at_rounding(self, geometry, kernel):
        basis = _DUALITY_BASES[geometry]()
        report = duality_check(basis, kernel, TimeGrid(2.5, 1000))
        assert report.interior_gap.shape == report.node0_gap.shape == (basis.n_modes,)
        assert np.max(report.interior_gap) <= 1e-12
        assert np.all(report.node0_gap > 0.0)

    @pytest.mark.parametrize("geometry", sorted(_DUALITY_BASES))
    def test_without_memory_node0_agrees_too(self, geometry):
        # The march of a unit sample at node 0 is that sample, so r(T) = 0.
        report = duality_check(_DUALITY_BASES[geometry](), MemoryKernel(), TimeGrid(2.5, 1000))
        assert np.max(report.interior_gap) <= 1e-12
        assert np.max(report.node0_gap) <= 1e-12

    @pytest.mark.parametrize("geometry", sorted(_DUALITY_BASES))
    def test_node0_gap_halves_with_the_step(self, geometry):
        basis = _DUALITY_BASES[geometry]()
        coarse, fine = (
            duality_check(basis, self.strong, TimeGrid(2.5, steps)).node0_gap
            for steps in (500, 1000)
        )
        ratio = coarse / fine
        assert np.all((1.9 <= ratio) & (ratio <= 2.1))

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
        assert _rel_gap(*pairing_sides(basis, kernel, grid, control, pair)) <= 1e-4

    def test_gap_shrinks_at_second_order(self):
        basis = build_interval_basis(1.0, 6)
        kernel = MemoryKernel(b=0.3, kernel=ExponentialKernel(0.2, 2.0))
        gaps = []
        for steps in (500, 1000):
            grid = TimeGrid(2.0, steps)
            control, pair = self._random_case(basis, grid, seed=11)
            gaps.append(_rel_gap(*pairing_sides(basis, kernel, grid, control, pair)))
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


class TestLeadingBlocks:
    """riesz_fisher_diagnostic and norm_growth_probe read every count's row off
    the leading block of one Gram on the largest count; each row is the
    spectrum of that count's own Gram, assembled on a fresh operator."""

    @pytest.mark.parametrize(
        "basis, horizon",
        [(build_interval_basis(1.0, 12), 2.5), (build_rectangle_basis(1.0, 1.5, 12, 6), 4.0)],
        ids=["interval", "rectangle"],
    )
    def test_rows_match_each_counts_own_gram(self, basis, horizon):
        grid = TimeGrid(horizon, 400)
        kernel = MemoryKernel(b=0.2, kernel=PronyKernel((0.03, 0.05, 0.04), (0.5, 2.0, 5.0)))
        counts = [1, 3, 7, basis.n_modes]
        spectrum = riesz_fisher_diagnostic(basis, kernel, grid, counts)
        growth = norm_growth_probe(basis, kernel, grid, counts, alpha=0.6).rows
        for m, row, grow in zip(counts, spectrum, growth, strict=True):
            release_operator()
            gram = assemble_gram(basis, kernel, grid, m).matrix
            eigs = np.linalg.eigvalsh(gram)
            weight = np.tile(basis.mu[:m] ** (0.6 - 1.0), 2)
            weighted_max = np.linalg.eigvalsh(weight[:, None] * gram * weight[None, :])[-1]
            got = np.array(
                [row.min_eigenvalue, row.condition_number, grow.max_ratio, grow.max_weighted_ratio]
            )
            want = np.array([eigs[0], eigs[-1] / eigs[0], np.sqrt(eigs[-1]), np.sqrt(weighted_max)])
            assert row.n_modes == grow.n_modes == m
            assert np.max(np.abs(got - want) / want) <= 1e-12, m


class TestNormGrowthProbe:
    def test_report_structure_and_weighting(self):
        basis = build_interval_basis(1.0, 16)
        grid = TimeGrid(2.5, 300)
        report = norm_growth_probe(basis, MemoryKernel(), grid, [4, 8, 16])
        assert [r.n_modes for r in report.rows] == [4, 8, 16]
        for row in report.rows:
            assert row.max_ratio > 0.0
            # mu >= pi/2 > 1 on this basis, so the mu^(alpha - 1) weight shrinks
            # every component.
            assert row.max_weighted_ratio < row.max_ratio
        assert report.alpha == 0.55
        # Each count's map is a restriction of the next: the norms cannot fall.
        ratios = [r.max_ratio for r in report.rows]
        assert ratios == sorted(ratios)

    def test_validation(self):
        basis = build_interval_basis(1.0, 4)
        grid = TimeGrid(2.0, 100)
        with pytest.raises(ValueError):
            norm_growth_probe(basis, MemoryKernel(), grid, [4, 2])
        with pytest.raises(ValueError):
            norm_growth_probe(basis, MemoryKernel(), grid, [2, 8])

    @pytest.mark.parametrize(
        "basis",
        [build_interval_basis(1.0, 12), build_rectangle_basis(1.0, 1.5, 9, 6)],
        ids=["interval", "rectangle"],
    )
    def test_norms_match_dense_svd_and_bound_white_noise(self, basis):
        # The rectangle's horizon lies below its control-time bound: the probe
        # must not warn there.
        grid = TimeGrid(2.5, 300)
        kernel = MemoryKernel(b=0.2, kernel=PronyKernel((0.03, 0.05, 0.04), (0.5, 2.0, 5.0)))
        counts = [3, basis.n_modes]
        report = norm_growth_probe(basis, kernel, grid, counts, alpha=0.6)
        operator = ModalOperator(basis.mu, kernel, grid)
        got = np.array([[r.max_ratio, r.max_weighted_ratio] for r in report.rows])
        want = np.array(
            [
                [
                    adjoint_norm_reference(basis, operator, m),
                    adjoint_norm_reference(basis, operator, m, basis.mu[:m] ** (0.6 - 1.0)),
                ]
                for m in counts
            ]
        )
        assert np.max(np.abs(got - want) / want) <= 1e-12
        # The white-noise controls the probe sampled before: each terminal/control
        # norm ratio, from a forward run, stays at or below the norm.
        rng = np.random.default_rng(4)
        for _ in range(3):
            f = BoundaryControl(rng.standard_normal((basis.n_quad, grid.n_nodes)), grid)
            term = forward_simulate(basis, kernel, f, grid).terminal
            sq = term.xi**2 + term.eta**2
            wsq = basis.mu ** (2.0 * (0.6 - 1.0)) * sq
            ratios = np.array([[np.sqrt(sq[:m].sum()), np.sqrt(wsq[:m].sum())] for m in counts])
            assert np.all(ratios / control_l2_norm(basis, f) <= got * (1.0 + 1e-6))


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
        # impulse, with and without memory, scaled to a unit-L2 control.  Each
        # run's terminal state is the end of the forced march of its modal
        # forcing: forward_simulate and the trajectory read the free
        # responses the probe's own maps are built from.
        basis = build_interval_basis(1.0, 4)
        grid = TimeGrid(2.5, 63)
        memory = MemoryKernel(b=0.2, kernel=PronyKernel((0.03, 0.05, 0.04), (0.5, 2.0, 5.0)))
        report = perturbation_compactness_probe(basis, memory, grid, 4)
        wt = trapezoid_weights(grid.n_nodes, grid.dt)
        impulses = [(q, p) for q in range(basis.n_quad) for p in range(grid.n_nodes)]

        def terminals(kernel):
            op = ModalOperator(basis.mu, kernel, grid)
            runs = []
            for q, p in impulses:
                values = np.zeros((basis.n_quad, grid.n_nodes))
                values[q, p] = 1.0
                w, wp = forced_march(op, (basis.traces * basis.quad_weights) @ values)
                runs.append(np.concatenate([basis.mu * w[:, -1], wp[:, -1]]))
            return runs

        expected = 0.0
        for (q, p), a, b in zip(impulses, terminals(memory), terminals(MemoryKernel())):
            sq = np.sum((a - b) ** 2)
            expected += sq / (basis.quad_weights[q] * wt[p])
        got = float(np.sum(report.singular_values**2))
        assert abs(got - expected) <= 1e-10 * expected

    @pytest.mark.parametrize(
        "basis, kernel, grid, m, zeros",
        [
            (
                build_interval_basis(1.0, 16),
                MemoryKernel(b=0.2, kernel=PronyKernel((0.03, 0.05, 0.04), (0.5, 2.0, 5.0))),
                TimeGrid(2.5, 512),
                16,
                0,
            ),
            (
                build_interval_basis(1.0, 64),
                MemoryKernel(b=1.0, kernel=ExponentialKernel(2.0, 1.0)),
                TimeGrid(2.5, 1000),
                64,
                0,
            ),
            (
                build_rectangle_basis(1.0, 1.0, 16, 24),
                MemoryKernel(b=0.2, kernel=ExponentialKernel(0.1, 1.0)),
                TimeGrid(3.0, 400),
                16,
                0,
            ),
            # 2m = 4 rows but n_quad n = 3 columns: three singular values, and
            # the last is zero, since an impulse at the final node meets no
            # memory and its column of the terminal difference is rounding.
            (
                build_interval_basis(1.0, 2),
                MemoryKernel(b=0.2, kernel=ExponentialKernel(0.1, 1.0)),
                TimeGrid(2.5, 2),
                2,
                1,
            ),
        ],
        ids=["interval-prony", "interval-64-strong", "square-16", "interval-two-steps"],
    )
    def test_matches_the_svd_of_the_probed_matrix(self, basis, kernel, grid, m, zeros):
        got = perturbation_compactness_probe(basis, kernel, grid, m).singular_values
        # One operator row per mode: the square's slot holds one per frequency.
        op = ModalOperator(basis.mu[:m], kernel, grid)
        want = perturbation_svd_reference(basis, (op.terminal_maps, op.memoryless_maps), m, grid.dt)
        assert got.size == want.size == min(2 * m, basis.n_quad * grid.n_nodes)
        # Both carry an absolute error of about eps sigma_1: a value that is
        # zero in exact arithmetic reads as rounding in both, every other
        # value agrees to 1e-12 relative.
        rounding = want < 1e-14 * want[0]
        assert np.count_nonzero(rounding) == zeros
        assert np.all(got[rounding] < 1e-14 * want[0])
        assert np.all(np.abs(got - want)[~rounding] <= 1e-12 * want[~rounding])


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
            (lambda: gronwall_bound_check(basis, kernel, grid), m),
            (lambda: norm_growth_probe(basis, kernel, grid, [probe, m]), m),
        ]

    def test_each_layer_inverts_one_row_per_mode(self, inverted_rows):
        for call, modes in self.layers():
            release_operator()
            inverted_rows.clear()
            call()
            assert sum(inverted_rows) == modes

    def test_consecutive_calls_share_one_inversion(self, inverted_rows):
        basis, kernel, grid, m = self.basis, self.kernel, self.grid, self.m
        target = random_smooth_target(basis, np.random.default_rng(5))
        first = assemble_gram(basis, kernel, grid, n_modes=m)
        control = solve_min_norm_control(first, basis, kernel, grid, target).control
        for call, _ in self.layers():
            call()
        assert inverted_rows == [m]
        again = assemble_gram(basis, kernel, grid, n_modes=m)
        assert np.array_equal(first.matrix, again.matrix)
        retraced = solve_min_norm_control(again, basis, kernel, grid, target).control
        assert np.array_equal(retraced.values, control.values)
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
        target = random_smooth_target(basis, rng)
        results = []
        for call in (
            lambda: assemble_gram(basis, kernel, grid, 12),
            lambda: assemble_gram(basis, kernel, grid, 5),
            # The 5-mode control reads the leading rows of the 12-mode operator.
            lambda: solve_min_norm_control(results[1], basis, kernel, grid, target),
            lambda: forward_simulate(basis, kernel, control, grid),
            lambda: forward_simulate(small, kernel, control, grid),
            lambda: adjoint_trace(basis, kernel, v, grid),
            lambda: duality_check(small, kernel, grid),
            lambda: gronwall_bound_check(basis, kernel, grid),
            lambda: gronwall_bound_check(small, kernel, grid),
            lambda: norm_growth_probe(basis, kernel, grid, [4, 12]),
            lambda: norm_growth_probe(small, kernel, grid, [4, 7]),
            lambda: perturbation_compactness_probe(basis, kernel, grid, 5),
        ):
            before_each()
            results.append(call())
        gram, sub, synth, sim, small_sim, trace, dual, gron, small_gron, growth, small_growth, pert = (
            results
        )
        return [
            gram.matrix,
            sub.matrix,
            synth.control.values,
            synth.coefficients,
            sim.trajectory.values,
            sim.trajectory.velocities,
            small_sim.trajectory.values,
            small_sim.trajectory.velocities,
            trace.values,
            dual.interior_gap,
            dual.node0_gap,
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
        full, _ = basis_operator(basis, kernel, grid, 12)
        assemble_gram(basis, kernel, grid, 12)
        assert basis_operator(basis, kernel, grid, 5)[0] is full
        assemble_gram(basis, kernel, grid, 5)
        perturbation_compactness_probe(basis, kernel, grid, 5)
        assert inverted_rows == [12]


class TestDistinctFrequencies:
    """basis_operator's operator holds one row per distinct frequency, and
    every solver reads it per mode.  On the unit square, where (m, n) and
    (n, m) share mu bit for bit, the results match those of a per-mode
    operator, ModalOperator(basis.mu, ...) planted in the slot, to 1e-13 of
    the largest entry."""

    basis = build_rectangle_basis(1.0, 1.0, 16)
    grid = TimeGrid(4.0, 600)
    kernel = MemoryKernel(b=0.2, kernel=PronyKernel((0.03, 0.05), (0.5, 2.0)))

    def results(self):
        basis, kernel, grid = self.basis, self.kernel, self.grid
        rng = np.random.default_rng(12)
        target = random_smooth_target(basis, rng)
        gram = assemble_gram(basis, kernel, grid, basis.n_modes)
        synth = solve_min_norm_control(gram, basis, kernel, grid, target)
        terminal = forward_simulate(basis, kernel, synth.control, grid).terminal
        control = BoundaryControl(rng.standard_normal((basis.n_quad, grid.n_nodes)), grid)
        trajectory = forward_simulate(basis, kernel, control, grid).trajectory
        v = StatePair(xi=rng.standard_normal(7), eta=rng.standard_normal(7), mu=basis.mu[:7])
        duality = duality_check(basis, kernel, grid)
        return [
            gram.matrix,
            assemble_gram(basis, kernel, grid, 7).matrix,
            synth.control.values,
            adjoint_trace(basis, kernel, v, grid).values,
            terminal.xi,
            terminal.eta,
            trajectory.values,
            trajectory.velocities,
            gronwall_bound_check(basis, kernel, grid).per_mode_max,
            perturbation_compactness_probe(basis, kernel, grid, 12).singular_values,
            duality.interior_gap,
            duality.node0_gap,
        ]

    def test_match_a_per_mode_operator(self, inverted_rows, monkeypatch):
        basis, kernel, grid = self.basis, self.kernel, self.grid
        distinct = len(np.unique(basis.mu))
        assert distinct < basis.n_modes
        got = self.results()
        assert inverted_rows == [distinct]
        op, rows = basis_operator(basis, kernel, grid, basis.n_modes)
        assert np.array_equal(op.mus[rows], basis.mu)
        per_mode = ModalOperator(basis.mu, kernel, grid)
        slot = (per_mode, basis.mu.copy(), np.arange(basis.n_modes))
        monkeypatch.setattr(modal_dynamics, "_slot", slot)
        want = self.results()
        assert modal_dynamics._slot[0] is per_mode
        for g, w in zip(got, want, strict=True):
            assert g.shape == w.shape
            assert np.max(np.abs(g - w)) <= 1e-13 * np.max(np.abs(w))

    def test_unequal_frequencies_keep_their_rows(self, inverted_rows):
        interval = build_interval_basis(1.0, 4)
        near = np.nextafter(1.5, 2.0)
        basis = SpectralBasis(
            geometry=interval.geometry,
            mu=np.array([1.5, near, 3.0, 3.0]),
            traces=np.ones((4, 1)),
            labels=interval.labels,
            quad_nodes=interval.quad_nodes,
            quad_weights=interval.quad_weights,
        )
        op, rows = basis_operator(basis, self.kernel, self.grid, 4)
        assert op.mus.tolist() == [1.5, near, 3.0]
        assert rows.tolist() == [0, 1, 2, 2]
        # The leading modes read the leading rows of the same operator.
        lead, lead_rows = basis_operator(basis, self.kernel, self.grid, 2)
        assert lead is op and lead_rows.tolist() == [0, 1]
        per_mode = gronwall_bound_check(basis, self.kernel, self.grid).per_mode_max
        assert per_mode.shape == (4,) and per_mode[2] == per_mode[3]
        assert inverted_rows == [3]
        # Where every frequency is distinct, mode i reads row i.
        assert basis_operator(interval, self.kernel, self.grid, 4)[1].tolist() == [0, 1, 2, 3]


class TestFactoredProducts:
    """The Gram, the synthesized control, the adjoint trace and the forward
    run's terminal state, each formed through the small trace factor, against
    the full-table routes of tests/helpers.py to 1e-13 of the reference's
    largest entry: on the interval (1 node) and on rectangles whose node
    count lies below and at or above the 2m rows, on all M stored modes and
    on leading modes of the slot's M-mode operator."""

    grid = TimeGrid(4.0, 600)

    @staticmethod
    def close(got, want):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize(
        "geometry, nodes_per_face, family, m",
        [
            ("interval", None, "prony", 12),
            ("interval", None, "sampled", 7),
            ("rectangle", 6, "prony", 16),  # 16 nodes < 32 rows
            ("rectangle", 6, "sampled", 8),  # 16 nodes, 16 rows
            ("rectangle", 6, "prony", 5),  # 16 nodes > 10 rows
            ("rectangle", 20, "prony", 16),  # 48 nodes > 32 rows
            ("rectangle", 20, "sampled", 11),  # 48 nodes > 22 rows
        ],
    )
    def test_match_the_full_table_routes(self, geometry, nodes_per_face, family, m, inverted_rows):
        grid = self.grid
        if geometry == "interval":
            full, small = build_interval_basis(1.0, 12), build_interval_basis(1.0, m)
        else:
            full = build_rectangle_basis(1.0, 1.5, 16, nodes_per_face)
            small = build_rectangle_basis(1.0, 1.5, m, nodes_per_face)
        memory = _sampled_kernel() if family == "sampled" else PronyKernel((0.03, 0.05), (0.5, 2.0))
        kernel = MemoryKernel(b=0.2, kernel=memory)
        assemble_gram(full, kernel, grid, full.n_modes)  # the slot's operator holds M modes

        gram = assemble_gram(full, kernel, grid, m)
        psi = basis_operator(full, kernel, grid, m)[0].free_responses[:, :m].reshape(2 * m, grid.n_nodes)
        assert np.array_equal(gram.matrix, gram.matrix.T)
        self.close(gram.matrix, weighted_gemm_gram(full, psi, grid.dt))

        traces = np.tile(full.traces[:m], (2, 1))
        target = random_smooth_target(full, np.random.default_rng(6))
        result = solve_min_norm_control(gram, full, kernel, grid, target)
        want = reversed_table_combination(traces, result.coefficients, psi)
        self.close(result.control.values, want)
        # The control is the adjoint trace of its coefficients, bit for bit.
        c = result.coefficients
        coefficient_trace = adjoint_trace(full, kernel, StatePair(c[:m], c[m:], full.mu[:m]), grid)
        assert np.array_equal(result.control.values, coefficient_trace.values)

        rng = np.random.default_rng(7)
        v = StatePair(xi=rng.standard_normal(m), eta=rng.standard_normal(m), mu=full.mu[:m])
        want = reversed_table_combination(traces, np.concatenate([v.xi, v.eta]), psi)
        self.close(adjoint_trace(full, kernel, v, grid).values, want)

        maps = basis_operator(full, kernel, grid, full.n_modes)[0].terminal_maps
        for basis in (small, full):
            terminal = forward_simulate(basis, kernel, result.control, grid).terminal
            want = modal_forcing_terminal(basis, maps, result.control)
            for got, want_slot in zip((terminal.xi, terminal.eta), want):
                self.close(got, want_slot)
        assert inverted_rows == [full.n_modes]

    def test_each_layer_peaks_below_one_modal_table(self):
        # On a warm operator none of the three layers of a synthesis forms a
        # table of M x n doubles: the Gram, the control and the terminal state
        # are contracted through the traces.  Nor do the norm-growth probe,
        # whose counts end below the operator's modes, and a Gram on those
        # leading modes: both read the time correlation and no psi rows.
        basis = build_interval_basis(1.0, 64)
        grid = TimeGrid(2.5, 5000)
        kernel = MemoryKernel(b=0.2, kernel=ExponentialKernel(0.1, 1.0))
        target = random_smooth_target(basis, np.random.default_rng(1))
        gram = assemble_gram(basis, kernel, grid, basis.n_modes)
        result = solve_min_norm_control(gram, basis, kernel, grid, target)
        forward_simulate(basis, kernel, result.control, grid)  # the node-0 term
        table = basis.n_modes * grid.n_nodes * np.dtype(float).itemsize
        peaks = [
            traced_peak(lambda: assemble_gram(basis, kernel, grid, basis.n_modes)),
            traced_peak(lambda: solve_min_norm_control(gram, basis, kernel, grid, target)),
            traced_peak(lambda: forward_simulate(basis, kernel, result.control, grid)),
        ]
        counts = [8, 16, 32]
        # The 32-mode time correlation, which the 32-mode Gram reads too.
        norm_growth_probe(basis, kernel, grid, counts)
        peaks.append(traced_peak(lambda: norm_growth_probe(basis, kernel, grid, counts)))
        peaks.append(traced_peak(lambda: assemble_gram(basis, kernel, grid, 32)))
        assert max(peaks) < table, peaks


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
