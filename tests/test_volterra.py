import math

import numpy as np
import pytest

from helpers import stepwise_march
from viscowave import volterra
from viscowave.grids import TimeGrid
from viscowave.memory_kernel import (
    ConstantKernel,
    ExponentialKernel,
    MemoryKernel,
    PronyKernel,
    SampledKernel,
    ZeroKernel,
)
from viscowave.modal_dynamics import memory_oscillator_kernels
from viscowave.volterra import (
    FactoredKernel,
    PicardResult,
    StepSizeError,
    VolterraProblem,
    march_difference_kernel,
    solve_marching,
    solve_picard,
)


class TestMarching:
    def test_zero_kernel_returns_forcing(self):
        grid = TimeGrid(1.0, 50)
        g = np.cos(3.0 * grid.times)
        y = solve_marching(VolterraProblem(g, np.zeros(grid.n_nodes)), grid)
        assert np.array_equal(y, g)

    def test_exponential_growth(self):
        # y = 1 + int_0^t y ds has solution e^t.
        grid = TimeGrid(1.0, 1000)
        problem = VolterraProblem(np.ones(grid.n_nodes), np.ones(grid.n_nodes))
        y = solve_marching(problem, grid)
        assert abs(y[-1] - math.e) <= 1e-5

    def test_oscillator_closed_form(self):
        # y(t) = cos t - int_0^t (t - s) y(s) ds differentiates twice to the
        # resonant oscillator y'' = -cos t - y, y(0) = 1, y'(0) = 0, whose
        # solution is cos t - (t/2) sin t.
        grid = TimeGrid(1.0, 2000)
        t = grid.times
        problem = VolterraProblem(np.cos(t), -t)
        y = solve_marching(problem, grid)
        exact = np.cos(t) - 0.5 * t * np.sin(t)
        assert np.max(np.abs(y - exact)) <= 1e-6

    def test_second_order_convergence(self):
        errors = []
        for steps in (500, 1000):
            grid = TimeGrid(1.0, steps)
            t = grid.times
            y = solve_marching(VolterraProblem(np.cos(t), -t), grid)
            exact = np.cos(t) - 0.5 * t * np.sin(t)
            errors.append(np.max(np.abs(y - exact)))
        order = np.log2(errors[0] / errors[1])
        assert 1.8 <= order <= 2.2

    def test_batched_forcing_matches_scalar_runs(self):
        rng = np.random.default_rng(3)
        grid = TimeGrid(1.0, 120)
        k = np.exp(-grid.times)
        g = rng.standard_normal((3, grid.n_nodes))
        batched = march_difference_kernel(FactoredKernel(k, grid.dt), g)
        for i in range(3):
            single = solve_marching(VolterraProblem(g[i], k), grid)
            assert np.allclose(batched[i], single, atol=1e-14)

    def test_linearity(self):
        rng = np.random.default_rng(4)
        grid = TimeGrid(1.0, 100)
        k = 0.7 * np.cos(grid.times)
        g1 = rng.standard_normal(grid.n_nodes)
        g2 = rng.standard_normal(grid.n_nodes)
        y1 = solve_marching(VolterraProblem(g1, k), grid)
        y2 = solve_marching(VolterraProblem(g2, k), grid)
        y12 = solve_marching(VolterraProblem(g1 + 2.0 * g2, k), grid)
        assert np.max(np.abs(y12 - (y1 + 2.0 * y2))) <= 1e-12


class TestStepwiseReference:
    """The Toeplitz solve against the step-by-step march it replaces."""

    @staticmethod
    def assert_matches(kernel, forcing, dt):
        fast = march_difference_kernel(FactoredKernel(kernel, dt), forcing)
        ref = stepwise_march(kernel, forcing, dt)
        assert fast.shape == ref.shape
        assert np.max(np.abs(fast - ref)) <= 1e-12 * np.max(np.abs(ref))

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
    def test_modal_kernels_every_family(self, family):
        grid = TimeGrid(2.5, 2000)
        mus = (np.arange(1, 41) - 0.5) * np.pi
        # (M, 1, n) kernels against (M, 2, n) forcings; the kernel rows alone
        # span two inverse blocks.
        assert mus.size > volterra._BLOCK_SAMPLES // grid.n_nodes
        kernels = memory_oscillator_kernels(mus, MemoryKernel(0.2, family), grid)
        forcing = np.random.default_rng(5).standard_normal((mus.size, 2, grid.n_nodes))
        self.assert_matches(kernels[:, None, :], forcing, grid.dt)

    def test_kernel_rows_against_one_forcing(self):
        # The step counts put the cyclic product lengths on powers of two and
        # on odd sizes, down to two steps.
        rng = np.random.default_rng(6)
        for steps in (2, 3, 4, 5, 9, 17, 600, 1025):
            grid = TimeGrid(2.0, steps)
            kernels = 0.5 * np.cos(rng.uniform(1.0, 5.0, (7, 1)) * grid.times)
            self.assert_matches(kernels, rng.standard_normal(grid.n_nodes), grid.dt)

    def test_shared_kernel_rows_equal_duplicated_copy(self):
        # Broadcasting one kernel row over r forcings must not change a bit
        # against marching an explicit copy of that row per forcing.
        grid = TimeGrid(2.5, 2000)
        mus = (np.arange(1, 41) - 0.5) * np.pi
        kernel = MemoryKernel(0.2, ExponentialKernel(0.1, 1.0))
        kernels = memory_oscillator_kernels(mus, kernel, grid)[:, None, :]
        forcing = np.random.default_rng(7).standard_normal((mus.size, 3, grid.n_nodes))
        shared = march_difference_kernel(FactoredKernel(kernels, grid.dt), forcing)
        copied = march_difference_kernel(FactoredKernel(np.repeat(kernels, 3, axis=1), grid.dt), forcing)
        assert np.array_equal(shared, copied)

    def test_factored_kernel_marches_equal_fresh_marches(self, inverted_rows):
        # A FactoredKernel inverts its rows at the first march and keeps them;
        # each march through it gives the bits of a march of the samples.
        grid = TimeGrid(2.5, 2000)
        mus = (np.arange(1, 41) - 0.5) * np.pi
        kernel = MemoryKernel(0.2, PronyKernel((0.1, 0.05), (1.0, 3.0)))
        kernels = memory_oscillator_kernels(mus, kernel, grid)
        factored = FactoredKernel(kernels, grid.dt)
        rng = np.random.default_rng(9)
        forcings = [rng.standard_normal((k, mus.size, grid.n_nodes)) for k in (1, 2)]
        got = [march_difference_kernel(factored, f) for f in forcings]
        assert sum(inverted_rows) == mus.size
        for f, y in zip(forcings, got):
            assert np.array_equal(y, march_difference_kernel(FactoredKernel(kernels, grid.dt), f))

    def test_growing_scalar_solution(self):
        # R = N - N*R with N = -3 is -3 e^{3t}, about -1e7 at T = 5.
        grid = TimeGrid(5.0, 2000)
        n_samples = np.full(grid.n_nodes, -3.0)
        self.assert_matches(-n_samples, n_samples, grid.dt)


class TestPicard:
    def test_zero_kernel_converges_immediately(self):
        grid = TimeGrid(1.0, 30)
        g = np.sin(grid.times)
        result = solve_picard(VolterraProblem(g, np.zeros(grid.n_nodes)), grid, n_iter=3)
        assert isinstance(result, PicardResult)
        assert np.array_equal(result.solution, g)
        assert result.contraction_estimate == 0.0
        assert result.iterations == 3

    def test_truncated_exponential_series(self):
        # Each sweep of y -> 1 + int y appends the next Taylor term of e^t, so
        # twelve sweeps should reproduce sum_{j<=12} t^j / j! up to quadrature.
        grid = TimeGrid(1.0, 8000)
        problem = VolterraProblem(np.ones(grid.n_nodes), np.ones(grid.n_nodes))
        result = solve_picard(problem, grid, n_iter=12)
        partial = sum(1.0 / math.factorial(j) for j in range(13))
        assert abs(result.solution[-1] - partial) <= 1e-8

    def test_agrees_with_marching_on_contraction(self):
        grid = TimeGrid(2.0, 400)
        k = 0.5 * np.exp(-grid.times)
        g = np.cos(grid.times)
        problem = VolterraProblem(g, k)
        picard = solve_picard(problem, grid, n_iter=40)
        marched = solve_marching(problem, grid)
        assert picard.contraction_estimate <= 1e-10
        assert np.max(np.abs(picard.solution - marched)) <= 1e-8

    def test_contraction_estimates_decay_geometrically(self):
        grid = TimeGrid(1.0, 300)
        k = 0.4 * np.ones(grid.n_nodes)
        problem = VolterraProblem(np.cos(grid.times), k)
        gaps = [solve_picard(problem, grid, n_iter=n).contraction_estimate for n in (4, 8, 12)]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[1] <= 0.1 * gaps[0]
        assert gaps[2] <= 0.1 * gaps[1]


class TestValidation:
    def test_forcing_length_mismatch(self):
        grid = TimeGrid(1.0, 10)
        with pytest.raises(ValueError):
            solve_marching(VolterraProblem(np.ones(5), np.zeros(grid.n_nodes)), grid)

    def test_difference_kernel_length_mismatch(self):
        grid = TimeGrid(1.0, 10)
        with pytest.raises(ValueError):
            solve_marching(VolterraProblem(np.ones(grid.n_nodes), np.zeros(4)), grid)

    def test_non_finite_forcing(self):
        grid = TimeGrid(1.0, 10)
        g = np.ones(grid.n_nodes)
        g[3] = np.nan
        with pytest.raises(ValueError):
            solve_marching(VolterraProblem(g, np.zeros(grid.n_nodes)), grid)

    def test_picard_requires_positive_iterations(self):
        grid = TimeGrid(1.0, 10)
        with pytest.raises(ValueError):
            solve_picard(VolterraProblem(np.ones(grid.n_nodes), np.zeros(grid.n_nodes)), grid, n_iter=0)

    def test_singular_diagonal_raises(self):
        grid = TimeGrid(1.0, 10)
        k = np.full(grid.n_nodes, 2.0 / grid.dt)
        with pytest.raises(StepSizeError):
            solve_marching(VolterraProblem(np.ones(grid.n_nodes), k), grid)
