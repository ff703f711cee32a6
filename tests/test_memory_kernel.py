import warnings

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson

from viscowave.grids import TimeGrid
from viscowave.cli import _Block, _read_kernel
from viscowave.memory_kernel import (
    ConstantKernel,
    ExponentialKernel,
    MemoryKernel,
    PronyKernel,
    SampledKernel,
    ZeroKernel,
    maccamy_resolvent,
    transformed_system,
)
from viscowave.quadrature import trapezoid_convolve

from helpers import rk4


class TestKernelFamilies:
    def test_zero_and_constant_values(self):
        t = np.linspace(0.0, 2.0, 9)
        assert np.array_equal(ZeroKernel().values(t), np.zeros(9))
        assert np.array_equal(ConstantKernel(1.5).values(t), np.full(9, 1.5))

    def test_exponential_values(self):
        t = np.linspace(0.0, 1.0, 5)
        k = ExponentialKernel(amplitude=2.0, rate=3.0)
        assert np.allclose(k.values(t), 2.0 * np.exp(-3.0 * t), atol=1e-15)

    @pytest.mark.parametrize("amplitude, rate", [(2.0, 3.0), (-0.7, 400.0), (0.5, 0.0)])
    def test_exponential_is_its_one_term_series(self, amplitude, rate):
        t = np.linspace(0.0, 1.0, 33)
        values = ExponentialKernel(amplitude, rate).values(t)
        assert np.array_equal(values, amplitude * np.exp(-rate * t))

    @pytest.mark.parametrize("level", [1.5, -2.25, 0.0, -0.0])
    def test_constant_is_its_level(self, level):
        t = np.linspace(0.0, 1.0, 33)
        values = ConstantKernel(level).values(t)
        assert np.array_equal(values, np.full_like(t, level))
        # array_equal treats -0.0 as 0.0; the sign of a zero level is kept too.
        assert np.array_equal(np.signbit(values), np.signbit(np.full_like(t, level)))

    def test_zero_is_zeros(self):
        values = ZeroKernel().values(np.linspace(0.0, 1.0, 33))
        assert np.array_equal(values, np.zeros(33)) and not np.signbit(values).any()

    def test_prony_values(self):
        t = np.linspace(0.0, 1.0, 7)
        k = PronyKernel(amplitudes=(0.5, 0.25), rates=(1.0, 2.0))
        assert np.allclose(k.values(t), 0.5 * np.exp(-t) + 0.25 * np.exp(-2.0 * t), atol=1e-15)

    def test_sampled_kernel_interpolates(self):
        k = SampledKernel(times=np.array([0.0, 1.0, 2.0]), samples=np.array([1.0, 0.0, 1.0]))
        assert np.allclose(k.values(np.array([0.5, 1.5])), [0.5, 0.5], atol=1e-15)

    def test_sampled_kernel_from_csv(self, tmp_path):
        path = tmp_path / "kernel.csv"
        path.write_text("0.0,1.0\n0.5,0.75\n1.0,0.5\n")
        k = SampledKernel.from_csv(path)
        assert np.isclose(k.values(np.array([0.25]))[0], 0.875, atol=1e-15)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: ConstantKernel(np.inf),
            lambda: ExponentialKernel(amplitude=1.0, rate=-1.0),
            lambda: ExponentialKernel(amplitude=np.nan, rate=1.0),
            lambda: PronyKernel(amplitudes=(1.0,), rates=(1.0, 2.0)),
            lambda: PronyKernel(amplitudes=(), rates=()),
            lambda: SampledKernel(times=np.array([0.5, 1.0]), samples=np.array([1.0, 2.0])),
            lambda: SampledKernel(times=np.array([0.0, 0.0]), samples=np.array([1.0, 2.0])),
            lambda: MemoryKernel(b=np.inf),
            lambda: MemoryKernel(b=0.0, kernel="not a kernel"),
        ],
    )
    def test_rejects_bad_parameters(self, build):
        with pytest.raises(ValueError):
            build()

    def test_sampled_kernel_rejects_out_of_range_evaluation(self):
        k = SampledKernel(times=np.array([0.0, 1.0]), samples=np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            k.values(np.array([1.5]))

    def test_memory_kernel_defaults(self):
        mk = MemoryKernel()
        assert mk.b == 0.0
        assert mk.kernel == ZeroKernel()


def kernel_from_spec(family: str, params: dict):
    """The kernel a config's kernel block of this family and params builds."""
    return _read_kernel(_Block({"kernel": {"family": family, "params": params}}, "config")).kernel


class TestKernelFromSpec:
    def test_family_dispatch(self):
        assert kernel_from_spec("zero", {}) == ZeroKernel()
        assert kernel_from_spec("constant", {"level": 2.0}) == ConstantKernel(2.0)
        exp = kernel_from_spec("exponential", {"amplitude": 0.1, "rate": 1.0})
        assert exp == ExponentialKernel(0.1, 1.0) == PronyKernel((0.1,), (1.0,))
        prony = kernel_from_spec("prony", {"amplitudes": [1.0], "rates": [0.5]})
        assert prony == PronyKernel((1.0,), (0.5,))

    def test_file_family(self, tmp_path):
        path = tmp_path / "k.csv"
        path.write_text("0.0,1.0\n1.0,0.0\n")
        k = kernel_from_spec("file", {"path": str(path)})
        assert isinstance(k, SampledKernel)
        assert np.array_equal(k.values(np.array([0.0, 0.25, 1.0])), [1.0, 0.75, 0.0])

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            kernel_from_spec("gaussian", {})


class TestConvolve:
    def test_zero_kernel_gives_zero(self):
        grid = TimeGrid(1.0, 60)
        out = trapezoid_convolve(ZeroKernel().values(grid.times), np.sin(grid.times), grid.dt)
        assert np.array_equal(out, np.zeros(grid.n_nodes))

    def test_unit_kernel_unit_signal_gives_time(self):
        grid = TimeGrid(2.0, 100)
        k = ConstantKernel(1.0).values(grid.times)
        out = trapezoid_convolve(k, np.ones(grid.n_nodes), grid.dt)
        assert np.allclose(out, grid.times, atol=1e-13)

    def test_exponential_kernel_against_closed_form(self):
        # (e^{-t} * 1)(t) = 1 - e^{-t}.
        grid = TimeGrid(2.0, 1000)
        k = ExponentialKernel(1.0, 1.0).values(grid.times)
        out = trapezoid_convolve(k, np.ones(grid.n_nodes), grid.dt)
        idx = grid.steps // 2
        assert grid.times[idx] == 1.0
        assert abs(out[idx] - (1.0 - np.exp(-1.0))) <= 1e-6
        assert np.max(np.abs(out - (1.0 - np.exp(-grid.times)))) <= 1e-6

    def test_kernel_broadcasts_over_signal_rows(self):
        rng = np.random.default_rng(9)
        grid = TimeGrid(1.0, 120)
        k = ExponentialKernel(0.5, 2.0).values(grid.times)
        g = rng.standard_normal((3, grid.n_nodes))
        out = trapezoid_convolve(k, g, grid.dt)
        assert out.shape == g.shape
        for row, gi in zip(out, g):
            assert np.allclose(row, trapezoid_convolve(k, gi, grid.dt), atol=1e-13, rtol=0)

    def test_commutes(self):
        grid = TimeGrid(1.5, 300)
        n = np.exp(-grid.times) * (1.0 + grid.times)
        r = np.cos(2.0 * grid.times)
        gap = trapezoid_convolve(n, r, grid.dt) - trapezoid_convolve(r, n, grid.dt)
        assert np.max(np.abs(gap)) <= 1e-12

    def test_bilinear(self):
        rng = np.random.default_rng(8)
        grid = TimeGrid(1.0, 200)
        k1 = rng.standard_normal(grid.n_nodes)
        k2 = rng.standard_normal(grid.n_nodes)
        g1 = rng.standard_normal(grid.n_nodes)
        g2 = rng.standard_normal(grid.n_nodes)
        left = trapezoid_convolve(k1, 2.0 * g1 - 3.0 * g2, grid.dt)
        right = 2.0 * trapezoid_convolve(k1, g1, grid.dt) - 3.0 * trapezoid_convolve(k1, g2, grid.dt)
        assert np.max(np.abs(left - right)) <= 1e-12
        left = trapezoid_convolve(k1 + 0.5 * k2, g1, grid.dt)
        right = trapezoid_convolve(k1, g1, grid.dt) + 0.5 * trapezoid_convolve(k2, g1, grid.dt)
        assert np.max(np.abs(left - right)) <= 1e-12

    def test_signal_length_checked(self):
        grid = TimeGrid(1.0, 10)
        with pytest.raises(ValueError):
            trapezoid_convolve(ZeroKernel().values(grid.times), np.ones(4), grid.dt)


class TestMacCamyResolvent:
    def test_zero_memory_has_zero_resolvent(self):
        grid = TimeGrid(1.0, 50)
        assert np.array_equal(maccamy_resolvent(ZeroKernel(), grid), np.zeros(grid.n_nodes))

    def test_unit_memory_against_ode_oracle(self):
        # R + 1*R = 1 differentiates to R' = -R with R(0) = 1; integrate that
        # with RK4 and compare the marched resolvent against it nodewise.
        grid = TimeGrid(1.0, 1000)
        oracle = rk4(lambda t, y: -y, [1.0], 1.0, grid.steps)[:, 0]
        r = maccamy_resolvent(ConstantKernel(1.0), grid)
        assert np.max(np.abs(r - oracle)) <= 1e-6
        assert abs(r[-1] - 0.3678794) <= 1e-6

    def test_initial_value_matches_kernel(self):
        grid = TimeGrid(1.0, 40)
        r = maccamy_resolvent(ConstantKernel(2.0), grid)
        assert r[0] == 2.0

    def test_identity_residual_shrinks_at_second_order(self):
        # Check R + N*R - N = 0 with an independent quadrature (Simpson), so
        # the residual measures the marching error rather than echoing the
        # trapezoid rule the solver itself uses.
        residuals = []
        for steps in (500, 1000):
            grid = TimeGrid(1.0, steps)
            n = ConstantKernel(1.0).values(grid.times)
            r = maccamy_resolvent(ConstantKernel(1.0), grid)
            conv = np.empty(grid.n_nodes)
            conv[0] = 0.0
            for j in range(1, grid.n_nodes):
                conv[j] = cumulative_simpson(n[j::-1] * r[: j + 1], dx=grid.dt)[-1]
            residuals.append(np.max(np.abs(r + conv - n)))
        order = np.log2(residuals[0] / residuals[1])
        assert order >= 1.9


class TestTransformedSystem:
    def test_zero_memory_is_trivial(self):
        grid = TimeGrid(1.0, 50)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            system = transformed_system(ZeroKernel(), grid)
        assert system.velocity_coeff == 0.0
        assert system.b == 0.0
        assert np.array_equal(system.kernel_samples, np.zeros(grid.n_nodes))
        assert system.degraded_accuracy is False

    def test_unit_memory_coefficients(self):
        # N = 1 gives R = e^{-t}, so the reduction leaves a unit velocity term,
        # b = R'(0) = -1, and K = R'' = e^{-t}.
        grid = TimeGrid(1.0, 1000)
        with pytest.warns(UserWarning, match="velocity term"):
            system = transformed_system(ConstantKernel(1.0), grid)
        assert abs(system.velocity_coeff - 1.0) <= 1e-8
        assert abs(system.b + 1.0) <= 1e-5
        assert np.max(np.abs(system.kernel_samples - np.exp(-grid.times))) <= 1e-4
        assert system.degraded_accuracy is False
        assert "initial-data" in system.forcing_description

    def test_smooth_memory_with_vanishing_head(self):
        # N = t e^{-t} has resolvent R = e^{-t} sin t: no velocity term,
        # b = R'(0) = 1, K = R'' = -2 e^{-t} cos t.
        grid = TimeGrid(1.0, 2000)
        kernel = SampledKernel(times=grid.times, samples=grid.times * np.exp(-grid.times))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            system = transformed_system(kernel, grid)
        exact_r = np.exp(-grid.times) * np.sin(grid.times)
        assert np.max(np.abs(system.resolvent - exact_r)) <= 1e-6
        assert abs(system.velocity_coeff) <= 1e-12
        assert abs(system.b - 1.0) <= 1e-5
        exact_k = -2.0 * np.exp(-grid.times) * np.cos(grid.times)
        assert np.max(np.abs(system.kernel_samples - exact_k)) <= 1e-4
        assert system.degraded_accuracy is True
