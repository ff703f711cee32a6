import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from viscowave.grids import TimeGrid
from viscowave.quadrature import (
    gauss_legendre_panels,
    next_fast_len,
    trapezoid_convolve,
    trapezoid_weights,
)

from helpers import direct_trapezoid_convolution


class TestTimeGrid:
    def test_basic_fields(self):
        grid = TimeGrid(2.0, 4)
        assert grid.dt == 0.5
        assert grid.n_nodes == 5
        assert np.allclose(grid.times, [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_refined_keeps_horizon(self):
        grid = TimeGrid(3.0, 10).refined()
        assert grid.horizon == 3.0
        assert grid.steps == 20

    def test_integral_float_steps_are_stored_as_int(self):
        grid = TimeGrid(1.0, 100.0)
        assert type(grid.steps) is int
        assert grid.times.shape == (101,)
        assert grid == TimeGrid(1.0, 100)

    @pytest.mark.parametrize("horizon,steps", [(0.0, 10), (-1.0, 10), (np.inf, 10), (1.0, 1), (1.0, 2.5)])
    def test_rejects_bad_arguments(self, horizon, steps):
        with pytest.raises(ValueError):
            TimeGrid(horizon, steps)


class TestTrapezoidWeights:
    def test_sums_to_horizon(self):
        w = trapezoid_weights(11, 0.1)
        assert np.isclose(w.sum(), 1.0, rtol=1e-14)
        assert w[0] == w[-1] == 0.05
        assert np.all(w[1:-1] == 0.1)

    def test_rejects_single_node(self):
        with pytest.raises(ValueError):
            trapezoid_weights(1, 0.1)


class TestTrapezoidConvolve:
    def test_constant_kernel_and_signal_gives_ramp(self):
        grid = TimeGrid(1.0, 100)
        ones = np.ones(grid.n_nodes)
        out = trapezoid_convolve(ones, ones, grid.dt)
        assert np.allclose(out, grid.times, atol=1e-14)

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(5)
        grid = TimeGrid(2.0, 150)
        k = rng.standard_normal(grid.n_nodes)
        g = rng.standard_normal(grid.n_nodes)
        fast = trapezoid_convolve(k, g, grid.dt)
        slow = direct_trapezoid_convolution(k, g, grid.dt)
        assert np.max(np.abs(fast - slow)) <= 1e-12

    def test_batched_rows_match_scalar_calls(self):
        # Equal shapes, kernels broadcast over a row axis, and one kernel
        # against batches of rank 1 and 2.
        rng = np.random.default_rng(6)
        grid = TimeGrid(1.0, 80)
        for k_shape, g_shape in [((3,), (3,)), ((1,), (3,)), ((), (3,)), ((7, 1), (7, 3)), ((), (7, 3))]:
            k = rng.standard_normal((*k_shape, grid.n_nodes))
            g = rng.standard_normal((*g_shape, grid.n_nodes))
            batched = trapezoid_convolve(k, g, grid.dt)
            assert batched.shape == g.shape
            kk = np.broadcast_to(k, g.shape)
            for i in np.ndindex(g.shape[:-1]):
                scalar = trapezoid_convolve(kk[i], g[i], grid.dt)
                assert np.allclose(batched[i], scalar, atol=1e-13, rtol=0), (k_shape, g_shape, i)

    @pytest.mark.parametrize(
        "k_shape, g_shape",
        [
            ((0,), (0,)),
            ((2,), (2,)),
            ((3,), (3,)),
            ((5,), (5,)),
            ((513,), (513,)),
            ((2001,), (2001,)),
            ((40, 2001), (40, 2001)),
            ((1, 6001), (3, 6001)),
            ((7, 1, 1000), (7, 3, 1000)),
        ],
    )
    def test_bitwise_equal_to_fftconvolve_formula(self, k_shape, g_shape):
        # Reference: the same product trapezoid through scipy.signal.fftconvolve,
        # which the package does not import; the numpy.fft route matches it bit
        # for bit.
        from scipy.signal import fftconvolve

        rng = np.random.default_rng(7)
        k = rng.standard_normal(k_shape)
        g = rng.standard_normal(g_shape)
        dt, n = 0.01, k.shape[-1]
        ref = dt * (fftconvolve(k, g, axes=-1)[..., :n] - 0.5 * (k * g[..., :1] + k[..., :1] * g))
        out = trapezoid_convolve(k, g, dt)
        assert out.shape == ref.shape
        assert np.array_equal(out, ref)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            trapezoid_convolve(np.ones(5), np.ones(6), 0.1)


class TestNextFastLen:
    def test_matches_scipy_real_fast_length(self):
        # scipy is a test-only oracle; the package computes the length itself.
        from scipy.fft import next_fast_len as scipy_next_fast_len

        for n in range(1, 20001):
            assert next_fast_len(n) == scipy_next_fast_len(n, real=True), n


# Run the CLI with every scipy import failing.
_NO_SCIPY = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, NoScipy())
from viscowave.cli import main
sys.exit(main(sys.argv[1:]))
"""


def _package_env():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


class TestImportFootprint:
    def test_cli_import_loads_no_scipy(self):
        code = (
            "import sys, viscowave.cli; "
            "print(' '.join(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], env=_package_env(), capture_output=True, text=True, check=True
        )
        assert done.stdout.strip() == ""

    def test_synthesize_and_verify_run_without_scipy(self, tmp_path):
        config = {
            "schema_version": 1,
            "modes": 4,
            "geometry": {"kind": "interval", "lengths": [1.0]},
            "kernel": {"b": 0.2, "family": "exponential", "params": {"amplitude": 0.1, "rate": 1.0}},
            "grid": {"horizon": 2.5, "steps": 600},
            "target": {"type": "random-smooth"},
        }

        def run(command, name):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(config))
            out = tmp_path / name
            done = subprocess.run(
                [sys.executable, "-c", _NO_SCIPY, command, "--config", str(path), "--out", str(out)],
                env=_package_env(),
                capture_output=True,
                text=True,
            )
            assert done.returncode == 0, done.stderr
            return json.loads((out / "summary.json").read_text())

        run("synthesize", "synth")
        config["control"] = {"type": "file", "path": str(tmp_path / "synth" / "control.csv")}
        assert run("verify", "verify")["terminal_error"] <= 1e-6


class TestGaussLegendrePanels:
    def test_weights_sum_to_length(self):
        nodes, weights = gauss_legendre_panels(2.5, 20)
        assert nodes.size >= 20
        assert np.isclose(weights.sum(), 2.5, rtol=1e-14)
        assert np.all((nodes > 0.0) & (nodes < 2.5))

    def test_exact_for_high_degree_polynomials(self):
        nodes, weights = gauss_legendre_panels(1.0, 8)
        for degree in range(16):
            quad = np.sum(weights * nodes**degree)
            assert np.isclose(quad, 1.0 / (degree + 1), rtol=1e-13), degree

    def test_smooth_integrand(self):
        nodes, weights = gauss_legendre_panels(np.pi, 24)
        assert np.isclose(np.sum(weights * np.sin(nodes)), 2.0, rtol=1e-13)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            gauss_legendre_panels(0.0, 8)
        with pytest.raises(ValueError):
            gauss_legendre_panels(1.0, 0)
