"""End-to-end acceptance checks for the solver, synthesis, and diagnostics.

Each test exercises one headline capability at fixed parameters and stated
tolerances, prints a single pass/fail line, and enforces a wall-clock budget
where one applies.
"""

import math
import time

import numpy as np
from scipy.integrate import cumulative_simpson

from viscowave.control_synthesis import (
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
    maccamy_resolvent,
)
from viscowave.modal_dynamics import (
    ModalOperator,
    forward_simulate,
    memory_oscillator_kernels,
)
from viscowave.spectral_basis import build_interval_basis, build_rectangle_basis

from helpers import VolterraProblem, free_memory_reference, solve_marching, solve_picard


def _report(index, name, ok, detail):
    print(f"[{index}/10] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_01_volterra_solver_second_order():
    start = time.perf_counter()
    errors = []
    for steps in (250, 500, 1000):
        grid = TimeGrid(1.0, steps)
        y = solve_marching(VolterraProblem(np.ones(grid.n_nodes), np.ones(grid.n_nodes)), grid)
        errors.append(abs(y[-1] - math.e))
    ratios = [errors[0] / errors[1], errors[1] / errors[2]]
    elapsed = time.perf_counter() - start
    ok = all(3.6 <= r <= 4.4 for r in ratios) and elapsed < 1.0
    _report(1, "volterra marching converges at second order", ok,
            f"error ratios {ratios[0]:.3f}, {ratios[1]:.3f}; {elapsed:.2f}s < 1s")


def test_02_memory_oscillator_matches_ode_oracle():
    start = time.perf_counter()
    grid = TimeGrid(4.0, 4000)
    kernel = MemoryKernel(b=0.0, kernel=ExponentialKernel(1.0, 1.0))
    psi = ModalOperator(5.0, kernel, grid).free(0.0, 1.0)
    oracle = free_memory_reference(0.0, 1.0, 5.0, 0.0, 1.0, 1.0, 4.0, 40000)[::10]
    sup = float(np.max(np.abs(psi - oracle)))
    elapsed = time.perf_counter() - start
    ok = sup <= 1e-6 and elapsed < 5.0
    _report(2, "free memory mode matches the augmented-ODE oracle", ok,
            f"sup error {sup:.3e} <= 1e-6; {elapsed:.2f}s < 5s")


def test_03_marching_and_picard_cross_validate():
    grid = TimeGrid(1.0, 1000)
    kernel = MemoryKernel(b=1.0, kernel=ExponentialKernel(1.0, 1.0))
    modal_kernel = memory_oscillator_kernels(np.array([10.0]), kernel, grid)[0]
    forcing = np.cos(10.0 * grid.times)
    problem = VolterraProblem(forcing, modal_kernel)
    gaps = [solve_picard(problem, grid, n_iter=n).contraction_estimate for n in (2, 4, 6, 8)]
    geometric = all(b <= 1e-2 * a for a, b in zip(gaps, gaps[1:]))
    marched = solve_marching(problem, grid)
    fixed_point = solve_picard(problem, grid, n_iter=20).solution
    agreement = float(np.max(np.abs(marched - fixed_point)))
    ok = geometric and agreement <= 1e-8
    _report(3, "marching agrees with the Picard fixed point", ok,
            f"contraction gaps {gaps[0]:.1e} -> {gaps[-1]:.1e}, route gap {agreement:.1e} <= 1e-8")


def test_04_modal_bound_uniform_in_frequency():
    start = time.perf_counter()
    grid = TimeGrid(4.0, 4000)
    kernel = MemoryKernel(b=1.0, kernel=ExponentialKernel(1.0, 1.0))
    mus = (np.arange(1, 33) - 0.5) * np.pi
    peaks = []
    for mu in mus:
        psi = ModalOperator(float(mu), kernel, grid).free(1.0, 0.0)
        peaks.append(float(np.max(np.abs(psi))))
    spread = (max(peaks) - min(peaks)) / min(peaks)
    elapsed = time.perf_counter() - start
    ok = spread <= 1e-2 and elapsed < 10.0
    _report(4, "per-mode amplitude bound is uniform across frequencies", ok,
            f"spread {spread:.3e} <= 1e-2 over mu in [{mus[0]:.2f}, {mus[-1]:.2f}]; "
            f"{elapsed:.2f}s < 10s")


def test_05_duality_identity_holds_and_tightens():
    basis = build_interval_basis(1.0, 6)
    kernel = MemoryKernel(b=0.3, kernel=ExponentialKernel(0.2, 2.0))
    interior = max(duality_check(basis, kernel, TimeGrid(2.0, 2000)).interior_gap)
    # The absolute node-0 gap of the forward map against the reversed adjoint.
    gaps = []
    for steps in (1000, 2000):
        grid = TimeGrid(2.0, steps)
        gaps.append(grid.dt * max(duality_check(basis, kernel, grid).node0_gap))
    order = math.log2(gaps[0] / gaps[1])
    ok = interior <= 1e-12 and order >= 1.8
    _report(5, "pairing identity, forward impulse map against reversed adjoint responses", ok,
            f"max interior gap {interior:.3e} <= 1e-12 dt, node-0 refinement order {order:.2f} >= 1.8")


def test_06_min_norm_synthesis_without_memory():
    start = time.perf_counter()
    basis = build_interval_basis(1.0, 16)
    kernel = MemoryKernel()
    grid = TimeGrid(2.5, 5000)
    target = random_smooth_target(basis, np.random.default_rng(42))
    gram = assemble_gram(basis, kernel, grid, n_modes=16)
    result = solve_min_norm_control(gram, basis, kernel, grid, target)
    error = terminal_error(forward_simulate(basis, kernel, result.control, grid).terminal, target)
    rows = riesz_fisher_diagnostic(basis, kernel, grid, [4, 8, 16])
    min_eig = min(r.min_eigenvalue for r in rows)
    elapsed = time.perf_counter() - start
    ok = error <= 1e-3 and min_eig > 1e-6 and elapsed < 60.0
    _report(6, "memoryless min-norm control steers 16 modes", ok,
            f"terminal error {error:.3e} <= 1e-3, Gram min eig {min_eig:.3e} > 1e-6; "
            f"{elapsed:.2f}s < 60s")


def test_07_min_norm_synthesis_with_memory():
    start = time.perf_counter()
    basis = build_interval_basis(1.0, 16)
    kernel = MemoryKernel(b=0.2, kernel=ExponentialKernel(0.1, 1.0))
    target = random_smooth_target(basis, np.random.default_rng(42))
    errors = []
    for steps in (5000, 10000):
        grid = TimeGrid(2.5, steps)
        gram = assemble_gram(basis, kernel, grid, n_modes=16)
        result = solve_min_norm_control(gram, basis, kernel, grid, target)
        sim = forward_simulate(basis, kernel, result.control, grid)
        errors.append(terminal_error(sim.terminal, target))
    elapsed = time.perf_counter() - start
    ok = max(errors) <= 1e-2 and errors[1] < errors[0] and elapsed < 120.0
    _report(7, "memory min-norm control verified by forward simulation", ok,
            f"terminal errors {errors[0]:.3e} -> {errors[1]:.3e} <= 1e-2; {elapsed:.2f}s < 120s")


def test_08_memory_perturbation_is_compact():
    basis = build_interval_basis(1.0, 16)
    kernel = MemoryKernel(b=0.0, kernel=ExponentialKernel(1.0, 1.0))
    sigma = perturbation_compactness_probe(basis, kernel, TimeGrid(2.5, 256), 16).singular_values
    refined = perturbation_compactness_probe(basis, kernel, TimeGrid(2.5, 512), 16).singular_values
    decay = sigma[7] / sigma[0]
    drift = abs(sigma[0] - refined[0]) / refined[0]
    ok = decay <= 0.2 and drift <= 1e-2
    _report(8, "memory perturbation has rapidly decaying singular values", ok,
            f"sigma_8/sigma_1 {decay:.3e} <= 0.2, leading value drift {drift:.3e} <= 1e-2")


def test_09_rough_controls_show_norm_growth():
    # The exact norm of the M-mode control-to-state map, which rough controls
    # attain: bounded on the interval, growing with M on the square.
    interval = build_interval_basis(1.0, 32)
    coarse = norm_growth_probe(interval, MemoryKernel(), TimeGrid(2.5, 500), [8, 16, 32])
    fine = norm_growth_probe(interval, MemoryKernel(), TimeGrid(2.5, 2000), [32])
    raw = [r.max_ratio for r in coarse.rows]
    spread = max(raw) / min(raw) - 1.0
    top, refined = coarse.rows[-1], fine.rows[0]
    drift = max(
        abs(refined.max_ratio / top.max_ratio - 1.0),
        abs(refined.max_weighted_ratio / top.max_weighted_ratio - 1.0),
    )
    square = build_rectangle_basis(1.0, 1.0, 64)
    growth = []
    for kernel in (MemoryKernel(), MemoryKernel(b=0.2, kernel=ExponentialKernel(0.1, 1.0))):
        low, high = norm_growth_probe(square, kernel, TimeGrid(4.0, 1000), [16, 64]).rows
        growth.append(high.max_ratio / low.max_ratio - 1.0)
    ok = spread <= 1e-2 and drift < 1e-3 and min(growth) > 0.05
    _report(9, "traction control is Riesz-Fisher but not Riesz: the control-to-state norm "
            "is flat on the interval and grows on the square", ok,
            f"interval M=8..32 {raw[0]:.3f}..{raw[-1]:.3f}, spread {spread:.2e} <= 1e-2, "
            f"n=500->2000 drift {drift:.2e} < 1e-3; square M=16->64 growth "
            f"{growth[0]:.3f} (no memory), {growth[1]:.3f} (memory) > 0.05")


def test_10_maccamy_resolvent_identity():
    grid = TimeGrid(1.0, 1000)
    r = maccamy_resolvent(ConstantKernel(1.0), grid)
    sup = float(np.max(np.abs(r - np.exp(-grid.times))))

    fine = TimeGrid(1.0, 4000)
    n = ConstantKernel(1.0).values(fine.times)
    rf = maccamy_resolvent(ConstantKernel(1.0), fine)
    conv = np.empty(fine.n_nodes)
    conv[0] = 0.0
    for j in range(1, fine.n_nodes):
        conv[j] = cumulative_simpson(n[j::-1] * rf[: j + 1], dx=fine.dt)[-1]
    residual = float(np.max(np.abs(rf + conv - n)))
    ok = sup <= 1e-6 and residual <= 1e-8
    _report(10, "MacCamy resolvent matches exp and satisfies its identity", ok,
            f"sup |R - exp| {sup:.3e} <= 1e-6, independent-quadrature residual "
            f"{residual:.3e} <= 1e-8")
