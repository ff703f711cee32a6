"""Configuration-driven command line front end.

Every run reads a JSON config (with a schema_version field), executes one
pipeline, and writes CSV/JSON artifacts plus a manifest echoing the fully
resolved configuration.  Numeric CSV cells use 17 significant digits so
identical configs reproduce byte-identical files.

Exit codes: 0 success, 2 unreadable config, 3 invalid configuration values,
4 numerical failure (singular marching step, ill-posed Gram system).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .control_synthesis import (
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
from .grids import TimeGrid
from .memory_kernel import FAMILY_PARAMS, MemoryKernel, kernel_from_spec, transformed_system
from .modal_dynamics import (
    DEFAULT_SEED,
    BoundaryControl,
    ModalOperator,
    StatePair,
    control_l2_norm,
    forward_simulate,
    gronwall_bound_check,
    sobolev_norm,
    tone_control,
    zero_control,
)
from .spectral_basis import (
    Geometry,
    SpectralBasis,
    build_interval_basis,
    build_rectangle_basis,
    default_nodes_per_face,
    trace_estimate_check,
    weyl_growth_constant,
)
from .volterra import StepSizeError

SCHEMA_VERSION = 1

COMMANDS = (
    "simulate",
    "synthesize",
    "verify",
    "gram-spectrum",
    "duality-check",
    "maccamy",
    "probes",
)

_FMT = "%.17g"
# Bytes the largest float64 array of a run may take; a config above it exits 3.
_ARRAY_BUDGET = 2**30


class ConfigError(Exception):
    """Config file missing, unreadable, or not a recognizable config document."""


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config root must be a JSON object")
    version = config.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported schema_version {version!r}; this build reads version {SCHEMA_VERSION}"
        )
    return config


def _require(block: dict, key: str, where: str):
    if key not in block:
        raise ValueError(f"missing required field {key!r} in {where}")
    return block[key]


def _as_block(config: dict, key: str) -> dict:
    block = _require(config, key, "config")
    if not isinstance(block, dict):
        raise ValueError(f"config field {key!r} must be an object")
    return block


def _truncated(basis: SpectralBasis, modes: int) -> SpectralBasis:
    if modes == basis.n_modes:
        return basis
    return replace(
        basis,
        mu=basis.mu[:modes],
        traces=basis.traces[:modes],
        labels=basis.labels[:modes],
    )


def _build_basis(config: dict, modes: int, arrays):
    """The basis of the geometry block.  arrays(n_quad) gives the run's large
    arrays for n_quad control nodes; they are checked against the budget
    before the basis is built."""
    block = _as_block(config, "geometry")
    lengths = _reals(_require(block, "lengths", "geometry block"), "lengths", (1,))
    geometry = Geometry(_require(block, "kind", "geometry block"), lengths)
    resolved = {"kind": geometry.kind, "lengths": list(geometry.lengths)}
    if geometry.kind == "interval":
        _check_budget(arrays(1))
        basis = build_interval_basis(geometry.lengths[0], modes)
    else:
        per_axis = block.get("modes_per_axis", math.ceil(math.sqrt(modes)))
        per_axis = _count(per_axis, "modes_per_axis")
        if per_axis * per_axis < modes:
            raise ValueError(
                f"modes_per_axis={per_axis} yields only {per_axis**2} modes, need {modes}"
            )
        nodes = block.get("nodes_per_face")
        nodes = default_nodes_per_face(per_axis) if nodes is None else _count(nodes, "nodes_per_face")
        # The basis traces every one of the per_axis^2 candidate modes.
        candidates = {"modes_per_axis^2 x 2 nodes_per_face": per_axis**2 * 2 * nodes}
        _check_budget({**candidates, **arrays(2 * nodes)})
        basis = build_rectangle_basis(*geometry.lengths, per_axis, nodes)
        basis = _truncated(basis, modes)
        resolved["modes_per_axis"] = per_axis
        resolved["nodes_per_face"] = int(basis.n_quad // 2)
    return basis, resolved


def _check_budget(arrays: dict) -> None:
    """arrays maps the fields an array grows with to its element count; the
    largest must fit in _ARRAY_BUDGET bytes of doubles."""
    name, count = max(arrays.items(), key=lambda item: item[1])
    if 8 * count > _ARRAY_BUDGET:
        raise ValueError(
            f"the {name} array would take {8 * count:.3g} bytes, above the budget of "
            f"{_ARRAY_BUDGET:.3g} bytes; reduce those fields"
        )


def _build_kernel(config: dict):
    block = config.get("kernel", {})
    if not isinstance(block, dict):
        raise ValueError("config field 'kernel' must be an object")
    b = _real(block.get("b", 0.0), "b")
    family = block.get("family", "zero")
    params = block.get("params", {})
    if not isinstance(params, dict):
        raise ValueError("kernel params must be an object")
    # Every param the family reads is required, and all but a file path are real:
    # a list for the Prony series, one number otherwise.  kernel_from_spec
    # rejects an unknown family.
    ranks = (1,) if family == "prony" else (0,)
    checked = {}
    for key in FAMILY_PARAMS.get(family, ()) if isinstance(family, str) else ():
        value = _require(params, key, "kernel params")
        checked[key] = value if key == "path" else _reals(value, key, ranks)
    kernel = MemoryKernel(b=b, kernel=kernel_from_spec(family, checked))
    resolved = {"b": b, "family": family, "params": params}
    return kernel, resolved


def _build_grid(config: dict):
    block = _as_block(config, "grid")
    horizon = _real(_require(block, "horizon", "grid block"), "horizon")
    steps = _count(_require(block, "steps", "grid block"), "steps")
    return TimeGrid(horizon=horizon, steps=steps), {"horizon": horizon, "steps": steps}


def _real(value, name: str) -> float:
    """A real-number field as a float; booleans, strings and non-finite values are errors."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        real = float(value)
    except OverflowError:  # an integer beyond the float range
        real = math.inf
    if not math.isfinite(real):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return real


_RANK_NAMES = ("a number", "a list of numbers", "a list of lists of numbers")


def _reals(value, name: str, ranks) -> np.ndarray:
    """A real field given as a number or a rectangular nested list, as an array.

    _real checks each element; the array's rank must be one of ranks.
    """
    array = _nested_reals(value, name)
    if array.ndim not in ranks:
        expected = " or ".join(_RANK_NAMES[r] for r in ranks)
        raise ValueError(f"{name} must be {expected}, got {value!r}")
    return array


def _nested_reals(value, name: str) -> np.ndarray:
    if not isinstance(value, list):
        return np.asarray(_real(value, name))
    items = [_nested_reals(v, name) for v in value]
    if len({item.shape for item in items}) > 1:
        raise ValueError(f"{name} must be a rectangular list, got ragged {value!r}")
    return np.array(items)


def _count(value, name: str) -> int:
    """A whole-number field as an int; a fraction is an error, never truncated."""
    if not (isinstance(value, int) or isinstance(value, float) and value.is_integer()):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _counts(value, name: str) -> list:
    """A list-of-whole-numbers field as a list of ints."""
    if not isinstance(value, list):
        raise ValueError(f"{name} must be a list of integers, got {value!r}")
    return [_count(v, f"{name} entry") for v in value]


def _resolve_seed(config: dict) -> int:
    seed = _count(config.get("seed", DEFAULT_SEED), "seed")
    if seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
    return seed


def _load_control_csv(path: str, basis: SpectralBasis, grid: TimeGrid) -> BoundaryControl:
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if table.shape != (grid.n_nodes, basis.n_quad + 1):
        raise ValueError(
            f"control file {path!r} has shape {table.shape}, expected "
            f"({grid.n_nodes}, {basis.n_quad + 1}) for this grid and basis"
        )
    if np.max(np.abs(table[:, 0] - grid.times)) > 1e-9 * max(1.0, grid.horizon):
        raise ValueError(f"control file {path!r} was sampled on a different time grid")
    return BoundaryControl(values=table[:, 1:].T, grid=grid)


def _build_control(block, basis: SpectralBasis, grid: TimeGrid, seed: int):
    if block is None:
        block = {"type": "zero"}
    if not isinstance(block, dict):
        raise ValueError("control block must be an object")
    kind = block.get("type", "zero")
    resolved = dict(block)
    resolved["type"] = kind
    if kind == "zero":
        return zero_control(basis, grid), resolved
    if kind == "constant":
        level = _real(_require(block, "level", "control block"), "level")
        values = np.full((basis.n_quad, grid.n_nodes), level)
        return BoundaryControl(values=values, grid=grid), resolved
    if kind == "tones":
        omegas = _reals(_require(block, "omegas", "control block"), "omegas", (0, 1))
        amplitudes = _reals(_require(block, "amplitudes", "control block"), "amplitudes", (0, 1, 2))
        phases = block.get("phases", np.zeros_like(amplitudes).tolist())
        phases = _reals(phases, "phases", (0, 1, 2))
        if amplitudes.ndim == 1:
            amplitudes = np.tile(amplitudes, (basis.n_quad, 1))
        if phases.ndim == 1:
            phases = np.tile(phases, (basis.n_quad, 1))
        control = tone_control(basis, grid, amplitudes, omegas, phases)
        resolved["phases"] = phases.tolist()
        return control, resolved
    if kind == "noise":
        rng = np.random.default_rng(seed)
        values = rng.standard_normal((basis.n_quad, grid.n_nodes))
        return BoundaryControl(values=values, grid=grid), resolved
    if kind == "file":
        path = _require(block, "path", "control block")
        return _load_control_csv(path, basis, grid), resolved
    raise ValueError(f"unknown control type {kind!r}")


def _build_target(config: dict, basis: SpectralBasis, seed: int):
    block = _as_block(config, "target")
    resolved = dict(block)
    if "xi" in block or "eta" in block:
        xi = _reals(_require(block, "xi", "target block"), "xi", (1,))
        eta = _reals(_require(block, "eta", "target block"), "eta", (1,))
        if xi.shape != (basis.n_modes,) or eta.shape != (basis.n_modes,):
            raise ValueError(
                f"target xi/eta must be length-{basis.n_modes} lists matching the mode count"
            )
        return StatePair(xi=xi, eta=eta, mu=basis.mu.copy()), resolved
    if block.get("type") == "random-smooth":
        decay = _real(block.get("decay", 2.0), "decay")
        norm = _real(block.get("norm", 1.0), "norm")
        rng = np.random.default_rng(seed)
        target = random_smooth_target(basis, rng, decay=decay, norm=norm)
        resolved.update({"type": "random-smooth", "decay": decay, "norm": norm})
        return target, resolved
    raise ValueError("target block needs either explicit xi/eta lists or type 'random-smooth'")


def _write_table(path: Path, header: str, columns, fmt) -> None:
    table = np.column_stack(columns)
    np.savetxt(path, table, delimiter=",", header=header, comments="", fmt=fmt)


def _write_series(path: Path, names, grid: TimeGrid, rows) -> None:
    _write_table(path, ",".join(["t", *names]), (grid.times, *rows), _FMT)


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _write_terminal(path: Path, terminal: StatePair) -> None:
    modes = np.arange(1, terminal.n_modes + 1)
    _write_table(
        path,
        "mode,mu,weighted_position,velocity",
        (modes, terminal.mu, terminal.xi, terminal.eta),
        ("%d", _FMT, _FMT, _FMT),
    )


def _common_setup(config: dict, command_arrays=lambda modes, cells: {}):
    """Basis, kernel, grid and seed of a config.  command_arrays(modes, cells)
    names the command's own large arrays, with cells the count of control
    samples; the budget check covers them and the modal tables."""
    modes = _count(_require(config, "modes", "config"), "modes")
    grid, grid_resolved = _build_grid(config)

    def arrays(n_quad: int) -> dict:
        cells = n_quad * grid.n_nodes
        return {
            "modes x (steps + 1)": modes * grid.n_nodes,
            "2 nodes_per_face x (steps + 1)": cells,
            **command_arrays(modes, cells),
        }

    basis, geometry_resolved = _build_basis(config, modes, arrays)
    kernel, kernel_resolved = _build_kernel(config)
    seed = _resolve_seed(config)
    resolved = {
        "schema_version": SCHEMA_VERSION,
        "modes": modes,
        "geometry": geometry_resolved,
        "kernel": kernel_resolved,
        "grid": grid_resolved,
        "seed": seed,
    }
    return basis, kernel, grid, seed, resolved


def _base_summary(resolved: dict, basis, grid) -> dict:
    return {
        "geometry": resolved["geometry"],
        "kernel": resolved["kernel"],
        "T": grid.horizon,
        "M": int(basis.n_modes),
        "seed": resolved["seed"],
    }


def _cmd_simulate(config, out, threads):
    basis, kernel, grid, seed, resolved = _common_setup(config)
    control, control_resolved = _build_control(config.get("control"), basis, grid, seed)
    resolved["control"] = control_resolved
    sim = forward_simulate(basis, kernel, control, grid)
    names = [f"mode_{i + 1}" for i in range(basis.n_modes)]
    _write_series(out / "trajectory.csv", names, grid, sim.trajectory.values)
    _write_series(out / "velocities.csv", names, grid, sim.trajectory.velocities)
    _write_terminal(out / "terminal.csv", sim.terminal)
    summary = _base_summary(resolved, basis, grid)
    summary.update(
        {
            "terminal_norm": sobolev_norm(sim.terminal, 0.0),
            "control_norm": control_l2_norm(basis, control),
        }
    )
    _write_json(out / "summary.json", summary)
    return resolved


def _gram_arrays(modes: int, cells: int) -> dict:
    return {"(2 modes)^2 Gram": 4 * modes**2}


def _cmd_synthesize(config, out, threads):
    basis, kernel, grid, seed, resolved = _common_setup(config, _gram_arrays)
    target, target_resolved = _build_target(config, basis, seed)
    regularization = _real(config.get("regularization", 0.0), "regularization")
    resolved["target"] = target_resolved
    resolved["regularization"] = regularization

    operator = ModalOperator(basis.mu, kernel, grid)
    gram = assemble_gram(basis, kernel, grid, basis.n_modes, regularization, threads, operator=operator)
    result = solve_min_norm_control(gram, basis, kernel, grid, target)
    verified = forward_simulate(basis, kernel, result.control, grid, operator=operator)
    # Free the modal tables before the CSV writes, which would otherwise
    # allocate on top of them.
    del operator
    err = terminal_error(verified.terminal, target)

    nodes = [f"node_{q}" for q in range(basis.n_quad)]
    _write_series(out / "control.csv", nodes, grid, result.control.values)
    indices = np.arange(1, result.coefficients.size + 1)
    _write_table(
        out / "coefficients.csv",
        "index,coefficient",
        (indices, result.coefficients),
        ("%d", _FMT),
    )
    _write_terminal(out / "terminal.csv", verified.terminal)
    _write_table(
        out / "target.csv",
        "mode,mu,position,velocity",
        (np.arange(1, target.n_modes + 1), target.mu, target.xi, target.eta),
        ("%d", _FMT, _FMT, _FMT),
    )
    summary = _base_summary(resolved, basis, grid)
    summary.update(
        {
            "min_eig": gram.min_eigenvalue,
            "cond": gram.condition_number if gram.min_eigenvalue > 0.0 else None,
            "regularization": regularization,
            "residual": result.residual,
            "terminal_error": err,
            "control_norm": control_l2_norm(basis, result.control),
        }
    )
    _write_json(out / "summary.json", summary)
    return resolved


def _cmd_verify(config, out, threads):
    basis, kernel, grid, seed, resolved = _common_setup(config)
    control, control_resolved = _build_control(config.get("control"), basis, grid, seed)
    resolved["control"] = control_resolved
    sim = forward_simulate(basis, kernel, control, grid)
    _write_terminal(out / "terminal.csv", sim.terminal)
    summary = _base_summary(resolved, basis, grid)
    summary.update(
        {
            "terminal_norm": sobolev_norm(sim.terminal, 0.0),
            "control_norm": control_l2_norm(basis, control),
        }
    )
    if "target" in config:
        target, target_resolved = _build_target(config, basis, seed)
        resolved["target"] = target_resolved
        summary["terminal_error"] = terminal_error(sim.terminal, target)
    _write_json(out / "summary.json", summary)
    return resolved


def _cmd_gram_spectrum(config, out, threads):
    basis, kernel, grid, seed, resolved = _common_setup(config, _gram_arrays)
    counts = _counts(_require(config, "mode_counts", "config"), "mode_counts")
    resolved["mode_counts"] = counts
    rows = riesz_fisher_diagnostic(basis, kernel, grid, counts, threads=threads)
    # With no positive minimum eigenvalue the condition number cell is empty,
    # the CSV form of the null in summary.json.
    cond = [_FMT % r.condition_number if r.min_eigenvalue > 0.0 else "" for r in rows]
    _write_table(
        out / "spectrum.csv",
        "modes,min_eigenvalue,condition_number",
        ([str(r.n_modes) for r in rows], [_FMT % r.min_eigenvalue for r in rows], cond),
        "%s",
    )
    min_eig = min(r.min_eigenvalue for r in rows)
    summary = _base_summary(resolved, basis, grid)
    summary.update(
        {
            "mode_counts": counts,
            "min_eig": min_eig,
            "cond": max(r.condition_number for r in rows) if min_eig > 0.0 else None,
        }
    )
    _write_json(out / "summary.json", summary)
    return resolved


def _cmd_duality_check(config, out, threads):
    trials = _count(config.get("trials", 5), "trials")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    n_tones = _count(config.get("tones", 3), "tones")
    if n_tones < 1:
        raise ValueError(f"tones must be >= 1, got {n_tones}")
    basis, kernel, grid, seed, resolved = _common_setup(
        config, lambda modes, cells: {"2 nodes_per_face x tones x (steps + 1)": n_tones * cells}
    )
    resolved.update({"trials": trials, "tones": n_tones})

    rng = np.random.default_rng(seed)
    omegas = np.arange(1, n_tones + 1) * np.pi / grid.horizon
    operator = ModalOperator(basis.mu, kernel, grid)
    rows = []
    for trial in range(1, trials + 1):
        amplitudes = rng.standard_normal((basis.n_quad, n_tones))
        phases = rng.uniform(0.0, 2.0 * np.pi, size=(basis.n_quad, n_tones))
        control = tone_control(basis, grid, amplitudes, omegas, phases)
        data = rng.standard_normal(2 * basis.n_modes)
        data /= np.linalg.norm(data)
        v = StatePair(xi=data[: basis.n_modes], eta=data[basis.n_modes :], mu=basis.mu.copy())
        report = duality_check(basis, kernel, grid, control, v, operator=operator)
        rows.append((trial, report.lhs, report.rhs, report.rel_gap))
    table = np.array(rows)
    _write_table(
        out / "duality.csv",
        "trial,lhs,rhs,rel_gap",
        (table[:, 0], table[:, 1], table[:, 2], table[:, 3]),
        ("%d", _FMT, _FMT, _FMT),
    )
    summary = _base_summary(resolved, basis, grid)
    summary.update({"trials": trials, "max_rel_gap": float(table[:, 3].max())})
    _write_json(out / "summary.json", summary)
    return resolved


def _cmd_maccamy(config, out, threads):
    kernel, kernel_resolved = _build_kernel(config)
    grid, grid_resolved = _build_grid(config)
    _check_budget({"steps + 1": grid.n_nodes})
    seed = _resolve_seed(config)
    resolved = {
        "schema_version": SCHEMA_VERSION,
        "kernel": kernel_resolved,
        "grid": grid_resolved,
        "seed": seed,
    }
    system = transformed_system(kernel.kernel, grid)
    _write_series(out / "R.csv", ["R"], grid, [system.resolvent])
    _write_series(out / "transformed_kernel.csv", ["K"], grid, [system.kernel_samples])
    summary = {
        "kernel": kernel_resolved,
        "T": grid.horizon,
        "seed": seed,
        "velocity_coeff": system.velocity_coeff,
        "b": system.b,
        "degraded_accuracy": system.degraded_accuracy,
        "forcing": system.forcing_description,
    }
    _write_json(out / "summary.json", summary)
    return resolved


def _perturbation_modes(config: dict, modes: int) -> int:
    pert_modes = _count(config.get("perturbation_modes", min(16, modes)), "perturbation_modes")
    if not 1 <= pert_modes <= modes:
        raise ValueError(f"perturbation_modes must lie in [1, {modes}], got {pert_modes}")
    return pert_modes


def _cmd_probes(config, out, threads):
    compactness = "2 perturbation_modes x 2 nodes_per_face x (steps + 1)"
    basis, kernel, grid, seed, resolved = _common_setup(
        config, lambda modes, cells: {compactness: 2 * _perturbation_modes(config, modes) * cells}
    )
    trials = _count(config.get("trials", 8), "trials")
    alpha = _real(config.get("alpha", 0.55), "alpha")
    m = basis.n_modes
    default_counts = sorted({max(1, m // 4), min(m, max(2, m // 2)), m})
    counts = _counts(config.get("mode_counts", default_counts), "mode_counts")
    pert_modes = _perturbation_modes(config, m)
    resolved.update(
        {
            "trials": trials,
            "alpha": alpha,
            "mode_counts": counts,
            "perturbation_modes": pert_modes,
        }
    )

    operator = ModalOperator(basis.mu, kernel, grid)
    gronwall = gronwall_bound_check(basis, kernel, grid, trials=trials, seed=seed, operator=operator)
    trace = trace_estimate_check(basis)
    growth = norm_growth_probe(
        basis, kernel, grid, counts, trials=trials, seed=seed, alpha=alpha, operator=operator
    )
    pert = perturbation_compactness_probe(basis, kernel, grid, pert_modes, operator=operator)

    modes = np.arange(1, basis.n_modes + 1)
    _write_table(
        out / "gronwall.csv",
        "mode,mu,max_abs_psi",
        (modes, basis.mu, gronwall.per_mode_max),
        ("%d", _FMT, _FMT),
    )
    _write_table(
        out / "trace_ratios.csv",
        "mode,mu,ratio",
        (modes, basis.mu, trace.ratios),
        ("%d", _FMT, _FMT),
    )
    _write_table(
        out / "norm_growth.csv",
        "modes,max_ratio,max_weighted_ratio",
        (
            np.array([r.n_modes for r in growth.rows]),
            np.array([r.max_ratio for r in growth.rows]),
            np.array([r.max_weighted_ratio for r in growth.rows]),
        ),
        ("%d", _FMT, _FMT),
    )
    sigma = pert.singular_values
    _write_table(
        out / "perturbation_singular_values.csv",
        "index,sigma",
        (np.arange(1, sigma.size + 1), sigma),
        ("%d", _FMT),
    )
    summary = _base_summary(resolved, basis, grid)
    summary.update(
        {
            "m_observed": gronwall.m_observed,
            "max_trace_ratio": trace.max_ratio,
            "weyl_constant": weyl_growth_constant(basis),
            "alpha": alpha,
            "trials": trials,
            "sigma_first": float(sigma[0]) if sigma.size else 0.0,
            "sigma_last": float(sigma[-1]) if sigma.size else 0.0,
        }
    )
    _write_json(out / "summary.json", summary)
    return resolved


_HANDLERS = {
    "simulate": _cmd_simulate,
    "synthesize": _cmd_synthesize,
    "verify": _cmd_verify,
    "gram-spectrum": _cmd_gram_spectrum,
    "duality-check": _cmd_duality_check,
    "maccamy": _cmd_maccamy,
    "probes": _cmd_probes,
}


def _resolve_threads(cli_value) -> int:
    if cli_value is not None:
        threads = int(cli_value)
    else:
        threads = int(os.environ.get("VISCOWAVE_THREADS", "1"))
    if threads < 1:
        raise ValueError(f"thread count must be >= 1, got {threads}")
    return threads


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="viscowave",
        description="Spectral simulation and boundary-control synthesis for "
        "viscoelastic waves with memory.",
    )
    parser.add_argument("command", choices=COMMANDS, help="pipeline to run")
    parser.add_argument("--config", required=True, help="path to the JSON run configuration")
    parser.add_argument("--out", default=None, help="output directory (default from config)")
    parser.add_argument(
        "--threads",
        type=int,
        default=None,
        help="FFT workers for Gram assembly (default: VISCOWAVE_THREADS or 1)",
    )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _load_config(args.config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        threads = _resolve_threads(args.threads)
        out = Path(args.out if args.out is not None else config.get("output_dir", "."))
        out.mkdir(parents=True, exist_ok=True)
        resolved = _HANDLERS[args.command](config, out, threads)
        manifest = {
            "command": args.command,
            "threads": threads,
            "viscowave_version": _package_version(),
            "versions": _versions(),
            "config": resolved,
        }
        _write_json(out / "manifest.json", manifest)
    except (IllPosedSystemError, StepSizeError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except (ValueError, TypeError, KeyError, OSError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 3
    return 0


def _package_version() -> str:
    from . import __version__

    return __version__


def _versions() -> dict:
    """The interpreter's and the numerical libraries' versions."""
    import platform

    import scipy

    return {"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__}


if __name__ == "__main__":
    sys.exit(main())
