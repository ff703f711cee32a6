"""Configuration-driven command line front end.

Every run reads a JSON config (with a schema_version field), executes one
pipeline, and writes CSV/JSON artifacts, a summary.json and a manifest.
Each config field is read by one _Block.read call, which parses it by its
type rule, fills in its default and records the value read; the manifest's
"config" is that record, so it holds every field the run read, as read,
and no other key, and fed back as a config it reproduces the run.  Numeric
CSV cells use 17 significant digits so identical configs reproduce
byte-identical files.

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
from .quadrature import panel_node_count
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
    if version != SCHEMA_VERSION or isinstance(version, bool):
        raise ConfigError(
            f"unsupported schema_version {version!r}; this build reads version {SCHEMA_VERSION}"
        )
    return config


_REQUIRED = object()


class _Block:
    """One object of a config, read field by field.

    read() parses a field, fills in its default and records the value it read
    in `resolved`; block() opens a sub-object whose `resolved` nests in this
    one's.  The manifest echoes the root block's `resolved`, so it holds each
    field as it was read, defaults included, and no key that was not read.
    """

    def __init__(self, value, where: str):
        if not isinstance(value, dict):
            raise ValueError(f"{where} must be an object")
        self.value, self.where, self.resolved = value, where, {}

    def _get(self, key: str, default):
        if key in self.value:
            return self.value[key]
        if default is _REQUIRED:
            raise ValueError(f"missing required field {key!r} in {self.where}")
        return default

    def read(self, key: str, parse=None, default=_REQUIRED, **options):
        """The field (or its default) as parse(value, key, **options) reads it."""
        value = self._get(key, default)
        if parse is not None:
            value = parse(value, key, **options)
        self.resolved[key] = value.tolist() if isinstance(value, np.ndarray) else value
        return value

    def block(self, key: str, default=_REQUIRED, where: str | None = None) -> "_Block":
        sub = _Block(self._get(key, default), where or f"{key} block")
        self.resolved[key] = sub.resolved
        return sub


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


def _count(value, name: str, least: int | None = None, most: int | None = None) -> int:
    """A whole-number field as an int, within the bounds given; a boolean or a
    fraction is an error, never truncated."""
    whole = isinstance(value, int) or isinstance(value, float) and value.is_integer()
    if isinstance(value, bool) or not whole:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    count = int(value)
    if most is not None and not least <= count <= most:
        raise ValueError(f"{name} must lie in [{least}, {most}], got {count}")
    if least is not None and count < least:
        raise ValueError(f"{name} must be >= {least}, got {count}")
    return count


def _counts(value, name: str) -> list:
    """A list-of-whole-numbers field as a list of ints."""
    if not isinstance(value, list):
        raise ValueError(f"{name} must be a list of integers, got {value!r}")
    return [_count(v, f"{name} entry") for v in value]


def _face_nodes(value, name: str) -> int:
    """A face node count, rounded up to whole panels: the count the basis uses."""
    return panel_node_count(_count(value, name, least=1))


def _path(value, name: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a string, got {value!r}")
    return value


def _check_budget(arrays: dict) -> None:
    """arrays maps the fields an array grows with to its element count; the
    largest must fit in _ARRAY_BUDGET bytes of doubles."""
    name, count = max(arrays.items(), key=lambda item: item[1])
    if 8 * count > _ARRAY_BUDGET:
        raise ValueError(
            f"the {name} array would take {8 * count:.3g} bytes, above the budget of "
            f"{_ARRAY_BUDGET:.3g} bytes; reduce those fields"
        )


def _read_grid(root: _Block) -> TimeGrid:
    block = root.block("grid")
    return TimeGrid(horizon=block.read("horizon", _real), steps=block.read("steps", _count))


def _read_kernel(root: _Block) -> MemoryKernel:
    block = root.block("kernel", {})
    b = block.read("b", _real, 0.0)
    family = block.read("family", default="zero")
    params = block.block("params", {}, "kernel params")
    # Every param the family reads is required, and all but a file path are real:
    # a list for the Prony series, one number otherwise.  kernel_from_spec
    # rejects an unknown family.
    ranks = (1,) if family == "prony" else (0,)
    spec = {
        key: params.read(key, _path) if key == "path" else params.read(key, _reals, ranks=ranks)
        for key in (FAMILY_PARAMS.get(family, ()) if isinstance(family, str) else ())
    }
    return MemoryKernel(b=b, kernel=kernel_from_spec(family, spec))


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


def _read_control(root: _Block, basis: SpectralBasis, grid: TimeGrid, seed: int) -> BoundaryControl:
    block = root.block("control", {})
    kind = block.read("type", default="zero")
    if kind == "zero":
        return zero_control(basis, grid)
    if kind == "constant":
        values = np.full((basis.n_quad, grid.n_nodes), block.read("level", _real))
        return BoundaryControl(values=values, grid=grid)
    if kind == "tones":
        omegas = block.read("omegas", _reals, ranks=(0, 1))
        amplitudes = block.read("amplitudes", _reals, ranks=(0, 1, 2))
        phases = block.read("phases", _reals, np.zeros_like(amplitudes).tolist(), ranks=(0, 1, 2))
        # tone_control evaluates every tone at every node and time at once.
        tones = basis.n_quad * omegas.size * grid.n_nodes
        _check_budget({"2 nodes_per_face x omegas x (steps + 1)": tones})
        # A scalar or a list is one row shared by every quadrature node.
        if amplitudes.ndim < 2:
            amplitudes = np.tile(amplitudes, (basis.n_quad, 1))
        if phases.ndim < 2:
            phases = np.tile(phases, (basis.n_quad, 1))
        return tone_control(basis, grid, amplitudes, omegas, phases)
    if kind == "noise":
        rng = np.random.default_rng(seed)
        return BoundaryControl(values=rng.standard_normal((basis.n_quad, grid.n_nodes)), grid=grid)
    if kind == "file":
        return _load_control_csv(block.read("path", _path), basis, grid)
    raise ValueError(f"unknown control type {kind!r}")


def _read_target(root: _Block, basis: SpectralBasis, seed: int) -> StatePair:
    block = root.block("target")
    if "xi" in block.value or "eta" in block.value:
        xi = block.read("xi", _reals, ranks=(1,))
        eta = block.read("eta", _reals, ranks=(1,))
        if xi.shape != (basis.n_modes,) or eta.shape != (basis.n_modes,):
            raise ValueError(
                f"target xi/eta must be length-{basis.n_modes} lists matching the mode count"
            )
        return StatePair(xi=xi, eta=eta, mu=basis.mu.copy())
    if block.read("type", default=None) == "random-smooth":
        decay = block.read("decay", _real, 2.0)
        norm = block.read("norm", _real, 1.0)
        return random_smooth_target(basis, np.random.default_rng(seed), decay=decay, norm=norm)
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


def _setup(root: _Block, arrays=lambda modes, cells: {}):
    """Basis, kernel, grid and seed of a config.

    The size fields are read first, and one budget check covers the modal
    tables, the control samples, a rectangle's candidate traces and the
    command's own large arrays, arrays(modes, cells) with cells the count of
    control samples, before the basis is built.
    """
    modes = root.read("modes", _count, least=1)
    grid = _read_grid(root)
    block = root.block("geometry")
    lengths = block.read("lengths", _reals, ranks=(1,))
    geometry = Geometry(block.read("kind"), lengths)
    n_quad, candidates = 1, {}
    if geometry.kind == "rectangle":
        per_axis = block.read("modes_per_axis", _count, math.ceil(math.sqrt(modes)), least=1)
        if per_axis * per_axis < modes:
            raise ValueError(
                f"modes_per_axis={per_axis} yields only {per_axis**2} modes, need {modes}"
            )
        nodes = block.read("nodes_per_face", _face_nodes, default_nodes_per_face(per_axis))
        n_quad = 2 * nodes
        # The basis traces every one of the per_axis^2 candidate modes.
        candidates = {"modes_per_axis^2 x 2 nodes_per_face": per_axis**2 * n_quad}
    cells = n_quad * grid.n_nodes
    _check_budget(
        {
            **candidates,
            "modes x (steps + 1)": modes * grid.n_nodes,
            "2 nodes_per_face x (steps + 1)": cells,
            **arrays(modes, cells),
        }
    )
    if geometry.kind == "interval":
        basis = build_interval_basis(geometry.lengths[0], modes)
    else:
        full = build_rectangle_basis(*geometry.lengths, per_axis, nodes)
        basis = replace(
            full, mu=full.mu[:modes], traces=full.traces[:modes], labels=full.labels[:modes]
        )
    return basis, _read_kernel(root), grid, root.read("seed", _count, DEFAULT_SEED, least=0)


def _summary(root: _Block, basis: SpectralBasis, grid: TimeGrid, **values) -> dict:
    return {
        "geometry": root.resolved["geometry"],
        "kernel": root.resolved["kernel"],
        "T": grid.horizon,
        "M": int(basis.n_modes),
        "seed": root.resolved["seed"],
        **values,
    }


def _cmd_simulate(root, out, threads):
    basis, kernel, grid, seed = _setup(root)
    control = _read_control(root, basis, grid, seed)
    sim = forward_simulate(basis, kernel, control, grid)
    names = [f"mode_{i + 1}" for i in range(basis.n_modes)]
    _write_series(out / "trajectory.csv", names, grid, sim.trajectory.values)
    _write_series(out / "velocities.csv", names, grid, sim.trajectory.velocities)
    _write_terminal(out / "terminal.csv", sim.terminal)
    return _summary(
        root,
        basis,
        grid,
        terminal_norm=sobolev_norm(sim.terminal, 0.0),
        control_norm=control_l2_norm(basis, control),
    )


def _gram_arrays(modes: int, cells: int) -> dict:
    return {"(2 modes)^2 Gram": 4 * modes**2}


def _cmd_synthesize(root, out, threads):
    basis, kernel, grid, seed = _setup(root, _gram_arrays)
    target = _read_target(root, basis, seed)
    regularization = root.read("regularization", _real, 0.0)

    operator = ModalOperator(basis.mu, kernel, grid)
    gram = assemble_gram(basis, kernel, grid, basis.n_modes, regularization, threads, operator=operator)
    result = solve_min_norm_control(gram, basis, kernel, grid, target)
    verified = forward_simulate(basis, kernel, result.control, grid, operator=operator)
    # Free the modal tables before the CSV writes, which would otherwise
    # allocate on top of them.
    del operator

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
    return _summary(
        root,
        basis,
        grid,
        min_eig=gram.min_eigenvalue,
        cond=gram.condition_number if gram.min_eigenvalue > 0.0 else None,
        regularization=regularization,
        residual=result.residual,
        terminal_error=terminal_error(verified.terminal, target),
        control_norm=control_l2_norm(basis, result.control),
    )


def _cmd_verify(root, out, threads):
    basis, kernel, grid, seed = _setup(root)
    control = _read_control(root, basis, grid, seed)
    sim = forward_simulate(basis, kernel, control, grid)
    _write_terminal(out / "terminal.csv", sim.terminal)
    summary = _summary(
        root,
        basis,
        grid,
        terminal_norm=sobolev_norm(sim.terminal, 0.0),
        control_norm=control_l2_norm(basis, control),
    )
    if "target" in root.value:
        summary["terminal_error"] = terminal_error(sim.terminal, _read_target(root, basis, seed))
    return summary


def _cmd_gram_spectrum(root, out, threads):
    basis, kernel, grid, seed = _setup(root, _gram_arrays)
    counts = root.read("mode_counts", _counts)
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
    return _summary(
        root,
        basis,
        grid,
        mode_counts=counts,
        min_eig=min_eig,
        cond=max(r.condition_number for r in rows) if min_eig > 0.0 else None,
    )


def _cmd_duality_check(root, out, threads):
    trials = root.read("trials", _count, 5, least=1)
    n_tones = root.read("tones", _count, 3, least=1)
    basis, kernel, grid, seed = _setup(
        root, lambda modes, cells: {"2 nodes_per_face x tones x (steps + 1)": n_tones * cells}
    )

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
    return _summary(root, basis, grid, trials=trials, max_rel_gap=float(table[:, 3].max()))


def _cmd_maccamy(root, out, threads):
    kernel = _read_kernel(root)
    grid = _read_grid(root)
    _check_budget({"steps + 1": grid.n_nodes})
    seed = root.read("seed", _count, DEFAULT_SEED, least=0)
    system = transformed_system(kernel.kernel, grid)
    _write_series(out / "R.csv", ["R"], grid, [system.resolvent])
    _write_series(out / "transformed_kernel.csv", ["K"], grid, [system.kernel_samples])
    return {
        "kernel": root.resolved["kernel"],
        "T": grid.horizon,
        "seed": seed,
        "velocity_coeff": system.velocity_coeff,
        "b": system.b,
        "degraded_accuracy": system.degraded_accuracy,
        "forcing": system.forcing_description,
    }


def _cmd_probes(root, out, threads):
    def perturbation_modes(modes: int) -> int:
        return root.read("perturbation_modes", _count, min(16, modes), least=1, most=modes)

    compactness = "2 perturbation_modes x 2 nodes_per_face x (steps + 1)"
    basis, kernel, grid, seed = _setup(
        root, lambda modes, cells: {compactness: 2 * perturbation_modes(modes) * cells}
    )
    trials = root.read("trials", _count, 8, least=1)
    alpha = root.read("alpha", _real, 0.55)
    m = basis.n_modes
    default_counts = sorted({max(1, m // 4), min(m, max(2, m // 2)), m})
    counts = root.read("mode_counts", _counts, default_counts)

    operator = ModalOperator(basis.mu, kernel, grid)
    gronwall = gronwall_bound_check(basis, kernel, grid, trials=trials, seed=seed, operator=operator)
    trace = trace_estimate_check(basis)
    growth = norm_growth_probe(
        basis, kernel, grid, counts, trials=trials, seed=seed, alpha=alpha, operator=operator
    )
    pert = perturbation_compactness_probe(basis, kernel, grid, perturbation_modes(m), operator=operator)

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
    return _summary(
        root,
        basis,
        grid,
        m_observed=gronwall.m_observed,
        max_trace_ratio=trace.max_ratio,
        weyl_constant=weyl_growth_constant(basis),
        alpha=alpha,
        trials=trials,
        sigma_first=float(sigma[0]) if sigma.size else 0.0,
        sigma_last=float(sigma[-1]) if sigma.size else 0.0,
    )


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
        help="accepted and recorded in the manifest, with no effect "
        "(default: VISCOWAVE_THREADS or 1)",
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
        root = _Block(config, "config")
        root.read("schema_version", _count)
        out = Path(args.out if args.out is not None else root.read("output_dir", _path, "."))
        out.mkdir(parents=True, exist_ok=True)
        _write_json(out / "summary.json", _HANDLERS[args.command](root, out, threads))
        manifest = {
            "command": args.command,
            "threads": threads,
            "viscowave_version": _package_version(),
            "versions": _versions(),
            "config": root.resolved,
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
    """The interpreter's and numpy's versions."""
    import platform

    return {"python": platform.python_version(), "numpy": np.__version__}


if __name__ == "__main__":
    sys.exit(main())
