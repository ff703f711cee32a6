"""Configuration-driven command line front end.

Every run reads a JSON config (with a schema_version field), executes one
pipeline, and writes CSV tables, a summary.json and a manifest.json.
Each config field is read by one _Block.read call, which parses it by its
type rule, fills in its default and records the value read; the manifest's
"config" is that record, so it holds every field the run read, as read,
and no other key, and fed back as a config it reproduces the run.

A command's handler only computes: it returns its tables, {file name:
{column name: column}}, and its own summary values.  main writes every
file, each table through _write_csv, once the values are finite and both
JSON documents are serialized, so a failed run leaves no file behind (a
failed write removes the files written before it), and identical configs
give byte-identical files.

Exit codes: 0 success, 2 unreadable config, 3 invalid configuration values
or an output directory or artifact that cannot be written, 4 numerical
failure (singular marching step, overflowing march, ill-posed Gram system,
non-finite summary value).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from functools import partial
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
from .memory_kernel import ConstantKernel, ExponentialKernel, MemoryKernel, PronyKernel
from .memory_kernel import SampledKernel, ZeroKernel, transformed_system
from .modal_dynamics import (
    DEFAULT_SEED,
    BoundaryControl,
    StatePair,
    control_l2_norm,
    forward_simulate,
    gronwall_bound_check,
    release_operator,
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
from .volterra import MarchOverflowError, StepSizeError

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


_real_list = partial(_reals, ranks=(1,))

# Each kernel family: its constructor, and the params it takes in argument
# order with the rule that parses each.  Every param is required.
_KERNEL_FAMILIES = {
    "zero": (ZeroKernel, ()),
    "constant": (ConstantKernel, (("level", _real),)),
    "exponential": (ExponentialKernel, (("amplitude", _real), ("rate", _real))),
    "prony": (PronyKernel, (("amplitudes", _real_list), ("rates", _real_list))),
    "file": (SampledKernel.from_csv, (("path", _path),)),
}


def _read_kernel(root: _Block) -> MemoryKernel:
    block = root.block("kernel", {})
    b = block.read("b", _real, 0.0)
    family = block.read("family", default="zero")
    params = block.block("params", {}, "kernel params")
    if not isinstance(family, str) or family not in _KERNEL_FAMILIES:
        raise ValueError(f"unknown kernel family {family!r}; expected one of {tuple(_KERNEL_FAMILIES)}")
    build, fields = _KERNEL_FAMILIES[family]
    return MemoryKernel(b=b, kernel=build(*(params.read(key, parse) for key, parse in fields)))


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


def _series(grid: TimeGrid, names, rows) -> dict:
    """A time-series table: the grid times, then one named column per row."""
    return {"t": grid.times, **dict(zip(names, rows))}


def _modal(state: StatePair, position: str) -> dict:
    """A table of a modal state: mode number, frequency, position and velocity."""
    modes = np.arange(1, state.n_modes + 1)
    return {"mode": modes, "mu": state.mu, position: state.xi, "velocity": state.eta}


def _cmd_simulate(root):
    basis, kernel, grid, seed = _setup(root)
    control = _read_control(root, basis, grid, seed)
    control_norm = control_l2_norm(basis, control)  # its temporaries go before the operator
    sim = forward_simulate(basis, kernel, control, grid)
    names = [f"mode_{i + 1}" for i in range(basis.n_modes)]
    tables = {
        "trajectory.csv": _series(grid, names, sim.trajectory.values),
        "velocities.csv": _series(grid, names, sim.trajectory.velocities),
        "terminal.csv": _modal(sim.terminal, "weighted_position"),
    }
    return tables, dict(terminal_norm=sobolev_norm(sim.terminal, 0.0), control_norm=control_norm)


def _gram_arrays(modes: int, cells: int) -> dict:
    return {"(2 modes)^2 Gram": 4 * modes**2}


def _cmd_synthesize(root):
    basis, kernel, grid, seed = _setup(root, _gram_arrays)
    target = _read_target(root, basis, seed)
    regularization = root.read("regularization", _real, 0.0)

    gram = assemble_gram(basis, kernel, grid, basis.n_modes, regularization)
    result = solve_min_norm_control(gram, basis, kernel, grid, target)
    verified = forward_simulate(basis, kernel, result.control, grid)
    release_operator()  # the modal tables go before the control norm's temporaries

    nodes = [f"node_{q}" for q in range(basis.n_quad)]
    indices = np.arange(1, result.coefficients.size + 1)
    tables = {
        "control.csv": _series(grid, nodes, result.control.values),
        "coefficients.csv": dict(index=indices, coefficient=result.coefficients),
        "terminal.csv": _modal(verified.terminal, "weighted_position"),
        "target.csv": _modal(target, "position"),
    }
    return tables, dict(
        min_eig=gram.min_eigenvalue,
        cond=gram.condition_number if gram.min_eigenvalue > 0.0 else None,
        regularization=regularization,
        residual=result.residual,
        terminal_error=terminal_error(verified.terminal, target),
        control_norm=control_l2_norm(basis, result.control),
    )


def _cmd_verify(root):
    basis, kernel, grid, seed = _setup(root)
    control = _read_control(root, basis, grid, seed)
    target = _read_target(root, basis, seed) if "target" in root.value else None
    control_norm = control_l2_norm(basis, control)  # its temporaries go before the operator
    sim = forward_simulate(basis, kernel, control, grid)
    values = dict(terminal_norm=sobolev_norm(sim.terminal, 0.0), control_norm=control_norm)
    if target is not None:
        values["terminal_error"] = terminal_error(sim.terminal, target)
    return {"terminal.csv": _modal(sim.terminal, "weighted_position")}, values


def _cmd_gram_spectrum(root):
    basis, kernel, grid, seed = _setup(root, _gram_arrays)
    counts = root.read("mode_counts", _counts)
    rows = riesz_fisher_diagnostic(basis, kernel, grid, counts)
    min_eig = min(r.min_eigenvalue for r in rows)
    # With no positive minimum eigenvalue the condition number is NaN, an empty
    # cell: the CSV form of the null in summary.json.
    conds = [r.condition_number if r.min_eigenvalue > 0.0 else np.nan for r in rows]
    spectrum = dict(
        modes=np.array([r.n_modes for r in rows]),
        min_eigenvalue=np.array([r.min_eigenvalue for r in rows]),
        condition_number=np.array(conds),
    )
    cond = max(conds) if min_eig > 0.0 else None
    return {"spectrum.csv": spectrum}, dict(mode_counts=counts, min_eig=min_eig, cond=cond)


def _cmd_duality_check(root):
    trials = root.read("trials", _count, 5, least=1)
    n_tones = root.read("tones", _count, 3, least=1)
    basis, kernel, grid, seed = _setup(
        root, lambda modes, cells: {"2 nodes_per_face x tones x (steps + 1)": n_tones * cells}
    )

    rng = np.random.default_rng(seed)
    omegas = np.arange(1, n_tones + 1) * np.pi / grid.horizon
    reports = []
    for _ in range(trials):
        amplitudes = rng.standard_normal((basis.n_quad, n_tones))
        phases = rng.uniform(0.0, 2.0 * np.pi, size=(basis.n_quad, n_tones))
        control = tone_control(basis, grid, amplitudes, omegas, phases)
        data = rng.standard_normal(2 * basis.n_modes)
        data /= np.linalg.norm(data)
        v = StatePair(xi=data[: basis.n_modes], eta=data[basis.n_modes :], mu=basis.mu.copy())
        reports.append(duality_check(basis, kernel, grid, control, v))
    lhs, rhs, gaps = np.array([(r.lhs, r.rhs, r.rel_gap) for r in reports]).T
    duality = dict(trial=np.arange(1, trials + 1), lhs=lhs, rhs=rhs, rel_gap=gaps)
    return {"duality.csv": duality}, dict(trials=trials, max_rel_gap=float(gaps.max()))


def _cmd_maccamy(root):
    kernel = _read_kernel(root)
    grid = _read_grid(root)
    _check_budget({"steps + 1": grid.n_nodes})
    root.read("seed", _count, DEFAULT_SEED, least=0)
    system = transformed_system(kernel.kernel, grid)
    tables = {
        "R.csv": _series(grid, ["R"], [system.resolvent]),
        "transformed_kernel.csv": _series(grid, ["K"], [system.kernel_samples]),
    }
    return tables, dict(
        velocity_coeff=system.velocity_coeff,
        b=system.b,
        degraded_accuracy=system.degraded_accuracy,
        forcing=system.forcing_description,
    )


def _cmd_probes(root):
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

    gronwall = gronwall_bound_check(basis, kernel, grid, trials=trials, seed=seed)
    trace = trace_estimate_check(basis)
    growth = norm_growth_probe(basis, kernel, grid, counts, trials=trials, seed=seed, alpha=alpha)
    pert = perturbation_compactness_probe(basis, kernel, grid, perturbation_modes(m))

    modes, sigma = np.arange(1, m + 1), pert.singular_values
    ratios, weighted = np.array([(r.max_ratio, r.max_weighted_ratio) for r in growth.rows]).T
    tables = {
        "gronwall.csv": dict(mode=modes, mu=basis.mu, max_abs_psi=gronwall.per_mode_max),
        "trace_ratios.csv": dict(mode=modes, mu=basis.mu, ratio=trace.ratios),
        "norm_growth.csv": dict(
            modes=np.array([r.n_modes for r in growth.rows]),
            max_ratio=ratios,
            max_weighted_ratio=weighted,
        ),
        "perturbation_singular_values.csv": dict(index=np.arange(1, sigma.size + 1), sigma=sigma),
    }
    return tables, dict(
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="viscowave",
        description="Spectral simulation and boundary-control synthesis for "
        "viscoelastic waves with memory.",
    )
    parser.add_argument("command", choices=COMMANDS, help="pipeline to run")
    parser.add_argument("--config", required=True, help="path to the JSON run configuration")
    parser.add_argument("--out", default=None, help="output directory (default from config)")
    # Parsed and ignored while the benchmark passes it (ROADMAP item 1).
    parser.add_argument("--threads", type=int, help=argparse.SUPPRESS)
    return parser


def _setup_echo(resolved: dict) -> dict:
    """The setup fields of a summary as the run read them: geometry, kernel,
    seed, T and M, where maccamy reads no geometry and no mode count."""
    echo = {key: resolved[key] for key in ("geometry", "kernel", "seed") if key in resolved}
    echo["T"] = resolved["grid"]["horizon"]
    if "modes" in resolved:
        echo["M"] = resolved["modes"]
    return echo


def _strict_json(payload: dict) -> str:
    """payload as JSON text; a NaN or an infinity is a ValueError."""
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _write_csv(path: Path, columns: dict) -> None:
    """Write {name: column} as a CSV file with the names as its header.

    A column's dtype sets its cell format: %d for integers, %.17g for floats,
    17 significant digits so every double reads back exactly.  A NaN cell is
    left empty, the CSV form of a null.
    """
    arrays = [np.asarray(column) for column in columns.values()]
    fmt = ["%d" if array.dtype.kind in "iu" else "%.17g" for array in arrays]
    if any(np.isnan(array).any() for array in arrays):
        arrays = [np.where(np.isnan(a), "", np.char.mod(f, a)) for f, a in zip(fmt, arrays)]
        fmt = "%s"
    table = np.column_stack(arrays)
    np.savetxt(path, table, delimiter=",", header=",".join(columns), comments="", fmt=fmt)


def _write_artifacts(out: Path, files: dict) -> None:
    """Write {file name: table or JSON text} into out.

    A write that fails removes the files this run wrote, the failed one too
    if the run created it, and raises an OSError naming the artifact.
    """
    written = []
    for name, content in files.items():
        path = out / name
        created = not path.exists()
        try:
            if isinstance(content, str):
                path.write_text(content)
            else:
                _write_csv(path, content)
        except OSError as exc:
            for done in written + ([path] if created and path.is_file() else []):
                done.unlink()
            raise OSError(f"cannot write artifact {name}: {exc}") from exc
        written.append(path)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _load_config(args.config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    root = _Block(config, "config")
    root.read("schema_version", _count)
    try:
        out = Path(args.out if args.out is not None else root.read("output_dir", _path, "."))
        out.mkdir(parents=True, exist_ok=True)
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: cannot create output directory {str(out)!r}: {exc}", file=sys.stderr)
        return 3
    try:
        tables, values = _HANDLERS[args.command](root)
        overflowed = [k for k, v in values.items() if isinstance(v, float) and not math.isfinite(v)]
        if overflowed:
            raise FloatingPointError(f"summary value not finite: {', '.join(overflowed)}")
        # Every file is serialized before the first is written, so a failed
        # run leaves no artifact behind.
        summary = _strict_json({**_setup_echo(root.resolved), **values})
        manifest = _strict_json({"command": args.command, **_versions(), "config": root.resolved})
        files = {**tables, "summary.json": summary, "manifest.json": manifest}
    except (
        IllPosedSystemError,
        StepSizeError,
        MarchOverflowError,
        np.linalg.LinAlgError,
        FloatingPointError,
    ) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except (ValueError, TypeError, KeyError, OSError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 3
    finally:
        release_operator()  # the run's shared operator goes before the writes
    try:
        _write_artifacts(out, files)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


def _versions() -> dict:
    """The package's version, and the interpreter's and numpy's."""
    import platform

    from . import __version__

    return {
        "viscowave_version": __version__,
        "versions": {"python": platform.python_version(), "numpy": np.__version__},
    }


if __name__ == "__main__":
    sys.exit(main())
