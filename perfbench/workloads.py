"""The three benchmark workloads.

Each workload builds its inputs from the run's seed in `setup`, runs one op
per call to `op` (the only timed part), gathers what the gates need in
`collect` right after the op, and judges every op of the run in `judge`.
Ops call the package through module attributes (`viscowave.assemble_gram`,
`viscowave.cli.main`), so the tracer's wrappers are seen when installed.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
from pathlib import Path

import numpy as np

import viscowave
import viscowave.cli
from viscowave.quadrature import trapezoid_weights

# Terminal error that a verified control must reach (about 1e-9 is typical).
ERROR_GATE = 1e-6


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def _digests(*dirs: Path) -> dict[str, str]:
    out = {}
    for d in dirs:
        for path in sorted(d.iterdir()):
            out[f"{d.name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def _write_config(path: Path, config: dict) -> None:
    path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")


class Workload:
    """Base class: seeded inputs in `workdir`, one op per `op` call."""

    name = ""
    why = ""
    threads = 1
    sizes: dict[str, dict] = {}

    def __init__(self, seed: int, small: bool, workdir: Path):
        self.seed = seed
        self.params = self.sizes["small" if small else "full"]
        self.workdir = workdir

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed step before each op."""

    def op(self):
        raise NotImplementedError

    def collect(self, raw) -> dict:
        raise NotImplementedError

    def judge(self, records: list[dict]) -> list[tuple[list[str], float]]:
        """Per op: (gate failures, verified error)."""
        raise NotImplementedError


class SynthIntervalExp(Workload):
    name = "synth-interval-exp"
    why = (
        "plain single-thread library pipeline at M=64, n=5000; Volterra marching is "
        "about 95% of an op; no file I/O"
    )
    sizes = {"full": {"modes": 64, "steps": 5000}, "small": {"modes": 8, "steps": 800}}

    def setup(self) -> None:
        p = self.params
        self.basis = viscowave.build_interval_basis(1.0, p["modes"])
        self.grid = viscowave.TimeGrid(2.5, p["steps"])
        self.kernel = viscowave.MemoryKernel(b=0.2, kernel=viscowave.ExponentialKernel(0.1, 1.0))

    def op(self):
        vw = viscowave
        target = vw.random_smooth_target(self.basis, np.random.default_rng(self.seed))
        gram = vw.assemble_gram(self.basis, self.kernel, self.grid, self.basis.n_modes, threads=1)
        result = vw.solve_min_norm_control(gram, self.basis, self.kernel, self.grid, target)
        sim = vw.forward_simulate(self.basis, self.kernel, result.control, self.grid)
        return result.coefficients, vw.terminal_error(sim.terminal, target)

    def collect(self, raw) -> dict:
        coefficients, error = raw
        digest = hashlib.sha256(np.ascontiguousarray(coefficients).tobytes()).hexdigest()
        return {"terminal_error": error, "coefficients_sha256": digest}

    def judge(self, records):
        first = records[0].get("coefficients_sha256")
        out = []
        for rec in records:
            reasons = []
            err = rec["terminal_error"]
            if not err <= ERROR_GATE:
                reasons.append(f"terminal_error {err!r} above {ERROR_GATE}")
            if rec["coefficients_sha256"] != first:
                reasons.append("coefficients differ bitwise from the run's first op")
            out.append((reasons, err))
        return out


class RoundtripSquareFile(Workload):
    name = "roundtrip-square-file"
    why = (
        "CLI synthesize (2 threads) then verify reading control.csv back; unit square, "
        "tabulated kernel, so exponential-sum fast paths are bypassed"
    )
    threads = 2
    sizes = {
        "full": {"modes": 64, "nodes_per_face": 80, "steps": 6000},
        "small": {"modes": 9, "nodes_per_face": 16, "steps": 1200},
    }
    horizon = 3.0

    def setup(self) -> None:
        p = self.params
        inputs = self.workdir / "inputs"
        inputs.mkdir(parents=True)
        self.synth_out = self.workdir / "synthesize"
        self.verify_out = self.workdir / "verify"

        # Power-law-damped oscillation: not a finite sum of exponentials.
        rng = np.random.default_rng([self.seed, 1])
        amp, omega, phase, power = rng.uniform([0.05, 1.0, 0.0, 1.0], [0.15, 3.0, 2 * np.pi, 2.0])
        t = np.linspace(0.0, self.horizon, 1201)
        samples = amp * np.cos(omega * t + phase) / (1.0 + t) ** power
        kernel_csv = inputs / "kernel.csv"
        np.savetxt(kernel_csv, np.column_stack([t, samples]), delimiter=",", fmt="%.17g")

        base = {
            "schema_version": 1,
            "modes": p["modes"],
            "geometry": {
                "kind": "rectangle",
                "lengths": [1.0, 1.0],
                "nodes_per_face": p["nodes_per_face"],
            },
            "kernel": {"b": 0.2, "family": "file", "params": {"path": str(kernel_csv)}},
            "grid": {"horizon": self.horizon, "steps": p["steps"]},
            "target": {"type": "random-smooth", "norm": 1.0},
            "seed": self.seed,
        }
        self.synth_config = inputs / "synthesize.json"
        self.verify_config = inputs / "verify.json"
        _write_config(self.synth_config, base)
        control = {"type": "file", "path": str(self.synth_out / "control.csv")}
        _write_config(self.verify_config, {**base, "control": control})

    def prepare(self) -> None:
        for d in (self.synth_out, self.verify_out):
            shutil.rmtree(d, ignore_errors=True)

    def op(self):
        threads = ["--threads", str(self.threads)]
        rc_synth = viscowave.cli.main(
            ["synthesize", "--config", str(self.synth_config), "--out", str(self.synth_out)]
            + threads
        )
        rc_verify = viscowave.cli.main(
            ["verify", "--config", str(self.verify_config), "--out", str(self.verify_out)]
            + threads
        )
        return rc_synth, rc_verify

    def collect(self, raw) -> dict:
        rc_synth, rc_verify = raw
        rec = {"rc_synthesize": rc_synth, "rc_verify": rc_verify}
        if rc_synth == 0 and rc_verify == 0:
            rec["synthesize_error"] = _read_json(self.synth_out / "summary.json")["terminal_error"]
            rec["verify_error"] = _read_json(self.verify_out / "summary.json")["terminal_error"]
            rec["artifacts"] = _digests(self.synth_out, self.verify_out)
        return rec

    def judge(self, records):
        first = records[0].get("artifacts")
        out = []
        for rec in records:
            if rec["rc_synthesize"] != 0 or rec["rc_verify"] != 0:
                codes = (rec["rc_synthesize"], rec["rc_verify"])
                out.append(([f"exit codes synthesize/verify {codes}"], math.inf))
                continue
            reasons = []
            e_s, e_v = rec["synthesize_error"], rec["verify_error"]
            if not abs(e_v - e_s) <= 1e-12 * abs(e_s):
                reasons.append(f"verify error {e_v!r} != synthesize error {e_s!r}")
            if not e_v <= ERROR_GATE:
                reasons.append(f"terminal_error {e_v!r} above {ERROR_GATE}")
            if rec["artifacts"] != first:
                reasons.append("artifacts differ from the run's first op")
            out.append((reasons, e_v))
        return out


class ProbesProny(Workload):
    name = "probes-prony"
    why = (
        "CLI probes at M=16, n=512, 3-term Prony kernel; the perturbation probe marches "
        "(M, n, n) impulse tensors, wide-and-short"
    )
    sizes = {
        "full": {"modes": 16, "steps": 512, "trials": 8},
        "small": {"modes": 4, "steps": 64, "trials": 2},
    }
    horizon = 2.5
    # Sum of squared singular values against the independent route.
    sigma_rtol = 1e-10

    def setup(self) -> None:
        p = self.params
        inputs = self.workdir / "inputs"
        inputs.mkdir(parents=True)
        self.out = self.workdir / "probes"
        rng = np.random.default_rng([self.seed, 2])
        self.amplitudes = rng.uniform(0.02, 0.06, size=3)
        self.rates = np.sort(rng.uniform([0.3, 1.0, 3.0], [1.0, 3.0, 8.0]))
        self.config = inputs / "probes.json"
        _write_config(
            self.config,
            {
                "schema_version": 1,
                "modes": p["modes"],
                "geometry": {"kind": "interval", "lengths": [1.0]},
                "kernel": {
                    "b": 0.2,
                    "family": "prony",
                    "params": {"amplitudes": self.amplitudes.tolist(), "rates": self.rates.tolist()},
                },
                "grid": {"horizon": self.horizon, "steps": p["steps"]},
                "trials": p["trials"],
                "perturbation_modes": p["modes"],
                "seed": self.seed,
            },
        )

    def prepare(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    def op(self):
        return viscowave.cli.main(
            ["probes", "--config", str(self.config), "--out", str(self.out), "--threads", "1"]
        )

    def collect(self, raw) -> dict:
        rec = {"rc": raw}
        if raw == 0:
            rec["summary"] = _read_json(self.out / "summary.json")
            table = np.loadtxt(self.out / "perturbation_singular_values.csv", delimiter=",", skiprows=1, ndmin=2)
            rec["sigma_sq_sum"] = float(np.sum(table[:, 1] ** 2))
        return rec

    def reference_sigma_sq_sum(self) -> float:
        """Squared Frobenius norm of the probed matrix, column by column.

        Each column is the memory-minus-memoryless weighted terminal state of a
        unit nodal impulse control, from two forward_simulate runs, scaled to a
        unit-L2 control.  Sum of squared singular values must equal it.
        """
        vw = viscowave
        basis = vw.build_interval_basis(1.0, self.params["modes"])
        grid = vw.TimeGrid(self.horizon, self.params["steps"])
        memory = vw.MemoryKernel(
            b=0.2, kernel=vw.PronyKernel(tuple(self.amplitudes), tuple(self.rates))
        )
        memoryless = vw.MemoryKernel()
        wt = trapezoid_weights(grid.n_nodes, grid.dt)
        total = 0.0
        for q in range(basis.n_quad):
            for p in range(grid.n_nodes):
                values = np.zeros((basis.n_quad, grid.n_nodes))
                values[q, p] = 1.0
                control = vw.BoundaryControl(values=values, grid=grid)
                a = vw.forward_simulate(basis, memory, control, grid).terminal
                b = vw.forward_simulate(basis, memoryless, control, grid).terminal
                sq = np.sum((a.xi - b.xi) ** 2) + np.sum((a.eta - b.eta) ** 2)
                total += sq / (basis.quad_weights[q] * wt[p])
        return float(total)

    def judge(self, records):
        reference = self.reference_sigma_sq_sum()
        out = []
        for rec in records:
            if rec["rc"] != 0:
                out.append(([f"probes exit code {rec['rc']}"], math.inf))
                continue
            reasons = []
            bad = [k for k, v in rec["summary"].items() if isinstance(v, float) and not math.isfinite(v)]
            if bad:
                reasons.append(f"non-finite summary values {bad}")
            rel = abs(rec["sigma_sq_sum"] - reference) / reference
            if not rel <= self.sigma_rtol:
                reasons.append(f"sum sigma^2 {rec['sigma_sq_sum']!r} vs forward route {reference!r}")
            out.append((reasons, rel))
        return out


WORKLOADS = {cls.name: cls for cls in (SynthIntervalExp, RoundtripSquareFile, ProbesProny)}
