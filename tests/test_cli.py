import json
import platform
from pathlib import Path

import numpy as np
import pytest

from viscowave import modal_dynamics
from viscowave.cli import _Block, _read_kernel, main
from viscowave.grids import TimeGrid
from viscowave.memory_kernel import (
    ConstantKernel,
    ExponentialKernel,
    PronyKernel,
    SampledKernel,
    ZeroKernel,
)
from viscowave.spectral_basis import Geometry, build_rectangle_basis, default_nodes_per_face


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def base_config(**overrides):
    config = {
        "schema_version": 1,
        "modes": 2,
        "geometry": {"kind": "interval", "lengths": [1.0]},
        "kernel": {"b": 0.0, "family": "zero", "params": {}},
        "grid": {"horizon": 1.0, "steps": 50},
    }
    config.update(overrides)
    return config


def _control_file(rows):
    return "t,node_0\n" + "".join(f"{t},{value}\n" for t, value in rows)


# Control files on base_config's 51-node grid, one interval node, that the
# exit-code rows name: a NaN sample in data row 7, a NaN time in data row 3,
# and the header alone.
_ROWS = [(repr(j / 50), "1.0") for j in range(51)]
CONTROL_FILES = {
    "nan-cell.csv": _control_file(_ROWS[:6] + [(_ROWS[6][0], "nan")] + _ROWS[7:]),
    "nan-time.csv": _control_file(_ROWS[:2] + [("nan", "1.0")] + _ROWS[3:]),
    "header-only.csv": _control_file([]),
}


def read_summary(out):
    return json.loads((out / "summary.json").read_text())


def read_strict_json(path):
    def reject(token):
        raise ValueError(f"non-finite JSON constant {token}")

    return json.loads(path.read_text(), parse_constant=reject)


def read_manifest(out):
    return json.loads((out / "manifest.json").read_text())


class TestSimulate:
    def test_zero_control_stays_at_rest(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        table = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
        assert table.shape == (51, 3)
        assert np.array_equal(table[:, 1:], np.zeros((51, 2)))
        summary = read_summary(out)
        assert summary["terminal_norm"] == 0.0
        assert summary["M"] == 2
        for name in ("velocities.csv", "terminal.csv", "summary.json", "manifest.json"):
            assert (out / name).exists()

    def test_manifest_echoes_resolved_config(self, tmp_path):
        cfg = write_config(tmp_path, base_config(control={"type": "constant", "level": 0.5}))
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        manifest = read_manifest(out)
        assert manifest["command"] == "simulate"
        assert manifest["config"]["schema_version"] == 1
        assert manifest["config"]["modes"] == 2
        assert manifest["config"]["grid"] == {"horizon": 1.0, "steps": 50}
        assert manifest["config"]["control"]["type"] == "constant"
        # A constant control draws no random numbers, so no seed is read.
        assert "seed" not in manifest["config"]
        assert "viscowave_version" in manifest

    def test_manifest_echoes_each_field_as_read(self, tmp_path):
        # The echo holds the parsed value (a float level, 1-D phases as given),
        # defaults filled in, and no key the run did not read.
        tones = {"type": "tones", "omegas": [1.0, 2.0], "amplitudes": [0.5, 1], "phases": [0.25, 0]}
        controls = {
            "constant": ({"type": "constant", "level": 1, "junk": 3}, {"type": "constant", "level": 1.0}),
            "tones": (tones, {**tones, "amplitudes": [0.5, 1.0], "phases": [0.25, 0.0]}),
        }
        for name, (control, echo) in controls.items():
            cfg = write_config(tmp_path, base_config(control=control, junk=3), name=f"{name}.json")
            out = tmp_path / name
            assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
            config = read_manifest(out)["config"]
            assert json.dumps(config["control"], sort_keys=True) == json.dumps(echo, sort_keys=True)
            assert "junk" not in config
            assert config["kernel"] == {"b": 0.0, "family": "zero", "params": {}}

    def test_manifest_records_versions(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert read_manifest(out)["versions"] == {
            "python": platform.python_version(),
            "numpy": np.__version__,
        }

    def test_scalar_tone_amplitude_tiles_like_a_list(self, tmp_path):
        square = {"kind": "rectangle", "lengths": [1.0, 1.0]}
        outs = []
        for name, amplitudes in (("scalar", 0.5), ("list", [0.5])):
            control = {"type": "tones", "omegas": 1.5, "amplitudes": amplitudes}
            cfg = write_config(tmp_path, base_config(geometry=square, control=control), name=f"{name}.json")
            outs.append(tmp_path / name)
            assert main(["simulate", "--config", cfg, "--out", str(outs[-1])]) == 0
        scalar, listed = outs
        names = sorted(p.name for p in scalar.iterdir())
        assert names == sorted(p.name for p in listed.iterdir())
        for name in names:
            if name != "manifest.json":
                assert (scalar / name).read_bytes() == (listed / name).read_bytes(), name
        # The manifests differ only in the echo of the amplitudes as given and
        # of the default phases, which take the amplitudes' shape.
        echo = read_manifest(scalar)
        echo["config"]["control"].update(amplitudes=[0.5], phases=[0.0])
        assert echo == read_manifest(listed)

    def test_output_dir_from_config(self, tmp_path):
        target_dir = tmp_path / "from_config"
        cfg = write_config(tmp_path, base_config(output_dir=str(target_dir)))
        assert main(["simulate", "--config", cfg]) == 0
        assert (target_dir / "summary.json").exists()

    def test_rectangle_geometry(self, tmp_path):
        cfg = write_config(
            tmp_path,
            base_config(
                geometry={"kind": "rectangle", "lengths": [1.0, 1.0]},
                control={"type": "constant", "level": 0.5},
                grid={"horizon": 1.0, "steps": 60},
            ),
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        geometry = read_manifest(out)["config"]["geometry"]
        assert "modes_per_axis" not in geometry
        # The two lowest modes, (1, 1) and (1, 2), reach index 2: two panels.
        assert geometry["nodes_per_face"] == default_nodes_per_face(Geometry.rectangle(1.0, 1.0), 2) == 16
        terminal = np.loadtxt(out / "terminal.csv", delimiter=",", skiprows=1)
        assert terminal.shape == (2, 4)

    def test_given_node_count_selects_the_modes_once(self, tmp_path, lowest_mode_selections):
        geometry = {"kind": "rectangle", "lengths": [1.0, 3.0], "nodes_per_face": 24}
        cfg = write_config(tmp_path, base_config(modes=6, geometry=geometry))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert lowest_mode_selections == [((1.0, 3.0), 6)]

    def test_stale_modes_per_axis_is_ignored(self, tmp_path):
        outs = []
        for name, extra in (("plain", {}), ("stale", {"modes_per_axis": 2.5})):
            geometry = {"kind": "rectangle", "lengths": [1.0, 3.0], **extra}
            cfg = write_config(tmp_path, base_config(modes=6, geometry=geometry), name=f"{name}.json")
            outs.append(tmp_path / name)
            assert main(["simulate", "--config", cfg, "--out", str(outs[-1])]) == 0
        for name in ("trajectory.csv", "terminal.csv", "summary.json", "manifest.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


class TestSynthesize:
    def test_single_mode_steering(self, tmp_path):
        cfg = write_config(
            tmp_path,
            base_config(
                modes=1,
                grid={"horizon": 2.0, "steps": 800},
                target={"xi": [0.25], "eta": [0.1]},
            ),
        )
        out = tmp_path / "out"
        assert main(["synthesize", "--config", cfg, "--out", str(out)]) == 0
        summary = read_summary(out)
        assert summary["terminal_error"] <= 1e-3
        assert abs(summary["min_eig"] - 2.0) <= 1e-3
        assert summary["control_norm"] > 0.0
        coeffs = np.loadtxt(out / "coefficients.csv", delimiter=",", skiprows=1)
        assert coeffs.shape == (2, 2)
        assert (out / "control.csv").exists()
        assert (out / "target.csv").exists()

    def test_verify_round_trip_reproduces_error(self, tmp_path):
        target = {"xi": [0.25], "eta": [0.1]}
        synth_cfg = write_config(
            tmp_path,
            base_config(modes=1, grid={"horizon": 2.0, "steps": 800}, target=target),
            name="synth.json",
        )
        synth_out = tmp_path / "synth"
        assert main(["synthesize", "--config", synth_cfg, "--out", str(synth_out)]) == 0

        verify_cfg = write_config(
            tmp_path,
            base_config(
                modes=1,
                grid={"horizon": 2.0, "steps": 800},
                target=target,
                control={"type": "file", "path": str(synth_out / "control.csv")},
            ),
            name="verify.json",
        )
        verify_out = tmp_path / "verify"
        assert main(["verify", "--config", verify_cfg, "--out", str(verify_out)]) == 0
        synth_error = read_summary(synth_out)["terminal_error"]
        verify_error = read_summary(verify_out)["terminal_error"]
        assert abs(synth_error - verify_error) <= 1e-12

    @pytest.mark.parametrize("seed", [0, 2, 3])
    def test_verify_matches_synthesize_exactly_on_rectangle(self, tmp_path, seed):
        # Many face nodes: the control read back from control.csv must drive
        # the forward run through exactly the same arithmetic as the in-memory one.
        payload = base_config(
            modes=9,
            geometry={"kind": "rectangle", "lengths": [1.0, 1.0], "nodes_per_face": 16},
            kernel={"b": 0.2, "family": "exponential", "params": {"amplitude": 0.1, "rate": 1.0}},
            grid={"horizon": 3.0, "steps": 400},
            target={"type": "random-smooth"},
            seed=seed,
        )
        synth_out = tmp_path / "synth"
        cfg = write_config(tmp_path, payload, name="synth.json")
        assert main(["synthesize", "--config", cfg, "--out", str(synth_out)]) == 0
        payload["control"] = {"type": "file", "path": str(synth_out / "control.csv")}
        cfg = write_config(tmp_path, payload, name="verify.json")
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "verify")]) == 0
        synth_error = read_summary(synth_out)["terminal_error"]
        assert read_summary(tmp_path / "verify")["terminal_error"] == synth_error

    def test_random_smooth_target(self, tmp_path):
        cfg = write_config(
            tmp_path,
            base_config(
                modes=4,
                grid={"horizon": 2.5, "steps": 600},
                target={"type": "random-smooth", "norm": 1.0},
                seed=11,
            ),
        )
        out = tmp_path / "out"
        assert main(["synthesize", "--config", cfg, "--out", str(out)]) == 0
        assert read_summary(out)["terminal_error"] <= 1e-2


class TestDiagnostics:
    def test_gram_spectrum(self, tmp_path):
        cfg = write_config(
            tmp_path,
            base_config(modes=4, grid={"horizon": 2.5, "steps": 400}, mode_counts=[1, 2, 4]),
        )
        out = tmp_path / "out"
        assert main(["gram-spectrum", "--config", cfg, "--out", str(out)]) == 0
        table = np.loadtxt(out / "spectrum.csv", delimiter=",", skiprows=1)
        assert table.shape == (3, 3)
        assert np.all(table[:, 1] > 0.0)
        assert read_summary(out)["min_eig"] > 0.0

    def test_singular_gram_writes_strict_json(self, tmp_path):
        # A horizon far below the control time leaves the 24-mode Gram
        # numerically singular (min_eig about -1e-15), so cond has no value.
        cfg = write_config(
            tmp_path,
            base_config(
                modes=24,
                kernel={"b": 0.2, "family": "exponential", "params": {"amplitude": 0.1, "rate": 1.0}},
                grid={"horizon": 0.1, "steps": 400},
                regularization=1e-8,
                mode_counts=[4, 24],
                target={"type": "random-smooth"},
            ),
        )
        for command in ("synthesize", "gram-spectrum"):
            out = tmp_path / command
            with pytest.warns(UserWarning, match="control-time bound"):
                assert main([command, "--config", cfg, "--out", str(out)]) == 0
            summary = read_strict_json(out / "summary.json")
            read_strict_json(out / "manifest.json")
            if summary["min_eig"] <= 0.0:
                assert summary["cond"] is None
            else:
                assert summary["cond"] >= 1.0
        # The CSV form of a missing condition number is an empty cell.
        for line in (tmp_path / "gram-spectrum" / "spectrum.csv").read_text().splitlines()[1:]:
            modes, min_eig, cond = line.split(",")
            assert cond.lower() not in ("inf", "-inf", "nan")
            assert cond == "" if float(min_eig) <= 0.0 else float(cond) >= 1.0

    def test_duality_check(self, tmp_path):
        cfg = write_config(
            tmp_path,
            base_config(
                modes=6,
                kernel={"b": 0.3, "family": "exponential", "params": {"amplitude": 0.2, "rate": 2.0}},
                grid={"horizon": 2.0, "steps": 800},
            ),
        )
        out = tmp_path / "out"
        assert main(["duality-check", "--config", cfg, "--out", str(out)]) == 0
        table = np.loadtxt(out / "duality.csv", delimiter=",", skiprows=1, ndmin=2)
        assert table.shape == (6, 4)
        summary = read_summary(out)
        assert summary["max_interior_gap"] <= 1e-12
        assert 0.0 < summary["max_node0_gap"] < 1e-3

    def test_maccamy(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "schema_version": 1,
                "kernel": {"family": "constant", "params": {"level": 1.0}},
                "grid": {"horizon": 1.0, "steps": 1000},
            },
        )
        out = tmp_path / "out"
        with pytest.warns(UserWarning, match="velocity term"):
            assert main(["maccamy", "--config", cfg, "--out", str(out)]) == 0
        table = np.loadtxt(out / "R.csv", delimiter=",", skiprows=1)
        assert abs(table[-1, 0] - 1.0) <= 1e-12
        assert abs(table[-1, 1] - 0.3678794) <= 1e-6
        summary = read_summary(out)
        assert abs(summary["velocity_coeff"] - 1.0) <= 1e-8
        assert abs(summary["b"] + 1.0) <= 1e-4
        assert summary["degraded_accuracy"] is False
        assert (out / "transformed_kernel.csv").exists()

    def test_probes(self, tmp_path):
        cfg = write_config(
            tmp_path,
            base_config(modes=8, grid={"horizon": 2.0, "steps": 200}),
        )
        out = tmp_path / "out"
        assert main(["probes", "--config", cfg, "--out", str(out)]) == 0
        for name in (
            "gronwall.csv",
            "trace_ratios.csv",
            "norm_growth.csv",
            "perturbation_singular_values.csv",
        ):
            assert (out / name).exists()
        summary = read_summary(out)
        assert 0.9 <= summary["m_observed"] <= 1.0 + 1e-9
        # Both suprema are exact: no sample count is read or reported.
        assert "trials" not in summary and "trials" not in read_manifest(out)["config"]
        assert summary["max_trace_ratio"] > 0.0
        assert np.isclose(summary["weyl_constant"], np.pi / 2, atol=1e-12)

    def test_probes_rectangle_runs_the_lowest_modes(self, tmp_path):
        square = {"kind": "rectangle", "lengths": [1.0, 1.0]}
        cfg = write_config(tmp_path, base_config(modes=64, geometry=square))
        out = tmp_path / "out"
        assert main(["probes", "--config", cfg, "--out", str(out)]) == 0
        index = np.arange(1, 65) - 0.5
        lowest = np.sort(np.hypot.outer(index * np.pi, index * np.pi).ravel())[:64]
        mu = np.loadtxt(out / "gronwall.csv", delimiter=",", skiprows=1)[:, 1]
        assert np.array_equal(mu, lowest)

    def test_probes_single_mode_defaults(self, tmp_path):
        cfg = write_config(tmp_path, base_config(modes=1, grid={"horizon": 2.0, "steps": 100}))
        out = tmp_path / "out"
        assert main(["probes", "--config", cfg, "--out", str(out)]) == 0
        resolved = read_manifest(out)["config"]
        assert resolved["mode_counts"] == [1]
        assert resolved["perturbation_modes"] == 1
        assert len((out / "norm_growth.csv").read_text().splitlines()) == 2


class TestKernelFamilies:
    @pytest.mark.parametrize(
        "family, params, build",
        [
            ("zero", {}, ZeroKernel),
            ("constant", {"level": 0.3}, lambda: ConstantKernel(0.3)),
            ("constant", {"level": -0.0}, lambda: ConstantKernel(-0.0)),
            ("exponential", {"amplitude": 0.1, "rate": 1.0}, lambda: ExponentialKernel(0.1, 1.0)),
            ("exponential", {"amplitude": -0.7, "rate": 400}, lambda: ExponentialKernel(-0.7, 400.0)),
            (
                "prony",
                {"amplitudes": [0.1, 0.05, 0.2], "rates": [1.0, 3.0, 0]},
                lambda: PronyKernel((0.1, 0.05, 0.2), (1.0, 3.0, 0.0)),
            ),
            ("file", {"path": "kernel.csv"}, lambda: SampledKernel.from_csv("kernel.csv")),
        ],
        ids=["zero", "constant", "constant-negative-zero", "exponential", "exponential-steep", "prony", "file"],
    )
    def test_config_samples_match_library_constructor(self, tmp_path, monkeypatch, family, params, build):
        monkeypatch.chdir(tmp_path)
        Path("kernel.csv").write_text("0.0,1.0\n0.5,-0.25\n1.0,0.5\n")
        block = _Block({"kernel": {"family": family, "params": params}}, "config")
        t = TimeGrid(1.0, 64).times
        values, expected = _read_kernel(block).kernel.values(t), build().values(t)
        assert np.array_equal(values, expected)
        assert np.array_equal(np.signbit(values), np.signbit(expected))


SMALL_RUNS = {
    "simulate": base_config(modes=3, control={"type": "noise"}, grid={"horizon": 1.5, "steps": 80}),
    "synthesize": base_config(grid={"horizon": 2.5, "steps": 120}, target={"type": "random-smooth"}),
    "verify": base_config(control={"type": "noise"}, target={"type": "random-smooth"}),
    "gram-spectrum": base_config(modes=3, grid={"horizon": 2.5, "steps": 120}, mode_counts=[1, 3]),
    "duality-check": base_config(),
    "maccamy": base_config(
        kernel={"family": "prony", "params": {"amplitudes": [1.0, -1.0], "rates": [1.0, 2.0]}}
    ),
    "probes": base_config(
        modes=4,
        kernel={"b": 0.2, "family": "prony", "params": {"amplitudes": [0.1, 0.05], "rates": [1.0, 3.0]}},
    ),
}


# The small runs plus configs whose echo rewrites values: integer reals,
# 1-D tone lists and the rectangle's default sizes.
ROUND_TRIPS = {
    **{command: (command, payload) for command, payload in SMALL_RUNS.items()},
    "tones": (
        "simulate",
        base_config(modes=3, control={"type": "tones", "omegas": [1.0, 2.0], "amplitudes": [0.5, 1]}),
    ),
    "rectangle": (
        "synthesize",
        base_config(
            modes=5,
            geometry={"kind": "rectangle", "lengths": [1.0, 1.5]},
            kernel={"b": 0.2, "family": "exponential", "params": {"amplitude": 1, "rate": 1.0}},
            grid={"horizon": 4.0, "steps": 300},
            target={"type": "random-smooth", "decay": 3},
        ),
    ),
}


class TestBoxGeometry:
    """"box" takes 1 to 3 lengths: with one or two it is the interval or the
    rectangle, through the same builder, and with three the cube."""

    CUBE = {"kind": "box", "lengths": [1.0, 1.0, 1.0]}

    # maccamy reads no geometry.
    @pytest.mark.parametrize("command", sorted(set(SMALL_RUNS) - {"maccamy"}))
    @pytest.mark.parametrize("lengths", [[1.0], [1.0, 0.5]], ids=["interval", "rectangle"])
    def test_one_or_two_lengths_write_the_same_tables(self, tmp_path, command, lengths):
        # 1 x 0.5 keeps the Gram runs' T = 2.5 above the bound 2 sqrt(1.25).
        outs = []
        for kind in ("interval" if len(lengths) == 1 else "rectangle", "box"):
            payload = dict(SMALL_RUNS[command], seed=42, geometry={"kind": kind, "lengths": lengths})
            cfg = write_config(tmp_path, payload, name=f"{kind}.json")
            outs.append(tmp_path / kind)
            assert main([command, "--config", cfg, "--out", str(outs[-1])]) == 0
        named, box = outs
        tables = sorted(path.name for path in named.glob("*.csv"))
        assert tables and tables == sorted(path.name for path in box.glob("*.csv"))
        for name in tables:
            assert (named / name).read_bytes() == (box / name).read_bytes(), name
        assert read_manifest(box)["config"]["geometry"]["kind"] == "box"

    @pytest.mark.parametrize("lengths", [[], [1.0] * 4], ids=["none", "four"])
    def test_length_count_outside_one_to_three_exits_three(self, tmp_path, capsys, lengths):
        cfg = write_config(tmp_path, base_config(geometry={"kind": "box", "lengths": lengths}))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        assert "box geometry takes 1 to 3 lengths" in capsys.readouterr().err

    def test_cube_face_nodes_count_in_the_budget(self, tmp_path, capsys):
        geometry = dict(self.CUBE, nodes_per_face=10**6)
        cfg = write_config(tmp_path, base_config(geometry=geometry))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert "3 nodes_per_face^2 x (steps + 1) array would take" in err

    def test_cube_gram_spectrum(self, tmp_path):
        # Unit cube, T = 4 above its bound 2 sqrt(3), mu_M dt <= 0.045 at M=16:
        # min_eig / max_eig to 4 digits, with memory and without.
        figures = {"memory": (9.085, 14.57), "elastic": (9.088, 14.60)}
        for name, (low, high) in figures.items():
            payload = base_config(
                modes=16, geometry=self.CUBE, grid={"horizon": 4.0, "steps": 827}, mode_counts=[16]
            )
            if name == "memory":
                payload["kernel"] = {"b": 0.2, "family": "exponential", "params": {"amplitude": 0.1, "rate": 1.0}}
            cfg = write_config(tmp_path, payload, name=f"{name}.json")
            out = tmp_path / name
            assert main(["gram-spectrum", "--config", cfg, "--out", str(out)]) == 0
            row = np.loadtxt(out / "spectrum.csv", delimiter=",", skiprows=1)
            assert read_manifest(out)["config"]["geometry"]["nodes_per_face"] == 24
            assert f"{row[1]:.4g}/{row[1] * row[2]:.4g}" == f"{low:.4g}/{high:.4g}", name


class TestSeed:
    """A run reads its seed only where it builds an rng: the noise control
    and the random-smooth target."""

    @pytest.mark.parametrize("command", ["duality-check", "gram-spectrum", "maccamy", "probes"])
    def test_runs_that_draw_nothing_echo_no_seed(self, tmp_path, command):
        cfg = write_config(tmp_path, dict(SMALL_RUNS[command], seed=42))
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        assert "seed" not in read_summary(out)
        assert "seed" not in read_manifest(out)["config"]

    @pytest.mark.parametrize("command", ["simulate", "synthesize", "verify"])
    def test_runs_that_draw_echo_their_seed(self, tmp_path, command):
        cfg = write_config(tmp_path, dict(SMALL_RUNS[command], seed=42))
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        assert read_summary(out)["seed"] == 42
        assert read_manifest(out)["config"]["seed"] == 42


class TestOneInversePerRun:
    """Each command builds one memory operator and hands it to every solve, so
    it inverts the kernel of each distinct frequency once: one per mode on the
    interval, fewer on the unit square, where (m, n) and (n, m) share mu."""

    @pytest.mark.parametrize("command", sorted(SMALL_RUNS))
    def test_each_command_inverts_one_row_per_mode(self, tmp_path, inverted_rows, command):
        payload = dict(SMALL_RUNS[command])
        if command != "maccamy":
            payload["kernel"] = {"b": 0.2, "family": "exponential", "params": {"amplitude": 0.1, "rate": 1.0}}
        cfg = write_config(tmp_path, payload)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        # maccamy marches the one resolvent row.
        assert sum(inverted_rows) == (1 if command == "maccamy" else payload["modes"])

    @pytest.mark.parametrize(
        "command, rows_per_mode",
        [
            # The Gram's unit free responses, which the verifying run reads too.
            ("synthesize", 2),
            # The free responses alone, for the terminal state.
            ("verify", 2),
            # The free responses, which the trajectory convolves with the
            # forcing; its end is the terminal state.
            ("simulate", 2),
            ("gram-spectrum", 2),
            # The free responses; the terminal maps are read off them.
            ("probes", 2),
            # The free responses and the node-0 impulse, compared entry by entry.
            ("duality-check", 4),
        ],
    )
    def test_each_command_marches_its_rows_once(self, tmp_path, marched_rows, command, rows_per_mode):
        payload = dict(SMALL_RUNS[command])
        payload["kernel"] = {"b": 0.2, "family": "exponential", "params": {"amplitude": 0.1, "rate": 1.0}}
        cfg = write_config(tmp_path, payload)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert sum(marched_rows) == rows_per_mode * payload["modes"]

    @pytest.mark.parametrize(
        "command, rows_per_frequency, rows_per_mode",
        [
            ("synthesize", 2, 0),
            ("verify", 2, 0),
            ("gram-spectrum", 2, 0),
            ("probes", 2, 0),
            ("duality-check", 4, 0),
            ("simulate", 2, 0),
        ],
    )
    def test_square_inverts_and_marches_each_frequency_once(
        self, tmp_path, inverted_rows, marched_rows, command, rows_per_frequency, rows_per_mode
    ):
        payload = dict(
            SMALL_RUNS[command],
            modes=16,
            geometry={"kind": "rectangle", "lengths": [1.0, 1.0]},
            kernel={"b": 0.2, "family": "exponential", "params": {"amplitude": 0.1, "rate": 1.0}},
            grid={"horizon": 4.0, "steps": 200},
        )
        if command == "gram-spectrum":
            payload["mode_counts"] = [5, 16]
        cfg = write_config(tmp_path, payload)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        distinct = len(np.unique(build_rectangle_basis(1.0, 1.0, 16).mu))
        assert distinct < 16
        assert inverted_rows == [distinct]
        assert sum(marched_rows) == rows_per_frequency * distinct + rows_per_mode * 16

    @pytest.mark.parametrize(
        "command, correlations",
        [
            # The Gram's, or the norm-growth probe's, on the largest count.
            ("synthesize", 1),
            ("gram-spectrum", 1),
            ("probes", 1),
            # No Gram.
            ("simulate", 0),
            ("verify", 0),
            ("duality-check", 0),
            ("maccamy", 0),
        ],
    )
    def test_each_command_forms_at_most_one_time_correlation(
        self, tmp_path, formed_correlations, command, correlations
    ):
        cfg = write_config(tmp_path, SMALL_RUNS[command])
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert len(formed_correlations) == correlations

    def test_no_operator_outlives_the_run(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_RUNS["synthesize"], name="ok.json")
        assert main(["synthesize", "--config", cfg, "--out", str(tmp_path / "ok")]) == 0
        assert modal_dynamics._slot is None
        # The Gram is built before its ill-posed solve exits 4.
        ill_posed = dict(grid={"horizon": 0.05, "steps": 60}, target={"type": "random-smooth"})
        cfg = write_config(tmp_path, base_config(modes=8, **ill_posed), name="ill.json")
        with pytest.warns(UserWarning, match="control-time bound"):
            assert main(["synthesize", "--config", cfg, "--out", str(tmp_path / "ill")]) == 4
        assert modal_dynamics._slot is None


class TestDeterminism:
    @pytest.mark.parametrize("command", sorted(SMALL_RUNS))
    def test_identical_configs_give_identical_bytes(self, tmp_path, command):
        payload = dict(SMALL_RUNS[command], seed=42)
        cfg_a = write_config(tmp_path, payload, name="a.json")
        cfg_b = write_config(tmp_path, payload, name="b.json")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main([command, "--config", cfg_a, "--out", str(out_a)]) == 0
        # --threads is parsed and ignored, so it changes no byte.
        assert main([command, "--config", cfg_b, "--out", str(out_b), "--threads", "2"]) == 0
        names = sorted(path.name for path in out_a.iterdir())
        assert names == sorted(path.name for path in out_b.iterdir())
        assert "manifest.json" in names and len(names) >= 3
        for name in names:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    @pytest.mark.parametrize("name", sorted(ROUND_TRIPS))
    def test_manifest_config_reproduces_the_run(self, tmp_path, name):
        command, payload = ROUND_TRIPS[name]
        first, second = tmp_path / "first", tmp_path / "second"
        assert main([command, "--config", write_config(tmp_path, payload), "--out", str(first)]) == 0
        echo = write_config(tmp_path, read_manifest(first)["config"], name="echo.json")
        assert main([command, "--config", echo, "--out", str(second)]) == 0
        files = sorted(path.name for path in first.iterdir())
        assert files == sorted(path.name for path in second.iterdir())
        for file in files:
            assert (first / file).read_bytes() == (second / file).read_bytes()


# The CSV files of each small run, by header line.
HEADERS = {
    "simulate": {
        "trajectory.csv": "t,mode_1,mode_2,mode_3",
        "velocities.csv": "t,mode_1,mode_2,mode_3",
        "terminal.csv": "mode,mu,weighted_position,velocity",
    },
    "synthesize": {
        "control.csv": "t,node_0",
        "coefficients.csv": "index,coefficient",
        "terminal.csv": "mode,mu,weighted_position,velocity",
        "target.csv": "mode,mu,position,velocity",
    },
    "verify": {"terminal.csv": "mode,mu,weighted_position,velocity"},
    "gram-spectrum": {"spectrum.csv": "modes,min_eigenvalue,condition_number"},
    "duality-check": {"duality.csv": "mode,mu,interior_gap,node0_gap"},
    "maccamy": {"R.csv": "t,R", "transformed_kernel.csv": "t,K"},
    "probes": {
        "gronwall.csv": "mode,mu,max_abs_psi",
        "trace_ratios.csv": "mode,mu,ratio",
        "norm_growth.csv": "modes,max_ratio,max_weighted_ratio",
        "perturbation_singular_values.csv": "index,sigma",
    },
}
INTEGER_COLUMNS = {"mode", "index", "modes"}


class TestArtifactFormat:
    @pytest.mark.parametrize("command", sorted(SMALL_RUNS))
    def test_csv_headers_and_cells(self, tmp_path, command):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, dict(SMALL_RUNS[command], seed=42))
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        written = {path.name for path in out.iterdir()}
        assert written == {*HEADERS[command], "summary.json", "manifest.json"}
        for name, header in HEADERS[command].items():
            lines = (out / name).read_text().splitlines()
            assert lines[0] == header, name
            columns = header.split(",")
            for line in lines[1:]:
                cells = dict(zip(columns, line.split(","), strict=True))
                for column, cell in cells.items():
                    if column in INTEGER_COLUMNS:
                        assert cell.isdigit(), (name, column, cell)
                    elif column == "condition_number" and cell == "":
                        # Empty only where the Gram has no positive minimum eigenvalue.
                        assert float(cells["min_eigenvalue"]) <= 0.0
                    else:
                        # 17 significant digits, so the cell reads back to the same double.
                        assert cell == "%.17g" % float(cell), (name, column, cell)


class TestExitCodes:
    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["simulate", "--config", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_wrong_schema_version(self, tmp_path):
        cfg = write_config(tmp_path, base_config(schema_version=99))
        assert main(["simulate", "--config", cfg]) == 2

    def test_boolean_schema_version(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config(schema_version=True))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "unsupported schema_version True" in capsys.readouterr().err

    def test_non_object_root(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        assert main(["simulate", "--config", str(path)]) == 2

    def test_missing_required_argument_exits_two(self):
        with pytest.raises(SystemExit) as info:
            main(["simulate"])
        assert info.value.code == 2

    @pytest.mark.parametrize(
        "mutation",
        [
            {"grid": {"horizon": 1.0, "steps": 1}},
            {"kernel": {"family": "gaussian", "params": {}}},
            {"geometry": {"kind": "disk", "lengths": [1.0]}},
            {"control": {"type": "mystery"}},
            {"seed": -3, "control": {"type": "noise"}},
        ],
    )
    def test_invalid_values_exit_three(self, tmp_path, mutation, capsys):
        cfg = write_config(tmp_path, base_config(**mutation))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        assert "invalid configuration" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, mutation, code, message",
        [
            ("probes", {"alpha": float("nan")}, 3, "alpha must be finite"),
            (
                "synthesize",
                {"regularization": float("nan"), "target": {"xi": [0.1, 0.0], "eta": [0.0, 0.0]}},
                3,
                "regularization must be finite",
            ),
            # Above the control-time bound, so the Gram before the solve does not warn.
            (
                "synthesize",
                {
                    "regularization": -1.0,
                    "grid": {"horizon": 2.5, "steps": 50},
                    "target": {"xi": [0.1, 0.0], "eta": [0.0, 0.0]},
                },
                3,
                "regularization must be >= 0",
            ),
            (
                "simulate",
                {"geometry": {"kind": "interval", "lengths": [1.0, 2.0]}},
                3,
                "interval geometry takes exactly one length",
            ),
            ("simulate", {"grid": {"horizon": 1.0, "steps": 400.7}}, 3, "steps must be an integer"),
            ("simulate", {"grid": {"horizon": 1.0, "steps": float("inf")}}, 3, "steps must be an integer"),
            ("simulate", {"modes": 6.9}, 3, "modes must be an integer"),
            ("simulate", {"seed": 2.5, "control": {"type": "noise"}}, 3, "seed must be an integer"),
            ("probes", {"perturbation_modes": 3.7}, 3, "perturbation_modes must be an integer"),
            ("probes", {"mode_counts": [1, 1.5]}, 3, "mode_counts entry must be an integer"),
            ("gram-spectrum", {"mode_counts": [1, 2.5]}, 3, "mode_counts entry must be an integer"),
            (
                "simulate",
                {"geometry": {"kind": "rectangle", "lengths": [1.0, 1.0], "nodes_per_face": 8.5}},
                3,
                "nodes_per_face must be an integer",
            ),
            ("simulate", {"kernel": {"b": True, "family": "zero", "params": {}}}, 3, "b must be a number"),
            ("simulate", {"grid": {"horizon": "2.5", "steps": 50}}, 3, "horizon must be a number"),
            ("simulate", {"grid": {"horizon": 10**400, "steps": 50}}, 3, "horizon must be finite"),
            (
                "synthesize",
                {"target": {"type": "random-smooth", "norm": float("nan")}},
                3,
                "norm must be finite",
            ),
            (
                "synthesize",
                {"target": {"type": "random-smooth", "decay": float("nan")}},
                3,
                "decay must be finite",
            ),
            ("simulate", {"control": {"type": "constant", "level": float("nan")}}, 3, "level must be finite"),
            ("simulate", {"control": {"type": "constant", "level": "0.5"}}, 3, "level must be a number"),
            ("probes", {"alpha": True}, 3, "alpha must be a number"),
            (
                "simulate",
                {"kernel": {"family": "exponential", "params": {"amplitude": "0.1", "rate": 1.0}}},
                3,
                "amplitude must be a number",
            ),
            (
                "simulate",
                {"kernel": {"family": "exponential", "params": {"amplitude": True, "rate": 1.0}}},
                3,
                "amplitude must be a number",
            ),
            (
                "simulate",
                {"kernel": {"family": "exponential", "params": {"rate": 1.0}}},
                3,
                "missing required field 'amplitude' in kernel params",
            ),
            (
                "simulate",
                {"kernel": {"family": "prony", "params": {"amplitudes": ["0.1"], "rates": [1.0]}}},
                3,
                "amplitudes must be a number",
            ),
            (
                "simulate",
                {"control": {"type": "tones", "omegas": ["1"], "amplitudes": [0.5]}},
                3,
                "omegas must be a number",
            ),
            (
                "simulate",
                {"control": {"type": "tones", "omegas": [float("nan")], "amplitudes": [0.5]}},
                3,
                "omegas must be finite",
            ),
            (
                "simulate",
                {"control": {"type": "tones", "omegas": [1.0], "amplitudes": [True]}},
                3,
                "amplitudes must be a number",
            ),
            (
                "simulate",
                {"control": {"type": "tones", "omegas": [1.0], "amplitudes": [0.5], "phases": ["0"]}},
                3,
                "phases must be a number",
            ),
            ("verify", {"target": {"xi": ["1", 0], "eta": [0, 0]}}, 3, "xi must be a number"),
            ("verify", {"target": {"xi": [float("nan"), 0], "eta": [0, 0]}}, 3, "xi must be finite"),
            ("verify", {"target": {"xi": [0, 0], "eta": [0, True]}}, 3, "eta must be a number"),
            ("simulate", {"geometry": {"kind": "interval", "lengths": ["1.0"]}}, 3, "lengths must be a number"),
            ("simulate", {"kernel": {"family": ["prony"], "params": {}}}, 3, "unknown kernel family"),
            (
                "simulate",
                {"geometry": {"kind": "interval", "lengths": 1.0}},
                3,
                "lengths must be a list of numbers",
            ),
            (
                "simulate",
                {"kernel": {"family": "prony", "params": {"amplitudes": 0.1, "rates": [1.0]}}},
                3,
                "amplitudes must be a list of numbers",
            ),
            (
                "simulate",
                {"kernel": {"family": "prony", "params": {"amplitudes": [[0.1]], "rates": [1.0]}}},
                3,
                "amplitudes must be a list of numbers",
            ),
            (
                "simulate",
                {"control": {"type": "tones", "omegas": [1.0, 2.0], "amplitudes": [[1.0], [1.0, 2.0]]}},
                3,
                "amplitudes must be a rectangular list",
            ),
            (
                "simulate",
                {"control": {"type": "tones", "omegas": [[1.0]], "amplitudes": [0.5]}},
                3,
                "omegas must be a number or a list of numbers",
            ),
            ("gram-spectrum", {"mode_counts": 2}, 3, "mode_counts must be a list of integers"),
            ("probes", {"mode_counts": 2}, 3, "mode_counts must be a list of integers"),
            ("probes", {"perturbation_modes": 0}, 3, "perturbation_modes must lie in [1, 2]"),
            ("gram-spectrum", {"mode_counts": [-1, 2]}, 3, "list of positive counts"),
            ("probes", {"mode_counts": [0, 1]}, 3, "list of positive counts"),
            # Size budget: each config's arrays would take terabytes, so a
            # missing check fails with MemoryError, not a real allocation.
            ("simulate", {"grid": {"horizon": 1.0, "steps": 10**13}}, 3, "modes x (steps + 1) array would take"),
            (
                "simulate",
                {"modes": 4, "geometry": {"kind": "rectangle", "lengths": [1.0, 1.0], "nodes_per_face": 10**12}},
                3,
                "2 nodes_per_face x (steps + 1) array would take",
            ),
            (
                "synthesize",
                {"modes": 300000, "grid": {"horizon": 1.0, "steps": 2}, "target": {"type": "random-smooth"}},
                3,
                "(2 modes)^2 Gram array would take",
            ),
            (
                "probes",
                {"modes": 300000, "grid": {"horizon": 1.0, "steps": 2}},
                3,
                "(2 modes)^2 Gram array would take",
            ),
            # 137 GB for the probe's factor, near the most a config can ask
            # for with small traces while the modal tables and the norm
            # probe's Gram (5792 modes: 1.0735e9 bytes) fit the budget.
            (
                "probes",
                {
                    "modes": 5792,
                    "perturbation_modes": 5792,
                    "geometry": {"kind": "rectangle", "lengths": [1.0, 1.0], "nodes_per_face": 64},
                    "grid": {"horizon": 1.0, "steps": 16000},
                },
                3,
                "2 perturbation_modes x min(perturbation_modes, 2 nodes_per_face)"
                " x min(2 perturbation_modes, steps + 1) array would take",
            ),
            (
                "simulate",
                {"modes": 10**12, "geometry": {"kind": "rectangle", "lengths": [1000.0, 1.0]}},
                3,
                "modes x (steps + 1) array would take",
            ),
            (
                "simulate",
                {
                    "modes": 10**12,
                    "geometry": {"kind": "rectangle", "lengths": [1.0, 1.0]},
                    "grid": {"horizon": 1.0, "steps": 2},
                },
                3,
                "modes x 2 nodes_per_face array would take",
            ),
            (
                "simulate",
                {
                    "modes": 10**5,
                    "geometry": {"kind": "rectangle", "lengths": [1.0, 1.0], "nodes_per_face": 10**6},
                    "grid": {"horizon": 1.0, "steps": 2},
                },
                3,
                "modes x 2 nodes_per_face array would take",
            ),
            ("maccamy", {"grid": {"horizon": 1.0, "steps": 10**13}}, 3, "steps + 1 array would take"),
            ("maccamy", {"kernel": {"b": 0.5, "family": "zero", "params": {}}}, 3, "kernel.b must be 0"),
            (
                "simulate",
                {
                    "grid": {"horizon": 1.0, "steps": 10**6},
                    "control": {"type": "tones", "omegas": [1.0] * 10**5, "amplitudes": [0.5] * 10**5},
                },
                3,
                "2 nodes_per_face x omegas x (steps + 1) array would take",
            ),
            ("simulate", {"modes": True}, 3, "modes must be an integer"),
            ("simulate", {"seed": True, "control": {"type": "noise"}}, 3, "seed must be an integer"),
            ("probes", {"perturbation_modes": True}, 3, "perturbation_modes must be an integer"),
            ("gram-spectrum", {"mode_counts": [True, 2]}, 3, "mode_counts entry must be an integer"),
            (
                "simulate",
                {"modes": -1, "geometry": {"kind": "rectangle", "lengths": [1.0, 1.0]}},
                3,
                "modes must be >= 1",
            ),
            (
                "simulate",
                {"geometry": {"kind": "rectangle", "lengths": [1.0, 1.0], "nodes_per_face": 0}},
                3,
                "nodes_per_face must be >= 1",
            ),
            ("simulate", {"kernel": {"family": "file", "params": {"path": 3}}}, 3, "path must be a string"),
            (
                "simulate",
                {"kernel": {"family": "exponential", "params": {"amplitude": 0.1, "rate": -1}}},
                3,
                "rate",
            ),
            (
                "simulate",
                {"kernel": {"family": "prony", "params": {"amplitudes": [0.1], "rates": [-1.0]}}},
                3,
                "rate",
            ),
            ("verify", {"control": {"type": "file", "path": ["a.csv"]}}, 3, "path must be a string"),
            (
                "verify",
                {"control": {"type": "file", "path": "nan-cell.csv"}, "target": {"type": "random-smooth"}},
                3,
                "control file 'nan-cell.csv': data row 7 holds a non-finite value",
            ),
            (
                "verify",
                {"control": {"type": "file", "path": "nan-time.csv"}, "target": {"type": "random-smooth"}},
                3,
                "control file 'nan-time.csv': data row 3 holds a non-finite value",
            ),
            # numpy's "input contained no data" warning fails the test.
            (
                "verify",
                {"control": {"type": "file", "path": "header-only.csv"}, "target": {"type": "random-smooth"}},
                3,
                "control file 'header-only.csv' has shape (0, 1), expected (51, 2)",
            ),
            # mu_M dt >= pi: 99.5 pi / 50 on the interval, 14.2 / 4 on the square.
            (
                "simulate",
                {"modes": 100},
                3,
                "steps 50 alias the top mode (mu_M dt = 6.252 >= pi); steps must be at least 100",
            ),
            (
                "probes",
                {
                    "modes": 16,
                    "geometry": {"kind": "rectangle", "lengths": [1.0, 1.0]},
                    "grid": {"horizon": 1.0, "steps": 4},
                },
                3,
                "steps 4 alias the top mode (mu_M dt = 3.556 >= pi); steps must be at least 5",
            ),
        ],
        ids=[
            "alpha-nan",
            "regularization-nan",
            "regularization-negative",
            "interval-two-lengths",
            "steps-fraction",
            "steps-infinite",
            "modes-fraction",
            "seed-fraction",
            "perturbation-modes-fraction",
            "probes-mode-counts-fraction",
            "spectrum-mode-counts-fraction",
            "nodes-per-face-fraction",
            "b-boolean",
            "horizon-string",
            "horizon-huge-integer",
            "target-norm-nan",
            "target-decay-nan",
            "level-nan",
            "level-string",
            "alpha-boolean",
            "kernel-param-string",
            "kernel-param-boolean",
            "kernel-param-missing",
            "prony-amplitude-string",
            "tone-omega-string",
            "tone-omega-nan",
            "tone-amplitude-boolean",
            "tone-phase-string",
            "target-xi-string",
            "target-xi-nan",
            "target-eta-boolean",
            "geometry-length-string",
            "kernel-family-list",
            "geometry-lengths-scalar",
            "prony-amplitudes-scalar",
            "prony-amplitudes-nested",
            "tone-amplitudes-ragged",
            "tone-omegas-nested",
            "spectrum-mode-counts-scalar",
            "probes-mode-counts-scalar",
            "perturbation-modes-zero",
            "spectrum-mode-counts-negative",
            "probes-mode-counts-zero",
            "budget-modal-tables",
            "budget-control-samples",
            "budget-gram",
            "budget-probes-gram",
            "budget-compactness-matrix",
            "budget-thin-rectangle-modes",
            "budget-rectangle-traces-before-selection",
            "budget-rectangle-traces",
            "budget-maccamy-grid",
            "maccamy-kernel-b",
            "budget-tone-control",
            "modes-boolean",
            "seed-boolean",
            "perturbation-modes-boolean",
            "spectrum-mode-counts-boolean",
            "rectangle-modes-negative",
            "nodes-per-face-zero",
            "kernel-path-number",
            "exponential-rate-negative",
            "prony-rate-negative",
            "control-path-list",
            "control-file-nan-cell",
            "control-file-nan-time",
            "control-file-header-only",
            "aliased-interval-grid",
            "aliased-rectangle-grid",
        ],
    )
    def test_field_values_exit_codes(
        self, tmp_path, monkeypatch, capsys, command, mutation, code, message
    ):
        monkeypatch.chdir(tmp_path)
        for name, text in CONTROL_FILES.items():
            Path(name).write_text(text)
        cfg = write_config(tmp_path, base_config(**mutation))
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == code
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "modes, geometry, least",
        [
            (100, {"kind": "interval", "lengths": [1.0]}, 100),
            (16, {"kind": "rectangle", "lengths": [1.0, 1.0]}, 5),
        ],
        ids=["interval", "rectangle"],
    )
    def test_least_admissible_steps_run(self, tmp_path, capsys, modes, geometry, least):
        # The count an aliased grid's message names runs; one step fewer does not.
        for steps, code in ((least, 0), (least - 1, 3)):
            grid = {"horizon": 1.0, "steps": steps}
            cfg = write_config(tmp_path, base_config(modes=modes, geometry=geometry, grid=grid))
            assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == code
        assert f"steps must be at least {least}" in capsys.readouterr().err

    def test_missing_modes_exits_three(self, tmp_path):
        payload = base_config()
        del payload["modes"]
        cfg = write_config(tmp_path, payload)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 3

    def test_mismatched_target_exits_three(self, tmp_path):
        cfg = write_config(
            tmp_path,
            base_config(modes=2, target={"xi": [1.0], "eta": [0.0]}),
        )
        assert main(["synthesize", "--config", cfg, "--out", str(tmp_path / "out")]) == 3

    def test_verify_reads_its_target_before_the_forward_run(self, tmp_path):
        cfg = write_config(tmp_path, base_config(modes=2, target={"xi": [1.0], "eta": [0.0]}))
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 3
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["simulate", "synthesize", "gram-spectrum", "probes"])
    def test_overflowing_march_exits_four(self, tmp_path, capsys, command):
        # b = 1e6 makes each mode's memory term grow past the float range by T = 10.
        cfg = write_config(
            tmp_path,
            base_config(
                kernel={"b": 1e6},
                grid={"horizon": 10.0, "steps": 2000},
                control={"type": "constant", "level": 1.0},
                target={"xi": [0.1, 0.0], "eta": [0.0, 0.0]},
                mode_counts=[1, 2],
            ),
        )
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 4
        assert "numerical failure: the memory term overflowed" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    @pytest.mark.parametrize(
        "mutation, level",
        [
            # The march stays finite, but the terminal state's squares overflow.
            ({"modes": 4, "kernel": {"b": 1000.0}, "grid": {"horizon": 12.0, "steps": 3000}}, 1.0),
            # The squares of the control samples overflow, and so do the terminal state's.
            ({"kernel": {"b": 0.0}, "grid": {"horizon": 1.0, "steps": 200}}, 1e200),
        ],
        ids=["terminal-state", "control-level"],
    )
    def test_non_finite_summary_value_exits_four(self, tmp_path, capsys, command, mutation, level):
        control = {"type": "constant", "level": level}
        cfg = write_config(tmp_path, base_config(control=control, **mutation))
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "numerical failure" in err and "terminal_norm" in err
        assert list(out.iterdir()) == []

    def test_failed_artifact_write_exits_three_and_leaves_no_file(self, tmp_path, capsys):
        # A directory in the place of velocities.csv fails the second CSV write.
        out = tmp_path / "out"
        (out / "velocities.csv").mkdir(parents=True)
        cfg = write_config(tmp_path, base_config(control={"type": "constant", "level": 1.0}))
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 3
        assert "cannot write artifact velocities.csv" in capsys.readouterr().err
        assert [path.name for path in out.iterdir()] == ["velocities.csv"]
        assert (out / "velocities.csv").is_dir()

    def test_unusable_output_directory_exits_three(self, tmp_path, capsys):
        out = tmp_path / "outfile"
        out.write_text("")
        cfg = write_config(tmp_path, base_config(control={"type": "constant", "level": 1.0}))
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 3
        assert f"error: cannot create output directory '{out}'" in capsys.readouterr().err
        assert out.read_text() == ""

    def test_control_file_on_wrong_grid_exits_three(self, tmp_path):
        synth_cfg = write_config(
            tmp_path,
            base_config(modes=1, grid={"horizon": 2.0, "steps": 400}, target={"xi": [0.1], "eta": [0.0]}),
            name="s.json",
        )
        synth_out = tmp_path / "synth"
        assert main(["synthesize", "--config", synth_cfg, "--out", str(synth_out)]) == 0
        verify_cfg = write_config(
            tmp_path,
            base_config(
                modes=1,
                grid={"horizon": 2.0, "steps": 200},
                control={"type": "file", "path": str(synth_out / "control.csv")},
            ),
            name="v.json",
        )
        assert main(["verify", "--config", verify_cfg, "--out", str(tmp_path / "v")]) == 3

    def test_ill_posed_gram_exits_four(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            base_config(
                modes=8,
                grid={"horizon": 0.05, "steps": 60},
                target={"type": "random-smooth"},
            ),
        )
        with pytest.warns(UserWarning, match="control-time bound"):
            code = main(["synthesize", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 4
        err = capsys.readouterr().err
        assert "numerical failure" in err
        assert "regularization" in err
