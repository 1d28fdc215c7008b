import copy
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from properties import PROPERTY_SETTINGS, models_in_window

import lognls.cli
import lognls.convexity1d
import lognls.evolution
import lognls.groundstate
import lognls.minimize
from lognls.cli import main, run_config, run_sweep, validate_config
from lognls.errors import ConfigError
from lognls.groundstate import POHOZAEV_BOUND
from lognls.grid import ComplexField, Grid
from lognls.model import Family, ModelParams
from lognls.snapshots import format_float, read_snapshot, write_csv, write_snapshot


def read_csv(path) -> tuple[list[str], dict[str, np.ndarray]]:
    """(comments, columns) of a table the package writes: numeric columns as floats."""
    comments, header, data = [], None, []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        if line.startswith("#"):
            comments.append(line[1:].strip())
        elif header is None:
            header = line.split(",")
        else:
            data.append(line.split(","))
    assert header is not None, f"{path}: no header row"
    cols = {}
    for j, name in enumerate(header):
        vals = [row[j] for row in data]
        try:
            cols[name] = np.asarray([float(v) if v else math.nan for v in vals])
        except ValueError:
            cols[name] = np.asarray(vals)
    return comments, cols


def _ground_config(**over):
    cfg = {
        "experiment": "ground",
        "model": {"family": "cubic_log_2d", "lambda": 1.0, "omega": 0.1},
        "outputs": {"csv_path": "profile.csv", "summary_json_path": "summary.json"},
    }
    cfg.update(over)
    return cfg


class TestSnapshotFormat:
    def test_roundtrip_bitexact(self, tmp_path):
        g = Grid(2, 32, 5.0)
        rng = np.random.default_rng(0)
        vals = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        fld = ComplexField(g, vals)
        m = ModelParams(Family.CUBIC_LOG_2D, 1.0, omega=0.1)
        path = tmp_path / "f.nlsf"
        write_snapshot(path, fld, m, t=2.5)
        back, meta = read_snapshot(path)
        assert np.array_equal(back.values, vals)
        assert back.grid == g
        assert meta == {"lam": 1.0, "omega": 0.1, "t": 2.5}

    def test_header_layout(self, tmp_path):
        g = Grid(1, 4, 2.0)
        fld = ComplexField(g, np.arange(4, dtype=complex))
        path = tmp_path / "f.nlsf"
        write_snapshot(path, fld, ModelParams(Family.QUINTIC_LOG_1D, 2.0), t=0.0)
        raw = path.read_bytes()
        assert raw[:4] == b"NLSF"
        assert int.from_bytes(raw[4:8], "little") == 1
        assert int.from_bytes(raw[8:12], "little") == 1  # dim
        assert int.from_bytes(raw[12:16], "little") == 4  # n
        # omega absent -> NaN slot
        _, meta = read_snapshot(path)
        assert meta["omega"] is None

    def test_signed_zeros_roundtrip(self, tmp_path):
        g = Grid(1, 4, 1.0)
        vals = np.array([1.0, -0.0, 0.0, -2.0]) + 0j
        vals.imag = [-0.0, 0.0, -0.0, 3.0]
        model = ModelParams(Family.QUINTIC_LOG_1D, 1.0)
        write_snapshot(tmp_path / "z.nlsf", ComplexField(g, vals), model)
        back, _ = read_snapshot(tmp_path / "z.nlsf")
        assert back.values.tobytes() == vals.tobytes()

    def test_missing_omega_nan_roundtrip(self, tmp_path):
        g = Grid(1, 8, 1.0)
        write_snapshot(tmp_path / "g.nlsf", ComplexField(g, np.zeros(8)), ModelParams(Family.CUBIC_LOG_2D, 0.0))
        _, meta = read_snapshot(tmp_path / "g.nlsf")
        assert meta["omega"] is None and meta["lam"] == 0.0


@st.composite
def _random_fields(draw):
    """A field of seeded complex normal samples on a drawn 1D or 2D grid."""
    g = Grid(draw(st.sampled_from([1, 2])), draw(st.sampled_from([2, 4, 16, 32])),
             draw(st.floats(min_value=1e-3, max_value=1e3)))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    return ComplexField(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


@PROPERTY_SETTINGS
@given(field=_random_fields(), model=models_in_window(tuple(Family)), keep_omega=st.booleans(),
       t=st.floats(allow_nan=False))
def test_snapshot_round_trip_is_exact(field, model, keep_omega, t):
    if not keep_omega:
        model = ModelParams(model.family, model.lam)
    with tempfile.TemporaryDirectory() as tmp:
        write_snapshot(Path(tmp) / "f.nlsf", field, model, t)
        back, meta = read_snapshot(Path(tmp) / "f.nlsf")
    assert back.grid == field.grid
    assert np.array_equal(_bits(back.values.view(float)), _bits(field.values.view(float)))
    assert meta["omega"] == model.omega
    assert np.array_equal(_bits([meta["lam"], meta["t"]]), _bits([model.lam, t]))


@PROPERTY_SETTINGS
@given(rows=st.lists(st.lists(st.floats(allow_nan=False), min_size=3, max_size=3),
                     min_size=1, max_size=8))
def test_csv_round_trip_is_bit_exact(rows):
    with tempfile.TemporaryDirectory() as tmp:
        write_csv(Path(tmp) / "t.csv", ["round trip"], ["a", "b", "c"], rows)
        comments, cols = read_csv(Path(tmp) / "t.csv")
    assert comments == ["round trip"]
    assert np.array_equal(_bits(np.column_stack([cols[k] for k in "abc"])), _bits(rows))


def _snapshot_start_config(path):
    return {
        "experiment": "evolve",
        "model": {"family": "cubic_log_2d", "lambda": 1.0},
        "grid": {"dim": 2, "n": 32, "half_width": 8.0},
        "time": {"dt": 0.001, "t_final": 0.002, "sample_every": 1},
        "initial": {"kind": "snapshot", "path": str(path)},
        "outputs": {"summary_json_path": "s.json"},
    }


def _cut_header(raw):
    return raw[:30]


def _cut_samples(raw):
    return raw[:-16]


def _trailing_byte(raw):
    return raw + b"\0"


def _dim_three(raw):
    return raw[:8] + (3).to_bytes(4, "little") + raw[12:]


def _odd_n(raw):
    return raw[:12] + (31).to_bytes(4, "little") + (31).to_bytes(4, "little") + raw[20:]


def _nan_width(raw):
    return raw[:20] + np.array([np.nan, np.nan], dtype="<f8").tobytes() + raw[36:]


def _bad_magic(raw):
    return b"NLSG" + raw[4:]


def _version_two(raw):
    return raw[:4] + (2).to_bytes(4, "little") + raw[8:]


def _anisotropic_n(raw):
    return raw[:12] + (32).to_bytes(4, "little") + (16).to_bytes(4, "little") + raw[20:]


def _anisotropic_width(raw):
    return raw[:20] + np.array([8.0, 4.0], dtype="<f8").tobytes() + raw[36:]


class TestMalformedSnapshot:
    def _write(self, tmp_path):
        g = Grid(2, 32, 8.0)
        xs = np.meshgrid(g.axis, g.axis, indexing="ij")
        fld = ComplexField(g, np.exp(-(xs[0] ** 2 + xs[1] ** 2) / 2.0))
        path = tmp_path / "start.nlsf"
        write_snapshot(path, fld, ModelParams(Family.CUBIC_LOG_2D, 1.0), t=0.0)
        return path

    def test_well_formed_file_runs(self, tmp_path):
        path = self._write(tmp_path)
        assert run_config(_snapshot_start_config(path), out_dir=str(tmp_path))[0] == 0

    @pytest.mark.parametrize(
        "damage", [_cut_header, _cut_samples, _trailing_byte, _dim_three, _odd_n, _nan_width,
                   _bad_magic, _version_two, _anisotropic_n, _anisotropic_width],
        ids=["shorter_than_header", "short_samples", "trailing_bytes", "dim_3", "odd_n",
             "nan_half_width", "bad_magic", "version_2", "anisotropic_n", "anisotropic_width"],
    )
    def test_malformed_file_is_config_error(self, tmp_path, damage):
        path = self._write(tmp_path)
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(ConfigError):
            read_snapshot(path)
        code, summary = run_config(_snapshot_start_config(path), out_dir=str(tmp_path))
        assert code == 2
        assert summary["error"]["code"] == "ConfigError"
        assert str(path) in summary["error"]["message"]

    @pytest.mark.parametrize("grid", [{"dim": 2, "n": 32, "half_width": 16.0},
                                      {"dim": 2, "n": 64, "half_width": 8.0}],
                             ids=["larger_box", "finer_grid"])
    def test_snapshot_on_another_grid_is_config_error(self, tmp_path, grid):
        # a mismatch, not a box too small: the message names both grids
        config = _with(_snapshot_start_config(self._write(tmp_path)), ("grid",), grid)
        code, summary = run_config(config, out_dir=str(tmp_path))
        _assert_config_error(code, summary)
        message = summary["error"]["message"]
        assert "half_width=8.0" in message and f"half_width={grid['half_width']}" in message
        assert f"n={grid['n']}" in message


class TestCsvFormat:
    def test_seventeen_digit_roundtrip(self, tmp_path):
        values = [math.pi, 1.0 / 3.0, 6.02214076e23, 1e-300]
        path = tmp_path / "t.csv"
        write_csv(path, ["made by test"], ["x"], [[v] for v in values])
        comments, cols = read_csv(path)
        assert comments == ["made by test"]
        assert [float(x) for x in cols["x"]] == values  # bit-exact round trip

    def test_format_float(self):
        assert float(format_float(0.1)) == 0.1
        assert format_float(None) == ""


class TestRunConfig:
    def test_ground_run_artifacts(self, tmp_path):
        code, summary = run_config(_ground_config(), out_dir=str(tmp_path))
        assert code == 0
        assert summary["pass"] is True
        comments, cols = read_csv(tmp_path / "profile.csv")
        assert {"r", "phi", "dphi"} == set(cols)
        assert any(c.startswith("tail_rate:") for c in comments)
        saved = json.loads((tmp_path / "summary.json").read_text())
        assert saved["pass"] is True
        assert saved["metrics"]["mass"] == pytest.approx(3.0443931, rel=1e-6)

    def test_omega_out_of_window_is_config_error(self, tmp_path):
        cfg = _ground_config()
        cfg["model"]["omega"] = 0.9
        code, summary = run_config(cfg, out_dir=str(tmp_path))
        assert code == 2
        assert summary["error"]["code"] == "OmegaOutOfWindow"

    def test_unknown_key_rejected(self, tmp_path):
        cfg = _ground_config()
        cfg["grid_size"] = 12
        code, summary = run_config(cfg, out_dir=str(tmp_path))
        assert code == 2
        assert summary["error"]["code"] == "ConfigError"

    def test_unknown_nested_key_rejected(self, tmp_path):
        cfg = _ground_config()
        cfg["model"]["coupling"] = 2.0
        code, summary = run_config(cfg, out_dir=str(tmp_path))
        assert code == 2
        assert summary["error"]["code"] == "ConfigError"
        assert "coupling" in summary["error"]["message"]

    def test_evolve_run_with_snapshots(self, tmp_path):
        cfg = {
            "experiment": "evolve",
            "model": {"family": "cubic_log_2d", "lambda": 1.0},
            "grid": {"dim": 2, "n": 128, "half_width": 12.0},
            "time": {"dt": 0.005, "t_final": 0.1, "sample_every": 5},
            "initial": {"kind": "gaussian", "amplitude": 1.0, "width": 1.0},
            "outputs": {
                "csv_path": "traj.csv",
                "summary_json_path": "s.json",
                "snapshot_paths": ["end.nlsf"],
                "snapshot_times": [0.1],
            },
        }
        code, summary = run_config(cfg, out_dir=str(tmp_path))
        assert code == 0
        _, cols = read_csv(tmp_path / "traj.csv")
        assert cols["t"][0] == 0.0 and cols["t"][-1] == pytest.approx(0.1)
        assert "h1_bound" in cols
        fld, meta = read_snapshot(tmp_path / "end.nlsf")
        assert meta["t"] == pytest.approx(0.1)
        assert fld.grid.n == 128

    def test_minimize_run(self, tmp_path):
        cfg = {
            "experiment": "minimize",
            "model": {"family": "cubic_log_2d", "lambda": 1.0},
            "grid": {"dim": 2, "n": 128, "half_width": 15.0},
            "rho": 1.0,
            "tol": 1e-5,
            "precondition": True,
            "outputs": {
                "summary_json_path": "m.json",
                "snapshot_paths": ["min.nlsf"],
                "snapshot_times": [0.0],
            },
        }
        code, summary = run_config(cfg, out_dir=str(tmp_path))
        assert code == 0
        metrics = summary["metrics"]
        assert metrics["energy_min"] < 0.0
        # every iteration accepts one line-search trial, after any rejected ones
        assert metrics["line_search_trials"] >= metrics["iterations"] > 0
        assert (tmp_path / "min.nlsf").exists()

    def test_minimize_writes_its_csv_beside_its_snapshot(self, tmp_path):
        outputs = {"csv_path": "point.csv", "summary_json_path": "summary.json",
                   "snapshot_paths": ["min.nlsf"], "snapshot_times": [0.0]}
        code, _ = run_config(_with(_tiny_minimize(), ("outputs",), outputs), out_dir=str(tmp_path))
        assert code == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["min.nlsf", "point.csv", "summary.json"]

    def test_pure_cubic_pseudoconformal_conserves_pc(self, tmp_path):
        code, summary = run_config(_pure_cubic_pseudoconformal(), out_dir=str(tmp_path))
        assert code == 0 and summary["pass"] is True
        assert summary["metrics"]["pc_residual"] <= 1e-4
        _, cols = read_csv(tmp_path / "pc.csv")
        assert cols["pc_quantity"][0] == pytest.approx(0.5 * math.pi, rel=1e-12)


    def test_quintic_ground_run_checks_the_amplitude_below_sqrt_z_omega(self, tmp_path):
        config = _ground_config(model={"family": "quintic_log_1d", "lambda": 1.0, "omega": 0.05})
        code, summary = run_config(config, out_dir=str(tmp_path))
        assert code == 0 and summary["pass"] is True
        metrics = summary["metrics"]
        assert 0.0 < metrics["amplitude"] < metrics["sqrt_z_omega"]
        # the shooter's bracket ends below sqrt(z_omega): a metric, no assertion
        assert "amplitude_below_sqrt_z_omega" not in [a["name"] for a in summary["assertions"]]

    @pytest.mark.parametrize("amplitude", [1.0, 0.0], ids=["gaussian", "zero_field"])
    def test_pure_cubic_evolve_reports_no_bound(self, tmp_path, amplitude):
        # the pure cubic's window edge sup -V/rho is inf: inf in the CSV, null in the JSON
        config = _with(_with(_tiny_evolve(), ("model", "family"), "pure_cubic_2d"),
                       ("initial", "amplitude"), amplitude)
        code, _ = run_config(config, out_dir=str(tmp_path))
        assert code == 0
        saved = json.loads((tmp_path / "summary.json").read_text())
        assert saved["metrics"]["h1_bound"] is None
        _, cols = read_csv(tmp_path / "traj.csv")
        assert np.all(cols["h1_bound"] == math.inf)


class TestSweep:
    def test_singleton_list_matches_run(self, tmp_path):
        sweep_cfg = _ground_config()
        sweep_cfg["model"]["omega"] = [0.1]
        code, agg = run_sweep(sweep_cfg, out_dir=str(tmp_path / "sweep"))
        assert code == 0 and agg["points"] == 1
        run_cfg = _ground_config()
        code2, summary = run_config(run_cfg, out_dir=str(tmp_path / "single"))
        assert code2 == 0
        _, cols = read_csv(tmp_path / "sweep" / "profile.csv".replace(".csv", "_pt000.csv"))
        _, single_cols = read_csv(tmp_path / "single" / "profile.csv")
        assert np.array_equal(cols["phi"], single_cols["phi"])

    def test_failing_point_recorded(self, tmp_path):
        cfg = _ground_config()
        cfg["model"]["omega"] = [0.05, 0.9, 0.2]
        code, agg = run_sweep(cfg, out_dir=str(tmp_path))
        assert code == 1
        assert agg["failures"] == 1
        _, cols = read_csv(tmp_path / "profile.csv")  # aggregate table
        assert list(cols["pass"]) == [1.0, 0.0, 1.0]
        assert cols["error"][1] == "OmegaOutOfWindow"

    def test_no_list_valued_parameter_rejected(self, tmp_path):
        code, agg = run_sweep(_ground_config(), out_dir=str(tmp_path))
        assert code == 2

    def test_empty_swept_list_rejected(self, tmp_path, capsys):
        cfg = _with(_tiny_minimize(), ("rho",), [])
        cfg["outputs"]["csv_path"] = "points.csv"
        code, agg = run_sweep(cfg, out_dir=str(tmp_path / "api"))
        _assert_config_error(code, agg)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert main(["sweep", "--config", str(path), "--out-dir", str(tmp_path / "cli")]) == 2
        assert "error[ConfigError]" in capsys.readouterr().err
        assert not (tmp_path / "api").exists() and not (tmp_path / "cli").exists()

    def test_minimize_sweep_names_each_aggregate_column_once(self, tmp_path):
        # the swept rho is the aggregate's second column; no metric repeats it
        cfg = _with(_with(_tiny_minimize(), ("rho",), [1.0, 2.0]), ("outputs", "csv_path"), "points.csv")
        assert run_sweep(cfg, out_dir=str(tmp_path))[0] == 0
        header = next(line for line in (tmp_path / "points.csv").read_text(encoding="utf-8").splitlines()
                      if not line.startswith("#")).split(",")
        assert header[:2] == ["point", "rho"] and len(set(header)) == len(header), header

    def test_two_list_valued_parameters_rejected(self, tmp_path):
        cfg = _ground_config()
        cfg["model"]["omega"] = [0.1, 0.2]
        cfg["model"]["lambda"] = [1.0, 2.0]
        code, _ = run_sweep(cfg, out_dir=str(tmp_path))
        assert code == 2

    def test_unallocatable_grid_is_a_failed_point(self, tmp_path):
        code, agg = run_sweep(_with(_UNALLOCATABLE, ("initial", "amplitude"), [1.0]),
                              out_dir=str(tmp_path))
        assert (code, agg["failures"]) == (1, 1)
        assert list(read_csv(tmp_path / "traj.csv")[1]["error"]) == ["ConfigError"]
        summary = json.loads((tmp_path / "summary_pt000.json").read_text())
        assert summary["error"]["code"] == "ConfigError"

    def test_null_snapshot_paths_read_as_none(self, tmp_path):
        """A sweep takes "snapshot_paths": null as a run does: no snapshots."""
        cfg = _with(_tiny_evolve(), ("outputs",), {"csv_path": "traj.csv", "snapshot_paths": None,
                                                   "snapshot_times": None})
        assert run_config(cfg, out_dir=str(tmp_path / "run"))[0] == 0
        cfg["initial"]["amplitude"] = [1.0, 0.5]
        code, agg = run_sweep(cfg, out_dir=str(tmp_path / "sweep"))
        assert (code, agg["points"]) == (0, 2)
        assert sorted(p.name for p in (tmp_path / "sweep").iterdir()) == [
            "traj.csv", "traj_pt000.csv", "traj_pt001.csv"]


class TestStabilityGroundState:
    @staticmethod
    def _config():
        return _with(_tiny_stability(), ("grid",), {"dim": 2, "n": 32, "half_width": 16.0})

    def test_solved_once(self, tmp_path, monkeypatch):
        """The run's ground state is solved once, for its initial data and its orbit."""
        calls = []

        def counting(solve):
            def counted(*args, **kwargs):
                calls.append(args)
                return solve(*args, **kwargs)
            return counted

        for module in (lognls.evolution, lognls.cli):
            monkeypatch.setattr(module, "find_ground_state", counting(module.find_ground_state))
        code, summary = run_config(self._config(), out_dir=str(tmp_path))
        assert code == 0 and summary["pass"]
        assert len(calls) == 1


class TestMainEntry:
    @pytest.mark.parametrize("argv", [["run"], ["sweep"], ["run", "--omega", "0.1", "--out", "x"]],
                             ids=["run", "sweep", "run_with_parameter_flags"])
    def test_a_config_file_is_required(self, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert not list(tmp_path.iterdir())

    def test_out_is_no_abbreviation_of_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("c.json").write_text(json.dumps(_ground_config()))
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", "c.json", "--out", "x"])
        assert exc.value.code == 2
        assert not Path("x").exists()

    def test_run_from_file(self, tmp_path):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(_ground_config()))
        assert main(["run", "--config", str(cfg_path), "--out-dir", str(tmp_path)]) == 0

    def test_missing_config_file(self):
        assert main(["run", "--config", "/nonexistent/x.json"]) == 2

    @pytest.mark.parametrize("raw", [b"\xff\xfe{}", b"not json"], ids=["not_utf8", "not_json"])
    def test_unreadable_config_file(self, tmp_path, capsys, raw):
        path = tmp_path / "c.json"
        path.write_bytes(raw)
        assert main(["run", "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err


class TestSweepDeterminism:
    def test_sweep_artifacts_bit_identical(self, tmp_path):
        cfg = _ground_config()
        cfg["model"]["omega"] = [0.05, 0.1]
        import filecmp

        for run in ("a", "b"):
            code, _ = run_sweep(cfg, out_dir=str(tmp_path / run))
            assert code == 0
        fa = sorted(p for p in (tmp_path / "a").rglob("*") if p.is_file())
        fb = sorted(p for p in (tmp_path / "b").rglob("*") if p.is_file())
        assert [p.name for p in fa] == [p.name for p in fb]
        for x, y in zip(fa, fb):
            assert filecmp.cmp(x, y, shallow=False)


class TestSweepMatchesMassSweep:
    def test_omega_sweep_reproduces_mass_table(self, tmp_path):
        from lognls.groundstate import mass_asymptotics_sweep

        cfg = _ground_config()
        cfg["model"]["omega"] = [1e-2, 1e-3]
        code, _ = run_sweep(cfg, out_dir=str(tmp_path))
        assert code == 0
        _, agg = read_csv(tmp_path / "profile.csv")
        rows, _ = mass_asymptotics_sweep(1.0, [1e-2, 1e-3])
        assert list(agg["mass"]) == [r.mass for r in rows]  # same solver, bitwise


def _evolve_config(times, paths=None):
    return {
        "experiment": "evolve",
        "model": {"family": "cubic_log_2d", "lambda": 1.0},
        "grid": {"dim": 2, "n": 64, "half_width": 10.0},
        "time": {"dt": 0.005, "t_final": 0.1, "sample_every": 5},
        "initial": {"kind": "gaussian", "amplitude": 1.0, "width": 1.0},
        "outputs": {
            "summary_json_path": "s.json",
            "snapshot_paths": paths or [f"snap{i}.nlsf" for i in range(len(times))],
            "snapshot_times": times,
        },
    }


class TestSnapshotTimes:
    def test_each_file_holds_its_requested_time(self, tmp_path):
        cfg = _evolve_config([0.1, 0.03], ["late.nlsf", "early.nlsf"])
        assert run_config(cfg, out_dir=str(tmp_path / "both"))[0] == 0
        late, late_meta = read_snapshot(tmp_path / "both" / "late.nlsf")
        early, early_meta = read_snapshot(tmp_path / "both" / "early.nlsf")
        assert (late_meta["t"], early_meta["t"]) == (0.1, 0.03)
        # the same state as a run that stops at t = 0.03
        short = _evolve_config([0.03], ["early.nlsf"])
        short["time"]["t_final"] = 0.03
        assert run_config(short, out_dir=str(tmp_path / "short"))[0] == 0
        alone, _ = read_snapshot(tmp_path / "short" / "early.nlsf")
        assert np.max(np.abs(early.values - alone.values)) <= 1e-14
        assert np.max(np.abs(late.values - alone.values)) > 1e-6

    @pytest.mark.parametrize(
        "times",
        [[0.2], [0.0325], [0.05, 0.05]],
        ids=["past_t_final", "off_the_dt_lattice", "duplicate"],
    )
    def test_unrecordable_times_are_config_errors(self, tmp_path, times):
        code, summary = run_config(_evolve_config(times), out_dir=str(tmp_path))
        assert code == 2
        assert summary["error"]["code"] == "ConfigError"
        assert not list(tmp_path.glob("*.nlsf"))

    def test_snapshots_from_other_experiments_rejected(self, tmp_path):
        cfg = _ground_config()
        cfg["outputs"].update(snapshot_paths=["x.nlsf"], snapshot_times=[0.0])
        assert run_config(cfg, out_dir=str(tmp_path))[0] == 2

    def test_minimize_snapshot_at_zero_stays_valid(self, tmp_path):
        cfg = _with(_tiny_minimize(), ("outputs",), {"summary_json_path": "summary.json",
                                                     "snapshot_paths": ["min.nlsf"],
                                                     "snapshot_times": [0.0]})
        assert run_config(cfg, out_dir=str(tmp_path / "zero"))[0] == 0
        cfg["outputs"]["snapshot_times"] = [0.5]
        code, summary = run_config(cfg, out_dir=str(tmp_path / "half"))
        assert code == 2
        assert summary["error"]["code"] == "ConfigError"


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


_SMALL_GRID = {"dim": 2, "n": 64, "half_width": 12.0}
_SMALL_TIME = {"dt": 5e-3, "t_final": 0.05, "sample_every": 2}
_STRICT_JSON_CONFIGS = {
    "ground": _ground_config(),
    "evolve": _evolve_config([0.05]),
    "stability": {
        "experiment": "stability",
        "model": {"family": "cubic_log_2d", "lambda": 1.0},
        "grid": _SMALL_GRID,
        "time": _SMALL_TIME,
        "initial": {"kind": "ground_state", "omega": 0.2},
        "perturbation": {"kind": "gaussian_bump", "delta": 1e-2, "width": 2.0},
    },
    "minimize": {
        "experiment": "minimize",
        "model": {"family": "cubic_log_2d", "lambda": 1.0},
        "grid": {"dim": 2, "n": 48, "half_width": 10.0},
        "rho": 1.0,
        "tol": 1e-3,
    },
    "sweep_mass": {
        "experiment": "sweep_mass",
        "model": {"family": "cubic_log_2d", "lambda": 1.0},
        "omega_list": [0.1, 0.05],
    },
    "convexity1d": {
        "experiment": "convexity1d",
        "model": {"family": "quintic_log_1d", "lambda": 1.0},
        "omega_grid": [0.05],
    },
    # no blow-up before the deadline: the summary has no time to report
    "contrast_blowup": {
        "experiment": "contrast_blowup",
        "model": {"family": "cubic_log_2d", "lambda": 1.0},
        "grid": _SMALL_GRID,
        "time": _SMALL_TIME,
        "initial": {"kind": "gaussian", "amplitude": 0.5, "width": 1.0},
        "blowup_deadline": 0.05,
    },
    "pseudoconformal": {
        "experiment": "pseudoconformal",
        "model": {"family": "cubic_log_2d", "lambda": 1.0},
        "grid": _SMALL_GRID,
        "time": _SMALL_TIME,
        "initial": {"kind": "ground_state", "omega": 0.2},
        "refine_dt": False,
    },
    "rejected": {"experiment": "ground", "model": {"family": "cubic_log_2d", "lambda": -1.0},
                 "outputs": {}},
}


@pytest.mark.parametrize("name", sorted(_STRICT_JSON_CONFIGS))
def test_summary_is_strict_json(tmp_path, name):
    cfg = json.loads(json.dumps(_STRICT_JSON_CONFIGS[name]))
    cfg["outputs"] = dict(cfg.get("outputs", {}), summary_json_path="summary.json")
    run_config(cfg, out_dir=str(tmp_path))
    text = (tmp_path / "summary.json").read_text(encoding="utf-8")
    summary = json.loads(text, parse_constant=_reject_constant)
    if name == "contrast_blowup":
        assert summary["metrics"]["blowup_time"] is None
        assert summary["metrics"]["blew_up"] is False
        assert summary["pass"] is False


def _tiny_evolve():
    return {
        "experiment": "evolve",
        "model": {"family": "cubic_log_2d", "lambda": 1.0},
        "grid": {"dim": 2, "n": 16, "half_width": 5.0},
        "time": {"dt": 5e-3, "t_final": 1e-2, "sample_every": 1},
        "initial": {"kind": "gaussian", "amplitude": 1.0, "width": 1.0},
        "outputs": {
            "csv_path": "traj.csv",
            "summary_json_path": "summary.json",
            "snapshot_paths": ["end.nlsf"],
            "snapshot_times": [1e-2],
        },
    }


def _tiny_stability():
    return {
        "experiment": "stability",
        "model": {"family": "cubic_log_2d", "lambda": 1.0},
        "grid": {"dim": 2, "n": 16, "half_width": 8.0},
        "time": {"dt": 5e-3, "t_final": 1e-2},
        "initial": {"kind": "ground_state", "omega": 0.2, "center": [0.0, 0.0]},
        "perturbation": {"kind": "fourier_mode", "delta": 1e-2, "mode": [1, 0]},
        "outputs": {"csv_path": "orbit.csv", "summary_json_path": "summary.json"},
    }


def _tiny_bump():
    return _with(_tiny_stability(), ("perturbation",),
                 {"kind": "gaussian_bump", "delta": 1e-2, "width": 2.0, "center": [0.0, 0.0]})


def _tiny_minimize():
    return {
        "experiment": "minimize",
        "model": {"family": "cubic_log_2d", "lambda": 1.0},
        "grid": {"dim": 2, "n": 16, "half_width": 6.0},
        "rho": 1.0,
        "tol": 1e-2,
        "outputs": {"summary_json_path": "summary.json"},
    }


def _tiny_pseudoconformal():
    config = _tiny_evolve()
    config["experiment"] = "pseudoconformal"
    config["outputs"] = {"csv_path": "pc.csv", "summary_json_path": "summary.json"}
    return config


def _pure_cubic_pseudoconformal():
    """The bare CI job's pseudoconformal config: pc is conserved for the L2-critical cubic."""
    return {
        "experiment": "pseudoconformal",
        "model": {"family": "pure_cubic_2d", "lambda": 1.0},
        "grid": {"dim": 2, "n": 32, "half_width": 8.0},
        "time": {"dt": 5e-3, "t_final": 0.1, "sample_every": 5},
        "initial": {"kind": "gaussian", "amplitude": 1.0, "width": 1.0},
        "refine_dt": False,
        "outputs": {"csv_path": "pc.csv", "summary_json_path": "summary.json"},
    }


def _quintic_pseudoconformal():
    """The same on the 1D quintic-log family, whose pc law needs int |u|^6."""
    config = _with(_pure_cubic_pseudoconformal(), ("model", "family"), "quintic_log_1d")
    return _with(config, ("grid", "dim"), 1)


def _with(config, path, value):
    """A copy of config with the section or leaf at ``path`` (keys) set to value."""
    config = copy.deepcopy(config)
    target = config
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return config


def _assert_config_error(code, summary):
    assert code == 2
    assert summary["pass"] is False
    assert summary["error"]["code"] == "ConfigError"


# a value of the wrong JSON type, and the key its error names
_STRICT_TYPE_CASES = {
    "lambda_string": (_with(_tiny_evolve(), ("model", "lambda"), "1"), "model.lambda"),
    "amplitude_bool": (_with(_tiny_evolve(), ("initial", "amplitude"), True), "initial.amplitude"),
    "n_float": (_with(_tiny_evolve(), ("grid", "n"), 16.7), "grid.n"),
    "dim_bool": (_with(_tiny_evolve(), ("grid", "dim"), True), "grid.dim"),
    "sample_every_float": (_with(_tiny_evolve(), ("time", "sample_every"), 2.5), "time.sample_every"),
    "center_string": (_with(_tiny_evolve(), ("initial", "center"), "00"), "initial.center"),
    "mode_float": (_with(_tiny_stability(), ("perturbation", "mode"), [1.5, 0]), "perturbation.mode"),
    "renormalize_string": (
        _with(_tiny_stability(), ("perturbation", "renormalize"), "false"), "perturbation.renormalize"),
    "precondition_string": (_with(_tiny_minimize(), ("precondition",), "false"), "precondition"),
    "refine_dt_string": (_with(_tiny_pseudoconformal(), ("refine_dt",), "false"), "refine_dt"),
    "seed_object": (_with(_tiny_evolve(), ("seed",), {"x": [1, 2]}), "seed"),
    "seed_nan": (_with(_tiny_evolve(), ("seed",), math.nan), "seed"),
}

def _tiny_convexity1d():
    return {
        "experiment": "convexity1d",
        "model": {"family": "quintic_log_1d", "lambda": 1.0},
        "omega_grid": [0.05],
        "outputs": {"summary_json_path": "summary.json"},
    }


def _tiny_sweep_mass():
    return {
        "experiment": "sweep_mass",
        "model": {"family": "cubic_log_2d", "lambda": 1.0},
        "omega_list": [0.1],
        "outputs": {"summary_json_path": "summary.json"},
    }


@pytest.mark.parametrize("config", [_with(_tiny_sweep_mass(), ("omega_list",), [0.05, 0.1]),
                                    _with(_tiny_convexity1d(), ("omega_grid",), [0.07, 0.04])],
                         ids=["sweep_mass", "convexity1d"])
def test_mass_monotonicity_is_read_in_omega_order(tmp_path, config):
    code, summary = run_config(config, out_dir=str(tmp_path))
    assert code == 0 and summary["pass"]


def _requesting_every_output(config, *snapshot_times):
    outputs = {"csv_path": "table.csv", "summary_json_path": "summary.json",
               "snapshot_paths": [f"snap{i}.nlsf" for i in range(len(snapshot_times))],
               "snapshot_times": list(snapshot_times)}
    return _with(config, ("outputs",), outputs)


# a tiny config of each experiment asking for every file it can write
_EVERY_OUTPUT = {
    "ground": _requesting_every_output(_ground_config()),
    "evolve": _requesting_every_output(_tiny_evolve(), 5e-3, 1e-2),
    "stability": _requesting_every_output(
        _with(_tiny_stability(), ("grid",), {"dim": 2, "n": 32, "half_width": 16.0}), 1e-2),
    "minimize": _requesting_every_output(_tiny_minimize(), 0.0),
    "sweep_mass": _requesting_every_output(_tiny_sweep_mass()),
    "convexity1d": _requesting_every_output(_tiny_convexity1d()),
    "contrast_blowup": _requesting_every_output(
        _with(_with(_tiny_evolve(), ("experiment",), "contrast_blowup"), ("blowup_deadline",), 1e-2)),
    "pseudoconformal": _requesting_every_output(_tiny_pseudoconformal()),
}


@pytest.mark.parametrize("config", _EVERY_OUTPUT.values(), ids=list(_EVERY_OUTPUT))
def test_run_writes_exactly_the_requested_files(tmp_path, config):
    code, summary = run_config(config, out_dir=str(tmp_path))
    assert code in (0, 1) and summary["error"] is None
    requested = {"table.csv", "summary.json", *config["outputs"]["snapshot_paths"]}
    if config["experiment"] == "contrast_blowup":
        requested.add("table_purecubic.csv")
    assert {p.name for p in tmp_path.iterdir()} == requested
    for path in config["outputs"]["snapshot_paths"]:
        assert read_snapshot(tmp_path / path)[1]["t"] in config["outputs"]["snapshot_times"]


def _returning(module, name, change):
    """A patch under which ``module.name`` returns change(what it returned)."""
    def patch(monkeypatch):
        solve = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, **kwargs: change(solve(*args, **kwargs)))
    return patch


def _leaking_kernel(monkeypatch):
    """A split step that hands each record its state short by a part in 1e9."""
    run = lognls.evolution.SplitStep.run

    def leaking(self, *args):
        for step, values in run(self, *args):
            yield step, values * (1.0 - 1e-9)
    monkeypatch.setattr(lognls.evolution.SplitStep, "run", leaking)


def _bound_under_the_start(monkeypatch):
    """The a-priori bound of a log family 1 under its initial kinetic energy."""
    bound = lognls.evolution.h1_apriori_bound
    monkeypatch.setattr(lognls.evolution, "h1_apriori_bound", lambda obs, model: (
        bound(obs, model) if model.family.log_power is None else obs.kinetic - 1.0))


def _gaussian_evolve(n, half_width, amplitude, dt, t_final, sample_every=1, **initial):
    """An evolve config of a unit-width Gaussian on the cubic-log family."""
    return {"experiment": "evolve", "model": {"family": "cubic_log_2d", "lambda": 1.0},
            "grid": {"dim": 2, "n": n, "half_width": half_width},
            "time": {"dt": dt, "t_final": t_final, "sample_every": sample_every},
            "initial": {"kind": "gaussian", "amplitude": amplitude, "width": 1.0, **initial}}


def _pohozaev(i, value):
    """A certification whose residual i reads ``value``."""
    return _returning(lognls.groundstate, "pohozaev_residuals",
                      lambda res: (*res[:i], value, *res[i + 1:]))


_UNCERTIFIED = ("IntegratorFailure", "pohozaev certification failed")
_SHORT_CONTRAST = _with(_gaussian_evolve(32, 8.0, 1.0, 5e-3, 0.05, 5), ("experiment",),
                        "contrast_blowup") | {"blowup_deadline": 0.05}
_TOWNES_STABILITY = {
    "experiment": "stability",
    "model": {"family": "pure_cubic_2d", "lambda": 1.0},
    "grid": {"dim": 2, "n": 64, "half_width": 10.0},
    "time": {"dt": 1e-2, "t_final": 3.0},
    "initial": {"kind": "ground_state", "omega": 1.0},
    "perturbation": {"kind": "fourier_mode", "delta": 0.1},
}
_CONVEXITY_PAIR = _with(_tiny_convexity1d(), ("omega_grid",), [0.04, 0.07])

# Every check a run makes, made to fail: {id: (config, patch or None, raised)}.  A summary
# assertion (raised None; its id is its name) exits 1 with only itself failing.  Where no
# config breaks the fact it certifies, the patch breaks the solver that computes its value.
# A check the library makes raises the typed error ``raised`` (code, message start): exit 3.
_FAILING_CHECKS = {
    "tail_rate_ratio": (_ground_config(), _returning(lognls.cli, "find_ground_state", lambda p: (
        dataclasses.replace(p, tail_rate=1.1 * p.tail_rate))), None),
    "energy_drift": (_gaussian_evolve(32, 8.0, 1.5, 1e-2, 0.5, 10), None, None),
    "momentum_drift": (_gaussian_evolve(16, 5.0, 1.0, 1e-2, 0.5, boost=[1.5, 0.0]), None, None),
    # the L2-critical instability the paper contrasts with: Q drifts far off its orbit
    "sup_orbit_distance": (_TOWNES_STABILITY, None, None),
    "mass_constraint": (_tiny_minimize(), _returning(lognls.cli, "minimize_energy", lambda r: (
        dataclasses.replace(r, field=ComplexField(r.field.grid, 1.001 * r.field.values)))), None),
    "mass_strictly_decreasing": (
        _with(_tiny_sweep_mass(), ("omega_list",), [0.1, 0.05]),
        _returning(lognls.groundstate, "radial_observables",
                   lambda obs: dataclasses.replace(obs, mass=-obs.mass)), None),
    "dpp_min": (_tiny_convexity1d(), _returning(lognls.convexity1d, "dpp_forms",
                                                 lambda forms: (-1.0, -1.0)), None),
    "dpp_fd_agreement": (_CONVEXITY_PAIR, _returning(
        lognls.convexity1d, "dpp_forms", lambda forms: tuple(2.0 * f for f in forms)), None),
    "mass_strictly_increasing": (_CONVEXITY_PAIR, _returning(
        lognls.convexity1d, "mass_action_1d", lambda out: (-out[0], *out[1:])), None),
    "blowup_before_deadline": (_SHORT_CONTRAST, None, None),
    "pc_residual": (_with(_gaussian_evolve(16, 5.0, 2.0, 1e-2, 0.1), ("experiment",),
                          "pseudoconformal") | {"refine_dt": False}, None, None),
    # the pure cubic conserves pc to rounding: no halving of dt can gain a factor 3
    "pc_residual_halving_ratio": (_with(_pure_cubic_pseudoconformal(), ("refine_dt",), True),
                                  None, None),
    "pohozaev_rV_above_bound": (_ground_config(), _pohozaev(2, 2.0 * POHOZAEV_BOUND), _UNCERTIFIED),
    "pohozaev_r1_nan": (_ground_config(), _pohozaev(0, math.nan), _UNCERTIFIED),
    "pohozaev_r2_nan": (_ground_config(), _pohozaev(1, math.nan), _UNCERTIFIED),
    "evolve_mass_drift": (_tiny_evolve(), _leaking_kernel, ("ConservationError", "mass drift")),
    "stability_mass_drift": (TestStabilityGroundState._config(), _leaking_kernel,
                             ("ConservationError", "mass drift")),
    "kinetic_above_apriori_bound": (_SHORT_CONTRAST, _bound_under_the_start,
                                    ("ConservationError", "kinetic energy")),
    "minimize_residual": (_tiny_minimize(), lambda mp: mp.setattr(lognls.minimize, "_MAX_ITER", 2),
                          ("MaxIterations", "no convergence to 0.01 within 2 iterations")),
}


@pytest.mark.parametrize("name", _FAILING_CHECKS)
def test_every_check_can_fail(tmp_path, monkeypatch, name):
    config, patch, raised = _FAILING_CHECKS[name]
    if patch is not None:
        patch(monkeypatch)
    outputs = {"csv_path": "table.csv", "summary_json_path": "summary.json"}
    code, summary = run_config(_with(config, ("outputs",), outputs), out_dir=str(tmp_path))
    assert json.loads((tmp_path / "summary.json").read_text())["pass"] is False
    if raised is None:  # the table is written beside the failed claim
        assert code == 1 and summary["error"] is None
        assert [a["name"] for a in summary["assertions"] if not a["pass"]] == [name]
        assert (tmp_path / "table.csv").exists()
    else:
        assert code == 3
        assert summary["error"]["code"] == raised[0]
        assert summary["error"]["message"].startswith(raised[1])


def test_every_summary_assertion_has_a_failing_row():
    asserted = re.findall(r'asserts\.check\("(\w+)"', Path(lognls.cli.__file__).read_text())
    assert sorted(asserted) == sorted(k for k, (_, _, raised) in _FAILING_CHECKS.items()
                                      if raised is None)


def _contrast_outputs(outputs):
    config = _with(_tiny_evolve(), ("experiment",), "contrast_blowup")
    return _with(config, ("outputs",), outputs)


# two outputs of one config that name one file
_COLLIDING_OUTPUTS = {
    "csv_is_summary": _with(_tiny_evolve(), ("outputs", "csv_path"), "summary.json"),
    "two_snapshots_one_file": _with(_evolve_config([0.05, 0.1], ["snap.nlsf", "./snap.nlsf"]),
                                    ("outputs", "summary_json_path"), "summary.json"),
    "purecubic_csv_is_summary": _contrast_outputs(
        {"csv_path": "traj.csv", "summary_json_path": "traj_purecubic.csv"}),
}


@pytest.mark.parametrize("config", _COLLIDING_OUTPUTS.values(), ids=list(_COLLIDING_OUTPUTS))
def test_colliding_outputs_are_config_errors(tmp_path, monkeypatch, config):
    def never(*args, **kwargs):
        raise AssertionError("a config with colliding outputs ran")

    monkeypatch.setattr(lognls.cli, "evolve", never)
    code, summary = run_config(config, out_dir=str(tmp_path))
    _assert_config_error(code, summary)
    assert "both write" in summary["error"]["message"]
    # nothing but the error summary is written
    summary_path = config["outputs"]["summary_json_path"]
    assert [p.name for p in tmp_path.iterdir()] == [summary_path]
    assert json.loads((tmp_path / summary_path).read_text())["error"]["code"] == "ConfigError"


# frequency lists outside the window their experiment solves in (quintic edge 0.119)
_FREQUENCY_LIST_CASES = {
    "omega_grid_past_edge": (_with(_tiny_convexity1d(), ("omega_grid",), [0.2]), "OmegaOutOfWindow"),
    "omega_grid_near_edge": (_with(_tiny_convexity1d(), ("omega_grid",), [0.115]), "OmegaTooCloseToEdge"),
    # the finite-difference neighbour 5e-5 - 1e-4 of the first frequency is negative
    "omega_grid_neighbour_past_edge": (
        _with(_tiny_convexity1d(), ("omega_grid",), [5e-5, 0.05]), "OmegaOutOfWindow"),
    "convexity1d_of_another_family": (
        _with(_tiny_convexity1d(), ("model", "family"), "cubic_log_2d"), "UnsupportedFamily"),
    "omega_list_past_edge": (_with(_tiny_sweep_mass(), ("omega_list",), [0.5]), "OmegaOutOfWindow"),
    "sweep_mass_of_another_family": (
        _with(_tiny_sweep_mass(), ("model", "family"), "quintic_log_1d"), "UnsupportedFamily"),
    "omega_grid_repeated": (_with(_tiny_convexity1d(), ("omega_grid",), [0.05, 0.05]),
                            "ConfigError"),
    "omega_list_repeated": (_with(_tiny_sweep_mass(), ("omega_list",), [0.1, 0.1]), "ConfigError"),
}

# the tiny config of each experiment that reads no model frequency: all but ground
_TINY_BUT_GROUND = {
    "evolve": _tiny_evolve(),
    "stability": _tiny_stability(),
    "minimize": _tiny_minimize(),
    "sweep_mass": _tiny_sweep_mass(),
    "convexity1d": _tiny_convexity1d(),
    "contrast_blowup": _contrast_outputs({"summary_json_path": "summary.json"}),
    "pseudoconformal": _tiny_pseudoconformal(),
}

# a 2D n = 2**23 mesh takes 512 TiB, past a 47-bit user address space, so numpy's request
# fails before any page is touched; the per-axis arrays made first take about 64 MB each
_UNALLOCATABLE = _with(_tiny_evolve(), ("grid", "n"), 2**23)

# a magnitude whose square, cell volume, largest wavenumber or radial box floats cannot
# carry, refused where its key is read, and the key its message names
_MAGNITUDE_CASES = {
    "gaussian_width_overflows": (_with(_tiny_evolve(), ("initial", "width"), 1e300), "width"),
    "gaussian_width_squares_to_zero": (_with(_tiny_evolve(), ("initial", "width"), 1e-200),
                                       "width"),
    # 2 width^2 is subnormal: the profile's quotient by it would overflow
    "gaussian_width_square_subnormal": (_with(_tiny_evolve(), ("initial", "width"), 1e-160),
                                        "width"),
    "grid_cell_overflows": (_with(_tiny_evolve(), ("grid", "half_width"), 1e300), "half_width"),
    "grid_wavenumber_overflows": (_with(_tiny_evolve(), ("grid", "half_width"), 1e-200),
                                  "half_width"),
    # r_max = 40/sqrt(2 omega) cubes to inf, and to 0 at omega = 1e300
    "ground_tail_divides_by_zero": (
        _ground_config(model={"family": "cubic_log_2d", "lambda": 1e-300, "omega": 1e-301}),
        "model.omega"),
    "ground_box_cube_underflows": (
        _ground_config(model={"family": "pure_cubic_2d", "lambda": 1.0, "omega": 1e300}),
        "model.omega"),
    "stability_tail_divides_by_zero": (
        _with(_with(_tiny_stability(), ("model", "lambda"), 1e-300), ("initial", "omega"), 1e-301),
        "initial.omega"),
}

# initial data whose t = 0 gradient norm already crosses the collapse threshold: a
# Gaussian the grid cannot resolve, and a resolved one of amplitude 1000 (3.1e6 > 1e6)
_PAST_THRESHOLD_AT_T0 = {
    "initial_unresolved_by_the_grid": _with(_tiny_evolve(), ("grid", "half_width"), 1e150),
    "initial_past_the_ceiling": _with(
        _with(_tiny_evolve(), ("grid",), {"dim": 2, "n": 64, "half_width": 8.0}),
        ("initial", "amplitude"), 1000.0),
    # the pure-cubic half of a contrast run does not "blow up" at t = 0
    "contrast_initial_past_the_ceiling": _with(
        _contrast_outputs({"summary_json_path": "summary.json"}), ("initial", "amplitude"), 1000.0),
}

# a well-typed value out of range, and the error code of its exit 2
_OUT_OF_RANGE_CASES = {
    **_FREQUENCY_LIST_CASES,
    "omega_negative": (_with(_tiny_stability(), ("initial", "omega"), -1.0), "OmegaOutOfWindow"),
    "omega_zero": (_with(_tiny_stability(), ("initial", "omega"), 0.0), "OmegaOutOfWindow"),
    "omega_past_edge": (_with(_tiny_stability(), ("initial", "omega"), 0.31), "OmegaOutOfWindow"),
    "lambda_zero": (_with(_tiny_stability(), ("model", "lambda"), 0.0), "OmegaOutOfWindow"),
    "gaussian_width_zero": (_with(_tiny_evolve(), ("initial", "width"), 0.0), "ConfigError"),
    "gaussian_width_negative": (_with(_tiny_evolve(), ("initial", "width"), -1.0), "ConfigError"),
    "grid_dim_of_another_family": (_with(_tiny_evolve(), ("grid", "dim"), 1), "ConfigError"),
    "minimize_grid_dim_of_another_family": (_with(_tiny_minimize(), ("grid", "dim"), 1),
                                            "ConfigError"),
    "initial_center_short": (_with(_tiny_evolve(), ("initial", "center"), [1.0]), "ConfigError"),
    "initial_boost_long": (_with(_tiny_stability(), ("initial", "boost"), [0.1, 0.0, 0.0]),
                           "ConfigError"),
    "perturbation_center_short": (_with(_tiny_bump(), ("perturbation", "center"), [0.0]),
                                  "ConfigError"),
    "perturbation_mode_long": (_with(_tiny_stability(), ("perturbation", "mode"), [1, 1, 1]),
                               "ConfigError"),
    "perturbation_mode_aliased": (_with(_tiny_stability(), ("perturbation", "mode"), [9, 0]),
                                  "ConfigError"),
    "perturbation_width_zero": (_with(_tiny_bump(), ("perturbation", "width"), 0.0), "ConfigError"),
    "perturbation_width_negative": (_with(_tiny_bump(), ("perturbation", "width"), -2.0),
                                    "ConfigError"),
    "perturbation_delta_zero": (_with(_tiny_stability(), ("perturbation", "delta"), 0.0),
                                "ConfigError"),
    "perturbation_delta_negative": (_with(_tiny_bump(), ("perturbation", "delta"), -1e-2),
                                    "ConfigError"),
    "grid_too_small": (_with(_tiny_stability(), ("grid", "half_width"), 1.0), "GridTooSmall"),
    "precondition_false": (_with(_tiny_minimize(), ("precondition",), False), "ConfigError"),
    "minimize_of_pure_cubic": (_with(_tiny_minimize(), ("model", "family"), "pure_cubic_2d"),
                               "UnsupportedFamily"),
    "pseudoconformal_of_quintic": (_quintic_pseudoconformal(), "UnsupportedFamily"),
    "stability_of_gaussian_initial_data": (_with(_tiny_stability(), ("initial",), {"kind": "gaussian"}),
                                           "ConfigError"),
    "grid_unallocatable": (_UNALLOCATABLE, "ConfigError"),
    **{name: (config, "ConfigError") for name, (config, _) in _MAGNITUDE_CASES.items()},
    **{name: (config, "ConfigError") for name, config in _PAST_THRESHOLD_AT_T0.items()},
    "stability_without_perturbation": (_with(_tiny_stability(), ("perturbation",), None),
                                       "ConfigError"),
    "contrast_of_pure_cubic": (
        _with(_contrast_outputs({"summary_json_path": "summary.json"}), ("model", "family"),
              "pure_cubic_2d"), "UnsupportedFamily"),
    "minimize_lambda_zero": (_with(_tiny_minimize(), ("model", "lambda"), 0), "ConfigError"),
    "ground_without_omega": (_ground_config(model={"family": "cubic_log_2d", "lambda": 1.0}),
                             "MissingOmega"),
}


class TestMalformedConfig:
    @pytest.mark.parametrize("value", [None, [1, 2], "gaussian"], ids=["null", "list", "string"])
    def test_initial_section_not_an_object(self, tmp_path, value):
        cfg = _with(_tiny_evolve(), ("initial",), value)
        _assert_config_error(*run_config(cfg, out_dir=str(tmp_path)))
        saved = json.loads((tmp_path / "summary.json").read_text())
        assert saved["error"]["code"] == "ConfigError"

    def test_empty_perturbation_is_read_not_dropped(self, tmp_path):
        # null is no perturbation; {} is a perturbation missing its keys
        assert run_config(_with(_tiny_evolve(), ("perturbation",), None),
                          out_dir=str(tmp_path / "null"))[0] == 0
        code, summary = run_config(_with(_tiny_evolve(), ("perturbation",), {}),
                                   out_dir=str(tmp_path / "empty"))
        _assert_config_error(code, summary)
        assert "missing key 'perturbation.kind'" in summary["error"]["message"]

    def test_sweep_of_a_non_object(self, tmp_path):
        _assert_config_error(*run_sweep([1, 2], out_dir=str(tmp_path)))

    def test_sweep_with_non_string_csv_path(self, tmp_path):
        cfg = _with(_tiny_minimize(), ("rho",), [1.0, 2.0])
        cfg["outputs"]["csv_path"] = 5
        _assert_config_error(*run_sweep(cfg, out_dir=str(tmp_path)))
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("half_width", [math.nan, math.inf, -5.0])
    def test_grid_half_width_out_of_range(self, tmp_path, half_width):
        cfg = _with(_tiny_evolve(), ("grid", "half_width"), half_width)
        _assert_config_error(*run_config(cfg, out_dir=str(tmp_path)))
        assert not (tmp_path / "traj.csv").exists()

    @pytest.mark.parametrize("rho", [0.0, -1.0, math.nan])
    def test_minimize_rho_out_of_range(self, tmp_path, monkeypatch, rho):
        def never(*args, **kwargs):
            raise AssertionError("the minimizer ran on a rejected config")

        monkeypatch.setattr(lognls.cli, "minimize_energy", never)
        code, summary = run_config(_with(_tiny_minimize(), ("rho",), rho), out_dir=str(tmp_path))
        _assert_config_error(code, summary)
        assert "rho" in summary["error"]["message"]

    def test_unknown_perturbation_kind_before_ground_state(self, tmp_path, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("the ground state was solved for a rejected config")

        for module in (lognls.cli, lognls.evolution):
            monkeypatch.setattr(module, "find_ground_state", never)
        cfg = _with(_tiny_stability(), ("perturbation", "kind"), "sine_wave")
        code, summary = run_config(cfg, out_dir=str(tmp_path))
        _assert_config_error(code, summary)
        assert "sine_wave" in summary["error"]["message"]

    @pytest.mark.parametrize(
        "path, value",
        [
            (("initial",), {"kind": "snapshot", "path": "missing.nlsf"}),
            (("outputs", "csv_path"), "."),
            (("outputs", "summary_json_path"), "."),
            (("grid", "n"), math.inf),
            (("time", "dt"), 0),
        ],
        ids=["missing_snapshot_file", "csv_path_is_a_directory", "summary_path_is_a_directory",
             "infinite_n", "zero_dt_with_snapshots"],
    )
    def test_other_malformed_values(self, tmp_path, monkeypatch, path, value):
        monkeypatch.chdir(tmp_path)
        _assert_config_error(*run_config(_with(_tiny_evolve(), path, value), out_dir="."))

    @pytest.mark.parametrize("experiment, key", [("sweep_mass", "omega_list"),
                                                 ("convexity1d", "omega_grid")])
    def test_empty_frequency_list(self, tmp_path, experiment, key):
        cfg = {"experiment": experiment, "model": {"family": "quintic_log_1d", "lambda": 1.0},
               key: []}
        code, summary = run_config(cfg, out_dir=str(tmp_path))
        _assert_config_error(code, summary)
        assert key in summary["error"]["message"]

    @pytest.mark.parametrize(
        "command, config, code",
        [
            ("run", _with(_tiny_evolve(), ("initial",), None), "ConfigError"),
            ("run", _with(_tiny_evolve(), ("initial",), [1, 2]), "ConfigError"),
            ("sweep", [1, 2], "ConfigError"),
            ("sweep", _with(_with(_tiny_minimize(), ("rho",), [1.0]), ("outputs", "csv_path"), 5),
             "ConfigError"),
            ("run", _with(_tiny_evolve(), ("grid", "half_width"), math.nan), "ConfigError"),
            ("run", _with(_tiny_minimize(), ("rho",), 0.0), "ConfigError"),
            ("run", _with(_tiny_stability(), ("perturbation", "kind"), "sine_wave"), "ConfigError"),
        ]
        + [("run", config, "ConfigError") for config, _ in _STRICT_TYPE_CASES.values()]
        + [("run", config, code) for config, code in _OUT_OF_RANGE_CASES.values()],
        ids=["run_initial_null", "run_initial_list", "sweep_list", "sweep_csv_path_number",
             "run_nan_half_width", "run_zero_rho", "run_unknown_perturbation_kind"]
        + [f"run_{name}" for name in (*_STRICT_TYPE_CASES, *_OUT_OF_RANGE_CASES)],
    )
    def test_command_line_exits_2(self, tmp_path, capsys, command, config, code):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        assert main([command, "--config", str(path), "--out-dir", str(tmp_path)]) == 2
        assert f"error[{code}]" in capsys.readouterr().err

    @pytest.mark.parametrize("config, key", _STRICT_TYPE_CASES.values(), ids=list(_STRICT_TYPE_CASES))
    def test_value_of_the_wrong_json_type(self, tmp_path, monkeypatch, config, key):
        def never(*args, **kwargs):
            raise AssertionError("a rejected config ran")

        for name in ("evolve", "find_ground_state", "minimize_energy"):
            monkeypatch.setattr(lognls.cli, name, never)
        monkeypatch.setattr(lognls.evolution, "find_ground_state", never)
        code, summary = run_config(config, out_dir=str(tmp_path))
        _assert_config_error(code, summary)
        assert key in summary["error"]["message"]

    @pytest.mark.parametrize("config, code", _OUT_OF_RANGE_CASES.values(), ids=list(_OUT_OF_RANGE_CASES))
    def test_parameter_out_of_range(self, tmp_path, config, code):
        exit_code, summary = run_config(config, out_dir=str(tmp_path))
        assert exit_code == 2
        assert summary["error"]["code"] == code
        assert json.loads((tmp_path / "summary.json").read_text())["error"]["code"] == code

    @pytest.mark.parametrize("config, key", _MAGNITUDE_CASES.values(), ids=list(_MAGNITUDE_CASES))
    def test_magnitude_refused_where_its_key_is_read(self, tmp_path, monkeypatch, config, key):
        def never(*args, **kwargs):
            raise AssertionError("an evolution or a shot ran on a magnitude floats cannot carry")

        monkeypatch.setattr(lognls.cli, "evolve", never)
        monkeypatch.setattr(lognls.groundstate, "_integrate_radial", never)
        code, summary = run_config(config, out_dir=str(tmp_path))
        _assert_config_error(code, summary)
        assert key in summary["error"]["message"]

    @pytest.mark.parametrize("config", _PAST_THRESHOLD_AT_T0.values(),
                             ids=list(_PAST_THRESHOLD_AT_T0))
    def test_initial_data_past_the_threshold_name_their_keys(self, tmp_path, config):
        code, summary = run_config(config, out_dir=str(tmp_path))
        _assert_config_error(code, summary)
        assert "metrics" not in summary
        message = summary["error"]["message"]
        assert "grid.n" in message and "grid.half_width" in message and "initial" in message

    def test_window_checked_before_the_ground_state(self, tmp_path, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("the ground state was solved for a rejected config")

        for module in (lognls.cli, lognls.evolution):
            monkeypatch.setattr(module, "find_ground_state", never)
        config, code = _OUT_OF_RANGE_CASES["omega_past_edge"]
        assert run_config(config, out_dir=str(tmp_path))[1]["error"]["code"] == code


    @pytest.mark.parametrize("sample_every", [3, 10], ids=["off_the_lattice", "two_records"])
    def test_pseudoconformal_sampling_checked_before_work(self, tmp_path, monkeypatch,
                                                          sample_every):
        def never(*args, **kwargs):
            raise AssertionError("an evolution ran that cannot give the residual")

        monkeypatch.setattr(lognls.cli, "evolve", never)
        time = {"dt": 5e-3, "t_final": 0.05, "sample_every": sample_every}
        code, summary = run_config(_with(_tiny_pseudoconformal(), ("time",), time),
                                   out_dir=str(tmp_path))
        _assert_config_error(code, summary)
        assert "sample_every" in summary["error"]["message"]

    def test_pseudoconformal_family_checked_before_work(self, tmp_path, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("an evolution ran whose pc law the record lacks")

        monkeypatch.setattr(lognls.cli, "evolve", never)
        code, summary = run_config(_quintic_pseudoconformal(), out_dir=str(tmp_path))
        assert code == 2
        assert summary["error"]["code"] == "UnsupportedFamily"
        assert "quintic_log_1d" in summary["error"]["message"]

    def test_contrast_deadline_checked_before_work(self, tmp_path, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("an evolution ran to a deadline off the dt lattice")

        monkeypatch.setattr(lognls.cli, "evolve", never)
        config = _with(_tiny_evolve(), ("experiment",), "contrast_blowup")
        config["outputs"] = {"summary_json_path": "summary.json"}
        config["time"] = {"dt": 3e-3, "t_final": 0.03}  # the default deadline 5.0 is off it
        code, summary = run_config(config, out_dir=str(tmp_path))
        _assert_config_error(code, summary)
        assert "blowup_deadline" in summary["error"]["message"]

    @pytest.mark.parametrize("config, code", _FREQUENCY_LIST_CASES.values(),
                             ids=list(_FREQUENCY_LIST_CASES))
    def test_frequency_list_checked_before_work(self, tmp_path, monkeypatch, config, code):
        def never(*args, **kwargs):
            raise AssertionError("a rejected frequency list ran")

        for name in ("dpp_forms", "mass_action_1d"):
            monkeypatch.setattr(lognls.convexity1d, name, never)
        monkeypatch.setattr(lognls.groundstate, "find_ground_state", never)
        exit_code, summary = run_config(config, out_dir=str(tmp_path))
        assert exit_code == 2
        assert summary["error"]["code"] == code

    @pytest.mark.parametrize("name", sorted(_TINY_BUT_GROUND))
    def test_model_omega_is_a_key_of_ground_alone(self, tmp_path, monkeypatch, name):
        def never(*args, **kwargs):
            raise AssertionError("an experiment ran on a model.omega it does not read")

        assert set(_TINY_BUT_GROUND) == set(lognls.cli.EXPERIMENTS) - {"ground"}
        spec = lognls.cli.EXPERIMENTS[name]
        monkeypatch.setitem(lognls.cli.EXPERIMENTS, name, spec._replace(run=never))
        config = _with(_TINY_BUT_GROUND[name], ("model", "omega"), 0.1)
        code, summary = run_config(config, out_dir=str(tmp_path))
        _assert_config_error(code, summary)
        assert summary["error"]["message"] == "unknown key(s) ['omega'] in model"

    @pytest.mark.parametrize("config", [_with(_ground_config(), ("tol",), 1e-7),
                                        _with(_tiny_sweep_mass(), ("tol",), 1e-9)],
                             ids=["ground", "sweep_mass"])
    def test_the_pohozaev_bound_is_no_config_key(self, tmp_path, config):
        code, summary = run_config(config, out_dir=str(tmp_path))
        _assert_config_error(code, summary)
        assert summary["error"]["message"] == "unknown key(s) ['tol'] in top level"


_FUZZ_BASES = {
    "evolve": _tiny_evolve(),
    "stability": _tiny_stability(),
    "minimize": _tiny_minimize(),
}


def _paths(obj, prefix=()):
    """Every section and leaf of a config (lists count as leaves), the root first."""
    yield prefix
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _paths(value, prefix + (key,))


_ODD_JSON = st.one_of(
    st.none(),
    st.lists(st.integers(-3, 3), max_size=3),
    st.text(alphabet="abgx_0", max_size=6),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.floats(min_value=-1e6, max_value=-1e-6),
    st.integers(-10**6, -1),
)


@st.composite
def fuzzed_configs(draw):
    """A tiny valid config with one section or leaf replaced by odd JSON, or an unknown key."""
    base = _FUZZ_BASES[draw(st.sampled_from(sorted(_FUZZ_BASES)))]
    path = draw(st.sampled_from(list(_paths(base))))
    if draw(st.booleans()):
        target = base
        for key in path:
            target = target[key]
        if isinstance(target, dict):
            return _with(base, path + ("unknown_key",), draw(_ODD_JSON))
    return draw(_ODD_JSON) if not path else _with(base, path, draw(_ODD_JSON))


@settings(PROPERTY_SETTINGS, max_examples=200)
@given(config=fuzzed_configs())
def test_fuzzed_config_never_raises(config):
    for entry in (run_config, run_sweep):
        with tempfile.TemporaryDirectory() as out:
            code, summary = entry(copy.deepcopy(config), out_dir=out)
        assert code in (0, 1, 2, 3)
        assert isinstance(summary, dict)


_README_CONFIGS = re.findall(r"```json\n(.*?)```",
                             (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8"),
                             re.S)


@pytest.mark.parametrize("text", _README_CONFIGS,
                         ids=[json.loads(t)["experiment"] for t in _README_CONFIGS])
def test_readme_configs_are_valid(tmp_path, text):
    config = validate_config(json.loads(text))
    lognls.cli._parse(config)
    if config["experiment"] == "ground":  # the minimal example runs end to end
        path = tmp_path / "ground.json"
        path.write_text(text, encoding="utf-8")
        assert main(["run", "--config", str(path), "--out-dir", str(tmp_path / "out")]) == 0
        assert json.loads((tmp_path / "out" / "summary.json").read_text())["pass"] is True


def _env_with_src():
    """The environment with this checkout's ``src`` first on PYTHONPATH, for a child process."""
    src = str(Path(lognls.cli.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}


def test_runtime_imports_no_scipy(tmp_path):
    """Every solver runs on numpy alone: scipy is only the tests' independent oracle."""
    stability = _with(_tiny_stability(), ("grid",), {"dim": 2, "n": 32, "half_width": 16.0})
    configs = [_tiny_evolve(), stability, _ground_config(), _tiny_minimize(), _tiny_convexity1d()]
    script = (
        "import json, sys\n"
        "from lognls.cli import run_config\n"
        "configs, out = json.loads(sys.argv[1]), sys.argv[2]\n"
        "codes = [run_config(c, out_dir=f'{out}/{i}')[0] for i, c in enumerate(configs)]\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "print(json.dumps({'codes': codes, 'scipy': loaded}))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(configs), str(tmp_path)],
                          capture_output=True, text=True, env=_env_with_src(), timeout=600)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report == {"codes": [0] * len(configs), "scipy": []}


def test_sweep_mass_at_a_tiny_coupling_stops_at_the_radial_box(tmp_path, monkeypatch):
    """The cubic-log box r_max = 40/sqrt(2e-301) of an omega_list entry is refused where
    the sweep builds its models: before the Townes shot, so no shot and no warning."""
    shoot, families = lognls.groundstate._integrate_radial, []

    def recording(model, *args):
        families.append(model.family)
        return shoot(model, *args)

    monkeypatch.setattr(lognls.groundstate, "_integrate_radial", recording)
    config = _with(_with(_tiny_sweep_mass(), ("model", "lambda"), 1e-300), ("omega_list",), [1e-301])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, summary = run_config(config, out_dir=str(tmp_path))
    assert [str(w.message) for w in caught] == []
    _assert_config_error(code, summary)
    assert summary["error"]["message"].startswith("omega_list: ")
    assert "radial box" in summary["error"]["message"]
    assert families == []


def test_nan_shooting_step_fails_fast(tmp_path):
    """At omega = 1e300 the first force is inf - inf: the NaN step ends the shot, not the run.

    ``find_ground_state`` refuses that omega before its first shot (its radial box cubes
    to 0), so the run exits 2; the shot itself is taken directly.
    """
    config = _ground_config(model={"family": "pure_cubic_2d", "lambda": 1.0, "omega": 1e300})
    path = tmp_path / "ground.json"
    path.write_text(json.dumps(config))
    script = ("import sys\nfrom lognls.cli import main\n"
              "from lognls.errors import IntegratorFailure\n"
              "from lognls.groundstate import _integrate_radial\n"
              "from lognls.model import Family, ModelParams, positive_G_zero\n"
              "model = ModelParams(Family.PURE_CUBIC_2D, 1.0, 1e300)\n"
              "try:\n"
              "    _integrate_radial(model, positive_G_zero(model), False)\n"
              "except IntegratorFailure as exc:\n"
              "    print(f'shot: {exc}')\n"
              "sys.exit(main(['run', '--config', sys.argv[1], '--out-dir', sys.argv[2]]))\n")
    proc = subprocess.run([sys.executable, "-c", script, str(path), str(tmp_path / "out")],
                          capture_output=True, text=True, env=_env_with_src(), timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert "shot: step size nan under the floor" in proc.stdout
    assert "error[ConfigError]" in proc.stderr and "model.omega" in proc.stderr
    assert "Traceback" not in proc.stderr
