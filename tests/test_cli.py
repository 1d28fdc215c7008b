import copy
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from properties import PROPERTY_SETTINGS, models_in_window

import lognls.cli
from lognls.cli import main, run_config, run_sweep, validate_config
from lognls.errors import ConfigError
from lognls.grid import ComplexField, Grid
from lognls.model import Family, ModelParams
from lognls.snapshots import format_float, read_csv, read_snapshot, write_csv, write_snapshot


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
        "damage", [_cut_header, _cut_samples, _trailing_byte, _dim_three, _odd_n, _nan_width],
        ids=["shorter_than_header", "short_samples", "trailing_bytes", "dim_3", "odd_n",
             "nan_half_width"],
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

    def test_unknown_nested_key_rejected(self):
        cfg = _ground_config()
        cfg["model"]["coupling"] = 2.0
        with pytest.raises(ConfigError):
            validate_config(cfg)

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
        assert summary["metrics"]["energy_min"] < 0.0
        assert (tmp_path / "min.nlsf").exists()


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

    def test_two_list_valued_parameters_rejected(self, tmp_path):
        cfg = _ground_config()
        cfg["model"]["omega"] = [0.1, 0.2]
        cfg["tol"] = [1e-6, 1e-7]
        code, _ = run_sweep(cfg, out_dir=str(tmp_path))
        assert code == 2


class TestMainEntry:
    def test_config_flag_conflict(self, tmp_path):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(_ground_config()))
        assert main(["run", "--config", str(cfg_path), "--omega", "0.1"]) == 2

    def test_quick_run(self, tmp_path):
        out = tmp_path / "quick"
        assert main(["run", "--lambda", "1.0", "--omega", "0.2", "--out", str(out)]) == 0
        assert (tmp_path / "quick.csv").exists()

    def test_run_from_file(self, tmp_path):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(_ground_config()))
        assert main(["run", "--config", str(cfg_path), "--out-dir", str(tmp_path)]) == 0

    def test_missing_config_file(self):
        assert main(["run", "--config", "/nonexistent/x.json"]) == 2


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
        cfg["tol"] = 1e-9
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

    def test_minimize_snapshot_at_zero_stays_valid(self):
        cfg = {
            "experiment": "minimize",
            "model": {"family": "cubic_log_2d", "lambda": 1.0},
            "grid": {"dim": 2, "n": 32, "half_width": 8.0},
            "rho": 1.0,
            "outputs": {"snapshot_paths": ["min.nlsf"], "snapshot_times": [0.0]},
        }
        validate_config(cfg)
        cfg["outputs"]["snapshot_times"] = [0.5]
        with pytest.raises(ConfigError):
            validate_config(cfg)


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


# frequency lists outside the window their experiment solves in (quintic edge 0.119)
_FREQUENCY_LIST_CASES = {
    "omega_grid_past_edge": (_with(_tiny_convexity1d(), ("omega_grid",), [0.2]), "OmegaOutOfWindow"),
    "omega_grid_near_edge": (_with(_tiny_convexity1d(), ("omega_grid",), [0.115]), "OmegaTooCloseToEdge"),
    "omega_grid_neighbour_past_edge": (
        _with(_with(_tiny_convexity1d(), ("omega_grid",), [0.05, 0.1]), ("fd_delta",), 0.05),
        "OmegaOutOfWindow"),
    "convexity1d_of_another_family": (
        _with(_tiny_convexity1d(), ("model", "family"), "cubic_log_2d"), "ConfigError"),
    "omega_list_past_edge": (_with(_tiny_sweep_mass(), ("omega_list",), [0.5]), "OmegaOutOfWindow"),
    "sweep_mass_of_another_family": (
        _with(_tiny_sweep_mass(), ("model", "family"), "quintic_log_1d"), "ConfigError"),
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
    "initial_center_short": (_with(_tiny_evolve(), ("initial", "center"), [1.0]), "ConfigError"),
    "initial_boost_long": (_with(_tiny_stability(), ("initial", "boost"), [0.1, 0.0, 0.0]),
                           "ConfigError"),
    "perturbation_center_short": (_with(_tiny_bump(), ("perturbation", "center"), [0.0]),
                                  "ConfigError"),
    "perturbation_mode_long": (_with(_tiny_stability(), ("perturbation", "mode"), [1, 1, 1]),
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
}


class TestMalformedConfig:
    @pytest.mark.parametrize("value", [None, [1, 2], "gaussian"], ids=["null", "list", "string"])
    def test_initial_section_not_an_object(self, tmp_path, value):
        cfg = _with(_tiny_evolve(), ("initial",), value)
        _assert_config_error(*run_config(cfg, out_dir=str(tmp_path)))
        saved = json.loads((tmp_path / "summary.json").read_text())
        assert saved["error"]["code"] == "ConfigError"

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

        monkeypatch.setattr(lognls.cli, "find_ground_state", never)
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
        code, summary = run_config(config, out_dir=str(tmp_path))
        _assert_config_error(code, summary)
        assert key in summary["error"]["message"]

    @pytest.mark.parametrize("config, code", _OUT_OF_RANGE_CASES.values(), ids=list(_OUT_OF_RANGE_CASES))
    def test_parameter_out_of_range(self, tmp_path, config, code):
        exit_code, summary = run_config(config, out_dir=str(tmp_path))
        assert exit_code == 2
        assert summary["error"]["code"] == code
        assert json.loads((tmp_path / "summary.json").read_text())["error"]["code"] == code

    def test_window_checked_before_the_ground_state(self, tmp_path, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("the ground state was solved for a rejected config")

        monkeypatch.setattr(lognls.cli, "find_ground_state", never)
        config, code = _OUT_OF_RANGE_CASES["omega_past_edge"]
        assert run_config(config, out_dir=str(tmp_path))[1]["error"]["code"] == code


    @pytest.mark.parametrize("config, code", _FREQUENCY_LIST_CASES.values(),
                             ids=list(_FREQUENCY_LIST_CASES))
    def test_frequency_list_checked_before_work(self, tmp_path, monkeypatch, config, code):
        def never(*args, **kwargs):
            raise AssertionError("a rejected frequency list ran")

        for name in ("action_convexity_scan", "mass_asymptotics_sweep"):
            monkeypatch.setattr(lognls.cli, name, never)
        exit_code, summary = run_config(config, out_dir=str(tmp_path))
        assert exit_code == 2
        assert summary["error"]["code"] == code


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
