"""Experiment harness: JSON configs in, deterministic CSV/JSON/NLSF artifacts out.

Exit codes: 0 all assertions pass, 1 assertion failure, 2 config error,
3 numerical failure.  Artifacts never embed wall-clock times or absolute
paths, so consecutive runs of one config are byte-identical.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import math
import operator
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import grid as _grid
from .convexity1d import action_convexity_scan, curvature_model
from .errors import BlowUpDetected, ConfigError, LogNLSError
from .evolution import (
    H1_BOUND_SLACK,
    MASS_DRIFT_TOL,
    EvolutionConfig,
    GaussianInit,
    GroundStateInit,
    Perturbation,
    SnapshotInit,
    evolve,
    pc_identity_rhs,
    pseudoconformal_residual,
)
from .groundstate import (
    find_ground_state,
    mass_asymptotics_sweep,
    radial_observables,
)
from .minimize import minimize_energy
from .model import Family, ModelParams, stationary_amplitude
from .snapshots import format_float, write_csv, write_snapshot

# ---------------------------------------------------------------------------
# config schema: the keys of "grid", "initial" (per kind) and "perturbation"
# are the init fields of the dataclasses they build; the top-level keys of
# each experiment are its entry in EXPERIMENTS, after the runners
# ---------------------------------------------------------------------------

_INITIAL_KINDS = {"ground_state": GroundStateInit, "gaussian": GaussianInit,
                  "snapshot": SnapshotInit}
_MODEL_KEYS = {"family", "lambda", "omega"}
_OUTPUT_KEYS = {"csv_path", "summary_json_path", "snapshot_paths", "snapshot_times"}
_COMMON_KEYS = {"experiment", "model", "outputs", "seed"}


def _of_type(kind, what: str):
    """Converter accepting only a JSON value of type ``kind``: a bool is no number."""
    def convert(value):
        if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
            raise ConfigError(f"{value!r} is not {what}")
        return value
    return convert


_integer = _of_type(int, "an integer")
_boolean = _of_type(bool, "true or false")
_string = _of_type(str, "a string")
_numeric = _of_type((int, float), "a number")


def _number(value) -> float:
    x = float(_numeric(value))
    if not math.isfinite(x):
        raise ConfigError(f"{value!r} is not a finite number")
    return x


def _positive(value) -> float:
    x = _number(value)
    if not x > 0:
        raise ConfigError(f"must be positive, got {value!r}")
    return x


def _precondition(value):
    if value is not None and value is not True:
        raise ConfigError(f"{value!r} is not true or null: plain descent was removed")
    return value


def _tuple_of(convert):
    """Converter of a JSON array of ``convert`` items; null or [] reads as None."""
    def read(value):
        if value is None:
            return None
        if not isinstance(value, list):
            raise ConfigError(f"{value!r} is not a list")
        return tuple(map(convert, value)) or None
    return read


def _read(convert, value, where: str):
    """convert(value), any failure a ConfigError that names the key."""
    try:
        return convert(value)
    except (OverflowError, TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _read_keys(schema: dict, section: dict, where: str = "") -> dict:
    """Each key of ``schema`` {key: (converter, default)} read once from ``section``.

    A missing key takes its default; with none (``dataclasses.MISSING``) it is an error.
    """
    values = {}
    for key, (convert, default) in schema.items():
        name = f"{where}.{key}" if where else key
        if key in section:
            values[key] = _read(convert, section[key], name)
        elif default is dataclasses.MISSING:
            raise ConfigError(f"missing key {name!r}")
        else:
            values[key] = default
    return values


# config value -> dataclass field value, by the field's annotation
_CONVERT = {
    "int": _integer,
    "float": _number,
    "bool": _boolean,
    "str": _string,
    "tuple[float, ...] | None": _tuple_of(_number),
    "tuple[int, ...] | None": _tuple_of(_integer),
}

# {dataclass: {key: (converter, default)}} for each section that builds one; made at
# import, so a field whose annotation _CONVERT lacks fails here, not as a config error
_SCHEMA = {
    cls: {f.name: (_CONVERT[f.type], f.default) for f in dataclasses.fields(cls) if f.init}
    for cls in (_grid.Grid, *_INITIAL_KINDS.values(), Perturbation)
}
# the "time" section, read into the EvolutionConfig fields of the same names
_TIME = {"dt": (_number, dataclasses.MISSING), "t_final": (_number, dataclasses.MISSING),
         "sample_every": (_integer, 1)}


def _from_section(cls, section: dict, where: str):
    """The dataclass ``cls`` built from a section whose keys are its init fields."""
    return cls(**_read_keys(_SCHEMA[cls], section, where))


# lists that are values in their own right, never swept: tuple fields and these
_INHERENT_LISTS = {
    ("omega_list",),
    ("omega_grid",),
    ("outputs", "snapshot_paths"),
    ("outputs", "snapshot_times"),
} | {
    (name, f.name)
    for name, classes in (("initial", _INITIAL_KINDS.values()), ("perturbation", [Perturbation]))
    for cls in classes
    for f in dataclasses.fields(cls)
    if f.type.startswith("tuple")
}


def _section(config: dict, name: str, allowed: set | None = None) -> dict:
    """config[name], checked to be a JSON object (with only allowed keys, if given)."""
    if name not in config:
        raise ConfigError(f"missing '{name}' section")
    section = config[name]
    if not isinstance(section, dict):
        raise ConfigError(f"'{name}' must be a JSON object, got {section!r}")
    if allowed is not None:
        _check_keys(section, allowed, name)
    return section


def _check_keys(section: dict, allowed: set, where: str):
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")


def _outputs(config: dict) -> dict:
    """The outputs section, checked: path strings and numeric snapshot times."""
    outputs = _section(config, "outputs", _OUTPUT_KEYS) if "outputs" in config else {}
    for key in ("csv_path", "summary_json_path"):
        if outputs.get(key) is not None:
            _read(_string, outputs[key], f"outputs.{key}")
    paths = outputs.get("snapshot_paths", [])
    times = outputs.get("snapshot_times", [])
    if not isinstance(paths, list) or not isinstance(times, list):
        raise ConfigError("snapshot_paths and snapshot_times must be lists")
    if len(paths) != len(times):
        raise ConfigError("snapshot_paths and snapshot_times must have equal length")
    for p, t in zip(paths, times):
        _read(_string, p, "outputs.snapshot_paths")
        _read(_number, t, "outputs.snapshot_times")
    return outputs


def validate_config(config: dict) -> dict:
    """Check a config's structure: JSON objects, known keys and kinds (``_parse`` reads values)."""
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    exp = config.get("experiment")
    if not isinstance(exp, str) or exp not in EXPERIMENTS:
        raise ConfigError(f"experiment must be one of {tuple(EXPERIMENTS)}, got {exp!r}")
    spec = EXPERIMENTS[exp]
    _check_keys(config, _COMMON_KEYS | set(spec.sections) | spec.scalars.keys(), "top level")
    _section(config, "model", _MODEL_KEYS)
    for name, allowed in (("grid", _SCHEMA[_grid.Grid].keys()), ("time", _TIME.keys())):
        if name in config:
            _section(config, name, allowed)
    if "initial" in config:
        kind = _section(config, "initial").get("kind")
        if not isinstance(kind, str) or kind not in _INITIAL_KINDS:
            raise ConfigError(f"initial.kind must be one of {sorted(_INITIAL_KINDS)}")
        _check_keys(config["initial"], {"kind"} | _SCHEMA[_INITIAL_KINDS[kind]].keys(), "initial")
    if config.get("perturbation") is not None:
        _section(config, "perturbation", _SCHEMA[Perturbation].keys())
    # an evolution's snapshot times are checked against its dt lattice by EvolutionConfig
    times = _outputs(config).get("snapshot_times", [])
    writes = spec.snapshot_times
    if writes is not None and times and times != list(writes):
        raise ConfigError(f"the {exp} experiment writes snapshots only at times {list(writes)}"
                          if writes else f"the {exp} experiment writes no snapshots")
    config.setdefault("seed", 0)
    return config


def _model(section: dict) -> ModelParams:
    omega = section.get("omega")
    return ModelParams(
        Family(section["family"]),
        _read(_number, section["lambda"], "model.lambda"),
        None if omega is None else _read(_number, omega, "model.omega"),
    )


def _parse(config: dict) -> dict:
    """The typed "model", "grid", "evolution" and scalar keys of a validated config.

    Every value is read once, and checked, before any numerical work starts.
    """
    spec = EXPERIMENTS[config["experiment"]]
    typed = _read_keys(spec.scalars, config)
    model = typed["model"] = _model(config["model"])
    if "grid" in spec.sections:
        typed["grid"] = _from_section(_grid.Grid, _section(config, "grid"), "grid")
        if typed["grid"].dim != model.dim:
            raise ConfigError(f"grid.dim {typed['grid'].dim} differs from the "
                              f"{model.family.value} dimension {model.dim}")
    if "time" in spec.sections:
        evolution = typed["evolution"] = _evolution_config(config, model, typed["grid"])
        if isinstance(evolution.initial, GroundStateInit):
            model.with_omega(evolution.initial.omega)  # checks the window
        _check_axes(evolution, typed["grid"].dim)
    for key in _LIST_FAMILY.keys() & typed.keys():
        _check_frequencies(config["experiment"], key, typed)
    return typed


def _check_axes(evolution: EvolutionConfig, dim: int):
    """Each tuple field of the initial data and the perturbation has one entry per axis."""
    for name in ("initial", "perturbation"):
        section = getattr(evolution, name)
        for f in dataclasses.fields(section) if section is not None else ():
            value = getattr(section, f.name)
            if isinstance(value, tuple) and len(value) != dim:
                raise ConfigError(f"{name}.{f.name} has {len(value)} entries, not grid.dim {dim}")


# the one family each frequency-list experiment computes on
_LIST_FAMILY = {"omega_list": Family.CUBIC_LOG_2D, "omega_grid": Family.QUINTIC_LOG_1D}


def _check_frequencies(experiment: str, key: str, typed: dict):
    """Each frequency of the list ``typed[key]`` checked against the window it is solved in.

    ``omega_grid`` keeps the convexity scan's 5% edge margin, and with more than one
    point its finite-difference neighbours omega +- ``fd_delta`` lie in the window too.
    """
    omegas, model = typed[key], typed["model"]
    if not omegas:
        raise ConfigError(f"{key} needs at least one frequency")
    family = _LIST_FAMILY[key]
    if model.family is not family:
        raise ConfigError(f"{experiment} computes on {family.value}, not {model.family.value}")
    for omega in omegas:
        if key == "omega_list":
            model.with_omega(omega)  # checks the window
            continue
        curvature_model(model.with_omega(omega))  # the window and its 5% edge margin
        if len(omegas) > 1:  # the finite-difference neighbours
            model.with_omega(omega - typed["fd_delta"])
            model.with_omega(omega + typed["fd_delta"])


def _evolution_config(config: dict, model: ModelParams, grid: _grid.Grid) -> EvolutionConfig:
    """The evolution a config asks for; runners vary it with dataclasses.replace."""
    initial = _section(config, "initial")
    pert = config.get("perturbation")
    return EvolutionConfig(
        model=model,
        grid=grid,
        **_read_keys(_TIME, _section(config, "time"), "time"),
        initial=_from_section(_INITIAL_KINDS[initial["kind"]], initial, "initial"),
        perturbation=_from_section(Perturbation, pert, "perturbation") if pert else None,
        snapshot_times=tuple(float(t) for t in config.get("outputs", {}).get("snapshot_times", [])),
    )


def _strict_json(obj):
    """The summary with every non-finite float as null: JSON has no inf or nan."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, dict):
        return {k: _strict_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict_json(v) for v in obj]
    return obj


def _write_summary(path, summary: dict):
    text = json.dumps(_strict_json(summary), indent=2, sort_keys=True, allow_nan=False)
    Path(path).write_text(text + "\n", encoding="utf-8")


def _writable(path: Path) -> Path:
    """``path``, its directory made; a directory or an unwritable place raises."""
    if path.is_dir():
        raise ConfigError(f"output path {path} is a directory")
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _resolve_outputs(config: dict, out_dir: str | None) -> dict:
    base = Path(out_dir or ".")
    outputs = config.get("outputs", {})
    resolved = {key: _writable(base / outputs[key])
                for key in ("csv_path", "summary_json_path") if outputs.get(key)}
    resolved["snapshots"] = [
        (_writable(base / p), float(t))
        for p, t in zip(outputs.get("snapshot_paths", []), outputs.get("snapshot_times", []))
    ]
    return resolved


def _flatten(prefix: str, obj, into: list):
    if isinstance(obj, dict):
        for k in sorted(obj):
            _flatten(f"{prefix}.{k}" if prefix else str(k), obj[k], into)
    else:
        into.append(f"{prefix}: {json.dumps(obj)}")


def provenance(config: dict) -> list[str]:
    lines: list[str] = []
    _flatten("", config, lines)
    return lines


class Assertions:
    def __init__(self):
        self.items: list[dict] = []

    _COMPARE = {"<=": operator.le, ">=": operator.ge, "<": operator.lt, ">": operator.gt,
                "==": operator.eq}

    def check(self, name: str, value, threshold, comparator: str = "<="):
        ok = self._COMPARE[comparator](value, threshold)
        self.items.append(
            {
                "name": name,
                "value": value,
                "threshold": threshold,
                "comparator": comparator,
                "pass": bool(ok),
            }
        )
        return ok

    @property
    def all_pass(self) -> bool:
        return all(item["pass"] for item in self.items)


def _trajectory_rows(traj, dim: int):
    header = ["t", "mass", "energy", "kinetic", "potential", "px", "py", "quartic", "h1_bound"]
    if traj.orbit_distances is not None:
        header.append("orbit_distance")
    if traj.pc_quantity is not None:
        header.append("pc_quantity")
    rows = []
    for i, (t, s) in enumerate(zip(traj.times, traj.samples)):
        px = s.momentum[0]
        py = s.momentum[1] if dim == 2 else 0.0
        row = [t, s.mass, s.energy, s.kinetic, s.potential, px, py, s.quartic, traj.h1_bound]
        if traj.orbit_distances is not None:
            row.append(traj.orbit_distances[i])
        if traj.pc_quantity is not None:
            row.append(traj.pc_quantity[i])
        rows.append(row)
    return header, rows


# ---------------------------------------------------------------------------
# experiment runners
# ---------------------------------------------------------------------------


def _run_ground(config, typed, outputs, asserts: Assertions):
    model = typed["model"]
    if model.omega is None:
        raise ConfigError("ground experiment requires model.omega")
    profile = find_ground_state(model, tol=typed["tol"])
    obs = radial_observables(profile)
    r1, r2, rv = profile.residuals
    asserts.check("pohozaev_r1", abs(r1), 1e-6)
    asserts.check("pohozaev_r2", abs(r2), 1e-6)
    asserts.check("pohozaev_rV", abs(rv), 1e-6)
    kappa = math.sqrt(2.0 * model.omega)
    asserts.check("tail_rate_ratio", abs(profile.tail_rate / kappa - 1.0), 0.05)
    metrics = {
        "amplitude": profile.center_value,
        "mass": obs.mass,
        "energy": obs.energy,
        "action": obs.action,
        "tail_rate": profile.tail_rate,
        "pohozaev_r1": r1,
        "pohozaev_r2": r2,
        "pohozaev_rV": rv,
    }
    if model.family is Family.CUBIC_LOG_2D:
        sqz = stationary_amplitude(model)
        asserts.check("amplitude_below_sqrt_z_omega", profile.center_value, sqz, "<")
        metrics["sqrt_z_omega"] = sqz
    if outputs.get("csv_path"):
        comments = provenance(config) + [
            f"tail_rate: {format_float(profile.tail_rate)}",
            f"tail_coeff: {format_float(profile.tail_coeff)}",
        ]
        rows = zip(profile.r_nodes, profile.values, profile.derivs)
        write_csv(outputs["csv_path"], comments, ["r", "phi", "dphi"], rows)
    return metrics


def _run_evolve(config, typed, outputs, asserts: Assertions):
    model, g = typed["model"], typed["grid"]
    traj = evolve(typed["evolution"])
    asserts.check("mass_drift", traj.mass_drift, MASS_DRIFT_TOL)
    asserts.check("energy_drift", traj.energy_drift, 1e-6)
    asserts.check("momentum_drift", traj.momentum_drift, 1e-9)
    _write_traj(config, outputs, traj, g, model)
    return {
        "mass_drift": traj.mass_drift,
        "energy_drift": traj.energy_drift,
        "momentum_drift": traj.momentum_drift,
        "h1_bound": traj.h1_bound,
        "sup_kinetic": max(s.kinetic for s in traj.samples),
    }


def _write_traj(config, outputs, traj, g, model, suffix=""):
    if outputs.get("csv_path"):
        path = outputs["csv_path"]
        if suffix:
            path = path.with_name(path.stem + suffix + path.suffix)
        header, rows = _trajectory_rows(traj, g.dim)
        write_csv(path, provenance(config), header, rows)
    for snap_path, snap_t in outputs["snapshots"]:
        write_snapshot(snap_path, traj.snapshots[snap_t], model, snap_t)


def _run_stability(config, typed, outputs, asserts: Assertions):
    model, g, cfg = typed["model"], typed["grid"], typed["evolution"]
    if not isinstance(cfg.initial, GroundStateInit):
        raise ConfigError("stability experiment requires ground_state initial data")
    if cfg.perturbation is None:
        raise ConfigError("stability experiment requires a perturbation")
    reference = find_ground_state(model.with_omega(cfg.initial.omega))
    traj = evolve(dataclasses.replace(cfg, reference=reference, track_orbit=True))
    sup_dist = max(traj.orbit_distances)
    asserts.check("sup_orbit_distance", sup_dist, 10.0 * cfg.perturbation.delta)
    asserts.check("mass_drift", traj.mass_drift, MASS_DRIFT_TOL)
    _write_traj(config, outputs, traj, g, model)
    return {
        "sup_orbit_distance": sup_dist,
        "initial_orbit_distance": traj.orbit_distances[0],
        "mass_drift": traj.mass_drift,
        "energy_drift": traj.energy_drift,
    }


def _run_minimize(config, typed, outputs, asserts: Assertions):
    model, g = typed["model"], typed["grid"]
    rho, tol = typed["rho"], typed["tol"]
    res = minimize_energy(rho, g, model, tol=tol)
    mass = _grid.integrate(g, np.abs(res.field.values) ** 2)
    asserts.check("residual", res.residual, tol)
    asserts.check("mass_constraint", abs(mass - rho) / rho, 1e-12)
    if outputs["snapshots"]:
        write_snapshot(outputs["snapshots"][0][0], res.field, model, 0.0)
    elif outputs.get("csv_path"):
        # fall back to a 1-row CSV so the experiment always leaves an artifact
        write_csv(
            outputs["csv_path"],
            provenance(config),
            ["rho", "energy", "lagrange_omega", "residual", "iterations"],
            [[rho, res.energy, res.lagrange_omega, res.residual, float(res.iterations)]],
        )
    return {
        "rho": rho,
        "energy_min": res.energy,
        "lagrange_omega": res.lagrange_omega,
        "residual": res.residual,
        "iterations": res.iterations,
    }


def _mass_rises_with_omega(rows) -> float:
    """1.0 if the masses strictly increase with omega, read in omega order, not list order."""
    by_omega = sorted(rows, key=lambda r: r.omega)
    return float(all(a.mass < b.mass for a, b in zip(by_omega, by_omega[1:])))


def _run_sweep_mass(config, typed, outputs, asserts: Assertions):
    rows, mass_q = mass_asymptotics_sweep(typed["model"].lam, typed["omega_list"],
                                          tol=typed["tol"])
    masses = [r.mass for r in rows]
    if len(masses) > 1:  # decreasing along decreasing omega
        asserts.check("mass_strictly_decreasing", _mass_rises_with_omega(rows), 1.0, ">=")
    if outputs.get("csv_path"):
        comments = provenance(config) + [f"mass_Q: {format_float(mass_q)}"]
        write_csv(
            outputs["csv_path"],
            comments,
            ["omega", "mass", "ratio", "ratio_log"],
            [[r.omega, r.mass, r.ratio, r.ratio_log] for r in rows],
        )
    return {
        "mass_Q": mass_q,
        "first_mass": masses[0],
        "last_mass": masses[-1],
        "n_points": len(rows),
    }


def _run_convexity1d(config, typed, outputs, asserts: Assertions):
    rows = action_convexity_scan(typed["model"], typed["omega_grid"], delta=typed["fd_delta"])
    asserts.check("dpp_min", min(r.dpp_quad for r in rows), 0.0, ">")
    fd_rel = [
        abs(r.dpp_fd / r.dpp_quad - 1.0) for r in rows if r.dpp_fd is not None
    ]
    if fd_rel:
        asserts.check("dpp_fd_agreement", max(fd_rel), 0.01)
    if len(rows) > 1:
        asserts.check("mass_strictly_increasing", _mass_rises_with_omega(rows), 1.0, ">=")
    if outputs.get("csv_path"):
        table = [
            [r.omega, r.dpp_quad, r.dpp_simplified,
             "" if r.dpp_fd is None else r.dpp_fd, r.mass, r.action]
            for r in rows
        ]
        write_csv(
            outputs["csv_path"],
            provenance(config),
            ["omega", "dpp_quad", "dpp_simplified", "dpp_fd", "mass", "action"],
            table,
        )
    return {
        "dpp_min": min(r.dpp_quad for r in rows),
        "dpp_max": max(r.dpp_quad for r in rows),
        "n_points": len(rows),
    }


def _run_contrast(config, typed, outputs, asserts: Assertions):
    model, g, cfg = typed["model"], typed["grid"], typed["evolution"]
    if model.family is not Family.CUBIC_LOG_2D:
        raise ConfigError("contrast_blowup compares against the 2D cubic-log family")
    deadline = typed["blowup_deadline"]

    cubic = ModelParams(Family.PURE_CUBIC_2D, model.lam)
    cfg_cubic = dataclasses.replace(cfg, model=cubic, t_final=deadline, check_invariants=False)
    blowup_time = math.inf
    try:
        traj_cubic = evolve(cfg_cubic)
    except BlowUpDetected as exc:
        blowup_time = exc.time
        traj_cubic = exc.trajectory
    asserts.check("blowup_before_deadline", blowup_time, deadline, "<")

    traj_log = evolve(cfg)
    sup_kin = max(s.kinetic for s in traj_log.samples)
    asserts.check("kinetic_below_apriori_bound", sup_kin, traj_log.h1_bound + H1_BOUND_SLACK)
    _write_traj(config, outputs, traj_log, g, model)
    _write_traj(config, outputs, traj_cubic, g, cubic, suffix="_purecubic")
    blew_up = math.isfinite(blowup_time)
    return {
        "blowup_time": blowup_time if blew_up else None,
        "blew_up": blew_up,
        "sup_kinetic_log": sup_kin,
        "h1_bound": traj_log.h1_bound,
    }


def _run_pseudoconformal(config, typed, outputs, asserts: Assertions):
    model, g, cfg = typed["model"], typed["grid"], typed["evolution"]

    def one(dt, sample_every):
        traj = evolve(dataclasses.replace(cfg, dt=dt, sample_every=sample_every, monitor_pc=True))
        return traj, pseudoconformal_residual(traj, model)

    traj, residual = one(cfg.dt, cfg.sample_every)
    rhs0 = float(pc_identity_rhs(traj, model)[0])
    asserts.check("pc_residual", residual, 1e-4)
    asserts.check("pc_rhs_zero_at_t0", rhs0, 0.0, "==")
    metrics = {"pc_residual": residual, "pc_rhs_t0": rhs0}
    if typed["refine_dt"]:
        _, residual_half = one(cfg.dt / 2.0, cfg.sample_every * 2)
        ratio = residual / residual_half
        asserts.check("pc_residual_halving_ratio", ratio, 3.0, ">=")
        metrics["pc_residual_half_dt"] = residual_half
        metrics["pc_residual_ratio"] = ratio
    _write_traj(config, outputs, traj, g, model)
    return metrics


class _Experiment(NamedTuple):
    run: Callable
    sections: tuple[str, ...]  # top-level sections beside "model" and "outputs"
    scalars: dict  # top-level key -> (converter, default; dataclasses.MISSING if required)
    snapshot_times: tuple | None = ()  # the snapshots it writes; None: any on the dt lattice


_EVOLVING = ("grid", "time", "initial")
_REQUIRED_FREQUENCIES = (_tuple_of(_number), dataclasses.MISSING)

# the one table of experiments; a runner reads its values from ``typed``, so a
# default never enters the config that summaries and CSV headers echo
EXPERIMENTS = {
    "ground": _Experiment(_run_ground, (), {"tol": (_positive, 1e-7)}),
    "evolve": _Experiment(_run_evolve, (*_EVOLVING, "perturbation"), {}, None),
    "stability": _Experiment(_run_stability, (*_EVOLVING, "perturbation"), {}, None),
    "minimize": _Experiment(_run_minimize, ("grid",), {
        "rho": (_positive, dataclasses.MISSING), "tol": (_positive, 1e-6),
        "precondition": (_precondition, None)}, (0.0,)),
    "sweep_mass": _Experiment(_run_sweep_mass, (), {
        "omega_list": _REQUIRED_FREQUENCIES, "tol": (_positive, 1e-9)}),
    "convexity1d": _Experiment(_run_convexity1d, (), {
        "omega_grid": _REQUIRED_FREQUENCIES, "fd_delta": (_positive, 1e-4)}),
    "contrast_blowup": _Experiment(_run_contrast, _EVOLVING, {"blowup_deadline": (_positive, 5.0)}),
    "pseudoconformal": _Experiment(_run_pseudoconformal, _EVOLVING, {"refine_dt": (_boolean, True)}),
}


# what a malformed config can raise, beside the package's own errors
_FAULTS = (LogNLSError, KeyError, OSError, TypeError, ValueError)


def _error(exc: Exception) -> dict:
    """A summary's error entry: package errors by type, anything else as a config error."""
    code = type(exc).__name__ if isinstance(exc, LogNLSError) else "ConfigError"
    return {"code": code, "message": str(exc)}


def run_config(config: dict, out_dir: str | None = None) -> tuple[int, dict]:
    """Validate, execute, write artifacts; returns (exit_code, summary)."""
    try:
        config = validate_config(copy.deepcopy(config))
        typed = _parse(config)
        outputs = _resolve_outputs(config, out_dir)
    except _FAULTS as exc:
        summary = {"pass": False, "error": _error(exc)}
        try:
            failed_outputs = _resolve_outputs(config if isinstance(config, dict) else {}, out_dir)
            if failed_outputs.get("summary_json_path"):
                _write_summary(failed_outputs["summary_json_path"], summary)
        except Exception:
            pass
        return 2, summary

    summary = {"experiment": config["experiment"], "config": config}
    asserts = Assertions()
    code = 0
    try:
        metrics = EXPERIMENTS[config["experiment"]].run(config, typed, outputs, asserts)
        summary["metrics"] = metrics
        summary["error"] = None
    except _FAULTS as exc:
        summary["error"] = _error(exc)
        code = 3 if isinstance(exc, LogNLSError) and not isinstance(exc, ConfigError) else 2
    summary["assertions"] = asserts.items
    summary["pass"] = asserts.all_pass and summary["error"] is None
    if code == 0 and not summary["pass"]:
        code = 1
    if outputs.get("summary_json_path"):
        _write_summary(outputs["summary_json_path"], summary)
    return code, summary


# ---------------------------------------------------------------------------
# parameter sweeps
# ---------------------------------------------------------------------------

def _find_swept_leaf(obj, prefix=()):
    found = []
    if isinstance(obj, dict):
        for k, v in obj.items():
            found.extend(_find_swept_leaf(v, prefix + (k,)))
    elif isinstance(obj, list) and prefix not in _INHERENT_LISTS:
        found.append(prefix)
    return found


def _set_leaf(obj, path, value):
    for key in path[:-1]:
        obj = obj[key]
    obj[path[-1]] = value


def _get_leaf(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def _numbered(path: str, i: int) -> str:
    p = Path(path)
    return str(p.with_name(f"{p.stem}_pt{i:03d}{p.suffix}"))


def _sweep_point(base: dict, leaf: tuple, value, i: int) -> dict:
    """The config of point i: ``value`` at the swept leaf, output files numbered."""
    point = copy.deepcopy(base)
    _set_leaf(point, leaf, value)
    pout = point.setdefault("outputs", {})
    for key in ("csv_path", "summary_json_path"):
        if pout.get(key):
            pout[key] = _numbered(pout[key], i)
    pout["snapshot_paths"] = [_numbered(p, i) for p in pout.get("snapshot_paths", [])]
    return point


def run_sweep(config: dict, out_dir: str | None = None) -> tuple[int, dict]:
    """One run per value of the config's single list-valued parameter, plus an aggregate CSV."""
    try:
        if not isinstance(config, dict):
            raise ConfigError("config must be a JSON object")
        base = copy.deepcopy(config)
        leaves = _find_swept_leaf(base)
        if len(leaves) != 1:
            raise ConfigError(
                f"sweep needs exactly one list-valued parameter, found {len(leaves)}"
            )
        leaf = leaves[0]
        aggregate_csv = _outputs(base).get("csv_path")
        if not aggregate_csv:
            raise ConfigError("sweep requires outputs.csv_path for the aggregate table")
        values = _get_leaf(base, leaf)
        if not values:
            raise ConfigError(f"the swept list {'.'.join(leaf)} is empty")
        points = [_sweep_point(base, leaf, value, i) for i, value in enumerate(values)]
        agg_path = _writable(Path(out_dir or ".") / aggregate_csv)
    except _FAULTS as exc:
        return 2, {"pass": False, "error": _error(exc)}

    results = []
    metric_keys: list[str] = []
    for value, point in zip(values, points):
        code, summary = run_config(point, out_dir)
        results.append((value, code, summary))
        if code == 0 and not metric_keys:
            metric_keys = sorted(
                k for k, v in summary.get("metrics", {}).items()
                if isinstance(v, (int, float))
            )

    header = ["point", ".".join(leaf), "pass", "error"] + metric_keys
    rows = []
    for i, (value, code, summary) in enumerate(results):
        err = summary.get("error")
        row = [
            float(i),
            value if isinstance(value, (int, float)) else json.dumps(value),
            1.0 if (code == 0) else 0.0,
            err["code"] if err else "",
        ]
        metrics = summary.get("metrics", {})
        row.extend(metrics.get(k, "") for k in metric_keys)
        rows.append(row)
    write_csv(agg_path, provenance(config), header, rows)
    exit_code = 0 if all(code == 0 for _, code, _ in results) else 1
    return exit_code, {
        "pass": exit_code == 0,
        "points": len(results),
        "failures": sum(1 for _, code, _ in results if code != 0),
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_QUICK_FLAGS = ("lam", "omega", "n", "half_width", "dt", "t_final", "out")


def _quick_config(args) -> dict:
    if args.out is None:
        raise ConfigError("quick runs need --out PREFIX for artifacts")
    experiment = args.experiment or "ground"
    model = {"family": "cubic_log_2d", "lambda": args.lam if args.lam is not None else 1.0}
    if args.omega is not None:
        model["omega"] = args.omega
    config: dict = {
        "experiment": experiment,
        "model": model,
        "outputs": {
            "csv_path": f"{args.out}.csv",
            "summary_json_path": f"{args.out}_summary.json",
        },
    }
    if "time" in EXPERIMENTS[experiment].sections:
        config["grid"] = {
            "dim": 2,
            "n": args.n if args.n is not None else 256,
            "half_width": args.half_width if args.half_width is not None else 20.0,
        }
        config["time"] = {
            "dt": args.dt if args.dt is not None else 1e-3,
            "t_final": args.t_final if args.t_final is not None else 1.0,
            "sample_every": 10,
        }
        if experiment == "contrast_blowup":
            config["initial"] = {"kind": "gaussian", "amplitude": 3.0, "width": 1.5}
        else:
            omega = model.get("omega")
            if omega is None:
                raise ConfigError(f"--omega required for quick {experiment} runs")
            config["initial"] = {"kind": "ground_state", "omega": omega}
            del config["model"]["omega"]
    return config


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lognls",
        description="Deterministic experiments for the log-modified NLS laboratory.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "sweep"):
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None, help="JSON experiment config")
        p.add_argument("--out-dir", type=str, default=None, help="base directory for relative outputs")
        if name == "run":
            p.add_argument("--experiment", choices=EXPERIMENTS, default=None)
            p.add_argument("--lambda", dest="lam", type=float, default=None)
            p.add_argument("--omega", type=float, default=None)
            p.add_argument("--n", type=int, default=None)
            p.add_argument("--half-width", dest="half_width", type=float, default=None)
            p.add_argument("--dt", type=float, default=None)
            p.add_argument("--t-final", dest="t_final", type=float, default=None)
            p.add_argument("--out", type=str, default=None)
    args = parser.parse_args(argv)

    try:
        if args.config is not None:
            quick_used = args.command == "run" and (
                args.experiment is not None
                or any(getattr(args, f, None) is not None for f in _QUICK_FLAGS)
            )
            if quick_used:
                raise ConfigError("--config conflicts with quick-run flags; pass one or the other")
            config = json.loads(Path(args.config).read_text(encoding="utf-8"))
        elif args.command == "run":
            config = _quick_config(args)
        else:
            raise ConfigError("sweep requires --config")
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    code, summary = (run_config if args.command == "run" else run_sweep)(config, args.out_dir)
    if summary.get("error"):
        print(f"error[{summary['error']['code']}]: {summary['error']['message']}", file=sys.stderr)
    for item in summary.get("assertions", []):
        status = "PASS" if item["pass"] else "FAIL"
        print(f"{status} {item['name']}: {item['value']:.6g} {item['comparator']} {item['threshold']:.6g}")
    return code


if __name__ == "__main__":
    sys.exit(main())
