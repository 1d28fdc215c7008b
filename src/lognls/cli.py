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
from .convexity1d import action_convexity_scan
from .errors import BlowUpDetected, ConfigError, LogNLSError
from .evolution import (
    EvolutionConfig,
    GaussianInit,
    GroundStateInit,
    Perturbation,
    SnapshotInit,
    Trajectory,
    evolve,
    pc_identity_rhs,
    pc_values,
    pseudoconformal_residual,
)
from .groundstate import find_ground_state, mass_asymptotics_sweep, radial_observables
from .minimize import minimize_energy
from .model import Family, ModelParams, stationary_amplitude
from .snapshots import format_float, write_csv, write_snapshot

# ---------------------------------------------------------------------------
# config schema: the keys of "grid", "initial" (per kind) and "perturbation"
# are the init fields of the dataclasses they build; the top-level keys of
# each experiment are _TOP's and its entry in EXPERIMENTS, after the runners
# ---------------------------------------------------------------------------

_INITIAL_KINDS = {"ground_state": GroundStateInit, "gaussian": GaussianInit,
                  "snapshot": SnapshotInit}


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
_object = _of_type(dict, "a JSON object")


def _or_null(convert):
    """Converter of ``convert``'s values or null (read as None)."""
    return lambda value: None if value is None else convert(value)


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


def _frequencies(value) -> tuple[float, ...]:
    """A nonempty list of distinct finite frequencies: a repeat leaves no monotone mass."""
    omegas = _tuple_of(_number)(value)
    if not omegas:
        raise ConfigError("needs at least one frequency")
    if len(set(omegas)) < len(omegas):
        raise ConfigError(f"repeats a frequency: {list(omegas)}")
    return omegas


def _read(convert, value, where: str):
    """convert(value), any failure a ConfigError that names the key."""
    try:
        return convert(value)
    except (OverflowError, TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from None


_REQUIRED = dataclasses.MISSING  # a schema default: the key must be given


def _read_keys(schema: dict, section: dict, where: str = "", also: tuple = ()) -> dict:
    """Each key of ``schema`` {key: (converter, default)} read once from ``section``.

    A key outside the schema (and ``also``) is an error; a missing key takes its
    default, and with none (``_REQUIRED``) it is an error too.
    """
    unknown = set(section) - schema.keys() - set(also)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where or 'top level'}")
    values = {}
    for key, (convert, default) in schema.items():
        name = f"{where}.{key}" if where else key
        if key in section:
            values[key] = _read(convert, section[key], name)
        elif default is _REQUIRED:
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
_MODEL = {"family": (Family, _REQUIRED), "lambda": (_number, _REQUIRED)}
# the "time" section, read into the EvolutionConfig fields of the same names
_TIME = {"dt": (_number, _REQUIRED), "t_final": (_number, _REQUIRED),
         "sample_every": (_integer, 1)}
_OUTPUTS = {"csv_path": (_or_null(_string), None), "summary_json_path": (_or_null(_string), None),
            "snapshot_paths": (_tuple_of(_string), None),
            "snapshot_times": (_tuple_of(_number), None)}
# the top-level keys beside an experiment's scalars, each section read as an object first
_TOP = {"experiment": (_string, _REQUIRED), "seed": (_integer, 0), "model": (_object, _REQUIRED),
        "outputs": (_object, {}), "grid": (_object, _REQUIRED), "time": (_object, _REQUIRED),
        "initial": (_object, _REQUIRED), "perturbation": (_or_null(_object), None)}


def _from_section(cls, section: dict, where: str, also: tuple = ()):
    """The dataclass ``cls`` built from a section whose keys are its init fields."""
    return cls(**_read_keys(_SCHEMA[cls], section, where, also))


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


def _outputs(section: dict) -> dict:
    """The outputs section read: path strings, and one numeric snapshot time per path."""
    outputs = _read_keys(_OUTPUTS, section, "outputs")
    outputs["snapshot_paths"] = outputs["snapshot_paths"] or ()
    outputs["snapshot_times"] = outputs["snapshot_times"] or ()
    if len(outputs["snapshot_paths"]) != len(outputs["snapshot_times"]):
        raise ConfigError("snapshot_paths and snapshot_times must have equal length")
    return outputs


def validate_config(config: dict) -> dict:
    """A config that is a JSON object naming a known experiment, its seed defaulted.

    ``_parse`` reads, and checks, every other key, so an unexpanded sweep config,
    its swept value still a list, passes too.
    """
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    exp = config.get("experiment")
    if not isinstance(exp, str) or exp not in EXPERIMENTS:
        raise ConfigError(f"experiment must be one of {tuple(EXPERIMENTS)}, got {exp!r}")
    config.setdefault("seed", 0)
    return config


def _parse(config: dict) -> dict:
    """Every key of a validated config read once, and checked, before any numerical work.

    Each section's keys are checked by the call that reads its values.
    """
    exp = config["experiment"]
    spec = EXPERIMENTS[exp]
    schema = {key: _TOP[key] for key in ("experiment", "seed", "model", "outputs", *spec.sections)}
    typed = _read_keys({**schema, **spec.scalars}, config)
    m = _read_keys(spec.model, typed["model"], "model")
    typed["model"] = ModelParams(m["family"], m["lambda"], m.get("omega"))
    typed["outputs"] = _outputs(typed["outputs"])
    times = typed["outputs"]["snapshot_times"]
    # an evolution's snapshot times are checked against its dt lattice by EvolutionConfig
    writes = spec.snapshot_times
    if writes is not None and times and times != writes:
        raise ConfigError(f"the {exp} experiment writes snapshots only at times {list(writes)}"
                          if writes else f"the {exp} experiment writes no snapshots")
    if "grid" in typed:
        typed["grid"] = _from_section(_grid.Grid, typed["grid"], "grid")
    if "time" in typed:  # EvolutionConfig checks every rule on an evolution's inputs
        typed["evolution"] = _evolution_config(typed)
    return typed


def _evolution_config(typed: dict) -> EvolutionConfig:
    """The evolution a config asks for; runners vary it with dataclasses.replace."""
    initial, pert = typed["initial"], typed.get("perturbation")
    kind = initial.get("kind")
    if not isinstance(kind, str) or kind not in _INITIAL_KINDS:
        raise ConfigError(f"initial.kind must be one of {sorted(_INITIAL_KINDS)}")
    return EvolutionConfig(
        model=typed["model"],
        grid=typed["grid"],
        **_read_keys(_TIME, typed["time"], "time"),
        initial=_from_section(_INITIAL_KINDS[kind], initial, "initial", ("kind",)),
        perturbation=None if pert is None else _from_section(Perturbation, pert, "perturbation"),
        snapshot_times=typed["outputs"]["snapshot_times"],
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


def _resolve_outputs(typed: dict, out_dir: str | None) -> dict:
    """Output paths under ``out_dir``; ConfigError if two outputs would write one file."""
    base = Path(out_dir or ".")
    outputs = typed["outputs"]
    resolved = {key: _writable(base / outputs[key])
                for key in ("csv_path", "summary_json_path") if outputs[key]}
    resolved["snapshots"] = [(_writable(base / p), t)
                             for p, t in zip(outputs["snapshot_paths"], outputs["snapshot_times"])]
    if "csv_path" in resolved and typed["experiment"] == "contrast_blowup":
        csv = resolved["csv_path"]  # contrast writes its pure-cubic run beside the log run
        resolved["purecubic_csv_path"] = csv.with_name(csv.stem + "_purecubic" + csv.suffix)
    files = [(key, path) for key, path in resolved.items() if key != "snapshots"]
    files += [(f"snapshot_paths[{i}]", p) for i, (p, _) in enumerate(resolved["snapshots"])]
    writers: dict[Path, str] = {}
    for name, path in files:
        other = writers.setdefault(path.resolve(), name)
        if other != name:
            raise ConfigError(f"outputs {other} and {name} both write {path}")
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

    _COMPARE = {"<=": operator.le, ">=": operator.ge, "<": operator.lt, ">": operator.gt}

    def check(self, name: str, value, threshold, comparator: str = "<="):
        self.items.append(
            {
                "name": name,
                "value": value,
                "threshold": threshold,
                "comparator": comparator,
                "pass": bool(self._COMPARE[comparator](value, threshold)),
            }
        )

    @property
    def all_pass(self) -> bool:
        return all(item["pass"] for item in self.items)


def _trajectory_table(traj, pc=None):
    """(header, rows, extra comment lines) of a trajectory's CSV, with its pc values if given."""
    columns = (("orbit_distance", traj.orbit_distances), ("pc_quantity", pc))
    extra = {name: column for name, column in columns if column is not None}
    header = ["t", "mass", "energy", "kinetic", "potential", "px", "py", "quartic", "h1_bound"]
    rows = []
    for i, (t, s) in enumerate(zip(traj.times, traj.samples)):
        px, py = (*s.momentum, 0.0)[:2]
        rows.append([t, s.mass, s.energy, s.kinetic, s.potential, px, py, s.quartic,
                     traj.h1_bound, *(column[i] for column in extra.values())])
    return header + list(extra), rows, []


# ---------------------------------------------------------------------------
# experiment runners
# ---------------------------------------------------------------------------


def _run_ground(typed, asserts: Assertions):
    model = typed["model"]
    profile = find_ground_state(model)  # MissingOmega without model.omega; it certifies Pohozaev
    obs = radial_observables(profile)
    kappa = math.sqrt(2.0 * model.omega)
    asserts.check("tail_rate_ratio", abs(profile.tail_rate / kappa - 1.0), 0.05)
    metrics = {
        "amplitude": profile.center_value,
        "mass": obs.mass,
        "energy": obs.energy,
        "action": obs.action,
        "tail_rate": profile.tail_rate,
        **dict(zip(("pohozaev_r1", "pohozaev_r2", "pohozaev_rV"), profile.residuals)),
    }
    if model.family.log_power is not None:  # the amplitude's bracket ends below it
        metrics["sqrt_z_omega"] = stationary_amplitude(model)
    rows = list(zip(profile.r_nodes, profile.values, profile.derivs))
    tails = [f"tail_rate: {format_float(profile.tail_rate)}",
             f"tail_coeff: {format_float(profile.tail_coeff)}"]
    return metrics, {"csv_path": (["r", "phi", "dphi"], rows, tails)}, {}


def _run_evolve(typed, asserts: Assertions):
    traj = evolve(typed["evolution"])  # it certifies the mass at every record
    asserts.check("energy_drift", traj.energy_drift, 1e-6)
    asserts.check("momentum_drift", traj.momentum_drift, 1e-9)
    metrics = {
        "mass_drift": traj.mass_drift,
        "energy_drift": traj.energy_drift,
        "momentum_drift": traj.momentum_drift,
        "h1_bound": traj.h1_bound,
        "sup_kinetic": max(s.kinetic for s in traj.samples),
    }
    return metrics, {"csv_path": _trajectory_table(traj)}, traj.snapshots


def _run_stability(typed, asserts: Assertions):
    cfg = typed["evolution"]
    if cfg.perturbation is None:
        raise ConfigError("stability experiment requires a perturbation")
    traj = evolve(dataclasses.replace(cfg, track_orbit=True))  # refuses other initial data
    sup_dist = max(traj.orbit_distances)
    asserts.check("sup_orbit_distance", sup_dist, 10.0 * cfg.perturbation.delta)
    metrics = {
        "sup_orbit_distance": sup_dist,
        "initial_orbit_distance": traj.orbit_distances[0],
        "mass_drift": traj.mass_drift,
        "energy_drift": traj.energy_drift,
    }
    return metrics, {"csv_path": _trajectory_table(traj)}, traj.snapshots


def _run_minimize(typed, asserts: Assertions):
    g, rho, tol = typed["grid"], typed["rho"], typed["tol"]
    res = minimize_energy(rho, g, typed["model"], tol=tol)  # it returns only at residual <= tol
    mass = _grid.integrate(g, np.abs(res.field.values) ** 2)
    asserts.check("mass_constraint", abs(mass - rho) / rho, 1e-12)
    metrics = {
        "energy_min": res.energy,
        "lagrange_omega": res.lagrange_omega,
        "residual": res.residual,
        "iterations": res.iterations,
        "line_search_trials": res.trials,
    }
    table = (["rho", "energy", "lagrange_omega", "residual", "iterations"],
             [[rho, res.energy, res.lagrange_omega, res.residual, float(res.iterations)]], [])
    return metrics, {"csv_path": table}, {0.0: res.field}


def _mass_rises_with_omega(rows) -> float:
    """1.0 if the masses strictly increase with omega, read in omega order, not list order."""
    by_omega = sorted(rows, key=lambda r: r.omega)
    return float(all(a.mass < b.mass for a, b in zip(by_omega, by_omega[1:])))


def _run_sweep_mass(typed, asserts: Assertions):
    model = typed["model"]
    model.require_family(Family.CUBIC_LOG_2D, what="sweep_mass")
    rows, mass_q = mass_asymptotics_sweep(model.lam, typed["omega_list"])
    masses = [r.mass for r in rows]
    if len(masses) > 1:  # decreasing along decreasing omega
        asserts.check("mass_strictly_decreasing", _mass_rises_with_omega(rows), 1.0, ">=")
    metrics = {
        "mass_Q": mass_q,
        "first_mass": masses[0],
        "last_mass": masses[-1],
        "n_points": len(rows),
    }
    table = (["omega", "mass", "ratio", "ratio_log"],
             [[r.omega, r.mass, r.ratio, r.ratio_log] for r in rows],
             [f"mass_Q: {format_float(mass_q)}"])
    return metrics, {"csv_path": table}, {}


def _run_convexity1d(typed, asserts: Assertions):
    rows = action_convexity_scan(typed["model"], typed["omega_grid"])
    asserts.check("dpp_min", min(r.dpp_quad for r in rows), 0.0, ">")
    fd_rel = [
        abs(r.dpp_fd / r.dpp_quad - 1.0) for r in rows if r.dpp_fd is not None
    ]
    if fd_rel:
        asserts.check("dpp_fd_agreement", max(fd_rel), 0.01)
    if len(rows) > 1:
        asserts.check("mass_strictly_increasing", _mass_rises_with_omega(rows), 1.0, ">=")
    metrics = {
        "dpp_min": min(r.dpp_quad for r in rows),
        "dpp_max": max(r.dpp_quad for r in rows),
        "n_points": len(rows),
    }
    table = (["omega", "dpp_quad", "dpp_simplified", "dpp_fd", "mass", "action"],
             [[r.omega, r.dpp_quad, r.dpp_simplified,
               "" if r.dpp_fd is None else r.dpp_fd, r.mass, r.action] for r in rows], [])
    return metrics, {"csv_path": table}, {}


def _run_contrast(typed, asserts: Assertions):
    model, cfg = typed["model"], typed["evolution"]
    model.require_family(Family.CUBIC_LOG_2D, what="contrast_blowup")
    deadline = typed["blowup_deadline"]

    cubic = ModelParams(Family.PURE_CUBIC_2D, model.lam)
    try:  # cfg passed every check, so only the deadline, off cfg's dt lattice, can fail
        cfg_cubic = dataclasses.replace(cfg, model=cubic, t_final=deadline)
    except ValueError:
        raise ConfigError(f"blowup_deadline {deadline} must be an integer multiple of "
                          f"dt = {cfg.dt}") from None
    blowup_time = math.inf
    try:
        traj_cubic = evolve(cfg_cubic)
    except BlowUpDetected as exc:
        blowup_time = exc.time
        traj_cubic = exc.trajectory
    asserts.check("blowup_before_deadline", blowup_time, deadline, "<")

    traj_log = evolve(cfg)  # it certifies the a-priori bound at every record
    sup_kin = max(s.kinetic for s in traj_log.samples)
    blew_up = math.isfinite(blowup_time)
    metrics = {
        "blowup_time": blowup_time if blew_up else None,
        "blew_up": blew_up,
        "sup_kinetic_log": sup_kin,
        "h1_bound": traj_log.h1_bound,
    }
    return metrics, {"csv_path": _trajectory_table(traj_log),
                     "purecubic_csv_path": _trajectory_table(traj_cubic)}, {}


def _run_pseudoconformal(typed, asserts: Assertions):
    model, cfg = typed["model"], typed["evolution"]
    pc_identity_rhs(Trajectory(), model)  # a family whose pc law the record lacks fails here
    # the residual's central differences need >= 3 records dt * sample_every apart
    n_steps = round(cfg.t_final / cfg.dt)
    if n_steps % cfg.sample_every or n_steps // cfg.sample_every < 2:
        raise ConfigError(f"pseudoconformal needs t_final/dt = {n_steps} steps to be a multiple "
                          f"of sample_every = {cfg.sample_every}, with at least 3 records")

    def one(dt, sample_every):
        traj = evolve(dataclasses.replace(cfg, dt=dt, sample_every=sample_every))
        return traj, pseudoconformal_residual(traj, model)

    traj, residual = one(cfg.dt, cfg.sample_every)
    asserts.check("pc_residual", residual, 1e-4)
    metrics = {"pc_residual": residual}
    if typed["refine_dt"]:
        _, residual_half = one(cfg.dt / 2.0, cfg.sample_every * 2)
        ratio = residual / residual_half
        asserts.check("pc_residual_halving_ratio", ratio, 3.0, ">=")
        metrics["pc_residual_half_dt"] = residual_half
        metrics["pc_residual_ratio"] = ratio
    return metrics, {"csv_path": _trajectory_table(traj, pc_values(traj))}, {}


class _Experiment(NamedTuple):
    run: Callable  # (typed, asserts) -> (metrics, {outputs key: CSV table}, {time: field})
    sections: tuple[str, ...]  # top-level sections beside "model" and "outputs"
    scalars: dict  # top-level key -> (converter, default; _REQUIRED if required)
    snapshot_times: tuple | None = ()  # the snapshots it writes; None: any on the dt lattice
    model: dict = _MODEL  # the keys of its "model" section


_EVOLVING = ("grid", "time", "initial")
_REQUIRED_FREQUENCIES = (_frequencies, _REQUIRED)

# the one table of experiments; a runner reads its values from ``typed``, so a
# default never enters the config that summaries and CSV headers echo
EXPERIMENTS = {
    # ground alone solves at a model frequency; the others read theirs from their own keys
    "ground": _Experiment(_run_ground, (), {},
                          model={**_MODEL, "omega": (_or_null(_number), None)}),
    "evolve": _Experiment(_run_evolve, (*_EVOLVING, "perturbation"), {}, None),
    "stability": _Experiment(_run_stability, (*_EVOLVING, "perturbation"), {}, None),
    "minimize": _Experiment(_run_minimize, ("grid",), {
        "rho": (_positive, _REQUIRED), "tol": (_positive, 1e-6),
        "precondition": (_precondition, None)}, (0.0,)),
    "sweep_mass": _Experiment(_run_sweep_mass, (), {"omega_list": _REQUIRED_FREQUENCIES}),
    "convexity1d": _Experiment(_run_convexity1d, (), {"omega_grid": _REQUIRED_FREQUENCIES}),
    "contrast_blowup": _Experiment(_run_contrast, _EVOLVING, {"blowup_deadline": (_positive, 5.0)}),
    "pseudoconformal": _Experiment(_run_pseudoconformal, _EVOLVING, {"refine_dt": (_boolean, True)}),
}


# what a malformed config can raise, beside the package's own errors
_FAULTS = (LogNLSError, ArithmeticError, KeyError, MemoryError, OSError, TypeError, ValueError)


def _error(exc: Exception) -> dict:
    """A summary's error entry: package errors by type, anything else as a config error."""
    code = type(exc).__name__ if isinstance(exc, LogNLSError) else "ConfigError"
    return {"code": code, "message": str(exc)}


def run_config(config: dict, out_dir: str | None = None) -> tuple[int, dict]:
    """Read the config, run its experiment, write every artifact; returns (exit_code, summary)."""
    try:
        config = validate_config(copy.deepcopy(config))
        typed = _parse(config)
        outputs = _resolve_outputs(typed, out_dir)
    except _FAULTS as exc:
        summary = {"pass": False, "error": _error(exc)}
        try:
            path = _writable(Path(out_dir or ".") / config["outputs"]["summary_json_path"])
            _write_summary(path, summary)
        except Exception:
            pass
        return 2, summary

    summary = {"experiment": config["experiment"], "config": config}
    asserts = Assertions()
    code = 0
    try:
        metrics, tables, fields = EXPERIMENTS[config["experiment"]].run(typed, asserts)
        comments = provenance(config)
        for key, (header, rows, extra) in tables.items():
            if key in outputs:
                write_csv(outputs[key], comments + extra, header, rows)
        for path, t in outputs["snapshots"]:
            write_snapshot(path, fields[t], typed["model"], t)
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
    paths = pout.setdefault("snapshot_paths", [])  # null is kept: run_config reads it as none
    pout["snapshot_paths"] = paths and [_numbered(p, i) for p in paths]
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
        aggregate_csv = _outputs(_read(_object, base.get("outputs", {}), "outputs"))["csv_path"]
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

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lognls",
        description="Deterministic experiments for the log-modified NLS laboratory.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "sweep"):
        p = sub.add_parser(name, allow_abbrev=False)  # no --out for --out-dir
        p.add_argument("--config", type=str, required=True, help="JSON experiment config")
        p.add_argument("--out-dir", type=str, default=None, help="base directory for relative outputs")
    args = parser.parse_args(argv)

    try:
        config = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8, or not JSON
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
