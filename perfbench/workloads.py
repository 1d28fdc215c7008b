"""Seeded workload generators and artifact checks for the perfbench harness.

Each workload turns a seed into the JSON configs a user would hand to
``lognls run`` / ``lognls sweep``; the program sees nothing else.  The seed
only moves values inside ranges that keep every step, record and point count
fixed and every program assertion passing.  The work is not quite equal
between seeds: the jitter on rho moves the number of descent iterations by a
few per cent.  One seed always does the same work.  One iteration of a
workload runs its jobs in order (a closed loop with one client); its
operations are its experiments and sweep points.
"""

from __future__ import annotations

import json
import math
import random
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MASS_DRIFT_TOL = 1e-11
MASS_CONSTRAINT_TOL = 1e-12


@dataclass
class Job:
    entry: str    # "run" or "sweep": the lognls.cli function that takes the config
    name: str     # sub-directory of the iteration's output directory
    config: dict
    units: int    # operations this job counts: 1, or one per sweep point


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


_CONVEXITY_GRID = (0.01, 0.025, 0.04, 0.055, 0.07, 0.085, 0.1)


def soliton_orbit(seed: int) -> list[Job]:
    """Perturbed omega=0.1 ground state under orbit tracking (the record path),
    then the 1D convexity scan (about 1% of the time)."""
    rng = _rng("soliton_orbit", seed)
    config = {
        "experiment": "stability",
        "model": {"family": "cubic_log_2d", "lambda": 1.0},
        "grid": {"dim": 2, "n": 256, "half_width": 20.0},
        "time": {"dt": 1e-2, "t_final": 1.0, "sample_every": 10},
        "initial": {"kind": "ground_state", "omega": 0.1},
        "perturbation": {
            "kind": "gaussian_bump",
            "delta": 1e-2,
            "center": [rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)],
            "width": rng.uniform(1.5, 2.5),
        },
        "outputs": {"csv_path": "orbit.csv", "summary_json_path": "summary.json"},
        "seed": seed,
    }
    scan = {
        "experiment": "convexity1d",
        "model": {"family": "quintic_log_1d", "lambda": 1.0},
        "omega_grid": list(_CONVEXITY_GRID),
        "outputs": {"csv_path": "scan.csv", "summary_json_path": "summary.json"},
        "seed": seed,
    }
    return [Job("run", "stability", config, 1), Job("run", "convexity1d", scan, 1)]


def gaussian_drift(seed: int) -> list[Job]:
    """Free Gaussian evolution with sparse records: the split-step loop."""
    rng = _rng("gaussian_drift", seed)
    t_final = 0.25
    config = {
        "experiment": "evolve",
        "model": {"family": "cubic_log_2d", "lambda": 1.0},
        "grid": {"dim": 2, "n": 256, "half_width": 20.0},
        "time": {"dt": 1e-3, "t_final": t_final, "sample_every": 250},
        "initial": {
            "kind": "gaussian",
            "amplitude": rng.uniform(0.9, 1.1),
            "width": rng.uniform(0.9, 1.1),
        },
        "outputs": {
            "csv_path": "traj.csv",
            "summary_json_path": "summary.json",
            "snapshot_paths": ["final.nlsf"],
            "snapshot_times": [t_final],
        },
        "seed": seed,
    }
    return [Job("run", "evolve", config, 1)]


# rho <= 1 is left out: rho = 0.5 needs 664 iterations (25 s) on this grid.
_RHO_SET = (3.04, 5.0, 10.0)


def minimizer_mass(seed: int) -> list[Job]:
    """Preconditioned descent at three masses through ``lognls sweep``."""
    rng = _rng("minimizer_mass", seed)
    config = {
        "experiment": "minimize",
        "model": {"family": "cubic_log_2d", "lambda": 1.0},
        "grid": {"dim": 2, "n": 384, "half_width": 30.0},
        "rho": [r * (1.0 + rng.uniform(-0.005, 0.005)) for r in _RHO_SET],
        "tol": 1e-6,
        "precondition": True,
        "outputs": {
            "csv_path": "points.csv",
            "summary_json_path": "summary.json",
            "snapshot_paths": ["minimizer.nlsf"],
            "snapshot_times": [0.0],
        },
        "seed": seed,
    }
    return [Job("sweep", "minimize", config, len(_RHO_SET))]


GENERATORS = {
    "soliton_orbit": soliton_orbit,
    "gaussian_drift": gaussian_drift,
    "minimizer_mass": minimizer_mass,
}


# ---------------------------------------------------------------------------
# artifact checks, independent of the program's own readers
# ---------------------------------------------------------------------------


def read_table(path: Path) -> dict[str, list[str]]:
    """Columns of a lognls CSV ('#' comment lines, one header row)."""
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines()
             if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return {name: [row[j] for row in rows] for j, name in enumerate(header)}


def nlsf_mass(path: Path) -> tuple[float, float]:
    """(time, mass) of an NLSF snapshot: cell-rule integral of |u|^2."""
    raw = path.read_bytes()
    if raw[:4] != b"NLSF":
        raise ValueError(f"{path.name}: bad magic")
    _version, dim = struct.unpack_from("<II", raw, 4)
    off = 12
    ns = struct.unpack_from("<" + "I" * dim, raw, off)
    off += 4 * dim
    widths = struct.unpack_from("<" + "d" * dim, raw, off)
    off += 8 * dim
    _lam, _omega, t = struct.unpack_from("<ddd", raw, off)
    off += 24
    count = math.prod(ns)
    if len(raw) != off + 16 * count:
        raise ValueError(f"{path.name}: {len(raw)} bytes, expected {off + 16 * count}")
    samples = np.frombuffer(raw, dtype="<f8", count=2 * count, offset=off)
    cell = math.prod(2.0 * w / n for w, n in zip(widths, ns))
    return t, float(np.sum(samples * samples)) * cell


def _summary_passes(path: Path) -> bool:
    return json.loads(path.read_text(encoding="utf-8")).get("pass") is True


def _check_trajectory(out: Path, job: Job, csv_name: str) -> list[str]:
    cfg = job.config
    steps = round(cfg["time"]["t_final"] / cfg["time"]["dt"])
    expected_rows = steps // cfg["time"]["sample_every"] + 1
    table = read_table(out / csv_name)
    masses = [float(m) for m in table["mass"]]
    errors = []
    if len(masses) != expected_rows:
        errors.append(f"{csv_name}: {len(masses)} records, expected {expected_rows}")
    drift = max(abs(m - masses[0]) for m in masses) / abs(masses[0])
    if not drift <= MASS_DRIFT_TOL:
        errors.append(f"{csv_name}: mass drift {drift:.3e} > {MASS_DRIFT_TOL}")
    if "orbit_distance" in table:
        bound = 10.0 * cfg["perturbation"]["delta"]
        sup = max(float(d) for d in table["orbit_distance"])
        if not sup <= bound:
            errors.append(f"{csv_name}: orbit distance {sup:.3e} > {bound}")
    for snap, t in zip(cfg["outputs"].get("snapshot_paths", []),
                       cfg["outputs"].get("snapshot_times", [])):
        t_snap, mass = nlsf_mass(out / snap)
        if t_snap != t:
            errors.append(f"{snap}: holds t={t_snap}, requested t={t}")
        if abs(mass - masses[0]) > MASS_DRIFT_TOL * abs(masses[0]):
            errors.append(f"{snap}: mass {mass!r} departs from the initial {masses[0]!r}")
    return errors


def _check_job(out: Path, job: Job) -> dict[int, list[str]]:
    """Failures found in one job's artifacts, keyed by sweep point (0 for a run)."""
    exp = job.config["experiment"]
    if job.entry == "sweep":
        rhos = job.config["rho"]
        failures: dict[int, list[str]] = {}
        table = read_table(out / "points.csv")
        if len(table["pass"]) != len(rhos):
            failures[0] = [f"points.csv: {len(table['pass'])} rows, expected {len(rhos)}"]
        for i, rho in enumerate(rhos):
            errors = []
            if not _summary_passes(out / f"summary_pt{i:03d}.json"):
                errors.append(f"point {i}: summary does not pass")
            _t, mass = nlsf_mass(out / f"minimizer_pt{i:03d}.nlsf")
            if not abs(mass - rho) / rho <= MASS_CONSTRAINT_TOL:
                errors.append(f"point {i}: snapshot mass {mass!r} != rho {rho!r}")
            if i < len(table["pass"]) and float(table["pass"][i]) != 1.0:
                errors.append(f"point {i}: marked failed in points.csv")
            if errors:
                failures.setdefault(i, []).extend(errors)
        return failures

    errors = [] if _summary_passes(out / "summary.json") else ["summary does not pass"]
    if exp == "stability":
        errors += _check_trajectory(out, job, "orbit.csv")
    elif exp == "evolve":
        errors += _check_trajectory(out, job, "traj.csv")
    elif exp == "convexity1d":
        dpp = [float(d) for d in read_table(out / "scan.csv")["dpp_quad"]]
        if len(dpp) != len(job.config["omega_grid"]):
            errors.append(f"scan.csv: {len(dpp)} rows")
        if not all(d > 0.0 for d in dpp):
            errors.append("scan.csv: curvature not positive")
    return {0: errors} if errors else {}


def check_job(out: Path, job: Job, code, summary) -> dict[int, list[str]]:
    """Exit code, pass flag, then the artifact checks; {} when the job is correct.

    A sweep that ran reports a failed point in its per-point artifacts, so
    only a sweep that did not run at all fails every point here.
    """
    error = summary.get("error") or summary.get("exception")
    if code is None or error or (job.entry == "run" and code != 0):
        return {i: [f"exit code {code}, error={error}"] for i in range(job.units)}
    try:
        failures = _check_job(out, job)
    except (OSError, KeyError, IndexError, ValueError) as exc:
        failures = {0: [f"unreadable artifact: {type(exc).__name__}: {exc}"]}
    if (code != 0 or summary.get("pass") is not True) and not failures:
        failures[0] = [f"exit code {code}, pass={summary.get('pass')}"]
    return failures
