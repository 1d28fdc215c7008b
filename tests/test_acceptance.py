"""Acceptance gate: every criterion at its stated tolerance, one line each.

Criteria 01-05, 07, 08 and the scan half of 10 run the committed configs in
``tests/criteria`` through ``lognls.cli.run_config``, once per session, and read
summaries and CSVs from disk: ``lognls run --config tests/criteria/<name>.json``
reproduces each.  Criteria 06, 09, 11 and the profile half of 10 call the library,
for the reason each states.  Criterion 12 runs each config in ``tests/determinism``
twice and compares the artifacts byte for byte.
"""

import filecmp
import functools
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.interpolate import CubicHermiteSpline

from lognls.cli import run_config
from lognls.convexity1d import find_turning_point, ground_state_1d_quadrature
from lognls.errors import BlowUpDetected
from lognls.evolution import EvolutionConfig, GaussianInit, evolve, orbit_distance, reference_spectrum
from lognls.grid import Grid, forward
from lognls.groundstate import find_ground_state, radial_observables, uniqueness_certificate
from lognls.minimize import minimize_energy
from lognls.model import Family, ModelParams

CRITERIA = Path(__file__).resolve().parent / "criteria"
DETERMINISM = Path(__file__).resolve().parent / "determinism"
OMEGAS = (0.05, 0.1, 0.2, 0.29)
MODEL = ModelParams(Family.CUBIC_LOG_2D, 1.0)

# the criteria's tolerances on the runners' assertions, each stated once:
# {assertion name: (comparator, threshold)}
TOLERANCES = {
    "mass_strictly_decreasing": (">=", 1.0),  # 04
    "energy_drift": ("<=", 1e-6),  # 05
    "momentum_drift": ("<=", 1e-9),  # 05
    "sup_orbit_distance": ("<=", 10.0 * 1e-2),  # 07: 10 delta at delta = 1e-2
    "pc_residual": ("<=", 1e-4),  # 08
    "pc_residual_halving_ratio": (">=", 3.0),  # 08
    "dpp_min": (">", 0.0),  # 10: d'' > 0 at every point
    "dpp_fd_agreement": ("<=", 1e-2),  # 10
}


def report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} {detail}")


def certified(code: int, summary: dict, *names: str) -> dict:
    """The metrics and named assertion values of a run that exited 0 with no error.

    Each named assertion entry must be present, pass, and compare against exactly
    its criterion's tolerance in ``TOLERANCES``.
    """
    assert code == 0 and summary["error"] is None, (code, summary["error"])
    entries = {entry["name"]: entry for entry in summary["assertions"]}
    for name in names:
        assert name in entries, f"no {name} assertion"
        entry = entries[name]
        assert entry["pass"], entry
        assert (entry["comparator"], entry["threshold"]) == TOLERANCES[name], entry
    return {**summary["metrics"], **{name: entries[name]["value"] for name in names}}


def read_columns(path: Path) -> dict[str, list[float]]:
    lines = [line for line in path.read_text(encoding="utf-8").splitlines() if not line.startswith("#")]
    header, *rows = (line.split(",") for line in lines)
    return {name: [float(row[j]) for row in rows] for j, name in enumerate(header)}


@pytest.fixture(scope="session")
def run(tmp_path_factory):
    """run(name, *assertions) -> (values, seconds, out dir) of ``criteria/<name>.json``.

    Each config runs once per session; each call reads its summary from disk and
    passes it through ``certified`` with the named assertions.
    """
    root = tmp_path_factory.mktemp("criteria")

    @functools.cache
    def once(name):
        config = json.loads((CRITERIA / f"{name}.json").read_text(encoding="utf-8"))
        t0 = time.perf_counter()
        code, _ = run_config(config, str(root / name))
        return code, time.perf_counter() - t0

    def criterion(name, *names):
        code, seconds = once(name)
        summary = json.loads((root / name / "summary.json").read_text(encoding="utf-8"))
        return certified(code, summary, *names), seconds, root / name

    return criterion


@pytest.fixture(scope="module")
def mass_table(run):
    _, seconds, out = run("04-sweep_mass", "mass_strictly_decreasing")
    return read_columns(out / "masses.csv"), seconds


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_01_pohozaev_certification(run):
    residuals, seconds = [], []
    for omega in OMEGAS:
        values, secs, _ = run(f"01-ground-{omega}")
        residuals.append(max(abs(values[key]) for key in ("pohozaev_r1", "pohozaev_r2", "pohozaev_rV")))
        seconds.append(secs)
    assert max(residuals) <= 1e-6
    assert max(seconds) <= 5.0
    report("criterion-01 pohozaev", True,
           f"max residual {max(residuals):.2e}, slowest solve {max(seconds):.2f}s")


def test_criterion_02_amplitude_bound(run):
    z_values = []
    for omega in OMEGAS:
        values, _, _ = run(f"01-ground-{omega}")
        sqz = values["sqrt_z_omega"]
        z_omega = sqz * sqz
        assert values["amplitude"] < sqz
        assert abs(z_omega * math.log(z_omega) + omega) <= 1e-12
        z_values.append(z_omega)
    # omega decreasing -> z_omega increasing toward 1
    assert all(a > b for a, b in zip(z_values, z_values[1:]))
    assert z_values[0] < 1.0
    report("criterion-02 amplitude bound", True, f"z range [{z_values[-1]:.4f}, {z_values[0]:.4f}]")


def test_criterion_03_townes_cross_check(run):
    mass_q = run("03-townes-q")[0]["mass"]
    mass_r = run("03-townes-r")[0]["mass"]
    rel_self = abs(2.0 * mass_q - mass_r) / mass_r
    rel_lit = abs(mass_r - 11.7009) / 11.7009
    assert rel_self <= 1e-3
    assert rel_lit <= 1e-3
    report(
        "criterion-03 townes",
        True,
        f"2*lam*M(Q) = {2 * mass_q:.6f}, ||R||^2 = {mass_r:.6f}, lit 11.7009",
    )


def test_criterion_04_masses_decrease(mass_table):
    columns, seconds = mass_table
    assert seconds <= 120.0
    report("criterion-04 mass decrease", True,
           f"masses {['%.4f' % m for m in columns['mass']]}, {seconds:.1f}s")


@pytest.mark.xfail(
    strict=True,
    reason="spec defect: the stated ratio normalization sqrt(ln(1/w)) contradicts "
    "the rescaling derivation (which gives ln(1/w)); even corrected, the "
    "O(lnln/ln) corrections are non-monotone over the pinned range. "
    "Analysis in the decisions ledger.",
)
def test_criterion_04_ratio_clause(mass_table):
    gaps = [abs(ratio - 1.0) for ratio in mass_table[0]["ratio"]]
    report("criterion-04 ratio clause", False, f"|ratio-1| = {['%.3f' % g for g in gaps]} (expected fail)")
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_criterion_05_conservation(run):
    drifts = ("energy_drift", "momentum_drift")
    soliton = run("05-soliton", *drifts)[0]
    assert soliton["mass_drift"] <= 1e-11
    coarse, fine = (run(f"05-gaussian-{dt}", *drifts)[0]["energy_drift"] for dt in ("dt1e-3", "dt5e-4"))
    ratio = coarse / fine
    assert 3.5 <= ratio <= 4.5
    report("criterion-05 conservation", True,
           f"mass {soliton['mass_drift']:.1e}, energy {soliton['energy_drift']:.1e}, "
           f"momentum {soliton['momentum_drift']:.1e}, dt-halving ratio {ratio:.3f}")


def test_criterion_06_global_existence_contrast():
    # a library test: contrast_blowup records both halves at one sample_every, while
    # this criterion records the cubic run every 5 steps and the log run every 50
    g = Grid(2, 256, 20.0)
    init = GaussianInit(amplitude=3.0, width=1.5)
    cubic = ModelParams(Family.PURE_CUBIC_2D, 1.0)
    cfg_cubic = EvolutionConfig(
        model=cubic, grid=g, dt=4e-3, t_final=5.0, sample_every=5,
        initial=init,
    )
    with pytest.raises(BlowUpDetected) as excinfo:
        evolve(cfg_cubic)
    blowup_time = excinfo.value.time
    assert blowup_time < 5.0

    cfg_log = EvolutionConfig(
        model=MODEL, grid=g, dt=4e-3, t_final=20.0, sample_every=50, initial=init,
    )
    traj = evolve(cfg_log)
    sup_kin = max(s.kinetic for s in traj.samples)
    assert sup_kin <= traj.h1_bound + 1e-6
    report(
        "criterion-06 contrast",
        True,
        f"blow-up at t={blowup_time:.3f} < 5; log model sup kinetic "
        f"{sup_kin:.1f} <= bound {traj.h1_bound:.1f}",
    )


def test_criterion_07_orbital_stability(run):
    sups = {path.stem[3:]: run(path.stem, "sup_orbit_distance")[0]["sup_orbit_distance"]
            for path in sorted(CRITERIA.glob("07-*.json"))}
    assert len(sups) == 3
    report("criterion-07 stability", True,
           "sup distances " + ", ".join(f"{k}={v:.3e}" for k, v in sups.items()))


def test_criterion_08_pseudoconformal(run):
    values = run("08-pseudoconformal", "pc_residual", "pc_residual_halving_ratio")[0]
    report("criterion-08 pseudoconformal", True,
           f"residual {values['pc_residual']:.2e}, halving ratio {values['pc_residual_halving_ratio']:.2f}")


def test_criterion_09_minimizer_vs_shooter(profile_01):
    # a library test: minimize reports no orbit distance to the shooter's profile yet
    rho = radial_observables(profile_01).mass
    g = Grid(2, 384, 30.0)
    res = minimize_energy(rho, g, MODEL, tol=1e-6)
    dist, _, _ = orbit_distance(forward(res.field.values), reference_spectrum(profile_01, g), g)
    assert dist <= 1e-4
    assert abs(res.lagrange_omega - 0.1) <= 1e-3
    energies = {}
    for rho_k in (0.1, 1.0, 5.0):
        small = minimize_energy(rho_k, Grid(2, 128, 15.0), MODEL, tol=1e-5)
        energies[rho_k] = small.energy
        assert small.energy < 0.0
    report(
        "criterion-09 minimizer",
        True,
        f"orbit distance {dist:.2e}, |omega-0.1| = {abs(res.lagrange_omega - 0.1):.1e}, "
        f"E(rho) = {energies}",
    )


def test_criterion_10_appendix_convexity(run):
    worst_fd = run("10-convexity1d", "dpp_min", "dpp_fd_agreement")[0]["dpp_fd_agreement"]

    # the profile half is a library test: convexity1d reports no quadrature profile yet
    at = ModelParams(Family.QUINTIC_LOG_1D, 1.0, omega=0.05)
    profile = ground_state_1d_quadrature(at)
    tp = find_turning_point(at)
    assert abs(profile.phi_max**2 - tp.a) <= 1e-10
    shot = find_ground_state(at)
    spline = CubicHermiteSpline(shot.r_nodes, shot.values, shot.derivs)
    sel = (profile.x_nodes >= 0.0) & (profile.x_nodes <= shot.r_cut)
    agreement = float(np.max(np.abs(profile.values[sel] - spline(profile.x_nodes[sel]))))
    assert agreement <= 1e-8
    report(
        "criterion-10 convexity",
        True,
        f"d'' > 0 on 10-grid, worst FD gap {worst_fd:.2e}, "
        f"profile agreement {agreement:.2e}",
    )


def test_criterion_11_uniqueness_certificates():
    # a library test: ground reports no uniqueness certificate yet
    edge = 1.0 / (2.0 * math.sqrt(math.e))
    for k in range(1, 21):
        omega = edge * k / 21.0
        cert = uniqueness_certificate(MODEL.with_omega(omega))
        assert cert.all_ok, f"certificate failed at omega={omega}"
        assert cert.alpha < cert.u1 < cert.sqrt_z_omega
    report("criterion-11 uniqueness", True, "20 omegas across the window, all booleans true")


@pytest.mark.parametrize("path", sorted(DETERMINISM.glob("*.json")), ids=lambda path: path.stem)
def test_criterion_12_determinism(path, tmp_path):
    config = json.loads(path.read_text(encoding="utf-8"))
    codes = [run_config(config, out_dir=str(tmp_path / sub))[0] for sub in ("run1", "run2")]
    assert codes[0] == codes[1] == 0
    files1 = sorted(p for p in (tmp_path / "run1").rglob("*") if p.is_file())
    files2 = sorted(p for p in (tmp_path / "run2").rglob("*") if p.is_file())
    assert [p.name for p in files1] == [p.name for p in files2]
    assert len(files1) >= 1
    for a, b in zip(files1, files2):
        assert filecmp.cmp(a, b, shallow=False), f"{a.name} differs between runs"
    report(f"criterion-12 determinism [{path.stem}]", True, f"{len(files1)} artifacts byte-identical")


_ENTRY = {"name": "energy_drift", "value": 2e-8, "pass": True,
          **dict(zip(("comparator", "threshold"), TOLERANCES["energy_drift"]))}


@pytest.mark.parametrize("code, error, entry", [
    (1, None, _ENTRY),
    (0, {"code": "IntegratorFailure", "message": "residual 2e-6"}, _ENTRY),
    (0, None, {**_ENTRY, "value": 2e-6, "pass": False}),
    (0, None, {**_ENTRY, "name": "momentum_drift"}),
    (0, None, {**_ENTRY, "threshold": 1e-5}),
    (0, None, {**_ENTRY, "comparator": "<"}),
], ids=["exit", "error", "failing", "missing", "threshold", "comparator"])
def test_certified_can_fail(code, error, entry):
    assert certified(0, {"error": None, "assertions": [_ENTRY], "metrics": {}}, "energy_drift")
    with pytest.raises(AssertionError):
        certified(code, {"error": error, "assertions": [entry], "metrics": {}}, "energy_drift")
