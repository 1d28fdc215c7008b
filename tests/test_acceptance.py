"""Acceptance gate: every criterion at its stated tolerance, one line each.

Shared fixtures cache the expensive artifacts (profiles, long evolutions) so
each criterion reads from one computation.  Criterion 12 replays a
representative config per experiment type twice through the CLI entry point
and compares artifacts byte for byte.
"""

import filecmp
import math
import time

import numpy as np
import pytest
from scipy.interpolate import CubicHermiteSpline

from lognls.cli import run_config
from lognls.convexity1d import (
    action_convexity_scan,
    find_turning_point,
    ground_state_1d_quadrature,
)
from lognls.errors import BlowUpDetected
from lognls.evolution import (
    EvolutionConfig,
    GaussianInit,
    GroundStateInit,
    Perturbation,
    evolve,
    orbit_distance,
    pc_identity_rhs,
    pseudoconformal_residual,
)
from lognls.grid import Grid
from lognls.groundstate import (
    find_ground_state,
    mass_asymptotics_sweep,
    radial_observables,
    uniqueness_certificate,
)
from lognls.minimize import minimize_energy
from lognls.model import Family, ModelParams, amplitude_roots

OMEGAS = (0.05, 0.1, 0.2, 0.29)
MODEL = ModelParams(Family.CUBIC_LOG_2D, 1.0)


def report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} {detail}")


# ---------------------------------------------------------------------------
# shared heavy artifacts
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def profiles():
    out = {}
    for omega in OMEGAS:
        t0 = time.perf_counter()
        profile = find_ground_state(MODEL, omega)
        out[omega] = (profile, time.perf_counter() - t0)
    return out


@pytest.fixture(scope="module")
def soliton_run(profiles):
    # the dt^2 law is checked on gaussian_drift_pair, so one step size suffices here
    dt = 1e-3
    cfg = EvolutionConfig(
        model=MODEL, grid=Grid(2, 256, 20.0), dt=dt, t_final=10.0, sample_every=int(0.5 / dt),
        initial=GroundStateInit(omega=0.1), reference=profiles[0.1][0],
    )
    return evolve(cfg)


@pytest.fixture(scope="module")
def gaussian_drift_pair():
    g = Grid(2, 256, 20.0)
    drifts = {}
    for dt in (1e-3, 5e-4):
        cfg = EvolutionConfig(
            model=MODEL, grid=g, dt=dt, t_final=1.0, sample_every=int(0.25 / dt),
            initial=GaussianInit(amplitude=1.0, width=1.0),
        )
        drifts[dt] = evolve(cfg).energy_drift
    return drifts


@pytest.fixture(scope="module")
def sweep_data():
    t0 = time.perf_counter()
    rows, mass_q = mass_asymptotics_sweep(1.0, [1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
    return rows, mass_q, time.perf_counter() - t0


@pytest.fixture(scope="module")
def stability_runs(profiles):
    profile = profiles[0.1][0]
    g = Grid(2, 256, 20.0)
    modes = {
        "bump_centered": Perturbation(kind="gaussian_bump", delta=1e-2, width=2.0),
        "bump_offset_renorm": Perturbation(
            kind="gaussian_bump", delta=1e-2, width=1.5, center=(2.0, 1.0), renormalize=True
        ),
        "fourier_mode": Perturbation(kind="fourier_mode", delta=1e-2, mode=(2, 0)),
    }
    out = {}
    for name, pert in modes.items():
        cfg = EvolutionConfig(
            model=MODEL, grid=g, dt=1e-2, t_final=50.0, sample_every=100,
            initial=GroundStateInit(omega=0.1), perturbation=pert,
            reference=profile, track_orbit=True,
        )
        out[name] = evolve(cfg)
    return out


@pytest.fixture(scope="module")
def pc_runs():
    # the |x|^2 weight in the conformal functional amplifies wrapped-tail
    # boundary terms, so the box must hold the full support: omega = 0.2 on
    # L = 32 leaves a clean dt^2 signal (on L = 20 the dt-independent wrap
    # floor is ~5e-8 and masks the halving law)
    profile = find_ground_state(MODEL, 0.2)
    g = Grid(2, 416, 32.0)

    def one(dt, sample_every):
        cfg = EvolutionConfig(
            model=MODEL, grid=g, dt=dt, t_final=1.0, sample_every=sample_every,
            initial=GroundStateInit(omega=0.2), reference=profile, monitor_pc=True,
        )
        return evolve(cfg)

    full = one(1e-3, 10)
    half = one(5e-4, 20)
    return full, half


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_01_pohozaev_certification(profiles):
    worst = 0.0
    slowest = 0.0
    for omega in OMEGAS:
        profile, seconds = profiles[omega]
        worst = max(worst, max(abs(r) for r in profile.residuals))
        slowest = max(slowest, seconds)
        assert max(abs(r) for r in profile.residuals) <= 1e-6
        assert seconds <= 5.0
    report("criterion-01 pohozaev", True, f"max residual {worst:.2e}, slowest solve {slowest:.2f}s")


def test_criterion_02_amplitude_bound(profiles):
    z_values = []
    for omega in OMEGAS:
        profile, _ = profiles[omega]
        _, sqz = amplitude_roots(MODEL.with_omega(omega))
        z_omega = sqz * sqz
        assert profile.center_value < sqz
        assert abs(z_omega * math.log(z_omega) + omega) <= 1e-12
        z_values.append(z_omega)
    # omega decreasing -> z_omega increasing toward 1
    assert all(a > b for a, b in zip(z_values, z_values[1:]))
    assert z_values[0] < 1.0
    report("criterion-02 amplitude bound", True, f"z range [{z_values[-1]:.4f}, {z_values[0]:.4f}]")


def test_criterion_03_townes_cross_check():
    mass_q = radial_observables(
        find_ground_state(ModelParams(Family.PURE_CUBIC_2D, 1.0, omega=1.0))
    ).mass
    mass_r = radial_observables(
        find_ground_state(ModelParams(Family.PURE_CUBIC_2D, 0.5, omega=0.5))
    ).mass
    rel_self = abs(2.0 * mass_q - mass_r) / mass_r
    rel_lit = abs(mass_r - 11.7009) / 11.7009
    assert rel_self <= 1e-3
    assert rel_lit <= 1e-3
    report(
        "criterion-03 townes",
        True,
        f"2*lam*M(Q) = {2 * mass_q:.6f}, ||R||^2 = {mass_r:.6f}, lit 11.7009",
    )


def test_criterion_04_masses_decrease(sweep_data):
    rows, mass_q, seconds = sweep_data
    masses = [r.mass for r in rows]
    ok = all(a > b for a, b in zip(masses, masses[1:])) and seconds <= 120.0
    assert all(a > b for a, b in zip(masses, masses[1:]))
    assert seconds <= 120.0
    report("criterion-04 mass decrease", ok, f"masses {['%.4f' % m for m in masses]}, {seconds:.1f}s")


@pytest.mark.xfail(
    strict=True,
    reason="spec defect: the stated ratio normalization sqrt(ln(1/w)) contradicts "
    "the rescaling derivation (which gives ln(1/w)); even corrected, the "
    "O(lnln/ln) corrections are non-monotone over the pinned range. "
    "Analysis in the decisions ledger.",
)
def test_criterion_04_ratio_clause(sweep_data):
    rows, _, _ = sweep_data
    gaps = [abs(r.ratio - 1.0) for r in rows]
    report("criterion-04 ratio clause", False, f"|ratio-1| = {['%.3f' % g for g in gaps]} (expected fail)")
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_criterion_05_conservation(soliton_run, gaussian_drift_pair):
    run = soliton_run
    assert run.mass_drift <= 1e-11
    assert run.energy_drift <= 1e-6
    assert run.momentum_drift <= 1e-9
    ratio = gaussian_drift_pair[1e-3] / gaussian_drift_pair[5e-4]
    assert 3.5 <= ratio <= 4.5
    report(
        "criterion-05 conservation",
        True,
        f"mass {run.mass_drift:.1e}, energy {run.energy_drift:.1e}, "
        f"momentum {run.momentum_drift:.1e}, dt-halving ratio {ratio:.3f}",
    )


def test_criterion_06_global_existence_contrast():
    g = Grid(2, 256, 20.0)
    init = GaussianInit(amplitude=3.0, width=1.5)
    cubic = ModelParams(Family.PURE_CUBIC_2D, 1.0)
    cfg_cubic = EvolutionConfig(
        model=cubic, grid=g, dt=4e-3, t_final=5.0, sample_every=5,
        initial=init, check_invariants=False,
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


def test_criterion_07_orbital_stability(stability_runs):
    delta = 1e-2
    sups = {}
    for name, traj in stability_runs.items():
        sups[name] = max(traj.orbit_distances)
        assert sups[name] <= 10.0 * delta
    report(
        "criterion-07 stability",
        True,
        "sup distances " + ", ".join(f"{k}={v:.3e}" for k, v in sups.items()),
    )


def test_criterion_08_pseudoconformal(pc_runs):
    full, half = pc_runs
    res_full = pseudoconformal_residual(full, MODEL)
    res_half = pseudoconformal_residual(half, MODEL)
    rhs0 = float(pc_identity_rhs(full, MODEL)[0])
    assert res_full <= 1e-4
    assert res_full / res_half >= 3.0
    assert rhs0 == 0.0
    report(
        "criterion-08 pseudoconformal",
        True,
        f"residual {res_full:.2e}, halving ratio {res_full / res_half:.2f}, rhs(0) == 0",
    )


def test_criterion_09_minimizer_vs_shooter(profiles):
    profile = profiles[0.1][0]
    rho = radial_observables(profile).mass
    g = Grid(2, 384, 30.0)
    res = minimize_energy(rho, g, MODEL, tol=1e-6)
    dist, _, _ = orbit_distance(res.field, profile)
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


def test_criterion_10_appendix_convexity():
    rows = action_convexity_scan(1.0, np.linspace(0.005, 0.11, 10))
    assert all(r.dpp_quad > 0.0 for r in rows)
    worst_fd = max(abs(r.dpp_fd / r.dpp_quad - 1.0) for r in rows)
    assert worst_fd <= 1e-2

    profile = ground_state_1d_quadrature(1.0, 0.05)
    tp = find_turning_point(1.0, 0.05)
    assert abs(profile.phi_max**2 - tp.a) <= 1e-10
    shot = find_ground_state(ModelParams(Family.QUINTIC_LOG_1D, 1.0), 0.05)
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
    edge = 1.0 / (2.0 * math.sqrt(math.e))
    for k in range(1, 21):
        omega = edge * k / 21.0
        cert = uniqueness_certificate(MODEL, omega)
        assert cert.all_ok, f"certificate failed at omega={omega}"
        assert cert.alpha < cert.u1 < cert.sqrt_z_omega
    report("criterion-11 uniqueness", True, "20 omegas across the window, all booleans true")


# ---------------------------------------------------------------------------
# criterion 12: determinism of every experiment type, byte for byte
# ---------------------------------------------------------------------------

_DETERMINISM_CONFIGS = {
    "ground": {
        "experiment": "ground",
        "model": {"family": "cubic_log_2d", "lambda": 1.0, "omega": 0.1},
        "outputs": {"csv_path": "profile.csv", "summary_json_path": "summary.json"},
    },
    "evolve": {
        "experiment": "evolve",
        "model": {"family": "cubic_log_2d", "lambda": 1.0},
        "grid": {"dim": 2, "n": 128, "half_width": 12.0},
        "time": {"dt": 5e-3, "t_final": 0.1, "sample_every": 5},
        "initial": {"kind": "gaussian", "amplitude": 1.2, "width": 1.0},
        "outputs": {
            "csv_path": "traj.csv",
            "summary_json_path": "summary.json",
            "snapshot_paths": ["end.nlsf"],
            "snapshot_times": [0.1],
        },
    },
    "stability": {
        "experiment": "stability",
        "model": {"family": "cubic_log_2d", "lambda": 1.0},
        "grid": {"dim": 2, "n": 128, "half_width": 15.0},
        "time": {"dt": 5e-3, "t_final": 0.25, "sample_every": 10},
        "initial": {"kind": "ground_state", "omega": 0.2},
        "perturbation": {"kind": "gaussian_bump", "delta": 1e-2, "width": 2.0},
        "outputs": {"csv_path": "orbit.csv", "summary_json_path": "summary.json"},
    },
    "minimize": {
        "experiment": "minimize",
        "model": {"family": "cubic_log_2d", "lambda": 1.0},
        "grid": {"dim": 2, "n": 96, "half_width": 12.0},
        "rho": 1.0,
        "tol": 1e-4,
        "precondition": True,
        "outputs": {
            "summary_json_path": "summary.json",
            "snapshot_paths": ["minimizer.nlsf"],
            "snapshot_times": [0.0],
        },
    },
    "sweep_mass": {
        "experiment": "sweep_mass",
        "model": {"family": "cubic_log_2d", "lambda": 1.0},
        "omega_list": [1e-2, 1e-3],
        "outputs": {"csv_path": "masses.csv", "summary_json_path": "summary.json"},
    },
    "convexity1d": {
        "experiment": "convexity1d",
        "model": {"family": "quintic_log_1d", "lambda": 1.0},
        "omega_grid": [0.02, 0.05, 0.08],
        "outputs": {"csv_path": "scan.csv", "summary_json_path": "summary.json"},
    },
    "contrast_blowup": {
        "experiment": "contrast_blowup",
        "model": {"family": "cubic_log_2d", "lambda": 1.0},
        "grid": {"dim": 2, "n": 128, "half_width": 10.0},
        "time": {"dt": 2e-3, "t_final": 1.0, "sample_every": 10},
        "initial": {"kind": "gaussian", "amplitude": 3.0, "width": 1.0},
        "blowup_deadline": 3.0,
        "outputs": {"csv_path": "contrast.csv", "summary_json_path": "summary.json"},
    },
    "pseudoconformal": {
        "experiment": "pseudoconformal",
        "model": {"family": "cubic_log_2d", "lambda": 1.0},
        "grid": {"dim": 2, "n": 160, "half_width": 15.0},
        "time": {"dt": 2e-3, "t_final": 0.2, "sample_every": 10},
        "initial": {"kind": "ground_state", "omega": 0.2},
        "refine_dt": False,
        "outputs": {"csv_path": "pc.csv", "summary_json_path": "summary.json"},
    },
}


@pytest.mark.parametrize("name", sorted(_DETERMINISM_CONFIGS))
def test_criterion_12_determinism(name, tmp_path):
    config = _DETERMINISM_CONFIGS[name]
    codes = []
    for run in ("run1", "run2"):
        code, _ = run_config(config, out_dir=str(tmp_path / run))
        codes.append(code)
    assert codes[0] == codes[1] == 0
    files1 = sorted(p for p in (tmp_path / "run1").rglob("*") if p.is_file())
    files2 = sorted(p for p in (tmp_path / "run2").rglob("*") if p.is_file())
    assert [p.name for p in files1] == [p.name for p in files2]
    assert len(files1) >= 1
    for a, b in zip(files1, files2):
        assert filecmp.cmp(a, b, shallow=False), f"{a.name} differs between runs"
    report(f"criterion-12 determinism [{name}]", True, f"{len(files1)} artifacts byte-identical")
