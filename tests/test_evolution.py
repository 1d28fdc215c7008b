import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.fft import fftn

from lognls import evolution
from lognls.errors import BlowUpDetected, InsufficientSamples
from lognls.evolution import (
    EvolutionConfig,
    GaussianInit,
    GroundStateInit,
    Perturbation,
    apply_perturbation,
    evolve,
    orbit_distance,
    pc_identity_rhs,
    pseudoconformal_residual,
    snapshot_steps,
    strang_step,
)
from lognls.grid import ComplexField, Grid, coordinates, h1_norm, integrate
from lognls.groundstate import embed_radial, find_ground_state
from lognls.model import Family, ModelParams

from properties import PROPERTY_SETTINGS, smooth_fields


def _gaussian(g, amp=1.0, width=1.0):
    xs = coordinates(g)
    r2 = sum(x * x for x in xs)
    return ComplexField(g, amp * np.exp(-r2 / (2.0 * width**2)))


class TestStrangStep:
    def test_constant_field_is_fixed_point(self):
        m = ModelParams(Family.CUBIC_LOG_2D, 1.0)
        g = Grid(2, 64, 5.0)
        u = ComplexField(g, np.ones(g.shape, dtype=complex))
        out = strang_step(u, 1e-3, m)
        assert np.max(np.abs(out.values - 1.0)) < 1e-14

    def test_free_flow_matches_gaussian_closed_form(self):
        m = ModelParams(Family.CUBIC_LOG_2D, 0.0)
        g = Grid(2, 192, 12.0)
        cfg = EvolutionConfig(
            model=m, grid=g, dt=0.005, t_final=1.0, sample_every=200,
            initial=GaussianInit(amplitude=1.0, width=1.0),
        )
        traj = evolve(cfg)
        xs = coordinates(g)
        r2 = xs[0] ** 2 + xs[1] ** 2
        exact = (1.0 / (1.0 + 1.0j)) * np.exp(-r2 / (2.0 * (1.0 + 1.0j)))
        assert np.max(np.abs(traj.final_field.values - exact)) <= 1e-10

    def test_ground_state_modulus_stationary(self, model2d):
        # box must hold the wrapped tail below the target; on L = 20 the
        # edge amplitude alone is ~3e-6 for omega = 0.2
        profile = find_ground_state(model2d.with_omega(0.2))
        g = Grid(2, 416, 32.0)
        cfg = EvolutionConfig(
            model=model2d, grid=g, dt=0.002, t_final=3.0, sample_every=500,
            initial=GroundStateInit(omega=0.2), reference=profile,
        )
        traj = evolve(cfg)
        ref = embed_radial(profile, g)
        dev = np.max(np.abs(np.abs(traj.final_field.values) - np.abs(ref.values)))
        assert dev <= 1e-7 * max(1.0, float(np.max(np.abs(ref.values))))

    def test_time_reversal(self):
        m = ModelParams(Family.CUBIC_LOG_2D, 1.0)
        g = Grid(2, 128, 10.0)
        u0 = _gaussian(g)
        u = u0
        n = 100
        for _ in range(n):
            u = strang_step(u, 5e-3, m)
        for _ in range(n):
            u = strang_step(u, -5e-3, m)
        diff = ComplexField(g, u.values - u0.values)
        assert h1_norm(diff) <= 1e-8


class TestEvolve:
    def test_conservation_short_run(self, model2d, profile_01):
        g = Grid(2, 256, 20.0)
        cfg = EvolutionConfig(
            model=model2d, grid=g, dt=1e-3, t_final=1.0, sample_every=100,
            initial=GroundStateInit(omega=0.1), reference=profile_01,
        )
        traj = evolve(cfg)
        assert traj.mass_drift <= 1e-11
        assert traj.energy_drift <= 1e-6
        assert traj.momentum_drift <= 1e-9

    def test_energy_drift_second_order_on_generic_data(self):
        m = ModelParams(Family.CUBIC_LOG_2D, 1.0)
        g = Grid(2, 128, 12.0)
        drifts = {}
        for dt in (4e-3, 2e-3):
            cfg = EvolutionConfig(
                model=m, grid=g, dt=dt, t_final=1.0, sample_every=int(0.1 / dt),
                initial=GaussianInit(amplitude=1.2, width=1.0),
            )
            drifts[dt] = evolve(cfg).energy_drift
        assert drifts[4e-3] / drifts[2e-3] == pytest.approx(4.0, abs=0.5)

    def test_boosted_ground_state_travels(self, model2d, profile_01):
        g = Grid(2, 256, 20.0)
        v = 8.0 * math.pi / 20.0  # grid-periodic boost, ~1.257
        cfg = EvolutionConfig(
            model=model2d, grid=g, dt=5e-3, t_final=2.0, sample_every=80,
            initial=GroundStateInit(omega=0.1, boost=(v, 0.0)), reference=profile_01,
        )
        traj = evolve(cfg)
        assert traj.momentum_drift <= 1e-9
        obs0 = traj.samples[0]
        assert obs0.momentum[0] == pytest.approx(v * obs0.mass, rel=1e-10)
        # center of mass moved by v * t
        fld = traj.final_field
        xs = coordinates(g)
        rho = np.abs(fld.values) ** 2
        xbar = integrate(g, xs[0] * rho) / integrate(g, rho)
        assert xbar == pytest.approx(v * 2.0, rel=1e-3)

    def test_blowup_contrast(self):
        g = Grid(2, 128, 10.0)
        init = GaussianInit(amplitude=3.0, width=1.0)
        cubic = ModelParams(Family.PURE_CUBIC_2D, 1.0)
        cfg = EvolutionConfig(
            model=cubic, grid=g, dt=2e-3, t_final=3.0, sample_every=10,
            initial=init, check_invariants=False,
        )
        with pytest.raises(BlowUpDetected) as excinfo:
            evolve(cfg)
        assert excinfo.value.time < 3.0
        # identical data under the log model stays bounded
        logm = ModelParams(Family.CUBIC_LOG_2D, 1.0)
        cfg2 = EvolutionConfig(
            model=logm, grid=g, dt=2e-3, t_final=3.0, sample_every=50, initial=init,
        )
        traj = evolve(cfg2)
        assert max(s.kinetic for s in traj.samples) <= traj.h1_bound + 1e-6


class TestOrbitDistance:
    def test_exact_member_recovered(self, profile_01):
        g = Grid(2, 256, 20.0)
        ref = embed_radial(profile_01, g)
        shift_cells = 16
        y0 = shift_cells * g.dx
        theta0 = 0.9
        u = ComplexField(
            g, np.roll(ref.values, shift_cells, axis=0) * np.exp(1j * theta0)
        )
        dist, theta, y = orbit_distance(u, profile_01)
        assert dist <= 1e-12
        assert theta == pytest.approx(theta0, abs=1e-9)
        assert y[0] == pytest.approx(y0, abs=1e-9)
        assert y[1] == pytest.approx(0.0, abs=1e-9)

    def test_small_bump_triangle_bound(self, profile_01):
        g = Grid(2, 256, 20.0)
        ref = embed_radial(profile_01, g)
        xs = coordinates(g)
        bump = np.exp(-((xs[0] - 1.0) ** 2 + xs[1] ** 2))
        delta = 1e-2
        bump_norm = h1_norm(ComplexField(g, bump))
        u = ComplexField(g, ref.values + delta * bump / bump_norm)
        dist, _, _ = orbit_distance(u, profile_01)
        assert dist <= delta + 1e-12

    def test_perturbation_sizes_are_exact(self, profile_01):
        g = Grid(2, 256, 20.0)
        ref = embed_radial(profile_01, g)
        # modes at the Nyquist index +-n/2 too: the closed-form size and h1_norm share |k|^2
        for pert in (
            Perturbation(kind="gaussian_bump", delta=1e-2, width=2.0),
            *(Perturbation(kind="fourier_mode", delta=1e-2, mode=m)
              for m in [(2, 0), (128, 0), (128, 128), (-128, 5)]),
        ):
            u = apply_perturbation(ref, pert)
            diff = ComplexField(g, u.values - ref.values)
            assert h1_norm(diff) == pytest.approx(1e-2, rel=1e-12)


class TestPseudoconformal:
    def test_free_flow_pc_constant(self):
        m = ModelParams(Family.CUBIC_LOG_2D, 0.0)
        g = Grid(2, 192, 12.0)
        cfg = EvolutionConfig(
            model=m, grid=g, dt=5e-3, t_final=0.5, sample_every=10,
            initial=GaussianInit(), monitor_pc=True,
        )
        traj = evolve(cfg)
        assert pseudoconformal_residual(traj, m) <= 1e-10
        pc = np.asarray(traj.pc_quantity)
        assert np.max(np.abs(pc - pc[0])) / max(abs(pc[0]), 1.0) <= 1e-10

    def test_rhs_structurally_zero_at_t0(self, model2d, profile_01):
        g = Grid(2, 128, 20.0)
        cfg = EvolutionConfig(
            model=model2d, grid=g, dt=5e-3, t_final=0.1, sample_every=2,
            initial=GroundStateInit(omega=0.1), reference=profile_01,
            monitor_pc=True,
        )
        traj = evolve(cfg)
        rhs = pc_identity_rhs(traj, model2d)
        assert rhs[0] == 0.0

    def test_insufficient_samples(self, model2d):
        from lognls.evolution import Trajectory

        traj = Trajectory(times=[0.0, 0.1], samples=[], pc_quantity=[1.0, 1.0])
        with pytest.raises(InsufficientSamples):
            pseudoconformal_residual(traj, model2d)


class TestBuildInitial:
    def test_reference_of_another_model_is_not_embedded(self, profile_01):
        """A reference at the initial frequency but another coupling is solved again."""
        g = Grid(2, 128, 20.0)
        m2 = ModelParams(Family.CUBIC_LOG_2D, 2.0)
        cfg = EvolutionConfig(model=m2, grid=g, dt=1e-2, t_final=1e-2,
                              initial=GroundStateInit(omega=0.1), reference=profile_01)
        peak = float(np.max(np.abs(evolution.build_initial(cfg).values)))
        assert peak == find_ground_state(m2.with_omega(0.1)).center_value
        assert peak != profile_01.center_value


class TestConfigGuards:
    def test_dt_accuracy_cap_enforced(self, model2d):
        g = Grid(2, 64, 10.0)
        with pytest.raises(ValueError):
            EvolutionConfig(model=model2d, grid=g, dt=0.02, t_final=1.0,
                            initial=GaussianInit())

    def test_quintic_1d_run_conserves_and_respects_bound(self):
        m = ModelParams(Family.QUINTIC_LOG_1D, 1.0)
        p = find_ground_state(m.with_omega(0.05))
        g = Grid(1, 2048, 40.0)
        cfg = EvolutionConfig(model=m, grid=g, dt=5e-3, t_final=5.0, sample_every=100,
                              initial=GroundStateInit(omega=0.05), reference=p)
        traj = evolve(cfg)
        assert traj.mass_drift <= 1e-11
        assert traj.energy_drift <= 1e-6
        assert max(s.kinetic for s in traj.samples) <= traj.h1_bound + 1e-6


class TestSnapshotInitial:
    def test_evolve_from_snapshot_file(self, tmp_path, model2d):
        from lognls.evolution import SnapshotInit
        from lognls.snapshots import write_snapshot

        g = Grid(2, 96, 10.0)
        u0 = _gaussian(g, amp=0.8)
        path = tmp_path / "start.nlsf"
        write_snapshot(path, u0, model2d, t=0.0)
        cfg = EvolutionConfig(
            model=model2d, grid=g, dt=5e-3, t_final=0.05, sample_every=5,
            initial=SnapshotInit(path=str(path)),
        )
        traj = evolve(cfg)
        assert traj.samples[0].mass == pytest.approx(
            integrate(g, np.abs(u0.values) ** 2), rel=1e-14
        )


class TestSnapshotSteps:
    def test_steps_keyed_by_requested_time(self):
        assert snapshot_steps((0.1, 0.03, 0.0), 0.01, 0.1) == {10: 0.1, 3: 0.03, 0: 0.0}

    @pytest.mark.parametrize(
        "times", [(0.11,), (-0.01,), (0.035,), (0.05, 0.05), (0.05, 0.05 + 1e-12)]
    )
    def test_rejects_times_no_step_records_once(self, times):
        with pytest.raises(ValueError):
            snapshot_steps(times, 0.01, 0.1)


# ---------------------------------------------------------------------------
# properties of the split-step kernel on smooth random fields
# ---------------------------------------------------------------------------

models = st.builds(
    ModelParams,
    st.sampled_from([Family.CUBIC_LOG_2D, Family.PURE_CUBIC_2D]),
    st.floats(min_value=0.5, max_value=2.0),
)
time_steps = st.floats(min_value=1e-4, max_value=1e-2)


def _mass(u):
    return integrate(u.grid, np.abs(u.values) ** 2)


def _free_config(u, model, dt, steps, sample_every, snapshot_times=()):
    return EvolutionConfig(
        model=model, grid=u.grid, dt=dt, t_final=steps * dt, sample_every=sample_every,
        initial=u, snapshot_times=snapshot_times, check_invariants=False,
        blowup_threshold=math.inf,
    )


class TestSplitStepProperties:
    @PROPERTY_SETTINGS
    @given(smooth_fields(), models, time_steps, st.integers(min_value=1, max_value=5))
    def test_mass_is_conserved(self, u0, model, dt, steps):
        u = u0
        for _ in range(steps):
            u = strang_step(u, dt, model)
        assert abs(_mass(u) - _mass(u0)) <= 1e-12 * _mass(u0)

    @PROPERTY_SETTINGS
    @given(smooth_fields(), models, time_steps)
    def test_backward_step_undoes_forward_step(self, u0, model, dt):
        before = u0.values.copy()
        back = strang_step(strang_step(u0, dt, model), -dt, model)
        assert np.array_equal(u0.values, before)  # the input is left untouched
        assert np.max(np.abs(back.values - before)) <= 1e-12

    @PROPERTY_SETTINGS
    @given(smooth_fields(), models, time_steps, st.integers(min_value=1, max_value=6),
           st.integers(min_value=1, max_value=6))
    def test_evolve_matches_iterated_strang_step(self, u0, model, dt, steps, sample_every):
        traj = evolve(_free_config(u0, model, dt, steps, sample_every))
        u = u0
        for _ in range(steps):
            u = strang_step(u, dt, model)
        assert np.max(np.abs(traj.final_field.values - u.values)) <= 1e-12

    @PROPERTY_SETTINGS
    @given(smooth_fields(), time_steps, st.integers(min_value=1, max_value=6),
           st.integers(min_value=1, max_value=6), st.sets(st.integers(0, 6), max_size=4))
    def test_records_never_share_kernel_memory(self, u0, dt, steps, sample_every, picks):
        kernels = []

        class Recorded(evolution.SplitStep):
            def __init__(self, *args):
                super().__init__(*args)
                kernels.append(self)

        model = ModelParams(Family.CUBIC_LOG_2D, 1.0)
        times = tuple(k * dt for k in sorted(picks) if k <= steps)
        with mock.patch.object(evolution, "SplitStep", Recorded):
            traj = evolve(_free_config(u0, model, dt, steps, sample_every, times))
        (kernel,) = kernels
        owned = [kernel.buffer, kernel.half, kernel.full, u0.values]
        kept = [f.values for f in traj.snapshots.values()] + [traj.final_field.values]
        assert sorted(traj.snapshots) == sorted(times)
        for i, a in enumerate(kept):
            assert not any(np.shares_memory(a, b) for b in owned + kept[i + 1:])


def _periodic_gap(a, b, period):
    return abs((a - b + 0.5 * period) % period - 0.5 * period)


class TestOrbitDistanceProperties:
    @PROPERTY_SETTINGS
    @given(smooth_fields(dims=(1, 2)), st.data(), st.floats(min_value=-math.pi, max_value=math.pi))
    def test_orbit_member_recovers_phase_and_shift(self, phi, data, theta0):
        g = phi.grid
        cells = tuple(data.draw(st.integers(0, g.n - 1)) for _ in range(g.dim))
        u = ComplexField(
            g, np.exp(1j * theta0) * np.roll(phi.values, cells, axis=tuple(range(g.dim)))
        )
        dist, theta, y = orbit_distance(u, None, reference_hat=fftn(phi.values))
        assert dist <= 1e-12
        assert _periodic_gap(theta, theta0, 2.0 * math.pi) <= 1e-10
        for y_axis, c in zip(y, cells):
            assert _periodic_gap(y_axis, c * g.dx, 2.0 * g.half_width) <= 1e-10
