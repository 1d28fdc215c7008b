import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.fft import fftn

import lognls.grid
from lognls import evolution
from lognls.errors import (
    BlowUpDetected,
    InsufficientSamples,
    OmegaOutOfWindow,
    UnsupportedFamily,
)
from lognls.evolution import (
    EvolutionConfig,
    GaussianInit,
    GroundStateInit,
    Perturbation,
    Trajectory,
    apply_perturbation,
    evolve,
    orbit_distance,
    pc_functional,
    pc_identity_rhs,
    pc_values,
    pseudoconformal_residual,
    reference_spectrum,
    snapshot_steps,
    strang_step,
)
from lognls.grid import (
    ComplexField,
    Grid,
    coordinates,
    forward,
    h1_norm,
    integrate,
    spectral_gradient,
    squared_distance,
)
from lognls.groundstate import embed_radial, find_ground_state
from lognls.model import Family, ModelParams, observables, potential_density

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
            initial=GroundStateInit(omega=0.2),
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
    def test_conservation_short_run(self, model2d):
        g = Grid(2, 256, 20.0)
        cfg = EvolutionConfig(
            model=model2d, grid=g, dt=1e-3, t_final=1.0, sample_every=100,
            initial=GroundStateInit(omega=0.1),
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

    def test_boosted_ground_state_travels(self, model2d):
        g = Grid(2, 256, 20.0)
        v = 8.0 * math.pi / 20.0  # grid-periodic boost, ~1.257
        cfg = EvolutionConfig(
            model=model2d, grid=g, dt=5e-3, t_final=2.0, sample_every=80,
            initial=GroundStateInit(omega=0.1, boost=(v, 0.0)),
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
            initial=init,
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
        dist, theta, y = orbit_distance(forward(u.values), reference_spectrum(profile_01, g), g)
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
        dist, _, _ = orbit_distance(forward(u.values), reference_spectrum(profile_01, g), g)
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

    def test_aliased_fourier_mode_is_rejected(self, model2d):
        g = Grid(2, 32, 8.0)
        xs = coordinates(g)
        ref = ComplexField(g, np.exp(-(xs[0] ** 2 + xs[1] ** 2)))
        nyquist = Perturbation(kind="fourier_mode", delta=1e-2, mode=(16, 0))
        diff = ComplexField(g, apply_perturbation(ref, nyquist).values - ref.values)
        assert h1_norm(diff) == pytest.approx(1e-2, rel=1e-12)
        # |m| > n/2 aliases to m mod n: at (20, 0) the wave would be 0.60 delta
        for mode in [(17, 0), (20, 0), (0, -40)]:
            pert = Perturbation(kind="fourier_mode", delta=1e-2, mode=mode)
            with pytest.raises(ValueError, match="aliases"):
                apply_perturbation(ref, pert)
            with pytest.raises(ValueError, match="aliases"):
                EvolutionConfig(model=model2d, grid=g, dt=1e-3, t_final=1e-2,
                                initial=GaussianInit(), perturbation=pert)


class TestPseudoconformal:
    def test_free_flow_pc_constant(self):
        m = ModelParams(Family.CUBIC_LOG_2D, 0.0)
        g = Grid(2, 192, 12.0)
        cfg = EvolutionConfig(
            model=m, grid=g, dt=5e-3, t_final=0.5, sample_every=10,
            initial=GaussianInit(),
        )
        traj = evolve(cfg)
        assert pseudoconformal_residual(traj, m) <= 1e-10
        pc = pc_values(traj)
        assert np.max(np.abs(pc - pc[0])) / max(abs(pc[0]), 1.0) <= 1e-10

    def test_rhs_structurally_zero_at_t0(self, model2d):
        g = Grid(2, 128, 20.0)
        cfg = EvolutionConfig(
            model=model2d, grid=g, dt=5e-3, t_final=0.1, sample_every=2,
            initial=GroundStateInit(omega=0.1),
        )
        traj = evolve(cfg)
        rhs = pc_identity_rhs(traj, model2d)
        assert rhs[0] == 0.0

    def test_insufficient_samples(self, model2d):
        obs = observables(_gaussian(Grid(2, 16, 5.0)), model2d)
        traj = Trajectory(times=[0.0, 0.1], samples=[obs, obs])
        with pytest.raises(InsufficientSamples):
            pseudoconformal_residual(traj, model2d)

    def test_law_per_family(self):
        """The L2-critical pure cubic conserves pc; the quintic-log law is refused."""
        g = Grid(2, 16, 5.0)
        cubic = ModelParams(Family.PURE_CUBIC_2D, 1.0)
        obs = observables(_gaussian(g), cubic)
        traj = Trajectory(times=[0.0, 0.1, 0.2], samples=[obs] * 3)
        assert pc_identity_rhs(traj, cubic).tolist() == [0.0] * 3
        assert pc_identity_rhs(traj, ModelParams(Family.CUBIC_LOG_2D, 1.0))[2] == -0.2 * obs.quartic
        for family in (Family.CUBIC_LOG_2D, Family.PURE_CUBIC_2D):  # +0.0 at t = 0, not -0.0
            assert math.copysign(1.0, pc_identity_rhs(traj, ModelParams(family, 1.0))[0]) == 1.0
        with pytest.raises(UnsupportedFamily, match="quintic_log_1d"):
            pc_identity_rhs(traj, ModelParams(Family.QUINTIC_LOG_1D, 1.0))

    def test_gaussian_variance_at_zero_time(self, model2d):
        # int |x|^2 e^{-|x|^2} over R^2 is pi, and a real field carries no current
        obs = observables(_gaussian(Grid(2, 256, 10.0)), model2d)
        assert obs.variance == pytest.approx(math.pi, rel=1e-12)
        assert abs(obs.dilation) <= 1e-15
        assert pc_functional(obs, 0.0) == 0.5 * obs.variance

    @PROPERTY_SETTINGS
    @given(smooth_fields(dims=(1, 2)), st.floats(min_value=-3.0, max_value=3.0))
    def test_pc_is_the_conformal_norm(self, u, t):
        """pc(obs, t) = (1/2) sum_j ||x_j u + i t d_j u||^2 + t^2 int V(|u|^2), from the mesh."""
        g = u.grid
        model = ModelParams(Family.QUINTIC_LOG_1D if g.dim == 1 else Family.CUBIC_LOG_2D, 1.0)
        obs = observables(u, model)
        rho = np.abs(u.values) ** 2
        xs = coordinates(g)
        grads = [d.values for d in spectral_gradient(g, forward(u.values))]
        currents = [x * np.imag(np.conj(u.values) * d) for x, d in zip(xs, grads)]
        variance = integrate(g, squared_distance(g) * rho)
        dilation = sum(integrate(g, c) for c in currents)
        assert abs(obs.variance - variance) <= 1e-12 * variance
        assert abs(obs.dilation - dilation) <= 1e-12 * sum(integrate(g, np.abs(c)) for c in currents)
        density = potential_density(rho, model)
        pc = 0.5 * sum(integrate(g, np.abs(x * u.values + 1j * t * d) ** 2) for x, d in zip(xs, grads))
        pc += t * t * integrate(g, density)
        # the scale of the terms, so that cancellation between them does not shrink the bound
        scale = 0.5 * variance + t * t * (obs.kinetic + integrate(g, np.abs(density)))
        assert abs(pc_functional(obs, t) - pc) <= 1e-12 * scale


class TestRecordTransforms:
    """A record reads the spectrum its observables took: one forward transform per record."""

    @staticmethod
    def _transforms_per_record(monkeypatch, config, residual=False):
        """(forward, inverse) transforms per record of evolving ``config`` (and its pc residual)."""
        counts = {"fftn": 0, "ifftn": 0}

        def counting(name):
            original = getattr(lognls.grid, name)

            def counted(*args, **kwargs):
                frame = sys._getframe(1)
                while frame is not None:
                    code = frame.f_code
                    if (code.co_name in ("record", "pseudoconformal_residual")
                            and code.co_filename == evolution.__file__):
                        counts[name] += 1
                        break
                    frame = frame.f_back
                return original(*args, **kwargs)
            return counted

        # the only bindings through which an evolution takes a transform
        for module in (lognls.grid, evolution):
            for name in counts:
                monkeypatch.setattr(module, name, counting(name))
        traj = evolve(config)
        if residual:
            pseudoconformal_residual(traj, config.model)
        return counts["fftn"] / len(traj.times), counts["ifftn"] / len(traj.times)

    def test_tracked_orbit(self, monkeypatch, model2d):
        cfg = EvolutionConfig(
            model=model2d, grid=Grid(2, 64, 20.0), dt=5e-3, t_final=0.05, sample_every=2,
            initial=GroundStateInit(omega=0.1), track_orbit=True,
        )
        assert self._transforms_per_record(monkeypatch, cfg)[0] == 1.0

    def test_pseudoconformal(self, monkeypatch, model2d):
        """The observables' 1 forward and dim inverse transforms, none for pc."""
        cfg = EvolutionConfig(
            model=model2d, grid=Grid(2, 64, 10.0), dt=5e-3, t_final=0.05, sample_every=2,
            initial=GaussianInit(),
        )
        assert self._transforms_per_record(monkeypatch, cfg, residual=True) == (1.0, 2.0)


class TestBuildInitial:
    def test_reference_of_another_model_is_not_embedded(self, profile_01):
        """A run at another coupling embeds the ground state of its own model, not profile_01."""
        g = Grid(2, 128, 20.0)
        m2 = ModelParams(Family.CUBIC_LOG_2D, 2.0)
        cfg = EvolutionConfig(model=m2, grid=g, dt=1e-2, t_final=1e-2,
                              initial=GroundStateInit(omega=0.1))
        peak = float(np.max(np.abs(evolution.build_initial(cfg)[0].values)))
        assert peak == find_ground_state(m2.with_omega(0.1)).center_value
        assert peak != profile_01.center_value

    def test_profile_is_the_solved_ground_state(self, model2d):
        """build_initial returns the profile it embedded, and None for other initial data."""
        g = Grid(2, 128, 20.0)
        cfg = _short_config(model2d, g, GroundStateInit(omega=0.1))
        fld, profile = evolution.build_initial(cfg)
        assert profile.model == model2d.with_omega(0.1)
        assert np.array_equal(fld.values, embed_radial(profile, g).values)
        assert evolution.build_initial(_short_config(model2d, g))[1] is None


def _short_config(model, grid, initial=GaussianInit(), **kwargs):
    return EvolutionConfig(model=model, grid=grid, dt=5e-3, t_final=1e-2, initial=initial,
                           **kwargs)


_SHORT, _LONG = (2.0,), (2.0, 0.0, 0.0)


class TestConfigGuards:
    """An evolution's inputs are checked when its config is built, before any work."""

    def test_dt_accuracy_cap_enforced(self, model2d):
        g = Grid(2, 64, 10.0)
        with pytest.raises(ValueError):
            EvolutionConfig(model=model2d, grid=g, dt=0.02, t_final=1.0,
                            initial=GaussianInit())

    @pytest.mark.parametrize("family, dim", [(Family.CUBIC_LOG_2D, 1), (Family.QUINTIC_LOG_1D, 2)],
                             ids=["2d_family_on_1d_grid", "1d_family_on_2d_grid"])
    def test_grid_of_another_dimension(self, family, dim):
        with pytest.raises(ValueError, match="grid.dim"):
            _short_config(ModelParams(family, 1.0), Grid(dim, 32, 8.0))

    @pytest.mark.parametrize(
        "fields",
        [{"initial": GaussianInit(center=_SHORT)},
         {"initial": GaussianInit(center=_LONG)},
         {"initial": GroundStateInit(omega=0.1, boost=_SHORT)},
         {"initial": GroundStateInit(omega=0.1, boost=_LONG)},
         {"perturbation": Perturbation("gaussian_bump", 1e-2, center=_SHORT)},
         {"perturbation": Perturbation("gaussian_bump", 1e-2, center=_LONG)},
         {"perturbation": Perturbation("fourier_mode", 1e-2, mode=(1,))},
         {"perturbation": Perturbation("fourier_mode", 1e-2, mode=(1, 1, 1))}],
        ids=["initial_center_short", "initial_center_long", "initial_boost_short",
             "initial_boost_long", "perturbation_center_short", "perturbation_center_long",
             "perturbation_mode_short", "perturbation_mode_long"],
    )
    def test_tuple_fields_have_one_entry_per_axis(self, model2d, fields):
        with pytest.raises(ValueError, match="not grid.dim 2"):
            _short_config(model2d, Grid(2, 32, 8.0), **fields)

    def test_ground_state_frequency_in_the_window(self, model2d):
        with pytest.raises(OmegaOutOfWindow):
            _short_config(model2d, Grid(2, 32, 8.0), initial=GroundStateInit(omega=0.5))

    def test_field_on_another_grid_is_no_conservation_failure(self, model2d):
        u = _gaussian(Grid(2, 32, 16.0))
        with pytest.raises(ValueError, match="initial field lies on"):
            evolve(_short_config(model2d, Grid(2, 32, 8.0), initial=u))

    def test_initial_is_required(self, model2d):
        with pytest.raises(TypeError, match="initial"):
            EvolutionConfig(model=model2d, grid=Grid(2, 32, 8.0), dt=5e-3, t_final=1e-2)

    def test_unrecognized_initial(self, model2d):
        with pytest.raises(ValueError, match="unrecognized"):
            _short_config(model2d, Grid(2, 32, 8.0), initial=None)

    def test_orbit_tracking_needs_ground_state_initial_data(self, model2d):
        with pytest.raises(ValueError, match="orbit tracking needs ground_state initial data"):
            _short_config(model2d, Grid(2, 32, 8.0), track_orbit=True)

    def test_quintic_1d_run_conserves_and_respects_bound(self):
        m = ModelParams(Family.QUINTIC_LOG_1D, 1.0)
        g = Grid(1, 2048, 40.0)
        cfg = EvolutionConfig(model=m, grid=g, dt=5e-3, t_final=5.0, sample_every=100,
                              initial=GroundStateInit(omega=0.05))
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
        initial=u, snapshot_times=snapshot_times,
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
        dist, theta, y = orbit_distance(fftn(u.values), fftn(phi.values), g)
        assert dist <= 1e-12
        assert _periodic_gap(theta, theta0, 2.0 * math.pi) <= 1e-10
        for y_axis, c in zip(y, cells):
            assert _periodic_gap(y_axis, c * g.dx, 2.0 * g.half_width) <= 1e-10
