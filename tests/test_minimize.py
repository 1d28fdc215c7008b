import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from scipy.fft import fftn, ifftn, irfftn, rfftn

import lognls.minimize
from lognls.errors import GridTooSmall, NonPositiveRho, UnsupportedFamily
from lognls.grid import ComplexField, Grid, coordinates, forward, integrate
from lognls.groundstate import embed_radial, radial_observables
from lognls.evolution import orbit_distance, reference_spectrum
from lognls.minimize import (
    _Workspace,
    _eigen_residual,
    _energy,
    gradient_E,
    minimize_energy,
    negative_energy_witness,
)
from lognls.model import (
    Family,
    ModelParams,
    nonlinear_phase_rate,
    observables,
    potential_density,
)
from properties import PROPERTY_SETTINGS, real_fields


def _random_smooth(g, seed):
    rng = np.random.default_rng(seed)
    xs = coordinates(g)
    r2 = sum(x * x for x in xs)
    vals = np.exp(-r2 / 8.0) * rng.standard_normal(g.shape)
    # smooth by damping high modes
    coeffs = np.fft.fftn(vals)
    coeffs *= np.exp(-0.5 * g.k2)
    return np.fft.ifftn(coeffs).real


def _energy_of(u, g, model):
    return _energy(u, rfftn(u), g, model, _Workspace(g))[0]


def _gradient_spectrum(u, coeffs, g, model):
    rate = nonlinear_phase_rate(u * u, model)
    return gradient_E(u, coeffs, g, np.empty_like(coeffs), rate, _Workspace(g))


def _gradient_samples(u, g, model):
    return irfftn(_gradient_spectrum(u, rfftn(u), g, model), s=g.shape)


class TestGradient:
    def test_zero_field(self):
        m = ModelParams(Family.CUBIC_LOG_2D, 1.0)
        g = Grid(2, 64, 8.0)
        zero = np.zeros(g.shape)
        out = _gradient_spectrum(zero, rfftn(zero), g, m)
        assert np.max(np.abs(out)) == 0.0

    def test_directional_derivative_oracle(self):
        # (E(u+ev) - E(u-ev)) / (2e) = 2 <grad E(u), v> + O(e^2)
        m = ModelParams(Family.CUBIC_LOG_2D, 1.0)
        g = Grid(2, 64, 8.0)
        u = _random_smooth(g, 3)
        v = _random_smooth(g, 4)
        grad = _gradient_samples(u, g, m)
        pairing = 2.0 * float(np.sum(grad * v) * g.dx**2)
        errs = {}
        for eps in (1e-3, 1e-4):
            plus, minus = u + eps * v, u - eps * v
            ep = _energy_of(plus, g, m)
            em = _energy_of(minus, g, m)
            errs[eps] = abs((ep - em) / (2.0 * eps) - pairing)
        assert errs[1e-3] <= 1e-4 * max(abs(pairing), 1.0)
        # quadratic decay of the finite-difference error
        assert errs[1e-3] / max(errs[1e-4], 1e-18) > 4.0

    def test_shooting_profile_is_stationary(self, model2d, profile_01):
        g = Grid(2, 384, 30.0)
        u = embed_radial(profile_01, g).values.real
        resid = _gradient_samples(u, g, model2d) + 0.1 * u
        num = math.sqrt(integrate(g, resid**2))
        den = math.sqrt(integrate(g, u**2))
        assert num / den <= 5e-6  # tail-model rate mismatch dominates


_MODELS = {1: ModelParams(Family.QUINTIC_LOG_1D, 1.0), 2: ModelParams(Family.CUBIC_LOG_2D, 1.0)}


def _full_spectrum_kinetic(u, g):
    return 0.5 * float(np.sum(g.k2 * np.abs(fftn(u)) ** 2)) * g.dx**g.dim / u.size


def _full_spectrum_gradient(u, g, m):
    return 0.5 * ifftn(g.k2 * fftn(u)).real + nonlinear_phase_rate(u * u, m) * u


class TestHalfSpectrum:
    """The half-spectrum bookkeeping against full transforms and x-space integrals."""

    @PROPERTY_SETTINGS
    @given(real_fields())
    def test_energy_matches_full_spectrum(self, drawn):
        g, u = drawn
        m = _MODELS[g.dim]
        kinetic = _full_spectrum_kinetic(u, g)
        potential = integrate(g, potential_density(u * u, m))
        e = _energy_of(u, g, m)
        assert abs(e - (kinetic + potential)) <= 1e-12 * (abs(kinetic) + abs(potential))
        # one kinetic energy: the record path's equals the minimizer's, Nyquist mode included
        obs = observables(ComplexField(g, u), m)
        assert abs(e - obs.energy) <= 1e-12 * abs(obs.energy)

    @PROPERTY_SETTINGS
    @given(real_fields())
    def test_gradient_matches_full_spectrum(self, drawn):
        g, u = drawn
        m = _MODELS[g.dim]
        expected = _full_spectrum_gradient(u, g, m)
        got = _gradient_samples(u, g, m)
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    @PROPERTY_SETTINGS
    @given(real_fields())
    def test_multiplier_and_residual_match_x_space(self, drawn):
        g, u = drawn
        m = _MODELS[g.dim]
        rho = integrate(g, u * u)
        coeffs = rfftn(u)
        grad_hat = _gradient_spectrum(u, coeffs, g, m)
        omega, resid, residual = _eigen_residual(
            grad_hat, coeffs, g, rho, np.empty_like(coeffs), _Workspace(g))
        grad = _full_spectrum_gradient(u, g, m)
        omega_x = -integrate(g, grad * u) / rho
        resid_x = grad + omega_x * u
        residual_x = math.sqrt(integrate(g, resid_x**2) / rho)
        assert abs(omega - omega_x) <= 1e-12 * integrate(g, np.abs(grad * u)) / rho
        assert abs(residual - residual_x) <= 1e-12 * residual_x
        assert np.max(np.abs(irfftn(resid, s=g.shape) - resid_x)) <= 1e-12 * np.max(np.abs(resid_x))

    def test_two_transforms_per_iteration_none_per_trial(self, model2d, monkeypatch):
        calls = {"rfftn": 0, "irfftn": 0, "_energy": 0}

        def counted(name):
            fn = getattr(lognls.minimize, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(lognls.minimize, name, counted(name))
        res = minimize_energy(20.0, Grid(2, 32, 8.0), model2d, tol=1e-5)
        trials = calls["_energy"] - 1
        assert trials > res.iterations  # some trial was rejected
        # the start's transform, then one gradient per pass of the loop (the
        # last pass converges) and one direction per iteration
        assert calls["rfftn"] == res.iterations + 2
        assert calls["irfftn"] == res.iterations
        assert np.all(res.field.values.imag == 0.0)

    def test_line_search_makes_no_grid_sized_temporaries(self, model2d, monkeypatch):
        # Transient memory, in real grid arrays, of each _energy call and of the
        # bookkeeping between two calls (gradient, residual, direction, trial).
        # At 128^2 numpy's 8192-element ufunc buffers read 0.5 (real) and 1.0
        # (complex); one temporary grid array more per call would cross the bounds.
        g = Grid(2, 128, 15.0)
        array_bytes = 8 * g.n**g.dim
        energy = lognls.minimize._energy
        in_call, between, returned = [], [], []

        def measured(*args, **kwargs):
            peak = tracemalloc.get_traced_memory()[1]
            if returned:
                between.append(peak - returned[-1])
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            result = energy(*args, **kwargs)
            current, peak = tracemalloc.get_traced_memory()
            in_call.append(peak - start)
            tracemalloc.reset_peak()
            returned.append(current)
            return result

        monkeypatch.setattr(lognls.minimize, "_energy", measured)
        tracemalloc.start()
        try:
            res = minimize_energy(20.0, g, model2d, tol=1e-5)
        finally:
            tracemalloc.stop()
        assert len(between) == len(in_call) - 1 >= res.iterations
        assert max(in_call) < array_bytes
        assert max(between) < 2 * array_bytes

    def test_second_call_leaves_the_first_result(self, model2d):
        # a box wide enough for the witness's first scale, mu = 1/2
        g = Grid(2, 128, 24.0)
        first = minimize_energy(5.0, g, model2d, tol=1e-5)
        kept = first.field.values.copy()
        witness = negative_energy_witness(first.field, model2d)
        second = minimize_energy(5.0, g, model2d, tol=1e-5)
        assert first.field.values.tobytes() == kept.tobytes()
        assert second.field.values.tobytes() == kept.tobytes()
        scalars = ("energy", "lagrange_omega", "residual", "iterations")
        assert [getattr(first, k) for k in scalars] == [getattr(second, k) for k in scalars]
        assert negative_energy_witness(first.field, model2d) == witness


class TestMinimize:
    def test_matches_shooting_branch(self, model2d, profile_01):
        rho = radial_observables(profile_01).mass
        g = Grid(2, 384, 30.0)
        res = minimize_energy(rho, g, model2d, tol=1e-6)
        assert res.residual <= 1e-6
        p_hat = reference_spectrum(profile_01, g)
        dist, _, _ = orbit_distance(forward(res.field.values), p_hat, g)
        assert dist <= 1e-4
        assert abs(res.lagrange_omega - 0.1) <= 1e-3
        mass = integrate(g, np.abs(res.field.values) ** 2)
        assert abs(mass - rho) / rho <= 1e-12

    def test_energy_negative_and_window_multiplier(self, model2d):
        g = Grid(2, 128, 15.0)
        res = minimize_energy(1.0, g, model2d, tol=1e-5)
        assert res.energy < 0.0
        assert 0.0 < res.lagrange_omega < 1.0 / (2.0 * math.sqrt(math.e))

    def test_beats_trial_states_of_same_mass(self, model2d):
        g = Grid(2, 128, 15.0)
        rho = 2.0
        res = minimize_energy(rho, g, model2d, tol=1e-5)
        xs = coordinates(g)
        r2 = sum(x * x for x in xs)
        for width in (0.5, 1.0, 3.0):
            trial = np.exp(-r2 / (2.0 * width**2))
            trial *= math.sqrt(rho / integrate(g, np.abs(trial) ** 2))
            assert res.energy < _energy_of(trial, g, model2d)

    def test_radially_nonincreasing_modulus(self, model2d, profile_01):
        rho = radial_observables(profile_01).mass
        g = Grid(2, 256, 20.0)
        res = minimize_energy(rho, g, model2d, tol=1e-6)
        mod = np.abs(res.field.values)
        peak = np.unravel_index(np.argmax(mod), mod.shape)
        ray = mod[peak[0], peak[1]:]
        assert np.all(np.diff(ray) <= 1e-9)

    def test_invalid_inputs(self, model2d):
        g = Grid(2, 64, 10.0)
        with pytest.raises(NonPositiveRho):
            minimize_energy(0.0, g, model2d)
        with pytest.raises(UnsupportedFamily):
            minimize_energy(1.0, g, ModelParams(Family.PURE_CUBIC_2D, 1.0))
        with pytest.raises(ValueError, match="grid.dim"):
            minimize_energy(1.0, Grid(1, 64, 10.0), model2d)


class TestWitness:
    def test_unit_gaussian_closed_form(self):
        m = ModelParams(Family.CUBIC_LOG_2D, 1.0)
        g = Grid(2, 256, 20.0)
        xs = coordinates(g)
        u = ComplexField(g, np.exp(-(xs[0] ** 2 + xs[1] ** 2) / 2.0))
        mu, e_mu = negative_energy_witness(u, m)
        assert 0.0 < mu < 1.0
        # E(u_mu) = mu^2 (pi/4 - (pi/4) ln(1/mu^2)): negative below e^{-1/2}
        assert mu < math.exp(-0.5) + 1e-12
        expected = mu**2 * (math.pi / 4.0) * (1.0 - math.log(1.0 / mu**2))
        assert e_mu == pytest.approx(expected, rel=1e-7)

    def test_ground_state_input(self, profile_01):
        m = ModelParams(Family.CUBIC_LOG_2D, 1.0)
        g = Grid(2, 384, 30.0)
        u = embed_radial(profile_01, g)
        mu, e_mu = negative_energy_witness(u, m)
        assert e_mu < 0.0

    def test_box_too_small_for_the_first_scale(self, model2d):
        # u(x/2) needs u on [-L/2, L/2)^2 alone; a minimizer that fills its box does not fit
        small = minimize_energy(2.0, Grid(2, 64, 10.0), model2d, tol=1e-5)
        with pytest.raises(GridTooSmall):
            negative_energy_witness(small.field, model2d)
        wide = minimize_energy(5.0, Grid(2, 128, 24.0), model2d, tol=1e-5)
        assert negative_energy_witness(wide.field, model2d)[0] == 0.5

    @pytest.mark.parametrize("imag, message", [(None, "nonzero"), (1e-3, "real")],
                             ids=["zero_field", "complex_field"])
    def test_rejects_zero_or_complex_field(self, imag, message):
        g = Grid(2, 64, 8.0)
        xs = coordinates(g)
        gauss = np.exp(-(xs[0] ** 2 + xs[1] ** 2) / 2.0)
        u = ComplexField(g, np.zeros(g.shape) if imag is None else gauss + 1j * imag * gauss)
        with pytest.raises(ValueError, match=message):
            negative_energy_witness(u, ModelParams(Family.CUBIC_LOG_2D, 1.0))

    def test_grid_of_another_dimension(self, model2d):
        g = Grid(1, 64, 10.0)
        with pytest.raises(ValueError, match="grid.dim"):
            negative_energy_witness(ComplexField(g, np.exp(-g.axis**2)), model2d)

    def test_wrong_family(self):
        g = Grid(1, 64, 10.0)
        u = ComplexField(g, np.exp(-g.axis**2))
        with pytest.raises(UnsupportedFamily):
            negative_energy_witness(u, ModelParams(Family.QUINTIC_LOG_1D, 1.0))


class TestSmallMass:
    def test_tiny_rho_multiplier_in_window(self, model2d):
        # at rho = 1e-3 the box minimizer is a spread state; the multiplier
        # must still land inside the admissible window
        res = minimize_energy(1e-3, Grid(2, 96, 10.0), model2d, tol=1e-6)
        assert res.energy < 0.0
        assert 0.0 < res.lagrange_omega < 1.0 / (2.0 * math.sqrt(math.e))

    def test_identity_scaling_preserves_samples(self, model2d):
        from lognls.minimize import _rescale_field

        g = Grid(2, 64, 8.0)
        xs = coordinates(g)
        u = np.exp(-(xs[0] ** 2 + xs[1] ** 2) / 2.0)
        back = _rescale_field(rfftn(u), g, 1.0)
        assert np.max(np.abs(back - u)) <= 1e-12


class TestMinimizerPohozaev:
    def test_stationary_identities_with_estimated_multiplier(self, model2d, profile_01):
        from lognls.groundstate import radial_observables
        from lognls.model import observables

        rho = radial_observables(profile_01).mass
        g = Grid(2, 256, 20.0)
        res = minimize_energy(rho, g, model2d, tol=1e-7)
        obs = observables(res.field, model2d)
        w = res.lagrange_omega
        rho_sq = np.abs(res.field.values) ** 2
        log_quartic = integrate(
            g, rho_sq**2 * np.log(np.where(rho_sq > 1e-300, rho_sq, 1.0))
        )
        k2 = 2.0 * obs.kinetic
        r1 = 0.5 * k2 + model2d.lam * log_quartic + w * obs.mass
        r2 = 0.5 * k2 + 0.5 * model2d.lam * obs.quartic - w * obs.mass
        scale1 = max(abs(0.5 * k2), abs(model2d.lam * log_quartic), abs(w * obs.mass))
        scale2 = max(abs(0.5 * k2), abs(0.5 * model2d.lam * obs.quartic), abs(w * obs.mass))
        assert abs(r1) / scale1 <= 1e-4
        assert abs(r2) / scale2 <= 1e-4
