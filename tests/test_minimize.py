import math

import numpy as np
import pytest
from scipy.fft import fftn

from lognls.errors import NonPositiveRho, UnsupportedFamily
from lognls.grid import ComplexField, Grid, coordinates, integrate
from lognls.groundstate import embed_radial, radial_observables
from lognls.evolution import orbit_distance
from lognls.minimize import (
    _energy,
    gradient_E,
    minimize_energy,
    negative_energy_witness,
)
from lognls.model import Family, ModelParams


def _random_smooth(g, seed):
    rng = np.random.default_rng(seed)
    xs = coordinates(g)
    r2 = sum(x * x for x in xs)
    envelope = np.exp(-r2 / 8.0)
    vals = envelope * (
        rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    )
    # smooth by damping high modes
    coeffs = np.fft.fftn(vals)
    coeffs *= np.exp(-0.5 * g.k2)
    return ComplexField(g, np.fft.ifftn(coeffs))


class TestGradient:
    def test_zero_field(self):
        m = ModelParams(Family.CUBIC_LOG_2D, 1.0)
        g = Grid(2, 64, 8.0)
        zero = np.zeros(g.shape)
        out = gradient_E(ComplexField(g, zero), m, fftn(zero))
        assert np.max(np.abs(out.values)) == 0.0

    def test_directional_derivative_oracle(self):
        # (E(u+ev) - E(u-ev)) / (2e) = 2 Re <grad E(u), v> + O(e^2)
        m = ModelParams(Family.CUBIC_LOG_2D, 1.0)
        g = Grid(2, 64, 8.0)
        u = _random_smooth(g, 3)
        v = _random_smooth(g, 4)
        grad = gradient_E(u, m, fftn(u.values))
        pairing = 2.0 * float(
            np.real(np.sum(grad.values * np.conj(v.values))) * g.dx**2
        )
        errs = {}
        for eps in (1e-3, 1e-4):
            ep, _ = _energy(u.values + eps * v.values, g, m)
            em, _ = _energy(u.values - eps * v.values, g, m)
            errs[eps] = abs((ep - em) / (2.0 * eps) - pairing)
        assert errs[1e-3] <= 1e-4 * max(abs(pairing), 1.0)
        # quadratic decay of the finite-difference error
        assert errs[1e-3] / max(errs[1e-4], 1e-18) > 4.0

    def test_shooting_profile_is_stationary(self, model2d, profile_01):
        g = Grid(2, 384, 30.0)
        u = embed_radial(profile_01, g)
        grad = gradient_E(u, model2d, fftn(u.values))
        resid = grad.values + 0.1 * u.values
        num = math.sqrt(integrate(g, np.abs(resid) ** 2))
        den = math.sqrt(integrate(g, np.abs(u.values) ** 2))
        assert num / den <= 5e-6  # tail-model rate mismatch dominates


class TestMinimize:
    def test_matches_shooting_branch(self, model2d, profile_01):
        rho = radial_observables(profile_01).mass
        g = Grid(2, 384, 30.0)
        res = minimize_energy(rho, g, model2d, tol=1e-6, precondition=True)
        assert res.residual <= 1e-6
        dist, _, _ = orbit_distance(res.field, profile_01)
        assert dist <= 1e-4
        assert abs(res.lagrange_omega - 0.1) <= 1e-3
        mass = integrate(g, np.abs(res.field.values) ** 2)
        assert abs(mass - rho) / rho <= 1e-12

    def test_energy_negative_and_window_multiplier(self, model2d):
        g = Grid(2, 128, 15.0)
        res = minimize_energy(1.0, g, model2d, tol=1e-5, precondition=True)
        assert res.energy < 0.0
        assert 0.0 < res.lagrange_omega < 1.0 / (2.0 * math.sqrt(math.e))

    def test_beats_trial_states_of_same_mass(self, model2d):
        g = Grid(2, 128, 15.0)
        rho = 2.0
        res = minimize_energy(rho, g, model2d, tol=1e-5, precondition=True)
        xs = coordinates(g)
        r2 = sum(x * x for x in xs)
        for width in (0.5, 1.0, 3.0):
            trial = np.exp(-r2 / (2.0 * width**2))
            trial *= math.sqrt(rho / integrate(g, np.abs(trial) ** 2))
            assert res.energy < _energy(trial.astype(complex), g, model2d)[0]

    def test_radially_nonincreasing_modulus(self, model2d, profile_01):
        rho = radial_observables(profile_01).mass
        g = Grid(2, 256, 20.0)
        res = minimize_energy(rho, g, model2d, tol=1e-6, precondition=True)
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

    def test_wrong_family(self):
        g = Grid(1, 64, 10.0)
        u = ComplexField(g, np.exp(-g.axis**2))
        with pytest.raises(UnsupportedFamily):
            negative_energy_witness(u, ModelParams(Family.QUINTIC_LOG_1D, 1.0))


class TestSmallMass:
    def test_tiny_rho_multiplier_in_window(self, model2d):
        # at rho = 1e-3 the box minimizer is a spread state; the multiplier
        # must still land inside the admissible window
        res = minimize_energy(1e-3, Grid(2, 96, 10.0), model2d, tol=1e-6, precondition=True)
        assert res.energy < 0.0
        assert 0.0 < res.lagrange_omega < 1.0 / (2.0 * math.sqrt(math.e))

    def test_identity_scaling_preserves_samples(self, model2d):
        from lognls.minimize import _rescale_field

        g = Grid(2, 64, 8.0)
        xs = coordinates(g)
        u = np.exp(-(xs[0] ** 2 + xs[1] ** 2) / 2.0).astype(complex)
        back = _rescale_field(np.fft.fftn(u), g, 1.0)
        assert np.max(np.abs(back - u)) <= 1e-12


class TestMinimizerPohozaev:
    def test_stationary_identities_with_estimated_multiplier(self, model2d, profile_01):
        from lognls.groundstate import radial_observables
        from lognls.model import observables

        rho = radial_observables(profile_01).mass
        g = Grid(2, 256, 20.0)
        res = minimize_energy(rho, g, model2d, tol=1e-7, precondition=True)
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
