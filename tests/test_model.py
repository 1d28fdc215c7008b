import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import brentq

from lognls.errors import (
    MissingOmega,
    NegativeAmplitude,
    NonPositiveLambda,
    OmegaOutOfWindow,
)
from lognls.grid import ComplexField, Grid, coordinates, gradient, h1_norm, integrate
from lognls.model import (
    Family,
    ModelParams,
    amplitude_roots,
    h1_apriori_bound,
    nonlinear_phase_rate,
    observables,
    omega_window,
    positive_G_zero,
    potential_G,
    stationary_amplitude,
)

from properties import PROPERTY_SETTINGS, models_in_window, smooth_fields


def test_omega_window_values():
    lo, hi = omega_window(ModelParams(Family.CUBIC_LOG_2D, 1.0))
    assert lo == 0.0
    assert hi == pytest.approx(0.3032653298563167, rel=1e-15)
    # window is linear in the coupling
    _, hi2 = omega_window(ModelParams(Family.CUBIC_LOG_2D, 2.0))
    assert hi2 == pytest.approx(2.0 * hi, rel=1e-15)
    _, hi1d = omega_window(ModelParams(Family.QUINTIC_LOG_1D, 1.0))
    assert hi1d == pytest.approx(1.0 / (6.0 * math.e ** (1.0 / 3.0)), rel=1e-15)
    assert hi1d == pytest.approx(0.1194218850956316, rel=1e-12)
    _, hicubic = omega_window(ModelParams(Family.PURE_CUBIC_2D, 1.0))
    assert hicubic == math.inf


def test_omega_window_rejects_nonpositive_lambda():
    with pytest.raises(NonPositiveLambda):
        omega_window(ModelParams(Family.CUBIC_LOG_2D, 0.0))


def test_model_params_window_validation():
    with pytest.raises(OmegaOutOfWindow):
        ModelParams(Family.CUBIC_LOG_2D, 1.0, omega=0.31)
    with pytest.raises(OmegaOutOfWindow):
        ModelParams(Family.QUINTIC_LOG_1D, 1.0, omega=0.12)
    # lam = 0 is fine for evolution paths as long as omega is absent
    ModelParams(Family.CUBIC_LOG_2D, 0.0)


def test_amplitude_roots_against_independent_oracle():
    model = ModelParams(Family.CUBIC_LOG_2D, 1.0, omega=0.1)
    alpha, sqz = amplitude_roots(model)
    # oracle: brentq on the defining scalar equation, independent bisection
    lower = brentq(lambda y: y * math.log(y) + 0.1, 1e-12, 1 / math.e, xtol=1e-16)
    upper = brentq(lambda y: y * math.log(y) + 0.1, 1 / math.e, 1.0, xtol=1e-16)
    assert alpha**2 == pytest.approx(lower, rel=1e-13)
    assert sqz**2 == pytest.approx(upper, rel=1e-13)
    assert alpha**2 == pytest.approx(0.0280, abs=2e-4)
    assert sqz**2 == pytest.approx(0.8942, abs=2e-4)
    # defining equations hold to 1e-12 and the ordering is forced
    assert abs(alpha**2 * math.log(alpha**2) + 0.1) < 1e-12
    assert abs(sqz**2 * math.log(sqz**2) + 0.1) < 1e-12
    assert alpha < math.exp(-0.5) < sqz


def test_amplitude_roots_small_omega_limits():
    model = ModelParams(Family.CUBIC_LOG_2D, 1.0, omega=1e-9)
    alpha, sqz = amplitude_roots(model)
    assert sqz > 0.9999
    assert alpha < 1e-4


def test_amplitude_roots_errors():
    with pytest.raises(OmegaOutOfWindow):
        amplitude_roots(ModelParams(Family.QUINTIC_LOG_1D, 1.0, omega=0.05))
    with pytest.raises(MissingOmega):
        amplitude_roots(ModelParams(Family.CUBIC_LOG_2D, 1.0))


@PROPERTY_SETTINGS
@given(model=models_in_window())
def test_positive_G_zero_solves_G_below_the_stationary_amplitude(model):
    z = positive_G_zero(model)
    assert abs(potential_G(z, model)) <= 1e-12 * model.omega * z * z
    assert z < stationary_amplitude(model)


@PROPERTY_SETTINGS
@given(model=models_in_window())
def test_stationary_amplitude_solves_the_rate_equation(model):
    phi = stationary_amplitude(model)
    assert abs(float(nonlinear_phase_rate(phi * phi, model)) + model.omega) <= 1e-12 * model.omega


def _nonlinear_term(z, m):
    """The right-hand side amplitude function z * rate(z^2) at |u| = z."""
    z = np.asarray(z, dtype=float)
    return z * nonlinear_phase_rate(z * z, m)


def test_nonlinear_term_special_points():
    m = ModelParams(Family.CUBIC_LOG_2D, 1.0)
    assert _nonlinear_term(0.0, m) == 0.0
    assert _nonlinear_term(1.0, m) == 0.0
    z = math.exp(-0.5)
    assert _nonlinear_term(z, m) == pytest.approx(-math.exp(-1.5), rel=1e-14)
    with pytest.raises(NegativeAmplitude):
        potential_G(-0.1, m.with_omega(0.1))


def test_nonlinear_term_signs_by_dense_sampling():
    m = ModelParams(Family.CUBIC_LOG_2D, 1.0)
    zs = np.linspace(1e-6, 1.0 - 1e-9, 2000)
    assert np.all(_nonlinear_term(zs, m) < 0)
    zs = np.linspace(1.0 + 1e-9, 5.0, 2000)
    assert np.all(_nonlinear_term(zs, m) > 0)


def test_nonlinear_term_families():
    m1 = ModelParams(Family.QUINTIC_LOG_1D, 2.0)
    z = 0.7
    assert _nonlinear_term(z, m1) == pytest.approx(2.0 * z**5 * math.log(z**2), rel=1e-14)
    mc = ModelParams(Family.PURE_CUBIC_2D, 1.5)
    assert _nonlinear_term(z, mc) == pytest.approx(-1.5 * z**3, rel=1e-14)


def test_amplitude_clamp_is_exact_zero():
    m = ModelParams(Family.CUBIC_LOG_2D, 1.0)
    assert _nonlinear_term(1e-200, m) == 0.0


def test_potential_G_closed_forms():
    m = ModelParams(Family.CUBIC_LOG_2D, 1.0, omega=0.1)
    assert potential_G(0.0, m) == 0.0
    z = math.exp(-0.25)
    expected = math.exp(-0.5) * (1.0 / (2.0 * math.sqrt(math.e)) - 0.1)
    assert potential_G(z, m) == pytest.approx(expected, rel=1e-14)
    # G(z) = lam z^2 gtilde(z) with gtilde = z^2/4 - z^2 ln z - omega/lam
    zs = np.linspace(1e-9, 1.0, 500)
    gt = zs**2 / 4 - zs**2 * np.log(zs) - 0.1
    assert np.allclose(potential_G(zs, m), zs**2 * gt, rtol=1e-13, atol=1e-16)


def test_potential_G_missing_omega():
    with pytest.raises(MissingOmega):
        potential_G(0.5, ModelParams(Family.CUBIC_LOG_2D, 1.0))


def test_potential_G_quintic_zero_matches_turning_point():
    # positive zero of G at z = sqrt(a); oracle via brentq on the s-equation
    lam, omega = 1.0, 0.05
    a = brentq(
        lambda s: s * s * (1.0 / 3.0 - math.log(s)) - 3.0 * omega / lam,
        1e-9,
        math.exp(-1.0 / 6.0),
        xtol=1e-15,
    )
    assert a == pytest.approx(0.3185, abs=2e-4)
    m = ModelParams(Family.QUINTIC_LOG_1D, lam, omega=omega)
    assert abs(potential_G(math.sqrt(a), m)) < 1e-13


def _gaussian_field(n=256, half_width=10.0, boost=None):
    g = Grid(2, n, half_width)
    xs = coordinates(g)
    vals = np.exp(-(xs[0] ** 2 + xs[1] ** 2) / 2.0).astype(complex)
    if boost is not None:
        vals = vals * np.exp(1j * (boost[0] * xs[0] + boost[1] * xs[1]))
    return g, ComplexField(g, vals)


def test_observables_gaussian_closed_forms():
    m = ModelParams(Family.CUBIC_LOG_2D, 1.0)
    _, fld = _gaussian_field()
    obs = observables(fld, m)
    assert obs.mass == pytest.approx(math.pi, rel=1e-13)
    assert obs.energy == pytest.approx(math.pi / 4.0, rel=1e-12)
    assert obs.kinetic == pytest.approx(math.pi / 2.0, rel=1e-12)
    assert obs.potential == pytest.approx(-math.pi / 4.0, rel=1e-12)
    assert obs.quartic == pytest.approx(math.pi / 2.0, rel=1e-13)
    assert abs(obs.momentum[0]) < 1e-13 and abs(obs.momentum[1]) < 1e-13
    assert obs.energy == obs.kinetic + obs.potential  # exact decomposition


def test_observables_boosted_gaussian_momentum():
    # v = (1, 0) is grid-periodic when L = 4 pi
    m = ModelParams(Family.CUBIC_LOG_2D, 1.0)
    _, fld = _gaussian_field(n=256, half_width=4.0 * math.pi, boost=(1.0, 0.0))
    obs = observables(fld, m)
    assert obs.momentum[0] == pytest.approx(math.pi, rel=1e-12)
    assert abs(obs.momentum[1]) < 1e-12
    assert obs.mass == pytest.approx(math.pi, rel=1e-13)


def test_observables_zero_field():
    m = ModelParams(Family.CUBIC_LOG_2D, 1.0)
    g = Grid(2, 64, 5.0)
    obs = observables(ComplexField(g, np.zeros((64, 64))), m)
    assert obs.mass == 0.0 and obs.energy == 0.0 and obs.quartic == 0.0
    assert obs.momentum == (0.0, 0.0)


def test_observables_phase_and_shift_invariance():
    m = ModelParams(Family.CUBIC_LOG_2D, 1.0)
    g, fld = _gaussian_field(n=128)
    base = observables(fld, m)
    rotated = observables(ComplexField(g, fld.values * np.exp(1j * 0.7)), m)
    assert rotated.mass == pytest.approx(base.mass, rel=1e-14)
    assert rotated.energy == pytest.approx(base.energy, rel=1e-13)
    assert rotated.quartic == pytest.approx(base.quartic, rel=1e-14)
    shifted = observables(ComplexField(g, np.roll(fld.values, (13, -7), axis=(0, 1))), m)
    assert shifted.mass == pytest.approx(base.mass, rel=1e-13)
    assert shifted.energy == pytest.approx(base.energy, rel=1e-12)
    assert shifted.kinetic == pytest.approx(base.kinetic, rel=1e-12)
    assert shifted.quartic == pytest.approx(base.quartic, rel=1e-13)
    np.testing.assert_allclose(shifted.momentum, base.momentum, atol=1e-12)


def test_h1_apriori_bound_values():
    m = ModelParams(Family.CUBIC_LOG_2D, 1.0)
    _, fld = _gaussian_field()
    obs = observables(fld, m)
    bound = h1_apriori_bound(obs, m)
    expected = math.pi / 4.0 + 0.5 * math.sqrt(math.e) * math.pi
    assert bound == pytest.approx(expected, rel=1e-12)
    assert bound == pytest.approx(3.37520, abs=1e-4)
    free = ModelParams(Family.CUBIC_LOG_2D, 0.0)
    obs0 = observables(fld, free)
    assert h1_apriori_bound(obs0, free) == pytest.approx(obs0.energy, rel=1e-14)


def test_action_present_only_with_omega(profile_01):
    m = ModelParams(Family.CUBIC_LOG_2D, 1.0)
    _, fld = _gaussian_field(n=64)
    assert observables(fld, m).action is None
    m2 = m.with_omega(0.2)
    obs = observables(fld, m2)
    assert obs.action == pytest.approx(obs.energy + 0.2 * obs.mass, rel=1e-14)


def test_lagrangian_accessors_on_stationary_profile(profile_01):
    from lognls.groundstate import radial_observables

    obs = radial_observables(profile_01)
    # S = T/2 - V exactly with T = 2 kinetic and V = kinetic - action, and V
    # vanishes on stationary states
    lagrangian_T, lagrangian_V = 2 * obs.kinetic, obs.kinetic - obs.action
    assert obs.action == pytest.approx(0.5 * lagrangian_T - lagrangian_V, rel=1e-12)
    assert abs(lagrangian_V) <= 1e-7 * max(lagrangian_T, 1.0)


# ---------------------------------------------------------------------------
# properties of observables and the Parseval H1 norm on smooth random fields
# ---------------------------------------------------------------------------


def _family_of(u):
    return Family.CUBIC_LOG_2D if u.grid.dim == 2 else Family.QUINTIC_LOG_1D


def _assert_same_observables(a, b, rel):
    for name in ("mass", "kinetic", "potential", "energy", "quartic"):
        assert getattr(a, name) == pytest.approx(getattr(b, name), rel=rel, abs=1e-300)
    # |P_j| <= ||u|| ||d_j u|| bounds every momentum component
    scale = math.sqrt(a.mass * 2.0 * a.kinetic)
    assert np.max(np.abs(np.subtract(a.momentum, b.momentum))) <= rel * scale


class TestObservablesProperties:
    @PROPERTY_SETTINGS
    @given(smooth_fields(dims=(1, 2)), st.floats(min_value=0.5, max_value=2.0),
           st.floats(min_value=-math.pi, max_value=math.pi))
    def test_gauge_invariance(self, u, lam, theta):
        m = ModelParams(_family_of(u), lam)
        rotated = ComplexField(u.grid, np.exp(1j * theta) * u.values)
        _assert_same_observables(observables(rotated, m), observables(u, m), 1e-12)

    @PROPERTY_SETTINGS
    @given(smooth_fields(dims=(1, 2)), st.floats(min_value=0.5, max_value=2.0), st.data())
    def test_translation_invariance(self, u, lam, data):
        m = ModelParams(_family_of(u), lam)
        cells = tuple(data.draw(st.integers(0, u.grid.n - 1)) for _ in range(u.grid.dim))
        shifted = ComplexField(u.grid, np.roll(u.values, cells, axis=tuple(range(u.grid.dim))))
        _assert_same_observables(observables(shifted, m), observables(u, m), 1e-12)

    @PROPERTY_SETTINGS
    @given(smooth_fields(dims=(1, 2)))
    def test_parseval_h1_norm_matches_gradient_definition(self, u):
        g = u.grid
        h1_squared = integrate(g, np.abs(u.values) ** 2)
        h1_squared += sum(integrate(g, np.abs(d.values) ** 2) for d in gradient(u))
        assert h1_norm(u) == pytest.approx(math.sqrt(h1_squared), rel=1e-12)
