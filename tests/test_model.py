import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import brentq

from lognls.cli import _run_contrast, _run_sweep_mass
from lognls.convexity1d import curvature_model, find_turning_point
from lognls.errors import (
    MissingOmega,
    NegativeAmplitude,
    NonPositiveLambda,
    OmegaOutOfWindow,
    UnsupportedFamily,
)
from lognls.evolution import Trajectory, pc_identity_rhs
from lognls.grid import (
    ComplexField,
    Grid,
    forward,
    h1_norm,
    integrate,
    spectral_gradient,
)
from lognls.minimize import minimize_energy, negative_energy_witness
from lognls.model import (
    _DENSITY_CLAMP,
    Family,
    ModelParams,
    _density_log,
    amplitude_roots,
    h1_apriori_bound,
    nonlinear_phase_rate,
    observables,
    omega_window,
    potential_G,
    potential_density,
    stationary_amplitude,
    turning_density,
)

from properties import PROPERTY_SETTINGS, models_in_window, real_fields, smooth_fields


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
    assert omega_window(ModelParams(Family.PURE_CUBIC_2D, 0.5)) == (0.0, math.inf)


def test_omega_window_rejects_nonpositive_lambda():
    # V = 0 at lam = 0: the window is empty, so it admits no frequency; lam < 0 is no model
    assert omega_window(ModelParams(Family.CUBIC_LOG_2D, 0.0)) == (0.0, 0.0)
    with pytest.raises(OmegaOutOfWindow):
        ModelParams(Family.CUBIC_LOG_2D, 0.0, omega=1e-3)
    with pytest.raises(NonPositiveLambda):
        ModelParams(Family.CUBIC_LOG_2D, -1.0)


@pytest.mark.parametrize("family", list(Family))
def test_the_window_is_empty_at_lam_zero(family):
    assert omega_window(ModelParams(family, 0.0)) == (0.0, 0.0)


@PROPERTY_SETTINGS
@given(model=models_in_window())
def test_the_window_edge_is_sup_of_minus_V_over_rho(model):
    edge = omega_window(model)[1]
    rho = np.logspace(-300, 2, 3021)
    v = potential_density(rho, model)
    # V(rho) + edge * rho >= 0, each term exact to a few ulps of its own size
    assert np.all(v + edge * rho >= -1e-15 * (np.abs(v) + edge * rho))
    # with equality at rho* = e^(-1/(p(p+1))), where -V/rho peaks
    p = model.family.log_power
    rho_star = math.exp(-1.0 / (p * (p + 1)))
    assert abs(float(potential_density(rho_star, model)) + edge * rho_star) <= 1e-15 * edge


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
    with pytest.raises(UnsupportedFamily, match="quintic_log_1d"):
        amplitude_roots(ModelParams(Family.QUINTIC_LOG_1D, 1.0, omega=0.05))
    with pytest.raises(MissingOmega):
        amplitude_roots(ModelParams(Family.CUBIC_LOG_2D, 1.0))


@PROPERTY_SETTINGS
@given(model=models_in_window())
def test_sqrt_turning_density_solves_G_below_the_stationary_amplitude(model):
    z = math.sqrt(turning_density(model))
    assert abs(potential_G(z, model)) <= 1e-12 * model.omega * z * z
    assert z < stationary_amplitude(model)


@PROPERTY_SETTINGS
@given(model=models_in_window())
def test_stationary_amplitude_solves_the_rate_equation(model):
    phi = stationary_amplitude(model)
    assert abs(float(nonlinear_phase_rate(phi * phi, model)) + model.omega) <= 1e-12 * model.omega


# lam is a unit: u(x, t) -> u(sqrt(lam) x, lam t) maps the equation at lam onto lam = 1,
# so the window scales with lam and the root equations read omega/lam alone


@PROPERTY_SETTINGS
@given(model=models_in_window(tuple(Family)))
def test_the_window_edge_is_lam_times_the_unit_edge(model):
    # one product lam * edge(1), so the law holds bitwise
    unit_edge = omega_window(ModelParams(model.family, 1.0))[1]
    assert omega_window(model) == (0.0, model.lam * unit_edge)


@PROPERTY_SETTINGS
@given(model=models_in_window())
def test_the_root_equations_read_omega_over_lam_alone(model):
    unit = ModelParams(model.family, 1.0, model.omega / model.lam)
    # -omega/lam is one float for both models, so the bisections are the same
    assert stationary_amplitude(model) == stationary_amplitude(unit)
    # (p+1) omega/lam and (p+1) fl(omega/lam) differ by up to two roundings, and each
    # solve's F(s) = s^p (c - ln s) - target carries about four more; a root moves
    # by that error over |F'(s)|, plus the bisection's final width of 1e-15
    p = model.family.log_power
    c = 1.0 / (p + 1)
    s = turning_density(model)
    slope = s ** (p - 1) * abs(c + p * math.log(s))
    eps = np.finfo(float).eps
    tol = 10.0 * eps * s**p * (c + abs(math.log(s))) / slope + 1e-15
    assert abs(turning_density(unit) - s) <= tol


@st.composite
def _densities(draw):
    """u^2 of a ``real_fields`` draw with a few samples at 0 and a few at or below the clamp."""
    _, u = draw(real_fields())
    rho = (u * u).ravel()
    cells = draw(st.lists(st.integers(0, rho.size - 1), min_size=2, max_size=8, unique=True))
    tiny = draw(st.sampled_from([_DENSITY_CLAMP, _DENSITY_CLAMP / 2.0, 5e-324]))
    rho[cells[: len(cells) // 2]] = 0.0
    rho[cells[len(cells) // 2:]] = tiny
    return rho.reshape(u.shape)


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


@PROPERTY_SETTINGS
@given(_densities(), st.sampled_from(list(Family)), st.floats(min_value=0.5, max_value=2.0))
def test_buffered_density_forms_equal_the_allocating_ones_bitwise(rho, family, lam):
    m = ModelParams(family, lam)

    def garbage():
        return np.full(rho.shape, np.nan)

    log_rho = _density_log(rho)
    assert _bits(log_rho) == _bits(np.log(np.where(rho > _DENSITY_CLAMP, rho, 1.0)))
    out = garbage()
    assert _density_log(rho, out=out) is out and _bits(out) == _bits(log_rho)
    for given_log in (None, log_rho):
        for form in (nonlinear_phase_rate, potential_density):
            out = garbage()
            assert form(rho, m, given_log, out=out) is out
            assert _bits(out) == _bits(form(rho, m, given_log))
        out = garbage()
        potential_density(rho, m, given_log, out=out, scratch=garbage())
        assert _bits(out) == _bits(potential_density(rho, m))
    # and both are the closed forms in p = 2/d, evaluated left to right
    p = family.log_power
    if p is None:
        expected = (-lam * rho, -0.5 * lam * rho * rho)
    else:
        expected = (lam * rho * rho ** (p - 1) * log_rho,
                    lam / (p + 1) * rho ** (p + 1) * (log_rho - 1 / (p + 1)))
    assert _bits(nonlinear_phase_rate(rho, m)) == _bits(expected[0])
    assert _bits(potential_density(rho, m)) == _bits(expected[1])


def test_density_forms_keep_scalars_scalar():
    for family in Family:
        m = ModelParams(family, 1.0)
        for rho in (0.0, 0.25):
            values = (_density_log(rho), nonlinear_phase_rate(rho, m), potential_density(rho, m))
            assert all(isinstance(value, np.float64) for value in values)


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
    with pytest.raises(MissingOmega):
        potential_G(0.5, ModelParams(Family.PURE_CUBIC_2D, 1.0))


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
    xs = g.along_axes(g.axis)
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
    # E + edge * M with the window edge 1/(2 sqrt(e)) = sup -V/rho
    expected = math.pi / 4.0 + math.pi / (2.0 * math.sqrt(math.e))
    assert bound == pytest.approx(expected, rel=1e-12)
    assert bound == pytest.approx(1.73813, abs=1e-5)
    free = ModelParams(Family.CUBIC_LOG_2D, 0.0)
    obs0 = observables(fld, free)
    assert h1_apriori_bound(obs0, free) == pytest.approx(obs0.energy, rel=1e-14)


def test_the_pure_cubic_has_no_apriori_bound():
    cubic = ModelParams(Family.PURE_CUBIC_2D, 1.0)
    g, fld = _gaussian_field()
    assert h1_apriori_bound(observables(fld, cubic), cubic) == math.inf
    # edge * M would be inf * 0 for a zero field
    zero = ComplexField(g, np.zeros(g.shape, dtype=complex))
    assert h1_apriori_bound(observables(zero, cubic), cubic) == math.inf


@PROPERTY_SETTINGS
@given(model=models_in_window(), data=st.data())
def test_the_kinetic_energy_is_below_the_apriori_bound(model, data):
    # bound - kinetic = int (V + edge * rho) >= 0 exactly, so only rounding may cross
    obs = observables(data.draw(smooth_fields((model.dim,))), model)
    scale = obs.kinetic + abs(obs.potential) + omega_window(model)[1] * obs.mass
    assert obs.kinetic <= h1_apriori_bound(obs, model) + 1e-14 * scale


@pytest.mark.parametrize("family", [Family.CUBIC_LOG_2D, Family.QUINTIC_LOG_1D])
def test_the_apriori_bound_is_attained_at_the_peak_density(family):
    # |u|^2 = rho* everywhere makes V + edge * rho vanish pointwise: kinetic 0 = bound
    model = ModelParams(family, 1.0)
    p = family.log_power
    g = Grid(model.dim, 16, 5.0)
    fld = ComplexField(g, np.full(g.shape, math.exp(-0.5 / (p * (p + 1))), dtype=complex))
    obs = observables(fld, model)
    assert abs(h1_apriori_bound(obs, model)) <= 1e-14 * omega_window(model)[1] * obs.mass


# each operation defined for some families only, and the families it accepts
_FAMILY_RULES = {
    "amplitude_roots": (amplitude_roots, {Family.CUBIC_LOG_2D}),
    "stationary_amplitude": (stationary_amplitude, {Family.CUBIC_LOG_2D, Family.QUINTIC_LOG_1D}),
    "find_turning_point": (find_turning_point, {Family.QUINTIC_LOG_1D}),
    "curvature_model": (curvature_model, {Family.QUINTIC_LOG_1D}),
    "minimize_energy": (lambda m: minimize_energy(1.0, Grid(m.dim, 16, 5.0), m),
                        {Family.CUBIC_LOG_2D, Family.QUINTIC_LOG_1D}),
    "negative_energy_witness": (
        lambda m: negative_energy_witness(ComplexField(Grid(m.dim, 16, 5.0), np.ones((16,) * m.dim)),
                                          m),
        {Family.CUBIC_LOG_2D}),
    "pc_identity_rhs": (lambda m: pc_identity_rhs(Trajectory(), m),
                        {Family.CUBIC_LOG_2D, Family.PURE_CUBIC_2D}),
    "sweep_mass": (lambda m: _run_sweep_mass({"model": m}, None), {Family.CUBIC_LOG_2D}),
    "contrast_blowup": (lambda m: _run_contrast({"model": m, "evolution": None}, None),
                        {Family.CUBIC_LOG_2D}),
}
_REFUSED = [(name, family) for name, (_, accepted) in _FAMILY_RULES.items()
            for family in Family if family not in accepted]


@pytest.mark.parametrize("name, family", _REFUSED, ids=[f"{n}-{f.value}" for n, f in _REFUSED])
def test_each_family_refusal_names_the_family_it_was_given(name, family):
    with pytest.raises(UnsupportedFamily, match=f"not {family.value}"):
        _FAMILY_RULES[name][0](ModelParams(family, 1.0, 0.05))


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
        grads = spectral_gradient(g, forward(u.values))
        h1_squared += sum(integrate(g, np.abs(d.values) ** 2) for d in grads)
        assert h1_norm(u) == pytest.approx(math.sqrt(h1_squared), rel=1e-12)
