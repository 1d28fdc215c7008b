import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from properties import PROPERTY_SETTINGS, models_in_window
from scipy.integrate import simpson
from scipy.interpolate import CubicHermiteSpline
from scipy.optimize import brentq

from lognls.convexity1d import (
    action_convexity_scan,
    curvature_model,
    dpp_forms,
    find_turning_point,
    ground_state_1d_quadrature,
    mass_action_1d,
)
from lognls.errors import MissingOmega, OmegaOutOfWindow, OmegaTooCloseToEdge, UnsupportedFamily
from lognls.groundstate import find_ground_state
from lognls.model import Family, ModelParams, omega_window, potential_G

EDGE = 1.0 / (6.0 * math.e ** (1.0 / 3.0))
QUINTIC = ModelParams(Family.QUINTIC_LOG_1D, 1.0)


def quintic(omega, lam=1.0):
    return ModelParams(Family.QUINTIC_LOG_1D, lam, omega)


def w_closed(s, lam, omega):
    """W(s) = omega s + (lam/3) s^3 (ln s - 1/3), whose first zero is the turning point."""
    s = np.asarray(s, dtype=float)
    return omega * s + (lam / 3.0) * s**3 * (np.log(s) - 1.0 / 3.0)


class TestTurningPoint:
    def test_matches_independent_root(self):
        tp = find_turning_point(quintic(0.05))
        a_oracle = brentq(
            lambda s: s * s * (1.0 / 3.0 - math.log(s)) - 0.15,
            1e-9,
            math.exp(-1.0 / 6.0),
            xtol=1e-15,
        )
        assert tp.a == pytest.approx(a_oracle, rel=1e-12)
        assert tp.a == pytest.approx(0.3185, abs=2e-4)
        assert tp.W_prime_at_a == pytest.approx(-0.066, abs=1e-3)
        assert abs(w_closed(tp.a, 1.0, 0.05)) < 1e-12
        assert tp.W_prime_at_a < 0.0

    def test_W_positive_below_a(self):
        tp = find_turning_point(quintic(0.05))
        s = (np.arange(1000) + 0.5) / 1000 * tp.a
        assert np.all(w_closed(s, 1.0, 0.05) > 0.0)

    def test_edge_limit_double_root(self):
        # W = W' = 0 merge at s = e^{-1/6}; the root walks into it like sqrt
        tp = find_turning_point(quintic(0.9999 * EDGE))
        assert tp.a == pytest.approx(math.exp(-1.0 / 6.0), abs=1e-2)
        assert -5e-3 < tp.W_prime_at_a < 0.0

    def test_small_omega_asymptote(self):
        # a solves a^2(1/3 - ln a) = 3 omega: a -> 0 with the log scale
        tp = find_turning_point(quintic(1e-4))
        assert tp.a < 0.02
        assert tp.a**2 * (1.0 / 3.0 - math.log(tp.a)) == pytest.approx(3e-4, rel=1e-12)

    def test_window_enforced(self):
        with pytest.raises(OmegaOutOfWindow):
            find_turning_point(quintic(EDGE * 1.01))
        with pytest.raises(OmegaOutOfWindow):
            find_turning_point(quintic(0.0))

    def test_G_of_sqrt_s_is_minus_W(self):
        m = ModelParams(Family.QUINTIC_LOG_1D, 1.0, omega=0.05)
        s = np.linspace(1e-6, 1.2, 400)
        np.testing.assert_allclose(
            potential_G(np.sqrt(s), m), -w_closed(s, 1.0, 0.05), rtol=1e-12, atol=1e-15
        )


class TestDpp:
    def test_positive_across_window_and_fd_oracle(self):
        for omega in (0.01, 0.05, 0.11):
            general = dpp_forms(quintic(omega))[0]
            assert general > 0.0
            d = 1e-4
            s0 = mass_action_1d(quintic(omega))[1]
            fd = (
                mass_action_1d(quintic(omega + d))[1]
                - 2.0 * s0
                + mass_action_1d(quintic(omega - d))[1]
            ) / d**2
            assert general == pytest.approx(fd, rel=1e-2)
            # Richardson confirmation at half step
            d2 = 5e-5
            fd2 = (
                mass_action_1d(quintic(omega + d2))[1]
                - 2.0 * s0
                + mass_action_1d(quintic(omega - d2))[1]
            ) / d2**2
            assert fd2 == pytest.approx(fd, rel=1e-3)

    def test_matches_mass_slope(self):
        # d'(omega) = M, so d'' is also the slope of the mass along the branch
        d = 1e-4
        slope = (mass_action_1d(quintic(0.05 + d))[0] - mass_action_1d(quintic(0.05 - d))[0]) / (2 * d)
        assert dpp_forms(quintic(0.05))[0] == pytest.approx(slope, rel=1e-4)

    def test_forms_ratio_is_lambda_thirds(self):
        for lam, omega in ((1.0, 0.05), (2.0, 0.1)):
            general, simplified = dpp_forms(quintic(omega, lam))
            assert general / simplified == pytest.approx(lam / 3.0, rel=1e-10)

    def test_edge_guard(self):
        with pytest.raises(OmegaTooCloseToEdge):
            dpp_forms(quintic(0.96 * EDGE))


class TestWindowProperties:
    @PROPERTY_SETTINGS
    @given(lam=st.floats(0.5, 2.0), fraction=st.floats(0.01, 0.9))
    def test_identities_across_the_window(self, lam, fraction):
        omega = fraction * omega_window(ModelParams(Family.QUINTIC_LOG_1D, lam))[1]
        model = ModelParams(Family.QUINTIC_LOG_1D, lam, omega)
        tp = find_turning_point(model)
        assert abs(potential_G(math.sqrt(tp.a), model)) <= 1e-12 * omega * tp.a
        assert tp.W_prime_at_a < 0.0
        general, simplified = dpp_forms(model)
        assert general / simplified == pytest.approx(lam / 3.0, rel=1e-10)
        # d'(omega) = M: d'' is the centred slope of the mass, step relative to omega
        d = 1e-3 * omega
        slope = (mass_action_1d(model.with_omega(omega + d))[0]
                 - mass_action_1d(model.with_omega(omega - d))[0]) / (2 * d)
        assert general == pytest.approx(slope, rel=1e-4)


@PROPERTY_SETTINGS
@given(model=models_in_window((Family.QUINTIC_LOG_1D,)))
def test_curvature_and_mass_read_omega_over_lam_alone(model):
    """d''_lam(omega) = lam^(-3/2) d''_1(omega/lam) and M_lam(omega) = lam^(-1/2) M_1(omega/lam).

    Both models give the turning density a to an ulp, so each quadrature runs
    the same panels at the same nodes, and the gap is the integrands' rounding.
    W(s) = omega s + V(s) cancels toward s = a, where W ~ |W'(a)| t^2, so the
    rounding of omega/lam is magnified by omega a / (|W'(a)| t^2) at the nodes
    nearest t = 0: about 1e4 eps omega/|W'(a)| in the curvature and 1e3 in the
    mass (largest ratios over 200 draws), and omega/|W'(a)| <= 1.9 below the
    95% margin.
    """
    assume(model.omega <= 0.95 * omega_window(model)[1])  # curvature_model's margin
    unit = quintic(model.omega / model.lam)
    lam = model.lam
    general, general_unit = dpp_forms(model)[0], dpp_forms(unit)[0]
    assert abs(lam ** -1.5 * general_unit - general) <= 1e-10 * general
    mass, mass_unit = mass_action_1d(model)[0], mass_action_1d(unit)[0]
    assert abs(lam ** -0.5 * mass_unit - mass) <= 1e-11 * mass


class TestProfile1D:
    def test_phimax_squared_equals_a(self):
        tp = find_turning_point(quintic(0.05))
        p = ground_state_1d_quadrature(quintic(0.05))
        assert p.phi_max**2 == pytest.approx(tp.a, abs=1e-10)

    def test_even_symmetric_and_decreasing(self):
        p = ground_state_1d_quadrature(quintic(0.05))
        assert np.array_equal(p.values, p.values[::-1])
        half = p.values[p.x_nodes >= 0.0]
        assert np.all(np.diff(half) < 0.0)
        assert p.values.max() == p.values[p.x_nodes == 0.0]

    def test_exponential_tail_rate(self):
        p = ground_state_1d_quadrature(quintic(0.05))
        kappa = math.sqrt(0.1)
        x = p.x_nodes[p.x_nodes > 0]
        v = p.values[p.x_nodes > 0]
        sel = (v < p.phi_max * 1e-4) & (v > p.phi_max * 1e-6)
        slope = np.polyfit(x[sel], np.log(v[sel]), 1)[0]
        assert abs(-slope / kappa - 1.0) < 0.05
        # phi(x) e^{kappa x} settles to a constant over the fitted decades
        scaled = v[sel] * np.exp(kappa * x[sel])
        assert scaled.std() / scaled.mean() < 0.05

    def test_agrees_with_independent_shooting(self):
        # cross-oracle: same profile from the radial shooter
        p = ground_state_1d_quadrature(quintic(0.05))
        shot = find_ground_state(quintic(0.05))
        spline = CubicHermiteSpline(shot.r_nodes, shot.values, shot.derivs)
        x = p.x_nodes[(p.x_nodes >= 0.0) & (p.x_nodes <= shot.r_cut)]
        mine = p.values[(p.x_nodes >= 0.0) & (p.x_nodes <= shot.r_cut)]
        theirs = spline(x)
        assert np.max(np.abs(mine - theirs)) <= 1e-8

    def test_node_count_stability_of_mass_and_action(self):
        lam, omega = 1.0, 0.05
        vals = {}
        for n in (4001, 8001):
            p = ground_state_1d_quadrature(quintic(omega, lam), n_nodes=n)
            mass = simpson(p.values**2, x=p.x_nodes)
            grad2 = simpson(p.derivs**2, x=p.x_nodes)
            rho = p.values**2
            pot = simpson(
                (lam / 3.0) * rho**3 * (np.log(np.maximum(rho, 1e-300)) - 1.0 / 3.0),
                x=p.x_nodes,
            )
            vals[n] = (mass, 0.5 * grad2 + pot + omega * mass)
        assert vals[4001][0] == pytest.approx(vals[8001][0], rel=1e-9)
        assert vals[4001][1] == pytest.approx(vals[8001][1], abs=1e-9 * max(1.0, abs(vals[8001][1])))

    def test_quadrature_mass_matches_profile_mass(self):
        p = ground_state_1d_quadrature(quintic(0.05))
        mass_q = mass_action_1d(quintic(0.05))[0]
        mass_x = simpson(p.values**2, x=p.x_nodes)
        assert mass_x == pytest.approx(mass_q, rel=1e-9)


class TestScan:
    def test_ten_point_scan(self):
        rows = action_convexity_scan(QUINTIC, np.linspace(0.005, 0.11, 10))
        assert all(r.dpp_quad > 0.0 for r in rows)
        masses = [r.mass for r in rows]
        assert all(a < b for a, b in zip(masses, masses[1:]))
        for r in rows:
            assert r.dpp_fd == pytest.approx(r.dpp_quad, rel=1e-2)
            assert math.copysign(1, r.dpp_fd) == math.copysign(1, r.dpp_quad)
        ratios = [r.dpp_quad / r.dpp_simplified for r in rows]
        assert max(ratios) - min(ratios) < 1e-9

    def test_single_point_scan_has_no_fd_column(self):
        rows = action_convexity_scan(QUINTIC, [0.05])
        assert len(rows) == 1
        assert rows[0].dpp_fd is None


_QUADRATURES = (find_turning_point, curvature_model, dpp_forms, mass_action_1d,
                ground_state_1d_quadrature)


def _scan_at_005(model):
    return action_convexity_scan(model, [0.05])


class TestOneModelConvention:
    """Every entry point reads omega from the quintic model it is given."""

    @pytest.mark.parametrize("fn", _QUADRATURES, ids=lambda fn: fn.__name__)
    def test_model_without_omega(self, fn):
        with pytest.raises(MissingOmega):
            fn(QUINTIC)

    @pytest.mark.parametrize("family", [Family.CUBIC_LOG_2D, Family.PURE_CUBIC_2D])
    @pytest.mark.parametrize("fn", (*_QUADRATURES, _scan_at_005), ids=lambda fn: fn.__name__)
    def test_model_of_another_family(self, fn, family):
        with pytest.raises(UnsupportedFamily, match=family.value):
            fn(ModelParams(family, 1.0, 0.05))
