import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import brentq

from lognls import groundstate
from lognls.errors import BracketFailure, GridTooSmall, MissingOmega, OmegaOutOfWindow
from lognls.grid import Grid, integrate
from lognls.groundstate import (
    RadialProfile,
    ShotClass,
    _classify,
    _integrate_radial,
    _make_rhs,
    embed_radial,
    find_ground_state,
    pohozaev_residuals,
    radial_observables,
    townes_mass,
    uniqueness_certificate,
)
from lognls.model import (
    _DENSITY_CLAMP,
    Family,
    ModelParams,
    amplitude_roots,
    nonlinear_phase_rate,
    observables,
    omega_window,
)

from properties import PROPERTY_SETTINGS, models_in_window


def _g_zero_oracle(omega, lam=1.0):
    # positive zero of G for the 2D log model: z^2 (1/4 - ln z) = omega/lam
    return brentq(
        lambda z: z * z * (0.25 - math.log(z)) - omega / lam,
        1e-9,
        math.exp(-0.25),
        xtol=1e-15,
    )


@PROPERTY_SETTINGS
@given(
    model=models_in_window(tuple(Family)),
    p=st.floats(min_value=0.0, max_value=2.0, exclude_min=True),
    tiny=st.floats(min_value=0.0, max_value=1e-150, exclude_min=True),
)
def test_shooting_force_is_the_model_rate(model, p, tiny):
    """The DP5 loop's scalar force is 2 (omega p + p rate(p^2)), exactly 2 omega p below the clamp."""
    rhs = _make_rhs(model)
    force = rhs(1.0, p, 0.0)[1]
    rate_term = p * float(nonlinear_phase_rate(p * p, model))
    expected = 2.0 * (model.omega * p + rate_term)
    assert abs(force - expected) <= 1e-14 * 2.0 * (model.omega * p + abs(rate_term))
    assert tiny * tiny <= _DENSITY_CLAMP
    assert rhs(1.0, tiny, 0.0)[1] == 2.0 * (model.omega * tiny)


class TestShoot:
    def test_amplitude_at_the_linfty_bound_overshoots(self, model2d):
        _, sqz = amplitude_roots(model2d.with_omega(0.1))
        assert _classify(model2d.with_omega(0.1), sqz * (1.0 - 1e-9)) is ShotClass.OVERSHOOT
        # the spec's own printed value sits below the root and must overshoot
        assert _classify(model2d.with_omega(0.1), 0.9452) is ShotClass.OVERSHOOT

    def test_just_above_G_zero_undershoots(self, model2d):
        cls = _classify(model2d.with_omega(0.1), _g_zero_oracle(0.1) + 1e-6)
        assert cls is ShotClass.UNDERSHOOT

    def test_omega_outside_window_rejected(self, model2d):
        with pytest.raises(OmegaOutOfWindow):
            _classify(model2d.with_omega(0.31), 0.5)

    def test_store_returns_trajectory(self, model2d):
        _, rs, ps, qs = _integrate_radial(model2d.with_omega(0.1), 0.5, True)
        assert len(rs) == len(ps) == len(qs) > 50
        assert np.all(np.diff(rs) > 0)

    def test_unstored_shot_keeps_its_exit_state(self, model2d):
        cls, rs, ps, qs = _integrate_radial(model2d.with_omega(0.1), 0.5, True)
        assert _integrate_radial(model2d.with_omega(0.1), 0.5, False) == (
            cls, [rs[-1]], [ps[-1]], [qs[-1]]
        )


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize(
    "solve", [lambda m: _classify(m, 0.5), find_ground_state, uniqueness_certificate],
    ids=["shoot", "find_ground_state", "uniqueness_certificate"],
)
def test_solvers_read_omega_from_the_model(solve, family):
    """A model without omega has no ground state, the pure cubic included."""
    with pytest.raises(MissingOmega):
        solve(ModelParams(family, 1.0))


class TestFindGroundState:
    def test_amplitude_bound_and_certificates(self, model2d, profile_01):
        p = profile_01
        _, sqz = amplitude_roots(model2d.with_omega(0.1))
        assert 0.0 < p.center_value < sqz
        assert max(abs(r) for r in p.residuals) <= 1e-6
        assert abs(p.tail_rate / math.sqrt(0.2) - 1.0) <= 0.05
        # positive, non-increasing profile
        assert np.all(p.values > 0.0)
        assert np.all(np.diff(p.values) <= 1e-14)

    def test_action_positive(self, profile_01):
        obs = radial_observables(profile_01)
        assert obs.action > 0.0

    def test_energy_is_minus_half_quartic(self, profile_01):
        # stationary identity E(phi) = -(lam/2) int phi^4, from both Pohozaev rows
        obs = radial_observables(profile_01)
        assert obs.energy == pytest.approx(-0.5 * obs.quartic, abs=1e-8)

    def test_near_edge_solution_exists(self, model2d, profile_029):
        _, sqz = amplitude_roots(model2d.with_omega(0.29))
        assert profile_029.center_value < sqz
        assert max(abs(r) for r in profile_029.residuals) <= 1e-6

    def test_bitwise_determinism(self, model2d, profile_01):
        again = find_ground_state(model2d.with_omega(0.1))
        assert np.array_equal(again.values, profile_01.values)
        assert np.array_equal(again.derivs, profile_01.derivs)
        assert again.tail_rate == profile_01.tail_rate
        assert again.center_value == profile_01.center_value

    def test_misclassified_endpoint_fails_without_a_search(self, model2d):
        # at 0.98 of the window edge the upper endpoint undershoots; no warnings, one failure
        edge = omega_window(model2d)[1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BracketFailure):
                find_ground_state(model2d.with_omega(0.98 * edge))

    def test_bad_tolerance_rejected(self, model2d):
        with pytest.raises(ValueError):
            find_ground_state(model2d.with_omega(0.1), tol=1e-14)


def _plain_bisection(model, lo, hi):
    """The amplitude search the guard band replays: shoot every midpoint to float exhaustion."""
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        cls = _classify(model, mid)
        if cls is ShotClass.OVERSHOOT:
            hi = mid
        elif cls is ShotClass.UNDERSHOOT:
            lo = mid
        else:
            lo = hi = mid
            break
    return 0.5 * (lo + hi)


def _bisected_profile(monkeypatch, model):
    with monkeypatch.context() as patch:
        patch.setattr(groundstate, "_exhausted_amplitude", _plain_bisection)
        return find_ground_state(model)


def _bits(profile):
    fields = ("r_nodes", "values", "derivs", "tail_rate", "tail_coeff", "center_value", "residuals")
    return tuple(np.asarray(getattr(profile, name), dtype=float).tobytes() for name in fields)


def _counting_shots(monkeypatch):
    """Record (amplitude, store) of every shot find_ground_state takes from here on."""
    shots = []
    shoot = groundstate._integrate_radial

    def counted(model, b, store):
        shots.append((b, store))
        return shoot(model, b, store)

    monkeypatch.setattr(groundstate, "_integrate_radial", counted)
    return shots


class _Stored(Exception):
    pass


_SEARCH_MODELS = [
    *(ModelParams(Family.CUBIC_LOG_2D, 1.0, w) for w in (0.001, 0.01, 0.05, 0.1, 0.2, 0.28, 0.29)),
    ModelParams(Family.CUBIC_LOG_2D, 2.0, 0.5),
    *(ModelParams(Family.QUINTIC_LOG_1D, 1.0, w) for w in (0.01, 0.05, 0.1, 0.119)),
    ModelParams(Family.PURE_CUBIC_2D, 1.0, 1.0),
]


class TestAmplitudeSearch:
    @pytest.mark.parametrize(
        "model", _SEARCH_MODELS, ids=[f"{m.family.value}-{m.lam}-{m.omega}" for m in _SEARCH_MODELS]
    )
    def test_profile_is_plain_bisections_bit_for_bit(self, monkeypatch, model):
        assert _bits(find_ground_state(model)) == _bits(_bisected_profile(monkeypatch, model))

    def test_half_the_shots_of_plain_bisection(self, monkeypatch, model2d):
        shots = _counting_shots(monkeypatch)
        find_ground_state(model2d.with_omega(0.1))
        assert len(shots) <= 30  # plain bisection: 57, the stored shot included

    @pytest.mark.parametrize("side", ["lo", "hi"])
    def test_an_estimate_at_the_bracket_end_widens_the_band(self, monkeypatch, model2d, side):
        model = model2d.with_omega(0.1)
        reference = _bisected_profile(monkeypatch, model)
        bracket = {}

        def at_the_end(model, lo, hi):
            bracket.update(lo=lo, hi=hi)
            return bracket[side]

        monkeypatch.setattr(groundstate, "_estimate_amplitude", at_the_end)
        shots = _counting_shots(monkeypatch)
        assert _bits(find_ground_state(model)) == _bits(reference)
        # the first guard edge inside the bracket misclassified, so the band grew
        edge = bracket[side]
        guard = groundstate._GUARD * edge
        first = edge + guard if side == "lo" else edge - guard
        assert (first, False) in shots
        assert len(shots) > 30

    def test_a_converged_shot_ends_the_search(self, monkeypatch, model2d, profile_01):
        """Shots within 1e-9 of the amplitude converge: both searches stop at the same one."""
        model = model2d.with_omega(0.1)
        target = profile_01.center_value
        shoot = groundstate._integrate_radial
        shots = []

        def converging(model, b, store):
            if store:
                raise _Stored(b)
            if abs(b - target) <= 1e-9 * target:
                out = (ShotClass.CONVERGED, [0.0], [0.0], [0.0])
            else:
                out = shoot(model, b, store)
            shots.append((b, out[0]))
            return out

        monkeypatch.setattr(groundstate, "_integrate_radial", converging)
        found = []
        for search in (groundstate._exhausted_amplitude, _plain_bisection):
            monkeypatch.setattr(groundstate, "_exhausted_amplitude", search)
            shots.clear()
            with pytest.raises(_Stored) as stored:
                find_ground_state(model)
            b = stored.value.args[0]
            assert shots[-1] == (b, ShotClass.CONVERGED)
            found.append(b)
        assert found[0] == found[1]


class TestPohozaev:
    def test_zero_profile(self, model2d):
        p = RadialProfile(
            model=model2d.with_omega(0.1),
            r_nodes=np.linspace(0, 10, 101),
            values=np.zeros(101),
            derivs=np.zeros(101),
            tail_rate=1.0,
            tail_coeff=0.0,
            center_value=0.0,
        )
        assert pohozaev_residuals(p) == (0.0, 0.0, 0.0)

    def test_perturbed_profile_detected(self, profile_01):
        bad = RadialProfile(
            model=profile_01.model,
            r_nodes=profile_01.r_nodes,
            values=profile_01.values * 1.01,
            derivs=profile_01.derivs * 1.01,
            tail_rate=profile_01.tail_rate,
            tail_coeff=profile_01.tail_coeff * 1.01,
            center_value=profile_01.center_value * 1.01,
        )
        assert max(abs(r) for r in pohozaev_residuals(bad)) >= 1e-3


class TestTownes:
    def test_townes_and_rescaled_norm(self):
        mass_q = townes_mass(1.0)
        assert mass_q == pytest.approx(5.850, abs=2e-3)
        # the same shooter under the R-normalization gives ||R||^2 = 2 lam M(Q)
        profile_r = find_ground_state(ModelParams(Family.PURE_CUBIC_2D, 0.5, omega=0.5))
        mass_r = radial_observables(profile_r).mass
        assert abs(2.0 * mass_q - mass_r) / mass_r < 1e-6
        assert mass_r == pytest.approx(11.7009, rel=2e-4)
        assert profile_r.center_value == pytest.approx(2.2062, abs=2e-4)


class TestUniqueness:
    def test_certificate_values_and_ordering(self, model2d):
        cert = uniqueness_certificate(model2d.with_omega(0.1))
        u1_oracle = brentq(
            lambda z: z * z * (0.25 - math.log(z)) - 0.1, 1e-9, math.exp(-0.25), xtol=1e-15
        )
        assert cert.u1 == pytest.approx(u1_oracle, rel=1e-12)
        assert cert.u1 == pytest.approx(0.246, abs=1e-3)
        assert cert.alpha == pytest.approx(0.167, abs=1e-3)
        assert cert.sqrt_z_omega == pytest.approx(0.945, abs=1e-3)
        assert cert.alpha < cert.u1 < cert.sqrt_z_omega
        assert cert.all_ok
        assert cert.samples == 10_000

    def test_certificate_near_window_edge(self, model2d):
        edge = 1.0 / (2.0 * math.sqrt(math.e))
        cert = uniqueness_certificate(model2d.with_omega(0.99 * edge))
        assert cert.all_ok
        assert cert.alpha < cert.u1 < cert.sqrt_z_omega

    def test_wrong_family_rejected(self):
        with pytest.raises(OmegaOutOfWindow):
            uniqueness_certificate(ModelParams(Family.QUINTIC_LOG_1D, 1.0, 0.05))


class TestEmbed:
    def test_mass_agreement_cross_quadrature(self, model2d, profile_029):
        # boxes holding the full support meet the 1e-8 cross-quadrature contract
        p02 = find_ground_state(model2d.with_omega(0.2))
        g = Grid(2, 256, 20.0)
        grid_mass = integrate(g, np.abs(embed_radial(p02, g).values) ** 2)
        radial_mass = radial_observables(p02).mass
        assert abs(grid_mass - radial_mass) / radial_mass <= 1e-8
        # the omega = 0.29 droplet is wide (flat top); it needs L = 32
        g29 = Grid(2, 416, 32.0)
        grid_mass = integrate(g29, np.abs(embed_radial(profile_029, g29).values) ** 2)
        radial_mass = radial_observables(profile_029).mass
        assert abs(grid_mass - radial_mass) / radial_mass <= 1e-8

    def test_embedded_peak_and_positivity(self, profile_01):
        g = Grid(2, 256, 20.0)
        fld = embed_radial(profile_01, g)
        assert np.max(np.abs(fld.values.imag)) == 0.0
        peak = np.unravel_index(np.argmax(fld.values.real), fld.values.shape)
        assert g.axis[peak[0]] == pytest.approx(0.0, abs=g.dx)
        assert np.all(fld.values.real > 0.0)

    def test_phase_gauge_invariance(self, model2d, profile_01):
        g = Grid(2, 128, 20.0)
        plain = observables(embed_radial(profile_01, g), model2d)
        rotated = observables(embed_radial(profile_01, g, phase=1.1), model2d)
        assert rotated.mass == pytest.approx(plain.mass, rel=1e-14)
        assert rotated.energy == pytest.approx(plain.energy, rel=1e-13)
        np.testing.assert_allclose(rotated.momentum, plain.momentum, atol=1e-12)

    def test_grid_too_small(self, profile_01):
        with pytest.raises(GridTooSmall):
            embed_radial(profile_01, Grid(2, 64, 6.0))

    def test_off_center_embedding_keeps_mass(self, model2d):
        p02 = find_ground_state(model2d.with_omega(0.2))
        g = Grid(2, 288, 24.0)
        centered = integrate(g, np.abs(embed_radial(p02, g).values) ** 2)
        moved = integrate(
            g, np.abs(embed_radial(p02, g, center=(2.0, -1.0)).values) ** 2
        )
        assert moved == pytest.approx(centered, rel=1e-8)


class TestQuinticShooting:
    def test_1d_profile_certifies(self):
        m = ModelParams(Family.QUINTIC_LOG_1D, 1.0)
        p = find_ground_state(m.with_omega(0.05))
        assert max(abs(r) for r in p.residuals) <= 1e-6
        assert abs(p.tail_rate / math.sqrt(0.1) - 1.0) <= 0.05
        # amplitude equals the positive zero of G: phi(0)^2 = a
        a = brentq(
            lambda s: s * s * (1.0 / 3.0 - math.log(s)) - 0.15,
            1e-9,
            math.exp(-1.0 / 6.0),
            xtol=1e-15,
        )
        assert p.center_value**2 == pytest.approx(a, abs=1e-10)


class TestSweepDegenerate:
    def test_single_entry_list(self):
        from lognls.groundstate import mass_asymptotics_sweep

        rows, mass_q = mass_asymptotics_sweep(1.0, [1e-2])
        assert len(rows) == 1
        assert mass_q == pytest.approx(5.850, abs=2e-3)
        assert rows[0].mass == pytest.approx(1.1915, abs=2e-4)
