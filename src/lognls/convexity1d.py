"""1D quintic-log appendix: exact-quadrature ground states and action convexity.

The autonomous 1D profile obeys the first integral (phi')^2 = -2 G(phi), so
everything reduces to one-dimensional quadratures in amplitude space.  In the
turning-point variables used here, with the rate f and potential density g
of ``model`` (``nonlinear_phase_rate`` and ``potential_density``),

    f(s) = lam s^2 ln s,   g(s) = (lam/3) s^3 ln(s / e^(1/3)),
    W(s) = omega s + g(s),        W(phi_max^2) = 0,  W'(a) < 0,

and G(sqrt(s)) = -W(s).  The curvature of the action branch d(omega) is the
Iliev-Kirchev integral; its printed simplification drops constant factors, so
both forms are computed and the general one is canonical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    OmegaOutOfWindow,
    OmegaTooCloseToEdge,
    QuadratureFailure,
)
from .grid import hermite_cubic
from .model import (
    Family,
    ModelParams,
    nonlinear_phase_rate,
    omega_window,
    potential_density,
    potential_G,
    turning_density,
)

_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(16)
_MAX_PANELS = 4096
_DPP_REL_TOL = 1e-8
_MASS_ACTION_REL_TOL = 1e-11
FD_STEP = 1e-4  # the frequency step of the finite-difference curvature oracle


@dataclass(frozen=True)
class TurningPoint:
    a: float
    W_prime_at_a: float


@dataclass
class Profile1D:
    x_nodes: np.ndarray
    values: np.ndarray
    derivs: np.ndarray
    phi_max: float


def find_turning_point(model: ModelParams) -> TurningPoint:
    """Smallest positive zero a of W (``model.turning_density``), and W'(a) < 0 there."""
    model.require_family(Family.QUINTIC_LOG_1D, what="the turning point")
    a = turning_density(model)
    w_prime = model.require_omega() + float(nonlinear_phase_rate(a, model))
    if w_prime >= 0.0:
        raise OmegaOutOfWindow("double root: W'(a) >= 0 at the window edge")
    return TurningPoint(a=a, W_prime_at_a=w_prime)


def _gauss_segments(fn, edges: np.ndarray) -> np.ndarray:
    """The 16-point Gauss-Legendre integral of ``fn`` over each [edges[i], edges[i+1]]."""
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    pts = mid[:, None] + half[:, None] * _GAUSS_X[None, :]
    vals = fn(pts.ravel()).reshape(pts.shape)
    return half * (vals * _GAUSS_W[None, :]).sum(axis=1)


def _adaptive_gauss(fn, lo: float, hi: float, rel_tol: float):
    """Composite Gauss rule on 1, 2, 4, ... equal panels until two agree to rel_tol."""
    prev, panels = None, 1
    while panels <= _MAX_PANELS:
        cur = float(np.sum(_gauss_segments(fn, np.linspace(lo, hi, panels + 1))))
        if prev is not None and abs(cur - prev) <= rel_tol * max(abs(cur), 1e-300):
            return cur
        prev, panels = cur, 2 * panels
    raise QuadratureFailure("composite Gauss quadrature failed to settle")


def curvature_model(model: ModelParams) -> ModelParams:
    """``model``, a quintic model refused within 5% of its window edge."""
    model.require_family(Family.QUINTIC_LOG_1D, what="the curvature integral")
    if model.require_omega() > 0.95 * omega_window(model)[1]:
        raise OmegaTooCloseToEdge(
            "W'(a) -> 0 within 5% of the window edge; curvature integral is singular"
        )
    return model


def dpp_forms(model: ModelParams) -> tuple[float, float]:
    """(general, simplified) evaluations of the curvature integral d''(omega) at ``model.omega``.

    Both integrands carry the (s/W)^{1/2} endpoint singularity at s = a,
    absorbed by the substitution s = a - t^2.
    """
    tp = find_turning_point(curvature_model(model))
    lam, omega, a = model.lam, model.require_omega(), tp.a
    fa = float(nonlinear_phase_rate(a, model))
    ga = potential_density(a, model)

    def W(s):
        return omega * s + potential_density(s, model)

    def bracket_factor(s):
        # 3 + a s (f(a) - f(s)) / (a g(s) - s g(a)); near s=a the raw form
        # cancels catastrophically and the algebraically equal limit
        # (lam/3) s (a^2 - s^2) / W(s) takes over.
        s = np.asarray(s, dtype=float)
        out = np.empty_like(s)
        near = a - s < 1e-4 * a
        sn = s[near]
        out[near] = (lam / 3.0) * sn * (a * a - sn * sn) / W(sn)
        sf = s[~near]
        out[~near] = 3.0 + a * sf * (fa - nonlinear_phase_rate(sf, model)) / (
            a * potential_density(sf, model) - sf * ga
        )
        return out

    def general_integrand(t):
        s = a - t * t
        return 2.0 * t * bracket_factor(s) * np.sqrt(s / W(s))

    def simplified_integrand(t):
        s = a - t * t
        w = W(s)
        return 2.0 * t * ((a * a - s * s) / w) * s * np.sqrt(s / w)

    # For this equation (phi')^2 = 2 W(phi^2), so the amplitude-space measure
    # is ds / sqrt(2 W): M(omega) = 2^{-1/2} int_0^a (s/W)^{1/2} ds, and the
    # curvature inherits the same 1/sqrt(2).  Cross-checked against centered
    # differences of the action and of the mass.
    pref = -1.0 / (2.0 * tp.W_prime_at_a) / math.sqrt(2.0)
    general = pref * _adaptive_gauss(general_integrand, 0.0, math.sqrt(a), _DPP_REL_TOL)
    simplified = pref * _adaptive_gauss(simplified_integrand, 0.0, math.sqrt(a), _DPP_REL_TOL)
    return general, simplified


# ---------------------------------------------------------------------------
# amplitude-space quadratures: the profile and its observables, no ODE solve;
# along the profile (phi')^2 = -2 G(phi) > 0 on (0, phi_max)
# ---------------------------------------------------------------------------


def mass_action_1d(model: ModelParams):
    """(mass, action, energy) of the 1D ground state at ``model.omega`` by amplitude quadrature."""
    a = find_turning_point(model).a
    phimax = math.sqrt(a)
    tmax = math.sqrt(phimax)

    # substitute phi = phimax - t^2; sqrt(-2G) ~ t near t=0, integrands smooth
    def mass_integrand(t):
        phi = phimax - t * t
        return 2.0 * t * 2.0 * phi * phi / np.sqrt(-2.0 * potential_G(phi, model))

    def grad_integrand(t):
        phi = phimax - t * t
        return 2.0 * t * 2.0 * np.sqrt(-2.0 * potential_G(phi, model))

    def potential_integrand(t):
        phi = phimax - t * t
        return 2.0 * t * 2.0 * potential_density(phi * phi, model) / np.sqrt(
            -2.0 * potential_G(phi, model))

    mass = _adaptive_gauss(mass_integrand, 0.0, tmax, _MASS_ACTION_REL_TOL)
    grad2 = _adaptive_gauss(grad_integrand, 0.0, tmax, _MASS_ACTION_REL_TOL)
    potential = _adaptive_gauss(potential_integrand, 0.0, tmax, _MASS_ACTION_REL_TOL)
    energy = 0.5 * grad2 + potential
    action = energy + model.require_omega() * mass
    return mass, action, energy


def ground_state_1d_quadrature(model: ModelParams, n_nodes: int = 4001) -> Profile1D:
    """Even positive profile at ``model.omega`` by inverting x(phi) = int d phi / sqrt(-2G).

    The x(phi) table is accumulated with per-segment Gauss rule in two
    charts: t = sqrt(phi_max - phi) near the turning amplitude (square-root
    tangency) and u = ln(phi) down the exponential tail.
    """
    if n_nodes < 3 or n_nodes % 2 == 0:
        raise ValueError("n_nodes must be an odd integer >= 3")
    a = find_turning_point(model).a
    phimax = math.sqrt(a)

    # chart A: phi in [phimax/2, phimax], t = sqrt(phimax - phi)
    t_hi = math.sqrt(phimax / 2.0)
    t_edges = np.linspace(0.0, t_hi, 1501)

    def dx_dt(t):
        phi = phimax - t * t
        return 2.0 * t / np.sqrt(-2.0 * potential_G(phi, model))

    x_a = np.concatenate(([0.0], np.cumsum(_gauss_segments(dx_dt, t_edges))))
    phi_a = phimax - t_edges ** 2

    # chart B: phi from phimax/2 down to the floor, u = ln phi
    floor = phimax * 1e-13
    u_edges = np.linspace(math.log(phimax / 2.0), math.log(floor), 2001)

    def dx_du(u):
        phi = np.exp(u)
        return -phi / np.sqrt(-2.0 * potential_G(phi, model))

    x_b = x_a[-1] + np.cumsum(_gauss_segments(dx_du, u_edges))
    phi_b = np.exp(u_edges)

    x_table = np.concatenate([x_a, x_b])
    phi_table = np.concatenate([phi_a, phi_b[1:]])
    dphi_table = -np.sqrt(-2.0 * potential_G(phi_table, model))
    dphi_table[0] = 0.0

    half = (n_nodes + 1) // 2
    x_half = np.linspace(0.0, float(x_table[-1]), half)
    v_half, d_half = hermite_cubic(x_table, phi_table, dphi_table, x_half)
    v_half[0] = phimax
    d_half[0] = 0.0

    x_nodes = np.concatenate([-x_half[:0:-1], x_half])
    values = np.concatenate([v_half[:0:-1], v_half])
    derivs = np.concatenate([-d_half[:0:-1], d_half])
    return Profile1D(x_nodes=x_nodes, values=values, derivs=derivs, phi_max=phimax)


@dataclass
class ConvexityRow:
    omega: float
    dpp_quad: float
    dpp_simplified: float
    dpp_fd: float | None
    mass: float
    action: float


def action_convexity_scan(model: ModelParams, omega_grid) -> list[ConvexityRow]:
    """Curvature along the branch of ``model`` at each frequency of ``omega_grid``.

    Each row has the quadrature, both printed forms and the FD oracle.  The
    claims d''_quad > 0 and mass increasing in omega are the caller's to check.
    """
    omegas = [float(w) for w in omega_grid]
    # every model is built, and so checked, before the first quadrature: each point by
    # ``curvature_model``, and with more than one point its neighbours omega -+ FD_STEP
    points = [curvature_model(model.with_omega(omega)) for omega in omegas]
    neighbours = [(model.with_omega(omega - FD_STEP), model.with_omega(omega + FD_STEP))
                  if len(omegas) > 1 else None for omega in omegas]
    rows = []
    for at, pair in zip(points, neighbours):
        general, simplified = dpp_forms(at)
        mass, action, _ = mass_action_1d(at)
        fd = None
        if pair is not None:
            sm, sp = (mass_action_1d(m)[1] for m in pair)
            fd = (sp - 2.0 * action + sm) / FD_STEP ** 2
        rows.append(
            ConvexityRow(
                omega=at.omega,
                dpp_quad=general,
                dpp_simplified=simplified,
                dpp_fd=fd,
                mass=mass,
                action=action,
            )
        )
    return rows
