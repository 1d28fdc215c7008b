"""Constrained energy minimization on the mass sphere by normalized descent.

The descent step is u <- renormalize(u - tau * P grad E(u)) with optional
spectral preconditioner P = (1 + |k|^2)^{-1} and backtracking on energy
increase; convergence is declared on the eigen-residual
||grad E(u) + omega u|| / ||u||, which certifies the stationary equation
directly rather than energy stagnation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import fftn, ifftn

from . import grid as _grid
from .errors import (
    ConservationError,
    ExhaustedScaling,
    MaxIterations,
    NonPositiveRho,
    UnsupportedFamily,
)
from .model import Family, ModelParams, nonlinear_phase_rate, potential_density

_MAX_ITER = 20000

@dataclass
class MinimizerResult:
    field: _grid.ComplexField
    energy: float
    lagrange_omega: float
    residual: float
    iterations: int


def gradient_E(field: _grid.ComplexField, model: ModelParams, coeffs: np.ndarray) -> _grid.ComplexField:
    """First variation of the energy, -1/2 Lap u + rate(|u|^2) u, given ``coeffs`` = fftn(u)."""
    g = field.grid
    lap = ifftn(-g.k2 * coeffs, overwrite_x=True)
    rho = np.abs(field.values) ** 2
    return _grid.ComplexField(g, -0.5 * lap + nonlinear_phase_rate(rho, model) * field.values)


def _energy(values: np.ndarray, g: _grid.Grid, model: ModelParams) -> tuple[float, np.ndarray]:
    """Energy of the samples ``values`` and their forward transform."""
    coeffs = fftn(values)
    kinetic = 0.5 * float(np.sum(g.k2 * np.abs(coeffs) ** 2)) * g.dx ** g.dim / values.size
    rho = np.abs(values) ** 2
    return kinetic + _grid.integrate(g, potential_density(rho, model)), coeffs


def minimize_energy(
    rho: float,
    grid: _grid.Grid,
    model: ModelParams,
    tol: float = 1e-8,
    precondition: bool | None = None,
) -> MinimizerResult:
    """Gradient flow on the sphere M(u) = rho from a Gaussian, stopping on the eigen-residual."""
    if rho <= 0:
        raise NonPositiveRho(f"mass constraint must be positive, got {rho}")
    if model.lam <= 0:
        raise ValueError("minimization requires lam > 0")
    if model.family is Family.PURE_CUBIC_2D:
        raise UnsupportedFamily("the pure cubic energy is not bounded below at fixed mass")
    if precondition is None:
        precondition = grid.n >= 512

    g = grid
    xs = _grid.coordinates(g)
    r2 = sum(x * x for x in xs)
    width = max(1.0, g.half_width / 6.0)
    values = np.exp(-r2 / (2.0 * width ** 2)).astype(complex)
    values = values * math.sqrt(rho / _grid.integrate(g, np.abs(values) ** 2))

    kmax2 = float(np.max(g.k2))
    tau0 = 0.1 / (1.0 + 0.5 * kmax2)
    tau = 1.0 if precondition else tau0
    tau_cap = 4.0 if precondition else 10.0 * tau0
    pinv = 1.0 / (1.0 + g.k2)

    e_cur, coeffs = _energy(values, g, model)
    for iteration in range(1, _MAX_ITER + 1):
        grad = gradient_E(_grid.ComplexField(g, values), model, coeffs).values
        omega_hat = -_grid.integrate(g, grad * np.conj(values)) / rho
        resid_field = grad + omega_hat * values
        residual = math.sqrt(_grid.integrate(g, np.abs(resid_field) ** 2) / rho)
        if residual <= tol:
            return MinimizerResult(
                field=_grid.ComplexField(g, values),
                energy=e_cur,
                lagrange_omega=omega_hat,
                residual=residual,
                iterations=iteration - 1,
            )
        if precondition:
            direction = ifftn(pinv * fftn(resid_field, overwrite_x=True), overwrite_x=True)
        else:
            direction = resid_field
        accepted = False
        while tau > 1e-18:
            cand = values - tau * direction
            cand *= math.sqrt(rho / _grid.integrate(g, np.abs(cand) ** 2))
            e_new, cand_coeffs = _energy(cand, g, model)
            if e_new <= e_cur:
                values, coeffs = cand, cand_coeffs
                e_cur = e_new
                tau = min(tau * 1.3, tau_cap)
                accepted = True
                break
            tau *= 0.5
        if not accepted:
            # stalled below float resolution of the energy; report as converged
            # only if the residual is meaningful, otherwise give up
            raise MaxIterations(
                f"descent stalled at residual {residual:.3e} after {iteration} iterations"
            )
    raise MaxIterations(f"no convergence to {tol} within {_MAX_ITER} iterations")


def negative_energy_witness(
    field: _grid.ComplexField, model: ModelParams
) -> tuple[float, float]:
    """A scale mu in (0,1) with E(mu u(mu x)) < 0, cross-checked in closed form.

    E(u_mu) = mu^2 E(u) - (lam/2) mu^2 ln(1/mu^2) \\int |u|^4: negative for
    small mu since the quartic term is positive for nonzero u.
    """
    if model.family is not Family.CUBIC_LOG_2D:
        raise UnsupportedFamily("the scaling witness is a 2D log-model statement")
    if model.lam <= 0:
        raise ValueError("witness requires lam > 0")
    g = field.grid
    vals = field.values
    if not np.any(vals):
        raise ValueError("witness requires a nonzero field")
    e0, coeffs = _energy(vals, g, model)
    quartic = _grid.integrate(g, np.abs(vals) ** 4)

    mu = 1.0
    while mu > 1e-8:
        mu *= 0.5
        rescaled = _rescale_field(coeffs, g, mu)
        e_grid, _ = _energy(rescaled, g, model)
        closed = mu * mu * e0 - 0.5 * model.lam * mu * mu * math.log(1.0 / mu ** 2) * quartic
        if abs(e_grid - closed) > 1e-6 * max(abs(closed), abs(e0), 1.0):
            raise ConservationError(
                f"rescaled-grid energy {e_grid} disagrees with closed form {closed}"
            )
        if e_grid < 0.0:
            return mu, e_grid
    raise ExhaustedScaling("no negative energy found down to mu = 1e-8")


def _rescale_field(coeffs: np.ndarray, g: _grid.Grid, mu: float) -> np.ndarray:
    """Samples of mu * u(mu x) by exact trigonometric interpolation.

    The DFT interpolant is u(x) = (1/N^d) sum_k c_k e^{i k (x + L)}; the +L
    offset matters because the domain starts at -L, not 0.
    """
    targets = mu * g.axis + g.half_width
    basis = np.exp(1j * np.outer(targets, g.k)) / g.n
    if g.dim == 1:
        return mu * (basis @ coeffs)
    return mu * (basis @ coeffs @ basis.T)
