"""Constrained energy minimization on the mass sphere by normalized descent.

The descent step is u <- renormalize(u - tau * P grad E(u)) with optional
spectral preconditioner P = (1 + |k|^2)^{-1} and backtracking on energy
increase; convergence is declared on the eigen-residual
||grad E(u) + omega u|| / ||u||, which certifies the stationary equation
directly rather than energy stagnation.

The descent runs on real samples u and their half spectrum rfftn(u): the
Gaussian start is real and every operator of a step (the Laplacian, P,
rate(u^2) u and the mass rescale) maps real fields to real fields.  An
iteration takes two real transforms, the forward one of rate(u^2) u in the
gradient and the inverse one of the direction; the multiplier and the
residual come from Parseval on the half spectrum, and each line-search trial
takes its spectrum from linearity, so a trial takes no transform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import irfftn, rfftn

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


def _half_k2(g: _grid.Grid) -> np.ndarray:
    """|k|^2 on the rfftn half spectrum (a view of ``g.k2``: the Nyquist column squares alike)."""
    return g.k2[..., : g.n // 2 + 1]


def _parseval(g: _grid.Grid, terms: np.ndarray) -> float:
    """dx^d / N times the full-spectrum sum of a Hermitian-symmetric quantity, given its half.

    With ``terms`` = |rfftn(u)|^2 this is the integral of u^2.  Each column of
    the half spectrum but k_last = 0 and the Nyquist column stands for itself
    and its mirror image: weight 2, else 1.
    """
    total = 2.0 * float(np.sum(terms)) - float(np.sum(terms[..., 0])) - float(np.sum(terms[..., -1]))
    return total * g.dx ** g.dim / g.n ** g.dim


def _power(coeffs: np.ndarray) -> np.ndarray:
    return coeffs.real ** 2 + coeffs.imag ** 2


def gradient_E(values: np.ndarray, coeffs: np.ndarray, g: _grid.Grid, model: ModelParams) -> np.ndarray:
    """Half spectrum of the first variation -1/2 Lap u + rate(u^2) u, given ``coeffs`` = rfftn(u)."""
    return 0.5 * _half_k2(g) * coeffs + rfftn(nonlinear_phase_rate(values * values, model) * values)


def _energy(values: np.ndarray, coeffs: np.ndarray, g: _grid.Grid, model: ModelParams) -> float:
    """Energy of the real samples ``values``, given ``coeffs`` = rfftn(values)."""
    kinetic = 0.5 * _parseval(g, _half_k2(g) * _power(coeffs))
    return kinetic + _grid.integrate(g, potential_density(values * values, model))


def _eigen_residual(
    grad: np.ndarray, coeffs: np.ndarray, g: _grid.Grid, rho: float
) -> tuple[float, np.ndarray, float]:
    """(omega, half spectrum of grad + omega u, ||grad + omega u|| / sqrt(rho)) by Parseval.

    ``grad`` and ``coeffs`` are the half spectra of grad E(u) and of u, whose
    mass is ``rho``; omega = -<grad E(u), u> / rho.
    """
    omega_hat = -_parseval(g, grad.real * coeffs.real + grad.imag * coeffs.imag) / rho
    resid = grad + omega_hat * coeffs
    return omega_hat, resid, math.sqrt(_parseval(g, _power(resid)) / rho)


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
    values = np.exp(-r2 / (2.0 * width ** 2))
    values = values * math.sqrt(rho / _grid.integrate(g, values * values))

    kmax2 = float(np.max(g.k2))
    tau0 = 0.1 / (1.0 + 0.5 * kmax2)
    tau = 1.0 if precondition else tau0
    tau_cap = 4.0 if precondition else 10.0 * tau0
    pinv = 1.0 / (1.0 + _half_k2(g)) if precondition else 1.0

    coeffs = rfftn(values)
    e_cur = _energy(values, coeffs, g, model)
    for iteration in range(1, _MAX_ITER + 1):
        omega_hat, resid, residual = _eigen_residual(
            gradient_E(values, coeffs, g, model), coeffs, g, rho
        )
        if residual <= tol:
            return MinimizerResult(
                field=_grid.ComplexField(g, values),
                energy=e_cur,
                lagrange_omega=omega_hat,
                residual=residual,
                iterations=iteration - 1,
            )
        dir_coeffs = pinv * resid
        direction = irfftn(dir_coeffs, s=g.shape)
        accepted = False
        while tau > 1e-18:
            cand = values - tau * direction
            scale = math.sqrt(rho / _grid.integrate(g, cand * cand))
            cand *= scale
            cand_coeffs = (coeffs - tau * dir_coeffs) * scale
            e_new = _energy(cand, cand_coeffs, g, model)
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
    if np.any(field.values.imag):
        raise ValueError("witness requires a real field")
    vals = field.values.real
    if not np.any(vals):
        raise ValueError("witness requires a nonzero field")
    coeffs = rfftn(vals)
    e0 = _energy(vals, coeffs, g, model)
    quartic = _grid.integrate(g, vals ** 4)

    mu = 1.0
    while mu > 1e-8:
        mu *= 0.5
        rescaled = _rescale_field(coeffs, g, mu)
        e_grid = _energy(rescaled, rfftn(rescaled), g, model)
        closed = mu * mu * e0 - 0.5 * model.lam * mu * mu * math.log(1.0 / mu ** 2) * quartic
        if abs(e_grid - closed) > 1e-6 * max(abs(closed), abs(e0), 1.0):
            raise ConservationError(
                f"rescaled-grid energy {e_grid} disagrees with closed form {closed}"
            )
        if e_grid < 0.0:
            return mu, e_grid
    raise ExhaustedScaling("no negative energy found down to mu = 1e-8")


def _rescale_field(coeffs: np.ndarray, g: _grid.Grid, mu: float) -> np.ndarray:
    """Samples of mu * u(mu x) by exact real trigonometric interpolation.

    ``coeffs`` = rfftn(u).  The interpolant is u(x) = (1/N^d) Re sum_k w_k c_k
    e^{i k (x + L)} over the half spectrum, with the Hermitian weights w of
    ``_parseval`` on the last axis and |k| at its Nyquist column; the +L offset
    matters because the domain starts at -L, not 0.
    """
    targets = mu * g.axis + g.half_width
    half = g.n // 2 + 1
    weights = np.full(half, 2.0)
    weights[0] = weights[-1] = 1.0
    last = np.exp(1j * np.outer(targets, np.abs(g.k[:half]))) * (weights / g.n)
    if g.dim == 1:
        return mu * (last @ coeffs).real
    first = np.exp(1j * np.outer(targets, g.k)) / g.n
    return mu * (first @ coeffs @ last.T).real
