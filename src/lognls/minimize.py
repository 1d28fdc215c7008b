"""Constrained energy minimization on the mass sphere by preconditioned conjugate gradient.

The method is the preconditioned nonlinear conjugate gradient of Antoine,
Levitt and Tang (J. Comput. Phys. 343 (2017) 92-109) on the sphere M(u) = rho,
from a Gaussian.  At u, with g = grad E(u), the multiplier is
omega = -<g, u> / rho and the residual r = g + omega u is the gradient
projected onto the tangent space <., u> = 0.  Convergence is declared on the
eigen-residual ||r|| / ||u||, which certifies the stationary equation
directly rather than energy stagnation.

* Preconditioner: z = P r, projected onto the tangent space, with
  P = (max(omega, c0) + 1/2 |k|^2)^-1, the kinetic part of the linearized
  operator shifted by the current multiplier.
* Direction: d = -z + beta d_prev, projected onto the tangent space, with the
  Polak-Ribiere+ beta = max(0, <r - r_prev, z> / <r_prev, z_prev>).  It
  restarts with d = -z when d is not a sufficient descent direction,
  -<r, d> < <r, z> / 10.
* Step: u <- sqrt(rho) (u + tau d) / ||u + tau d||.  One trial at the carried
  tau, capped so that tau ||d|| <= ||u||, then backtracking on energy
  increase.  The next tau is the minimizer of the parabola through E(0), the
  slope 2 <r, d> and the accepted E(tau), within a factor 4 of the last.  A
  trial that moves the energy by less than its rounding (64 eps |E|) is
  accepted and leaves tau as it was: close to a tight tolerance the energy
  differences are rounding noise, and the residual alone decides.

On the benchmark's three masses on 384^2 (L = 30, tol 1e-6) this takes 12 to
14 iterations where the normalized gradient flow with the fixed
P = (1 + |k|^2)^-1 took 24 to 43; a droplet as wide as its box (rho = 0.5 on
384^2) takes 12 instead of 664.

The iteration runs on real samples u and their half spectrum rfftn(u): the
Gaussian start is real and every operator of an iteration (the Laplacian, P,
rate(u^2) u and the mass rescale) maps real fields to real fields.  An
iteration takes two real transforms, the forward one of rate(u^2) u in the
gradient and the inverse one of the direction.  The multiplier, the residual,
beta, the projections and the slope come from Parseval on the half spectrum,
and each line-search trial takes its spectrum from linearity, so a trial takes
no transform.  Both transforms write into arrays the run owns (``out=``), and
a trial's energy hands rate(u^2) to the next gradient, so the accepted
samples' logarithm is taken once.

A call allocates every array its iterations compute in before the first one,
and no operation of the loop makes a grid-sized temporary (``out=`` on every
ufunc).  The ``_Workspace`` that ``_energy``, ``gradient_E`` and
``_eigen_residual`` write into holds four real grid arrays (u^2, its
logarithm, the potential and the trials' rate), two real half-spectrum arrays
for the Parseval sums (the first holds 1/P while z is formed) and a complex
one for the Laplacian term, which then holds z and the direction's inverse
transform.  The loop owns the accepted and trial samples and their half
spectra, the accepted rate, the residual and the previous one, and the
direction as samples and as half spectrum.  That is about 15 real grid
arrays, 18 MB at 384^2.  A trial writes into the trial arrays, and an
accepted trial swaps them with the accepted ones.  The reason is the
allocator: glibc hands freed temporaries of 1.2 MB (384^2) back to the
system, so a line search that built six of them per trial faulted their pages
in again on every trial (116k minor faults and 0.3-0.4 s of system time in a
three-mass sweep at 384^2 on a 2-vCPU x86 host, against 15k faults and
0.03-0.06 s with the arrays held).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np
from numpy.fft import ifft, irfftn, rfftn

from . import grid as _grid
from .errors import (
    ConservationError,
    ExhaustedScaling,
    GridTooSmall,
    MaxIterations,
    NonPositiveRho,
)
from .model import Family, ModelParams, _density_log, nonlinear_phase_rate, potential_density

_MAX_ITER = 20000
# c0, the floor of the preconditioner's shift max(omega, c0): on the first
# iterates from a start far from the minimizer the multiplier can be near 0 or
# negative, and 1/(1/2 |k|^2) alone is infinite at k = 0
_SHIFT_FLOOR = 1e-3
# an energy change below this share of |E| is rounding (the energy of one
# state, rounded differently, spreads by about 5e-16 |E|)
_ROUNDING = 64 * np.finfo(float).eps

@dataclass
class MinimizerResult:
    field: _grid.ComplexField
    energy: float
    lagrange_omega: float
    residual: float
    iterations: int
    trials: int


class _Workspace:
    """The arrays ``_energy``, ``gradient_E`` and ``_eigen_residual`` compute in on one grid.

    ``rate`` is what ``_energy`` returns; the potential uses it as scratch
    before, and ``gradient_E`` uses ``rho`` for the product rate(u^2) u.
    """

    def __init__(self, g: _grid.Grid):
        self.rho, self.log_rho, self.potential, self.rate = (np.empty(g.shape) for _ in range(4))
        half = g.shape[:-1] + (g.n // 2 + 1,)
        self.power, self.square = np.empty(half), np.empty(half)
        self.spectrum = _half_spectrum(g)


def _half_k2(g: _grid.Grid) -> np.ndarray:
    """|k|^2 on the rfftn half spectrum (a view of ``g.k2``: the Nyquist column squares alike)."""
    return g.k2[..., : g.n // 2 + 1]


def _half_spectrum(g: _grid.Grid) -> np.ndarray:
    """An uninitialized complex array of the rfftn half spectrum's shape on ``g``."""
    return np.empty(g.shape[:-1] + (g.n // 2 + 1,), dtype=complex)


def _power(coeffs: np.ndarray, ws: _Workspace) -> np.ndarray:
    """``grid.spectral_power`` of a half spectrum, formed in ``ws.power``."""
    power = np.square(coeffs.real, out=ws.power)
    power += np.square(coeffs.imag, out=ws.square)
    return power


def _inner(g: _grid.Grid, a: np.ndarray, b: np.ndarray) -> float:
    """<f, h> = integral of f h for the real fields whose half spectra are ``a`` and ``b``.

    ``_parseval`` of Re(a conj(b)), summed by ``einsum`` on the (re, im) pairs
    without an array for the products: a third of the time of forming them.
    """
    a, b = a.view(float), b.view(float)
    edges = np.sum(a[..., :2] * b[..., :2]) + np.sum(a[..., -2:] * b[..., -2:])
    total = 2.0 * float(np.einsum("i,i->", a.ravel(), b.ravel())) - float(edges)
    return total * g.dx ** g.dim / g.n ** g.dim


def _parseval(g: _grid.Grid, terms: np.ndarray) -> float:
    """dx^d / N times the full-spectrum sum of a Hermitian-symmetric quantity, given its half.

    With ``terms`` = |rfftn(u)|^2 this is the integral of u^2.  Each column of
    the half spectrum but k_last = 0 and the Nyquist column stands for itself
    and its mirror image: weight 2, else 1.
    """
    total = 2.0 * float(np.sum(terms)) - float(np.sum(terms[..., 0])) - float(np.sum(terms[..., -1]))
    return total * g.dx ** g.dim / g.n ** g.dim


def gradient_E(
    values: np.ndarray,
    coeffs: np.ndarray,
    g: _grid.Grid,
    out: np.ndarray,
    rate: np.ndarray,
    ws: _Workspace,
) -> np.ndarray:
    """Half spectrum of the first variation -1/2 Lap u + rate(u^2) u, given ``coeffs`` = rfftn(u).

    ``rate`` is rate(u^2), which ``_energy`` returns.  The result is made in
    ``out``, the intermediate arrays in ``ws``.
    """
    product = np.multiply(rate, values, out=ws.rho)
    grad = rfftn(product, out=out)
    laplacian = np.multiply(0.5, _half_k2(g), out=ws.power)
    grad += np.multiply(laplacian, coeffs, out=ws.spectrum)
    return grad


def _energy(
    values: np.ndarray,
    coeffs: np.ndarray,
    g: _grid.Grid,
    model: ModelParams,
    ws: _Workspace,
) -> tuple[float, np.ndarray]:
    """(energy, rate(u^2)) of the real samples u = ``values``, given ``coeffs`` = rfftn(u).

    The rate, ``gradient_E``'s nonlinear factor, shares the potential's
    logarithm.  Every array is formed in ``ws``, and the rate returned is
    ``ws.rate``.
    """
    power = _power(coeffs, ws)
    kinetic = 0.5 * _parseval(g, np.multiply(_half_k2(g), power, out=power))
    rho = np.multiply(values, values, out=ws.rho)
    log_rho = _density_log(rho, out=ws.log_rho)
    potential = potential_density(rho, model, log_rho, out=ws.potential, scratch=ws.rate)
    energy = kinetic + _grid.integrate(g, potential)
    return energy, nonlinear_phase_rate(rho, model, log_rho, out=ws.rate)


def _eigen_residual(
    grad: np.ndarray,
    coeffs: np.ndarray,
    g: _grid.Grid,
    rho: float,
    out: np.ndarray,
    ws: _Workspace,
) -> tuple[float, np.ndarray, float]:
    """(omega, half spectrum of grad + omega u, ||grad + omega u|| / sqrt(rho)) by Parseval.

    ``grad`` and ``coeffs`` are the half spectra of grad E(u) and of u, whose
    mass is ``rho``; omega = -<grad E(u), u> / rho.  The residual's spectrum is
    made in ``out``, which may be ``grad``, and the sums in ``ws``.
    """
    omega_hat = -_inner(g, grad, coeffs) / rho
    resid = np.add(grad, np.multiply(omega_hat, coeffs, out=ws.spectrum), out=out)
    return omega_hat, resid, math.sqrt(_parseval(g, _power(resid, ws)) / rho)


def _gaussian_start(g: _grid.Grid, rho: float) -> np.ndarray:
    """The descent's start: a centred Gaussian of width max(1, L/6) and mass ``rho``."""
    r2 = _grid.squared_distance(g)
    width = max(1.0, g.half_width / 6.0)
    values = np.exp(-r2 / (2.0 * width ** 2))
    return values * math.sqrt(rho / _grid.integrate(g, values * values))


def minimize_energy(
    rho: float,
    grid: _grid.Grid,
    model: ModelParams,
    tol: float = 1e-8,
) -> MinimizerResult:
    """Preconditioned conjugate gradient on the sphere M(u) = rho from a Gaussian.

    It stops when the eigen-residual is at most ``tol``, and raises
    ``MaxIterations`` after ``_MAX_ITER`` iterations or when no step down to
    1e-18 keeps the energy from rising.
    """
    if rho <= 0:
        raise NonPositiveRho(f"mass constraint must be positive, got {rho}")
    if model.lam <= 0:
        raise ValueError("minimization requires lam > 0")
    # the pure cubic energy is not bounded below at fixed mass
    model.require_family(Family.CUBIC_LOG_2D, Family.QUINTIC_LOG_1D, what="energy minimization")
    model.check_grid(grid)

    g = grid
    ws = _Workspace(g)
    values = _gaussian_start(g, rho)
    cand, rate, direction = np.empty(g.shape), np.empty(g.shape), np.empty(g.shape)
    coeffs, cand_coeffs, resid, resid_prev, dir_coeffs = (_half_spectrum(g) for _ in range(5))

    e_cur = _energy(values, rfftn(values, out=coeffs), g, model, ws)[0]
    rate, ws.rate = ws.rate, rate  # ``rate`` is the accepted samples', ``ws.rate`` the trials'
    tau, trials, gamma_prev = 1.0, 0, 0.0
    for iteration in range(1, _MAX_ITER + 1):
        gradient_E(values, coeffs, g, resid, rate, ws)
        omega_hat, resid, residual = _eigen_residual(resid, coeffs, g, rho, resid, ws)
        if residual <= tol:
            return MinimizerResult(
                field=_grid.ComplexField(g, values),
                energy=e_cur,
                lagrange_omega=omega_hat,
                residual=residual,
                iterations=iteration - 1,
                trials=trials,
            )
        # z = P r in ws.spectrum, with 1/P in ws.power, projected onto <., u> = 0
        inverse_p = np.multiply(0.5, _half_k2(g), out=ws.power)
        inverse_p += max(omega_hat, _SHIFT_FLOOR)
        z = np.divide(resid, inverse_p, out=ws.spectrum)
        z -= np.multiply(_inner(g, z, coeffs) / rho, coeffs, out=cand_coeffs)
        gamma = _inner(g, resid, z)
        beta = 0.0
        if gamma_prev > 0.0:
            beta = max(0.0, (gamma - _inner(g, resid_prev, z)) / gamma_prev)
        slope = 0.0  # dE/dtau at tau = 0, 2 <r, d> for a tangent d
        if beta > 0.0:
            dir_coeffs *= beta
            dir_coeffs -= z
            dir_coeffs -= np.multiply(_inner(g, dir_coeffs, coeffs) / rho, coeffs, out=cand_coeffs)
            slope = 2.0 * _inner(g, resid, dir_coeffs)
        if not slope < -0.2 * gamma:
            np.negative(z, out=dir_coeffs)
            slope = -2.0 * gamma
        gamma_prev = gamma
        # numpy's irfftn allocates the result of its leading axes: invert them
        # in place in ws.spectrum, free until the next gradient, then the real
        # axis into ``direction``
        np.copyto(ws.spectrum, dir_coeffs)
        for axis in range(g.dim - 1):
            ifft(ws.spectrum, axis=axis, out=ws.spectrum)
        irfftn(ws.spectrum, s=(g.n,), axes=(g.dim - 1,), out=direction)
        # A trial moves u by at most ||u||.  P's gain at low |k| is large while
        # omega is small, and a longer first step can lift the whole box and end
        # the run on two droplets of half the mass, antipodal on the periodic box.
        step = min(tau, math.sqrt(rho / _inner(g, dir_coeffs, dir_coeffs)))
        noise = _ROUNDING * abs(e_cur)
        while True:
            trials += 1
            np.add(values, np.multiply(step, direction, out=cand), out=cand)
            scale = math.sqrt(rho / _grid.integrate(g, np.multiply(cand, cand, out=ws.rho)))
            cand *= scale
            np.add(coeffs, np.multiply(step, dir_coeffs, out=cand_coeffs), out=cand_coeffs)
            cand_coeffs *= scale
            e_new = _energy(cand, cand_coeffs, g, model, ws)[0]
            change = e_new - e_cur
            # the parabola through E(0), the slope and E(step) means something
            # only when the step moves E by more than its rounding; a trial that
            # does not is accepted and leaves tau as it was
            best = tau
            if max(abs(change), -slope * step) > noise:
                curvature = (change - slope * step) / step ** 2
                best = -0.5 * slope / curvature if curvature > 0.0 else 4.0 * step
            if change <= noise:
                break
            step = min(max(best, 0.1 * step), 0.5 * step)
            if step < 1e-18:
                raise MaxIterations(
                    f"descent stalled at residual {residual:.3e} after {iteration} iterations"
                )
        # the trial's arrays become the accepted ones and the old accepted ones
        # the next trial's; the residual becomes the previous one
        values, cand = cand, values
        coeffs, cand_coeffs = cand_coeffs, coeffs
        rate, ws.rate = ws.rate, rate
        resid, resid_prev = resid_prev, resid
        e_cur = e_new
        tau = min(max(best, 0.25 * tau), 4.0 * tau)
    raise MaxIterations(f"no convergence to {tol} within {_MAX_ITER} iterations")


def negative_energy_witness(
    field: _grid.ComplexField, model: ModelParams
) -> tuple[float, float]:
    """A scale mu in (0,1) with E(mu u(mu x)) < 0, cross-checked in closed form.

    E(u_mu) = mu^2 E(u) - (lam/2) mu^2 ln(1/mu^2) \\int |u|^4: negative for
    small mu since the quartic term is positive for nonzero u.  The grid holds
    u_mu only where mu x lies in [-mu L, mu L)^d; GridTooSmall if the closed
    form of the part of u outside that box exceeds the cross-check's tolerance.
    """
    model.require_family(Family.CUBIC_LOG_2D, what="the scaling witness")
    if model.lam <= 0:
        raise ValueError("witness requires lam > 0")
    g = field.grid
    model.check_grid(g)
    if np.any(field.values.imag):
        raise ValueError("witness requires a real field")
    vals = field.values.real
    if not np.any(vals):
        raise ValueError("witness requires a nonzero field")
    ws = _Workspace(g)
    coeffs, rescaled_coeffs = _half_spectrum(g), _half_spectrum(g)
    e0 = _energy(vals, rfftn(vals, out=coeffs), g, model, ws)[0]
    quartic_density = vals ** 4
    quartic = _grid.integrate(g, quartic_density)
    # the energy density of u: u_mu loses its integral outside [-mu L, mu L)^d
    grads = _grid.spectral_gradient(g, _grid.forward(field.values))
    energy_density = potential_density(vals * vals, model)
    energy_density += 0.5 * sum(_grid.spectral_power(d.values) for d in grads)
    coords = _grid.coordinates(g)

    mu = 1.0
    while mu > 1e-8:
        mu *= 0.5
        scale, log_scale = mu * mu, 0.5 * model.lam * mu * mu * math.log(1.0 / mu ** 2)
        closed = scale * e0 - log_scale * quartic
        tol = 1e-6 * max(abs(closed), abs(e0), 1.0)
        box = mu * g.half_width
        outside = reduce(np.logical_or, [(x < -box) | (x >= box) for x in coords])
        dropped = (scale * _grid.integrate(g, energy_density * outside)
                   - log_scale * _grid.integrate(g, quartic_density * outside))
        if abs(dropped) > tol:
            raise GridTooSmall(f"the field outside [-{box}, {box})^{g.dim} carries {dropped:.3e} "
                               f"of E(u_mu) = {closed} at mu = {mu}: the box is too small")
        rescaled = _rescale_field(coeffs, g, mu)
        e_grid = _energy(rescaled, rfftn(rescaled, out=rescaled_coeffs), g, model, ws)[0]
        if abs(e_grid - closed) > tol:
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
    first = np.exp(1j * np.outer(targets, g.k)) / g.n
    return mu * (first @ coeffs @ last.T).real
