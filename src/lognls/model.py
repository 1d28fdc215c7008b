"""Nonlinearity families, admissible frequency windows, and conserved functionals.

Everything downstream (shooting, evolution, minimization, the 1D appendix
machinery) consumes the definitions in this module.  The three families are

* ``CUBIC_LOG_2D``   : i u_t + (1/2) Lap u = lam * u |u|^2 ln|u|^2   on R^2
* ``QUINTIC_LOG_1D`` : i u_t + (1/2) u_xx  = lam * u |u|^4 ln|u|^2   on R
* ``PURE_CUBIC_2D``  : focusing cubic reference, stationary form
                       -(1/2) Lap Q - lam Q^3 + omega Q = 0
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.fft import fftn

from . import grid as _grid
from .errors import (
    MissingOmega,
    NegativeAmplitude,
    NonPositiveLambda,
    OmegaOutOfWindow,
)

# Log-weighted terms evaluate to exactly 0 below this amplitude: z^3 ln z^2 -> 0
# and -inf * 0 must never reach the float pipeline.
AMPLITUDE_CLAMP = 1e-150
_DENSITY_CLAMP = AMPLITUDE_CLAMP ** 2


class Family(str, Enum):
    CUBIC_LOG_2D = "cubic_log_2d"
    QUINTIC_LOG_1D = "quintic_log_1d"
    PURE_CUBIC_2D = "pure_cubic_2d"

    @property
    def dim(self) -> int:
        return 1 if self is Family.QUINTIC_LOG_1D else 2


@dataclass(frozen=True)
class ModelParams:
    """Nonlinearity family plus coupling ``lam`` and optional frequency ``omega``."""

    family: Family
    lam: float
    omega: float | None = None

    def __post_init__(self):
        """The one check of the frequency window: lam = 0 admits no frequency."""
        if self.lam < 0:
            raise NonPositiveLambda(f"coupling must be >= 0, got {self.lam}")
        if self.omega is not None:
            lo, hi = omega_window(self) if self.lam > 0 else (0.0, 0.0)
            if not lo < self.omega < hi:
                raise OmegaOutOfWindow(
                    f"omega={self.omega} outside ({lo}, {hi}) for {self.family.value}"
                )

    @property
    def dim(self) -> int:
        return self.family.dim

    def require_omega(self) -> float:
        if self.omega is None:
            raise MissingOmega("operation requires a frequency omega")
        return float(self.omega)

    def with_omega(self, omega: float) -> "ModelParams":
        return ModelParams(self.family, self.lam, omega)


def omega_window(model: ModelParams) -> tuple[float, float]:
    """Open interval of frequencies admitting nontrivial solitary waves."""
    if model.lam <= 0:
        raise NonPositiveLambda("frequency window requires lam > 0")
    if model.family is Family.CUBIC_LOG_2D:
        return 0.0, model.lam / (2.0 * math.sqrt(math.e))
    if model.family is Family.QUINTIC_LOG_1D:
        return 0.0, model.lam / (6.0 * math.e ** (1.0 / 3.0))
    return 0.0, math.inf


def _bisect_root(f, lo: float, hi: float):
    """Bracketing bisection to a width of 1e-15, then one Newton polish.

    The callers guarantee monotonicity of ``f`` on [lo, hi], so the bracket
    never lies.  ``f`` returns (value, derivative).
    """
    flo = f(lo)[0]
    fhi = f(hi)[0]
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise ValueError("root not bracketed")
    while hi - lo > 1e-15:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        fm = f(mid)[0]
        if fm == 0.0:
            return mid
        if fm * flo < 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
    x = 0.5 * (lo + hi)
    val, dval = f(x)
    if dval != 0.0:
        polished = x - val / dval
        if lo <= polished <= hi:
            x = polished
    return x


def amplitude_roots(model: ModelParams) -> tuple[float, float]:
    """Roots of y ln y = -omega/lam: returns (alpha, sqrt(z_omega)).

    alpha^2 is the lower root on (0, 1/e); z_omega the upper one on (1/e, 1).
    The stationary nonlinearity g vanishes exactly at 0, alpha and sqrt(z_omega).
    """
    if model.family is not Family.CUBIC_LOG_2D:
        raise OmegaOutOfWindow("amplitude roots are defined for the 2D cubic-log family")
    target = -model.require_omega() / model.lam

    def eq(y):
        ly = math.log(y)
        return y * ly - target, ly + 1.0

    lower = _bisect_root(eq, 1e-300, 1.0 / math.e)
    upper = _bisect_root(eq, 1.0 / math.e, 1.0)
    return math.sqrt(lower), math.sqrt(upper)


def stationary_amplitude(model: ModelParams) -> float:
    """sqrt(z_omega): the upper root of rate(phi^2) = -omega, the stationary point of g.

    2D cubic-log: the upper root of ``amplitude_roots``; 1D quintic-log:
    y^2 ln y = -omega/lam on (e^{-1/2}, 1), with phi = sqrt(y).
    """
    if model.family is Family.CUBIC_LOG_2D:
        return amplitude_roots(model)[1]
    if model.family is not Family.QUINTIC_LOG_1D:
        raise OmegaOutOfWindow("the stationary amplitude is defined for the log families")
    target = -model.require_omega() / model.lam

    def eq(y):
        ly = math.log(y)
        return y * y * ly - target, y * (2.0 * ly + 1.0)

    return math.sqrt(_bisect_root(eq, math.exp(-0.5), 1.0))


def turning_density(model: ModelParams) -> float:
    """Smallest s > 0 with s^2 (1/3 - ln s) = 3 omega/lam, on (0, e^{-1/6}).

    G(sqrt(s)) = 0 there for the 1D quintic-log family: s is the squared
    peak amplitude of its ground state.
    """
    if model.family is not Family.QUINTIC_LOG_1D:
        raise OmegaOutOfWindow("the turning density is defined for the 1D quintic-log family")
    target = 3.0 * model.require_omega() / model.lam

    def eq(s):
        ls = math.log(s)
        return s * s * (1.0 / 3.0 - ls) - target, s * (-1.0 / 3.0 - 2.0 * ls)

    return _bisect_root(eq, 1e-12, math.exp(-1.0 / 6.0))


def positive_G_zero(model: ModelParams) -> float:
    """Smallest z > 0 with G(z) = 0; below it shooting trajectories cannot decay.

    2D cubic-log: z^2 (1/4 - ln z) = omega/lam on (0, e^{-1/4}), where the
    left side increases; 1D quintic-log: the square root of ``turning_density``.
    """
    omega = model.require_omega()
    if model.family is Family.PURE_CUBIC_2D:
        return math.sqrt(2.0 * omega / model.lam)
    if model.family is Family.QUINTIC_LOG_1D:
        return math.sqrt(turning_density(model))
    target = omega / model.lam

    def eq(z):
        lz = math.log(z)
        return z * z * (0.25 - lz) - target, 2.0 * z * (0.25 - lz) - z

    return _bisect_root(eq, 1e-12, math.exp(-0.25))


def _density_log(rho: np.ndarray | float) -> np.ndarray | float:
    """ln(rho) with the removable-singularity convention: 0 where rho ~ 0."""
    rho = np.asarray(rho, dtype=float)
    safe = np.where(rho > _DENSITY_CLAMP, rho, 1.0)
    return np.log(safe)


def nonlinear_phase_rate(rho, model: ModelParams):
    """d/d rho of the potential density: the phase rate of the nonlinear subflow.

    CubicLog2D: lam rho ln rho; QuinticLog1D: lam rho^2 ln rho; PureCubic2D: -lam rho.
    """
    rho = np.asarray(rho, dtype=float)
    if model.family is Family.PURE_CUBIC_2D:
        return -model.lam * rho
    lr = _density_log(rho)
    if model.family is Family.CUBIC_LOG_2D:
        return model.lam * rho * lr
    return model.lam * rho * rho * lr


def potential_density(rho, model: ModelParams):
    """Potential-energy density V(rho):  E = (1/2)||grad u||^2 + int V(|u|^2)."""
    rho = np.asarray(rho, dtype=float)
    if model.family is Family.PURE_CUBIC_2D:
        return -0.5 * model.lam * rho * rho
    lr = _density_log(rho)
    if model.family is Family.CUBIC_LOG_2D:
        # (lam/2) rho^2 ln(rho / sqrt(e))
        return 0.5 * model.lam * rho * rho * (lr - 0.5)
    return (model.lam / 3.0) * rho ** 3 * (lr - 1.0 / 3.0)


def potential_G(z, model: ModelParams):
    """Antiderivative G(z) = int_0^z g, with g = -2 omega z - 2 z * phase_rate(z^2).

    Closed forms:
      CubicLog2D   : -omega z^2 - (lam/2) z^4 ln(z^2 / sqrt(e))
      QuinticLog1D : -omega z^2 - (lam/3) z^6 ln(z^2 / e^(1/3))
      PureCubic2D  : -omega z^2 + (lam/2) z^4
    """
    omega = model.require_omega()
    z = np.asarray(z, dtype=float)
    if np.any(z < 0):
        raise NegativeAmplitude("amplitude must be nonnegative")
    z2 = z * z
    out = -omega * z2 - potential_density(z2, model)
    if out.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class Observables:
    """Conserved functionals of a field, plus the standard derived quantities."""

    mass: float
    energy: float
    momentum: tuple[float, ...]
    kinetic: float
    potential: float
    quartic: float
    action: float | None = None


def observables(field, model: ModelParams) -> Observables:
    """Mass, energy, momentum and friends from one forward transform + cell quadrature.

    Kinetic energy by Parseval on |k|^2; momentum on the gradient of the same spectrum.
    """
    field.check_finite()
    vals = field.values
    g = field.grid
    rho = np.abs(vals) ** 2
    mass = _grid.integrate(g, rho)
    coeffs = fftn(vals)
    kinetic = 0.5 * _grid.spectral_gradient_norm_sq(g, coeffs)
    grads = _grid.spectral_gradient(g, coeffs)
    del coeffs  # not held while the momentum and potential are summed
    potential = _grid.integrate(g, potential_density(rho, model))
    momentum = tuple(
        _grid.integrate(g, np.imag(np.conj(vals) * gr.values)) for gr in grads
    )
    quartic = _grid.integrate(g, rho * rho)
    energy = kinetic + potential
    action = None
    if model.omega is not None:
        action = energy + model.omega * mass
    return Observables(
        mass=mass,
        energy=energy,
        momentum=momentum,
        kinetic=kinetic,
        potential=potential,
        quartic=quartic,
        action=action,
    )


def h1_apriori_bound(initial: Observables, model: ModelParams) -> float:
    """B with (1/2)||grad u(t)||^2 <= B along any solution of the log models."""
    return initial.energy + 0.5 * model.lam * math.sqrt(math.e) * initial.mass
