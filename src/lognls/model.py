"""Nonlinearity families, admissible frequency windows, and conserved functionals.

Everything downstream (shooting, evolution, minimization, the 1D appendix
machinery) consumes the definitions in this module.  The log families are one
equation, i u_t + (1/2) Lap u = lam * u |u|^(2p) ln|u|^2 on R^d, at the
L2-critical power p = 2/d (``Family.log_power``): ``CUBIC_LOG_2D`` (d = 2, p = 1)
and ``QUINTIC_LOG_1D`` (d = 1, p = 2).  ``PURE_CUBIC_2D`` is the focusing cubic
reference, stationary form -(1/2) Lap Q - lam Q^3 + omega Q = 0.

Each formula of the log families is stated once in p.  What stays per family
encodes mathematics, not a formula: ``amplitude_roots`` (its lower root enters
only the 2D uniqueness proof), the 1D G-zero as the exact peak amplitude (the
appendix's turning point, the shooter's 1D bracket), and the shooter's scalar
force, one closure per family because a power per evaluation slows its loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import grid as _grid
from .errors import (
    MissingOmega,
    NegativeAmplitude,
    NonPositiveLambda,
    OmegaOutOfWindow,
    UnsupportedFamily,
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

    @property
    def log_power(self) -> int | None:
        """p = 2/d of the log families' u |u|^(2p) ln|u|^2; None for the pure cubic."""
        return None if self is Family.PURE_CUBIC_2D else 2 // self.dim


@dataclass(frozen=True)
class ModelParams:
    """Nonlinearity family plus coupling ``lam`` and optional frequency ``omega``."""

    family: Family
    lam: float
    omega: float | None = None

    def __post_init__(self):
        """The one check of the frequency window."""
        if self.lam < 0:
            raise NonPositiveLambda(f"coupling must be >= 0, got {self.lam}")
        if self.omega is not None:
            lo, hi = omega_window(self)
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

    def require_family(self, *families: Family, what: str) -> None:
        """The one family rule: UnsupportedFamily unless the family is one of ``families``."""
        if self.family not in families:
            names = " and ".join(f.value for f in families)
            raise UnsupportedFamily(f"{what} is defined for {names}, not {self.family.value}")

    def with_omega(self, omega: float) -> "ModelParams":
        return ModelParams(self.family, self.lam, omega)

    def check_grid(self, grid: _grid.Grid) -> None:
        """The one dimension rule: ValueError unless ``grid`` has the family's dimension."""
        if grid.dim != self.dim:
            raise ValueError(f"grid.dim {grid.dim} differs from the "
                             f"{self.family.value} dimension {self.dim}")


def omega_window(model: ModelParams) -> tuple[float, float]:
    """(0, sup -V(rho)/rho): the frequencies admitting solitary waves, empty at lam = 0 (V = 0).

    The edge is also the constant of ``h1_apriori_bound``."""
    p = model.family.log_power
    if p is None:
        return 0.0, math.inf if model.lam > 0 else 0.0
    return 0.0, model.lam * (math.exp(-1.0 / (p + 1)) / (p * (p + 1)))


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


def _rate_density(model: ModelParams, lo: float, hi: float) -> float:
    """The root on [lo, hi] of rho^p ln rho = -omega/lam, where the phase rate is -omega.

    The left side falls on (0, e^(-1/p)) and rises on (e^(-1/p), 1).
    """
    p = model.family.log_power
    target = -model.require_omega() / model.lam

    def eq(y):
        ly = math.log(y)
        yq = y ** (p - 1)  # exact at p = 1, 2
        return y * yq * ly - target, yq * (p * ly + 1.0)

    return _bisect_root(eq, lo, hi)


def amplitude_roots(model: ModelParams) -> tuple[float, float]:
    """Roots of y ln y = -omega/lam: returns (alpha, sqrt(z_omega)).

    alpha^2 is the lower root on (0, 1/e); z_omega the upper one on (1/e, 1).  The
    stationary nonlinearity g vanishes exactly at 0, alpha and sqrt(z_omega).  2D
    cubic-log family only: alpha enters only its uniqueness proof.
    """
    model.require_family(Family.CUBIC_LOG_2D, what="amplitude_roots")
    return math.sqrt(_rate_density(model, 1e-300, 1.0 / math.e)), stationary_amplitude(model)


def stationary_amplitude(model: ModelParams) -> float:
    """sqrt(z_omega): the upper root of rate(phi^2) = -omega, the stationary point of g.

    z_omega is the root of rho^p ln rho = -omega/lam on (e^(-1/p), 1).
    """
    model.require_family(Family.CUBIC_LOG_2D, Family.QUINTIC_LOG_1D, what="stationary_amplitude")
    p = model.family.log_power
    return math.sqrt(_rate_density(model, math.exp(-1.0 / p), 1.0))


def turning_density(model: ModelParams) -> float:
    """Smallest s > 0 with G(sqrt(s)) = 0.

    Pure cubic: 2 omega/lam.  Log families: s^p (1/(p+1) - ln s) = (p+1) omega/lam on
    (0, e^(-1/(p(p+1)))), where the left side rises up to the window-edge density; in
    1D s is the squared peak amplitude of the ground state.  The bracket starts at
    s^p = 1e-24.
    """
    p = model.family.log_power
    if p is None:
        return 2.0 * model.require_omega() / model.lam
    c = 1.0 / (p + 1)
    target = (p + 1) * model.require_omega() / model.lam

    def eq(s):
        ls = math.log(s)
        sq = s ** (p - 1)  # exact at p = 1, 2
        return s * sq * (c - ls) - target, sq * (-c - p * ls)

    return _bisect_root(eq, 1e-12 ** (2 / p), math.exp(-1.0 / (p * (p + 1))))


def _array(rho, out) -> np.ndarray:
    """``out``, or a new float array of ``rho``'s shape when None."""
    return np.empty(np.shape(rho)) if out is None else out


def _value(result: np.ndarray):
    """A 0-d result as a scalar, as numpy's own arithmetic returns it; arrays unchanged."""
    return result[()] if result.ndim == 0 else result


def _density_log(rho: np.ndarray | float, out: np.ndarray | None = None) -> np.ndarray | float:
    """ln(rho) with the removable-singularity convention: 0 where rho ~ 0.

    It is formed in ``out`` (a new array if None), which must not be ``rho``.
    """
    rho = np.asarray(rho, dtype=float)
    safe = _array(rho, out)
    np.copyto(safe, 1.0)
    np.copyto(safe, rho, where=rho > _DENSITY_CLAMP)
    return _value(np.log(safe, out=safe))


def nonlinear_phase_rate(rho, model: ModelParams, log_rho=None, out=None):
    """d/d rho of the potential density: the phase rate of the nonlinear subflow.

    lam rho^p ln rho for the log families, -lam rho for the pure cubic.
    ``log_rho`` is ``_density_log(rho)`` when the caller already holds it.  The
    rate is formed in ``out`` (a new array if None), which must be neither input.
    """
    rho = np.asarray(rho, dtype=float)
    rate = _array(rho, out)
    p = model.family.log_power
    if p is None:
        return _value(np.multiply(-model.lam, rho, out=rate))
    lr = _density_log(rho) if log_rho is None else log_rho
    np.multiply(model.lam, rho, out=rate)
    for _ in range(p - 1):  # one pass per further power: a power of rho costs one at p = 1 too
        rate *= rho
    rate *= lr
    return _value(rate)


def potential_density(rho, model: ModelParams, log_rho=None, out=None, scratch=None):
    """Potential-energy density V(rho):  E = (1/2)||grad u||^2 + int V(|u|^2).

    lam/(p+1) rho^(p+1) ln(rho / e^(1/(p+1))) for the log families, -(lam/2) rho^2
    for the pure cubic.  ``log_rho`` is ``_density_log(rho)`` when the caller
    already holds it.  V is formed in ``out`` and the shifted logarithm of the
    log families in ``scratch`` (new arrays if None); neither may be an input or
    the other.
    """
    rho = np.asarray(rho, dtype=float)
    density = _array(rho, out)
    p = model.family.log_power
    if p is None:
        np.multiply(-0.5 * model.lam, rho, out=density)
        density *= rho
        return _value(density)
    lr = _density_log(rho) if log_rho is None else log_rho
    np.multiply(model.lam / (p + 1), np.power(rho, p + 1, out=density), out=density)
    density *= np.subtract(lr, 1.0 / (p + 1), out=scratch)
    return _value(density)


def potential_G(z, model: ModelParams):
    """Antiderivative G(z) = int_0^z g, with g = -2 omega z - 2 z * phase_rate(z^2).

    Closed forms, G(z) = -omega z^2 - V(z^2):
      log families : -omega z^2 - lam/(p+1) z^(2p+2) ln(z^2 / e^(1/(p+1)))
      PureCubic2D  : -omega z^2 + (lam/2) z^4
    """
    omega = model.require_omega()
    z = np.asarray(z, dtype=float)
    if np.any(z < 0):
        raise NegativeAmplitude("amplitude must be nonnegative")
    z2 = z * z
    out = -omega * z2 - potential_density(z2, model)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class Observables:
    """Conserved functionals of a field, plus the standard derived quantities.

    ``variance`` int |x|^2 |u|^2 and ``dilation`` sum_j int x_j Im(conj(u) d_j u) are the
    moments of the pseudo-conformal and virial laws.  A radial profile is real, so its
    dilation is 0; its observables leave the variance unset.
    """

    mass: float
    energy: float
    momentum: tuple[float, ...]
    kinetic: float
    potential: float
    quartic: float
    action: float | None = None
    variance: float | None = None
    dilation: float = 0.0


def observables(field, model: ModelParams, spectrum: np.ndarray | None = None) -> Observables:
    """Mass, energy, momentum and friends from one forward transform + cell quadrature.

    Kinetic energy by Parseval on |k|^2; momentum and dilation on the gradient of
    the same spectrum, variance and dilation by per-axis marginals.  The transform
    is written into ``spectrum``, a complex array of the grid's shape owned by the
    caller (a new one if None).
    """
    field.check_finite()
    vals = field.values
    g = field.grid
    rho = np.abs(vals) ** 2
    mass = _grid.integrate(g, rho)
    coeffs = _grid.forward(vals, spectrum)
    kinetic = 0.5 * _grid.spectral_gradient_norm_sq(g, coeffs)
    # the momentum currents Im(conj(u) d_j u), each formed in its gradient's array
    currents = [np.multiply(np.conj(vals), gr.values, out=gr.values).imag
                for gr in _grid.spectral_gradient(g, coeffs)]
    del coeffs  # not held while the moments and the potential are summed
    momentum = tuple(_grid.integrate(g, c) for c in currents)
    cell = g.dx ** g.dim
    dilation = sum(_grid.axis_moment(g, g.axis, c, j) for j, c in enumerate(currents)) * cell
    del currents  # nor the gradient arrays that hold them
    variance = sum(_grid.axis_moment(g, g.axis ** 2, rho, j) for j in range(g.dim)) * cell
    potential = _grid.integrate(g, potential_density(rho, model))
    quartic = _grid.integrate(g, rho * rho)
    energy = kinetic + potential
    action = None if model.omega is None else energy + model.omega * mass
    return Observables(mass=mass, energy=energy, momentum=momentum, kinetic=kinetic,
                       potential=potential, quartic=quartic, action=action,
                       variance=variance, dilation=dilation)


def h1_apriori_bound(initial: Observables, model: ModelParams) -> float:
    """The a-priori bound E(u0) + edge M(u0) on (1/2)||grad u(t)||^2 = E - int V along any
    solution, as V(rho) >= -edge rho (``omega_window``'s edge); inf for the pure cubic."""
    edge = omega_window(model)[1]
    return math.inf if math.isinf(edge) else initial.energy + edge * initial.mass
