"""Uniform periodic grids, spectral calculus, quadrature, and the Galilean operator.

Domain convention is [-L, L) per axis with N even; wavenumbers are
k_m = (pi/L) m for m in {-N/2, ..., N/2 - 1}, stored in DFT order.  The
forward transform is the unnormalized sum; the inverse carries 1/N per axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.fft import fftn, ifftn

from .errors import NonFiniteField, SizeMismatch


@dataclass(eq=False)
class Grid:
    dim: int
    n: int
    half_width: float
    # derived, filled in __post_init__
    dx: float = field(init=False)
    k: np.ndarray = field(init=False, repr=False)          # one axis, DFT order
    k_deriv: np.ndarray = field(init=False, repr=False)    # Nyquist zeroed
    k2: np.ndarray = field(init=False, repr=False)         # |k|^2 mesh

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError("grid dimension must be 1 or 2")
        if self.n < 2 or self.n % 2 != 0:
            raise ValueError("n must be a positive even integer")
        if not 0 < self.half_width < math.inf:
            raise ValueError(f"half_width must be positive and finite, got {self.half_width}")
        self.dx = 2.0 * self.half_width / self.n
        self.k = 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx)
        # Odd derivatives on a real field need the Nyquist mode suppressed.
        self.k_deriv = self.k.copy()
        self.k_deriv[self.n // 2] = 0.0
        if self.dim == 1:
            self.k2 = self.k ** 2
        else:
            self.k2 = self.k[:, None] ** 2 + self.k[None, :] ** 2

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.dim

    @property
    def axis(self) -> np.ndarray:
        return -self.half_width + self.dx * np.arange(self.n)

    def __eq__(self, other):
        return (
            isinstance(other, Grid)
            and self.dim == other.dim
            and self.n == other.n
            and self.half_width == other.half_width
        )

    def __hash__(self):
        return hash((self.dim, self.n, self.half_width))


def coordinates(grid: Grid) -> tuple[np.ndarray, ...]:
    """Coordinate meshes, one array per axis (row-major / 'ij' indexing)."""
    ax = grid.axis
    if grid.dim == 1:
        return (ax,)
    return tuple(np.meshgrid(ax, ax, indexing="ij"))


@dataclass
class ComplexField:
    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != self.grid.shape:
            raise SizeMismatch(
                f"values shape {self.values.shape} != grid shape {self.grid.shape}"
            )

    def copy(self) -> "ComplexField":
        return ComplexField(self.grid, self.values.copy())

    def check_finite(self):
        if not np.all(np.isfinite(self.values.view(float))):
            raise NonFiniteField("field contains non-finite samples")


def gradient(field: ComplexField) -> tuple[ComplexField, ...]:
    g = field.grid
    coeffs = fftn(field.values)
    if g.dim == 1:
        return (ComplexField(g, ifftn(1j * g.k_deriv * coeffs, overwrite_x=True)),)
    kx = g.k_deriv[:, None]
    ky = g.k_deriv[None, :]
    return (
        ComplexField(g, ifftn(1j * kx * coeffs, overwrite_x=True)),
        ComplexField(g, ifftn(1j * ky * coeffs, overwrite_x=True)),
    )


def integrate(grid: Grid, samples: np.ndarray) -> float:
    """Periodic rectangle rule: spectrally accurate for smooth integrands."""
    samples = np.asarray(samples)
    if samples.shape != grid.shape:
        raise SizeMismatch(f"sample shape {samples.shape} != grid shape {grid.shape}")
    return float(np.real(np.sum(samples))) * grid.dx ** grid.dim


def spectral_h1_norm(grid: Grid, coeffs: np.ndarray) -> float:
    """H1 norm of the field whose forward transform is ``coeffs``, by Parseval.

    The gradient weights are k_deriv (Nyquist zeroed), as in ``gradient``, so
    the value equals the gradient-based norm up to rounding.  Each axis'
    weights contract the marginal of |coeffs|^2 over the other axis, which
    needs no n^dim weight mesh.  The contractions are elementwise sums, not
    BLAS dot products: a threaded BLAS pool keeps spinning after each call and
    costs CPU time beside the transforms.
    """
    power = coeffs.real ** 2
    power += coeffs.imag ** 2
    marginals = (power,) if grid.dim == 1 else (power.sum(axis=1), power.sum(axis=0))
    k2 = grid.k_deriv ** 2
    s = float(np.sum(power)) + sum(float(np.sum(k2 * m)) for m in marginals)
    return float(np.sqrt(max(s * grid.dx ** grid.dim / power.size, 0.0)))


def h1_norm(a: ComplexField) -> float:
    return spectral_h1_norm(a.grid, fftn(a.values))


def galilean_apply(field: ComplexField, t: float) -> tuple[ComplexField, ...]:
    """J(t) u = x u + i t grad u, one component per axis."""
    field.check_finite()
    g = field.grid
    grads = gradient(field)
    xs = coordinates(g)
    return tuple(
        ComplexField(g, x * field.values + 1j * t * gr.values)
        for x, gr in zip(xs, grads)
    )
