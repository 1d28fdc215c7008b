"""Uniform periodic grids, spectral calculus and quadrature.

Domain convention is [-L, L) per axis with N even; wavenumbers are
k_m = (pi/L) m for m in {-N/2, ..., N/2 - 1}, stored in DFT order.  The
forward transform is the unnormalized sum; the inverse carries 1/N per axis.

Transforms are numpy's pocketfft.  Without ``out=`` numpy's n-D transforms
allocate one array per axis, so every transform here writes into an array
its caller owns or into one allocated for it (``forward``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.fft import fftn, ifftn

from .errors import NonFiniteField, SizeMismatch


@dataclass(unsafe_hash=True)
class Grid:
    dim: int
    n: int
    half_width: float
    # derived, filled in __post_init__; equality and hash read the three fields above
    dx: float = field(init=False, compare=False)
    k: np.ndarray = field(init=False, repr=False, compare=False)        # one axis, DFT order
    k_deriv: np.ndarray = field(init=False, repr=False, compare=False)  # Nyquist zeroed
    k2: np.ndarray = field(init=False, repr=False, compare=False)       # |k|^2 mesh

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError("grid dimension must be 1 or 2")
        if self.n < 2 or self.n % 2 != 0:
            raise ValueError("n must be a positive even integer")
        if not 0 < self.half_width < math.inf:
            raise ValueError(f"half_width must be positive and finite, got {self.half_width}")
        self.dx = 2.0 * self.half_width / self.n
        k_max = math.pi / self.dx
        for what, value in (("cell volume dx^dim", math.prod((self.dx,) * self.dim)),
                            ("largest |x|^2 dim L^2", self.dim * self.half_width * self.half_width),
                            ("largest |k_j|^2 (pi/dx)^2", k_max * k_max)):
            if not 0 < value < math.inf:  # each is formed in floats
                raise ValueError(f"half_width {self.half_width} with n = {self.n} makes the "
                                 f"{what} {value}, not positive and finite")
        self.k = 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx)
        # Odd derivatives on a real field need the Nyquist mode suppressed.
        self.k_deriv = self.k.copy()
        self.k_deriv[self.n // 2] = 0.0
        self.k2 = sum(k ** 2 for k in self.along_axes(self.k))

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.dim

    @property
    def axis(self) -> np.ndarray:
        return -self.half_width + self.dx * np.arange(self.n)

    def along_axes(self, vector: np.ndarray) -> tuple[np.ndarray, ...]:
        """One view of the n-vector ``vector`` per axis j, of length n along j and 1 elsewhere.

        The views broadcast against a field on the grid and against each other.
        """
        return tuple(vector.reshape((self.n,) + (1,) * (self.dim - 1 - j)) for j in range(self.dim))


def squared_distance(grid: Grid, center=None) -> np.ndarray:
    """|x - center|^2 on the grid (an n^dim array); ``center`` defaults to the origin."""
    return sum((x - c) ** 2 for x, c in zip(grid.along_axes(grid.axis), center or (0.0,) * grid.dim))


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


def forward(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The forward transform of ``values`` written into ``out`` (a new complex array if None).

    Every axis is transformed in ``out``, which may be ``values`` itself.
    """
    if out is None:
        out = np.empty(values.shape, dtype=complex)
    return fftn(values, out=out)


def spectral_gradient(grid: Grid, coeffs: np.ndarray) -> tuple[ComplexField, ...]:
    """Gradient components of the field whose forward transform is ``coeffs``.

    An odd derivative, so it multiplies by k_deriv: a real field keeps a real
    gradient.  One inverse transform per axis; ``coeffs`` is left untouched.
    """
    parts = (1j * k * coeffs for k in grid.along_axes(grid.k_deriv))
    return tuple(ComplexField(grid, ifftn(part, out=part)) for part in parts)


def integrate(grid: Grid, samples: np.ndarray) -> float:
    """Periodic rectangle rule: spectrally accurate for smooth integrands."""
    samples = np.asarray(samples)
    if samples.shape != grid.shape:
        raise SizeMismatch(f"sample shape {samples.shape} != grid shape {grid.shape}")
    return float(np.real(np.sum(samples))) * grid.dx ** grid.dim


def spectral_power(coeffs: np.ndarray) -> np.ndarray:
    """|coeffs|^2 elementwise, without the square root and square of np.abs."""
    power = coeffs.real ** 2
    power += coeffs.imag ** 2
    return power


def axis_moment(grid: Grid, weight: np.ndarray, samples: np.ndarray, axis: int) -> float:
    """Sum over the grid of weight[i_axis] * samples, for an n-vector ``weight`` along ``axis``.

    ``weight`` contracts the marginal of ``samples`` over the other axes, which
    needs no n^dim weight mesh.  The contraction is an elementwise sum, not a
    BLAS dot product: a threaded BLAS pool keeps spinning after each call and
    costs CPU time beside the transforms.
    """
    others = tuple(i for i in range(grid.dim) if i != axis)
    return float(np.sum(weight * samples.sum(axis=others)))


def _k2_contraction(grid: Grid, power: np.ndarray) -> float:
    """Sum of |k|^2 * power over the spectrum: the one quadratic form of the gradient.

    Its symbol |k|^2 is the one the split-step propagator exponentiates.
    """
    return sum(axis_moment(grid, grid.k ** 2, power, j) for j in range(grid.dim))


def spectral_gradient_norm_sq(grid: Grid, coeffs: np.ndarray) -> float:
    """||grad u||^2 of the field whose forward transform is ``coeffs``, by Parseval."""
    return _k2_contraction(grid, spectral_power(coeffs)) * grid.dx ** grid.dim / coeffs.size


def spectral_h1_norm(grid: Grid, coeffs: np.ndarray) -> float:
    """H1 norm of the field whose forward transform is ``coeffs``, by Parseval."""
    power = spectral_power(coeffs)
    s = float(np.sum(power)) + _k2_contraction(grid, power)
    return float(np.sqrt(max(s * grid.dx ** grid.dim / power.size, 0.0)))


def h1_norm(a: ComplexField) -> float:
    return spectral_h1_norm(a.grid, forward(a.values))


def simpson(samples: np.ndarray, dx: float) -> float:
    """Composite Simpson rule of an odd number (at least 3) of samples spaced ``dx`` apart."""
    if samples.size < 3 or samples.size % 2 == 0:
        raise ValueError(f"Simpson's rule needs an odd number of samples, got {samples.size}")
    ends = samples[0] + samples[-1]
    return float(dx / 3.0 * (ends + 4.0 * np.sum(samples[1:-1:2]) + 2.0 * np.sum(samples[2:-1:2])))


def hermite_cubic(
    nodes: np.ndarray, values: np.ndarray, derivs: np.ndarray, x
) -> tuple[np.ndarray, np.ndarray]:
    """Value and derivative at ``x`` of the piecewise cubic with ``values`` and slopes ``derivs``.

    ``nodes`` increase strictly.  Each piece is c3 s^3 + c2 s^2 + d_i s + v_i in
    s = x - nodes[i] on [nodes[i], nodes[i + 1]); a point outside the nodes is
    extrapolated from the end piece.
    """
    x = np.asarray(x, dtype=float)
    h = np.diff(nodes)
    slope = np.diff(values) / h
    t = (derivs[:-1] + derivs[1:] - 2.0 * slope) / h
    c3 = t / h
    c2 = (slope - derivs[:-1]) / h - t
    i = np.clip(np.searchsorted(nodes, x, side="right") - 1, 0, nodes.size - 2)
    s = x - nodes[i]
    c3, c2, d = c3[i], c2[i], derivs[i]
    value = ((c3 * s + c2) * s + d) * s + values[i]
    deriv = (3.0 * c3 * s + 2.0 * c2) * s + d
    return value, deriv

