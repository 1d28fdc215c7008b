import math

import numpy as np
import pytest
import scipy.fft
from hypothesis import given
from hypothesis import strategies as st
from scipy.fft import fftn, ifftn
from scipy.integrate import simpson as scipy_simpson
from scipy.interpolate import CubicHermiteSpline

from lognls.errors import SizeMismatch
from lognls.grid import (
    ComplexField,
    Grid,
    _k2_contraction,
    forward,
    h1_norm,
    hermite_cubic,
    integrate,
    simpson,
    spectral_gradient,
    squared_distance,
)

from properties import PROPERTY_SETTINGS


def _gradient(fld):
    return spectral_gradient(fld.grid, forward(fld.values))


def _laplacian(g, values):
    """The spectral Laplacian on the grid's |k|^2 mesh, as the propagator applies it."""
    return ifftn(-g.k2 * fftn(values))


def test_grid_invariants():
    g = Grid(2, 256, 10.0)
    assert g.dx * g.n == pytest.approx(2.0 * g.half_width, rel=1e-15)
    assert np.max(np.abs(g.k)) == pytest.approx(math.pi * g.n / (2.0 * g.half_width))
    # wavenumber list is the DFT-order permutation of (pi/L) * {-N/2..N/2-1}
    expected = np.sort(math.pi / g.half_width * np.arange(-g.n // 2, g.n // 2))
    assert np.allclose(np.sort(g.k), expected, rtol=0, atol=1e-12)
    with pytest.raises(ValueError):
        Grid(2, 255, 10.0)
    with pytest.raises(ValueError):
        Grid(3, 64, 10.0)
    for half_width in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            Grid(2, 64, half_width)


def test_transform_roundtrip_and_spectra():
    g = Grid(1, 64, 5.0)
    spec = fftn(np.full(64, 2.5 + 0.5j))
    assert spec[0] == pytest.approx((2.5 + 0.5j) * 64)
    assert np.max(np.abs(spec[1:])) < 1e-12

    (x,) = g.along_axes(g.axis)
    spec = fftn(np.exp(1j * math.pi / 5.0 * x))
    hot = np.argmax(np.abs(spec))
    assert g.k[hot] == pytest.approx(math.pi / 5.0, rel=1e-15)
    assert np.abs(spec[hot]) == pytest.approx(64.0, rel=1e-12)
    spec[hot] = 0.0
    assert np.max(np.abs(spec)) < 1e-10

    rng = np.random.default_rng(7)
    vals = rng.standard_normal((64,)) + 1j * rng.standard_normal((64,))
    back = ifftn(fftn(vals))
    assert np.max(np.abs(back - vals)) <= 1e-13 * np.max(np.abs(vals))


def test_transform_size_mismatch():
    g = Grid(1, 64, 5.0)
    with pytest.raises(SizeMismatch):
        integrate(g, np.zeros(32))
    with pytest.raises(SizeMismatch):
        ComplexField(g, np.zeros(32, dtype=complex))


def test_laplacian_eigenfunction_and_constants():
    g = Grid(1, 128, 5.0)
    k1 = math.pi / 5.0
    (x,) = g.along_axes(g.axis)
    mode = np.exp(1j * k1 * x)
    assert np.allclose(_laplacian(g, mode), -(k1**2) * mode, rtol=1e-12, atol=1e-13)
    assert np.max(np.abs(_laplacian(g, np.ones(128, dtype=complex)))) < 1e-13


def test_laplacian_gaussian_closed_form():
    g = Grid(2, 256, 10.0)
    xs = g.along_axes(g.axis)
    r2 = xs[0] ** 2 + xs[1] ** 2
    lap = _laplacian(g, np.exp(-r2 / 2.0))
    exact = (r2 - 2.0) * np.exp(-r2 / 2.0)
    assert np.max(np.abs(lap - exact)) <= 1e-10


def test_integrate_oracles():
    g = Grid(2, 256, 10.0)
    assert integrate(g, np.ones(g.shape)) == pytest.approx(400.0, rel=1e-15)
    xs = g.along_axes(g.axis)
    gauss = np.exp(-(xs[0] ** 2 + xs[1] ** 2))
    assert integrate(g, gauss) == pytest.approx(math.pi, abs=1e-12)
    g1 = Grid(1, 512, 10.0)
    x = g1.axis
    assert abs(integrate(g1, x * np.exp(-(x**2)))) < 1e-14


def test_parseval():
    g = Grid(2, 64, 7.0)
    rng = np.random.default_rng(11)
    vals = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    direct = integrate(g, np.abs(vals) ** 2)
    spec = fftn(vals)
    viaspec = float(np.sum(np.abs(spec) ** 2)) * g.dx**2 / vals.size
    assert viaspec == pytest.approx(direct, rel=1e-12)


def test_gradient_laplacian_consistency():
    g = Grid(2, 128, 8.0)
    xs = g.along_axes(g.axis)
    fld = ComplexField(g, np.exp(-(xs[0] ** 2 + 0.5 * xs[1] ** 2)) * (1.0 + 0.3j))
    gx, gy = _gradient(fld)
    div = _laplacian(g, fld.values)
    again = _gradient(gx)[0].values + _gradient(gy)[1].values
    scale = np.max(np.abs(div))
    assert np.max(np.abs(again - div)) <= 1e-11 * scale


def test_real_even_field_derivative_is_odd_and_real():
    g = Grid(1, 256, 8.0)
    (x,) = g.along_axes(g.axis)
    (d,) = _gradient(ComplexField(g, np.exp(-(x**2))))
    assert np.max(np.abs(d.values.imag)) < 1e-13
    # odd: d(x) = -d(-x) on the symmetric part of the grid
    vals = d.values.real
    assert np.max(np.abs(vals[1:] + vals[1:][::-1])) < 1e-12


def test_h1_norm_matches_direct_sum():
    g = Grid(2, 64, 6.0)
    xs = g.along_axes(g.axis)
    fld = ComplexField(g, (1.0 + 0.5j) * np.exp(-(xs[0] ** 2 + xs[1] ** 2)))
    grads = _gradient(fld)
    expected = integrate(g, np.abs(fld.values) ** 2)
    expected += sum(integrate(g, np.abs(gr.values) ** 2) for gr in grads)
    assert h1_norm(fld) == pytest.approx(math.sqrt(expected), rel=1e-13)


# numpy replacements checked against scipy, which the program no longer imports

@PROPERTY_SETTINGS
@given(n=st.integers(2, 60), seed=st.integers(0, 2**32 - 1))
def test_hermite_cubic_matches_scipy(n, seed):
    """Value and derivative on a random decreasing table, as a shot's profile table is."""
    rng = np.random.default_rng(seed)
    nodes = np.cumsum(rng.uniform(0.01, 1.0, n)) - 0.5
    values = np.cumsum(rng.uniform(0.0, 1.0, n))[::-1].copy()
    derivs = -rng.uniform(0.0, 2.0, n)
    x = np.concatenate([nodes, rng.uniform(nodes[0], nodes[-1], 64)])
    spline = CubicHermiteSpline(nodes, values, derivs)
    value, deriv = hermite_cubic(nodes, values, derivs, x)
    for ours, theirs in ((value, spline(x)), (deriv, spline.derivative()(x))):
        scale = np.max(np.abs(theirs))
        assert np.max(np.abs(ours - theirs)) <= 1e-12 * scale
    # each node but the last starts its piece (s = 0) and is met exactly
    assert np.array_equal(value[: n - 1], values[:-1])
    assert np.array_equal(deriv[: n - 1], derivs[:-1])



@PROPERTY_SETTINGS
@given(half=st.integers(1, 200), dx=st.floats(1e-3, 10.0), seed=st.integers(0, 2**32 - 1))
def test_simpson_matches_scipy_on_odd_uniform_grids(half, dx, seed):
    y = np.random.default_rng(seed).standard_normal(2 * half + 1)
    assert simpson(y, dx) == pytest.approx(scipy_simpson(y, dx=dx), rel=0,
                                           abs=1e-13 * dx * np.sum(np.abs(y)))


def test_simpson_needs_an_odd_sample_count():
    assert simpson(np.array([0.0, 0.25, 1.0]), 0.5) == pytest.approx(1.0 / 3.0, rel=1e-15)
    for size in (0, 1, 2, 4):
        with pytest.raises(ValueError):
            simpson(np.ones(size), 1.0)


def _close(ours, theirs):
    return np.max(np.abs(ours - theirs)) <= 1e-13 * np.max(np.abs(theirs))


@PROPERTY_SETTINGS
@given(shape=st.sampled_from([(8,), (30,), (64,), (8, 8), (16, 30), (48, 48)]),
       seed=st.integers(0, 2**32 - 1))
def test_in_place_numpy_transforms_match_scipy(shape, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    axes = tuple(range(len(shape)))
    for ours, theirs in ((np.fft.fftn, scipy.fft.fftn), (np.fft.ifftn, scipy.fft.ifftn)):
        work = a.copy()
        assert ours(work, out=work) is work     # in place: the result is the input's storage
        assert _close(work, theirs(a))
    out = np.empty_like(a)
    assert forward(a.copy(), out) is out and _close(out, scipy.fft.fftn(a))
    kept = a.copy()
    assert _close(forward(kept), scipy.fft.fftn(a)) and np.array_equal(kept, a)

    x = a.real.copy()
    half = np.empty(shape[:-1] + (shape[-1] // 2 + 1,), dtype=complex)
    assert np.fft.rfftn(x, out=half) is half
    assert np.array_equal(x, a.real)            # the real input is left as it was
    assert _close(half, scipy.fft.rfftn(x))
    spectrum = half.copy()
    back = np.empty(shape)
    assert np.fft.irfftn(spectrum, s=shape, axes=axes, out=back) is back
    assert np.array_equal(spectrum, half)       # irfftn reads its half spectrum only
    assert _close(back, scipy.fft.irfftn(half, s=shape))
    assert _close(back, x)


# the per-axis views against the meshgrid formulas they replaced, bit for bit

def _mesh_coordinates(g):
    return (g.axis,) if g.dim == 1 else tuple(np.meshgrid(g.axis, g.axis, indexing="ij"))


def _mesh_k2(g):
    return g.k ** 2 if g.dim == 1 else g.k[:, None] ** 2 + g.k[None, :] ** 2


def _mesh_k2_contraction(g, power):
    marginals = (power,) if g.dim == 1 else (power.sum(axis=1), power.sum(axis=0))
    return sum(float(np.sum(g.k ** 2 * m)) for m in marginals)


def _mesh_spectral_gradient(g, coeffs):
    ks = (g.k_deriv,) if g.dim == 1 else (g.k_deriv[:, None], g.k_deriv[None, :])
    return tuple(np.fft.ifftn(1j * k * coeffs) for k in ks)


def _same_bits(ours, theirs):
    ours, theirs = np.asarray(ours), np.asarray(theirs)
    return (ours.shape == theirs.shape and ours.dtype == theirs.dtype
            and np.ascontiguousarray(ours).tobytes() == np.ascontiguousarray(theirs).tobytes())


@st.composite
def _grids_and_centers(draw):
    g = Grid(draw(st.sampled_from([1, 2])), 2 * draw(st.integers(1, 24)),
             draw(st.floats(0.1, 100.0)))
    center = tuple(draw(st.floats(-g.half_width, g.half_width)) for _ in range(g.dim))
    return g, center, draw(st.integers(0, 2**32 - 1))


@PROPERTY_SETTINGS
@given(drawn=_grids_and_centers())
def test_axis_views_equal_the_mesh_formulas_bitwise(drawn):
    g, center, seed = drawn
    meshes = _mesh_coordinates(g)
    assert all(_same_bits(np.broadcast_to(x, g.shape), m) for x, m in zip(g.along_axes(g.axis), meshes))
    assert _same_bits(g.k2, _mesh_k2(g))
    # the Gaussian initial data, gaussian_bump and embed_radial, then the minimizer's start
    assert _same_bits(squared_distance(g, center),
                      sum((x - c) ** 2 for x, c in zip(meshes, center)))
    assert _same_bits(squared_distance(g), sum(x * x for x in meshes))
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    power = np.abs(coeffs) ** 2
    assert _same_bits(_k2_contraction(g, power), _mesh_k2_contraction(g, power))
    grads = spectral_gradient(g, coeffs)
    assert all(_same_bits(ours.values, theirs)
               for ours, theirs in zip(grads, _mesh_spectral_gradient(g, coeffs), strict=True))


_GRID_KEYS = st.tuples(st.sampled_from([1, 2]), st.sampled_from([2, 4]),
                       st.sampled_from([1.0, 2.5, math.nextafter(2.5, 3.0)]))


@PROPERTY_SETTINGS
@given(a=_GRID_KEYS, b=_GRID_KEYS)
def test_grids_are_equal_exactly_when_their_init_fields_agree(a, b):
    ga, gb = Grid(*a), Grid(*b)
    assert (ga == gb) is (a == b)
    assert (ga != gb) is (a != b)
    if a == b:
        assert hash(ga) == hash(gb) and len({ga, gb}) == 1
    assert ga != a
