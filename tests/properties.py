"""Shared settings and field strategy of the Hypothesis property tests."""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from scipy.fft import ifftn

from lognls.grid import ComplexField, Grid

# Property tests are derandomized and keep no example database, so every run
# checks the same examples.
PROPERTY_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True, database=None)


@st.composite
def smooth_fields(draw, dims=(2,)):
    """A band-limited random field on a 16^d or 32^d grid, peak modulus in [0.1, 2]."""
    dim = draw(st.sampled_from(dims))
    n = draw(st.sampled_from([16, 32]))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    peak = draw(st.floats(min_value=0.1, max_value=2.0))
    g = Grid(dim, n, 5.0)
    rng = np.random.default_rng(seed)
    kc2 = (float(np.max(np.abs(g.k))) / 6.0) ** 2
    coeffs = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    values = ifftn(coeffs * np.exp(-g.k2 / (2.0 * kc2)))
    return ComplexField(g, peak * values / np.max(np.abs(values)))


@st.composite
def real_fields(draw, dims=(1, 2)):
    """The real part of a ``smooth_fields`` draw plus a drawn multiple of the Nyquist mode.

    The grid's checkerboard (-1)^(sum of indices) lives in the Nyquist column of
    the half spectrum (and row, in 2D), so that column carries real weight.
    """
    field = draw(smooth_fields(dims))
    g = field.grid
    checker = (-1.0) ** np.indices(g.shape).sum(axis=0)
    return g, field.values.real + draw(st.floats(min_value=0.0, max_value=0.5)) * checker
