import tracemalloc

import numpy as np
import pytest

from gnls import ModelParams, RngStream, TorusGeometry
from gnls.spectral import TWO_PI


@pytest.fixture
def geo16():
    return TorusGeometry(d=1, n_max=16)


@pytest.fixture
def params16(geo16):
    return ModelParams(d=1, alpha=2.0, beta=0.5, gamma=1.0, n_cut=16, geometry=geo16)


@pytest.fixture
def rng():
    return RngStream(12345)


def random_field(geometry, gen, decay=1.0, scale=1.0):
    """Random band-limited field with <n>^(-decay) coefficient falloff."""
    shape = geometry.box_shape
    g = gen.standard_normal(shape) + 1j * gen.standard_normal(shape)
    return scale * g * geometry.bracket(-decay)


def from_modes(geometry, entries):
    """The coefficient box with {mode: coefficient}, zero elsewhere; modes are
    ints (d = 1) or tuples."""
    coeffs = np.zeros(geometry.box_shape, np.complex128)
    for n, c in entries.items():
        coeffs[tuple(np.atleast_1d(n) + geometry.n_max)] = c
    return coeffs


def direct_synthesis(geometry):
    """The matrix of u(x_j) = (2pi)^(-d/2) sum_n a_n e^{i n.x_j}, points by modes."""
    d = geometry.d
    points = np.stack(np.meshgrid(*[geometry.x] * d, indexing="ij"), -1).reshape(-1, d)
    modes = np.stack(np.meshgrid(*[geometry.modes] * d, indexing="ij"), -1).reshape(-1, d)
    return np.exp(1j * points @ modes.T) / TWO_PI ** (d / 2)


def smooth_field(geometry, bandwidth=3, scale=0.1, seed=7):
    """Deterministic smooth low-mode field used by the dynamics tests."""
    gen = np.random.default_rng(seed)
    u = np.zeros(geometry.box_shape, np.complex128)
    c = geometry.n_max
    for n in range(-bandwidth, bandwidth + 1):
        u[c + n] = scale * (gen.standard_normal() + 1j * gen.standard_normal()) / (
            1 + abs(n)
        )
    return u


def traced_peak(fn, *args, **kwargs):
    """Peak bytes traced by tracemalloc (numpy reports its buffers) while
    fn(*args, **kwargs) runs."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
