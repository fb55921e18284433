import math
import os
import struct
import tempfile

import numpy as np
import pytest
import scipy.fft
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gnls import (
    DivergentSeriesError,
    TorusGeometry,
    from_grid_array,
    load_snapshot,
    save_snapshot,
    sigma,
    sobolev_norm_array,
    to_grid_array,
)
from gnls.spectral import TWO_PI

from conftest import direct_synthesis, from_modes, random_field

GEN = np.random.default_rng(0)


def smooth11(m):
    """Whether every prime factor of m lies in {2, 3, 5, 7, 11}."""
    for p in (2, 3, 5, 7, 11):
        while m % p == 0:
            m //= p
    return m == 1


class TestGeometry:
    def test_default_oversampling(self):
        geo = TorusGeometry(d=1, n_max=8)
        assert geo.m_grid == 70  # 4 * 17 = 68 rounded up to 2 * 5 * 7
        assert geo.oversampling == 70 / 17

    @settings(max_examples=200, deadline=None)
    @given(
        d=st.integers(1, 2),
        n_max=st.integers(0, 64),
        oversampling=st.floats(1.0, 8.0),
    )
    def test_default_grid_is_next_fast_length(self, d, n_max, oversampling):
        geo = TorusGeometry(d=d, n_max=n_max, oversampling=oversampling)
        target = max(math.ceil(oversampling * (2 * n_max + 1)), 2 * n_max + 1)
        assert geo.m_grid == scipy.fft.next_fast_len(target)
        assert geo.m_grid >= target and smooth11(geo.m_grid)
        assert not any(smooth11(m) for m in range(target, geo.m_grid))
        assert geo.oversampling == geo.m_grid / (2 * n_max + 1)

    def test_explicit_grid_is_kept(self):
        geo = TorusGeometry(d=1, n_max=8, m_grid=68)
        assert geo.m_grid == 68
        assert geo.oversampling == 4.0

    def test_rejects_undersampled_grid(self):
        with pytest.raises(ValueError):
            TorusGeometry(d=1, n_max=8, m_grid=10)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            TorusGeometry(d=3, n_max=4)

    def test_volume(self):
        assert TorusGeometry(d=2, n_max=2).volume == pytest.approx(TWO_PI**2)


class TestTransforms:
    def test_constant_mode_value(self):
        geo = TorusGeometry(d=1, n_max=4)
        u = from_modes(geo, {0: 1.0})
        g = to_grid_array(geo, u)
        assert np.allclose(g, TWO_PI**-0.5)

    def test_first_mode_samples(self):
        geo = TorusGeometry(d=1, n_max=4)
        u = from_modes(geo, {1: 1.0})
        g = to_grid_array(geo, u)
        expected = TWO_PI**-0.5 * np.exp(1j * geo.x)
        assert np.allclose(g, expected, atol=1e-13)

    @pytest.mark.parametrize("d,n_max", [(1, 9), (2, 4)])
    def test_round_trip(self, d, n_max):
        geo = TorusGeometry(d=d, n_max=n_max)
        u = random_field(geo, GEN)
        v = from_grid_array(geo, to_grid_array(geo, u))
        assert np.max(np.abs(v - u)) < 1e-12 * np.max(np.abs(u))

    @pytest.mark.parametrize("d", [1, 2])
    def test_parseval(self, d):
        geo = TorusGeometry(d=d, n_max=5)
        u = random_field(geo, GEN)
        quad = geo.quad_weight() * np.sum(np.abs(to_grid_array(geo, u)) ** 2)
        exact = np.sum(np.abs(u) ** 2)
        assert quad == pytest.approx(exact, rel=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(1, 2),
        # d = 1 draws boxes on both sides of the dense crossover K M = 2048
        n_max=st.integers(0, 16),
        oversampling=st.floats(1.0, 4.0),
        # 0 is the default grid, which is always 11-smooth; the explicit
        # lengths have a prime factor pocketfft has no dedicated pass for
        m_grid=st.sampled_from([0, 0, 13, 17, 19, 23, 34, 37, 68, 257]),
        batch=st.lists(st.integers(1, 3), max_size=2),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(d=1, n_max=8, oversampling=4.0, m_grid=0, batch=[3], seed=1)  # dense
    @example(d=1, n_max=16, oversampling=4.0, m_grid=0, batch=[3], seed=1)  # FFT
    @example(d=1, n_max=4, oversampling=1.0, m_grid=257, batch=[], seed=2)  # FFT
    def test_transform_pair_properties(self, d, n_max, oversampling, m_grid, batch, seed):
        # d = 2 keeps n_max <= 6 and its direct sum small; an explicit grid
        # shorter than the box becomes the least grid 2N+1
        n_max = n_max if d == 1 else n_max % 7
        m_grid = m_grid and max(m_grid, 2 * n_max + 1)
        geo = TorusGeometry(d=d, n_max=n_max, m_grid=m_grid, oversampling=oversampling)
        gen = np.random.default_rng(seed)
        shape = (*batch, *geo.box_shape)
        a = gen.standard_normal(shape) + 1j * gen.standard_normal(shape)
        values = to_grid_array(geo, a)
        assert values.shape == (*batch, *geo.grid_shape)
        # the direct sum (2pi)^(-d/2) sum_n a_n e^{i n.x} at every grid point
        direct = a.reshape(*batch, -1) @ direct_synthesis(geo).T
        got = values.reshape(*batch, -1)
        assert np.max(np.abs(got - direct)) <= 1e-12 * np.max(np.abs(direct))
        # the round trip and Parseval, row by row
        kept = values.copy()
        back = from_grid_array(geo, values)
        assert values.tobytes() == kept.tobytes()
        assert np.max(np.abs(back - a)) <= 1e-12 * np.max(np.abs(a))
        # into dirty buffers the pair writes the same bits, and the FFT
        # analysis leaves in its grid input the unscaled FFT of the
        # shifted-frame values (the input over the ramp) on the 2N+1 rows it
        # keeps
        grid = np.full(values.shape, np.nan + 1j)
        assert to_grid_array(geo, a, out=grid) is grid
        assert grid.tobytes() == values.tobytes()
        box = np.full(a.shape, -np.inf + 0j)
        assert from_grid_array(geo, grid, out=box) is box
        assert box.tobytes() == back.tobytes()
        if geo.dft is None:
            fft = np.fft.fftn(values / geo.ramp, axes=geo.axes)
            rows = (..., slice(2 * n_max + 1), *[slice(None)] * (d - 1))
            assert np.max(np.abs(grid[rows] - fft[rows])) <= 1e-12 * np.max(np.abs(fft))
        quad = geo.quad_weight() * np.sum(np.abs(got) ** 2, axis=-1)
        exact = np.sum(np.abs(a.reshape(*batch, -1)) ** 2, axis=-1)
        assert np.allclose(quad, exact, rtol=1e-12, atol=0)


    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(1, 2),
        n_max=st.integers(0, 6),
        # 0: the default grid; -1: the least grid 2N+1; else a prime length
        m_grid=st.sampled_from([0, -1, 13, 17, 19, 23, 37]),
        batch=st.lists(st.integers(1, 3), max_size=2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_shifted_frame(self, d, n_max, m_grid, batch, seed):
        geo = TorusGeometry(d=d, n_max=n_max, m_grid=2 * n_max + 1 if m_grid == -1 else m_grid)
        gen = np.random.default_rng(seed)
        shape = (*batch, *geo.box_shape)
        a = gen.standard_normal(shape) + 1j * gen.standard_normal(shape)
        shifted = to_grid_array(geo, a, shifted=True)
        assert shifted.shape == (*batch, *geo.grid_shape)
        # the ramp takes the shifted frame to the direct sum u(x_j)
        direct = a.reshape(*batch, -1) @ direct_synthesis(geo).T
        got = (shifted * geo.ramp).reshape(*batch, -1)
        assert np.max(np.abs(got - direct)) <= 1e-12 * np.max(np.abs(direct))
        # the shifted round trip, and the two frames' analyses agree
        back = from_grid_array(geo, shifted, shifted=True)
        assert np.max(np.abs(back - a)) <= 1e-12 * np.max(np.abs(a))
        true_frame = from_grid_array(geo, to_grid_array(geo, a))
        assert np.max(np.abs(true_frame - back)) <= 1e-12 * np.max(np.abs(a))
        # into dirty buffers the shifted pair writes the same bits
        grid = np.full(shifted.shape, np.nan + 1j)
        assert to_grid_array(geo, a, out=grid, shifted=True) is grid
        assert grid.tobytes() == shifted.tobytes()
        box = np.full(a.shape, -np.inf + 0j)
        assert from_grid_array(geo, grid, out=box, shifted=True) is box
        assert box.tobytes() == back.tobytes()

    def test_ramp_is_cached_and_read_only(self):
        geo = TorusGeometry(d=2, n_max=3)
        assert geo.ramp is geo.ramp and not geo.ramp.flags.writeable
        assert np.allclose(np.abs(geo.ramp), TWO_PI**-1, rtol=1e-15, atol=0)


class TestDenseTransforms:
    """d = 1 boxes with K M <= 2048 transform by dense matrix products in
    stacked items of 2^16 // (K M) rows (55 at N = 8); every other box by
    the FFT."""

    @pytest.mark.parametrize("d,n_max,m_grid,dense", [
        (1, 0, 0, True), (1, 8, 0, True), (1, 10, 0, True), (1, 10, 98, False),
        (1, 11, 0, False), (1, 16, 0, False), (2, 1, 0, False),
    ])
    def test_crossover(self, d, n_max, m_grid, dense):
        geo = TorusGeometry(d=d, n_max=n_max, m_grid=m_grid)
        assert (geo.dft is not None) == dense
        assert dense == (d == 1 and (2 * n_max + 1) * geo.m_grid <= 2048)

    def test_matrices_are_cached_and_read_only(self):
        geo = TorusGeometry(d=1, n_max=8)
        synthesis, analysis = geo.dft
        assert geo.dft is geo.dft and synthesis.shape == (17, 70)
        assert not synthesis.flags.writeable and not analysis.flags.writeable
        assert np.allclose(analysis, synthesis.conj().T / 70, rtol=0, atol=1e-17)
        a = GEN.standard_normal((3, 17)) + 1j * GEN.standard_normal((3, 17))
        fft = np.fft.ifft(a, 70, norm="forward")
        assert np.max(np.abs(a @ synthesis - fft)) <= 1e-14 * np.max(np.abs(fft))

    @pytest.mark.parametrize("n_max", [3, 8, 10])
    @pytest.mark.parametrize("shifted", [False, True])
    def test_row_bits_do_not_depend_on_the_batch(self, n_max, shifted):
        geo = TorusGeometry(d=1, n_max=n_max)
        rows = 2**16 // (geo.box_shape[0] * geo.m_grid)
        gen = np.random.default_rng(n_max)
        a = gen.standard_normal((2 * rows + 1, *geo.box_shape)) * (1 + 1j)
        a += gen.standard_normal(a.shape)

        def pair(x):
            grid = to_grid_array(geo, x, shifted=shifted)
            return grid, from_grid_array(geo, grid, shifted=shifted)

        # each row alone, as a 0-d batch, is the reference
        alone = [pair(row) for row in a]
        for grid, box in alone:
            assert grid.shape == geo.grid_shape and box.shape == geo.box_shape
        # a 1-row batch; batches of two rows, of one item, of one item and a
        # one-row tail, of two items and a one-row tail: every position
        for size in (1, 2, rows, rows + 1, 2 * rows + 1):
            grid, box = pair(a[:size])
            for i in range(size):
                assert grid[i].tobytes() == alone[i][0].tobytes(), (size, i)
                assert box[i].tobytes() == alone[i][1].tobytes(), (size, i)


class TestProjectors:
    """The sharp projector onto |n| <= n_cut is the product with
    `euclid_mask(n_cut)`."""

    def test_projector_zero_keeps_mean(self):
        geo = TorusGeometry(d=1, n_max=5)
        u = random_field(geo, GEN)
        p = u * geo.euclid_mask(0)
        assert np.count_nonzero(p) == 1
        assert p[geo.n_max] == u[geo.n_max]

    def test_idempotent(self):
        geo = TorusGeometry(d=2, n_max=4)
        u = random_field(geo, GEN)
        once = u * geo.euclid_mask(2.5)
        twice = once * geo.euclid_mask(2.5)
        assert np.array_equal(once, twice)

    def test_self_adjoint(self):
        geo = TorusGeometry(d=1, n_max=8)
        mask = geo.euclid_mask(3)
        for _ in range(5):
            u, v = random_field(geo, GEN), random_field(geo, GEN)
            lhs = np.vdot(u * mask, v)
            rhs = np.vdot(u, v * mask)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_euclidean_ball_d2(self):
        geo = TorusGeometry(d=2, n_max=3)
        u = from_modes(geo, {(1, 1): 1.0, (1, 0): 1.0})
        p = u * geo.euclid_mask(1)
        # |(1,1)| = sqrt(2) > 1 removed, |(1,0)| = 1 kept
        assert p[geo.n_max + 1, geo.n_max + 1] == 0
        assert p[geo.n_max + 1, geo.n_max] == 1.0


class TestNorms:
    def test_mean_mode_only(self):
        geo = TorusGeometry(d=1, n_max=3)
        u = from_modes(geo, {0: 1.0})
        for s in (-1.0, 0.0, 0.5, 2.0):
            assert sobolev_norm_array(geo, u, s) == pytest.approx(1.0)

    def test_first_mode_h1(self):
        geo = TorusGeometry(d=1, n_max=3)
        u = from_modes(geo, {1: 1.0})
        assert sobolev_norm_array(geo, u, 1.0) == pytest.approx(math.sqrt(2.0))

    def test_s_zero_is_l2(self):
        geo = TorusGeometry(d=1, n_max=8)
        u = random_field(geo, GEN)
        assert sobolev_norm_array(geo, u, 0.0) == pytest.approx(np.linalg.norm(u))


class TestSigma:
    def test_small_cutoff(self):
        assert sigma(2.0, 1, 1) == pytest.approx(1.0 / math.pi, rel=1e-14)

    def test_infinite_sum_coth(self):
        expected = 1.0 / (2.0 * math.tanh(math.pi))
        assert sigma(2.0, math.inf, 1) == pytest.approx(expected, rel=1e-10)

    def test_divergence_signalled(self):
        with pytest.raises(DivergentSeriesError):
            sigma(1.0, math.inf, 1)
        with pytest.raises(DivergentSeriesError):
            sigma(2.0, math.inf, 2)

    def test_monotone_in_cutoff_and_alpha(self):
        values = [sigma(2.0, n, 1) for n in (1, 2, 4, 8, 16)]
        assert all(a < b for a, b in zip(values, values[1:]))
        alphas = [sigma(a, 8, 1) for a in (1.5, 2.0, 3.0)]
        assert all(a > b for a, b in zip(alphas, alphas[1:]))

    def test_partial_below_infinite(self):
        assert sigma(2.5, 64, 1) < sigma(2.5, math.inf, 1)

    def test_d2_infinite_against_direct(self):
        # direct lattice sum over a big box plus a disc-tail bracket
        alpha = 4.0
        n = np.arange(-600, 601)
        abs2 = (n * n)[:, None] + (n * n)[None, :]
        direct = np.sum((1.0 + abs2) ** (-alpha / 2.0))
        tail_hi = 2 * math.pi * 600.0 ** (2 - alpha) / (alpha - 2)
        mine = sigma(alpha, math.inf, 2) * TWO_PI**2
        assert direct < mine < direct + 2 * tail_hi


class TestWeyl:
    """`euclid_mask(lam)` keeps the lattice points of the ball |n| <= lam."""

    @staticmethod
    def count(lam, d):
        return int(np.count_nonzero(TorusGeometry(d=d, n_max=math.ceil(lam)).euclid_mask(lam)))

    def test_d1_examples(self):
        assert self.count(3, 1) == 7
        assert self.count(0, 1) == 1

    def test_d2_unit_ball(self):
        assert self.count(1, 2) == 5

    def test_d1_ratio_limit(self):
        # ratio is exactly 2 + 1/lam, so 5% is first met at lam = 10
        for lam in (10, 100, 1000):
            assert self.count(lam, 1) / lam == pytest.approx(2.0, rel=0.0501)

    def test_d2_area_law(self):
        assert self.count(50, 2) / 50.0**2 == pytest.approx(math.pi, rel=0.01)


class TestSnapshots:
    def test_round_trip(self, tmp_path):
        geo = TorusGeometry(d=1, n_max=5)
        u = random_field(geo, GEN)
        path = tmp_path / "field.gnls"
        save_snapshot(u, path)
        v = load_snapshot(path)
        assert v.shape == (11,) and v.dtype == np.complex128
        assert np.array_equal(v, u)

    def test_round_trip_d2(self, tmp_path):
        geo = TorusGeometry(d=2, n_max=3)
        u = random_field(geo, GEN)
        path = tmp_path / "field2.gnls"
        save_snapshot(u, path)
        v = load_snapshot(path)
        assert np.array_equal(v, u)

    def test_wire_format(self, tmp_path):
        u = np.array([1 + 2j, 3 + 4j, 5 + 6j])
        path = tmp_path / "field.gnls"
        save_snapshot(u, path)
        raw = path.read_bytes()
        assert raw[:4] == b"GNLS"
        assert np.frombuffer(raw[4:16], dtype="<u4").tolist() == [1, 1, 1]
        body = np.frombuffer(raw[16:], dtype="<f8")
        assert body.tolist() == [1, 2, 3, 4, 5, 6]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.gnls"
        path.write_bytes(b"XXXX" + b"\0" * 32)
        with pytest.raises(ValueError):
            load_snapshot(path)

    def test_bad_dimension(self, tmp_path):
        # a d = 3 header at n_max = 0, with the one coefficient such a box holds
        path = tmp_path / "cube.gnls"
        path.write_bytes(b"GNLS" + struct.pack("<III", 1, 3, 0) + b"\0" * 16)
        with pytest.raises(ValueError, match="dimension must be 1 or 2, got 3"):
            load_snapshot(path)

    @pytest.mark.parametrize("shape", [(), (4,), (3, 5), (2, 2), (3, 3, 3)])
    def test_save_refuses_non_box(self, tmp_path, shape):
        path = tmp_path / "field.gnls"
        with pytest.raises(ValueError, match="box of odd side"):
            save_snapshot(np.zeros(shape, np.complex128), path)
        assert not path.exists()

    @settings(max_examples=40, deadline=None, database=None)
    @given(
        d=st.integers(1, 2),
        n_max=st.integers(0, 3),
        parts=st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=2, max_size=98),
        tail=st.binary(min_size=1, max_size=24),
    )
    def test_round_trip_and_garbage(self, d, n_max, parts, tail):
        """Any field, signed zeros and non-finite parts included, round-trips bit
        for bit; every truncation of its file, and the file with bytes appended,
        raises a one-line ValueError."""
        geo = TorusGeometry(d=d, n_max=n_max)
        size = math.prod(geo.box_shape)
        flat = np.resize(np.asarray(parts, dtype=float), 2 * size)
        u = flat.view(np.complex128).reshape(geo.box_shape)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "field.gnls")
            save_snapshot(u, path)
            v = load_snapshot(path)
            assert v.shape == geo.box_shape and v.dtype == np.complex128
            assert v.tobytes() == u.tobytes()
            with open(path, "rb") as fh:
                raw = fh.read()
            assert len(raw) == 16 + 16 * size
            for bad in [raw[:k] for k in range(len(raw))] + [raw + tail]:
                with open(path, "wb") as fh:
                    fh.write(bad)
                with pytest.raises(ValueError) as err:
                    load_snapshot(path)
                assert str(err.value) and "\n" not in str(err.value)
