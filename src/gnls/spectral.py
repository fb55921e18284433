"""Fourier analysis on the flat torus [0, 2pi)^d, d in {1, 2}.

Fields are represented by their coefficients with respect to the orthonormal
basis phi_n(x) = (2pi)^(-d/2) exp(i n.x), stored on the box |n|_inf <= n_max
in ascending lexicographic order.  With this convention Parseval reads
||u||_{L^2}^2 = sum_n |a_n|^2 and the pointwise variance of the unit-mass
random field is (2pi)^(-d) per mode.

All operations are pure; coefficient arrays may carry arbitrary leading batch
dimensions (the torus axes are always the trailing ones).

The grid transform pair has two frames: grid values u(x_j), or with
`shifted=True` v_j = sum_k a_{k-N} e^{i k.x_j} over box indices k = n + N
(N = n_max), so that u = ramp v with ramp = (2pi)^(-d/2) e^{-i N(x_1+..+x_d)}.
There box index k is FFT bin k: the synthesis is a zero-padded np.fft.ifft and
the analysis keeps bins 0..2N.  The kernels that read only |u|^2 = scale^2 |v|^2
or form u f(|u|^2) work in the shifted frame: the Galerkin and collocation
substeps, the flow's pre-flight check, the potential and the gauge frequency.
That is exact by gauge covariance: the unimodular factor
e^{i N(x_1+..+x_d)} on u multiplies u f(|u|^2) by the same factor.

The shifted-frame transform has two paths, chosen by the geometry.  A d = 1
box with K M <= 2048 (K = 2N+1 modes, M = m_grid points; N <= 10 at the
default oversampling) multiplies by the cached dense matrices
`TorusGeometry.dft`; every other box runs pocketfft.  At these sizes a zgemm
costs less than numpy's FFT wrapper.  `_dense` runs those products, and the
float64 ones of the dense Galerkin stage (`dynamics`), in stacked items of at
most 2^18 real multiply-adds, a complex one counting as four: 2^16 // (K M)
rows for the public pair (55 at N = 8), 2^18 // (2K M) for the Galerkin
stage's real halves (110).  Two facts of OpenBLAS shape the public pair: it
runs a zgemm with m n k <= 2^16 on the calling thread, so an item never
starts BLAS threads beside the ensemble's own, and it rounds a one-row
product (a zgemv) differently, so a lone row is computed as two.  A row's
bits there then depend on neither its batch nor its position in it.  A
float64 item stays on the calling thread too, and a dgemv also rounds
differently, so the lone-row rule holds for both dtypes; but float64
products shaped like the Galerkin analysis, (n, M) @ (M, 2K), round a row
according to its position in its item.
"""

from __future__ import annotations

import functools
import itertools
import math
import struct
from dataclasses import dataclass, field

import numpy as np
from scipy.special import beta as _beta_fn
from scipy.special import betainc as _betainc

TWO_PI = 2.0 * math.pi
DEFAULT_OVERSAMPLING = 4.0

SNAPSHOT_MAGIC = b"GNLS"
SNAPSHOT_VERSION = 1


class DivergentSeriesError(ValueError):
    """Raised when an infinite spectral sum does not converge."""


def _fast_len(n: int) -> int:
    """Smallest m >= n whose prime factors all lie in {2, 3, 5, 7, 11}, the
    radices pocketfft has dedicated passes for (as scipy.fft.next_fast_len).
    No prime divides m more than m times, so that holds iff m | 2310^m."""
    return next(m for m in itertools.count(n) if pow(2310, m, m) == 0)


@dataclass(frozen=True)
class TorusGeometry:
    """Discretization of [0, 2pi)^d: retained modes and collocation grid.

    m_grid is the number of collocation points per axis.  The default is the
    first fast FFT length with at least `oversampling` points per retained
    mode, which bounds the aliasing error of exponential nonlinearities (of
    unbounded bandwidth); `oversampling` then holds the realised ratio.
    """

    d: int
    n_max: int
    m_grid: int = field(default=0)
    oversampling: float = DEFAULT_OVERSAMPLING

    def __post_init__(self) -> None:
        if self.d not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {self.d}")
        if self.n_max < 0:
            raise ValueError("n_max must be nonnegative")
        if self.m_grid == 0:
            m = int(math.ceil(self.oversampling * (2 * self.n_max + 1)))
            object.__setattr__(self, "m_grid", _fast_len(max(m, 2 * self.n_max + 1)))
        if self.m_grid < 2 * self.n_max + 1:
            raise ValueError("m_grid must be at least 2*n_max+1")
        object.__setattr__(self, "oversampling", self.m_grid / (2 * self.n_max + 1))

    @property
    def volume(self) -> float:
        return TWO_PI**self.d

    @property
    def modes(self) -> np.ndarray:
        """Mode values -n_max..n_max along one axis."""
        return np.arange(-self.n_max, self.n_max + 1)

    @functools.cached_property
    def box_shape(self) -> tuple[int, ...]:
        return (2 * self.n_max + 1,) * self.d

    @functools.cached_property
    def grid_shape(self) -> tuple[int, ...]:
        return (self.m_grid,) * self.d

    @property
    def x(self) -> np.ndarray:
        """Collocation points along one axis."""
        return TWO_PI * np.arange(self.m_grid) / self.m_grid

    @functools.cached_property
    def axes(self) -> tuple[int, ...]:
        """The trailing torus axes of a coefficient or grid array."""
        return tuple(range(-self.d, 0))

    @functools.cached_property
    def scale(self) -> float:
        """(2pi)^(-d/2): |u| = scale |v| for shifted grid values v."""
        return TWO_PI ** (-self.d / 2)

    @functools.cached_property
    def norm(self) -> float:
        """1/m^d, the factor of the shifted analysis."""
        return 1.0 / math.prod(self.grid_shape)

    @functools.cached_property
    def dft(self) -> tuple[np.ndarray, np.ndarray] | None:
        """The shifted frame's dense synthesis matrix (K x M, entries
        e^{2pi i (k j mod M)/M}) and analysis matrix (M x K, its conjugate
        transpose over M), read-only, for a d = 1 box with K M <= _DENSE_SIZE;
        None for a box that the FFT transforms."""
        k, m = 2 * self.n_max + 1, self.m_grid
        if self.d != 1 or k * m > _DENSE_SIZE:
            return None
        synthesis = np.exp(1j * self.x[np.arange(k)[:, None] * np.arange(m) % m])
        analysis = np.ascontiguousarray(synthesis.conj().T) * self.norm
        synthesis.flags.writeable = analysis.flags.writeable = False
        return synthesis, analysis

    @functools.cached_property
    def ramp(self) -> np.ndarray:
        """scale e^{-i n_max (x_1+..+x_d)} on the grid (read-only): u = ramp v."""
        phase = np.exp(-1j * self.x[self.n_max * np.arange(self.m_grid) % self.m_grid])
        ramp = self.scale * functools.reduce(np.multiply.outer, [phase] * self.d)
        ramp.flags.writeable = False
        return ramp

    def mode_abs2(self) -> np.ndarray:
        """|n|^2 over the coefficient box."""
        n2 = self.modes.astype(float) ** 2
        return functools.reduce(np.add.outer, [n2] * self.d)

    def bracket(self, power: float = 1.0) -> np.ndarray:
        """<n>^power = (1+|n|^2)^(power/2) over the box."""
        return (1.0 + self.mode_abs2()) ** (power / 2.0)

    def euclid_mask(self, n_cut: float) -> np.ndarray:
        """Boolean mask selecting |n| <= n_cut (Euclidean norm)."""
        return self.mode_abs2() <= float(n_cut) ** 2 + 1e-12

    def quad_weight(self) -> float:
        """Quadrature weight of one grid cell."""
        return (TWO_PI / self.m_grid) ** self.d


# Kernels that would otherwise hold a whole ensemble at once (a grid image of
# 16 * prod(grid_shape) bytes a row, a bootstrap of 8 * m index bytes a row)
# work over blocks of rows of at most this many bytes.
_BLOCK_BYTES = 1 << 20


def _block_rows(row_bytes: int) -> int:
    """Rows of `row_bytes` each in one block (at least one)."""
    return max(1, _BLOCK_BYTES // row_bytes)


# ---------------------------------------------------------------------------
# transforms (array kernels broadcast over leading batch axes)
# ---------------------------------------------------------------------------


# One 1d FFT per torus axis in the shifted frame.  The synthesis runs last axis
# first, so its first pass transforms only the 2N+1 occupied rows; the
# analysis runs first axis first and keeps bins 0..2N before the next pass.
# A box with `dft` multiplies by its matrix instead.

# the largest K M of a dense box, and the most real multiply-adds of one
# stacked product item
_DENSE_SIZE = 2048
_GEMM_SIZE = 1 << 18


def _dense(x: np.ndarray, matrix: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """x @ matrix over the last axis, complex or float64, into `out` when
    given, as stacked products of at most _GEMM_SIZE real multiply-adds each
    (a complex one counts as four) and never of one row."""
    flat = x.reshape(-1, matrix.shape[0])
    n, width = len(flat), matrix.shape[1]
    contiguous = out is not None and out.flags.c_contiguous
    res = out if contiguous else np.empty(x.shape[:-1] + (width,), matrix.dtype)
    dst = res.reshape(n, width)
    rows = _GEMM_SIZE // (matrix.size * (4 if matrix.dtype.kind == "c" else 1))
    full = n - n % rows
    if full:
        np.matmul(flat[:full].reshape(-1, rows, len(matrix)), matrix,
                  out=dst[:full].reshape(-1, rows, width))
    if n - full == 1:
        dst[full:] = np.matmul(flat[full:].repeat(2, axis=0), matrix)[:1]
    elif n > full:
        np.matmul(flat[full:], matrix, out=dst[full:])
    if out is None or contiguous:
        return res
    out[...] = res
    return out


def to_grid_array(
    geometry: TorusGeometry, coeffs: np.ndarray, out: np.ndarray | None = None,
    *, shifted: bool = False,
) -> np.ndarray:
    """Synthesize grid values from box coefficients (orthonormal basis), into
    `out` (complex, batch + grid shape) when given: u(x_j), or with `shifted`
    the shifted frame's values."""
    if geometry.dft is not None:
        coeffs = _dense(coeffs, geometry.dft[0], out)
    else:
        for axis in reversed(geometry.axes):
            last = axis == geometry.axes[0]
            coeffs = np.fft.ifft(coeffs, geometry.m_grid, axis, "forward", out if last else None)
    return coeffs if shifted else np.multiply(coeffs, geometry.ramp, out=coeffs)


def from_grid_array(
    geometry: TorusGeometry, values: np.ndarray, out: np.ndarray | None = None,
    *, shifted: bool = False,
) -> np.ndarray:
    """Analyze grid values (u(x_j), or with `shifted` the shifted frame's) into
    box coefficients (orthonormal basis), into `out` when given, in which case
    the complex `values` serves as scratch (else a copy of it does)."""
    values = values.astype(np.complex128) if out is None else values
    values = values if shifted else np.divide(values, geometry.ramp, out=values)
    if geometry.dft is not None:
        return _dense(values, geometry.dft[1], out)
    for axis in geometry.axes:
        keep = (Ellipsis, slice(2 * geometry.n_max + 1)) + (slice(None),) * (-1 - axis)
        values = np.fft.fft(values, axis=axis, out=values)[keep]
    return np.multiply(geometry.norm, values, out=out)


# ---------------------------------------------------------------------------
# norms and symbols
# ---------------------------------------------------------------------------


def sobolev_norm_array(
    geometry: TorusGeometry, coeffs: np.ndarray, s: float
) -> np.ndarray:
    """H^s norm: (sum <n>^{2s} |a_n|^2)^(1/2)."""
    w = geometry.bracket(2.0 * s)
    return np.sqrt(np.sum(w * np.abs(coeffs) ** 2, axis=geometry.axes))


def dispersion_weights(
    geometry: TorusGeometry, alpha: float, symbol: str
) -> np.ndarray:
    """Per-mode symbol w_n: <n>^alpha ('bracket') or |n|^alpha ('pure')."""
    if symbol == "bracket":
        return geometry.bracket(alpha)
    if symbol == "pure":
        return geometry.mode_abs2() ** (alpha / 2.0)
    raise ValueError(f"unknown dispersion symbol {symbol!r}")


# ---------------------------------------------------------------------------
# spectral sums
# ---------------------------------------------------------------------------

_DIRECT_CAP_1D = 10**6
_EM_CUTOFF = 10**5


def _tail_integral_1d(alpha: float, k: float, c: float = 1.0) -> float:
    """int_k^inf (c + x^2)^(-alpha/2) dx, exact via the incomplete Beta function."""
    a = (alpha - 1.0) / 2.0
    t = k / math.sqrt(c)
    x = 1.0 / (1.0 + t * t)
    return c ** ((1.0 - alpha) / 2.0) * 0.5 * _betainc(a, 0.5, x) * _beta_fn(a, 0.5)


def _half_line_sum(alpha: float, c: float, k_direct: int = _EM_CUTOFF) -> float:
    """sum_{n>=1} (c + n^2)^(-alpha/2) with Euler-Maclaurin tail, alpha > 1."""
    n = np.arange(1, k_direct + 1, dtype=float)
    direct = float(np.sum((c + n * n) ** (-alpha / 2.0)))
    fk = (c + k_direct**2) ** (-alpha / 2.0)
    dfk = -alpha * k_direct * (c + k_direct**2) ** (-alpha / 2.0 - 1.0)
    tail = _tail_integral_1d(alpha, k_direct, c) - 0.5 * fk - dfk / 12.0
    return direct + tail


def _lattice_sum_infinite(alpha: float, d: int) -> float:
    """sum_{n in Z^d} <n>^(-alpha); requires alpha > d."""
    if d == 1:
        return 1.0 + 2.0 * _half_line_sum(alpha, 1.0)
    # d = 2: sum over rows m of S(1+m^2) with S(c) = sum_k (c+k^2)^(-alpha/2).
    # For sqrt(c) >= 8 the row sum equals its integral A_alpha * c^((1-alpha)/2)
    # to well below 1e-16 relative (Poisson summation, corrections e^{-2 pi sqrt(c)}).
    m0 = 8
    total = 0.0
    for m in range(-m0, m0 + 1):
        c = 1.0 + m * m
        total += c ** (-alpha / 2.0) + 2.0 * _half_line_sum(alpha, c)
    a_alpha = _beta_fn((alpha - 1.0) / 2.0, 0.5)
    # outer tail: 2 * A_alpha * sum_{m > m0} (1+m^2)^((1-alpha)/2)
    beta_out = alpha - 1.0  # effective 1d exponent, > 1 since alpha > 2
    k = np.arange(m0 + 1, _EM_CUTOFF + 1, dtype=float)
    outer_direct = float(np.sum((1.0 + k * k) ** (-beta_out / 2.0)))
    fk = (1.0 + _EM_CUTOFF**2) ** (-beta_out / 2.0)
    dfk = -beta_out * _EM_CUTOFF * (1.0 + _EM_CUTOFF**2) ** (-beta_out / 2.0 - 1.0)
    outer_tail = _tail_integral_1d(beta_out, _EM_CUTOFF) - 0.5 * fk - dfk / 12.0
    total += 2.0 * a_alpha * (outer_direct + outer_tail)
    return total


def sigma(alpha: float, n_cut: float, d: int) -> float:
    """Pointwise variance (2pi)^(-d) * sum_{|n| <= n_cut} <n>^(-alpha).

    n_cut may be math.inf, in which case alpha > d is required and the series
    is summed to relative accuracy 1e-10 (direct part plus Euler-Maclaurin
    tail for d=1; nested row sums plus Poisson asymptotics for d=2).
    """
    if d not in (1, 2):
        raise ValueError("dimension must be 1 or 2")
    if math.isinf(n_cut):
        if alpha <= d:
            raise DivergentSeriesError(
                f"sum of <n>^(-alpha) over Z^{d} diverges for alpha={alpha} <= d={d}"
            )
        return _lattice_sum_infinite(alpha, d) / TWO_PI**d
    if n_cut < 0:
        raise ValueError("cutoff must be nonnegative")
    n_cut = float(n_cut)
    if d == 1:
        if n_cut > _DIRECT_CAP_1D:
            raise ValueError("finite cutoff too large; use n_cut=inf")
        n = np.arange(1, int(n_cut) + 1, dtype=float)
        total = 1.0 + 2.0 * float(np.sum((1.0 + n * n) ** (-alpha / 2.0)))
        return total / TWO_PI
    if n_cut > 4000:
        raise ValueError("finite 2d cutoff too large; use n_cut=inf")
    geometry = TorusGeometry(2, int(n_cut))
    total = float(np.sum(geometry.bracket(-alpha)[geometry.euclid_mask(n_cut)]))
    return total / TWO_PI**2


# ---------------------------------------------------------------------------
# binary snapshots
# ---------------------------------------------------------------------------


def save_snapshot(coeffs: np.ndarray, path) -> None:
    """Write a coefficient box (d = 1 or 2, side 2 n_max + 1) as magic 'GNLS',
    u32 LE version/d/n_max, then (re, im) float64 LE pairs in ascending lexicographic mode order."""
    shape = np.shape(coeffs)
    if len(shape) not in (1, 2) or len(set(shape)) != 1 or shape[0] % 2 == 0:
        raise ValueError(f"a snapshot is a d = 1 or 2 box of odd side, got shape {shape}")
    header = SNAPSHOT_MAGIC + struct.pack("<III", SNAPSHOT_VERSION, len(shape), shape[0] // 2)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(coeffs, dtype="<c16").tobytes())


def load_snapshot(path) -> np.ndarray:
    """Read a `save_snapshot` file bit for bit into a complex128 box; a file
    that is not exactly one header and its body raises ValueError."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != SNAPSHOT_MAGIC:
        raise ValueError("not a GNLS snapshot (bad magic)")
    if len(raw) < 16:
        raise ValueError(f"truncated snapshot header: {len(raw)} of 16 bytes")
    version, d, n_max = struct.unpack("<III", raw[4:16])
    if version != SNAPSHOT_VERSION:
        raise ValueError(f"unsupported snapshot version {version}")
    shape = TorusGeometry(d, n_max).box_shape  # refuses d other than 1 or 2
    size = 16 * math.prod(shape)
    if len(raw) - 16 != size:
        raise ValueError(
            f"snapshot body is {len(raw) - 16} bytes; d = {d}, n_max = {n_max} needs {size}"
        )
    return np.frombuffer(raw, dtype="<c16", offset=16).reshape(shape).astype(np.complex128)
