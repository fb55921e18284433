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
or form u f(|u|^2) work in the shifted frame: the collocation substep, the
Galerkin one on boxes without planes, the flow's pre-flight check, the
potential and the gauge frequency.  That is exact by gauge covariance: the
unimodular factor e^{i N(x_1+..+x_d)} on u multiplies u f(|u|^2) by the same
factor.

Every box runs the grid pair on pocketfft, which transforms a batch's rows
one at a time, so a row's bits depend on neither its batch nor its position
in it.  A d = 1 box with K M <= 14,000 (K = 2N+1 modes, M = m_grid points;
N <= 28 at the default oversampling, and the 1024-row right-hand sides tie
at N = 30) also has `plane_basis`, the real K x M basis B = (1, sqrt2 cos
mx, sqrt2 sin mx) of the true frame, which serves only the Galerkin flow
(`dynamics`): `fold_planes` makes a state's plane pair, one float64 array
(2, *shape) of the planes X0, X1 with u = scale (X0 + i X1) B, so that the
flow synthesizes and analyses with one real product each.
"""

from __future__ import annotations

import functools
import itertools
import math
import struct
from dataclasses import dataclass, field

import numpy as np
from scipy.special import kv as _kv

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
    def plane_basis(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(B, B^T) for a d = 1 box with K M <= _PLANE_SIZE, read-only and
        C-contiguous (OpenBLAS runs a transposed operand 1.7 times slower),
        else None.  Row n + N of the K x M basis B of plane pairs samples
        sqrt2 sin(|n| x) for n < 0, 1 for n = 0 and sqrt2 cos(n x) for n > 0."""
        if self.d != 1 or (2 * self.n_max + 1) * self.m_grid > _PLANE_SIZE:
            return None
        n = self.modes[:, None]
        x = self.x[np.abs(n) * np.arange(self.m_grid) % self.m_grid]
        basis = np.where(n > 0, math.sqrt(2.0) * np.cos(x), math.sqrt(2.0) * np.sin(x))
        basis[self.n_max] = 1.0
        transpose = np.ascontiguousarray(basis.T)
        basis.flags.writeable = transpose.flags.writeable = False
        return basis, transpose

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


def to_grid_array(
    geometry: TorusGeometry, coeffs: np.ndarray, out: np.ndarray | None = None,
    *, shifted: bool = False,
) -> np.ndarray:
    """Synthesize grid values from box coefficients (orthonormal basis), into
    `out` (complex, batch + grid shape) when given: u(x_j), or with `shifted`
    the shifted frame's values."""
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
    for axis in geometry.axes:
        keep = (Ellipsis, slice(2 * geometry.n_max + 1)) + (slice(None),) * (-1 - axis)
        values = np.fft.fft(values, axis=axis, out=values)[keep]
    return np.multiply(geometry.norm, values, out=out)


_PLANE_SIZE = 14000  # the largest K M of a box with `plane_basis`


def _fold_weights(geometry: TorusGeometry) -> list[np.ndarray]:
    """(w, w') with X0 + i X1 = w a + w' a_reversed (`fold_planes`)."""
    n, s = geometry.modes, math.sqrt(0.5)
    return [np.where(n > 0, s, np.where(n < 0, sign * s, 0.5)) for sign in (-1j, 1j)]


def fold_planes(geometry: TorusGeometry, coeffs: np.ndarray) -> np.ndarray:
    """The plane pair of box coefficients a on a box with `plane_basis` B:
    fresh float64 planes (X0, X1), shaped (2, *a.shape), with u = scale
    (X0 + i X1) B.  X0 + i X1 is a_0 at mode 0, (a_m + a_-m)/sqrt2 at m > 0
    and i (a_m - a_-m)/sqrt2 at -m: unitary, so sum |a_n|^2 = |X0|^2 + |X1|^2."""
    w, w_rev = _fold_weights(geometry)
    z = w * coeffs + w_rev * coeffs[..., ::-1]
    return np.stack([z.real, z.imag])


def unfold_planes(geometry: TorusGeometry, planes: np.ndarray, out=None) -> np.ndarray:
    """The box coefficients of `fold_planes` planes (2, *shape), by the
    adjoint map, into `out` (complex128 of the shape) when given."""
    w, w_rev = _fold_weights(geometry)
    z = np.empty(planes.shape[1:], np.complex128) if out is None else out
    z.real, z.imag = planes  # the reversed product first, then z's own in place
    return np.add(np.conj(w_rev[::-1]) * z[..., ::-1], np.multiply(np.conj(w), z, out=z), out=z)


# ---------------------------------------------------------------------------
# norms and symbols
# ---------------------------------------------------------------------------


def sobolev_norm_array(geometry: TorusGeometry, coeffs: np.ndarray, s: float) -> np.ndarray:
    """H^s norm: (sum <n>^{2s} |a_n|^2)^(1/2)."""
    w = geometry.bracket(2.0 * s)
    return np.sqrt(np.sum(w * np.abs(coeffs) ** 2, axis=geometry.axes))


def dispersion_weights(geometry: TorusGeometry, alpha: float, symbol: str) -> np.ndarray:
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


def _lattice_sum(alpha: float, d: int) -> float:
    """sum_{n in Z^d} <n>^(-alpha) for alpha > d by Poisson summation: with
    s = alpha/2 and nu = s - d/2,

        pi^(d/2) Gamma(nu)/Gamma(s) + (2 pi^s/Gamma(s)) sum_{k != 0} |k|^nu K_nu(2 pi |k|).

    Every term is positive.  |k|^nu K_nu(2 pi |k|) falls off like
    e^{-pi^2 |k|^2/nu} while 2 pi |k| << nu and like e^{-2 pi |k|} beyond, so
    the box |k|_inf <= 6 + 2 sqrt(nu) leaves out less than 1e-16 of the sum.
    """
    s, nu = alpha / 2.0, (alpha - d) / 2.0
    radius = math.ceil(6.0 + 2.0 * math.sqrt(nu))
    k2 = np.arange(-radius, radius + 1.0) ** 2
    k = np.sqrt(functools.reduce(np.add.outer, [k2] * d).ravel())
    k = k[k > 0]
    series = float(np.sum(k**nu * _kv(nu, TWO_PI * k)))
    return (math.pi ** (d / 2) * math.gamma(nu) + 2.0 * math.pi**s * series) / math.gamma(s)


def sigma(alpha: float, n_cut: float, d: int) -> float:
    """Pointwise variance (2pi)^(-d) * sum_{|n| <= n_cut} <n>^(-alpha).

    n_cut may be math.inf, in which case alpha > d is required and the series
    is the Poisson-summation identity of `_lattice_sum`, exact up to rounding:
    a few units in the last place for alpha up to 40 and within 5e-14
    relative up to 343, past which Gamma(alpha/2) overflows (OverflowError).
    """
    if d not in (1, 2):
        raise ValueError("dimension must be 1 or 2")
    if math.isinf(n_cut):
        if alpha <= d:
            raise DivergentSeriesError(
                f"sum of <n>^(-alpha) over Z^{d} diverges for alpha={alpha} <= d={d}"
            )
        return _lattice_sum(alpha, d) / TWO_PI**d
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
