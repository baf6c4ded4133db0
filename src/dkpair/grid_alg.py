"""Matrix-valued functions on discretized tori tensored with a Clifford factor.

An AlgElement stores x = sum_S x_S (x) e_S with x_S an m x m matrix field
sampled on a uniform torus grid; the matrix factor is trivially graded, so
all Z2-degrees come from the Clifford subsets.  Data layout is
(2^k, *grid.sizes, m, m) with the Clifford component axis first.

Derivations are Fourier multipliers: i*n per mode on momentum axes
(coordinates in [0, 2pi)) and 2*pi*i*n on unit-period time axes; both are
exact on trigonometric polynomials below the Nyquist mode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import clifford
from .clifford import (CliffordSignature, Multivector, generator_signs,
                       representation, reversion_signs, sign_table)

MOMENTUM = "momentum"
TIME = "time"


@dataclass(frozen=True)
class TorusGrid:
    """Uniform sampling of [0,2pi)^(momentum axes) x [0,1)^(time axes)."""

    sizes: tuple[int, ...] = ()
    axis_roles: tuple[str, ...] | None = None

    def __post_init__(self):
        roles = self.axis_roles
        if roles is None:
            roles = (MOMENTUM,) * len(self.sizes)
            object.__setattr__(self, "axis_roles", roles)
        if len(roles) != len(self.sizes):
            raise ValueError("one axis role per axis required")
        for role in roles:
            if role not in (MOMENTUM, TIME):
                raise ValueError(f"unknown axis role {role!r}")
        for n in self.sizes:
            if n < 4 or n % 2:
                raise ValueError(f"grid sizes must be even and >= 4, got {n}")
        if len(self.sizes) > 3:
            raise ValueError("at most 3 axes supported")

    @property
    def d(self) -> int:
        return len(self.sizes)

    @property
    def npoints(self) -> int:
        return int(np.prod(self.sizes)) if self.sizes else 1

    def period(self, axis: int) -> float:
        return 2 * np.pi if self.axis_roles[axis] == MOMENTUM else 1.0

    def coordinates(self, axis: int) -> np.ndarray:
        n = self.sizes[axis]
        return np.arange(n) * self.period(axis) / n

    def mode_multiplier(self, axis: int) -> np.ndarray:
        """Fourier multiplier of the derivation along `axis` (Nyquist zeroed)."""
        n = self.sizes[axis]
        modes = np.fft.fftfreq(n, d=1.0 / n)
        modes[n // 2] = 0.0
        factor = 1j if self.axis_roles[axis] == MOMENTUM else 2j * np.pi
        return factor * modes


@dataclass(frozen=True)
class Derivation:
    """Spectral derivation along one grid axis."""

    axis: int


@dataclass(frozen=True)
class RealStructureSpec:
    """Antilinear *-automorphism of order 2 on an AlgElement algebra.

    fiber: 'c' for entrywise conjugation, 'h' for Ad_{sigma_y (x) 1} after
    conjugation (quaternionic; requires even matrix size).
    fiber_block: matrix size of the algebra the quaternionic conjugation was
    defined on; elements of M_j(that algebra) are conjugated blockwise (the
    entrywise extension to matrix amplifications).  None means the element's
    own size.
    clifford_signs: per-generator sign, +1 fixed / -1 negated.
    """

    fiber: str = "c"
    momentum_flip: bool = False
    time_flip: bool = False
    clifford_signs: tuple[int, ...] = ()
    fiber_block: int | None = None

    def __post_init__(self):
        if self.fiber not in ("c", "h"):
            raise ValueError(f"unknown fiber map {self.fiber!r}")

    @classmethod
    def from_signature(cls, sig: CliffordSignature) -> "RealStructureSpec":
        return cls(clifford_signs=sig.signs)

    def extend(self, sign: int) -> "RealStructureSpec":
        """Same structure with one appended Clifford generator of given sign."""
        return RealStructureSpec(self.fiber, self.momentum_flip, self.time_flip,
                                 self.clifford_signs + (sign,), self.fiber_block)


class AlgElement:
    """Element of M_m(C(T^d)) (x) Cl_k sampled on a torus grid."""

    __slots__ = ("grid", "m", "k", "data")

    def __init__(self, grid: TorusGrid, m: int, k: int, data: np.ndarray | None = None):
        self.grid = grid
        self.m = m
        self.k = k
        shape = (1 << k, *grid.sizes, m, m)
        if data is None:
            self.data = np.zeros(shape, dtype=complex)
        else:
            data = np.asarray(data, dtype=complex)
            if data.shape != shape:
                raise ValueError(f"expected data shape {shape}, got {data.shape}")
            self.data = data

    # -- constructors -------------------------------------------------
    @classmethod
    def unit(cls, grid, m, k=0):
        x = cls(grid, m, k)
        x.data[0] = np.eye(m)
        return x

    @classmethod
    def from_matrix_field(cls, grid, field_arr):
        """A copy of an (*sizes, m, m) array as a plain matrix field (k = 0)."""
        field_arr = np.asarray(field_arr, dtype=complex)
        x = cls(grid, field_arr.shape[-1], 0)
        x.data[0] = field_arr
        return x

    @classmethod
    def from_multivector(cls, grid, m, mv: Multivector):
        x = cls(grid, m, mv.k)
        eye = np.eye(m)
        for mask in np.flatnonzero(mv.coeffs):
            x.data[mask] = mv.coeffs[mask] * eye
        return x

    def copy(self) -> "AlgElement":
        return AlgElement(self.grid, self.m, self.k, self.data.copy())

    # -- linear structure ----------------------------------------------
    def _check(self, other: "AlgElement"):
        if (self.grid, self.m, self.k) != (other.grid, other.m, other.k):
            raise ValueError("algebra element shape mismatch")

    def __add__(self, other):
        self._check(other)
        return AlgElement(self.grid, self.m, self.k, self.data + other.data)

    def __sub__(self, other):
        self._check(other)
        return AlgElement(self.grid, self.m, self.k, self.data - other.data)

    def __neg__(self):
        return AlgElement(self.grid, self.m, self.k, -self.data)

    def scale(self, c: complex) -> "AlgElement":
        return AlgElement(self.grid, self.m, self.k, c * self.data)

    def __mul__(self, other):
        if isinstance(other, AlgElement):
            return alg_mul(self, other)
        return self.scale(other)

    __rmul__ = scale

    def star(self) -> "AlgElement":
        return alg_star(self)

    # -- structure queries ----------------------------------------------
    def grading(self) -> "AlgElement":
        """Image under the Z2-grading automorphism (odd components negated)."""
        out = self.data.copy()
        _negate(out, clifford.parity(self.k) == 1)
        return AlgElement(self.grid, self.m, self.k, out)

    def homogeneous_part(self, parity: int) -> "AlgElement":
        out = np.zeros_like(self.data)
        for mask in np.flatnonzero(clifford.parity(self.k) == parity):
            out[mask] = self.data[mask]
        return AlgElement(self.grid, self.m, self.k, out)

    def norm_inf(self) -> float:
        """Max over grid points of the operator 2-norm of the represented matrix.

        Exact, with SVDs only at the points that can hold the maximum.  The
        blade images R_S are unitary and trace-orthogonal, so the represented
        matrix sum_S x_S (x) R_S has squared Frobenius norm 2^q sum_S |x_S|_F^2,
        and a single component x_S (x) R_S has the singular values of x_S.
        As sigma_max <= |.|_F <= sqrt(n) sigma_max for an n x n matrix, a point
        with |.|_F^2 below max |.|_F^2 / n cannot hold the maximum.  Raises
        LinAlgError on non-finite input.
        """
        live = _live_components(self.data)
        if not live:
            return 0.0
        data = self.data.reshape(self.data.shape[0], -1, self.m, self.m)
        n = self.m if len(live) == 1 else self.m << representation(self.k)[1]
        fro2 = sum(np.einsum("pij,pij->p", part, part)
                   for s in live for part in (data[s].real, data[s].imag))
        top = fro2.max()
        if _FRO2_MIN <= top < np.inf:
            # the relative slack stays well above the rounding in fro2
            points = np.flatnonzero(~(fro2 < top * (1 - 1e-12) / n))
        else:
            # squares that underflow, overflow or are NaN: keep every point
            points = np.arange(fro2.size)
        step = max(1, _SVD_CHUNK // (n * n))
        peaks = []
        for start in range(0, points.size, step):
            sel = points[start:start + step]
            mats = (data[live[0], sel] if len(live) == 1
                    else _represent_blocks(data[:, sel], self.k, live))
            peaks.append(np.linalg.svd(mats, compute_uv=False).max())
        best = float(np.max(peaks))
        if not np.isfinite(best):
            raise np.linalg.LinAlgError("norm_inf of a non-finite element")
        return best

    # -- Clifford factor manipulation -----------------------------------
    def append_generator(self, on_new: bool = True, coeff: complex = 1.0) -> "AlgElement":
        """x -> x (x) rho_{k+1} (on_new=True) or x (x) 1 into the larger algebra."""
        out = AlgElement(self.grid, self.m, self.k + 1)
        dim = 1 << self.k
        if on_new:
            out.data[dim:] = coeff * self.data
        else:
            out.data[:dim] = coeff * self.data
        return out

    def __repr__(self):
        return (f"AlgElement(d={self.grid.d}, sizes={self.grid.sizes}, "
                f"m={self.m}, k={self.k})")


# ---------------------------------------------------------------------------
# core operations
# ---------------------------------------------------------------------------

# squared Frobenius norms this far above the underflow threshold keep their
# full relative precision, which the pruning in norm_inf relies on
_FRO2_MIN = 1e-200
# matrix entries per batched SVD call in norm_inf (16 MB of complex data)
_SVD_CHUNK = 1 << 20


def _live_components(data: np.ndarray) -> list[int]:
    """Clifford components of a component-first data block that are not
    identically zero."""
    return [s for s in range(data.shape[0]) if np.any(data[s])]


def _negate(data: np.ndarray, flagged: np.ndarray):
    """Negate the flagged components of a component-first block in place."""
    for mask in np.flatnonzero(flagged):
        np.negative(data[mask], out=data[mask])


def _mul_data(a: np.ndarray, b: np.ndarray, k: int) -> np.ndarray:
    """Raw product of two component-first data blocks of the same trailing shape."""
    table = sign_table(k)
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    nontrivial_b = _live_components(b)
    for s in _live_components(a):
        for t in nontrivial_b:
            prod = np.matmul(a[s], b[t])
            if table[s, t] < 0:
                out[s ^ t] -= prod
            else:
                out[s ^ t] += prod
    return out


def alg_mul(x: AlgElement, y: AlgElement) -> AlgElement:
    x._check(y)
    return AlgElement(x.grid, x.m, x.k, _mul_data(x.data, y.data, x.k))


def alg_star(x: AlgElement) -> AlgElement:
    """Involutive antihomomorphism: conjugate-transpose the matrix fields and
    reverse the Clifford factors."""
    out = np.conj(np.swapaxes(x.data, -1, -2))
    _negate(out, reversion_signs(x.k) < 0)
    return AlgElement(x.grid, x.m, x.k, out)


def spectral_derivative_data(data: np.ndarray, grid: TorusGrid, axis: int,
                             axis_offset: int) -> np.ndarray:
    """Apply the spectral derivation along grid axis `axis` to a component-first
    data block whose grid axes start at position `axis_offset`.  Identically
    zero Clifford components stay exact zeros without a transform."""
    ax = axis_offset + axis - 1  # position within one component
    mult = grid.mode_multiplier(axis)
    shape = [1] * (data.ndim - 1)
    shape[ax] = mult.size
    mult = mult.reshape(shape)
    out = np.zeros(data.shape, dtype=complex)
    for s in _live_components(data):
        np.fft.ifft(np.fft.fft(data[s], axis=ax) * mult, axis=ax, out=out[s])
    return out


def apply_derivation(dv: Derivation, x: AlgElement) -> AlgElement:
    if not 0 <= dv.axis < x.grid.d:
        raise ValueError(f"axis {dv.axis} out of range for d={x.grid.d}")
    return AlgElement(x.grid, x.m, x.k,
                      spectral_derivative_data(x.data, x.grid, dv.axis, axis_offset=1))


def trace(x: AlgElement) -> Multivector:
    """Grid average of the matrix trace, per Clifford component.

    Normalized so the unit of M_m(C(T^d)) has trace m on the scalar component.
    """
    tr = np.trace(x.data, axis1=-2, axis2=-1)
    axes = tuple(range(1, tr.ndim))
    return Multivector(x.k, np.mean(tr, axis=axes) if axes else tr)


def scalar_trace(x: AlgElement) -> complex:
    """Trace of the scalar (empty-subset) Clifford component."""
    return complex(trace(x).coeffs[0])


_SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)


def apply_real_structure(rs: RealStructureSpec, x: AlgElement) -> AlgElement:
    if len(rs.clifford_signs) != x.k:
        raise ValueError(f"real structure carries {len(rs.clifford_signs)} "
                         f"generator signs, element has {x.k}")
    out = np.conj(x.data)
    # axis flips: index negation n -> -n mod N (exact for even sizes)
    for axis in range(x.grid.d):
        role = x.grid.axis_roles[axis]
        if (role == MOMENTUM and rs.momentum_flip) or (role == TIME and rs.time_flip):
            out = np.flip(np.roll(out, -1, axis=1 + axis), axis=1 + axis)
    if rs.fiber == "h":
        block = rs.fiber_block or x.m
        if block % 2 or x.m % block:
            raise ValueError("quaternionic fiber needs an even block size "
                             "dividing the matrix size")
        u = np.kron(np.eye(x.m // block), np.kron(_SIGMA_Y, np.eye(block // 2)))
        out = u @ out @ np.conj(u.T)
    _negate(out, generator_signs(tuple(rs.clifford_signs)) < 0)
    return AlgElement(x.grid, x.m, x.k, out)


def check_invariance(rs: RealStructureSpec, x: AlgElement, tol: float) -> tuple[bool, float]:
    residual = (apply_real_structure(rs, x) - x).norm_inf()
    return residual <= tol, residual


# ---------------------------------------------------------------------------
# faithful matrix representation and pointwise hermitian calculus
# ---------------------------------------------------------------------------

def represent(x: AlgElement) -> np.ndarray:
    """Pointwise matrix image of shape (*sizes, m*2^q, m*2^q), a *-homomorphism."""
    return _represent_blocks(x.data, x.k, _live_components(x.data))


def _represent_blocks(data: np.ndarray, k: int, masks: list[int]) -> np.ndarray:
    """Image sum_S data[S] (x) R_S over the components `masks` of a
    component-first block (2^k, *batch, m, m); shape (*batch, m*2^q, m*2^q)."""
    images, q = representation(k)
    dim = 1 << q
    batch, m = data.shape[1:-2], data.shape[-1]
    out = np.zeros((*batch, m * dim, m * dim), dtype=complex)
    view = out.reshape(*batch, m, dim, m, dim)
    for mask in masks:
        view += data[mask][..., :, None, :, None] * images[mask][None, :, None, :]
    return out


def unrepresent(rep: np.ndarray, grid: TorusGrid, m: int, k: int) -> AlgElement:
    """Inverse of `represent` on its image, via blade orthogonality."""
    images, q = representation(k)
    dim = 1 << q
    view = rep.reshape(*grid.sizes, m, dim, m, dim)
    x = AlgElement(grid, m, k)
    for mask in range(1 << k):
        # coefficient block: tr(R_S^dag . block) / 2^q on the Clifford indices
        x.data[mask] = np.einsum("qp,...iqjp->...ij", np.conj(images[mask]), view) / dim
    return x


def _spectral_calculus(v: np.ndarray, fw: np.ndarray) -> np.ndarray:
    """v diag(fw) v^dagger at every point: f applied through an
    eigendecomposition with orthonormal eigenvector columns v.  Leading axes
    broadcast, so fw may carry extra leading axes (e.g. time nodes)."""
    return np.einsum("...ij,...j,...kj->...ik", v, fw, np.conj(v))


def hermitian_calculus(x: AlgElement, fn) -> AlgElement:
    """Apply a scalar function to a self-adjoint element, pointwise.

    fn maps an eigenvalue array to an array of the same shape.
    """
    w, v = np.linalg.eigh(represent(x))
    return unrepresent(_spectral_calculus(v, fn(w)), x.grid, x.m, x.k)


def unitary_exp(a: AlgElement) -> AlgElement:
    """exp(i*a) for self-adjoint a."""
    return hermitian_calculus(a, lambda w: np.exp(1j * w))


# ---------------------------------------------------------------------------
# block helpers
# ---------------------------------------------------------------------------

def direct_sum(x: AlgElement, y: AlgElement) -> AlgElement:
    if (x.grid, x.k) != (y.grid, y.k):
        raise ValueError("direct sum needs matching grid and Clifford factor")
    out = AlgElement(x.grid, x.m + y.m, x.k)
    out.data[..., :x.m, :x.m] = x.data
    out.data[..., x.m:, x.m:] = y.data
    return out


def block_matrix(blocks: list[list[AlgElement | None]]) -> AlgElement:
    """Assemble a square block matrix from same-shaped AlgElements (None = 0)."""
    template = next(b for row in blocks for b in row if b is not None)
    n = len(blocks)
    m = template.m
    out = AlgElement(template.grid, n * m, template.k)
    for i, row in enumerate(blocks):
        if len(row) != n:
            raise ValueError("block matrix must be square")
        for j, b in enumerate(row):
            if b is None:
                continue
            template._check(b)
            out.data[..., i * m:(i + 1) * m, j * m:(j + 1) * m] = b.data
    return out


# ---------------------------------------------------------------------------
# psi_e: contraction of a distinguished Cl_2 factor against a base OSI
# ---------------------------------------------------------------------------

def _split_cl2(x: AlgElement) -> tuple[AlgElement, AlgElement, AlgElement, AlgElement]:
    """Decompose x in M_m(A) (x) Cl_{k-2} (x) Cl_2, the last two generators
    spanning the Cl_2 factor, as x0 (x) 1 + x1 (x) s_x + x2 (x) s_y + x3 (x) s_z."""
    if x.k < 2:
        raise ValueError("need at least two Clifford generators")
    kh = x.k - 2
    dim = 1 << kh
    parts = [AlgElement(x.grid, x.m, kh) for _ in range(4)]
    for mask in range(1 << x.k):
        block = x.data[mask]
        low = mask & (dim - 1)
        high = mask >> kh
        if high == 0:
            parts[0].data[low] += block
        elif high == 1:
            parts[1].data[low] += block
        elif high == 2:
            parts[2].data[low] += block
        else:  # rho_{k-1} rho_k = i * sigma_z
            parts[3].data[low] += 1j * block
    return tuple(parts)


def _join_cl2(parts, grid, m, kh) -> AlgElement:
    x = AlgElement(grid, m, kh + 2)
    dim = 1 << kh
    for low in range(dim):
        x.data[low] += parts[0].data[low]
        x.data[low | dim] += parts[1].data[low]
        x.data[low | (2 * dim)] += parts[2].data[low]
        x.data[low | (3 * dim)] += -1j * parts[3].data[low]
    return x


def psi_e(x: AlgElement, e: AlgElement) -> AlgElement:
    """Graded isomorphism M_m(A)(x)Cl_{k-2}(x)Cl_2 -> M_2(M_m(A)(x)Cl_{k-2}).

    e must be an odd self-inverse of the host algebra M_m(A)(x)Cl_{k-2}.
    On the distinguished last-two-generator Cl_2 factor:
    x(x)1 -> diag(x, gamma(x) conjugated by e), 1(x)s_x -> offdiag(e; e),
    1(x)i*s_y -> offdiag(e; -e).
    """
    x0, x1, x2, x3 = _split_cl2(x)
    _validate_osi(e)
    g = AlgElement.grading
    top = [x0 + x3, (x1 - 1j * x2) * e]
    bot = [e * (g(x1) + 1j * g(x2)), e * (g(x0) - g(x3)) * e]
    return block_matrix([top, bot])


def psi_e_inverse(y: AlgElement, e: AlgElement) -> AlgElement:
    """Inverse of psi_e: M_2(M_m(A)(x)Cl_{k}) -> M_m(A)(x)Cl_{k}(x)Cl_2."""
    _validate_osi(e)
    m = y.m // 2
    grid, k = y.grid, y.k
    blocks = []
    for i in range(2):
        for j in range(2):
            b = AlgElement(grid, m, k,
                           y.data[..., i * m:(i + 1) * m, j * m:(j + 1) * m].copy())
            blocks.append(b)
    y00, y01, y10, y11 = blocks
    g = AlgElement.grading
    x0 = (y00 + g(e * y11 * e)).scale(0.5)
    x3 = (y00 - g(e * y11 * e)).scale(0.5)
    x1 = (y01 * e + g(e * y10)).scale(0.5)
    x2 = (g(e * y10) - y01 * e).scale(-0.5j)
    return _join_cl2([x0, x1, x2, x3], grid, m, k)


def _validate_osi(e: AlgElement):
    """Odd within 1e-10 and self-inverse within 1e-10; the second check also
    rejects the zero element and any even element too small for the first."""
    if e.homogeneous_part(0).norm_inf() > 1e-10:
        raise ValueError("base element must be odd")
    res = (e * e - AlgElement.unit(e.grid, e.m, e.k)).norm_inf()
    if res > 1e-10:
        raise ValueError(f"base element not self-inverse (residual {res:.2e})")
