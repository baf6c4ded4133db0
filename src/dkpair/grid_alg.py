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

import functools
from dataclasses import dataclass

import numpy as np

from . import clifford
from .clifford import (MAX_GENERATORS, _shared, generator_signs, mu,
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

    def period(self, axis: int) -> float:
        return 2 * np.pi if self.axis_roles[axis] == MOMENTUM else 1.0

    def coordinates(self, axis: int) -> np.ndarray:
        n = self.sizes[axis]
        return np.arange(n) * self.period(axis) / n

    def mode_multiplier(self, axis: int) -> np.ndarray:
        """Fourier multiplier of the derivation along `axis` (Nyquist zeroed),
        read-only, formed once per axis size and role."""
        return _mode_multiplier(self.sizes[axis], self.axis_roles[axis])


@functools.cache
def _mode_multiplier(n: int, role: str) -> np.ndarray:
    modes = np.fft.fftfreq(n, d=1.0 / n)
    modes[n // 2] = 0.0
    return _shared((1j if role == MOMENTUM else 2j * np.pi) * modes)


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
    clifford_signs: tuple[int, ...] = ()
    fiber_block: int | None = None

    def __post_init__(self):
        if self.fiber not in ("c", "h"):
            raise ValueError(f"unknown fiber map {self.fiber!r}")

    def extend(self, sign: int) -> "RealStructureSpec":
        """Same structure with one appended Clifford generator of given sign."""
        return RealStructureSpec(self.fiber, self.momentum_flip,
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

    def _point_squares(self):
        """(live components, data with its `_distinct` points flattened to one
        axis, size n of the matrices whose singular values norm_inf takes,
        sum_S |x_S|_F^2 per point).  The blade images R_S are unitary and
        trace-orthogonal, so the represented matrix sum_S x_S (x) R_S has
        squared Frobenius norm 2^q sum_S |x_S|_F^2; a single component
        x_S (x) R_S has the singular values of x_S, and its SVD is taken on
        x_S.  Either way the matrix of size n has squared Frobenius norm
        (n / m) times the sum."""
        data = _distinct(self.data)
        live = list(_parts(data))
        data = data.reshape(data.shape[0], -1, self.m, self.m)
        n = self.m if len(live) == 1 else self.m << representation(self.k)[1]
        fro2 = sum(np.einsum("pij,pij->p", part, part)
                   for s in live for part in (data[s].real, data[s].imag))
        return live, data, n, fro2

    def norm_inf(self) -> float:
        """Max over grid points of the operator 2-norm of the represented matrix.

        Exact, with SVDs only at the points that can hold the maximum.  As
        sigma_max <= |.|_F <= sqrt(n) sigma_max for an n x n matrix, a point
        with |.|_F^2 below max |.|_F^2 / n cannot hold the maximum (see
        `_point_squares` for the Frobenius norms).  Rounding-level residuals
        have no dominant points, so most of their points stay candidates; a
        check that only compares against a tolerance should call `within`.
        Raises LinAlgError on non-finite input.
        """
        live, data, n, fro2 = self._point_squares()
        if not live:
            return 0.0
        top = fro2.max()
        if _FRO2_MIN <= top < np.inf:
            # the relative slack stays well above the rounding in fro2
            points = np.flatnonzero(~(fro2 < top * (1 - 1e-12) / n))
        elif np.isnan(top):
            # a NaN entry, which no SVD would take
            raise np.linalg.LinAlgError("norm_inf of a non-finite element")
        else:
            # squares that underflow or overflow: keep every point
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

    def within(self, tol: float) -> bool:
        """norm_inf() <= tol, settled on the Frobenius bound when it can be.

        The largest pointwise Frobenius norm of the represented matrix bounds
        norm_inf from above; on rank-one points the two agree and rounding can
        put the computed Frobenius norm just below the SVD value, so it takes
        a relative slack of 1e-12.  When that bound is within tol, no SVD is
        taken; otherwise, and for squares that underflow, overflow or are NaN,
        the answer is the exact norm_inf() <= tol.  Raises LinAlgError on
        non-finite input.
        """
        return self._bound_or_norm(tol) <= tol

    def _bound_or_norm(self, tol: float) -> float:
        """`within`'s Frobenius bound when it is within tol, else the exact
        norm_inf(): either way a value within tol exactly when norm_inf is."""
        live, _, n, fro2 = self._point_squares()
        if not live:
            return 0.0
        top = fro2.max()
        bound = np.sqrt(top * (n // self.m)) * (1 + 1e-12)
        if _FRO2_MIN <= top < np.inf and bound <= tol:
            return bound
        return self.norm_inf()

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
# full relative precision, which the pruning in norm_inf and the bound in
# within rely on
_FRO2_MIN = 1e-200
# matrix entries per batched SVD call in norm_inf (16 MB of complex data)
_SVD_CHUNK = 1 << 20


def _negate(data: np.ndarray, flagged: np.ndarray):
    """Negate the flagged components of a component-first block in place."""
    for mask in np.flatnonzero(flagged):
        np.negative(data[mask], out=data[mask])


def _distinct(data: np.ndarray) -> np.ndarray:
    """data (2^k, *grid.sizes, m, m) read once along each grid axis of stride
    0, where a broadcast view repeats one point: a view, every axis kept."""
    return data[(slice(None),) + tuple(slice(None) if stride else slice(0, 1)
                                       for stride in data.strides[1:-2])]


def _parts(data: np.ndarray) -> dict:
    """{mask: block} of the Clifford components of a component-first block
    that are not identically zero."""
    return {s: data[s] for s in range(data.shape[0]) if np.any(data[s])}


def _accumulate(acc: dict, mask: int, block: np.ndarray, negate: bool):
    """acc[mask] -= or += block; a mask acc lacks takes the fresh block over."""
    if mask not in acc:
        acc[mask] = np.negative(block, out=block) if negate else block
    elif negate:
        acc[mask] -= block
    else:
        acc[mask] += block


def _mul_parts(a: dict, b: dict, k: int, dense=None) -> dict:
    """Product of blocks given by their live components {mask: block}: one
    matmul per live pair (s, t), signed into s ^ t; no live pair gives {}.
    With a component-first block `dense`, the first product of each mask
    lands in dense[mask], which the result then holds."""
    table = sign_table(k)
    out = {}
    for s, x in a.items():
        for t, y in b.items():
            u = s ^ t
            land = dense[u] if dense is not None and u not in out else None
            _accumulate(out, u, np.matmul(x, y, out=land), table[s, t] < 0)
    return out


def _mul_data(a: np.ndarray, b: np.ndarray, k: int) -> np.ndarray:
    """Raw product of two component-first data blocks of the same trailing
    shape: `_mul_parts` of their live components, formed in place in a
    zeroed block."""
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    _mul_parts(_parts(a), _parts(b), k, out)
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


def spectral_derivative_data(data: np.ndarray, grid: TorusGrid, axis: int) -> np.ndarray:
    """Apply the spectral derivation along grid axis `axis` to a component-first
    data block (2^k, *grid.sizes, m, m).  Identically zero Clifford
    components stay exact zeros without a transform."""
    mult = grid.mode_multiplier(axis)
    shape = [1] * (data.ndim - 1)
    shape[axis] = mult.size
    mult = mult.reshape(shape)
    out = np.zeros(data.shape, dtype=complex)
    for s, block in _parts(data).items():
        np.fft.ifft(np.fft.fft(block, axis=axis) * mult, axis=axis, out=out[s])
    return out


def _check_axis(axis: int, grid: TorusGrid):
    """Raise ValueError unless axis is one of the grid's."""
    if not 0 <= axis < grid.d:
        raise ValueError(f"axis {axis} out of range for d={grid.d}")


def apply_derivation(axis: int, x: AlgElement) -> AlgElement:
    """The spectral derivation along grid axis `axis` of x."""
    _check_axis(axis, x.grid)
    return AlgElement(x.grid, x.m, x.k, spectral_derivative_data(x.data, x.grid, axis))


def trace(x: AlgElement) -> AlgElement:
    """Grid average of the matrix trace, per Clifford component: an element
    of Cl_k, at one point with m = 1.

    Normalized so the unit of M_m(C(T^d)) has trace m on the scalar component.
    """
    tr = np.trace(x.data, axis1=-2, axis2=-1).mean(axis=tuple(range(1, x.grid.d + 1)))
    return AlgElement(TorusGrid(()), 1, x.k, tr[:, None, None])


def blade(k: int, mask: int) -> AlgElement:
    """The basis element e_mask of Cl_k, at one point with m = 1."""
    x = AlgElement(TorusGrid(()), 1, k)
    x.data[mask] = 1.0
    return x


def gamma_element(k: int) -> AlgElement:
    """Chirality element i^{-mu(k)} rho_1 ... rho_k of Cl_k, at one point with
    m = 1; self-adjoint, squares to 1."""
    if not 0 <= k <= MAX_GENERATORS:
        raise ValueError(f"generator count must be in [0, {MAX_GENERATORS}], got {k}")
    g = AlgElement(TorusGrid(()), 1, k)
    g.data[-1] = (1j) ** (-mu(k) % 4)
    return g


def j_functional(a: AlgElement) -> complex:
    """Coefficient of the chirality element of a point element of Cl_k (m = 1),
    such as a `trace`: linear, a graded trace, j(gamma_element(k)) = 1."""
    return complex(a.data[-1].item() * (1j) ** (mu(a.k) % 4))


def _quaternionic_swap(data: np.ndarray, nb: int, half: int) -> np.ndarray:
    """u X u^H for u = 1_nb (x) sigma_y (x) 1_half, as slices: on each pair of
    blocks of size 2 half, [[X11, X12], [X21, X22]] -> [[X22, -X21], [-X12, X11]]."""
    lead = data.shape[:-2]
    src = data.reshape(*lead, nb, 2, half, nb, 2, half)
    out = np.empty_like(src)
    for a in (0, 1):
        for c in (0, 1):
            part = src[..., 1 - a, :, :, 1 - c, :]
            if a == c:
                out[..., a, :, :, c, :] = part
            else:
                np.negative(part, out=out[..., a, :, :, c, :])
    return out.reshape(data.shape)


def apply_real_structure(rs: RealStructureSpec, x: AlgElement) -> AlgElement:
    if len(rs.clifford_signs) != x.k:
        raise ValueError(f"real structure carries {len(rs.clifford_signs)} "
                         f"generator signs, element has {x.k}")
    # momentum flips n -> -n mod N, one index gather per axis; np.take keeps
    # the C layout, which a multi-axis fancy index would not
    out = x.data
    for axis, (n, role) in enumerate(zip(x.grid.sizes, x.grid.axis_roles)):
        if rs.momentum_flip and role == MOMENTUM:
            out = np.take(out, -np.arange(n) % n, axis=1 + axis)
    out = np.conj(out) if out is x.data else np.conj(out, out=out)
    if rs.fiber == "h":
        block = rs.fiber_block or x.m
        if block % 2 or x.m % block:
            raise ValueError("quaternionic fiber needs an even block size "
                             "dividing the matrix size")
        out = _quaternionic_swap(out, x.m // block, block // 2)
    _negate(out, generator_signs(tuple(rs.clifford_signs)) < 0)
    return AlgElement(x.grid, x.m, x.k, out)


def check_invariance(rs: RealStructureSpec, x: AlgElement) -> float:
    """The exact residual |R(x) - x| of x under the real structure rs."""
    return (apply_real_structure(rs, x) - x).norm_inf()


def failing(defects, tol: float) -> dict:
    """{name: exact norm_inf} of the (name, defect) pairs, drawn one at a
    time, whose defect is not within tol.  A passing defect settles on
    `within`'s bound and takes no SVD; the exact norm is taken only for a
    failing one.  Each defect is dropped before the next one is drawn, so a
    generator of defects holds one at a time."""
    bad = {}
    for name, defect in defects:
        residual = defect._bound_or_norm(tol)
        if not residual <= tol:
            bad[name] = residual
        del defect
    return bad


def named(residuals: dict) -> str:
    """The residuals `failing` returns, as 'name=residual, ...'."""
    return ", ".join(f"{name}={r:.3e}" for name, r in residuals.items())


def require_within(defect: AlgElement, tol: float, message):
    """Raise ValueError(message(residual)) unless defect is within tol: the
    one-defect case of `failing`.  The caller holds no reference to the
    defect, so it is freed on return."""
    bad = failing([("defect", defect)], tol)
    if bad:
        raise ValueError(message(bad["defect"]))


def _minus_unit(x: AlgElement) -> AlgElement:
    """x - 1, the identity subtracted from x's scalar component in place."""
    x.data[0] -= np.eye(x.m)
    return x


# ---------------------------------------------------------------------------
# faithful matrix representation and pointwise functional calculus
# ---------------------------------------------------------------------------

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


def _spectral_calculus(v: np.ndarray, fw: np.ndarray) -> np.ndarray:
    """v diag(fw) v^dagger at every point: f applied through an
    eigendecomposition with orthonormal eigenvector columns v.  Leading axes
    broadcast, so fw may carry extra leading axes (e.g. time nodes)."""
    return np.einsum("...ij,...j,...kj->...ik", v, fw, np.conj(v))


# ---------------------------------------------------------------------------
# block helpers
# ---------------------------------------------------------------------------

def even_subgrid(x: AlgElement) -> AlgElement:
    """x at the points of even index on every axis, a contiguous copy on the
    grid of half the size: the points of that grid, at the same coordinates
    (j P / n and 2j P / 2n round alike)."""
    grid = TorusGrid(tuple(n // 2 for n in x.grid.sizes), x.grid.axis_roles)
    data = x.data[(slice(None),) + (slice(None, None, 2),) * x.grid.d]
    return AlgElement(grid, x.m, x.k, np.ascontiguousarray(data))


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


def _validate_osi(e: AlgElement):
    """Odd within 1e-10 and self-inverse within 1e-10; the second check also
    rejects the zero element and any even element too small for the first."""
    bad = failing(_osi_defects(e), 1e-10)
    if bad:
        raise ValueError(f"bad base element: {named(bad)}")


def _osi_defects(e: AlgElement):
    """(name, defect) of each odd self-inverse check, formed as it is drawn."""
    yield "odd", e.homogeneous_part(0)
    yield "self-inverse", _minus_unit(e * e)
