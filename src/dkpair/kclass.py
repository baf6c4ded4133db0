"""K-theory representatives: spectral flattening, validated OSUs, base points,
and the explicit loops used by the suspension and torsion pairings.

Loops are lists of segments, because the constructed loops are only
piecewise smooth on the circle.  Every segment answers `ends()`, its values
at s = 0 and s = 1.  The Bott and torsion loops are `ArcSegment`s,
homogeneous polynomials in (cos, sin)(pi s/2) that `pairing.pair_suspended`
integrates in closed form from their coefficients.  The Floquet loops
answer `quadrature(axes)` as well, one node of their own rule at a time with
the value, d/ds and space derivatives there, which `floquet.degree_t3`
reads: frames evaluate theirs from eigenframes (`floquet.FrameSegment`), and
only `ClosedSegment`, a loop piece given as samples, stores node arrays.
"""

from __future__ import annotations

import functools
from dataclasses import InitVar, dataclass

import numpy as np

from .grid_alg import (AlgElement, RealStructureSpec, TorusGrid, _minus_unit,
                       _spectral_calculus, apply_derivation,
                       apply_real_structure, even_subgrid, failing, named,
                       require_within, spectral_derivative_data)

# the spectral gap at zero that flatten needs, relative to the scale |h|
GAP_TOL = 1e-8


class GapClosedError(ValueError):
    def __init__(self, message, smallest=None):
        super().__init__(message)
        self.smallest = smallest


class OsuValidationError(ValueError):
    def __init__(self, message, residuals):
        super().__init__(message)
        self.residuals = residuals  # {name: exact norm_inf} of the failing defects


@dataclass(frozen=True)
class BasePoint:
    """Distinguished OSU relative to which K-classes are measured; must be
    annihilated by every derivation of the cycle it is paired against."""

    e: AlgElement

    @classmethod
    def standard_rho(cls, grid, m, k, sign=-1):
        """sign * 1 (x) rho_k (the last generator), grid-constant: a read-only
        broadcast view of one point's block, so it holds no grid of its own
        (a copy of its data is dense)."""
        block = np.zeros((1 << k, *(1,) * grid.d, m, m), dtype=complex)
        block[1 << (k - 1)] = sign * np.eye(m)
        return cls(AlgElement(grid, m, k, np.broadcast_to(block, (1 << k, *grid.sizes, m, m))))


def _osu_defects(x: AlgElement, where: str):
    """(name + where, defect) of each OSU check of x, formed as it is drawn."""
    yield "even_part" + where, x.homogeneous_part(0)
    yield "self_adjoint" + where, x - x.star()
    yield "square" + where, _minus_unit(x * x)


def osu_validate(x: AlgElement, tol: float = 1e-10) -> AlgElement:
    """x itself, once it is an odd self-adjoint unitary within tol."""
    bad = failing(_osu_defects(x, ""), tol)
    if bad:
        raise OsuValidationError(f"not an OSU within {tol:g}: {named(bad)}", bad)
    return x


def flatten(h: AlgElement) -> AlgElement:
    """Spectral flattening sign(h) of a self-adjoint invertible symbol, a
    plain matrix field (k = 0); any other k raises ValueError.

    Pointwise hermitian eigendecomposition; eigenvalues map to +-1.  Both
    checks are relative to the scale |h|, the largest |eigenvalue| (for a
    self-adjoint h its norm_inf), as sign(lambda h) = sign(h) for lambda > 0:
    the self-adjointness residual must stay within 1e-10 |h|, and
    GapClosedError reports the offending grid point if the spectral gap at
    zero falls below GAP_TOL |h|.  Raises LinAlgError on non-finite input.
    """
    if h.k != 0:
        raise ValueError(f"flatten takes a symbol with k = 0, got k = {h.k}")
    w, v = np.linalg.eigh(h.data[0])
    scale = float(np.abs(w).max())
    if not np.isfinite(scale):
        raise np.linalg.LinAlgError("flatten of a non-finite element")
    try:
        require_within(h - h.star(), 1e-10 * scale,
                       lambda r: f"flatten needs a self-adjoint input (residual "
                                 f"{r:.2e} at scale {scale:.2e})")
    except np.linalg.LinAlgError:
        # a NaN entry can leave eigh's eigenvalues finite and its vectors NaN
        raise np.linalg.LinAlgError("flatten of a non-finite element") from None
    _check_gap(w, GAP_TOL * scale)
    return AlgElement.from_matrix_field(h.grid, _spectral_calculus(v, np.sign(w)))


def flatten_refinement(h: AlgElement) -> tuple[AlgElement, AlgElement]:
    """(flatten(h_n), flatten(h)) for h on a 2n grid and h_n = even_subgrid(h),
    from the one eigendecomposition of flatten(h): it is pointwise, so at the
    even points it is h_n's, and sign(h_n) is the even subgrid of sign(h).

    The verdicts are those of flatten(h_n) and then flatten(h).  h_n's gap
    is open when h's is: its eigenvalues are among h's, and GAP_TOL |h| >=
    GAP_TOL |h_n|.  h_n's self-adjointness is settled against half of
    max|h_n|_F / sqrt(m), a lower bound of |h_n| that leaves room for the
    defect itself and the eigensolver's rounding, or else by flatten(h_n).
    When flatten(h) fails, flatten(h_n) runs before its error is raised, so a
    failure the base grid has is reported there.
    """
    base = even_subgrid(h)
    floor = 0.5 * np.sqrt(np.max(base._point_squares()[3]) / h.m)
    if not (np.isfinite(floor) and (base - base.star()).within(1e-10 * floor)):
        flatten(base)
    try:
        fine = flatten(h)
    except ValueError:
        flatten(base)
        raise
    return even_subgrid(fine), fine


def _check_gap(w, gap):
    absw = np.abs(w)
    smallest = float(absw.min())
    if smallest < gap or smallest == 0:
        point = np.unravel_index(int(np.argmin(absw.min(axis=-1))), absw.shape[:-1])
        raise GapClosedError(
            f"spectral gap closed: smallest |eigenvalue| {smallest:.3e} "
            f"< {gap:.3e} at grid point {point}", smallest)


def make_osu_from_hamiltonian(h: AlgElement) -> AlgElement:
    """flatten(h) (x) rho on one appended Clifford generator."""
    return osu_validate(flatten(h).append_generator())


# ---------------------------------------------------------------------------
# loops
# ---------------------------------------------------------------------------

class Segment:
    """One piece of a loop over [t0, t1] of the period, parametrized by local
    s in [0, 1], with values in M_m(A) (x) Cl_k on `grid`.  A subclass sets
    t0, t1, grid, m and k and answers `ends`; a segment that
    `floquet.degree_t3` integrates also answers `quadrature`."""

    t0: float
    t1: float
    grid: TorusGrid
    m: int
    k: int

    def quadrature(self, axes):
        """(weight, value, d/ds, [d_axis value for axis in axes]) at each node
        of the segment's own rule, one node at a time, as data blocks of
        shape (2^k, *grid.sizes, m, m).  An arc has none: it is integrated
        in closed form (`pairing.pair_suspended`)."""
        raise NotImplementedError

    def ends(self) -> tuple[np.ndarray, np.ndarray]:
        """The data blocks at s = 0 and s = 1."""
        raise NotImplementedError


@dataclass
class LoopElement:
    """Piecewise-smooth OSU- or unitary-valued closed loop over one period,
    built only if each segment ends within tol of where the next, cyclically,
    starts (`Segment.ends`)."""

    segments: list[Segment]
    tol: InitVar[float]

    def __post_init__(self, tol: float):
        ends = [seg.ends() for seg in self.segments]
        bad = failing(((f"segment{i}_end", AlgElement(self.grid, self.m, self.k, a[1] - b[0]))
                       for i, (a, b) in enumerate(zip(ends, ends[1:] + ends[:1]))), tol)
        if bad:
            raise ValueError(f"loop discontinuous: {named(bad)}")

    @property
    def grid(self):
        return self.segments[0].grid

    @property
    def m(self):
        return self.segments[0].m

    @property
    def k(self):
        return self.segments[0].k


@functools.cache
def _gauss_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1], formed once per order and
    shared read-only."""
    xg, wg = np.polynomial.legendre.leggauss(order)
    rule = 0.5 * (xg + 1.0), 0.5 * wg
    for a in rule:
        a.flags.writeable = False
    return rule


def _simpson_rule(nnodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Closed nodes j/(M-1) on [0, 1] and their composite Simpson weights."""
    if nnodes < 7 or nnodes % 2 == 0:
        raise ValueError("closed segments need an odd node count >= 7")
    nodes = np.linspace(0.0, 1.0, nnodes)
    h = 1.0 / (nnodes - 1)
    weights = np.full(nnodes, 2 * h / 3)
    weights[1::2] = 4 * h / 3
    weights[0] = weights[-1] = h / 3
    return nodes, weights


class ClosedSegment(Segment):
    """Values (2^k, M, *grid.sizes, m, m) stored on closed nodes j/(M-1),
    M odd and >= 7, with Simpson weights: d/ds at a node is its 4th-order
    finite difference (one-sided at the edges), formed when the node is read."""

    def __init__(self, values: np.ndarray, t0: float, t1: float, grid, m, k):
        self.weights = _simpson_rule(values.shape[1])[1]
        self.values, self.t0, self.t1 = values, t0, t1
        self.grid, self.m, self.k = grid, m, k

    def deriv(self, j: int) -> np.ndarray:
        """d/ds at node j."""
        n = self.weights.size
        j = range(n)[j]
        v, h = self.values, 1.0 / (n - 1)
        if 2 <= j < n - 2:
            return (v[:, j - 2] - 8 * v[:, j - 1] + 8 * v[:, j + 1] - v[:, j + 2]) / (12 * h)
        fwd = np.array([-25, 48, -36, 16, -3]) / (12 * h)
        if j < 2:
            return sum(c * v[:, j + i] for i, c in enumerate(fwd))
        return -sum(c * v[:, j - i] for i, c in enumerate(fwd))

    def quadrature(self, axes):
        for j, weight in enumerate(self.weights):
            value = self.values[:, j]
            yield (weight, value, self.deriv(j),
                   [spectral_derivative_data(value, self.grid, a) for a in axes])

    def ends(self) -> tuple[np.ndarray, np.ndarray]:
        """Views of the first and last node."""
        return self.values[:, 0], self.values[:, -1]


def _corner(x: AlgElement):
    """An arc coefficient with its space derivative per axis, cached on first use."""
    return x, functools.cache(lambda axis: spectral_derivative_data(x.data, x.grid, axis))


def _combine(weights, blocks) -> np.ndarray:
    """sum_g weights[g] blocks[g], accumulated in place."""
    out = weights[0] * blocks[0]
    for w, b in zip(weights[1:], blocks[1:]):
        out += w * b
    return out


class ArcSegment(Segment):
    """Arc s -> sum_g cos^(d-g) sin^g (pi s/2) P_g of degree d in (cos, sin)
    from `_corner` coefficients, with an `order`-node Gauss-Legendre rule
    whose moments `pairing.pair_suspended` contracts in closed form; `at`
    builds one value from scalar weights on the blocks P_g."""

    def __init__(self, t0: float, t1: float, order: int, coeffs):
        self.t0, self.t1 = t0, t1
        self.nodes, self.weights = _gauss_rule(order)
        self.blocks = [x.data for x, _ in coeffs]
        self.space = [dx for _, dx in coeffs]
        self.grid, self.m, self.k = coeffs[0][0].grid, coeffs[0][0].m, coeffs[0][0].k

    def _powers(self, s) -> list:
        """cos^(d-g) sin^g (pi s/2) for g = 0..d, at a local s or an array of them."""
        d = len(self.blocks) - 1
        c, sn = np.cos(np.pi * s / 2), np.sin(np.pi * s / 2)
        return [c ** (d - g) * sn ** g for g in range(d + 1)]

    def at(self, s: float) -> AlgElement:
        return AlgElement(self.grid, self.m, self.k, _combine(self._powers(s), self.blocks))

    def ends(self) -> tuple[np.ndarray, np.ndarray]:
        """P_0 and P_d, the arc's exact values at s = 0 and s = 1, as stored."""
        return self.blocks[0], self.blocks[-1]


def _sample_defects(arcs: list[ArcSegment], stride: int):
    """(name, defect) of each OSU check at every stride-th node of each arc,
    formed as it is drawn."""
    for i, seg in enumerate(arcs):
        for j in range(0, seg.nodes.size, stride):
            yield from _osu_defects(seg.at(seg.nodes[j]), f" at segment {i} node {j}")


# ---------------------------------------------------------------------------
# the Bott suspension loop
# ---------------------------------------------------------------------------

def _poly_product(p: list[AlgElement], q: list[AlgElement]) -> list[AlgElement]:
    """Coefficients of the product of two polynomials in commuting scalars."""
    out = [None] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = a * b if out[i + j] is None else out[i + j] + a * b
    return out


def bott_loop(x: AlgElement, e: BasePoint, order: int = 64) -> LoopElement:
    """Suspension-image loop nu_x nu_e^-1 rho nu_e nu_x^-1 of an OSU class,
    with rho the appended generator and nu_y = cos 1 + sin y (x) rho at
    (cos, sin)(pi s/2).  The factors are multiplied out once into one
    `ArcSegment` of degree 4; it closes at 1 (x) rho within 1e-10 but is
    only piecewise smooth on the circle."""
    x._check(e.e)
    unit = AlgElement.unit(x.grid, x.m, x.k + 1)
    rho = AlgElement.unit(x.grid, x.m, x.k).append_generator()
    xr, er = x.append_generator(), e.e.append_generator()
    coeffs = [unit, xr]
    for factor in ([unit, -er], [rho], [unit, er], [unit, -xr]):
        coeffs = _poly_product(coeffs, factor)
    loop = LoopElement([ArcSegment(0.0, 1.0, order, [_corner(p) for p in coeffs])], 1e-10)
    bad = failing(_sample_defects(loop.segments, 4), 1e-10)
    if bad:
        raise OsuValidationError(f"loop samples fail the OSU check: {named(bad)}", bad)
    return loop


# ---------------------------------------------------------------------------
# the four-segment torsion loop
# ---------------------------------------------------------------------------

def _torsion_preconditions(x, e, y, rs, derivations):
    """(name, defect) of each torsion-loop precondition, formed as it is drawn."""
    yield "y_even", y.homogeneous_part(1)
    yield "y_anti_self_adjoint", y.star() + y
    yield "y_unitary", _minus_unit(y * y.star())
    yield "y_commutes_x", y * x - x * y
    yield "y_commutes_e", y * e - e * y
    for axis in derivations:
        yield f"dy_axis{axis}", apply_derivation(axis, y)
        yield f"de_axis{axis}", apply_derivation(axis, e)
    if rs is not None:
        for name, z in (("y", y), ("x", x), ("e", e)):
            yield f"{name}_invariant", apply_real_structure(rs, z) - z


def _half_symmetry(corners: list[AlgElement], segments: list[ArcSegment],
                   rs: RealStructureSpec):
    """(name, real-structure defect) at every 8th node of the four torsion
    arcs, formed as it is drawn: rs extended by a fixed generator on the
    first half, by a negated one on the second.  Arc i runs from corner i to
    corner i + 1 as cos a + sin b with real weights, and an extended rs is
    real-linear, so a node's defect is cos D_a + sin D_b with D = rs(c) - c
    of each corner c.  Each corner's defect is formed once per half, and
    only the two of the current arc are held."""
    ring = corners + corners[:1]
    for half in (0, 1):
        ext = rs.extend(1 - 2 * half)
        a = (apply_real_structure(ext, ring[2 * half]) - ring[2 * half]).data
        for i in (2 * half, 2 * half + 1):
            b = (apply_real_structure(ext, ring[i + 1]) - ring[i + 1]).data
            seg = segments[i]
            for j in range(0, seg.nodes.size, 8):
                yield f"arc{i}_node{j}", AlgElement(
                    seg.grid, seg.m, seg.k, _combine(seg._powers(seg.nodes[j]), [a, b]))
            a = b
        del a, b  # before the next half's first defect is formed


def torsion_loop(x: AlgElement, e: BasePoint, y: AlgElement,
                 rs: RealStructureSpec | None = None,
                 derivations=(), order: int = 64) -> LoopElement:
    """Four-segment loop through e(x)1, 1(x)rho, x(x)1, y(x)i*rho.

    y must be even, anti-self-adjoint, unitary, commute with x and e, be
    killed by the cycle derivations (grid axes) and fixed by the model's
    real structure.  Consecutive corner elements anticommute exactly, so
    every sample is an OSU; the first half is invariant under rs extended
    by a fixed generator, the second half under rs extended by a negated one.
    """
    tol = 1e-10
    eb = e.e
    x._check(eb)
    x._check(y)
    bad = failing(_torsion_preconditions(x, eb, y, rs, derivations), tol)
    if bad:
        raise ValueError(f"torsion loop preconditions violated: {named(bad)}")

    corners = [
        eb.append_generator(on_new=False),
        AlgElement.unit(x.grid, x.m, x.k).append_generator(),
        x.append_generator(on_new=False),
        y.append_generator(coeff=1j),
    ]
    bad = failing(((f"corners{i}{(i + 1) % 4}", a * b + b * a)
                   for i, (a, b) in enumerate(zip(corners, corners[1:] + corners[:1]))), tol)
    if bad:
        raise ValueError(f"corner elements fail to anticommute: {named(bad)}")

    ends = [_corner(c) for c in corners]
    segments = [ArcSegment(i / 4, (i + 1) / 4, order, [ends[i], ends[(i + 1) % 4]])
                for i in range(4)]
    loop = LoopElement(segments, tol)
    bad = {} if rs is None else failing(_half_symmetry(corners, segments, rs), tol)
    if bad:
        raise ValueError(f"torsion loop half-symmetry residuals: {named(bad)}")
    return loop
