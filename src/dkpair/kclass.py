"""K-theory representatives: spectral flattening, validated OSUs, base points,
and the explicit loops used by the suspension and torsion pairings.

Loops are stored segmentwise with quadrature nodes and analytic (or spectral)
local time derivatives, because the constructed loops are only piecewise
smooth on the circle.  Consumers read one node at a time (`Segment.node`);
the torsion loop builds each node from its corners instead of storing arrays.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .grid_alg import (AlgElement, RealStructureSpec, TorusGrid,
                       _spectral_calculus, apply_derivation, check_invariance,
                       hermitian_calculus, spectral_derivative_data)


class GapClosedError(ValueError):
    def __init__(self, message, point=None, smallest=None):
        super().__init__(message)
        self.point = point
        self.smallest = smallest


class OsuValidationError(ValueError):
    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = residuals or {}


@dataclass(frozen=True)
class OsuElement:
    """A validated odd self-adjoint unitary."""

    body: AlgElement
    osu_tol: float


@dataclass(frozen=True)
class BasePoint:
    """Distinguished OSU relative to which K-classes are measured; must be
    annihilated by every derivation of the cycle it is paired against."""

    e: AlgElement

    @classmethod
    def standard_rho(cls, grid, m, k, sign=-1):
        """sign * 1 (x) rho_k (the last generator)."""
        e = AlgElement(grid, m, k)
        e.data[1 << (k - 1)] = sign * np.eye(m)
        return cls(e)

    @classmethod
    def sigma_x(cls, grid, m, k=2):
        """1 (x) rho_1, the sigma_x base point for k=2 classes."""
        e = AlgElement(grid, m, k)
        e.data[1] = np.eye(m)
        return cls(e)


def osu_validate(x: AlgElement, tol: float = 1e-10) -> OsuElement:
    residuals = {
        "even_part": x.homogeneous_part(0).norm_inf(),
        "self_adjoint": (x - x.star()).norm_inf(),
        "square": (x * x - AlgElement.unit(x.grid, x.m, x.k)).norm_inf(),
    }
    bad = {name: r for name, r in residuals.items() if r > tol}
    if bad:
        raise OsuValidationError(f"not an OSU within {tol:g}: " +
                                 ", ".join(f"{n}={r:.3e}" for n, r in bad.items()),
                                 residuals)
    return OsuElement(x, tol)


def flatten(h: AlgElement, gap_tol: float = 1e-8) -> AlgElement:
    """Spectral flattening sign(h) of a self-adjoint invertible element.

    Pointwise hermitian eigendecomposition; eigenvalues map to +-1.  Both
    checks are relative to the scale |h| = h.norm_inf(), as sign(lambda h) =
    sign(h) for lambda > 0: the self-adjointness residual must stay within
    1e-10 |h|, and GapClosedError reports the offending grid point if the
    spectral gap at zero falls below gap_tol |h|.
    """
    scale = h.norm_inf()
    sa_res = (h - h.star()).norm_inf()
    if sa_res > 1e-10 * scale:
        raise ValueError(f"flatten needs a self-adjoint input (residual {sa_res:.2e} "
                         f"at scale {scale:.2e})")
    gap = gap_tol * scale
    if h.k == 0:
        w, v = np.linalg.eigh(h.data[0])
        _check_gap(w, gap)
        return AlgElement.from_matrix_field(h.grid, _spectral_calculus(v, np.sign(w)))

    def sign_fn(w):
        _check_gap(w, gap)
        return np.sign(w)

    return hermitian_calculus(h, sign_fn)


def _check_gap(w, gap):
    absw = np.abs(w)
    smallest = float(absw.min())
    if smallest < gap or smallest == 0:
        point = np.unravel_index(int(np.argmin(absw.min(axis=-1))), absw.shape[:-1])
        raise GapClosedError(
            f"spectral gap closed: smallest |eigenvalue| {smallest:.3e} "
            f"< {gap:.3e} at grid point {point}", point, smallest)


def make_osu_from_hamiltonian(h: AlgElement, gap_tol: float = 1e-8) -> OsuElement:
    """flatten(h) (x) rho on one appended Clifford generator."""
    return osu_validate(flatten(h, gap_tol).append_generator())


# ---------------------------------------------------------------------------
# loops
# ---------------------------------------------------------------------------

@dataclass
class Segment:
    """One piece of a loop, parametrized by local s in [0,1].

    values/derivs have shape (2^k, nnodes, *grid.sizes, m, m); derivs are
    d/ds at the nodes.  weights integrate over local s.  Consumers read one
    node at a time through `node`; a subclass that builds nodes on demand
    materializes values/derivs on every access.
    """

    t0: float
    t1: float
    nodes: np.ndarray
    weights: np.ndarray
    values: np.ndarray
    derivs: np.ndarray
    grid: TorusGrid
    m: int
    k: int

    def element(self, j: int) -> AlgElement:
        return AlgElement(self.grid, self.m, self.k, self.node(j)[0])

    def node(self, j: int, axes=()) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
        """(value, d/ds, [d_axis value for axis in axes]) at node j."""
        value = self.values[:, j]
        return value, self.derivs[:, j], [spectral_derivative_data(value, self.grid, a, 1)
                                          for a in axes]


@dataclass
class LoopElement:
    """Piecewise-smooth OSU- or unitary-valued closed loop over one period."""

    segments: list[Segment]
    endpoints: list[tuple[AlgElement, AlgElement]] = field(default_factory=list)

    @property
    def grid(self):
        return self.segments[0].grid

    @property
    def m(self):
        return self.segments[0].m

    @property
    def k(self):
        return self.segments[0].k

    def validate_continuity(self, tol: float = 1e-9):
        if not self.endpoints:
            return
        n = len(self.endpoints)
        for i in range(n):
            a = self.endpoints[i][1]
            b = self.endpoints[(i + 1) % n][0]
            res = (a - b).norm_inf()
            if res > tol:
                raise ValueError(f"loop discontinuous at segment {i}: {res:.3e}")

    def sample_osu_residual(self, stride: int = 4) -> float:
        worst = 0.0
        for seg in self.segments:
            for j in range(0, seg.nodes.size, stride):
                x = seg.element(j)
                worst = max(worst, (x * x - AlgElement.unit(x.grid, x.m, x.k)).norm_inf(),
                            (x - x.star()).norm_inf(), x.homogeneous_part(0).norm_inf())
        return worst


def gauss_segment(f, dfds, t0: float, t1: float, order: int,
                  grid, m, k) -> Segment:
    """Build a segment from callables s -> AlgElement on Gauss-Legendre nodes."""
    nodes, weights = _gauss_rule(order)
    first = f(nodes[0])
    values = np.zeros((1 << k, nodes.size, *grid.sizes, m, m), dtype=complex)
    derivs = np.zeros_like(values)
    for j, s in enumerate(nodes):
        values[:, j] = (first if j == 0 else f(s)).data
        derivs[:, j] = dfds(s).data
    return Segment(t0, t1, nodes, weights, values, derivs, grid, m, k)


def _gauss_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1]."""
    xg, wg = np.polynomial.legendre.leggauss(order)
    return 0.5 * (xg + 1.0), 0.5 * wg


def uniform_periodic_segment(values: np.ndarray, grid, m, k) -> Segment:
    """Single smooth 1-periodic segment sampled at j/M; spectral s-derivative."""
    nnodes = values.shape[1]
    nodes = np.arange(nnodes) / nnodes
    weights = np.full(nnodes, 1.0 / nnodes)
    fhat = np.fft.fft(values, axis=1)
    modes = np.fft.fftfreq(nnodes, d=1.0 / nnodes)
    modes[nnodes // 2] = 0.0
    shape = [1] * values.ndim
    shape[1] = nnodes
    derivs = np.fft.ifft(fhat * (2j * np.pi * modes).reshape(shape), axis=1)
    return Segment(0.0, 1.0, nodes, weights, values, derivs, grid, m, k)


def uniform_closed_segment(values: np.ndarray, t0: float, t1: float,
                           grid, m, k, derivs: np.ndarray | None = None) -> Segment:
    """Segment on closed nodes j/(M-1), Simpson weights, 4th-order FD derivative."""
    nnodes = values.shape[1]
    if nnodes < 7 or nnodes % 2 == 0:
        raise ValueError("closed segments need an odd node count >= 7")
    nodes = np.linspace(0.0, 1.0, nnodes)
    h = 1.0 / (nnodes - 1)
    weights = np.full(nnodes, 2 * h / 3)
    weights[1::2] = 4 * h / 3
    weights[0] = weights[-1] = h / 3
    if derivs is None:
        derivs = _fd_derivative(values, h)
    return Segment(t0, t1, nodes, weights, values, derivs, grid, m, k)


def _fd_derivative(values: np.ndarray, h: float) -> np.ndarray:
    """4th-order finite differences along axis 1, one-sided at the edges."""
    v = np.moveaxis(values, 1, 0)
    d = np.zeros_like(v)
    d[2:-2] = (v[:-4] - 8 * v[1:-3] + 8 * v[3:-1] - v[4:]) / (12 * h)
    fwd = np.array([-25, 48, -36, 16, -3]) / (12 * h)
    for row, idx in ((0, [0, 1, 2, 3, 4]), (1, [1, 2, 3, 4, 5])):
        d[row] = sum(c * v[i] for c, i in zip(fwd, idx))
    for row, idx in ((-1, [-1, -2, -3, -4, -5]), (-2, [-2, -3, -4, -5, -6])):
        d[row] = -sum(c * v[i] for c, i in zip(fwd, idx))
    return np.moveaxis(d, 0, 1)


# ---------------------------------------------------------------------------
# the Bott suspension loop
# ---------------------------------------------------------------------------

def _nu(y: AlgElement, s: float, inverse: bool) -> AlgElement:
    """c_s (x) 1 +- s_s y (x) rho on the appended generator."""
    c, sn = np.cos(np.pi * s / 2), np.sin(np.pi * s / 2)
    out = AlgElement.unit(y.grid, y.m, y.k + 1).scale(c)
    sgn = -1.0 if inverse else 1.0
    return out + y.append_generator().scale(sgn * sn)


def _nu_deriv(y: AlgElement, s: float, inverse: bool) -> AlgElement:
    c, sn = np.cos(np.pi * s / 2), np.sin(np.pi * s / 2)
    out = AlgElement.unit(y.grid, y.m, y.k + 1).scale(-np.pi / 2 * sn)
    sgn = -1.0 if inverse else 1.0
    return out + y.append_generator().scale(sgn * np.pi / 2 * c)


def bott_loop(x: OsuElement, e: BasePoint, order: int = 64) -> LoopElement:
    """Suspension-image loop of an OSU class, one appended Clifford generator.

    The loop closes at (1 (x) rho) but is only piecewise smooth on the
    circle, so it is built as a single quadrature segment with analytic
    derivatives.
    """
    xb, eb = x.body, e.e
    xb._check(eb)
    rho = AlgElement.unit(xb.grid, xb.m, xb.k).append_generator()

    def factors(s):
        return [_nu(xb, s, False), _nu(eb, s, True), rho, _nu(eb, s, False),
                _nu(xb, s, True)]

    def dfactors(s):
        zero = AlgElement(xb.grid, xb.m, xb.k + 1)
        return [_nu_deriv(xb, s, False), _nu_deriv(eb, s, True), zero,
                _nu_deriv(eb, s, False), _nu_deriv(xb, s, True)]

    def value(s):
        out = None
        for f in factors(s):
            out = f if out is None else out * f
        return out

    def deriv(s):
        fs, dfs = factors(s), dfactors(s)
        total = None
        for i in range(len(fs)):
            term = None
            for j, f in enumerate(fs):
                g = dfs[j] if j == i else f
                term = g if term is None else term * g
            total = term if total is None else total + term
        return total

    seg = gauss_segment(value, deriv, 0.0, 1.0, order, xb.grid, xb.m, xb.k + 1)
    start, end = value(0.0), value(1.0)
    loop = LoopElement([seg], endpoints=[(start, end)])
    res = (start - end).norm_inf()
    if res > 1e-10:
        raise ValueError(f"loop fails to close: {res:.3e}")
    worst = loop.sample_osu_residual()
    if worst > 1e-10:
        raise OsuValidationError(f"loop samples fail the OSU check: {worst:.3e}")
    return loop


def loop_from_unitary_samples(values: np.ndarray, grid, m) -> LoopElement:
    """Smooth 1-periodic unitary loop from samples (nt, *sizes, m, m)."""
    data = values[None, ...].astype(complex)
    seg = uniform_periodic_segment(data, grid, m, 0)
    return LoopElement([seg])


def exp_projection_loop(p: AlgElement, nt: int, sign: float = -1.0) -> LoopElement:
    """s -> exp(sign * 2*pi*i*s*P) for a projection field P (k = 0)."""
    w, v = np.linalg.eigh(p.data[0])
    t = np.arange(nt).reshape((nt,) + (1,) * w.ndim) / nt
    phases = np.exp(sign * 2j * np.pi * t * w[None])
    return loop_from_unitary_samples(_spectral_calculus(v, phases), p.grid, p.m)


# ---------------------------------------------------------------------------
# the four-segment torsion loop
# ---------------------------------------------------------------------------

def _corner(x: AlgElement):
    """A torsion-loop corner with its space derivative per axis, computed on
    first use and shared by the two arcs that meet there."""
    return x, functools.cache(lambda axis: spectral_derivative_data(x.data, x.grid, axis, 1))


class ArcSegment(Segment):
    """Quarter arc s -> cos(pi s/2) a + sin(pi s/2) b between two corners,
    each node built on demand: d/ds = (pi/2)(cos b - sin a) and a space
    derivative is cos da + sin db, so no node is stored or transformed."""

    def __init__(self, t0: float, t1: float, order: int, a, b):
        # Segment's own __init__ would assign the node arrays
        self.t0, self.t1 = t0, t1
        self.nodes, self.weights = _gauss_rule(order)
        (self.a, self.da), (self.b, self.db) = a, b
        self.grid, self.m, self.k = self.a.grid, self.a.m, self.a.k

    def at(self, s: float) -> AlgElement:
        return self.a.scale(np.cos(np.pi * s / 2)) + self.b.scale(np.sin(np.pi * s / 2))

    def node(self, j: int, axes=()) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
        c, sn = np.cos(np.pi * self.nodes[j] / 2), np.sin(np.pi * self.nodes[j] / 2)
        a, b = self.a.data, self.b.data
        return (c * a + sn * b, (np.pi / 2) * (-sn * a + c * b),
                [c * self.da(ax) + sn * self.db(ax) for ax in axes])

    @property
    def values(self) -> np.ndarray:
        return np.stack([self.node(j)[0] for j in range(self.nodes.size)], axis=1)

    @property
    def derivs(self) -> np.ndarray:
        return np.stack([self.node(j)[1] for j in range(self.nodes.size)], axis=1)


def torsion_loop(x: OsuElement, e: BasePoint, y: AlgElement,
                 rs: RealStructureSpec | None = None,
                 derivations=(), order: int = 64) -> LoopElement:
    """Four-segment loop through e(x)1, 1(x)rho, x(x)1, y(x)i*rho.

    y must be even, anti-self-adjoint, unitary, commute with x and e, be
    killed by the cycle derivations and fixed by the model's real structure.
    Consecutive corner elements anticommute exactly, so every sample is an
    OSU; the first half is invariant under rs extended by a fixed generator,
    the second half under rs extended by a negated one.
    """
    tol = 1e-10
    xb, eb = x.body, e.e
    xb._check(eb)
    xb._check(y)
    unit = AlgElement.unit(xb.grid, xb.m, xb.k)
    checks = {
        "y_even": y.homogeneous_part(1).norm_inf(),
        "y_anti_self_adjoint": (y.star() + y).norm_inf(),
        "y_unitary": (y * y.star() - unit).norm_inf(),
        "y_commutes_x": (y * xb - xb * y).norm_inf(),
        "y_commutes_e": (y * eb - eb * y).norm_inf(),
    }
    for dv in derivations:
        checks[f"dy_axis{dv.axis}"] = apply_derivation(dv, y).norm_inf()
        checks[f"de_axis{dv.axis}"] = apply_derivation(dv, eb).norm_inf()
    if rs is not None:
        checks["y_invariant"] = check_invariance(rs, y, tol)[1]
        checks["x_invariant"] = check_invariance(rs, xb, tol)[1]
        checks["e_invariant"] = check_invariance(rs, eb, tol)[1]
    bad = {n: r for n, r in checks.items() if r > tol}
    if bad:
        raise ValueError("torsion loop preconditions violated: " +
                         ", ".join(f"{n}={r:.3e}" for n, r in bad.items()))

    corners = [
        eb.append_generator(on_new=False),
        unit.append_generator(),
        xb.append_generator(on_new=False),
        y.append_generator(coeff=1j),
    ]
    for i in range(4):
        a, b = corners[i], corners[(i + 1) % 4]
        res = (a * b + b * a).norm_inf()
        if res > tol:
            raise ValueError(f"corner elements {i},{i + 1} fail to anticommute: {res:.3e}")

    ends = [_corner(c) for c in corners]
    segments = [ArcSegment(i / 4, (i + 1) / 4, order, ends[i], ends[(i + 1) % 4])
                for i in range(4)]
    endpoints = [(seg.at(0.0), seg.at(1.0)) for seg in segments]
    loop = LoopElement(segments, endpoints=endpoints)
    loop.validate_continuity(tol)
    if rs is not None:
        worst = 0.0
        for half, sign in ((0, 1), (1, -1)):
            ext = rs.extend(sign)
            for seg_i in (2 * half, 2 * half + 1):
                seg = segments[seg_i]
                for j in range(0, seg.nodes.size, 8):
                    worst = max(worst, check_invariance(ext, seg.element(j), tol)[1])
        if worst > tol:
            raise ValueError(f"torsion loop half-symmetry residual {worst:.3e}")
    return loop
