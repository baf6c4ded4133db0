"""Characters of cycles and their pairings with K-class representatives.

A cycle is described by an ordered list of commuting spectral derivations,
each a grid axis, whose length is its dimension n, and the base-2 exponent
norm_log2 of the normalization of its closed graded trace.  The pairing of
an n-dimensional character with an OSU x in M_m(A) (x) Cl_k is

    2^(k/2 + norm_log2) * i^mu(n) * sum_{perm} sgn *
        Tr_A Tr_m [ (x - e) d_{perm(1)}x ... d_{perm(n)}x ]_top

where [.]_top extracts the chirality-element coefficient of the Clifford
factor (with the *-compatible phase of the iterated contraction), and the
antisymmetrized permutation sum realizes (dx)^n over a Grassmann basis.
Every character here, the suspended one on the arcs of the Bott and
torsion loops included, evaluates through the one kernel `_slab_trace`
(`alt_trace` on data blocks).  Only the derivations need a whole axis:
they are formed once, by their live Clifford components
(`grid_alg.spectral_derivative_data`).  The rest is pointwise, and runs slab
by slab over the first grid axis (`grid_alg._slabs`): the antisymmetrized
product `_alt`, the contraction `_top_trace` and its left factor, z = x - e
in `pair` and an arc's moment blocks in `pair_suspended`, formed only at
the components the contraction reads.  So no product is held at every grid
point, each point's value is the one a whole-grid kernel forms, and an
identically zero component is neither formed nor scanned again.  The
Floquet T^3 degree is not a character pairing and takes its integrand from
`floquet._cubic_trace`.
A pairing is the complex number itself, and the class it reads is the
validated `AlgElement` of `kclass.osu_validate`.

The torsion-valued pairing is computed two independent ways: from the
suspended character evaluated on an explicit four-segment loop, and from a
closed form using the spectral projection of the auxiliary symmetry y; both
land in R modulo a caller-supplied lattice modulus.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .clifford import CliffordSignature, mu, sign_table
from .grid_alg import (AlgElement, _accumulate, _adjoint_defect, _check_axis,
                       _combine, _distinct, _minus_unit, _mul_data, _mul_parts,
                       _parts, _slabs, apply_derivation, constant_view, require,
                       spectral_derivative_data)
from .kclass import ArcSegment, BasePoint, LoopElement

@dataclass(frozen=True)
class CycleSpec:
    """Descriptor of a character: its derivations, one grid axis per
    dimension, and its trace normalization.

    norm_log2 is the base-2 exponent of the real positive trace
    normalization; it lets the 2^{k/2} pairing prefactor combine into a
    single power so that integer-valued pairings come out exact.
    """

    derivations: tuple[int, ...]
    norm_log2: float

    @property
    def n(self) -> int:
        return len(self.derivations)

    def scale(self, k: int) -> float:
        """2^{k/2} times the trace normalization."""
        return 2.0 ** (k / 2 + self.norm_log2)


def ch0() -> CycleSpec:
    return CycleSpec((), -1.5)


def ch1() -> CycleSpec:
    """Winding cycle over the unit-period circle of axis 0; trace normalized
    to 1/2."""
    return CycleSpec((0,), -1.0)


def ch2() -> CycleSpec:
    """Chern cycle over the momentum axes 0 and 1."""
    return CycleSpec((0, 1), -3.5)


@dataclass(frozen=True)
class TorsionValue:
    """A residue class in R / modulus*Z (stored by one representative)."""

    value: float
    modulus: float

    @property
    def reduced(self) -> float:
        """The representative in [0, modulus): np.mod rounds a tiny negative
        value up to the modulus itself, which is mapped to 0."""
        r = float(np.mod(self.value, self.modulus))
        return 0.0 if r == self.modulus else r

    def distance(self, other) -> float:
        o = other.value if isinstance(other, TorsionValue) else float(other)
        d = np.mod(self.value - o, self.modulus)
        return float(min(d, self.modulus - d))

    def z2_class(self, scale: float) -> int:
        """scale*value rounded to an integer mod 2 (scale*modulus = 2); it
        must lie within 1e-3 of that integer."""
        v = self.value * scale
        require([("distance", abs(v - round(v)))], 1e-3,
                f"value {v} is not within 0.001 of an integer")
        return int(round(v)) % 2


@dataclass(frozen=True)
class SelectionRule:
    verdict: str            # "may-pair" | "must-vanish"
    value_ray: str | None   # "real" | "imaginary" when may-pair


def selection_rule(n: int, sign: int, parity: int,
                   sig: CliffordSignature | None = None,
                   degree: int | None = None) -> SelectionRule:
    """Vanishing rules and value rays for a cycle of the given sign/parity
    paired against real classes of signature (r,s) or degree i.  The matrix
    factor is trivially graded, so k + n even always vanishes."""
    if degree is not None and sig is None:
        # i = 1 - (r - s); realize with the minimal signature
        rs = 1 - degree
        sig = CliffordSignature(rs, 0) if rs >= 0 else CliffordSignature(0, -rs)
    if sig is None:
        raise ValueError("need a signature or a degree")
    r, s = sig.r, sig.s
    star_exp = (n + (1 - sign) // 2) % 4
    real_exp = (mu(r - s) + n * (r - s) + (1 - parity) // 2) % 4
    vanish = (star_exp - real_exp) % 2 == 1
    if (sig.k + n) % 2 == 0:
        vanish = True
    ray = None if vanish else ("real" if star_exp % 2 == 0 else "imaginary")
    return SelectionRule("must-vanish" if vanish else "may-pair", ray)


def pimsner_constant(n: int) -> complex:
    """Proportionality constant between a suspended pairing and the original."""
    if n < 0:
        raise ValueError("dimension must be non-negative")
    if n % 2 == 0:
        k = n // 2
        return -1j * np.pi * (k + 1) / 2 ** (2 * k + 0.5) * comb(2 * k + 1, k)
    k = (n - 1) // 2
    return -1j * 2 ** (2 * k + 1.5) / comb(2 * k + 1, k)


def mu_prime(i: int) -> int:
    """mu(i) - mu(i-1): 1 for even i, 0 for odd."""
    return mu(i) - mu(i - 1)


# ---------------------------------------------------------------------------
# pairing core
# ---------------------------------------------------------------------------

def alt_trace(z: np.ndarray, diffs: list[np.ndarray], k: int) -> np.ndarray:
    """Per-point Tr_m of the top Clifford component of
    z * sum_sigma sgn(sigma) d_sigma(1) ... d_sigma(n).

    Inputs are component-first data blocks (2^k, *batch, m, m) whose batch
    axes broadcast; the result has their broadcast shape.  It is
    `_slab_trace` of z's components and of each diff's live ones, so the
    products run slab by slab along the first batch axis.
    """
    batch = np.broadcast_shapes(*(b.shape[1:-2] for b in (z, *diffs)))
    z, *diffs = (np.broadcast_to(b, (b.shape[0], *batch, *b.shape[-2:])) for b in (z, *diffs))
    return _slab_trace(lambda slab, masks, g: {s: z[s][slab] for s in masks},
                       [(_parts(d),) for d in diffs], k, batch, z.shape[-1])[0]


def _slab_trace(z, factors: list[tuple[dict, ...]], k: int, batch: tuple, m: int) -> list:
    """The one contraction kernel of every character: per degree g of
    Alt(factors), the polynomial factors `_alt` takes (a plain block is
    (b,)), the per-point Tr_m of the top Clifford component of z_g *
    Alt(factors)_g on the points `batch` of m x m matrices, formed slab by
    slab (`grid_alg._slabs`) so that no product is held at every point.
    Blocks are given by their live components, of shapes that broadcast to
    (*batch, m, m).  z(slab, masks, g) gives the components `masks` of z_g
    at a slab that it holds, and is asked only for those `_top_trace`
    reads, or for the top one with no factor (n = 0).  The first slab
    settles which are read and held, as every slab's products have the
    same components: a dead degree, or a product component against one no
    block holds, is not contracted again.  Returns one trace per degree,
    zero at a dead one, each point's value the one a whole-grid kernel
    forms."""
    top = (1 << k) - 1
    if not factors:
        tr = np.empty(batch, dtype=complex)
        for slab in _slabs(batch, m):
            tr[slab] = np.trace(z(slab, [top], 0)[top], axis1=-2, axis2=-1)
        return [tr]
    traces, reads = None, None
    for slab in _slabs(batch, m):
        right = _alt([tuple({s: _rows(b, slab) for s, b in blocks.items()} for blocks in f)
                      for f in factors], k)
        if reads is None:
            traces = [np.zeros(batch, dtype=complex) for _ in right]
            reads = [[s for s in range(1 << k) if s ^ top in r] for r in right]
        for g, r in enumerate(right):
            zs = z(slab, reads[g], g) if reads[g] else {}
            reads[g] = list(zs)
            r = {t: b for t, b in r.items() if t ^ top in zs}
            if r:
                traces[g][slab] = _top_trace(zs, r, k)
        del right, r, zs  # before the next slab's are formed
    return traces


def _rows(block: np.ndarray, slab) -> np.ndarray:
    """A block's points in a slab of the first grid axis; a block of one
    index along that axis, constant along it, is the same in every slab."""
    return block if block.shape[0] == 1 else block[slab]


def _top_trace(z, right: dict, k: int) -> np.ndarray:
    """Per-point Tr_m of the top Clifford component of z * right, right given
    by its live components, without forming the product.  z is indexed by
    mask: a component-first block, or, for a right that is not empty, a dict
    of the components the trace reads (each s with s ^ top in right), all of
    one shape."""
    top = (1 << k) - 1
    table = sign_table(k)
    reads = [s for s in range(1 << k) if s ^ top in right]
    return sum((table[s, s ^ top] * np.einsum("...ij,...ji->...", z[s], right[s ^ top])
                for s in reads),
               np.zeros(z[reads[0]].shape[:-2] if reads else z.shape[1:-2], dtype=complex))


def _alt(factors: list[tuple[dict, ...]], k: int) -> list[dict]:
    """sum_sigma sgn(sigma) f_sigma(1) ... f_sigma(n) for factors that are
    homogeneous polynomials in two commuting scalars (c, s), each block given
    by its live components {mask: block}: factors[i][g] is the block
    multiplying c^(d_i - g) s^g, and entry g of the result the block
    multiplying c^(d - g) s^g, d = sum d_i.  A plain block b is the tuple (b,).
    The expansion Alt(f_1..f_n) = sum_i (-1)^(i-1) f_i Alt(f_1..^f_i..f_n)
    forms one product per pair of blocks; for n = 1 it is f_1's blocks.
    """
    if len(factors) == 1:
        return list(factors[0])
    out = [{} for _ in range(sum(len(f) - 1 for f in factors) + 1)]
    for i, blocks in enumerate(factors):
        rest = _alt(factors[:i] + factors[i + 1:], k)
        for g, d in enumerate(blocks):
            for h, r in enumerate(rest):
                for mask, block in _mul_parts(d, r, k).items():
                    _accumulate(out[g + h], mask, block, i % 2)
        del rest  # before the next factor's expansion is formed
    return out


def _top_phase(k: int, n: int) -> complex:
    """Phases of the iterated Clifford contraction of the top component,
    for k generators against n derivative factors."""
    omega_parity = (n + 1 + k) % 2
    return (1j) ** (mu(k) % 4) * (1j) ** ((k * omega_parity) % 4)


def _check_basepoint(cycle: CycleSpec, e: AlgElement, tol: float = 1e-10):
    # D kills constants: a grid-constant e (`constant_view`) costs one scan
    # of its distinct points and the axis checks, and forms no derivative.
    # Any other e has the derivatives of e less its value at the grid origin
    if constant_view(e) is not None:
        for axis in cycle.derivations:
            _check_axis(axis, e.grid)
        return
    origin = e.data[(slice(None),) + (slice(0, 1),) * e.grid.d]
    varying = AlgElement(e.grid, e.m, e.k, e.data - origin)
    require(((f"axis{axis}", apply_derivation(axis, varying)) for axis in cycle.derivations),
            tol, "base point not killed by its derivations")


def pair(cycle: CycleSpec, x: AlgElement, e: BasePoint | AlgElement) -> complex:
    """Pair a character with the class of an OSU relative to a base point."""
    n, k = cycle.n, x.k
    eb = e.e if isinstance(e, BasePoint) else e
    x._check(eb)
    _check_basepoint(cycle, eb)
    # the derivatives are formed whole, by their live components; z = x - e
    # is formed slab by slab, at the components the contraction reads
    diffs = [(spectral_derivative_data(x.data, x.grid, axis),) for axis in cycle.derivations]
    tr, = _slab_trace(lambda slab, masks, g: {s: x.data[s][slab] - eb.data[s][slab]
                                              for s in masks},
                      diffs, k, x.grid.sizes, x.m)
    raw = complex(np.mean(tr)) * _top_phase(k, n)
    return complex(cycle.scale(k) * (1j) ** (mu(n) % 4) * raw)


def winding_number(u: AlgElement) -> complex:
    """Integral over one period of Tr((U* - 1) U') for a unitary loop: the
    grid mean times the axis period (2*pi on momentum axes, 1 on time axes).
    Unitarity must hold within 1e-10.

    Divided by 2*pi*i this is the winding number of det U.
    """
    if u.k != 0 or u.grid.d != 1:
        raise ValueError("expects a plain matrix loop over one circle")
    require([("unitary", _minus_unit(u * u.star()))], 1e-10, "input not unitary")
    du = apply_derivation(0, u)
    tr = alt_trace(_minus_unit(u.star()).data, [du.data], 0)
    return complex(np.mean(tr)) * u.grid.period(0)


def _projection_defects(p: AlgElement):
    """(name, defect) of each projection check, formed as it is drawn, each
    in one block of its own at p's `_distinct` points."""
    data = _distinct(p.data)
    square = _mul_data(data, data, p.k)
    yield "idempotent", p._like(np.subtract(square, data, out=square))
    del square
    yield "self_adjoint", _adjoint_defect(p)


def chern_number(p: AlgElement) -> float:
    """Chern number of a projection field over T^2 (grid axes 0 and 1),
    unrounded: how far it lies from an integer is the caller's to judge.

    Convention: 2*pi*i*Tr_A(p [d_1 p, d_2 p]) with the grid-mean trace; for
    the QWZ symbol at mass 1 the upper flattened band (1 + sign h)/2 gives
    +1 (this is minus the plaquette Berry-flux convention).  The projection
    defects and the imaginary part must stay within 1e-8.
    """
    require(_projection_defects(p), 1e-8, "input not a projection field")
    diffs = [(spectral_derivative_data(p.data, p.grid, axis),) for axis in (0, 1)]
    tr, = _slab_trace(lambda slab, masks, g: {s: p.data[s][slab] for s in masks},
                      diffs, p.k, p.grid.sizes, p.m)
    val = 2j * np.pi * np.mean(tr)
    require([("imag", abs(val.imag))], 1e-8, "Chern integrand not real")
    return float(val.real)


def band_chern(s: AlgElement) -> float:
    """Chern number of the positive band (1 + s)/2 of a flattened sign s,
    unrounded: for s = flatten(h1) of a spin block, its spin Chern number.
    (1 + s)/2 is formed at s's `_distinct` points in one block, with the
    bits of (s + 1).scale(0.5)."""
    p = np.add(_distinct(s.data), np.eye(s.m))
    p *= 0.5
    return chern_number(s._like(p))


# ---------------------------------------------------------------------------
# suspended pairing over loops
# ---------------------------------------------------------------------------

def pair_suspended(cycle: CycleSpec, loop: LoopElement) -> complex:
    """Pairing of the suspended (n+1)-dimensional character with a loop class
    whose segments are arcs (`ArcSegment`, as the Bott and torsion loops);
    any other segment raises ValueError.

    The loop contributes one extra Clifford generator and the time
    derivation; each arc is integrated in its local parametrization, in
    closed form (`_arc_integral`; the chain-rule factors cancel because each
    term is linear in the time derivative).  The base point is the loop's
    starting value, subtracted from the class representative; the
    subtraction matters numerically because the loops are only piecewise
    smooth.
    """
    if not all(isinstance(seg, ArcSegment) for seg in loop.segments):
        raise ValueError("pair_suspended integrates loops of arcs (ArcSegment) only")
    base = AlgElement(loop.grid, loop.m, loop.k, loop.segments[0].ends()[0])
    _check_basepoint(cycle, base)
    n, k_loop = cycle.n, loop.k
    total = sum(_arc_integral(seg, base.data, cycle.derivations, k_loop)
                for seg in loop.segments)
    # suspension trace: one half of the standard (n+1)-cycle trace on the
    # base trace.  The *-compatible phase of the top Grassmann contraction
    # is i^mu(n+1); for n = 2 this differs by -1 from the naive product of
    # the base phase with i^n, and only this choice is consistent with the
    # suspension identity <xi^S, beta[x]> = c_n <xi, [x]> at n = 2.
    return complex(cycle.scale(k_loop)
                   * (1j) ** (mu(n + 1) % 4) * 0.5
                   * _top_phase(k_loop, n + 1)
                   * total)


def _arc_integral(seg: ArcSegment, base: np.ndarray, axes, k: int) -> complex:
    """Quadrature sum over one arc of the grid-mean integrand, in closed form.

    With c, s = cos, sin(pi s/2), every factor of the integrand is a
    polynomial of the arc's degree d: the value sum_g c^(d-g) s^g P_g less
    the base point, each space derivative (blocks dP_g) and d/ds (blocks
    (pi/2)((g+1) P_(g+1) - (d-g+1) P_(g-1))).  `_slab_trace` contracts
    their antisymmetrized product, degree by degree, against the moments
    sum_j w_j c_j^(D-g) s_j^g (value_j - base), which it asks for slab by
    slab at the components it reads, and the degree means are summed: a
    degree whose product has no live component forms no moment, so an arc
    between grid-constant corners, whose space derivatives are zero,
    contracts nothing.  Every block is read by its live Clifford
    components: the arc's `parts`, the cached derivatives of its `space`
    and the base point's, scanned once.
    """
    p, d = seg.parts, len(seg.parts) - 1
    # d/ds blocks at the distinct points, terms outside 0..d dropped; its
    # factor pi/2 is applied to the sum
    dds = ([p[1]]
           + [_combine([g + 1, -(d - g + 1)], [p[g + 1], p[g - 1]], range(1 << k))
              for g in range(1, d)]
           + [{s: -b for s, b in p[d - 1].items()}])
    factors = [tuple(dx(ax) for dx in seg.space) for ax in axes] + [tuple(dds)]
    degree = d * len(factors)
    c, s = np.cos(np.pi * seg.nodes / 2), np.sin(np.pi * seg.nodes / 2)
    powers = seg._powers(seg.nodes)
    moments = [[w @ q for q in powers] + [-w.sum()]
               for w in (seg.weights * c ** (degree - g) * s ** g for g in range(degree + 1))]
    parts = p + [_parts(_distinct(base))]
    batch = np.broadcast_shapes(*(b.shape[:-2] for q in parts + [q for f in factors for q in f]
                                  for b in q.values()))
    traces = _slab_trace(
        lambda slab, masks, g: _combine(moments[g], [{t: _rows(b, slab) for t, b in q.items()}
                                                     for q in parts], masks),
        factors, k, batch, seg.m)
    return (np.pi / 2) * sum(np.mean(tr) for tr in traces)


# ---------------------------------------------------------------------------
# torsion-valued pairings
# ---------------------------------------------------------------------------

def _on_real_ray(value: complex, modulus: float) -> TorsionValue:
    """The class of a pairing value that the selection rules put on the real
    axis; its imaginary part must stay within 1e-6 max(1, |value|)."""
    require([("imag", abs(value.imag))], 1e-6 * max(1.0, abs(value)),
            f"torsion value {value} off the real ray")
    return TorsionValue(float(value.real), modulus)


def torsion_pairing_via_loop(cycle: CycleSpec, loop: LoopElement,
                             modulus: float) -> TorsionValue:
    """c_n^{-1} times the suspended pairing of the loop, reduced mod modulus."""
    raw = pair_suspended(cycle, loop)
    return _on_real_ray(raw / pimsner_constant(cycle.n), modulus)


def torsion_pairing_closed_form(cycle: CycleSpec, x: AlgElement,
                                e: BasePoint | AlgElement, y: AlgElement,
                                modulus: float) -> TorsionValue:
    """Closed form of the torsion pairing when an auxiliary even
    anti-self-adjoint unitary y commutes with the class and base point:

        i^(n - 1 + mu'(r+s+1)) * 2^((r+s)/2) *
            integral Tr [ p_y (x - e) (dx)^n ]_top,   p_y = (1 - i y)/2,

    reduced modulo the caller-supplied lattice modulus.

    y is grid-constant and lives in the matrix factor, so p_y = V V* for an
    isometry V onto its range, taken from the eigenvectors of p_y at the grid
    origin; the derivations commute with a -> V* a V, so the trace is `pair`
    of V*xV against V*eV, at the rank of p_y (m/2 for a spin symmetry, m for
    y = i 1).  Precondition, checked within 1e-8: p_y equals its value at
    the origin on the scalar Clifford component and 0 on the others, and
    that value is a projection.  It rejects a y that varies over the grid or
    has a non-scalar even Clifford part; no caller in the package, its
    tests, its benchmark or the README passes either.  That y commutes with
    x and e stays an unchecked premise, as before.
    """
    eb = e.e if isinstance(e, BasePoint) else e
    x._check(eb)
    x._check(y)
    _check_basepoint(cycle, eb)
    k = x.k
    y0 = y.data[(0,) * (1 + x.grid.d)]
    # p_y less its scalar value at the origin, up to a factor -i, formed at
    # y's distinct points: once for z2's broadcast y
    defect = 0.5 * _distinct(y.data)
    defect[0] -= 0.5 * y0
    require([("constant", y._like(defect))], 1e-8,
            "(1 - i y)/2 is not a grid-constant scalar projection")
    p0 = (np.eye(x.m) - 1j * y0) / 2
    require([("idempotent", np.linalg.norm(p0 @ p0 - p0, 2))], 1e-8,
            "(1 - i y)/2 is not a projection")
    w, vecs = np.linalg.eigh(p0)
    v = vecs[:, w > 0.5]
    raw = pair(cycle, _compress(x, v), _compress(eb, v))
    return _on_real_ray((1j) ** ((cycle.n - 1 + mu_prime(k + 1)) % 4) * raw, modulus)


def _compress(a: AlgElement, v: np.ndarray) -> AlgElement:
    """V* a V at every grid point and Clifford component, for an m x r
    isometry V.  When V is a run of unit columns, as eigh gives for y = i 1
    and the spin-doubling y = diag(-i, i) (x) 1, this is a slice: it reads
    the block without forming two products over every point."""
    m, r = v.shape
    j = int(np.argmax(v.any(axis=1)))  # the first row V touches
    if np.array_equal(v, np.eye(m)[:, j:j + r]):
        data = a.data[..., j:j + r, j:j + r]
    else:
        data = np.conj(v.T) @ a.data @ v
    return AlgElement(a.grid, r, a.k, data)


# preset quotient lattices (the general lattice is not computed here)
MODULUS_KO2_CH0 = 2.0
MODULUS_KANE_MELE_CH2 = 1.0 / np.pi
