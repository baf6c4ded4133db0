import sys

import numpy as np
import pytest

from dkpair import floquet as fl
from dkpair.clifford import CliffordSignature, mu, representation
from dkpair.grid_alg import (AlgElement, RealStructureSpec, TorusGrid, _distinct,
                             _parts, _represent_blocks, _spectral_calculus,
                             _spread, _validate_osi, apply_real_structure,
                             check_invariance, spectral_derivative_data, trace)
from dkpair.kclass import (ArcSegment, BasePoint, LoopElement,
                           _sample_defects, osu_validate)
from dkpair.models import quaternionic_structure, qwz_hoppings, qwz_symbol
from dkpair.pairing import _alt, _top_phase, _top_trace, alt_trace

SY = np.array([[0, -1j], [1j, 0]], dtype=complex)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def point_grid():
    return TorusGrid(())


@pytest.fixture
def grid16():
    return TorusGrid((16, 16))


@pytest.fixture
def tgrid64():
    return TorusGrid((64,), ("time",))


def npoints(grid: TorusGrid) -> int:
    """The number of grid points."""
    return int(np.prod(grid.sizes)) if grid.sizes else 1


def scalar_trace(x: AlgElement) -> complex:
    """Trace of the scalar (empty-subset) Clifford component."""
    return complex(trace(x).data[0].item())


def dense_copy(x: AlgElement) -> AlgElement:
    """x with its own writable copy of the data (a broadcast view copies dense)."""
    return AlgElement(x.grid, x.m, x.k, x.data.copy())


def same_element(a: AlgElement, b: AlgElement) -> bool:
    """a and b of one shape, with equal coefficients: an exact comparison
    that runs no algebra operation."""
    a._check(b)
    return bool(np.array_equal(a.data, b.data))


def constant_element(grid, m, a: AlgElement) -> AlgElement:
    """The grid-constant element 1_m (x) a of a point element a of Cl_k."""
    x = AlgElement(grid, m, a.k)
    for mask, coeff in enumerate(a.data[:, 0, 0]):
        x.data[mask] = coeff * np.eye(m)
    return x


def real_structure_from_signature(sig: CliffordSignature) -> RealStructureSpec:
    """Entrywise conjugation with the signature's generator signs."""
    return RealStructureSpec(clifford_signs=sig.signs)


def sigma_x_base_point(grid, m, k) -> BasePoint:
    """1 (x) rho_1, the sigma_x base point for k = 2 classes."""
    e = AlgElement(grid, m, k)
    e.data[1] = np.eye(m)
    return BasePoint(e)


def shifted_qwz_hoppings(mass, shift):
    """QWZ hoppings with k1 -> k1 - shift; at mass 2 the gap closes at
    (shift, 0) alone."""
    return {off: np.exp(-1j * off[0] * shift) * mat
            for off, mat in qwz_hoppings(mass).items()}


def random_matrix_field(rng, grid, m, modes=2):
    """Band-limited random matrix field: trig polynomial of degree <= modes."""
    shape = (*grid.sizes, m, m)
    out = np.zeros(shape, dtype=complex)
    coords = [grid.coordinates(a) for a in range(grid.d)]
    if grid.d == 0:
        return rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    for _ in range(4):
        ns = rng.integers(-modes, modes + 1, grid.d)
        amp = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        phase = np.ones(grid.sizes, dtype=complex)
        for axis, n in enumerate(ns):
            sh = [1] * grid.d
            sh[axis] = coords[axis].size
            period = coords[axis][1] * coords[axis].size
            phase = phase * np.exp(2j * np.pi * n * coords[axis] / period).reshape(sh)
        out += phase[..., None, None] * amp
    return out


def random_element(rng, grid, m, k, modes=2, parity=None):
    x = AlgElement(grid, m, k)
    for mask in range(1 << k):
        if parity is not None and bin(mask).count("1") % 2 != parity:
            continue
        x.data[mask] = random_matrix_field(rng, grid, m, modes)
    return x


def random_hermitian_field(rng, grid, m, modes=2, shift=0.0):
    f = random_matrix_field(rng, grid, m, modes)
    h = (f + np.conj(np.swapaxes(f, -1, -2))) / 2
    return AlgElement.from_matrix_field(grid, h + shift * np.eye(m))


def ko2_generator(point_grid):
    """Base point, generator and auxiliary symmetry of the order-two class
    carried by quaternion-like 2x2 real-structure data."""
    e = AlgElement(point_grid, 2, 1)
    e.data[1] = -SY
    x = AlgElement(point_grid, 2, 1)
    x.data[1] = SY
    y = AlgElement(point_grid, 2, 1)
    y.data[0] = 1j * SY
    return osu_validate(x, 1e-12), BasePoint(e), y


def spin_y(grid, m):
    """diag(-i, i) (x) 1 on a spin-doubled block of total size m."""
    y = AlgElement(grid, m, 1)
    y.data[0] = np.kron(np.diag([-1j, 1j]), np.eye(m // 2))
    return y


def swap_first_factors(x: AlgElement, j: int) -> AlgElement:
    """P x P^T for the swap P: (b, a, c) -> (a, b, c) of the first two tensor
    factors of C^j (x) C^2 (x) C^(m/2j): a dense copy whose C^2 factor is
    outermost, where the quaternionic fiber sigma_y (x) 1 acts."""
    perm = np.arange(x.m).reshape(j, 2, -1).transpose(1, 0, 2).ravel()
    return AlgElement(x.grid, x.m, x.k, x.data[..., perm, :][..., perm])


def swapped_doubled_class(xx: AlgElement, ee: BasePoint, y: AlgElement):
    """(xx, ee, y) of a doubled spin-doubled class on C^2 (x) C^2 (x) C^2, the
    copy factor first and the spin factor second, with those two swapped
    (`swap_first_factors`): the standard quaternionic structure fixes each
    exactly there, and the unswapped xx off by about 2."""
    rs = quaternionic_structure(k=1)
    assert check_invariance(rs, xx) > 1.0
    out = [swap_first_factors(a, 2) for a in (xx, ee.e, y)]
    assert [check_invariance(rs, a) for a in out] == [0.0] * 3
    return osu_validate(out[0]), BasePoint(out[1]), out[2]


def chern_fhs(p: AlgElement) -> float:
    """Plaquette Berry-flux Chern number of a projection field (independent
    oracle; equals minus the convention of pairing.chern_number)."""
    arr = p.data[0]
    n1, n2 = arr.shape[0], arr.shape[1]
    w, v = np.linalg.eigh(arr)
    rank = int(round(w[0, 0].sum().real))
    frames = v[..., arr.shape[-1] - rank:]
    u1 = np.zeros((n1, n2), complex)
    u2 = np.zeros((n1, n2), complex)
    for i in range(n1):
        for j in range(n2):
            f = frames[i, j]
            u1[i, j] = np.linalg.det(np.conj(f.T) @ frames[(i + 1) % n1, j])
            u2[i, j] = np.linalg.det(np.conj(f.T) @ frames[i, (j + 1) % n2])
    total = 0.0
    for i in range(n1):
        for j in range(n2):
            z = u1[i, j] * u2[(i + 1) % n1, j] / (u1[i, (j + 1) % n2] * u2[i, j])
            total += np.angle(z)
    return total / (2 * np.pi)


def named_residuals(message):
    """{name: formatted residual} from an error message ending in
    'name=residual, ...'."""
    return dict(item.split("=") for item in message.split(": ", 1)[1].split(", "))


def count_calls(monkeypatch, fn):
    """Wrap every binding of fn in the loaded dkpair modules; returns the
    list of first arguments the calls receive."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return fn(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "dkpair" or name.startswith("dkpair."):
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


@pytest.fixture
def qwz_osu(grid16):
    from dkpair.kclass import make_osu_from_hamiltonian
    x = make_osu_from_hamiltonian(qwz_symbol(grid16, 1.0))
    e = BasePoint.standard_rho(grid16, 2, 1, sign=-1)
    return x, e


def sample_osu_residual(loop: LoopElement, stride: int) -> float:
    """The largest OSU defect at every stride-th node of each arc of a loop."""
    worst = 0.0
    for _, defect in _sample_defects(loop.segments, stride):
        worst = max(worst, defect.norm_inf())
        del defect  # before the next one is formed
    return worst


class StoredSegment:
    """The reference storage that tests compare against: values and d/ds
    (2^k, nnodes, *grid.sizes, m, m) held at the nodes of a rule with its
    weights, and the blocks at s = 0 and s = 1, by default the first and last
    node (a rule need not reach either end)."""

    def __init__(self, t0, t1, nodes, weights, values, derivs, grid, m, k, ends=None):
        self.t0, self.t1, self.nodes, self.weights = t0, t1, nodes, weights
        self.values, self.derivs = values, derivs
        self.end_blocks = (values[:, 0], values[:, -1]) if ends is None else ends
        self.grid, self.m, self.k = grid, m, k

    def quadrature(self, axes):
        for j, weight in enumerate(self.weights):
            value = self.values[:, j]
            yield (weight, value, self.derivs[:, j],
                   [spectral_derivative_data(value, self.grid, a) for a in axes])

    def ends(self):
        return self.end_blocks


def uniform_periodic_segment(values: np.ndarray, grid, m, k) -> StoredSegment:
    """Single smooth 1-periodic segment sampled at j/M, spectral s-derivative:
    s = 1 is node 0 again, so both its ends are its first node."""
    nnodes = values.shape[1]
    nodes = np.arange(nnodes) / nnodes
    weights = np.full(nnodes, 1.0 / nnodes)
    fhat = np.fft.fft(values, axis=1)
    modes = np.fft.fftfreq(nnodes, d=1.0 / nnodes)
    modes[nnodes // 2] = 0.0
    shape = [1] * values.ndim
    shape[1] = nnodes
    derivs = np.fft.ifft(fhat * (2j * np.pi * modes).reshape(shape), axis=1)
    return StoredSegment(0.0, 1.0, nodes, weights, values, derivs, grid, m, k,
                         (values[:, 0], values[:, 0]))


def loop_from_unitary_samples(values: np.ndarray, grid, m) -> LoopElement:
    """Smooth 1-periodic unitary loop from samples (nt, *sizes, m, m)."""
    data = values[None, ...].astype(complex)
    seg = uniform_periodic_segment(data, grid, m, 0)
    return LoopElement([seg], 1e-9)


def exp_projection_loop(p: AlgElement, nt: int, sign: float = -1.0) -> LoopElement:
    """s -> exp(sign * 2*pi*i*s*P) for a projection field P (k = 0)."""
    w, v = np.linalg.eigh(p.data[0])
    t = np.arange(nt).reshape((nt,) + (1,) * w.ndim) / nt
    phases = np.exp(sign * 2j * np.pi * t * w[None])
    return loop_from_unitary_samples(_spectral_calculus(v, phases), p.grid, p.m)


def dense_combine(weights, blocks) -> np.ndarray:
    """sum_g weights[g] blocks[g] over every Clifford component of blocks of
    one shape, accumulated in place at their `_distinct` points and `_spread`
    over the grid: the dense form of `kclass._combine`, which sums live
    components only."""
    parts = [_distinct(b) for b in blocks]
    out = np.zeros(np.broadcast_shapes(*(q.shape for q in parts)), dtype=complex)
    for w, q in zip(weights, parts):
        out += w * q
    return _spread(out, blocks[0].shape)


def arc_nodes(seg: ArcSegment, axes):
    """(weight, value, d/ds, [d_axis value for axis in axes]) at each node of
    an arc's Gauss rule, one node at a time, each built from scalar weights
    on the arc's blocks P_g (for d/ds, (pi/2)(g cos^(d-g+1) sin^(g-1) -
    (d-g) cos^(d-g-1) sin^(g+1))) and on their cached space derivatives,
    each made a dense block, by `dense_combine`."""
    for s, weight in zip(seg.nodes, seg.weights):
        w = seg._powers(s)
        d, pad = len(w) - 1, [0.0, *w, 0.0]
        # the d/ds weight of P_g is (pi/2)(g w[g-1] - (d-g) w[g+1])
        dw = [g * pad[g] - (d - g) * pad[g + 2] for g in range(d + 1)]
        yield (weight, dense_combine(w, seg.blocks), (np.pi / 2) * dense_combine(dw, seg.blocks),
               [dense_combine(w, [seg._element(dx(ax)).data for dx in seg.space])
                for ax in axes])


def pair_suspended_by_nodes(cycle, loop: LoopElement) -> complex:
    """The oracle of `pairing.pair_suspended`: the suspended character
    integrated one node of each segment's `quadrature` at a time, such as a
    materialized arc's, the value less the loop's starting value at each
    node."""
    base, n, k = loop.segments[0].ends()[0], cycle.n, loop.k
    total = 0.0 + 0.0j
    for seg in loop.segments:
        for weight, value, dvalue, space in seg.quadrature(cycle.derivations):
            total += weight * np.mean(alt_trace(value - base, space + [dvalue], k))
    return complex(cycle.scale(k) * (1j) ** (mu(n + 1) % 4) * 0.5
                   * _top_phase(k, n + 1) * total)


def pair_suspended_dense(cycle, loop: LoopElement) -> complex:
    """The exact oracle of `pairing.pair_suspended` on a loop of arcs: the
    same closed-form sums over every Clifford component, term for term.
    Each arc's d/ds blocks and space derivatives are dense 2^k blocks, the
    derivatives transformed afresh from its blocks, and each live degree's
    moment block is formed over every component by `dense_combine`.  A
    component that is identically zero adds exact zeros, so the value is
    bit for bit the arc route's."""
    base, n, k = loop.segments[0].ends()[0], cycle.n, loop.k
    total = sum(dense_arc_integral(seg, base, cycle.derivations, k) for seg in loop.segments)
    return complex(cycle.scale(k) * (1j) ** (mu(n + 1) % 4) * 0.5
                   * _top_phase(k, n + 1) * total)


def dense_arc_integral(seg: ArcSegment, base: np.ndarray, axes, k: int) -> complex:
    """`pairing._arc_integral` over dense blocks (see `pair_suspended_dense`)."""
    p, d = [_distinct(b) for b in seg.blocks], len(seg.blocks) - 1
    dds = ([p[1]] + [(g + 1) * p[g + 1] - (d - g + 1) * p[g - 1] for g in range(1, d)]
           + [-p[d - 1]])
    factors = ([tuple(_parts(spectral_derivative_data(b, seg.grid, ax)) for b in seg.blocks)
                for ax in axes] + [tuple(_parts(b) for b in dds)])
    degree = d * len(factors)
    c, s = np.cos(np.pi * seg.nodes / 2), np.sin(np.pi * seg.nodes / 2)
    powers = seg._powers(seg.nodes)
    total = 0.0 + 0.0j
    for g, right in enumerate(_alt(factors, k)):
        if not right:
            continue
        w = seg.weights * c ** (degree - g) * s ** g
        z = dense_combine([w @ q for q in powers] + [-w.sum()], seg.blocks + [base])
        total += np.mean(_top_trace(z, right, k))
    return (np.pi / 2) * total


def represent(x: AlgElement) -> np.ndarray:
    """Pointwise matrix image of shape (*sizes, m*2^q, m*2^q), a *-homomorphism."""
    return _represent_blocks(x.data, x.k, list(_parts(x.data)))


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


def hermitian_calculus(x: AlgElement, fn) -> AlgElement:
    """Apply a scalar function to a self-adjoint element, pointwise.

    fn maps an eigenvalue array to an array of the same shape.
    """
    w, v = np.linalg.eigh(represent(x))
    return unrepresent(_spectral_calculus(v, fn(w)), x.grid, x.m, x.k)


def unitary_exp(a: AlgElement) -> AlgElement:
    """exp(i*a) for self-adjoint a."""
    return hermitian_calculus(a, lambda w: np.exp(1j * w))


def _join_cl2(parts, grid, m, kh) -> AlgElement:
    x = AlgElement(grid, m, kh + 2)
    dim = 1 << kh
    for low in range(dim):
        x.data[low] += parts[0].data[low]
        x.data[low | dim] += parts[1].data[low]
        x.data[low | (2 * dim)] += parts[2].data[low]
        x.data[low | (3 * dim)] += -1j * parts[3].data[low]
    return x


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


def tri_symmetry_residual(drive, branch, rs: RealStructureSpec) -> float:
    """Residual of Ad_{sigma_y x 1} V(t,k) = conj(V(-t,-k)) on 16 probe times."""
    frames = fl._eigenframes(drive, branch, fl.DEFAULT_T_SAMPLES)

    def v_of(t):
        f = next(f for f in reversed(frames) if f.start <= t)
        return AlgElement.from_matrix_field(drive.grid, f.outer(f.middle(t - f.start)))

    worst = 0.0
    for t in np.linspace(0.0, drive.period, 16, endpoint=False):
        v_t = v_of(float(t))
        v_mt = v_of(float(np.mod(-t, drive.period)))
        worst = max(worst, (apply_real_structure(rs, v_mt) - v_t).norm_inf())
    return worst


def evolve_at(drive, t: float) -> AlgElement:
    """U(t) of a drive at any t >= 0, extended by U(t + T) = U(T) U(t): the
    product of its segment exponentials up to t (`floquet.evolve` is U(T))."""
    if t < 0:
        raise ValueError("negative times not supported")
    n_full = int(t // drive.period)
    span = t - n_full * drive.period
    u = np.broadcast_to(np.eye(drive.m, dtype=complex),
                        (*drive.grid.sizes, drive.m, drive.m)).copy()
    for tau, (w, v) in zip(drive.durations, drive._eigh):
        if span <= 0:
            break
        u = np.matmul(_spectral_calculus(v, np.exp(-1j * min(tau, span) * w)), u)
        span -= tau
    for _ in range(n_full):
        u = np.matmul(fl.evolve(drive).data[0], u)
    return AlgElement.from_matrix_field(drive.grid, u)


def commutes_with_spin(x: AlgElement) -> bool:
    """True when the field is block diagonal for y = diag(-i, i) (x) 1."""
    m2 = x.m // 2
    off = max(float(np.max(np.abs(x.data[0][..., :m2, m2:]))),
              float(np.max(np.abs(x.data[0][..., m2:, :m2]))))
    return off <= 1e-10


def split_blocks(x: AlgElement) -> tuple[AlgElement, AlgElement]:
    """The diagonal spin blocks of a field commuting with diag(-i, i) (x) 1."""
    m2 = x.m // 2
    up = AlgElement.from_matrix_field(x.grid, x.data[0][..., :m2, :m2].copy())
    dn = AlgElement.from_matrix_field(x.grid, x.data[0][..., m2:, m2:].copy())
    return up, dn
