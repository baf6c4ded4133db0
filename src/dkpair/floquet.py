"""Periodically driven lattice models: stroboscopic evolution, branch-cut
effective Hamiltonians, arc spectral projections, periodized evolutions,
the degree over T^3, and the resulting Z2 invariant.

Drives are piecewise constant in time, so the evolution is a product of
exact segment exponentials; all unitary eigendecompositions go through a
Schur factorization (exactly diagonal for normal matrices) with an explicit
residual contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np
import scipy.linalg

from .grid_alg import (AlgElement, RealStructureSpec, _spectral_calculus,
                       apply_real_structure, spectral_derivative_data)
from .kclass import (GapClosedError, LoopElement, Segment,
                     uniform_closed_segment)
from .pairing import TorsionValue, alt_trace, chern_number, integer_check

DEFAULT_T_SAMPLES = 256
# smallest distance of an eigenphase of U(T) to a branch cut or arc endpoint
_PHASE_GAP = 1e-9


@dataclass(frozen=True)
class FloquetDrive:
    """Piecewise-constant time-periodic Hamiltonian over one period.  U(T) is
    factorized once and cached, so segments must not be mutated after
    construction; hermiticity is checked relative to each segment's scale."""

    period: float
    segments: tuple[tuple[float, AlgElement], ...]

    def __post_init__(self):
        if self.period <= 0:
            raise ValueError("period must be positive")
        total = sum(tau for tau, _ in self.segments)
        if abs(total - self.period) > 1e-12 * max(1.0, self.period):
            raise ValueError(f"segment durations sum to {total}, period is {self.period}")
        for tau, h in self.segments:
            if tau <= 0:
                raise ValueError("segment durations must be positive")
            if h.k != 0:
                raise ValueError("drive Hamiltonians are plain matrix fields")
            res = (h - h.star()).norm_inf()
            if res > 1e-12 * h.norm_inf():
                raise ValueError(f"drive segment not hermitian (residual {res:.3e})")

    @property
    def grid(self):
        return self.segments[0][1].grid

    @property
    def m(self):
        return self.segments[0][1].m

    @cached_property
    def _spectrum(self):
        """(phases, vectors) of U(T), shared by every function of the drive."""
        return unitary_eig(evolve(self, self.period))


def check_time_reversal(drive: FloquetDrive, rs: RealStructureSpec) -> float:
    """Residual of the segment-mirroring property R(H(t)) = H(-t):
    durations palindromic and R(H_j) equal to the reversed segment."""
    taus = [tau for tau, _ in drive.segments]
    if any(abs(a - b) > 1e-12 for a, b in zip(taus, taus[::-1])):
        raise ValueError("drive durations are not palindromic")
    worst = 0.0
    hs = [h for _, h in drive.segments]
    for h, h_rev in zip(hs, hs[::-1]):
        worst = max(worst, (apply_real_structure(rs, h) - h_rev).norm_inf())
    return worst


def _segment_product(drive: FloquetDrive, span: float = np.inf) -> np.ndarray:
    """Product of the segment exponentials over [0, min(span, T))."""
    u = np.broadcast_to(np.eye(drive.m, dtype=complex),
                        (*drive.grid.sizes, drive.m, drive.m)).copy()
    for tau, h in drive.segments:
        if span <= 0:
            break
        step = min(tau, span)
        w, v = np.linalg.eigh(h.data[0])
        u = np.matmul(_spectral_calculus(v, np.exp(-1j * step * w)), u)
        span -= step
    return u


def evolve(drive: FloquetDrive, t: float) -> AlgElement:
    """Time evolution U(t) of the drive, extended by U(t + T) = U(T) U(t)."""
    if t < 0:
        raise ValueError("negative times not supported")
    n_full = int(t // drive.period)
    u = _segment_product(drive, t - n_full * drive.period)
    if n_full:
        u_period = _segment_product(drive)
        for _ in range(n_full):
            u = np.matmul(u_period, u)
    out = AlgElement.from_matrix_field(drive.grid, u)
    res = (out * out.star() - AlgElement.unit(out.grid, out.m, 0)).norm_inf()
    if res > 1e-11:
        raise ValueError(f"evolution lost unitarity (residual {res:.3e})")
    return out


def unitary_eig(u: AlgElement):
    """Pointwise eigendecomposition of a unitary field via complex Schur.

    Returns (phases, vectors) with phases in (-pi, pi] and orthonormal
    vectors; the eigenvector residual must stay within 1e-10.
    """
    arr = u.data[0]
    flat = arr.reshape(-1, u.m, u.m)
    phases = np.empty((flat.shape[0], u.m))
    vecs = np.empty_like(flat)
    worst = 0.0
    for i, mat in enumerate(flat):
        t, q = scipy.linalg.schur(mat, output="complex")
        lam = np.diag(t)
        phases[i] = np.angle(lam)
        vecs[i] = q
        worst = max(worst, float(np.max(np.abs(mat @ q - q * lam[None, :]))))
    if worst > 1e-10:
        raise ValueError(f"unitary eigensolve residual {worst:.3e} exceeds 1e-10")
    shape = (*u.grid.sizes, u.m)
    return phases.reshape(shape), vecs.reshape(*u.grid.sizes, u.m, u.m)


@dataclass(frozen=True)
class BranchChoice:
    """Branch of the logarithm with eigenphases placed in [eps*T, eps*T + 2pi),
    none of them closer than gap_tol to the cut."""

    eps: float
    gap_tol: ClassVar[float] = _PHASE_GAP


@dataclass(frozen=True)
class ArcProjection:
    projection: AlgElement
    z0: complex
    z1: complex
    rank: int
    gap_margin: float


def _branch_phases(phases: np.ndarray, cut: float, gap_tol: float) -> np.ndarray:
    shifted = np.mod(phases - cut, 2 * np.pi)
    margin = float(min(shifted.min(), (2 * np.pi - shifted).min()))
    if margin < gap_tol:
        raise GapClosedError(f"eigenphase within {margin:.3e} of the branch cut",
                             smallest=margin)
    return cut + shifted


def _effective_spectrum(drive: FloquetDrive, branch: BranchChoice):
    """Eigenvalues and orthonormal eigenvectors of the effective Hamiltonian."""
    phases, vecs = drive._spectrum
    phi = _branch_phases(phases, branch.eps * drive.period, branch.gap_tol)
    return -phi / drive.period, vecs


def effective_hamiltonian(drive: FloquetDrive, branch: BranchChoice) -> AlgElement:
    """(i/T) log_eps U(T): hermitian, with exp(-i T H) = U(T)."""
    w, v = _effective_spectrum(drive, branch)
    out = AlgElement.from_matrix_field(drive.grid, _spectral_calculus(v, w))
    res = (out - out.star()).norm_inf()
    if res > 1e-10 * out.norm_inf():
        raise ValueError(f"effective Hamiltonian not hermitian (residual {res:.3e})")
    return out


def branch_pair(z0: complex, z1: complex, period: float) -> tuple[BranchChoice, BranchChoice]:
    """Branches eps_i with e^{i eps_i T} = z_i and 0 <= (eps_1 - eps_0) T < 2 pi."""
    th0 = float(np.angle(z0))
    th1 = float(np.angle(z1))
    if np.mod(th1 - th0, 2 * np.pi) == 0 and z0 != z1:
        raise ValueError("arc endpoints coincide in phase")
    th1 = th0 + np.mod(th1 - th0, 2 * np.pi)
    return BranchChoice(th0 / period), BranchChoice(th1 / period)


def arc_projection(drive: FloquetDrive, z0: complex, z1: complex) -> ArcProjection:
    """Spectral projection of U(T) onto the arc counter-clockwise from z0 to z1."""
    phases, vecs = drive._spectrum
    th0, th1 = float(np.angle(z0)), float(np.angle(z1))
    width = np.mod(th1 - th0, 2 * np.pi)
    rel = np.mod(phases - th0, 2 * np.pi)
    margin = float(min(rel.min(), (2 * np.pi - rel).min(),
                       np.abs(rel - width).min()))
    if margin < _PHASE_GAP:
        raise GapClosedError(f"eigenphase within {margin:.3e} of an arc endpoint",
                             smallest=margin)
    inside = rel < width
    ranks = inside.sum(axis=-1)
    if ranks.min() != ranks.max():
        raise GapClosedError("arc projection rank jumps across the grid")
    proj = AlgElement.from_matrix_field(
        drive.grid, _spectral_calculus(vecs, inside.astype(float)))
    return ArcProjection(proj, z0, z1, int(ranks.min()), margin)


# ---------------------------------------------------------------------------
# periodized evolution and the T^3 degree
# ---------------------------------------------------------------------------

def _segments_split_at_half(drive: FloquetDrive):
    """Drive segments with any piece straddling T/2 cut there, so loop
    segment boundaries always include the half period."""
    half = drive.period / 2
    out = []
    t = 0.0
    for tau, h in drive.segments:
        if t < half - 1e-12 and t + tau > half + 1e-12:
            out.append((half - t, h))
            out.append((tau - (half - t), h))
        else:
            out.append((tau, h))
        t += tau
    return out


@dataclass(frozen=True)
class _Frame:
    """One loop segment of a periodized evolution in the eigenframes of its
    drive segment (h = v diag(w) v^H) and of H_eff (eigenvectors v_eff):
    a = v^H U(t0) v_eff."""

    t0: float
    tau: float
    w: np.ndarray
    v: np.ndarray
    a: np.ndarray

    def middle(self, w_eff: np.ndarray, dt: float) -> np.ndarray:
        """M with V(t) = v M v_eff^H at t = t0 + dt:
        M_ij = e^{-i dt w_i} a_ij e^{i t w_eff_j}."""
        return (np.exp(-1j * dt * self.w)[..., :, None] * self.a
                * np.exp(1j * (self.t0 + dt) * w_eff)[..., None, :])


def _eigenframes(drive: FloquetDrive, v_eff: np.ndarray):
    """Frames of V(t) = U(t) exp(i t H_eff), one per drive segment cut at
    the half period, generated in time order."""
    t0 = 0.0
    b = v_eff  # U(t0) v_eff
    for tau, h in _segments_split_at_half(drive):
        w, v = np.linalg.eigh(h.data[0])
        a = np.matmul(np.conj(np.swapaxes(v, -1, -2)), b)
        yield _Frame(t0, tau, w, v, a)
        b = np.matmul(v, np.exp(-1j * tau * w)[..., :, None] * a)
        t0 += tau


def periodized_evolution(drive: FloquetDrive, branch: BranchChoice,
                         t_samples: int = DEFAULT_T_SAMPLES) -> LoopElement:
    """V(t) = U(t) exp(i t H_eff): 1-periodic in t/T, one loop segment per
    drive segment with analytic local derivatives (segments are additionally
    cut at the half period so contractions can take over there).

    Each node is v M v_eff^H (see `_Frame.middle`); since H_eff commutes with
    exp(i t H_eff), the exact derivative is v (i tau (w_eff_j - w_i) M_ij) v_eff^H.
    Nodes are written one at a time into the segment arrays."""
    w_eff, v_eff = _effective_spectrum(drive, branch)
    v_eff_h = np.conj(np.swapaxes(v_eff, -1, -2))
    grid, m = drive.grid, drive.m
    segments = []
    vm = np.empty((*grid.sizes, m, m), dtype=complex)  # v M
    for f in _eigenframes(drive, v_eff):
        nn = max(9, int(round(t_samples * f.tau / drive.period)) | 1)
        values = np.empty((1, nn, *grid.sizes, m, m), dtype=complex)
        derivs = np.empty_like(values)
        rate = 1j * f.tau * (w_eff[..., None, :] - f.w[..., :, None])
        for j, s in enumerate(np.linspace(0.0, 1.0, nn)):
            mid = f.middle(w_eff, s * f.tau)
            np.matmul(np.matmul(f.v, mid, out=vm), v_eff_h, out=values[0, j])
            mid *= rate
            np.matmul(np.matmul(f.v, mid, out=vm), v_eff_h, out=derivs[0, j])
        segments.append(uniform_closed_segment(
            values, f.t0 / drive.period, (f.t0 + f.tau) / drive.period,
            grid, m, 0, derivs=derivs))
    return _closed_loop(segments, 1e-9)


def periodicity_residual(loop: LoopElement) -> float:
    first = loop.endpoints[0][0]
    last = loop.endpoints[-1][1]
    return (first - last).norm_inf()


def tri_symmetry_residual(drive: FloquetDrive, branch: BranchChoice,
                          rs: RealStructureSpec) -> float:
    """Residual of Ad_{sigma_y x 1} V(t,k) = conj(V(-t,-k)) on 16 probe times."""
    w_eff, v_eff = _effective_spectrum(drive, branch)
    v_eff_h = np.conj(np.swapaxes(v_eff, -1, -2))
    frames = list(_eigenframes(drive, v_eff))

    def v_of(t):
        f = next(f for f in reversed(frames) if f.t0 <= t)
        vt = np.matmul(np.matmul(f.v, f.middle(w_eff, t - f.t0)), v_eff_h)
        return AlgElement.from_matrix_field(drive.grid, vt)

    worst = 0.0
    for t in np.linspace(0.0, drive.period, 16, endpoint=False):
        v_t = v_of(float(t))
        v_mt = v_of(float(np.mod(-t, drive.period)))
        worst = max(worst, (apply_real_structure(rs, v_mt) - v_t).norm_inf())
    return worst


def degree_t3(loop: LoopElement, integer_tol: float = 1e-3) -> float:
    """Degree (1/24 pi^2) * integral over T^3 of Tr (V* dV)^3 for a unitary
    loop over a two-dimensional momentum grid.  The loop must be unitary
    within 1e-9 and the degree an integer within integer_tol."""
    grid = loop.grid
    if grid.d != 2 or loop.k != 0:
        raise ValueError("degree needs a plain unitary loop over T^2")
    total = 0.0 + 0.0j
    for seg in loop.segments:
        v = seg.values
        vh = np.conj(np.swapaxes(v, -1, -2))
        ures = np.max(np.abs(np.matmul(v, vh) - np.eye(loop.m)))
        if ures > 1e-9:
            raise ValueError(f"loop not unitary (residual {ures:.3e})")
        a0 = np.matmul(vh, seg.derivs)
        a1, a2 = (np.matmul(vh, spectral_derivative_data(v, grid, axis, 2))
                  for axis in range(2))
        # cyclicity of the full matrix trace (valid at k = 0 only) folds the
        # six signed triple products into three times Tr a0 [a1, a2]
        per_node = 3 * np.mean(alt_trace(a0, [a1, a2], 0), axis=(1, 2))
        total += np.sum(seg.weights * per_node)
    deg = complex(total) / 6.0
    if abs(deg.imag) > integer_tol:
        raise ValueError(f"degree has imaginary part {deg.imag:.3e}")
    integer_check(deg.real, integer_tol)
    return float(deg.real)


# ---------------------------------------------------------------------------
# the Z2 invariant of an arc projection
# ---------------------------------------------------------------------------

def commutes_with_spin(x: AlgElement) -> bool:
    """True when the field is block diagonal for y = diag(-i, i) (x) 1."""
    m2 = x.m // 2
    off = max(float(np.max(np.abs(x.data[0][..., :m2, m2:]))),
              float(np.max(np.abs(x.data[0][..., m2:, :m2]))))
    return off <= 1e-10


def split_blocks(x: AlgElement) -> tuple[AlgElement, AlgElement]:
    m2 = x.m // 2
    up = AlgElement.from_matrix_field(x.grid, x.data[0][..., :m2, :m2].copy())
    dn = AlgElement.from_matrix_field(x.grid, x.data[0][..., m2:, m2:].copy())
    return up, dn


def _first_half(v_loop: LoopElement) -> list[Segment]:
    """The segments of a periodized evolution up to t = 1/2."""
    half = [seg for seg in v_loop.segments if seg.t1 <= 0.5 + 1e-12]
    if not half or abs(half[-1].t1 - 0.5) > 1e-12:
        raise ValueError("periodized evolution must split exactly at t = 1/2; "
                         "split the drive segments accordingly")
    return half


def _closed_loop(segments: list[Segment], tol: float) -> LoopElement:
    """Periodic loop of plain segments, checked for continuity within tol."""
    grid = segments[0].grid
    endpoints = [(AlgElement.from_matrix_field(grid, s.values[0, 0]),
                  AlgElement.from_matrix_field(grid, s.values[0, -1]))
                 for s in segments]
    loop = LoopElement(segments, endpoints=endpoints)
    loop.validate_continuity(tol)
    return loop


def decoupled_contraction(v_loop: LoopElement) -> LoopElement:
    """Complete the first half of a decoupled periodized evolution to a loop
    V-hat meeting the contraction constraints: on [1/2, 1] the upper spin
    block retraces its first half, v-hat(t) = v(1 - t), and the lower block
    is conj(upper)(t, -k) so that Ad_{sigma_y x 1} V-hat(t,k) = conj(V-hat(t,-k)).
    """
    grid, m = v_loop.grid, v_loop.m
    m2 = m // 2
    half = _first_half(v_loop)
    mirrored = []
    for seg in reversed(half):
        vals = seg.values[:, ::-1].copy()
        ders = -seg.derivs[:, ::-1].copy()
        for arr in (vals, ders):
            up = arr[..., :m2, :m2]
            low = np.conj(up)
            for axis in (2, 3):  # both momentum axes: k -> -k
                low = np.flip(np.roll(low, -1, axis=axis), axis=axis)
            arr[..., m2:, m2:] = low
            arr[..., :m2, m2:] = 0.0
            arr[..., m2:, :m2] = 0.0
        t0 = 1.0 - seg.t1
        t1 = 1.0 - seg.t0
        mirrored.append(Segment(t0, t1, seg.nodes, seg.weights, vals, ders,
                                grid, m, 0))
    return _closed_loop(half + mirrored, 1e-8)


def contraction_loop_from_samples(v_loop: LoopElement, samples: np.ndarray,
                                  rs: RealStructureSpec) -> LoopElement:
    """Assemble V-hat from the first half of a periodized evolution and a
    caller-supplied contraction sampled uniformly on [1/2, 1].

    samples has shape (nt, *grid.sizes, m, m) on closed nodes including both
    endpoints; boundary and symmetry constraints are validated.
    """
    boundary_tol = 1e-8
    grid, m = v_loop.grid, v_loop.m
    half = _first_half(v_loop)
    v_half_end = half[-1].values[0, -1]
    if samples.ndim != 2 + grid.d + 1 or samples.shape[-1] != m:
        raise ValueError("contraction samples have the wrong shape")
    res0 = float(np.max(np.abs(samples[0] - v_half_end)))
    res1 = float(np.max(np.abs(samples[-1] - np.eye(m))))
    if res0 > boundary_tol or res1 > boundary_tol:
        raise ValueError(f"contraction boundary conditions violated: "
                         f"V(1/2) residual {res0:.3e}, V(1) residual {res1:.3e}")
    seg = uniform_closed_segment(samples[None].astype(complex), 0.5, 1.0, grid, m, 0)
    worst = 0.0
    for j in range(0, seg.nodes.size, max(1, seg.nodes.size // 8)):
        el = seg.element(j)
        worst = max(worst, (apply_real_structure(rs, el) - el).norm_inf())
    if worst > boundary_tol:
        raise ValueError(f"contraction symmetry residual {worst:.3e}")
    return _closed_loop(half + [seg], boundary_tol)


def kane_mele_floquet_invariant(drive: FloquetDrive, z0: complex, z1: complex,
                                strategy: str = "decoupled",
                                rs: RealStructureSpec | None = None,
                                contractions: tuple[np.ndarray, np.ndarray] | None = None,
                                t_samples: int = DEFAULT_T_SAMPLES,
                                integer_tol: float = 1e-6) -> tuple[TorsionValue, dict]:
    """Z2 invariant of the arc projection of a time-reversal-invariant drive.

    strategy 'decoupled': the drive must commute with diag(-i, i) (x) 1; the
    invariant is the spin Chern parity of the arc projection's upper block.
    strategy 'user_supplied': contraction grids for both branches complete
    the periodized evolutions and the invariant is the degree difference
    mod 2.
    """
    if rs is not None:
        tri_res = check_time_reversal(drive, rs)
        if tri_res > 1e-9:
            raise ValueError(f"drive is not time-reversal invariant "
                             f"(residual {tri_res:.3e})")
    arc = arc_projection(drive, z0, z1)
    info = {"rank": arc.rank, "gap_margin": arc.gap_margin}

    if strategy == "decoupled":
        for _, h in drive.segments:
            if not commutes_with_spin(h):
                raise ValueError("decoupled strategy needs a drive commuting "
                                 "with diag(-i, i) (x) 1")
        p_up, _ = split_blocks(arc.projection)
        ch = chern_number(p_up, tol=max(1e-8, integer_tol))
        k_val = integer_check(ch, integer_tol) % 2
        info["spin_chern"] = ch
        return TorsionValue(float(k_val), 2.0), info

    if strategy == "user_supplied":
        if rs is None or contractions is None:
            raise ValueError("user_supplied strategy needs a real structure "
                             "and contraction grids")
        v_loops = (periodized_evolution(drive, branch, t_samples)
                   for branch in branch_pair(z0, z1, drive.period))
        k_val, info["degrees"] = degree_difference(v_loops, contractions, rs)
        return k_val, info

    raise ValueError(f"unknown strategy {strategy!r}")


def degree_difference(v_loops, contractions, rs: RealStructureSpec
                      ) -> tuple[TorsionValue, tuple[float, float]]:
    """Z2 invariant from the periodized evolutions of the branches eps_0 and
    eps_1 (in that order; any iterable, consumed one loop at a time), each
    completed by its contraction samples: the difference of the degrees of
    the completed loops mod 2.  Returns (invariant, degrees)."""
    degs = tuple(degree_t3(contraction_loop_from_samples(v_loop, samples, rs))
                 for v_loop, samples in zip(v_loops, contractions))
    k_val = (integer_check(degs[1], 1e-3) - integer_check(degs[0], 1e-3)) % 2
    return TorsionValue(float(k_val), 2.0), degs
