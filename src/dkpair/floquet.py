"""Periodically driven lattice models: stroboscopic evolution, branch-cut
effective Hamiltonians, arc spectral projections, periodized evolutions,
the degree over T^3, and the resulting Z2 invariant.  A branch of the
logarithm of U(T) is a real eps, its eigenphases placed in [eps T,
eps T + 2 pi); the arc from z0 to z1 has the two of `branch_pair`, and
its spectral projection (`ArcProjection`) comes with its rank and margin.

Drives are piecewise constant in time, so the evolution is a product of
exact segment exponentials; all unitary eigendecompositions go through one
batched hermitian eigensolve of a Cayley transform, with an explicit
residual contract.  On each drive segment the periodized evolution is an
entire function of time, held as a `FrameSegment` in the eigenframes of the
segment and of H_eff rather than as node arrays: its ends come from the
frame formula, `degree_t3` integrates it one Gauss-Legendre node at a time
through its `quadrature`, and its uniform nodes are built only when a
caller exports them.  A node evaluates its frame once, V and dV/ds from one
stacked product pair.  The degree's integrand at a node is two batched
products: V* times the stacked [V | dV/ds | d_1 V | d_2 V], which also gives
the unitarity residual, and A_s [A_1 | A_2], whose blocks give the cubic trace.

A spin-doubled drive, diag(h(t), f h(T - t)) with f(x)(k) = conj x(-k), is
time-reversal invariant by construction and read from its block drive's
eigendata (`SpinDoubledDrive`); the decoupled route runs on the block alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid_alg import (AlgElement, _at_minus_k, _minus_unit,
                       _spectral_calculus, apply_real_structure, require,
                       spectral_derivative_data)
from .kclass import (ClosedSegment, GapClosedError, LoopElement, _gauss_rule,
                     _simpson_rule)
from .models import _partner_diag, quaternionic_structure
from .pairing import chern_number

DEFAULT_T_SAMPLES = 256
# smallest distance of an eigenphase of U(T) to a branch cut or arc endpoint
_PHASE_GAP = 1e-9
# bound on the imaginary part of a T^3 degree, and on a branch degree's
# distance to an integer in the floquet report
DEGREE_TOL = 1e-3
# the real structure of every drive: odd time reversal, Ad_{sigma_y x 1}
# conj at -k
_TIME_REVERSAL = quaternionic_structure(k=0)


@dataclass(frozen=True)
class FloquetDrive:
    """Piecewise-constant time-periodic Hamiltonian over one period.  Each
    segment is eigendecomposed at construction and U(T) factorized once, on
    first use; both are cached, so segments must not be mutated after
    construction.  Hermiticity is checked relative to each segment's scale
    |h|, its largest |eigenvalue|."""

    period: float
    segments: tuple[tuple[float, AlgElement], ...]

    def __post_init__(self):
        if not 0 < self.period < float("inf"):
            raise ValueError("period must be positive and finite")
        total = sum(self.durations)
        if not abs(total - self.period) <= 1e-12 * max(1.0, self.period):
            raise ValueError(f"segment durations sum to {total}, period is {self.period}")
        for tau, h in self.segments:
            if tau <= 0:
                raise ValueError("segment durations must be positive")
            if h.k != 0:
                raise ValueError("drive Hamiltonians are plain matrix fields")
        # eigh reads one triangle, so the comparison with h* stays
        for j, ((_, h), (w, _)) in enumerate(zip(self.segments, self._eigh)):
            require([(f"segment{j}", h - h.star())], 1e-12 * float(np.abs(w).max()),
                    "drive segment not hermitian")

    @cached_property
    def grid(self):
        return self.segments[0][1].grid

    @cached_property
    def m(self):
        return self.segments[0][1].m

    @cached_property
    def durations(self) -> tuple[float, ...]:
        return tuple(tau for tau, _ in self.segments)

    @cached_property
    def _eigh(self):
        """(w, v) with h = v diag(w) v^H, one pair per segment."""
        return tuple(np.linalg.eigh(h.data[0]) for _, h in self.segments)

    @cached_property
    def _spectrum(self):
        """(phases, vectors) of U(T), shared by every function of the drive."""
        return unitary_eig(evolve(self))

    def time_reversal_residual(self) -> float:
        """The residual of R(H(t)) = H(-t) (`check_time_reversal`)."""
        return check_time_reversal(self)


def _doubled_eig(upper, lower, grid):
    """(w, v) of diag(x, f y), f(y)(k) = conj y(-k), for normal x and y, from
    the eigendecompositions (w, v) of x and of y*, each eigenvalue held as a
    real number (an energy or a phase): f(y) has the eigenvalues of y* at -k
    and the eigenvectors conj v(-k)."""
    (w, v), (w_low, v_low) = upper, lower
    return (np.concatenate([w, _at_minus_k(w_low, grid, 1)], axis=-1),
            _partner_diag(v, v_low, grid))


class SpinDoubledDrive(FloquetDrive):
    """The time-reversal partner doubling diag(h(t), f h(T - t)),
    f(x)(k) = conj x(-k), of a block drive h (`block`).  Its pieces refine the
    block's segment boundaries b and their mirror images T - b (merged within
    1e-12 T), one per segment when the durations are palindromic.  Under the
    quaternionic R, R(diag(A, f B)) = diag(B, f A): R(H(t)) = H(T - t) exactly.

    It solves nothing at double size and forms no 2m x 2m segment unless
    `segments` is read: f is an antilinear homomorphism, so a piece's lower
    block has its block segment's eigenvalues w(-k) and vectors conj v(-k),
    and U(T)'s lower block is f(U(T)*), with the block's phases phi(-k) and
    vectors conj V(-k).  Every check runs on the block, as f keeps
    hermiticity and |h|."""

    block: FloquetDrive

    def __init__(self, block: FloquetDrive):
        # per piece, block segment j in force at t and i at T - t: the block
        # walked both ways at once; one index past either end reads 0.0
        taus, tol = block.durations + (0.0,), 1e-12 * block.period
        durations, sources, j, i = [], [], 0, len(taus) - 2
        ahead, behind = taus[j], taus[i]
        while j < len(taus) - 1:
            step = ahead if abs(ahead - behind) <= tol else min(ahead, behind)
            durations.append(step)
            sources.append((j, i))
            ahead, behind = ahead - step, behind - step
            if ahead <= tol:
                j, ahead = j + 1, taus[j + 1]
            if behind <= tol:
                i, behind = i - 1, taus[i - 1]
        # the fields and cached properties, past the frozen __setattr__
        vars(self).update(block=block, period=block.period, grid=block.grid, m=2 * block.m,
                          durations=tuple(durations), _sources=tuple(sources))

    @cached_property
    def segments(self):
        """(duration, diag(h_j, f h_i)) per piece, formed on first read."""
        h, grid = [seg.data[0] for _, seg in self.block.segments], self.grid
        return tuple((tau, AlgElement.from_matrix_field(grid, _partner_diag(h[j], h[i], grid)))
                     for tau, (j, i) in zip(self.durations, self._sources))

    @cached_property
    def _eigh(self):
        eigh = self.block._eigh
        return tuple(_doubled_eig(eigh[j], eigh[i], self.grid) for j, i in self._sources)

    @cached_property
    def _spectrum(self):
        return _doubled_eig(self.block._spectrum, self.block._spectrum, self.grid)

    def time_reversal_residual(self) -> float:
        """0.0, by construction."""
        return 0.0


def check_time_reversal(drive: FloquetDrive) -> float:
    """Residual of the segment-mirroring property R(H(t)) = H(-t) under odd
    time reversal R: durations palindromic within 1e-12 max(1, T), R(H_j)
    equal to the reversed segment."""
    taus, hs = drive.durations, [h for _, h in drive.segments]
    if any(abs(a - b) > 1e-12 * max(1.0, drive.period) for a, b in zip(taus, taus[::-1])):
        raise ValueError("drive durations are not palindromic")
    return max((apply_real_structure(_TIME_REVERSAL, h) - h_rev).norm_inf()
               for h, h_rev in zip(hs, hs[::-1]))


def evolve(drive: FloquetDrive) -> AlgElement:
    """U(T), the product of the drive's segment exponentials over one period."""
    u = np.broadcast_to(np.eye(drive.m, dtype=complex),
                        (*drive.grid.sizes, drive.m, drive.m)).copy()
    for tau, (w, v) in zip(drive.durations, drive._eigh):
        u = np.matmul(_spectral_calculus(v, np.exp(-1j * tau * w)), u)
    out = AlgElement.from_matrix_field(drive.grid, u)
    require([("unitary", _minus_unit(out * out.star()))], 1e-11, "evolution lost unitarity")
    return out


def unitary_eig(u: AlgElement):
    """Pointwise eigendecomposition of a unitary field, batched over the grid.

    z = e^{i theta} sits mid-way in each point's widest gap between the 2m candidates
    +-arccos of eigvalsh((U + U*)/2), which hold every eigenphase, so theta is at least
    pi / 2m from each: the Cayley transform K = i (z + U)(z - U)^{-1} is hermitian, well
    conditioned, and maps phi to cot((theta - phi) / 2), strictly monotone.  `eigh` of
    K + K* gives orthonormal V, the phases (in [-pi, pi]) are angle(diag(V* U V)), and
    the eigenvector residual must stay within 1e-10.
    """
    flat = u.data[0].reshape(-1, u.m, u.m)
    cos = np.linalg.eigvalsh((flat + np.conj(np.swapaxes(flat, -1, -2))) / 2)
    half = np.arccos(np.clip(cos, -1.0, 1.0))
    ang = np.sort(np.concatenate([-half, half], axis=-1), axis=-1)
    gaps = np.diff(ang, axis=-1, append=ang[:, :1] + 2 * np.pi)
    theta = (ang + gaps / 2)[np.arange(len(ang)), np.argmax(gaps, axis=-1)]
    z = np.exp(1j * theta)[:, None, None] * np.eye(u.m)
    k = 1j * np.linalg.solve(z - flat, z + flat)
    vecs = np.linalg.eigh(k + np.conj(np.swapaxes(k, -1, -2)))[1]
    uv = np.matmul(flat, vecs)
    lam = np.diagonal(np.conj(np.swapaxes(vecs, -1, -2)) @ uv, axis1=-2, axis2=-1)
    require([("eigenvector", float(np.max(np.abs(uv - vecs * lam[:, None, :]))))], 1e-10,
            "unitary eigensolve residual exceeds 1e-10")
    return np.angle(lam).reshape(u.data[0].shape[:-1]), vecs.reshape(u.data[0].shape)


@dataclass(frozen=True)
class ArcProjection:
    projection: AlgElement
    rank: int
    gap_margin: float


def _branch_phases(phases: np.ndarray, cut: float) -> np.ndarray:
    shifted = np.mod(phases - cut, 2 * np.pi)
    margin = float(min(shifted.min(), (2 * np.pi - shifted).min()))
    if margin < _PHASE_GAP:
        raise GapClosedError(f"eigenphase within {margin:.3e} of the branch cut")
    return cut + shifted


def _effective_spectrum(drive: FloquetDrive, eps: float):
    """Eigenvalues and orthonormal eigenvectors of the effective Hamiltonian
    of the branch eps of the logarithm: eigenphases in [eps T, eps T + 2 pi),
    none of them closer than _PHASE_GAP to the cut."""
    phases, vecs = drive._spectrum
    phi = _branch_phases(phases, eps * drive.period)
    return -phi / drive.period, vecs


def effective_hamiltonian(drive: FloquetDrive, eps: float) -> AlgElement:
    """(i/T) log_eps U(T): hermitian, with exp(-i T H) = U(T)."""
    w, v = _effective_spectrum(drive, eps)
    out = AlgElement.from_matrix_field(drive.grid, _spectral_calculus(v, w))
    require([("hermitian", out - out.star())], 1e-10 * float(np.abs(w).max()),
            "effective Hamiltonian not hermitian")
    return out


def branch_pair(z0: complex, z1: complex, period: float) -> tuple[float, float]:
    """Branches eps_i with e^{i eps_i T} = z_i and 0 <= (eps_1 - eps_0) T < 2 pi."""
    th0, th1 = float(np.angle(z0)), float(np.angle(z1))
    if np.mod(th1 - th0, 2 * np.pi) == 0 and z0 != z1:
        raise ValueError("arc endpoints coincide in phase")
    th1 = th0 + np.mod(th1 - th0, 2 * np.pi)
    return th0 / period, th1 / period


def arc_projection(drive: FloquetDrive, z0: complex, z1: complex) -> ArcProjection:
    """Spectral projection of U(T) onto the arc counter-clockwise from z0 to z1."""
    phases, vecs = drive._spectrum
    th0, th1 = float(np.angle(z0)), float(np.angle(z1))
    width = np.mod(th1 - th0, 2 * np.pi)
    rel = np.mod(phases - th0, 2 * np.pi)
    margin = float(min(rel.min(), (2 * np.pi - rel).min(),
                       np.abs(rel - width).min()))
    if margin < _PHASE_GAP:
        raise GapClosedError(f"eigenphase within {margin:.3e} of an arc endpoint")
    inside = rel < width
    ranks = inside.sum(axis=-1)
    if ranks.min() != ranks.max():
        raise GapClosedError("arc projection rank jumps across the grid")
    proj = AlgElement.from_matrix_field(
        drive.grid, _spectral_calculus(vecs, inside.astype(float)))
    return ArcProjection(proj, int(ranks.min()), margin)


# ---------------------------------------------------------------------------
# periodized evolution and the T^3 degree
# ---------------------------------------------------------------------------

def _split_at_half(period: float, pieces):
    """(tau, x) pieces of one period with any piece straddling the half period
    cut there (both parts keep x), so loop segment boundaries always include
    the half period."""
    half = period / 2
    t = 0.0
    for tau, x in pieces:
        if t < half - 1e-12 and t + tau > half + 1e-12:
            yield half - t, x
            yield tau - (half - t), x
        else:
            yield tau, x
        t += tau


class _AnalyticSegment:
    """A loop segment with a closed formula for V at any local s
    (`values_at`) and for the pair (V, dV/ds) (`at`); an array of s gives a
    leading node axis.  Its `quadrature` is its own `order`-node
    Gauss-Legendre rule, evaluated one node at a time, each node by one `at`,
    and its `ends` are the formula at s = 0 and s = 1, formed once.  Its one
    export is `.values`, the formula on `nnodes` closed uniform nodes
    j/(nnodes - 1), evaluated on every access."""

    nnodes: int
    order: int

    @property
    def values(self) -> np.ndarray:
        return self.values_at(_simpson_rule(self.nnodes)[0])[None]

    def ends(self) -> tuple[np.ndarray, np.ndarray]:
        """Formed once, on first use, and shared read-only by every loop and
        check that reads them."""
        return self._ends

    @cached_property
    def _ends(self) -> tuple[np.ndarray, np.ndarray]:
        ends = self._formula_ends()
        for a in ends:
            a.flags.writeable = False
        return ends

    def _formula_ends(self) -> tuple[np.ndarray, np.ndarray]:
        return self.values_at(0.0)[None], self.values_at(1.0)[None]

    def quadrature(self, axes):
        nodes, weights = _gauss_rule(self.order)
        for s, weight in zip(nodes, weights):
            value, deriv = (x[None] for x in self.at(s))
            yield (weight, value, deriv,
                   [spectral_derivative_data(value, self.grid, a) for a in axes])


class FrameSegment(_AnalyticSegment):
    """One loop segment of a periodized evolution, of duration tau from time
    `start`, held in the eigenframes of its drive segment (h = v diag(w) v^H)
    and of H_eff (w_eff, v_eff): with a = v^H U(start) v_eff,
    V(start + dt) = v M v_eff^H where M_ij = e^{-i dt w_i} a_ij
    e^{i (start + dt) w_eff_j}.  Since H_eff commutes with exp(i t H_eff),
    dV/ds = i v (M o R) v_eff^H exactly (dt = s tau), with the real rate
    R_ij = tau (w_eff_j - w_i) of the frame, which s does not change.

    V is entire in s.  The Gauss order grows with the phase range
    tau max|w_i - w_eff_j| = max|R| over the grid, which (lambda H, T / lambda)
    leaves unchanged."""

    def __init__(self, grid, period: float, start: float, tau: float,
                 frame, eff, nnodes: int):
        self.t0, self.t1 = start / period, (start + tau) / period
        self.start, self.tau = start, tau
        self.w, self.v, self.a = frame
        self.w_eff, self.v_eff_h = eff
        self.grid, self.m, self.k = grid, self.v.shape[-1], 0
        self.nnodes = nnodes
        self.rate = tau * (self.w_eff[..., None, :] - self.w[..., :, None])
        # 8 Gauss nodes plus one per radian of the phase range: on frames
        # with ranges from 1.5 to 51 rad the degree reached rounding level
        # with at most 40 nodes (at 51 rad), so the rule keeps a margin
        self.order = 8 + int(np.ceil(float(np.max(np.abs(self.rate)))))

    def middle(self, dt) -> np.ndarray:
        """M at the time offset dt from the segment start; an array of
        offsets gives a leading node axis."""
        dt = np.reshape(dt, np.shape(dt) + (1,) * self.w.ndim)
        return (np.exp(-1j * dt * self.w)[..., :, None] * self.a
                * np.exp(1j * (self.start + dt) * self.w_eff)[..., None, :])

    def outer(self, mid: np.ndarray) -> np.ndarray:
        """v mid v_eff^H, formed in mid's buffer: every caller passes a fresh
        `middle`, so an exported `values` peaks at two arrays of its nodes,
        not three."""
        return np.matmul(np.matmul(self.v, mid), self.v_eff_h, out=mid)

    def values_at(self, s) -> np.ndarray:
        return self.outer(self.middle(s * self.tau))

    def at(self, s) -> tuple[np.ndarray, np.ndarray]:
        """(V, dV/ds) from one M: v [M | i M o R] is one product, and its
        rows, read as the rows of v M and i v (M o R) in turn, times v_eff^H
        one more."""
        mid = self.middle(s * self.tau)
        dmid = mid * self.rate
        dmid *= 1j
        rows = np.matmul(self.v, np.concatenate([mid, dmid], axis=-1))
        m, batch = self.m, rows.shape[:-2]
        out = np.matmul(rows.reshape(*batch, 2 * m, m), self.v_eff_h)
        out = out.reshape(*batch, m, 2, m)
        return out[..., 0, :], out[..., 1, :]


def _eigenframes(drive: FloquetDrive, eps: float, t_samples: int) -> list[FrameSegment]:
    """Frames of V(t) = U(t) exp(i t H_eff), one per drive segment cut at
    the half period, in time order, from the drive's cached eigenframes."""
    w_eff, v_eff = _effective_spectrum(drive, eps)
    eff = (w_eff, np.conj(np.swapaxes(v_eff, -1, -2)))
    pieces = zip(drive.durations, drive._eigh)
    frames = []
    start = 0.0
    b = v_eff  # U(start) v_eff
    for tau, (w, v) in _split_at_half(drive.period, pieces):
        a = np.matmul(np.conj(np.swapaxes(v, -1, -2)), b)
        nnodes = max(9, int(round(t_samples * tau / drive.period)) | 1)
        frames.append(FrameSegment(drive.grid, drive.period, start, tau,
                                   (w, v, a), eff, nnodes))
        b = np.matmul(v, np.exp(-1j * tau * w)[..., :, None] * a)
        start += tau
    return frames


def periodized_evolution(drive: FloquetDrive, eps: float,
                         t_samples: int = DEFAULT_T_SAMPLES) -> LoopElement:
    """V(t) = U(t) exp(i t H_eff): 1-periodic in t/T, one `FrameSegment` per
    drive segment (segments are additionally cut at the half period so
    contractions can take over there).

    No node array is built.  The loop's ends come from the frame formula,
    and each frame's `quadrature` is its own Gauss rule.
    t_samples sets only the exported uniform nodes: a segment of duration
    tau has max(9, round(t_samples tau / T) | 1) of them, built on access."""
    return LoopElement(_eigenframes(drive, eps, t_samples), 1e-9)


def periodicity_residual(loop: LoopElement) -> float:
    first, last = loop.segments[0].ends()[0], loop.segments[-1].ends()[1]
    return AlgElement(loop.grid, loop.m, loop.k, first - last).norm_inf()


def _cubic_trace(v: np.ndarray, dv: np.ndarray, space: list) -> np.ndarray:
    """Per-point Tr A_s [A_1, A_2] of A_s = V* dV/ds and A_i = V* d_i V, in two
    products: P = V* [V | dV/ds | d_1 V | d_2 V], whose first block must be
    the unit within 1e-9, and Y = A_s [A_1 | A_2], whose blocks give
    Tr Y_1 A_2 - Tr Y_2 A_1 as sums of elementwise products."""
    m = v.shape[-1]
    p = np.matmul(np.conj(np.swapaxes(v, -1, -2)), np.concatenate([v, dv, *space], axis=-1))
    require([("unitary", np.max(np.abs(p[..., :m] - np.eye(m))))], 1e-9, "loop not unitary")
    y = np.matmul(p[..., m:2 * m], p[..., 2 * m:])
    return (np.einsum("...ij,...ji->...", y[..., :m], p[..., 3 * m:])
            - np.einsum("...ij,...ji->...", y[..., m:], p[..., 2 * m:3 * m]))


def degree_t3(loop: LoopElement) -> float:
    """Degree (1/24 pi^2) * integral over T^3 of Tr (V* dV)^3 for a unitary
    loop over a two-dimensional momentum grid, unrounded.  The loop must be
    unitary within 1e-9 at every node, and the degree real within DEGREE_TOL.

    Every segment is integrated through its `quadrature` (the `kclass`
    segment protocol), one node of its own rule at a time: Gauss nodes on a
    frame, stored nodes otherwise.
    Cyclicity of the full matrix trace folds the six signed triple products
    of the integrand into 3 Tr A_s [A_1, A_2] (`_cubic_trace`), a k = 0
    contraction whose factors share their left factor V*."""
    if loop.grid.d != 2 or loop.k != 0:
        raise ValueError("degree needs a plain unitary loop over T^2")
    total = 0.0 + 0.0j
    for seg in loop.segments:
        for weight, v, dv, space in seg.quadrature((0, 1)):
            total += weight * 3 * np.mean(_cubic_trace(v, dv, space))
    deg = complex(total) / 6.0
    require([("imag", abs(deg.imag))], DEGREE_TOL, "degree not real")
    return float(deg.real)


# ---------------------------------------------------------------------------
# the Z2 invariant of an arc projection
# ---------------------------------------------------------------------------

def _first_half(v_loop: LoopElement) -> list:
    """The segments of a periodized evolution up to t = 1/2."""
    half = [seg for seg in v_loop.segments if seg.t1 <= 0.5 + 1e-12]
    if not half or abs(half[-1].t1 - 0.5) > 1e-12:
        raise ValueError("periodized evolution must split exactly at t = 1/2; "
                         "split the drive segments accordingly")
    return half


def _spin_mirror(arr: np.ndarray, grid) -> np.ndarray:
    """The upper spin block of arr (..., *grid.sizes, m, m) kept, the lower
    block replaced by conj(upper)(-k), off-diagonal blocks zero."""
    m2 = arr.shape[-1] // 2
    return _partner_diag(arr[..., :m2, :m2], arr[..., :m2, :m2], grid)


class _MirroredFrame(_AnalyticSegment):
    """The retrace of a first-half frame on [1/2, 1]: at local s, the spin
    mirror (`_spin_mirror`) of the frame at 1 - s.  The Simpson and Gauss
    rules are symmetric, so it keeps the frame's node count and order."""

    def __init__(self, frame: FrameSegment):
        self.frame = frame
        self.t0, self.t1 = 1.0 - frame.t1, 1.0 - frame.t0
        self.grid, self.m, self.k = frame.grid, frame.m, 0
        self.nnodes, self.order = frame.nnodes, frame.order

    def values_at(self, s) -> np.ndarray:
        return _spin_mirror(self.frame.values_at(1.0 - s), self.grid)

    def _formula_ends(self) -> tuple[np.ndarray, np.ndarray]:
        """The mirrors of the frame's ends, in reverse."""
        return tuple(_spin_mirror(a, self.grid) for a in reversed(self.frame.ends()))

    def at(self, s) -> tuple[np.ndarray, np.ndarray]:
        value, deriv = self.frame.at(1.0 - s)
        return _spin_mirror(value, self.grid), -_spin_mirror(deriv, self.grid)


def decoupled_contraction(v_loop: LoopElement) -> LoopElement:
    """Complete the first half of a decoupled periodized evolution to a loop
    V-hat meeting the contraction constraints: on [1/2, 1] the upper spin
    block retraces its first half, v-hat(t) = v(1 - t), and the lower block
    is conj(upper)(t, -k) so that Ad_{sigma_y x 1} V-hat(t,k) = conj(V-hat(t,-k)).

    The second half mirrors the first half's frames lazily: like them it
    holds no node array, and its `quadrature` is the frames' Gauss rules.
    """
    half = _first_half(v_loop)
    return LoopElement(half + [_MirroredFrame(seg) for seg in reversed(half)], 1e-8)


def contraction_loop_from_samples(v_loop: LoopElement, samples: np.ndarray) -> LoopElement:
    """Assemble V-hat from the first half of a periodized evolution and a
    caller-supplied contraction sampled uniformly on [1/2, 1].

    samples has shape (nt, *grid.sizes, m, m) on closed nodes including both
    endpoints; shape, boundary and symmetry constraints are validated.
    """
    boundary_tol = 1e-8
    grid, m = v_loop.grid, v_loop.m
    half = _first_half(v_loop)
    v_half_end = half[-1].ends()[1][0]
    if np.shape(samples)[1:] != (*grid.sizes, m, m):
        raise ValueError(f"contraction samples have shape {np.shape(samples)}, the "
                         f"loop needs (nt, {', '.join(map(str, (*grid.sizes, m, m)))})")
    require([("V(1/2)", float(np.max(np.abs(samples[0] - v_half_end)))),
             ("V(1)", float(np.max(np.abs(samples[-1] - np.eye(m)))))],
            boundary_tol, "contraction boundary conditions violated")
    seg = ClosedSegment(np.asarray(samples, dtype=complex)[None], 0.5, 1.0, grid, m, 0)
    # a node's element is a view of the samples
    nodes = ((j, AlgElement(grid, m, 0, seg.values[:, j]))
             for j in range(0, seg.weights.size, max(1, seg.weights.size // 8)))
    require(((f"node{j}", apply_real_structure(_TIME_REVERSAL, x) - x) for j, x in nodes),
            boundary_tol, "contraction symmetry residuals")
    return LoopElement(half + [seg], boundary_tol)


class ArcInvariant:
    """The Z2 invariant of the arc projection from z0 to z1 of a drive, and
    the drive-level checks behind it, each built once.  Construction keeps
    the drive's time-reversal residual and raises beyond 1e-9.  The
    two routes are `decoupled`, on a spin-doubled drive's block (`block`),
    and `degrees`."""

    def __init__(self, drive: FloquetDrive, z0: complex, z1: complex):
        self.time_reversal = drive.time_reversal_residual()
        require([("time_reversal", self.time_reversal)], 1e-9,
                "drive is not time-reversal invariant")
        self.drive, self.z0, self.z1 = drive, z0, z1
        self.branches = branch_pair(z0, z1, drive.period)

    @cached_property
    def block(self) -> "ArcInvariant":
        """The same arc of a spin-doubled drive's block drive
        (`SpinDoubledDrive.block`), with the same branches and the drive's
        time-reversal residual.  Time reversal gives the lower block the
        upper block's phases at -k, and the grid is closed under k -> -k, so
        the drive's arc has twice the block's rank and the block's gap
        margin."""
        if not isinstance(self.drive, SpinDoubledDrive):
            raise ValueError("decoupled route needs a spin-doubled drive (SpinDoubledDrive)")
        block = object.__new__(ArcInvariant)
        block.time_reversal, block.z0, block.z1, block.branches = (
            self.time_reversal, self.z0, self.z1, self.branches)
        block.drive = self.drive.block
        return block

    @cached_property
    def arc(self) -> ArcProjection:
        return arc_projection(self.drive, self.z0, self.z1)

    @cached_property
    def loop0(self) -> LoopElement:
        """The periodized evolution of the branch eps_0."""
        return periodized_evolution(self.drive, self.branches[0])

    def branch_identity(self) -> float:
        """Residual of -i T (H_eps1 - H_eps0) = 2 pi i P_arc."""
        h0, h1 = (effective_hamiltonian(self.drive, b) for b in self.branches)
        return ((h1 - h0).scale(-1j * self.drive.period)
                - self.arc.projection.scale(2j * np.pi)).norm_inf()

    def decoupled(self) -> tuple[int, float]:
        """(invariant, spin Chern number) of a spin-doubled drive: the parity
        0 or 1 of the rounded Chern number of its block's arc projection, and
        that Chern number unrounded."""
        ch = chern_number(self.block.arc.projection)
        return round(ch) % 2, ch

    def degrees(self, contractions) -> tuple[int, tuple[float, float]]:
        """(invariant, degrees) of `degree_difference` on both branches' loops."""
        v_loops = (self.loop0, periodized_evolution(self.drive, self.branches[1]))
        return degree_difference(v_loops, contractions)


def degree_difference(v_loops, contractions) -> tuple[int, tuple[float, float]]:
    """Z2 invariant from the periodized evolutions of the branches eps_0 and
    eps_1 (in that order; any iterable, consumed one loop at a time), each
    completed by its contraction samples: the difference of the rounded
    degrees of the completed loops mod 2.  Returns (invariant, degrees), the
    invariant 0 or 1 and the degrees unrounded.  A branch's samples are
    drawn as its degree is taken and dropped after it (map, unlike zip,
    holds no earlier pair), so a lazy iterable holds one at a time."""
    def degree(v_loop, samples):
        return degree_t3(contraction_loop_from_samples(v_loop, samples))
    degs = tuple(map(degree, v_loops, contractions))
    return (round(degs[1]) - round(degs[0])) % 2, degs
