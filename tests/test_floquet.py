import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (StoredSegment, chern_fhs, commutes_with_spin, count_calls,
                      evolve_at, exp_projection_loop, loop_from_unitary_samples,
                      tri_symmetry_residual, unitary_exp)
from dkpair import floquet as fl
from dkpair.grid_alg import AlgElement, TorusGrid, apply_real_structure
from dkpair.kclass import GapClosedError, LoopElement, _simpson_rule, flatten
from dkpair.models import conjugate_flip, quaternionic_structure, qwz_symbol, spin_double
from dkpair.pairing import alt_trace, band_chern, chern_number


@pytest.fixture(scope="module")
def grid():
    return TorusGrid((16, 16))


def partner_drive(grid):
    """The partner doubling of the block drive (h1, 0.7 h1), h1 the QWZ
    symbol at mass 1, in halves of a unit period: segments
    diag(h1, 0.7 f h1) and diag(0.7 h1, f h1)."""
    h1 = qwz_symbol(grid, 1.0)
    return fl.SpinDoubledDrive(fl.FloquetDrive(1.0, ((0.5, h1), (0.5, h1.scale(0.7)))))


@pytest.fixture(scope="module")
def tri_drive(grid):
    """Two-segment spin-doubled drive whose block does not read the same in
    reverse."""
    return partner_drive(grid)


@pytest.fixture(scope="module")
def rs():
    return quaternionic_structure(k=0)


def test_drive_validation(grid):
    h = spin_double(qwz_symbol(grid, 1.0))
    with pytest.raises(ValueError):
        fl.FloquetDrive(1.0, ((0.4, h),))
    skew = h.scale(1j)
    with pytest.raises(ValueError):
        fl.FloquetDrive(1.0, ((1.0, skew),))
    with pytest.raises(ValueError, match="period must be positive and finite"):
        fl.FloquetDrive(np.inf, ((0.5, h), (0.5, h)))


def test_time_reversal_check(tri_drive, grid):
    assert fl.check_time_reversal(tri_drive) < 1e-12
    bad = fl.FloquetDrive(1.0, ((0.5, tri_drive.segments[0][1]),
                                (0.5, tri_drive.segments[0][1].scale(0.9))))
    assert fl.check_time_reversal(bad) > 1e-3


def test_evolve_basics(tri_drive, grid):
    u0 = evolve_at(tri_drive, 0.0)
    assert (u0 - AlgElement.unit(grid, 4, 0)).norm_inf() < 1e-14
    # single constant segment evolves by the exponential
    h = spin_double(qwz_symbol(grid, 1.0))
    single = fl.FloquetDrive(2.0, ((2.0, h),))
    u = evolve_at(single, 0.7)
    w, v = np.linalg.eigh(h.data[0])
    expect = np.einsum("...ij,...j,...kj->...ik", v, np.exp(-0.7j * w), np.conj(v))
    assert np.max(np.abs(u.data[0] - expect)) < 1e-12


def test_evolve_cocycle(tri_drive):
    u1 = evolve_at(tri_drive, 0.3)
    u2 = evolve_at(tri_drive, 1.3)
    uT = evolve_at(tri_drive, 1.0)
    assert (u2 - uT * u1).norm_inf() < 1e-10
    assert (fl.evolve(tri_drive) - uT).norm_inf() < 1e-14


def test_effective_hamiltonian_scalar_branch(grid):
    theta = 0.8
    h = AlgElement.from_matrix_field(
        grid, np.broadcast_to((theta * np.eye(2)), (16, 16, 2, 2)).copy())
    drive = fl.FloquetDrive(1.0, ((1.0, h),))
    # U(T) = e^{-i theta}; branch window [-pi, pi) contains -theta
    heff = fl.effective_hamiltonian(drive, -np.pi)
    assert np.max(np.abs(heff.data[0] - theta * np.eye(2))) < 1e-12


def test_branch_identity_and_roundtrip(tri_drive, grid):
    z0, z1 = 1.0 + 0j, np.exp(1j * np.pi)
    b0, b1 = fl.branch_pair(z0, z1, tri_drive.period)
    h0 = fl.effective_hamiltonian(tri_drive, b0)
    h1 = fl.effective_hamiltonian(tri_drive, b1)
    arc = fl.arc_projection(tri_drive, z0, z1)
    ident = (h1 - h0).scale(-1j * tri_drive.period) \
        - arc.projection.scale(2j * np.pi)
    assert ident.norm_inf() < 1e-9
    # functional-calculus roundtrip exp(-i T Heff) = U(T)
    ut = fl.evolve(tri_drive)
    back = unitary_exp(h0.scale(-tri_drive.period))
    assert (ut - back).norm_inf() < 1e-9


def test_effective_hamiltonian_gap_guard(grid):
    h = AlgElement.from_matrix_field(
        grid, np.broadcast_to(np.diag([0.8, -0.8]), (16, 16, 2, 2)).copy())
    drive = fl.FloquetDrive(1.0, ((1.0, h),))
    with pytest.raises(GapClosedError):
        fl.effective_hamiltonian(drive, -0.8)


def test_arc_projection_properties(tri_drive, rs):
    z0, z1 = 1.0 + 0j, np.exp(1j * np.pi)
    arc = fl.arc_projection(tri_drive, z0, z1)
    p = arc.projection
    assert (p * p - p).norm_inf() < 1e-10
    assert (p - p.star()).norm_inf() < 1e-10
    assert arc.rank == 2
    # time-reversal invariance of the projection
    assert (apply_real_structure(rs, p) - p).norm_inf() < 1e-10
    # full circle minus one gap gives the identity
    full = fl.arc_projection(tri_drive, np.exp(0.01j), np.exp(-0.01j))
    assert (full.projection - AlgElement.unit(p.grid, 4, 0)).norm_inf() < 1e-11
    assert full.rank == 4


def test_arc_projection_gap_guard(tri_drive):
    with pytest.raises(GapClosedError):
        fl.arc_projection(tri_drive, np.exp(0.85j), np.exp(1j * np.pi))


def test_periodized_evolution(tri_drive, rs):
    b0 = 0.0
    loop = fl.periodized_evolution(tri_drive, b0, 64)
    assert fl.periodicity_residual(loop) < 1e-9
    assert tri_symmetry_residual(tri_drive, b0, rs) < 1e-9
    # V(0) = 1
    start = AlgElement(loop.grid, 4, 0, loop.segments[0].ends()[0])
    assert (start - AlgElement.unit(loop.grid, 4, 0)).norm_inf() < 1e-12


def test_periodized_evolution_constant_drive(grid):
    h = AlgElement.from_matrix_field(
        grid, np.broadcast_to(0.3 * np.diag([1.0, -1.0]), (16, 16, 2, 2)).copy())
    drive = fl.FloquetDrive(1.0, ((0.5, h), (0.5, h)))
    loop = fl.periodized_evolution(drive, -np.pi, 32)
    for seg in loop.segments:
        assert np.max(np.abs(seg.values[0]
                             - np.eye(2))) < 1e-12


def test_degree_trivial_loops(grid):
    one = np.broadcast_to(np.eye(2), (32, 16, 16, 2, 2)).copy()
    loop = loop_from_unitary_samples(one, grid, 2)
    assert fl.degree_t3(loop) == 0.0
    t = np.arange(32) / 32
    tw = np.exp(2j * np.pi * t)[:, None, None, None, None] * one
    loop2 = loop_from_unitary_samples(tw, grid, 2)
    assert abs(fl.degree_t3(loop2)) < 1e-10


def test_degree_of_projection_exponential(grid):
    s = flatten(qwz_symbol(grid, 1.0))
    p = (s + AlgElement.unit(grid, 2, 0)).scale(0.5)
    ch = chern_number(p)
    deg = fl.degree_t3(exp_projection_loop(p, 48, sign=-1.0))
    assert abs(deg - ch) < 1e-4
    # orientation cross-check against the plaquette oracle
    assert abs(deg + chern_fhs(p)) < 1e-4


@pytest.fixture(scope="module")
def qwz_projection_degree(grid):
    """A QWZ projection and the T^3 degree of its exponential loop."""
    s = flatten(qwz_symbol(grid, 1.0))
    p = (s + AlgElement.unit(grid, 2, 0)).scale(0.5)
    deg = fl.degree_t3(exp_projection_loop(p, 48))
    assert abs(deg - round(deg)) <= 1e-3
    return p, deg


@settings(max_examples=6, deadline=None)
@given(st.integers(0, 2 ** 31))
@example(0)
@example(2 ** 31)
def test_degree_gauge_invariant(qwz_projection_degree, seed):
    # g p g* with g = exp(iB), B a grid-constant hermitian matrix, is a global
    # gauge transformation, which the T^3 degree may not see
    p, deg = qwz_projection_degree
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    w, v = np.linalg.eigh(a + np.conj(a.T))
    g = AlgElement.from_matrix_field(
        p.grid, np.broadcast_to((v * np.exp(1j * w)) @ np.conj(v.T), (*p.grid.sizes, 2, 2)))
    deg_g = fl.degree_t3(exp_projection_loop(g * p * g.star(), 48))
    assert abs(deg_g - deg) <= 1e-12


def test_decoupled_invariant_matches_spin_chern(tri_drive, grid):
    z0, z1 = 1.0 + 0j, np.exp(1j * np.pi)
    kval, ch = fl.ArcInvariant(tri_drive, z0, z1).decoupled()
    assert abs(ch - round(ch)) <= 1e-4
    assert type(kval) is int
    sc = band_chern(flatten(qwz_symbol(grid, 1.0)))
    assert kval == round(abs(sc)) % 2 == 1


def test_undriven_trivial_model(grid):
    # scaled so the eigenphases stay inside (-pi, pi): spectrum in [0.5, 2.5]
    h = qwz_symbol(grid, 3.0).scale(0.5)
    drive = fl.SpinDoubledDrive(fl.FloquetDrive(1.0, ((0.5, h), (0.5, h))))
    kval, ch = fl.ArcInvariant(drive, 1.0 + 0j, np.exp(1j * np.pi)).decoupled()
    assert abs(ch - round(ch)) <= 1e-4
    assert kval == 0


def test_wrapped_spectrum_is_caught(grid):
    # mass-3 spectrum reaches past pi, so the arc at z1 = -1 is not in a
    # true gap; the sampled margin passes, but the spin Chern number of the
    # broken projection is far from an integer, which the floquet report's
    # spin_chern_integer check rejects
    h = qwz_symbol(grid, 3.0)
    drive = fl.SpinDoubledDrive(fl.FloquetDrive(1.0, ((0.5, h), (0.5, h))))
    _, ch = fl.ArcInvariant(drive, 1.0 + 0j, np.exp(1j * np.pi)).decoupled()
    assert abs(ch - round(ch)) > 1e-3


def test_degree_difference_route(tri_drive):
    z0, z1 = 1.0 + 0j, np.exp(1j * np.pi)
    b0, b1 = fl.branch_pair(z0, z1, tri_drive.period)
    degs = []
    for b in (b0, b1):
        loop = fl.periodized_evolution(tri_drive, b, 96)
        vhat = fl.decoupled_contraction(loop)
        degs.append(fl.degree_t3(vhat))
    assert all(abs(d - round(d)) <= 5e-3 for d in degs), degs
    k_deg = (round(degs[1]) - round(degs[0])) % 2
    kval, ch = fl.ArcInvariant(tri_drive, z0, z1).decoupled()
    assert abs(ch - round(ch)) <= 1e-4
    assert k_deg == kval


def test_user_supplied_contraction_route(tri_drive):
    z0, z1 = 1.0 + 0j, np.exp(1j * np.pi)
    b0, b1 = fl.branch_pair(z0, z1, tri_drive.period)
    contractions = []
    for b in (b0, b1):
        loop = fl.periodized_evolution(tri_drive, b, 96)
        vhat = fl.decoupled_contraction(loop)
        # export the second half on a closed uniform grid, as a caller would
        second = [seg for seg in vhat.segments if seg.t0 >= 0.5 - 1e-12]
        samples = np.concatenate([second[0].values[0]]
                                 + [seg.values[0, 1:] for seg in second[1:]])
        contractions.append(samples)
    kval, degrees = fl.ArcInvariant(tri_drive, z0, z1).degrees(tuple(contractions))
    assert kval == 1
    assert len(degrees) == 2


def test_user_supplied_contraction_validation(tri_drive):
    z0, z1 = 1.0 + 0j, np.exp(1j * np.pi)
    nt = 97
    bad = np.broadcast_to(np.eye(4), (nt, 16, 16, 4, 4)).copy()
    with pytest.raises(ValueError, match="boundary"):
        fl.ArcInvariant(tri_drive, z0, z1).degrees((bad, bad))


def test_arc_swap_regression(tri_drive):
    # swapping the arc endpoints selects the complementary projection; the
    # computed values are recorded as regression data, not asserted a priori
    z0, z1 = 1.0 + 0j, np.exp(1j * np.pi)
    k1, ch1 = fl.ArcInvariant(tri_drive, z0, z1).decoupled()
    k2, ch2 = fl.ArcInvariant(tri_drive, z1, z0).decoupled()
    assert abs(ch1 - round(ch1)) <= 1e-4 and abs(ch2 - round(ch2)) <= 1e-4
    assert round(ch1) == -1
    assert round(ch2) == 1
    assert (k1, k2) == (1, 1)


def test_contraction_with_straddling_segment(grid):
    # single-segment (undriven) drive: the loop is cut at the half period
    # automatically, so the half-time contraction applies
    h = spin_double(qwz_symbol(grid, 1.0)).scale(0.5)
    drive = fl.FloquetDrive(1.0, ((1.0, h),))
    loop = fl.periodized_evolution(drive, 0.0, 64)
    assert any(abs(seg.t1 - 0.5) < 1e-12 for seg in loop.segments)
    vhat = fl.decoupled_contraction(loop)
    deg = fl.degree_t3(vhat)
    assert abs(deg - round(deg)) < 5e-3


def test_stroboscopic_spectrum_reuse_matches_fresh_factorization(tri_drive):
    # the cached spectrum of U(T) gives exactly what a fresh factorization
    # of a fresh evolution gives, through the same formulas: a plain drive's
    # its own, a spin-doubled drive's its block's, doubled
    fresh = fl.unitary_eig(fl.evolve(tri_drive.block))
    doubled = fl._doubled_eig(fresh, fresh, tri_drive.grid)
    for drive, (phases, vecs) in ((tri_drive.block, fresh), (tri_drive, doubled)):
        T = drive.period
        branch = 0.3
        phi = fl._branch_phases(phases, branch * T)
        want_h = np.einsum("...ij,...j,...kj->...ik", vecs, -phi / T, np.conj(vecs))
        assert np.array_equal(fl.effective_hamiltonian(drive, branch).data[0], want_h)
        z0, z1 = np.exp(0.1j), np.exp(1j * np.pi)
        rel = np.mod(phases - np.angle(z0), 2 * np.pi)
        inside = rel < np.mod(np.angle(z1) - np.angle(z0), 2 * np.pi)
        want_p = np.einsum("...ij,...j,...kj->...ik", vecs, inside.astype(float),
                           np.conj(vecs))
        assert np.array_equal(fl.arc_projection(drive, z0, z1).projection.data[0],
                              want_p)


def haar_unitaries(rng, n, m):
    """n Haar-random m x m unitaries: QR of a complex Gaussian, phases fixed."""
    q, r = np.linalg.qr(rng.standard_normal((n, m, m))
                        + 1j * rng.standard_normal((n, m, m)))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[:, None, :]


def with_phases(rng, n, phases):
    """n unitaries with the given eigenphases, each in a Haar-random basis."""
    q = haar_unitaries(rng, n, len(phases))
    return np.einsum("nij,j,nkj->nik", q, np.exp(1j * np.asarray(phases)),
                     np.conj(q))


def unitary_cases(drive):
    """Name -> (n, m, m) unitary field for the eigensolve tests."""
    rng = np.random.default_rng(7)
    eye = np.broadcast_to(np.eye(4, dtype=complex), (16, 4, 4))
    u_period = fl.evolve(drive).data[0]
    cases = {f"haar{m}": haar_unitaries(rng, 16, m) for m in (1, 2, 4, 8)}
    cases.update(
        identity=eye.copy(),
        minus_identity=-eye,
        kramers=with_phases(rng, 16, [0.4, 0.4, -1.3, -1.3]),
        cluster_at_zero=with_phases(rng, 16, [0, 1e-9, 1e-7, 1e-6, 2, 2]),
        cluster_at_pi=with_phases(
            rng, 16, [np.pi, np.pi - 1e-9, 1e-7 - np.pi, np.pi - 1e-6, 0.3, -0.3]),
        # U(T) of the spin-doubled TRI drive at k in {0, pi}^2: Kramers pairs
        tri_trim=u_period[::8, ::8].reshape(4, drive.m, drive.m))
    return cases


@pytest.mark.parametrize("name", ["haar1", "haar2", "haar4", "haar8", "identity",
                                  "minus_identity", "kramers", "cluster_at_zero",
                                  "cluster_at_pi", "tri_trim"])
def test_unitary_eig_against_numpy_eigvals(name, tri_drive):
    u = unitary_cases(tri_drive)[name]
    n, m = u.shape[:2]
    phases, vecs = fl.unitary_eig(AlgElement.from_matrix_field(TorusGrid((n,)), u))
    assert phases.shape == (n, m) and vecs.shape == (n, m, m)
    vh = np.conj(np.swapaxes(vecs, -1, -2))
    assert np.max(np.abs(vh @ vecs - np.eye(m))) <= 1e-13
    assert np.max(np.abs((vecs * np.exp(1j * phases)[:, None, :]) @ vh - u)) <= 1e-13
    # near the cut at +-pi the two angles of one eigenvalue may differ by 2 pi
    def away_from_cut(p):
        return np.sort(p[np.pi - np.abs(p) > 1e-3])

    for got, want in zip(phases, np.angle(np.linalg.eigvals(u))):
        np.testing.assert_allclose(away_from_cut(got), away_from_cut(want),
                                   rtol=0, atol=1e-13)


def test_unitary_eig_rejects_non_normal_field():
    u = haar_unitaries(np.random.default_rng(3), 8, 3)
    u[:, 0, 1] += 0.5
    with pytest.raises(ValueError, match="residual"):
        fl.unitary_eig(AlgElement.from_matrix_field(TorusGrid((8,)), u))


@pytest.mark.parametrize("lam", [1e-6, 1e4, 1e8])
def test_invariant_independent_of_drive_scale(tri_drive, lam):
    # (lambda H, T / lambda) has the same evolution operator over a period
    z0, z1 = 1.0 + 0j, np.exp(1j * np.pi)
    scaled = rescaled(tri_drive, lam)
    ref, ref_ch = fl.ArcInvariant(tri_drive, z0, z1).decoupled()
    kval, ch = fl.ArcInvariant(scaled, z0, z1).decoupled()
    assert abs(ref_ch - round(ref_ch)) <= 1e-3
    assert kval == ref
    assert abs(ch - ref_ch) < 1e-9


def rescaled(drive, lam):
    """(lambda H, T / lambda) of a spin-doubled drive, as the doubling of its
    rescaled block: the same evolution operator over a period."""
    return fl.SpinDoubledDrive(fl.FloquetDrive(
        drive.period / lam, tuple((tau / lam, h.scale(lam)) for tau, h in drive.block.segments)))


def test_effective_hamiltonian_hermiticity_is_scale_relative(tri_drive):
    # H_eff has scale pi / T, so an absolute hermiticity tolerance rejected
    # (lambda H, T / lambda) at lambda = 1e8
    lam = 1e8
    scaled = rescaled(tri_drive, lam)
    z0, z1 = 1.0 + 0j, np.exp(1j * np.pi)
    for b, b_scaled in zip(fl.branch_pair(z0, z1, tri_drive.period),
                           fl.branch_pair(z0, z1, scaled.period)):
        h = fl.effective_hamiltonian(tri_drive, b)
        h_scaled = fl.effective_hamiltonian(scaled, b_scaled)
        assert (h_scaled.scale(1 / lam) - h).norm_inf() < 1e-9


def per_node_periodized_evolution(drive, branch, t_samples):
    """Reference: the direct per-node formula V = U(t) e^{itH_eff} and
    dV/ds = tau (-i H V + V i H_eff), one (values, derivs) pair per segment."""
    def calculus(v, fw):
        return np.einsum("...ij,...j,...kj->...ik", v, fw, np.conj(v))

    w_eff, v_eff = fl._effective_spectrum(drive, branch)
    h_eff = calculus(v_eff, w_eff)
    grid, m = drive.grid, drive.m
    out = []
    t_start = 0.0
    u_start = np.broadcast_to(np.eye(m, dtype=complex), (*grid.sizes, m, m)).copy()
    for tau, h in fl._split_at_half(drive.period, drive.segments):
        w, v = np.linalg.eigh(h.data[0])
        nn = max(9, int(round(t_samples * tau / drive.period)) | 1)
        values = np.zeros((1, nn, *grid.sizes, m, m), dtype=complex)
        derivs = np.zeros_like(values)
        for j, s in enumerate(np.linspace(0.0, 1.0, nn)):
            dt = s * tau
            u_t = np.matmul(calculus(v, np.exp(-1j * dt * w)), u_start)
            e_t = calculus(v_eff, np.exp(1j * (t_start + dt) * w_eff))
            values[0, j] = np.matmul(u_t, e_t)
            dv = (np.matmul(-1j * h.data[0], np.matmul(u_t, e_t))
                  + np.matmul(u_t, np.matmul(1j * h_eff, e_t)))
            derivs[0, j] = tau * dv
        out.append((t_start / drive.period, (t_start + tau) / drive.period,
                    values, derivs))
        u_start = np.matmul(calculus(v, np.exp(-1j * tau * w)), u_start)
        t_start += tau
    return out


@pytest.mark.parametrize("case", ["tri", "scaled", "straddling"])
def test_periodized_evolution_matches_per_node_formula(tri_drive, case):
    if case == "tri":
        drive = tri_drive
    elif case == "scaled":
        drive = rescaled(tri_drive, 1e8)
    else:
        ha, hb = (h for _, h in tri_drive.segments)
        drive = fl.FloquetDrive(1.0, ((0.3, ha), (0.4, hb), (0.3, ha)))
    z0, z1 = 1.0 + 0j, np.exp(1j * np.pi)
    for branch in fl.branch_pair(z0, z1, drive.period):
        loop = fl.periodized_evolution(drive, branch, 32)
        want = per_node_periodized_evolution(drive, branch, 32)
        assert len(loop.segments) == len(want) == (4 if case == "straddling" else 2)
        for seg, (t0, t1, values, derivs) in zip(loop.segments, want):
            assert (seg.t0, seg.t1) == (t0, t1)
            derivs_got = seg.at(_simpson_rule(seg.nnodes)[0])[1][None]
            for got, ref in ((seg.values, values), (derivs_got, derivs)):
                assert got.shape == ref.shape
                assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def criterion_12_drive(n):
    """The drive of acceptance criterion 12 on an n x n grid."""
    return partner_drive(TorusGrid((n, n)))


def simpson_reference(loop):
    """The loop's uniform exports, with d/ds from `at` on the same nodes, as
    stored segments, which `degree_t3` integrates with Simpson's rule."""
    segments = []
    for seg in loop.segments:
        nodes, weights = _simpson_rule(seg.nnodes)
        segments.append(StoredSegment(seg.t0, seg.t1, nodes, weights, seg.values,
                                      seg.at(nodes)[1][None], seg.grid, seg.m, 0))
    return LoopElement(segments, 1e-8)


@pytest.fixture(scope="module")
def criterion_12_contractions():
    drive = criterion_12_drive(24)
    z0, z1 = 1.0 + 0j, np.exp(1j * np.pi)
    loops = [fl.decoupled_contraction(fl.periodized_evolution(drive, b, 256))
             for b in fl.branch_pair(z0, z1, drive.period)]
    return [(loop, simpson_reference(loop)) for loop in loops]


def test_gauss_degree_matches_simpson_oracle(criterion_12_contractions):
    # both branches, each loop through both halves of its decoupled contraction
    for loop, ref in criterion_12_contractions:
        assert [type(seg) for seg in loop.segments] == [fl.FrameSegment,
                                                        fl._MirroredFrame]
        assert abs(fl.degree_t3(loop) - fl.degree_t3(ref)) <= 1e-10


def test_simpson_oracle_catches_wrong_gauss_derivative(criterion_12_contractions,
                                                       monkeypatch):
    # dV/ds without the H_eff term, read by the Gauss path only: the oracle's
    # node arrays were exported before the mutation.  The rate is the one
    # place a frame keeps its derivative, and the mirrored half reads it too
    loop, ref = criterion_12_contractions[0]
    frame = loop.segments[0]
    assert loop.segments[1].frame is frame
    monkeypatch.setattr(frame, "rate", -frame.tau * frame.w[..., :, None])
    assert abs(fl.degree_t3(loop) - fl.degree_t3(ref)) > 1e-3


def alt_trace_degree(loop):
    """The unrounded T^3 degree of a loop by the six-product integrand
    3 Tr (V* dV/ds) [V* d_1 V, V* d_2 V] through `alt_trace`: the reference
    that `degree_t3`'s two-product `_cubic_trace` is held to."""
    total = 0.0 + 0.0j
    for seg in loop.segments:
        for weight, v, dv, space in seg.quadrature((0, 1)):
            vh = np.conj(np.swapaxes(v, -1, -2))
            total += weight * 3 * np.mean(alt_trace(vh @ dv, [vh @ d for d in space], 0))
    return total / 6.0


def conjugated(loop, g):
    """The stored loop g V g* for a constant unitary g."""
    gh = np.conj(g.T)
    return LoopElement([StoredSegment(seg.t0, seg.t1, seg.nodes, seg.weights,
                                      g @ seg.values @ gh, g @ seg.derivs @ gh,
                                      seg.grid, seg.m, 0)
                        for seg in loop.segments], 1e-8)


def test_cubic_trace_matches_alt_trace_oracle(grid):
    drive = criterion_12_drive(16)
    frames = fl.periodized_evolution(drive, 0.0, 64)
    branch = fl.branch_pair(1.0 + 0j, np.exp(1j * np.pi), drive.period)[0]
    loop = fl.decoupled_contraction(fl.periodized_evolution(drive, branch, 64))
    ref = simpson_reference(loop)
    # a Haar unitary mixes the spin blocks, so no off-diagonal block is dead
    g = haar_unitaries(np.random.default_rng(5), 1, 4)[0]
    s = flatten(qwz_symbol(grid, 1.0))
    p = (s + AlgElement.unit(grid, 2, 0)).scale(0.5)
    cases = [frames, loop, ref, conjugated(ref, g), exp_projection_loop(p, 48)]
    assert {type(seg) for seg in frames.segments} == {fl.FrameSegment}
    assert [type(seg) for seg in loop.segments] == [fl.FrameSegment, fl._MirroredFrame]
    for case in cases:
        want = alt_trace_degree(case)
        assert abs(want.imag) <= 1e-12
        assert abs(fl.degree_t3(case) - want.real) <= 1e-12


def test_degree_rejects_a_non_unitary_node(criterion_12_contractions):
    _, ref = criterion_12_contractions[0]
    seg = ref.segments[0]
    values = seg.values.copy()
    values[0, 5] *= 1 + 1e-6
    bad = LoopElement([StoredSegment(seg.t0, seg.t1, seg.nodes, seg.weights, values,
                                     seg.derivs, seg.grid, seg.m, 0),
                       *ref.segments[1:]], 1e-8)
    with pytest.raises(ValueError, match="loop not unitary"):
        fl.degree_t3(bad)


def test_frame_gauss_node_evaluates_its_frame_once(criterion_12_contractions, monkeypatch):
    loop, _ = criterion_12_contractions[0]
    middle = fl.FrameSegment.middle
    calls = []

    def counted(seg, dt):
        calls.append(dt)
        return middle(seg, dt)

    monkeypatch.setattr(fl.FrameSegment, "middle", counted)
    for seg in loop.segments:  # a frame and its mirror
        calls.clear()
        assert sum(1 for _ in seg.quadrature((0, 1))) == seg.order
        assert len(calls) == seg.order


@pytest.mark.parametrize("lam", [1e-4, 1.0, 1e4])
def test_frames_are_energy_scale_invariant(tri_drive, lam):
    # (lambda H, T / lambda) leaves each frame's phase range, hence its Gauss
    # order, and the degree unchanged; periodicity holds its absolute bound
    z0, z1 = 1.0 + 0j, np.exp(1j * np.pi)
    scaled = rescaled(tri_drive, lam)
    for b, b_scaled in zip(fl.branch_pair(z0, z1, tri_drive.period),
                           fl.branch_pair(z0, z1, scaled.period)):
        loop = fl.periodized_evolution(tri_drive, b, 64)
        loop_scaled = fl.periodized_evolution(scaled, b_scaled, 64)
        assert ([seg.order for seg in loop_scaled.segments]
                == [seg.order for seg in loop.segments])
        assert fl.periodicity_residual(loop_scaled) <= 1e-9
        deg = fl.degree_t3(fl.decoupled_contraction(loop))
        deg_scaled = fl.degree_t3(fl.decoupled_contraction(loop_scaled))
        assert all(abs(d - round(d)) <= 5e-3 for d in (deg, deg_scaled))
        assert abs(deg_scaled - deg) <= 1e-12


def test_degree_difference_holds_no_node_array():
    # every loop segment is integrated one quadrature node at a time, so the
    # degrees take less working memory than one branch's contraction samples
    drive = criterion_12_drive(32)
    loops, contractions = [], []
    for branch in fl.branch_pair(1.0 + 0j, np.exp(1j * np.pi), drive.period):
        loops.append(fl.periodized_evolution(drive, branch, 128))
        second = [seg for seg in fl.decoupled_contraction(loops[-1]).segments
                  if seg.t0 >= 0.5 - 1e-12]
        contractions.append(np.concatenate([second[0].values[0]]
                                           + [seg.values[0, 1:] for seg in second[1:]]))
    tracemalloc.start()
    try:
        k_val, degs = fl.degree_difference(loops, contractions)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        fl.degree_difference(loops, (c.copy() for c in contractions))
        lazy_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert k_val == 1
    assert all(abs(deg - round(deg)) < 1e-6 for deg in degs)
    assert peak < contractions[0].nbytes
    # samples drawn lazily, as the CLI reads its files, are held one branch
    # at a time
    assert lazy_peak < peak + 1.5 * contractions[0].nbytes


def test_contraction_samples_are_not_copied(tri_drive):
    # complex128 samples back the contraction segment as they are
    v_loop = fl.periodized_evolution(tri_drive, 0.0, 32)
    samples = fl.decoupled_contraction(v_loop).segments[-1].values[0]
    loop = fl.contraction_loop_from_samples(v_loop, samples)
    assert np.shares_memory(loop.segments[-1].values, samples)


def test_contraction_samples_need_an_odd_node_count(tri_drive):
    # one interior sample dropped: shape and boundary values still hold
    v_loop = fl.periodized_evolution(tri_drive, 0.0, 32)
    samples = np.delete(fl.decoupled_contraction(v_loop).segments[-1].values[0], 1, axis=0)
    assert len(samples) % 2 == 0
    with pytest.raises(ValueError, match="odd node count >= 7"):
        fl.contraction_loop_from_samples(v_loop, samples)


def test_segment_ends_are_the_values_at_0_and_1(tri_drive):
    # a frame and its mirror evaluate their formula at s = 0 and s = 1; a
    # contraction half's ends are views of its first and last sample
    v_loop = fl.periodized_evolution(tri_drive, 0.0, 32)
    completed = fl.decoupled_contraction(v_loop)
    assert {type(seg) for seg in completed.segments} == {fl.FrameSegment, fl._MirroredFrame}
    for seg in completed.segments:
        start, end = seg.ends()
        assert np.array_equal(start, seg.values_at(0.0)[None])
        assert np.array_equal(end, seg.values_at(1.0)[None])
    samples = completed.segments[-1].values[0]
    start, end = fl.contraction_loop_from_samples(v_loop, samples).segments[-1].ends()
    for got, want in ((start, samples[0]), (end, samples[-1])):
        assert np.array_equal(got[0], want) and np.shares_memory(got, want)


def doubled_drive(case):
    """A spin-doubled drive: the committed palindromic one, or the partner
    doubling of a block drive whose segments do not read the same in
    reverse, in three pieces of 0.3, 0.4 and 0.3."""
    from dkpair import cli
    if case == "committed":
        cfg = cli.ModelConfig.load(str(Path(__file__).parent / "data" / "floquet_qwz.json"))
        return cfg.drive_object(cfg.grid(16))
    grid = TorusGrid((16, 16))
    return fl.SpinDoubledDrive(fl.FloquetDrive(1.0, (
        (0.3, qwz_symbol(grid, 1.0).scale(0.5)), (0.7, qwz_symbol(grid, -0.6).scale(0.4)))))


@pytest.mark.parametrize("case", ["committed", "non_palindromic"])
def test_doubled_drive_eigendata_match_a_fresh_factorization(case, monkeypatch):
    # the doubled drive reads its pieces' and U(T)'s eigendata from the
    # block's, one block spectrum for every drive; a fresh factorization at
    # double size gives the same spectra (as multisets) and the same operators
    drive = doubled_drive(case)
    assert isinstance(drive, fl.SpinDoubledDrive) and (drive.m, drive.block.m) == (4, 2)
    calls = count_calls(monkeypatch, fl.unitary_eig)
    phases, vecs = drive._spectrum
    assert [u.m for u in calls] == [2]
    monkeypatch.undo()
    # the same segments as a plain drive: every eigendecomposition afresh at 4x4
    ref = fl.FloquetDrive(drive.period, drive.segments)
    for (w, v), (w_ref, _), (_, h) in zip(drive._eigh, ref._eigh, drive.segments):
        assert np.max(np.abs(np.sort(w, axis=-1) - w_ref)) <= 1e-12
        vh = np.conj(np.swapaxes(v, -1, -2))
        assert np.max(np.abs(vh @ v - np.eye(4))) <= 1e-12
        assert np.max(np.abs((v * w[..., None, :]) @ vh - h.data[0])) <= 1e-12
    u_ref = fl.evolve(ref).data[0]
    phases_ref, _ = ref._spectrum
    assert np.max(np.abs(np.sort(phases, axis=-1) - np.sort(phases_ref, axis=-1))) <= 1e-12
    vh = np.conj(np.swapaxes(vecs, -1, -2))
    assert np.max(np.abs(vh @ vecs - np.eye(4))) <= 1e-12
    assert np.max(np.abs((vecs * np.exp(1j * phases)[..., None, :]) @ vh - u_ref)) <= 1e-12
    assert np.max(np.abs(fl.evolve(drive).data[0] - u_ref)) <= 1e-12


@pytest.mark.parametrize("durations", [(0.25, 0.5, 0.25), (0.3, 0.7), (0.2, 0.5, 0.1, 0.2)],
                         ids=["palindromic", "two_segments", "four_segments"])
def test_partner_doubling_is_its_own_time_reverse(grid, durations):
    # the pieces refine the block's segment boundaries b and their mirror
    # images 1 - b, one piece per segment when the durations are palindromic;
    # on each piece the materialized segment is diag(h(t), f h(1 - t)), and
    # the segment-mirroring check reads exactly 0.0
    masses = (1.0, -0.6, 2.5, 0.4)
    block = fl.FloquetDrive(1.0, tuple((tau, qwz_symbol(grid, mass).scale(0.5))
                                       for tau, mass in zip(durations, masses)))
    drive = fl.SpinDoubledDrive(block)
    bounds = np.cumsum(durations)[:-1]
    cuts = np.unique(np.round(np.concatenate([bounds, 1.0 - bounds]), 12))
    starts = np.concatenate([[0.0], np.cumsum(drive.durations)[:-1]])
    assert np.max(np.abs(starts[1:] - cuts)) <= 1e-12
    if durations == durations[::-1]:
        assert drive.durations == durations
    assert fl.check_time_reversal(fl.FloquetDrive(drive.period, drive.segments)) == 0.0

    def block_at(t):
        return block.segments[int(np.searchsorted(bounds, t))][1]

    for (tau, h), t0 in zip(drive.segments, starts):
        mid = t0 + tau / 2
        assert commutes_with_spin(h)
        assert np.array_equal(h.data[0][..., :2, :2], block_at(mid).data[0])
        assert np.array_equal(h.data[0][..., 2:, 2:],
                              conjugate_flip(block_at(1.0 - mid)).data[0])


def test_time_reversal_check_is_relative_to_the_period(grid):
    # a block of durations 0.17 T and T - 0.17 T at T = 1 / 7e-9: the pieces
    # of its doubling are palindromic to the rounding of T, 4e-9 here, and
    # the check's tolerance is 1e-12 T, as for the durations' sum
    period = 1 / 7e-9
    h = qwz_symbol(grid, 1.0).scale(7e-9)
    drive = fl.SpinDoubledDrive(fl.FloquetDrive(period, ((0.17 * period, h),
                                                         (period - 0.17 * period, h))))
    taus = drive.durations
    assert 1e-12 < abs(taus[0] - taus[-1]) <= 1e-12 * period
    assert fl.check_time_reversal(fl.FloquetDrive(period, drive.segments)) == 0.0


def test_decoupled_route_needs_a_spin_doubled_drive(tri_drive):
    # the same segments as a plain drive pass time reversal, but carry no
    # block for the decoupled route to run on
    plain = fl.FloquetDrive(tri_drive.period, tri_drive.segments)
    inv = fl.ArcInvariant(plain, 1.0 + 0j, np.exp(1j * np.pi))
    assert inv.time_reversal == 0.0
    with pytest.raises(ValueError, match="decoupled route needs a spin-doubled drive"):
        inv.decoupled()
