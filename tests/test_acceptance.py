"""Acceptance criteria, one test per criterion, at their stated tolerances.

Run with `pytest -v -s tests/test_acceptance.py` to see one line per
criterion.  Grids are desk scale: at most 64^2 momentum points and 512 time
samples.
"""

import numpy as np
import pytest

from conftest import (doubled_segments, exp_projection_loop, ko2_generator, materialized,
                      mirroring_residual, real_structure_from_signature, same_element,
                      scalar_trace, spin_y, split_blocks, swapped_doubled_class,
                      tri_symmetry_residual, unitary_exp)
from dkpair.clifford import CliffordSignature, mu
from dkpair.grid_alg import (AlgElement, RealStructureSpec, TorusGrid,
                             apply_real_structure, blade, direct_sum,
                             gamma_element, j_functional, psi_e, trace)
from dkpair.kclass import (BasePoint, bott_loop, flatten,
                           make_osu_from_hamiltonian, osu_validate,
                           torsion_loop)
from dkpair import floquet as fl
from dkpair.models import (decoupled_tri_symbol, quaternionic_structure, qwz_hoppings, qwz_symbol,
                           spin_double, symbol_from_hoppings, winding_unitary)
from dkpair.pairing import (MODULUS_KANE_MELE_CH2, band_chern, ch0, ch1, ch2,
                            chern_number, pair, pair_suspended,
                            pimsner_constant,
                            torsion_pairing_closed_form,
                            torsion_pairing_via_loop, winding_number)

RNG = np.random.default_rng(987654321)


def report(num, name, detail=""):
    print(f"criterion {num:2d} ({name}): PASS {detail}")


def test_criterion_01_clifford_exactness():
    # point elements of Cl_k, through the products, star and real structures
    # that every pairing runs
    for k in range(0, 7):
        g = gamma_element(k)
        assert same_element(g.star(), g)
        assert same_element(g * g, blade(k, 0))
        for i in range(k):
            ri = blade(k, 1 << i)
            assert same_element(ri * ri, blade(k, 0))
            for j in range(i + 1, k):
                rj = blade(k, 1 << j)
                assert not np.any((ri * rj + rj * ri).data)
    for r in range(0, 7):
        for s in range(0, 7 - r):
            g = gamma_element(r + s)
            expect = g.scale((-1.0) ** (mu(r - s) % 2))
            rs = real_structure_from_signature(CliffordSignature(r, s))
            assert same_element(apply_real_structure(rs, g), expect)
    report(1, "clifford exactness", "all identities exact for r+s <= 6")


def test_criterion_02_psi_e_and_trace_identity():
    grid = TorusGrid(())
    m = 3
    e = AlgElement(grid, m, 2)
    e.data[1] = np.eye(m)  # sigma_x of the host Clifford factor

    def random_homogeneous():
        x = AlgElement(grid, m, 4)
        parity = int(RNG.integers(0, 2))
        for mask in range(16):
            if bin(mask).count("1") % 2 == parity:
                x.data[mask] = (RNG.integers(-3, 4, (m, m))
                                + 1j * RNG.integers(-3, 4, (m, m)))
        return x

    from dkpair.grid_alg import _split_cl2
    worst_hom = worst_tr = 0.0
    for _ in range(64):
        u, v = random_homogeneous(), random_homogeneous()
        diff = psi_e(u * v, e) - psi_e(u, e) * psi_e(v, e)
        worst_hom = max(worst_hom, float(np.max(np.abs(diff.data))))
        # trace identity: integral of the Cl_2 contraction of u equals half
        # the integral of the matrix trace of psi_e(u)
        x0, x1, x2, x3 = _split_cl2(u)
        signed = AlgElement(grid, m, 2)
        for mask in range(4):
            signed.data[mask] = ((-1) ** (bin(mask).count("1") % 2)) * x3.data[mask]
        lhs = j_functional(trace(signed))
        big = psi_e(u, e)
        tr2 = AlgElement(grid, m, 2,
                         big.data[..., :m, :m] + big.data[..., m:, m:])
        rhs = 0.5 * j_functional(trace(tr2))
        worst_tr = max(worst_tr, abs(lhs - rhs))
    assert worst_hom == 0.0
    assert worst_tr == 0.0
    report(2, "psi_e homomorphism + trace identity",
           "64 homogeneous pairs, residual 0.0")


def test_criterion_03_ch0_values():
    grid = TorusGrid(())
    worst = 0.0
    hstruct = RealStructureSpec(fiber="h")
    for trial in range(100):
        m = 4 + 2 * int(RNG.integers(0, 2))
        a = RNG.standard_normal((m, m)) + 1j * RNG.standard_normal((m, m))
        a = (a + np.conj(a.T)) / 2
        if trial % 2:
            # quaternionic (Kramers) class: positive spectral projection
            field = AlgElement.from_matrix_field(grid, a)
            sym = (field + apply_real_structure(hstruct, field)).scale(0.5)
            h = sym.data[0]
        else:
            h = a
        w, v = np.linalg.eigh(h)
        keep = w > 0
        p = (v * keep) @ np.conj(v.T)
        rank = int(keep.sum())
        x = make_osu_from_hamiltonian(
            AlgElement.from_matrix_field(grid, 2 * p - np.eye(m)))
        e = BasePoint.standard_rho(grid, m, 1, sign=-1)
        val = pair(ch0(), x, e)
        worst = max(worst, abs(val - rank))
        if trial % 2:
            assert abs(val.real - round(val.real)) <= 1e-9
            assert round(val.real) % 2 == 0
    assert worst < 1e-9
    report(3, "ch0 counts ranks, Kramers ranks even",
           f"100 trials, worst residual {worst:.1e}")


def test_criterion_04_ko2_ground_truth():
    grid = TorusGrid(())
    x, e, y = ko2_generator(grid)
    xt = (y * x).scale(-1j)
    et = (y * e.e).scale(-1j)
    val = pair(ch0(), osu_validate(xt, 1e-12), BasePoint(et))
    assert val == 2.0 + 0.0j
    delta = torsion_pairing_closed_form(ch0(), x, e, y, 2.0)
    assert delta.distance(1.0) < 1e-12
    report(4, "KO2 torsion ground truth",
           f"<ch0,[x~]> = {val.real:g}, Delta = {delta.reduced:g} mod 2")


def test_criterion_05_winding():
    tgrid = TorusGrid((256,), ("time",))
    worst = 0.0
    for n in (-3, -1, 0, 1, 2, 5):
        u = winding_unitary(tgrid, n)
        worst = max(worst, abs(winding_number(u) - 2j * np.pi * n))
    assert worst < 1e-10
    sy = np.array([[0, -1j], [1j, 0]])
    t = tgrid.coordinates(0)
    u3 = AlgElement.from_matrix_field(
        tgrid, np.exp(2j * np.pi * t)[:, None, None] * (1j * sy))
    res3 = abs(winding_number(u3) - 4j * np.pi)
    assert res3 < 1e-10
    report(5, "winding pairings",
           f"modes worst {worst:.1e}, KO3 example residual {res3:.1e}")


def test_criterion_06_chern_qwz():
    values = {}
    for mass, expect in ((1.0, 1), (3.0, 0)):
        chs = []
        for n in (64, 128):
            grid = TorusGrid((n, n))
            s = flatten(qwz_symbol(grid, mass))
            p = (s + AlgElement.unit(grid, 2, 0)).scale(0.5)
            chs.append(chern_number(p))
        res = abs(chs[0] - round(chs[0]))
        assert res < 1e-8
        assert round(chs[0]) == round(chs[1])
        assert abs(round(chs[0])) == expect
        values[mass] = (chs[0], res)
    report(6, "QWZ Chern numbers",
           f"mass 1: {values[1.0][0]:+.10f} (res {values[1.0][1]:.1e}), "
           f"mass 3: {values[3.0][0]:+.1e}; stable under doubling")


def test_criterion_07_selection_rules_vanishing():
    grid = TorusGrid((32, 32))
    # ch2 against a time-reversal invariant (quaternionic) class
    h = decoupled_tri_symbol(grid, 1.0)
    x = make_osu_from_hamiltonian(h)
    e = BasePoint.standard_rho(grid, 4, 1, sign=-1)
    v1 = abs(pair(ch2(), x, e))
    assert v1 < 1e-10
    # ch0 against a class conjugate to the KO2 base point
    pgrid = TorusGrid(())
    x0, e0, y0 = ko2_generator(pgrid)
    w = AlgElement(pgrid, 2, 1)
    a = RNG.standard_normal((2, 2))
    w.data[0] = (a + a.T) / 2
    u = unitary_exp(w)
    conj = osu_validate(u * e0.e * u.star(), 1e-10)
    v2 = abs(pair(ch0(), conj, e0))
    assert v2 < 1e-10
    # trivially graded even k + n: the contraction is structurally zero
    tgrid = TorusGrid((64,), ("time",))
    hfield = AlgElement.from_matrix_field(
        tgrid, (np.cos(2 * np.pi * tgrid.coordinates(0)) + 2.0)[:, None, None]
        * np.eye(1))
    x1 = make_osu_from_hamiltonian(hfield)
    v3 = abs(pair(ch1(), x1, BasePoint.standard_rho(tgrid, 1, 1, -1)))
    assert v3 < 1e-10
    report(7, "selection-rule vanishing",
           f"ch2/TRI {v1:.1e}, ch0/conjugated {v2:.1e}, ch1/k=1 {v3:.1e}")


def test_criterion_08_pimsner_formula():
    grid = TorusGrid(())
    m = 4
    a = RNG.standard_normal((m, m)) + 1j * RNG.standard_normal((m, m))
    a = (a + np.conj(a.T)) / 2
    _, v = np.linalg.eigh(a)
    p = v[:, :1] @ np.conj(v[:, :1].T)
    x = make_osu_from_hamiltonian(
        AlgElement.from_matrix_field(grid, 2 * p - np.eye(m)))
    e = BasePoint.standard_rho(grid, m, 1, sign=-1)
    v0 = pair(ch0(), x, e)
    vs = pair_suspended(ch0(), bott_loop(x, e, order=64))
    rel0 = abs(vs - pimsner_constant(0) * v0) / abs(pimsner_constant(0) * v0)
    assert rel0 < 1e-8
    g32 = TorusGrid((32, 32))
    x2 = make_osu_from_hamiltonian(qwz_symbol(g32, 1.0))
    e2 = BasePoint.standard_rho(g32, 2, 1, sign=-1)
    v2 = pair(ch2(), x2, e2)
    vs2 = pair_suspended(ch2(), bott_loop(x2, e2, order=64))
    rel2 = abs(vs2 - pimsner_constant(2) * v2) / abs(pimsner_constant(2) * v2)
    assert rel2 < 1e-5
    report(8, "suspension constants",
           f"n=0 rel err {rel0:.1e}, n=2 rel err {rel2:.1e}")


def test_criterion_09_torsion_cross_validation():
    pgrid = TorusGrid(())
    x, e, y = ko2_generator(pgrid)
    closed = torsion_pairing_closed_form(ch0(), x, e, y, 2.0)
    loop = torsion_loop(x, e, y,
                        rs=RealStructureSpec(fiber="c", clifford_signs=(-1,)),
                        order=64)
    via = torsion_pairing_via_loop(ch0(), loop, 2.0)
    d1 = via.distance(closed)
    assert d1 < 1e-6
    grid = TorusGrid((32, 32))
    cyc = ch2()
    h = decoupled_tri_symbol(grid, 1.0)
    xk = make_osu_from_hamiltonian(h)
    ek = BasePoint.standard_rho(grid, 4, 1, sign=-1)
    yk = spin_y(grid, 4)
    closed_k = torsion_pairing_closed_form(cyc, xk, ek, yk,
                                           MODULUS_KANE_MELE_CH2)
    loop_k = torsion_loop(xk, ek, yk, rs=quaternionic_structure(k=1),
                          derivations=cyc.derivations, order=64)
    via_k = torsion_pairing_via_loop(cyc, loop_k, MODULUS_KANE_MELE_CH2)
    d2 = via_k.distance(closed_k)
    assert d2 < 1e-6
    report(9, "torsion route cross-validation",
           f"KO2 distance {d1:.1e}, Kane-Mele distance {d2:.1e}")


def test_criterion_10_order_two():
    pgrid = TorusGrid(())
    x, e, y = ko2_generator(pgrid)
    xx = osu_validate(direct_sum(x, x), 1e-12)
    ee = BasePoint(direct_sum(e.e, e.e))
    ydbl = AlgElement(pgrid, 4, 1)
    ydbl.data[0][..., :2, 2:] = np.eye(2)
    ydbl.data[0][..., 2:, :2] = -np.eye(2)
    delta0 = torsion_pairing_closed_form(ch0(), xx, ee, ydbl, 2.0)
    assert delta0.distance(0.0) < 1e-6
    grid = TorusGrid((32, 32))
    cyc = ch2()
    h = decoupled_tri_symbol(grid, 1.0)
    xk = make_osu_from_hamiltonian(h)
    ek = BasePoint.standard_rho(grid, 4, 1, sign=-1)
    xxk = osu_validate(direct_sum(xk, xk), 1e-10)
    eek = BasePoint(direct_sum(ek.e, ek.e))
    yk = AlgElement(grid, 8, 1)
    yk.data[0][..., :4, 4:] = np.eye(4)
    yk.data[0][..., 4:, :4] = -np.eye(4)
    delta1 = torsion_pairing_closed_form(cyc, xxk, eek, yk,
                                         MODULUS_KANE_MELE_CH2)
    assert delta1.distance(0.0) < 1e-6
    # the loop on the class with its copy and spin factors swapped, where the
    # standard quaternionic structure fixes it
    loop = torsion_loop(*swapped_doubled_class(xxk, eek, yk),
                        rs=quaternionic_structure(k=1),
                        derivations=cyc.derivations, order=48)
    via = torsion_pairing_via_loop(cyc, loop, MODULUS_KANE_MELE_CH2)
    assert via.distance(0.0) < 1e-6
    report(10, "doubled classes are trivial",
           f"KO2 {delta0.distance(0.0):.1e}, Kane-Mele closed "
           f"{delta1.distance(0.0):.1e} / loop {via.distance(0.0):.1e}")


def test_criterion_11_kane_mele_z2():
    grid = TorusGrid((32, 32))
    cyc = ch2()
    results = {}
    for label, h1 in (("spin1", qwz_symbol(grid, 1.0)),
                      ("spin2", _stacked_qwz(grid))):
        h = spin_double(h1)
        x = make_osu_from_hamiltonian(h)
        e = BasePoint.standard_rho(grid, h.m, 1, sign=-1)
        y = spin_y(grid, h.m)
        delta = torsion_pairing_closed_form(cyc, x, e, y,
                                            MODULUS_KANE_MELE_CH2)
        sc = band_chern(flatten(h1))
        z2 = delta.z2_class(2 * np.pi)
        assert abs(2 * np.pi * delta.value - round(2 * np.pi * delta.value)) <= 1e-4
        assert abs(sc - round(sc)) <= 1e-6
        assert z2 == round(sc) % 2
        # the class value is the stated commutator trace mod 1/pi
        p1 = (flatten(h1) + AlgElement.unit(grid, h1.m, 0)).scale(0.5)
        d1 = 0
        d2 = 1
        from dkpair.grid_alg import apply_derivation
        comm = (apply_derivation(d1, p1) * apply_derivation(d2, p1)
                - apply_derivation(d2, p1) * apply_derivation(d1, p1))
        target = -1j * scalar_trace(p1 * comm)
        assert abs(target.imag) < 1e-10
        dist = delta.distance(target.real)
        assert dist < 1e-6
        results[label] = (z2, sc, dist)
    assert results["spin1"][0] == 1
    assert results["spin2"][0] == 0
    report(11, "Kane-Mele Z2",
           f"spin Chern 1 -> class 1 (dist {results['spin1'][2]:.1e}), "
           f"spin Chern 2 -> class 0 (dist {results['spin2'][2]:.1e})")


def _stacked_qwz(grid):
    single = qwz_hoppings(1.0)
    stacked = {off: np.kron(np.eye(2), mat) for off, mat in single.items()}
    return symbol_from_hoppings(grid, stacked, 4)


def test_criterion_12_floquet():
    grid = TorusGrid((32, 32))
    rs = quaternionic_structure(k=0)
    # the partner doubling of the block drive (h1, 0.7 h1): segments
    # diag(h1, 0.7 f h1) and its time reverse diag(0.7 h1, f h1)
    h1 = qwz_symbol(grid, 1.0)
    drive = fl.SpinDoubledDrive(fl.FloquetDrive(1.0, ((0.5, h1), (0.5, h1.scale(0.7)))))
    ha, hb = (h for _, h in doubled_segments(drive))
    assert (hb - apply_real_structure(rs, ha)).norm_inf() == 0.0
    assert mirroring_residual(materialized(drive)) < 1e-12
    z0, z1 = 1.0 + 0j, np.exp(1j * np.pi)
    b0, b1 = fl.branch_pair(z0, z1, drive.period)
    heff0 = fl.effective_hamiltonian(drive, b0)
    heff1 = fl.effective_hamiltonian(drive, b1)
    arc = fl.arc_projection(drive, z0, z1)
    ident = ((heff1 - heff0).scale(-1j * drive.period)
             - arc.projection.scale(2j * np.pi)).norm_inf()
    assert ident < 1e-9
    loop0 = fl.periodized_evolution(drive, b0, 256)
    per = fl.periodicity_residual(loop0)
    sym = tri_symmetry_residual(drive, b0, rs)
    assert per < 1e-9 and sym < 1e-9
    # degree on the projection exponential equals the Chern oracle
    p_up, _ = split_blocks(arc.projection)
    ch_up = chern_number(p_up)
    deg = fl.degree_t3(exp_projection_loop(p_up, 128, sign=-1.0))
    assert abs(deg - round(deg)) < 1e-3
    assert round(deg) == round(ch_up)
    # K from the half-completed degree difference and the decoupled route
    degs = []
    for b in (b0, b1):
        vloop = fl.periodized_evolution(drive, b, 256)
        degs.append(fl.degree_t3(fl.decoupled_contraction(vloop)))
    assert all(abs(d - round(d)) <= 1e-3 for d in degs), degs
    k_deg = (round(degs[1]) - round(degs[0])) % 2
    kval, ch = fl.ArcInvariant(drive, z0, z1).decoupled()
    sc = band_chern(flatten(qwz_symbol(grid, 1.0)))
    assert abs(ch - round(ch)) <= 1e-6 and abs(sc - round(sc)) <= 1e-6
    assert kval == round(sc) % 2 == k_deg == 1
    report(12, "Floquet pipeline",
           f"branch identity {ident:.1e}, periodicity {per:.1e}, symmetry "
           f"{sym:.1e}, deg residual {abs(deg - round(deg)):.1e}, K = "
           f"{kval} (= spin Chern parity, = degree route)")
