"""Built-in verification suites behind `dkpair verify`.

Each suite records pass/fail lines with residuals into a Report; the
expected values are either exact algebraic identities or the worked
low-dimensional class computations; a verdict records its mismatch as the
residual, against tolerance 0.  A suite takes the momentum and time sample
counts it reads as the keywords `grid_n` and `t_n`, which `dkpair verify`
fills from `--grid` and `--tgrid`.
"""

from __future__ import annotations

import numpy as np

from . import pairing
from .clifford import CliffordSignature, mu, parity
from .grid_alg import (AlgElement, RealStructureSpec, TorusGrid, _element,
                       _split_cl2, apply_real_structure, blade, constant_view,
                       direct_sum, gamma_element, j_functional, psi_e, trace)
from .kclass import BasePoint, bott_loop, make_osu_from_hamiltonian, \
    osu_validate, torsion_loop
from .models import decoupled_tri_symbol, qwz_symbol, quaternionic_structure, \
    winding_unitary


def _rng():
    return np.random.default_rng(20240901)


def suite_clifford(report):
    """Clifford identities on point elements, by the operations pairings run."""
    rng = _rng()
    for k in range(0, 7):
        g = gamma_element(k)
        report.check(f"gamma_{k}_self_adjoint", (g.star() - g).norm_inf(), 0.0)
        report.check(f"gamma_{k}_squares_to_1",
                     (g * g - blade(k, 0)).norm_inf(), 0.0)
    worst_acom = 0.0
    for k in range(2, 7):
        for i in range(k):
            for j in range(i + 1, k):
                ri, rj = blade(k, 1 << i), blade(k, 1 << j)
                worst_acom = max(worst_acom, (ri * rj + rj * ri).norm_inf())
    report.check("generators_anticommute", worst_acom, 0.0)
    worst = 0.0
    for r in range(0, 7):
        for s in range(0, 7 - r):
            g = gamma_element(r + s)
            expect = g.scale((-1.0) ** (mu(r - s) % 2))
            rs = RealStructureSpec(clifford_signs=CliffordSignature(r, s).signs)
            worst = max(worst, (apply_real_structure(rs, g) - expect).norm_inf())
    report.check("real_structure_on_gamma", worst, 0.0)
    # psi_e homomorphism and the half-trace identity, host M_m (x) Cl_2
    grid = TorusGrid(())
    m = 3
    e = AlgElement(grid, m, 2)
    e.data[1] = np.eye(m)  # sigma_x of the host Clifford factor
    worst_hom = 0.0
    worst_tr = 0.0
    for _ in range(64):
        u = _random_homogeneous(rng, grid, m, 4)
        v = _random_homogeneous(rng, grid, m, 4)
        lhs = psi_e(u * v, e)
        rhs = psi_e(u, e) * psi_e(v, e)
        worst_hom = max(worst_hom, float(np.max(np.abs(lhs.data - rhs.data))))
        worst_tr = max(worst_tr, _half_trace_residual(u, e))
    report.check("psi_e_homomorphism", worst_hom, 0.0)
    report.check("psi_e_half_trace_identity", worst_tr, 0.0)


def _random_homogeneous(rng, grid, m, k):
    x = AlgElement(grid, m, k)
    degree = int(rng.integers(0, 2))
    for mask in np.flatnonzero(parity(k) == degree):
        x.data[mask] = (rng.integers(-3, 4, (m, m))
                        + 1j * rng.integers(-3, 4, (m, m)))
    return x


def _half_trace_residual(omega: AlgElement, e: AlgElement) -> float:
    x3 = _split_cl2(omega)[3]
    lhs = j_functional(trace(x3.grading()))  # trace of j-contraction of omega
    big = psi_e(omega, e)
    m = x3.m
    tr2 = AlgElement(x3.grid, m, x3.k,
                     big.data[..., :m, :m] + big.data[..., m:, m:])
    rhs = 0.5 * j_functional(trace(tr2))
    return abs(lhs - rhs)


def suite_selection_rules(report, *, grid_n, t_n):
    cases = [
        # (n, sign, parity, signature or degree, expected verdict, ray)
        (0, 1, 1, CliffordSignature(1, 0), None, "may-pair", "real"),
        (0, 1, 1, None, 2, "must-vanish", None),
        (0, 1, 1, None, 6, "must-vanish", None),
        (0, 1, 1, None, 4, "may-pair", "real"),
        (1, 1, 1, CliffordSignature(2, 0), None, "may-pair", "imaginary"),
        (2, 1, -1, CliffordSignature(1, 0), None, "must-vanish", None),
        (2, 1, -1, CliffordSignature(0, 1), None, "may-pair", "real"),
        (1, 1, 1, None, -1, "may-pair", "imaginary"),
        (1, 1, 1, None, 1, "must-vanish", None),
    ]
    for n, sgn, par, sig, deg, verdict, ray in cases:
        rule = pairing.selection_rule(n, sgn, par, sig=sig, degree=deg)
        label = f"rule_n{n}_sig{sig.r}{sig.s}" if sig else f"rule_n{n}_deg{deg}"
        report.check(label + "_" + verdict,
                     (rule.verdict, rule.value_ray) != (verdict, ray), 0.0)
    # numeric must-vanish: ch2 against a time-reversal invariant class
    grid = TorusGrid((grid_n, grid_n))
    h = decoupled_tri_symbol(grid, 1.0)
    x = make_osu_from_hamiltonian(h)
    e = BasePoint.standard_rho(grid, h.m, 1, sign=-1)
    val = pairing.pair(pairing.ch2(), x, e)
    report.check("ch2_vanishes_on_tri_class", abs(val), 1e-10)
    # numeric must-vanish: ch1 against a k=1 class (k+n even)
    tgrid = TorusGrid((t_n,), ("time",))
    u = winding_unitary(tgrid, 2)
    hfield = AlgElement.from_matrix_field(
        tgrid, (u.data[0] + np.conj(np.swapaxes(u.data[0], -1, -2))) / 2
        + 0.0j + 2.0 * np.eye(1))
    x1 = make_osu_from_hamiltonian(hfield)
    e1 = BasePoint.standard_rho(tgrid, 1, 1, sign=-1)
    val1 = pairing.pair(pairing.ch1(), x1, e1)
    report.check("ch1_vanishes_on_k1_class", abs(val1), 1e-10)


def suite_pimsner(report, *, grid_n):
    rng = _rng()
    grid = TorusGrid(())
    m = 4
    a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    a = (a + np.conj(a.T)) / 2
    w, v = np.linalg.eigh(a)
    p = v[:, :2] @ np.conj(v[:, :2].T)
    x = make_osu_from_hamiltonian(AlgElement.from_matrix_field(grid, 2 * p - np.eye(m)))
    e = BasePoint.standard_rho(grid, m, 1, sign=-1)
    v0 = pairing.pair(pairing.ch0(), x, e)
    vs = pairing.pair_suspended(pairing.ch0(), bott_loop(x, e, order=48))
    rel0 = abs(vs - pairing.pimsner_constant(0) * v0) / abs(
        pairing.pimsner_constant(0) * v0)
    report.check("pimsner_n0", rel0, 1e-8)
    g2 = TorusGrid((grid_n, grid_n))
    x2 = make_osu_from_hamiltonian(qwz_symbol(g2, 1.0))
    e2 = BasePoint.standard_rho(g2, 2, 1, sign=-1)
    cyc = pairing.ch2()
    v2 = pairing.pair(cyc, x2, e2)
    vs2 = pairing.pair_suspended(cyc, bott_loop(x2, e2, order=64))
    rel2 = abs(vs2 - pairing.pimsner_constant(2) * v2) / abs(
        pairing.pimsner_constant(2) * v2)
    report.check("pimsner_n2", rel2, 1e-5)


def _ko2_data():
    grid = TorusGrid(())
    sy = np.array([[0, -1j], [1j, 0]])
    e = _element(grid, 2, 1, {1: -sy})
    x = _element(grid, 2, 1, {1: sy})
    y = _element(grid, 2, 1, {0: 1j * sy})
    return osu_validate(x, 1e-12), BasePoint(e), y


def suite_torsion(report, *, grid_n):
    x, e, y = _ko2_data()
    cf = pairing.torsion_pairing_closed_form(pairing.ch0(), x, e, y, 2.0)
    rs = RealStructureSpec(fiber="c", clifford_signs=(-1,))
    loop = torsion_loop(x, e, y, rs=rs, order=48)
    vl = pairing.torsion_pairing_via_loop(pairing.ch0(), loop, 2.0)
    report.check("ko2_cross_validation", vl.distance(cf), 1e-6)
    report.check("ko2_nontrivial", cf.distance(1.0), 1e-9)
    grid = TorusGrid((grid_n, grid_n))
    h = decoupled_tri_symbol(grid, 1.0)
    x2 = make_osu_from_hamiltonian(h)
    e2 = BasePoint.standard_rho(grid, h.m, 1, sign=-1)
    yk = AlgElement(grid, h.m, 1)
    yk.data[0] = np.kron(np.diag([-1j, 1j]), np.eye(h.m // 2))
    cyc = pairing.ch2()
    cf2 = pairing.torsion_pairing_closed_form(cyc, x2, e2, yk,
                                              pairing.MODULUS_KANE_MELE_CH2)
    loop2 = torsion_loop(x2, e2, yk, rs=quaternionic_structure(k=1),
                         derivations=cyc.derivations, order=64)
    vl2 = pairing.torsion_pairing_via_loop(cyc, loop2,
                                           pairing.MODULUS_KANE_MELE_CH2)
    report.check("kane_mele_cross_validation", vl2.distance(cf2), 1e-6)
    report.check("kane_mele_order_two",
                 pairing.TorsionValue(2 * cf2.value, cf2.modulus).distance(0.0), 1e-6)
    del loop2  # it holds x2 (x) 1 and its derivatives
    # doubled class pairs to zero; its base point and symmetry are
    # grid-constant views, as in z2
    xx = osu_validate(direct_sum(x2, x2), 1e-9)
    ee = BasePoint(direct_sum(e2.e, e2.e))
    ydbl = AlgElement(grid, 2 * h.m, 1)
    ydbl.data[0][..., :h.m, h.m:] = np.eye(h.m)
    ydbl.data[0][..., h.m:, :h.m] = -np.eye(h.m)
    ydbl = constant_view(ydbl)
    cfd = pairing.torsion_pairing_closed_form(cyc, xx, ee, ydbl,
                                              pairing.MODULUS_KANE_MELE_CH2)
    report.check("doubled_class_trivial", cfd.distance(0.0), 1e-6)


def suite_ko_examples(report, *, t_n):
    rng = _rng()
    grid = TorusGrid(())
    # trace pairing on a random projection
    m = 5
    a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    a = (a + np.conj(a.T)) / 2
    w, v = np.linalg.eigh(a)
    p = v[:, :3] @ np.conj(v[:, :3].T)
    x = make_osu_from_hamiltonian(AlgElement.from_matrix_field(grid, 2 * p - np.eye(m)))
    e = BasePoint.standard_rho(grid, m, 1, sign=-1)
    val = pairing.pair(pairing.ch0(), x, e)
    report.check("ch0_counts_rank", abs(val - 3), 1e-12)
    # Kramers pairs force even ranks
    worst_parity = 0
    hstruct = RealStructureSpec(fiber="h")
    for _ in range(25):
        b = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        b = (b + np.conj(b.T)) / 2
        field = AlgElement.from_matrix_field(grid, b)
        sym = (field + apply_real_structure(hstruct, field)).scale(0.5)
        wq, vq = np.linalg.eigh(sym.data[0])
        proj = vq[:, wq > 0] @ np.conj(vq[:, wq > 0].T)
        rank = int(round(np.trace(proj).real))
        worst_parity = max(worst_parity, rank % 2)
    report.check("kramers_even_rank", worst_parity, 0.0)
    # winding examples
    tgrid = TorusGrid((t_n,), ("time",))
    u1 = winding_unitary(tgrid, 1)
    w1 = pairing.winding_number(u1)
    report.check("winding_one", abs(w1 - 2j * np.pi), 1e-10)
    sy = np.array([[0, -1j], [1j, 0]])
    t = tgrid.coordinates(0)
    u3 = AlgElement.from_matrix_field(
        tgrid, np.exp(2j * np.pi * t)[:, None, None] * (1j * sy))
    w3 = pairing.winding_number(u3)
    report.check("winding_ko3_doubles", abs(w3 - 4j * np.pi), 1e-10)
    # KO2 torsion generator
    x2, e2, y2 = _ko2_data()
    xt = (y2 * x2).scale(-1j)
    et = (y2 * e2.e).scale(-1j)
    vt = pairing.pair(pairing.ch0(), osu_validate(xt, 1e-12), BasePoint(et))
    report.check("ko2_twisted_pairing_two", abs(vt - 2), 1e-12)
    delta = pairing.torsion_pairing_closed_form(pairing.ch0(), x2, e2, y2, 2.0)
    report.check("ko2_delta_one_mod_two", delta.distance(1.0), 1e-9)
