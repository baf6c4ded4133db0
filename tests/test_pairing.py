import tracemalloc
from itertools import permutations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (chern_fhs, count_calls, dense_copy, ko2_generator,
                      psi_e_inverse, random_element, random_hermitian_field,
                      sigma_x_base_point, spin_y, unitary_exp)
from dkpair.clifford import CliffordSignature, mu
from dkpair.grid_alg import (AlgElement, RealStructureSpec, TorusGrid,
                             _mul_data, _mul_parts, _parts, apply_derivation,
                             apply_real_structure, direct_sum, psi_e,
                             spectral_derivative_data)
from dkpair.kclass import (BasePoint, ClosedSegment, LoopElement, _combine,
                           bott_loop, flatten, make_osu_from_hamiltonian,
                           osu_validate, torsion_loop)
from dkpair.models import (decoupled_tri_symbol, quaternionic_structure,
                           qwz_hoppings, qwz_symbol, spin_double,
                           symbol_from_hoppings, winding_unitary)
from dkpair import pairing
from dkpair.pairing import (MODULUS_KANE_MELE_CH2, TorsionValue,
                            _check_basepoint, _on_real_ray, _top_phase,
                            alt_trace, ch0, ch1, ch2, chern_number,
                            band_chern, mu_prime, pair, pair_suspended,
                            pimsner_constant, selection_rule,
                            torsion_pairing_closed_form,
                            torsion_pairing_via_loop, winding_number)

SY = np.array([[0, -1j], [1j, 0]], dtype=complex)


# ---------------------------------------------------------------------------
# the top-trace kernel
# ---------------------------------------------------------------------------

def alt_trace_oracle(z: AlgElement, diffs: list[AlgElement]) -> np.ndarray:
    """Permutation sum z * d_sigma(1) ... d_sigma(n) built from AlgElement
    products, then the matrix trace of its top Clifford component."""
    acc = AlgElement(z.grid, z.m, z.k)
    for perm in permutations(range(len(diffs))):
        inversions = sum(perm[i] > perm[j] for i in range(len(perm))
                         for j in range(i + 1, len(perm)))
        term = z
        for i in perm:
            term = term * diffs[i]
        acc = acc + term.scale((-1) ** inversions)
    return np.trace(acc.data[-1], axis1=-2, axis2=-1)


def _close(got, ref, rel=1e-12):
    return np.max(np.abs(got - ref)) <= rel * np.max(np.abs(ref))


@pytest.mark.parametrize("k", range(4))
@pytest.mark.parametrize("n", range(4))
def test_alt_trace_matches_permutation_sum(n, k, rng):
    grid = TorusGrid((4, 6))
    sets = [[random_element(rng, grid, 2, k) for _ in range(n + 1)]
            for _ in range(2)]
    refs = [alt_trace_oracle(z, diffs) for z, *diffs in sets]
    for (z, *diffs), ref in zip(sets, refs):
        got = alt_trace(z.data, [d.data for d in diffs], k)
        assert got.shape == grid.sizes
        assert _close(got, ref)
    # an extra batch axis after the component axis, as a loop's node axis
    stacked = [np.stack([a.data, b.data], axis=1) for a, b in zip(*sets)]
    got = alt_trace(stacked[0], stacked[1:], k)
    assert got.shape == (2, *grid.sizes)
    assert _close(got, np.stack(refs))
    # randomly zeroed Clifford components, which the kernel skips
    for z, *diffs in sets:
        for x in (z, *diffs):
            x.data[rng.random(1 << k) < 0.5] = 0
        got = alt_trace(z.data, [d.data for d in diffs], k)
        assert got.shape == grid.sizes
        assert _close(got, alt_trace_oracle(z, diffs))


@pytest.mark.parametrize("k", range(3))
def test_alt_trace_of_dead_diff_is_batch_shaped_zero(k, rng):
    grid = TorusGrid((4, 6))
    z, d = (random_element(rng, grid, 2, k) for _ in range(2))
    dead = AlgElement(grid, 2, k)
    for diffs in ([dead], [d, dead], [dead, d, d]):
        got = alt_trace(z.data, [x.data for x in diffs], k)
        assert got.shape == grid.sizes
        assert not np.any(got)


@pytest.mark.parametrize("k", range(3))
def test_alt_trace_writes_no_input(k, rng):
    # the same block passed twice, and as z: nothing is accumulated in place,
    # so the trace equals the one of distinct copies
    grid = TorusGrid((4, 6))
    d = random_element(rng, grid, 2, k)
    d.data[rng.random(1 << k) < 0.5] = 0
    before = d.data.copy()
    for n in range(1, 4):
        got = alt_trace(d.data, [d.data] * n, k)
        assert np.array_equal(d.data, before)
        assert np.array_equal(got, alt_trace(before.copy(),
                                             [before.copy() for _ in range(n)], k))


def test_mul_parts_forms_one_product_per_live_pair(rng, monkeypatch):
    k = 3
    grid = TorusGrid((4, 6))
    a, b = (random_element(rng, grid, 2, k).data for _ in range(2))
    a[[0, 3, 5, 6]] = 0
    b[[1, 2, 4, 7]] = 0
    products = []
    matmul = np.matmul

    def counted(x, y, **kwargs):
        products.append((x, y))
        return matmul(x, y, **kwargs)

    monkeypatch.setattr(np, "matmul", counted)
    parts = _mul_parts(_parts(a), _parts(b), k)
    monkeypatch.undo()
    live_a, live_b = [1, 2, 4, 7], [0, 3, 5, 6]
    assert len(products) == len(live_a) * len(live_b)
    assert sorted(parts) == sorted({s ^ t for s in live_a for t in live_b})
    dense = _mul_data(a, b, k)
    for u in range(1 << k):
        assert np.array_equal(dense[u], parts[u]) if u in parts else not np.any(dense[u])
    assert _mul_parts(_parts(a), {}, k) == {}


def test_alt_trace_cyclic_identity_at_k0(grid16, rng):
    a = [random_element(rng, grid16, 3, 0).data for _ in range(3)]
    unit = AlgElement.unit(grid16, 3, 0).data
    full = alt_trace(unit, a, 0)
    assert _close(full, 3 * alt_trace(a[0], a[1:], 0))


# ---------------------------------------------------------------------------
# ch0
# ---------------------------------------------------------------------------

def test_ch0_counts_rank(point_grid, rng):
    for m, rank in ((3, 1), (4, 2), (5, 3)):
        a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        a = (a + np.conj(a.T)) / 2
        _, v = np.linalg.eigh(a)
        p = v[:, :rank] @ np.conj(v[:, :rank].T)
        x = make_osu_from_hamiltonian(
            AlgElement.from_matrix_field(point_grid, 2 * p - np.eye(m)))
        e = BasePoint.standard_rho(point_grid, m, 1, sign=-1)
        val = pair(ch0(), x, e)
        assert abs(val - rank) < 1e-12


def test_ch0_needs_base_point(point_grid):
    x = osu_validate(AlgElement.unit(point_grid, 2, 0).append_generator())
    with pytest.raises(ValueError):
        pair(ch0(), x)


def test_ch0_quaternionic_classes_even(point_grid, rng):
    rs = RealStructureSpec(fiber="h")
    for _ in range(20):
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        a = (a + np.conj(a.T)) / 2
        field = AlgElement.from_matrix_field(point_grid, a)
        sym = (field + apply_real_structure(rs, field)).scale(0.5)
        x = make_osu_from_hamiltonian(sym)
        e = BasePoint.standard_rho(point_grid, 6, 1, sign=-1)
        val = pair(ch0(), x, e)
        n = round(val.real)
        assert abs(val.real - n) <= 1e-9
        assert n % 2 == 0


# ---------------------------------------------------------------------------
# winding
# ---------------------------------------------------------------------------

def winding_oracle(u: AlgElement) -> int:
    """Phase-unwrap of det U along the sampled loop (independent route)."""
    det = np.linalg.det(u.data[0])
    steps = np.angle(det[np.arange(1, det.size + 1) % det.size] / det)
    return int(round(steps.sum() / (2 * np.pi)))


def test_winding_single_modes(tgrid64):
    for n in (-2, 0, 1, 3):
        u = winding_unitary(tgrid64, n)
        w = winding_number(u)
        assert abs(w - 2j * np.pi * n) < 1e-10
        assert winding_oracle(u) == n


def test_winding_random_unitary_loop(tgrid64, rng):
    h0 = random_hermitian_field(rng, tgrid64, 2, modes=2)
    u = unitary_exp(h0)
    t = tgrid64.coordinates(0)
    tw = np.exp(2j * np.pi * t)[:, None, None] * np.eye(2)
    u = AlgElement.from_matrix_field(tgrid64, np.matmul(tw, u.data[0]))
    w = winding_number(u) / (2j * np.pi)
    assert abs(w.imag) < 1e-9
    assert abs(w.real - winding_oracle(u)) < 1e-8


def test_winding_ko3_type(tgrid64):
    t = tgrid64.coordinates(0)
    u = AlgElement.from_matrix_field(
        tgrid64, np.exp(2j * np.pi * t)[:, None, None] * (1j * SY))
    # KO_3 symmetry: conj(U) = -U^*
    assert np.allclose(np.conj(u.data[0]),
                       -np.conj(np.swapaxes(u.data[0], -1, -2)))
    assert abs(winding_number(u) - 4j * np.pi) < 1e-10


def test_winding_matches_ch1_pairing(tgrid64):
    u = winding_unitary(tgrid64, 2)
    x = AlgElement(tgrid64, 1, 2)
    x.data[1] = (u.data[0] + np.conj(np.swapaxes(u.data[0], -1, -2))) / 2
    x.data[2] = (u.data[0] - np.conj(np.swapaxes(u.data[0], -1, -2))) / 2j
    xo = osu_validate(x, 1e-10)
    e = sigma_x_base_point(tgrid64, 1, 2)
    val = pair(ch1(0), xo, e)
    assert abs(val - winding_number(u)) < 1e-10


def test_winding_momentum_axis_integrates_over_period():
    grid = TorusGrid((32,))
    k = grid.coordinates(0)
    for n in (-2, 1, 3):
        u = AlgElement.from_matrix_field(
            grid, np.exp(1j * n * k)[:, None, None] * np.eye(2))
        assert abs(winding_number(u) / (2j * np.pi) - 2 * n) < 1e-10


def test_winding_rejects_nonunitary(tgrid64):
    u = winding_unitary(tgrid64, 1).scale(0.5)
    with pytest.raises(ValueError):
        winding_number(u)


# ---------------------------------------------------------------------------
# chern
# ---------------------------------------------------------------------------

def test_chern_constant_projection(grid16):
    p = AlgElement.from_matrix_field(
        grid16, np.broadcast_to(np.diag([1.0, 0.0]), (16, 16, 2, 2)).copy())
    assert chern_number(p) == 0.0


def test_chern_qwz_against_oracle():
    grid = TorusGrid((32, 32))
    for mass, expect in ((1.0, 1), (3.0, 0), (-1.0, -1)):
        s = flatten(qwz_symbol(grid, mass))
        p = (s + AlgElement.unit(grid, 2, 0)).scale(0.5)
        ch = chern_number(p)
        assert abs(ch - expect) < 1e-8
        # plaquette-flux oracle carries the opposite orientation convention
        assert abs(chern_fhs(p) + expect) < 1e-8


def test_chern_additive(grid16):
    s1 = flatten(qwz_symbol(grid16, 1.0))
    p1 = (s1 + AlgElement.unit(grid16, 2, 0)).scale(0.5)
    s2 = flatten(qwz_symbol(grid16, -1.0))
    p2 = (s2 + AlgElement.unit(grid16, 2, 0)).scale(0.5)
    both = direct_sum(p1, p2)
    assert abs(chern_number(both) - chern_number(p1) - chern_number(p2)) < 1e-10


def test_chern_rejects_nonprojection(grid16):
    with pytest.raises(ValueError):
        chern_number(AlgElement.unit(grid16, 2, 0).scale(0.5))


def test_ch2_pairing_equals_chern_over_two_pi(qwz_osu):
    x, e = qwz_osu
    val = pair(ch2(), x, e)
    assert abs(val.imag) < 1e-10
    s = flatten(qwz_symbol(x.grid, 1.0))
    p = (s + AlgElement.unit(x.grid, 2, 0)).scale(0.5)
    assert abs(2 * np.pi * val.real - chern_number(p)) < 1e-9


# ---------------------------------------------------------------------------
# structural invariants of the pairing
# ---------------------------------------------------------------------------

def test_base_point_independence_positive_dimension(qwz_osu):
    x, e = qwz_osu
    with_e = pair(ch2(), x, e)
    without = pair(ch2(), x)
    assert abs(with_e - without) < 1e-10


def test_additivity(qwz_osu):
    x, e = qwz_osu
    xx = osu_validate(direct_sum(x, x), 1e-10)
    ee = BasePoint(direct_sum(e.e, e.e))
    v1 = pair(ch2(), x, e)
    v2 = pair(ch2(), xx, ee)
    assert abs(v2 - 2 * v1) < 1e-10


def test_homotopy_invariance_along_rotation(tgrid64):
    # path c_t x + s_t z between anticommuting OSUs built from U and i U sz
    t = tgrid64.coordinates(0)
    base = np.exp(2j * np.pi * t)[:, None, None] * np.diag([1.0, 1.0])
    u = AlgElement.from_matrix_field(tgrid64, base)
    v = AlgElement.from_matrix_field(tgrid64,
                                     1j * np.matmul(base, np.diag([1.0, -1.0])))

    def osu_of(w):
        x = AlgElement(tgrid64, 2, 2)
        x.data[1] = (w.data[0] + np.conj(np.swapaxes(w.data[0], -1, -2))) / 2
        x.data[2] = (w.data[0] - np.conj(np.swapaxes(w.data[0], -1, -2))) / 2j
        return x

    x, z = osu_of(u), osu_of(v)
    assert (x * z + z * x).norm_inf() < 1e-12
    e = sigma_x_base_point(tgrid64, 2, 2)
    values = []
    for s in np.linspace(0.0, 1.0, 16):
        mid = x.scale(np.cos(np.pi * s / 2)) + z.scale(np.sin(np.pi * s / 2))
        osu_validate(mid, 1e-10)
        values.append(pair(ch1(0), mid, e))
    values = np.array(values)
    assert np.max(np.abs(values - values[0])) < 1e-8
    assert abs(values[0] - 2 * 2j * np.pi) < 1e-9  # winding 2 at both ends


def test_value_ray_for_invariant_classes(grid16):
    # quaternionic classes of a spin-doubled symbol: ch2 must vanish
    h = decoupled_tri_symbol(grid16, 1.0)
    x = make_osu_from_hamiltonian(h)
    e = BasePoint.standard_rho(grid16, 4, 1, sign=-1)
    val = pair(ch2(), x, e)
    assert abs(val) < 1e-10


def test_conjugation_classes_pair_trivially(point_grid, rng):
    # classes conjugate to the base point under invariant even unitaries
    x0, e, y = ko2_generator(point_grid)
    a = rng.standard_normal((2, 2))
    w = AlgElement(point_grid, 2, 1)
    w.data[0] = (a + a.T) / 2  # even self-adjoint
    u = unitary_exp(w)
    conj_e = u * e.e * u.star()
    val = pair(ch0(), osu_validate(conj_e, 1e-10), BasePoint(e.e))
    assert abs(val) < 1e-10


# ---------------------------------------------------------------------------
# selection rules and constants
# ---------------------------------------------------------------------------

def test_selection_rule_examples():
    r = selection_rule(0, 1, 1, sig=CliffordSignature(1, 0))
    assert r.verdict == "may-pair" and r.value_ray == "real"
    assert selection_rule(0, 1, 1, degree=2).verdict == "must-vanish"
    assert selection_rule(0, 1, 1, degree=6).verdict == "must-vanish"
    r = selection_rule(1, 1, 1, degree=-1)
    assert r.verdict == "may-pair" and r.value_ray == "imaginary"
    assert selection_rule(1, 1, 1, degree=1).verdict == "must-vanish"
    # trivially graded, k + n even: vanishes regardless of signs
    assert selection_rule(1, 1, 1, sig=CliffordSignature(1, 0)).verdict == \
        "must-vanish"
    assert selection_rule(2, 1, -1, sig=CliffordSignature(1, 0)).verdict == \
        "must-vanish"
    assert selection_rule(2, 1, -1, sig=CliffordSignature(0, 1)).verdict == \
        "may-pair"


def test_mu_prime():
    assert [mu_prime(i) for i in (-2, -1, 0, 1, 2, 3, 4)] == [1, 0, 1, 0, 1, 0, 1]


def test_pimsner_constants_against_quadrature():
    t = np.linspace(0.0, 1.0, 40001)
    for n in range(0, 6):
        integral = np.trapezoid(np.sin(np.pi * t) ** n, t)
        expect = -1j * np.pi * 2 ** -0.5 * (n + 1) * integral
        assert abs(pimsner_constant(n) - expect) < 1e-7


def test_pimsner_constant_values():
    assert abs(pimsner_constant(0) - (-1j * np.pi / np.sqrt(2))) < 1e-15
    assert abs(pimsner_constant(1) - (-1j * 2 ** 1.5)) < 1e-15
    assert abs(pimsner_constant(2) - (-3j * np.pi * 2 ** -1.5)) < 1e-15


# ---------------------------------------------------------------------------
# consistency of the k and k+2 pairing routes
# ---------------------------------------------------------------------------

def test_pairing_route_consistency_via_psi_e(grid16):
    m = 2
    host_e = _one_rho(grid16, m)  # 1 (x) rho_1, odd self-inverse
    s = flatten(qwz_symbol(grid16, 1.0))
    big = direct_sum(s, s).append_generator()
    y_osu = osu_validate(big, 1e-10)  # in M_4(A) (x) Cl_1, pairing 2/(2 pi)
    e2 = direct_sum(host_e, host_e)
    x = psi_e_inverse(y_osu, host_e)
    osu_validate(x, 1e-10)
    tilde_e = psi_e_inverse(e2, host_e)
    cyc = ch2()
    lhs = pair(cyc, osu_validate(x, 1e-10), BasePoint(tilde_e))
    rhs = pair(cyc, y_osu, BasePoint(e2))
    assert abs(rhs) > 1e-3  # the class is topologically nontrivial
    assert abs(lhs - rhs) < 1e-10


def _one_rho(grid, m):
    e = AlgElement(grid, m, 1)
    e.data[1] = np.eye(m)
    return e


# ---------------------------------------------------------------------------
# suspension pairing
# ---------------------------------------------------------------------------

def test_suspended_pairing_constant_loop(point_grid):
    e = BasePoint.standard_rho(point_grid, 2, 1, sign=-1)
    x = osu_validate(e.e, 1e-12)
    loop = bott_loop(x, e, order=12)
    val = pair_suspended(ch0(), loop)
    assert abs(val) < 1e-13


def test_pair_suspended_takes_arc_loops_only(grid16):
    # a loop's arcs are integrated in closed form; a loop of stored samples
    # has none, and its node-by-node integral is the tests' oracle
    values = np.zeros((2, 9, 16, 16, 2, 2), dtype=complex)
    values[1] = np.eye(2)
    loop = LoopElement([ClosedSegment(values, 0.0, 1.0, grid16, 2, 1)], 1e-10)
    with pytest.raises(ValueError, match="ArcSegment"):
        pair_suspended(ch2(), loop)


def test_pimsner_identity_n0(point_grid, rng):
    m = 4
    a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    a = (a + np.conj(a.T)) / 2
    _, v = np.linalg.eigh(a)
    p = v[:, :1] @ np.conj(v[:, :1].T)
    x = make_osu_from_hamiltonian(
        AlgElement.from_matrix_field(point_grid, 2 * p - np.eye(m)))
    e = BasePoint.standard_rho(point_grid, m, 1, sign=-1)
    v0 = pair(ch0(), x, e)
    vs = pair_suspended(ch0(), bott_loop(x, e, order=48))
    assert abs(v0 - 1) < 1e-12
    assert abs(vs - pimsner_constant(0) * v0) < 1e-10


def test_pimsner_identity_n2(qwz_osu):
    x, e = qwz_osu
    cyc = ch2()
    v0 = pair(cyc, x, e)
    vs = pair_suspended(cyc, bott_loop(x, e, order=48))
    target = pimsner_constant(2) * v0
    assert abs(vs - target) / abs(target) < 1e-4


# ---------------------------------------------------------------------------
# torsion pairings
# ---------------------------------------------------------------------------

def test_torsion_value_arithmetic():
    v = TorsionValue(1.0, 2.0)
    assert v.reduced == 1.0
    assert v.distance(-1.0) == 0.0
    assert v.distance(0.0) == 1.0
    assert TorsionValue(2 * v.value, v.modulus).distance(0.0) <= 1e-12
    assert TorsionValue(2 * 0.7, 2.0).distance(0.0) > 1e-12
    km = TorsionValue(1 / (2 * np.pi), 1 / np.pi)
    assert km.z2_class(2 * np.pi) == 1
    assert TorsionValue(-1 / (2 * np.pi), 1 / np.pi).z2_class(2 * np.pi) == 1
    assert TorsionValue(1 / np.pi, 1 / np.pi).z2_class(2 * np.pi) == 0


def test_torsion_value_reduced_below_modulus():
    # np.mod rounds these tiny negative values up to the modulus itself
    for value, modulus in ((-3.25e-19, MODULUS_KANE_MELE_CH2), (-1e-17, 2.0)):
        assert np.mod(value, modulus) == modulus
        assert TorsionValue(value, modulus).reduced == 0.0
    assert TorsionValue(-0.5, 2.0).reduced == 1.5


def test_ko2_ground_truth(point_grid):
    x, e, y = ko2_generator(point_grid)
    xt = (y * x).scale(-1j)
    # the twisted class is 1 (x) Gamma and pairs to 2
    gamma = AlgElement(point_grid, 2, 1)
    gamma.data[1] = np.eye(2)
    assert (xt - gamma).norm_inf() < 1e-14
    et = (y * e.e).scale(-1j)
    val = pair(ch0(), osu_validate(xt, 1e-12), BasePoint(et))
    assert abs(val - 2) < 1e-12
    delta = torsion_pairing_closed_form(ch0(), x, e, y, 2.0)
    assert delta.distance(1.0) < 1e-12
    assert TorsionValue(2 * delta.value, delta.modulus).distance(0.0) <= 1e-9


def test_ko2_loop_route_cross_validation(point_grid):
    x, e, y = ko2_generator(point_grid)
    rs = RealStructureSpec(fiber="c", clifford_signs=(-1,))
    loop = torsion_loop(x, e, y, rs=rs, order=48)
    via = torsion_pairing_via_loop(ch0(), loop, 2.0)
    closed = torsion_pairing_closed_form(ch0(), x, e, y, 2.0)
    assert via.distance(closed) < 1e-9


def test_torsion_base_class_is_zero(point_grid):
    x, e, y = ko2_generator(point_grid)
    trivial = osu_validate(e.e, 1e-12)
    delta = torsion_pairing_closed_form(ch0(), trivial, e, y, 2.0)
    assert delta.distance(0.0) < 1e-12


def test_kane_mele_cross_validation(grid16):
    h = decoupled_tri_symbol(grid16, 1.0)
    x = make_osu_from_hamiltonian(h)
    e = BasePoint.standard_rho(grid16, 4, 1, sign=-1)
    y = spin_y(grid16, 4)
    cyc = ch2()
    closed = torsion_pairing_closed_form(cyc, x, e, y, MODULUS_KANE_MELE_CH2)
    loop = torsion_loop(x, e, y, rs=quaternionic_structure(k=1),
                        derivations=cyc.derivations, order=48)
    via = torsion_pairing_via_loop(cyc, loop, MODULUS_KANE_MELE_CH2)
    # N = 16 limits the flattened symbol's spectral accuracy to ~1e-5
    assert via.distance(closed) < 1e-4
    # the class value is the spin Chern number over 2 pi, mod 1/pi
    h1 = qwz_symbol(grid16, 1.0)
    sc = band_chern(flatten(h1))
    assert closed.distance(-sc / (2 * np.pi)) < 1e-4 or \
        closed.distance(sc / (2 * np.pi)) < 1e-4
    assert abs(sc - round(sc)) <= 1e-4
    assert closed.z2_class(2 * np.pi) == round(sc) % 2


def test_doubled_kane_mele_class_trivial(grid16):
    h = decoupled_tri_symbol(grid16, 1.0)
    x = make_osu_from_hamiltonian(h)
    e = BasePoint.standard_rho(grid16, 4, 1, sign=-1)
    xx = osu_validate(direct_sum(x, x), 1e-10)
    ee = BasePoint(direct_sum(e.e, e.e))
    y = AlgElement(grid16, 8, 1)
    y.data[0][..., :4, 4:] = np.eye(4)
    y.data[0][..., 4:, :4] = -np.eye(4)
    cyc = ch2()
    delta = torsion_pairing_closed_form(cyc, xx, ee, y, MODULUS_KANE_MELE_CH2)
    assert delta.distance(0.0) < 1e-6
    loop = torsion_loop(xx, ee, y, rs=quaternionic_structure(k=1, fiber_block=4),
                        derivations=cyc.derivations, order=48)
    via = torsion_pairing_via_loop(cyc, loop, MODULUS_KANE_MELE_CH2)
    assert via.distance(0.0) < 1e-6


def closed_form_full_size(cycle, x, e, y, modulus):
    """The closed form at full matrix size: Tr [p_y (x - e) (dx)^n]_top with
    the derivations of the whole x (reference for the compressed route)."""
    xb, eb = x, e.e
    unit = AlgElement.unit(xb.grid, xb.m, xb.k)
    p_y = (unit - y.scale(1j)).scale(0.5)
    diffs = [apply_derivation(dv, xb).data for dv in cycle.derivations]
    k, n = xb.k, cycle.n
    trace = complex(np.mean(alt_trace((p_y * (xb - eb)).data, diffs, k)))
    raw = trace * _top_phase(k, n) * cycle.scale(k) * (1j) ** (mu(n) % 4)
    return _on_real_ray((1j) ** ((n - 1 + mu_prime(k + 1)) % 4) * raw, modulus)


def doubled_kane_mele_data(grid):
    """The doubled Kane-Mele class with the block-swap y [[0, 1], [-1, 0]]."""
    h = decoupled_tri_symbol(grid, 1.0)
    x = make_osu_from_hamiltonian(h)
    e = BasePoint.standard_rho(grid, 4, 1, sign=-1)
    xx = osu_validate(direct_sum(x, x), 1e-10)
    ee = BasePoint(direct_sum(e.e, e.e))
    y = AlgElement(grid, 8, 1)
    y.data[0][..., :4, 4:] = np.eye(4)
    y.data[0][..., 4:, :4] = -np.eye(4)
    return xx, ee, y


@pytest.mark.parametrize("n", [16, 32])
@pytest.mark.parametrize("m", [4, 8])
def test_closed_form_matches_full_size_oracle_spin_y(n, m):
    # diag(-i, i) (x) 1: the compression is a column slice
    grid = TorusGrid((n, n))
    h1 = qwz_symbol(grid, 1.0)
    if m == 8:
        h1 = direct_sum(h1, qwz_symbol(grid, -1.5))
    x = make_osu_from_hamiltonian(spin_double(h1))
    e = BasePoint.standard_rho(grid, m, 1, sign=-1)
    y = spin_y(grid, m)
    got = torsion_pairing_closed_form(ch2(), x, e, y, MODULUS_KANE_MELE_CH2)
    want = closed_form_full_size(ch2(), x, e, y, MODULUS_KANE_MELE_CH2)
    assert got.distance(want) <= 1e-15
    assert got.z2_class(2 * np.pi) == (1 if m == 4 else 0)


def test_closed_form_matches_full_size_oracle_block_swap(grid16):
    # a y that is no diagonal projection: the compression is V* a V
    xx, ee, y = doubled_kane_mele_data(grid16)
    got = torsion_pairing_closed_form(ch2(), xx, ee, y, MODULUS_KANE_MELE_CH2)
    want = closed_form_full_size(ch2(), xx, ee, y, MODULUS_KANE_MELE_CH2)
    assert got.distance(want) <= 1e-15


def test_closed_form_matches_full_size_oracle_ko2(point_grid):
    x, e, y = ko2_generator(point_grid)
    got = torsion_pairing_closed_form(ch0(), x, e, y, 2.0)
    assert got.distance(closed_form_full_size(ch0(), x, e, y, 2.0)) <= 1e-15
    assert got.distance(1.0) <= 1e-15


def test_closed_form_rejects_varying_or_non_scalar_y(grid16):
    x, e, y = kane_mele_torsion_data(grid16, 1.0)
    # a spin axis that turns over the grid: p_y is a projection at every
    # point, but not a constant one
    theta = 0.1 * np.sin(grid16.coordinates(0))[:, None, None, None]
    g = (np.cos(theta) * np.eye(4)
         + 1j * np.sin(theta) * np.kron(np.array([[0, 1], [1, 0]]), np.eye(2)))
    turned = AlgElement(grid16, 4, 1)
    turned.data[0] = g @ y.data[0] @ np.conj(np.swapaxes(g, -1, -2))
    with pytest.raises(ValueError, match="grid-constant scalar projection"):
        torsion_pairing_closed_form(ch2(), x, e, turned, MODULUS_KANE_MELE_CH2)
    # k = 2: y = 1 (x) e1 e2 squares to -1, so (1 - i y)/2 is a projection,
    # but it lives on the e1 e2 component
    e2 = sigma_x_base_point(grid16, 4, 2)
    y2 = AlgElement(grid16, 4, 2)
    y2.data[3] = np.eye(4)
    with pytest.raises(ValueError, match="grid-constant scalar projection"):
        torsion_pairing_closed_form(ch2(), e2.e, e2, y2, MODULUS_KANE_MELE_CH2)
    # a constant scalar y that does not square to -1
    with pytest.raises(ValueError, match="not a projection"):
        torsion_pairing_closed_form(ch2(), x, e, y.scale(0.5), MODULUS_KANE_MELE_CH2)


def kane_mele_torsion_data(grid, mass, g=None):
    """OSU, base point and spin symmetry of the decoupled TRI model, its
    symbol optionally conjugated by a constant unitary g."""
    h = decoupled_tri_symbol(grid, mass)
    if g is not None:
        h = AlgElement.from_matrix_field(grid, g @ h.data[0] @ np.conj(g.T))
    x = make_osu_from_hamiltonian(h)
    return x, BasePoint.standard_rho(grid, h.m, 1, sign=-1), spin_y(grid, h.m)


def kane_mele_routes(grid, mass, order, g=None):
    x, e, y = kane_mele_torsion_data(grid, mass, g)
    cyc = ch2()
    closed = torsion_pairing_closed_form(cyc, x, e, y, MODULUS_KANE_MELE_CH2)
    loop = torsion_loop(x, e, y, rs=quaternionic_structure(k=1),
                        derivations=cyc.derivations, order=order)
    return closed, torsion_pairing_via_loop(cyc, loop, MODULUS_KANE_MELE_CH2)


def test_torsion_loop_route_derives_each_corner_once(grid16, monkeypatch):
    # a node's space derivative is built from its corners' derivatives, so
    # the pairing transforms the four corners once per axis, plus the base
    # point check; one transform per node and axis would make 2 * 4 * 16 + 2
    x, e, y = kane_mele_torsion_data(grid16, 1.0)
    cyc = ch2()
    loop = torsion_loop(x, e, y, rs=quaternionic_structure(k=1),
                        derivations=cyc.derivations, order=16)
    calls = count_calls(monkeypatch, spectral_derivative_data)
    torsion_pairing_via_loop(cyc, loop, MODULUS_KANE_MELE_CH2)
    assert len(calls) <= 5 * len(cyc.derivations)


def test_torsion_loop_route_products_do_not_grow_with_order(grid16, monkeypatch):
    # each arc is integrated in closed form from its corners, so the order
    # enters only through the weight moments; node by node the pairing took
    # 9 products per node, 4 * 9 * 48 at order 48
    x, e, y = kane_mele_torsion_data(grid16, 1.0)
    cyc = ch2()
    loops = [torsion_loop(x, e, y, rs=quaternionic_structure(k=1),
                          derivations=cyc.derivations, order=order)
             for order in (8, 48)]
    calls = count_calls(monkeypatch, _mul_parts)
    counts = []
    for loop in loops:
        before = len(calls)
        pair_suspended(cyc, loop)
        counts.append(len(calls) - before)
    assert counts[0] == counts[1] < 4 * 9 * 8


@pytest.mark.parametrize("route", ["torsion", "bott"])
def test_loop_route_forms_one_moment_block_per_degree(route, grid16, qwz_osu,
                                                      monkeypatch):
    # the antisymmetrized product of an arc's derivative factors is summed
    # per total degree, and each degree's moment block (the weight moments
    # combined over the arc's coefficients, less the base point) is formed
    # once; one per expansion term would make 18 per torsion arc and 135 on
    # the Bott arc
    cyc = ch2()
    if route == "torsion":
        x, e, y = kane_mele_torsion_data(grid16, 1.0)
        loop = torsion_loop(x, e, y, rs=quaternionic_structure(k=1),
                            derivations=cyc.derivations, order=16)
    else:
        loop = bott_loop(*qwz_osu, order=16)
    calls = count_calls(monkeypatch, _combine)
    pair_suspended(cyc, loop)
    factors = cyc.n + 1
    assert len(calls) == sum((len(arc.blocks) - 1) * factors + 1
                             for arc in loop.segments)


def test_bott_loop_route_products_do_not_grow_with_order(qwz_osu, monkeypatch):
    # the Bott loop is one arc of degree 4, integrated in closed form from
    # its five coefficients; node by node the pairing took 9 products per
    # node, 9 * 64 at order 64
    x, e = qwz_osu
    cyc = ch2()
    loops = [bott_loop(x, e, order=order) for order in (16, 64)]
    calls = count_calls(monkeypatch, _mul_parts)
    counts = []
    for loop in loops:
        before = len(calls)
        pair_suspended(cyc, loop)
        counts.append(len(calls) - before)
    assert counts[0] == counts[1] < 9 * 64


def test_pair_frees_the_derivatives_before_forming_x_minus_e():
    # the two derivatives of x, 2 elements, are contracted into Alt(dx), half
    # an element here, and freed before x - e, 1 element, is formed: the
    # pairing peaks near 3 elements, where holding them together took 4
    grid = TorusGrid((128, 128))
    stacked = {off: np.kron(np.eye(2), mat) for off, mat in qwz_hoppings(1.0).items()}
    x = make_osu_from_hamiltonian(symbol_from_hoppings(grid, stacked, 4))
    e = BasePoint.standard_rho(grid, 4, 1, sign=-1)
    tracemalloc.start()
    try:
        val = pair(ch2(), x, e)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(2 * np.pi * val.real - 2) <= 1e-6
    assert peak < 3.5 * x.data.nbytes


def test_torsion_loop_route_memory():
    # nothing of size order x grid is held: the node arrays of the four arcs
    # alone would take 4 * 2 * 32 MB here
    grid = TorusGrid((32, 32))
    x, e, y = kane_mele_torsion_data(grid, 1.0)
    cyc = ch2()
    tracemalloc.start()
    try:
        loop = torsion_loop(x, e, y, rs=quaternionic_structure(k=1),
                            derivations=cyc.derivations, order=32)
        torsion_pairing_via_loop(cyc, loop, MODULUS_KANE_MELE_CH2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20


@settings(max_examples=5, deadline=None)
@given(st.sampled_from([(0.7, 1.5), (2.7, 3.5)]), st.floats(0.0, 1.0),
       st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3))
@example((0.7, 1.5), 0.0, [0.3, -1.1, 0.7])
def test_torsion_routes_agree_and_are_gauge_invariant(window, where, b):
    # g = exp(i sigma_z (x) B) with B real symmetric commutes with the spin
    # symmetry y and with the quaternionic structure, so it is a gauge
    # transformation of the whole torsion datum
    grid = TorusGrid((24, 24))
    mass = window[0] + where * (window[1] - window[0])
    w, v = np.linalg.eigh(np.array([[b[0], b[1]], [b[1], b[2]]]))
    expb = (v * np.exp(1j * w)) @ v.T
    g = np.zeros((4, 4), complex)
    g[:2, :2], g[2:, 2:] = expb, np.conj(expb)
    closed, via = kane_mele_routes(grid, mass, 12)
    assert via.distance(closed) < 1e-6
    closed_g, via_g = kane_mele_routes(grid, mass, 12, g)
    assert closed_g.distance(closed) <= 1e-12
    assert via_g.distance(via) <= 1e-12


@settings(max_examples=15, deadline=None)
@given(st.floats(min_value=1e-9, max_value=1e8))
@example(1e-9)
@example(1e8)
def test_spin_chern_scale_invariant(lam):
    h = qwz_symbol(TorusGrid((16, 16)), 1.0)
    assert abs(band_chern(flatten(h.scale(lam))) - band_chern(flatten(h))) <= 1e-12


def _torsion_loop_route(h):
    """The Kane-Mele torsion value of a spin-doubled symbol by the loop route."""
    cyc = ch2()
    loop = torsion_loop(make_osu_from_hamiltonian(h),
                        BasePoint.standard_rho(h.grid, h.m, 1, sign=-1),
                        spin_y(h.grid, h.m), rs=quaternionic_structure(k=1),
                        derivations=cyc.derivations, order=8)
    return torsion_pairing_via_loop(cyc, loop, MODULUS_KANE_MELE_CH2)


@settings(max_examples=6, deadline=None)
@given(st.floats(min_value=1e-6, max_value=1e8))
@example(1e-6)
@example(1e8)
def test_torsion_loop_route_scale_invariant(lam):
    # sign(lambda h) = sign(h) for lambda > 0, so neither the class nor the
    # value of the loop route may see the energy scale
    h = decoupled_tri_symbol(TorusGrid((16, 16)), 1.0)
    ref, got = _torsion_loop_route(h), _torsion_loop_route(h.scale(lam))
    assert got.z2_class(2 * np.pi) == ref.z2_class(2 * np.pi) == 1
    assert got.distance(ref) <= 1e-10


def _ch2_pairing(h):
    """The pair --cycle ch2 value of a gapped two-dimensional symbol."""
    x = osu_validate(flatten(h).append_generator())
    e = BasePoint.standard_rho(h.grid, h.m, 1, sign=-1)
    return pair(ch2(), x, e)


@settings(max_examples=6, deadline=None)
@given(st.integers(0, 2 ** 31), st.sampled_from(["qwz", "noisy"]))
@example(0, "qwz")
@example(0, "noisy")
def test_spin_chern_and_ch2_gauge_invariant(seed, model):
    # g = exp(iB) with B a grid-constant hermitian matrix is a global gauge
    # transformation: neither invariant may see it
    grid = TorusGrid((16, 16))
    rng = np.random.default_rng(seed)
    h = qwz_symbol(grid, 1.0)
    if model == "noisy":
        noise = random_hermitian_field(np.random.default_rng(7), grid, 4, modes=1)
        h = direct_sum(h, qwz_symbol(grid, 1.5)) + noise.scale(0.01)
    a = rng.standard_normal((h.m, h.m)) + 1j * rng.standard_normal((h.m, h.m))
    w, v = np.linalg.eigh(a + np.conj(a.T))
    g = AlgElement.from_matrix_field(
        grid, np.broadcast_to((v * np.exp(1j * w)) @ np.conj(v.T),
                              (*grid.sizes, h.m, h.m)))
    hg = g * h * g.star()
    assert abs(band_chern(flatten(hg)) - band_chern(flatten(h))) <= 1e-9
    assert abs(_ch2_pairing(hg) - _ch2_pairing(h)) <= 1e-9


def test_spin_chern_examples(grid16):
    const = AlgElement.from_matrix_field(
        grid16, np.broadcast_to(np.diag([1.0, -1.0]), (16, 16, 2, 2)).copy())
    assert band_chern(flatten(const)) == 0.0
    assert abs(abs(band_chern(flatten(qwz_symbol(grid16, 1.0)))) - 1) < 1e-4


def test_value_ray_may_pair_case(tgrid64):
    # conj(U) = U^* classes pair with the winding character on the imaginary
    # ray; the transverse (real) component must vanish
    u = winding_unitary(tgrid64, 3)
    assert np.max(np.abs(np.conj(u.data[0])
                         - np.conj(np.swapaxes(u.data[0], -1, -2)))) < 1e-15
    val = winding_number(u)
    assert abs(val.real) < 1e-10
    assert abs(val.imag - 6 * np.pi) < 1e-10


def test_pairing_route_consistency_random_conjugates(grid16, rng):
    host_e = _one_rho(grid16, 2)
    s = flatten(qwz_symbol(grid16, 1.0))
    base = psi_e_inverse(direct_sum(s, s).append_generator(), host_e)
    tilde_e = psi_e_inverse(direct_sum(host_e, host_e), host_e)
    cyc = ch2()
    for _ in range(3):
        w = AlgElement(grid16, 2, 3)
        w.data[0] = random_hermitian_field(rng, grid16, 2, modes=1).data[0]
        u = unitary_exp(w)
        x = u * base * u.star()
        osu_validate(x, 1e-9)
        lhs = pair(cyc, x, BasePoint(tilde_e))
        big = psi_e(x, host_e)
        rhs = pair(cyc, big, BasePoint(direct_sum(host_e, host_e)))
        assert abs(lhs - rhs) < 1e-10


def test_pair_rejects_live_base_point(tgrid64, grid16, qwz_osu):
    # a base point not killed by the cycle derivation is refused
    u = winding_unitary(tgrid64, 1)
    x = AlgElement(tgrid64, 1, 2)
    x.data[1] = (u.data[0] + np.conj(np.swapaxes(u.data[0], -1, -2))) / 2
    x.data[2] = (u.data[0] - np.conj(np.swapaxes(u.data[0], -1, -2))) / 2j
    bad = AlgElement(tgrid64, 1, 2)
    bad.data[1] = x.data[1].copy()
    bad.data[2] = x.data[2].copy()
    with pytest.raises(ValueError, match="killed"):
        pair(ch1(0), osu_validate(x, 1e-10), bad)
    # so is a constant base point plus one small Fourier mode on either axis
    x, e = qwz_osu
    for shape in ((-1, 1), (1, -1)):
        live = dense_copy(e.e)
        mode = np.exp(1j * grid16.coordinates(shape.index(-1))).reshape(shape)
        live.data[1] += 1e-6 * mode[..., None, None]
        with pytest.raises(ValueError, match="killed"):
            pair(ch2(), x, live)


def test_basepoint_check_takes_no_transform_of_a_constant(qwz_osu, monkeypatch):
    # D kills constants: the check derives e less its value at the origin,
    # which has no live component for a grid-constant e
    x, e = qwz_osu
    calls = []
    fft = np.fft.fft
    monkeypatch.setattr(np.fft, "fft", lambda *a, **kw: calls.append(a) or fft(*a, **kw))
    _check_basepoint(ch2(), e.e)
    assert calls == []
    monkeypatch.undo()
    assert abs(pair(ch2(), x, e).real * 2 * np.pi - 1) < 1e-4


def test_constant_basepoint_forms_no_derivative_and_no_bound(qwz_osu, monkeypatch):
    # a grid-constant e costs one scan; an axis outside the grid still
    # raises, and an infinite constant, whose difference to itself is NaN,
    # still fails the check
    from dkpair import grid_alg
    from dkpair.pairing import CycleSpec
    _, e = qwz_osu
    derived = count_calls(monkeypatch, grid_alg.spectral_derivative_data)
    bounds = []
    bound = AlgElement._bound_or_norm
    monkeypatch.setattr(AlgElement, "_bound_or_norm",
                        lambda x, tol: bounds.append(tol) or bound(x, tol))
    _check_basepoint(ch2(), e.e)
    assert derived == [] and bounds == []
    with pytest.raises(ValueError, match="axis 2 out of range for d=2"):
        _check_basepoint(CycleSpec((2,), 0.0), e.e)
    infinite = dense_copy(e.e)
    infinite.data[1] = np.inf
    with pytest.raises(np.linalg.LinAlgError), np.errstate(invalid="ignore"):
        _check_basepoint(ch2(), infinite)


def test_closed_form_rejects_a_y_broadcast_along_one_axis_only(grid16):
    # y constant along axis 1 (a zero-stride view there) but turning along
    # axis 0: its distinct points still vary, and the check reads the
    # residual of its dense copy
    x, e, y = kane_mele_torsion_data(grid16, 1.0)
    theta = 0.1 * np.sin(grid16.coordinates(0))[:, None, None, None]
    g = (np.cos(theta) * np.eye(4)
         + 1j * np.sin(theta) * np.kron(np.array([[0, 1], [1, 0]]), np.eye(2)))
    column = np.zeros((2, 16, 1, 4, 4), dtype=complex)
    column[0] = g @ y.data[0][:, :1] @ np.conj(np.swapaxes(g, -1, -2))
    turned = AlgElement(grid16, 4, 1, np.broadcast_to(column, (2, 16, 16, 4, 4)))
    messages = []
    for y_turned in (turned, AlgElement(grid16, 4, 1, turned.data.copy())):
        with pytest.raises(ValueError, match="grid-constant scalar projection") as err:
            torsion_pairing_closed_form(ch2(), x, e, y_turned, MODULUS_KANE_MELE_CH2)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


def test_closed_form_checks_a_broadcast_y_at_one_point(monkeypatch):
    # z2's y = i 1 is a zero-stride view of one point: the check that y is
    # grid-constant forms its defect at that point, not at every grid point
    # (the pairing itself stubbed out, so the trace holds the check alone)
    grid, m = TorusGrid((64, 64)), 4
    stacked = {off: np.kron(np.eye(2), mat) for off, mat in qwz_hoppings(1.0).items()}
    x = make_osu_from_hamiltonian(symbol_from_hoppings(grid, stacked, m))
    e = BasePoint.standard_rho(grid, m, 1, sign=-1)
    iy = np.zeros((2, 1, 1, m, m), dtype=complex)
    iy[0] = 1j * np.eye(m)
    y = AlgElement(grid, m, 1, np.broadcast_to(iy, (2, *grid.sizes, m, m)))
    monkeypatch.setattr(pairing, "pair", lambda *args: 0j)
    tracemalloc.start()
    try:
        torsion_pairing_closed_form(ch2(), x, e, y, MODULUS_KANE_MELE_CH2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < y.data.nbytes / 4
