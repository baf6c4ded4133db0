import tracemalloc

import numpy as np
import pytest

from conftest import (StoredSegment, arc_nodes, count_calls, dense_copy,
                      exp_projection_loop, hermitian_calculus, ko2_generator,
                      pair_suspended_by_nodes, random_hermitian_field,
                      sample_osu_residual, shifted_qwz_hoppings, spin_y)
from dkpair import kclass
from dkpair.grid_alg import (AlgElement, RealStructureSpec, TorusGrid,
                             apply_real_structure, direct_sum, even_subgrid,
                             failing)
from dkpair.kclass import (ArcSegment, BasePoint, ClosedSegment, GapClosedError,
                           LoopElement, OsuValidationError, Segment, _corner,
                           _gauss_rule, _half_symmetry, bott_loop, flatten,
                           flatten_refinement, make_osu_from_hamiltonian,
                           osu_validate, torsion_loop)
from dkpair.models import (decoupled_tri_symbol, quaternionic_structure,
                           qwz_symbol, spin_double, symbol_from_hoppings)
from dkpair.pairing import (MODULUS_KANE_MELE_CH2, _arc_integral, alt_trace, ch0, ch2,
                            pair_suspended, torsion_pairing_via_loop)


def test_flatten_sign_function(point_grid):
    h = AlgElement.from_matrix_field(point_grid, np.diag([2.0, -0.5]))
    s = flatten(h)
    assert np.allclose(s.data[0], np.diag([1.0, -1.0]))


def test_flatten_idempotent_and_fixed_points(grid16, rng):
    h = random_hermitian_field(rng, grid16, 2, shift=4.0)
    s = flatten(h)
    assert (flatten(s) - s).norm_inf() < 1e-12
    one = AlgElement.unit(grid16, 2, 0)
    assert (s * s - one).norm_inf() < 1e-12
    assert (s - s.star()).norm_inf() < 1e-12
    # commutes with h pointwise
    assert (s * h - h * s).norm_inf() < 1e-11


def test_flatten_gap_error(grid16):
    h = AlgElement.from_matrix_field(
        grid16, np.broadcast_to(np.diag([1.0, 0.0]), (16, 16, 2, 2)).copy())
    with pytest.raises(GapClosedError) as err:
        flatten(h)
    assert err.value.smallest is not None


def test_flatten_zero_has_no_gap(grid16):
    with pytest.raises(GapClosedError):
        flatten(AlgElement(grid16, 2, 0))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_flatten_rejects_non_finite(grid16, rng, bad):
    # eigh returns NaN eigenvalues without raising; the gap check must not
    # pass them.  An element with a Clifford factor is refused before its
    # entries are read
    h = random_hermitian_field(rng, grid16, 2, shift=4.0)
    for x, error, message in ((h, np.linalg.LinAlgError, "non-finite"),
                              (h.append_generator(), ValueError, "k = 0, got k = 1")):
        x.data[0, 3, 5, 1, 1] = bad
        with pytest.raises(error, match=message), np.errstate(invalid="ignore"):
            flatten(x)


def _flattened_each(h):
    """(flatten(h_n), flatten(h)), each grid flattened on its own, or the
    (type, message) of the first error."""
    try:
        return flatten(even_subgrid(h)), flatten(h)
    except ValueError as exc:
        return type(exc), str(exc)


def _refinement_cases():
    fine = TorusGrid((16, 16))
    h = qwz_symbol(fine, 1.0)
    yield "gapped", h
    yield "gap closed at base points", qwz_symbol(fine, 0.0)
    yield "gap closed at an odd point only", symbol_from_hoppings(
        fine, shifted_qwz_hoppings(2.0, np.pi / 8), 2)
    yield "zero", AlgElement(fine, 2, 0)
    # an anti-self-adjoint defect on the even points, against |h_n| = 3
    defect = np.zeros_like(h.data)
    defect[:, ::2, ::2] = 1j * np.eye(2)
    for size in (1e-9, 1e-10):
        big = dense_copy(h)
        # |h| = 300 at one odd point: 1e-10 |h| passes the fine grid
        big.data[0, 3, 5] *= 100
        big.data += size * defect
        yield f"base defect {size:g}, fine scale 300", big
    yield "defect on both grids", AlgElement(fine, 2, 0, h.data + 1e-6 * np.triu(
        np.ones((2, 2)), 1))
    for point in ((2, 4), (3, 5)):
        bad = dense_copy(h)
        bad.data[(0, *point, 1, 1)] = np.nan
        yield f"NaN at {point}", bad


@pytest.mark.parametrize("case", [name for name, _ in _refinement_cases()])
def test_flatten_refinement_verdicts_are_each_grids(case, monkeypatch):
    # one flatten, on the refined grid, returns or raises what flattening the
    # base grid and then the refined grid returns or raises
    h = dict(_refinement_cases())[case]
    with np.errstate(invalid="ignore"):
        want = _flattened_each(h)
        calls = count_calls(monkeypatch, kclass.flatten)
        try:
            got = flatten_refinement(h)
        except ValueError as exc:
            got = type(exc), str(exc)
    if isinstance(want[0], type):
        assert got == want
        if case.startswith("NaN"):
            # eigh gives finite eigenvalues and NaN eigenvectors here; the
            # self-adjointness check names the input before any SVD
            assert got == (np.linalg.LinAlgError, "flatten of a non-finite element")
        return
    assert [s.grid.sizes for s in got] == [(8, 8), (16, 16)]
    assert all(np.array_equal(a.data, b.data) for a, b in zip(got, want))
    # a defect past the Frobenius settle is settled by flatten(h_n) itself
    assert len(calls) == (1 if case == "gapped" else 2)


def test_flatten_commutes_with_real_structure(grid16, rng):
    rs = quaternionic_structure(k=0)
    h1 = random_hermitian_field(rng, grid16, 2, shift=4.0)
    h = spin_double(h1)
    s = flatten(h)
    ok = (apply_real_structure(rs, s) - s).norm_inf()
    assert ok < 1e-12


def test_osu_validate(point_grid):
    one_rho = AlgElement.unit(point_grid, 2, 0).append_generator()
    osu_validate(one_rho, 1e-12)
    with pytest.raises(OsuValidationError):
        osu_validate(one_rho.scale(0.5), 1e-10)
    even = AlgElement.unit(point_grid, 2, 1)
    with pytest.raises(OsuValidationError):
        osu_validate(even, 1e-10)


def test_osu_validate_holds_one_defect_at_a_time():
    # the square defect is the product with the unit subtracted in place, live
    # with x: two elements, plus bookkeeping far below the 8 MiB element that
    # a second live defect would add.  x is dense, as a validated class is:
    # the base point is a broadcast view, which holds none of its 8 MiB
    x = dense_copy(BasePoint.standard_rho(TorusGrid((128, 128)), 4, 1).e)
    tracemalloc.start()
    try:
        osu_validate(x, 1e-10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * x.data.nbytes + 2 ** 18


def test_standard_rho_is_a_read_only_view_of_one_point():
    # grid-constant, the base point holds one point's block: its grid axes
    # have zero strides, and it cannot be written through
    grid = TorusGrid((16, 8))
    e = BasePoint.standard_rho(grid, 2, 2, sign=-1).e
    assert e.data.shape == (4, 16, 8, 2, 2)
    assert e.data.strides[1:3] == (0, 0)
    assert not e.data.flags.writeable
    with pytest.raises(ValueError):
        e.data[2, 3, 5] = 0.0
    assert np.array_equal(e.data[2], np.broadcast_to(-np.eye(2), (16, 8, 2, 2)))
    assert not np.any(np.delete(e.data, 2, axis=0))
    dense = dense_copy(e)
    assert dense.data.flags.writeable and np.array_equal(dense.data, e.data)


def named_residuals(message):
    """{name: formatted residual} from an error message ending in
    'name=residual, ...'."""
    return dict(item.split("=") for item in message.split(": ", 1)[1].split(", "))


def test_checks_name_every_failing_defect_and_skip_passing_svds(point_grid, monkeypatch):
    # every SVD taken is the exact norm of a failing defect, taken once (one
    # SVD on one grid point): a passing one, though nonzero, settles on the
    # Frobenius bound
    x = AlgElement(point_grid, 2, 1)
    x.data[0] = 0.3 * np.eye(2)
    x.data[1] = (0.5 + 1e-13j) * np.eye(2)
    osu_bad = {"even_part": x.homogeneous_part(0).norm_inf(),
               "square": (x * x - AlgElement.unit(point_grid, 2, 1)).norm_inf()}
    assert 0 < (x - x.star()).norm_inf() < 1e-10
    xo, e, y = ko2_generator(point_grid)
    y.data[0] += 0.1 * np.eye(2) + 1e-13 * np.diag([1.0, -1.0])
    torsion_bad = {"y_anti_self_adjoint": (y.star() + y).norm_inf(),
                   "y_unitary": (y * y.star() - AlgElement.unit(point_grid, 2, 1)).norm_inf()}
    assert 0 < (y * xo - xo * y).norm_inf() < 1e-10
    peaks = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        out = svd(*args, **kwargs)
        peaks.append(float(np.max(out)))
        return out

    monkeypatch.setattr(np.linalg, "svd", counted)
    with pytest.raises(OsuValidationError) as err:
        osu_validate(x, 1e-10)
    assert err.value.residuals == osu_bad
    assert named_residuals(str(err.value)) == {n: f"{r:.3e}" for n, r in osu_bad.items()}
    assert len(peaks) == len(osu_bad) and set(peaks) <= set(osu_bad.values())
    peaks.clear()
    with pytest.raises(ValueError) as err:
        torsion_loop(xo, e, y, order=8)
    assert named_residuals(str(err.value)) \
        == {n: f"{r:.3e}" for n, r in torsion_bad.items()}
    assert len(peaks) == len(torsion_bad) and set(peaks) <= set(torsion_bad.values())


def test_osu_midpoint_of_anticommuting_pair(point_grid):
    x = AlgElement(point_grid, 1, 2)
    x.data[1] = np.eye(1)
    z = AlgElement(point_grid, 1, 2)
    z.data[2] = np.eye(1)
    t = 0.3
    mid = x.scale(np.cos(np.pi * t / 2)) + z.scale(np.sin(np.pi * t / 2))
    osu_validate(mid, 1e-12)


def test_make_osu_examples(point_grid):
    one = AlgElement.unit(point_grid, 2, 0)
    x = make_osu_from_hamiltonian(one)
    expect = one.append_generator()
    assert (x - expect).norm_inf() == 0.0


def test_bott_loop_constant_at_base(point_grid):
    e = BasePoint.standard_rho(point_grid, 2, 1, sign=-1)
    x = osu_validate(e.e, 1e-12)
    loop = bott_loop(x, e, order=16)
    seg = loop.segments[0]
    rho_new = AlgElement.unit(point_grid, 2, 1).append_generator()
    nodes = list(arc_nodes(seg, ()))
    assert len(nodes) == seg.nodes.size
    for _, value, dvalue, _ in nodes:
        assert (AlgElement(seg.grid, seg.m, seg.k, value) - rho_new).norm_inf() < 1e-13
        assert np.max(np.abs(dvalue)) < 1e-13


def test_segment_names_its_reads(point_grid):
    # Segment answers neither read itself, and an arc answers ends() alone:
    # pair_suspended integrates it in closed form, not node by node
    with pytest.raises(NotImplementedError):
        Segment().ends()
    e = BasePoint.standard_rho(point_grid, 2, 1, sign=-1)
    arc, = bott_loop(osu_validate(e.e, 1e-12), e, order=8).segments
    with pytest.raises(NotImplementedError):
        arc.quadrature(())


def test_bott_loop_osu_samples_and_closure(qwz_osu):
    x, e = qwz_osu
    loop = bott_loop(x, e, order=24)
    assert sample_osu_residual(loop, 3) < 1e-10
    a, b = loop.segments[0].ends()
    assert AlgElement(loop.grid, loop.m, loop.k, a - b).norm_inf() < 1e-12


def test_bott_loop_matches_exponential_form(grid16):
    # for x = h (x) rho against e = -1 (x) rho the loop reduces exactly to
    # cos(2 pi t q)(1 (x) rho') - sin(2 pi t q) e (x) 1 with q = (1 + h)/2
    h = qwz_symbol(grid16, 1.0)
    x = make_osu_from_hamiltonian(h)
    e = BasePoint.standard_rho(grid16, 2, 1, sign=-1)
    loop = bott_loop(x, e, order=12)
    seg = loop.segments[0]
    s = flatten(h)
    q = (s.data[0] + np.eye(2)) / 2
    wq, vq = np.linalg.eigh(q)
    for j in (0, 5, 11):
        t = seg.nodes[j]
        c = np.einsum("...ij,...j,...kj->...ik", vq,
                      np.cos(2 * np.pi * t * wq), np.conj(vq))
        sn = np.einsum("...ij,...j,...kj->...ik", vq,
                       np.sin(2 * np.pi * t * wq), np.conj(vq))
        expect = AlgElement(grid16, 2, 2)
        expect.data[2] = c          # 1 (x) rho_new
        expect.data[1] = sn         # -sin * e (x) 1, e = -1 (x) rho_1
        assert (seg.at(t) - expect).norm_inf() < 1e-10


def test_torsion_loop_structure(point_grid):
    x, e, y = ko2_generator(point_grid)
    rs = RealStructureSpec(fiber="c", clifford_signs=(-1,))
    loop = torsion_loop(x, e, y, rs=rs, order=12)
    assert len(loop.segments) == 4
    start, half = (AlgElement(loop.grid, loop.m, loop.k, loop.segments[i].ends()[0])
                   for i in (0, 2))
    assert (start - e.e.append_generator(on_new=False)).norm_inf() < 1e-13
    assert (half - x.append_generator(on_new=False)).norm_inf() < 1e-13
    assert sample_osu_residual(loop, 2) < 1e-12


def test_torsion_loop_corner_products(point_grid):
    x, e, y = ko2_generator(point_grid)
    xb, eb = x, e.e
    a0 = eb.append_generator(on_new=False)
    a1 = AlgElement.unit(point_grid, 2, 1).append_generator()
    a2 = xb.append_generator(on_new=False)
    a3 = y.append_generator(coeff=1j)
    rho = AlgElement.unit(point_grid, 2, 1).append_generator()
    assert ((a0 * a1) - eb.append_generator()).norm_inf() == 0.0
    assert ((a1 * a2) + xb.append_generator()).norm_inf() == 0.0
    assert ((a2 * a3) - (y * xb).scale(1j).append_generator()).norm_inf() == 0.0
    assert ((a3 * a0) + (y * eb).scale(1j).append_generator()).norm_inf() == 0.0


def test_torsion_loop_precondition_failures(point_grid):
    x, e, y = ko2_generator(point_grid)
    bad_y = y.scale(0.5)
    with pytest.raises(ValueError, match="unitary"):
        torsion_loop(x, e, bad_y, order=8)
    askew = AlgElement(point_grid, 2, 1)
    askew.data[0] = np.diag([1j, 2j])
    with pytest.raises(ValueError):
        torsion_loop(x, e, askew, order=8)


def test_torsion_loop_half_symmetries(grid16):
    h = decoupled_tri_symbol(grid16, 1.0)
    x = make_osu_from_hamiltonian(h)
    e = BasePoint.standard_rho(grid16, 4, 1, sign=-1)
    y = spin_y(grid16, 4)
    rs = quaternionic_structure(k=1)
    loop = torsion_loop(x, e, y, rs=rs,
                        derivations=(0, 1), order=16)
    # first half invariant with the extra generator fixed, second negated
    from dkpair.grid_alg import check_invariance
    for seg, sign in ((loop.segments[0], 1), (loop.segments[3], -1)):
        ext = rs.extend(sign)
        mid = seg.at(seg.nodes[seg.nodes.size // 2])
        res = check_invariance(ext, mid)
        assert res <= 1e-12, res
        wrong = rs.extend(-sign)
        res_wrong = check_invariance(wrong, mid)
        assert res_wrong > 1e-3


def half_symmetry_oracle(segments, rs):
    """(name, real-structure defect) at every 8th node of the four torsion
    arcs, each formed from the node itself (reference): rs extended by a
    fixed generator on the first half, by a negated one on the second."""
    for i, seg in enumerate(segments):
        ext = rs.extend(1 if i < 2 else -1)
        for j in range(0, seg.nodes.size, 8):
            node = seg.at(seg.nodes[j])
            yield f"arc{i}_node{j}", apply_real_structure(ext, node) - node


def kane_mele_torsion_datum(grid):
    h = decoupled_tri_symbol(grid, 1.0)
    x = make_osu_from_hamiltonian(h)
    return x, BasePoint.standard_rho(grid, 4, 1, sign=-1), spin_y(grid, 4)


def test_half_symmetry_defects_match_per_node_oracle(grid16):
    # a node's defect is combined from its two corners' defects, with the
    # node's own (cos, sin) weights
    x, e, y = kane_mele_torsion_datum(grid16)
    rs = quaternionic_structure(k=1)
    loop = torsion_loop(x, e, y, rs=rs, derivations=(0, 1),
                        order=32)
    got = list(_half_symmetry(torsion_corners(x, e, y), loop.segments, rs))
    want = list(half_symmetry_oracle(loop.segments, rs))
    assert [name for name, _ in got] == [name for name, _ in want]
    assert len(got) == 16
    for (_, a), (_, b) in zip(got, want):
        assert np.max(np.abs(a.data - b.data)) <= 1e-15


def test_half_symmetry_flags_the_oracle_nodes_of_a_perturbed_corner(grid16, rng):
    # corner 0 ends arc 3 and starts arc 0, so it sits in both halves; its
    # perturbation is scaled to a real-structure defect of 2.5e-10, which
    # fails the 1e-10 check only where the corner's weight exceeds 0.4
    x, e, y = kane_mele_torsion_datum(grid16)
    rs = quaternionic_structure(k=1)
    corners = torsion_corners(x, e, y)
    p = AlgElement(grid16, 4, 2)
    p.data[0] = random_hermitian_field(rng, grid16, 4).data[0]
    p = p.scale(2.5e-10 / (apply_real_structure(rs.extend(1), p) - p).norm_inf())
    corners[0] = corners[0] + p
    ends = [_corner(c) for c in corners]
    segments = [ArcSegment(i / 4, (i + 1) / 4, 32, [ends[i], ends[(i + 1) % 4]])
                for i in range(4)]
    bad = failing(_half_symmetry(corners, segments, rs), 1e-10)
    want = failing(half_symmetry_oracle(segments, rs), 1e-10)
    assert list(bad) == list(want)
    assert {name.split("_")[0] for name in bad} == {"arc0", "arc3"}
    assert 0 < len(bad) < 8
    for name, residual in bad.items():
        assert residual == pytest.approx(want[name], rel=1e-9)


@pytest.mark.parametrize("order", [32, 48])
def test_torsion_loop_forms_one_real_structure_defect_per_corner(grid16, monkeypatch,
                                                                 order):
    # 3 precondition checks (y, x, e), then one defect per corner of each
    # half-loop: 3 + 6 calls at any order, where one per checked node made
    # 3 + 16 at order 32 and 3 + 24 at order 48
    x, e, y = kane_mele_torsion_datum(grid16)
    calls = count_calls(monkeypatch, apply_real_structure)
    torsion_loop(x, e, y, rs=quaternionic_structure(k=1),
                 derivations=(0, 1), order=order)
    assert len(calls) <= 3 + 6


def test_doubled_class_satisfies_property_y(grid16):
    h = decoupled_tri_symbol(grid16, 1.0)
    x = make_osu_from_hamiltonian(h)
    e = BasePoint.standard_rho(grid16, 4, 1, sign=-1)
    xx = osu_validate(direct_sum(x, x), 1e-10)
    ee = BasePoint(direct_sum(e.e, e.e))
    y = AlgElement(grid16, 8, 1)
    y.data[0][..., :4, 4:] = np.eye(4)
    y.data[0][..., 4:, :4] = -np.eye(4)
    rs = quaternionic_structure(k=1, fiber_block=4)
    loop = torsion_loop(xx, ee, y, rs=rs,
                        derivations=(0, 1), order=12)
    assert sample_osu_residual(loop, 4) < 1e-12


@pytest.mark.parametrize("second, gap", [((3, 1), "segment0_end"), ((2, 2), "segment1_end")])
def test_loop_with_a_gap_is_rejected_when_built(grid16, second, gap):
    # two halves, the first from 1 to 2 (times the unit); the second starts
    # 1 off the first one's end (an interior gap) or ends 1 off its start
    # (the wrap-around), and the message names that end alone
    one = np.broadcast_to(np.eye(2, dtype=complex), (1, 1, *grid16.sizes, 2, 2))
    s = np.linspace(0.0, 1.0, 7).reshape(1, 7, 1, 1, 1, 1)

    def half(a, b, t0):
        return ClosedSegment(((1 - s) * a + s * b) * one, t0, t0 + 0.5, grid16, 2, 0)

    LoopElement([half(1, 2, 0.0), half(2, 1, 0.5)], 1e-12)
    with pytest.raises(ValueError, match=rf"^loop discontinuous: {gap}=1\.000e\+00$"):
        LoopElement([half(1, 2, 0.0), half(*second, 0.5)], 1e-12)


def test_arc_ends_are_its_first_and_last_block(qwz_osu, grid16):
    # at(0) is P_0 exactly; at(1) adds cos(pi/2) = 6e-17 times P_(d-1)
    x, e = qwz_osu
    loops = [bott_loop(x, e, order=8), torsion_loop(*kane_mele_torsion_datum(grid16), order=8)]
    for seg in [seg for loop in loops for seg in loop.segments]:
        start, end = seg.ends()
        assert start is seg.blocks[0] and end is seg.blocks[-1]
        assert np.array_equal(start, seg.at(0.0).data)
        scale = max(np.max(np.abs(block)) for block in seg.blocks)
        assert np.max(np.abs(end - seg.at(1.0).data)) <= 1e-15 * scale


def test_torsion_loop_and_its_pairing_form_no_arc_element(grid16, monkeypatch):
    # the loop's continuity check and the pairing's base point read the
    # arcs' corner blocks, the half-symmetry check combines corner defects
    # and the pairing integrates each arc in closed form
    x, e, y = kane_mele_torsion_datum(grid16)
    at, calls = ArcSegment.at, []
    monkeypatch.setattr(ArcSegment, "at", lambda seg, s: calls.append(s) or at(seg, s))
    cycle = ch2()
    loop = torsion_loop(x, e, y, rs=quaternionic_structure(k=1),
                        derivations=cycle.derivations, order=32)
    torsion_pairing_via_loop(cycle, loop, MODULUS_KANE_MELE_CH2)
    assert calls == []


def gauss_segment(f, dfds, t0, t1, order, grid, m, k):
    """A stored segment with node arrays from callables s -> AlgElement on
    Gauss-Legendre nodes, which reach neither s = 0 nor s = 1: its ends are
    f(0) and f(1), held beside the nodes."""
    nodes, weights = _gauss_rule(order)
    values = np.zeros((1 << k, nodes.size, *grid.sizes, m, m), dtype=complex)
    derivs = np.zeros_like(values)
    for j, s in enumerate(nodes):
        values[:, j] = f(s).data
        derivs[:, j] = dfds(s).data
    return StoredSegment(t0, t1, nodes, weights, values, derivs, grid, m, k,
                         (f(0.0).data, f(1.0).data))


def test_gauss_rule_is_formed_once_per_order_and_read_only():
    nodes, weights = _gauss_rule(12)
    assert _gauss_rule(12)[0] is nodes
    xg, wg = np.polynomial.legendre.leggauss(12)
    assert np.array_equal(nodes, 0.5 * (xg + 1.0))
    assert np.array_equal(weights, 0.5 * wg)
    for a in (nodes, weights):
        with pytest.raises(ValueError):
            a[0] = 0.0


def torsion_corners(x, e, y):
    """The torsion loop's corners e (x) 1, 1 (x) rho, x (x) 1, y (x) i rho."""
    xb, eb = x, e.e
    unit = AlgElement.unit(xb.grid, xb.m, xb.k)
    return [eb.append_generator(on_new=False), unit.append_generator(),
            xb.append_generator(on_new=False), y.append_generator(coeff=1j)]


def materialized_torsion_segments(x, e, y, order, arcs=range(4)):
    """The quarter arcs (all four unless `arcs` picks some) as gauss_segment
    arrays, from callables on the corners e (x) 1, 1 (x) rho, x (x) 1,
    y (x) i rho."""
    xb = x
    corners = torsion_corners(x, e, y)
    segments = []
    for i in arcs:
        a, b = corners[i], corners[(i + 1) % 4]

        def value(s, a=a, b=b):
            return a.scale(np.cos(np.pi * s / 2)) + b.scale(np.sin(np.pi * s / 2))

        def deriv(s, a=a, b=b):
            return (a.scale(-np.sin(np.pi * s / 2)) +
                    b.scale(np.cos(np.pi * s / 2))).scale(np.pi / 2)

        segments.append(gauss_segment(value, deriv, i / 4, (i + 1) / 4, order,
                                      xb.grid, xb.m, xb.k + 1))
    return segments


def test_torsion_loop_nodes_match_materialized_arrays(point_grid, grid16):
    x_km = make_osu_from_hamiltonian(decoupled_tri_symbol(grid16, 1.0))
    e_km = BasePoint.standard_rho(grid16, 4, 1, sign=-1)
    cases = [(x_km, e_km, spin_y(grid16, 4), quaternionic_structure(k=1), ch2()),
             (*ko2_generator(point_grid), RealStructureSpec(fiber="c", clifford_signs=(-1,)),
              ch0())]
    order = 12
    for x, e, y, rs, cycle in cases:
        axes = list(cycle.derivations)
        loop = torsion_loop(x, e, y, rs=rs, derivations=cycle.derivations, order=order)
        old = materialized_torsion_segments(x, e, y, order)
        for seg, ref in zip(loop.segments, old):
            assert np.array_equal(seg.nodes, ref.nodes)
            nodes = list(zip(arc_nodes(seg, axes), ref.quadrature(axes)))
            assert len(nodes) == order
            for (weight, value, dvalue, space), (w_ref, v_ref, d_ref, s_ref) in nodes:
                assert weight == w_ref
                assert np.array_equal(value, v_ref) and np.array_equal(dvalue, d_ref)
                assert len(space) == len(axes)
                for got, w in zip([value, dvalue, *space], [v_ref, d_ref, *s_ref]):
                    assert np.max(np.abs(got - w)) <= 1e-13 * max(1.0, np.max(np.abs(w)))
        oracle = pair_suspended_by_nodes(cycle, LoopElement(old, 1e-10))
        got = pair_suspended(cycle, loop)
        assert abs(got - oracle) <= 1e-12 * abs(oracle)


def test_arc_integral_matches_materialized_oracle():
    # the stacked m = 8 class of criterion 10 at order 48, one materialized
    # arc at a time (all four would take 1.6 GB).  Under criterion 10's
    # block-swap symmetry the integrand vanishes at every node, so the loop
    # uses the blockwise spin symmetry, which also commutes with the stacked
    # class and gives the arcs a nonzero sum
    grid = TorusGrid((32, 32))
    x = make_osu_from_hamiltonian(decoupled_tri_symbol(grid, 1.0))
    e = BasePoint.standard_rho(grid, 4, 1, sign=-1)
    xx = osu_validate(direct_sum(x, x), 1e-10)
    ee = BasePoint(direct_sum(e.e, e.e))
    y = direct_sum(spin_y(grid, 4), spin_y(grid, 4))
    cycle = ch2()
    axes = list(cycle.derivations)
    order = 48
    loop = torsion_loop(xx, ee, y, rs=quaternionic_structure(k=1, fiber_block=4),
                        derivations=cycle.derivations, order=order)
    base = loop.segments[0].ends()[0]
    got, want = [], []
    for i, arc in enumerate(loop.segments):
        ref, = materialized_torsion_segments(xx, ee, y, order, arcs=(i,))
        oracle = 0.0
        for weight, value, dvalue, space in ref.quadrature(axes):
            oracle += weight * np.mean(alt_trace(value - base, space + [dvalue], loop.k))
        del ref
        want.append(oracle)
        got.append(_arc_integral(arc, base, axes, loop.k))
    scale = abs(sum(want))
    assert scale > 1.0
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-12 * scale
    assert abs(sum(got) - sum(want)) <= 1e-12 * scale


def materialized_bott_segment(x, e, order):
    """The Bott loop nu_x nu_e^-1 rho nu_e nu_x^-1 as gauss_segment arrays,
    from callables that multiply its five factors at each node, with the
    product rule for d/ds."""
    xb, eb = x, e.e
    rho = AlgElement.unit(xb.grid, xb.m, xb.k).append_generator()
    zero = AlgElement(xb.grid, xb.m, xb.k + 1)

    def nu(y, sign, c, sn):
        # c 1 + sign sn y (x) rho on the appended generator
        return (AlgElement.unit(y.grid, y.m, y.k + 1).scale(c)
                + y.append_generator().scale(sign * sn))

    def factors(s, diff=None):
        """The five factors at s, the one at index diff replaced by its d/ds."""
        c, sn = np.cos(np.pi * s / 2), np.sin(np.pi * s / 2)
        dc, dsn = -np.pi / 2 * sn, np.pi / 2 * c
        out = []
        for i, (y, sign) in enumerate([(xb, 1), (eb, -1), (None, 0), (eb, 1), (xb, -1)]):
            if y is None:
                out.append(zero if i == diff else rho)
            else:
                out.append(nu(y, sign, dc, dsn) if i == diff else nu(y, sign, c, sn))
        return out

    def product(fs):
        out = fs[0]
        for f in fs[1:]:
            out = out * f
        return out

    def value(s):
        return product(factors(s))

    def deriv(s):
        total = product(factors(s, 0))
        for i in range(1, 5):
            total = total + product(factors(s, i))
        return total

    return gauss_segment(value, deriv, 0.0, 1.0, order, xb.grid, xb.m, xb.k + 1)


def test_bott_loop_nodes_match_materialized_oracle(point_grid, grid16, rng):
    m = 4
    a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    _, v = np.linalg.eigh((a + np.conj(a.T)) / 2)
    p = v[:, :1] @ np.conj(v[:, :1].T)
    x0 = make_osu_from_hamiltonian(AlgElement.from_matrix_field(point_grid, 2 * p - np.eye(m)))
    cases = [(x0, BasePoint.standard_rho(point_grid, m, 1, sign=-1), ch0()),
             (make_osu_from_hamiltonian(qwz_symbol(grid16, 1.0)),
              BasePoint.standard_rho(grid16, 2, 1, sign=-1), ch2())]
    order = 16
    for x, e, cycle in cases:
        axes = list(cycle.derivations)
        loop = bott_loop(x, e, order=order)
        seg, = loop.segments
        ref = materialized_bott_segment(x, e, order)
        assert np.array_equal(seg.nodes, ref.nodes)
        nodes = list(zip(arc_nodes(seg, axes), ref.quadrature(axes)))
        assert len(nodes) == order
        for (weight, value, dvalue, space), (w_ref, v_ref, d_ref, s_ref) in nodes:
            assert weight == w_ref
            assert len(space) == len(axes)
            for got, w in zip([value, dvalue, *space], [v_ref, d_ref, *s_ref]):
                assert np.max(np.abs(got - w)) <= 1e-13 * max(1.0, np.max(np.abs(w)))
        oracle = pair_suspended_by_nodes(cycle, LoopElement([ref], 1e-10))
        got = pair_suspended(cycle, loop)
        assert abs(oracle) > 0.1
        assert abs(got - oracle) <= 1e-12 * abs(oracle)


def fd_derivative(values, h):
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


@pytest.mark.parametrize("nnodes", [7, 9, 65])
def test_closed_segment_derivative_matches_whole_array_stencil(grid16, rng, nnodes):
    # d/ds formed at one node is bit for bit the whole-array stencil
    shape = (1, nnodes, *grid16.sizes, 2, 2)
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    seg = ClosedSegment(values, 0.5, 1.0, grid16, 2, 0)
    want = fd_derivative(values, 1.0 / (nnodes - 1))
    got = [dvalue for _, _, dvalue, _ in seg.quadrature(())]
    assert len(got) == nnodes
    for j, dvalue in enumerate(got):
        assert np.array_equal(dvalue, want[:, j])
    assert np.array_equal(seg.deriv(-1), want[:, -1])


@pytest.mark.parametrize("nnodes", [5, 6, 8])
def test_closed_segment_needs_an_odd_node_count_of_at_least_7(grid16, nnodes):
    values = np.zeros((1, nnodes, *grid16.sizes, 2, 2), dtype=complex)
    with pytest.raises(ValueError, match="odd node count >= 7"):
        ClosedSegment(values, 0.5, 1.0, grid16, 2, 0)


def test_exp_projection_loop_periodic(grid16):
    s = flatten(qwz_symbol(grid16, 1.0))
    p = (s + AlgElement.unit(grid16, 2, 0)).scale(0.5)
    loop = exp_projection_loop(p, 32)
    seg = loop.segments[0]
    start = AlgElement(grid16, 2, 0, seg.values[:, 0])
    assert (start - AlgElement.unit(grid16, 2, 0)).norm_inf() < 1e-13


def test_flatten_with_clifford_factor(point_grid):
    # flatten takes a symbol (k = 0) alone; the sign of an element with a
    # Clifford factor is the hermitian calculus of its representation
    x = AlgElement(point_grid, 2, 1)
    x.data[1] = np.diag([2.0, -0.5])
    with pytest.raises(ValueError, match="k = 0, got k = 1"):
        flatten(x)
    s = hermitian_calculus(x, np.sign)
    expect = AlgElement(point_grid, 2, 1)
    expect.data[1] = np.diag([1.0, -1.0])
    assert (s - expect).norm_inf() < 1e-12
    assert s.homogeneous_part(0).norm_inf() < 1e-13


def test_flatten_commutes_with_spin_doubling(grid16, rng):
    # sign(diag(h1, f h1)) = diag(sign h1, f sign h1), which lets the z2
    # command flatten only the block
    qwz = qwz_symbol(grid16, 1.0)
    stacked = AlgElement.from_matrix_field(grid16, np.kron(np.eye(2), qwz.data[0]))
    noisy = stacked + random_hermitian_field(rng, grid16, 4).scale(0.05)
    for h1 in (qwz, noisy):
        got = spin_double(flatten(h1)).data
        want = flatten(spin_double(h1)).data
        assert np.max(np.abs(got - want)) < 1e-13
