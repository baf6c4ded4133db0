import dataclasses
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (constant_element, dense_copy, hermitian_calculus,
                      ko2_generator, named_residuals, npoints, psi_e_inverse,
                      random_element, random_hermitian_field,
                      random_matrix_field, real_structure_from_signature,
                      represent, scalar_trace, swap_first_factors, unitary_exp,
                      unrepresent)
from dkpair import floquet, kclass, models, pairing
from dkpair.clifford import CliffordSignature, generator_signs, mu
from dkpair.grid_alg import (MOMENTUM, TIME, AlgElement, RealStructureSpec,
                             TorusGrid, _minus_unit, _negate,
                             _quaternionic_swap, apply_derivation,
                             apply_real_structure, blade, check_invariance,
                             constant_view, direct_sum, gamma_element,
                             j_functional, psi_e, spectral_derivative_data,
                             trace)


def test_repr_names_the_grid_and_the_sizes(grid16):
    assert repr(AlgElement(grid16, 2, 1)) == "AlgElement(d=2, sizes=(16, 16), m=2, k=1)"


def test_grid_validation():
    with pytest.raises(ValueError):
        TorusGrid((5,))
    with pytest.raises(ValueError):
        TorusGrid((2,))
    with pytest.raises(ValueError):
        TorusGrid((8, 8), ("momentum",))
    g = TorusGrid((8, 16), ("momentum", "time"))
    assert g.d == 2 and npoints(g) == 128
    assert npoints(TorusGrid(())) == 1


def test_unit_and_identity(grid16, rng):
    x = random_element(rng, grid16, 2, 2)
    one = AlgElement.unit(grid16, 2, 2)
    assert ((x * one) - x).norm_inf() < 1e-14
    assert ((one * x) - x).norm_inf() < 1e-14


def test_mul_matches_representation(grid16, rng):
    # the faithful matrix image turns alg_mul into pointwise matmul
    x = random_element(rng, grid16, 2, 3)
    y = random_element(rng, grid16, 2, 3)
    lhs = represent(x * y)
    rhs = np.matmul(represent(x), represent(y))
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_unrepresent_roundtrip(grid16, rng):
    x = random_element(rng, grid16, 2, 3)
    back = unrepresent(represent(x), grid16, 2, 3)
    assert (x - back).norm_inf() < 1e-12


def test_clifford_anticommutation_in_algebra(point_grid):
    r1 = constant_element(point_grid, 2, blade(2, 0b01))
    r2 = constant_element(point_grid, 2, blade(2, 0b10))
    assert ((r1 * r2) + (r2 * r1)).norm_inf() == 0.0


def test_osu_squares(point_grid, rng):
    h = random_hermitian_field(rng, point_grid, 3)
    w, v = np.linalg.eigh(h.data[0])
    hu = AlgElement.from_matrix_field(point_grid,
                                      v @ np.diag(np.sign(w)) @ np.conj(v.T))
    x = hu.append_generator()
    assert ((x * x) - AlgElement.unit(point_grid, 3, 1)).norm_inf() < 1e-14


def test_star_properties(grid16, rng):
    x = random_element(rng, grid16, 2, 2)
    y = random_element(rng, grid16, 2, 2)
    assert ((x * y).star() - y.star() * x.star()).norm_inf() < 1e-12
    assert (x.star().star() - x).norm_inf() == 0.0
    r12 = AlgElement(grid16, 2, 2)
    r12.data[3] = np.eye(2)
    assert (r12.star() + r12).norm_inf() == 0.0


def test_hermitian_tensor_rho_self_adjoint(grid16, rng):
    h = random_hermitian_field(rng, grid16, 2)
    x = h.append_generator()
    assert (x.star() - x).norm_inf() < 1e-13


def test_derivation_single_mode(grid16):
    k1 = grid16.coordinates(0)
    f = np.exp(1j * k1)[:, None, None, None] * np.eye(2)
    x = AlgElement.from_matrix_field(grid16, np.broadcast_to(
        f, (16, 16, 2, 2)).copy())
    dx = apply_derivation(0, x)
    assert (dx - x.scale(1j)).norm_inf() < 1e-12
    const = AlgElement.unit(grid16, 2, 0)
    assert apply_derivation(0, const).norm_inf() < 1e-14


def test_derivation_time_axis(tgrid64):
    t = tgrid64.coordinates(0)
    u = AlgElement.from_matrix_field(tgrid64,
                                     np.exp(2j * np.pi * t)[:, None, None] * np.eye(1))
    du = apply_derivation(0, u)
    assert (du - u.scale(2j * np.pi)).norm_inf() < 1e-10


def test_leibniz_rule(grid16, rng):
    x = random_element(rng, grid16, 2, 1, modes=3)
    y = random_element(rng, grid16, 2, 1, modes=3)
    d = 1
    lhs = apply_derivation(d, x * y)
    rhs = apply_derivation(d, x) * y + x * apply_derivation(d, y)
    assert (lhs - rhs).norm_inf() < 1e-10


def test_derivations_commute(grid16, rng):
    x = random_element(rng, grid16, 2, 1, modes=3)
    d1, d2 = 0, 1
    lhs = apply_derivation(d1, apply_derivation(d2, x))
    rhs = apply_derivation(d2, apply_derivation(d1, x))
    assert (lhs - rhs).norm_inf() < 1e-10


def test_trace_normalization_and_modes(grid16):
    one = AlgElement.unit(grid16, 2, 0)
    assert abs(scalar_trace(one) - 2) < 1e-15
    k1 = grid16.coordinates(0)
    f = np.exp(1j * k1)[:, None, None, None] * np.eye(2)
    x = AlgElement.from_matrix_field(grid16,
                                     np.broadcast_to(f, (16, 16, 2, 2)).copy())
    assert abs(scalar_trace(x)) < 1e-14


def test_trace_graded_cyclicity(grid16, rng):
    # graded cyclicity holds for the closed graded trace, i.e. the grid
    # trace composed with the chirality contraction; the scalar component is
    # plainly cyclic.
    for pa in (0, 1):
        for pb in (0, 1):
            a = random_element(rng, grid16, 2, 2, parity=pa)
            b = random_element(rng, grid16, 2, 2, parity=pb)
            lhs = j_functional(trace(a * b))
            rhs = (-1.0) ** (pa * pb) * j_functional(trace(b * a))
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))
            assert abs(scalar_trace(a * b) - scalar_trace(b * a)) < 1e-12


def test_trace_kills_derivatives(grid16, rng):
    x = random_element(rng, grid16, 2, 1, modes=3)
    dx = apply_derivation(0, x)
    assert np.abs(trace(dx).data).max() < 1e-12


def test_real_structure_order_two(grid16, rng):
    x = random_element(rng, grid16, 2, 2)
    for fiber in ("c", "h"):
        for mflip in (False, True):
            rs = RealStructureSpec(fiber, mflip, (1, -1))
            twice = apply_real_structure(rs, apply_real_structure(rs, x))
            assert (twice - x).norm_inf() == 0.0


def test_real_structure_antilinear_automorphism(grid16, rng):
    rs = RealStructureSpec("h", True, (1, -1))
    x = random_element(rng, grid16, 2, 2)
    y = random_element(rng, grid16, 2, 2)
    lhs = apply_real_structure(rs, x * y)
    rhs = apply_real_structure(rs, x) * apply_real_structure(rs, y)
    assert (lhs - rhs).norm_inf() < 1e-12
    li = apply_real_structure(rs, x.scale(2j))
    assert (li - apply_real_structure(rs, x).scale(-2j)).norm_inf() == 0.0
    # commutes with the grading
    lg = apply_real_structure(rs, x.grading())
    assert (lg - apply_real_structure(rs, x).grading()).norm_inf() == 0.0


def test_quaternionic_fixed_points(point_grid, rng):
    a = rng.standard_normal((1, 1)) + 1j * rng.standard_normal((1, 1))
    b = rng.standard_normal((1, 1)) + 1j * rng.standard_normal((1, 1))
    quat = np.block([[a, b], [-np.conj(b), np.conj(a)]])
    x = AlgElement.from_matrix_field(point_grid, quat)
    rs = RealStructureSpec("h")
    res = check_invariance(rs, x)
    assert res <= 1e-12, res


def test_spin_doubled_invariance(grid16, rng):
    from dkpair.models import quaternionic_structure, spin_double
    h1 = random_hermitian_field(rng, grid16, 2, modes=2)
    h = spin_double(h1)
    res = check_invariance(quaternionic_structure(k=0), h)
    assert res <= 1e-12, res


def test_check_invariance_detects_violation(grid16):
    rs = RealStructureSpec("c")
    x = AlgElement.unit(grid16, 1, 0)
    x = x + AlgElement.unit(grid16, 1, 0).scale(1e-3j)
    res = check_invariance(rs, x)
    assert not res <= 1e-6
    assert abs(res - 2e-3) < 1e-9


def test_invariance_of_gamma_under_signature():
    for r in range(0, 4):
        for s in range(0, 4 - r):
            k = r + s
            g = gamma_element(k)
            rs = real_structure_from_signature(CliffordSignature(r, s))
            res = check_invariance(rs, g)
            assert (res <= 0.0) == (mu(r - s) % 2 == 0)


def test_hermitian_calculus_and_exp(grid16, rng):
    h = random_hermitian_field(rng, grid16, 2, shift=0.0)
    sq = hermitian_calculus(h, lambda w: w ** 2)
    assert (sq - h * h).norm_inf() < 1e-11
    u = unitary_exp(h)
    one = AlgElement.unit(grid16, 2, 0)
    assert (u * u.star() - one).norm_inf() < 1e-11


# ---------------------------------------------------------------------------
# psi_e
# ---------------------------------------------------------------------------

def _sigma_x_base(grid, m, k_host):
    e = AlgElement(grid, m, k_host)
    e.data[1] = np.eye(m)
    return e


def test_psi_e_generator_images(point_grid):
    m = 2
    e = _sigma_x_base(point_grid, m, 2)
    # 1 (x) sigma_x of the contracted factor -> offdiag(e; e)
    x = AlgElement(point_grid, m, 4)
    x.data[0b0100] = np.eye(m)
    img = psi_e(x, e)
    expect = AlgElement(point_grid, 2 * m, 2)
    expect.data[1][:m, m:] = np.eye(m)
    expect.data[1][m:, :m] = np.eye(m)
    assert (img - expect).norm_inf() == 0.0
    # unit maps to the unit
    one = AlgElement.unit(point_grid, m, 4)
    assert (psi_e(one, e) - AlgElement.unit(point_grid, 2 * m, 2)).norm_inf() == 0.0


def test_psi_e_homomorphism(point_grid, rng):
    m = 2
    e = _sigma_x_base(point_grid, m, 2)
    for _ in range(64):
        parity_u = int(rng.integers(0, 2))
        parity_v = int(rng.integers(0, 2))
        u = AlgElement(point_grid, m, 4)
        v = AlgElement(point_grid, m, 4)
        for mask in range(16):
            if bin(mask).count("1") % 2 == parity_u:
                u.data[mask] = rng.integers(-3, 4, (m, m)) + 1j * rng.integers(-3, 4, (m, m))
            if bin(mask).count("1") % 2 == parity_v:
                v.data[mask] = rng.integers(-3, 4, (m, m)) + 1j * rng.integers(-3, 4, (m, m))
        assert (psi_e(u * v, e) - psi_e(u, e) * psi_e(v, e)).norm_inf() == 0.0


def test_psi_e_inverse_roundtrip(point_grid, rng):
    m = 2
    e = _sigma_x_base(point_grid, m, 2)
    x = random_element(rng, point_grid, m, 4)
    back = psi_e_inverse(psi_e(x, e), e)
    assert (back - x).norm_inf() < 1e-12


def test_psi_e_rejects_bad_base(point_grid):
    m = 2
    bad = AlgElement.unit(point_grid, m, 2)  # even, not odd
    x = AlgElement.unit(point_grid, m, 4)
    with pytest.raises(ValueError):
        psi_e(x, bad)
    # zero, and an even element too small for the oddness check, fail the
    # self-inverse check
    zero = AlgElement(point_grid, m, 2)
    for tiny in (zero, AlgElement.unit(point_grid, m, 2).scale(1e-12)):
        with pytest.raises(ValueError, match="self-inverse"):
            psi_e(x, tiny)


def _constant_field(grid, mat):
    """The plain matrix field equal to mat at every point of grid."""
    mat = np.asarray(mat, dtype=complex)
    return AlgElement.from_matrix_field(grid, np.broadcast_to(mat, (*grid.sizes, *mat.shape)))


def _failing_contracts():
    """{case: (a call that fails one numerical contract, the class it raises)},
    at least one per module that checks contracts."""
    grid, tgrid = TorusGrid((4, 4)), TorusGrid((8,), ("time",))
    x, e, y = ko2_generator(TorusGrid(()))
    drive = floquet.FloquetDrive(1.0, ((1.0, _constant_field(grid, np.diag([0.3, -0.2]))),))
    doubled = floquet.FloquetDrive(1.0, tuple(
        (0.5, models.spin_double(_constant_field(grid, energy * np.eye(2))))
        for energy in (0.3, 0.5)))
    return {
        "psi_e": (lambda: psi_e(AlgElement.unit(x.grid, 2, 3), AlgElement.unit(x.grid, 2, 1)),
                  ValueError),
        "osu_validate": (lambda: kclass.osu_validate(x.scale(0.5)), kclass.OsuValidationError),
        "flatten": (lambda: kclass.flatten(_constant_field(grid, [[1, 1], [0, -1]])),
                    ValueError),
        "winding_number": (lambda: pairing.winding_number(models.winding_unitary(tgrid, 1)
                                                          .scale(2.0)), ValueError),
        "chern_number": (lambda: pairing.chern_number(_constant_field(grid, 0.5 * np.eye(2))),
                         ValueError),
        "torsion_closed_form": (lambda: pairing.torsion_pairing_closed_form(
            pairing.ch0(), x, e, y.scale(0.5), 2.0), ValueError),
        "z2_class": (lambda: pairing.TorsionValue(0.25, 2.0).z2_class(1.0), ValueError),
        "cubic_trace": (lambda: floquet._cubic_trace(2.0 * np.eye(2), np.zeros((2, 2)),
                                                     [np.zeros((2, 2))] * 2), ValueError),
        "drive_hermitian": (lambda: floquet.FloquetDrive(
            1.0, ((1.0, _constant_field(grid, [[1, 1], [0, -1]])),)), ValueError),
        "contraction_boundary": (lambda: floquet.contraction_loop_from_samples(
            floquet.periodized_evolution(drive, 0.0, 16), np.zeros((9, 4, 4, 2, 2))),
                                 ValueError),
        "time_reversal": (lambda: floquet.ArcInvariant(doubled, 1.0 + 0j, -1.0 + 0j),
                          ValueError),
        "hoppings": (lambda: models.symbol_from_hoppings(
            TorusGrid((4,)), {(1,): [[1.0]], (-1,): [[2.0]]}, 1), ValueError),
    }


@pytest.mark.parametrize("case", sorted(_failing_contracts()))
def test_every_contract_fails_in_one_form(case):
    # a failed contract raises its class with the message 'what: name=residual,
    # ...', and its .residuals are the residuals that message names
    call, error = _failing_contracts()[case]
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error
    residuals = err.value.residuals
    assert residuals
    assert named_residuals(str(err.value)) == {n: f"{r:.3e}" for n, r in residuals.items()}


def test_direct_sum_block_structure(grid16, rng):
    x = random_element(rng, grid16, 2, 1)
    y = random_element(rng, grid16, 3, 1)
    s = direct_sum(x, y)
    assert s.m == 5
    assert np.max(np.abs(s.data[..., :2, 2:])) == 0.0
    assert (trace(s) - trace(x) - trace(y)).data.max() < 1e-14


def test_three_axis_mixed_roles(rng):
    grid = TorusGrid((8, 8, 8), ("time", "momentum", "momentum"))
    t = grid.coordinates(0)
    k1 = grid.coordinates(1)
    f = (np.exp(2j * np.pi * t)[:, None, None]
         * np.exp(1j * k1)[None, :, None]
         * np.ones(8)[None, None, :])
    x = AlgElement.from_matrix_field(grid, f[..., None, None] * np.eye(2))
    dt = apply_derivation(0, x)
    dk = apply_derivation(1, x)
    assert (dt - x.scale(2j * np.pi)).norm_inf() < 1e-10
    assert (dk - x.scale(1j)).norm_inf() < 1e-10
    assert np.abs(trace(x).data).max() < 1e-13


def test_derivation_axis_out_of_range(grid16, rng):
    x = random_element(rng, grid16, 2, 0)
    with pytest.raises(ValueError):
        apply_derivation(2, x)


def test_shape_mismatch_rejected(grid16, rng):
    x = random_element(rng, grid16, 2, 1)
    y = random_element(rng, grid16, 3, 1)
    with pytest.raises(ValueError):
        x * y


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31), st.integers(0, 3))
def test_algebra_axioms_property(seed, k):
    rng = np.random.default_rng(seed)
    grid = TorusGrid((4, 4))
    a, b, c = (random_element(rng, grid, 2, k, modes=1) for _ in range(3))
    assert ((a * b) * c - a * (b * c)).norm_inf() < 1e-10
    assert ((a * b).star() - b.star() * a.star()).norm_inf() < 1e-10
    assert (a.star().star() - a).norm_inf() == 0.0


# ---------------------------------------------------------------------------
# norm_inf against the full-grid SVD of the representation
# ---------------------------------------------------------------------------

def svd_norm_inf(x):
    """Reference: the largest singular value of represent(x) over all points."""
    sv = np.linalg.svd(represent(x), compute_uv=False)
    return float(np.max(sv)) if sv.size else 0.0


def assert_matches_oracle(x):
    ref = svd_norm_inf(x)
    got = x.norm_inf()
    if sum(bool(np.any(c)) for c in x.data) > 1:
        assert got == ref  # same SVDs, fewer of them
    else:
        # the SVD of x_S instead of x_S (x) R_S: same values, other rounding
        assert abs(got - ref) <= 1e-14 * ref


def oracle_elements(rng, grid, m, k):
    """Elements whose norm_inf the oracle checks, for one (m, k)."""
    full = random_element(rng, grid, m, k, modes=1)
    yield full
    # one large point among small ones: pruning keeps few points
    spiky = dense_copy(full)
    spiky.data[(slice(None),) + (0,) * grid.d] *= 50.0
    yield spiky
    # squares that underflow or overflow: no pruning, same value
    yield full.scale(1e-170)
    yield full.scale(1e160)
    for mask in (0, (1 << k) - 1):
        single = AlgElement(grid, m, k)
        single.data[mask] = full.data[mask]
        yield single
    yield AlgElement(grid, m, k)
    # rounding-level residuals
    a, b = (random_element(rng, grid, m, k, modes=1) for _ in range(2))
    noise = (a * b).star() - b.star() * a.star()
    if np.any(noise.data):
        yield noise
    # rank-one points: the Frobenius norm of a single component is its
    # largest singular value
    u, v = (random_matrix_field(rng, grid, m, modes=1)[..., 0] for _ in range(2))
    for mask in (0, (1 << k) - 1):
        rank_one = AlgElement(grid, m, k)
        rank_one.data[mask] = u[..., :, None] * np.conj(v[..., None, :])
        yield rank_one


@pytest.mark.parametrize("sizes", [(), (6,), (8, 4)])
def test_norm_inf_matches_svd_oracle(sizes, rng):
    grid = TorusGrid(sizes)
    for k in range(4):
        for m in range(1, 5):
            for x in oracle_elements(rng, grid, m, k):
                assert_matches_oracle(x)


@pytest.mark.parametrize("sizes", [(), (6,), (8, 4)])
def test_within_matches_norm_inf(sizes, rng):
    grid = TorusGrid(sizes)
    for k in range(4):
        for m in range(1, 5):
            for x in oracle_elements(rng, grid, m, k):
                value = x.norm_inf()
                # the float just below norm_inf catches a Frobenius bound
                # that rounding put below it
                for tol in (value, 0.5 * value, 2.0 * value, np.nextafter(value, 0.0)):
                    assert x.within(tol) == (value <= tol)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_norm_inf_rejects_non_finite(grid16, rng, bad):
    for k in (0, 2):
        x = random_element(rng, grid16, 2, k, modes=1)
        x.data[0, 3, 5, 1, 0] = bad
        with pytest.raises(np.linalg.LinAlgError), np.errstate(invalid="ignore"):
            x.norm_inf()
        with pytest.raises(np.linalg.LinAlgError), np.errstate(invalid="ignore"):
            x.within(1.0)


def test_mode_multiplier_is_formed_once_per_axis():
    grid = TorusGrid((8, 16), ("momentum", "time"))
    mult = grid.mode_multiplier(1)
    assert TorusGrid((16,), ("time",)).mode_multiplier(0) is mult
    assert not mult.flags.writeable
    assert np.array_equal(mult, 2j * np.pi * np.r_[0:8, 0, -7:0])
    assert np.array_equal(grid.mode_multiplier(0), 1j * np.r_[0:4, 0, -3:0])


def test_derivative_matches_whole_block_transform(grid16, rng):
    x = random_element(rng, grid16, 2, 2, parity=1)
    for axis in range(2):
        mult = grid16.mode_multiplier(axis).reshape((1,) * (axis + 1) + (-1,)
                                                    + (1,) * (3 - axis))
        ax = 1 + axis
        ref = np.fft.ifft(np.fft.fft(x.data, axis=ax) * mult, axis=ax)
        got = spectral_derivative_data(x.data, grid16, axis)
        assert np.array_equal(got[1], ref[1])
        assert not np.any(got[0]) and not np.any(got[3])


def broadcast_element(grid, point: np.ndarray) -> AlgElement:
    """The grid-constant element of a point block (2^k, m, m), as a read-only
    broadcast view."""
    lead, m = point.shape[0], point.shape[-1]
    block = point.reshape(lead, *(1,) * grid.d, m, m)
    return AlgElement(grid, m, lead.bit_length() - 1,
                      np.broadcast_to(block, (lead, *grid.sizes, m, m)))


def is_one_point_view(x: AlgElement) -> bool:
    return not x.data.flags.writeable and not any(x.data.strides[1:-2])


def test_derivative_of_a_constant_axis_takes_no_transform(grid16, rng, monkeypatch):
    # along an axis of stride 0 the block is constant: its derivative is an
    # exact, read-only zero of stride 0, formed with no transform; along an
    # axis on which it varies, the transform runs at the distinct points and
    # equals the dense block's derivative
    x = broadcast_element(grid16, random_element(rng, TorusGrid(()), 2, 2).data)
    column = np.broadcast_to(random_element(rng, TorusGrid((16,)), 2, 2).data[:, :, None],
                             (4, 16, 16, 2, 2))
    calls, fft = [], np.fft.fft
    monkeypatch.setattr(np.fft, "fft", lambda *a, **kw: calls.append(a) or fft(*a, **kw))
    for data, axis in ((x.data, 0), (x.data, 1), (column, 1)):
        got = spectral_derivative_data(data, grid16, axis)
        assert got.shape == data.shape and not got.flags.writeable
        assert not any(got.strides) and not np.any(got)
    assert calls == []
    got = spectral_derivative_data(column, grid16, 0)
    assert got.strides[2] == 0 and len(calls) == 4
    assert np.array_equal(got, spectral_derivative_data(column.copy(), grid16, 0))


def test_grid_constant_operands_give_one_point_views(grid16, rng):
    # every operation on grid-constant operands runs at their one point and
    # returns a read-only view of it, equal to the operation on dense
    # copies; one dense operand makes a dense, writable result
    rs = RealStructureSpec(fiber="h", momentum_flip=True, clifford_signs=(1, -1))
    a, b = (broadcast_element(grid16, random_element(rng, TorusGrid(()), 2, 2).data)
            for _ in range(2))
    unary = [lambda u: -u, lambda u: u.scale(0.5 - 1j), lambda u: u.star(),
             lambda u: u.grading(), lambda u: u.homogeneous_part(1),
             lambda u: u.append_generator(),
             lambda u: u.append_generator(on_new=False, coeff=1j),
             lambda u: apply_real_structure(rs, u)]
    for op in unary:
        got = op(a)
        assert is_one_point_view(got)
        assert np.array_equal(got.data, op(dense_copy(a)).data)
    dense = random_element(rng, grid16, 2, 2)
    for op in (lambda u, v: u + v, lambda u, v: u - v, lambda u, v: u * v, direct_sum):
        got = op(a, b)
        assert is_one_point_view(got)
        assert np.array_equal(got.data, op(dense_copy(a), dense_copy(b)).data)
        mixed = op(a, dense)
        assert mixed.data.flags.writeable
        assert np.array_equal(mixed.data, op(dense_copy(a), dense).data)


def test_minus_unit_of_a_view_writes_nothing(grid16, rng):
    # a read-only view is not written through: x - 1 is a new view
    point = random_element(rng, TorusGrid(()), 2, 1).data
    x = broadcast_element(grid16, point.copy())
    got = _minus_unit(x)
    assert is_one_point_view(got) and got is not x
    assert np.array_equal(x.data[:, 0, 0], point)
    assert np.array_equal(got.data[0, 3, 5], point[0] - np.eye(2))
    assert np.array_equal(got.data[1, 3, 5], point[1])


def test_constant_view_tests_by_value(grid16, rng):
    # a dense grid-constant element reads as the view of a copy of its
    # origin point, which holds none of its grid; one differing point, or a
    # non-finite origin, reads as varying
    x = dense_copy(broadcast_element(grid16, random_element(rng, TorusGrid(()), 2, 1).data))
    view = constant_view(x)
    assert is_one_point_view(view) and np.array_equal(view.data, x.data)
    assert not np.shares_memory(view.data, x.data)
    x.data[1, 15, 15, 0, 1] += 1e-9
    assert constant_view(x) is None
    x.data[...] = np.inf
    assert constant_view(x) is None


def test_quaternionic_fiber_matches_einsum(grid16, rng):
    from dkpair.models import quaternionic_structure
    x = random_element(rng, grid16, 4, 1)
    u = np.kron(np.array([[0, -1j], [1j, 0]]), np.eye(2))
    flipped = np.flip(np.roll(np.conj(x.data), -1, axis=(1, 2)), axis=(1, 2))
    ref = np.einsum("ij,...jk,kl->...il", u, flipped, np.conj(u.T))
    got = apply_real_structure(quaternionic_structure(k=1), x).data
    assert np.array_equal(got, ref)


def test_quaternionic_fiber_needs_an_even_matrix_size(grid16, rng):
    x = random_element(rng, grid16, 3, 0)
    with pytest.raises(ValueError, match="^quaternionic fiber needs an even matrix size$"):
        apply_real_structure(RealStructureSpec("h"), x)


def quaternionic_fiber_dense(rs, x, block):
    """The quaternionic real structure on M_(m/block)(M_block), blockwise, as
    conj, flips and signs followed by u X u^H with the dense
    u = 1 (x) sigma_y (x) 1 (reference)."""
    sy = np.array([[0, -1j], [1j, 0]])
    u = np.kron(np.eye(x.m // block), np.kron(sy, np.eye(block // 2)))
    out = apply_real_structure(dataclasses.replace(rs, fiber="c"), x).data
    return u @ out @ np.conj(u.T)


@pytest.mark.parametrize("m, block", [(4, None), (4, 2), (8, 4), (8, 2)])
@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("flip", [False, True])
def test_quaternionic_swap_matches_dense_oracle(rng, m, block, k, flip):
    # the structure acts on the whole matrix (block None); the blockwise one
    # on M_j(M_block) is it after the swap of the first two tensor factors,
    # as the doubled-class torsion loops use it
    grid = TorusGrid((4, 6))
    j = m // (block or m)
    x = random_element(rng, grid, m, k)
    rs = RealStructureSpec("h", flip, (1, -1)[:k])
    got = apply_real_structure(rs, swap_first_factors(x, j)).data
    want = AlgElement(grid, m, k, quaternionic_fiber_dense(rs, x, block or m))
    # equal up to the sign of zero
    assert np.array_equal(got, swap_first_factors(want, j).data)


def roll_flip_real_structure(rs, x):
    """The real structure with each momentum flip n -> -n mod N taken as a
    roll by one followed by a reversal of the axis (reference)."""
    out = np.conj(x.data)
    for axis, role in enumerate(x.grid.axis_roles):
        if rs.momentum_flip and role == MOMENTUM:
            out = np.flip(np.roll(out, -1, axis=1 + axis), axis=1 + axis)
    if rs.fiber == "h":
        out = _quaternionic_swap(out)
    _negate(out, generator_signs(rs.clifford_signs) < 0)
    return out


@pytest.mark.parametrize("sizes", [(8, 9), (7, 12), (8, 12)])
@pytest.mark.parametrize("roles", [(MOMENTUM, TIME), (TIME, MOMENTUM), (MOMENTUM, MOMENTUM)])
@pytest.mark.parametrize("fiber", ["c", "h"])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_real_structure_gather_matches_roll_flip(rng, sizes, roles, fiber, k):
    # TorusGrid takes even sizes only; the index gather holds for any N, so
    # odd sizes run on a stand-in grid carrying just sizes and axis roles
    grid = types.SimpleNamespace(sizes=sizes, axis_roles=roles, d=len(sizes))
    x = AlgElement(grid, 4, k, rng.standard_normal((1 << k, *sizes, 4, 4))
                   + 1j * rng.standard_normal((1 << k, *sizes, 4, 4)))
    for flip in (False, True):
        rs = RealStructureSpec(fiber, flip, (1, -1)[:k])
        got = apply_real_structure(rs, x).data
        assert got.tobytes() == roll_flip_real_structure(rs, x).tobytes()
        assert not np.shares_memory(got, x.data)
        # every later product and norm reads the result in C order
        assert got.flags.c_contiguous


def test_spectral_calculus_matches_einsum(grid16, rng):
    from dkpair.grid_alg import _spectral_calculus
    w, v = np.linalg.eigh(random_hermitian_field(rng, grid16, 4).data[0])
    for fw in (np.sign(w), np.exp(0.3j * w)):
        ref = np.einsum("...ij,...j,...kj->...ik", v, fw, np.conj(v))
        assert np.array_equal(_spectral_calculus(v, fw), ref)
    # a leading node axis on the function values broadcasts over the vectors
    t = np.arange(6).reshape((6,) + (1,) * w.ndim) / 6
    phases = np.exp(-2j * np.pi * t * w[None])
    ref = np.einsum("...ij,t...j,...kj->t...ik", v, phases, np.conj(v))
    assert np.array_equal(_spectral_calculus(v, phases), ref)
