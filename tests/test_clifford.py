import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dkpair.clifford import (CliffordSignature, Multivector, gamma_element,
                             generator_signs, j_functional, mu, mv_mul,
                             mv_star, parity, real_structure_l, representation,
                             reversion_signs, sign_table, subset_size)


def gaussian_integer_mv(rng, k):
    coeffs = rng.integers(-3, 4, 1 << k) + 1j * rng.integers(-3, 4, 1 << k)
    return Multivector(k, coeffs)


mv_strategy = st.integers(0, 5).flatmap(
    lambda k: st.builds(
        lambda c: Multivector(k, np.array(c, dtype=complex)),
        st.lists(st.integers(-3, 3), min_size=1 << k, max_size=1 << k)))


def test_mu_values():
    assert mu(0) == 0 and mu(1) == 0
    assert mu(2) == 1
    assert mu(5) == 2
    for k in range(-6, 7):
        assert mu(k + 2) == mu(k) + 1
    assert mu(-1) == -1 and mu(-2) == -1


def test_generator_relations():
    for k in range(1, 7):
        for i in range(1, k + 1):
            ri = Multivector.generator(k, i)
            assert (ri * ri).allclose(Multivector.unit(k))
            for j in range(i + 1, k + 1):
                rj = Multivector.generator(k, j)
                assert (ri * rj + rj * ri).norm() == 0.0


def test_mul_examples():
    r1, r2 = Multivector.generator(2, 1), Multivector.generator(2, 2)
    assert (r2 * r1).allclose(Multivector.basis(2, 0b11).scale(-1))
    # -i rho1 rho2 equals the chirality element (sigma_z in the matrix image)
    assert (r1 * r2).scale(-1j).allclose(gamma_element(2))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_mul_associative_unital(data):
    k = data.draw(st.integers(0, 4))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 31)))
    a, b, c = (gaussian_integer_mv(rng, k) for _ in range(3))
    assert ((a * b) * c).allclose(a * (b * c))
    one = Multivector.unit(k)
    assert (a * one).allclose(a) and (one * a).allclose(a)


def test_sign_table_matches_matrix_representation():
    # independent oracle: multiply the Pauli-string images directly
    for k in range(0, 5):
        images, q = representation(k)
        table = sign_table(k)
        for s in range(1 << k):
            for t in range(1 << k):
                prod = images[s] @ images[t]
                assert np.allclose(prod, table[s, t] * images[s ^ t])


def test_representation_is_star_map():
    for k in range(0, 5):
        images, _ = representation(k)
        for mask in range(1 << k):
            sign = (-1) ** (mu(subset_size(mask)) % 2)
            assert np.allclose(np.conj(images[mask].T), sign * images[mask])
            assert np.allclose(np.conj(images[mask].T),
                               reversion_signs(k)[mask] * images[mask])


def test_parity_is_conjugation_by_chirality():
    # independent oracle: Gamma R_S Gamma = (-1)^|S| R_S in the matrix images
    for k in range(0, 7, 2):
        images, _ = representation(k)
        top = (1 << k) - 1
        gamma = gamma_element(k).coeffs[top] * images[top]
        for mask in range(1 << k):
            assert np.allclose(gamma @ images[mask] @ gamma,
                               (-1) ** parity(k)[mask] * images[mask])


def test_generator_signs_match_signed_generator_products():
    for k in range(0, 5):
        for flips in range(1 << k):
            signs = tuple(-1 if flips >> i & 1 else 1 for i in range(k))
            table = generator_signs(signs)
            for mask in range(1 << k):
                prod = Multivector.unit(k)
                for i in range(k):
                    if mask >> i & 1:
                        prod = mv_mul(prod, Multivector.generator(k, i + 1).scale(signs[i]))
                assert prod.allclose(Multivector.basis(k, mask).scale(table[mask]))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_star_antihomomorphism(data):
    k = data.draw(st.integers(0, 4))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 31)))
    a, b = gaussian_integer_mv(rng, k), gaussian_integer_mv(rng, k)
    assert mv_star(mv_mul(a, b)).allclose(mv_mul(mv_star(b), mv_star(a)))
    assert mv_star(mv_star(a)).allclose(a)


def test_star_examples():
    r1 = Multivector.generator(2, 1)
    assert mv_star(r1).allclose(r1)
    r12 = Multivector.basis(2, 0b11)
    assert mv_star(r12).allclose(r12.scale(-1))
    for k in range(0, 9):
        g = gamma_element(k)
        assert mv_star(g).allclose(g)
        assert mv_mul(g, g).allclose(Multivector.unit(k))


def test_gamma_examples():
    assert gamma_element(0).allclose(Multivector.unit(0))
    g3 = gamma_element(3)
    assert g3.coeffs[0b111] == (1j) ** (-1 % 4)
    assert mv_mul(g3, g3).allclose(Multivector.unit(3))
    with pytest.raises(ValueError):
        gamma_element(9)


def test_real_structure_definition():
    sig = CliffordSignature(1, 1)
    r1, r2 = Multivector.generator(2, 1), Multivector.generator(2, 2)
    assert real_structure_l(sig, r1).allclose(r1)
    assert real_structure_l(sig, r2).allclose(r2.scale(-1))
    assert real_structure_l(sig, Multivector.unit(2)).allclose(Multivector.unit(2))
    # antilinear
    assert real_structure_l(sig, r1.scale(2j)).allclose(r1.scale(-2j))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_real_structure_properties(data):
    r = data.draw(st.integers(0, 3))
    s = data.draw(st.integers(0, 3))
    sig = CliffordSignature(r, s)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 31)))
    a, b = gaussian_integer_mv(rng, sig.k), gaussian_integer_mv(rng, sig.k)
    la, lb = real_structure_l(sig, a), real_structure_l(sig, b)
    # order 2, multiplicative, star-compatible, grading-compatible
    assert real_structure_l(sig, la).allclose(a)
    assert real_structure_l(sig, mv_mul(a, b)).allclose(mv_mul(la, lb))
    assert real_structure_l(sig, mv_star(a)).allclose(mv_star(la))


def test_real_structure_on_gamma():
    for r in range(0, 7):
        for s in range(0, 7 - r):
            g = gamma_element(r + s)
            got = real_structure_l(CliffordSignature(r, s), g)
            assert got.allclose(g.scale((-1.0) ** (mu(r - s) % 2)))


def test_j_functional_values():
    for k in range(0, 7):
        assert j_functional(gamma_element(k)) == 1
        if k >= 1:
            assert j_functional(Multivector.unit(k)) == 0
    r1, r2 = Multivector.generator(2, 1), Multivector.generator(2, 2)
    assert j_functional(mv_mul(r1, r2)) == 1j


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_j_functional_graded_trace(data):
    k = data.draw(st.integers(0, 6))
    sa = data.draw(st.integers(0, (1 << k) - 1))
    sb = data.draw(st.integers(0, (1 << k) - 1))
    a, b = Multivector.basis(k, sa), Multivector.basis(k, sb)
    da, db = subset_size(sa) % 2, subset_size(sb) % 2
    lhs = j_functional(mv_mul(a, b))
    rhs = (-1) ** (da * db) * j_functional(mv_mul(b, a))
    assert lhs == rhs
