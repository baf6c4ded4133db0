"""The Clifford algebra Cl_k on point elements: AlgElement(TorusGrid(()), 1, k),
through the product, star and real structure that every pairing runs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import real_structure_from_signature, same_element
from dkpair.clifford import (CliffordSignature, generator_signs, mu, parity,
                             representation, reversion_signs, sign_table,
                             subset_size)
from dkpair.grid_alg import (AlgElement, TorusGrid, apply_real_structure,
                             blade, gamma_element, j_functional)


def gaussian_integer_element(rng, k):
    coeffs = rng.integers(-3, 4, 1 << k) + 1j * rng.integers(-3, 4, 1 << k)
    return AlgElement(TorusGrid(()), 1, k, coeffs[:, None, None])


def generator(k, i):
    """rho_i of Cl_k, 1-indexed."""
    return blade(k, 1 << (i - 1))


def real_structure(sig, a):
    """The antilinear *-automorphism fixing the first r generators and
    negating the other s, applied to a point element."""
    return apply_real_structure(real_structure_from_signature(sig), a)


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
            ri = generator(k, i)
            assert same_element(ri * ri, blade(k, 0))
            for j in range(i + 1, k + 1):
                rj = generator(k, j)
                assert not np.any((ri * rj + rj * ri).data)


def test_mul_examples():
    r1, r2 = generator(2, 1), generator(2, 2)
    assert same_element(r2 * r1, blade(2, 0b11).scale(-1))
    # -i rho1 rho2 equals the chirality element (sigma_z in the matrix image)
    assert same_element((r1 * r2).scale(-1j), gamma_element(2))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_mul_associative_unital(data):
    k = data.draw(st.integers(0, 4))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 31)))
    a, b, c = (gaussian_integer_element(rng, k) for _ in range(3))
    assert same_element((a * b) * c, a * (b * c))
    one = blade(k, 0)
    assert same_element(a * one, a) and same_element(one * a, a)


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
        gamma = gamma_element(k).data[top].item() * images[top]
        for mask in range(1 << k):
            assert np.allclose(gamma @ images[mask] @ gamma,
                               (-1) ** parity(k)[mask] * images[mask])


def test_generator_signs_match_signed_generator_products():
    for k in range(0, 5):
        for flips in range(1 << k):
            signs = tuple(-1 if flips >> i & 1 else 1 for i in range(k))
            table = generator_signs(signs)
            for mask in range(1 << k):
                prod = blade(k, 0)
                for i in range(k):
                    if mask >> i & 1:
                        prod = prod * generator(k, i + 1).scale(signs[i])
                assert same_element(prod, blade(k, mask).scale(table[mask]))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_star_antihomomorphism(data):
    k = data.draw(st.integers(0, 4))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 31)))
    a, b = gaussian_integer_element(rng, k), gaussian_integer_element(rng, k)
    assert same_element((a * b).star(), b.star() * a.star())
    assert same_element(a.star().star(), a)


def test_star_examples():
    r1 = generator(2, 1)
    assert same_element(r1.star(), r1)
    r12 = blade(2, 0b11)
    assert same_element(r12.star(), r12.scale(-1))
    for k in range(0, 9):
        g = gamma_element(k)
        assert same_element(g.star(), g)
        assert same_element(g * g, blade(k, 0))


def test_gamma_examples():
    assert same_element(gamma_element(0), blade(0, 0))
    g3 = gamma_element(3)
    assert g3.data[0b111].item() == (1j) ** (-1 % 4)
    assert same_element(g3 * g3, blade(3, 0))
    with pytest.raises(ValueError):
        gamma_element(9)


def test_real_structure_definition():
    sig = CliffordSignature(1, 1)
    r1, r2 = generator(2, 1), generator(2, 2)
    assert same_element(real_structure(sig, r1), r1)
    assert same_element(real_structure(sig, r2), r2.scale(-1))
    assert same_element(real_structure(sig, blade(2, 0)), blade(2, 0))
    # antilinear
    assert same_element(real_structure(sig, r1.scale(2j)), r1.scale(-2j))
    # one sign per generator
    with pytest.raises(ValueError, match="generator signs"):
        real_structure(CliffordSignature(1, 0), r1)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_real_structure_properties(data):
    r = data.draw(st.integers(0, 3))
    s = data.draw(st.integers(0, 3))
    sig = CliffordSignature(r, s)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 31)))
    a, b = gaussian_integer_element(rng, sig.k), gaussian_integer_element(rng, sig.k)
    la, lb = real_structure(sig, a), real_structure(sig, b)
    # order 2, multiplicative, star-compatible, grading-compatible
    assert same_element(real_structure(sig, la), a)
    assert same_element(real_structure(sig, a * b), la * lb)
    assert same_element(real_structure(sig, a.star()), la.star())
    assert same_element(real_structure(sig, a.grading()), la.grading())


def test_real_structure_on_gamma():
    for r in range(0, 7):
        for s in range(0, 7 - r):
            g = gamma_element(r + s)
            got = real_structure(CliffordSignature(r, s), g)
            assert same_element(got, g.scale((-1.0) ** (mu(r - s) % 2)))


def test_j_functional_values():
    for k in range(0, 7):
        assert j_functional(gamma_element(k)) == 1
        if k >= 1:
            assert j_functional(blade(k, 0)) == 0
    r1, r2 = generator(2, 1), generator(2, 2)
    assert j_functional(r1 * r2) == 1j


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_j_functional_graded_trace(data):
    k = data.draw(st.integers(0, 6))
    sa = data.draw(st.integers(0, (1 << k) - 1))
    sb = data.draw(st.integers(0, (1 << k) - 1))
    a, b = blade(k, sa), blade(k, sb)
    da, db = subset_size(sa) % 2, subset_size(sb) % 2
    lhs = j_functional(a * b)
    rhs = (-1) ** (da * db) * j_functional(b * a)
    assert lhs == rhs
