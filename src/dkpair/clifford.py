"""Exact complex Clifford algebra engine on the generator-subset basis.

Basis elements are indexed by subsets S of {1..k} encoded as bitmasks
(bit i-1 set means generator rho_i is present, factors in ascending
index order).  All products only ever multiply coefficients by +-1 or
+-i, so results are exact for exact inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MAX_GENERATORS = 8


def mu(k: int) -> int:
    """Greatest integer <= k/2, extended to negative k by mu(k+2) = mu(k) + 1."""
    return k // 2


def subset_size(mask: int) -> int:
    return bin(mask).count("1")


@lru_cache(maxsize=None)
def sign_table(k: int) -> np.ndarray:
    """(2^k, 2^k) table with e_S e_T = sign_table[S, T] * e_{S xor T}.

    The sign counts the transpositions needed to move each generator of T
    left past the larger-indexed generators of S; repeated generators then
    square to +1.
    """
    if not 0 <= k <= MAX_GENERATORS:
        raise ValueError(f"generator count must be in [0, {MAX_GENERATORS}], got {k}")
    dim = 1 << k
    table = np.ones((dim, dim), dtype=np.int8)
    for s in range(dim):
        for t in range(dim):
            swaps = 0
            for gen in range(k):
                if t >> gen & 1:
                    swaps += subset_size(s >> (gen + 1))
            if swaps % 2:
                table[s, t] = -1
    return table


def _shared(values) -> np.ndarray:
    """A read-only array, safe to hand out from a cache."""
    arr = np.array(values)
    arr.flags.writeable = False
    return arr


@lru_cache(maxsize=None)
def parity(k: int) -> np.ndarray:
    """Z2-degree |S| mod 2 of every basis element e_S."""
    return _shared([subset_size(s) % 2 for s in range(1 << k)])


@lru_cache(maxsize=None)
def reversion_signs(k: int) -> np.ndarray:
    """Sign (-1)^mu(|S|) from reversing the factors of e_S: e_S* = sign * e_S."""
    return _shared([(-1) ** mu(subset_size(s)) for s in range(1 << k)])


@lru_cache(maxsize=None)
def generator_signs(signs: tuple[int, ...]) -> np.ndarray:
    """Sign of e_S under rho_i -> signs[i-1] rho_i: the product of the signs
    of the generators in S."""
    return _shared([math.prod(g for i, g in enumerate(signs) if s >> i & 1)
                    for s in range(1 << len(signs))])


@dataclass(frozen=True)
class CliffordSignature:
    """Counts of generators fixed (r) and negated (s) by a real structure."""

    r: int
    s: int

    def __post_init__(self):
        if self.r < 0 or self.s < 0:
            raise ValueError("signature counts must be non-negative")

    @property
    def k(self) -> int:
        return self.r + self.s

    @property
    def signs(self) -> tuple[int, ...]:
        """Per-generator sign under the real structure, (+1,)*r + (-1,)*s."""
        return (1,) * self.r + (-1,) * self.s


class Multivector:
    """Element of the complex Clifford algebra on k generators.

    coeffs[S] is the coefficient of the basis element e_S.  Instances are
    treated as immutable values.
    """

    __slots__ = ("k", "coeffs")

    def __init__(self, k: int, coeffs=None):
        if not 0 <= k <= MAX_GENERATORS:
            raise ValueError(f"generator count must be in [0, {MAX_GENERATORS}], got {k}")
        self.k = k
        if coeffs is None:
            self.coeffs = np.zeros(1 << k, dtype=complex)
        else:
            coeffs = np.asarray(coeffs, dtype=complex)
            if coeffs.shape != (1 << k,):
                raise ValueError(f"expected {1 << k} coefficients, got {coeffs.shape}")
            self.coeffs = coeffs.copy()

    # -- constructors -------------------------------------------------
    @classmethod
    def unit(cls, k: int) -> "Multivector":
        m = cls(k)
        m.coeffs[0] = 1.0
        return m

    @classmethod
    def generator(cls, k: int, i: int) -> "Multivector":
        """rho_i, 1-indexed."""
        if not 1 <= i <= k:
            raise ValueError(f"generator index {i} out of range 1..{k}")
        m = cls(k)
        m.coeffs[1 << (i - 1)] = 1.0
        return m

    # -- algebra ------------------------------------------------------
    def __add__(self, other: "Multivector") -> "Multivector":
        self._check(other)
        return Multivector(self.k, self.coeffs + other.coeffs)

    def __sub__(self, other: "Multivector") -> "Multivector":
        self._check(other)
        return Multivector(self.k, self.coeffs - other.coeffs)

    def __neg__(self) -> "Multivector":
        return Multivector(self.k, -self.coeffs)

    def scale(self, c: complex) -> "Multivector":
        return Multivector(self.k, c * self.coeffs)

    def __mul__(self, other):
        if isinstance(other, Multivector):
            return mv_mul(self, other)
        return self.scale(other)

    __rmul__ = scale

    def _check(self, other: "Multivector"):
        if self.k != other.k:
            raise ValueError(f"generator count mismatch: {self.k} vs {other.k}")

    def star(self) -> "Multivector":
        return mv_star(self)

    def norm(self) -> float:
        return float(np.max(np.abs(self.coeffs))) if self.coeffs.size else 0.0

    def __repr__(self):
        terms = []
        for mask in np.flatnonzero(self.coeffs):
            name = "1" if mask == 0 else "".join(
                f"r{i + 1}" for i in range(self.k) if mask >> i & 1
            )
            terms.append(f"({self.coeffs[mask]:.4g})*{name}")
        return f"Multivector(k={self.k}, {' + '.join(terms) or '0'})"


def mv_mul(a: Multivector, b: Multivector) -> Multivector:
    a._check(b)
    table = sign_table(a.k)
    out = np.zeros_like(a.coeffs)
    for s in np.flatnonzero(a.coeffs):
        for t in np.flatnonzero(b.coeffs):
            out[s ^ t] += table[s, t] * a.coeffs[s] * b.coeffs[t]
    return Multivector(a.k, out)


def mv_star(a: Multivector) -> Multivector:
    """Antilinear involution: generators are self-adjoint, products reverse."""
    out = np.conj(a.coeffs)
    out[reversion_signs(a.k) < 0] *= -1
    return Multivector(a.k, out)


def gamma_element(k: int) -> Multivector:
    """Chirality element i^{-mu(k)} rho_1 ... rho_k; self-adjoint, squares to 1."""
    m = Multivector(k)
    m.coeffs[(1 << k) - 1] = (1j) ** (-mu(k) % 4)
    return m


def real_structure_l(sig: CliffordSignature, a: Multivector) -> Multivector:
    """Antilinear *-automorphism fixing the first r generators, negating the rest."""
    if a.k != sig.k:
        raise ValueError(f"element has {a.k} generators, signature needs {sig.k}")
    return apply_generator_signs(sig.signs, a)


def apply_generator_signs(signs: tuple[int, ...], a: Multivector) -> Multivector:
    """Antilinear map rho_i -> signs[i-1] * rho_i extended as a *-automorphism."""
    if len(signs) != a.k:
        raise ValueError("one sign per generator required")
    out = np.conj(a.coeffs)
    out[generator_signs(tuple(signs)) < 0] *= -1
    return Multivector(a.k, out)


def j_functional(a: Multivector) -> complex:
    """Coefficient of the chirality element: linear, graded trace, j(Gamma_k) = 1."""
    k = a.k
    return complex(a.coeffs[(1 << k) - 1] * (1j) ** (mu(k) % 4))


@lru_cache(maxsize=None)
def representation(k: int) -> tuple[np.ndarray, int]:
    """Faithful matrix images of all basis elements, Jordan-Wigner style.

    Returns (R, q) where R[S] is the 2^q x 2^q image of e_S and q = ceil(k/2).
    The map is a *-homomorphism and distinct basis images are orthogonal
    under the normalized matrix trace, so coefficients can be read back
    via tr(R[S]^dag M) / 2^q.
    """
    q = (k + 1) // 2
    dim = 1 << q
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    eye = np.eye(2, dtype=complex)

    gens = []
    for i in range(1, k + 1):
        j = (i - 1) // 2
        pauli = sx if i % 2 else sy
        factors = [sz] * j + [pauli] + [eye] * (q - j - 1)
        g = factors[0]
        for f in factors[1:]:
            g = np.kron(g, f)
        gens.append(g)

    images = np.zeros((1 << k, dim, dim), dtype=complex)
    images[0] = np.eye(dim)
    for mask in range(1, 1 << k):
        m = np.eye(dim, dtype=complex)
        for i in range(k):
            if mask >> i & 1:
                m = m @ gens[i]
        images[mask] = m
    return images, q
