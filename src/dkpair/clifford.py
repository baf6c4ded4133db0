"""Sign tables of the complex Clifford algebra on the generator-subset basis.

Basis elements are indexed by subsets S of {1..k} encoded as bitmasks
(bit i-1 set means generator rho_i is present, factors in ascending
index order).  Every table entry is +-1, so the products, star and real
structures that `grid_alg` builds on them are exact for exact inputs; an
element of Cl_k alone is a `grid_alg.AlgElement` at one point with m = 1.
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
