"""Tight-binding model builders: momentum-space symbols from hopping lists,
spin doubling, and the stock models used by the verification suites."""

from __future__ import annotations

import warnings

import numpy as np

from .grid_alg import (AlgElement, RealStructureSpec, TorusGrid, _at_minus_k,
                       apply_real_structure, require)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def _fourier_sum(grid: TorusGrid, modes: dict[tuple[int, ...], np.ndarray],
                 m: int) -> np.ndarray:
    """sum_n exp(2 pi i n.x / period) M_n at every grid point x, an
    (*sizes, m, m) array; one offset entry per grid axis."""
    fields = np.zeros((*grid.sizes, m, m), dtype=complex)
    for offset, mat in modes.items():
        phase = np.ones(grid.sizes, dtype=complex)
        for axis, n in enumerate(offset):
            # 2 pi / period is exactly 1 on momentum axes
            rate = n * (2 * np.pi / grid.period(axis))
            along = [-1 if a == axis else 1 for a in range(grid.d)]
            phase = phase * np.exp(1j * rate * grid.coordinates(axis)).reshape(along)
        fields += phase[..., None, None] * np.asarray(mat, dtype=complex)
    return fields


def symbol_from_hoppings(grid: TorusGrid, hoppings: dict[tuple[int, ...], np.ndarray],
                         m: int) -> AlgElement:
    """H(k) = sum_n e^{i k.n} M_n on the momentum grid.

    Requires M_{-n} = M_n^dag; violations within 1e-12 are symmetrized with
    a warning, larger ones raise.
    """
    seen: dict[tuple[int, ...], np.ndarray] = {}
    for offset, mat in hoppings.items():
        offset = tuple(int(o) for o in offset)
        if len(offset) != grid.d:
            raise ValueError(f"hopping offset {offset} has wrong dimension")
        mat = np.asarray(mat, dtype=complex)
        if mat.shape != (m, m):
            raise ValueError(f"hopping matrix at {offset} is not {m}x{m}")
        seen[offset] = mat
    for offset in list(seen):
        neg = tuple(-o for o in offset)
        if neg not in seen:
            raise ValueError(f"hopping {offset} has no hermitian partner {neg}")
        dev = float(np.max(np.abs(seen[neg] - np.conj(seen[offset].T))))
        require([("deviation", dev)], 1e-12, f"hoppings at {offset}/{neg} violate hermiticity")
        if dev > 0:
            warnings.warn(f"symmetrizing hoppings at {offset}/{neg} "
                          f"(deviation {dev:.1e})")
            avg = 0.5 * (seen[offset] + np.conj(seen[neg].T))
            seen[offset] = avg
            seen[neg] = np.conj(avg.T)
    return AlgElement.from_matrix_field(grid, _fourier_sum(grid, seen, m))


def block_from_hoppings(grid: TorusGrid, hoppings: dict[tuple[int, ...], np.ndarray],
                        m: int) -> AlgElement:
    """sum_n e^{i k.n} M_n without any hermiticity constraint (off-diagonal
    coupling blocks)."""
    return AlgElement.from_matrix_field(grid, _fourier_sum(grid, hoppings, m))


def conjugate_flip(x: AlgElement) -> AlgElement:
    """f(x)(k) = conj(x(-k)): the momentum-space form of entrywise conjugation."""
    rs = RealStructureSpec(fiber="c", momentum_flip=True, clifford_signs=(1,) * x.k)
    return apply_real_structure(rs, x)


def _partner_diag(upper: np.ndarray, lower: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """diag(upper, f lower), f(y)(k) = conj y(-k), of two (..., *grid.sizes,
    m, m) arrays: the one builder of a partner doubling."""
    m = upper.shape[-1]
    out = np.zeros((*upper.shape[:-2], 2 * m, 2 * m), dtype=complex)
    out[..., :m, :m] = upper
    np.conj(_at_minus_k(lower, grid, 2), out=out[..., m:, m:])
    return out


def spin_double(h1: AlgElement) -> AlgElement:
    """diag(h1, f(h1)): an odd-time-reversal-invariant block Hamiltonian."""
    return AlgElement(h1.grid, 2 * h1.m, 0, _partner_diag(h1.data[0], h1.data[0], h1.grid)[None])


def quaternionic_structure(k: int = 0) -> RealStructureSpec:
    """Odd time reversal on a spin-doubled symbol: Ad_{sigma_y x 1} conj at -k."""
    return RealStructureSpec(fiber="h", momentum_flip=True, clifford_signs=(1,) * k)


# ---------------------------------------------------------------------------
# stock models
# ---------------------------------------------------------------------------

def qwz_hoppings(mass: float) -> dict[tuple[int, int], np.ndarray]:
    """Two-band Chern insulator: sin k1 sx + sin k2 sy + (mass - cos k1 - cos k2) sz."""
    return {
        (0, 0): mass * SZ,
        (1, 0): 0.5 * (-1j * SX - SZ),
        (-1, 0): 0.5 * (1j * SX - SZ),
        (0, 1): 0.5 * (-1j * SY - SZ),
        (0, -1): 0.5 * (1j * SY - SZ),
    }


def qwz_symbol(grid: TorusGrid, mass: float) -> AlgElement:
    return symbol_from_hoppings(grid, qwz_hoppings(mass), 2)


def decoupled_tri_symbol(grid: TorusGrid, mass: float) -> AlgElement:
    """Spin-doubled QWZ block: gapped, odd-TRI, spin Chern |1| for 0 < mass < 2."""
    return spin_double(qwz_symbol(grid, mass))


def winding_unitary(grid: TorusGrid, n: int) -> AlgElement:
    """U(t) = e^{2 pi i n t} as a 1 x 1 field over a unit-period time circle."""
    return unitary_loop_from_modes(grid, {(n,): np.eye(1)}, 1)


def unitary_loop_from_modes(grid: TorusGrid,
                            modes: dict[tuple[int, ...], np.ndarray],
                            m: int) -> AlgElement:
    """U(t) = sum_n e^{2 pi i n t} M_n over a unit-period time circle.

    No hermiticity constraint; unitarity is the caller's concern.
    """
    if grid.d != 1 or grid.axis_roles[0] != "time":
        raise ValueError("expects a one-dimensional time circle")
    return AlgElement.from_matrix_field(grid, _fourier_sum(grid, modes, m))
