"""Characters of cycles and their pairings with K-class representatives.

A cycle is described by its dimension n, an ordered list of commuting
spectral derivations, the normalization of its closed graded trace, and its
sign/parity under the *-operation and the real structure.  The pairing of an
n-dimensional character with an OSU x in M_m(A) (x) Cl_k is

    2^(k/2) * norm_const * i^mu(n) * sum_{perm} sgn *
        Tr_A Tr_m [ (x - e) d_{perm(1)}x ... d_{perm(n)}x ]_top

where [.]_top extracts the chirality-element coefficient of the Clifford
factor (with the *-compatible phase of the iterated contraction), and the
antisymmetrized permutation sum realizes (dx)^n over a Grassmann basis.
Every character here (and the Floquet T^3 degree) evaluates through the one
kernel `alt_trace`.

The torsion-valued pairing is computed two independent ways: from the
suspended character evaluated on an explicit four-segment loop, and from a
closed form using the spectral projection of the auxiliary symmetry y; both
land in R modulo a caller-supplied lattice modulus.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .clifford import CliffordSignature, mu, sign_table
from .grid_alg import AlgElement, Derivation, _mul_data, apply_derivation
from .kclass import BasePoint, LoopElement, OsuElement

@dataclass(frozen=True)
class CycleSpec:
    """Descriptor of a character: dimension, derivations, trace normalization,
    sign under * and parity under the real structure.

    norm_log2, when set, is the exact base-2 exponent of a real positive
    norm_const; it lets the 2^{k/2} pairing prefactor combine into a single
    power so that integer-valued pairings come out exact.
    """

    name: str
    n: int
    derivations: tuple[Derivation, ...]
    norm_const: complex
    sign: int = 1
    parity: int = 1
    norm_log2: float | None = None

    def __post_init__(self):
        if len(self.derivations) != self.n:
            raise ValueError("cycle needs one derivation per dimension")
        if self.norm_log2 is not None and \
                complex(2.0 ** self.norm_log2) != complex(self.norm_const):
            raise ValueError("norm_log2 disagrees with norm_const")

    def scale(self, k: int) -> complex:
        """2^{k/2} times the trace normalization."""
        if self.norm_log2 is not None:
            return 2.0 ** (k / 2 + self.norm_log2)
        return 2 ** (k / 2) * self.norm_const


def ch0() -> CycleSpec:
    return CycleSpec("ch0", 0, (), 2.0 ** -1.5, sign=1, parity=1,
                     norm_log2=-1.5)


def ch1(axis: int = 0) -> CycleSpec:
    """Winding cycle over a unit-period circle; trace normalized to 1/2."""
    return CycleSpec("ch1", 1, (Derivation(axis),), 0.5, sign=1, parity=1,
                     norm_log2=-1.0)


def ch2() -> CycleSpec:
    """Chern cycle over the momentum axes 0 and 1."""
    return CycleSpec("ch2", 2, (Derivation(0), Derivation(1)), 2.0 ** -3.5,
                     sign=1, parity=-1, norm_log2=-3.5)


@dataclass(frozen=True)
class PairingValue:
    value: complex
    cycle: str
    clifford_k: int


@dataclass(frozen=True)
class TorsionValue:
    """A residue class in R / modulus*Z (stored by one representative)."""

    value: float
    modulus: float

    @property
    def reduced(self) -> float:
        return float(np.mod(self.value, self.modulus))

    def distance(self, other) -> float:
        o = other.value if isinstance(other, TorsionValue) else float(other)
        d = np.mod(self.value - o, self.modulus)
        return float(min(d, self.modulus - d))

    def has_order_two(self, tol: float = 1e-6) -> bool:
        return TorsionValue(2 * self.value, self.modulus).distance(0.0) <= tol

    def z2_class(self, scale: float = 1.0, tol: float = 1e-3) -> int:
        """Round scale*value to an integer mod (scale*modulus = 2) semantics."""
        v = self.value * scale
        if abs(v - round(v)) > tol:
            raise ValueError(f"value {v} is not within {tol} of an integer")
        return int(round(v)) % 2


@dataclass(frozen=True)
class SelectionRule:
    n: int
    sign: int
    parity: int
    signature: CliffordSignature | None
    degree: int | None
    verdict: str            # "may-pair" | "must-vanish"
    value_ray: str | None   # "real" | "imaginary" when may-pair


def selection_rule(n: int, sign: int, parity: int,
                   sig: CliffordSignature | None = None,
                   degree: int | None = None) -> SelectionRule:
    """Vanishing rules and value rays for a cycle of the given sign/parity
    paired against real classes of signature (r,s) or degree i.  The matrix
    factor is trivially graded, so k + n even always vanishes."""
    if degree is not None and sig is None:
        # i = 1 - (r - s); realize with the minimal signature
        rs = 1 - degree
        sig = CliffordSignature(rs, 0) if rs >= 0 else CliffordSignature(0, -rs)
    if sig is None:
        raise ValueError("need a signature or a degree")
    r, s = sig.r, sig.s
    star_exp = (n + (1 - sign) // 2) % 4
    real_exp = (mu(r - s) + n * (r - s) + (1 - parity) // 2) % 4
    vanish = (star_exp - real_exp) % 2 == 1
    if (sig.k + n) % 2 == 0:
        vanish = True
    ray = None if vanish else ("real" if star_exp % 2 == 0 else "imaginary")
    return SelectionRule(n, sign, parity, sig, degree,
                         "must-vanish" if vanish else "may-pair", ray)


def pimsner_constant(n: int) -> complex:
    """Proportionality constant between a suspended pairing and the original."""
    if n < 0:
        raise ValueError("dimension must be non-negative")
    if n % 2 == 0:
        k = n // 2
        return -1j * np.pi * (k + 1) / 2 ** (2 * k + 0.5) * comb(2 * k + 1, k)
    k = (n - 1) // 2
    return -1j * 2 ** (2 * k + 1.5) / comb(2 * k + 1, k)


def mu_prime(i: int) -> int:
    """mu(i) - mu(i-1): 1 for even i, 0 for odd."""
    return mu(i) - mu(i - 1)


# ---------------------------------------------------------------------------
# pairing core
# ---------------------------------------------------------------------------

def alt_trace(z: np.ndarray, diffs: list[np.ndarray], k: int) -> np.ndarray:
    """Per-point Tr_m of the top Clifford component of
    z * sum_sigma sgn(sigma) d_sigma(1) ... d_sigma(n).

    Inputs are component-first data blocks (2^k, *batch, m, m); the result
    has shape batch.  The antisymmetrized product expands along its first
    factor, Alt(d_1..d_n) = sum_i (-1)^(i-1) d_i Alt(d_1..^d_i..d_n), and
    the last product with z is never formed: only its top component is
    contracted.
    """
    top = (1 << k) - 1
    if not diffs:
        return np.trace(z[top], axis1=-2, axis2=-1)
    right = _alt(diffs, k)
    table = sign_table(k)
    return sum(table[s, s ^ top]
               * np.einsum("...ij,...ji->...", z[s], right[s ^ top])
               for s in range(1 << k))


def _alt(diffs: list[np.ndarray], k: int) -> np.ndarray:
    """sum_sigma sgn(sigma) d_sigma(1) ... d_sigma(n), by first-factor expansion."""
    if len(diffs) == 1:
        return diffs[0]
    acc = None
    for i, d in enumerate(diffs):
        term = _mul_data(d, _alt(diffs[:i] + diffs[i + 1:], k), k)
        acc = term if acc is None else (acc - term if i % 2 else acc + term)
    return acc


def _top_phase(k: int, n: int) -> complex:
    """Phases of the iterated Clifford contraction of the top component,
    for k generators against n derivative factors."""
    omega_parity = (n + 1 + k) % 2
    return (1j) ** (mu(k) % 4) * (1j) ** ((k * omega_parity) % 4)


def _check_basepoint(cycle: CycleSpec, e: AlgElement, tol: float = 1e-10):
    for dv in cycle.derivations:
        res = apply_derivation(dv, e).norm_inf()
        if res > tol:
            raise ValueError(f"base point not killed by derivation on axis "
                             f"{dv.axis}: {res:.3e}")


def pair(cycle: CycleSpec, x: OsuElement | AlgElement,
         e: BasePoint | AlgElement | None = None) -> PairingValue:
    """Pair a character with the class of an OSU relative to a base point.

    For n > 0 the base point may be omitted (the pairing is independent of
    it); for n = 0 it is required.
    """
    xb = x.body if isinstance(x, OsuElement) else x
    if e is None:
        if cycle.n == 0:
            raise ValueError("a zero-dimensional pairing needs a base point")
        z = xb
    else:
        eb = e.e if isinstance(e, BasePoint) else e
        xb._check(eb)
        _check_basepoint(cycle, eb)
        z = xb - eb
    diffs = [apply_derivation(dv, xb).data for dv in cycle.derivations]
    n, k = cycle.n, xb.k
    raw = complex(np.mean(alt_trace(z.data, diffs, k))) * _top_phase(k, n)
    value = cycle.scale(k) * (1j) ** (mu(n) % 4) * raw
    return PairingValue(complex(value), cycle.name, k)


def winding_number(u: AlgElement) -> complex:
    """Integral over one period of Tr((U* - 1) U') for a unitary loop: the
    grid mean times the axis period (2*pi on momentum axes, 1 on time axes).
    Unitarity must hold within 1e-10.

    Divided by 2*pi*i this is the winding number of det U.
    """
    if u.k != 0 or u.grid.d != 1:
        raise ValueError("expects a plain matrix loop over one circle")
    unit = AlgElement.unit(u.grid, u.m, 0)
    res = (u * u.star() - unit).norm_inf()
    if res > 1e-10:
        raise ValueError(f"input not unitary (residual {res:.3e})")
    du = apply_derivation(Derivation(0), u)
    tr = alt_trace((u.star() - unit).data, [du.data], 0)
    return complex(np.mean(tr)) * u.grid.period(0)


def chern_number(p: AlgElement, tol: float = 1e-8) -> float:
    """Chern number of a projection field over T^2 (grid axes 0 and 1).

    Convention: 2*pi*i*Tr_A(p [d_1 p, d_2 p]) with the grid-mean trace; for
    the QWZ symbol at mass 1 the upper flattened band (1 + sign h)/2 gives
    +1 (this is minus the plaquette Berry-flux convention).
    """
    res = max((p * p - p).norm_inf(), (p - p.star()).norm_inf())
    if res > tol:
        raise ValueError(f"input not a projection field (residual {res:.3e})")
    d1 = apply_derivation(Derivation(0), p)
    d2 = apply_derivation(Derivation(1), p)
    val = 2j * np.pi * np.mean(alt_trace(p.data, [d1.data, d2.data], 0))
    if abs(val.imag) > tol:
        raise ValueError(f"Chern integrand not real (imag {val.imag:.3e})")
    return float(val.real)


def integer_check(value: float, tol: float = 1e-8) -> int:
    """Round-half-even integer snap; mismatch beyond tol is an error."""
    nearest = round(value)
    if abs(value - nearest) > tol:
        raise ValueError(f"{value} is not within {tol:g} of an integer")
    return int(nearest)


def spin_chern(h1: AlgElement, gap_tol: float = 1e-8) -> float:
    """Chern number of the positive spectral projection of a gapped block."""
    from .kclass import flatten
    s = flatten(h1, gap_tol)
    p1 = (s + AlgElement.unit(s.grid, s.m, 0)).scale(0.5)
    return chern_number(p1)


# ---------------------------------------------------------------------------
# suspended pairing over loops
# ---------------------------------------------------------------------------

def pair_suspended(cycle: CycleSpec, loop: LoopElement) -> PairingValue:
    """Pairing of the suspended (n+1)-dimensional character with a loop class.

    The loop contributes one extra Clifford generator and the time
    derivation; segments integrate in their local parametrization (the
    chain-rule factors cancel because each term is linear in the time
    derivative).  The base point is the loop's starting value, subtracted
    from the class representative; the subtraction matters numerically
    because the loops are only piecewise smooth.
    """
    loop.validate_continuity()
    base = loop.endpoints[0][0] if loop.endpoints else loop.segments[0].element(0)
    _check_basepoint(cycle, base)
    n = cycle.n
    k_loop = loop.k
    axes = [dv.axis for dv in cycle.derivations]
    total = 0.0 + 0.0j
    for seg in loop.segments:
        # one quadrature node at a time bounds the working set
        for j, weight in enumerate(seg.weights):
            value, dvalue, space = seg.node(j, axes)
            tr = alt_trace(value - base.data, space + [dvalue], k_loop)
            total += weight * np.mean(tr)
    # suspension trace: one half of the standard (n+1)-cycle trace on the
    # base trace.  The *-compatible phase of the top Grassmann contraction
    # is i^mu(n+1); for n = 2 this differs by -1 from the naive product of
    # the base phase with i^n, and only this choice is consistent with the
    # suspension identity <xi^S, beta[x]> = c_n <xi, [x]> at n = 2.
    value = (cycle.scale(k_loop)
             * (1j) ** (mu(n + 1) % 4) * 0.5
             * _top_phase(k_loop, n + 1)
             * total)
    return PairingValue(complex(value), cycle.name + "^S", k_loop)


# ---------------------------------------------------------------------------
# torsion-valued pairings
# ---------------------------------------------------------------------------

def _on_real_ray(value: complex, modulus: float) -> TorsionValue:
    """The class of a pairing value that the selection rules put on the real
    axis; its imaginary part must stay within 1e-6 max(1, |value|)."""
    if abs(value.imag) > 1e-6 * max(1.0, abs(value)):
        raise ValueError(f"torsion value off the real ray: {value}")
    return TorsionValue(float(value.real), modulus)


def torsion_pairing_via_loop(cycle: CycleSpec, loop: LoopElement,
                             modulus: float) -> TorsionValue:
    """c_n^{-1} times the suspended pairing of the loop, reduced mod modulus."""
    raw = pair_suspended(cycle, loop).value
    return _on_real_ray(raw / pimsner_constant(cycle.n), modulus)


def torsion_pairing_closed_form(cycle: CycleSpec, x: OsuElement | AlgElement,
                                e: BasePoint | AlgElement, y: AlgElement,
                                modulus: float) -> TorsionValue:
    """Closed form of the torsion pairing when an auxiliary even
    anti-self-adjoint unitary y commutes with the class and base point:

        i^(n - 1 + mu'(r+s+1)) * 2^((r+s)/2) *
            integral Tr [ p_y (x - e) (dx)^n ]_top,   p_y = (1 - i y)/2,

    reduced modulo the caller-supplied lattice modulus.
    """
    xb = x.body if isinstance(x, OsuElement) else x
    eb = e.e if isinstance(e, BasePoint) else e
    xb._check(eb)
    xb._check(y)
    _check_basepoint(cycle, eb)
    k = xb.k
    unit = AlgElement.unit(xb.grid, xb.m, xb.k)
    p_y = (unit - y.scale(1j)).scale(0.5)
    proj_res = (p_y * p_y - p_y).norm_inf()
    if proj_res > 1e-8:
        raise ValueError(f"(1 - i y)/2 is not a projection (residual {proj_res:.3e})")
    diffs = [apply_derivation(dv, xb).data for dv in cycle.derivations]
    n = cycle.n
    trace = complex(np.mean(alt_trace((p_y * (xb - eb)).data, diffs, k)))
    raw = trace * _top_phase(k, n) * cycle.scale(k) * (1j) ** (mu(n) % 4)
    return _on_real_ray((1j) ** ((n - 1 + mu_prime(k + 1)) % 4) * raw, modulus)


# preset quotient lattices (the general lattice is not computed here)
MODULUS_KO2_CH0 = 2.0
MODULUS_KANE_MELE_CH2 = 1.0 / np.pi
