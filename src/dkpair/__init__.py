"""Character pairings and torsion-valued pairings for K-classes of graded
algebras of matrix-valued torus functions tensored with Clifford factors.

Applications: winding and Chern numbers, the spin Chern number and the
Kane-Mele Z2 invariant, and Z2 invariants of periodically driven models.
"""

from .clifford import CliffordSignature, mu
from .grid_alg import (AlgElement, RealStructureSpec, TorusGrid, alg_mul,
                       alg_star, apply_derivation, apply_real_structure,
                       check_invariance, direct_sum, gamma_element,
                       j_functional, psi_e, trace)
from .kclass import (BasePoint, GapClosedError, LoopElement,
                     OsuValidationError, bott_loop, flatten,
                     make_osu_from_hamiltonian, osu_validate, torsion_loop)
from .pairing import (MODULUS_KANE_MELE_CH2, MODULUS_KO2_CH0, CycleSpec,
                      SelectionRule, TorsionValue, band_chern, ch0, ch1, ch2,
                      chern_number, pair, pair_suspended,
                      pimsner_constant, selection_rule,
                      torsion_pairing_closed_form, torsion_pairing_via_loop,
                      winding_number)
from .floquet import (ArcInvariant, ArcProjection, FloquetDrive,
                      SpinDoubledDrive, arc_projection, branch_pair,
                      decoupled_contraction, degree_t3, effective_hamiltonian,
                      evolve, periodized_evolution)

__version__ = "0.1.0"
