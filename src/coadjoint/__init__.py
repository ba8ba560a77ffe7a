"""Exact-arithmetic semi-direct product Lie algebras.

Constructs s = g |x V for the split classical algebras, computes indices
(direct Kirillov-form ranks and the Rais formula), generic stabilisers with
isomorphism fingerprints, polynomial symmetric invariants by exact kernels of
derivations, and the explicit generator constructions for the symplectic
family: principal-minor invariants of nilpotent centralisers, Z2-contraction
highest components, Takiff algebras, and the lift through the copy of g in
the symmetric square of the standard module.
"""

from .qlinalg import QMatrix, QQ, SampleConfig, VerificationError, kernel_basis, rank
from .liealg import (
    Fingerprint,
    IndexResult,
    LieAlgebraData,
    abelian_algebra,
    b_of,
    classical_algebra,
    direct_sum,
    fingerprint,
    heisenberg_algebra,
    index,
    matrix_algebra,
    subalgebra,
)
from .repn import (
    RepresentationData,
    adjoint_rep,
    build_module,
    check_representation,
    contraction_kernel,
    dual_rep,
    direct_sum_rep,
    exterior_power,
    spin_rep,
    standard_rep,
    symmetric_power,
    symplectic_form,
    trivial_rep,
    weight_module,
)
from .semidirect import (
    SemiDirectProduct,
    direct_index,
    generic_stabiliser_in_V,
    rais_index,
    rais_index_at,
    semidirect,
    split_stabiliser_dim,
    stabiliser_full,
    stabiliser_in_V,
)
from .invariants import (
    GeneratorLedger,
    MultiPoly,
    freeness_checklist,
    generator_ledger,
    invariant_space,
    is_invariant,
    jacobian_independent,
    lie_derivative,
)
from .constructions import (
    ContractionSpec,
    MatrixRealisation,
    delta_k_matrix,
    e_delta_restricted,
    highest_component,
    item3_lift,
    minimal_nilpotent_centraliser_layout,
    pfaffian,
    restrict_psi,
    takiff,
    two_block_centraliser_layout,
    z2_contraction,
)
from .atlas import load_atlas, named_fingerprint, run_suite, verify_row

__version__ = "0.1.0"
