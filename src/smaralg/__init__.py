"""smaralg: a workbench for Smarandache algebraic structures.

Computable pieces: subfields embedded in Z_n and exact linear algebra
over them (characteristic polynomials, S-characteristic and alien
values, spectral decompositions), polynomial root criteria over prime
fields, representations of the subgroups of finite semigroups over exact
rationals, semivector spaces over the nonnegative integers and chain
lattices, and relaxed Markov/Leontief matrix models.
"""

__version__ = "0.1.0"

from .ringcore import (
    Subfield,
    SubfieldRejection,
    certify_subfield,
    find_subfields,
    idempotents,
    subfield_from_elements,
)
from .polylab import (
    FermatFamily,
    ModPolynomial,
    ReducibilityReport,
    RootClassification,
    RootTruth,
    Verdict,
    block_transform,
    coeff_sum_hom,
    fermat_family_check,
    fermat_power_sum,
    kernel_of_hom,
    neutrosophic_classify,
    parse_poly,
    reducibility_report,
    roots_in,
)
from .linalg import (
    CharPolyResult,
    EigenSystem,
    SpectralDecomposition,
    SpectralDiagnostic,
    SubfieldMatrix,
    SubfieldVector,
    bilinear_form_analyze,
    char_poly,
    eigen_system,
    pseudo_inner_product,
    rref_and_nullspace,
    self_adjoint_check,
    spectral_decompose,
)
from .semigroup import (
    Representation,
    SemigroupTable,
    Side,
    SubgroupRecord,
    averaged_projection,
    decompose_invariants,
    find_subgroups,
    left_right_intertwiner,
    permutation_representation,
    regular_representation,
    rep_isomorphic,
    validate_table,
)
from .semivector import (
    ChainLattice,
    DependenceReport,
    NonNegIntegers,
    SemivectorTuple,
    enumerate_representations,
    independence_check,
    lattice_semivector_check,
    span_membership,
    spans_space,
)
from .econ import (
    LeontiefSolution,
    MarkovTrajectory,
    TransitionClassification,
    TransitionKind,
    classify_transition,
    closed_solve,
    markov_step,
    open_solve,
)
