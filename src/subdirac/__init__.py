"""Clifford algebras, spinor frames, and submanifold Dirac operators.

The package realizes, numerically, the chain from exact Clifford-algebra
arithmetic through spinor representations and Frobenius reciprocity to the
submanifold Dirac operator of an immersed chart, whose kernel spinors
reproduce the immersion through bilinear pairings (the generalized
Weierstrass route).
"""

from .clifford import (
    Multivector,
    adjoint_rotation,
    geometric_product,
    grade_involution,
    grade_project,
    inverse,
    is_clifford_group,
    reversion,
)
from .dirac import (
    DiracOperator,
    GridSpinorField,
    apply_operator,
    dirac_residual,
    frame_lift_coefficients,
    frame_lift_field,
    frame_spinor_fields,
    intrinsic_dirac,
    lift_gram,
    lift_residuals,
    pointwise_pairings,
    selfadjointization_check,
    selfadjointization_limit,
    submanifold_dirac,
)
from .geometry import (
    CATALOG,
    FocalDistanceError,
    FrameField,
    ImmersionChart,
    ImmersionError,
    IntegrabilityError,
    PointFrame,
    adapted_frames,
    build_frame_field,
    catalog_chart,
    induced_metric,
    rho,
    tubular_metric,
    weingarten,
)
from .meshio import export_obj
from .reciprocity import (
    EmbeddingPair,
    Intertwiner,
    check_reciprocity,
    induce,
    recover_embedding,
    recover_embedding_matrix,
    reference_intertwiner,
    restrict,
)
from .spinors import (
    CliffordGroupElement,
    CoSpinor,
    GammaRep,
    Spinor,
    build_gamma_rep,
    conjugate,
    pairing,
    primitive_spinor,
    recover_rotation,
    rep_of,
    spin_lift,
    spinor_dim,
    vector_pairing,
)
from .weierstrass import (
    MisclassificationError,
    ReconstructionReport,
    frenet_serret_case,
    immersion_bilinear,
    immersion_bilinears,
    minimal_surface_crosscheck,
    reconstruct_immersion,
    reconstruction_report,
)

__version__ = "0.1.0"
