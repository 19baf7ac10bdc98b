"""Exact rational computer algebra for Hom-Lie algebras with invariant forms."""

from .exactlin import Matrix, Subspace, frac
from .homalg import (
    AlphaClass,
    AssocAlgebra,
    BilinearForm,
    HomAlgebra,
    QuadraticHomAlgebra,
    Representation,
    check_hom_associative,
    check_hom_lie,
    check_hom_quadratic,
    check_morphism,
    check_quadratic,
    check_representation,
    classify_alpha,
    commutator_hom_lie,
    jacobiator,
)
from .build import (
    ExtensionData1D,
    InvolutiveExtensionData,
    adjoint_rep,
    centroid_twists,
    centroid_untwist,
    coadjoint_rep,
    derived_hom_algebra,
    double_extension_1d,
    involutive_double_extension,
    omega_extension,
    quadratic_derived,
    quadratic_yau_twist,
    semidirect_sum,
    tensor_current,
    tstar_extension,
    untwist_involutive,
    untwist_regular,
    yau_twist,
)
from .analyze import (
    DoubleExtensionWitness,
    FittingSplit,
    SimplicityVerdict,
    center,
    centroid,
    decompose_irreducible,
    fitting_decomposition,
    ideal_closure,
    is_solvable,
    orthogonal_ideal,
    radical_involutive,
    recognize_double_extension,
    simplicity_verdict,
    trace_form,
    verify_centerless_involution,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
