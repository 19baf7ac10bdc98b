"""Exact rational computer algebra for Hom-Lie algebras with invariant forms.

``import homlie`` loads only ``exactlin`` and ``homalg`` (with ``errors``).
The modules ``analyze``, ``build``, ``catalog`` and ``serialize``, and the
names exported here from ``analyze`` and ``build``, are loaded on first
access by the module ``__getattr__`` below, the package's one loader: so
``homlie.centroid`` or ``homlie.build`` imports that module then, and
``from homlie import *`` imports everything in ``__all__``.  A command of
the CLI loads only the modules it runs.
"""

from .exactlin import Matrix, Subspace, frac
from .homalg import (
    AlphaClass,
    AssocAlgebra,
    BilinearForm,
    ExtensionData1D,
    HomAlgebra,
    InvolutiveExtensionData,
    QuadraticHomAlgebra,
    Representation,
    center,
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

__version__ = "0.1.0"

# name -> the submodule that defines it, for every name loaded on first access
_LAZY = {
    **dict.fromkeys(
        [
            "analyze",
            "DoubleExtensionWitness",
            "FittingSplit",
            "SimplicityVerdict",
            "centroid",
            "decompose_irreducible",
            "fitting_decomposition",
            "ideal_closure",
            "is_solvable",
            "orthogonal_ideal",
            "radical_involutive",
            "recognize_double_extension",
            "simplicity_verdict",
            "trace_form",
            "verify_centerless_involution",
        ],
        "analyze",
    ),
    **dict.fromkeys(
        [
            "build",
            "adjoint_rep",
            "centroid_twists",
            "centroid_untwist",
            "coadjoint_rep",
            "derived_hom_algebra",
            "double_extension_1d",
            "involutive_double_extension",
            "omega_extension",
            "quadratic_derived",
            "quadratic_yau_twist",
            "semidirect_sum",
            "tensor_current",
            "tstar_extension",
            "untwist_involutive",
            "untwist_regular",
            "yau_twist",
        ],
        "build",
    ),
    "catalog": "catalog",
    "serialize": "serialize",
}

# the public names bound above and the lazy ones, less the two submodules
# the package has never exported
__all__ = sorted(
    name
    for name in [*globals(), *_LAZY]
    if not name.startswith("_") and name not in ("catalog", "serialize")
)


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import statement's own path, so -X importtime lists the module; it
    # binds the loaded submodule as an attribute of this package
    __import__(f"{__name__}.{module}")
    loaded = globals()[module]
    return loaded if name == module else getattr(loaded, name)
