"""The package's public names, including those loaded on first access."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import homlie

SRC = Path(__file__).resolve().parent.parent / "src"

ALL = [
    "AlphaClass", "AssocAlgebra", "BilinearForm", "DoubleExtensionWitness", "ExtensionData1D",
    "FittingSplit", "HomAlgebra", "InvolutiveExtensionData", "Matrix", "QuadraticHomAlgebra",
    "Representation", "SimplicityVerdict", "Subspace", "adjoint_rep", "analyze", "build", "center",
    "centroid", "centroid_twists", "centroid_untwist", "check_hom_associative", "check_hom_lie",
    "check_hom_quadratic", "check_morphism", "check_quadratic", "check_representation",
    "classify_alpha", "coadjoint_rep", "commutator_hom_lie", "decompose_irreducible",
    "derived_hom_algebra", "double_extension_1d", "errors", "exactlin", "fitting_decomposition",
    "frac", "homalg", "ideal_closure", "involutive_double_extension", "is_solvable", "jacobiator",
    "omega_extension", "orthogonal_ideal", "quadratic_derived", "quadratic_yau_twist",
    "radical_involutive", "recognize_double_extension", "semidirect_sum", "simplicity_verdict",
    "tensor_current", "trace_form", "tstar_extension", "untwist_involutive", "untwist_regular",
    "verify_centerless_involution", "yau_twist",
]


def test_all_is_pinned():
    assert homlie.__all__ == ALL


def test_every_exported_name_resolves_and_star_import_binds_it():
    for name in ALL:
        assert getattr(homlie, name) is not None
    namespace = {}
    exec("from homlie import *", namespace)
    assert set(ALL) <= namespace.keys()
    assert all(namespace[name] is getattr(homlie, name) for name in ALL)


def test_exported_names_are_their_modules_objects():
    assert homlie.centroid is homlie.analyze.centroid
    assert homlie.yau_twist is homlie.build.yau_twist
    assert homlie.center is homlie.analyze.center is homlie.homalg.center
    assert homlie.ExtensionData1D is homlie.build.ExtensionData1D is homlie.homalg.ExtensionData1D
    assert homlie.InvolutiveExtensionData is homlie.build.InvolutiveExtensionData


def test_submodules_resolve_as_attributes_in_a_fresh_interpreter():
    code = (
        "import sys, homlie\n"
        "names = ('analyze', 'build', 'catalog', 'serialize')\n"
        "print(any('homlie.' + n in sys.modules for n in names))\n"
        "print(all(getattr(homlie, n) is sys.modules['homlie.' + n] for n in names))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout == "False\nTrue\n"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        homlie.no_such_name
    assert not hasattr(homlie, "Record")
    with pytest.raises(ImportError):
        exec("from homlie import no_such_name", {})
