"""The eleven immutable records and the three algebra types: construction,
equality, hash, repr, immutability.

These pin the behaviour callers and reports rely on: a record equals only a
record of the same class with equal fields, hashes as the tuple of its
fields, prints as ``Name(field=value, ...)`` and refuses assignment.  The
algebra types are records too, but print as ``Name(dim=n)``, and
``HomAlgebra`` and ``AssocAlgebra`` hash their structure table as its item
tuple.
"""

from fractions import Fraction as F

import pytest

from homlie import (
    AlphaClass,
    AssocAlgebra,
    BilinearForm,
    DoubleExtensionWitness,
    ExtensionData1D,
    FittingSplit,
    HomAlgebra,
    InvolutiveExtensionData,
    QuadraticHomAlgebra,
    Representation,
    SimplicityVerdict,
    catalog,
)
from homlie.errors import DimensionMismatch
from homlie.exactlin import Matrix, Subspace
from homlie.homalg import HomLieReport, QuadraticReport
from homlie.serialize import ParsedFile

I2 = Matrix.identity(2)
SWAP = Matrix([[0, 1], [1, 0]])
FORM = BilinearForm(2, I2)
PLANE = QuadraticHomAlgebra(catalog.abelian(2), FORM)
DATA = ExtensionData1D(I2, (1, 0), 2, F(1, 2))

# class, field names in order, one instance's arguments, the same arguments
# with one field changed, and that instance's repr
RECORDS = [
    (
        HomLieReport,
        ("skew", "hom_jacobi", "skew_witness", "jacobi_witness", "jacobi_residual"),
        (True, False, None, (0, 1, 2), (F(1, 2), F(0))),
        (True, False, None, (0, 1, 3), (F(1, 2), F(0))),
        "HomLieReport(skew=True, hom_jacobi=False, skew_witness=None, jacobi_witness=(0, 1, 2),"
        " jacobi_residual=(Fraction(1, 2), Fraction(0, 1)))",
    ),
    (
        QuadraticReport,
        (
            "symmetric", "nondegenerate", "invariant", "alpha_symmetric",
            "symmetric_witness", "degenerate_witness", "invariant_witness", "alpha_witness",
        ),
        (True, True, True, False, None, None, None, (0, 1)),
        (True, True, True, False, None, None, None, (1, 0)),
        "QuadraticReport(symmetric=True, nondegenerate=True, invariant=True, alpha_symmetric=False,"
        " symmetric_witness=None, degenerate_witness=None, invariant_witness=None, alpha_witness=(0, 1))",
    ),
    (
        AlphaClass,
        ("tag", "multiplicative", "regular", "involutive", "nilpotent"),
        ("regular", True, True, False, False),
        ("regular", True, True, True, False),
        "AlphaClass(tag='regular', multiplicative=True, regular=True, involutive=False, nilpotent=False)",
    ),
    (
        BilinearForm,
        ("dim", "gram"),
        (2, I2),
        (2, SWAP),
        "BilinearForm(dim=2, gram=Matrix(2x2: 1 0; 0 1))",
    ),
    (
        Representation,
        ("algebra_dim", "module_dim", "rho", "beta"),
        (1, 2, (I2,), SWAP),
        (1, 2, (SWAP,), SWAP),
        "Representation(algebra_dim=1, module_dim=2, rho=(Matrix(2x2: 1 0; 0 1),),"
        " beta=Matrix(2x2: 0 1; 1 0))",
    ),
    (
        ExtensionData1D,
        ("delta", "x0", "lam", "lam0"),
        (I2, (F(1), F(0)), F(2), F(1, 2)),
        (I2, (F(1), F(0)), F(2), F(1, 3)),
        "ExtensionData1D(delta=Matrix(2x2: 1 0; 0 1), x0=(Fraction(1, 1), Fraction(0, 1)),"
        " lam=Fraction(2, 1), lam0=Fraction(1, 2))",
    ),
    (
        InvolutiveExtensionData,
        ("phi", "gamma"),
        ((I2,), FORM),
        ((SWAP,), FORM),
        "InvolutiveExtensionData(phi=(Matrix(2x2: 1 0; 0 1),),"
        " gamma=BilinearForm(dim=2, gram=Matrix(2x2: 1 0; 0 1)))",
    ),
    (
        FittingSplit,
        ("i_part", "j_part", "n"),
        (Subspace.full(2), Subspace.full(2), 1),
        (Subspace.full(2), Subspace.full(2), 2),
        "FittingSplit(i_part=Subspace(dim 2 of Q^2), j_part=Subspace(dim 2 of Q^2), n=1)",
    ),
    (
        SimplicityVerdict,
        ("tag", "witness"),
        ("NotSimple", Subspace.full(2)),
        ("Unknown", Subspace.full(2)),
        "SimplicityVerdict(tag='NotSimple', witness=Subspace(dim 2 of Q^2))",
    ),
    (
        DoubleExtensionWitness,
        ("e_vec", "b_vec", "v_basis", "data", "base"),
        ((F(1), F(0)), (F(0), F(1)), Subspace.full(2), DATA, PLANE),
        ((F(1), F(0)), (F(0), F(2)), Subspace.full(2), DATA, PLANE),
        "DoubleExtensionWitness(e_vec=(Fraction(1, 1), Fraction(0, 1)),"
        " b_vec=(Fraction(0, 1), Fraction(1, 1)), v_basis=Subspace(dim 2 of Q^2),"
        " data=ExtensionData1D(delta=Matrix(2x2: 1 0; 0 1), x0=(Fraction(1, 1), Fraction(0, 1)),"
        " lam=Fraction(2, 1), lam0=Fraction(1, 2)), base=QuadraticHomAlgebra(dim=2))",
    ),
    (
        ParsedFile,
        ("algebra", "assoc", "form", "basis_names"),
        (catalog.heis3(), None, None, None),
        (catalog.heis3(), None, FORM, None),
        "ParsedFile(algebra=HomAlgebra(dim=3), assoc=None, form=None, basis_names=None)",
    ),
]
IDS = [row[0].__name__ for row in RECORDS]

ONE, HALF = (F(1), F(0)), (F(1, 2), F(0))
# the algebra types in the layout of RECORDS, with the tuple each instance hashes as
ALGEBRAS = [
    (
        HomAlgebra,
        ("dim", "bracket", "alpha"),
        (2, {(0, 1): ONE}, I2),
        (2, {(0, 1): HALF}, I2),
        "HomAlgebra(dim=2)",
        (2, (((0, 1), ONE),), I2),
    ),
    (
        AssocAlgebra,
        ("dim", "product", "alpha"),
        (2, {(0, 0): ONE, (1, 1): (F(0), F(1))}, I2),
        (2, {(0, 0): ONE, (1, 1): (F(0), F(1))}, SWAP),
        "AssocAlgebra(dim=2)",
        (2, (((0, 0), ONE), ((1, 1), (F(0), F(1)))), I2),
    ),
    (
        QuadraticHomAlgebra,
        ("algebra", "form"),
        (catalog.abelian(2), FORM),
        (catalog.abelian(2), BilinearForm(2, SWAP)),
        "QuadraticHomAlgebra(dim=2)",
        (catalog.abelian(2), FORM),
    ),
]
ALGEBRA_IDS = [row[0].__name__ for row in ALGEBRAS]
# every record type and algebra type, without the hashed tuple
ALL_TYPES = RECORDS + [row[:5] for row in ALGEBRAS]
ALL_IDS = IDS + ALGEBRA_IDS


@pytest.mark.parametrize("cls, fields, args, changed, text", RECORDS, ids=IDS)
def test_equality_and_hash_follow_the_fields(cls, fields, args, changed, text):
    r = cls(*args)
    assert r == cls(*args)
    assert hash(r) == hash(cls(*args)) == hash(args)
    assert r != cls(*changed)
    assert not r == cls(*changed)
    assert r != args


@pytest.mark.parametrize("cls, fields, args, changed, text, hashed", ALGEBRAS, ids=ALGEBRA_IDS)
def test_algebra_equality_and_hash_follow_the_fields(cls, fields, args, changed, text, hashed):
    r = cls(*args)
    assert r == cls(*args)
    assert hash(r) == hash(cls(*args)) == hash(hashed)
    assert r != cls(*changed)
    assert not r == cls(*changed)
    assert r != args


def test_algebra_types_of_equal_dimension_are_unequal():
    lie = HomAlgebra(2, {}, I2)
    assoc = AssocAlgebra(2, {}, I2)
    assert lie != assoc and assoc != lie and lie != QuadraticHomAlgebra(lie, FORM)


def test_assoc_algebra_equality_is_structural():
    nested = [[ONE, (F(0), F(0))], [(F(0), F(0)), (F(0), F(1))]]
    a = AssocAlgebra(2, nested, I2)
    b = AssocAlgebra(2, {(1, 1): (0, 1), (0, 0): (1, 0)}, Matrix.identity(2))
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != AssocAlgebra(2, nested, SWAP)
    assert len({a, b, AssocAlgebra(2, nested, SWAP)}) == 2


@pytest.mark.parametrize("cls, fields, args, changed, text", ALL_TYPES, ids=ALL_IDS)
def test_another_record_class_with_equal_fields_is_unequal(cls, fields, args, changed, text):
    twin = type(cls.__name__, (cls,), {})(*args)
    r = cls(*args)
    assert r != twin and twin != r
    assert not r == twin


def test_records_of_different_classes_with_equal_field_tuples_are_unequal():
    fields = (True, True, None, None, None)
    assert AlphaClass(*fields) != HomLieReport(*fields)


@pytest.mark.parametrize("cls, fields, args, changed, text", ALL_TYPES, ids=ALL_IDS)
def test_repr(cls, fields, args, changed, text):
    assert repr(cls(*args)) == text


@pytest.mark.parametrize("cls, fields, args, changed, text", ALL_TYPES, ids=ALL_IDS)
def test_assignment_raises_attribute_error(cls, fields, args, changed, text):
    r = cls(*args)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(r, name, None)
        with pytest.raises(AttributeError):
            delattr(r, name)
    with pytest.raises(AttributeError):
        r.extra = 1
    assert tuple(getattr(r, name) for name in fields) == args


@pytest.mark.parametrize("cls, fields, args, changed, text", ALL_TYPES, ids=ALL_IDS)
def test_keyword_and_positional_construction(cls, fields, args, changed, text):
    r = cls(*args)
    assert cls(**dict(zip(fields, args))) == r
    assert cls(*args[:1], **dict(zip(fields[1:], args[1:]))) == r
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(**dict(zip(fields[1:], args[1:])))
    with pytest.raises(TypeError):
        cls(*args, args[-1])
    with pytest.raises(TypeError):
        cls(*args, **{fields[0]: args[0]})
    with pytest.raises(TypeError):
        cls(*args, unknown=1)


def test_report_defaults():
    assert HomLieReport(True, True) == HomLieReport(True, True, None, None, None)
    assert repr(HomLieReport(skew=True, hom_jacobi=True)) == (
        "HomLieReport(skew=True, hom_jacobi=True, skew_witness=None, jacobi_witness=None,"
        " jacobi_residual=None)"
    )
    assert HomLieReport(True, True).ok and not HomLieReport(True, False).ok
    q = QuadraticReport(True, True, True, True)
    assert q == QuadraticReport(True, True, True, True, None, None, None, None)
    assert q.ok and not QuadraticReport(True, False, True, True).ok
    assert QuadraticReport(True, True, True, False, alpha_witness=(1, 0)).alpha_witness == (1, 0)
    assert SimplicityVerdict("Simple") == SimplicityVerdict("Simple", None)


def test_unhashable_field_makes_an_unhashable_record():
    parsed = ParsedFile(catalog.heis3(), None, None, ["a", "b", "c"])
    assert parsed == ParsedFile(catalog.heis3(), None, None, ["a", "b", "c"])
    with pytest.raises(TypeError):
        hash(parsed)


def test_bilinear_form_checks_the_gram_shape():
    with pytest.raises(DimensionMismatch):
        BilinearForm(3, I2)
    with pytest.raises(DimensionMismatch):
        BilinearForm(2, Matrix([[1, 0]]))
    assert BilinearForm(2, I2).value((1, 2), (3, 4)) == 11


def test_representation_coerces_and_checks_its_actions():
    r = Representation(2, 2, [I2, SWAP], I2)
    assert r.rho == (I2, SWAP) and isinstance(r.rho, tuple)
    assert r == Representation(2, 2, (I2, SWAP), I2)
    with pytest.raises(DimensionMismatch):
        Representation(2, 2, [I2], I2)
    with pytest.raises(DimensionMismatch):
        Representation(1, 2, [Matrix.identity(3)], I2)
    with pytest.raises(DimensionMismatch):
        Representation(1, 2, [I2], Matrix.identity(3))


def test_extension_data_coerces_its_fields():
    d = ExtensionData1D(I2, [1, 0], 2, "1/2")
    assert d.x0 == (F(1), F(0)) and isinstance(d.x0, tuple)
    assert type(d.lam) is F and type(d.lam0) is F
    assert d == DATA and hash(d) == hash(DATA)
    inv = InvolutiveExtensionData([I2], FORM)
    assert inv.phi == (I2,) and isinstance(inv.phi, tuple)
