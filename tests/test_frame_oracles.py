"""Recognition and decomposition against the per-vector oracles.

``recognize_double_extension`` and ``decompose_irreducible`` read every
piece off one change of basis; ``dense_structures`` keeps the readers that
expressed each piece one vector at a time.  Every witness field, every
exception type and message, and every (subspace, summand) pair must match
exactly: on quadratic catalog fixtures, on seeded random quadratic and
involutive quadratic instances, and on seeded double extensions and
two-level towers of them.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homlie import catalog
from homlie.analyze import decompose_irreducible, recognize_double_extension
from homlie.build import (
    ExtensionData1D,
    double_extension_1d,
    omega_extension,
    orthogonal_sum,
    tstar_extension,
)
from homlie.catalog import _nilpotent_block, random_extension_data
from homlie.errors import HomLieError
from homlie.exactlin import Matrix

from dense_structures import per_vector_decompose, per_vector_recognize

FIXTURES = {
    "sl_n_transpose_2": lambda: catalog.sl_n_transpose(2),
    "sl_n_transpose_3": lambda: catalog.sl_n_transpose(3),
    "tstar_heis3": lambda: tstar_extension(catalog.heis3()),
    "omega_filiform": lambda: omega_extension(catalog.filiform(4, 1)),
    "omega_two_nilpotent": lambda: omega_extension(catalog.two_nilpotent(4, 2)),
    "nilpotent_plus_slt2": lambda: orthogonal_sum(_nilpotent_block(2), catalog.sl_n_transpose(2)),
    "nilpotent_3": lambda: _nilpotent_block(3),
}
KINDS = ("quadratic", "involutive_quadratic")


def outcome(f, q):
    """f(q), or the type, message and witness of the library error it raised."""
    try:
        return f(q)
    except HomLieError as exc:
        return type(exc), str(exc), getattr(exc, "witness", None)


def assert_agree(q):
    assert outcome(recognize_double_extension, q) == outcome(per_vector_recognize, q)
    assert outcome(decompose_irreducible, q) == outcome(per_vector_decompose, q)


def seeded_extension(rng, q, involutive):
    """A double extension of q with data drawn from its solution space, as the benchmark draws it."""
    lam = Fraction(rng.choice((1, -1)))
    data = random_extension_data(rng, q, lam, involutive=involutive)
    if data is None:
        lam0 = Fraction(0) if involutive else Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
        data = ExtensionData1D(Matrix.zeros(q.dim, q.dim), [0] * q.dim, lam, lam0)
    return double_extension_1d(q, data)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixtures_match_per_vector_oracles(name):
    assert_agree(FIXTURES[name]())


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), dim=st.integers(3, 9), kind=st.sampled_from(KINDS))
def test_random_instances_match_per_vector_oracles(seed, dim, kind):
    assert_agree(catalog.random_instance(seed, dim, kind))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", range(10))
def test_decompose_matches_eager_family(seed, kind):
    for dim in (5, 8):
        q = catalog.random_instance(seed, dim, kind)
        assert outcome(decompose_irreducible, q) == outcome(per_vector_decompose, q)


@pytest.mark.parametrize("seed", range(6))
def test_extension_towers_match_per_vector_oracles(seed):
    involutive = seed % 2 == 1
    kind, base_seed = ("involutive_quadratic", 2) if involutive else ("quadratic", 0)
    rng = random.Random(f"tower:{seed}")
    one = seeded_extension(rng, catalog.random_instance(base_seed, 5, kind), involutive)
    two = seeded_extension(rng, one, involutive)
    for q in (one, two):
        assert_agree(q)
        assert recognize_double_extension(q).base.dim == q.dim - 2
