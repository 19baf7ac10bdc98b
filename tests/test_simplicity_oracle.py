"""The simplicity verdict against the dense oracle.

``simplicity_verdict`` forms each certificate candidate only when the
search reaches it, and takes every closure over sparse ad columns;
``dense_structures.dense_simplicity_verdict`` builds every candidate first
and takes its closures over dense ad matrices.  The tag, the witness basis
and its pivots must match exactly.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homlie import catalog
from homlie.analyze import simplicity_verdict

from dense_structures import dense_simplicity_verdict

FIXTURES = {
    "sl_n 2": lambda: catalog.sl_n(2),
    "sl_n 3": lambda: catalog.sl_n(3),
    "sl_n 4": lambda: catalog.sl_n(4),
    "sl_n_transpose 2": lambda: catalog.sl_n_transpose(2).algebra,
    "sl_n_transpose 3": lambda: catalog.sl_n_transpose(3).algebra,
    "swap_double 2": lambda: catalog.swap_double(2),
    "heis3": catalog.heis3,
    "jackson_sl2 2": lambda: catalog.jackson_sl2(2),
    "filiform 10 2/3": lambda: catalog.filiform(10, Fraction(2, 3)),
}
KINDS = ("lie", "hom_lie", "quadratic", "involutive_quadratic")


def outcome(v):
    return v.tag, None if v.witness is None else (v.witness.basis.data, v.witness.pivots)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixtures_match_dense_verdict(name):
    g = FIXTURES[name]()
    assert outcome(simplicity_verdict(g)) == outcome(dense_simplicity_verdict(g))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), dim=st.integers(3, 9), kind=st.sampled_from(KINDS))
def test_random_instances_match_dense_verdict(seed, dim, kind):
    x = catalog.random_instance(seed, dim, kind)
    g = getattr(x, "algebra", x)
    assert outcome(simplicity_verdict(g)) == outcome(dense_simplicity_verdict(g))
