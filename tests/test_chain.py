import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ellchain import (
    ChainCurve,
    DeterminantUnavailableError,
    Indecomposable,
    Split,
    SplitLineBundle,
    canonical_restriction,
    determinant,
)


def test_canonical_restriction_examples():
    assert canonical_restriction(1, 3) == (0, 4)
    assert canonical_restriction(2, 3) == (2, 2)
    assert canonical_restriction(9, 9) == (16, 0)


def test_canonical_restriction_degree_sums():
    for g in range(1, 31):
        for i in range(1, g + 1):
            p, q = canonical_restriction(i, g)
            assert p >= 0 and q >= 0
            assert p + q == 2 * g - 2


def test_canonical_restriction_range_errors():
    with pytest.raises(IndexError):
        canonical_restriction(0, 5)
    with pytest.raises(IndexError):
        canonical_restriction(6, 5)


def test_determinant_examples():
    b = Split(SplitLineBundle(0, 8), SplitLineBundle(2, 6))
    assert determinant(b) == (2, 14)
    assert determinant(b) == canonical_restriction(2, 9)
    zero = Split(SplitLineBundle(0, 0), SplitLineBundle(0, 0))
    assert determinant(zero) == (0, 0)


def test_determinant_unavailable_for_indecomposable():
    with pytest.raises(DeterminantUnavailableError, match="determinant-class-unavailable"):
        determinant(Indecomposable(12, 2, 4))


@given(st.integers(0, 20), st.integers(0, 20), st.integers(0, 20), st.integers(0, 20))
def test_determinant_symmetric(p1, q1, p2, q2):
    a, b = SplitLineBundle(p1, q1), SplitLineBundle(p2, q2)
    assert determinant(Split(a, b)) == determinant(Split(b, a))


def test_chain_curve_invariants():
    c = ChainCurve(7)
    assert c.length == 7 and c.node_count == 6
    assert ChainCurve(5, 3).length == 3
    with pytest.raises(ValueError):
        ChainCurve(0)


def test_bundle_invariants():
    with pytest.raises(ValueError):
        SplitLineBundle(-1, 2)
    with pytest.raises(ValueError):
        Indecomposable(4, 3, 2)
    assert Indecomposable(12, 2, 4).degree == 12
    assert Split(SplitLineBundle(1, 2), SplitLineBundle(0, 4)).degree == 7


# one constructor call per field, the field given by the argument
_BUILD_WITH = {
    "genus": lambda x: ChainCurve(x),
    "length": lambda x: ChainCurve(5, x),
    "p": lambda x: SplitLineBundle(x, 3),
    "q": lambda x: SplitLineBundle(5, x),
    "degree": lambda x: Indecomposable(x, 2, 4),
    "marked_u": lambda x: Indecomposable(12, x, 4),
    "marked_v": lambda x: Indecomposable(12, 2, x),
}


@pytest.mark.parametrize("value", [5.0, True, "5"], ids=["float", "bool", "str"])
@pytest.mark.parametrize("field", list(_BUILD_WITH))
def test_field_that_is_not_an_int_is_refused(field, value):
    # a float or bool equal to an int would pass every check of a series
    # and then be written to a file the parser refuses
    with pytest.raises(TypeError, match=re.escape(repr(value))):
        _BUILD_WITH[field](value)
