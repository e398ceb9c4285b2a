import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fmlat.errors import InputError, SingularMatrixError
from fmlat.linalg import Mat, _shown, as_int, parse_int, q, qdiv, qvec

from helpers import small_q


def test_q_accepts_exact_forms():
    assert q(3) == Fraction(3)
    assert q("3/4") == Fraction(3, 4)
    assert q(Fraction(-5, 2)) == Fraction(-5, 2)


def test_q_rejects_floats_and_garbage():
    # exactness contract: floats never enter silently
    for bad in (0.5, float("nan"), "1.5e3x", "1/0", True, None,
                "1e3", "0.5", "1.5"):
        with pytest.raises(InputError):
            q(bad)


def test_q_and_parse_int_cap_digits():
    # CPython's default int/str limit; past it a parse would be unbounded
    cap = "9" * 4300
    assert q(cap) == parse_int(cap) == 10 ** 4300 - 1
    assert q(f"-{cap}/{cap}") == -1
    assert parse_int(f"+{cap}") == 10 ** 4300 - 1
    for bad in (cap + "9", f"1/{cap}9", f"-{cap}9/2"):
        with pytest.raises(InputError, match="more than 4300 digits"):
            q(bad)
    with pytest.raises(InputError, match="more than 4300 digits"):
        parse_int(f"-{cap}9")


# past CPython's 4,300-digit str limit; qdiv never writes a number as text
_HUGE = 10 ** 4301
_INTS = st.integers() | st.builds(lambda k, r: k * _HUGE + r,
                                  st.integers(-9, 9), st.integers(-99, 99))


@settings(max_examples=300, deadline=None)
@given(a=_INTS, b=_INTS.filter(bool), multiple=st.booleans())
@example(a=0, b=-3, multiple=False)
@example(a=7, b=-7, multiple=False)
@example(a=-_HUGE, b=-_HUGE - 1, multiple=True)
def test_qdiv_of_ints_is_their_fraction(a, b, multiple):
    # qdiv divides ints itself, importing fractions only for a remainder
    a = a * b if multiple else a
    quotient = qdiv(a, b)
    assert quotient == q(Fraction(a, b))
    assert (type(quotient) is int) == (Fraction(a, b).denominator == 1)


class _Ratio(Fraction):
    pass


def test_q_and_shown_take_a_fraction_subclass():
    assert q(_Ratio(3, 4)) == Fraction(3, 4)
    assert q(_Ratio(4, 2)) == 2 and type(q(_Ratio(4, 2))) is int
    assert _shown(_Ratio(-3, 4)) == "-3/4"
    assert qdiv(_Ratio(1, 2), _Ratio(1, 4)) == 2


def test_as_int_accepts_only_ints():
    assert as_int("n", -7) == -7
    for bad in (True, 6.5, 6.0, "6", Fraction(6), None):
        with pytest.raises(InputError, match="n must be an integer"):
            as_int("n", bad)
    with pytest.raises(InputError):
        Mat.identity(2.0)


def test_mat_shape_validation():
    with pytest.raises(InputError):
        Mat([[1, 2], [3]])
    with pytest.raises(InputError):
        Mat([])
    with pytest.raises(InputError):
        Mat([[1, 2]]) + Mat([[1], [2]])
    with pytest.raises(InputError):
        Mat([[1, 2]]) * Mat([[1, 2]])
    # a string is not a row of digits, and a scalar is not a row
    for bad in (["12", "34"], 5, [1, 2], None, "", [[1, 2], 3]):
        with pytest.raises(InputError, match="expected a sequence"):
            Mat(bad)
    for bad in ("12", 5, None):
        with pytest.raises(InputError, match="expected a sequence"):
            qvec(bad)
    # an operand that is not a Mat
    for bad in (5, "x", None, [[1]], ((1,),)):
        for op in (lambda: Mat([[1]]) + bad, lambda: Mat([[1]]) - bad,
                   lambda: Mat([[1]]) * bad):
            with pytest.raises(InputError, match="operand must be of type Mat"):
                op()


def test_mat_det_and_inverse():
    m = Mat([[2, 1], [1, 1]])
    assert m.det() == 1
    assert m.inverse() == Mat([[1, -1], [-1, 2]])
    assert m * m.inverse() == Mat.identity(2)


def test_mat_det_singular_and_nonsquare():
    assert Mat([[1, 2], [2, 4]]).det() == 0
    with pytest.raises(SingularMatrixError):
        Mat([[1, 2], [2, 4]]).inverse()
    with pytest.raises(InputError):
        Mat([[1, 2, 3], [4, 5, 6]]).det()
    with pytest.raises(InputError):
        Mat([[1, 2, 3], [4, 5, 6]]).inverse()


def test_mat_scalar_multiple_and_hash():
    m = Mat([[1, 2], [3, 4]])
    assert Fraction(1, 2) * m == Mat([["1/2", 1], ["3/2", 2]])
    assert hash(m) == hash(Mat([[1, 2], [3, 4]]))
    assert "Mat" in repr(m)


def test_identity_sizes_are_one_to_four():
    # the package uses 2 and 4; a huge n is refused before any entry is built
    for n in (1, 2, 3, 4):
        assert Mat.identity(n).rows == tuple(
            tuple(int(i == j) for j in range(n)) for i in range(n))
    for bad in (10 ** 5, 5, 0, -1):
        with pytest.raises(InputError, match="identity size must be 1 to 4"):
            Mat.identity(bad)


def test_mat_apply_checks_length():
    with pytest.raises(InputError):
        Mat.identity(3).apply((1, 2))


@settings(max_examples=50)
@given(st.lists(st.lists(small_q(), min_size=3, max_size=3),
                min_size=3, max_size=3))
def test_inverse_roundtrip_when_invertible(rows):
    m = Mat(rows)
    if m.det() == 0:
        return
    assert m * m.inverse() == Mat.identity(3)
    assert m.inverse().inverse() == m


@settings(max_examples=50)
@given(st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4),
                min_size=4, max_size=4))
def test_det_matches_leibniz_formula(rows):
    # oracle: the sum over permutations, independent of elimination
    expected = 0
    for perm in itertools.permutations(range(4)):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(4), 2))
        term = (-1) ** inversions
        for i, j in enumerate(perm):
            term *= rows[i][j]
        expected += term
    m = Mat(rows)
    assert m.det() == expected
    if expected:
        assert m.inverse().det() == Fraction(1, expected)
    else:
        with pytest.raises(SingularMatrixError):
            m.inverse()
