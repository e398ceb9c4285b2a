import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmlat.errors import InputError, SingularMatrixError
from fmlat.linalg import (Mat, as_int, enc_mat, enc_q, enc_qseq, parse_int, q,
                          qvec, render_matrix)

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
        for read in (qvec, enc_qseq):
            with pytest.raises(InputError, match="expected a sequence"):
                read(bad)
    for bad in (5, None, [[1]], "12"):
        for write in (enc_mat, render_matrix):
            with pytest.raises(InputError, match="matrix must be of type Mat"):
                write(bad)
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


def test_render_matrix_alignment():
    text = render_matrix(Mat([[1, -10], [Fraction(1, 2), 3]]))
    lines = text.splitlines()
    assert lines == ["[   1  -10 ]", "[ 1/2    3 ]"]
    assert len(lines[0]) == len(lines[1])


def test_exact_json_encoding():
    assert enc_q(Fraction(4)) == 4
    assert enc_q(Fraction(-7, 2)) == "-7/2"
    assert q(4) == Fraction(4)
    assert q("-7/2") == Fraction(-7, 2)
    with pytest.raises(InputError):
        q(0.5)
    with pytest.raises(InputError):
        q(True)


@given(small_q())
def test_enc_dec_roundtrip(x):
    assert q(enc_q(x)) == x


def test_mat_json_roundtrip():
    m = Mat([[Fraction(1, 3), 2], [-5, Fraction(7, 2)]])
    assert Mat(enc_mat(m)) == m
    xs = (Fraction(1, 3), Fraction(-2), Fraction(0))
    assert enc_qseq(xs) == ["1/3", -2, 0]
    assert qvec(enc_qseq(xs)) == xs
