"""The scalar policy: every exact scalar a public call returns is an int when
it is integral and a Fraction only when its denominator is not 1, never a
float."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmlat.chow import (STANDARD_K3, CohClass, chi_tensor, dot, fdeg,
                        from_coords, mult)
from fmlat.errors import InputError, SingularMatrixError
from fmlat.linalg import Mat, q, qdiv, qgrid, qvec
from fmlat.operators import GoldenName, build, golden, op_pi_tensor, op_tensor
from fmlat.product import ProductClass, kernel_class, fm_matrix, prod_mult

from helpers import coh_k3, product_classes, small_q, swap

S = STANDARD_K3
_NEEDS_D = ("TensorL1", "Tw_d", "FM_Pd", "FM_Fd")


def assert_normal(*scalars):
    for x in scalars:
        assert type(x) is int or (type(x) is Fraction and x.denominator != 1), \
            repr(x)


def assert_normal_mat(m: Mat):
    for row in m.rows:
        assert_normal(*row)


def assert_normal_product(a: ProductClass):
    assert type(a.decomp) is Mat
    for row in a.decomp.rows:
        assert_normal(*row)
    assert_normal(a.delta)


def mats(n):
    return st.lists(st.lists(small_q(), min_size=n, max_size=n),
                    min_size=n, max_size=n).map(Mat)


def test_q_normal_form():
    for x, expected in ((3, 3), (Fraction(6, 2), 3), ("4/2", 2), (" -7 ", -7),
                        ("+3/4", Fraction(3, 4)), (Fraction(-5, 2), Fraction(-5, 2))):
        assert q(x) == expected
        assert type(q(x)) is type(expected)


def test_qdiv_is_exact_and_normal():
    assert type(qdiv(4, 2)) is int and qdiv(4, 2) == 2
    assert qdiv(3, 2) == Fraction(3, 2)
    assert qdiv(Fraction(1, 2), Fraction(1, 4)) == 2
    assert type(qdiv(Fraction(1, 2), Fraction(1, 4))) is int
    assert qdiv("1/3", -1) == Fraction(-1, 3)
    for a, b in ((1, 0), (0.5, 1), (1, 2.0), (True, 1)):
        with pytest.raises(InputError):
            qdiv(a, b)


class Count(int):
    """An int subclass: not the plain int the constructors pass through."""


def raw_scalars():
    """Every accepted spelling of an exact rational, including a Fraction
    and an int subclass with an integral value and the string form."""
    return small_q().flatmap(lambda x: st.sampled_from(
        [x, str(x), Fraction(x.numerator * 3, x.denominator * 3)]
        + ([int(x), Count(int(x)), Fraction(int(x), 1)] if x.denominator == 1 else [])))


@settings(max_examples=30)
@given(st.lists(raw_scalars(), min_size=17, max_size=17))
def test_constructors_normalise_every_entry(xs):
    grid = [xs[4 * i:4 * i + 4] for i in range(4)]
    for row in qgrid(grid):
        assert_normal(*row)
    assert_normal(*qvec(xs))
    assert_normal_mat(Mat(grid))
    assert_normal_product(ProductClass(grid, xs[16]))
    assert_normal(*CohClass(xs[0], xs[1:3], xs[3]).coords())
    assert_normal(*from_coords(xs[:4]).coords())
    assert all(type(x) is not Count for x in qvec(xs))


@settings(max_examples=40)
@given(coh_k3())
def test_elementary_operators_are_normal(c):
    assert_normal_mat(op_tensor(c).matrix)
    assert_normal_mat(op_pi_tensor(c).matrix)


@settings(max_examples=40)
@given(st.tuples(small_q(), small_q()), st.tuples(small_q(), small_q()))
def test_dot_is_normal(x, y):
    assert_normal(dot(S, x, y))


@settings(max_examples=40)
@given(coh_k3(), coh_k3())
def test_chow_products_are_normal(v, w):
    assert_normal(*mult(S, v, w).coords())
    assert_normal(chi_tensor(S, v, w), fdeg(S, v))


@settings(max_examples=25, deadline=None)
@given(mats(4), mats(4), st.lists(small_q(), min_size=4, max_size=4))
def test_mat_operations_are_normal(a, b, vec):
    assert_normal_mat(a * b)
    assert_normal(*a.apply(vec))
    assert_normal(a.det())
    try:
        assert_normal_mat(a.inverse())
    except SingularMatrixError:
        assert a.det() == 0


@settings(max_examples=15, deadline=None)
@given(product_classes(), product_classes())
def test_prod_mult_and_fm_matrix_are_normal(a, b):
    assert_normal_product(prod_mult(a, b))
    assert_normal_mat(fm_matrix(a).matrix)


@pytest.mark.parametrize("d", range(1, 5))
def test_kernel_classes_are_normal(d):
    for kernel in (kernel_class("Pd", d), kernel_class("IDelta")):
        assert_normal_product(kernel)
        for k in (kernel, swap(kernel)):
            assert_normal_mat(fm_matrix(k).matrix)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(list(GoldenName)), st.integers(1, 6),
       st.tuples(small_q(), small_q()))
def test_build_and_golden_are_normal(name, d, divisor):
    kwargs = {}
    if name.value in _NEEDS_D:
        kwargs["d"] = d
    if name is GoldenName.A_TL:
        kwargs["divisor"] = divisor
    built = build(name, **kwargs)
    assert_normal_mat(built if isinstance(built, Mat) else built.matrix)
    assert_normal_mat(golden(name, **kwargs))
