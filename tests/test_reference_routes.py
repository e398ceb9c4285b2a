"""The per-basis-vector routes that op_tensor, op_pi_tensor, fm_matrix and
kernel_class took before they were read off the multiplication table, kept
here as references: one ring product (`mult` or `prod_mult`) per basis
vector, with no table in between. Three more routes the package no longer
takes are kept too: the literal base-curve formula for pi^* pi_*, the
inverse of td(X x X) as an alternating series, and the literal tables of
the seven invertible golden names, which golden writes as W(phi, k)."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from fmlat.chow import (_K3_RING, COORD_BASIS, STANDARD_K3, UNIT_CLASS,
                        ch_line_bundle, from_coords, mult, render_class,
                        to_coords, todd)
from fmlat.linalg import Mat, qdiv
from fmlat.operators import GoldenName, Operator, golden, op_pi_tensor, op_tensor
from fmlat.product import (DELTA, F_CROSS_F, PI, POINT, ProductClass, Side,
                           UNIT, diag_push_grr, fm_matrix, kernel_class,
                           prod_mult, product_todd, pull, push)

from helpers import coh_k3, product_classes, random_coh, swap

S = STANDARD_K3


def reference_op_tensor(c):
    cols = [to_coords(mult(S, c, basis)) for basis in COORD_BASIS]
    return Operator(Mat(cols).transpose(), f"tensor{render_class(c)}")


def reference_pi_pushpull(v):
    r, s, t, p = to_coords(v)
    return from_coords((s, 0, 2 * r - s + p, 0))


def reference_op_pi_tensor(c):
    cols = [to_coords(reference_pi_pushpull(mult(S, basis, c)))
            for basis in COORD_BASIS]
    return Operator(Mat(cols).transpose(), f"pi_tensor{render_class(c)}")


def reference_todd_inverse():
    # the inverse of 1 + n with n nilpotent: alternating powers of n
    n = product_todd() - UNIT
    out = UNIT
    power = UNIT
    for k in range(1, 5):
        power = prod_mult(power, n)
        out = out + ((-1) ** k) * power
    return out


def naive_diag_push(v):
    # delta_*(v . td_X), with no Todd correction on X x X, written by hand:
    # delta_*(e) = e x pt + pt x e for a divisor e, delta_*(pt) = [*]
    r, s, t, p = to_coords(mult(S, v, todd(S)))
    grid = ((0, 0, 0, 0), (0, 0, 0, s), (0, 0, 0, t), (0, s, t, p))
    return ProductClass(grid, r)


def reference_fm_matrix(kernel, src, tgt):
    # the transform of kernel from the src factor to the tgt factor
    t = todd(S)
    cols = []
    for basis in COORD_BASIS:
        y = mult(S, basis, t)
        cols.append(to_coords(push(tgt, prod_mult(kernel, pull(src, y)))))
    return Operator(Mat(cols).transpose(), "fm")


def reference_kernel_pd(d):
    base = PI - F_CROSS_F - DELTA + 2 * POINT
    out = prod_mult(base, pull(Side.FIRST, ch_line_bundle(S, (d + 1, 0))))
    out = prod_mult(out, pull(Side.SECOND, ch_line_bundle(S, (1, 0))))
    return prod_mult(out, pull(Side.FIRST, ch_line_bundle(S, (0, 2 * (d + 1)))))


def test_tables_match_ring_products():
    for i, ei in enumerate(COORD_BASIS):
        for j, ej in enumerate(COORD_BASIS):
            assert _K3_RING.pair_table[i][j] == to_coords(mult(S, ei, ej))


@settings(max_examples=60)
@given(coh_k3())
def test_elementary_operators_match_reference(c):
    assert op_tensor(c) == reference_op_tensor(c)
    assert op_pi_tensor(c) == reference_op_pi_tensor(c)
    assert op_pi_tensor(UNIT_CLASS).apply(c) == reference_pi_pushpull(c)


def test_diag_push_matches_reference():
    # delta_*(v . td_X^-1) against delta_*(v . td_X) . td(X x X)^-1
    inverse = reference_todd_inverse()
    assert prod_mult(product_todd(), inverse) == UNIT
    rng = random.Random(13)
    for v in [*COORD_BASIS, *(random_coh(rng) for _ in range(40))]:
        assert diag_push_grr(v) == prod_mult(naive_diag_push(v), inverse)


def assert_both_directions_match_reference(kernel):
    # fm_matrix reads second to first; swapping the factors reads first to second
    assert fm_matrix(kernel) == reference_fm_matrix(kernel, Side.SECOND, Side.FIRST)
    assert fm_matrix(swap(kernel)) == reference_fm_matrix(kernel, Side.FIRST, Side.SECOND)


@settings(max_examples=30, deadline=None)
@given(product_classes())
def test_fm_matrix_matches_reference(kernel):
    assert_both_directions_match_reference(kernel)


@pytest.mark.parametrize("d", range(1, 65))
def test_kernel_pd_matches_reference(d):
    kernel = kernel_class("Pd", d)
    assert kernel == reference_kernel_pd(d)
    assert_both_directions_match_reference(kernel)


def test_kernel_idelta_transforms_match_reference():
    assert_both_directions_match_reference(kernel_class("IDelta"))


def reference_golden(name, d=None, divisor=None):
    if name is GoldenName.TensorL1:
        m = d + 1
        return Mat([[1, 0, 0, 0],
                    [m, 1, 0, 0],
                    [2 * m, 0, 1, 0],
                    [m * m, 0, m, 1]])
    if name is GoldenName.TensorSigma:
        return Mat([[1, 0, 0, 0],
                    [1, 1, 0, 0],
                    [0, 0, 1, 0],
                    [-1, -2, 1, 1]])
    if name is GoldenName.FM_Pd:
        return Mat([[0, 1, 0, 0],
                    [-1, d, 0, 0],
                    [0, 2 * d - 1, 0, 1],
                    [1, d * d - d, -1, d]])
    if name is GoldenName.FM_Fd:
        return Mat([[-1, d + 1, 0, 0],
                    [-1, d, 0, 0],
                    [0, (d + 1) ** 2, -1, d + 1],
                    [1, d * d - d, -1, d]])
    if name is GoldenName.A_S:
        return Mat([[-1, 1, 0, 0],
                    [0, -1, 0, 0],
                    [2, -1, -1, 1],
                    [0, 0, 0, -1]])
    if name is GoldenName.A_Sprime:
        return Mat([[1, 1, 0, 0],
                    [0, 1, 0, 0],
                    [2, 1, 1, 1],
                    [0, 0, 0, 1]])
    if name is GoldenName.A_TL:
        s, t = divisor
        half_sq = qdiv(-2 * s * s + 2 * s * t, 2)
        return Mat([[1, 0, 0, 0],
                    [s, 1, 0, 0],
                    [t, 0, 1, 0],
                    [half_sq, t - 2 * s, s, 1]])
    raise AssertionError(f"{name} has no reference table")


@pytest.mark.parametrize("d", range(1, 65))
@pytest.mark.parametrize("name", [GoldenName.TensorL1, GoldenName.FM_Pd,
                                  GoldenName.FM_Fd], ids=lambda name: name.value)
def test_golden_d_families_match_the_literal_tables(name, d):
    assert golden(name, d=d) == reference_golden(name, d=d)


@pytest.mark.parametrize("name", [GoldenName.TensorSigma, GoldenName.A_S,
                                  GoldenName.A_Sprime], ids=lambda name: name.value)
def test_golden_fixed_names_match_the_literal_tables(name):
    assert golden(name) == reference_golden(name)


def test_golden_twist_matches_the_literal_table_on_a_fractional_box():
    values = sorted({Fraction(n, m) for n in range(-6, 7) for m in (1, 2, 3)})
    for s in values:
        for t in values:
            divisor = (s, t)
            assert golden(GoldenName.A_TL, divisor=divisor) == \
                reference_golden(GoldenName.A_TL, divisor=divisor)
