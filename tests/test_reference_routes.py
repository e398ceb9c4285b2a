"""The per-basis-vector routes that op_tensor, op_pi_tensor, fm_matrix and
kernel_class took before they were read off the multiplication table, kept
here as references: one ring product (`mult` or `prod_mult`) per basis
vector, with no table in between. Two more routes the package no longer
takes are kept too: the literal base-curve formula for pi^* pi_*, and the
inverse of td(X x X) as an alternating series."""

import random

import pytest
from hypothesis import given, settings

from fmlat.chow import (_K3_RING, COORD_BASIS, STANDARD_K3, UNIT_CLASS,
                        ch_line_bundle, from_coords, mult, render_class,
                        to_coords, todd)
from fmlat.linalg import Mat
from fmlat.operators import Operator, op_pi_tensor, op_tensor
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
