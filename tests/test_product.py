import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings

from fmlat.chow import (COORD_BASIS, CohClass, FIBER_CLASS, POINT_CLASS,
                        SIGMA_CLASS, STANDARD_K3, UNIT_CLASS, ch_line_bundle,
                        dot, from_coords, mult, todd)
from fmlat.errors import InputError, UnsupportedModelError
from fmlat.linalg import Mat
from fmlat.operators import (_SIGMA_CH, IDENTITY, GoldenName, golden,
                             op_pi_tensor, op_tensor, pd_line_class,
                             pd_pushforward_twist_class)
from fmlat.product import (_PD_BASE, DELTA, F_CROSS_F, PI, POINT, ProductClass,
                           Side, UNIT, _single, diag_push_grr, fm_matrix,
                           kernel_class, prod_mult, product_todd, pull, push,
                           render_product_class)
from fmlat.sd import Theorem

from helpers import coh_k3, random_product_class, swap

S = STANDARD_K3
ZERO = ProductClass(((0,) * 4,) * 4, 0)
SIGMA_FIRST = ProductClass(((0,) * 4, (1, 0, 0, 0), (0,) * 4, (0,) * 4), 0)
SIGMA_SECOND = ProductClass(((0, 1, 0, 0),) + ((0,) * 4,) * 3, 0)


# pull

def test_pull_first_sigma():
    assert pull(Side.FIRST, SIGMA_CLASS) == SIGMA_FIRST
    assert pull(Side.SECOND, SIGMA_CLASS) == SIGMA_SECOND


def test_pull_of_unit_is_unit():
    assert pull(Side.SECOND, UNIT_CLASS) == UNIT
    assert pull(Side.FIRST, UNIT_CLASS) == UNIT


def test_pull_of_fiber_line_bundle():
    got = pull(Side.FIRST, ch_line_bundle(S, (0, 1)))
    assert got == UNIT + pull(Side.FIRST, FIBER_CLASS)


OFF_K3 = CohClass(1, (0, 0, 0), 0)


@pytest.mark.parametrize("call", [
    lambda: op_tensor(OFF_K3), lambda: op_pi_tensor(OFF_K3),
    lambda: IDENTITY.apply(OFF_K3), lambda: pull(Side.FIRST, OFF_K3),
    lambda: diag_push_grr(OFF_K3),
], ids=["op_tensor", "op_pi_tensor", "Operator.apply", "pull", "diag_push_grr"])
def test_a_class_off_the_k3_lattice_is_an_unsupported_model(call):
    with pytest.raises(UnsupportedModelError, match="lattice rank 3"):
        call()


def test_sides_are_taken_by_value():
    # a value names its member; "first" once fell through to the second side
    assert pull("first", SIGMA_CLASS) == SIGMA_FIRST
    assert pull("second", SIGMA_CLASS) == SIGMA_SECOND
    a = prod_mult(pull(Side.FIRST, POINT_CLASS), pull(Side.SECOND, FIBER_CLASS))
    assert push("first", a) == push(Side.FIRST, a) == from_coords((0, 0, 0, 0))
    assert push("second", a) == push(Side.SECOND, a) == FIBER_CLASS


def test_unknown_sides_are_input_errors():
    for bad in ("First", "left", 0, None, True, Theorem.K3):
        with pytest.raises(InputError, match="unknown side"):
            pull(bad, SIGMA_CLASS)
        with pytest.raises(InputError, match="unknown side"):
            push(bad, DELTA)


def test_product_class_rejects_non_grids():
    for decomp in (5, "1234", ((0,) * 4,) * 3, (5, 5, 5, 5)):
        with pytest.raises(InputError):
            ProductClass(decomp, 0)
    for decomp in (Mat([[0] * 3] * 4), Mat.identity(2)):
        with pytest.raises(InputError, match="must be a 4x4 grid"):
            ProductClass(decomp, 0)
    for delta in ((1, 0, 0), "x", 0.5):
        with pytest.raises(InputError):
            ProductClass(((0,) * 4,) * 4, delta)
    # a Mat is taken as it is, and equals the class of the same tuple grid
    grid = tuple(tuple(Fraction(i - 2 * j, 3) for j in range(4)) for i in range(4))
    assert ProductClass(Mat(grid), Fraction(1, 2)) == ProductClass(grid, Fraction(1, 2))


@pytest.mark.parametrize("call, label", [
    (lambda: push(Side.FIRST, 5), "class must be of type ProductClass"),
    (lambda: prod_mult(5, DELTA), "operand must be of type ProductClass"),
    (lambda: prod_mult(DELTA, 5), "operand must be of type ProductClass"),
    (lambda: fm_matrix(5), "kernel must be of type ProductClass"),
    (lambda: DELTA + 5, "operand must be of type ProductClass"),
    (lambda: pull(Side.FIRST, 5), "class must be of type CohClass"),
    (lambda: diag_push_grr(5), "class must be of type CohClass"),
    (lambda: render_product_class(5), "class must be of type ProductClass"),
    (lambda: DELTA - "x", "operand must be of type ProductClass, got 'x'"),
], ids=["push-class", "prod_mult-first", "prod_mult-second", "fm_matrix-kernel",
        "ProductClass-add", "pull-class", "diag_push_grr-class",
        "render_product_class-class", "ProductClass-sub"])
def test_product_entry_points_reject_wrong_types(call, label):
    with pytest.raises(InputError, match=label):
        call()


# products

def test_delta_times_points_todd_correction():
    two_points = 2 * (pull(Side.FIRST, POINT_CLASS) + pull(Side.SECOND, POINT_CLASS))
    assert prod_mult(DELTA, two_points) == 4 * POINT


def test_pi_squared():
    assert prod_mult(PI, PI) == 2 * F_CROSS_F


def both_ways(x):
    """x (x) pt + pt (x) x, built from pulls."""
    return (prod_mult(pull(Side.FIRST, x), pull(Side.SECOND, POINT_CLASS))
            + prod_mult(pull(Side.FIRST, POINT_CLASS), pull(Side.SECOND, x)))


@pytest.mark.parametrize("x", [SIGMA_CLASS, FIBER_CLASS], ids=["sigma", "f"])
def test_equality_is_class_equality(x):
    # H^1 = H^3 = 0, so delta_*(x) of a divisor is a grid class, and the one
    # form makes == see it whichever side x is pulled from
    assert prod_mult(DELTA, pull(Side.FIRST, x)) == both_ways(x)
    assert prod_mult(DELTA, pull(Side.SECOND, x)) == both_ways(x)


def test_diagonal_pushforward_pairs_as_the_ring_product():
    # the defining property of delta_*: integrating delta_*(al) against
    # e_i x e_j is the surface integral of al . e_i . e_j
    for al in COORD_BASIS:
        pushed = prod_mult(DELTA, pull(Side.FIRST, al))
        for ei in COORD_BASIS:
            for ej in COORD_BASIS:
                cross = prod_mult(pull(Side.FIRST, ei), pull(Side.SECOND, ej))
                assert prod_mult(pushed, cross).decomp.rows[3][3] == \
                    mult(S, mult(S, al, ei), ej).p


def test_delta_self_intersection():
    # excess intersection against c2 of the tangent bundle: 24 points
    assert prod_mult(DELTA, DELTA) == 24 * POINT


def product_dual(a):
    """ch of the derived dual on X x X: odd codimension flips sign. Grid
    entry (i, j) has codimension codim e_i + codim e_j; Delta has
    codimension two and keeps its sign."""
    codim = (0, 1, 1, 2)
    return ProductClass(
        tuple(tuple((-1) ** (codim[i] + codim[j]) * x for j, x in enumerate(row))
              for i, row in enumerate(a.decomp.rows)),
        a.delta)


def test_diagonal_euler_characteristic_is_the_topological_one():
    # chi(O_Delta, O_Delta) = e(X) = 12 chi(O) - K.K by Noether: a route to
    # the excess term that does not restate it, unlike the test above
    o = diag_push_grr(UNIT_CLASS)
    chi = prod_mult(prod_mult(product_dual(o), o), product_todd()).decomp.rows[3][3]
    assert chi == 12 * S.chi_O - dot(S, S.canonical, S.canonical) == 24


def test_prod_mult_commutative_and_associative():
    rng = random.Random(99)
    for _ in range(200):
        a, b, c = (random_product_class(rng) for _ in range(3))
        assert prod_mult(a, b) == prod_mult(b, a)
        assert prod_mult(prod_mult(a, b), c) == prod_mult(a, prod_mult(b, c))


@settings(max_examples=40)
@given(coh_k3())
def test_projection_formula(v):
    rng = random.Random(hash(str(v.coords())) % (2 ** 31))
    a = random_product_class(rng)
    for side in (Side.FIRST, Side.SECOND):
        lhs = push(side, prod_mult(pull(side, v), a))
        rhs = mult(S, v, push(side, a))
        assert lhs == rhs


def test_unit_is_multiplicative_identity():
    rng = random.Random(5)
    for _ in range(20):
        a = random_product_class(rng)
        assert prod_mult(UNIT, a) == a


# push

def test_push_second_of_diagonal():
    assert push(Side.SECOND, DELTA) == UNIT_CLASS
    assert push(Side.FIRST, DELTA) == UNIT_CLASS


def test_push_second_point_cross_fiber():
    a = prod_mult(pull(Side.FIRST, POINT_CLASS), pull(Side.SECOND, FIBER_CLASS))
    assert push(Side.SECOND, a) == FIBER_CLASS


def test_push_second_of_first_fiber_vanishes():
    assert push(Side.SECOND, pull(Side.FIRST, FIBER_CLASS)) == from_coords((0, 0, 0, 0))


# Todd of the product and diagonal pushforward

def test_product_todd_fixture():
    expected = (UNIT + 2 * pull(Side.SECOND, POINT_CLASS)
                + 2 * pull(Side.FIRST, POINT_CLASS) + 4 * POINT)
    assert product_todd() == expected


def test_diag_push_unit():
    assert diag_push_grr(UNIT_CLASS) == DELTA - 2 * POINT


def test_diag_push_point():
    assert diag_push_grr(POINT_CLASS) == POINT


def test_diag_push_fiber_regression():
    # Todd corrections cancel for a fiber: the class stays delta_*(f)
    assert diag_push_grr(FIBER_CLASS) == both_ways(FIBER_CLASS)


# kernel classes

def test_kernel_idelta_explicit():
    assert kernel_class("IDelta") == PI - F_CROSS_F - DELTA + 2 * POINT


def test_kernel_idelta_equals_pd_base_factor():
    # both construction routes collapse to the same class: Pi^2/2 = [f x f]
    pi_sq = prod_mult(PI, PI)
    assert kernel_class("IDelta") == PI - Fraction(1, 2) * pi_sq - DELTA + 2 * POINT


@pytest.mark.parametrize("d", range(1, 7))
def test_kernel_pd_pushforward_rank_class(d):
    pushed = push(Side.SECOND, prod_mult(kernel_class("Pd", d),
                                         pull(Side.FIRST, todd(S))))
    assert pushed == from_coords((d, -1, d * d - d, 1 - 2 * d))
    # twisting by the relative dualizing class lands on the pinned twist class
    twisted = mult(S, pushed, ch_line_bundle(S, (0, 2)))
    assert twisted == pd_pushforward_twist_class(d)
    # and untwisting is exact: ch of the inverse twist is 1 - 2f
    back = mult(S, pd_pushforward_twist_class(d), from_coords((1, 0, -2, 0)))
    assert back == pushed


def test_kernel_pd_matches_the_two_step_product():
    # kernel_class takes the d-free factor first; the reference multiplies
    # by the first-factor pull, then by the second-factor pull of ch O(sigma)
    sigma_ch = ch_line_bundle(S, (1, 0))
    for d in range(1, 65):
        first = mult(S, ch_line_bundle(S, (d + 1, 0)), ch_line_bundle(S, (0, 2 * (d + 1))))
        reference = prod_mult(prod_mult(_PD_BASE, pull(Side.FIRST, first)),
                              pull(Side.SECOND, sigma_ch))
        assert kernel_class("Pd", d) == reference


def test_kernel_pd_requires_positive_degree():
    for bad in (0, -1, None, "x", 2.0, True):
        with pytest.raises(InputError):
            kernel_class("Pd", bad)


def test_kernel_pd_needs_a_degree():
    # as build("FM_Pd") says "FM_Pd needs a kernel degree d"
    with pytest.raises(InputError, match=r"^Pd needs a kernel degree d$"):
        kernel_class("Pd")


def test_kernel_idelta_takes_no_degree():
    # as build and golden reject d for a name outside _NEEDS_D
    for bad in (5, 1, "x", 0):
        with pytest.raises(InputError, match="IDelta takes no kernel degree d, got "):
            kernel_class("IDelta", bad)
    assert kernel_class("IDelta", None) == kernel_class("IDelta")


def test_kernel_unknown_kind():
    with pytest.raises(InputError):
        kernel_class("Qd", 1)


# transforms from kernels

def test_fm_idelta_on_unit():
    op = fm_matrix(kernel_class("IDelta"))
    assert op.apply(UNIT_CLASS) == from_coords((-1, 0, 2, 0))


@pytest.mark.parametrize("d", range(1, 7))
def test_fm_pd_matches_pinned_matrix(d):
    op = fm_matrix(kernel_class("Pd", d))
    assert op.matrix == golden(GoldenName.FM_Pd, d=d)


# a kernel for every named table but A_Sprime and B_S: delta_*(c) is the
# kernel of tensoring by c, and ch O of the fiber square, Pi - [f x f], is
# the kernel of pi^* pi_*

def test_diagonal_pushforwards_transform_to_the_tensor_tables():
    for d in range(1, 65):
        assert fm_matrix(diag_push_grr(pd_line_class(d))).matrix == \
            golden(GoldenName.TensorL1, d=d)
        assert fm_matrix(diag_push_grr(pd_pushforward_twist_class(d))).matrix == \
            golden(GoldenName.Tw_d, d=d)
    assert fm_matrix(diag_push_grr(_SIGMA_CH)).matrix == golden(GoldenName.TensorSigma)
    for x in range(-5, 6):
        for y in range(-5, 6):
            assert fm_matrix(diag_push_grr(ch_line_bundle(S, (x, y)))).matrix == \
                golden(GoldenName.A_TL, divisor=(x, y))


def test_fiber_square_transforms_to_the_pushpull_tables():
    fiber_square = PI - F_CROSS_F
    assert fm_matrix(fiber_square).matrix == golden(GoldenName.PiPushPull)
    sigma_twisted = prod_mult(fiber_square, pull(Side.SECOND, _SIGMA_CH))
    assert fm_matrix(sigma_twisted).matrix == golden(GoldenName.PiPushPullSigma)
    for d in range(1, 65):
        twist = pull(Side.SECOND, pd_pushforward_twist_class(d))
        kernel = kernel_class("Pd", d) + prod_mult(fiber_square, twist)
        assert fm_matrix(kernel).matrix == golden(GoldenName.FM_Fd, d=d)


def test_symmetric_kernels_read_the_same_in_both_directions():
    # verify reads A_S off I_Delta in fm_matrix's one direction; that is
    # sound because I_Delta, like these fixed classes, is its own swap
    for k in (kernel_class("IDelta"), DELTA, PI, UNIT, POINT, F_CROSS_F,
              product_todd(), *map(diag_push_grr, COORD_BASIS)):
        assert swap(k) == k


@pytest.mark.parametrize("d", range(1, 65))
def test_pd_kernels_are_not_symmetric(d):
    # so FM_Pd is pinned to fm_matrix's direction: the other one differs
    kernel = kernel_class("Pd", d)
    assert swap(kernel) != kernel
    assert fm_matrix(swap(kernel)).matrix != golden(GoldenName.FM_Pd, d=d)


def test_fm_matrix_misses_only_the_transcendental_diagonal():
    # Delta_tr, Delta less its algebraic Kunneth part (built from the inverse
    # of NS's Gram matrix), lies in H^2_tr (x) H^2_tr: the 4x4 matrix cannot
    # see it, and it spans the whole kernel of K -> fm_matrix(K)
    algebraic = (_single(0, 3) + _single(3, 0) + _single(1, 2) + _single(2, 1)
                 + 2 * _single(2, 2))
    assert fm_matrix(DELTA - algebraic).matrix == Mat([[0] * 4] * 4)
    basis = [_single(i, j) for i in range(4) for j in range(4)] + [DELTA]
    images = sympy.Matrix([[x for row in fm_matrix(k).matrix.rows for x in row]
                           for k in basis])
    assert images.rank() == 16


def test_fm_zero_kernel_is_zero_operator():
    op = fm_matrix(ZERO)
    assert all(x == 0 for row in op.matrix.rows for x in row)


# rendering

def test_render_product_class():
    text = render_product_class(kernel_class("IDelta"))
    assert text == "[X x f] + [f x X] - [f x f] + 2[*] - Delta"


def test_render_zero():
    assert render_product_class(ZERO) == "0"


@settings(max_examples=30)
@given(coh_k3(), coh_k3())
def test_pull_is_ring_homomorphism(v, w):
    for side in (Side.FIRST, Side.SECOND):
        lhs = pull(side, mult(S, v, w))
        rhs = prod_mult(pull(side, v), pull(side, w))
        assert lhs == rhs


@settings(max_examples=30)
@given(coh_k3())
def test_push_kills_same_side_pullback(v):
    # integrating along the fibers of the projection that was pulled back
    # drops everything below top degree, and pullbacks have no top part
    for side in (Side.FIRST, Side.SECOND):
        assert push(side, pull(side, v)) == from_coords((0, 0, 0, 0))


def test_fm_matrix_is_bilinear_in_the_kernel():
    rng = random.Random(17)
    for _ in range(10):
        a = random_product_class(rng)
        b = random_product_class(rng)
        assert fm_matrix(a + b).matrix == fm_matrix(a).matrix + fm_matrix(b).matrix
        assert fm_matrix(3 * a).matrix == 3 * fm_matrix(a).matrix
