import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from fmlat.bridgeland import random_admissible
from fmlat.chow import (STANDARD_K3, UNIT_CLASS, ch_line_bundle,
                        from_coords, mult, pairing_gram)
from fmlat.errors import InputError, ReductionError, SingularMatrixError
from fmlat.linalg import Mat
from fmlat.operators import (GoldenName, IDENTITY, Operator, _w, build, golden,
                             op_pi_tensor, op_tensor, pd_line_class,
                             pd_pushforward_twist_class, restrict2)

from helpers import coh_k3, small_q

S = STANDARD_K3
SIGMA_CH = ch_line_bundle(S, (1, 0))
D_RANGE = list(range(1, 13))


# elementary generators against the pinned tables

def test_op_tensor_sigma():
    assert op_tensor(SIGMA_CH).matrix == Mat([[1, 0, 0, 0],
                                              [1, 1, 0, 0],
                                              [0, 0, 1, 0],
                                              [-1, -2, 1, 1]])


@pytest.mark.parametrize("d", D_RANGE)
def test_op_tensor_kernel_line(d):
    m = d + 1
    assert op_tensor(pd_line_class(d)).matrix == Mat([[1, 0, 0, 0],
                                                      [m, 1, 0, 0],
                                                      [2 * m, 0, 1, 0],
                                                      [m * m, 0, m, 1]])


@pytest.mark.parametrize("d", D_RANGE)
def test_op_tensor_pushforward_twist(d):
    expected = Mat([[d, 0, 0, 0],
                    [-1, d, 0, 0],
                    [d * d + d, 0, d, 0],
                    [-2 * d - 1, d * d + d + 2, -1, d]])
    assert op_tensor(pd_pushforward_twist_class(d)).matrix == expected


def test_op_pi_tensor_unit():
    assert op_pi_tensor(UNIT_CLASS).matrix == Mat([[0, 1, 0, 0],
                                                   [0, 0, 0, 0],
                                                   [2, -1, 0, 1],
                                                   [0, 0, 0, 0]])


def test_op_pi_tensor_sigma():
    assert op_pi_tensor(SIGMA_CH).matrix == Mat([[1, 1, 0, 0],
                                                 [0, 0, 0, 0],
                                                 [0, -3, 1, 1],
                                                 [0, 0, 0, 0]])


def test_op_pi_tensor_is_composition():
    lhs = op_pi_tensor(SIGMA_CH)
    rhs = op_pi_tensor(UNIT_CLASS) @ op_tensor(SIGMA_CH)
    assert lhs.matrix == rhs.matrix


@settings(max_examples=40)
@given(coh_k3(), coh_k3(), small_q())
def test_op_tensor_application_is_multiplication(c, v, k):
    op = op_tensor(c)
    assert op.apply(v) == mult(S, c, v)
    assert op.apply(k * v) == k * op.apply(v)


@settings(max_examples=40)
@given(coh_k3(), coh_k3(), small_q(), small_q())
def test_apply_is_linear(v, w, a, b):
    op = build(GoldenName.FM_Pd, d=2)
    assert op.apply(a * v + b * w) == a * op.apply(v) + b * op.apply(w)


def test_fm_pd_matches_its_composition_built_per_degree():
    # build takes the d-free right factor from a module constant
    right = op_pi_tensor(SIGMA_CH) - op_tensor(SIGMA_CH)
    for d in range(1, 65):
        reference = op_tensor(pd_line_class(d)) @ right
        op = build(GoldenName.FM_Pd, d=d)
        assert (op.matrix, op.label) == (reference.matrix, f"FM_Pd={reference.label}")


def test_composition_and_sum_are_matrix_operations():
    x = build(GoldenName.FM_Pd, d=1)
    y = golden_op(GoldenName.A_S)
    assert (x @ y).matrix == x.matrix * y.matrix
    assert (x + y).matrix == x.matrix + y.matrix


# built against golden, all names

# the argument each name requires: d for the degree families, a divisor for A_TL
REQUIRED_ARGS = {GoldenName.TensorL1: {"d": 3}, GoldenName.Tw_d: {"d": 3},
                 GoldenName.FM_Pd: {"d": 3}, GoldenName.FM_Fd: {"d": 3},
                 GoldenName.A_TL: {"divisor": (2, -3)}}


@pytest.mark.parametrize("name", list(GoldenName), ids=lambda name: name.value)
def test_build_returns_an_operator_matching_golden(name):
    kw = REQUIRED_ARGS.get(name, {})
    built = build(name, **kw)
    assert type(built) is Operator
    assert built.matrix == golden(name, **kw)
    assert built.label.startswith(f"{name.value}=")


def test_build_b_s_is_2x2():
    b_s = build(GoldenName.B_S)
    assert b_s.matrix == golden(GoldenName.B_S) == Mat([[-1, 1], [0, -1]])
    assert b_s.label.startswith("B_S=restrict2(A_S=")
    with pytest.raises(InputError, match="restrict2 needs a 4x4 operator"):
        restrict2(b_s)


def test_build_needs_d_where_parameterized():
    with pytest.raises(InputError):
        build(GoldenName.FM_Pd)
    with pytest.raises(InputError):
        golden(GoldenName.TensorL1, d=0)
    with pytest.raises(InputError):
        build(GoldenName.A_TL)


@pytest.mark.parametrize("fn", [build, golden])
def test_build_and_golden_share_argument_check(fn):
    for name in (GoldenName.TensorL1, GoldenName.Tw_d, GoldenName.FM_Pd,
                 GoldenName.FM_Fd):
        # like "A_TL needs a divisor", not "must be an integer, got None"
        with pytest.raises(InputError, match=f"^{name.value} needs a kernel degree d$"):
            fn(name)
    with pytest.raises(InputError, match="2 entries"):
        fn(GoldenName.A_TL, divisor=(1, 2, 3))
    for bad in ("12", 5):
        with pytest.raises(InputError, match="expected a sequence"):
            fn(GoldenName.A_TL, divisor=bad)
    with pytest.raises(InputError, match="takes no kernel degree"):
        fn(GoldenName.TensorSigma, d=3)
    with pytest.raises(InputError, match="takes no divisor"):
        fn(GoldenName.FM_Pd, d=1, divisor=(1, 0))
    with pytest.raises(InputError, match="unknown matrix name"):
        fn("Nope")
    for bad in (2.0, "2", True):
        with pytest.raises(InputError, match="integer"):
            fn(GoldenName.FM_Pd, d=bad)


def test_a_s_applied_to_structure_sheaf():
    # oracle: pi^* pi_* O = O + O(-2f) in class terms, so [SO] = 2f - 1
    assert op_pi_tensor(UNIT_CLASS).apply(UNIT_CLASS) == from_coords((0, 0, 2, 0))
    got = build(GoldenName.A_S).apply(from_coords((1, 0, 0, 0)))
    assert got == from_coords((-1, 0, 2, 0))


# combining operators: composition, inversion, negation

def test_combine_compose_matches_pinned_composition():
    got = golden_op(GoldenName.PiPushPull) @ golden_op(GoldenName.TensorSigma)
    assert got.matrix == golden(GoldenName.PiPushPullSigma)


def golden_op(name, **kw):
    return Operator(golden(name, **kw), name.value)


@pytest.mark.parametrize("d", D_RANGE)
def test_fm_pd_invertible_det_one(d):
    op = build(GoldenName.FM_Pd, d=d)
    assert op.matrix.det() == 1
    assert op.matrix.inverse() * op.matrix == Mat.identity(4)


def test_combine_invert_singular():
    with pytest.raises(SingularMatrixError):
        op_tensor(from_coords((0, 1, 0, 0))).matrix.inverse()


# apply

def test_apply_fm_pd_to_structure_sheaf():
    got = build(GoldenName.FM_Pd, d=1).apply(from_coords((1, 0, 0, 0)))
    assert got == from_coords((0, -1, 0, 1))


def test_apply_identity():
    v = from_coords((2, Fraction(1, 2), -3, 5))
    assert IDENTITY.apply(v) == v


@pytest.mark.parametrize("d", D_RANGE)
def test_apply_fm_fd_to_structure_sheaf(d):
    got = build(GoldenName.FM_Fd, d=d).apply(from_coords((1, 0, 0, 0)))
    assert got == from_coords((-1, -1, 0, 1))


# restrict2

@pytest.mark.parametrize("d", D_RANGE)
def test_restrict2_fm_pd(d):
    reduced = restrict2(build(GoldenName.FM_Pd, d=d))
    assert reduced.matrix == Mat([[0, 1], [-1, d]])
    assert reduced.matrix.det() == 1
    assert reduced.label == f"restrict2({build(GoldenName.FM_Pd, d=d).label})"


def test_restrict2_a_s_is_b_s():
    assert restrict2(golden_op(GoldenName.A_S)).matrix == golden(GoldenName.B_S)


@pytest.mark.parametrize("divisor", [(1, 0), (0, 1), (3, -2), (-1, 5)])
def test_restrict2_twist_records_fiber_degree(divisor):
    got = restrict2(build(GoldenName.A_TL, divisor=divisor)).matrix
    assert got == Mat([[1, 0], [divisor[0], 1]])
    assert got.det() == 1


@pytest.mark.parametrize("d", D_RANGE)
def test_restrict2_fm_fd_unimodular(d):
    got = restrict2(build(GoldenName.FM_Fd, d=d)).matrix
    assert got == Mat([[-1, d + 1], [-1, d]])
    assert got.det() == 1


def test_restrict2_well_defined_for_every_pinned_4x4():
    for name in GoldenName:
        if name is GoldenName.B_S:
            continue
        kw = {}
        if name in (GoldenName.TensorL1, GoldenName.Tw_d, GoldenName.FM_Pd,
                    GoldenName.FM_Fd):
            kw["d"] = 2
        if name is GoldenName.A_TL:
            kw["divisor"] = (1, 1)
        restrict2(golden_op(name, **kw))


def test_restrict2_rejects_leaky_operator():
    leaky = Operator(Mat([[1, 0, 1, 0],
                          [0, 1, 0, 0],
                          [0, 0, 1, 0],
                          [0, 0, 0, 1]]), "leaky")
    with pytest.raises(ReductionError):
        restrict2(leaky)


def test_apply_of_a_2x2_operator_points_to_its_matrix():
    b_s = build(GoldenName.B_S)
    with pytest.raises(InputError, match=r"B_S=.* is 2x2 .* \.matrix\.apply"):
        b_s.apply(UNIT_CLASS)
    assert b_s.matrix.apply((1, 2)) == (1, -2)   # (rank, fiber degree)


# pairing preservation

def pairing_preserved(op):
    g = pairing_gram()
    return op.matrix.transpose() * g * op.matrix == g


@pytest.mark.parametrize("d", D_RANGE)
def test_fm_pd_preserves_pairing(d):
    assert pairing_preserved(build(GoldenName.FM_Pd, d=d))


@pytest.mark.parametrize("d", D_RANGE)
def test_fm_fd_pairing_recorded_fixture(d):
    # computed once and frozen: the rank-(d+1) kernel transform preserves the
    # pairing as well
    assert pairing_preserved(build(GoldenName.FM_Fd, d=d)) is True


def test_identity_preserves_pairing():
    assert pairing_preserved(IDENTITY)


def test_scaling_breaks_pairing():
    assert not pairing_preserved(op_tensor(from_coords((2, 0, 0, 0))))


def test_w_is_a_group_law_of_pairing_isometries():
    # W(phi, k).W(psi, m) = W(phi.psi, k + m), and every W keeps the pairing
    rng = random.Random(17)
    g = pairing_gram()
    for _ in range(300):
        phi, psi = random_admissible(rng), random_admissible(rng)
        k, m = rng.randint(-20, 20), rng.randint(-20, 20)
        (c, a), (e, b) = (phi.matrix * psi.matrix).rows
        w = _w(*phi.entries(), k)
        assert w * _w(*psi.entries(), m) == _w(c, a, e, b, k + m)
        assert w.transpose() * g * w == g


# decomposition identity

@pytest.mark.parametrize("d", D_RANGE)
def test_fm_fd_minus_fm_pd_is_pi_tensor_twist(d):
    diff = build(GoldenName.FM_Fd, d=d).matrix - build(GoldenName.FM_Pd, d=d).matrix
    assert diff == op_pi_tensor(pd_pushforward_twist_class(d)).matrix


def test_operator_labels_carry_provenance():
    op = build(GoldenName.FM_Pd, d=3)
    assert "FM_Pd" in op.label
    assert "tensor" in op.label


def test_operator_requires_a_square_2x2_or_4x4():
    assert Operator(Mat([[1, 0], [0, 1]]), "2x2").matrix == Mat.identity(2)
    for bad in (Mat.identity(3), Mat([[1, 0, 0, 0], [0, 1, 0, 0]]), Mat([[1]])):
        with pytest.raises(InputError, match="square 2x2 or 4x4"):
            Operator(bad)
    for bad in (5, [[1, 0], [0, 1]], None):
        with pytest.raises(InputError, match="needs a Mat"):
            Operator(bad)
    # an operand or argument that is not an Operator
    fm = build(GoldenName.FM_Pd, d=1)
    for bad in (Mat.identity(4), 1, None):
        for call in (lambda: fm @ bad, lambda: fm + bad, lambda: fm - bad,
                     lambda: restrict2(bad)):
            with pytest.raises(InputError, match="must be of type Operator"):
                call()


def test_golden_twist_needs_divisor():
    with pytest.raises(InputError):
        golden(GoldenName.A_TL)


# every entry of the d-parameterized tables is a polynomial in d of degree
# at most two, so agreement at three points pins the whole family; fitting
# through d = 1, 2, 3 must then reproduce every other degree exactly

def _quadratic_through(y1, y2, y3, d):
    # Lagrange interpolation at nodes 1, 2, 3
    return (y1 * (d - 2) * (d - 3) * Fraction(1, 2)
            - y2 * (d - 1) * (d - 3)
            + y3 * (d - 1) * (d - 2) * Fraction(1, 2))


@pytest.mark.parametrize("name", [GoldenName.TensorL1, GoldenName.Tw_d,
                                  GoldenName.FM_Pd, GoldenName.FM_Fd])
def test_d_families_are_quadratic_in_d(name):
    samples = {d: golden(name, d=d) for d in range(1, 13)}
    for i in range(4):
        for j in range(4):
            y1, y2, y3 = (samples[d].rows[i][j] for d in (1, 2, 3))
            for d in range(4, 13):
                assert samples[d].rows[i][j] == _quadratic_through(y1, y2, y3, d)
