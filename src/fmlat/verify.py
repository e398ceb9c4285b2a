"""The self-contained verification suite behind `fmlat verify`.

Every reference matrix and identity is recomputed along at least two
independent paths: the pinned tables against compositions of elementary
operators, Riemann-Roch transforms of explicit kernel classes on the
product against the same tables, product-ring fixtures, the SL2(Z) family
relations, and the Euler-pairing conservation law. A case fails exactly
when the two sides differ in a single exact entry. The cases come section
by section, in the order they are printed.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterator

from . import bridgeland, chow, operators, product
from .bridgeland import canonical_ab, random_admissible
from .chow import STANDARD_K3, from_coords, mult, render_class
from .errors import InputError
from .linalg import Mat, _Record, _expect, _shown, as_int
from .operators import (GoldenName, _fm_fd, build, op_pi_tensor, op_tensor,
                        restrict2)
from .product import (Side, kernel_class, prod_mult, pull, push,
                      render_product_class)
from .sd import Theorem, sd_check

_SEED = 74207281


class VerifyCase(_Record):
    """A named identity; it passes exactly when its two printed sides are equal."""

    __slots__ = ("id", "description", "lhs", "rhs")

    def __init__(self, id: str, description: str, lhs: str, rhs: str):
        for label, x in (("id", id), ("description", description), ("lhs", lhs),
                         ("rhs", rhs)):
            _expect(label, str, x)
        self._fill(id, description, lhs, rhs)

    @property
    def passed(self) -> bool:
        return self.lhs == self.rhs


class VerifyOutcome(_Record):
    __slots__ = ("d_lo", "d_hi", "cases")

    def __init__(self, d_lo: int, d_hi: int, cases: tuple[VerifyCase, ...]):
        as_int("d_lo", d_lo)
        as_int("d_hi", d_hi)
        for case in _expect("cases", tuple, cases):
            _expect("case", VerifyCase, case)
        self._fill(d_lo, d_hi, cases)

    @property
    def n_passed(self) -> int:
        return sum(case.passed for case in self.cases)

    @property
    def n_failed(self) -> int:
        return len(self.cases) - self.n_passed

    @property
    def ok(self) -> bool:
        return self.n_failed == 0


def _first_diff(a: Mat, b: Mat) -> str:
    """The first entry where unequal tables differ, or else their shapes."""
    for i, (row_a, row_b) in enumerate(zip(a.rows, b.rows)):
        for j, (x, y) in enumerate(zip(row_a, row_b)):
            if x != y:
                return f"first difference at [{i}][{j}]: {x} vs {y}"
    return f"shape {a.n_rows}x{a.n_cols} vs {b.n_rows}x{b.n_cols}"


def _mat_str(m: Mat) -> str:
    return "[" + "; ".join(" ".join(map(str, row)) for row in m.rows) + "]"


def _case(case_id: str, description: str, lhs, rhs) -> VerifyCase:
    """The case lhs = rhs, the one place a side becomes text. A Mat side
    prints as _mat_str, and a failing Mat case names its first difference;
    a CohClass prints through render_class, a ProductClass through
    render_product_class, and any other side as str. A passing case keeps
    one string for both sides."""
    if isinstance(lhs, Mat):
        if lhs != rhs:
            description = f"{description} ({_first_diff(lhs, rhs)})"
        lhs, rhs = _mat_str(lhs), _mat_str(rhs)
    elif isinstance(lhs, chow.CohClass):
        lhs, rhs = render_class(lhs), render_class(rhs)
    elif isinstance(lhs, product.ProductClass):
        lhs, rhs = render_product_class(lhs), render_product_class(rhs)
    lhs, rhs = str(lhs), str(rhs)
    return VerifyCase(case_id, description, lhs, lhs if lhs == rhs else rhs)


def run_verify(d_lo: int = 1, d_hi: int = 12) -> VerifyOutcome:
    """Run the whole suite for kernel degrees d_lo..d_hi inclusive."""
    if not (1 <= as_int("d_lo", d_lo) <= as_int("d_hi", d_hi) <= 64):
        raise InputError(f"d range must satisfy 1 <= lo <= hi <= 64, "
                         f"got {_shown(d_lo)}..{_shown(d_hi)}")
    return VerifyOutcome(d_lo, d_hi, tuple(_cases(d_lo, d_hi)))


def _cases(d_lo: int, d_hi: int) -> Iterator[VerifyCase]:
    """The cases in printed order, section by section. Nothing built for a
    degree outlives its section: restrict2 rebuilds FM_Pd, and the
    pushforward rebuilds the degree-d kernel class."""
    golden = operators.golden
    degrees = range(d_lo, d_hi + 1)

    # reference tables against operator compositions
    for d in degrees:
        fm_pd = build(GoldenName.FM_Pd, d=d)
        for name, op in ((GoldenName.TensorL1, build(GoldenName.TensorL1, d=d)),
                         (GoldenName.Tw_d, build(GoldenName.Tw_d, d=d)),
                         (GoldenName.FM_Pd, fm_pd),
                         (GoldenName.FM_Fd, _fm_fd(fm_pd, d))):
            yield _case(
                f"golden_vs_built:{name.value}:d={d}",
                f"{name.value} built from elementary operators matches the "
                f"pinned table at d={d}",
                op.matrix, golden(name, d=d))
    for name in (GoldenName.TensorSigma, GoldenName.PiPushPull,
                 GoldenName.PiPushPullSigma, GoldenName.A_S,
                 GoldenName.A_Sprime, GoldenName.B_S):
        yield _case(
            f"golden_vs_built:{name.value}",
            f"{name.value} built from elementary operators matches the pinned table",
            build(name).matrix, golden(name))
    for divisor in ((1, 0), (0, 1), (1, 3)):
        yield _case(
            f"golden_vs_built:A_TL:D={divisor[0]},{divisor[1]}",
            f"twist operator for divisor {divisor} matches the pinned table",
            build(GoldenName.A_TL, divisor=divisor).matrix,
            golden(GoldenName.A_TL, divisor=divisor))
    yield _case(
        "composition:PiPushPullSigma",
        "composing the bare pushforward-pullback with the sigma twist "
        "reproduces the pinned twisted table",
        (op_pi_tensor(chow.UNIT_CLASS) @ op_tensor(operators._SIGMA_CH)).matrix,
        golden(GoldenName.PiPushPullSigma))
    yield _case(
        "inverse:A_Sprime",
        "the negative inverse of A_S equals the pinned A_Sprime",
        -(golden(GoldenName.A_S).inverse()), golden(GoldenName.A_Sprime))

    # Riemann-Roch on the product against the same tables
    for d in degrees:
        yield _case(
            f"grr_vs_golden:FM_Pd:d={d}",
            f"transform of the degree-{d} kernel class equals the pinned "
            f"FM_Pd at d={d}",
            product.fm_matrix(kernel_class("Pd", d)).matrix,
            golden(GoldenName.FM_Pd, d=d))
    yield _case(
        "grr_vs_golden:A_S",
        "transform of the diagonal-ideal kernel class equals the pinned A_S",
        product.fm_matrix(kernel_class("IDelta")).matrix,
        golden(GoldenName.A_S))

    # product-ring fixtures
    td_expected = (product.UNIT + 2 * pull(Side.SECOND, chow.POINT_CLASS)
                   + 2 * pull(Side.FIRST, chow.POINT_CLASS) + 4 * product.POINT)
    yield _case(
        "product:todd", "Todd class of the product is 1 + 2[X x *] + 2[* x X] + 4[*]",
        product.product_todd(), td_expected)
    yield _case(
        "product:diag_unit",
        "diagonal pushforward of the unit class is Delta - 2[*]",
        product.diag_push_grr(chow.UNIT_CLASS), product.DELTA - 2 * product.POINT)
    idelta_expected = (product.PI - product.F_CROSS_F - product.DELTA
                       + 2 * product.POINT)
    yield _case(
        "product:idelta",
        "diagonal-ideal kernel class is Pi - [f x f] - Delta + 2[*]",
        kernel_class("IDelta"), idelta_expected)
    todd_first = pull(Side.FIRST, chow.todd(STANDARD_K3))
    for d in degrees:
        pushed = push(Side.SECOND, prod_mult(kernel_class("Pd", d), todd_first))
        expected = from_coords((d, -1, d * d - d, 1 - 2 * d))
        yield _case(
            f"product:pd_pushforward:d={d}",
            f"pushforward of the degree-{d} kernel has class "
            f"(d, -sigma+(d^2-d)f, 1-2d)",
            pushed, expected)
        twisted = mult(STANDARD_K3, pushed,
                       chow.ch_line_bundle(STANDARD_K3, (0, 2)))
        yield _case(
            f"product:pd_pushforward_twist:d={d}",
            f"its relative-dualizing twist equals the pinned twist class at d={d}",
            twisted, operators.pd_pushforward_twist_class(d))

    # pairing conservation; recorded fixture: the rank-(d+1) kernel
    # transform preserves it too
    gram = chow.pairing_gram()
    for d in degrees:
        for name, note in ((GoldenName.FM_Pd, ""),
                           (GoldenName.FM_Fd, " (recorded fixture)")):
            m = golden(name, d=d)
            yield _case(
                f"pairing:{name.value}:d={d}",
                f"{name.value} preserves the Euler pairing at d={d}{note}",
                m.transpose() * gram * m, gram)

    # two-by-two reductions
    for d in degrees:
        reduced = restrict2(build(GoldenName.FM_Pd, d=d)).matrix
        yield _case(
            f"restrict2:FM_Pd:d={d}",
            f"FM_Pd reduces to [[0,1],[-1,d]] at d={d}",
            reduced, Mat([[0, 1], [-1, d]]))
        yield _case(
            f"restrict2_det:FM_Pd:d={d}",
            f"the reduction of FM_Pd is unimodular at d={d}",
            reduced.det(), 1)
    yield _case(
        "restrict2:A_S", "A_S reduces to the pinned B_S",
        restrict2(build(GoldenName.A_S)).matrix, golden(GoldenName.B_S))
    yield _case(
        "restrict2:A_TL:D=1,3",
        "the twist by a divisor of fiber degree one reduces to [[1,0],[1,1]]",
        restrict2(build(GoldenName.A_TL, divisor=(1, 3))).matrix,
        Mat([[1, 0], [1, 1]]))

    # SL2(Z) family relations on pseudo-random admissible matrices
    rng = random.Random(_SEED)
    draws = [(random_admissible(rng), rng.randint(1, 12), rng.randint(-12, 12))
             for _ in range(100)]
    neg_id = -Mat.identity(2)
    yield _case(
        "bridgeland:family_relations",
        "100 pseudo-random admissible families satisfy phi.psi = psi.phi = "
        "xi.omega = omega.xi = -1",
        all(m * psi == psi * m == neg_id == xi * omega == omega * xi
            for phi, _, _ in draws
            for m, psi, omega, xi in [(phi.matrix, phi.psi, phi.omega, phi.xi)]),
        True)
    slopes = [(c, a, e, b, r, d) for phi, r, d in draws
              for c, a, e, b in [phi.entries()] if b * r - a * d > 0 and c > 0]
    yield _case(
        "bridgeland:vb_slope",
        f"the slope inequality a(er-cd) < c(br-ad) held in all "
        f"{len(slopes)} applicable samples",
        len(slopes) > 0 and all(a * (e * r - c * d) < c * (b * r - a * d)
                                for c, a, e, b, r, d in slopes), True)

    # (1 + a.d) mod r depends on d mod r alone: scan a once per residue,
    # one r's table at a time
    tables = ((r, {x: [a for a in range(1, r) if (1 + a * x) % r == 0]
                   for x in range(r) if math.gcd(r, x) == 1}) for r in range(2, 51))
    yield _case(
        "bridgeland:canonical_ab",
        "canonical (a, b) agrees with brute force for every coprime pair "
        "with 2 <= r <= 50, |d| <= 50",
        all([(a, (1 + a * d) // r) for a in table[d % r]] == [canonical_ab(r, d)]
            for r, table in tables for d in range(-50, 51) if math.gcd(r, d) == 1), True)

    # worked Strange Duality example
    worked = bridgeland.FM2(3, 1, -7, -2, 1)
    res = sd_check(Theorem.K3, worked, 6, 0)
    yield _case(
        "sd:worked_pass",
        "phi = [[3,1],[-7,-2]] with fiber degrees (6, 0) passes with margins "
        "(1, 1) and ranks (3, 3)",
        f"margins={res.threshold_margins} ranks=({res.rk_xi_v},{res.rk_phi_w})",
        "margins=(1, 1) ranks=(3,3)")
    res_fail = sd_check(Theorem.K3, worked, 5, 0)
    yield _case(
        "sd:worked_boundary",
        "the boundary case d_v = 5 fails the strict inequality",
        f"passed={res_fail.passed}", "passed=False")

