"""Acceptance suite: every criterion is exact, tolerance zero.

Each test prints one pass/fail line (visible with pytest -s); a test only
reaches its PASS line after all of its exact assertions held.
"""

import json
import math
import random
from fractions import Fraction

import pytest

from fmlat.bridgeland import FM2, canonical_ab, random_admissible
from fmlat.chow import (CohClass, STANDARD_K3, UNIT_CLASS, POINT_CLASS,
                        ch_line_bundle, from_coords, moduli_dim_k3, mult,
                        todd)
from fmlat.cli import main
from fmlat.linalg import Mat
from fmlat.operators import (GoldenName, IDENTITY, build, golden,
                             op_pi_tensor, op_tensor,
                             pd_pushforward_twist_class, restrict2)
from fmlat.product import (DELTA, F_CROSS_F, FMOrientation, PI, POINT, Side,
                           diag_push_grr, kernel_class, prod_mult,
                           product_todd, pull, push)
from fmlat.sd import Theorem, orthogonal_check, sd_check
from fmlat.verify import VerifyOutcome

S = STANDARD_K3
GRAM = Mat([[2, 0, 0, 1], [0, 2, -1, 0], [0, -1, 0, 0], [1, 0, 0, 0]])


def report(n: int, text: str) -> None:
    print(f"[acceptance {n:02d}] PASS  {text}")


def test_acceptance_01_golden_vs_built():
    sigma_ch = ch_line_bundle(S, (1, 0))
    for d in range(1, 13):
        for name in (GoldenName.FM_Pd, GoldenName.FM_Fd, GoldenName.TensorL1,
                     GoldenName.Tw_d):
            assert build(name, d=d).matrix == golden(name, d=d)
    assert build(GoldenName.TensorSigma).matrix == golden(GoldenName.TensorSigma)
    composed = op_pi_tensor(UNIT_CLASS).matrix * op_tensor(sigma_ch).matrix
    assert composed == golden(GoldenName.PiPushPullSigma)
    assert (op_pi_tensor(UNIT_CLASS) - IDENTITY).matrix == golden(GoldenName.A_S)
    report(1, "built operators equal the pinned matrices for d in 1..12")


def test_acceptance_02_grr_independent_path():
    for d in range(1, 7):
        got = kernel_class("Pd", d)
        assert fm_matrix_of(got, FMOrientation.PUSH_FIRST_PULL_SECOND) == \
            golden(GoldenName.FM_Pd, d=d)
    assert fm_matrix_of(kernel_class("IDelta"),
                        FMOrientation.PUSH_SECOND_PULL_FIRST) == \
        golden(GoldenName.A_S)
    report(2, "Riemann-Roch kernel transforms match the pinned matrices")


def fm_matrix_of(kernel, orientation):
    from fmlat.product import fm_matrix
    return fm_matrix(kernel, orientation).matrix


def test_acceptance_03_product_fixtures():
    td_xx = (1 * pull(Side.FIRST, UNIT_CLASS)
             + 2 * pull(Side.SECOND, POINT_CLASS)
             + 2 * pull(Side.FIRST, POINT_CLASS) + 4 * POINT)
    assert product_todd() == td_xx
    assert diag_push_grr(UNIT_CLASS) == DELTA - 2 * POINT
    assert kernel_class("IDelta") == PI - F_CROSS_F - DELTA + 2 * POINT
    omega_pi_ch = ch_line_bundle(S, (0, 2))
    for d in range(1, 7):
        pushed = push(Side.SECOND, prod_mult(kernel_class("Pd", d),
                                             pull(Side.FIRST, todd(S))))
        assert pushed == from_coords((d, -1, d * d - d, 1 - 2 * d))
        assert mult(S, pushed, omega_pi_ch) == pd_pushforward_twist_class(d)
    report(3, "product-ring fixtures hold exactly")


def test_acceptance_04_negative_inverse():
    assert -(golden(GoldenName.A_S).inverse()) == golden(GoldenName.A_Sprime)
    report(4, "the negative inverse of A_S is A_Sprime")


def test_acceptance_05_pairing_preservation():
    for d in range(1, 13):
        m = golden(GoldenName.FM_Pd, d=d)
        assert m.transpose() * GRAM * m == GRAM
        # frozen fixture: the FM_Fd transforms preserve the pairing as well
        mf = golden(GoldenName.FM_Fd, d=d)
        assert mf.transpose() * GRAM * mf == GRAM
    report(5, "Euler pairing is preserved (FM_Fd fixture: preserved)")


def test_acceptance_06_bridgeland_reductions():
    for d in range(1, 13):
        reduced = restrict2(build(GoldenName.FM_Pd, d=d))
        assert reduced == Mat([[0, 1], [-1, d]])
        assert reduced.det() == 1
    assert restrict2(build(GoldenName.A_S)) == Mat([[-1, 1], [0, -1]])
    for divisor in ((1, 0), (0, 1), (3, -2), (-1, 5)):
        assert restrict2(build(GoldenName.A_TL, divisor=divisor)) == \
            Mat([[1, 0], [divisor[0], 1]])
    report(6, "2x2 reductions match with determinant one")


def test_acceptance_07_family_relations():
    rng = random.Random(20260808)
    neg_id = -Mat.identity(2)
    slope_checked = 0
    for _ in range(100):
        phi = random_admissible(rng, bound=50)
        m = phi.matrix
        assert m * phi.psi == phi.psi * m == neg_id
        assert phi.xi * phi.omega == phi.omega * phi.xi == neg_id
        c, a, e, b = phi.entries()
        r, d = rng.randint(1, 10), rng.randint(-10, 10)
        if b * r - a * d > 0 and c > 0:
            slope_checked += 1
            assert a * (e * r - c * d) < c * (b * r - a * d)
    assert slope_checked > 0
    report(7, f"SL2(Z) family relations on 100 samples "
              f"(slope inequality checked {slope_checked} times)")


def test_acceptance_08_canonical_ab_brute_force():
    for r in range(2, 51):
        for d in range(-50, 51):
            if math.gcd(r, d) != 1:
                continue
            brute = [(a, (1 + a * d) // r) for a in range(1, r)
                     if (1 + a * d) % r == 0]
            assert len(brute) == 1
            assert canonical_ab(r, d) == brute[0]
    report(8, "canonical (a, b) equals brute force for r <= 50, |d| <= 50")


def test_acceptance_09_worked_sd_example():
    phi = FM2(3, 1, -7, -2, 1)
    res = sd_check(Theorem.K3, phi, 6, 0)
    assert res.passed
    assert res.threshold_margins == (1, 1)
    assert (res.rk_xi_v, res.rk_phi_w) == (3, 3)
    res_fail = sd_check(Theorem.K3, phi, 5, 0)
    assert not res_fail.passed
    assert res_fail.threshold_margins[0] <= 0 < res_fail.threshold_margins[1]
    report(9, "worked example passes with margins (1, 1); d_v = 5 fails first")


def test_acceptance_10_base_case_and_moduli_dim():
    rng = random.Random(1618)
    for _ in range(200):
        l_vec = (rng.randint(-5, 5), rng.randint(-5, 5))
        k, l = rng.randint(-2, 6), rng.randint(-2, 6)
        lsq_oracle = (-2 * l_vec[0] * l_vec[0]
                      + 2 * l_vec[0] * l_vec[1])          # independent lattice expansion
        chi_l_oracle = 2 + Fraction(lsq_oracle, 2)
        v = CohClass(1, (0, 0), -k)
        w = CohClass(1, l_vec, Fraction(lsq_oracle, 2) - l)
        assert orthogonal_check(S, v, w) == (k + l == chi_l_oracle)
    for n in range(0, 21):
        assert moduli_dim_k3(S, CohClass(1, (0, 0), -n)) == 2 * n
    report(10, "orthogonality matches the expansion oracle on 200 pairs; "
               "Hilbert-scheme dimensions are 2n")


def test_acceptance_11_cli_contract(capsys, tmp_path):
    assert main(["verify", "--d-range", "1..6"]) == 0
    capsys.readouterr()

    assert main(["verify", "--d-range", "1..2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert VerifyOutcome.from_json(doc).to_json() == doc

    assert main(["transform", "--matrix", "FM_Pd", "--d", "1",
                 "--vector", "1,0,0,0"]) == 0
    assert capsys.readouterr().out.strip() == "0, -1, 0, 1"

    # exit-code contract: 1 for failed checks, 2 for input errors
    assert main(["sd-check", "--phi", "3,1,-7,-2", "--dv", "5", "--dw", "0"]) == 1
    capsys.readouterr()
    assert main(["sd-check", "--phi", "1,1,1,1", "--dv", "6", "--dw", "0"]) == 2
    capsys.readouterr()
    assert main(["verify", "--d-range", "0..3"]) == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    capsys.readouterr()
    report(11, "CLI verify exits 0, JSON round-trips, exit codes 0/1/2 hold")
