import hashlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmlat.bridgeland import (FM2, GenBiratClass, canonical_ab,
                              gen_birat_classify, random_admissible)
from fmlat.errors import AdmissibilityError, CoprimalityError, InputError
from fmlat.linalg import Mat
from fmlat.operators import Operator, _fm_fd, restrict2
from fmlat.sd import (SearchTarget, Theorem, sd_check, search_phi,
                      transformed_ranks)
from fmlat.verify import run_verify

NEG_ID = -Mat.identity(2)


# FM2 admissibility

def test_fm2_accepts_admissible():
    phi = FM2(3, 1, -7, -2)
    assert phi.matrix == Mat([[3, 1], [-7, -2]])
    assert phi.entries() == (3, 1, -7, -2)


def test_fm2_rejects_bad_determinant():
    with pytest.raises(AdmissibilityError, match="determinant"):
        FM2(1, 1, 1, 1)


def test_fm2_rejects_nonpositive_a():
    with pytest.raises(AdmissibilityError, match="positive"):
        FM2(1, -1, 0, 1)


def test_fm2_lambda_divisibility():
    FM2(1, 1, 0, 1, lam=2)      # e = 0 is divisible by anything
    with pytest.raises(AdmissibilityError, match="lambda"):
        FM2(0, 1, -1, 1, lam=2)  # det = 0*1 - 1*(-1) = 1 but e odd


# canonical (a, b)

def test_canonical_ab_worked_pairs():
    assert canonical_ab(2, 1) == (1, 1)
    assert canonical_ab(5, 3) == (3, 2)


def test_canonical_ab_coprimality_error():
    with pytest.raises(CoprimalityError):
        canonical_ab(4, 2)


def test_canonical_ab_requires_r_above_one():
    with pytest.raises(InputError):
        canonical_ab(1, 0)


def test_canonical_ab_brute_force_oracle():
    for r in range(2, 51):
        for d in range(-50, 51):
            if math.gcd(r, d) != 1:
                continue
            solutions = [(a, (1 + a * d) // r) for a in range(1, r)
                         if (1 + a * d) % r == 0]
            assert len(solutions) == 1
            assert canonical_ab(r, d) == solutions[0]
            a, b = solutions[0]
            assert b * r - a * d == 1 and 0 < a < r


# families and relations

def test_phi_family_worked_example():
    phi = FM2(3, 1, -7, -2)
    assert phi.matrix * phi.psi == NEG_ID
    assert phi.psi == Mat([[2, 1], [-7, -3]])
    assert phi.omega == Mat([[-2, 1], [-7, 3]])
    assert phi.xi == Mat([[-3, 1], [-7, 2]])


def test_phi_family_admissibility_errors():
    phi = FM2(1, 1, 0, 1)     # det = 1, passes
    assert phi.matrix * phi.psi == NEG_ID
    with pytest.raises(AdmissibilityError, match="lambda"):
        FM2(0, 1, -1, 1, lam=2)


def test_family_relations_random_admissible():
    rng = random.Random(31337)
    for _ in range(100):
        phi = random_admissible(rng)
        m = phi.matrix
        assert m * phi.psi == phi.psi * m == NEG_ID
        assert phi.xi * phi.omega == phi.omega * phi.xi == NEG_ID
        assert max(abs(x) for x in phi.entries()) <= 50


@settings(max_examples=80)
@given(st.integers(0, 2**32), st.integers(1, 4))
def test_family_entry_formulas_and_relations(seed, lam):
    phi = random_admissible(random.Random(seed), lam=lam)
    c, a, e, b = phi.entries()
    assert phi.matrix == Mat([[c, a], [e, b]])
    assert phi.psi == Mat([[-b, a], [e, -c]])
    assert phi.omega == Mat([[b, a], [e, c]])
    assert phi.xi == Mat([[-c, a], [e, -b]])
    assert phi.matrix * phi.psi == phi.psi * phi.matrix == NEG_ID
    assert phi.xi * phi.omega == phi.omega * phi.xi == NEG_ID


def _verify_case(case_id):
    return next(c for c in run_verify(1, 1).cases if c.id == case_id)


def test_verify_family_relations_fails_on_a_wrong_psi(monkeypatch):
    assert _verify_case("bridgeland:family_relations").passed
    monkeypatch.setattr(FM2, "psi", property(lambda self: Mat.identity(2)))
    case = _verify_case("bridgeland:family_relations")
    assert not case.passed and case.lhs == "False"


def _one_more_d_v(theorem, phi, d_v, d_w):
    return sd_check(theorem, phi, d_v + 1, d_w)


# a case id -> a name in fmlat.verify and a stand-in that breaks one side
BROKEN_SIDES = {
    # one wrong answer among the 2,994 pairs: (7, 3) has (a, b) = (2, 1)
    "bridgeland:canonical_ab": (
        "canonical_ab",
        lambda r, d: (2, 2) if (r, d) == (7, 3) else canonical_ab(r, d)),
    # every sample has c < 0, so no sample is applicable
    "bridgeland:vb_slope": ("random_admissible", lambda rng: FM2(-1, 1, -1, 0)),
    # one more fiber degree: margins (2, 1), ranks (4, 3); d_v = 6 passes
    "sd:worked_pass": ("sd_check", _one_more_d_v),
    "sd:worked_boundary": ("sd_check", _one_more_d_v),
    # twice the reduction has determinant 4
    "restrict2_det:FM_Pd:d=1": (
        "restrict2", lambda op: Operator(2 * restrict2(op).matrix)),
    "golden_vs_built:FM_Fd:d=1": ("_fm_fd", lambda op, d: -_fm_fd(op, d)),
}


@pytest.mark.parametrize("case_id", BROKEN_SIDES)
def test_verify_case_fails_when_a_side_breaks(monkeypatch, case_id):
    assert _verify_case(case_id).passed
    name, stand_in = BROKEN_SIDES[case_id]
    monkeypatch.setattr(f"fmlat.verify.{name}", stand_in)
    case = _verify_case(case_id)
    assert not case.passed and case.lhs != case.rhs


def test_vb_slope_inequality_reduces_to_determinant():
    rng = random.Random(424242)
    checked = 0
    for _ in range(300):
        phi = random_admissible(rng)
        c, a, e, b = phi.entries()
        r = rng.randint(1, 12)
        d = rng.randint(-12, 12)
        if b * r - a * d > 0 and c > 0:
            checked += 1
            assert a * (e * r - c * d) < c * (b * r - a * d)
    assert checked > 20


# the 2x2 action on (rank, fiber degree)

def test_transform2_fiber_sheaf_image():
    phi = FM2(3, 1, -7, -2)
    assert phi.matrix.apply((0, 1)) == (1, -2)


def test_transform2_negated_psi_column():
    # -psi = [[b, -a], [-e, c]] sends (r, d) to (br - ad, cd - er)
    for (c, a, e, b) in ((3, 1, -7, -2), (5, 2, -8, -3)):
        neg_psi = -FM2(c, a, e, b).psi
        assert neg_psi == Mat([[b, -a], [-e, c]])
        for (r, d) in ((5, 3), (2, 1), (7, -4)):
            assert neg_psi.apply((r, d)) == (b * r - a * d, c * d - e * r)


def test_transform2_identity():
    assert Mat.identity(2).apply((4, -9)) == (4, -9)


# birationality classification

def _phi_ab(a, b):
    # an admissible matrix with the prescribed lower row built from
    # canonical data: need cb - ae = 1
    for c in range(-30, 31):
        for e in range(-30, 31):
            if c * b - a * e == 1:
                return FM2(c, a, e, b)
    raise AssertionError("no admissible matrix found")


def test_classify_rank_one_birational():
    phi = _phi_ab(3, 2)
    assert 2 * 5 - 3 * 3 == 1
    assert gen_birat_classify((5, 3), phi) is GenBiratClass.BIRATIONAL_RANK_ONE


def test_classify_regular_isomorphism_with_dimension():
    phi = _phi_ab(3, 2)
    assert gen_birat_classify((5, 3), phi, t=1) is \
        GenBiratClass.REGULAR_ISOMORPHISM


def test_classify_codim_two_on_k3():
    # rk w = b*r - a*d = 3 with (a, b) = (1, 1), (r, d) = (5, 2)
    phi = _phi_ab(1, 1)
    assert gen_birat_classify((5, 2), phi, k3=True) is \
        GenBiratClass.BIRATIONAL_CODIM_TWO
    assert gen_birat_classify((5, 2), phi, k3=False) is \
        GenBiratClass.BIRATIONAL_HIGH_RANK


def test_classify_rank_two_stays_high_rank_on_k3():
    phi = _phi_ab(1, 1)   # rk w = r - d
    assert gen_birat_classify((5, 3), phi, k3=True) is \
        GenBiratClass.BIRATIONAL_HIGH_RANK


def test_classify_not_covered():
    phi = _phi_ab(3, 2)
    # rk w = 2*2 - 3*1 = 1 but r = 2 is not above a = 3
    assert gen_birat_classify((2, 1), phi) is GenBiratClass.NOT_COVERED


def test_classify_equal_or_lower_slope_is_not_covered():
    # rk w = b.rk - a.fd <= 0, i.e. b/a <= fd/rk: no transform in degree one
    assert gen_birat_classify((2, 1), _phi_ab(2, 1), t=2, k3=True) is \
        GenBiratClass.NOT_COVERED      # 1/2 = 1/2: equality is not enough
    assert gen_birat_classify((2, 1), _phi_ab(1, 0), t=2, k3=True) is \
        GenBiratClass.NOT_COVERED      # 0 < 1/2
    # one step up in b gives rk w = 1, the rank-one case
    assert gen_birat_classify((2, 1), _phi_ab(1, 1)) is \
        GenBiratClass.BIRATIONAL_RANK_ONE


def test_classify_rejects_non_bool_k3():
    # unchecked, "no" reads as true and (5, 2) comes back BirationalCodimTwo
    for flag in ("no", 1, None):
        with pytest.raises(InputError, match="k3 must be of type bool"):
            gen_birat_classify((5, 2), FM2(1, 1, 0, 1), k3=flag)


def test_classify_requires_coprime_input():
    phi = _phi_ab(1, 1)
    with pytest.raises(CoprimalityError):
        gen_birat_classify((4, 2), phi)


def test_classify_regular_implies_rank_one_inequality():
    rng = random.Random(2718)
    for _ in range(200):
        phi = random_admissible(rng)
        r = rng.randint(1, 15)
        d = rng.randint(-15, 15)
        if math.gcd(r, d) != 1:
            continue
        t = rng.randint(1, 5)
        got = gen_birat_classify((r, d), phi, t=t)
        if got is GenBiratClass.REGULAR_ISOMORPHISM:
            assert r > phi.a   # t >= 1 makes the rank-one bound automatic


def test_fm2_rejects_nonpositive_lambda_and_nonints():
    with pytest.raises(InputError, match="lambda"):
        FM2(1, 1, 0, 1, lam=0)
    with pytest.raises(InputError, match="integer"):
        FM2(1, 1, 0, "1")


def test_random_admissible_respects_lambda():
    rng = random.Random(8)
    for _ in range(30):
        phi = random_admissible(rng, lam=2, bound=60)
        assert phi.e % 2 == 0 and phi.lam == 2


def test_random_admissible_redraws_above_the_bound():
    # with no bound given, some of these draws have an entry above 2
    assert any(max(map(abs, random_admissible(random.Random(seed)).entries())) > 2
               for seed in range(200))
    for seed in range(200):
        phi = random_admissible(random.Random(seed), bound=2)
        c, a, e, b = phi.entries()
        assert c * b - a * e == 1 and a > 0 and e % phi.lam == 0
        assert max(map(abs, phi.entries())) <= 2


@pytest.mark.parametrize("seed, kwargs, first, digest", [
    (74207281, {}, [(-2, 3, -1, 1), (-5, 1, -6, 1), (5, 2, -18, -7)],
     "cf5305e0087a92815a069388773caf7f0da3e6982ff9b586b4c0d1982e826b8a"),
    (0, {"lam": 2, "bound": 60}, [(5, 4, -24, -19), (1, 4, 2, 9), (1, 2, -4, -7)],
     "b8924c0017f9e325f125ec7eae212636c9b1492aac0da9c8cc9b3a89c3dedad3"),
], ids=["verify-seed", "lambda-2"])
def test_random_admissible_draws_are_pinned(seed, kwargs, first, digest):
    # the entries of the first 1,000 draws, recorded when b0 and e0 came
    # from the extended Euclidean algorithm; a different particular solution
    # of c.b0 - a.e0 = 1 would shift every draw along its solution line
    rng = random.Random(seed)
    draws = [random_admissible(rng, **kwargs).entries() for _ in range(1000)]
    assert draws[:3] == first
    assert hashlib.sha256(repr(draws).encode()).hexdigest() == digest


def test_random_admissible_rejects_bad_lambda_and_bound():
    rng = random.Random(8)
    for lam, bound in ((0, 50), (2.0, 50), (1, 0), (1, 2.5)):
        with pytest.raises(InputError):
            random_admissible(rng, lam=lam, bound=bound)
    # unchecked, None is an AttributeError and the random module a silent
    # draw from the global generator
    for bad in (None, 8, random):
        with pytest.raises(InputError, match="rng must be of type Random"):
            random_admissible(bad)


def test_integer_entry_points_reject_floats_and_strings():
    phi = FM2(3, 1, -7, -2)
    with pytest.raises(InputError, match="not an exact rational"):
        phi.matrix.apply((1.5, 2))
    with pytest.raises(InputError, match="rank must be an integer"):
        gen_birat_classify((1.5, 2), phi)
    with pytest.raises(InputError, match="rank must be positive"):
        gen_birat_classify((0, 1), phi)
    with pytest.raises(InputError, match="d must be an integer"):
        canonical_ab(5, 2.0)
    with pytest.raises(InputError, match="t must be an integer"):
        gen_birat_classify((2, 1), phi, t=1.0)
    # a (rank, fiber degree) pair has two entries, and phi is an FM2
    for bad in ((1, 2, 3), (1,), 5, None):
        with pytest.raises(InputError, match="pair"):
            gen_birat_classify(bad, phi)
    with pytest.raises(InputError, match="fiber degree must be an integer"):
        gen_birat_classify((0, "1"), phi)
    for bad in ((3, 1, -7, -2), phi.matrix, None):
        with pytest.raises(InputError, match="phi must be of type FM2"):
            gen_birat_classify((5, 3), bad)


# the action stated once in bridgeland's module docstring: every integer
# restatement of it is derived here from Mat.apply

def _k3_class_from_rank(rk_w, rk, a):
    """gen_birat_classify's conclusion on a K3 with t = 2, given rk w."""
    if rk_w >= 3:
        return GenBiratClass.BIRATIONAL_CODIM_TWO
    if rk_w == 2:
        return GenBiratClass.BIRATIONAL_HIGH_RANK
    if rk_w == 1 and rk > 2 * a:
        return GenBiratClass.REGULAR_ISOMORPHISM
    if rk_w == 1 and rk > a:
        return GenBiratClass.BIRATIONAL_RANK_ONE
    return GenBiratClass.NOT_COVERED


def test_restated_action_formulas():
    rng = random.Random(1616)
    dual = Mat([[1, 0], [0, -1]])
    vectors = [(rk, fd) for rk in range(1, 8) for fd in range(-9, 10)
               if math.gcd(rk, fd) == 1]
    targets = [SearchTarget(d_v, d_w, Theorem.GENERAL, t_v=t_v, t_w=t_w)
               for d_v in (-3, 0, 4, 7, 12) for d_w in (-5, 0, 3, 8)
               for t_v in (-2, 0, 2, 5) for t_w in (-1, 2, 4)]
    hits = {}
    checked = passed = 0
    for lam in range(1, 5):
        for _ in range(60):
            phi = random_admissible(rng, lam=lam)
            c, a, e, b = phi.entries()
            # psi = -phi^-1; xi and omega are phi and psi dualized
            inverse = -phi.psi
            assert inverse == Mat([[b, -a], [-e, c]])
            assert phi.matrix * inverse == inverse * phi.matrix == Mat.identity(2)
            assert phi.xi == -(dual * phi.matrix * dual)
            assert phi.omega == -(dual * phi.psi * dual)
            # gen_birat_classify's rk w is the rank row of phi^-1(rk, fd)
            for v in vectors:
                rk_w = inverse.apply(v)[0]
                assert gen_birat_classify(v, phi, t=2, k3=True) is \
                    _k3_class_from_rank(rk_w, v[0], a), (phi, v)
            for target in targets:
                d_v, d_w, t_v, t_w = target.d_v, target.d_w, target.t_v, target.t_w
                ranks = (phi.xi.apply((1, d_v))[0], phi.matrix.apply((1, d_w))[0])
                assert transformed_ranks(phi, d_v, d_w) == ranks
                if not (c > a and -b > a):
                    continue
                # the check is "transformed rank > a.t", and search_phi's
                # hits are exactly the matrices that pass it
                checked += 1
                res = sd_check(Theorem.GENERAL, phi, d_v, d_w, t_v=t_v, t_w=t_w)
                margins = (ranks[0] - a * t_v, ranks[1] - a * t_w)
                assert res.threshold_margins == margins, (phi, target)
                assert res.passed == (min(margins) > 0)
                assert res.rank_margins == (ranks[0] - 3, ranks[1] - 3)
                if (lam, target) not in hits:
                    hits[lam, target] = set(search_phi(lam, 50, target))
                assert (phi in hits[lam, target]) == res.passed, (phi, target)
                passed += res.passed
    assert checked > 5000 and passed > 1000
