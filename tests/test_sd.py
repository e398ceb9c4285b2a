import json
import random
from fractions import Fraction

import pytest

from fmlat.bridgeland import FM2, transform2
from fmlat.chow import CohClass, STANDARD_K3, chi_tensor, dot, from_coords
from fmlat.errors import AdmissibilityError, InputError
from fmlat.sd import (NOT_EVALUATED, SDPair, SDReport, SearchTarget, Theorem,
                      build_report, mo_base_check, orthogonal_check, sd_check,
                      search_phi, transformed_ranks)

from helpers import RATIONAL_ELLIPTIC

S = STANDARD_K3
WORKED_PHI = FM2(3, 1, -7, -2, 1)


def hilbert_pair(k, l, lattice_l=(1, 4)):
    lsq = dot(S, lattice_l, lattice_l)
    v = CohClass(1, (0, 0), -k)
    w = CohClass(1, lattice_l, lsq / 2 - l)
    return v, w


# orthogonality

def test_orthogonal_hilbert_pair():
    # chi(L) = 2 + L^2/2 = 5 for L = sigma + 4f
    v, w = hilbert_pair(2, 3)
    assert orthogonal_check(S, v, w)
    v_bad, w_bad = hilbert_pair(2, 4)
    assert not orthogonal_check(S, v_bad, w_bad)


def test_structure_sheaf_not_self_orthogonal():
    one = from_coords((1, 0, 0, 0))
    assert not orthogonal_check(S, one, one)


def test_orthogonality_against_expansion_oracle():
    rng = random.Random(1234)
    for _ in range(200):
        s1, t1, s2, t2 = (rng.randint(-5, 5) for _ in range(4))
        p1 = Fraction(rng.randint(-10, 10), 2)
        p2 = Fraction(rng.randint(-10, 10), 2)
        v = CohClass(1, (s1, t1), p1)
        w = CohClass(1, (s2, t2), p2)
        # independent Riemann-Roch expansion on the K3 lattice
        oracle = 2 + p2 + p1 + (-2 * s1 * s2 + s1 * t2 + s2 * t1)
        assert chi_tensor(S, v, w) == oracle
        assert orthogonal_check(S, v, w) == (oracle == 0)
        assert orthogonal_check(S, w, v) == orthogonal_check(S, v, w)


# base case

def test_mo_base_case_passes():
    v, w = hilbert_pair(2, 3)
    assert mo_base_check(S, v, w, no_higher_cohomology=True)


def test_mo_base_case_requires_attestation():
    v, w = hilbert_pair(2, 3)
    assert not mo_base_check(S, v, w, no_higher_cohomology=False)


def test_mo_base_case_positivity():
    v, w = hilbert_pair(0, 5)
    assert not mo_base_check(S, v, w, no_higher_cohomology=True)
    v, w = hilbert_pair(5, 0)
    assert not mo_base_check(S, v, w, no_higher_cohomology=True)


def test_mo_base_case_orthogonality():
    v, w = hilbert_pair(2, 2)   # k + l = 4 != chi(L) = 5
    assert not mo_base_check(S, v, w, no_higher_cohomology=True)


def test_mo_base_case_needs_trivial_determinant_on_v():
    v = CohClass(1, (0, 1), -2)
    _, w = hilbert_pair(2, 3)
    assert not mo_base_check(S, v, w, no_higher_cohomology=True)


def test_mo_base_case_on_general_surface():
    # chi(L) = 1 + (L^2 - L.K)/2 on the rational elliptic surface
    lattice_l = (1, 3)
    lsq = dot(RATIONAL_ELLIPTIC, lattice_l, lattice_l)
    lk = dot(RATIONAL_ELLIPTIC, lattice_l, RATIONAL_ELLIPTIC.canonical)
    n = 1 + (lsq - lk) / 2
    assert n == 4
    v = CohClass(1, (0, 0), -1)
    w = CohClass(1, lattice_l, lsq / 2 - 3)
    assert mo_base_check(RATIONAL_ELLIPTIC, v, w, no_higher_cohomology=True)


# transformed ranks

def test_transformed_ranks_worked_values():
    assert transformed_ranks(WORKED_PHI, 6, 0) == (3, 3)
    assert transformed_ranks(WORKED_PHI, 6, 5)[1] == 3 + 5


def test_transformed_rank_agrees_with_xi_action():
    for phi in (WORKED_PHI, FM2(5, 2, -8, -3)):
        xi = ((-phi.c, phi.a), (phi.e, -phi.b))
        for d_v in range(-4, 8):
            assert transform2(xi, (1, d_v)).rk == transformed_ranks(phi, d_v, 0)[0]
        omega_first = transform2(phi.matrix, (1, 2)).rk
        assert omega_first == transformed_ranks(phi, 0, 2)[1]


# theorem checks

def test_sd_check_worked_example():
    res = sd_check(Theorem.K3, WORKED_PHI, 6, 0)
    assert res.passed
    assert res.threshold_margins == (1, 1)
    assert (res.rk_xi_v, res.rk_phi_w) == (3, 3)
    assert res.rank_margins == (0, 0)


def test_sd_check_boundary_is_strict():
    res = sd_check(Theorem.K3, WORKED_PHI, 5, 0)
    assert not res.passed
    assert res.threshold_margins[0] == 0


def test_sd_check_general_with_t_two_matches_k3():
    for d_v in range(0, 10):
        for d_w in range(-3, 6):
            k3 = sd_check(Theorem.K3, WORKED_PHI, d_v, d_w)
            general = sd_check(Theorem.GENERAL, WORKED_PHI, d_v, d_w,
                               t_v=2, t_w=2)
            assert k3.passed == general.passed
            assert k3.threshold_margins == general.threshold_margins


def test_sd_check_general_needs_dimensions():
    with pytest.raises(InputError):
        sd_check(Theorem.GENERAL, WORKED_PHI, 6, 0)


def test_sd_check_rejects_inadmissible_phi():
    # [[1, 1], [0, 1]] is admissible as a kernel matrix but violates the
    # additional thresholds c > a and -b > a
    with pytest.raises(AdmissibilityError) as err:
        sd_check(Theorem.K3, FM2(1, 1, 0, 1), 6, 0)
    message = str(err.value)
    assert "c = 1" in message and "-b = -1" in message


def test_threshold_pass_implies_rank_form_when_a_is_one():
    rng = random.Random(777)
    found = 0
    for _ in range(500):
        c = rng.randint(2, 9)
        e = rng.randint(-40, 40)
        b = 1 + e   # det: c*b - 1*e = 1 needs b = (1 + e)/c
        if (1 + e) % c:
            continue
        b = (1 + e) // c
        if -b <= 1:
            continue
        phi = FM2(c, 1, e, b)
        d_v = rng.randint(-2, 12)
        d_w = rng.randint(-6, 8)
        res = sd_check(Theorem.K3, phi, d_v, d_w)
        if res.passed:
            found += 1
            assert res.rk_xi_v >= 3 and res.rk_phi_w >= 3
    assert found > 10


# reports

def test_build_report_populates_both_forms():
    report = build_report(WORKED_PHI, 6, 0, theorems=(Theorem.K3,))
    assert report.k3_check == "pass"
    assert report.general_check == NOT_EVALUATED
    assert report.margins_k3 == ((1, 1), (0, 0))
    assert report.margins_general is None
    assert (report.rk_xi_v, report.rk_phi_w) == (3, 3)


def test_build_report_with_pair_and_defaulted_dimensions():
    v, w = hilbert_pair(2, 3)
    pair = SDPair(S, v, w, no_higher_cohomology=True)
    assert (pair.d_v, pair.d_w) == (0, 1)
    report = build_report(WORKED_PHI, 6, 0,
                          theorems=(Theorem.K3, Theorem.GENERAL), pair=pair)
    assert report.orthogonal is True
    assert report.base_case is True
    assert report.general_check in ("pass", "fail")
    assert any("disagree" in note for note in report.notes)


def test_build_report_notes_missing_attestation():
    v, w = hilbert_pair(2, 3)
    pair = SDPair(S, v, w, no_higher_cohomology=False)
    report = build_report(WORKED_PHI, 0, 1, theorems=(Theorem.K3,), pair=pair)
    assert report.base_case is False
    assert any("attestation" in note for note in report.notes)


def test_sdpair_requires_rank_one():
    with pytest.raises(InputError):
        SDPair(S, from_coords((2, 0, 0, 0)), from_coords((1, 0, 0, 0)))


def test_report_json_roundtrip():
    v, w = hilbert_pair(2, 3)
    pair = SDPair(S, v, w, no_higher_cohomology=True)
    report = build_report(WORKED_PHI, 6, 0,
                          theorems=(Theorem.K3, Theorem.GENERAL), pair=pair,
                          t_v=2, t_w=2)
    doc = json.loads(json.dumps(report.to_json()))
    assert doc["schema"] == 1
    assert doc["phi"] == [3, 1, -7, -2]
    assert SDReport.from_json(doc) == report


# search

def test_search_rejects_near_miss():
    hits = [hit.phi.entries() for hit in search_phi(1, 3)]
    assert (2, 1, -3, -1) not in hits   # -b = 1 is not above a = 1
    assert hits == []                   # nothing admissible this small


def test_search_threshold_for_worked_matrix():
    assert (3, 1, -7, -2) not in \
        [h.phi.entries() for h in search_phi(1, 6)]
    assert (3, 1, -7, -2) in \
        [h.phi.entries() for h in search_phi(1, 7)]


def test_search_lambda_forces_even_e():
    for hit in search_phi(2, 12):
        assert hit.phi.e % 2 == 0


def test_search_hits_have_valid_families():
    from fmlat.bridgeland import mat2_mul, phi_family
    neg_id = ((-1, 0), (0, -1))
    for hit in search_phi(1, 9):
        fam = phi_family(*hit.phi.entries(), hit.phi.lam)
        assert mat2_mul(fam.phi.matrix, fam.psi) == neg_id
        assert mat2_mul(fam.omega, fam.xi) == neg_id


def test_search_complete_against_naive_scan():
    for lam, bound in ((1, 8), (1, 10), (2, 10)):
        expected = []
        for c in range(-bound, bound + 1):
            for a in range(-bound, bound + 1):
                for e in range(-bound, bound + 1):
                    for b in range(-bound, bound + 1):
                        if (c * b - a * e == 1 and a > 0 and e % lam == 0
                                and c > a and -b > a):
                            expected.append((c, a, e, b))
        got = [hit.phi.entries() for hit in search_phi(lam, bound)]
        assert got == sorted(expected)
        assert got == [hit.phi.entries() for hit in search_phi(lam, bound)]


def _cubic_reference_search(lam, bound, target=None):
    """The earlier O(bound^3) search: every (c, a, e), then sd_check."""
    hits = []
    for c in range(2, bound + 1):
        for a in range(1, min(c - 1, bound) + 1):
            for e in range(-bound, bound + 1):
                if e % lam != 0 or (1 + a * e) % c != 0:
                    continue
                b = (1 + a * e) // c
                if abs(b) > bound or -b <= a:
                    continue
                phi = FM2(c, a, e, b, lam)
                if target is None:
                    hits.append((phi, None))
                    continue
                result = sd_check(target.theorem, phi, target.d_v, target.d_w,
                                  t_v=target.t_v, t_w=target.t_w)
                if result.passed:
                    hits.append((phi, build_report(
                        phi, target.d_v, target.d_w,
                        theorems=(target.theorem,),
                        t_v=target.t_v, t_w=target.t_w)))
    return hits


REFERENCE_TARGETS = [
    None,
    SearchTarget(6, 0),
    SearchTarget(5, 1),
    SearchTarget(8, -1),
    SearchTarget(2, 5),          # d_v <= 2: the c-window is empty
    SearchTarget(11, -3),        # d_w < 0 narrows the window from below
    SearchTarget(7, 1, Theorem.GENERAL, t_v=3, t_w=1),
    SearchTarget(9, 2, Theorem.GENERAL, t_v=0, t_w=4),
]


@pytest.mark.parametrize("target", REFERENCE_TARGETS, ids=repr)
def test_search_matches_cubic_reference(target):
    def documents(hits):
        return [(phi.entries(), None if report is None else report.to_json())
                for phi, report in hits]

    top = 40
    for lam in range(1, 7):
        reference = _cubic_reference_search(lam, top, target)
        for bound in range(1, top + 1):
            # the reference at a smaller bound keeps exactly the hits whose
            # entries all lie within it
            expected = [hit for hit in reference
                        if max(map(abs, hit[0].entries())) <= bound]
            got = [(hit.phi, hit.report)
                   for hit in search_phi(lam, bound, target)]
            assert got == expected, (lam, bound)
        assert documents(got) == documents(reference)
    assert _cubic_reference_search(2, 12, target) == [
        (hit.phi, hit.report) for hit in search_phi(2, 12, target)]


def test_search_with_target_contains_worked_example():
    hits = search_phi(1, 8, target=SearchTarget(6, 0, Theorem.K3))
    entries = [hit.phi.entries() for hit in hits]
    assert (3, 1, -7, -2) in entries
    for hit in hits:
        assert hit.report is not None
        assert hit.report.k3_check == "pass"
        res = sd_check(Theorem.K3, hit.phi, 6, 0)
        assert res.passed


def test_search_validates_inputs():
    for lam, bound in ((1, 0), (0, 5), (1, 8.0), (1, "8"), (True, 8), (1.0, 8)):
        with pytest.raises(InputError):
            search_phi(lam, bound)


def test_mo_base_check_rejects_higher_rank():
    v = CohClass(2, (0, 0), -1)
    w = CohClass(1, (1, 4), 0)
    assert not mo_base_check(S, v, w, no_higher_cohomology=True)


def test_report_from_json_rejects_unknown_schema():
    with pytest.raises(InputError):
        SDReport.from_json({"schema": 2})


def test_report_from_json_rejects_malformed_documents():
    good = build_report(WORKED_PHI, 6, 0).to_json()
    k3_margins = {"threshold": ["3/2", 1], "rank": [0, 0]}
    bad_docs = [
        {key: value for key, value in good.items() if key != "d_w"},
        {**good, "d_v": 3.7},       # int() would truncate it to 3
        {**good, "d_v": "6"},
        {**good, "lambda": True},
        {**good, "phi": [3, 1, -7]},
        {**good, "phi": None},
        {**good, "checks": {"k3": "maybe", "general": NOT_EVALUATED}},
        {**good, "checks": []},
        {**good, "margins": {"k3": k3_margins, "general": None}},
        {**good, "v": []},
        {**good, "notes": "abc"},   # tuple() would split it into letters
        {**good, "notes": [1]},
        {**good, "orthogonal": 7},
        {**good, "base_case": "yes"},
        {**good, "surface": 3},
        [good],
    ]
    for doc in bad_docs:
        with pytest.raises(InputError):
            SDReport.from_json(doc)


# integer inputs: floats, strings and bools never reach the arithmetic

@pytest.mark.parametrize("d_v", [6.5, "6", True, Fraction(6)])
def test_sd_check_rejects_non_integer_fiber_degree(d_v):
    # unchecked, 6.5 gives float margins (1.5, 1) and "6" a TypeError
    with pytest.raises(InputError, match="d_v"):
        sd_check(Theorem.K3, WORKED_PHI, d_v, 0)
    with pytest.raises(InputError, match="d_v"):
        build_report(WORKED_PHI, d_v, 0)


def test_sd_check_rejects_non_integer_dimensions():
    with pytest.raises(InputError, match="t_w"):
        sd_check(Theorem.GENERAL, WORKED_PHI, 6, 0, t_v=2, t_w=2.0)


def test_unknown_theorem_is_an_input_error():
    with pytest.raises(InputError, match="bogus"):
        sd_check("bogus", WORKED_PHI, 6, 0)
    with pytest.raises(InputError, match="bogus"):
        build_report(WORKED_PHI, 6, 0, theorems=("bogus",))
    with pytest.raises(InputError, match="bogus"):
        SearchTarget(6, 0, "bogus")


def test_search_target_normalises_and_checks_theorem():
    assert SearchTarget(6, 0, "k3").theorem is Theorem.K3
    assert SearchTarget(6, 0, "general", t_v=2, t_w=2).theorem is Theorem.GENERAL
    for t_v, t_w in ((None, None), (2, None), (None, 2)):
        with pytest.raises(InputError, match="t_v and t_w"):
            SearchTarget(6, 0, Theorem.GENERAL, t_v=t_v, t_w=t_w)


def test_search_target_rejects_non_integers():
    # unchecked, SearchTarget(6.5, 0) gives hits with rk_xi_v = 3.5
    with pytest.raises(InputError, match="d_v"):
        search_phi(1, 8, SearchTarget(6.5, 0))
    with pytest.raises(InputError, match="t_v"):
        SearchTarget(6, 0, Theorem.GENERAL, t_v="2", t_w=2)
