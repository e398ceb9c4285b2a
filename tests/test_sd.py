import json
import random
import time
import tracemalloc
from fractions import Fraction

import pytest

import fmlat.cli as cli
import fmlat.sd as sd
from fmlat.bridgeland import FM2, random_admissible
from fmlat.chow import (CohClass, STANDARD_K3, ch_line_bundle, chi_tensor, dot,
                        dual, from_coords, mult)
from fmlat.errors import AdmissibilityError, InputError
from fmlat.linalg import Mat, qvec
from fmlat.sd import (SDPair, SearchTarget, Theorem, build_report, mo_base_check,
                      orthogonal_check, sd_check, search_phi, transformed_ranks)

from helpers import RATIONAL_ELLIPTIC

S = STANDARD_K3
WORKED_PHI = FM2(3, 1, -7, -2, 1)


def hilbert_pair(k, l, lattice_l=(1, 4)):
    lsq = dot(S, lattice_l, lattice_l)
    v = CohClass(1, (0, 0), -k)
    w = CohClass(1, lattice_l, Fraction(lsq, 2) - l)
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


def test_mo_base_case_tests_the_pair_untwisted_by_div_v():
    # untwisted by D = f: (1, 0, 0, -2) and (1, sigma + 5f, 1), so k = 2 and
    # l = 3 but chi(L) = 6
    v = CohClass(1, (0, 1), -2)
    _, w = hilbert_pair(2, 3)
    assert not mo_base_check(S, v, w, no_higher_cohomology=True)


def twisted(v, w, divisor):
    """The pair v.ch O(D), w.ch O(-D)."""
    line = ch_line_bundle(S, divisor)
    return mult(S, v, line), mult(S, w, dual(line))


def test_twisted_hilbert_pair_is_a_covered_pair_with_its_own_degrees():
    v, w = from_coords((1, 6, 0, -37)), from_coords((1, 0, 6, -1))
    assert (v, w) == twisted(from_coords((1, 0, 0, -1)),
                             from_coords((1, 6, 6, -1)), (6, 0))
    report = build_report(WORKED_PHI, 6, 0, pair=SDPair(S, v, w, True))
    assert report.check.passed and report.orthogonal and report.base_case
    assert report.notes == ()


def test_mo_base_case_is_twist_invariant():
    rng = random.Random(1717)
    pairs = [hilbert_pair(2, 3), hilbert_pair(2, 4), hilbert_pair(1, 1, (0, 0)),
             (CohClass(1, (0, 1), -2), hilbert_pair(2, 3)[1])]
    for _ in range(30):
        pairs.append(tuple(CohClass(1, (rng.randint(-4, 4), rng.randint(-4, 4)),
                                    rng.randint(-6, 6)) for _ in range(2)))
    for v, w in pairs:
        expected = mo_base_check(S, v, w, True)
        for _ in range(5):
            divisor = (rng.randint(-9, 9), rng.randint(-9, 9))
            assert mo_base_check(S, *twisted(v, w, divisor), True) is expected
    assert [mo_base_check(S, v, w, True) for v, w in pairs[:4]] == [
        True, False, True, False]


def test_mo_base_case_needs_integral_divisors():
    # L = f/2 has L^2 = 0, so k = l = 1 would fit chi(L) = 2; and a base
    # pair twisted by sigma/2 is not a pair of sheaf classes either
    v, w = from_coords((1, 0, 0, -1)), from_coords((1, 0, Fraction(1, 2), -1))
    assert not mo_base_check(S, v, w, True)
    v, w = hilbert_pair(2, 3)
    assert mo_base_check(S, v, w, True)
    assert not mo_base_check(S, *twisted(v, w, (Fraction(1, 2), 0)), True)


@pytest.mark.parametrize("phi", search_phi(1, 8), ids=lambda phi: str(phi.entries()))
def test_every_small_phi_covers_a_twisted_hilbert_pair(phi):
    # the smallest fiber degrees whose transformed ranks exceed 2a; the base
    # pair (1, O, -1), (1, L, -1) with L = (d_v + d_w) sigma + t.f and
    # L^2 >= 0 (k = 1, l = chi(L) - 1), twisted by D = d_v.sigma, has them
    d_v, d_w = (3 * phi.a + phi.c) // phi.a, (3 * phi.a - phi.c) // phi.a
    s = d_v + d_w
    base_w = from_coords((1, s, s + (1 if s >= 0 else -1), -1))
    v, w = twisted(from_coords((1, 0, 0, -1)), base_w, (d_v, 0))
    report = build_report(phi, d_v, d_w, pair=SDPair(S, v, w, True))
    assert report.check.passed and report.base_case and report.notes == ()


def test_mo_base_case_on_general_surface():
    # chi(L) = 1 + (L^2 - L.K)/2 on the rational elliptic surface
    lattice_l = (1, 3)
    lsq = dot(RATIONAL_ELLIPTIC, lattice_l, lattice_l)
    lk = dot(RATIONAL_ELLIPTIC, lattice_l, RATIONAL_ELLIPTIC.canonical)
    n = 1 + Fraction(lsq - lk, 2)
    assert n == 4
    v = CohClass(1, (0, 0), -1)
    w = CohClass(1, lattice_l, Fraction(lsq, 2) - 3)
    assert mo_base_check(RATIONAL_ELLIPTIC, v, w, no_higher_cohomology=True)


# transformed ranks

def test_transformed_ranks_worked_values():
    assert transformed_ranks(WORKED_PHI, 6, 0) == (3, 3)
    assert transformed_ranks(WORKED_PHI, 6, 5)[1] == 3 + 5


def test_transformed_rank_agrees_with_xi_action():
    for phi in (WORKED_PHI, FM2(5, 2, -8, -3)):
        xi = phi.xi
        assert xi == Mat([[-phi.c, phi.a], [phi.e, -phi.b]])
        for d_v in range(-4, 8):
            assert xi.apply((1, d_v))[0] == transformed_ranks(phi, d_v, 0)[0]
        omega_first = phi.matrix.apply((1, 2))[0]
        assert omega_first == transformed_ranks(phi, 0, 2)[1]


# theorem checks

def test_sd_check_worked_example():
    res = sd_check(Theorem.K3, WORKED_PHI, 6, 0)
    assert res.passed
    assert res.threshold_margins == (1, 1)
    assert (res.rk_xi_v, res.rk_phi_w) == (3, 3)
    assert res.rank_margins == (0, 0)


def test_threshold_margins_equal_direct_slack():
    # rk_xi_v - a.t_v = a.d_v - (a.t_v + c) and rk_phi_w - a.t_w =
    # a.d_w - (a.t_w - c): the slack of the direct fiber-degree inequalities
    rng = random.Random(1617)
    checked = 0
    while checked < 300:
        phi = random_admissible(rng, lam=rng.randint(1, 4))
        a, c = phi.a, phi.c
        if not (c > a and -phi.b > a):
            continue
        checked += 1
        d_v, d_w = rng.randint(-20, 20), rng.randint(-20, 20)
        t_v, t_w = rng.randint(-3, 6), rng.randint(-3, 6)
        res = sd_check(Theorem.GENERAL, phi, d_v, d_w, t_v=t_v, t_w=t_w)
        slack = (a * d_v - (a * t_v + c), a * d_w - (a * t_w - c))
        assert res.threshold_margins == slack, (phi, d_v, d_w, t_v, t_w)
        assert res.passed == (a * d_v > a * t_v + c and a * d_w > a * t_w - c)


def test_check_result_stores_only_margins_and_ranks():
    assert sd.SDCheckResult.__slots__ == ("theorem", "threshold_margins",
                                          "rk_xi_v", "rk_phi_w")
    # passed and rank_margins follow the stored integers, so they cannot
    # contradict them
    for margins, passed in (((1, 1), True), ((1, 0), False), ((0, 5), False),
                            ((-2, -1), False)):
        res = sd.SDCheckResult(Theorem.K3, margins, 7, 2)
        assert res.passed is passed
        assert res.rank_margins == (4, -1)


def test_sd_check_boundary_is_strict():
    res = sd_check(Theorem.K3, WORKED_PHI, 5, 0)
    assert not res.passed
    # only the first margin fails
    assert res.threshold_margins[0] == 0 < res.threshold_margins[1]


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


@pytest.mark.parametrize("dims", [{"t_v": 99}, {"t_w": -5}, {"t_v": 2, "t_w": 2}])
def test_k3_theorem_rejects_dimensions(dims):
    # the K3 thresholds are fixed at 2; a moduli dimension would be ignored
    for call in (lambda: sd_check(Theorem.K3, WORKED_PHI, 6, 0, **dims),
                 lambda: build_report(WORKED_PHI, 6, 0, **dims),
                 lambda: SearchTarget(6, 0, Theorem.K3, **dims)):
        with pytest.raises(InputError, match="general-surface check only"):
            call()


def test_sd_check_rejects_inadmissible_phi():
    # [[1, 1], [0, 1]] is admissible as a kernel matrix but violates the
    # additional thresholds c > a and -b > a
    with pytest.raises(AdmissibilityError) as err:
        sd_check(Theorem.K3, FM2(1, 1, 0, 1), 6, 0)
    message = str(err.value)
    assert "c = 1" in message and "-b = -1" in message
    # the theorem and admissibility checks come before the dimension check
    with pytest.raises(AdmissibilityError):
        sd_check(Theorem.GENERAL, FM2(1, 1, 0, 1), 6, 0)
    with pytest.raises(InputError, match="bogus"):
        sd_check("bogus", FM2(1, 1, 0, 1), 6, 0)
    # build_report asks for missing dimensions first, and checks their type
    # only after admissibility, inside sd_check
    with pytest.raises(InputError, match="needs t_v and t_w"):
        build_report(FM2(1, 1, 0, 1), 6, 0, theorem="general")
    with pytest.raises(AdmissibilityError):
        build_report(FM2(1, 1, 0, 1), 6, 0, theorem="general",
                     t_v=1.5, t_w=3)
    # phi must be an FM2, not its entries or its matrix
    for bad in ((3, 1, -7, -2), WORKED_PHI.matrix, None):
        for call in (lambda: sd_check("k3", bad, 6, 0),
                     lambda: build_report(bad, 6, 0),
                     lambda: transformed_ranks(bad, 6, 0)):
            with pytest.raises(InputError, match="phi must be of type FM2"):
                call()


_V, _W = CohClass(1, (0, 0), -2), CohClass(1, (1, 4), 0)
# unchecked, 'False' and 1 would read as an attestation that holds
_NOT_BOOL = ("False", 1, None)
_ATTESTATION = "no_higher_cohomology must be of type bool"


@pytest.mark.parametrize("call, label", [
    (lambda: SDPair(S, 5, _W), "v must be of type CohClass"),
    (lambda: SDPair(S, _V, 5), "w must be of type CohClass"),
    (lambda: SDPair(5, _V, _W), "surface must be of type SurfaceDescriptor"),
    (lambda: orthogonal_check(S, 5, _W), "class must be of type CohClass"),
    (lambda: orthogonal_check(5, _V, _W), "surface must be of type"),
    (lambda: mo_base_check(S, 5, _W, True), "v must be of type CohClass"),
    (lambda: mo_base_check(S, _V, 5, True), "w must be of type CohClass"),
    (lambda: mo_base_check(5, _V, _W, True), "surface must be of type"),
    (lambda: build_report(WORKED_PHI, 6, 0, pair=5), "pair must be of type SDPair"),
    (lambda: search_phi(1, 5, target=5), "target must be of type SearchTarget"),
    *((lambda flag=flag: SDPair(S, _V, _W, flag), _ATTESTATION) for flag in _NOT_BOOL),
    *((lambda flag=flag: mo_base_check(S, _V, _W, flag), _ATTESTATION)
      for flag in _NOT_BOOL),
], ids=["SDPair-v", "SDPair-w", "SDPair-surface", "orthogonal-v",
        "orthogonal-surface", "mo_base-v", "mo_base-w", "mo_base-surface",
        "build_report-pair", "search_phi-target",
        *(f"{call}-attestation-{type(flag).__name__}" for call in ("SDPair", "mo_base")
          for flag in _NOT_BOOL)])
def test_sd_entry_points_reject_wrong_types(call, label):
    with pytest.raises(InputError, match=label):
        call()


# reports

def test_build_report_populates_both_forms():
    report = build_report(WORKED_PHI, 6, 0, theorem=Theorem.K3)
    k3 = report.check
    assert k3.theorem is Theorem.K3 and k3.passed
    assert (k3.threshold_margins, k3.rank_margins) == ((1, 1), (0, 0))
    assert (k3.rk_xi_v, k3.rk_phi_w) == (3, 3)
    assert build_report(WORKED_PHI, 6, 0, theorem="k3") == report
    # the report holds its one check and no copies of it
    for gone in ("checks", "rk_xi_v", "rk_phi_w"):
        assert not hasattr(report, gone)


def test_build_report_with_pair_and_defaulted_dimensions():
    v, w = hilbert_pair(2, 3)
    pair = SDPair(S, v, w, no_higher_cohomology=True)
    assert (pair.d_v, pair.d_w) == (0, 1)
    report = build_report(WORKED_PHI, 6, 0, theorem=Theorem.GENERAL, pair=pair)
    assert report.orthogonal is True
    assert report.base_case is True
    # dimensions 4 and 6 from the K3 formula; ranks 3 and 3 fall short
    assert report.check == sd.SDCheckResult(Theorem.GENERAL, (-1, -3), 3, 3)
    assert not report.check.passed
    assert any("disagree" in note for note in report.notes)
    assert any("defaulted" in note for note in report.notes)


def test_build_report_notes_missing_attestation():
    v, w = hilbert_pair(2, 3)
    pair = SDPair(S, v, w, no_higher_cohomology=False)
    report = build_report(WORKED_PHI, 0, 1, theorem=Theorem.K3, pair=pair)
    assert report.base_case is False
    assert any("attestation" in note for note in report.notes)


def test_build_report_notes_lambda_mismatch():
    # phi is admissible for lambda = 2; the standard K3 declares lambda = 1
    pair = SDPair(S, *hilbert_pair(2, 3), no_higher_cohomology=True)
    report = build_report(FM2(3, 1, -10, -3, 2), 0, 1, pair=pair)
    assert report.notes == ("kernel matrix lambda 2 disagrees with the "
                            "surface's lambda 1",)
    assert build_report(WORKED_PHI, 0, 1, pair=pair).notes == ()


def test_report_is_built_once(monkeypatch, capsys):
    built = []

    class CountingReport(sd.SDReport):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(sd, "SDReport", CountingReport)
    pair = SDPair(S, *hilbert_pair(2, 3), no_higher_cohomology=True)
    build_report(WORKED_PHI, 6, 0, theorem=Theorem.GENERAL, pair=pair)
    assert len(built) == 1
    built.clear()
    # the search keeps matrices only; `search --json` reports each hit as it
    # writes it, and text `search` prints two ranks and reports none
    hits = search_phi(1, 40, SearchTarget(6, 0))
    assert len(hits) == 102 and built == []
    argv = ["search", "--lambda", "1", "--bound", "40", "--dv", "6", "--dw", "0"]
    assert cli.main(argv + ["--json"]) == 0
    assert len(json.loads(capsys.readouterr().out)["hits"]) == len(built) == 102
    built.clear()
    assert cli.main(argv) == 0
    assert len(capsys.readouterr().out.splitlines()) == 102 and built == []


def test_sdpair_requires_rank_one():
    with pytest.raises(InputError):
        SDPair(S, from_coords((2, 0, 0, 0)), from_coords((1, 0, 0, 0)))


def test_report_json_roundtrip():
    v, w = hilbert_pair(2, 3)
    pair = SDPair(S, v, w, no_higher_cohomology=True)
    common = {
        "schema": 1, "surface": "standard-k3",
        "v": [1, 0, 0, -2], "w": [1, 1, 4, 0],
        "phi": [3, 1, -7, -2], "lambda": 1, "d_v": 6, "d_w": 0,
        "orthogonal": True, "base_case": True, "rk_xi_v": 3, "rk_phi_w": 3,
        "notes": ["supplied fiber degrees (6, 0) disagree with the classes (0, 1)"],
    }
    expected = {
        Theorem.K3: {
            "checks": {"k3": "pass", "general": "not-evaluated"},
            "margins": {"k3": {"threshold": [1, 1], "rank": [0, 0]},
                        "general": None},
        },
        Theorem.GENERAL: {
            "checks": {"k3": "not-evaluated", "general": "pass"},
            "margins": {"k3": None, "general": {"threshold": [1, 1]}},
        },
    }
    for theorem, fields in expected.items():
        dims = {"t_v": 2, "t_w": 2} if theorem is Theorem.GENERAL else {}
        report = build_report(WORKED_PHI, 6, 0, theorem=theorem, pair=pair, **dims)
        doc = cli._report_json(report)
        assert json.loads(json.dumps(doc)) == doc
        assert doc == {**common, **fields}
        assert (qvec(doc["v"]), qvec(doc["w"])) == (v.coords(), w.coords())


# search

def test_search_rejects_near_miss():
    hits = [phi.entries() for phi in search_phi(1, 3)]
    assert (2, 1, -3, -1) not in hits   # -b = 1 is not above a = 1
    assert hits == []                   # nothing admissible this small


def test_search_threshold_for_worked_matrix():
    assert (3, 1, -7, -2) not in \
        [phi.entries() for phi in search_phi(1, 6)]
    assert (3, 1, -7, -2) in \
        [phi.entries() for phi in search_phi(1, 7)]


def test_search_lambda_forces_even_e():
    for phi in search_phi(2, 12):
        assert phi.e % 2 == 0


def test_search_hits_have_valid_families():
    neg_id = -Mat.identity(2)
    for phi in search_phi(1, 9):
        assert phi.matrix * phi.psi == neg_id
        assert phi.omega * phi.xi == neg_id


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
        got = [phi.entries() for phi in search_phi(lam, bound)]
        assert got == sorted(expected)
        assert got == [phi.entries() for phi in search_phi(lam, bound)]


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
                        phi, target.d_v, target.d_w, theorem=target.theorem,
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


def test_k3_pass_makes_rank_margins_at_least_2a_minus_2():
    # a K3 pass is rank > 2a on both sides, so rank - 3 >= 2a - 2 for every a
    seen_a = set()
    for target in REFERENCE_TARGETS:
        if target is None or target.theorem is not Theorem.K3:
            continue
        for lam in range(1, 5):
            for phi in search_phi(lam, 40, target):
                res = sd_check(Theorem.K3, phi, target.d_v, target.d_w)
                a = phi.a
                assert res.passed
                assert min(res.rk_xi_v, res.rk_phi_w) > 2 * a
                assert min(res.rank_margins) >= 2 * a - 2
                seen_a.add(a)
    assert max(seen_a) >= 5


@pytest.mark.parametrize("target", REFERENCE_TARGETS, ids=repr)
def test_search_matches_cubic_reference(target):
    def reported(phis):
        # each hit with the report `search --json` prints for it
        return [(phi, None if target is None else build_report(
            phi, target.d_v, target.d_w, theorem=target.theorem,
            t_v=target.t_v, t_w=target.t_w)) for phi in phis]

    def documents(hits):
        return [(phi.entries(), None if report is None else cli._report_json(report))
                for phi, report in hits]

    top = 40
    for lam in range(1, 7):
        reference = _cubic_reference_search(lam, top, target)
        for bound in range(1, top + 1):
            # the reference at a smaller bound keeps exactly the hits whose
            # entries all lie within it
            expected = [phi for phi, _ in reference
                        if max(map(abs, phi.entries())) <= bound]
            got = search_phi(lam, bound, target)
            assert got == expected, (lam, bound)
        # every hit passes the reference's sd_check and reports exactly that
        assert reported(got) == reference
        assert documents(reported(got)) == documents(reference)
    assert _cubic_reference_search(2, 12, target) == reported(
        search_phi(2, 12, target))


def test_search_with_target_contains_worked_example():
    hits = search_phi(1, 8, target=SearchTarget(6, 0, Theorem.K3))
    assert (3, 1, -7, -2) in [phi.entries() for phi in hits]
    for phi in hits:
        assert sd_check(Theorem.K3, phi, 6, 0).passed


def test_search_validates_inputs():
    for lam, bound in ((1, 0), (0, 5), (1, 8.0), (1, "8"), (True, 8), (1.0, 8)):
        with pytest.raises(InputError):
            search_phi(lam, bound)


def test_the_hit_stream_checks_its_arguments_before_the_first_hit():
    # the CLI writes the JSON head before it pulls a hit, so a bad argument
    # must fail where the stream is made, not at its first next()
    for lam, bound, target in ((1, 0, None), (0, 5, None), (1, 1001, None),
                               (1, 8.0, None), (1, 5, 5)):
        with pytest.raises(InputError):
            sd._search(lam, bound, target)


def test_search_bound_cap_is_checked_before_any_work():
    assert sd.MAX_SEARCH_BOUND == 1000
    with pytest.raises(InputError, match="at most 1000"):
        search_phi(1, 1001)
    with pytest.raises(InputError, match="at most 1000"):
        search_phi(1, 10 ** 4000, SearchTarget(6, 0))
    # the cap itself is allowed; this target's c-window is empty
    start = time.perf_counter()
    assert search_phi(1, 1000, SearchTarget(100, -100)) == []
    assert time.perf_counter() - start < 2


def test_search_hits_share_entry_ints():
    search_phi(1, 8)   # warm up lazy state outside the trace
    tracemalloc.start()
    try:
        hits = search_phi(1, 150)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # a hit is its FM2, about 81 bytes; wrapped in a one-field record it
    # took about 121, and with a fresh int for its e and b about 190
    assert len(hits) == 6560
    assert retained / len(hits) <= 100
    assert len({id(phi.e) for phi in hits}) <= 2 * 150 + 1


def test_targeted_hits_cost_what_untargeted_ones_do():
    # this window admits every matrix; a targeted hit that also held its
    # report took about 470 bytes against 121 (Python 3.11)
    everything = SearchTarget(10 ** 6, 10 ** 6)
    search_phi(1, 8, everything)   # warm up lazy state outside the trace
    retained, phis = {}, {}
    for target in (None, everything):
        tracemalloc.start()
        try:
            phis[target] = search_phi(1, 150, target)
            retained[target] = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
    assert len(phis[None]) == 6560
    assert phis[everything] == phis[None]
    assert retained[everything] <= 1.1 * retained[None]


def test_mo_base_check_rejects_higher_rank():
    v = CohClass(2, (0, 0), -1)
    w = CohClass(1, (1, 4), 0)
    assert not mo_base_check(S, v, w, no_higher_cohomology=True)


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
    # one theorem, never a sequence of them
    for bad in ("bogus", 5, "k3x", ("k3",)):
        with pytest.raises(InputError, match="unknown theorem"):
            build_report(WORKED_PHI, 6, 0, theorem=bad)
    with pytest.raises(InputError, match="bogus"):
        sd.SDCheckResult("bogus", (1, 1), 3, 3)
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
