"""Acceptance suite: every criterion is exact, tolerance zero.

The lattice identities are stated once, as the named cases of
`fmlat verify`; here each case is one test, its pytest id the case id, so
`pytest tests/test_acceptance.py -v` lists one line per identity. The
certificate lifts the degree-d cases from the sampled range to every
d >= 1. The last two tests cover what is not a verify identity: the
orthogonality oracle with Hilbert-scheme dimensions, and the CLI contract;
each prints one PASS line (visible with pytest -s).
"""

import json
import random
import re
from collections import Counter, defaultdict
from fractions import Fraction

import pytest

from fmlat import verify
from fmlat.chow import CohClass, STANDARD_K3, moduli_dim_k3
from fmlat.cli import main
from fmlat.linalg import Mat
from fmlat.operators import GoldenName
from fmlat.sd import orthogonal_check
from fmlat.verify import run_verify

S = STANDARD_K3
CASES = run_verify(1, 12).cases
N_DEGREE_FAMILIES = 11
N_FIXED_CASES = 22


def report(n: int, text: str) -> None:
    print(f"[acceptance {n:02d}] PASS  {text}")


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.id)
def test_verify_case(case):
    assert case.passed, \
        f"{case.description}\n  lhs: {case.lhs}\n  rhs: {case.rhs}"


@pytest.mark.parametrize("d_lo, d_hi", [(1, 12), (3, 5)])
def test_verify_registry_shape(d_lo, d_hi):
    ids = [case.id for case in run_verify(d_lo, d_hi).cases]
    assert len(set(ids)) == len(ids)
    assert len(ids) == N_DEGREE_FAMILIES * (d_hi - d_lo + 1) + N_FIXED_CASES


def test_passing_case_keeps_one_string_for_both_sides():
    assert all(case.lhs is case.rhs for case in run_verify(1, 3).cases)


def test_first_diff_names_the_first_unequal_entry_or_else_the_shapes():
    assert verify._first_diff(Mat.identity(2), Mat.identity(3)) == "shape 2x2 vs 3x3"
    assert (verify._first_diff(Mat([[1, 0], [0, 1]]), Mat([[1, 0], [0, 5]]))
            == "first difference at [1][1]: 1 vs 5")


def _count_calls(monkeypatch, name: str) -> Counter:
    """Count verify's calls of its imported `name` by their arguments."""
    calls, real = Counter(), getattr(verify, name)

    def counted(*args, **kwargs):
        calls[args + tuple(kwargs.values())] += 1
        return real(*args, **kwargs)
    monkeypatch.setattr(verify, name, counted)
    return calls


def test_cases_stream_in_printed_order(monkeypatch):
    kernels = _count_calls(monkeypatch, "kernel_class")
    assert next(verify._cases(1, 64)).id == "golden_vs_built:TensorL1:d=1"
    assert not kernels


@pytest.mark.parametrize("d_lo, d_hi", [(1, 1), (3, 5), (1, 12)])
def test_cases_are_what_run_verify_returns(d_lo, d_hi):
    assert tuple(verify._cases(d_lo, d_hi)) == run_verify(d_lo, d_hi).cases


def test_each_section_rebuilds_at_most_once_more(monkeypatch):
    builds = _count_calls(monkeypatch, "build")
    kernels = _count_calls(monkeypatch, "kernel_class")
    run_verify(1, 8)
    for d in range(1, 9):
        assert 1 <= builds[GoldenName.FM_Pd, d] <= 2
        assert 1 <= kernels["Pd", d] <= 2
    assert 1 <= kernels["IDelta",] <= 2


def _numbers(text: str) -> tuple[Fraction, ...]:
    return tuple(Fraction(tok) for tok in re.findall(r"-?\d+(?:/\d+)?", text))


def _differences(values: list, order: int) -> list:
    for _ in range(order):
        values = [b - a for a, b in zip(values, values[1:])]
    return values


def test_degree_cases_hold_for_every_d():
    """Each degree-d case holds for every d >= 1, not just for 1..64.

    Premise: every entry on either side of a degree-d case is a polynomial
    in d of degree below 60, because no route branches on d: each side is a
    fixed composition of products and sums of matrices and classes whose
    entries are polynomials of low degree in d. Given that, the 5th forward
    differences vanishing on d = 1..64 (59 values) force each entry to be a
    polynomial of degree at most 4, and two such polynomials that agree on
    64 points agree for every d.
    """
    families = defaultdict(dict)
    for case in run_verify(1, 64).cases:
        family, sep, d = case.id.rpartition(":d=")
        if sep:
            assert case.passed, f"{case.id}: {case.lhs} vs {case.rhs}"
            families[family][int(d)] = (_numbers(case.lhs), _numbers(case.rhs))
    assert len(families) == N_DEGREE_FAMILIES
    for family, by_d in families.items():
        assert sorted(by_d) == list(range(1, 65)), family
        for side in (0, 1):
            rows = [by_d[d][side] for d in range(1, 65)]
            assert len({len(row) for row in rows}) == 1, family
            for column in zip(*rows):
                assert not any(_differences(list(column), 5)), \
                    f"{family}: 5th differences do not vanish on side {side}"


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
    cases = run_verify(1, 2).cases
    assert doc == {"schema": 1, "suite": "fmlat-verify", "d_range": [1, 2],
                   "cases": [{"id": case.id, "description": case.description,
                              "pass": True, "lhs": case.lhs, "rhs": case.rhs}
                             for case in cases],
                   "passed": len(cases), "failed": 0}

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
    report(11, "CLI verify exits 0, JSON equals run_verify, exit codes 0/1/2 hold")
