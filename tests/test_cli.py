import contextlib
import io
import json
import os
import pathlib
import resource
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fmlat.operators
import fmlat.verify
from fmlat.bridgeland import FM2
from fmlat.chow import STANDARD_K3, CohClass, chi_tensor
from fmlat.cli import _COMMANDS, _grid, _report_json, main
from fmlat.linalg import Mat, q, qvec
from fmlat.operators import GoldenName, build, golden
from fmlat.sd import SearchTarget, build_report, search_phi

from helpers import K3_CFG, small_q


@pytest.fixture
def k3_file(tmp_path):
    path = tmp_path / "k3.cfg"
    path.write_text(K3_CFG, encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# verify

def test_verify_passes_and_exits_zero(capsys):
    code, out, _ = run(capsys, "verify", "--d-range", "1..6")
    assert code == 0
    assert "summary:" in out and " 0 failed" in out


def test_verify_json_contains_case_ids(capsys):
    code, out, _ = run(capsys, "verify", "--d-range", "1..1", "--json")
    assert code == 0
    doc = json.loads(out)
    ids = [case["id"] for case in doc["cases"]]
    assert "golden_vs_built:FM_Pd:d=1" in ids
    assert doc["failed"] == 0
    outcome = fmlat.verify.run_verify(1, 1)
    assert doc == {
        "schema": 1, "suite": "fmlat-verify", "d_range": [1, 1],
        "cases": [{"id": case.id, "description": case.description,
                   "pass": True, "lhs": case.lhs, "rhs": case.rhs}
                  for case in outcome.cases],
        "passed": len(outcome.cases), "failed": 0}


def test_verify_corrupted_golden_table_exits_one(capsys, monkeypatch):
    real_golden = fmlat.operators.golden

    def corrupted(name, d=None, divisor=None):
        matrix = real_golden(name, d=d, divisor=divisor)
        if GoldenName(name) is GoldenName.FM_Pd and d == 2:
            rows = [list(row) for row in matrix.rows]
            rows[1][1] += 1
            return Mat(rows)
        return matrix

    monkeypatch.setattr(fmlat.operators, "golden", corrupted)
    code, out, _ = run(capsys, "verify", "--d-range", "1..3")
    assert code == 1
    assert "[FAIL] golden_vs_built:FM_Pd:d=2" in out
    assert "first difference at [1][1]" in out
    lhs, rhs = (line.split(": ", 1)
                for line in out[out.index("[FAIL]"):].splitlines()[1:3])
    assert (lhs[0].strip(), rhs[0].strip()) == ("lhs", "rhs")
    assert lhs[1] != rhs[1]


@pytest.mark.parametrize("bad", ["0..3", "5..2", "1..65", "x..y", "1.."])
def test_verify_rejects_bad_ranges(capsys, bad):
    code, _, err = run(capsys, "verify", "--d-range", bad)
    assert code == 2
    assert "error:" in err


# matrix

def test_matrix_prints_pinned_table(capsys):
    # each column is right-aligned to its widest entry
    code, out, _ = run(capsys, "matrix", "FM_Pd", "--d", "3")
    assert code == 0
    assert out == ("FM_Pd(d=3) =\n"
                   "[  0  1   0  0 ]\n"
                   "[ -1  3   0  0 ]\n"
                   "[  0  5   0  1 ]\n"
                   "[  1  6  -1  3 ]\n")


def test_matrix_json_roundtrip(capsys):
    code, out, _ = run(capsys, "matrix", "FM_Pd", "--d", "3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert Mat(doc["matrix"]) == golden(GoldenName.FM_Pd, d=3)


def test_matrix_twist_takes_divisor(capsys):
    code, out, _ = run(capsys, "matrix", "A_TL", "--divisor", "1,3", "--json")
    assert code == 0
    assert Mat(json.loads(out)["matrix"]) == \
        golden(GoldenName.A_TL, divisor=(1, 3))


def test_matrix_twist_takes_rational_divisor(capsys):
    expected = golden(GoldenName.A_TL, divisor=(Fraction(1, 2), 1))
    assert expected.rows[3][0] == Fraction(1, 4)
    code, out, _ = run(capsys, "matrix", "A_TL", "--divisor", "1/2,1")
    assert code == 0
    assert out == ("A_TL(D=1/2,1) =\n"
                   "[   1  0    0  0 ]\n"
                   "[ 1/2  1    0  0 ]\n"
                   "[   1  0    1  0 ]\n"
                   "[ 1/4  0  1/2  1 ]\n")
    code, out, _ = run(capsys, "matrix", "A_TL", "--divisor", "1/2,1", "--json")
    assert code == 0
    doc = json.loads(out)
    # an integral entry is a JSON int, any other an "n/d" string
    assert doc["divisor"] == ["1/2", 1]
    assert doc["matrix"][3] == ["1/4", 0, "1/2", 1]
    assert Mat(doc["matrix"]) == expected


def test_matrix_text_right_aligns_each_column(capsys):
    code, out, _ = run(capsys, "matrix", "A_TL", "--divisor=-7/2,1")
    assert code == 0
    assert out.splitlines()[1:] == ["[     1  0     0  0 ]",
                                    "[  -7/2  1     0  0 ]",
                                    "[     1  0     1  0 ]",
                                    "[ -63/4  8  -7/2  1 ]"]


@pytest.mark.parametrize("divisor", ["-7/2,1", "1/3,-2/5", "4/2,0"])
def test_matrix_json_reads_back_as_the_matrix(capsys, divisor):
    code, out, _ = run(capsys, "matrix", "A_TL", f"--divisor={divisor}", "--json")
    assert code == 0
    doc = json.loads(out)
    expected = golden(GoldenName.A_TL, divisor=qvec(divisor.split(",")))
    assert Mat(doc["matrix"]) == expected
    # integral entries are JSON ints and the rest "n/d" strings, so none is rounded
    assert [[type(x) is int for x in row] for row in doc["matrix"]] == \
        [[type(x) is int for x in row] for row in expected.rows]


@pytest.mark.parametrize("divisor", ["1", "1/2,1,0", "1/0,1", "0.5,1", "1e3,0"])
def test_matrix_divisor_rejects_bad_values(capsys, divisor):
    code, _, err = run(capsys, "matrix", "A_TL", "--divisor", divisor)
    assert code == 2
    assert "error:" in err
    if divisor in ("1", "1/2,1,0"):  # exact values, wrong length
        count = divisor.count(",") + 1
        assert f"A_TL needs a divisor with 2 entries, got {count}" in err


def test_matrix_unknown_name_is_input_error(capsys):
    code, _, err = run(capsys, "matrix", "FM_Xd", "--d", "1")
    assert code == 2
    assert "unknown matrix name" in err


@pytest.mark.parametrize("name", [n.value for n in GoldenName])
def test_matrix_every_name_renders(capsys, name):
    argv = ["matrix", name, "--json"]
    if name in ("TensorL1", "Tw_d", "FM_Pd", "FM_Fd"):
        argv += ["--d", "2"]
    if name == "A_TL":
        argv += ["--divisor", "1,3"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    doc = json.loads(out)
    size = 2 if name == "B_S" else 4
    assert len(doc["matrix"]) == size


def test_console_entry_point_subprocess(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "fmlat.cli", "transform", "--matrix", "FM_Pd",
         "--d", "1", "--vector", "1,0,0,0"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0, -1, 0, 1"
    proc = subprocess.run(
        [sys.executable, "-m", "fmlat.cli", "verify", "--d-range", "9..9"],
        capture_output=True, text=True)
    assert proc.returncode == 0


# Python refuses str <-> int conversions past 4,300 digits by default. The
# CLI reads at most that many digits per number and prints every result in
# full; each command runs as a child, so no earlier test's state leaks in.
TOO_LONG, LONG = "9" * 5000, "9" * 2500


def _cap_memory():
    # 512 MiB of address space: a child that reads or searches without
    # bound ends in a MemoryError instead of filling the machine
    resource.setrlimit(resource.RLIMIT_AS, (2 ** 29, 2 ** 29))


def _child(*argv, **env):
    src = pathlib.Path(fmlat.__file__).parent.parent
    return subprocess.run([sys.executable, "-m", "fmlat.cli", *argv],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(src), **env},
                          preexec_fn=_cap_memory)


@pytest.fixture
def long_int_str():
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(old)


@pytest.mark.parametrize("argv", [
    ["sd-check", "--phi", f"3,1,-7,{TOO_LONG}", "--dv", "6", "--dw", "0"],
    ["verify", "--d-range", f"1..{TOO_LONG}"],
    ["chi", "--surface", "@long.cfg", "--v", "1,0,0,0", "--w", "1,0,0,0"],
], ids=["sd-check-phi", "verify-range", "surface-chi_O"])
def test_too_many_digits_exit_two(tmp_path, argv):
    long_cfg = tmp_path / "long.cfg"
    long_cfg.write_text(K3_CFG.replace("chi_O = 2", f"chi_O = {TOO_LONG}"),
                        encoding="utf-8")
    proc = _child(*[str(long_cfg) if arg == "@long.cfg" else arg for arg in argv])
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr
    # the reason is the digit cap, and the number is not echoed in full
    assert "more than 4300 digits" in proc.stderr and len(proc.stderr) < 300


def test_long_matrix_entries_print_in_full(long_int_str):
    proc = _child("matrix", "TensorL1", "--d", LONG)
    matrix = build(GoldenName.TensorL1, d=int(LONG)).matrix
    assert max(len(str(x)) for row in matrix.rows for x in row) > 4300
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout == f"TensorL1(d={LONG}) =\n{_grid(matrix)}\n"


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_long_chi_prints_in_full(k3_file, long_int_str, json_flag):
    vector = f"1,{LONG},0,0"
    proc = _child("chi", "--surface", k3_file, "--v", vector, "--w", vector,
                  *json_flag)
    cls = CohClass(1, (int(LONG), 0), 0)
    value = chi_tensor(STANDARD_K3, cls, cls)
    assert len(str(value)) > 4300
    assert proc.returncode == 0 and proc.stderr == ""
    if json_flag:
        assert json.loads(proc.stdout)["chi"] == value
    else:
        assert proc.stdout == f"{value}\n"


def test_matrix_missing_d_is_input_error(capsys):
    # named like "A_TL needs a divisor", not "must be an integer, got None"
    for argv in (("matrix", "FM_Pd"), ("matrix", "TensorL1"),
                 ("transform", "--matrix", "FM_Pd", "--vector", "1,0,0,1")):
        name = argv[1] if argv[0] == "matrix" else argv[2]
        assert run(capsys, *argv) == (2, "", f"error: {name} needs a kernel degree d\n")


def test_matrix_rejects_parameters_the_name_ignores(capsys):
    # TensorSigma has no d: accepting one prints "TensorSigma(d=3)" over a
    # matrix that ignores it
    code, out, err = run(capsys, "matrix", "TensorSigma", "--d", "3")
    assert code == 2 and out == ""
    assert "takes no kernel degree" in err
    code, out, err = run(capsys, "matrix", "FM_Pd", "--d", "3",
                         "--divisor", "1,0")
    assert code == 2 and out == ""
    assert "takes no divisor" in err
    code, out, err = run(capsys, "matrix", "FM_Pd", "--d", "1",
                         "--divisor", "1,2,3")
    assert code == 2 and out == ""
    assert "FM_Pd takes no divisor" in err


# transform

def test_transform_worked_example(capsys):
    code, out, _ = run(capsys, "transform", "--matrix", "FM_Pd", "--d", "1",
                       "--vector", "1,0,0,0")
    assert code == 0
    assert out.strip() == "0, -1, 0, 1"


def test_transform_accepts_rationals_and_roundtrips(capsys):
    code, out, _ = run(capsys, "transform", "--matrix", "TensorSigma",
                       "--vector", "1/2,0,0,0", "--json")
    assert code == 0
    doc = json.loads(out)
    image = qvec(doc["image"])
    assert image == golden(GoldenName.TensorSigma).apply(qvec(doc["vector"]))


@settings(max_examples=100, deadline=None)
@given(st.lists(small_q(), min_size=4, max_size=4))
def test_transform_json_numbers_read_back_exactly(xs):
    # q reads each encoded number back; "-7/2" stays a string, 4/1 an int
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["transform", "--matrix", "A_S",
                     "--vector=" + ",".join(map(str, xs)), "--json"]) == 0
    doc = json.loads(out.getvalue())
    assert [q(x) for x in doc["vector"]] == xs
    assert [type(x) is int for x in doc["vector"]] == [x.denominator == 1 for x in xs]
    assert qvec(doc["image"]) == golden(GoldenName.A_S).apply(xs)


def test_transform_on_two_by_two(capsys):
    code, out, _ = run(capsys, "transform", "--matrix", "B_S",
                       "--vector", "1,2")
    assert code == 0
    assert out.strip() == "1, -2"


def test_transform_dimension_mismatch(capsys):
    code, _, err = run(capsys, "transform", "--matrix", "FM_Pd", "--d", "1",
                       "--vector", "1,0")
    assert code == 2
    assert "error:" in err


# chi

def test_chi_ideal_sheaf_pairing(capsys, k3_file):
    code, out, _ = run(capsys, "chi", "--surface", k3_file,
                       "--v", "1,0,0,-2", "--w", "1,0,0,0")
    assert code == 0
    assert out.strip() == "0"


def test_chi_uses_env_default(capsys, k3_file, monkeypatch):
    monkeypatch.setenv("FMLAT_SURFACE", k3_file)
    code, out, _ = run(capsys, "chi", "--v", "1,0,0,0", "--w", "1,0,0,0")
    assert code == 0
    assert out.strip() == "2"


def test_chi_without_surface_is_input_error(capsys, monkeypatch):
    monkeypatch.delenv("FMLAT_SURFACE", raising=False)
    code, _, err = run(capsys, "chi", "--v", "1,0,0,0", "--w", "1,0,0,0")
    assert code == 2
    assert "no surface file" in err


def test_chi_non_utf8_surface_is_input_error(capsys, tmp_path):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(K3_CFG.replace("standard-k3", "k3-\u00e9").encode("latin-1"))
    code, out, err = run(capsys, "chi", "--surface", str(path),
                         "--v", "1,0,0,0", "--w", "1,0,0,0")
    assert code == 2 and out == ""
    assert "cannot read surface file" in err


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
@pytest.mark.parametrize("via_env", [False, True], ids=["flag", "env"])
def test_chi_endless_surface_file_exits_two(via_env):
    vectors = ("--v", "1,0,0,0", "--w", "1,0,0,0")
    if via_env:
        proc = _child("chi", *vectors, FMLAT_SURFACE="/dev/zero")
    else:
        proc = _child("chi", "--surface", "/dev/zero", *vectors)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == ("error: surface file /dev/zero is longer than "
                           "65536 characters\n")


def test_chi_json_roundtrip(capsys, k3_file):
    code, out, _ = run(capsys, "chi", "--surface", k3_file,
                       "--v", "1,0,0,-1/2", "--w", "1,1,0,0", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["v"] == [1, 0, 0, "-1/2"]
    assert qvec(doc["v"]) == (1, 0, 0, Fraction(-1, 2))


def test_chi_warns_on_fractional_rank(capsys, k3_file):
    code, out, err = run(capsys, "chi", "--surface", k3_file,
                         "--v", "1/3,0,0,0", "--w", "1,0,0,0")
    assert code == 0
    assert "warning" in err and "rank" in err


# sd-check

def test_sd_check_worked_example(capsys):
    code, out, _ = run(capsys, "sd-check", "--phi", "3,1,-7,-2",
                       "--dv", "6", "--dw", "0", "--theorem", "k3")
    assert code == 0
    assert "rk_xi_v = 3   rk_phi_w = 3" in out
    assert "k3: pass" in out
    assert "threshold margins (1, 1)" in out


def test_sd_check_boundary_fails_exit_one(capsys):
    code, out, _ = run(capsys, "sd-check", "--phi", "3,1,-7,-2",
                       "--dv", "5", "--dw", "0")
    assert code == 1
    assert "k3: fail" in out


def test_sd_check_inadmissible_phi_lists_constraints(capsys):
    code, _, err = run(capsys, "sd-check", "--phi", "1,1,1,1",
                       "--dv", "6", "--dw", "0")
    assert code == 2
    assert "determinant" in err
    # admissible kernel matrix that misses the theorem thresholds
    code, _, err = run(capsys, "sd-check", "--phi", "1,1,0,1",
                       "--dv", "6", "--dw", "0")
    assert code == 2
    assert "must exceed" in err


def test_sd_check_json_roundtrip(capsys):
    code, out, _ = run(capsys, "sd-check", "--phi", "3,1,-7,-2",
                       "--dv", "6", "--dw", "0", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc == {
        "schema": 1, "surface": None, "v": None, "w": None,
        "phi": [3, 1, -7, -2], "lambda": 1, "d_v": 6, "d_w": 0,
        "orthogonal": None, "base_case": None, "rk_xi_v": 3, "rk_phi_w": 3,
        "checks": {"k3": "pass", "general": "not-evaluated"},
        "margins": {"k3": {"threshold": [1, 1], "rank": [0, 0]}, "general": None},
        "notes": []}


@pytest.mark.parametrize("argv, code, checks", [
    (["--dv", "6", "--dw", "0"], 0, {"k3": "pass", "general": "not-evaluated"}),
    (["--dv", "5", "--dw", "0"], 1, {"k3": "fail", "general": "not-evaluated"}),
    (["--dv", "6", "--dw", "0", "--theorem", "general", "--tv", "2", "--tw", "2"],
     0, {"k3": "not-evaluated", "general": "pass"}),
    (["--dv", "6", "--dw", "0", "--theorem", "general", "--tv", "3", "--tw", "2"],
     1, {"k3": "not-evaluated", "general": "fail"}),
], ids=["k3-pass", "k3-fail", "general-pass", "general-fail"])
def test_sd_check_json_verdict_words(capsys, argv, code, checks):
    got, out, _ = run(capsys, "sd-check", "--phi", "3,1,-7,-2", *argv, "--json")
    assert (got, json.loads(out)["checks"]) == (code, checks)


def test_sd_check_with_classes(capsys, k3_file):
    # v = (1, 0, -2), w = (1, sigma + 4f, 0): chi(L) = 5 = 2 + 3
    code, out, _ = run(capsys, "sd-check", "--phi", "3,1,-7,-2",
                       "--dv", "6", "--dw", "0",
                       "--surface", k3_file,
                       "--v", "1,0,0,-2", "--w", "1,1,4,0",
                       "--attest-no-higher-cohomology")
    assert code == 0
    assert "orthogonal = True   base_case = True" in out


def test_sd_check_general_defaults_dimensions_on_k3(capsys, k3_file):
    code, out, _ = run(capsys, "sd-check", "--phi", "3,1,-7,-2",
                       "--dv", "6", "--dw", "0", "--theorem", "general",
                       "--surface", k3_file,
                       "--v", "1,0,0,-2", "--w", "1,1,4,0",
                       "--attest-no-higher-cohomology")
    assert "general:" in out
    assert "defaulted" in out


FOUR_NOTES = [
    "no-higher-cohomology attestation missing; base case cannot hold",
    "supplied fiber degrees (9, 0) disagree with the classes (0, 1)",
    "kernel matrix lambda 2 disagrees with the surface's lambda 1",
    "general-surface dimensions defaulted to the K3 moduli dimension formula"]


def test_sd_check_text_with_every_note(capsys, k3_file):
    # classes without attestation, fiber degrees and lambda that disagree
    # with them, and defaulted dimensions: a failing general check
    argv = ["sd-check", "--phi", "5,2,-8,-3", "--lambda", "2", "--dv", "9",
            "--dw", "0", "--surface", k3_file, "--v", "1,0,0,-2",
            "--w", "1,1,4,0", "--theorem", "general"]
    code, out, _ = run(capsys, *argv)
    assert (code, out) == (1, "".join(f"{line}\n" for line in [
        "phi = [[5,2],[-8,-3]]   lambda = 2",
        "d_v = 9   d_w = 0",
        "rk_xi_v = 13   rk_phi_w = 5",
        "orthogonal = True   base_case = False",
        "k3: not-evaluated",
        "general: fail   threshold margins (5, -7)",
        *(f"note: {note}" for note in FOUR_NOTES)]))
    code, out, _ = run(capsys, *argv, "--json")
    assert (code, json.loads(out)["notes"]) == (1, FOUR_NOTES)


def test_sd_check_general_without_dimensions_errors(capsys):
    code, _, err = run(capsys, "sd-check", "--phi", "3,1,-7,-2",
                       "--dv", "6", "--dw", "0", "--theorem", "general")
    assert code == 2
    assert "t_v" in err


@pytest.mark.parametrize("extra", [("--tv", "2"), ("--tw", "2"),
                                   ("--theorem", "k3", "--tv", "2", "--tw", "2")])
def test_sd_check_k3_rejects_dimensions(capsys, extra):
    # the K3 thresholds are fixed; a moduli dimension would be ignored
    code, out, err = run(capsys, "sd-check", "--phi", "3,1,-7,-2",
                         "--dv", "6", "--dw", "0", *extra)
    assert (code, out) == (2, "")
    assert "general-surface check only" in err


def test_sd_check_attestation_needs_classes(capsys):
    code, out, err = run(capsys, "sd-check", "--phi", "3,1,-7,-2",
                         "--dv", "6", "--dw", "0", "--attest-no-higher-cohomology")
    assert (code, out) == (2, "")
    assert "needs --v and --w" in err


# search

def test_search_streams_hits(capsys):
    code, out, err = run(capsys, "search", "--lambda", "1", "--bound", "8",
                         "--dv", "6", "--dw", "0")
    assert code == 0
    assert "3,1,-7,-2" in out
    assert err == f"# {len(out.splitlines())} hit(s)\n"


def test_search_counts_the_hits_it_streams(capsys):
    code, out, err = run(capsys, "search", "--lambda", "1", "--bound", "214")
    assert code == 0
    assert err == f"# {len(out.splitlines())} hit(s)\n"
    assert len(out.splitlines()) == len(search_phi(1, 214)) == 13548


@pytest.mark.parametrize("argv, message", [
    (("--lambda", "1", "--bound", "1001", "--json"), "bound must be at most 1000, got 1001"),
    (("--lambda", "0", "--bound", "5", "--json"), "lambda must be a positive integer, got 0"),
    (("--lambda", "1", "--bound", "0"), "bound must be a positive integer, got 0"),
])
def test_search_argument_errors_write_nothing_to_stdout(capsys, argv, message):
    # the JSON head goes out before the first hit is pulled, so the search
    # must refuse its arguments before that
    assert run(capsys, "search", *argv) == (2, "", f"error: {message}\n")


def test_search_bound_above_the_cap_exits_two():
    proc = _child("search", "--lambda", "1", "--bound", "100000")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: bound must be at most 1000, got 100000\n"


def test_search_empty_result_is_ok(capsys):
    code, out, _ = run(capsys, "search", "--lambda", "1", "--bound", "3")
    assert code == 0
    assert out.strip() == ""


def test_search_general_theorem_needs_dimensions(capsys):
    code, _, err = run(capsys, "search", "--lambda", "1", "--bound", "8",
                       "--dv", "6", "--dw", "0", "--theorem", "general")
    assert code == 2
    assert "t_v" in err
    code, out, _ = run(capsys, "search", "--lambda", "1", "--bound", "8",
                       "--dv", "6", "--dw", "0", "--theorem", "general",
                       "--tv", "2", "--tw", "2")
    assert code == 0
    assert "3,1,-7,-2" in out


def test_search_general_theorem_needs_dimensions_at_any_bound(capsys):
    # bound 3 has no admissible candidate, so the target itself must be checked
    for bound in ("3", "8"):
        code, _, err = run(capsys, "search", "--lambda", "1", "--bound", bound,
                           "--dv", "6", "--dw", "0", "--theorem", "general")
        assert code == 2
        assert "t_v" in err


@pytest.mark.parametrize("extra", [("--tv", "2"), ("--tw", "2"),
                                   ("--theorem", "general"), ("--theorem", "k3"),
                                   ("--theorem", "general", "--tv", "2", "--tw", "2")])
def test_search_target_options_need_a_target(capsys, extra):
    # without --dv/--dw the search is untargeted and would ignore them
    code, out, err = run(capsys, "search", "--lambda", "1", "--bound", "8", *extra)
    assert (code, out) == (2, "")
    assert "need --dv and --dw" in err


@pytest.mark.parametrize("extra", [(), ("--theorem", "k3")])
def test_search_theorem_defaults_to_k3_with_a_target(capsys, extra):
    code, out, _ = run(capsys, "search", "--lambda", "1", "--bound", "8",
                       "--dv", "6", "--dw", "0", *extra)
    assert code == 0 and "3,1,-7,-2" in out
    # the K3 thresholds are fixed; a moduli dimension would be ignored
    code, out, err = run(capsys, "search", "--lambda", "1", "--bound", "8",
                         "--dv", "6", "--dw", "0", "--tv", "99", *extra)
    assert (code, out) == (2, "")
    assert "general-surface check only" in err


def test_verify_single_degree_range(capsys):
    code, out, _ = run(capsys, "verify", "--d-range", "3")
    assert code == 0
    assert "(d = 3..3)" in out


def test_search_json_roundtrip(capsys):
    code, out, _ = run(capsys, "search", "--lambda", "1", "--bound", "8",
                       "--dv", "6", "--dw", "0", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert [3, 1, -7, -2] in [hit["phi"] for hit in doc["hits"]]
    for hit in doc["hits"]:
        assert hit["report"] == _report_json(build_report(FM2(*hit["phi"], 1), 6, 0))


@pytest.mark.parametrize("target", [(), ("--dv", "6", "--dw", "0")],
                         ids=["untargeted", "targeted"])
def test_search_json_holds_every_hit(capsys, target):
    code, out, _ = run(capsys, "search", "--lambda", "2", "--bound", "60",
                       *target, "--json")
    assert code == 0
    hits = search_phi(2, 60, SearchTarget(6, 0) if target else None)
    assert [hit["phi"] for hit in json.loads(out)["hits"]] == \
        [list(phi.entries()) for phi in hits]


# usage errors

def test_unknown_command_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_missing_required_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sd-check", "--dv", "6", "--dw", "0"])
    assert exc.value.code == 2


# one call per value flag of every command, its value led by "-", and the
# exit code and start of what fmlat then prints: a library error (phi's
# determinant 13, the d range, lambda, the bound) shows the value reached
# the command, and an invalid --theorem is a usage error in both spellings
_PHI = "sd-check --phi 3,1,-7,-2 --dv 6 --dw 0"
_REPORT = "phi = [[3,1],[-7,-2]]"
NEGATIVE_LEAD_CALLS = {
    ("verify", "--d-range"): ("verify --d-range -1..5", 2,
                              "error: d range must satisfy 1 <= lo <= hi <= 64"),
    ("matrix", "--d"): ("matrix TensorL1 --d -1", 2, "error: kernel degree d"),
    ("matrix", "--divisor"): ("matrix A_TL --divisor -1/2,1", 0, "A_TL(D=-1/2,1) =\n"),
    ("transform", "--matrix"): ("transform --matrix -A_S --vector 1,0,0,0", 2,
                                "error: unknown matrix name '-A_S'"),
    ("transform", "--d"): ("transform --matrix TensorL1 --d -1 --vector 1,0,0,0", 2,
                           "error: kernel degree d"),
    ("transform", "--divisor"): ("transform --matrix A_TL --divisor -1,1 "
                                 "--vector 1,0,0,0", 0, "1, -1, 1, -2\n"),
    ("transform", "--vector"): ("transform --matrix A_S --vector -1,0,0,0", 0,
                                "1, 0, -2, 0\n"),
    ("chi", "--surface"): ("chi --surface -k3.cfg --v 1,0,0,0 --w 1,0,0,0", 2,
                           "error: cannot read surface file -k3.cfg"),
    ("chi", "--v"): ("chi --surface {k3} --v -1,0,0,0 --w 1,2,0,0", 0, "-2\n"),
    ("chi", "--w"): ("chi --surface {k3} --v 1,2,0,0 --w -1,0,0,0", 0, "-2\n"),
    ("sd-check", "--phi"): ("sd-check --phi -3,1,-7,-2 --dv 6 --dw 0", 2,
                            "error: determinant cb - ae = 13, must be 1\n"),
    ("sd-check", "--lambda"): (f"{_PHI} --lambda -1", 2, "error: lambda must be positive"),
    ("sd-check", "--dv"): ("sd-check --phi 3,1,-7,-2 --dv -6 --dw 0", 1,
                           f"{_REPORT}   lambda = 1\nd_v = -6"),
    ("sd-check", "--dw"): ("sd-check --phi 3,1,-7,-2 --dv 6 --dw -1", 1,
                           f"{_REPORT}   lambda = 1\nd_v = 6   d_w = -1"),
    ("sd-check", "--theorem"): (f"{_PHI} --theorem -k3", 2, "usage: fmlat sd-check"),
    ("sd-check", "--tv"): (f"{_PHI} --theorem general --tv -2 --tw 2", 0, _REPORT),
    ("sd-check", "--tw"): (f"{_PHI} --theorem general --tv 2 --tw -2", 0, _REPORT),
    ("sd-check", "--surface"): (f"{_PHI} --surface -k3.cfg --v 1,0,0,-2 --w 1,1,4,0",
                                2, "error: cannot read surface file -k3.cfg"),
    ("sd-check", "--v"): (f"{_PHI} --surface {{k3}} --v -1,0,0,2 --w 1,1,4,0", 2,
                          "error: v must have rank one, got rank -1"),
    ("sd-check", "--w"): (f"{_PHI} --surface {{k3}} --v 1,0,0,-2 --w -1,1,4,0", 2,
                          "error: w must have rank one, got rank -1"),
    ("search", "--lambda"): ("search --bound 3 --lambda -1", 2,
                             "error: lambda must be a positive integer, got -1"),
    ("search", "--bound"): ("search --bound -5", 2,
                            "error: bound must be a positive integer, got -5"),
    ("search", "--dv"): ("search --bound 3 --dv -6 --dw 0", 0, "# 0 hit(s)"),
    ("search", "--dw"): ("search --bound 3 --dv 6 --dw -1", 0, "# 0 hit(s)"),
    ("search", "--theorem"): ("search --bound 3 --dv 6 --dw 0 --theorem -k3", 2,
                              "usage: fmlat search"),
    ("search", "--tv"): ("search --bound 3 --dv 6 --dw 0 --theorem general "
                         "--tv -2 --tw 2", 0, "# 0 hit(s)"),
    ("search", "--tw"): ("search --bound 3 --dv 6 --dw 0 --theorem general "
                         "--tv 2 --tw -2", 0, "# 0 hit(s)"),
}


def test_every_value_flag_has_a_negative_lead_call():
    value_flags = {(command, flag) for command, (_, _, _, flags) in _COMMANDS.items()
                   for flag, (_, kind, _, _, _) in flags.items() if kind is not None}
    assert set(NEGATIVE_LEAD_CALLS) == value_flags


@pytest.mark.parametrize("command, flag", sorted(NEGATIVE_LEAD_CALLS))
def test_negative_leading_list_value_reaches_its_flag(capsys, k3_file, command, flag):
    line, expected_code, expected_start = NEGATIVE_LEAD_CALLS[command, flag]
    argv = line.format(k3=k3_file).split()
    i = argv.index(flag)
    assert argv.count(flag) == 1 and argv[i + 1].startswith("-")
    glued = argv[:i] + [f"{flag}={argv[i + 1]}"] + argv[i + 2:]

    def call(args):
        # the one usage error here (--theorem) raises; its code stands in
        try:
            return run(capsys, *args)
        except SystemExit as exc:
            captured = capsys.readouterr()
            return exc.code, captured.out, captured.err

    code, out, err = call(argv)
    assert (code, out, err) == call(glued)
    assert code == expected_code
    assert (out or err).startswith(expected_start)


@pytest.mark.parametrize("line", [
    "transform --matrix A_S --vec -1,0,0,0",
    "transform --matrix A_S --vec 1,0,0,0",
    "matrix A_TL --div -1,1",
    "matrix A_TL --div 1,1",
    "verify --d 1..3",
])
def test_abbreviated_flags_are_usage_errors(capsys, line):
    # flags are spelled in full, so an abbreviation is no flag at all
    with pytest.raises(SystemExit) as exc:
        main(line.split())
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


# what each abbreviation prints last: the flag as typed, named unrecognized
ABBREVIATED_MESSAGES = {
    "transform --matrix A_S --vec 1,0,0,0":
        "fmlat transform: error: unrecognized arguments: --vec\n",
    "sd-check --ph 3,1,-7,-2 --dv 6 --dw 0":
        "fmlat sd-check: error: unrecognized arguments: --ph\n",
    "matrix A_TL --div 1,1": "fmlat matrix: error: unrecognized arguments: --div\n",
    "verify --d 1..3": "fmlat verify: error: unrecognized arguments: --d\n",
}


@pytest.mark.parametrize("line", list(ABBREVIATED_MESSAGES))
def test_an_abbreviated_flag_is_named_as_unrecognized(capsys, line):
    # an abbreviation of a required flag is reported as the token typed,
    # not as the full flag gone missing
    with pytest.raises(SystemExit) as exc:
        main(line.split())
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert err.endswith(ABBREVIATED_MESSAGES[line]) and "Traceback" not in err


def test_a_switch_given_a_value_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--json=1"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert err.endswith("fmlat verify: error: argument --json: ignored explicit argument '1'\n")


@pytest.mark.parametrize("help_flag", ["-h", "--help"])
@pytest.mark.parametrize("command", ["verify", "matrix", "transform", "chi",
                                     "sd-check", "search"])
def test_help_names_every_command_and_flag(capsys, command, help_flag):
    with pytest.raises(SystemExit) as exc:
        main([help_flag])
    out = capsys.readouterr().out
    assert exc.value.code == 0 and command in out.split()
    with pytest.raises(SystemExit) as exc:
        main([command, help_flag])
    out = capsys.readouterr().out
    assert exc.value.code == 0 and out.startswith(f"usage: fmlat {command} ")
    assert set(_COMMANDS[command][3]) <= set(out.split())


def test_a_repeated_flag_keeps_its_last_value(capsys):
    last = run(capsys, "matrix", "FM_Pd", "--json", "--d", "2")
    assert last[0] == 0
    assert run(capsys, "matrix", "FM_Pd", "--d", "1", "--json", "--d=2") == last


def test_help_still_wins_over_an_unknown_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["transform", "--vec", "1,0,0,0", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: fmlat transform")


@pytest.mark.parametrize("argv", [
    ["transform", "--matrix", "A_S", "--vector", "-1,0,0,0", "--frob"],
    ["transform", "--matrix", "A_S", "--frob", "-1,0,0,0", "--vector", "1,0,0,0"],
    ["transform", "--matrix", "A_S", "--vector", "--json"],
])
def test_unknown_option_or_missing_value_still_exits_two(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_bad_vector_is_input_error(capsys):
    code, _, err = run(capsys, "transform", "--matrix", "FM_Pd", "--d", "1",
                       "--vector", "1,0,zz,0")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("vector", ["1e3,0,0,0", "0.5,0,0,0", "1,0,1.5,0"])
def test_decimal_vector_is_input_error(capsys, vector):
    code, out, err = run(capsys, "transform", "--matrix", "FM_Pd", "--d", "1",
                         "--vector", vector)
    assert code == 2
    assert out == ""
    assert "not an exact rational" in err


# every integer from outside takes [+-]ASCII digits, as the integer half of q
BAD_INTEGERS = ["1_0", "\u0663", "4/2", "1.0"]
# one valid call per integer flag; the flag before "{}" gets a bad integer
INT_FLAG_CALLS = [
    "matrix TensorL1 --d {}",
    "transform --matrix TensorL1 --vector 1,0,0,0 --d {}",
    "sd-check --phi 3,1,-7,-2 --dv 6 --dw 0 --lambda {}",
    "sd-check --phi 3,1,-7,-2 --dw 0 --dv {}",
    "sd-check --phi 3,1,-7,-2 --dv 6 --dw {}",
    "sd-check --phi 3,1,-7,-2 --dv 6 --dw 0 --theorem general --tw 2 --tv {}",
    "sd-check --phi 3,1,-7,-2 --dv 6 --dw 0 --theorem general --tv 2 --tw {}",
    "search --bound 3 --lambda {}",
    "search --bound {}",
    "search --bound 3 --dw 0 --dv {}",
    "search --bound 3 --dv 6 --dw {}",
    "search --bound 3 --dv 6 --dw 0 --theorem general --tw 2 --tv {}",
    "search --bound 3 --dv 6 --dw 0 --theorem general --tv 2 --tw {}",
]


@pytest.mark.parametrize("bad", BAD_INTEGERS)
@pytest.mark.parametrize("call", INT_FLAG_CALLS)
def test_integer_flags_take_ascii_digits_only(capsys, call, bad):
    *argv, flag, _ = call.split()
    code, _, _ = run(capsys, *argv, flag, " +1 ")   # sign and spaces are fine
    assert code in (0, 1)
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag, bad])
    assert exc.value.code == 2
    assert f"argument {flag}: not an integer: {bad!r}" in capsys.readouterr().err


@pytest.mark.parametrize("bad", BAD_INTEGERS)
def test_phi_and_d_range_take_ascii_digits_only(capsys, bad):
    code, out, err = run(capsys, "sd-check", "--phi", f"3,1,-7,{bad}",
                         "--dv", "6", "--dw", "0")
    assert (code, out) == (2, "") and "--phi: not an integer" in err
    code, out, err = run(capsys, "verify", "--d-range", f"1..{bad}")
    assert (code, out) == (2, "") and "bad d range" in err
    code, _, _ = run(capsys, "sd-check", "--phi", " +3, 1, -7, -2 ",
                     "--dv", "6", "--dw", "0")
    assert code == 0


def test_bad_phi_arity_is_input_error(capsys):
    code, _, err = run(capsys, "sd-check", "--phi", "3,1,-7",
                       "--dv", "6", "--dw", "0")
    assert code == 2
    assert "--phi" in err


def test_sd_check_class_flags_must_pair(capsys):
    code, _, err = run(capsys, "sd-check", "--phi", "3,1,-7,-2",
                       "--dv", "6", "--dw", "0", "--v", "1,0,0,0")
    assert code == 2
    assert "--v and --w" in err


def test_search_target_flags_must_pair(capsys):
    code, _, err = run(capsys, "search", "--lambda", "1", "--bound", "5",
                       "--dv", "6")
    assert code == 2
    assert "--dv and --dw" in err


def test_run_verify_rejects_non_integer_range():
    from fmlat.errors import InputError as IE
    for lo, hi in ((1.0, 2), (1, "2"), (True, 2)):
        with pytest.raises(IE, match="must be an integer"):
            fmlat.verify.run_verify(lo, hi)


# fuzzed argv: every outcome is an exit code, never an escaped exception

_SMALL = ("0", "1", "2", "3", "6", "-1", "-7", "1/2", "1.5", "x", "")
_VECTORS = ("1,0,0,0", "1,0,0,-2", "1,1,4,0", "1/3,0,0,0", "1,0", "1,x,0,0", "")
_DIVISORS = ("1,3", "2,-1", "1", "1,2,3", "a,b")
_NAMES = tuple(n.value for n in GoldenName) + ("Nope",)
_THEOREMS = ("k3", "general", "other")
# "@name" is a file in the fuzz directory; the directory itself is unreadable
_SURFACES = ("@k3.cfg", "@latin1.cfg", "@dup-basis.cfg", "@missing.cfg", "@")


def _opt(values):
    """A value, or None (flag left out) as likely as any one value."""
    return st.sampled_from((None,) + values)


# Flags the parser requires are always given; a stray "--bogus" covers usage
# errors. Work stays bounded: verify always gets a range inside 1..4 and
# search a bound of at most 30.
_FUZZ_OPTIONS = {
    "verify": {"--d-range": st.sampled_from(
        ("1..2", "3..4", "4", "2..1", "0..3", "1..65", "1..", "x"))},
    "matrix": {"--d": _opt(_SMALL), "--divisor": _opt(_DIVISORS)},
    "transform": {"--matrix": st.sampled_from(_NAMES), "--d": _opt(_SMALL),
                  "--divisor": _opt(_DIVISORS),
                  "--vector": st.sampled_from(_VECTORS)},
    "chi": {"--surface": _opt(_SURFACES), "--v": st.sampled_from(_VECTORS),
            "--w": st.sampled_from(_VECTORS)},
    "sd-check": {"--phi": st.sampled_from(("3,1,-7,-2", "5,2,-8,-3", "1,1,0,1",
                                           "1,2,3", "x,1,1,1")),
                 "--lambda": _opt(_SMALL), "--dv": st.sampled_from(_SMALL),
                 "--dw": st.sampled_from(_SMALL), "--theorem": _opt(_THEOREMS),
                 "--tv": _opt(_SMALL), "--tw": _opt(_SMALL),
                 "--surface": _opt(_SURFACES), "--v": _opt(_VECTORS),
                 "--w": _opt(_VECTORS)},
    "search": {"--lambda": _opt(("1", "2", "0", "-1", "x")),
               "--bound": st.sampled_from(("0", "1", "8", "30", "-3", "x", "1.5")),
               "--dv": _opt(_SMALL), "--dw": _opt(_SMALL),
               "--theorem": _opt(_THEOREMS), "--tv": _opt(_SMALL),
               "--tw": _opt(_SMALL)},
}


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(sorted(_FUZZ_OPTIONS)))
    argv = [command]
    if command == "matrix":
        argv.append(draw(st.sampled_from(_NAMES)))
    for flag, values in _FUZZ_OPTIONS[command].items():
        value = draw(values)
        if value is not None:
            argv += [flag, value]
    if command == "sd-check" and draw(st.booleans()):
        argv.append("--attest-no-higher-cohomology")
    if draw(st.booleans()):
        argv.append("--json")
    return argv + draw(st.sampled_from(([], ["--bogus"], ["extra"])))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    (path / "k3.cfg").write_text(K3_CFG, encoding="utf-8")
    (path / "latin1.cfg").write_bytes(
        K3_CFG.replace("standard-k3", "k3-\u00e9").encode("latin-1"))
    (path / "dup-basis.cfg").write_text(
        K3_CFG.replace("basis = sigma, f", "basis = a a"), encoding="utf-8")
    return path


@settings(max_examples=200, deadline=None)
@given(argv=cli_argv())
@example(argv=["chi", "--surface", "@latin1.cfg", "--v", "1,0,0,0",
               "--w", "1,0,0,0"])
def test_fuzzed_argv_exits_cleanly(fuzz_dir, argv):
    argv = [str(fuzz_dir / arg[1:]) if arg.startswith("@") else arg
            for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    # any other exception escapes main, fails the test, and is what would
    # print a traceback from the console script
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:   # usage errors
            code = exc.code
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()
