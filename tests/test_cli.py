import contextlib
import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fmlat.operators
import fmlat.verify
from fmlat.cli import main
from fmlat.linalg import Mat, dec_mat, dec_qseq
from fmlat.operators import GoldenName, golden
from fmlat.sd import SDReport
from fmlat.verify import VerifyOutcome

K3_CFG = """
name = standard-k3
chi_O = 2
basis = sigma, f
gram = -2 1; 1 0
fiber = 0 1
section = 1 0
canonical = 0 0
lambda = 1
"""


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
    assert VerifyOutcome.from_json(doc).to_json() == doc


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
    assert "lhs:" in out and "rhs:" in out


@pytest.mark.parametrize("bad", ["0..3", "5..2", "1..65", "x..y", "1.."])
def test_verify_rejects_bad_ranges(capsys, bad):
    code, _, err = run(capsys, "verify", "--d-range", bad)
    assert code == 2
    assert "error:" in err


# matrix

def test_matrix_prints_pinned_table(capsys):
    code, out, _ = run(capsys, "matrix", "FM_Pd", "--d", "3")
    assert code == 0
    assert out.splitlines()[0] == "FM_Pd(d=3) ="
    assert "[  0  1   0  0 ]" in out


def test_matrix_json_roundtrip(capsys):
    code, out, _ = run(capsys, "matrix", "FM_Pd", "--d", "3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert dec_mat(doc["matrix"]) == golden(GoldenName.FM_Pd, d=3)


def test_matrix_twist_takes_divisor(capsys):
    code, out, _ = run(capsys, "matrix", "A_TL", "--divisor", "1,3", "--json")
    assert code == 0
    assert dec_mat(json.loads(out)["matrix"]) == \
        golden(GoldenName.A_TL, divisor=(1, 3))


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
    import subprocess
    import sys
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


def test_matrix_missing_d_is_input_error(capsys):
    code, _, err = run(capsys, "matrix", "FM_Pd")
    assert code == 2
    assert "error:" in err


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
    image = dec_qseq(doc["image"])
    assert image == golden(GoldenName.TensorSigma).apply(dec_qseq(doc["vector"]))


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


def test_chi_json_roundtrip(capsys, k3_file):
    code, out, _ = run(capsys, "chi", "--surface", k3_file,
                       "--v", "1,0,0,-1/2", "--w", "1,1,0,0", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert dec_qseq(doc["v"])[3] == dec_qseq(["-1/2"])[0]


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
    report = SDReport.from_json(doc)
    assert report.to_json() == doc
    assert doc["checks"]["k3"] == "pass"
    assert doc["checks"]["general"] == "not-evaluated"


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


def test_sd_check_general_without_dimensions_errors(capsys):
    code, _, err = run(capsys, "sd-check", "--phi", "3,1,-7,-2",
                       "--dv", "6", "--dw", "0", "--theorem", "general")
    assert code == 2
    assert "t_v" in err


# search

def test_search_streams_hits(capsys):
    code, out, err = run(capsys, "search", "--lambda", "1", "--bound", "8",
                         "--dv", "6", "--dw", "0")
    assert code == 0
    assert "3,1,-7,-2" in out
    assert "hit(s)" in err


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
        report = SDReport.from_json(hit["report"])
        assert report.to_json() == hit["report"]


# usage errors

def test_unknown_command_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_missing_required_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sd-check", "--dv", "6", "--dw", "0"])
    assert exc.value.code == 2


def test_bad_vector_is_input_error(capsys):
    code, _, err = run(capsys, "transform", "--matrix", "FM_Pd", "--d", "1",
                       "--vector", "1,0,zz,0")
    assert code == 2
    assert "error:" in err


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


def test_verify_outcome_rejects_unknown_schema():
    from fmlat.errors import InputError as IE
    with pytest.raises(IE):
        VerifyOutcome.from_json({"schema": 7})


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


# Flags argparse requires are always given; a stray "--bogus" covers usage
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
        except SystemExit as exc:   # argparse usage errors
            code = exc.code
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()
