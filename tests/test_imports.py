"""Every top-level import of a package module is used in that module, and
start-up imports nothing heavy."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import fmlat

from helpers import K3_CFG

SRC = str(pathlib.Path(fmlat.__file__).parent.parent)


def test_no_unused_top_level_imports():
    unused = []
    for path in sorted(pathlib.Path(fmlat.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                unused += [f"{path.name}:{node.lineno}: {alias.name}"
                           for alias in node.names
                           if (alias.asname or alias.name.split(".")[0]) not in used]
    assert unused == []


# The paper's birationality step. Its coming callers are `reduce` (ROADMAP
# item 2), which prints its verdict, and `cover` (item 4), whose certificate
# prints both; without those callers it goes.
# The list form of the search. `fmlat search` streams sd._search, so nothing
# in the package calls search_phi; it stays as library API for the tests and
# for the benchmark's `sd.search_phi` span, whose hit count takes its len()
# until that benchmark counts hits as they stream (ROADMAP item 6).
UNUSED_ON_PURPOSE = {"gen_birat_classify", "search_phi"}


def test_every_public_name_is_used_elsewhere_in_the_package():
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(pathlib.Path(fmlat.__file__).parent.glob("*.py"))
             if path.name != "__init__.py"]

    def uses(node):
        return [n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                if isinstance(n, (ast.Name, ast.Attribute))]

    all_uses = [name for tree in trees for name in uses(tree)]
    defs = [node for tree in trees for top in tree.body
            for node in [top, *(top.body if isinstance(top, ast.ClassDef) else [])]
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]
    # a definition's own body (recursion, a class naming itself) is no use
    unused = {node.name for node in defs
              if all_uses.count(node.name) == uses(node).count(node.name)}
    assert unused == UNUSED_ON_PURPOSE


def child(code: str) -> subprocess.CompletedProcess:
    """A fresh interpreter's run of code, with the package on its path."""
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC}, timeout=60, check=True)


# dataclasses pulls in inspect, and with it ast, dis and tokenize: about 25 ms
# of every CLI call's start-up.
HEAVY_AT_STARTUP = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def test_cli_startup_imports_nothing_heavy():
    code = ("import sys, fmlat.cli; "
            f"print(sorted(set(sys.modules) & set({HEAVY_AT_STARTUP!r})))")
    assert child(code).stdout.strip() == "[]"


def run_in_child(calls) -> tuple[list[int], list[str], str]:
    """Run each argv through fmlat's main in one fresh child; return the exit
    codes, the modules the calls imported (not the interpreter's start-up)
    and the calls' stdout."""
    code = ("import sys\nbefore = set(sys.modules)\nfrom fmlat.cli import main\n"
            f"codes = [main(argv) for argv in {calls!r}]\n"
            "print((codes, sorted(set(sys.modules) - before)), file=sys.stderr)")
    done = child(code)
    codes, imported = ast.literal_eval(done.stderr.splitlines()[-1])
    return codes, imported, done.stdout


# argparse held about 0.65 MiB of every call's peak RSS: its import, the
# gettext lookup that imports locale, and the built parser.
PARSER_MODULES = ("argparse", "gettext", "locale")


def test_no_command_imports_a_parser_library(tmp_path):
    surface = tmp_path / "k3.cfg"
    surface.write_text(K3_CFG, encoding="utf-8")
    calls = [["verify", "--d-range", "1..1"], ["matrix", "FM_Pd", "--d", "2"],
             ["transform", "--matrix", "FM_Pd", "--d", "1", "--vector", "1,0,0,0"],
             ["chi", "--surface", str(surface), "--v", "1,0,0,-2", "--w", "1,0,0,0"],
             ["sd-check", "--phi", "3,1,-7,-2", "--dv", "6", "--dw", "0", "--json"],
             ["search", "--lambda", "1", "--bound", "8", "--dv", "6", "--dw", "0"]]
    codes, imported, _ = run_in_child(calls)
    assert codes == [0, 0, 0, 0, 0, 0]
    assert set(imported) & set(PARSER_MODULES) == set()


# fractions imports decimal and its C library: about 0.5 MiB of peak RSS
# and 3-5 ms that a call whose every value is an integer never uses, so
# linalg.qdiv imports fractions on the first quotient that is not integral.
FRACTION_MODULES = ("decimal", "fractions")


def test_integer_calls_never_import_fractions(tmp_path):
    surface = tmp_path / "k3.cfg"
    surface.write_text(K3_CFG, encoding="utf-8")
    integral = [["verify", "--d-range", "1..64"], ["verify", "--d-range", "1..64", "--json"],
                ["matrix", "FM_Pd", "--d", "2"], ["matrix", "A_TL", "--divisor", "1,3"],
                ["transform", "--matrix", "FM_Pd", "--d", "1", "--vector", "1,0,0,0"],
                ["chi", "--surface", str(surface), "--v", "1,0,0,-2", "--w", "1,0,0,0"],
                ["sd-check", "--phi", "3,1,-7,-2", "--dv", "6", "--dw", "0"],
                ["search", "--lambda", "1", "--bound", "8"],
                ["search", "--lambda", "1", "--bound", "8", "--dv", "6", "--dw", "0", "--json"]]
    codes, imported, _ = run_in_child(integral)
    assert codes == [0] * len(integral)
    assert set(imported) & set(FRACTION_MODULES) == set()
    # a value that is not integral still loads them and prints as n/d
    fractional = [["transform", "--matrix", "TensorSigma", "--vector", "1/2,0,0,0"],
                  ["chi", "--surface", str(surface), "--v", "1,0,0,-1/2", "--w", "1,0,0,0"]]
    codes, imported, stdout = run_in_child(fractional)
    assert codes == [0, 0]
    assert set(imported) >= set(FRACTION_MODULES)
    assert stdout == "1/2, 1/2, 0, -1/2\n3/2\n"


# json is a package and a C accelerator that a document of printable ASCII
# strings never needs, so cli._quote imports it only for a string that needs
# an escape; product and verify hold verify's layers and no other command's.
VERIFY_LAYERS = ("fmlat.product", "fmlat.verify")


def test_each_command_imports_only_the_layers_it_runs(tmp_path):
    surface = tmp_path / "k3.cfg"
    surface.write_text(K3_CFG, encoding="utf-8")
    pair = ["--surface", str(surface), "--v", "1,6,0,-37", "--w", "1,0,6,-1"]
    calls = [["matrix", "FM_Pd", "--d", "2"], ["matrix", "A_TL", "--divisor", "1/2,1"],
             ["transform", "--matrix", "TensorSigma", "--vector", "1/2,0,0,0"],
             ["chi", "--surface", str(surface), "--v", "1,0,0,-2", "--w", "1,0,0,0"],
             ["sd-check", "--phi", "3,1,-7,-2", "--dv", "6", "--dw", "0", *pair],
             ["search", "--lambda", "1", "--bound", "8"],
             ["search", "--lambda", "1", "--bound", "8", "--dv", "6", "--dw", "0"]]
    calls += [[*argv, "--json"] for argv in calls]
    codes, imported, _ = run_in_child(calls)
    assert codes == [0] * len(calls)
    assert set(imported) & {"json", *VERIFY_LAYERS} == set()
    codes, imported, _ = run_in_child([["verify", "--d-range", "1..1", "--json"]])
    assert codes == [0]
    assert set(imported) >= set(VERIFY_LAYERS) and "json" not in imported


def test_a_string_that_needs_an_escape_is_written_by_json(tmp_path):
    surface = tmp_path / "k3.cfg"
    surface.write_text(K3_CFG.replace("standard-k3", "k3-\u00e9"), encoding="utf-8")
    codes, imported, stdout = run_in_child(
        [["chi", "--surface", str(surface), "--v", "1,0,0,-2", "--w", "1,0,0,0", "--json"]])
    assert codes == [0]
    assert "json" in imported
    assert stdout == ('{\n  "schema": 1,\n  "surface": "k3-\\u00e9",\n'
                      '  "v": [\n    1,\n    0,\n    0,\n    -2\n  ],\n'
                      '  "w": [\n    1,\n    0,\n    0,\n    0\n  ],\n  "chi": 0\n}\n')


# What `import fmlat` offers, from the modules that define it. Each name is
# looked up on access, so the import itself loads none of those modules.
EXPORTS = {
    "bridgeland": ["FM2", "GenBiratClass", "canonical_ab", "gen_birat_classify"],
    "chow": ["CohClass", "STANDARD_K3", "SurfaceDescriptor", "ch_line_bundle",
             "chi_tensor", "dual", "fdeg", "from_coords", "is_standard_k3",
             "load_surface", "moduli_dim_k3", "mult", "pairing_gram",
             "parse_surface", "to_coords", "todd"],
    "errors": ["AdmissibilityError", "CoprimalityError", "FmlatError", "InputError",
               "ReductionError", "SingularMatrixError", "UnsupportedModelError"],
    "linalg": ["Mat"],
    "operators": ["GoldenName", "Operator", "build", "golden", "op_pi_tensor",
                  "op_tensor", "restrict2"],
    "product": ["ProductClass", "Side", "diag_push_grr", "fm_matrix", "kernel_class",
                "prod_mult", "product_todd", "pull", "push", "render_product_class"],
    "sd": ["SDCheckResult", "SDPair", "SDReport", "SearchTarget", "Theorem",
           "build_report", "mo_base_check", "orthogonal_check", "sd_check",
           "search_phi", "transformed_ranks"],
    "verify": ["VerifyCase", "VerifyOutcome", "run_verify"],
}


def test_importing_the_package_loads_no_module():
    # a submodule is no export, so `from fmlat import verify` still imports it
    code = ("import sys, fmlat\n"
            "print(sorted(m for m in sys.modules if m.startswith('fmlat.')))\n"
            "from fmlat import verify\nprint(verify.__name__)")
    assert child(code).stdout.split() == ["[]", "fmlat.verify"]


def test_the_package_exports_each_name_from_its_module():
    assert fmlat.__all__ == [name for names in EXPORTS.values() for name in names]
    for module, names in EXPORTS.items():
        for name in names:
            assert getattr(fmlat, name) is getattr(getattr(fmlat, module), name)
    assert set(fmlat.__all__) <= set(dir(fmlat))
    with pytest.raises(AttributeError):
        fmlat.nope


def test_outside_integers_have_one_grammar():
    # text from the command line and surface files is read by
    # linalg.parse_int; int() would also take "1_0" and non-ASCII digits
    second_grammar = []
    for name in ("cli.py", "chow.py"):
        path = pathlib.Path(fmlat.__file__).parent / name
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and (
                    isinstance(node.func, ast.Name) and node.func.id == "int"
                    or any(kw.arg == "type" and isinstance(kw.value, ast.Name)
                           and kw.value.id == "int" for kw in node.keywords)):
                second_grammar.append(f"{name}:{node.lineno}")
    assert second_grammar == []


def test_every_verify_case_is_built_by_one_constructor():
    # a case's verdict is derived from its two printed sides, so a second
    # constructor could only print one thing and decide by another
    calls = []
    for path in sorted(pathlib.Path(fmlat.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        # ast.walk is breadth-first, so an inner function overwrites its outer
        owner = {id(node): func.name for func in ast.walk(tree)
                 if isinstance(func, ast.FunctionDef) for node in ast.walk(func)}
        calls += [f"{path.name}:{owner.get(id(node), '<module>')}"
                  for node in ast.walk(tree) if isinstance(node, ast.Call)
                  and getattr(node.func, "id", getattr(node.func, "attr", None))
                  == "VerifyCase"]
    assert calls == ["verify.py:_case"]


def test_the_search_window_is_its_only_check():
    # sd_check's margins are exactly (a.below - c, c - a.above), so a
    # targeted search states its check once, as its c-window; a second
    # statement could only cost a report per hit. The (c, a, e) loop that
    # builds the hits is sd._admissible's; search_phi only lists it.
    path = pathlib.Path(fmlat.__file__).parent / "sd.py"
    search = next(node for node in ast.parse(path.read_text(encoding="utf-8")).body
                  if isinstance(node, ast.FunctionDef) and node.name == "_admissible")
    names = {getattr(node, "id", getattr(node, "attr", None))
             for node in ast.walk(search) if isinstance(node, (ast.Name, ast.Attribute))}
    assert "FM2" in names
    assert names & {"build_report", "sd_check", "SDReport", "passed"} == set()


def test_only_the_record_base_defines_value_semantics():
    # every value class inherits ==, hash, repr and immutability from
    # linalg._Record; a second definition could disagree with it
    methods = {"__eq__", "__hash__", "__repr__", "__setattr__"}
    found = []
    for path in sorted(pathlib.Path(fmlat.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and node.name != "_Record":
                found += [f"{path.name}:{node.name}.{item.name}" for item in node.body
                          if isinstance(item, ast.FunctionDef) and item.name in methods]
    assert found == []


def test_only_chow_derives_ring_facts():
    # operators and product read the K3's tables from chow._K3_RING; a fact
    # derived again in either could drift from the record's
    derivers = {"PAIR_TABLE", "todd", "dot", "fdeg", "chi_tensor", "pairing_gram"}
    found = []
    for name in ("operators.py", "product.py"):
        path = pathlib.Path(fmlat.__file__).parent / name
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("chow"):
                found += [f"{name}:{node.lineno}: {alias.name}" for alias in node.names
                          if alias.name in derivers]
            elif (isinstance(node, ast.Attribute) and node.attr in derivers
                  and getattr(node.value, "id", None) == "chow"):
                found.append(f"{name}:{node.lineno}: chow.{node.attr}")
    assert found == []


def test_only_the_cli_writes_documents():
    # the library returns plain values and cli turns them into text or
    # schema-1 JSON; a document built elsewhere would split that decision
    found = []
    for path in sorted(pathlib.Path(fmlat.__file__).parent.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and node.value == "schema":
                found.append(f"{path.name}:{node.lineno}: \"schema\"")
            elif isinstance(node, ast.FunctionDef) and node.name == "to_json":
                found.append(f"{path.name}:{node.lineno}: to_json")
    assert found == []


def test_each_result_is_rendered_in_one_place():
    # verify._case alone turns a side into text, and cli._report_json alone
    # decides the sd-check verdict words that the text then lays out
    where = {"verify.py": {"render_class", "render_product_class", "_mat_str"},
             "cli.py": {"_verdict"}}
    calls = set()
    for name, renderers in where.items():
        tree = ast.parse((pathlib.Path(fmlat.__file__).parent / name)
                         .read_text(encoding="utf-8"))
        owner = {id(node): func.name for func in ast.walk(tree)
                 if isinstance(func, ast.FunctionDef) for node in ast.walk(func)}
        calls |= {f"{name}:{owner.get(id(node), '<module>')}"
                  for node in ast.walk(tree) if isinstance(node, ast.Call)
                  and getattr(node.func, "id", getattr(node.func, "attr", None))
                  in renderers}
    assert calls == {"verify.py:_case", "cli.py:_report_json"}
