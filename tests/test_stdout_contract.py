"""Every benchmark catalog operation keeps its exit code and stdout bytes.

Runs each operation of the verify-sweep, search-enum and query-mix catalogs
in-process through `fmlat.cli.main`, in a directory holding the workloads'
surface files, and compares the exit code with the operation's expected one
and the sha256 of stdout with the digest in `perfbench/reference.json`.
Nothing under `perfbench/` is written.
"""

import json
import sys
from pathlib import Path

import pytest

from fmlat.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import workloads  # noqa: E402

REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())
CATALOG = [(name, op) for name in workloads.WORKLOADS
           for op in workloads.CATALOGS[name]()]


@pytest.fixture(scope="module")
def surface_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("surfaces")
    for name, data in workloads.SURFACE_FILES.items():
        (root / name).write_bytes(data)
    return root


def test_catalog_covers_every_reference_digest():
    assert len(CATALOG) == 314
    for name in workloads.WORKLOADS:
        assert sorted(op.id for op in workloads.CATALOGS[name]()) == \
            sorted(REFERENCE[name])


@pytest.mark.parametrize("workload, op", CATALOG,
                         ids=[f"{name}: {op.id}" for name, op in CATALOG])
def test_catalog_operation_stdout_is_unchanged(workload, op, surface_dir,
                                               monkeypatch, capsys):
    monkeypatch.chdir(surface_dir)
    monkeypatch.delenv("FMLAT_SURFACE", raising=False)
    try:
        code = main(list(op.argv))
    except SystemExit as exc:   # argparse usage errors
        code = exc.code
    out = capsys.readouterr().out.encode()
    assert code == op.expect_exit
    assert workloads.sha256(out) == REFERENCE[workload][op.id]
