"""Operation catalogs, seeded block generators and output oracles.

Every workload is a finite catalog of `fmlat` command lines. A seed draws
operations from it in blocks of fixed composition, so two seeds differ in
which operations run and in their order, but not in the mix of operation
kinds and sizes. That keeps run-to-run spread low without pinning inputs.

Each operation is checked three ways: its exit code, the sha256 of its
stdout against the digest recorded in `reference.json`, and an oracle that
does not use the digest (an independent computation or a hand-written
expected value). A Python traceback on stderr is always a failure.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from typing import Callable, NamedTuple

WORKLOADS = ("verify-sweep", "search-enum", "query-mix")


class Op(NamedTuple):
    argv: tuple[str, ...]
    expect_exit: int = 0
    known_defect: bool = False

    @property
    def id(self) -> str:
        return " ".join(self.argv)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------- verify-sweep
# Range widths span the cost of a verify run from a quarter of 1..64 to all
# of it; every block holds each width once as text and once as --json.

VERIFY_WIDTHS = (16, 40, 64)


def _verify_op(lo: int, width: int, as_json: bool) -> Op:
    argv = ("verify", "--d-range", f"{lo}..{lo + width - 1}")
    return Op(argv + ("--json",) if as_json else argv)


def verify_catalog() -> list[Op]:
    return [_verify_op(lo, w, j) for w in VERIFY_WIDTHS
            for lo in range(1, 66 - w) for j in (False, True)]


def verify_block(rng: random.Random) -> list[Op]:
    block = [_verify_op(rng.randint(1, 65 - w), w, j)
             for w in VERIFY_WIDTHS for j in (False, True)]
    rng.shuffle(block)
    return block


def verify_cases(lo: int, hi: int) -> int:
    """Case count of `fmlat verify` for lo..hi: 11 per degree, 22 fixed."""
    return 11 * (hi - lo + 1) + 22


# ----------------------------------------------------------------- search-enum
# Six cells, one per lambda and target mode; half print --json. Bounds are
# set so the cells pair off by cost: two heavy lambda-1 cells at the top
# bound (one builds a multi-megabyte --json document), two middle and two
# light ones. The median then falls inside the middle pair and, with two
# heavy cells per block, the tail inside the heavy pair, so neither jumps
# between classes. The seed jitters each bound around its centre. Targets
# are fixed per lambda and all admit hits.

SEARCH_TARGETS = {1: (6, 0), 2: (5, 1), 3: (8, -1)}
SEARCH_CELLS = (  # (lambda, targeted, json, bound centre)
    (1, False, False, 210), (1, True, True, 210),
    (2, False, True, 170), (3, False, False, 200),
    (2, True, False, 130), (3, True, True, 130),
)
SEARCH_JITTER = (-4, -2, 0, 2, 4)


def _search_op(lam: int, targeted: bool, as_json: bool, bound: int) -> Op:
    argv = ("search", "--lambda", str(lam), "--bound", str(bound))
    if targeted:
        dv, dw = SEARCH_TARGETS[lam]
        argv += ("--dv", str(dv), "--dw", str(dw))
    return Op(argv + ("--json",) if as_json else argv)


def search_catalog() -> list[Op]:
    return [_search_op(lam, t, j, centre + dj)
            for lam, t, j, centre in SEARCH_CELLS for dj in SEARCH_JITTER]


def search_block(rng: random.Random) -> list[Op]:
    block = [_search_op(lam, t, j, centre + rng.choice(SEARCH_JITTER))
             for lam, t, j, centre in SEARCH_CELLS]
    rng.shuffle(block)
    return block


def enumerate_phi(lam: int, bound: int,
                  target: tuple[int, int] | None = None) -> list[tuple]:
    """Admissible (c, a, e, b) with entries bounded by `bound`, in (c, a, e)
    order, found without scanning every e.

    Determinant one forces gcd(a, c) = 1 and a.e = -1 (mod c), so the
    candidate e lie on one progression of step c. With a target the K3
    thresholds a.d_v > 2a + c and a.d_w > 2a - c must both hold.
    """
    hits = []
    for c in range(2, bound + 1):
        for a in range(1, c):
            if math.gcd(a, c) != 1:
                continue
            e0 = -pow(a, -1, c) % c
            first = e0 - c * ((e0 + bound) // c)
            for e in range(first, bound + 1, c):
                if e % lam:
                    continue
                b = (1 + a * e) // c
                if abs(b) > bound or -b <= a:
                    continue
                if target is not None:
                    dv, dw = target
                    if a * dv - (2 * a + c) <= 0 or a * dw - (2 * a - c) <= 0:
                        continue
                hits.append((c, a, e, b))
    return hits


# ------------------------------------------------------------------- query-mix
# Short commands where start-up dominates. The surface files are written by
# the benchmark at set-up (see SURFACE_FILES). The invalid inputs follow the
# README's error classes and must exit 2 with a message, never a traceback.
# The non-UTF-8 surface file is a known defect: today it exits 1 with a
# traceback, and it stays in the mix so that the defect shows.

K3_CFG = """\
name = standard-k3
chi_O = 2
basis = sigma, f
gram = -2 1; 1 0
fiber = 0 1
section = 1 0
canonical = 0 0
lambda = 1
"""

SURFACE_FILES = {
    "k3.cfg": K3_CFG.encode(),
    "unknown-key.cfg": (K3_CFG + "genus = 1\n").encode(),
    "latin1.cfg": K3_CFG.replace("standard-k3", "k3-é").encode("latin-1"),
}

_MATRIX_NO_D = ("TensorSigma", "PiPushPull", "PiPushPullSigma", "A_S",
                "A_Sprime", "B_S")
_MATRIX_D = ("TensorL1", "Tw_d", "FM_Pd", "FM_Fd")
_DIVISORS = ("1,0", "0,1", "1,3", "2,-1")


def _both(argv: tuple[str, ...], expect_exit: int = 0) -> list[Op]:
    return [Op(argv, expect_exit), Op(argv + ("--json",), expect_exit)]


def _query_kinds() -> dict[str, list[Op]]:
    matrix = []
    for name in _MATRIX_NO_D:
        matrix += _both(("matrix", name))
    for name in _MATRIX_D:
        for d in range(1, 7):
            matrix += _both(("matrix", name, "--d", str(d)))
    for div in _DIVISORS:
        matrix += _both(("matrix", "A_TL", "--divisor", div))

    transform = []
    for d in range(1, 5):
        transform += _both(("transform", "--matrix", "FM_Pd", "--d", str(d),
                            "--vector", "1,0,0,0"))
        transform += _both(("transform", "--matrix", "FM_Fd", "--d", str(d),
                            "--vector", "1,0,-1,2"))
    transform += _both(("transform", "--matrix", "TensorSigma",
                        "--vector", "1/2,0,0,0"))
    transform += _both(("transform", "--matrix", "B_S", "--vector", "1,2"))
    transform += _both(("transform", "--matrix", "A_TL", "--divisor", "1,3",
                        "--vector", "1,0,0,-1/2"))

    chi = []
    for v, w in (("1,0,0,-2", "1,0,0,0"), ("1,0,0,0", "1,0,0,0"),
                 ("1,0,0,-1/2", "1,1,0,0"), ("1,1,4,0", "1,0,0,-2"),
                 ("2,1,-1,3", "1,0,1,0"), ("1/3,0,0,0", "1,0,0,0")):
        chi += _both(("chi", "--surface", "k3.cfg", "--v", v, "--w", w))

    sd = []
    worked = ("sd-check", "--phi", "3,1,-7,-2", "--dw", "0")
    sd += _both(worked + ("--dv", "6"))
    sd += _both(worked + ("--dv", "5"), expect_exit=1)
    sd += _both(worked + ("--dv", "6", "--theorem", "general",
                          "--tv", "2", "--tw", "2"))
    pair = ("--surface", "k3.cfg", "--v", "1,0,0,-2", "--w", "1,1,4,0",
            "--attest-no-higher-cohomology")
    sd += _both(worked + ("--dv", "6") + pair)
    # defaulted moduli dimensions miss the general thresholds: exit 1
    sd += _both(worked + ("--dv", "6", "--theorem", "general") + pair,
                expect_exit=1)
    sd += _both(("sd-check", "--phi", "5,2,-8,-3", "--dv", "8", "--dw", "0"))

    invalid = [Op(argv, 2) for argv in (
        ("matrix", "Nope"),
        ("matrix", "FM_Pd"),
        ("matrix", "A_TL", "--divisor", "1"),
        ("transform", "--matrix", "FM_Pd", "--d", "1", "--vector", "1,0"),
        ("transform", "--matrix", "FM_Pd", "--d", "1", "--vector", "1,x,0,0"),
        ("chi", "--v", "1,0,0,0", "--w", "1,0,0,0"),
        ("chi", "--surface", "missing.cfg", "--v", "1,0,0,0", "--w", "1,0,0,0"),
        ("chi", "--surface", "unknown-key.cfg", "--v", "1,0,0,0",
         "--w", "1,0,0,0"),
        ("chi", "--surface", "k3.cfg", "--v", "1,0,0", "--w", "1,0,0,0"),
        ("sd-check", "--phi", "1,1,1,1", "--dv", "6", "--dw", "0"),
        ("sd-check", "--phi", "1,1,0,1", "--dv", "6", "--dw", "0"),
        ("sd-check", "--phi", "1,2,3", "--dv", "6", "--dw", "0"),
        ("sd-check", "--phi", "3,1,-7,-2", "--dv", "6", "--dw", "0",
         "--theorem", "general"),
        ("sd-check", "--dv", "6", "--dw", "0"),
        ("verify", "--d-range", "0..5"),
        ("verify", "--d-range", "1..65"),
        ("search", "--bound", "10", "--dv", "6"),
        ("search", "--bound", "0"),
        ("frobnicate",),
    )]

    defect = [Op(("chi", "--surface", "latin1.cfg", "--v", "1,0,0,0",
                  "--w", "1,0,0,0"), 2, known_defect=True)]
    return {"matrix": matrix, "transform": transform, "chi": chi, "sd": sd,
            "invalid": invalid, "defect": defect}


QUERY_KINDS = _query_kinds()
# Operations of each kind per block of 40: one in 40 is the known defect.
QUERY_MIX = {"matrix": 14, "transform": 6, "chi": 5, "sd": 6, "invalid": 8,
             "defect": 1}


def query_catalog() -> list[Op]:
    return [op for ops in QUERY_KINDS.values() for op in ops]


def query_block(rng: random.Random) -> list[Op]:
    block = [rng.choice(QUERY_KINDS[kind])
             for kind, n in QUERY_MIX.items() for _ in range(n)]
    rng.shuffle(block)
    return block


# --------------------------------------------------------------------- oracles
# Hand-written expectations from the README and its worked examples.

_EXPECTED_TEXT = {
    "transform --matrix FM_Pd --d 1 --vector 1,0,0,0": "0, -1, 0, 1\n",
    "transform --matrix B_S --vector 1,2": "1, -2\n",
    "chi --surface k3.cfg --v 1,0,0,-2 --w 1,0,0,0": "0\n",
    "chi --surface k3.cfg --v 1,0,0,0 --w 1,0,0,0": "2\n",
}
_EXPECTED_PARTS = {
    "sd-check --phi 3,1,-7,-2 --dw 0 --dv 6": (
        "rk_xi_v = 3   rk_phi_w = 3", "k3: pass", "threshold margins (1, 1)"),
    "sd-check --phi 3,1,-7,-2 --dw 0 --dv 5": ("k3: fail",),
    "sd-check --phi 3,1,-7,-2 --dw 0 --dv 6 --surface k3.cfg --v 1,0,0,-2 "
    "--w 1,1,4,0 --attest-no-higher-cohomology": (
        "orthogonal = True   base_case = True", "k3: pass"),
    "sd-check --phi 3,1,-7,-2 --dw 0 --dv 6 --theorem general --surface k3.cfg "
    "--v 1,0,0,-2 --w 1,1,4,0 --attest-no-higher-cohomology": (
        "general: fail", "defaulted to the K3 moduli dimension formula"),
}


def _check_verify(op: Op, out: bytes, err: bytes) -> list[str]:
    lo, hi = (int(x) for x in op.argv[2].split(".."))
    n = verify_cases(lo, hi)
    text = out.decode()
    if "--json" in op.argv:
        doc = json.loads(text)
        ids = [case["id"] for case in doc["cases"]]
        ok = (doc["schema"] == 1 and doc["d_range"] == [lo, hi]
              and doc["passed"] == n and doc["failed"] == 0
              and len(set(ids)) == n and all(c["pass"] for c in doc["cases"]))
    else:
        lines = text.splitlines()
        ok = (lines[0] == f"fmlat-verify  (d = {lo}..{hi})"
              and lines[-1] == f"summary: {n} passed, 0 failed"
              and sum(line.startswith("[PASS] ") for line in lines) == n
              and not any(line.startswith("[FAIL]") for line in lines))
    return [] if ok else [f"verify oracle: expected {n} passing cases"]


def _search_args(op: Op) -> tuple[int, int, tuple[int, int] | None]:
    args = dict(zip(op.argv[1::2], op.argv[2::2]))
    target = None
    if "--dv" in args:
        target = (int(args["--dv"]), int(args["--dw"]))
    return int(args["--lambda"]), int(args["--bound"]), target


def _check_search(op: Op, out: bytes, err: bytes) -> list[str]:
    lam, bound, target = _search_args(op)
    expected = enumerate_phi(lam, bound, target)
    if "--json" in op.argv:
        doc = json.loads(out)
        got = [tuple(hit["phi"]) for hit in doc["hits"]]
        reports = [hit["report"] for hit in doc["hits"]]
        if doc["lambda"] != lam or doc["bound"] != bound:
            return ["search oracle: wrong lambda or bound echoed"]
    else:
        lines = out.decode().splitlines()
        got = [tuple(int(x) for x in line.split()[0].split(",")) for line in lines]
        reports = [line.split()[1:] for line in lines]
        if err.decode().strip() != f"# {len(expected)} hit(s)":
            return ["search oracle: wrong hit count on stderr"]
    if got != expected:
        return [f"search oracle: {len(got)} hits, independent enumeration "
                f"gives {len(expected)}"]
    if target is None:
        return [] if all(r in (None, []) for r in reports) else \
            ["search oracle: untargeted hit carries a report"]
    dv, dw = target
    for (c, a, e, b), rep in zip(got, reports):
        ranks = (a * dv - c, c + a * dw)
        if isinstance(rep, dict):
            ok = ((rep["rk_xi_v"], rep["rk_phi_w"]) == ranks
                  and rep["checks"]["k3"] == "pass"
                  and rep["margins"]["k3"]["threshold"] ==
                  [a * dv - 2 * a - c, a * dw - 2 * a + c])
        else:
            ok = rep == [f"rk_xi_v={ranks[0]}", f"rk_phi_w={ranks[1]}"]
        if not ok:
            return [f"search oracle: wrong report for {(c, a, e, b)}"]
    return []


def _check_error(op: Op, out: bytes, err: bytes) -> list[str]:
    first = err.decode().lstrip().split(":", 1)[0]
    ok = not out and first in ("error", "usage")
    return [] if ok else ["expected an error message and no stdout"]


def _check_query(op: Op, out: bytes, err: bytes) -> list[str]:
    text = out.decode()
    key = op.id
    if key in _EXPECTED_TEXT and text != _EXPECTED_TEXT[key]:
        return [f"expected {_EXPECTED_TEXT[key]!r}"]
    for part in _EXPECTED_PARTS.get(key, ()):
        if part not in text:
            return [f"expected {part!r} in the output"]
    if "--json" in op.argv:
        doc = json.loads(text)
        if doc.get("schema") != 1:
            return ["JSON document without schema 1"]
        if key == "sd-check --phi 3,1,-7,-2 --dw 0 --dv 6 --json":
            if (doc["checks"]["k3"], doc["margins"]["k3"]["threshold"]) != \
                    ("pass", [1, 1]):
                return ["worked sd-check example does not pass with (1, 1)"]
        if op.argv[0] == "matrix":
            size = 2 if op.argv[1] == "B_S" else 4
            if doc["name"] != op.argv[1] or len(doc["matrix"]) != size:
                return ["matrix document has the wrong name or shape"]
            if op.argv[1] == "FM_Pd":
                d = int(op.argv[3])
                top = [row[:2] for row in doc["matrix"][:2]]
                if top != [[0, 1], [-1, d]]:
                    return ["FM_Pd does not reduce to [[0,1],[-1,d]]"]
    return []


ORACLES: dict[str, Callable[[Op, bytes, bytes], list[str]]] = {
    "verify": _check_verify,
    "search": _check_search,
}
CATALOGS = {"verify-sweep": verify_catalog, "search-enum": search_catalog,
            "query-mix": query_catalog}
BLOCKS = {"verify-sweep": verify_block, "search-enum": search_block,
          "query-mix": query_block}


def check(op: Op, exit_code: int, out: bytes, err: bytes,
          reference: dict[str, str]) -> list[str]:
    """Every problem with one operation's result; empty means it passed."""
    problems = []
    if exit_code != op.expect_exit:
        problems.append(f"exit {exit_code}, expected {op.expect_exit}")
    if b"Traceback (most recent call last)" in err:
        problems.append("traceback on stderr")
    digest = reference.get(op.id)
    if digest is None:
        problems.append("no recorded reference digest")
    elif sha256(out) != digest:
        problems.append("stdout digest differs from the reference")
    if not problems:
        oracle = _check_error if op.expect_exit == 2 else \
            ORACLES.get(op.argv[0], _check_query)
        try:
            problems += oracle(op, out, err)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            problems.append(f"unparseable output: {exc!r}")
    return problems
