"""Tests of the benchmark's own oracles, statistics and tracing.

    python3 -m pytest perfbench/tests
"""

import contextlib
import io
import random

import pytest

import fmlat.cli
import fmlat.operators
import run
import spans
import workloads
from workloads import Op


def cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = fmlat.cli.main(list(argv))
    return code, out.getvalue().encode(), err.getvalue().encode()


@pytest.mark.parametrize("lam, bound, target", [
    (lam, bound, target) for lam in (1, 2, 3) for bound in (3, 12, 30)
    for target in (None, (6, 0), (5, 1), (8, -1))])
def test_enumerator_agrees_with_cli_search(lam, bound, target):
    argv = ("search", "--lambda", str(lam), "--bound", str(bound))
    if target:
        argv += ("--dv", str(target[0]), "--dw", str(target[1]))
    expected = workloads.enumerate_phi(lam, bound, target)
    for as_json in (False, True):
        op = Op(argv + (("--json",) if as_json else ()))
        code, out, err = cli(op.argv)
        assert code == 0
        if not as_json:
            got = [tuple(int(x) for x in line.split()[0].split(","))
                   for line in out.decode().splitlines()]
            assert got == expected
        assert workloads.ORACLES["search"](op, out, err) == []


def test_search_oracle_rejects_a_missing_hit():
    op = Op(("search", "--lambda", "1", "--bound", "12"))
    code, out, err = cli(op.argv)
    lines = out.decode().splitlines(keepends=True)
    assert len(lines) > 1
    short = "".join(lines[1:]).encode()
    assert workloads.ORACLES["search"](op, short, err) != []


@pytest.mark.parametrize("n", [11, 12, 30, 100])
def test_tail_has_ten_samples_beyond(n):
    values = random.Random(n).sample(range(1000), n)
    value, pct, count = run.tail(values)
    assert count == n
    assert sum(v > value for v in values) == 10
    assert pct == pytest.approx(100 * (n - 10) / n)
    # one rank higher would leave only nine beyond
    higher = sorted(values)[n - 10]
    assert sum(v > higher for v in values) == 9


def test_tail_needs_eleven_samples():
    with pytest.raises(ValueError):
        run.tail([1.0] * 10)


def test_self_time_is_span_minus_children():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and b [5, 7]
    events = [("enter", "a", 0), ("enter", "b", 1), ("enter", "c", 2),
              ("exit", "c", 3), ("exit", "b", 4), ("enter", "b", 5),
              ("exit", "b", 7), ("exit", "a", 10)]
    clock = iter(t for _, _, t in events)
    tracer = spans.Tracer(clock=lambda: next(clock))
    for kind, name, _ in events:
        tracer.enter(name) if kind == "enter" else tracer.exit()
    assert dict(tracer.calls) == {"a": 1, "b": 2, "c": 1}
    assert dict(tracer.total_s) == {"a": 10, "b": 5, "c": 1}
    assert dict(tracer.self_s) == {"a": 10 - 3 - 2, "b": (3 - 1) + 2, "c": 1}
    assert sum(tracer.self_s.values()) == tracer.total_s["a"]


def test_installation_traces_layers_and_restores_them():
    original = fmlat.operators.build
    tracer = spans.Tracer()
    installed = spans.Installation(tracer)
    assert fmlat.cli.build is not original
    code, out, _ = cli(("matrix", "FM_Pd", "--d", "2"))
    installed.uninstall()
    assert code == 0 and out.startswith(b"FM_Pd(d=2) =")
    assert fmlat.operators.build is original and fmlat.cli.build is original
    assert tracer.calls["operators.build"] == 1
    assert tracer.calls["linalg.mat_mul"] >= 1
    assert tracer.calls["cli.main"] == 1 and tracer.counts["linalg.q"] > 0
    assert not tracer.stack


def test_parse_importtime():
    text = ("import time: self [us] | cumulative | imported package\n"
            "import time:       120 |        120 |     fmlat.errors\n"
            "import time:      3000 |       9000 |   json\n"
            "import time:       834 |     157323 | fmlat\n")
    assert spans.parse_importtime(text) == {"fmlat.errors": 120, "fmlat": 834}


def outcome(op, problems):
    return run.Outcome(op, op.expect_exit, 0.1, 0.1, 1000, problems)


def test_corrupted_digest_counts_as_failed():
    op = Op(("transform", "--matrix", "FM_Pd", "--d", "1", "--vector", "1,0,0,0"))
    out = b"0, -1, 0, 1\n"
    good = {op.id: workloads.sha256(out)}
    assert workloads.check(op, 0, out, b"", good) == []
    corrupted = {op.id: "0" * 64}
    problems = workloads.check(op, 0, out, b"", corrupted)
    assert problems == ["stdout digest differs from the reference"]
    assert run.verdict([outcome(op, problems)]) == (False, 1)


def test_known_defect_fails_but_is_expected():
    defect = workloads.QUERY_KINDS["defect"][0]
    err = b"Traceback (most recent call last):\nUnicodeDecodeError\n"
    problems = workloads.check(defect, 1, b"", err,
                               {defect.id: workloads.sha256(b"")})
    assert "traceback on stderr" in problems
    assert run.verdict([outcome(defect, problems)]) == (True, 1)


def test_hand_written_oracles_catch_wrong_values():
    op = Op(("chi", "--surface", "k3.cfg", "--v", "1,0,0,0", "--w", "1,0,0,0"))
    assert workloads.check(op, 0, b"3\n", b"", {op.id: workloads.sha256(b"3\n")})


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_blocks_are_seeded_and_drawn_from_the_catalog(workload):
    catalog = {op.id for op in workloads.CATALOGS[workload]()}
    draw = workloads.BLOCKS[workload]

    def stream(seed):
        rng = random.Random(seed)
        return [op for _ in range(3) for op in draw(rng)]

    assert stream(7) == stream(7) != stream(8)
    assert {op.id for op in stream(7)} <= catalog


def test_query_blocks_hold_one_known_defect_in_forty():
    block = workloads.query_block(random.Random(3))
    assert len(block) == 40
    assert sum(op.known_defect for op in block) == 1
