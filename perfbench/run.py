"""Benchmark of the fmlat CLI: end to end, and layer by layer when traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree that holds `src/fmlat`. Workloads are
listed in BENCHMARK.json; their operations are generated from the seed in
`workloads.py`.

--trace 0 drives the CLI as a user does: one fresh `python3` process per
operation, started the way the `fmlat` console script starts, one at a
time (a closed loop with one client). It runs a fixed number of whole
blocks, about --seconds worth (see BLOCK_S), and checks every output. Throughput, median latency and CPU time are taken per block, and a
run reports the quartile of its blocks on the quiet side (see timed_run);
the tail is taken over all operations.

--trace 1 runs the same kind of operations in this process through
`fmlat.cli.main(argv)`: the same operations as --trace 0, each once
untraced and once with every public function of the layer modules wrapped
(see spans.py).
Before the block comes one small call of each command (PROBE), so every
layer has run at least once and no layer time reads exactly zero. It also
times `import fmlat.cli` per module with `python -X importtime`.

Bytecode goes to a cache directory under .bench_build/ that the benchmark
owns, never under src/. An untimed warm-up fills it before anything is
timed; `setup_cold_s` in the report is the one import timed with an empty
cache.

The last line of stdout is the result object; the line before it is a
fuller report (stamps, failed_ratio, tail percentile and sample count,
failures).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

import spans
import workloads
from workloads import Op

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
REFERENCE = HERE / "reference.json"
BENCHMARK = ROOT / "BENCHMARK.json"

# The same start-up as the `fmlat` console script.
CLI = "import sys; from fmlat.cli import main; sys.exit(main())"
SETUP_SAMPLES = 5
# Seconds one block took at the commit that added the benchmark (2 vCPUs,
# Python 3.11). A run is --seconds worth of blocks at that pace, a fixed
# count, so every run of a workload does the same work and the tail falls
# at the same rank; a faster program finishes sooner.
BLOCK_S = {"verify-sweep": 3.6, "search-enum": 3.2, "query-mix": 4.0}
MIN_BLOCKS = 4
IMPORTTIME_SAMPLES = 5
OP_TIMEOUT_S = 120
# One small call of each command, run before the traced block.
PROBE = (
    Op(("verify", "--d-range", "1..1")),
    Op(("search", "--lambda", "1", "--bound", "8", "--dv", "6", "--dw", "0")),
    Op(("chi", "--surface", "k3.cfg", "--v", "1,0,0,-2", "--w", "1,0,0,0")),
    Op(("matrix", "FM_Pd", "--d", "2")),
)
FMLAT_MODULES = ("fmlat", "fmlat.errors", "fmlat.linalg", "fmlat.chow",
                 "fmlat.bridgeland", "fmlat.operators", "fmlat.product",
                 "fmlat.sd", "fmlat.verify", "fmlat.cli")
# Span metrics: (span name, calls?, self time?) as listed in BENCHMARK.json.
SPAN_METRICS = (
    ("linalg.Mat", True, True), ("linalg.mat_mul", True, True),
    ("linalg.inverse", True, False),
    ("chow.mult", True, True), ("chow.dot", True, False),
    ("chow.chi_tensor", True, False), ("chow.load_surface", False, True),
    ("product.prod_mult", True, True), ("product.kernel_class", False, True),
    ("product.fm_matrix", False, True),
    ("operators.build", True, True), ("operators.golden", False, True),
    ("operators.op_tensor", True, False), ("operators.op_pi_tensor", True, False),
    ("verify.run_verify", False, True),
    ("sd.search_phi", False, True), ("sd.sd_check", True, False),
    ("sd.build_report", True, False),
    ("bridgeland.FM2", True, False), ("bridgeland.canonical_ab", False, True),
    ("cli.main", False, True),
)


class Outcome(NamedTuple):
    op: Op
    exit: int
    wall_s: float
    cpu_s: float
    rss_kib: int
    problems: list[str]


# ------------------------------------------------------------------ processes

def child_env(pycache: Path) -> dict[str, str]:
    """The caller's environment without PYTHON* settings or a default
    surface file, with the source tree on the path and our bytecode cache."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON") and k != "FMLAT_SURFACE"}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(pycache)
    return env


class Launched(NamedTuple):
    exit: int
    wall_s: float
    cpu_s: float
    rss_kib: int
    out: bytes
    err: bytes


class Launcher:
    """launcher.py as a child process: it runs `python3 ARGS` for us in the
    working directory and reports exit code, wall time, CPU time and peak
    RSS of each run."""

    def __init__(self, env: dict[str, str]):
        self.proc = subprocess.Popen(
            [sys.executable, "-E", "-S", "-B", str(HERE / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True)

    def run(self, args: list[str]) -> Launched:
        self.proc.stdin.write(json.dumps(args) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the launcher exited")
        reply = json.loads(line)
        return Launched(reply["exit"], reply["wall_s"], reply["cpu_s"],
                        reply["rss_kib"], Path("stdout.bin").read_bytes(),
                        Path("stderr.bin").read_bytes())

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=OP_TIMEOUT_S)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()


def run_op(launcher: Launcher, op: Op, reference) -> Outcome:
    r = launcher.run(["-c", CLI, *op.argv])
    problems = workloads.check(op, r.exit, r.out, r.err, reference)
    return Outcome(op, r.exit, r.wall_s, r.cpu_s, r.rss_kib, problems)


def prepare() -> None:
    WORK.mkdir(parents=True, exist_ok=True)
    for name, data in workloads.SURFACE_FILES.items():
        (WORK / name).write_bytes(data)
    os.chdir(WORK)


def load_reference(section: str) -> dict[str, str]:
    return json.loads(REFERENCE.read_text())[section]


# -------------------------------------------------------------------- metrics

def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile that still has at least ten samples beyond it.

    Returns (value, percentile, sample count). With n samples the value is
    the (n - 10)-th smallest, at percentile 100 (n - 10) / n.
    """
    n = len(values)
    if n < 11:
        raise ValueError(f"a tail needs at least 11 samples, got {n}")
    return sorted(values)[n - 11], 100.0 * (n - 10) / n, n


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "fmlat").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def stamps(args, loadavg) -> dict:
    ops = [op for block in generate(args) for op in block]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "git_commit": git_commit(),
        "src_sha256": source_digest(), "loadavg_1m_at_start": loadavg,
        "ops": len(ops),
        "ops_sha256": workloads.sha256("\n".join(op.id for op in ops).encode()),
    }


def failure_summary(outcomes: list[Outcome]) -> dict:
    failed = [o for o in outcomes if o.problems]
    by_op: dict[str, dict] = {}
    for o in failed:
        entry = by_op.setdefault(o.op.id, {"op": o.op.id, "count": 0,
                                           "exit": o.exit,
                                           "problems": o.problems})
        entry["count"] += 1
    return {
        "failed_ratio": metric(len(failed) / len(outcomes), "1"),
        "known_defect_failures": sum(o.op.known_defect for o in failed),
        "failures": list(by_op.values()),
    }


def generate(args) -> list[list[Op]]:
    """The run's blocks of operations, from the workload and the seed."""
    rng = random.Random(f"{args.workload}:{args.seed}")
    count = max(MIN_BLOCKS, round(args.seconds / BLOCK_S[args.workload]))
    return [workloads.BLOCKS[args.workload](rng) for _ in range(count)]


def verdict(outcomes: list[Outcome]) -> tuple[bool, int]:
    """(correct, failed). A known defect counts as failed, but only an
    unexpected failure makes the run incorrect."""
    failed = [o for o in outcomes if o.problems]
    return all(o.op.known_defect for o in failed), len(failed)


# ---------------------------------------------------------------- timed run

def timed_run(args, reference) -> tuple[dict, dict, list[Outcome]]:
    cold_cache = WORK / "pycache-cold"
    shutil.rmtree(cold_cache, ignore_errors=True)
    with Launcher(child_env(cold_cache)) as launcher:
        cold = launcher.run(["-c", "import fmlat.cli"]).wall_s
    shutil.rmtree(cold_cache)

    blocks: list[list[Outcome]] = []
    with Launcher(child_env(WORK / "pycache")) as launcher:
        warm = workloads.CATALOGS[args.workload]()[0]
        run_op(launcher, warm, reference)              # fills the cache

        def setup_sample() -> float:
            return launcher.run(["-c", "import fmlat.cli"]).wall_s

        setup = [setup_sample() for _ in range(SETUP_SAMPLES)]
        for block in generate(args):
            blocks.append([run_op(launcher, op, reference) for op in block])
            setup.append(setup_sample())

    # On a shared machine other tenants cause slow spells of several seconds
    # that cover up to half of a run. Blocks have the same composition, so
    # the quartile of blocks on the quiet side of the median gives a figure
    # that such spells do not move; the tail still sees them.
    per_block: dict[str, list[float]] = {}

    def quiet(name, fn, better: str) -> float:
        values = per_block[name] = [fn(b) for b in blocks]
        low, _, high = statistics.quantiles(values, n=4)
        return low if better == "lower" else high

    outcomes = [o for block in blocks for o in block]
    tail_s, tail_pct, n = tail([o.wall_s for o in outcomes])
    passed = sum(not o.problems for o in outcomes)
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        # Closed loop without think time: a block's wall time is the time
        # the client spent waiting on its operations; checking is excluded.
        "ops_per_s": metric(quiet("ops_per_s", lambda b: sum(not o.problems for o in b)
                                  / sum(o.wall_s for o in b), "higher"), "1/s"),
        "latency_p50_s": metric(quiet(
            "latency_p50_s", lambda b: statistics.median(o.wall_s for o in b), "lower"), "s"),
        "latency_tail_s": metric(tail_s, "s"),
        "cpu_s_per_op": metric(quiet(
            "cpu_s_per_op", lambda b: sum(o.cpu_s for o in b) / len(b), "lower"), "s"),
        "peak_rss_mb": metric(max(o.rss_kib for o in outcomes) / 1024, "MiB"),
        "ok_ratio": metric(passed / n, "1"),
    }
    extra = {"blocks": len(blocks), "per_block": per_block,
             "op_wall_s": [o.wall_s for o in outcomes],
             "latency_tail_percentile": tail_pct,
             "latency_samples": n, "setup_samples": len(setup),
             "setup_cold_s": metric(cold, "s")}
    return metrics, extra, outcomes


# --------------------------------------------------------------- traced run

def call_main(main, argv: tuple[str, ...]) -> tuple[int, bytes, bytes, bool]:
    """fmlat.cli.main(argv) with its output captured, as the process exit
    would report it. An exception that escapes main is printed as a
    traceback on the captured stderr, as the interpreter would print it."""
    out, err = io.StringIO(), io.StringIO()
    escaped = False
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = 0 if exc.code is None else \
                exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code, escaped = 1, True
    return code, out.getvalue().encode(), err.getvalue().encode(), escaped


def importtime_us() -> dict[str, float]:
    """Median self time of each fmlat module's import, bytecode cached."""
    with Launcher(child_env(WORK / "pycache")) as launcher:
        launcher.run(["-c", "import fmlat.cli"])       # fills the cache
        samples = [spans.parse_importtime(launcher.run(
            ["-X", "importtime", "-c", "import fmlat.cli"]).err.decode())
            for _ in range(IMPORTTIME_SAMPLES)]
    return {m: statistics.median(s.get(m, 0) for s in samples)
            for m in FMLAT_MODULES}


def traced_run(args, reference) -> tuple[dict, dict, list[Outcome]]:
    imports = importtime_us()

    sys.pycache_prefix = str(WORK / "pycache")
    sys.path.insert(0, str(SRC))
    import fmlat.cli
    if Path(fmlat.cli.__file__).resolve().parent != SRC / "fmlat":
        raise RuntimeError(f"imported fmlat from {fmlat.cli.__file__}")

    ops = [op for block in generate(args) for op in block]
    probe_ref = load_reference("probe")
    tracer = spans.Tracer()
    plain_s = traced_s = 0.0
    outcomes: list[Outcome] = []
    exit2 = escaped_count = 0
    for i, op in enumerate([*PROBE, *ops]):
        # Alternate which run goes first, so warm caches favour neither.
        for traced in ((False, True) if i % 2 else (True, False)):
            installed = spans.Installation(tracer) if traced else None
            start = time.perf_counter()
            code, out, err, escaped = call_main(fmlat.cli.main, op.argv)
            elapsed = time.perf_counter() - start
            if installed is None:
                plain_s += elapsed
                continue
            installed.uninstall()
            traced_s += elapsed
            exit2 += code == 2
            escaped_count += escaped
            problems = workloads.check(op, code, out, err,
                                       probe_ref if i < len(PROBE) else reference)
            outcomes.append(Outcome(op, code, elapsed, 0.0, 0, problems))

    metrics = {}
    for span, calls, self_time in SPAN_METRICS:
        if calls:
            metrics[f"{span}.calls"] = metric(tracer.calls[span], "count")
        if self_time:
            metrics[f"{span}.self_s"] = metric(tracer.self_s[span], "s")
    metrics["linalg.q.calls"] = metric(tracer.counts["linalg.q"], "count")
    for layer in spans.LAYERS:
        metrics[f"{layer}.self_s"] = metric(
            sum(v for k, v in tracer.self_s.items() if k.startswith(layer + ".")),
            "s")
    cases, hits = tracer.counts["verify.cases"], tracer.counts["sd.hits"]
    metrics["verify.cases"] = metric(cases, "count")
    metrics["verify.cases_per_s"] = metric(
        cases / tracer.total_s["verify.run_verify"], "1/s")
    metrics["sd.hits"] = metric(hits, "count")
    metrics["sd.hits_per_fm2"] = metric(hits / tracer.calls["bridgeland.FM2"], "1")
    for module, us in imports.items():
        metrics[f"import.{module}.self_us"] = metric(us, "us")
    metrics["cli.exit2.count"] = metric(exit2, "count")
    metrics["cli.traceback.count"] = metric(escaped_count, "count")
    metrics["trace.overhead_ratio"] = metric(traced_s / plain_s, "1")
    return metrics, {"probe_ops": len(PROBE)}, outcomes


# ----------------------------------------------------------------------- main

def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fmlat" / "cli.py").is_file():
        print(f"error: no fmlat sources at {SRC}", file=sys.stderr)
        return 2
    loadavg = os.getloadavg()[0]
    reference = load_reference(args.workload)
    prepare()
    run = traced_run if args.trace else timed_run
    metrics, extra, outcomes = run(args, reference)
    declared = json.loads(BENCHMARK.read_text())
    names = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    if sorted(names) != sorted(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json")
    correct, failed = verdict(outcomes)
    report = {**stamps(args, loadavg), **extra,
              **failure_summary(outcomes), "metrics": metrics}
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": correct, "attempted": len(outcomes),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
