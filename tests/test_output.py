"""How the CLI writes to stdout: the JSON writer, a reader that closes the
pipe early, and the memory a large search or verify needs."""

import contextlib
import io
import json
import os
import pathlib
import statistics
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fmlat
from fmlat.cli import _write_json

SRC = str(pathlib.Path(fmlat.__file__).parent.parent)
CHILD_ENV = {**os.environ, "PYTHONPATH": SRC}


def written(doc) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _write_json(doc)
    return out.getvalue()


_STRS = st.text() | st.text(alphabet='"\\/\x00\x1f\x7f\n\té \U0001f600')
_SCALARS = (st.none() | st.booleans() | st.integers()
            | st.integers(min_value=-2 ** 300, max_value=2 ** 300) | _STRS)
_DOCS = st.recursive(
    _SCALARS,
    lambda kids: (st.lists(kids, max_size=5) | st.lists(kids, max_size=5).map(tuple)
                  | st.dictionaries(_STRS, kids, max_size=5)),
    max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(doc=_DOCS)
@example(doc={})
@example(doc=[[], {}, ()])
@example(doc={"phi": [3, 1, -7, -2], "notes": [], "margins": {"general": None}})
@example(doc=[True, False, 1, 0, -1])
def test_writer_matches_json_dumps(doc):
    assert written(doc) == json.dumps(doc, indent=2) + "\n"


@settings(max_examples=100, deadline=None)
@given(items=st.lists(_DOCS, max_size=6))
@example(items=[])
def test_iterator_prints_like_its_list(items):
    expected = written({"hits": items})
    assert written({"hits": iter(items)}) == expected
    assert written({"hits": map(lambda x: x, items)}) == expected
    assert written(iter(items)) == written(items)
    assert written([iter(items)]) == json.dumps([items], indent=2) + "\n"


def test_iterator_elements_are_written_as_they_come():
    out = io.StringIO()
    seen = []

    def hits():
        for i in range(3):
            seen.append(out.getvalue())
            yield {"i": i}

    with contextlib.redirect_stdout(out):
        _write_json({"hits": hits()})
    assert seen[0] == ""
    assert seen[1].endswith('"i": 0\n    }')
    assert seen[2].endswith('"i": 1\n    }')
    assert json.loads(out.getvalue()) == {"hits": [{"i": i} for i in range(3)]}


def test_list_elements_are_written_as_they_come():
    out = io.StringIO()
    seen = []

    def probe():
        seen.append(out.getvalue())
        yield 1

    with contextlib.redirect_stdout(out):
        _write_json({"cases": [{"id": "a"}, {"id": "b", "sides": probe()}]})
    # the first element is on stdout before the second is encoded
    assert seen[0].endswith('"id": "a"\n    }')
    assert json.loads(out.getvalue()) == {
        "cases": [{"id": "a"}, {"id": "b", "sides": [1]}]}


@pytest.mark.parametrize("bad", [1.5, 0.0, Fraction(1, 2), {1, 2}, frozenset(),
                                 b"x", object(), {1: "int key"}])
def test_writer_rejects_other_types(bad):
    for doc in (bad, [bad], {"x": bad}, {"hits": iter([bad])}):
        with pytest.raises(TypeError):
            written(doc)


# a reader that stops early

@pytest.mark.parametrize("json_flag", [(), ("--json",)])
def test_closed_pipe_exits_141_without_traceback(json_flag):
    # about 13,000 hits: far more than a pipe buffers, so the writer is
    # still writing when the reader goes away
    proc = subprocess.Popen(
        [sys.executable, "-m", "fmlat.cli", "search", "--lambda", "1",
         "--bound", "210", *json_flag],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=CHILD_ENV)
    assert proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 141
    assert b"Traceback" not in err and b"Exception" not in err


@pytest.mark.parametrize("argv", [("--help",), ("sd-check", "-h")])
def test_help_to_a_closed_pipe_exits_141_without_traceback(argv):
    # the reader is gone before the child starts, so the help's first write
    # fails; stdout stays block-buffered, as it is for an installed fmlat
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {k: v for k, v in CHILD_ENV.items() if k != "PYTHONUNBUFFERED"}
    try:
        proc = subprocess.run([sys.executable, "-m", "fmlat.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE, env=env,
                              timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert b"Traceback" not in proc.stderr and b"Exception" not in proc.stderr


# memory

# A small launcher spawns each Python command line it is given (one argument
# each, split on tabs) with stdout on os.devnull and reads that child's
# own peak RSS from wait4. A child's ru_maxrss starts at the peak of the
# process that spawned it, so the launcher must stay smaller than the
# children, which rules out spawning them from this test process;
# RUSAGE_CHILDREN would keep the maximum over every earlier child.
_PEAK_RSS = """
import os, sys
null = os.open(os.devnull, os.O_WRONLY)
for command in sys.argv[1:]:
    argv = [sys.executable, *command.split("\\t")]
    pid = os.posix_spawn(sys.executable, argv, os.environ,
                         file_actions=[(os.POSIX_SPAWN_DUP2, null, 1)])
    _, status, usage = os.wait4(pid, 0)
    print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def peak_rss_kib(env, *commands) -> list[tuple[int, int]]:
    """(exit code, peak RSS in KiB) of each command, run one at a time with
    env: an fmlat command line, or a tuple of arguments to Python itself."""
    argvs = ["\t".join(c if isinstance(c, tuple) else ("-m", "fmlat.cli", *c.split()))
             for c in commands]
    done = subprocess.run([sys.executable, "-S", "-c", _PEAK_RSS, *argvs],
                          capture_output=True, text=True, env=env,
                          timeout=120, check=True)
    return [tuple(map(int, line.split())) for line in done.stdout.splitlines()]


@pytest.fixture(scope="module")
def cached_env(tmp_path_factory):
    """CHILD_ENV with bytecode cached in a fresh directory, warmed once, as
    for an installed fmlat. Without a cache every child compiles the package
    from source, and that transient peaks about 0.6 MiB above the import."""
    env = {k: v for k, v in CHILD_ENV.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = str(tmp_path_factory.mktemp("pycache"))
    assert peak_rss_kib(env, ("-c", "import fmlat.cli"))[0][0] == 0
    return env


def test_large_json_search_peak_rss_stays_near_a_small_one(cached_env):
    search = "search --lambda 1 --dv 6 --dw 0 --json --bound"
    (small_exit, small_kib), (large_exit, large_kib) = peak_rss_kib(
        cached_env, f"{search} 8", f"{search} 210")
    assert (small_exit, large_exit) == (0, 0)
    # 3,248 hits and 2.5 MB of JSON at bound 210; the report dicts and the
    # text once took about 24 MiB more than bound 8
    assert large_kib - small_kib < 6 * 1024


def test_untargeted_search_peak_rss_stays_near_a_small_one(cached_env):
    search = "search --lambda 1 --bound"
    (small_exit, small_kib), (large_exit, large_kib) = peak_rss_kib(
        cached_env, f"{search} 8", f"{search} 214")
    assert (small_exit, large_exit) == (0, 0)
    # 13,548 hits at bound 214: streamed one at a time they add about
    # 0.05 MiB; held in a list until printed they added about 1 MiB
    assert large_kib - small_kib < 512


@pytest.mark.parametrize("json_flag", ["", " --json"], ids=["text", "json"])
def test_search_at_the_cap_peaks_near_a_small_one(json_flag, cached_env):
    search = f"search --lambda 1{json_flag} --bound"
    (small_exit, small_kib), (large_exit, large_kib) = peak_rss_kib(
        cached_env, f"{search} 8", f"{search} 1000")
    assert (small_exit, large_exit) == (0, 0)
    # 302,194 hits at the cap: streamed they add about 0.1 MiB; held in a
    # list until printed they added about 28 MiB
    assert large_kib - small_kib < 1024


@pytest.mark.parametrize("json_flag", ["", " --json"], ids=["text", "json"])
def test_verify_peak_rss_does_not_grow_with_the_degree_range(json_flag):
    # uncached on purpose: the 512 KiB bound below was set with every child
    # compiling the package, whose transient also lifts the 1..1 run's peak;
    # with warm bytecode the same median reads about 500 to 590 KiB, since
    # run_verify holds all of its cases until the end (ROADMAP item 8)
    runs = peak_rss_kib(CHILD_ENV, *(f"verify --d-range 1..{hi}{json_flag}"
                                     for _ in range(5) for hi in (1, 64)))
    assert {code for code, _ in runs} == {0}
    growth = statistics.median(large - small for (_, small), (_, large)
                               in zip(runs[::2], runs[1::2]))
    # 726 cases and 186 kB of JSON over 1..64: the cases themselves take
    # about 0.3 MiB. The whole document once took about 1.2 MiB more than
    # 1..1, and every degree's operators and tables kept to the end, with
    # two strings per passing case, about 0.6 MiB. One pair of runs spreads
    # by about 0.3 MiB, and the median of three pairs still spread from about
    # 250 to 490 KiB between repeats of the same code, so the median of five
    # pairs is compared.
    assert growth < 512


def test_parsing_a_command_line_costs_little_memory(cached_env):
    matrix = "matrix FM_Pd --d 2"
    runs = peak_rss_kib(cached_env, *(command for _ in range(5) for command in
                                      (("-c", "import fmlat.verify"), matrix)))
    assert {code for code, _ in runs} == {0}
    extra = statistics.median(cli - imported for (_, imported), (_, cli)
                              in zip(runs[::2], runs[1::2]))
    # runpy, fmlat.cli (which imports json only for a string that needs an
    # escape) and one small command peak 0.1 to 0.3 MiB above the package
    # import (medians of four repeats);
    # with argparse, the gettext lookup that imports locale and a built
    # six-command parser, the same call peaked about 0.9 MiB above it
    assert extra < 384
