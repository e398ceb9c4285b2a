"""The command line fuzzed from its own table, cli._COMMANDS.

Each argv names a command of the table and gives its positionals and flags
in shuffled order, each flag a value of its kind: an integer, a choice, a
switch or a text read by its metavar. Three draws in four use valid values
only, so that a good share reaches a handler's success path; the rest mix
in hostile atoms, unknown tokens, repeated flags and bad surface files. A
command that joins the table is fuzzed with it: its flags get the valid
values of their kind, or of their metavar when one is listed here.

Whatever the argv, main exits 0, 1 or 2 and lets nothing but SystemExit
out. A usage error writes nothing to stdout, and an FmlatError writes
nothing to stdout and one error: line, the last on stderr.
"""

import contextlib
import io

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fmlat.cli import _COMMANDS, _INT, EXIT_INPUT, main
from fmlat.operators import GoldenName

from helpers import K3_CFG

# valid integers by flag dest; a valid --bound is at most 60, so a search
# costs a few milliseconds, and the one larger bound among the hostile
# atoms, _BIG, is above sd.MAX_SEARCH_BOUND and rejected before any search
_INTS = {"lam": (1, 2), "bound": (1, 60), "d": (1, 12), "tv": (0, 4), "tw": (0, 4)}
_OTHER_INTS = (-12, 12)
# valid texts by metavar, and by name for a positional; "@name" is a file
# of the fuzz directory
_NAMES = tuple(name.value for name in GoldenName)
_TEXTS = {
    "LO..HI": ("1..1", "2", "64..64"),
    "S,T": ("1,0", "0,1", "1,3", "1/2,1", "-7/2,1"),
    "NAME": _NAMES,
    "name": _NAMES,
    "R,S,T,P": ("1,0,0,0", "0,1,0,1", "1/2,1,-3,2", "2,0,1,-1"),
    "R,...,P": ("1,0,0,0", "1,1,0,1", "1,0,1,-1", "1,0,1,0", "2,1,0,1"),
    "C,A,E,B": ("3,1,-7,-2", "3,1,-10,-3", "7,1,-36,-5", "5,2,-8,-3", "7,2,-18,-5"),
    "FILE": ("@k3.cfg",),
}
_OTHER_TEXTS = ("1", "1,0", "1,0,0,0")
_BIG = "9" * 4000                     # parses: under the 4,300-digit limit
_HOSTILE = ("", "=", "x", "1.5", "1/0", "0x10", "+4", " 3", "٣", "１",
            ",", "1,,2", "1,2,3,4,5,6", "a,b,c,d", "1/2/3,1", "--json", "-",
            _BIG, "-" + _BIG, "9" * 5000, "\udcff",
            "1,0,0,1,0", "@rank3.cfg", "@latin1.cfg", "@missing.cfg", "@empty.cfg", "@")
_STRAYS = ("--bogus", "stray", "-", "--", "-x", "-h", "--help=1")
_ODD_COMMANDS = ("", "bogus", "-h", "--help", "--json", "VERIFY")


def _value(draw, hostile: bool, valid) -> str:
    if hostile and draw(st.integers(0, 2)) == 0:
        return draw(st.sampled_from(_HOSTILE))
    return draw(valid)


def _valid(dest: str, kind) -> st.SearchStrategy:
    if kind == _INT:
        return st.integers(*_INTS.get(dest, _OTHER_INTS)).map(str)
    if isinstance(kind, tuple):
        return st.sampled_from(kind)
    return st.sampled_from(_TEXTS.get(kind, _OTHER_TEXTS))


@st.composite
def argvs(draw) -> list[str]:
    hostile = draw(st.integers(0, 3)) == 0
    if hostile and draw(st.integers(0, 9)) == 0:
        return draw(st.lists(st.sampled_from(_ODD_COMMANDS + _STRAYS), max_size=2))
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    _, _, positionals, flags = _COMMANDS[command]
    groups = [[_value(draw, hostile, st.sampled_from(_TEXTS.get(name, _OTHER_TEXTS)))]
              for name, _ in positionals]
    # optional flags: none, all, or each one in three; flags that go
    # together (--dv with --dw) are both given in the first two
    optional = draw(st.integers(0, 2))
    for flag, (dest, kind, _, required, _) in flags.items():
        if not (required or optional == 1 or optional == 2 and draw(st.integers(0, 2)) == 0):
            continue
        if kind is None:
            groups.append([f"{flag}=1" if hostile and draw(st.booleans()) else flag])
            continue
        value = _value(draw, hostile, _valid(dest, kind))
        groups.append([f"{flag}={value}"] if draw(st.booleans()) else [flag, value])
    if hostile:
        groups += draw(st.lists(st.sampled_from([*groups, *([s] for s in _STRAYS)]),
                                max_size=2))
    return [command, *(token for group in draw(st.permutations(groups))
                       for token in group)]


def _surface_files(path):
    (path / "k3.cfg").write_text(K3_CFG, encoding="utf-8")
    (path / "rank3.cfg").write_text(
        K3_CFG.replace("basis = sigma, f", "basis = sigma, f, e")
        .replace("gram = -2 1; 1 0", "gram = -2 1 0; 1 0 0; 0 0 -2")
        .replace("fiber = 0 1", "fiber = 0 1 0")
        .replace("section = 1 0", "section = 1 0 0")
        .replace("canonical = 0 0", "canonical = 0 0 0"), encoding="utf-8")
    (path / "latin1.cfg").write_bytes(
        K3_CFG.replace("standard-k3", "k3-é").encode("latin-1"))
    (path / "empty.cfg").write_text("", encoding="utf-8")


def test_the_command_table_fuzzed(tmp_path, monkeypatch):
    _surface_files(tmp_path)
    # chi and sd-check read the K3 from here when --surface is left out
    monkeypatch.setenv("FMLAT_SURFACE", str(tmp_path / "k3.cfg"))
    handled = []

    @settings(max_examples=2000, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(argv=argvs())
    def run(argv):
        argv = [arg.replace("@", f"{tmp_path}/") for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        returned = False
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code, returned = main(argv), True
            except SystemExit as exc:   # help, or a usage error
                code = exc.code
        assert code in (0, 1, 2), argv
        if code == EXIT_INPUT:          # a usage error, or an FmlatError main caught
            assert out.getvalue() == "", argv
        if returned and code == EXIT_INPUT:
            lines = err.getvalue().splitlines()
            assert lines[-1].startswith("error: "), argv
            assert not any(line.startswith("error: ") for line in lines[:-1]), argv
        handled.append(returned and code != EXIT_INPUT)

    run()
    assert len(handled) >= 1000
    assert sum(handled) >= len(handled) / 3
