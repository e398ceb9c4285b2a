"""Command-line front end, and the package's one output layer.

Commands: verify, matrix, transform, chi, sd-check, search. Every command
accepts --json for machine-readable output; all numbers in JSON are exact
(integers, or "n/d" strings for non-integers) and every document carries a
"schema": 1 field. The library returns plain values; this module alone turns
them into text or JSON. Exit codes: 0 success, 1 a check failed, 2 bad usage
or bad input, 141 stdout closed by its reader.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Iterator
from types import SimpleNamespace

from .bridgeland import FM2
from .chow import (CohClass, SurfaceDescriptor, chi_tensor,
                   integrality_warnings, load_surface)
from .errors import FmlatError, InputError
from .linalg import Mat, _shown, parse_int, qvec
from .operators import build
from .sd import (SDPair, SDReport, SearchTarget, Theorem, _search,
                 build_report, transformed_ranks)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT = 2
EXIT_CLOSED_PIPE = 141   # 128 + SIGPIPE, as a shell reports `yes | head`

_SUITE = "fmlat-verify"


def _parse_d_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    try:
        return parse_int(lo), parse_int(hi if sep else lo)
    except InputError as exc:
        raise InputError(f"bad d range {_shown(text)} ({exc}); expected LO..HI") from None


def _parse_vector(text: str) -> tuple:
    return qvec(text.split(","))


def _parse_ints(text: str, n: int, what: str) -> tuple[int, ...]:
    toks = text.split(",")
    if len(toks) != n:
        raise InputError(f"{what} needs {n} comma-separated integers, got {_shown(text)}")
    try:
        return tuple(map(parse_int, toks))
    except InputError as exc:
        raise InputError(f"{what}: {exc}") from None


def _class_from_vector(surface: SurfaceDescriptor, text: str) -> CohClass:
    coords = _parse_vector(text)
    if len(coords) != surface.rank + 2:
        raise InputError(
            f"class vector needs {surface.rank + 2} entries "
            f"(rank, {surface.rank} divisor coordinates, point part), "
            f"got {len(coords)}")
    return CohClass(coords[0], coords[1:-1], coords[-1])


def _resolve_surface(path: str | None) -> SurfaceDescriptor:
    path = path or os.environ.get("FMLAT_SURFACE")
    if not path:
        raise InputError("no surface file given (use --surface or FMLAT_SURFACE)")
    return load_surface(path)


def _quote(s: str) -> str:
    """s as a JSON string, the bytes json.dumps writes. Printable ASCII
    without a quote or a backslash needs no escape, so json is imported
    only for a string that does."""
    if s.isascii() and s.isprintable() and '"' not in s and "\\" not in s:
        return '"' + s + '"'
    import json
    return json.dumps(s)


def _write_json(doc) -> None:
    """Write doc to stdout exactly as `print(json.dumps(doc, indent=2))` would.

    Takes dicts with str keys, lists, tuples, strs, ints, bools and None, and
    raises TypeError on anything else. A list may also be an iterator. Each
    list element is written as soon as it is encoded, so a long list is
    never held as one string.
    """
    out = sys.stdout
    parts: list[str] = []

    def encode(obj, nl: str) -> None:
        if isinstance(obj, str):
            parts.append(_quote(obj))
        elif obj is None:
            parts.append("null")
        elif obj is True:
            parts.append("true")
        elif obj is False:
            parts.append("false")
        elif isinstance(obj, int):
            parts.append(int.__repr__(obj))
        elif isinstance(obj, dict):
            inner, sep = nl + "  ", "{"
            for key, value in obj.items():
                if not isinstance(key, str):
                    raise TypeError(f"keys must be str, not {type(key).__name__}")
                parts.append(f"{sep}{inner}{_quote(key)}: ")
                encode(value, inner)
                sep = ","
            parts.append("{}" if sep == "{" else nl + "}")
        elif isinstance(obj, (list, tuple, Iterator)):
            inner, sep = nl + "  ", "["
            if not isinstance(obj, Iterator) and obj and all(type(x) is int for x in obj):
                parts.append(f"[{inner}{(',' + inner).join(map(int.__repr__, obj))}{nl}]")
                return
            for item in obj:
                parts.append(sep + inner)
                encode(item, inner)
                sep = ","
                out.write("".join(parts))
                parts.clear()
            parts.append("[]" if sep == "[" else nl + "]")
        else:
            raise TypeError(f"Object of type {type(obj).__name__} "
                            f"is not JSON serializable")

    encode(doc, "\n")
    parts.append("\n")
    out.write("".join(parts))


def _num(x):
    """An exact number for JSON: an int as itself, a Fraction (never one
    with denominator 1) as "n/d". q reads either back, Mat a grid of them."""
    return x if type(x) is int else str(x)


def _nums(xs) -> list:
    return [_num(x) for x in xs]


def _grid(m: Mat) -> str:
    """Aligned text grid, one bracketed line per row."""
    cells = [[str(x) for x in row] for row in m.rows]
    widths = [max(map(len, column)) for column in zip(*cells)]
    return "\n".join(
        "[ " + "  ".join(c.rjust(w) for c, w in zip(row, widths)) + " ]"
        for row in cells)


def _emit(doc, json_mode: bool, text: str) -> None:
    if json_mode:
        _write_json(doc)
    else:
        print(text)


def _case_lines(case) -> str:
    """A verify.VerifyCase as text: one line, and its two sides if it failed."""
    line = f"[{'PASS' if case.passed else 'FAIL'}] {case.id}  {case.description}\n"
    return line if case.passed else f"{line}       lhs: {case.lhs}\n       rhs: {case.rhs}\n"


def _cmd_verify(args) -> int:
    from .verify import run_verify   # verify and product load for this command alone
    d_lo, d_hi = _parse_d_range(args.d_range)
    outcome = run_verify(d_lo, d_hi)
    if args.json:
        _write_json({"schema": 1, "suite": _SUITE, "d_range": [d_lo, d_hi],
                     "cases": ({"id": case.id, "description": case.description,
                                "pass": case.passed, "lhs": case.lhs,
                                "rhs": case.rhs} for case in outcome.cases),
                     "passed": outcome.n_passed, "failed": outcome.n_failed})
    else:
        sys.stdout.write(f"{_SUITE}  (d = {d_lo}..{d_hi})\n")
        sys.stdout.writelines(map(_case_lines, outcome.cases))
        sys.stdout.write(f"summary: {outcome.n_passed} passed, {outcome.n_failed} failed\n")
    return EXIT_OK if outcome.ok else EXIT_CHECK_FAILED


def _built_matrix(name: str, d: int | None, divisor_text: str | None) -> tuple[Mat, dict]:
    divisor = None if divisor_text is None else _parse_vector(divisor_text)
    matrix = build(name, d=d, divisor=divisor).matrix
    meta = {"schema": 1, "name": name, "d": d,
            "divisor": _nums(divisor) if divisor else None}
    return matrix, meta


def _cmd_matrix(args) -> int:
    matrix, meta = _built_matrix(args.name, args.d, args.divisor)
    meta["matrix"] = [_nums(row) for row in matrix.rows]
    header = meta["name"]
    if args.d is not None:
        header += f"(d={args.d})"
    if meta["divisor"]:
        header += f"(D={args.divisor})"
    _emit(meta, args.json, f"{header} =\n{_grid(matrix)}")
    return EXIT_OK


def _cmd_transform(args) -> int:
    matrix, meta = _built_matrix(args.matrix, args.d, args.divisor)
    vector = _parse_vector(args.vector)
    image = matrix.apply(vector)
    meta.update({"vector": _nums(vector), "image": _nums(image)})
    _emit(meta, args.json, ", ".join(str(x) for x in image))
    return EXIT_OK


def _cmd_chi(args) -> int:
    surface = _resolve_surface(args.surface)
    v = _class_from_vector(surface, args.v)
    w = _class_from_vector(surface, args.w)
    for label, cls in (("v", v), ("w", w)):
        for note in integrality_warnings(cls):
            print(f"warning: {label}: {note}", file=sys.stderr)
    value = chi_tensor(surface, v, w)
    doc = {"schema": 1, "surface": surface.name,
           "v": _nums(v.coords()), "w": _nums(w.coords()), "chi": _num(value)}
    _emit(doc, args.json, str(value))
    return EXIT_OK


def _verdict(report: SDReport, theorem: Theorem) -> str:
    """pass or fail for the theorem checked, not-evaluated for the other."""
    if theorem is not report.check.theorem:
        return "not-evaluated"
    return "pass" if report.check.passed else "fail"


def _report_json(report: SDReport) -> dict:
    check, pair = report.check, report.pair
    margins = {"k3": None, "general": None}
    margins[check.theorem.value] = {"threshold": list(check.threshold_margins)}
    if check.theorem is Theorem.K3:
        margins["k3"]["rank"] = list(check.rank_margins)
    return {"schema": 1, "surface": None if pair is None else pair.surface.name,
            "v": None if pair is None else _nums(pair.v.coords()),
            "w": None if pair is None else _nums(pair.w.coords()),
            "phi": list(report.phi.entries()), "lambda": report.phi.lam,
            "d_v": report.d_v, "d_w": report.d_w,
            "orthogonal": report.orthogonal, "base_case": report.base_case,
            "rk_xi_v": check.rk_xi_v, "rk_phi_w": check.rk_phi_w,
            "checks": {theorem.value: _verdict(report, theorem) for theorem in Theorem},
            "margins": margins, "notes": list(report.notes)}


def _report_text(doc: dict) -> str:
    """The sd-check text, laid out from the document _report_json built."""
    c, a, e, b = doc["phi"]
    lines = [f"phi = [[{c},{a}],[{e},{b}]]   lambda = {doc['lambda']}",
             f"d_v = {doc['d_v']}   d_w = {doc['d_w']}",
             f"rk_xi_v = {doc['rk_xi_v']}   rk_phi_w = {doc['rk_phi_w']}"]
    if doc["orthogonal"] is not None:
        lines.append(f"orthogonal = {doc['orthogonal']}   base_case = {doc['base_case']}")
    for theorem, verdict in doc["checks"].items():
        lines.append(f"{theorem}: {verdict}" + "".join(
            f"   {kind} margins {tuple(margins)}"
            for kind, margins in (doc["margins"][theorem] or {}).items()))
    lines += [f"note: {note}" for note in doc["notes"]]
    return "\n".join(lines)


def _cmd_sd_check(args) -> int:
    c, a, e, b = _parse_ints(args.phi, 4, "--phi")
    phi = FM2(c, a, e, b, args.lam)
    pair = None
    if args.v is not None or args.w is not None:
        if args.v is None or args.w is None:
            raise InputError("--v and --w must be given together")
        surface = _resolve_surface(args.surface)
        pair = SDPair(surface, _class_from_vector(surface, args.v),
                      _class_from_vector(surface, args.w),
                      no_higher_cohomology=args.attest_no_higher_cohomology)
    elif args.attest_no_higher_cohomology:
        raise InputError("--attest-no-higher-cohomology needs --v and --w")
    report = build_report(phi, args.dv, args.dw, args.theorem,
                          pair=pair, t_v=args.tv, t_w=args.tw)
    doc = _report_json(report)
    _emit(doc, args.json, _report_text(doc))
    return EXIT_OK if report.check.passed else EXIT_CHECK_FAILED


def _hit_json(phi: FM2, target: SearchTarget | None) -> dict:
    return {"phi": list(phi.entries()),
            "report": None if target is None else _report_json(build_report(
                phi, target.d_v, target.d_w, target.theorem,
                t_v=target.t_v, t_w=target.t_w))}


def _hit_line(phi: FM2, target: SearchTarget | None) -> str:
    line = f"{phi.c},{phi.a},{phi.e},{phi.b}"
    if target is not None:
        rk_xi_v, rk_phi_w = transformed_ranks(phi, target.d_v, target.d_w)
        line += f"   rk_xi_v={rk_xi_v} rk_phi_w={rk_phi_w}"
    return line + "\n"


def _cmd_search(args) -> int:
    target = None
    if args.dv is not None or args.dw is not None:
        if args.dv is None or args.dw is None:
            raise InputError("--dv and --dw must be given together")
        target = SearchTarget(args.dv, args.dw, Theorem(args.theorem or "k3"),
                              t_v=args.tv, t_w=args.tw)
    elif args.theorem is not None or args.tv is not None or args.tw is not None:
        raise InputError("--theorem, --tv and --tw need --dv and --dw")
    hits = _search(args.lam, args.bound, target)   # one hit held at a time
    if args.json:
        _write_json({"schema": 1, "lambda": args.lam, "bound": args.bound,
                     "target": None if target is None else {
                         "d_v": target.d_v, "d_w": target.d_w,
                         "theorem": target.theorem.value},
                     "hits": (_hit_json(phi, target) for phi in hits)})
    else:
        write, count = sys.stdout.write, 0
        for count, phi in enumerate(hits, 1):
            write(_hit_line(phi, target))
        print(f"# {count} hit(s)", file=sys.stderr)
    return EXIT_OK


# The whole command line: per command its handler, help line, positionals
# (name, help) and flags (dest, kind, default, required, help), where a
# required flag's default is None and a kind is _INT for an integer read by
# parse_int, a tuple of choices, None for a switch, or a text's metavar.
_INT = "N"
_JSON = ("json", None, False, False, "machine-readable output (schema 1, exact numbers)")
_D = ("d", _INT, None, False, "kernel degree parameter")
_DIVISOR = ("divisor", "S,T", None, False,
            "divisor s·sigma + t·f for A_TL (n/d rationals accepted)")
_SURFACE = ("surface", "FILE", None, False, "surface description file")
_LAMBDA = ("lam", _INT, 1, False, "smallest positive fiber degree (default 1)")
_TV = ("tv", _INT, None, False, "moduli dimension for v")
_TW = ("tw", _INT, None, False, "moduli dimension for w")
_THEOREMS = tuple(theorem.value for theorem in Theorem)

_COMMANDS = {
    "verify": (_cmd_verify, "run the built-in verification suite", (), {
        "--d-range": ("d_range", "LO..HI", "1..12", False,
                      "kernel degrees to check (within 1..64)"),
        "--json": _JSON}),
    "matrix": (_cmd_matrix, "print a named operator matrix",
               (("name", "matrix name, e.g. FM_Pd, A_S, TensorL1"),),
               {"--d": _D, "--divisor": _DIVISOR, "--json": _JSON}),
    "transform": (_cmd_transform, "apply a named matrix to a class vector", (), {
        "--matrix": ("matrix", "NAME", None, True, "matrix name"),
        "--d": _D, "--divisor": _DIVISOR,
        "--vector": ("vector", "R,S,T,P", None, True,
                     "comma-separated exact values (n/d rationals accepted)"),
        "--json": _JSON}),
    "chi": (_cmd_chi, "Euler characteristic of a tensor product", (), {
        "--surface": _SURFACE,
        "--v": ("v", "R,...,P", None, True, "first class vector"),
        "--w": ("w", "R,...,P", None, True, "second class vector"),
        "--json": _JSON}),
    "sd-check": (_cmd_sd_check, "Strange Duality hypothesis check", (), {
        "--phi": ("phi", "C,A,E,B", None, True, "kernel matrix entries"),
        "--lambda": _LAMBDA,
        "--dv": ("dv", _INT, None, True, "fiber degree of v"),
        "--dw": ("dw", _INT, None, True, "fiber degree of w"),
        "--theorem": ("theorem", _THEOREMS, "k3", False, "theorem checked (default k3)"),
        "--tv": _TV, "--tw": _TW, "--surface": _SURFACE,
        "--v": ("v", "R,...,P", None, False, "optional class vector for v"),
        "--w": ("w", "R,...,P", None, False, "optional class vector for w"),
        "--attest-no-higher-cohomology": (
            "attest_no_higher_cohomology", None, False, False,
            "attest that O(div v + div w) has no higher cohomology"),
        "--json": _JSON}),
    "search": (_cmd_search, "enumerate admissible kernel matrices", (), {
        "--lambda": _LAMBDA,
        "--bound": ("bound", _INT, None, True, "bound on |c|, |a|, |e|, |b|"),
        "--dv": ("dv", _INT, None, False, "fiber degree of v in a target"),
        "--dw": ("dw", _INT, None, False, "fiber degree of w in a target"),
        "--theorem": ("theorem", _THEOREMS, None, False,
                      "theorem a target is checked against (default k3)"),
        "--tv": _TV, "--tw": _TW, "--json": _JSON}),
}


def _spelled(flag: str, kind) -> str:
    """A flag as usage and help show it, with a placeholder for its value."""
    if isinstance(kind, tuple):
        kind = "{" + ",".join(kind) + "}"
    return flag if kind is None else f"{flag} {kind}"


def _usage(command: str | None) -> str:
    if command is None:
        return "usage: fmlat [-h] {" + ",".join(_COMMANDS) + "} ..."
    _, _, positionals, flags = _COMMANDS[command]
    words = ["usage: fmlat", command, "[-h]", *(name.upper() for name, _ in positionals)]
    for flag, (_, kind, _, required, _) in flags.items():
        words.append(_spelled(flag, kind) if required else f"[{_spelled(flag, kind)}]")
    return " ".join(words)


def _help(command: str | None) -> str:
    if command is None:
        about = "Exact Fourier-Mukai lattice calculus for elliptic K3 surfaces"
        rows = [(name, spec[1]) for name, spec in _COMMANDS.items()]
    else:
        _, about, positionals, flags = _COMMANDS[command]
        rows = [(name.upper(), text) for name, text in positionals]
        rows += [(_spelled(flag, kind), text)
                 for flag, (_, kind, _, _, text) in flags.items()]
    width = max(len(left) for left, _ in rows) + 2
    return "\n".join([_usage(command), "", about, "",
                      *(f"  {left.ljust(width)}{text}" for left, text in rows)])


def _usage_error(command: str | None, message: str):
    prog = "fmlat" if command is None else f"fmlat {command}"
    sys.stderr.write(f"{_usage(command)}\n{prog}: error: {message}\n")
    raise SystemExit(EXIT_INPUT)


def _parse(argv: list[str]):
    """The handler argv names and its arguments, read against _COMMANDS. A
    flag takes the text after its "=", or else the next token whole unless
    that is one of the command's flags; a repeated flag keeps its last value.
    -h or --help anywhere prints help and exits 0; bad usage exits 2."""
    command = argv[0] if argv else None
    if command not in _COMMANDS and command not in ("-h", "--help"):
        _usage_error(None, "the following arguments are required: command"
                     if command is None else f"argument command: invalid choice: {command!r}")
    if "-h" in argv or "--help" in argv:
        print(_help(command if command in _COMMANDS else None), flush=True)  # in main's try
        raise SystemExit(EXIT_OK)
    handler, _, positionals, flags = _COMMANDS[command]
    values = {dest: default for dest, _, default, _, _ in flags.values()}
    unfilled = [name for name, _ in positionals]
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, value = token.partition("=")
        if token[:1] != "-" and unfilled:
            values[unfilled.pop(0)] = token
            continue
        if flag not in flags:
            _usage_error(command, f"unrecognized arguments: {token}")
        dest, kind, _, _, _ = flags[flag]
        if kind is None:
            if eq:
                _usage_error(command, f"argument {flag}: ignored explicit argument {value!r}")
            value = True
        elif not eq:
            value = next(tokens, None)
            if value is None or value.partition("=")[0] in flags:
                _usage_error(command, f"argument {flag}: expected one argument")
        if kind == _INT:
            try:
                value = parse_int(value)
            except InputError as exc:
                _usage_error(command, f"argument {flag}: {exc}")
        elif isinstance(kind, tuple) and value not in kind:
            _usage_error(command, f"argument {flag}: invalid choice: {value!r}")
        values[dest] = value
    missing = unfilled + [flag for flag, (dest, _, _, required, _) in flags.items()
                          if required and values[dest] is None]
    if missing:
        _usage_error(command, "the following arguments are required: " + ", ".join(missing))
    return handler, SimpleNamespace(**values)


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):   # print every exact result
        sys.set_int_max_str_digits(0)
    try:
        handler, args = _parse(sys.argv[1:] if argv is None else argv)
        code = handler(args)
        sys.stdout.flush()
        return code
    except FmlatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BrokenPipeError:
        # the reader stopped reading; keep the flush at exit quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_PIPE


if __name__ == "__main__":
    sys.exit(main())
