"""Command-line front end, and the package's one output layer.

Commands: verify, matrix, transform, chi, sd-check, search. Every command
accepts --json for machine-readable output; all numbers in JSON are exact
(integers, or "n/d" strings for non-integers) and every document carries a
"schema": 1 field. The library returns plain values; this module alone turns
them into text or JSON. Exit codes: 0 success, 1 a check failed, 2 bad usage
or bad input, 141 stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from collections.abc import Iterator
from json.encoder import encode_basestring_ascii as _quote

from . import verify as verify_mod
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


def _int_arg(text: str) -> int:
    try:
        return parse_int(text)
    except InputError as exc:   # argparse names the flag and exits 2
        raise argparse.ArgumentTypeError(str(exc)) from None


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


def _case_lines(case: verify_mod.VerifyCase) -> str:
    line = f"[{'PASS' if case.passed else 'FAIL'}] {case.id}  {case.description}\n"
    return line if case.passed else f"{line}       lhs: {case.lhs}\n       rhs: {case.rhs}\n"


def _cmd_verify(args) -> int:
    d_lo, d_hi = _parse_d_range(args.d_range)
    outcome = verify_mod.run_verify(d_lo, d_hi)
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


def _report_text(report: SDReport) -> str:
    lines = [
        f"phi = [[{report.phi.c},{report.phi.a}],[{report.phi.e},{report.phi.b}]]"
        f"   lambda = {report.phi.lam}",
        f"d_v = {report.d_v}   d_w = {report.d_w}",
        f"rk_xi_v = {report.check.rk_xi_v}   rk_phi_w = {report.check.rk_phi_w}",
    ]
    if report.orthogonal is not None:
        lines.append(f"orthogonal = {report.orthogonal}   "
                     f"base_case = {report.base_case}")
    for theorem in Theorem:
        line = f"{theorem.value}: {_verdict(report, theorem)}"
        if theorem is report.check.theorem:
            line += f"   threshold margins {report.check.threshold_margins}"
            if theorem is Theorem.K3:
                line += f"   rank margins {report.check.rank_margins}"
        lines.append(line)
    for note in report.notes:
        lines.append(f"note: {note}")
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
    _emit(_report_json(report), args.json, _report_text(report))
    return EXIT_OK if report.check.passed else EXIT_CHECK_FAILED


def _hit_json(phi: FM2, target: SearchTarget | None) -> dict:
    return {"phi": list(phi.entries()),
            "report": None if target is None else _report_json(build_report(
                phi, target.d_v, target.d_w, target.theorem,
                t_v=target.t_v, t_w=target.t_w))}


def _hit_line(phi: FM2, target: SearchTarget | None) -> str:
    line = ",".join(str(x) for x in phi.entries())
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


class _Parser(argparse.ArgumentParser):
    """argparse reports a missing required flag before an unknown one, so
    --vec for --vector would read as --vector missing; this names --vec."""

    def _parse_known_args(self, arg_strings, *rest):
        typed = {a.split("=", 1)[0] for a in arg_strings if a[:1] == "-"
                 and not _NEGATIVE_LEAD.match(a)}
        unknown = typed - set(self._option_string_actions)
        missing = [a for a in self._actions if a.required and a.option_strings
                   and not typed & set(a.option_strings)]
        if unknown and missing and not typed & {"-h", "--help"}:
            self.error("unrecognized arguments: " + " ".join(sorted(unknown)))
        return super()._parse_known_args(arg_strings, *rest)


def _build_parser() -> _Parser:
    # flags are spelled in full, so that _glue_list_values sees every flag
    parser = _Parser(
        prog="fmlat", allow_abbrev=False,
        description="Exact Fourier-Mukai lattice calculus for elliptic K3 surfaces")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help_text):
        return sub.add_parser(name, help=help_text, allow_abbrev=False)

    def add_json(p):
        p.add_argument("--json", action="store_true",
                       help="machine-readable output (schema 1, exact numbers)")

    p = command("verify", "run the built-in verification suite")
    p.add_argument("--d-range", default="1..12", metavar="LO..HI",
                   help="kernel degrees to check (within 1..64)")
    add_json(p)
    p.set_defaults(func=_cmd_verify)

    p = command("matrix", "print a named operator matrix")
    p.add_argument("name", help="matrix name, e.g. FM_Pd, A_S, TensorL1")
    p.add_argument("--d", type=_int_arg, default=None, help="kernel degree parameter")
    p.add_argument("--divisor", default=None, metavar="S,T",
                   help="divisor s·sigma + t·f for A_TL (n/d rationals accepted)")
    add_json(p)
    p.set_defaults(func=_cmd_matrix)

    p = command("transform", "apply a named matrix to a class vector")
    p.add_argument("--matrix", required=True, help="matrix name")
    p.add_argument("--d", type=_int_arg, default=None)
    p.add_argument("--divisor", default=None, metavar="S,T")
    p.add_argument("--vector", required=True, metavar="R,S,T,P",
                   help="comma-separated exact values (n/d rationals accepted)")
    add_json(p)
    p.set_defaults(func=_cmd_transform)

    p = command("chi", "Euler characteristic of a tensor product")
    p.add_argument("--surface", default=None, help="surface description file")
    p.add_argument("--v", required=True, help="first class vector")
    p.add_argument("--w", required=True, help="second class vector")
    add_json(p)
    p.set_defaults(func=_cmd_chi)

    p = command("sd-check", "Strange Duality hypothesis check")
    p.add_argument("--phi", required=True, metavar="C,A,E,B",
                   help="kernel matrix entries")
    p.add_argument("--lambda", dest="lam", type=_int_arg, default=1,
                   help="smallest positive fiber degree (default 1)")
    p.add_argument("--dv", type=_int_arg, required=True, help="fiber degree of v")
    p.add_argument("--dw", type=_int_arg, required=True, help="fiber degree of w")
    p.add_argument("--theorem", choices=["k3", "general"], default="k3")
    p.add_argument("--tv", type=_int_arg, default=None, help="moduli dimension for v")
    p.add_argument("--tw", type=_int_arg, default=None, help="moduli dimension for w")
    p.add_argument("--surface", default=None, help="surface description file")
    p.add_argument("--v", default=None, help="optional class vector for v")
    p.add_argument("--w", default=None, help="optional class vector for w")
    p.add_argument("--attest-no-higher-cohomology", action="store_true",
                   help="attest that O(div v + div w) has no higher cohomology")
    add_json(p)
    p.set_defaults(func=_cmd_sd_check)

    p = command("search", "enumerate admissible kernel matrices")
    p.add_argument("--lambda", dest="lam", type=_int_arg, default=1)
    p.add_argument("--bound", type=_int_arg, required=True,
                   help="bound on |c|, |a|, |e|, |b|")
    p.add_argument("--dv", type=_int_arg, default=None)
    p.add_argument("--dw", type=_int_arg, default=None)
    p.add_argument("--theorem", choices=["k3", "general"], default=None,
                   help="theorem a target is checked against (default k3)")
    p.add_argument("--tv", type=_int_arg, default=None)
    p.add_argument("--tw", type=_int_arg, default=None)
    add_json(p)
    p.set_defaults(func=_cmd_search)

    return parser


# argparse reads a value that starts with "-" as an option unless the whole
# value is one negative number, so "--vector -1,0,0,0" would lose its value;
# a flag that takes a comma list gets such a value glued on with "="
_LIST_FLAGS = frozenset({"--vector", "--divisor", "--v", "--w", "--phi"})
_NEGATIVE_LEAD = re.compile(r"-[0-9]")


def _glue_list_values(argv: list[str]) -> list[str]:
    glued: list[str] = []
    for arg in argv:
        if glued and glued[-1] in _LIST_FLAGS and _NEGATIVE_LEAD.match(arg):
            glued[-1] += "=" + arg
        else:
            glued.append(arg)
    return glued


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):   # print every exact result
        sys.set_int_max_str_digits(0)
    parser = _build_parser()
    args = parser.parse_args(_glue_list_values(sys.argv[1:] if argv is None else argv))
    try:
        code = args.func(args)
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
