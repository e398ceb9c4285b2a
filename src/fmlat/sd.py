"""Numerical hypothesis checks behind Strange Duality on elliptic surfaces.

The pipeline takes a pair of rank-one K-theory classes, the orthogonality
condition chi(v.w) = 0, the Hilbert-scheme base case, and an admissible
kernel matrix. The theorem checks compare fiber degrees against thresholds
built from the matrix; both the direct threshold form and the sharper
transformed-rank form are computed, but the verdict always follows the
direct inequalities.

Nothing here verifies the duality map itself, only the arithmetic
hypotheses placed on the numerical data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from fractions import Fraction

from .bridgeland import FM2
from .chow import (CohClass, SurfaceDescriptor, ch_line_bundle, chi_tensor,
                   dot, fdeg, is_standard_k3, moduli_dim_k3)
from .errors import AdmissibilityError, InputError
from .linalg import as_int, dec_qseq, enc_qseq


class Theorem(Enum):
    K3 = "k3"
    GENERAL = "general"


PASS, FAIL, NOT_EVALUATED = "pass", "fail", "not-evaluated"


def _theorem(value) -> Theorem:
    try:
        return Theorem(value)
    except ValueError as exc:
        raise InputError(f"unknown theorem {value!r}") from exc


@dataclass(frozen=True)
class SDPair:
    """Two rank-one classes on a surface, with recomputed fiber degrees.

    no_higher_cohomology is a user attestation that O(div v + div w) has no
    higher cohomology; it cannot be decided from lattice data and is never
    claimed to be verified here.
    """

    surface: SurfaceDescriptor
    v: CohClass
    w: CohClass
    no_higher_cohomology: bool = False
    d_v: Fraction = field(init=False)
    d_w: Fraction = field(init=False)

    def __post_init__(self):
        for label, cls in (("v", self.v), ("w", self.w)):
            if cls.r != 1:
                raise InputError(f"{label} must have rank one, got rank {cls.r}")
        object.__setattr__(self, "d_v", fdeg(self.surface, self.v))
        object.__setattr__(self, "d_w", fdeg(self.surface, self.w))


def orthogonal_check(surface: SurfaceDescriptor, v: CohClass, w: CohClass) -> bool:
    """Euler orthogonality chi(v.w) = 0, the theta-pairing precondition."""
    return chi_tensor(surface, v, w) == 0


def mo_base_check(surface: SurfaceDescriptor, v: CohClass, w: CohClass,
                  no_higher_cohomology: bool) -> bool:
    """Hilbert-scheme base case for a pair (1, O, -k), (1, L, L^2/2 - l).

    Requires k and l positive integers with k + l = chi(L), plus the
    attestation that L has no higher cohomology. A missing attestation
    makes the check fail; it is an input, not something computed here.
    """
    if v.r != 1 or w.r != 1:
        return False
    if any(d != 0 for d in v.div):
        return False
    k = -v.p
    big_l = w.div
    l = dot(surface, big_l, big_l) / 2 - w.p
    if k.denominator != 1 or l.denominator != 1 or k <= 0 or l <= 0:
        return False
    chi_l = chi_tensor(surface, ch_line_bundle(surface, big_l),
                       CohClass(1, (0,) * surface.rank, 0))
    if k + l != chi_l:
        return False
    return bool(no_higher_cohomology)


def transformed_ranks(phi: FM2, d_v: int, d_w: int) -> tuple[int, int]:
    """Ranks of the two transformed vectors: (a.d_v - c, c + a.d_w)."""
    as_int("d_v", d_v)
    as_int("d_w", d_w)
    return (phi.a * d_v - phi.c, phi.c + phi.a * d_w)


def _check_sd_constraints(phi: FM2) -> None:
    failures = []
    if not phi.c > phi.a:
        failures.append(f"c = {phi.c} must exceed a = {phi.a}")
    if not -phi.b > phi.a:
        failures.append(f"-b = {-phi.b} must exceed a = {phi.a}")
    if failures:
        raise AdmissibilityError(failures)


@dataclass(frozen=True)
class SDCheckResult:
    """Outcome of one theorem check, with exact integer margins.

    threshold_margins hold the cross-multiplied slack of the direct
    fiber-degree inequalities; rank_margins measure the sharper requirement
    that both transformed ranks be at least three. The verdict follows
    threshold_margins.
    """

    theorem: Theorem
    passed: bool
    threshold_margins: tuple[int, int]
    rank_margins: tuple[int, int]
    rk_xi_v: int
    rk_phi_w: int

    @property
    def verdict(self) -> str:
        return PASS if self.passed else FAIL


def sd_check(theorem: Theorem, phi: FM2, d_v: int, d_w: int,
             t_v: int | None = None, t_w: int | None = None) -> SDCheckResult:
    """Evaluate the fiber-degree hypotheses for one theorem.

    K3 thresholds: a.d_v > 2a + c and a.d_w > 2a - c. The general-surface
    version replaces 2 by the caller-supplied moduli dimensions t_v, t_w.
    """
    theorem = _theorem(theorem)
    _check_sd_constraints(phi)
    rk_xi_v, rk_phi_w = transformed_ranks(phi, d_v, d_w)
    a, c = phi.a, phi.c
    if theorem is Theorem.K3:
        m1 = a * d_v - (2 * a + c)
        m2 = a * d_w - (2 * a - c)
    else:
        if t_v is None or t_w is None:
            raise InputError("the general-surface check needs t_v and t_w")
        m1 = a * d_v - (a * as_int("t_v", t_v) + c)
        m2 = a * d_w - (a * as_int("t_w", t_w) - c)
    return SDCheckResult(
        theorem=theorem,
        passed=m1 > 0 and m2 > 0,
        threshold_margins=(m1, m2),
        rank_margins=(rk_xi_v - 3, rk_phi_w - 3),
        rk_xi_v=rk_xi_v,
        rk_phi_w=rk_phi_w,
    )


@dataclass(frozen=True)
class SDReport:
    """Structured outcome of the hypothesis checks for one kernel matrix."""

    phi: FM2
    d_v: int
    d_w: int
    rk_xi_v: int
    rk_phi_w: int
    k3_check: str = NOT_EVALUATED
    general_check: str = NOT_EVALUATED
    margins_k3: tuple[tuple[int, int], tuple[int, int]] | None = None
    margins_general: tuple[int, int] | None = None
    orthogonal: bool | None = None
    base_case: bool | None = None
    surface: str | None = None
    v: CohClass | None = None
    w: CohClass | None = None
    notes: tuple[str, ...] = ()

    def to_json(self) -> dict:
        margins = {
            "k3": None if self.margins_k3 is None else {
                "threshold": enc_qseq(self.margins_k3[0]),
                "rank": enc_qseq(self.margins_k3[1]),
            },
            "general": None if self.margins_general is None else {
                "threshold": enc_qseq(self.margins_general),
            },
        }
        return {
            "schema": 1,
            "surface": self.surface,
            "v": None if self.v is None else enc_qseq(self.v.coords()),
            "w": None if self.w is None else enc_qseq(self.w.coords()),
            "phi": list(self.phi.entries()),
            "lambda": self.phi.lam,
            "d_v": self.d_v,
            "d_w": self.d_w,
            "orthogonal": self.orthogonal,
            "base_case": self.base_case,
            "rk_xi_v": self.rk_xi_v,
            "rk_phi_w": self.rk_phi_w,
            "checks": {"k3": self.k3_check, "general": self.general_check},
            "margins": margins,
            "notes": list(self.notes),
        }

    @classmethod
    def from_json(cls, data: dict) -> "SDReport":
        try:
            if data.get("schema") != 1:
                raise InputError("unknown report schema")
            c, a, e, b = data["phi"]
            checks = data["checks"]
            if {checks["k3"], checks["general"]} - {PASS, FAIL, NOT_EVALUATED}:
                raise InputError(f"unknown check verdict in {checks!r}")
            margins = data.get("margins") or {}
            mk3, mgen = margins.get("k3"), margins.get("general")

            def ints(values):
                return tuple(as_int("margin", x) for x in values)

            def optional(label, kind):
                value = data[label]
                if value is not None and not isinstance(value, kind):
                    raise InputError(f"{label} must be a {kind.__name__} "
                                     f"or null, got {value!r}")
                return value

            notes = data.get("notes", [])
            if not (isinstance(notes, list)
                    and all(isinstance(note, str) for note in notes)):
                raise InputError(f"notes must be a list of strings, got {notes!r}")

            def as_class(values):
                if values is None:
                    return None
                coords = dec_qseq(values)
                return CohClass(coords[0], coords[1:-1], coords[-1])

            return cls(
                phi=FM2(c, a, e, b, data["lambda"]),
                d_v=as_int("d_v", data["d_v"]),
                d_w=as_int("d_w", data["d_w"]),
                rk_xi_v=as_int("rk_xi_v", data["rk_xi_v"]),
                rk_phi_w=as_int("rk_phi_w", data["rk_phi_w"]),
                k3_check=checks["k3"],
                general_check=checks["general"],
                margins_k3=None if mk3 is None else (
                    ints(mk3["threshold"]), ints(mk3["rank"])),
                margins_general=None if mgen is None else ints(mgen["threshold"]),
                orthogonal=optional("orthogonal", bool),
                base_case=optional("base_case", bool),
                surface=optional("surface", str),
                v=as_class(data["v"]),
                w=as_class(data["w"]),
                notes=tuple(notes),
            )
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed report: {exc!r}") from exc


def build_report(phi: FM2, d_v: int, d_w: int,
                 theorems: tuple[Theorem, ...] = (Theorem.K3,),
                 pair: SDPair | None = None,
                 t_v: int | None = None, t_w: int | None = None) -> SDReport:
    """Assemble the full report for one kernel matrix.

    When a class pair is supplied, orthogonality and the base case are
    evaluated and, on the standard K3 model, missing moduli dimensions for
    the general-surface check default to the Mukai dimension formula.
    """
    notes: list[str] = []
    rk_xi_v, rk_phi_w = transformed_ranks(phi, d_v, d_w)
    report = SDReport(phi=phi, d_v=d_v, d_w=d_w,
                      rk_xi_v=rk_xi_v, rk_phi_w=rk_phi_w)
    if pair is not None:
        orth = orthogonal_check(pair.surface, pair.v, pair.w)
        base = mo_base_check(pair.surface, pair.v, pair.w,
                             pair.no_higher_cohomology)
        if not pair.no_higher_cohomology:
            notes.append("no-higher-cohomology attestation missing; "
                         "base case cannot hold")
        report = replace(report, orthogonal=orth, base_case=base,
                         surface=pair.surface.name, v=pair.v, w=pair.w)
        if pair.d_v != d_v or pair.d_w != d_w:
            notes.append(f"supplied fiber degrees ({d_v}, {d_w}) disagree with "
                         f"the classes ({pair.d_v}, {pair.d_w})")
    for theorem in theorems:
        theorem = _theorem(theorem)
        if theorem is Theorem.GENERAL and (t_v is None or t_w is None):
            if pair is not None and is_standard_k3(pair.surface):
                t_v = moduli_dim_k3(pair.surface, pair.v) if t_v is None else t_v
                t_w = moduli_dim_k3(pair.surface, pair.w) if t_w is None else t_w
                notes.append("general-surface dimensions defaulted to the "
                             "K3 moduli dimension formula")
            else:
                raise InputError("the general-surface check needs t_v and t_w")
        result = sd_check(theorem, phi, d_v, d_w, t_v=t_v, t_w=t_w)
        if theorem is Theorem.K3:
            report = replace(report, k3_check=result.verdict,
                             margins_k3=(result.threshold_margins,
                                         result.rank_margins))
        else:
            report = replace(report, general_check=result.verdict,
                             margins_general=result.threshold_margins)
    return replace(report, notes=tuple(notes))


@dataclass(frozen=True)
class SearchTarget:
    """Filter for the admissible-matrix search."""

    d_v: int
    d_w: int
    theorem: Theorem = Theorem.K3
    t_v: int | None = None
    t_w: int | None = None

    def __post_init__(self):
        as_int("d_v", self.d_v)
        as_int("d_w", self.d_w)
        for label in ("t_v", "t_w"):
            if getattr(self, label) is not None:
                as_int(label, getattr(self, label))
        object.__setattr__(self, "theorem", _theorem(self.theorem))
        if self.theorem is Theorem.GENERAL and (self.t_v is None
                                                or self.t_w is None):
            raise InputError("the general-surface check needs t_v and t_w")


@dataclass(frozen=True)
class SearchHit:
    phi: FM2
    report: SDReport | None = None


def search_phi(lam: int, bound: int,
               target: SearchTarget | None = None) -> list[SearchHit]:
    """Enumerate admissible kernel matrices with bounded entries.

    Constraints: |c|, |a|, |e|, |b| <= bound, determinant one, a > 0,
    lambda | e, c > a and -b > a. Hits come out in lexicographic (c, a, e,
    b) order; with a target only matrices passing that theorem check
    survive, each carrying its report. An empty result is a valid outcome.

    Cost is O(bound^2 + hits): for each coprime (c, a) the admissible e lie
    on one residue class modulo c.lambda below a cap set by -b > a, and a
    target's thresholds depend on (c, a) alone.
    """
    if as_int("bound", bound) < 1:
        raise InputError(f"bound must be a positive integer, got {bound!r}")
    if as_int("lambda", lam) < 1:
        raise InputError(f"lambda must be a positive integer, got {lam!r}")
    if target is not None:
        # a.d_v > a.t_v + c and a.d_w > a.t_w - c, with t = 2 on K3
        t_v, t_w = ((2, 2) if target.theorem is Theorem.K3
                    else (target.t_v, target.t_w))
        above, below = t_w - target.d_w, target.d_v - t_v
    hits: list[SearchHit] = []
    for c in range(2, bound + 1):          # c > a >= 1 forces c >= 2
        # cb - ae = 1 with lambda | e needs gcd(c, lambda) = 1
        if math.gcd(c, lam) != 1:
            continue
        lam_inv, step = pow(lam, -1, c), c * lam
        for a in range(1, c):
            if target is not None and not a * above < c < a * below:
                continue
            if math.gcd(a, c) != 1:
                continue
            # e = -1/a (mod c) and e = 0 (mod lambda): one class mod c.lambda
            residue = lam * (-pow(a, -1, c) * lam_inv % c)
            # b = (1 + a.e)/c rises with e, so -b > a caps e (below zero);
            # e >= -bound and c > a already give b > -bound
            hi = (-c * (a + 1) - 1) // a
            for e in range(-bound + (residue + bound) % step, hi + 1, step):
                phi = FM2(c, a, e, (1 + a * e) // c, lam)
                if target is None:
                    hits.append(SearchHit(phi))
                    continue
                report = build_report(phi, target.d_v, target.d_w,
                                      theorems=(target.theorem,),
                                      t_v=target.t_v, t_w=target.t_w)
                verdict = (report.k3_check if target.theorem is Theorem.K3
                           else report.general_check)
                if verdict == PASS:
                    hits.append(SearchHit(phi, report))
    return hits
