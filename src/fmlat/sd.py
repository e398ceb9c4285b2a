"""Numerical hypothesis checks behind Strange Duality on elliptic surfaces.

The pipeline takes a pair of rank-one K-theory classes, the orthogonality
condition chi(v.w) = 0, the Hilbert-scheme base case, and an admissible
kernel matrix. A theorem check holds when each transformed rank exceeds
a.t, t being the moduli dimension on its side (2 on a K3; the action is
stated in bridgeland's module docstring). Its threshold margin is that rank
less a.t, the same integer as the cross-multiplied slack of the direct
fiber-degree inequality. So a K3 pass makes both ranks exceed 2a, and both
rank margins, each rank less three, are at least 2a - 2.

Nothing here verifies the duality map itself, only the arithmetic
hypotheses placed on the numerical data.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from enum import Enum

from .bridgeland import FM2
from .chow import (CohClass, SurfaceDescriptor, ch_line_bundle, chi_tensor,
                   dual, fdeg, is_standard_k3, moduli_dim_k3, mult)
from .errors import AdmissibilityError, InputError
from .linalg import _Record, _expect, _shown, as_int, as_member


class Theorem(Enum):
    K3 = "k3"
    GENERAL = "general"


class SDPair(_Record):
    """Two rank-one classes on a surface, with recomputed fiber degrees
    d_v and d_w.

    no_higher_cohomology is a user attestation that O(div v + div w) has no
    higher cohomology; it cannot be decided from lattice data and is never
    claimed to be verified here.
    """

    __slots__ = ("surface", "v", "w", "no_higher_cohomology", "d_v", "d_w")

    def __init__(self, surface: SurfaceDescriptor, v: CohClass, w: CohClass,
                 no_higher_cohomology: bool = False):
        for label, cls in (("v", v), ("w", w)):
            if _expect(label, CohClass, cls).r != 1:
                raise InputError(f"{label} must have rank one, got rank {_shown(cls.r)}")
        _expect("no_higher_cohomology", bool, no_higher_cohomology)
        self._fill(surface, v, w, no_higher_cohomology,
                   fdeg(surface, v), fdeg(surface, w))


def orthogonal_check(surface: SurfaceDescriptor, v: CohClass, w: CohClass) -> bool:
    """Euler orthogonality chi(v.w) = 0, the theta-pairing precondition."""
    return chi_tensor(surface, v, w) == 0


def mo_base_check(surface: SurfaceDescriptor, v: CohClass, w: CohClass,
                  no_higher_cohomology: bool) -> bool:
    """Hilbert-scheme base case up to a twist: untwisted by D = div v, which
    keeps chi(v.w) and both moduli spaces, the pair v.ch O(-D), w.ch O(D)
    must read (1, O, -k), (1, L, L^2/2 - l); so L = div v + div w.

    Requires integral divisors, positive integers k, l with k + l = chi(L)
    and the attestation that L has no higher cohomology, which is an
    input, not something computed here: without it the check fails.
    """
    _expect("surface", SurfaceDescriptor, surface)
    _expect("no_higher_cohomology", bool, no_higher_cohomology)
    divs = _expect("v", CohClass, v).div + _expect("w", CohClass, w).div
    if (v.r, w.r) != (1, 1) or any(x.denominator != 1 for x in divs):
        return False
    twist = ch_line_bundle(surface, v.div)
    v, w = mult(surface, v, dual(twist)), mult(surface, w, twist)
    line = ch_line_bundle(surface, w.div)
    k, l = -v.p, line.p - w.p
    if k.denominator != 1 or l.denominator != 1 or k <= 0 or l <= 0:
        return False
    unit = CohClass(1, (0,) * surface.rank, 0)
    return k + l == chi_tensor(surface, line, unit) and no_higher_cohomology


def transformed_ranks(phi: FM2, d_v: int, d_w: int) -> tuple[int, int]:
    """Ranks of xi(1, d_v) and phi(1, d_w): (a.d_v - c, c + a.d_w)."""
    as_int("d_v", d_v)
    as_int("d_w", d_w)
    _expect("phi", FM2, phi)
    return (phi.a * d_v - phi.c, phi.c + phi.a * d_w)


def _check_sd_constraints(phi: FM2) -> None:
    _expect("phi", FM2, phi)
    failures = []
    if not phi.c > phi.a:
        failures.append(f"c = {_shown(phi.c)} must exceed a = {_shown(phi.a)}")
    if not -phi.b > phi.a:
        failures.append(f"-b = {_shown(-phi.b)} must exceed a = {_shown(phi.a)}")
    if failures:
        raise AdmissibilityError(failures)


def _thresholds(theorem: Theorem, t_v, t_w) -> tuple[int, int]:
    """(t_v, t_w) in rk_xi_v > a.t_v and rk_phi_w > a.t_w; 2, 2 on K3."""
    if theorem is Theorem.K3:
        if t_v is not None or t_w is not None:
            raise InputError("t_v and t_w apply to the general-surface check "
                             "only; the K3 thresholds are fixed at 2")
        return 2, 2
    if t_v is None or t_w is None:
        raise InputError("the general-surface check needs t_v and t_w")
    return as_int("t_v", t_v), as_int("t_w", t_w)


class SDCheckResult(_Record):
    """Outcome of one theorem check, with exact integer margins.

    threshold_margins are the transformed ranks less a.t_v and a.t_w, which
    equal the cross-multiplied slack of the direct fiber-degree inequalities;
    the check passes when both are positive. rank_margins are the transformed
    ranks less three; a K3 pass makes both at least 2a - 2.
    """

    __slots__ = ("theorem", "threshold_margins", "rk_xi_v", "rk_phi_w")

    def __init__(self, theorem: Theorem, threshold_margins: tuple[int, int],
                 rk_xi_v: int, rk_phi_w: int):
        if len(_expect("threshold_margins", tuple, threshold_margins)) != 2:
            raise InputError(f"threshold_margins must be a pair, "
                             f"got {_shown(threshold_margins)}")
        for label, x in zip(("margin_v", "margin_w", "rk_xi_v", "rk_phi_w"),
                            (*threshold_margins, rk_xi_v, rk_phi_w)):
            as_int(label, x)
        self._fill(as_member("theorem", Theorem, theorem), threshold_margins,
                   rk_xi_v, rk_phi_w)

    @property
    def passed(self) -> bool:
        return min(self.threshold_margins) > 0

    @property
    def rank_margins(self) -> tuple[int, int]:
        return (self.rk_xi_v - 3, self.rk_phi_w - 3)


def sd_check(theorem: Theorem, phi: FM2, d_v: int, d_w: int,
             t_v: int | None = None, t_w: int | None = None) -> SDCheckResult:
    """Evaluate the fiber-degree hypotheses for one theorem.

    K3 thresholds: a.d_v > 2a + c and a.d_w > 2a - c. The general-surface
    version replaces 2 by the caller-supplied moduli dimensions t_v, t_w.
    The margins are (rk_xi_v - a.t_v, rk_phi_w - a.t_w).
    """
    theorem = as_member("theorem", Theorem, theorem)
    _check_sd_constraints(phi)
    rk_xi_v, rk_phi_w = transformed_ranks(phi, d_v, d_w)
    t_v, t_w = _thresholds(theorem, t_v, t_w)
    margins = (rk_xi_v - phi.a * t_v, rk_phi_w - phi.a * t_w)
    return SDCheckResult(theorem, margins, rk_xi_v, rk_phi_w)


class SDReport(_Record):
    """Structured outcome of the hypothesis checks for one kernel matrix:
    the result of the one theorem checked, and the class pair if one was given."""

    __slots__ = ("phi", "d_v", "d_w", "check", "pair", "orthogonal",
                 "base_case", "notes")

    def __init__(self, phi: FM2, d_v: int, d_w: int, check: SDCheckResult,
                 pair: SDPair | None = None, orthogonal: bool | None = None,
                 base_case: bool | None = None, notes: tuple[str, ...] = ()):
        _expect("phi", FM2, phi)
        as_int("d_v", d_v)
        as_int("d_w", d_w)
        _expect("check", SDCheckResult, check)
        for label, kind, x in (("pair", SDPair, pair), ("orthogonal", bool, orthogonal),
                               ("base_case", bool, base_case)):
            if x is not None:
                _expect(label, kind, x)
        for note in _expect("notes", tuple, notes):
            _expect("note", str, note)
        self._fill(phi, d_v, d_w, check, pair, orthogonal, base_case, notes)


def build_report(phi: FM2, d_v: int, d_w: int, theorem: Theorem = Theorem.K3,
                 pair: SDPair | None = None,
                 t_v: int | None = None, t_w: int | None = None) -> SDReport:
    """Assemble the report of one theorem check for one kernel matrix.

    When a class pair is supplied, orthogonality and the base case are
    evaluated and, on the standard K3 model, missing moduli dimensions for
    the general-surface check default to the Mukai dimension formula.
    """
    theorem = as_member("theorem", Theorem, theorem)
    transformed_ranks(phi, d_v, d_w)   # rejects a bad phi, d_v or d_w first
    notes: list[str] = []
    orth = base = None
    if pair is not None:
        _expect("pair", SDPair, pair)
        orth = orthogonal_check(pair.surface, pair.v, pair.w)
        base = mo_base_check(pair.surface, pair.v, pair.w,
                             pair.no_higher_cohomology)
        if not pair.no_higher_cohomology:
            notes.append("no-higher-cohomology attestation missing; "
                         "base case cannot hold")
        if pair.d_v != d_v or pair.d_w != d_w:
            notes.append(f"supplied fiber degrees ({_shown(d_v, None)}, "
                         f"{_shown(d_w, None)}) disagree with the classes "
                         f"({_shown(pair.d_v, None)}, {_shown(pair.d_w, None)})")
        if phi.lam != pair.surface.lam:
            notes.append(f"kernel matrix lambda {_shown(phi.lam, None)} disagrees with "
                         f"the surface's lambda {_shown(pair.surface.lam, None)}")
    if theorem is Theorem.GENERAL and (t_v is None or t_w is None):
        if pair is None or not is_standard_k3(pair.surface):
            _thresholds(theorem, t_v, t_w)   # raises: a dimension is missing
        t_v = moduli_dim_k3(pair.surface, pair.v) if t_v is None else t_v
        t_w = moduli_dim_k3(pair.surface, pair.w) if t_w is None else t_w
        notes.append("general-surface dimensions defaulted to the "
                     "K3 moduli dimension formula")
    check = sd_check(theorem, phi, d_v, d_w, t_v=t_v, t_w=t_w)
    return SDReport(phi, d_v, d_w, check, pair, orth, base, tuple(notes))


class SearchTarget(_Record):
    """Filter for the admissible-matrix search."""

    __slots__ = ("d_v", "d_w", "theorem", "t_v", "t_w")

    def __init__(self, d_v: int, d_w: int, theorem: Theorem = Theorem.K3,
                 t_v: int | None = None, t_w: int | None = None):
        as_int("d_v", d_v)
        as_int("d_w", d_w)
        theorem = as_member("theorem", Theorem, theorem)
        _thresholds(theorem, t_v, t_w)   # general needs both
        self._fill(d_v, d_w, theorem, t_v, t_w)


# 499,500 (c, a) pairs and, untargeted at lambda 1, 302,194 hits
MAX_SEARCH_BOUND = 1000


def search_phi(lam: int, bound: int,
               target: SearchTarget | None = None) -> list[FM2]:
    """Enumerate admissible kernel matrices with bounded entries.

    Constraints: |c|, |a|, |e|, |b| <= bound, determinant one, a > 0,
    lambda | e, c > a and -b > a. Hits come out in lexicographic (c, a, e,
    b) order; with a target only matrices passing that theorem check
    survive. An empty result is a valid outcome. A bound above
    MAX_SEARCH_BOUND (1,000) is an InputError, raised before any work.

    Cost is O(bound^2 + hits): for each coprime (c, a) the admissible e lie
    on one residue class modulo c.lambda below a cap set by -b > a, and a
    target's check depends on (c, a) alone: its margins are exactly
    a(d_v - t_v) - c and c - a(t_w - d_w), so the window between those two
    ends is the whole check.

    This collects into a list the same enumeration `fmlat search` streams
    to stdout one hit at a time.
    """
    return list(_search(lam, bound, target))


def _search(lam: int, bound: int, target: SearchTarget | None) -> Iterator[FM2]:
    """search_phi's hits, one at a time. The arguments are checked here, at
    the call, so a bad one fails before a caller writes anything."""
    if as_int("bound", bound) < 1:
        raise InputError(f"bound must be a positive integer, got {_shown(bound)}")
    if bound > MAX_SEARCH_BOUND:
        raise InputError(f"bound must be at most {MAX_SEARCH_BOUND}, "
                         f"got {_shown(bound)}")
    if as_int("lambda", lam) < 1:
        raise InputError(f"lambda must be a positive integer, got {_shown(lam)}")
    if target is None:
        return _admissible(lam, bound, 0, bound + 1)   # a window holding every c
    _expect("target", SearchTarget, target)
    t_v, t_w = _thresholds(target.theorem, target.t_v, target.t_w)
    # both transformed ranks > a.t, solved for c (test_restated_action_formulas)
    return _admissible(lam, bound, t_w - target.d_w, target.d_v - t_v)


def _admissible(lam: int, bound: int, above: int, below: int) -> Iterator[FM2]:
    """The admissible matrices with a.above < c < a.below, in search_phi's
    order."""
    # one int object per distinct e or b value (at most 2.bound + 1), so
    # search_phi's list of hits holds only their FM2s
    shared = {}.setdefault
    for c in range(2, bound + 1):          # c > a >= 1 forces c >= 2
        # cb - ae = 1 with lambda | e needs gcd(c, lambda) = 1
        if math.gcd(c, lam) != 1:
            continue
        lam_inv, step = pow(lam, -1, c), c * lam
        for a in range(1, c):
            if not a * above < c < a * below:
                continue
            if math.gcd(a, c) != 1:
                continue
            # e = -1/a (mod c) and e = 0 (mod lambda): one class mod c.lambda
            residue = lam * (-pow(a, -1, c) * lam_inv % c)
            # b = (1 + a.e)/c rises with e, so -b > a caps e (below zero);
            # e >= -bound and c > a already give b > -bound
            hi = (-c * (a + 1) - 1) // a
            for e in range(-bound + (residue + bound) % step, hi + 1, step):
                b = (1 + a * e) // c
                yield FM2(c, a, shared(e, e), shared(b, b), lam)
