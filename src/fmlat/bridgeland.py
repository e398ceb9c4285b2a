"""SL2(Z) bookkeeping for Fourier-Mukai transforms on (rank, fiber degree).

An admissible kernel matrix phi = [[c, a], [e, b]] has determinant one,
a > 0 and e divisible by the smallest positive fiber degree lambda. It acts
on column vectors (rank, fiber degree): phi(r, d) = (c.r + a.d, e.r + b.d).
Its family of four is phi, the almost-inverse psi = -phi^-1 and, from the
dualized kernel, xi = -D.phi.D and omega = -D.psi.D with D = diag(1, -1);
phi.psi = xi.omega = -1. The package uses four consequences, each restated
in integers where it is used and derived from Mat.apply in one test
(test_bridgeland::test_restated_action_formulas):

- rank of xi(1, d_v) = a.d_v - c              (sd.transformed_ranks)
- rank of phi(1, d_w) = c + a.d_w             (sd.transformed_ranks)
- rank row of phi^-1(rk, fd) = b.rk - a.fd    (gen_birat_classify)
- a theorem check holds when each transformed rank exceeds a.t, with t the
  moduli dimension on its side, 2 on a K3     (sd.sd_check, sd.search_phi)

All slope comparisons are done with cross-multiplied integers so boundary
cases stay exact.
"""

from __future__ import annotations

import math
import random
from enum import Enum

from .errors import AdmissibilityError, CoprimalityError, InputError
from .linalg import Mat, _Record, _expect, _shown, as_int


class FM2(_Record):
    """Admissible 2x2 kernel matrix [[c, a], [e, b]] with its lambda."""

    __slots__ = ("c", "a", "e", "b", "lam")

    def __init__(self, c: int, a: int, e: int, b: int, lam: int = 1):
        # the search builds one per candidate: plain ints skip as_int
        if not (type(c) is type(a) is type(e) is type(b) is type(lam) is int):
            for label, x in (("c", c), ("a", a), ("e", e), ("b", b), ("lam", lam)):
                as_int(label, x)
        if lam <= 0:
            raise InputError(f"lambda must be positive, got {_shown(lam)}")
        det = c * b - a * e
        if det != 1 or a <= 0 or e % lam != 0:
            checks = ((det == 1, f"determinant cb - ae = {_shown(det)}, must be 1"),
                      (a > 0, f"a = {_shown(a)}, must be positive"),
                      (e % lam == 0,
                       f"e = {_shown(e)} is not a multiple of lambda = {_shown(lam)}"))
            raise AdmissibilityError([message for ok, message in checks if not ok])
        self._fill(c, a, e, b, lam)

    @property
    def matrix(self) -> Mat:
        return Mat(((self.c, self.a), (self.e, self.b)))

    # The family of the module docstring, written out from the entries and
    # never via inverse(), so that its relations stay checks.
    @property
    def psi(self) -> Mat:
        return Mat(((-self.b, self.a), (self.e, -self.c)))

    @property
    def omega(self) -> Mat:
        return Mat(((self.b, self.a), (self.e, self.c)))

    @property
    def xi(self) -> Mat:
        return Mat(((-self.c, self.a), (self.e, -self.b)))

    def entries(self) -> tuple[int, int, int, int]:
        return (self.c, self.a, self.e, self.b)


def _rank_fdeg(v) -> tuple[int, int]:
    """v as a (rank, fiber degree) pair of integers with positive rank;
    InputError otherwise."""
    try:
        rk, fd = v
    except (TypeError, ValueError):
        raise InputError(f"expected a (rank, fiber degree) pair, got {_shown(v)}") from None
    as_int("rank", rk)
    as_int("fiber degree", fd)
    if rk <= 0:
        raise InputError(f"rank must be positive, got {_shown(rk)}")
    return rk, fd


def canonical_ab(r: int, d: int) -> tuple[int, int]:
    """The unique (a, b) with br - ad = 1 and 0 < a < r.

    Exists exactly when r > 1 and gcd(r, d) = 1; computed by inverting d
    modulo r.
    """
    as_int("d", d)
    if as_int("r", r) <= 1:
        raise InputError(f"r must be greater than 1, got {_shown(r)}")
    if math.gcd(r, d) != 1:
        raise CoprimalityError(f"gcd({_shown(r)}, {_shown(d)}) = "
                               f"{_shown(math.gcd(r, d))}, must be 1")
    a = (-pow(d, -1, r)) % r
    return a, (1 + a * d) // r


class GenBiratClass(Enum):
    """Conclusions of the birationality classification."""

    BIRATIONAL_HIGH_RANK = "BirationalHighRank"
    BIRATIONAL_RANK_ONE = "BirationalRankOne"
    REGULAR_ISOMORPHISM = "RegularIsomorphism"
    BIRATIONAL_CODIM_TWO = "BirationalCodimTwo"
    NOT_COVERED = "NotCovered"


def gen_birat_classify(v: tuple[int, int], phi: FM2, t: int | None = None,
                       k3: bool = False) -> GenBiratClass:
    """Classify how the moduli space of v relates to its transform.

    The transformed rank rk w = b.rk - a.fd is the rank of phi^-1(rk, fd),
    derived in test_restated_action_formulas. Returns the strongest
    conclusion supported by the inequalities: high transformed rank gives a
    birational isomorphism (codimension-two singular locus on a K3 when
    rk w >= 3); rank one gives a birational isomorphism when rk > a, and a
    regular isomorphism when rk > a.t for the caller-supplied dimension
    offset t. Without t the regular-isomorphism branch cannot be evaluated
    and is skipped.
    """
    rk, fd = _rank_fdeg(v)
    if math.gcd(rk, fd) != 1:
        raise CoprimalityError(f"gcd({_shown(rk)}, {_shown(fd)}) must be 1")
    if t is not None:
        as_int("t", t)
    _expect("phi", FM2, phi)
    _expect("k3", bool, k3)
    rk_w = phi.b * rk - phi.a * fd
    if rk_w > 1:
        if k3 and rk_w >= 3:
            return GenBiratClass.BIRATIONAL_CODIM_TWO
        return GenBiratClass.BIRATIONAL_HIGH_RANK
    if rk_w == 1:
        if t is not None and rk > phi.a * t:
            return GenBiratClass.REGULAR_ISOMORPHISM
        if rk > phi.a:
            return GenBiratClass.BIRATIONAL_RANK_ONE
    return GenBiratClass.NOT_COVERED


def random_admissible(rng: random.Random, lam: int = 1, bound: int = 50) -> FM2:
    """Deterministic pseudo-random admissible matrix with bounded entries.

    Used by property tests and by the verification suite; the caller owns
    the seeded Random instance.
    """
    _expect("rng", random.Random, rng)
    if as_int("lambda", lam) < 1 or as_int("bound", bound) < 1:
        raise InputError(f"lambda and bound must be positive, "
                         f"got {_shown(lam)}, {_shown(bound)}")
    while True:
        a = rng.randint(1, 6)
        c = rng.randint(-8, 8)
        if math.gcd(a, abs(c)) != 1:
            continue
        # solve c.b0 - a.e0 = 1 with b0 the residue nearest zero (ties
        # below), then slide along the solution line
        b0 = pow(c, -1, a)
        b0 -= a * (2 * b0 >= a)
        e0 = (c * b0 - 1) // a
        k = rng.randint(-5, 5)
        b, e = b0 + a * k, e0 + c * k
        if e % lam != 0:
            continue
        if max(abs(c), abs(a), abs(e), abs(b)) > bound:
            continue
        return FM2(c, a, e, b, lam)

