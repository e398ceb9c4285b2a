"""SL2(Z) bookkeeping for Fourier-Mukai transforms on (rank, fiber degree).

An admissible kernel matrix [[c, a], [e, b]] has determinant one, a > 0 and
e divisible by the smallest positive fiber degree lambda. Each such matrix
spawns a family of four: the transform, its almost-inverse, and the pair
obtained from the dualized kernel; the products of matched pairs equal
minus the identity.

All slope comparisons are done with cross-multiplied integers so boundary
cases stay exact.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .errors import (AdmissibilityError, CoprimalityError, FmlatError,
                     InputError)
from .linalg import as_int

Mat2 = tuple[tuple[int, int], tuple[int, int]]


@dataclass(frozen=True)
class FM2:
    """Admissible 2x2 kernel matrix [[c, a], [e, b]] with its lambda."""

    c: int
    a: int
    e: int
    b: int
    lam: int = 1

    def __post_init__(self):
        for label in ("c", "a", "e", "b", "lam"):
            as_int(label, getattr(self, label))
        if self.lam <= 0:
            raise InputError(f"lambda must be positive, got {self.lam}")
        failures = []
        det = self.c * self.b - self.a * self.e
        if det != 1:
            failures.append(f"determinant cb - ae = {det}, must be 1")
        if self.a <= 0:
            failures.append(f"a = {self.a}, must be positive")
        if self.e % self.lam != 0:
            failures.append(f"e = {self.e} is not a multiple of lambda = {self.lam}")
        if failures:
            raise AdmissibilityError(failures)

    @property
    def matrix(self) -> Mat2:
        return ((self.c, self.a), (self.e, self.b))

    def entries(self) -> tuple[int, int, int, int]:
        return (self.c, self.a, self.e, self.b)


def mat2_mul(m: Mat2, n: Mat2) -> Mat2:
    return (
        (m[0][0] * n[0][0] + m[0][1] * n[1][0], m[0][0] * n[0][1] + m[0][1] * n[1][1]),
        (m[1][0] * n[0][0] + m[1][1] * n[1][0], m[1][0] * n[0][1] + m[1][1] * n[1][1]),
    )


class RankFdeg(NamedTuple):
    rk: int
    fd: int


def transform2(m: Mat2, v) -> RankFdeg:
    """Apply a 2x2 integer matrix to a (rank, fiber degree) pair."""
    rk, fd = v
    as_int("rank", rk)
    as_int("fiber degree", fd)
    return RankFdeg(m[0][0] * rk + m[0][1] * fd, m[1][0] * rk + m[1][1] * fd)


@dataclass(frozen=True)
class FM2Family:
    """The four matrices attached to one kernel choice.

    psi is the almost-inverse of phi and omega, xi come from the dual
    kernel, so that phi.psi = psi.phi = -1 and xi.omega = omega.xi = -1.
    """

    phi: FM2
    psi: Mat2
    omega: Mat2
    xi: Mat2


def phi_family(c: int, a: int, e: int, b: int, lam: int = 1) -> FM2Family:
    """Build the four-matrix family for an admissible (c, a, e, b)."""
    phi = FM2(c, a, e, b, lam)   # raises AdmissibilityError when violated
    return FM2Family(phi, psi=((-b, a), (e, -c)), omega=((b, a), (e, c)),
                     xi=((-c, a), (e, -b)))


def canonical_ab(r: int, d: int) -> tuple[int, int]:
    """The unique (a, b) with br - ad = 1 and 0 < a < r.

    Exists exactly when r > 1 and gcd(r, d) = 1; computed by inverting d
    modulo r.
    """
    as_int("d", d)
    if as_int("r", r) <= 1:
        raise InputError(f"r must be greater than 1, got {r}")
    if math.gcd(r, d) != 1:
        raise CoprimalityError(f"gcd({r}, {d}) = {math.gcd(r, d)}, must be 1")
    a = (-pow(d, -1, r)) % r
    b = (1 + a * d) // r
    if not (0 < a < r and b * r - a * d == 1):
        raise FmlatError(f"canonical_ab({r}, {d}) computed a = {a}, b = {b}")
    return a, b


def wit1_forced(v: RankFdeg, a: int, b: int) -> bool:
    """Whether the slope bound b/a > fd/rk holds, forcing every stable
    sheaf with these invariants into cohomological degree one.

    Strict inequality, compared as b.rk > a.fd in integers.
    """
    rk, fd = v
    as_int("rank", rk)
    as_int("fiber degree", fd)
    if as_int("a", a) <= 0:
        raise InputError(f"a must be positive, got {a}")
    as_int("b", b)
    if rk <= 0:
        raise InputError(f"rank must be positive, got {rk}")
    return b * rk > a * fd


class GenBiratClass(Enum):
    """Conclusions of the birationality classification."""

    BIRATIONAL_HIGH_RANK = "BirationalHighRank"
    BIRATIONAL_RANK_ONE = "BirationalRankOne"
    REGULAR_ISOMORPHISM = "RegularIsomorphism"
    BIRATIONAL_CODIM_TWO = "BirationalCodimTwo"
    NOT_COVERED = "NotCovered"


def gen_birat_classify(v: RankFdeg, phi: FM2, t: int | None = None,
                       k3: bool = False) -> GenBiratClass:
    """Classify how the moduli space of v relates to its transform.

    The transformed rank is rk w = b.rk - a.fd. Returns the strongest
    conclusion supported by the inequalities: high transformed rank gives a
    birational isomorphism (codimension-two singular locus on a K3 when
    rk w >= 3); rank one gives a birational isomorphism when rk > a, and a
    regular isomorphism when rk > a.t for the caller-supplied dimension
    offset t. Without t the regular-isomorphism branch cannot be evaluated
    and is skipped.
    """
    rk, fd = v
    as_int("rank", rk)
    as_int("fiber degree", fd)
    if rk <= 0:
        raise InputError(f"rank must be positive, got {rk}")
    if math.gcd(rk, fd) != 1:
        raise CoprimalityError(f"gcd({rk}, {fd}) must be 1")
    if t is not None:
        as_int("t", t)
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
    if as_int("lambda", lam) < 1 or as_int("bound", bound) < 1:
        raise InputError(f"lambda and bound must be positive, got {lam}, {bound}")
    while True:
        a = rng.randint(1, 6)
        c = rng.randint(-8, 8)
        if math.gcd(a, abs(c)) != 1:
            continue
        # solve c.b0 - a.e0 = 1, then slide along the solution line
        g, b0, e0 = _xgcd(c, -a)
        if g != 1:
            b0, e0 = -b0, -e0   # g == -1 for negative leading gcd
        k = rng.randint(-5, 5)
        b, e = b0 + a * k, e0 + c * k
        if e % lam != 0:
            continue
        if max(abs(c), abs(a), abs(e), abs(b)) > bound:
            continue
        if c * b - a * e != 1:
            continue
        return FM2(c, a, e, b, lam)


def _xgcd(x: int, y: int) -> tuple[int, int, int]:
    # returns (g, u, v) with u*x + v*y = g; g may be negative here
    u0, v0, u1, v1 = 1, 0, 0, 1
    while y:
        quanta = x // y
        x, y = y, x - quanta * y
        u0, u1 = u1, u0 - quanta * u1
        v0, v1 = v1, v0 - quanta * v1
    return x, u0, v0
