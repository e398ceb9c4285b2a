"""Exact arithmetic in the even Chow ring of an elliptic surface.

A surface is described by its divisor lattice (a Gram matrix over a chosen
basis), the fiber and section classes, the canonical class and chi(O).
Classes live in degrees 0, 1, 2 only; products in higher degree vanish on a
surface, so the ring multiplication truncates.

The distinguished "standard K3 model" has basis (sigma, f) with
sigma^2 = -2, sigma.f = 1, f^2 = 0, trivial canonical class and chi(O) = 2.
Several higher modules (operators, the product ring of X x X) are pinned to
this model and refuse anything else. They read its ring through one private
record, _K3_RING, whose every table this module derives from the descriptor.
"""

from __future__ import annotations

import math
import os
from typing import Iterable

from .errors import InputError, UnsupportedModelError
from .linalg import Mat, _Record, _expect, _items, _shown, as_int, parse_int, q, qdiv, qvec


class SurfaceDescriptor(_Record):
    """Numerical model of an elliptic surface.

    gram is the intersection form on the declared divisor sublattice; the
    fiber, section and canonical classes are integer vectors over the basis.
    lam is the smallest positive fiber degree; when omitted it defaults to
    the gcd of fiber degrees of the basis vectors, which is only correct for
    the modeled sublattice (override it if the surface has smaller
    multisection degree).
    """

    __slots__ = ("name", "chi_O", "basis_names", "gram", "fiber", "canonical",
                 "section", "lam")

    def __init__(self, name: str, chi_O: int, basis_names: tuple[str, ...],
                 gram: tuple[tuple[int, ...], ...], fiber: tuple[int, ...],
                 canonical: tuple[int, ...], section: tuple[int, ...] | None = None,
                 lam: int | None = None):
        _expect("name", str, name)
        basis_names = tuple(_expect("basis name", str, b) for b in _items(basis_names))
        n = len(basis_names)
        if n == 0:
            raise InputError("basis: divisor basis must be nonempty")
        if len(set(basis_names)) != n:
            raise InputError(f"basis: names must be distinct, got {basis_names}")
        gram = tuple(tuple(as_int("gram", x) for x in _items(row)) for row in _items(gram))
        if len(gram) != n or any(len(r) != n for r in gram):
            raise InputError(f"gram: must be a {n}x{n} matrix (one row per basis name)")
        if any(gram[i][j] != gram[j][i] for i in range(n) for j in range(n)):
            raise InputError("gram: must be symmetric")
        fiber = _int_vec("fiber", fiber, n)
        canonical = _int_vec("canonical", canonical, n)
        chi_O = as_int("chi_O", chi_O)
        # fiber degree of basis vector i: row i of the (symmetric) gram . fiber
        degs = [sum(g * f for g, f in zip(row, fiber)) for row in gram]
        if sum(f * d for f, d in zip(fiber, degs)) != 0:
            raise InputError("fiber: fiber.fiber must vanish")
        if section is not None:
            section = _int_vec("section", section, n)
            if sum(s * d for s, d in zip(section, degs)) != 1:
                raise InputError("section: section.fiber must equal 1")
        if lam is None:
            lam = math.gcd(*degs)
            if lam == 0:
                raise InputError("lambda: fiber pairs to zero with the whole lattice, "
                                 "smallest fiber degree is undefined")
        else:
            lam = as_int("lambda", lam)
            if lam <= 0:
                raise InputError("lambda: must be positive")
            if any(d % lam for d in degs):
                raise InputError("lambda: must divide the fiber degree of every basis vector")
        self._fill(name, chi_O, basis_names, gram, fiber, canonical, section, lam)

    @property
    def rank(self) -> int:
        return len(self.basis_names)


def _int_vec(key: str, xs, n: int) -> tuple[int, ...]:
    vec = tuple(as_int(key, x) for x in _items(xs))
    if len(vec) != n:
        raise InputError(f"{key}: expected {n} entries, got {len(vec)}")
    return vec


def dot(surface: SurfaceDescriptor, x: Iterable, y: Iterable) -> int | Fraction:
    """Intersection pairing of two divisor vectors under the Gram form."""
    _expect("surface", SurfaceDescriptor, surface)
    xv, yv = qvec(x), qvec(y)
    n = surface.rank
    if len(xv) != n or len(yv) != n:
        raise InputError(f"divisor vectors must have length {n}")
    return q(sum(xv[i] * surface.gram[i][j] * yv[j]
                 for i in range(n) for j in range(n)))


STANDARD_K3 = SurfaceDescriptor(
    name="standard-k3",
    chi_O=2,
    basis_names=("sigma", "f"),
    gram=((-2, 1), (1, 0)),
    fiber=(0, 1),
    section=(1, 0),
    canonical=(0, 0),
    lam=1,
)


def is_standard_k3(surface: SurfaceDescriptor) -> bool:
    """True when the descriptor is numerically the standard K3 model."""
    s, k = _expect("surface", SurfaceDescriptor, surface), STANDARD_K3
    return ((s.chi_O, s.gram, s.fiber, s.section, s.canonical, s.lam)
            == (k.chi_O, k.gram, k.fiber, k.section, k.canonical, k.lam))


def _require_standard(surface: SurfaceDescriptor) -> None:
    if not is_standard_k3(surface):
        raise UnsupportedModelError(
            f"surface {surface.name!r} is not the standard K3 model")


class CohClass(_Record):
    """An even Chow class (rank, divisor part, point part).

    r is ch0, div holds the ch1 coefficients over the surface basis, and p
    is the coefficient of the point class in ch2. Chern characters of actual
    sheaves have integral r and div and p in (1/2)Z; fractional entries are
    legal (K-theory classes with rational normalizations occur), so
    integrality is reported by integrality_warnings rather than enforced.
    """

    __slots__ = ("r", "div", "p")

    def __init__(self, r: int | Fraction, div: tuple[int | Fraction, ...],
                 p: int | Fraction):
        self._fill(q(r), qvec(div), q(p))

    def __add__(self, other: "CohClass") -> "CohClass":
        if len(self.div) != len(_expect("operand", CohClass, other).div):
            raise InputError("cannot add classes over different lattices")
        return CohClass(self.r + other.r,
                        tuple(a + b for a, b in zip(self.div, other.div)),
                        self.p + other.p)

    def __sub__(self, other: "CohClass") -> "CohClass":
        return self + (-1) * _expect("operand", CohClass, other)

    def __rmul__(self, k) -> "CohClass":
        k = q(k)
        return CohClass(k * self.r, tuple(k * d for d in self.div), k * self.p)

    def coords(self) -> tuple[int | Fraction, ...]:
        return (self.r, *self.div, self.p)


def render_class(v: CohClass) -> str:
    """(r, div..., p), each entry written whole by _shown."""
    return "(" + ", ".join(_shown(x, None) for x in _expect("class", CohClass, v).coords()) + ")"


def integrality_warnings(v: CohClass) -> list[str]:
    """Advisory notes when a class cannot be ch of a sheaf complex."""
    _expect("class", CohClass, v)
    notes = []
    if v.r.denominator != 1:
        notes.append(f"rank {_shown(v.r, None)} is not an integer")
    for i, d in enumerate(v.div):
        if d.denominator != 1:
            notes.append(f"divisor coefficient {i} = {_shown(d, None)} is not an integer")
    if (2 * v.p).denominator != 1:
        notes.append(f"point part {_shown(v.p, None)} is not a half-integer")
    return notes


def _check_class(surface: SurfaceDescriptor, v: CohClass) -> None:
    _expect("surface", SurfaceDescriptor, surface)
    if len(_expect("class", CohClass, v).div) != surface.rank:
        raise InputError(
            f"class has {len(v.div)} divisor coordinates, surface "
            f"{surface.name!r} has lattice rank {surface.rank}")


def ch_line_bundle(surface: SurfaceDescriptor, divisor: Iterable) -> CohClass:
    """Chern character (1, D, D^2/2) of the line bundle O(D)."""
    _expect("surface", SurfaceDescriptor, surface)
    d = qvec(divisor)
    if len(d) != surface.rank:
        raise InputError(
            f"divisor has {len(d)} entries, surface {surface.name!r} "
            f"has lattice rank {surface.rank}")
    return CohClass(1, d, qdiv(dot(surface, d, d), 2))


def mult(surface: SurfaceDescriptor, v: CohClass, w: CohClass) -> CohClass:
    """Truncated ring product; everything of degree > 2 dies on a surface."""
    _check_class(surface, v)
    _check_class(surface, w)
    div = tuple(v.r * wd + w.r * vd for vd, wd in zip(v.div, w.div))
    p = v.r * w.p + w.r * v.p + dot(surface, v.div, w.div)
    return CohClass(v.r * w.r, div, p)


def dual(v: CohClass) -> CohClass:
    """Chern character of the derived dual: odd degree flips sign."""
    _expect("class", CohClass, v)
    return CohClass(v.r, tuple(-d for d in v.div), v.p)


def todd(surface: SurfaceDescriptor) -> CohClass:
    """Todd class (1, -K/2, chi(O))."""
    _expect("surface", SurfaceDescriptor, surface)
    return CohClass(1, tuple(qdiv(-k, 2) for k in surface.canonical),
                    surface.chi_O)


def chi_tensor(surface: SurfaceDescriptor, v: CohClass, w: CohClass) -> int | Fraction:
    """Euler characteristic of the derived tensor product, by Riemann-Roch.

    Integrates v.w.td over the surface; the integral extracts the point
    coefficient.
    """
    return mult(surface, mult(surface, v, w), todd(surface)).p


def fdeg(surface: SurfaceDescriptor, v: CohClass) -> int | Fraction:
    """Fiber degree: intersection of the divisor part with the fiber class."""
    _check_class(surface, v)
    return dot(surface, v.div, surface.fiber)


def moduli_dim_k3(surface: SurfaceDescriptor, v: CohClass) -> int:
    """Expected dimension 2 - chi(v, v) of the moduli space on a K3.

    Standard Mukai dimension formula, valid only for the standard K3 model;
    for other surfaces the caller must supply dimensions explicitly.
    """
    _require_standard(surface)
    _check_class(surface, v)
    dim = 2 - chi_tensor(surface, dual(v), v)
    if dim.denominator != 1:
        raise InputError(f"moduli dimension {_shown(dim)} is not an integer; "
                         "class is not a sheaf class")
    return dim


# Standard-model coordinates: (r, s, t, p) for r + s.sigma + t.f + p.[pt].

def to_coords(v: CohClass) -> tuple[int | Fraction, ...]:
    if len(_expect("class", CohClass, v).div) != 2:
        raise UnsupportedModelError("standard-model coordinates need a class on "
                                    f"the K3 lattice, not lattice rank {len(v.div)}")
    return (v.r, v.div[0], v.div[1], v.p)


def from_coords(c: Iterable) -> CohClass:
    c = qvec(c)
    if len(c) != 4:
        raise InputError(f"standard-model coordinates have 4 entries, got {len(c)}")
    return CohClass(c[0], c[1:3], c[3])


UNIT_CLASS = from_coords((1, 0, 0, 0))
SIGMA_CLASS = from_coords((0, 1, 0, 0))
FIBER_CLASS = from_coords((0, 0, 1, 0))
POINT_CLASS = from_coords((0, 0, 0, 1))
COORD_BASIS = (UNIT_CLASS, SIGMA_CLASS, FIBER_CLASS, POINT_CLASS)


class _Ring(_Record):
    """The ring facts the operator and product layers read, each derived once
    from a rank-2 descriptor on the coordinate basis e = (1, D1, D2, pt).

    pair_table[i][k] holds the coordinates of e_i . e_k; gram is the
    Riemann-Roch pairing (v, w) -> chi(v^dual . w); todd_inverse is
    1 - u + u^2 for u = todd - 1, exact as u^3 lies in degree three; c2 is
    c2(T_X) = 12 chi(O) - K.K (Noether); pi_push_pull is pi^* pi_* along the
    elliptic fibration, e -> fdeg(e).1 + chi(e . O(-F)).f by GRR on P^1.
    """

    __slots__ = ("pair_table", "gram", "todd", "todd_inverse", "c2", "pi_push_pull")

    def __init__(self, surface: SurfaceDescriptor):
        s, b = _expect("surface", SurfaceDescriptor, surface), COORD_BASIS
        pair_table = tuple(tuple(to_coords(mult(s, ei, ek)) for ek in b) for ei in b)
        td, o_minus_f = todd(s), ch_line_bundle(s, [-x for x in s.fiber])
        u = td - UNIT_CLASS
        self._fill(pair_table, Mat([[chi_tensor(s, dual(ei), ek) for ek in b] for ei in b]),
                   td, UNIT_CLASS - u + mult(s, u, u),
                   12 * s.chi_O - dot(s, s.canonical, s.canonical),
                   Mat(zip(*[(fdeg(s, e), 0, chi_tensor(s, e, o_minus_f), 0) for e in b])))


_K3_RING = _Ring(STANDARD_K3)


def pairing_gram() -> Mat:
    """Gram matrix of (v, w) -> chi(v^dual . w) in (r, s, t, p) coordinates;
    it is symmetric and unimodular up to sign."""
    return _K3_RING.gram


# Surface description files: plain "key = value" lines, '#' comments.
# gram rows are separated by ';'. Vector entries split on commas or spaces.

# load_surface reads at most this many characters; a K3 file is about 130
MAX_SURFACE_CHARS = 65536

_SURFACE_KEYS = ("name", "chi_O", "basis", "gram", "fiber", "section",
                 "canonical", "lambda")
_REQUIRED_KEYS = ("name", "chi_O", "basis", "gram", "fiber", "canonical")


def parse_surface(text: str, filename: str = "<surface>") -> SurfaceDescriptor:
    entries: dict[str, tuple[int, str]] = {}
    _expect("filename", str, filename)
    for lineno, raw in enumerate(_expect("text", str, text).splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not eq or not key:
            raise InputError(f"{filename}:{lineno}: expected 'key = value'")
        if key not in _SURFACE_KEYS:
            raise InputError(f"{filename}:{lineno}: unknown key {key!r}")
        if key in entries:
            raise InputError(f"{filename}:{lineno}: duplicate key {key!r}")
        if not value:
            raise InputError(f"{filename}:{lineno}: key {key!r} has no value")
        entries[key] = (lineno, value)
    for req in _REQUIRED_KEYS:
        if req not in entries:
            raise InputError(f"{filename}: missing required key {req!r}")

    def split_items(value: str) -> list[str]:
        return value.replace(",", " ").split()

    def int_list(key: str, value: str | None = None) -> list[int]:
        lineno, whole = entries[key]
        out = []
        for tok in split_items(whole if value is None else value):
            try:
                out.append(parse_int(tok))
            except InputError as exc:
                raise InputError(f"{filename}:{lineno}: key {key!r}: {exc}") from None
        return out

    def int_scalar(key: str) -> int:
        vals = int_list(key)
        lineno = entries[key][0]
        if len(vals) != 1:
            raise InputError(f"{filename}:{lineno}: key {key!r}: expected one integer")
        return vals[0]

    # token errors already name the file and line, so they stay outside the
    # try that prefixes the descriptor's own errors with the file name
    fields = dict(
        gram=tuple(tuple(int_list("gram", chunk))
                   for chunk in entries["gram"][1].split(";") if split_items(chunk)),
        name=entries["name"][1],
        chi_O=int_scalar("chi_O"),
        basis_names=tuple(split_items(entries["basis"][1])),
        fiber=tuple(int_list("fiber")),
        canonical=tuple(int_list("canonical")),
        section=tuple(int_list("section")) if "section" in entries else None,
        lam=int_scalar("lambda") if "lambda" in entries else None,
    )
    try:
        return SurfaceDescriptor(**fields)
    except InputError as exc:
        raise InputError(f"{filename}: {exc}") from exc


def load_surface(path: str | os.PathLike) -> SurfaceDescriptor:
    # open() also takes a file descriptor, which it would read and close
    if not isinstance(path, (str, os.PathLike)):
        raise InputError(f"surface file must be a path, got {_shown(path)}")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read(MAX_SURFACE_CHARS + 1)
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read surface file {path}: {exc}") from exc
    if len(text) > MAX_SURFACE_CHARS:
        raise InputError(f"surface file {path} is longer than "
                         f"{MAX_SURFACE_CHARS} characters")
    return parse_surface(text, filename=str(path))
