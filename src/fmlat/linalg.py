"""Small exact matrices over the rationals.

Scalars are exact and integer-first: an integral value is a plain int, and
only a value whose denominator is not 1 is a fractions.Fraction. No floating
point enters any computation; all division goes through qdiv, the one place
that imports fractions, on the first quotient that is not integral. Matrices
act on column vectors.
"""

from __future__ import annotations

import re
import sys
from collections.abc import Iterable, Iterator, Sequence
from enum import Enum
from operator import add, mul, neg, sub

from .errors import InputError, SingularMatrixError

_RATIONAL = re.compile(r"\s*([+-]?[0-9]+)(?:/([0-9]+))?\s*")
_MAX_DIGITS = 4300   # CPython's default int/str limit; keeps parsing bounded


def _is_fraction(x) -> bool:
    """isinstance(x, Fraction) without importing fractions: no Fraction can
    exist before its module has been imported."""
    fractions = sys.modules.get("fractions")
    return fractions is not None and isinstance(x, fractions.Fraction)


def _shown(x, n: int | None = 40) -> str:
    """x as the package prints it (a Fraction as n/d, anything else by repr),
    cut to n characters and "…" unless n is None. A value that cannot be
    written, like an int past the 4,300-digit str limit, shows as <int>."""
    try:
        text = str(x) if _is_fraction(x) else repr(x)
    except Exception:   # any repr may raise, and the message must not
        return f"<{type(x).__name__}>"
    return text if n is None or len(text) <= n else text[:n] + "…"


def q(x) -> int | Fraction:
    """Coerce an int, a Fraction or a string like "3/4" to its normal form:
    an int when the value is integral, a Fraction otherwise.

    Strings take the grammar [+-]digits[/digits] only, at most _MAX_DIGITS
    digits a side, surrounding whitespace allowed. Floats, bools and decimal
    notation ("0.5", "1e3") are rejected: they would silently break exactness.
    """
    if type(x) is int:
        return x
    if _is_fraction(x):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int) and not isinstance(x, bool):
        return int(x)
    if isinstance(x, str) and (match := _RATIONAL.fullmatch(x)):
        num, den = match[1], match[2] or "1"
        if max(len(num.lstrip("+-")), len(den)) > _MAX_DIGITS:
            raise InputError(f"an integer has more than {_MAX_DIGITS} digits")
        if int(den):
            return int(num) if den == "1" else qdiv(int(num), int(den))
    raise InputError(f"not an exact rational: {_shown(x)}")


def parse_int(text: str) -> int:
    """An integer written in the integer half of q's grammar, [+-]digits
    with ASCII digits only; the one reader of integers from outside text."""
    match = _RATIONAL.fullmatch(text) if isinstance(text, str) else None
    if match is None or match[2] is not None:
        raise InputError(f"not an integer: {_shown(text)}")
    return q(match[1])


def qdiv(a, b) -> int | Fraction:
    """Exact quotient a/b in the normal form of q; the one division of the
    package. A zero divisor is an InputError."""
    a, b = q(a), q(b)
    if b == 0:
        raise InputError(f"division by zero: {_shown(a)}/0")
    if type(a) is int and type(b) is int and a % b == 0:
        return a // b
    from fractions import Fraction
    return q(Fraction(a, b))


def _items(xs) -> Iterator:
    """iter(xs) for a non-string iterable; InputError for anything else."""
    if not isinstance(xs, str):
        try:
            return iter(xs)
        except TypeError:
            pass
    raise InputError(f"expected a sequence, got {_shown(xs)}")


def qvec(xs: Iterable) -> tuple[int | Fraction, ...]:
    """The entries of a sequence in the normal form of q; ints skip q."""
    return tuple([x if type(x) is int else q(x) for x in _items(xs)])


def qgrid(rows: Iterable[Iterable]) -> tuple[tuple[int | Fraction, ...], ...]:
    """A sequence of rows, each through qvec."""
    return tuple(map(qvec, _items(rows)))


def as_int(label: str, x) -> int:
    """Return x unchanged if it is an int; reject bool, float, str, Fraction
    and everything else with an InputError naming the label."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise InputError(f"{label} must be an integer, got {_shown(x)}")
    return x


def as_member(label: str, kind: type[Enum], x) -> Enum:
    """x as a member of kind, given as one or by its value; else InputError."""
    try:
        return _expect("kind", type(Enum), kind)(x)
    except ValueError:
        known = ", ".join(m.value for m in kind)
        raise InputError(f"unknown {label} {_shown(x)}; known: {known}") from None


def _expect(label: str, kind: type, x):
    """x itself if it is a kind; else an InputError naming the label and
    showing x whole, since a record's repr names its fields."""
    if not isinstance(x, kind):
        raise InputError(f"{label} must be of type {kind.__name__}, got {_shown(x, None)}")
    return x


class _Record:
    """Immutable value whose fields are its class's __slots__: field-wise ==
    within one class only, a hash and a Name(field=value, ...) repr. Each
    subclass writes its fields once, in its own __init__, through _fill."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        # the slot descriptors' own setters, which __setattr__ below refuses
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def _fill(self, *values) -> None:
        for setter, value in zip(self._setters, values):
            setter(self, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state) -> None:   # copy and pickle
        self._fill(*(state[1][name] for name in self.__slots__))


class Mat(_Record):
    """Immutable rectangular matrix with exact rational entries, each in
    the normal form of q."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable]):
        frozen = qgrid(rows)
        if not frozen or not frozen[0]:
            raise InputError("matrix must be nonempty")
        if any(len(r) != len(frozen[0]) for r in frozen):
            raise InputError("matrix rows must all have the same length")
        self._fill(frozen)

    @classmethod
    def identity(cls, n: int) -> "Mat":
        """The n x n identity for n in 1..4, the only sizes the package uses."""
        if not 1 <= as_int("identity size", n) <= 4:
            raise InputError(f"identity size must be 1 to 4, got {_shown(n)}")
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_cols(self) -> int:
        return len(self.rows[0])

    def _same_shape(self, other: "Mat") -> None:
        other = _expect("operand", Mat, other)
        if self.n_rows != other.n_rows or self.n_cols != other.n_cols:
            raise InputError(
                f"shape mismatch: {self.n_rows}x{self.n_cols} vs "
                f"{other.n_rows}x{other.n_cols}")

    def __add__(self, other: "Mat") -> "Mat":
        self._same_shape(other)
        return Mat(map(add, ra, rb) for ra, rb in zip(self.rows, other.rows))

    def __sub__(self, other: "Mat") -> "Mat":
        self._same_shape(other)
        return Mat(map(sub, ra, rb) for ra, rb in zip(self.rows, other.rows))

    def __neg__(self) -> "Mat":
        return Mat(map(neg, row) for row in self.rows)

    def __rmul__(self, k) -> "Mat":
        k = q(k)
        return Mat(tuple(k * a for a in row) for row in self.rows)

    def __mul__(self, other: "Mat") -> "Mat":
        if self.n_cols != _expect("operand", Mat, other).n_rows:
            raise InputError(
                f"cannot multiply {self.n_rows}x{self.n_cols} by "
                f"{other.n_rows}x{other.n_cols}")
        cols = tuple(zip(*other.rows))
        return Mat([[sum(map(mul, row, col)) for col in cols] for row in self.rows])

    def apply(self, vec: Sequence) -> tuple[int | Fraction, ...]:
        v = qvec(vec)
        if len(v) != self.n_cols:
            raise InputError(f"vector has length {len(v)}, expected {self.n_cols}")
        return qvec(sum(a * b for a, b in zip(row, v)) for row in self.rows)

    def transpose(self) -> "Mat":
        return Mat(zip(*self.rows))

    def det(self) -> int | Fraction:
        if self.n_rows != self.n_cols:
            raise InputError("determinant of a non-square matrix")
        return _eliminate([list(row) for row in self.rows], self.n_rows)

    def inverse(self) -> "Mat":
        if self.n_rows != self.n_cols:
            raise InputError("inverse of a non-square matrix")
        n = self.n_rows
        work = [list(row) + [int(i == j) for j in range(n)]
                for i, row in enumerate(self.rows)]
        if _eliminate(work, n) == 0:
            raise SingularMatrixError("matrix is singular")
        return Mat(row[n:] for row in work)


def _eliminate(work: list[list], n: int) -> int | Fraction:
    """Gauss-Jordan elimination in place on the first n columns of work,
    keeping every entry in the normal form of q; returns the determinant of
    that block (0, rows partly reduced, if singular)."""
    det = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            det = -det
        det = q(det * work[col][col])
        inv = qdiv(1, work[col][col])
        work[col] = [q(a * inv) for a in work[col]]
        for r in range(n):
            if r != col and work[r][col]:
                factor = work[r][col]
                work[r] = [q(a - factor * b) for a, b in zip(work[r], work[col])]
    return det

