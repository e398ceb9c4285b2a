"""Endomorphisms of the even Chow ring of the standard K3 model.

Operators are exact 4x4 rational matrices acting on column vectors in the
coordinate order (r, s, t, p), i.e. rank, sigma and fiber coefficients of
ch1, and the point coefficient of ch2; restrict2 reduces one to a 2x2
Operator on (rank, fiber degree), and only golden's tables are bare Mats.
Two elementary families generate everything used here:

* op_tensor(c): multiplication by a fixed class c;
* op_pi_tensor(c): v -> pullback-of-pushforward along the elliptic
  fibration of v.c.

Both read the K3's tables from chow's ring record.

Every named matrix (the "golden" grid) exists twice: once in golden, once
rebuilt from the elementary generators. The verification suite insists the
two agree entrywise. Seven of them, the invertible transforms, share one
shape: for phi = [[c, a], [e, b]] acting on (rank, fiber degree), an
integer twist degree k and S = [[0, 1], [-1, 0]], in 2x2 blocks,

    W(phi, k) = [[phi, 0], [k phi + S phi - phi S, phi]].
"""

from __future__ import annotations

from enum import Enum
from operator import mul
from typing import Iterable

from .chow import (_K3_RING, CohClass, STANDARD_K3, UNIT_CLASS, ch_line_bundle,
                   from_coords, render_class, to_coords)
from .errors import InputError, ReductionError
from .linalg import Mat, _Record, _expect, _shown, as_int, as_member, qvec


class Operator(_Record):
    """A square 2x2 or 4x4 exact matrix plus a human-readable label."""

    __slots__ = ("matrix", "label")

    def __init__(self, matrix: Mat, label: str = ""):
        if not isinstance(matrix, Mat):
            raise InputError(f"an operator needs a Mat, got {_shown(matrix, None)}")
        if matrix.n_rows != matrix.n_cols or matrix.n_rows not in (2, 4):
            raise InputError("an operator is a square 2x2 or 4x4 matrix")
        self._fill(matrix, _expect("label", str, label))

    def apply(self, v: CohClass) -> CohClass:
        if self.matrix.n_rows == 2:
            raise InputError(f"{self.label} is 2x2 and acts on (rank, fiber "
                             f"degree) through .matrix.apply, not on a class")
        return from_coords(self.matrix.apply(to_coords(v)))

    def __add__(self, other: "Operator") -> "Operator":
        return Operator(self.matrix + _expect("operand", Operator, other).matrix,
                        f"({self.label} + {other.label})")

    def __sub__(self, other: "Operator") -> "Operator":
        return Operator(self.matrix - _expect("operand", Operator, other).matrix,
                        f"({self.label} - {other.label})")

    def __neg__(self) -> "Operator":
        return Operator(-self.matrix, f"-({self.label})")

    def __matmul__(self, other: "Operator") -> "Operator":
        return Operator(self.matrix * _expect("operand", Operator, other).matrix,
                        f"({self.label} . {other.label})")


IDENTITY = Operator(Mat.identity(4), "id")


# the pair table indexed [row][k][i]: entry [row][k] of the matrix of
# multiplication by the class with coordinates x is x . _TENSOR_TABLE[row][k]
_TENSOR_TABLE = tuple(tuple(tuple(_K3_RING.pair_table[i][k][row] for i in range(4))
                            for k in range(4)) for row in range(4))


def _tensor_rows(x) -> list[list]:
    """Rows of the matrix of multiplication by the class with coordinates x."""
    return [[sum(map(mul, x, t)) for t in row] for row in _TENSOR_TABLE]


def op_tensor(c: CohClass) -> Operator:
    """Multiplication by the class c, as a matrix."""
    return Operator(Mat(_tensor_rows(to_coords(c))), f"tensor{render_class(c)}")


def op_pi_tensor(c: CohClass) -> Operator:
    """The family v -> pi^* pi_* (v.c), as a matrix."""
    return Operator(_K3_RING.pi_push_pull * Mat(_tensor_rows(to_coords(c))),
                    f"pi_tensor{render_class(c)}")


# Distinguished classes of the degree-d kernel construction.

def pd_line_class(d: int) -> CohClass:
    """ch of the line bundle O((d+1) sigma + 2(d+1) f) twisting the kernel."""
    _check_d(d)
    return ch_line_bundle(STANDARD_K3, ((d + 1), 2 * (d + 1)))


def pd_pushforward_twist_class(d: int) -> CohClass:
    """ch of the rank-d pushforward of the degree-d kernel, twisted by the
    relative dualizing sheaf: (d, -sigma + (d^2+d) f, -2d-1)."""
    _check_d(d)
    return from_coords((d, -1, d * d + d, -2 * d - 1))


def _check_d(d) -> None:
    if as_int("kernel degree d", d) < 1:
        raise InputError(f"kernel degree d must be >= 1, got {_shown(d)}")


class GoldenName(Enum):
    """Names of the pinned reference matrices; CLI identifiers match."""

    TensorL1 = "TensorL1"
    TensorSigma = "TensorSigma"
    PiPushPull = "PiPushPull"
    PiPushPullSigma = "PiPushPullSigma"
    FM_Pd = "FM_Pd"
    Tw_d = "Tw_d"
    FM_Fd = "FM_Fd"
    A_S = "A_S"
    A_Sprime = "A_Sprime"
    A_TL = "A_TL"
    B_S = "B_S"


_NEEDS_D = {GoldenName.TensorL1, GoldenName.Tw_d, GoldenName.FM_Pd,
            GoldenName.FM_Fd}


_SIGMA_CH = ch_line_bundle(STANDARD_K3, (1, 0))
_FM_PD_RIGHT = op_pi_tensor(_SIGMA_CH) - op_tensor(_SIGMA_CH)   # FM_Pd's d-free factor


def _check_args(name, d, divisor) -> tuple[GoldenName, tuple | None]:
    """The argument check shared by build and golden: d exactly for the
    names in _NEEDS_D, a two-entry divisor exactly for A_TL."""
    name = as_member("matrix name", GoldenName, name)
    if name in _NEEDS_D:
        if d is None:
            raise InputError(f"{name.value} needs a kernel degree d")
        _check_d(d)
    elif d is not None:
        raise InputError(f"{name.value} takes no kernel degree d, got {_shown(d)}")
    if name is not GoldenName.A_TL:
        if divisor is not None:
            raise InputError(f"{name.value} takes no divisor")
        return name, None
    if divisor is None:
        raise InputError("A_TL needs a divisor")
    divisor = qvec(divisor)
    if len(divisor) != 2:
        raise InputError(f"A_TL needs a divisor with 2 entries, got {len(divisor)}")
    return name, divisor


def build(name: GoldenName, d: int | None = None,
          divisor: Iterable | None = None) -> Operator:
    """Construct a named operator purely from the elementary generators."""
    name, divisor = _check_args(name, d, divisor)
    if name is GoldenName.TensorL1:
        op = op_tensor(pd_line_class(d))
    elif name is GoldenName.TensorSigma:
        op = op_tensor(_SIGMA_CH)
    elif name is GoldenName.PiPushPull:
        op = op_pi_tensor(UNIT_CLASS)
    elif name is GoldenName.PiPushPullSigma:
        op = op_pi_tensor(_SIGMA_CH)
    elif name is GoldenName.FM_Pd:
        op = op_tensor(pd_line_class(d)) @ _FM_PD_RIGHT
    elif name is GoldenName.Tw_d:
        op = op_tensor(pd_pushforward_twist_class(d))
    elif name is GoldenName.FM_Fd:
        op = _fm_fd(build(GoldenName.FM_Pd, d), d)
    elif name is GoldenName.A_S:
        op = op_pi_tensor(UNIT_CLASS) - IDENTITY
    elif name is GoldenName.A_Sprime:
        a_s = build(GoldenName.A_S)
        op = -Operator(a_s.matrix.inverse(), f"({a_s.label})^-1")
    elif name is GoldenName.A_TL:
        op = op_tensor(ch_line_bundle(STANDARD_K3, divisor))
    elif name is GoldenName.B_S:
        op = restrict2(build(GoldenName.A_S))
    else:  # pragma: no cover - enum is exhaustive
        raise InputError(f"unknown operator name {name!r}")
    return Operator(op.matrix, f"{name.value}={op.label}")


def _fm_fd(fm_pd: Operator, d: int) -> Operator:
    """FM_Fd from the FM_Pd built at the same d."""
    return fm_pd + op_pi_tensor(pd_pushforward_twist_class(d))


def _w(c, a, e, b, k) -> Mat:
    """W(phi, k) of the module docstring, for phi = [[c, a], [e, b]]."""
    return Mat([[c, a, 0, 0],
                [e, b, 0, 0],
                [k * c + a + e, k * a + b - c, c, a],
                [k * e + b - c, k * b - a - e, e, b]])


def golden(name: GoldenName, d: int | None = None,
           divisor: Iterable | None = None) -> Mat:
    """The pinned reference matrix. The seven invertible tables are
    (phi, k) pairs through _w; Tw_d, PiPushPull, PiPushPullSigma and B_S,
    which are no W, are literal tables."""
    name, divisor = _check_args(name, d, divisor)
    if name is GoldenName.TensorL1:
        return _w(1, 0, d + 1, 1, d + 1)
    if name is GoldenName.TensorSigma:
        return _w(1, 0, 1, 1, -1)
    if name is GoldenName.PiPushPull:
        return Mat([[0, 1, 0, 0],
                    [0, 0, 0, 0],
                    [2, -1, 0, 1],
                    [0, 0, 0, 0]])
    if name is GoldenName.PiPushPullSigma:
        return Mat([[1, 1, 0, 0],
                    [0, 0, 0, 0],
                    [0, -3, 1, 1],
                    [0, 0, 0, 0]])
    if name is GoldenName.FM_Pd:
        return _w(0, 1, -1, d, d - 1)
    if name is GoldenName.Tw_d:
        return Mat([[d, 0, 0, 0],
                    [-1, d, 0, 0],
                    [d * d + d, 0, d, 0],
                    [-2 * d - 1, d * d + d + 2, -1, d]])
    if name is GoldenName.FM_Fd:
        return _w(-1, d + 1, -1, d, d)
    if name is GoldenName.A_S:
        return _w(-1, 1, 0, -1, -1)
    if name is GoldenName.A_Sprime:
        return _w(1, 1, 0, 1, 1)
    if name is GoldenName.A_TL:
        s, t = divisor
        return _w(1, 0, s, 1, t - s)
    if name is GoldenName.B_S:
        return Mat([[-1, 1],
                    [0, -1]])
    raise InputError(f"unknown golden name {name!r}")  # pragma: no cover


def restrict2(op: Operator) -> Operator:
    """Top-left 2x2 block of a 4x4 operator, on (rank, fiber degree).

    Well-defined only when the (r, s) output rows ignore the (t, p) inputs;
    anything else cannot act on the rank/fiber-degree plane alone.
    """
    name = _expect("op", Operator, op).label or "<anonymous>"
    m = op.matrix.rows
    if len(m) != 4:
        raise InputError(f"operator {name} is 2x2; restrict2 needs a 4x4 operator")
    leak = [(i, j) for i in (0, 1) for j in (2, 3) if m[i][j] != 0]
    if leak:
        raise ReductionError(
            f"operator {name} does not reduce: nonzero entries at {leak}")
    return Operator(Mat([[m[0][0], m[0][1]], [m[1][0], m[1][1]]]),
                    f"restrict2({op.label})")
