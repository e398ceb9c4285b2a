"""The modeled Chow ring of X x X for the standard K3 model.

Every class has one form: a 4x4 grid, a Mat, of coefficients of
q1^* e_i . q2^* e_j over the coordinate basis e = (1, sigma, f, pt), plus one
coefficient of the diagonal Delta. The form is unique because
H^1(X) = H^3(X) = 0: the diagonal pushforward of a divisor x is the grid
class x (x) pt + pt (x) x, and of a point it is [*], so only delta_*(1) =
Delta lies outside the grid. Hence == on ProductClass is equality of classes.

Multiplication encodes the diagonal self-intersection through the excess
formula delta_*(g1) . delta_*(g2) = delta_*(g1.g2.c2(T_X)); only
Delta.Delta = c2[*] survives the degree truncation. The K3's tables, c2 and
Todd classes are read from chow's ring record.
"""

from __future__ import annotations

from enum import Enum

from .chow import (_K3_RING, CohClass, STANDARD_K3, UNIT_CLASS, from_coords,
                   mult, to_coords)
from .errors import InputError
from .linalg import Mat, _Record, _expect, _shown, as_member, q, qdiv
from .operators import _SIGMA_CH, Operator, op_tensor, pd_line_class


class Side(Enum):
    FIRST = "first"
    SECOND = "second"


class ProductClass(_Record):
    """A 4x4 Mat grid plus the coefficient of Delta; immutable and exact."""

    __slots__ = ("decomp", "delta")

    def __init__(self, decomp: Mat | tuple[tuple[int | Fraction, ...], ...],
                 delta: int | Fraction):
        decomp = decomp if isinstance(decomp, Mat) else Mat(decomp)
        if decomp.n_rows != 4 or decomp.n_cols != 4:
            raise InputError("decomposable part must be a 4x4 grid")
        self._fill(decomp, q(delta))

    def __add__(self, other: "ProductClass") -> "ProductClass":
        _expect("operand", ProductClass, other)
        return ProductClass(self.decomp + other.decomp, self.delta + other.delta)

    def __sub__(self, other: "ProductClass") -> "ProductClass":
        return self + (-1) * _expect("operand", ProductClass, other)

    def __rmul__(self, k) -> "ProductClass":
        k = q(k)
        return ProductClass(k * self.decomp, k * self.delta)


def _single(i: int, j: int, value=1) -> ProductClass:
    dec = [[0] * 4 for _ in range(4)]
    dec[i][j] = value
    return ProductClass(dec, 0)


UNIT = _single(0, 0)
F_CROSS_F = _single(2, 2)      # [f x f]
POINT = _single(3, 3)          # [*]
PI = _single(2, 0) + _single(0, 2)    # q1^* f + q2^* f
DELTA = ProductClass(((0,) * 4,) * 4, 1)

_BASIS_LABELS = ("X", "sigma", "f", "*")


# the nonzero coordinates (slot, value) of each product e_i . e_k
_PAIR_TERMS = tuple(tuple(tuple((u, x) for u, x in enumerate(p) if x) for p in products)
                    for products in _K3_RING.pair_table)
# multiplication by td, and fm_matrix's P.td
_TODD_TENSOR = op_tensor(_K3_RING.todd).matrix
_PAIRING_TODD = Mat([[p[3] for p in products]
                     for products in _K3_RING.pair_table]) * _TODD_TENSOR


def pull(side: Side, v: CohClass) -> ProductClass:
    """Pullback along one projection: coefficients go against the unit of
    the other factor."""
    side = as_member("side", Side, side)
    c = to_coords(v)
    if side is Side.FIRST:
        return ProductClass(tuple((x, 0, 0, 0) for x in c), 0)
    return ProductClass((c,) + ((0, 0, 0, 0),) * 3, 0)


def push(side: Side, a: ProductClass) -> CohClass:
    """Pushforward along one projection.

    Integrating a factor keeps only its point coefficient; the diagonal is a
    section of either projection, so Delta pushes to 1.
    """
    _expect("class", ProductClass, a)
    if as_member("side", Side, side) is Side.FIRST:
        coords = [row[3] for row in a.decomp.rows]
    else:
        coords = list(a.decomp.rows[3])
    coords[0] += a.delta
    return from_coords(coords)


def prod_mult(a: ProductClass, b: ProductClass) -> ProductClass:
    """Bilinear product; total codimension above four is discarded."""
    _expect("operand", ProductClass, a)
    _expect("operand", ProductClass, b)
    grid_a, grid_b = a.decomp.rows, b.decomp.rows
    dec = [[0] * 4 for _ in range(4)]

    def add_outer(coeff, first, second):
        for u, fu in first:
            for w, sw in second:
                dec[u][w] += coeff * fu * sw

    # decomposable x decomposable: factorwise surface products
    for i in range(4):
        for j in range(4):
            ca = grid_a[i][j]
            if not ca:
                continue
            for k in range(4):
                for l in range(4):
                    cb = grid_b[k][l]
                    if not cb:
                        continue
                    add_outer(ca * cb, _PAIR_TERMS[i][k], _PAIR_TERMS[j][l])

    # Delta x decomposable: Delta . q1^*e_i . q2^*e_j = delta_*(e_i . e_j);
    # restrict to the diagonal first, x = sum of the grid's e_i . e_j
    x = [0] * 4
    for cd, grid in ((a.delta, grid_b), (b.delta, grid_a)):
        if not cd:
            continue
        for i in range(4):
            for j in range(4):
                cij = grid[i][j]
                if cij:
                    for u, xu in _PAIR_TERMS[i][j]:
                        x[u] += cd * cij * xu
    # then delta_*(x) in normal form: delta_*(e) = e x pt + pt x e for a
    # divisor e, and delta_*(pt) = [*]
    for u in (1, 2):
        dec[u][3] += x[u]
        dec[3][u] += x[u]
    # diagonal self-intersection: Delta . Delta = c2[*]
    dec[3][3] += x[3] + _K3_RING.c2 * a.delta * b.delta

    return ProductClass(dec, x[0])


def product_todd() -> ProductClass:
    """Todd class of X x X: the product of the factor Todd classes."""
    return prod_mult(pull(Side.FIRST, _K3_RING.todd), pull(Side.SECOND, _K3_RING.todd))


def diag_push_grr(v: CohClass) -> ProductClass:
    """Pushforward of a class along the diagonal, with Todd correction.

    Grothendieck-Riemann-Roch for the diagonal embedding, whose normal
    bundle is T_X: delta_*(v . td_X^{-1}), which by the projection formula
    is delta_*(v . td_X) . td_{XxX}^{-1}. The structure sheaf of the
    diagonal has class Delta - 2[*].
    """
    to_coords(v)   # a class off the K3 lattice fails here, not in mult
    return prod_mult(DELTA, pull(Side.FIRST, mult(STANDARD_K3, v, _K3_RING.todd_inverse)))


def _half(a: ProductClass) -> ProductClass:
    """a/2 entry by entry through qdiv, so an even class stays integral."""
    return ProductClass([[qdiv(x, 2) for x in row] for row in a.decomp.rows],
                        qdiv(a.delta, 2))


# the ideal sheaf of the diagonal is Pi - Pi^2/2 - ch O_Delta; "Pd" twists it,
# and its d-free part, this times the second-factor pull of ch O(sigma), is
# taken first since the ring is commutative and associative
_PD_BASE = PI - _half(prod_mult(PI, PI)) - diag_push_grr(UNIT_CLASS)
_PD_BASE_SIGMA = prod_mult(_PD_BASE, pull(Side.SECOND, _SIGMA_CH))


_KERNEL_KINDS = ("Pd", "IDelta")


def kernel_class(kind: str, d: int | None = None) -> ProductClass:
    """Chern character of a universal Fourier-Mukai kernel on X x X.

    "IDelta" is the pushforward from the fiber square of the ideal sheaf of
    the diagonal. "Pd" (d >= 1) is the pushforward of the degree-d
    universal line bundle: the same base class twisted by line-bundle pulls
    from both factors.
    """
    if kind not in _KERNEL_KINDS:
        raise InputError(f"unknown kernel kind {_shown(kind)}; "
                         f"expected one of {_KERNEL_KINDS}")
    if kind == "IDelta":
        if d is not None:
            raise InputError(f"IDelta takes no kernel degree d, got {_shown(d)}")
        return _PD_BASE
    if d is None:
        raise InputError("Pd needs a kernel degree d")
    return prod_mult(_PD_BASE_SIGMA, pull(Side.FIRST, pd_line_class(d)))


def fm_matrix(kernel: ProductClass) -> Operator:
    """The transform with this kernel on the Chow ring, second factor to first.

    Riemann-Roch for the projections: the source class is multiplied by the
    surface Todd class, pulled back from the second factor, multiplied with
    the kernel and pushed to the first; the target-side Todd correction
    cancels and is omitted. Before the Todd factor e_k maps to
    sum_ij G_ij (e_j . e_k)[pt] e_i + delta e_k, which is G.P + delta with
    P[j][k] = (e_j . e_k)[pt]; so the transform is G.(P.td) + delta.td.
    Swapping the factors, ProductClass(k.decomp.transpose(), k.delta), gives
    the other direction.
    """
    _expect("kernel", ProductClass, kernel)
    return Operator(kernel.decomp * _PAIRING_TODD + kernel.delta * _TODD_TENSOR, "fm")


def render_product_class(a: ProductClass) -> str:
    """Basis-labeled sum, e.g. "[f x X] + [X x f] - [f x f] - Delta + 2[*]"."""
    _expect("class", ProductClass, a)
    terms = [(c, "" if i == j == 0 else "[*]" if i == j == 3
              else f"[{_BASIS_LABELS[i]} x {_BASIS_LABELS[j]}]")
             for i, row in enumerate(a.decomp.rows) for j, c in enumerate(row) if c]
    terms += [(a.delta, "Delta")] if a.delta else []
    if not terms:
        return "0"
    # "+ 3", "- Delta", "+ 2[*]": a size-1 coefficient of a label goes unwritten
    text = " ".join(f"{'-' if c < 0 else '+'} {'' if abs(c) == 1 and label else abs(c)}{label}"
                    for c, label in terms)
    return text[2:] if text[0] == "+" else "-" + text[2:]
