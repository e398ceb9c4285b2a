"""Shared strategies and generators for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import strategies as st

from fmlat.chow import CohClass, SurfaceDescriptor
from fmlat.product import ProductClass

# the standard K3 model as a surface description file
K3_CFG = """
name = standard-k3
chi_O = 2
basis = sigma, f
gram = -2 1; 1 0
fiber = 0 1
section = 1 0
canonical = 0 0
lambda = 1
"""


def small_q():
    return st.fractions(min_value=-6, max_value=6, max_denominator=4)


def coh_k3():
    """Random classes over the standard K3 model, small exact entries."""
    return st.builds(lambda r, s, t, p: CohClass(r, (s, t), p),
                     small_q(), small_q(), small_q(), small_q())


def product_classes():
    """Random classes on X x X: a 4x4 grid and the coefficient of Delta."""
    return st.lists(small_q(), min_size=17, max_size=17).map(
        lambda xs: ProductClass(tuple(tuple(xs[4 * i:4 * i + 4]) for i in range(4)),
                                xs[16]))


def swap(k: ProductClass) -> ProductClass:
    """The class with the factors of X x X exchanged: fm_matrix(swap(k)) is
    the transform with kernel k read from the first factor to the second."""
    return ProductClass(k.decomp.transpose(), k.delta)


def random_coh(rng: random.Random) -> CohClass:
    def pick():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return CohClass(pick(), (pick(), pick()), pick())


def random_product_class(rng: random.Random) -> ProductClass:
    def pick():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    decomp = tuple(tuple(pick() for _ in range(4)) for _ in range(4))
    return ProductClass(decomp, pick())


# A non-K3 elliptic surface for contrast: rational elliptic surface with a
# section (sigma^2 = -1, K = -f, chi(O) = 1).
RATIONAL_ELLIPTIC = SurfaceDescriptor(
    name="rational-elliptic",
    chi_O=1,
    basis_names=("sigma", "f"),
    gram=((-1, 1), (1, 0)),
    fiber=(0, 1),
    section=(1, 0),
    canonical=(0, -1),
    lam=1,
)
