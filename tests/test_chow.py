import contextlib
import os
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings

from fmlat.chow import (_K3_RING, CohClass, STANDARD_K3, UNIT_CLASS,
                        SurfaceDescriptor, _Ring, ch_line_bundle, chi_tensor,
                        dot, dual, fdeg, from_coords, integrality_warnings,
                        is_standard_k3, moduli_dim_k3, mult, pairing_gram,
                        parse_surface, render_class, to_coords, todd)
from fmlat.errors import InputError, UnsupportedModelError
from fmlat.linalg import Mat

from helpers import RATIONAL_ELLIPTIC, coh_k3, small_q

S = STANDARD_K3
ONE = from_coords((1, 0, 0, 0))


# descriptor validation

def _k3_like(**changes):
    fields = dict(name="standard-k3", chi_O=2, basis_names=("sigma", "f"),
                  gram=((-2, 1), (1, 0)), fiber=(0, 1), canonical=(0, 0),
                  section=(1, 0), lam=1)
    return SurfaceDescriptor(**{**fields, **changes})


def test_standard_k3_is_standard():
    assert is_standard_k3(S)
    assert not is_standard_k3(RATIONAL_ELLIPTIC)
    # the name and the basis names do not matter
    assert is_standard_k3(_k3_like(name="other", basis_names=("s", "fib")))
    # each numerical field does; fiber (-1, -1) still squares to zero and
    # meets the section once
    for changes in (dict(chi_O=3), dict(gram=((-4, 1), (1, 0))),
                    dict(fiber=(-1, -1)), dict(section=(1, 3)),
                    dict(section=None), dict(canonical=(0, 1))):
        assert not is_standard_k3(_k3_like(**changes)), changes
    # lambda must divide sigma.f = 1, so no valid descriptor differs in
    # lambda alone; set it past the constructor's check
    other_lam = _k3_like()
    object.__setattr__(other_lam, "lam", 2)
    assert not is_standard_k3(other_lam)
    with pytest.raises(InputError, match="surface must be of type"):
        is_standard_k3(5)


@pytest.mark.parametrize("call", [
    lambda: mult(S, 5, ONE), lambda: mult(5, ONE, ONE),
    lambda: chi_tensor(S, ONE, 5), lambda: fdeg(S, 5), lambda: fdeg(5, ONE),
    lambda: moduli_dim_k3(S, 5), lambda: moduli_dim_k3(5, ONE),
    lambda: dual(5), lambda: to_coords(5), lambda: ONE + 5,
    lambda: dot(5, (1, 0), (0, 1)), lambda: todd(5),
    lambda: ch_line_bundle(5, (1, 0)), lambda: parse_surface(5),
    lambda: render_class(5), lambda: integrality_warnings(5),
    lambda: parse_surface("", filename=5), lambda: _k3_like(name=5),
    lambda: _k3_like(basis_names=(1, 2)),
], ids=["mult-class", "mult-surface", "chi_tensor-class", "fdeg-class",
        "fdeg-surface", "moduli_dim_k3-class", "moduli_dim_k3-surface",
        "dual-class", "to_coords-class", "CohClass-add", "dot-surface",
        "todd-surface", "ch_line_bundle-surface", "parse_surface-text",
        "render_class-class", "integrality_warnings-class",
        "parse_surface-filename", "SurfaceDescriptor-name",
        "SurfaceDescriptor-basis-name"])
def test_class_arithmetic_rejects_wrong_types(call):
    with pytest.raises(InputError, match="must be of type"):
        call()


def test_class_subtraction_names_the_operand_given():
    # scaled first, "x" would become "" and [1] would become []
    for bad in ("x", [1]):
        with pytest.raises(InputError, match=re.escape(f"got {bad!r}")):
            ONE - bad


def test_gram_must_be_symmetric():
    with pytest.raises(InputError, match="symmetric"):
        SurfaceDescriptor("bad", 2, ("a", "b"), ((0, 1), (2, 0)),
                          (0, 1), (0, 0))


def test_gram_must_match_basis_size():
    with pytest.raises(InputError, match="gram"):
        SurfaceDescriptor("bad", 2, ("a", "b"), ((0,),), (0, 1), (0, 0))


def test_fiber_must_square_to_zero():
    with pytest.raises(InputError, match="fiber.fiber"):
        SurfaceDescriptor("bad", 2, ("a", "b"), ((-2, 1), (1, 1)),
                          (0, 1), (0, 0))


def test_section_fiber_pairing():
    with pytest.raises(InputError, match="section.fiber"):
        SurfaceDescriptor("bad", 2, ("a", "b"), ((-2, 1), (1, 0)),
                          (0, 1), (0, 0), section=(0, 1))


def test_lambda_defaults_to_gcd_of_fiber_degrees():
    surf = SurfaceDescriptor("twofold", 2, ("a", "b"), ((-2, 2), (2, 0)),
                             (0, 1), (0, 0))
    # fiber degrees of the basis are (2, 0), so lambda = 2
    assert surf.lam == 2


def test_lambda_must_divide_fiber_degrees():
    with pytest.raises(InputError, match="lambda"):
        SurfaceDescriptor("bad", 2, ("a", "b"), ((-2, 1), (1, 0)),
                          (0, 1), (0, 0), lam=2)


def test_lambda_undefined_when_fiber_degenerate():
    with pytest.raises(InputError, match="lambda"):
        SurfaceDescriptor("bad", 1, ("f",), ((0,),), (1,), (0,))


# line bundles

def test_ch_line_bundle_sigma():
    assert ch_line_bundle(S, (1, 0)) == CohClass(1, (1, 0), -1)


def test_ch_line_bundle_pd_twist():
    # d = 1: D = 2 sigma + 4 f, ch2 part (d+1)^2 = 4
    assert ch_line_bundle(S, (2, 4)) == CohClass(1, (2, 4), 4)


def test_ch_line_bundle_fiber():
    assert ch_line_bundle(S, (0, 1)) == CohClass(1, (0, 1), 0)


def test_ch_line_bundle_dimension_mismatch():
    with pytest.raises(InputError):
        ch_line_bundle(S, (1, 0, 0))
    # the characters of a string are not divisor coefficients
    with pytest.raises(InputError, match="expected a sequence"):
        ch_line_bundle(S, "13")
    with pytest.raises(InputError, match="expected a sequence"):
        CohClass(1, 5, 0)
    with pytest.raises(InputError, match="4 entries"):
        from_coords((1, 2, 3))


# multiplication

def test_mult_by_section_line_bundle_point_part():
    v = from_coords((3, 5, 7, Fraction(1, 2)))
    out = mult(S, ch_line_bundle(S, (1, 0)), v)
    # point part p - r - 2s + t
    assert out.p == Fraction(1, 2) - 3 - 10 + 7


def test_mult_unit():
    v = from_coords((2, -1, 3, Fraction(5, 2)))
    assert mult(S, v, ONE) == v


def test_fiber_squares_to_zero():
    f = from_coords((0, 0, 1, 0))
    assert mult(S, f, f) == from_coords((0, 0, 0, 0))


@settings(max_examples=60)
@given(coh_k3(), coh_k3())
def test_mult_commutative(v, w):
    assert mult(S, v, w) == mult(S, w, v)


@settings(max_examples=60)
@given(coh_k3(), coh_k3(), coh_k3())
def test_mult_associative_under_truncation(u, v, w):
    assert mult(S, mult(S, u, v), w) == mult(S, u, mult(S, v, w))


@settings(max_examples=60)
@given(coh_k3(), coh_k3(), coh_k3())
def test_mult_distributive(u, v, w):
    assert mult(S, u, v + w) == mult(S, u, v) + mult(S, u, w)


# dual

def test_dual_flips_divisor():
    assert dual(CohClass(1, (1, 0), -1)) == CohClass(1, (-1, 0), -1)


def test_dual_fiber_class():
    a, c = Fraction(3), Fraction(4)
    assert dual(CohClass(0, (0, a), -c)) == CohClass(0, (0, -a), -c)


@given(coh_k3())
def test_dual_involution(v):
    assert dual(dual(v)) == v


# todd and chi

def test_todd_standard_k3():
    assert todd(S) == from_coords((1, 0, 0, 2))


def test_todd_halves_canonical():
    assert todd(RATIONAL_ELLIPTIC) == CohClass(1, (0, Fraction(1, 2)), 1)


@pytest.mark.parametrize("surface", [S, RATIONAL_ELLIPTIC])
def test_noether_integral_of_todd(surface):
    unit = CohClass(1, (0,) * surface.rank, 0)
    assert chi_tensor(surface, unit, unit) == surface.chi_O


def test_chi_unit_is_two_on_k3():
    assert chi_tensor(S, ONE, ONE) == 2


def test_chi_hilbert_pair_vanishing():
    # v = (1, 0, -k), w = (1, L, L^2/2 - l): chi = chi(L) - k - l
    lattice_l = (1, 4)
    lsq = dot(S, lattice_l, lattice_l)
    chi_l = chi_tensor(S, ch_line_bundle(S, lattice_l), ONE)
    assert chi_l == 2 + Fraction(lsq, 2)
    for k in range(0, 6):
        l = chi_l - k
        v = CohClass(1, (0, 0), -k)
        w = CohClass(1, lattice_l, Fraction(lsq, 2) - l)
        assert chi_tensor(S, v, w) == 0
        w_off = CohClass(1, lattice_l, Fraction(lsq, 2) - l - 1)
        assert chi_tensor(S, v, w_off) != 0


def test_chi_of_section_line_bundle():
    # oracle: Riemann-Roch chi(O(D)) = chi(O) + (D^2 - D.K)/2 on K3 is 2 + D^2/2
    v = ch_line_bundle(S, (1, 0))
    assert chi_tensor(S, v, ONE) == 2 + Fraction(dot(S, (1, 0), (1, 0)), 2) == 1


def test_chi_riemann_roch_general_surface():
    for d_vec in ((1, 0), (0, 3), (2, -1)):
        lhs = chi_tensor(RATIONAL_ELLIPTIC,
                         ch_line_bundle(RATIONAL_ELLIPTIC, d_vec),
                         CohClass(1, (0, 0), 0))
        dsq = dot(RATIONAL_ELLIPTIC, d_vec, d_vec)
        dk = dot(RATIONAL_ELLIPTIC, d_vec, RATIONAL_ELLIPTIC.canonical)
        assert lhs == 1 + Fraction(dsq - dk, 2)


@settings(max_examples=60)
@given(coh_k3(), coh_k3())
def test_chi_symmetric(v, w):
    assert chi_tensor(S, v, w) == chi_tensor(S, w, v)


@given(coh_k3())
def test_chi_against_unit_is_integral_of_todd_product(v):
    assert chi_tensor(S, v, ONE) == mult(S, v, todd(S)).p


# fiber degree

def test_fdeg_picks_sigma_coefficient():
    assert fdeg(S, from_coords((5, 3, -2, 7))) == 3


def test_fdeg_of_line_bundle_is_lattice_pairing():
    for d_vec in ((1, 0), (2, 5), (-3, 1)):
        assert fdeg(S, ch_line_bundle(S, d_vec)) == dot(S, d_vec, S.fiber)


@pytest.mark.parametrize("m", range(-4, 5))
def test_fdeg_kills_fiber_direction(m):
    assert fdeg(S, ch_line_bundle(S, (0, m))) == 0


@settings(max_examples=40)
@given(coh_k3(), coh_k3(), small_q())
def test_fdeg_linear(v, w, k):
    assert fdeg(S, v + k * w) == fdeg(S, v) + k * fdeg(S, w)


# moduli dimension

@pytest.mark.parametrize("n", range(0, 21))
def test_moduli_dim_hilbert_scheme(n):
    # oracle: 2 - chi(v, v) with chi = 2 - 2n for the ideal-sheaf class
    v = CohClass(1, (0, 0), -n)
    assert chi_tensor(S, dual(v), v) == 2 - 2 * n
    assert moduli_dim_k3(S, v) == 2 * n


def test_moduli_dim_point():
    assert moduli_dim_k3(S, ONE) == 0


def test_moduli_dim_independent_of_determinant():
    rng = random.Random(7)
    for _ in range(25):
        lam_vec = (rng.randint(-5, 5), rng.randint(-5, 5))
        n = rng.randint(0, 9)
        lsq = dot(S, lam_vec, lam_vec)
        v = CohClass(1, lam_vec, Fraction(lsq, 2) - n)
        assert moduli_dim_k3(S, v) == 2 * n


def test_moduli_dim_requires_standard_model():
    with pytest.raises(UnsupportedModelError):
        moduli_dim_k3(RATIONAL_ELLIPTIC, CohClass(1, (0, 0), 0))


def test_moduli_dim_rejects_non_sheaf_normalization():
    with pytest.raises(InputError, match="integer"):
        moduli_dim_k3(S, CohClass(1, (0, 0), Fraction(1, 3)))


# pairing gram

def test_pairing_gram_matches_pinned_matrix():
    assert pairing_gram() == Mat([[2, 0, 0, 1],
                                  [0, 2, -1, 0],
                                  [0, -1, 0, 0],
                                  [1, 0, 0, 0]])


def test_pairing_gram_symmetric_unimodular():
    g = pairing_gram()
    assert g == g.transpose()
    assert abs(g.det()) == 1


# the ring record

def test_k3_ring_is_pinned():
    assert _K3_RING == _Ring(S)
    assert _K3_RING.pair_table == (
        ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
        ((0, 1, 0, 0), (0, 0, 0, -2), (0, 0, 0, 1), (0, 0, 0, 0)),
        ((0, 0, 1, 0), (0, 0, 0, 1), (0, 0, 0, 0), (0, 0, 0, 0)),
        ((0, 0, 0, 1), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)))
    assert _K3_RING.gram == pairing_gram() == Mat([[2, 0, 0, 1],
                                                   [0, 2, -1, 0],
                                                   [0, -1, 0, 0],
                                                   [1, 0, 0, 0]])
    assert _K3_RING.todd == from_coords((1, 0, 0, 2)) == todd(S)
    assert _K3_RING.todd_inverse == from_coords((1, 0, 0, -2))
    assert _K3_RING.c2 == 24
    # the PiPushPull golden table
    assert _K3_RING.pi_push_pull == Mat([[0, 1, 0, 0],
                                         [0, 0, 0, 0],
                                         [2, -1, 0, 1],
                                         [0, 0, 0, 0]])


@pytest.mark.parametrize("chi", [1, 2, 3, 4])
def test_ring_of_a_surface_with_section_square_minus_chi(chi):
    # an elliptic surface with a section: sigma^2 = -chi(O), K = (chi - 2) f.
    # pi^* pi_* has a -chi/2 entry at odd chi, since sigma is not the ch of a
    # sheaf, so integrality and symmetry are not asserted off the K3
    surface = SurfaceDescriptor(f"sigma2=-{chi}", chi, ("sigma", "f"),
                                ((-chi, 1), (1, 0)), (0, 1), (0, chi - 2),
                                section=(1, 0))
    ring = _Ring(surface)
    assert ring.c2 == 12 * chi
    assert mult(surface, ring.todd, ring.todd_inverse) == UNIT_CLASS
    assert ring.gram.det() == 1


def test_ring_needs_a_rank_two_lattice():
    rank3 = _k3_like(basis_names=("sigma", "f", "e"), fiber=(0, 1, 0),
                     gram=((-2, 1, 0), (1, 0, 0), (0, 0, -2)), canonical=(0, 0, 0),
                     section=(1, 0, 0))
    with pytest.raises(InputError, match="lattice rank 3"):
        _Ring(rank3)


# coordinates and warnings

def test_coords_roundtrip():
    v = from_coords((1, Fraction(1, 2), -3, Fraction(7, 3)))
    assert from_coords(to_coords(v)) == v


def test_integrality_warnings():
    assert integrality_warnings(CohClass(1, (2, 0), Fraction(1, 2))) == []
    notes = integrality_warnings(CohClass(Fraction(1, 2), (Fraction(1, 3), 0),
                                          Fraction(1, 4)))
    assert len(notes) == 3


# descriptor files

GOOD_CFG = """
# the built-in model
name = standard-k3
chi_O = 2
basis = sigma, f
gram = -2 1; 1 0
fiber = 0 1
section = 1 0
canonical = 0 0
lambda = 1
"""


def test_parse_surface_roundtrip():
    surf = parse_surface(GOOD_CFG, filename="k3.cfg")
    assert is_standard_k3(surf)
    assert surf.basis_names == ("sigma", "f")


def test_parse_surface_optional_keys():
    text = "\n".join(line for line in GOOD_CFG.splitlines()
                     if not line.startswith(("section", "lambda")))
    surf = parse_surface(text)
    assert surf.section is None and surf.lam == 1


@pytest.mark.parametrize("mutation, fragment", [
    ("chi_O = x", "not an integer"),
    ("chi_O = 2\nchi_O = 3", "duplicate"),
    ("mystery = 4", "unknown key"),
    ("chi_O", "expected 'key = value'"),
    ("chi_O =", "no value"),
])
def test_parse_surface_reports_line_and_key(mutation, fragment):
    text = GOOD_CFG.replace("chi_O = 2", mutation)
    with pytest.raises(InputError, match=fragment) as err:
        parse_surface(text, filename="k3.cfg")
    assert "k3.cfg" in str(err.value)


def test_parse_surface_gram_token_error_names_file_and_line():
    text = GOOD_CFG.replace("gram = -2 1; 1 0", "gram = -2 1; x 0")
    with pytest.raises(InputError) as err:
        parse_surface(text, filename="k3.cfg")
    assert str(err.value) == "k3.cfg:6: key 'gram': not an integer: 'x'"


@pytest.mark.parametrize("line, bad, message", [
    ("chi_O = 2", "chi_O = x", "k3.cfg:4: key 'chi_O': not an integer: 'x'"),
    ("chi_O = 2", "chi_O = 2 3", "k3.cfg:4: key 'chi_O': expected one integer"),
    ("fiber = 0 1", "fiber = 0 x", "k3.cfg:7: key 'fiber': not an integer: 'x'"),
    ("section = 1 0", "section = y 0", "k3.cfg:8: key 'section': not an integer: 'y'"),
    ("canonical = 0 0", "canonical = 0 1/2",
     "k3.cfg:9: key 'canonical': not an integer: '1/2'"),
    ("lambda = 1", "lambda = one", "k3.cfg:10: key 'lambda': not an integer: 'one'"),
    ("lambda = 1", "lambda = 1_0", "k3.cfg:10: key 'lambda': not an integer: '1_0'"),
    ("chi_O = 2", "chi_O = \u0662", "k3.cfg:4: key 'chi_O': not an integer: '\u0662'"),
    ("gram = -2 1; 1 0", "gram = -2 1; 2 0", "k3.cfg: gram: must be symmetric"),
], ids=["chi_O", "chi_O-count", "fiber", "section", "canonical", "lambda",
        "lambda-underscore", "chi_O-arabic-indic", "gram"])
def test_parse_surface_names_the_file_once(line, bad, message):
    with pytest.raises(InputError) as err:
        parse_surface(GOOD_CFG.replace(line, bad), filename="k3.cfg")
    assert str(err.value) == message


def test_parse_surface_missing_required_key():
    text = GOOD_CFG.replace("fiber = 0 1", "")
    with pytest.raises(InputError, match="fiber"):
        parse_surface(text)


def test_class_addition_requires_same_lattice():
    with pytest.raises(InputError):
        CohClass(1, (0, 0), 0) + CohClass(1, (0, 0, 0), 0)


def test_descriptor_scalar_validation():
    with pytest.raises(InputError, match="basis"):
        SurfaceDescriptor("bad", 2, (), (), (), ())
    with pytest.raises(InputError, match="positive"):
        SurfaceDescriptor("bad", 2, ("a", "b"), ((-2, 1), (1, 0)),
                          (0, 1), (0, 0), lam=0)
    with pytest.raises(InputError, match="integer"):
        SurfaceDescriptor("bad", "x", ("a", "b"), ((-2, 1), (1, 0)),
                          (0, 1), (0, 0))
    with pytest.raises(InputError, match="entries"):
        SurfaceDescriptor("bad", 2, ("a", "b"), ((-2, 1), (1, 0)),
                          (0, 1, 1), (0, 0))
    good = dict(name="k3", chi_O=2, basis_names=("a", "b"), gram=((-2, 1), (1, 0)),
                fiber=(0, 1), canonical=(0, 0), section=(1, 0))
    for key, bad in (("basis_names", 5), ("gram", 5), ("gram", ((-2, 1), 1)),
                     ("fiber", 5), ("canonical", 5), ("section", 5)):
        with pytest.raises(InputError, match="expected a sequence"):
            SurfaceDescriptor(**{**good, key: bad})


def test_parse_surface_rejects_multivalued_scalar():
    with pytest.raises(InputError, match="one integer"):
        parse_surface(GOOD_CFG.replace("chi_O = 2", "chi_O = 2 3"))


def test_parse_surface_rejects_duplicate_basis_names():
    with pytest.raises(InputError, match="distinct"):
        parse_surface(GOOD_CFG.replace("basis = sigma, f", "basis = a a"))


def test_load_surface_rejects_non_utf8(tmp_path):
    from fmlat.chow import load_surface
    path = tmp_path / "latin1.cfg"
    path.write_bytes(GOOD_CFG.replace("standard-k3", "k3-\u00e9").encode("latin-1"))
    with pytest.raises(InputError, match="cannot read"):
        load_surface(path)


def test_load_surface_takes_only_paths():
    from fmlat.chow import load_surface
    for bad in (None, 1.5, b"k3.cfg"):
        with pytest.raises(InputError, match="must be a path"):
            load_surface(bad)
    # open() would read a descriptor to its end and then close it
    r, w = os.pipe()
    os.write(w, GOOD_CFG.encode())
    os.close(w)
    try:
        with pytest.raises(InputError, match="must be a path"):
            load_surface(r)
        assert os.read(r, 6) == b"\n# the"
    finally:
        with contextlib.suppress(OSError):
            os.close(r)


def test_load_surface_reads_a_bounded_number_of_characters(tmp_path):
    from fmlat.chow import MAX_SURFACE_CHARS, load_surface
    path = tmp_path / "k3.cfg"
    # the limit counts characters, not bytes: é is two bytes in UTF-8
    padding = MAX_SURFACE_CHARS - len(GOOD_CFG) - 2
    path.write_text(GOOD_CFG + "#" + "\u00e9" * padding + "\n", encoding="utf-8")
    assert is_standard_k3(load_surface(path))
    path.write_text(GOOD_CFG + "#" + "\u00e9" * (padding + 1) + "\n",
                    encoding="utf-8")
    with pytest.raises(InputError, match=f"longer than {MAX_SURFACE_CHARS}"):
        load_surface(path)


def test_load_surface_missing_file(tmp_path):
    from fmlat.chow import load_surface
    with pytest.raises(InputError, match="cannot read"):
        load_surface(tmp_path / "nope.cfg")
