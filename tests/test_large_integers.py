"""An int past the interpreter's 4,300-digit str limit is an input like any
other: every public callable of the library either returns or raises an
FmlatError, never the ValueError that writing such an int raises. The CLI
lifts the limit in main; this file holds the library to it without that."""

import inspect
import random
import sys
from enum import Enum

import pytest

from fmlat import bridgeland, chow, linalg, operators, product, sd, verify
from fmlat.bridgeland import FM2
from fmlat.chow import STANDARD_K3, CohClass
from fmlat.errors import FmlatError, InputError
from fmlat.linalg import Mat, _Record
from fmlat.operators import GoldenName, build
from fmlat.product import DELTA, Side
from fmlat.sd import SDPair, SearchTarget, Theorem, sd_check
from fmlat.verify import VerifyCase

LAYERS = (linalg, chow, product, operators, bridgeland, sd, verify)
BIG = 10 ** 5000

S = STANDARD_K3
V, W = CohClass(1, (0, 0), -2), CohClass(1, (1, 4), 0)
PHI = FM2(3, 1, -7, -2)
GRID = ((1, 2), (3, 4))
K3_TEXT = ("name = k3\nchi_O = 2\nbasis = sigma, f\ngram = -2 1; 1 0\n"
           "fiber = 0 1\nsection = 1 0\ncanonical = 0 0\nlambda = 1\n")


def _calls(surface_file: str) -> dict:
    """Each public callable with one or more valid calls, as (args, kwargs)."""
    return {
        linalg.q: [((3,), {})],
        linalg.parse_int: [(("3",), {})],
        linalg.qdiv: [((1, 2), {})],
        linalg.qvec: [(((1, 2),), {})],
        linalg.qgrid: [((GRID,), {})],
        linalg.as_int: [(("d", 3), {})],
        linalg.as_member: [(("theorem", Theorem, "k3"), {})],
        linalg.Mat: [((GRID,), {})],
        chow.SurfaceDescriptor: [(("k3", 2, ("sigma", "f"), ((-2, 1), (1, 0)), (0, 1),
                                   (0, 0)), {"section": (1, 0), "lam": 1})],
        chow._Ring: [((S,), {})],
        chow.dot: [((S, (1, 0), (0, 1)), {})],
        chow.is_standard_k3: [((S,), {})],
        chow.CohClass: [((1, (0, 1), 2), {})],
        chow.render_class: [((V,), {})],
        chow.integrality_warnings: [((V,), {})],
        chow.ch_line_bundle: [((S, (1, 2)), {})],
        chow.mult: [((S, V, W), {})],
        chow.dual: [((V,), {})],
        chow.todd: [((S,), {})],
        chow.chi_tensor: [((S, V, W), {})],
        chow.fdeg: [((S, V), {})],
        chow.moduli_dim_k3: [((S, V), {})],
        chow.to_coords: [((V,), {})],
        chow.from_coords: [(((1, 0, 0, 2),), {})],
        chow.pairing_gram: [((), {})],
        chow.parse_surface: [((K3_TEXT,), {"filename": "k3.cfg"})],
        chow.load_surface: [((surface_file,), {})],
        product.ProductClass: [((((0,) * 4,) * 4, 1), {})],
        product.pull: [((Side.FIRST, V), {})],
        product.push: [((Side.FIRST, DELTA), {})],
        product.prod_mult: [((DELTA, DELTA), {})],
        product.product_todd: [((), {})],
        product.diag_push_grr: [((V,), {})],
        product.kernel_class: [(("Pd", 2), {}), (("IDelta", None), {})],
        product.fm_matrix: [((DELTA,), {})],
        product.render_product_class: [((DELTA,), {})],
        operators.Operator: [((Mat.identity(4), "id"), {})],
        operators.op_tensor: [((V,), {})],
        operators.op_pi_tensor: [((V,), {})],
        operators.pd_line_class: [((2,), {})],
        operators.pd_pushforward_twist_class: [((2,), {})],
        operators.build: [(("FM_Pd", 2), {}), (("A_TL",), {"divisor": (1, 3)}),
                          (("A_S", None), {})],
        operators.golden: [(("FM_Pd", 2), {}), (("A_TL",), {"divisor": (1, 3)}),
                           (("A_S", None), {})],
        operators.restrict2: [((build(GoldenName.A_S),), {})],
        bridgeland.FM2: [((3, 1, -7, -2, 1), {})],
        bridgeland.canonical_ab: [((5, 2), {})],
        bridgeland.gen_birat_classify: [(((5, 2), PHI), {"t": 2, "k3": True})],
        bridgeland.random_admissible: [((random.Random(0), 1, 50), {})],
        sd.SDPair: [((S, V, W), {"no_higher_cohomology": True})],
        sd.orthogonal_check: [((S, V, W), {})],
        sd.mo_base_check: [((S, V, W, True), {})],
        sd.transformed_ranks: [((PHI, 6, 0), {})],
        sd.SDCheckResult: [((Theorem.K3, (1, 1), 3, 3), {})],
        sd.sd_check: [((Theorem.K3, PHI, 6, 0), {}),
                      ((Theorem.GENERAL, PHI, 6, 0), {"t_v": 2, "t_w": 2})],
        sd.SDReport: [((PHI, 6, 0, sd_check(Theorem.K3, PHI, 6, 0)), {}),
                      ((PHI, 6, 0, sd_check(Theorem.K3, PHI, 6, 0),
                        SDPair(S, V, W, True), True, True, ("note",)), {})],
        sd.build_report: [((PHI, 6, 0), {"pair": SDPair(S, V, W, True)}),
                          ((PHI, 6, 0, Theorem.GENERAL), {"t_v": 2, "t_w": 2})],
        sd.SearchTarget: [((6, 0), {}), ((6, 0, Theorem.GENERAL), {"t_v": 2, "t_w": 2})],
        sd.search_phi: [((1, 8), {}), ((1, 8, SearchTarget(6, 0)), {})],
        verify.VerifyCase: [(("id", "description", "1", "1"), {})],
        verify.VerifyOutcome: [((1, 1, (VerifyCase("id", "d", "1", "1"),)), {})],
        verify.run_verify: [((1, 1), {})],
    }


def _public_callables() -> set:
    # an Enum is called as Python's own lookup, not as a package function
    return {obj for module in LAYERS for name, obj in vars(module).items()
            if not name.startswith("_") and callable(obj)
            and getattr(obj, "__module__", None) == module.__name__
            and not (inspect.isclass(obj) and issubclass(obj, Enum))}


def _with(bad, value):
    """(label, value) for bad in place of value: alone, alone in a tuple,
    and in place of each entry of a tuple or list at any depth."""
    yield "bad", bad
    yield "(bad,)", (bad,)
    if isinstance(value, (tuple, list)):
        for i, item in enumerate(value):
            for label, new in _with(bad, item):
                yield f"[{i}]{label}", type(value)([*value[:i], new, *value[i + 1:]])


def _variants(bad, args: tuple, kwargs: dict):
    for i, arg in enumerate(args):
        for label, new in _with(bad, arg):
            yield f"arg {i} {label}", (*args[:i], new, *args[i + 1:]), kwargs
    for key, arg in kwargs.items():
        for label, new in _with(bad, arg):
            yield f"{key} {label}", args, {**kwargs, key: new}


@pytest.fixture
def default_str_limit():
    # cli.main lifts the limit for the whole process; put the default back
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int/str digit limit")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


def test_every_public_callable_has_a_sample_call():
    # the private record classes are sampled too, for the record test below
    public = {f for f in _calls("k3.cfg") if not f.__name__.startswith("_")}
    unmatched = _public_callables() ^ public
    assert {f"{f.__module__}.{f.__name__}" for f in unmatched} == set()


def test_a_5000_digit_int_is_returned_or_an_fmlat_error(default_str_limit, tmp_path):
    surface_file = tmp_path / "k3.cfg"
    surface_file.write_text(K3_TEXT, encoding="utf-8")
    failures = []
    for func, calls in _calls(str(surface_file)).items():
        for args, kwargs in calls:
            func(*args, **kwargs)   # the sample call itself is valid
            for label, new_args, new_kwargs in _variants(BIG, args, kwargs):
                try:
                    func(*new_args, **new_kwargs)
                except FmlatError:
                    pass
                except Exception as exc:   # any other type is a failure
                    failures.append(f"{func.__module__}.{func.__name__} "
                                    f"{label}: {type(exc).__name__}")
    assert failures == []


def test_every_record_refuses_a_float_in_any_field():
    # a record checks what it holds and computes nothing: 0.5 anywhere in a
    # constructor's arguments is an InputError, never a stored field
    records = {cls: calls for cls, calls in _calls("k3.cfg").items()
               if inspect.isclass(cls) and issubclass(cls, _Record)}
    assert set(records) == set(_Record.__subclasses__())
    accepted = []
    for cls, calls in records.items():
        for args, kwargs in calls:
            for label, new_args, new_kwargs in _variants(0.5, args, kwargs):
                try:
                    cls(*new_args, **new_kwargs)
                except InputError:
                    continue
                except Exception as exc:   # any other type is a failure too
                    label += f" {type(exc).__name__}"
                accepted.append(f"{cls.__name__} {label}")
    assert accepted == []
