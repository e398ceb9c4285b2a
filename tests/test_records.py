"""Value semantics shared by the package's immutable record classes."""

import copy
import dataclasses
import pickle
from fractions import Fraction

import pytest

from fmlat.bridgeland import FM2
from fmlat.chow import STANDARD_K3, CohClass, SurfaceDescriptor, _Ring
from fmlat.errors import InputError
from fmlat.linalg import Mat, _Record
from fmlat.operators import Operator
from fmlat.product import ProductClass
from fmlat.sd import (SDCheckResult, SDPair, SDReport, SearchTarget, Theorem,
                      build_report, sd_check)
from fmlat.verify import VerifyCase, VerifyOutcome


def _pair():
    return SDPair(STANDARD_K3, CohClass(1, (0, 0), -2), CohClass(1, (1, 4), 0), True)


# each builds a fresh instance, equal to the one the last call built
SAMPLES = {
    FM2: lambda: FM2(3, 1, -7, -2),
    SurfaceDescriptor: lambda: SurfaceDescriptor(
        "standard-k3", 2, ["sigma", "f"], [[-2, 1], [1, 0]], [0, 1], [0, 0],
        section=[1, 0]),
    _Ring: lambda: _Ring(STANDARD_K3),
    CohClass: lambda: CohClass(1, (0, 1), Fraction(1, 2)),
    Mat: lambda: Mat(((1, 0), (0, 1))),
    Operator: lambda: Operator(Mat.identity(4), "id"),
    ProductClass: lambda: ProductClass(tuple((i, 0, 0, 0) for i in range(4)), 1),
    SDPair: _pair,
    SDCheckResult: lambda: sd_check(Theorem.K3, FM2(3, 1, -7, -2), 6, 0),
    SDReport: lambda: build_report(FM2(3, 1, -7, -2), 6, 0, pair=_pair()),
    SearchTarget: lambda: SearchTarget(6, 0),
    VerifyCase: lambda: VerifyCase("id", "description", "1", "1"),
    VerifyOutcome: lambda: VerifyOutcome(
        1, 1, (VerifyCase("id", "description", "1", "1"),)),
}
RECORDS = list(SAMPLES)


def _fields(x) -> tuple:
    return tuple(getattr(x, name) for name in type(x).__slots__)


def test_every_record_class_has_a_sample():
    assert set(_Record.__subclasses__()) == set(SAMPLES)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_equal_instances_are_equal_and_hash_equal(cls):
    a, b = SAMPLES[cls](), SAMPLES[cls]()
    assert type(a) is cls and a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_never_equal_to_a_tuple_or_another_record_class(cls):
    a = SAMPLES[cls]()
    assert a != _fields(a)
    assert _fields(a) != a
    other = SAMPLES[RECORDS[RECORDS.index(cls) - 1]]()
    assert a != other


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_fields_cannot_be_assigned_or_deleted(cls):
    a = SAMPLES[cls]()
    before = _fields(a)
    for name in cls.__slots__:
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(a, name, None)
        with pytest.raises(AttributeError, match="cannot delete"):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert not hasattr(a, "__dict__")
    assert _fields(a) == before


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_repr_is_the_frozen_dataclass_format(cls):
    a = SAMPLES[cls]()
    twin = dataclasses.make_dataclass(cls.__name__, cls.__slots__, frozen=True)
    assert repr(a) == repr(twin(*_fields(a)))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_copy_and_pickle_round_trip(cls):
    a = SAMPLES[cls]()
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(b) is cls and b == a and _fields(b) == _fields(a)


def test_a_mat_cannot_change_under_a_dict_key():
    m = Mat([[1, 0], [0, 1]])
    table = {m: "identity"}
    with pytest.raises(AttributeError):
        m.rows = ((9,),)
    with pytest.raises(AttributeError):
        del m.rows
    assert m.rows == ((1, 0), (0, 1))
    assert table[m] == "identity" and table[Mat.identity(2)] == "identity"
    assert repr(m) == "Mat(rows=((1, 0), (0, 1)))"


def test_error_messages_embed_the_repr():
    assert repr(FM2(3, 1, -7, -2)) == "FM2(c=3, a=1, e=-7, b=-2, lam=1)"
    with pytest.raises(InputError) as exc:
        build_report(SearchTarget(6, 0), 6, 0)
    assert str(exc.value) == (
        "phi must be of type FM2, got SearchTarget(d_v=6, d_w=0, "
        "theorem=<Theorem.K3: 'k3'>, t_v=None, t_w=None)")
