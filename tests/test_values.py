"""Value semantics of the package's immutable data types, the import
footprint they leave, and the library's checks as raises, not asserts.

Every data type is an immutable ``__slots__`` object: equal fields make
equal values with equal hashes, a value never equals an instance of
another class or a plain tuple, no attribute can be set or deleted, and
the repr is pinned because ``ConsistencyFailure`` dumps print it.
"""

import ast
import copy
import pickle
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from quadberk import (
    CrucialReport,
    Lift,
    Mobius,
    PrimeCtx,
    ReductionType,
    ResidueClass,
    ResidueKind,
    ResidueMap,
    SigmaInvariants,
    TypeIIPoint,
    distinct_fixed_lift,
    predict_xi_multiple_fixed,
    reduce_at,
    verify_consistency,
)
from quadberk.value import Value, rat
from _support import FractionSub

SRC = Path(__file__).resolve().parent.parent / "src"
P5 = PrimeCtx(5)
M5 = Lift(1, F(1, 5), 1, 0, 1, 0)  # z + 1/5 + 1/z

# (factory, pinned repr); each factory builds a fresh value on every call
CASES = [
    (lambda: Lift(1, F(1, 5), 1, 0, 1, 0), "Lift(F=(1, 1/5, 1), G=(0, 1, 0))"),
    (lambda: Mobius(2, F(1, 3), 0, 1),
     "Mobius(A=Fraction(2, 1), B=Fraction(1, 3), C=Fraction(0, 1), D=Fraction(1, 1))"),
    (lambda: TypeIIPoint(F(-1, 2), 3), "TypeIIPoint(center=-1/2, radius_exp=3)"),
    (lambda: SigmaInvariants(F(74, 25), F(3, 7), F(24, 25)),
     "SigmaInvariants(sigma1=Fraction(74, 25), sigma2=Fraction(3, 7), sigma3=Fraction(24, 25))"),
    (lambda: PrimeCtx(5), "PrimeCtx(5)"),
    (lambda: ReductionType("W1"), "W1"),
    (lambda: ReductionType("W2", 1, 3), "W2(x_tilde=1 mod 3)"),
    (lambda: ResidueClass(ResidueKind.REPELLING), "Repelling"),
    (lambda: ResidueClass(ResidueKind.MULTIPLICATIVE, 0, 5), "MultiplicativeIndifferent(x_tilde=0 mod 5)"),
    (lambda: reduce_at(M5, TypeIIPoint(0, 0), P5), "ResidueMap(ftilde=(1,), gtilde=(0,), ctx=PrimeCtx(5))"),
    (lambda: predict_xi_multiple_fixed(F(1, 5), P5),
     "CrucialReport(xi=TypeIIPoint(center=0, radius_exp=-1), stratum=W3, "
     "residue_class=AdditiveIndifferent, residue_unavailable=None, min_ord_res=Fraction(2, 1), "
     "sigma=SigmaInvariants(sigma1=Fraction(74, 25), sigma2=Fraction(73, 25), sigma3=Fraction(24, 25)), "
     "lift=Lift(F=(1, 1/5, 1), G=(0, 1, 0)))"),
    (lambda: verify_consistency(M5, P5),
     "CrucialReport(xi=TypeIIPoint(center=0, radius_exp=-1), stratum=W3, "
     "residue_class=AdditiveIndifferent, residue_unavailable=None, min_ord_res=Fraction(2, 1), "
     "sigma=SigmaInvariants(sigma1=Fraction(74, 25), sigma2=Fraction(73, 25), sigma3=Fraction(24, 25)), "
     "lift=Lift(F=(1, 1/5, 1), G=(0, 1, 0)))"),
    (lambda: verify_consistency(distinct_fixed_lift(F(1, 5), 7), P5),
     "CrucialReport(xi=TypeIIPoint(center=0, radius_exp=-1), "
     "stratum=W2(x_tilde=0 mod 5), residue_class=MultiplicativeIndifferent(x_tilde=0 mod 5), "
     "residue_unavailable=None, min_ord_res=Fraction(1, 1), sigma=SigmaInvariants(sigma1=Fraction(101, 5), "
     "sigma2=Fraction(95, 1), sigma3=Fraction(91, 5)), lift=Lift(F=(1, 1/5, 0), G=(0, 13, 1)))"),
]
# the two verify_consistency rows keep the ids they had when verify
# returned its own report type, so each case keeps one name
IDS = [repr_.split("(")[0] for _, repr_ in CASES[:-2]] + ["ConsistencyReport0", "ConsistencyReport1"]


def _fields(value) -> tuple:
    return tuple(getattr(value, name) for name in type(value).__slots__)


def test_every_value_class_is_covered():
    classes = {type(make()) for make, _ in CASES}
    assert classes == {
        Lift, Mobius, TypeIIPoint, SigmaInvariants, PrimeCtx,
        ReductionType, ResidueClass, ResidueMap, CrucialReport,
    }
    # no instance dict: the fields are the slots and nothing else
    assert all(isinstance(make(), Value) and not hasattr(make(), "__dict__") for make, _ in CASES)


@pytest.mark.parametrize("make, pinned", CASES, ids=IDS)
def test_equal_values_share_a_hash(make, pinned):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("make, pinned", CASES, ids=IDS)
def test_value_differs_from_other_classes_and_tuples(make, pinned):
    value = make()
    twin_class = type("Twin", (Value,), {"__slots__": type(value).__slots__})
    twin = twin_class(*_fields(value))
    assert _fields(twin) == _fields(value)
    assert value != twin and twin != value
    assert value != _fields(value) and _fields(value) != value


@pytest.mark.parametrize("make, pinned", CASES, ids=IDS)
def test_value_is_immutable(make, pinned):
    value = make()
    name = type(value).__slots__[0]
    before = getattr(value, name)
    with pytest.raises(AttributeError):
        setattr(value, name, before)
    with pytest.raises(AttributeError):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert getattr(value, name) is before


@pytest.mark.parametrize("make, pinned", CASES, ids=IDS)
def test_repr_is_pinned(make, pinned):
    assert repr(make()) == pinned


@pytest.mark.parametrize("make, pinned", CASES, ids=IDS)
def test_copy_and_pickle_round_trip(make, pinned):
    value = make()
    assert copy.copy(value) == value
    assert copy.deepcopy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value


def test_values_are_compared_field_by_field():
    assert Lift(1, 0, 1, 0, 1, 0) != Lift(1, 1, 1, 0, 1, 0)
    assert Lift(1, 0, 1, 0, 1, 0) == Lift(F(1), F(0), F(1), 0, 1, 0)
    assert ReductionType("W2", 1, 3) != ReductionType("W2", 1, 5)
    assert TypeIIPoint(0, 0) == TypeIIPoint(F(0), F(0)) != TypeIIPoint(0, 1)


def test_value_arity_is_checked():
    with pytest.raises(TypeError):
        Lift(1, 0, 1, 0, 1)
    with pytest.raises(TypeError):
        CrucialReport(TypeIIPoint(0, 0), ReductionType("W1"))


# each input must be stored as a value whose type is exactly Fraction
RAT_INPUTS = [3, True, F(-2, 3), FractionSub(5, 7)]
RAT_IDS = ["int", "bool", "Fraction", "Fraction-subclass"]
# each factory puts x into every field it can while staying nondegenerate
RAT_FACTORIES = {
    "Lift": lambda x: Lift(x, x, x, 0, x, x),
    "Lift.scaled": lambda x: M5.scaled(x),
    "Mobius": lambda x: Mobius(x, x, 0, x),
    "TypeIIPoint": lambda x: TypeIIPoint(x, x),
    "SigmaInvariants": lambda x: SigmaInvariants(x, x, x - 2),
}


@pytest.mark.parametrize("x", RAT_INPUTS, ids=RAT_IDS)
@pytest.mark.parametrize("name", RAT_FACTORIES)
def test_coerced_fields_are_exact_fractions(name, x):
    value = RAT_FACTORIES[name](x)
    for field in _fields(value):
        assert type(field) is F
    if type(x) is F and name != "Lift.scaled":
        # an exact Fraction is stored as it is, not copied
        assert any(field is x for field in _fields(value))


def test_rat_contract():
    x = F(3, 4)
    assert rat(x) is x
    for value in (5, True, FractionSub(3, 4), "3/4", 0.75):
        assert type(rat(value)) is F and rat(value) == F(value)
    for bad, error in ((None, TypeError), ("z", ValueError), (float("nan"), ValueError)):
        with pytest.raises(error):
            rat(bad)


def test_import_loads_no_dataclass_machinery():
    # the value types are plain classes: importing the CLI pulls in neither
    # dataclasses nor the modules it needs to generate methods
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize", "typing")
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import quadberk.cli; "
        f"print(' '.join(m for m in {heavy!r} if m in sys.modules))"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", code, str(SRC)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_route_checks_are_raises_not_asserts():
    # python -O strips assert statements, so a check written as one would
    # vanish there: the library's checks raise
    for path in sorted((SRC / "quadberk").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert lines == [], f"{path.name}: assert statements at lines {lines}"
