"""The value-record contract: what the package's records promised as frozen
dataclasses, kept now that they are plain ``__slots__`` classes.

Equality holds only between instances of the same class, hashes agree with
equality, ``GroupTag`` and ``Weight`` order like their field tuples, frozen
records refuse assignment, and every ``repr`` is byte-identical to the
dataclass one (suite failure lists carry it).
"""

import inspect
import pickle
from fractions import Fraction

import pytest

from sobranch.branching import Arrow, Diagram, FiniteDimComponent
from sobranch.cohomology import PairingDescriptor
from sobranch.oracle import SuiteReport
from sobranch.periods import AqDescriptor, KTypeLabel, PeriodValue
from sobranch.reps import (
    DiscreteSeries,
    EnhancedParam,
    FiniteDim,
    Nontempered,
    Signature,
    TemperedPS,
)
from sobranch.weights import GroupTag, Weight

P, M, B = Signature.PLUS, Signature.MINUS, Signature.BOTH
BIG = EnhancedParam(GroupTag(5), Weight((1, 1, 0)), 1, P)
SMALL = EnhancedParam(GroupTag(4), Weight((1, 0)), 1, P)
LEFT = EnhancedParam(GroupTag(5), Weight((0, 0, 0)), 1, M)

# (class, constructor arguments, repr recorded from the dataclass version)
CASES = [
    (GroupTag, (5,), "GroupTag(N=5)"),
    (Weight, ((1, 1, 0),), "Weight(entries=(1, 1, 0))"),
    (Diagram, ((BIG,), (SMALL,), ()),
     "Diagram(top=(EnhancedParam(group=GroupTag(N=5), s=Weight(entries=(1, 1, 0)), height=1, "
     "sig=<Signature.PLUS: '+'>),), bottom=(EnhancedParam(group=GroupTag(N=4), "
     "s=Weight(entries=(1, 0)), height=1, sig=<Signature.PLUS: '+'>),), arrows=())"),
    (FiniteDim, (GroupTag(4), Weight((2, 1)), M),
     "FiniteDim(group=GroupTag(N=4), s=Weight(entries=(2, 1)), sig=<Signature.MINUS: '-'>)"),
    (Nontempered, (GroupTag(5), Weight((2, 0)), P, 0),
     "Nontempered(group=GroupTag(N=5), sigma=Weight(entries=(2, 0)), "
     "delta=<Signature.PLUS: '+'>, lam=0)"),
    (TemperedPS, (GroupTag(5), Weight((2, 1)), M),
     "TemperedPS(group=GroupTag(N=5), sigma=Weight(entries=(2, 1)), "
     "delta=<Signature.MINUS: '-'>)"),
    (DiscreteSeries, (GroupTag(4), Weight((1,)), 2),
     "DiscreteSeries(group=GroupTag(N=4), sigma=Weight(entries=(1,)), lam=2)"),
    (EnhancedParam, (GroupTag(5), Weight((1, 1, 0)), 1, P),
     "EnhancedParam(group=GroupTag(N=5), s=Weight(entries=(1, 1, 0)), height=1, "
     "sig=<Signature.PLUS: '+'>)"),
    (EnhancedParam, (GroupTag(4), Weight((0, 0)), 2, B),
     "EnhancedParam(group=GroupTag(N=4), s=Weight(entries=(0, 0)), height=2, "
     "sig=<Signature.BOTH: 'pm'>)"),
    (Arrow, (1, 1, BIG, SMALL),
     "Arrow(from_height=1, to_height=1, source=EnhancedParam(group=GroupTag(N=5), "
     "s=Weight(entries=(1, 1, 0)), height=1, sig=<Signature.PLUS: '+'>), "
     "target=EnhancedParam(group=GroupTag(N=4), s=Weight(entries=(1, 0)), height=1, "
     "sig=<Signature.PLUS: '+'>))"),
    (FiniteDimComponent, (Weight((1, 0)), P, True),
     "FiniteDimComponent(nu=Weight(entries=(1, 0)), sig=<Signature.PLUS: '+'>, self_dual=True)"),
    (AqDescriptor, (GroupTag(5), 1, Weight((2,))),
     "AqDescriptor(group=GroupTag(N=5), i=1, lambda_part=Weight(entries=(2,)))"),
    (PeriodValue, (1, Fraction(1, 2), 10),
     "PeriodValue(sign=1, rational=Fraction(1, 2), pi_quarters=10)"),
    (KTypeLabel, (2, 5), "KTypeLabel(degree=2, ambient=5)"),
    (PairingDescriptor,
     (4, 1, LEFT, Weight((0, 0, 0)), GroupTag(4), 3, M, Weight((0, 0)), True, "section6"),
     "PairingDescriptor(n=4, degree_j=1, left=EnhancedParam(group=GroupTag(N=5), "
     "s=Weight(entries=(0, 0, 0)), height=1, sig=<Signature.MINUS: '-'>), "
     "left_coeff=Weight(entries=(0, 0, 0)), right_group=GroupTag(N=4), right_index=3, "
     "right_sig=<Signature.MINUS: '-'>, right_coeff=Weight(entries=(0, 0)), nonzero=True, "
     "rendering='section6')"),
    (SuiteReport, ("roundtrip", 3, [{"boom": True}], 0.0),
     "SuiteReport(suite='roundtrip', cases_run=3, failures=[{'boom': True}], elapsed=0.0, "
     "failures_total=1)"),
]


@pytest.mark.parametrize(
    "cls, args, golden", CASES, ids=[f"{c.__name__}-{k}" for k, (c, _, _) in enumerate(CASES)]
)
def test_value_contract(cls, args, golden):
    value, copy = cls(*args), cls(*args)
    twin = type("Twin", (cls,), {})(*args)

    assert repr(value) == golden
    assert value == copy and not value != copy
    # Equal fields in another class (a subclass, or the bare field tuple) are not equal.
    assert value != twin and twin != value
    assert value != args
    assert pickle.loads(pickle.dumps(value)) == value

    first = next(iter(inspect.signature(cls).parameters))  # the first field
    if cls is SuiteReport:  # the one mutable record: unhashable, assignable
        with pytest.raises(TypeError):
            hash(value)
        value.elapsed = 1.5
        assert value != copy
        return
    assert hash(value) == hash(copy)
    assert hash(value) == hash(args)  # the dataclass hash: that of the field tuple
    with pytest.raises(AttributeError):
        setattr(value, first, getattr(copy, first))
    with pytest.raises(AttributeError):
        delattr(value, first)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == copy


def test_unequal_fields_differ():
    assert GroupTag(5) != GroupTag(6)
    assert Weight((1, 0)) != Weight((0, 0))
    assert BIG != EnhancedParam(GroupTag(5), Weight((1, 1, 0)), 1, M)
    assert BIG != EnhancedParam(GroupTag(5), Weight((1, 1, 0)), 0, P)
    assert FiniteDim(GroupTag(4), Weight((2, 1)), M) != FiniteDim(GroupTag(4), Weight((2, 1)), P)
    assert len({BIG, EnhancedParam(GroupTag(5), Weight((1, 1, 0)), 1, P), SMALL}) == 2


def test_group_tag_and_weight_order_as_before():
    assert sorted([GroupTag(7), GroupTag(3), GroupTag(5)]) == [GroupTag(N) for N in (3, 5, 7)]
    weights = [Weight(e) for e in [(2, 1), (1, 1), (2, 0), (3,), ()]]
    assert sorted(weights) == [Weight(e) for e in [(), (1, 1), (2, 0), (2, 1), (3,)]]
    assert GroupTag(3) <= GroupTag(3) < GroupTag(4) and GroupTag(4) >= GroupTag(4) > GroupTag(3)
    assert max(weights) == Weight((3,))
    for left, right in [(GroupTag(3), Weight((1,))), (BIG, SMALL), (Weight((1,)), (1,))]:
        with pytest.raises(TypeError):
            left < right  # noqa: B015


def test_subclass_instances_keep_the_contract():
    twin_cls = type("Twin", (Weight,), {})
    assert repr(twin_cls((1, 0))) == "Twin(entries=(1, 0))"
    assert twin_cls((1, 0)) == twin_cls((1, 0))
