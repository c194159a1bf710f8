"""Semantics of the package's twelve immutable records: no assignment or
deletion, equality by value, keyword construction with defaults, and the
exact exception each validation failure raises."""

import math
import pickle

import pytest

from tvbounds import (
    BadParameterError,
    BoundReport1D,
    DimensionMismatchError,
    DiscreteDist,
    GridSpec,
    LPStandardForm,
    MomentPair1D,
    MomentPairND,
    Moments1D,
    MomentsND,
    MomentSummary,
    OracleResult,
    OracleStatus,
    WitnessConstructionError,
    WitnessKind,
    WitnessPair,
)
from tvbounds.cli import RunConfig
from tvbounds.moments import FrozenRecord

# the fields MomentsND stores: a tuple of floats and a tuple of row tuples
EYE2 = ((1.0, 0.0), (0.0, 1.0))


def _witness_kwargs():
    return dict(
        p_dist=DiscreteDist((0.0, 1.0), (1.0, 0.0)),
        q_dist=DiscreteDist((0.0, 1.0), (0.0, 1.0)),
        claimed_tv=1.0,
        kind=WitnessKind.BOTH_POINT_MASSES,
    )


def _lp_kwargs():
    # a NamedTuple checks nothing, so a tuple of rows stands in for the
    # column set, and the record compares by the values of its fields
    return dict(
        constraint_matrix=((1.0, 2.0),),
        rhs=(1.0,),
        pair=MomentPair1D.from_scalars(1.0, 1.0, 0.0, 1.0),
    )


def _nd_pair_kwargs():
    return dict(p_side=MomentsND([1.0, 0.0], EYE2), q_side=MomentsND([0.0, 0.0], EYE2))


# (record, keyword arguments of a valid instance, the defaults the omitted
# fields take, and the invalid overrides with the exception type and message
# each raises)
RECORDS = [
    (
        Moments1D,
        lambda: dict(mean=1.0, stddev=2.0),
        {},
        [
            (dict(mean=math.nan), ValueError, "mean must be finite, got nan"),
            (dict(stddev=math.inf), ValueError, "stddev must be finite, got inf"),
            (dict(stddev=-1.0), ValueError, "stddev must be non-negative, got -1.0"),
            (
                dict(mean=None),
                TypeError,
                "float() argument must be a string or a real number, not 'NoneType'",
            ),
        ],
    ),
    (
        MomentPair1D,
        lambda: dict(p_side=Moments1D(1.0, 1.0), q_side=Moments1D(0.0, 2.0)),
        {},
        [],
    ),
    (
        BoundReport1D,
        lambda: dict(gap_a=1.0, radical_v=2.0, tight_bound=0.2, attained=True),
        dict(
            two_point_tv=None,
            sibling_branch_tv=None,
            sibling_branch_valid=None,
            anchored_p_tv=None,
            anchored_q_tv=None,
        ),
        [],
    ),
    (
        MomentSummary,
        lambda: dict(mean=0.0, variance=1.0),
        {},
        [],
    ),
    (
        DiscreteDist,
        lambda: dict(support=(-1.0, 1.0), probs=(0.25, 0.75)),
        {},
        [
            (dict(support=(0.0,)), ValueError, "support has 1 points but probs has 2"),
            (dict(support=(), probs=()), ValueError, "a distribution needs at least one atom"),
            (dict(support=(0.0, math.inf)), ValueError, "support point inf is not finite"),
            (
                dict(probs=(-0.5, 1.5)),
                ValueError,
                "probability -0.5 is not finite and non-negative",
            ),
            (dict(probs=(0.5, 0.75)), ValueError, "probabilities sum to 1.25, not 1"),
        ],
    ),
    (
        WitnessPair,
        _witness_kwargs,
        {},
        [
            (dict(claimed_tv=1.5), WitnessConstructionError, "claimed TV 1.5 is outside [0, 1]"),
            (
                dict(claimed_tv=0.5),
                WitnessConstructionError,
                "claimed TV 0.5 but the atoms give 1.0",
            ),
        ],
    ),
    (
        RunConfig,
        lambda: dict(command="bound", params={"mp": 1.0}),
        {},
        [],
    ),
    (
        GridSpec,
        lambda: dict(lo=-1.0, hi=1.0, count=5),
        {},
        [
            (dict(hi=-1.0), BadParameterError, "need finite lo < hi, got lo=-1.0, hi=-1.0"),
            (dict(lo=math.nan), BadParameterError, "need finite lo < hi, got lo=nan, hi=1.0"),
            (
                dict(lo=-1e308, hi=1e308),
                BadParameterError,
                "the span hi - lo overflows, got lo=-1e+308, hi=1e+308",
            ),
            (dict(count=1), BadParameterError, "count must be >= 2, got 1"),
            (
                dict(count=500_001),
                BadParameterError,
                "count must be at most GRID_MAX_COUNT = 500000, got 500001",
            ),
            (dict(count=2.9), BadParameterError, "count must be a whole number, got 2.9"),
            (dict(count=math.inf), BadParameterError, "count must be a whole number, got inf"),
            (dict(count=math.nan), BadParameterError, "count must be a whole number, got nan"),
            (dict(count="5"), BadParameterError, "count must be a whole number, got '5'"),
        ],
    ),
    (
        LPStandardForm,
        _lp_kwargs,
        {},
        [],
    ),
    (
        OracleResult,
        lambda: dict(
            status=OracleStatus.OPTIMAL, tv_min=0.2, p_opt=None, q_opt=None, iterations=3
        ),
        {},
        [],
    ),
    (
        MomentsND,
        lambda: dict(mean=(1.0, 0.0), covariance=EYE2),
        {},
        [
            (dict(mean=[[1.0, 0.0]]), ValueError, "mean must be a non-empty 1-D vector"),
            (
                dict(mean=[1.0, [0.0]]),
                ValueError,
                "mean is ragged: its nested lists differ in length or depth",
            ),
            (
                dict(covariance=[[1.0, 0.0], [0.0]]),
                ValueError,
                "covariance is ragged: its nested lists differ in length or depth",
            ),
            (
                dict(covariance=[[1.0]]),
                ValueError,
                "covariance must have shape (2, 2), got (1, 1)",
            ),
            (
                dict(covariance=[[1.0, 0.5], [0.0, 1.0]]),
                ValueError,
                "covariance is not symmetric within 1e-10",
            ),
            (
                dict(covariance=[[1.0, 0.0], [0.0, -1.0]]),
                ValueError,
                "covariance is not positive semidefinite (min eigenvalue -1)",
            ),
        ],
    ),
    (
        MomentPairND,
        _nd_pair_kwargs,
        {},
        [
            (
                dict(q_side=MomentsND([0.0], [[1.0]])),
                DimensionMismatchError,
                "sides have dimensions 2 and 1",
            ),
        ],
    ),
]


@pytest.mark.parametrize(
    "cls, make_kwargs, defaults, invalid",
    RECORDS,
    ids=[entry[0].__name__ for entry in RECORDS],
)
def test_record_semantics(cls, make_kwargs, defaults, invalid):
    kwargs = make_kwargs()
    record = cls(**kwargs)
    fields = {**kwargs, **defaults}

    # keyword construction stores every field, and omitted ones default
    for name, value in fields.items():
        assert getattr(record, name) == value, name
    assert repr(record).startswith(f"{cls.__name__}(")
    for name in fields:
        assert f"{name}=" in repr(record)

    # immutable: no field can be assigned or deleted
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) == value, name

    twin = cls(**make_kwargs())
    assert twin == record and not twin != record
    if cls is RunConfig:
        # its params are a dict, so it is no more hashable than that
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(twin) == hash(record)
        assert pickle.loads(pickle.dumps(record)) == record

    # each failing check raises its own type and message
    for override, exc_type, message in invalid:
        with pytest.raises(exc_type) as caught:
            cls(**{**make_kwargs(), **override})
        assert type(caught.value) is exc_type
        assert str(caught.value) == message


def test_every_record_is_covered():
    assert len(RECORDS) == len({entry[0] for entry in RECORDS}) == 12


def test_every_validating_record_checks_in_its_own_init():
    # the base has no constructor for a record to fall back on
    assert "__init__" not in FrozenRecord.__dict__
    validating = [entry[0] for entry in RECORDS if issubclass(entry[0], FrozenRecord)]
    assert len(validating) == 6
    assert all("__init__" in cls.__dict__ for cls in validating)


def test_frozen_record_leaves_comparison_with_another_type_to_it():
    m = Moments1D(0.0, 1.0)
    assert m.__eq__((0.0, 1.0)) is NotImplemented
    assert m != (0.0, 1.0) and (0.0, 1.0) != m
