"""Semantics of the package's twelve immutable records: no assignment or
deletion, equality by value, and keyword construction with defaults.  Each
validation failure, with its exact exception, is a row of
``tests/test_refusals.py``."""

import pickle

import pytest

from tvbounds import (
    BoundReport1D,
    DiscreteDist,
    GridSpec,
    MomentPair1D,
    MomentPairND,
    Moments1D,
    MomentsND,
    MomentSummary,
    OracleResult,
    OracleStatus,
    WitnessKind,
    WitnessPair,
)
from tvbounds.cli import RunConfig
from tvbounds.moments import FrozenRecord
from tvbounds.oracle import LPStandardForm

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


# (record, keyword arguments of a valid instance, and the defaults the
# omitted fields take); each validation failure is a row of
# tests/test_refusals.py
RECORDS = [
    (Moments1D, lambda: dict(mean=1.0, stddev=2.0), {}),
    (MomentPair1D, lambda: dict(p_side=Moments1D(1.0, 1.0), q_side=Moments1D(0.0, 2.0)), {}),
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
    ),
    (MomentSummary, lambda: dict(mean=0.0, variance=1.0), {}),
    (DiscreteDist, lambda: dict(support=(-1.0, 1.0), probs=(0.25, 0.75)), {}),
    (WitnessPair, _witness_kwargs, {}),
    (RunConfig, lambda: dict(command="bound", params={"mp": 1.0}), {}),
    (GridSpec, lambda: dict(lo=-1.0, hi=1.0, count=5), {}),
    (LPStandardForm, _lp_kwargs, {}),
    (
        OracleResult,
        lambda: dict(
            status=OracleStatus.OPTIMAL, tv_min=0.2, p_opt=None, q_opt=None, iterations=3
        ),
        {},
    ),
    (MomentsND, lambda: dict(mean=(1.0, 0.0), covariance=EYE2), {}),
    (MomentPairND, _nd_pair_kwargs, {}),
]


@pytest.mark.parametrize(
    "cls, make_kwargs, defaults",
    RECORDS,
    ids=[entry[0].__name__ for entry in RECORDS],
)
def test_record_semantics(cls, make_kwargs, defaults):
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
