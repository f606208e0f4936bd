"""The eight records: equality, hashing, immutability and keyword
construction."""
import pytest

from cylgf.cylindric import CylindricPartition, Profile, RefinedTable
from cylgf.genfun import ChainGF
from cylgf.lemmas import NestedSumSpec
from cylgf.series import UNBOUNDED, PochSpec, Series
from cylgf.slices import Slice


#: class -> (fields by keyword, built afresh on each call; one change per
#: compared field, each giving a valid record; changes equality ignores)
RECORDS = {
    Series: (lambda: dict(order=2, coeffs=(1, 0, 1)),
             [dict(coeffs=(1, 1, 1)), dict(order=3, coeffs=(1, 0, 1, 0))],
             {}),
    PochSpec: (lambda: dict(sign=1, start=2, step=3, count=4),
               [dict(sign=-1), dict(start=1), dict(step=1),
                dict(count=UNBOUNDED)],
               {}),
    Profile: (lambda: dict(parts=(2, 1)), [dict(parts=(1, 2))], {}),
    CylindricPartition: (
        lambda: dict(profile=Profile((2, 1)), rows=((2, 2, 1), (3,))),
        [dict(profile=Profile((1, 2))), dict(rows=((2, 2), (3,)))],
        {}),
    RefinedTable: (
        lambda: dict(profile=Profile((2, 1)), order=1, counts=((1, 0), (0, 2)),
                     prefixes=4, walked=Profile((1, 2))),
        [dict(profile=Profile((2, 0))), dict(order=0),
         dict(counts=((1, 0), (0, 3)))],
        dict(prefixes=9, walked=Profile((2, 1)))),
    ChainGF: (
        lambda: dict(profile=Profile((1, 1)), order=1, distinct=False,
                     table=((1, 0), (0, 2)), nodes=2, shapes=2,
                     shape_pairs=3, slot_bits=2),
        [dict(profile=Profile((2, 0))), dict(order=0), dict(distinct=True),
         dict(table=((1, 0), (0, 3)))],
        dict(nodes=9, shapes=8, shape_pairs=7, slot_bits=6)),
    NestedSumSpec: (lambda: dict(family="A", blocks=(2,), fixed_k=1),
                    [dict(family="B"), dict(blocks=(3,)), dict(fixed_k=None)],
                    {}),
    Slice: (lambda: dict(profile=Profile((2, 1)), white=(1, 0)),
            [dict(profile=Profile((1, 2))), dict(white=(0, 1))],
            {}),
}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_semantics(cls):
    fields, changes, ignored = RECORDS[cls]
    # equality and hashing live in Record alone
    assert "__eq__" not in vars(cls) and "__hash__" not in vars(cls)
    a, b = cls(**fields()), cls(**fields())
    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    assert repr(a) == f"{cls.__name__}(" + ", ".join(
        f"{k}={v!r}" for k, v in fields().items()) + ")"

    for change in changes:
        other = cls(**{**fields(), **change})
        assert a != other and not a == other, change
    for name, value in ignored.items():
        other = cls(**{**fields(), name: value})
        assert getattr(other, name) == value
        assert a == other and hash(a) == hash(other), name

    for other_cls, (other_fields, _, _) in RECORDS.items():
        if other_cls is not cls:
            assert a != other_cls(**other_fields())
    assert a != tuple(fields().values())

    for name, value in fields().items():
        with pytest.raises(AttributeError):
            setattr(a, name, value)
        with pytest.raises(AttributeError):
            delattr(a, name)
        assert getattr(a, name) == value
    with pytest.raises(AttributeError):
        a.extra = 1


def test_defaults_and_keywords():
    assert PochSpec(1, 2, 3).count is UNBOUNDED
    assert PochSpec(1, 2, 3, count=4) == PochSpec(1, 2, 3, 4)
    assert NestedSumSpec("A", (2,)).fixed_k is None
    assert NestedSumSpec("A", (2,), fixed_k=1) == NestedSumSpec("A", (2,), 1)
    # the four work counters have no defaults: chain_series passes them all
    with pytest.raises(TypeError):
        ChainGF(Profile((1, 1)), 0, False, ((1,),))
    gf = ChainGF(Profile((1, 1)), 0, False, ((1,),), nodes=1, shapes=2,
                 shape_pairs=3, slot_bits=4)
    assert (gf.nodes, gf.shapes, gf.shape_pairs, gf.slot_bits) == (1, 2, 3, 4)
