"""The result records are immutable named tuples with value semantics."""

import pytest

from stringcone.acceptance import CriterionResult
from stringcone.cartan import CartanDatum, build_cartan
from stringcone.characters import WeightPolynomial
from stringcone.cli import RunConfig
from stringcone.degeneration import (
    DegenerationReport,
    DemazureQuotient,
    PointLanes,
    SectionRecord,
    SeparatingForm,
)
from stringcone.pathcrystal import DEFAULT_NODE_CAP, CrystalGraph
from stringcone.polyhedra import RationalCone, SaturationReport, SectionCount

from oracles import PiecewisePath, highest_path

RECORDS = [
    CartanDatum, WeightPolynomial, PiecewisePath, CrystalGraph, RationalCone,
    SectionCount, SaturationReport, SeparatingForm, DemazureQuotient, SectionRecord,
    DegenerationReport, PointLanes, RunConfig, CriterionResult,
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda cls: cls.__name__)
def test_record_contract(record):
    values = {name: (k, name) for k, name in enumerate(record._fields)}
    obj = record(**values)
    assert tuple(obj) == tuple(values.values())
    assert obj == record(*values.values())
    assert all(getattr(obj, name) == value for name, value in values.items())
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
    with pytest.raises(AttributeError):
        obj.unknown = None  # no instance dict
    assert repr(obj).startswith(record.__name__ + "(")
    assert all(f"{name}=" in repr(obj) for name in record._fields)
    assert record.__doc__  # its own: a subclass does not inherit namedtuple's


def test_defaults():
    assert RunConfig() == RunConfig(type_label=None, rank=None, w0_word=None, lam=None,
                                    demazure_word=None, level_bound=2,
                                    node_cap=DEFAULT_NODE_CAP, out=None)
    record = SectionRecord(lam=(1,), count=2, dim=2, match=True)
    assert (record.demazure_count, record.demazure_dim, record.demazure_match) == (None,) * 3


def test_equal_values_hash_equal():
    first, second = build_cartan("B", 2), build_cartan("B", 2)
    assert first is not second and first == second and hash(first) == hash(second)
    assert {first: "B2"}[second] == "B2"
    assert build_cartan("C", 2) not in {first: "B2"}
    path, again = highest_path(first, (1, 1)), highest_path(second, (1, 1))
    assert path == again and hash(path) == hash(again)
    assert {path: 0}[again] == 0
    assert len({path, again, highest_path(first, (1, 0))}) == 2
