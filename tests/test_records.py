"""The result records of every layer: immutable NamedTuples that keep the
comparison rules each record had as a frozen dataclass."""

import importlib
import pkgutil

import numpy as np
import pytest

import ranklaw
from ranklaw import corr, fit, ingest, rank, regime, stats, urnsim
from ranklaw.errors import IngestError
from tests.conftest import LONG_PANEL, REGION_COUNTS_2011, ranked


def _one_of_each():
    panel = ingest.parse_panel(LONG_PANEL)
    entry = ingest.MergeEntry("m", "Merged", ("c1", "c3"), 2008)
    x = ranked({f"e{i}": float(v) for i, v in enumerate(REGION_COUNTS_2011)})
    pairs = rank.pair_ranks(x, x)
    result = fit.fit_model(x)
    points = regime.ScatterSet.from_points(tuple((eid, v, 2.0 * v + i % 3)
                                     for i, (eid, v) in enumerate(zip(x.ids, x.values.tolist()))))
    config = urnsim.UrnConfig(3, 10, seed=1)
    return [panel, panel.records[0], entry, ingest.MergeLedger((entry,)),
            ingest.aggregate_by_region(panel, panel)[0], x, pairs,
            corr.kendall_counts_xy(x.values, x.values),
            corr.correlation_report(pairs, x.values, x.values),
            corr.pairwise_matrix(panel), result.model, result, points,
            regime.two_line_split(points), stats.describe(x.values), config,
            urnsim.simulate_urns(config)]


def test_no_record_field_can_be_assigned():
    records = _one_of_each()
    modules = [importlib.import_module(f"ranklaw.{m.name}")
               for m in pkgutil.iter_modules(ranklaw.__path__)]
    classes = {value for module in modules for name, value in vars(module).items()
               if isinstance(value, type) and issubclass(value, tuple)
               and value.__module__ == module.__name__ and not name.startswith("_")}
    assert classes == {type(record) for record in records}
    for record in records:
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):  # nor can a field be added
            record.extra = None


def test_records_compare_as_they_did():
    gap = LONG_PANEL.replace("c2,Beta,R1,P1,2008,210\n", "c2,Beta,R1,P1,2008,NA\n")
    assert ingest.parse_panel(gap) == ingest.parse_panel(gap)  # NaN cells compare equal
    assert ingest.parse_panel(gap) != ingest.parse_panel(LONG_PANEL)
    assert ingest.parse_panel(LONG_PANEL) != ingest.parse_panel("# provenance: p\n" + LONG_PANEL)
    with pytest.raises(TypeError):
        hash(ingest.parse_panel(LONG_PANEL))

    values = {"a": 3.0, "b": 2.0, "c": 1.0}
    x, y = ranked(values), ranked(values)
    assert x == x and x != y and len({x, y}) == 2  # a series equals only itself

    pairs = rank.pair_ranks(x, y)
    moved = rank.RankPairs.from_entries(pairs.entries, (np.zeros(3, np.intp), np.ones(3, np.intp)))
    assert pairs == moved and not pairs != moved and hash(pairs) == hash(moved)
    assert pairs != rank.RankPairs.from_entries(pairs.entries[::-1], pairs.positions)

    with pytest.raises(IngestError, match="duplicate entity_id"):
        ingest.Panel("q", (2007,), ("a", "a"), ("A", "A"), ("R", "R"), ("P", "P"),
                     np.zeros((2, 1)))
    panel = ingest.parse_panel(LONG_PANEL)
    assert not panel.values.flags.writeable
    with pytest.raises(IngestError, match="duplicate entity_id"):  # _replace checks too
        panel._replace(ids=("c1", "c1", "c3"))
    assert not panel._replace(values=np.ones((3, 2))).values.flags.writeable
    assert urnsim.UrnConfig(3, 10) == urnsim.UrnConfig(n_urns=3, total_balls=10, a=1.0, k0=1,
                                                       capacity=None, seed=0)
