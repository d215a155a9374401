import math
import statistics

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ranklaw import ingest
from ranklaw.errors import IngestError
from tests import reference_ingest


def test_parse_long_form(long_panel_text):
    panel = ingest.parse_panel(long_panel_text)
    assert panel.years == (2007, 2008)
    assert len(panel.records) == 3
    assert panel.values[panel.ids.index("c2")].tolist() == [200.0, 210.0]
    assert panel.regions[panel.ids.index("c3")] == "R2"


def test_parse_wide_form(wide_panel_text, long_panel_text):
    wide = ingest.parse_panel(wide_panel_text)
    long = ingest.parse_panel(long_panel_text)
    assert {r.entity_id: r.values for r in wide.records} == \
        {r.entity_id: r.values for r in long.records}


def test_parse_tab_delimited(long_panel_text):
    panel = ingest.parse_panel(long_panel_text.replace(",", "\t"))
    assert len(panel.records) == 3


def test_parse_single_year_three_rows():
    text = (
        "entity_id,name,region,province,year,value\n"
        "a,A,R1,P1,2007,1\nb,B,R1,P1,2007,2\nc,C,R1,P1,2007,3\n"
    )
    panel = ingest.parse_panel(text)
    assert len(panel.records) == 3
    assert panel.years == (2007,)


def test_parse_rejects_negative_value():
    text = "entity_id,name,region,province,year,value\na,A,R1,P1,2007,-5\n"
    with pytest.raises(IngestError, match="negative value at row 2"):
        ingest.parse_panel(text)


def test_parse_rejects_duplicate_entity():
    text = (
        "entity_id,name,region,province,2007\n"
        "a,A,R1,P1,1\na,A,R1,P1,2\n"
    )
    with pytest.raises(IngestError, match="duplicate entity_id"):
        ingest.parse_panel(text)


def test_parse_malformed_row_reports_line_number():
    text = "entity_id,name,region,province,year,value\na,A,R1,P1,2007\n"
    with pytest.raises(IngestError, match="row 2"):
        ingest.parse_panel(text)


def test_missing_marker_is_not_zero():
    text = (
        "entity_id,name,region,province,2007,2008\n"
        "a,A,R1,P1,1,NA\n"
    )
    panel = ingest.parse_panel(text)
    assert panel.ids == ("a",)
    assert panel.values[0, 0] == 1.0 and math.isnan(panel.values[0, 1])
    with pytest.raises(IngestError, match="missing value"):
        ingest.average_over_years(panel, [2007, 2008])


def _merge_fixture():
    text = (
        "entity_id,name,region,province,2007\n"
        "a,A,R1,P1,100\nb,B,R1,P1,200\nc,C,R1,P1,7\n"
    )
    panel = ingest.parse_panel(text)
    ledger = ingest.MergeLedger((
        ingest.MergeEntry("ab", "AB", ("a", "b"), 2009),
    ))
    return panel, ledger


def test_merge_sums_components():
    panel, ledger = _merge_fixture()
    merged = ingest.apply_merge_ledger(panel, ledger)
    assert len(merged.records) == 2
    assert merged.values[merged.ids.index("ab"), merged.years.index(2007)] == 300.0


def test_merge_preserves_totals():
    panel, ledger = _merge_fixture()
    merged = ingest.apply_merge_ledger(panel, ledger)
    for year in panel.years:
        before = sum(v for v in panel.values_for_year(year).values())
        after = sum(v for v in merged.values_for_year(year).values())
        assert after == pytest.approx(before, rel=1e-9)


def test_merge_empty_ledger_is_identity():
    panel, _ = _merge_fixture()
    assert ingest.apply_merge_ledger(panel, ingest.MergeLedger(())) == panel


def test_merge_unknown_component():
    panel, _ = _merge_fixture()
    ledger = ingest.MergeLedger((ingest.MergeEntry("x", "X", ("nope",), 2009),))
    with pytest.raises(IngestError, match="unknown component_id"):
        ingest.apply_merge_ledger(panel, ledger)


def test_merge_target_collision():
    panel, _ = _merge_fixture()
    ledger = ingest.MergeLedger((ingest.MergeEntry("c", "C2", ("a", "b"), 2009),))
    with pytest.raises(IngestError, match="collides"):
        ingest.apply_merge_ledger(panel, ledger)


def test_merge_ledger_invariants():
    with pytest.raises(IngestError, match="no components"):
        ingest.MergeLedger((ingest.MergeEntry("x", "X", (), 2009),))
    with pytest.raises(IngestError, match="multiple entries"):
        ingest.MergeLedger((
            ingest.MergeEntry("x", "X", ("a",), 2009),
            ingest.MergeEntry("y", "Y", ("a",), 2009),
        ))
    with pytest.raises(IngestError, match="own components"):
        ingest.MergeLedger((ingest.MergeEntry("x", "X", ("x",), 2009),))


def test_reference_style_consolidation_count():
    # 13 components collapsing into 4 targets drops the record count by 9
    rows = ["entity_id,name,region,province,2007"]
    for i in range(20):
        rows.append(f"e{i:02d},E{i},R1,P1,{i + 1}")
    panel = ingest.parse_panel("\n".join(rows) + "\n")
    ledger = ingest.MergeLedger((
        ingest.MergeEntry("t1", "T1", ("e00", "e01"), 2008),
        ingest.MergeEntry("t2", "T2", ("e02", "e03", "e04", "e05", "e06", "e07"), 2009),
        ingest.MergeEntry("t3", "T3", ("e08", "e09"), 2010),
        ingest.MergeEntry("t4", "T4", ("e10", "e11", "e12"), 2011),
    ))
    merged = ingest.apply_merge_ledger(panel, ledger)
    assert len(merged.records) == 20 - (13 - 4)


def test_parse_merge_ledger_roundtrip():
    text = (
        "target_id,target_name,component_ids,effective_year\n"
        "t1,T One,a;b,2008\n"
        "t2,T Two,c;d;e,2009\n"
    )
    ledger = ingest.parse_merge_ledger(text)
    assert ledger.entries[0].component_ids == ("a", "b")
    assert ledger.entries[1].effective_year == 2009


def test_ledger_row_errors_name_the_first_row_at_fault():
    head = "# ledger\ntarget_id,target_name,component_ids,effective_year\n"
    big = 't2,"' + "x" * 200_000 + '",c,2009\n'
    with pytest.raises(IngestError, match="^malformed row 4: field larger than field limit"):
        ingest.parse_merge_ledger(head + "t1,T,a;b,2008\n" + big)
    with pytest.raises(IngestError, match="^malformed effective_year at ledger row 3$"):
        ingest.parse_merge_ledger(head + "t1,T,a;b,x\n" + big)


def test_a_ledger_row_without_four_fields_is_refused_by_row():
    head = "target_id,target_name,component_ids,effective_year\n"
    with pytest.raises(IngestError, match="^malformed ledger row 3: expected 4 fields$"):
        ingest.parse_merge_ledger(head + "t1,T,a;b,2008\nt2,T2,c\n")


def test_a_ledger_of_comments_only_is_empty():
    assert ingest.parse_merge_ledger("# merges\n# none this year\n") == ingest.MergeLedger(())


def test_aggregate_by_region_uniform():
    ati = ingest.parse_panel(
        "entity_id,name,region,province,2007\n"
        "a,A,R1,P1,1\nb,B,R1,P1,1\nc,C,R2,P2,1\nd,D,R2,P2,1\n"
    )
    pop = ingest.parse_panel(
        "entity_id,name,region,province,2011\n"
        "a,A,R1,P1,10\nb,B,R1,P1,10\nc,C,R2,P2,10\nd,D,R2,P2,10\n"
    )
    aggs = ingest.aggregate_by_region(ati, pop)
    assert len(aggs) == 2
    for agg in aggs:
        assert agg.n_cities == 2
        assert agg.ati_by_year[2007] == 2.0
        assert agg.n_inhabitants == 20.0


def test_aggregate_region_sums_reproduce_panel_totals(long_panel_text):
    ati = ingest.parse_panel(long_panel_text)
    pop = ingest.parse_panel(long_panel_text)
    aggs = ingest.aggregate_by_region(ati, pop)
    for year in ati.years:
        total = sum(ingest.average_over_years(ati, [year]))
        assert sum(a.ati_by_year[year] for a in aggs) == pytest.approx(total, rel=1e-9)
    assert sum(a.n_cities for a in aggs) == len(ati.records)


def test_aggregate_single_region_equals_totals():
    ati = ingest.parse_panel(
        "entity_id,name,region,province,2007\na,A,R1,P1,3\nb,B,R1,P1,4\n"
    )
    aggs = ingest.aggregate_by_region(ati, ati)
    assert len(aggs) == 1
    assert aggs[0].ati_by_year[2007] == 7.0


def test_aggregate_entity_mismatch():
    ati = ingest.parse_panel(
        "entity_id,name,region,province,2007\na,A,R1,P1,3\n"
    )
    pop = ingest.parse_panel(
        "entity_id,name,region,province,2007\nb,B,R1,P1,3\n"
    )
    with pytest.raises(IngestError, match="entity sets differ"):
        ingest.aggregate_by_region(ati, pop)


def test_average_over_years_mean():
    panel = ingest.parse_panel(
        "entity_id,name,region,province,2007,2008,2009\na,A,R1,P1,10,20,30\n"
    )
    assert ingest.average_over_years(panel, [2007, 2008, 2009]).tolist() == [20.0]
    assert ingest.average_over_years(panel, [2008]).tolist() == [20.0]
    # an empty or absent window is every panel year
    assert ingest.average_over_years(panel, []).tolist() \
        == ingest.average_over_years(panel).tolist() == [20.0]


# finite non-negative cells from 1e-300 to 1e300, so a row mixes magnitudes
# where a plain or pairwise sum would round differently from fsum
CELLS = st.one_of(st.just(0.0), st.builds(lambda m, e: m * 10.0 ** e,
                                          st.floats(1.0, 9.99), st.integers(-300, 299)))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda k: st.lists(st.lists(CELLS, min_size=k, max_size=k), min_size=1, max_size=8)))
@example([[1e16, 1.0, 1.0]])  # np.mean gives 0x1.7af4c4a80aaabp+51, fmean ...aaacp+51
def test_means_equal_statistics_fmean_bit_for_bit(rows):
    n, years = len(rows), tuple(range(2007, 2007 + len(rows[0])))
    ids = tuple(f"e{i}" for i in range(n))
    panel = ingest.Panel("q", years, ids, ids, tuple(f"R{i % 3}" for i in range(n)),
                         ("P",) * n, np.array(rows))
    averages = ingest.average_over_years(panel, list(years))
    assert [v.hex() for v in averages.tolist()] == [statistics.fmean(r).hex() for r in rows]
    for agg in ingest.aggregate_by_region(panel, panel):
        assert agg.ati_mean.hex() == statistics.fmean(agg.ati_by_year.values()).hex()


def test_average_linear_trend():
    # v_t = v0 + t for t = 0..4 averages to v0 + 2
    years = list(range(2007, 2012))
    header = "entity_id,name,region,province," + ",".join(map(str, years))
    row = "a,A,R1,P1," + ",".join(str(7.0 + t) for t in range(5))
    panel = ingest.parse_panel(header + "\n" + row + "\n")
    assert ingest.average_over_years(panel, years).tolist() == [pytest.approx(9.0)]


def test_average_commutes_with_merge():
    panel, ledger = _merge_fixture()
    merged = ingest.apply_merge_ledger(panel, ledger)
    merged_then_avg = dict(zip(merged.ids, ingest.average_over_years(merged, [2007])))
    avg = dict(zip(panel.ids, ingest.average_over_years(panel, [2007])))
    assert merged_then_avg["ab"] == pytest.approx(avg["a"] + avg["b"], rel=1e-12)


def test_serialize_roundtrip(long_panel_text):
    panel = ingest.parse_panel(long_panel_text)
    text = ingest.serialize_panel(panel)
    again = ingest.parse_panel(text)
    assert {r.entity_id: r.values for r in again.records} == \
        {r.entity_id: r.values for r in panel.records}
    assert ingest.serialize_panel(again) == text


@pytest.mark.parametrize("values", [
    [0.0, 7.0, 999999999999.0],  # whole numbers below 1e12
    [-0.0, 7.0],
    [1e12, 7.0],
    [2.5, 7.0],
    [math.nan, 7.0],
    [1e-7, 123456789.123456789],
])
def test_serialized_values_have_12_significant_digits(values):
    panel = ingest.Panel("q", (2007,), tuple(f"e{i}" for i in range(len(values))),
                         ("N",) * len(values), ("R",) * len(values), ("P",) * len(values),
                         np.array(values).reshape(-1, 1))
    rows = ingest.serialize_panel(panel).splitlines()[2:]
    assert [row.rsplit(",", 1)[1] for row in rows] == \
        ["" if v != v else format(v, ".12g") for v in values]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.sampled_from([0.1, 0.2, 0.3, 1e308, 1.0, -0.0, 0.0, math.nan]),
                         min_size=2, max_size=2), min_size=1, max_size=12),
       st.data())
def test_merged_sums_add_components_in_ledger_order(rows, data):
    n = len(rows)
    panel = ingest.Panel("q", (2007, 2008), tuple(f"e{i}" for i in range(n)),
                         ("N",) * n, ("R",) * n, ("P",) * n, np.array(rows))
    # a few entities, in drawn order, split into targets of one to three components
    components = data.draw(st.permutations(range(n)))[:data.draw(st.integers(0, n))]
    sizes = data.draw(st.lists(st.integers(1, 3), min_size=len(components),
                               max_size=len(components)))
    groups, at = [], 0
    for size in sizes:
        if at < len(components):
            groups.append(components[at:at + size])
            at += size
    ledger = ingest.MergeLedger(tuple(
        ingest.MergeEntry(f"m{t}", f"M{t}", tuple(f"e{i}" for i in group), 2009)
        for t, group in enumerate(groups)))
    with np.errstate(over="ignore"):
        expected = [sum(panel.values[i] for i in group) for group in groups]  # from 0, in order
    overflows = [(t, year) for t, sums in enumerate(expected)
                 for year, v in zip(panel.years, sums) if math.isinf(v)]
    if overflows:
        t, year = overflows[0]
        with pytest.raises(IngestError, match=f"'m{t}' in year {year} overflows"):
            ingest.apply_merge_ledger(panel, ledger)
        return
    merged = ingest.apply_merge_ledger(panel, ledger)
    for t, sums in enumerate(expected):
        assert merged.values[merged.ids.index(f"m{t}")].tobytes() == sums.tobytes()


def _merged_labels(panel, ledger):
    """(ids, names, regions, provinces) of the merged panel, entity by entity:
    the survivors in panel order, then each target with its first component's
    region and province; None where a target collides."""
    away = {cid for entry in ledger.entries for cid in entry.component_ids}
    kept = [i for i, eid in enumerate(panel.ids) if eid not in away]
    taken = {panel.ids[i] for i in kept}
    for entry in ledger.entries:
        if entry.target_id in taken:
            return None
        taken.add(entry.target_id)
    firsts = [panel.ids.index(entry.component_ids[0]) for entry in ledger.entries]
    return (tuple(panel.ids[i] for i in kept) + tuple(e.target_id for e in ledger.entries),
            tuple(panel.names[i] for i in kept) + tuple(e.target_name for e in ledger.entries),
            tuple(panel.regions[i] for i in kept + firsts),
            tuple(panel.provinces[i] for i in kept + firsts))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 12), st.data())
def test_merged_labels_equal_a_per_entity_reference(n, data):
    regions = data.draw(st.lists(st.sampled_from("RS"), min_size=n, max_size=n))
    provinces = data.draw(st.lists(st.sampled_from("PQT"), min_size=n, max_size=n))
    panel = ingest.Panel("q", (2007,), tuple(f"e{i}" for i in range(n)),
                         tuple(f"N{i}" for i in range(n)), tuple(regions), tuple(provinces),
                         np.ones((n, 1)))
    components = data.draw(st.permutations(range(n)))[:data.draw(st.integers(0, n))]
    groups, at = [], 0
    while at < len(components):
        size = data.draw(st.integers(1, 3))
        groups.append(components[at:at + size])
        at += size
    # a target takes a new id, or any panel id but its own components': one
    # merged away elsewhere is free, a survivor's collides, as does a repeated target
    targets = [data.draw(st.sampled_from([f"m{t}", f"m{t % 2}"]
                                         + [f"e{i}" for i in range(n) if i not in group]))
               for t, group in enumerate(groups)]
    ledger = ingest.MergeLedger(tuple(
        ingest.MergeEntry(target, target.upper(), tuple(f"e{i}" for i in group), 2009)
        for target, group in zip(targets, groups)))
    expected = _merged_labels(panel, ledger)
    if expected is None:
        with pytest.raises(IngestError, match="collides with a surviving record"):
            ingest.apply_merge_ledger(panel, ledger)
        return
    merged = ingest.apply_merge_ledger(panel, ledger)
    assert (merged.ids, merged.names, merged.regions, merged.provinces) == expected


# labels with every character csv's writer quotes here, and some it does not
LABELS = st.text(st.sampled_from('ab ," \r\n\x0c\x00é'), max_size=4)
WHOLE = st.one_of(st.sampled_from([0.0, 7.0, 999999999999.0]),
                  st.integers(0, 10 ** 12 - 1).map(float))
CELL = st.one_of(WHOLE, st.sampled_from([-0.0, 2.5, 1e-5, 1e12, 1e16, math.nan]),
                 st.floats(0.0, 1e20, allow_nan=False))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3), st.lists(st.tuples(LABELS, LABELS, LABELS, LABELS), max_size=8,
                                   unique_by=lambda labels: labels[0]),
       st.sampled_from([WHOLE, CELL]), LABELS, st.data())
def test_serialize_panel_writes_the_bytes_of_the_csv_writer(width, labels, cells, note, data):
    values = data.draw(st.lists(st.lists(cells, min_size=width, max_size=width),
                                min_size=len(labels), max_size=len(labels)))
    panel = ingest.Panel(note or "q", tuple(range(2007, 2007 + width)),
                         *(tuple(column) for column in zip(*labels)) if labels else ((),) * 4,
                         np.array(values).reshape(len(labels), width), note)
    assert ingest.serialize_panel(panel) == reference_ingest.serialize_panel(panel)
