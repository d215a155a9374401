"""Panel parsing on hostile input: any text gives a Panel or an IngestError, and
an error names the first failing row in file order."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ranklaw import ingest
from ranklaw.errors import IngestError

HEADERS = [
    "entity_id,name,region,province,year,value",
    "entity_id,name,region,province,2007,2008",
    "entity_id,name,region,province,2007,2007",
    "entity_id,name,region,province",
    "entity_id,name,region,province,year",
    "rank,entity_id,value",
    "# quantity_label: q",
    "",
]
FIELDS = ["a", "b", " a", "N", "M", "R1", "P1", "2007", "2008", " 2008 ", "x", "", "NA",
          "nan", "NAN", "None", "-1", "-0", "0", "2.5", "1e400", "inf", "1_0", '"q,r"',
          '"', "#", "\t", "99999999999999999999"]


def _outcome(text):
    try:
        return ingest.parse_panel(text)
    except IngestError as exc:
        return exc


@settings(max_examples=300, deadline=None)
@given(st.text())
def test_arbitrary_text_gives_panel_or_ingest_error(text):
    assert isinstance(_outcome(text), (ingest.Panel, IngestError))


# valid six-field rows plus, in one draw of four, a row of random fields, so
# that many draws parse
GOOD_ROW = st.builds(lambda eid, year, value: [eid, eid.upper(), "R" + str(ord(eid) % 2), "P1",
                                                year, value],
                     st.sampled_from("abcdefgh"), st.sampled_from(["2007", "2008", "2009"]),
                     st.sampled_from(["1", "2.5", "NA", ""]))


def _with_a_bad_row(good_rows):
    return st.builds(lambda good, bad, at: good[:at] + bad + good[at:], good_rows,
                     st.one_of(st.just([]), st.just([]), st.just([]),
                               st.lists(st.sampled_from(FIELDS), max_size=8).map(lambda r: [r])),
                     st.integers(0, 16))


ROWS = _with_a_bad_row(st.lists(GOOD_ROW, max_size=10))
# distinct (entity, year) cells in any order: long-form panels that mostly parse
CELLS = _with_a_bad_row(st.lists(GOOD_ROW, max_size=24, unique_by=lambda row: tuple(row[::4])))


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(HEADERS[:3] * 3 + HEADERS), ROWS, st.sampled_from([",", "\t"]))
def test_panel_like_text_gives_panel_or_ingest_error(header, rows, delimiter):
    lines = [header.replace(",", delimiter)] + [delimiter.join(row) for row in rows]
    text = "\n".join(lines) + "\n"
    result = _outcome(text)
    assert isinstance(result, (ingest.Panel, IngestError))
    if isinstance(result, ingest.Panel):
        assert result.values.shape == (len(result.ids), len(result.years))
        text = ingest.serialize_panel(result)
        assert ingest.serialize_panel(ingest.parse_panel(text)) == text


@settings(max_examples=500, deadline=None)
@given(CELLS, st.sampled_from([2, 3]))
def test_chunk_size_does_not_change_the_outcome(rows, chunk_rows):
    # entities come back in any order, so small chunks meet rows of entities
    # first seen in an earlier chunk
    text = "\n".join([HEADERS[0]] + [",".join(row) for row in rows]) + "\n"
    expected = _outcome(text)
    with mock.patch.object(ingest, "_CHUNK_ROWS", chunk_rows):
        result = _outcome(text)
    assert type(result) is type(expected)
    if isinstance(expected, IngestError):
        assert str(result) == str(expected)
    else:
        assert result == expected


LONG = "entity_id,name,region,province,year,value\n"
WIDE = "entity_id,name,region,province,2007,2008\n"


@pytest.mark.parametrize("text, message", [
    # a field count error after a bad value
    (LONG + "a,A,R1,P1,2007,-1\nb,B,R1,P1,2007\n", "negative value at row 2"),
    # a bad value after a wrong field count
    (LONG + "a,A,R1,P1,2007\nb,B,R1,P1,2007,x\n", "malformed row 2: expected 6 fields, got 5"),
    # a repeated cell before a malformed year
    (LONG + "a,A,R1,P1,2007,1\na,A,R1,P1,2007,2\nb,B,R1,P1,y,1\n",
     "duplicate entity_id 'a' at row 3"),
    # a malformed year before a repeated cell
    (LONG + "a,A,R1,P1,2007,1\nb,B,R1,P1,y,1\na,A,R1,P1,2007,2\n",
     "malformed year 'y' at row 3"),
    # changed labels before a non-finite value
    (LONG + "a,A,R1,P1,2007,1\na,Z,R1,P1,2008,2\nb,B,R1,P1,2007,inf\n",
     "duplicate entity_id 'a' at row 3"),
    # a non-finite value in the second column before a duplicate wide row
    (WIDE + "a,A,R1,P1,1,inf\na,A,R1,P1,1,2\n", "non-finite value 'inf' at row 2"),
    # a duplicate wide row before a malformed value
    (WIDE + "a,A,R1,P1,1,2\na,A,R1,P1,1,2\nb,B,R1,P1,x,2\n", "duplicate entity_id 'a' at row 3"),
    # within one row the first bad cell from the left is named
    (WIDE + "a,A,R1,P1,x,-1\n", "malformed value 'x' at row 2"),
    (WIDE + "a,A,R1,P1,-1,x\n", "negative value at row 2"),
])
def test_two_faults_name_the_earlier_row(text, message):
    with pytest.raises(IngestError) as err:
        ingest.parse_panel(text)
    assert str(err.value) == message


def test_unknown_region_before_a_bad_value():
    schema = ingest.ColumnSchema(region_codes=frozenset({"R1"}))
    text = LONG + "a,A,R1,P1,2007,1\nb,B,R9,P1,2007,1\nc,C,R1,P1,2007,-4\n"
    with pytest.raises(IngestError, match="^unknown region code 'R9' at row 3$"):
        ingest.parse_panel(text, schema)


def test_oversized_field_is_an_ingest_error():
    big = 'b,"' + "x" * 200_000 + '",R1,P1,1,2\n'
    with pytest.raises(IngestError, match="^malformed row 3: field larger than field limit"):
        ingest.parse_panel(WIDE + "a,A,R1,P1,1,2\n" + big)
    with pytest.raises(IngestError, match="^negative value at row 2$"):
        ingest.parse_panel(WIDE + "a,A,R1,P1,-1,2\n" + big)


def _long_rows(count):
    return [f"e{i // 2:04d},E{i // 2},R1,P1,{2007 + i % 2},{i + 1}" for i in range(count)]


def test_rows_are_read_across_chunks():
    panel = ingest.parse_panel(LONG + "\n".join(_long_rows(1200)) + "\n")
    assert len(panel.ids) == 600 and panel.years == (2007, 2008)
    assert panel.values[599].tolist() == [1199.0, 1200.0]


@pytest.mark.parametrize("line, message", [
    ("e0001,E1,R1,P1,2007,5", "duplicate entity_id 'e0001' at row 1002"),  # a cell of row 4
    ("e0001,Renamed,R1,P1,2009,5", "duplicate entity_id 'e0001' at row 1002"),
    ("e0002,E2,R1,P1,2010", "malformed row 1002: expected 6 fields, got 5"),
])
def test_a_fault_far_from_the_row_it_repeats(line, message):
    rows = _long_rows(1200)
    rows[1000] = line
    with pytest.raises(IngestError) as err:
        ingest.parse_panel(LONG + "\n".join(rows) + "\n")
    assert str(err.value) == message


def test_year_ordered_rows_across_chunks():
    # every row after the first chunk is of an entity seen before, except the last
    rows = [f"e{i:03d},E{i},R{i % 3},P{i % 2},{year},{i + 1}"
            for year in (2007, 2008) for i in range(400)]
    panel = ingest.parse_panel(LONG + "\n".join(rows + ["late,Late,R1,P9,2008,7"]) + "\n")
    assert panel.ids == tuple(f"e{i:03d}" for i in range(400)) + ("late",)
    assert panel.names == tuple(f"E{i}" for i in range(400)) + ("Late",)
    assert panel.regions == tuple(f"R{i % 3}" for i in range(400)) + ("R1",)
    assert panel.provinces == tuple(f"P{i % 2}" for i in range(400)) + ("P9",)
    assert panel.values[:400].tolist() == [[i + 1, i + 1] for i in range(400)]
    assert np.isnan(panel.values[400, 0]) and panel.values[400, 1] == 7


def test_a_misaligned_panel_is_refused():
    columns = dict(quantity_label="q", years=(2007,), ids=("a", "b"), names=("A", "B"),
                   regions=("R1", "R1"), provinces=("P1", "P1"), values=np.zeros((2, 1)))
    assert ingest.Panel(**columns).ids == ("a", "b")
    for name, value in [("names", ("A",)), ("regions", ("R1", "R1", "R2")),
                        ("provinces", ()), ("values", np.zeros((2, 2))),
                        ("years", (2007, 2008))]:
        with pytest.raises(IngestError, match="^panel columns disagree: "):
            ingest.Panel(**{**columns, name: value})
    with pytest.raises(IngestError, match="^duplicate entity_id in 1 ids: 'a'$"):
        ingest.Panel(**{**columns, "ids": ("a", "a")})
