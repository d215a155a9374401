"""Panel parsing on hostile input: any text gives a Panel or an IngestError, and
an error names the first failing row in file order."""

import contextlib
import csv
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ranklaw import ingest, reader
from ranklaw.errors import IngestError
from tests import reference_ingest

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


def _chunked():
    """A patch under which parse_panel reads every text with the chunked
    reader, which a plain text would otherwise bypass."""
    return mock.patch.object(ingest, "_plain_panel", return_value=None)


# parse_panel as it reads a text, and as it reads it with the chunked reader
BOTH_PATHS = [contextlib.nullcontext, _chunked]


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
    with mock.patch.object(reader, "_CHUNK_ROWS", chunk_rows), _chunked():
        result = _outcome(text)
    assert type(result) is type(expected)
    if isinstance(expected, IngestError):
        assert str(result) == str(expected)
    else:
        assert result == expected


# rows as drawn, by year then entity (each later year revisits every entity,
# in later chunks), or by entity then year
ORDERS = {"drawn": None, "year": lambda row: (row[4:5], row[:1]),
          "entity": lambda row: (row[:1], row[4:5])}


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(HEADERS[:3] * 3 + HEADERS), st.one_of(ROWS, CELLS),
       st.sampled_from(sorted(ORDERS)), st.sampled_from([",", "\t"]),
       st.sampled_from([2, 3, 500]),
       st.lists(st.tuples(st.integers(0, 30), st.sampled_from(["#c", "", " "])), max_size=2))
def test_parse_panel_agrees_with_the_reference_parser(header, rows, order, delimiter,
                                                      chunk_rows, dropped):
    if ORDERS[order]:
        rows = sorted(rows, key=ORDERS[order])
    lines = [header.replace(",", delimiter)] + [delimiter.join(row) for row in rows]
    for at, line in dropped:  # '#' and blank lines, which the parsers skip
        lines.insert(at, line)
    text = "\n".join(lines) + "\n"
    try:
        expected = reference_ingest.parse_panel(text)
    except IngestError as exc:
        expected = exc
    for path in BOTH_PATHS:
        with mock.patch.object(reader, "_CHUNK_ROWS", chunk_rows), path():
            result = _outcome(text)
        assert type(result) is type(expected)
        if isinstance(expected, IngestError):
            assert str(result) == str(expected)
        else:
            assert result == expected


LONG = "entity_id,name,region,province,year,value\n"
WIDE = "entity_id,name,region,province,2007,2008\n"


def _parse_peak(text):
    """The panel of a text and the peak bytes traced while parsing it."""
    tracemalloc.start()
    try:
        return ingest.parse_panel(text), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_year_ordered_panel_parses_in_the_memory_of_an_entity_ordered_one():
    # 600 entities x 12 years: sorted by year, every year after the first
    # arrives in a later chunk than the first rows of the entities it fills
    cells = [(i, year) for i in range(600) for year in range(2000, 2012)]
    texts = [LONG + "".join(f"e{i},N{i},R{i % 7},P{i % 3},{year},{i * year}\n"
                            for i, year in order)
             for order in (cells, sorted(cells, key=lambda cell: cell[1]))]
    for path in BOTH_PATHS:
        with path():
            (by_entity, entity_peak), (by_year, year_peak) = map(_parse_peak, texts)
        assert by_year == reference_ingest.parse_panel(texts[1])
        assert by_year.values.shape == (600, 12)
        assert year_peak < 1.5 * entity_peak


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


def test_a_panel_row_is_numbered_by_the_line_it_starts_on():
    # the quoted name of the first row spans lines 2 and 3
    text = 'entity_id,name,region,province,2007\na,"A\nB",R1,P1,1\nb,B,R1,P1,-1\n'
    with pytest.raises(IngestError, match="^negative value at row 4$"):
        ingest.parse_panel(text)


def test_a_ranking_row_is_numbered_by_the_line_it_starts_on():
    text = 'rank,entity_id,value\n1,"a\nb",3\n2,c,x\n'
    with pytest.raises(IngestError, match="^malformed value 'x' at row 4$"):
        reader.parse_ranking(text)


PANEL_2007 = "entity_id,name,region,province,2007\n"


def test_a_quoted_field_keeps_its_line_break():
    assert ingest.parse_panel(PANEL_2007 + 'a,"A\nB",R1,P1,1\n').names == ("A\nB",)


@pytest.mark.parametrize("body, message", [
    # a blank line inside the quoted name
    ('a,"A\n\nB",R1,P1,1\n', "malformed row 2: a quoted field spans a '#' or blank line"),
    ('b,B,R1,P1,1\na,"A\n#B\nC",R1,P1,1\n',
     "malformed row 3: a quoted field spans a '#' or blank line"),
    # the '#' line ends the file, so csv reads the row as two fields
    ('a,"A\n#B",R1,P1,1\n', "malformed row 2: expected 5 fields, got 2"),
])
def test_a_quoted_field_over_a_dropped_line_names_its_row(body, message):
    with pytest.raises(IngestError) as err:
        ingest.parse_panel(PANEL_2007 + body)
    assert str(err.value) == message


def test_a_fault_before_a_quoted_field_over_a_dropped_line_is_named_first():
    text = PANEL_2007 + 'b,B,R1,P1,-1\na,"A\n\nB",R1,P1,1\n'
    with pytest.raises(IngestError, match="^negative value at row 2$"):
        ingest.parse_panel(text)


def test_names_with_line_breaks_round_trip():
    panel = ingest.Panel("q", (2007,), ("a", "b"), ("A\nB", "C\r\nD"), ("R1", "R2"),
                         ("P1", "P2"), np.array([[1.0], [2.0]]))
    assert ingest.parse_panel(ingest.serialize_panel(panel)) == panel


# words joined by single line breaks: labels are stripped when read, and two
# breaks in a row would leave a blank line inside the quoted field
LINE_BREAKS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
               "\u2028", "\u2029"]
WORD = st.text(st.sampled_from('ab,"x'), min_size=1, max_size=3)
LABEL = st.builds(lambda first, rest: first + "".join(b + w for b, w in rest),
                  WORD, st.lists(st.tuples(st.sampled_from(LINE_BREAKS), WORD), max_size=3))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(LABEL, LABEL, LABEL, LABEL, st.sampled_from([1.5, 2.0, float("nan")])),
                min_size=1, max_size=5, unique_by=lambda row: row[0]).map(sorted))
def test_labels_with_any_line_break_round_trip(rows):
    # serialize_panel writes the entities in id order
    ids, names, regions, provinces, values = zip(*rows)
    panel = ingest.Panel("q", (2007,), ids, names, regions, provinces,
                         np.array(values).reshape(-1, 1))
    assert ingest.parse_panel(ingest.serialize_panel(panel)) == panel


def test_oversized_field_is_an_ingest_error():
    big = 'b,"' + "x" * 200_000 + '",R1,P1,1,2\n'
    with pytest.raises(IngestError, match="^malformed row 3: field larger than field limit"):
        ingest.parse_panel(WIDE + "a,A,R1,P1,1,2\n" + big)
    with pytest.raises(IngestError, match="^negative value at row 2$"):
        ingest.parse_panel(WIDE + "a,A,R1,P1,-1,2\n" + big)


def _long_rows(count):
    return [f"e{i // 2:04d},E{i // 2},R1,P1,{2007 + i % 2},{i + 1}" for i in range(count)]


def test_rows_are_read_across_chunks():
    for path in BOTH_PATHS:
        with path():
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
    for path in BOTH_PATHS:
        with path():
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


def test_a_panel_refuses_infinite_and_negative_values():
    columns = dict(quantity_label="q", years=(2007, 2008), ids=("a", "b"), names=("A", "B"),
                   regions=("R1", "R1"), provinces=("P1", "P1"))
    # NaN marks a missing value, and -0.0 is a value >= 0
    assert ingest.Panel(**columns, values=np.array([[np.nan, 1.0], [-0.0, 2.0]])).ids == ("a", "b")
    for cells, message in [([[1.0, 2.0], [np.inf, 3.0]], "value inf for 'b' in year 2007"),
                           ([[1.0, -3.0], [1.0, -np.inf]], "value -3.0 for 'a' in year 2008")]:
        with pytest.raises(IngestError, match=f"^{message} is negative or infinite$"):
            ingest.Panel(**columns, values=np.array(cells))


def _reads(read_header, read_chunk):
    """(rows, row numbers, error message) of a header read and of each chunk
    read after it, up to an error or the end."""
    reads = []
    rows, row_nums, error = read_header()
    while True:
        rows = rows.tolist() if isinstance(rows, np.ndarray) else rows
        reads.append((rows, row_nums, error and str(error)))
        if error is not None or not rows:
            return reads
        rows, row_nums, error = read_chunk(len(reads[0][0][0]))


# fields from a quote-, delimiter- and NUL-heavy alphabet, and lines mostly of
# one width, so that chunks of lines that are rows of the header's width, and
# chunks that are not, both come up often; '#' and doubled breaks make lines
# that _body drops
FIELD = st.one_of(*[st.text(st.sampled_from(list("aa \t\0\u00e9")), max_size=3)] * 6,
                  st.text(st.sampled_from(list('a,"#\t')), max_size=4))
BREAK = st.sampled_from(["\n", "\n", "\r\n", "\r", "\x0b", "\x1c", "\n\n", ""])
LINES = st.integers(1, 3).flatmap(lambda width: st.lists(st.tuples(
    st.one_of(*[st.lists(FIELD, min_size=width, max_size=width)] * 4,
              st.lists(FIELD, min_size=1, max_size=3)), BREAK), min_size=2, max_size=12))


@settings(max_examples=1000, deadline=None)
@given(LINES, st.sampled_from([",", "\t"]), st.sampled_from([2, 3]),
       st.sampled_from([3, 131072, 131072]))
def test_read_agrees_with_a_row_by_row_csv_reader(lines, delimiter, count, limit):
    text = "".join(delimiter.join(fields) + end for fields, end in lines)
    _, numbers, body = reader._body(text)
    rows_in = csv.reader(body, delimiter=delimiter)
    start = 0

    def read(count, width):
        nonlocal start
        rows, row_nums, start, error = reader._read(body, numbers, start, count, delimiter,
                                                    width)
        return rows, row_nums, error

    old_limit = csv.field_size_limit(limit)  # lines at and over the limit read with csv
    try:
        expected = _reads(lambda: reference_ingest._read(rows_in, numbers, 1),
                          lambda width: reference_ingest._read(rows_in, numbers, count))
        assert _reads(lambda: read(1, None), lambda width: read(count, width)) == expected
    finally:
        csv.field_size_limit(old_limit)


@pytest.mark.parametrize("body", [
    'a,"b\nc",d\n',  # the quote of the chunk's last line continues past it
    'a,b\nc,"d\ne",f\ng,h\n',
    'a,b\nc,d,e\nf,g\n',  # a ragged row
    'a\0,b\r\nc,d\r\n',
])
def test_read_of_a_chunk_the_tokenizer_cannot_take(body):
    lines = ["x,y\n", *body.splitlines(keepends=True)]
    _, numbers, lines = reader._body("".join(lines))
    rows_in = csv.reader(lines)
    start = 1
    next(rows_in)
    expected = reference_ingest._read(rows_in, numbers, 2)
    rows, row_nums, _, error = reader._read(lines, numbers, start, 2, ",", 2)
    rows = rows.tolist() if isinstance(rows, np.ndarray) else rows
    assert (rows, row_nums, error and str(error)) == (expected[0], expected[1],
                                                      expected[2] and str(expected[2]))


@pytest.mark.parametrize("body", [
    '"a,1","b"\n"c","d"\n',  # the quotes of every line close on it
    'a,"b ""c"""\n"d",e\n',
    'a,b\nc,"d,e"\n',
])
def test_the_tokenizer_takes_a_chunk_whose_last_line_closes_its_quotes(body):
    lines = body.splitlines(keepends=True)
    rows, row_nums, end, error = reader._read(lines, [2, 3], 0, 2, ",", 2)
    assert isinstance(rows, np.ndarray) and (row_nums, end, error) == ([2, 3], 2, None)
    assert rows.tolist() == list(csv.reader(lines))


def test_rows_after_a_row_over_lines_are_read_as_csv_reads_them():
    # once a row spans lines, later chunks skip numpy's tokenizer; their
    # rows and row numbers stay those of the reference parser
    rows = [f'e{i},"E{i}{chr(10) if i == 1 else ""}",R1,P1,2007,{i}' for i in range(9)]
    text = LONG + "\n".join(rows) + "\n"
    with mock.patch.object(reader, "_CHUNK_ROWS", 2):
        assert ingest.parse_panel(text) == reference_ingest.parse_panel(text)
        with pytest.raises(IngestError, match="^negative value at row 10$"):
            ingest.parse_panel(text.replace(",7\n", ",-7\n"))


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(["#", " ", "\t", "\n", "\r", "\r\n", "\x0b", "\x85", "rank,",
                                 "rank\t", "rank", ",", "x", '"']), max_size=12).map("".join))
def test_is_ranking_reads_the_first_line_that_is_not_dropped(text):
    lines = reader._body(text)[2]
    assert reader.is_ranking(text) == (bool(lines) and
                                       lines[0].replace("\t", ",").startswith("rank,"))


# lines of '#', whitespace that breaks no line and other characters, each
# ended by one of the breaks str.splitlines knows, and a last line with none
BODY_LINES = st.lists(st.tuples(st.text(st.sampled_from("# \t\u3000a,"), max_size=3),
                                st.sampled_from(["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c",
                                                 "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])),
                      max_size=12)


@settings(max_examples=500, deadline=None)
@given(BODY_LINES, st.text(st.sampled_from("# \ta"), max_size=3))
def test_body_agrees_with_a_line_by_line_definition(lines, last):
    text = "".join(line + end for line, end in lines) + last
    comments, numbers, kept = [], [], []
    for number, line in enumerate(text.splitlines(keepends=True), 1):
        if line.startswith("#"):
            comments.append(line)
        elif not line.isspace():
            numbers.append(number)
            kept.append(line)
    assert reader._body(text) == (comments, numbers, kept)
