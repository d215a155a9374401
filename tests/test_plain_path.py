"""The plain path of parse_panel: a text that ingest._plain_panel vouches for
is read as byte columns and gives the panel that the chunked reader gives; any
other text goes to the chunked reader unchanged."""

import importlib.util
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ranklaw import ingest, reader
from ranklaw.errors import IngestError
from tests import reference_ingest

LONG = "entity_id,name,region,province,year,value\n"
# numpy's bytes-to-float cast is trusted only where it was checked
CAST_CHECKED = pytest.mark.skipif(
    not ingest._CAST_CHECKED, reason="numpy before 2.4 leaves every file to the chunked reader")

# decimal cells with '+' signs, leading zeros, points and exponents, some of
# which overflow; a few negative, malformed, empty or missing ones, or NaN or
# inf spelled as float() reads them
NUMBER = st.from_regex(r"\+?0{0,2}[0-9]{1,25}(\.[0-9]{0,4})?([eE][+-]?[0-9]{1,3})?",
                       fullmatch=True)
VALUE = st.one_of(NUMBER, NUMBER, NUMBER,
                  st.sampled_from(["", "", "-0", "-1", "1e400", ".", "NA", "nan", "None", "NAN",
                                   "inf"]))
# a row whose id starts with '#' is a comment line
ID = st.sampled_from(["a", "b", "c", "d", "e1", "è2", "#c"])
# a label with an inner space or '#', an accent, or a space at its end, ASCII
# or not, or a line break beyond ASCII; "X" gives an entity other labels
NAME = st.sampled_from(["", "N", "N o", "N#1", "Forlì", "N ", "N\xa0", "N\u2028o", "X"])


def _outcome(parse, text):
    try:
        return parse(text)
    except IngestError as exc:
        return exc


def _assert_same(result, expected):
    assert type(result) is type(expected)
    if isinstance(expected, IngestError):
        assert str(result) == str(expected)
    else:
        assert result == expected
        assert np.signbit(result.values).tolist() == np.signbit(expected.values).tolist()


NAME_AS_DRAWN = ("X", "N ", "N\xa0", "N\u2028o", "Forlì")


def _long_rows(cells, order):
    rows = [[eid, name if name in NAME_AS_DRAWN else eid.upper(), f"R{ord(eid[-1]) % 2}", "P1",
             year, value] for eid, name, year, value in cells]
    keys = {"drawn": None, "year": lambda row: (row[4], row[0]),
            "entity": lambda row: (row[0], row[4])}
    return sorted(rows, key=keys[order]) if keys[order] else rows


LONG_CELLS = st.lists(st.tuples(ID, NAME, st.sampled_from(["2007", "2008", "02009"]), VALUE),
                      min_size=1, max_size=20)
WIDE_ROWS = st.integers(1, 3).flatmap(lambda k: st.tuples(
    st.sampled_from([["2007", "2008", "2009"][:k], ["2009", "2007", "2008"][:k],
                     ["2007"] * k]),
    st.lists(st.tuples(ID, NAME, st.lists(VALUE, min_size=k, max_size=k)),
             min_size=1, max_size=12)))


@settings(max_examples=400, deadline=None)
@given(st.one_of(LONG_CELLS.map(lambda cells: ("long", cells)),
                 WIDE_ROWS.map(lambda rows: ("wide", rows))),
       st.sampled_from(["drawn", "year", "entity"]), st.sampled_from([",", "\t"]),
       st.booleans())
def test_plain_texts_agree_with_the_reference_parser(drawn, order, delimiter, labelled):
    form, rows = drawn
    if form == "long":
        header, rows = LONG.rstrip("\n").split(","), _long_rows(rows, order)
    else:
        years, entities = rows
        header = ["entity_id", "name", "region", "province", *years]
        rows = [[eid, name, "R1", "P1", *values] for eid, name, values in entities]
    lines = [delimiter.join(row) for row in [header, *rows]]
    text = "# quantity_label: q\n" * labelled + "\n".join(lines) + "\n"
    expected = _outcome(reference_ingest.parse_panel, text)
    _assert_same(_outcome(ingest.parse_panel, text), expected)
    plain = ingest._plain_panel(text)
    if plain is not None:
        _assert_same(plain, expected)


@pytest.mark.parametrize("text", [
    # entity-ordered, with empty cells, signs, leading zeros and exponents
    LONG + "a,A,R1,P1,2007,+1\na,A,R1,P1,2008,\nb,B c,R2,P2,2007,007.50\nb,B c,R2,P2,2008,1E3\n",
    # year-ordered and tab-delimited, after metadata and a blank line
    "# quantity_label: ATI\n\n" + LONG.replace(",", "\t")
    + "a\tA\tR1\tP1\t2008\t2\nb\tB,c\tR2\tP2\t2008\t3\na\tA\tR1\tP1\t2007\t1e-3\n",
    # wide, without a line break at the end
    "entity_id,name,region,province,2008,2007\na,A,R1,P1,1,2\nb,B,R1,P1,,-0",
    # every missing marker
    LONG + "".join(f"{eid},A,R1,P1,2007,{marker}\n"
                   for eid, marker in zip("abcdef", ["", "NA", "NaN", "nan", "null", "None"])),
    # labels beyond ASCII
    LONG + "fo,Forlì,Emilia-Romagna,FC,2007,1\ncà,Cantù,Lombardia,CO,2007,2\n",
])
@CAST_CHECKED
def test_plain_texts_take_the_plain_path(text):
    panel = ingest._plain_panel(text)
    assert panel is not None
    _assert_same(panel, reference_ingest.parse_panel(text))


@pytest.mark.parametrize("text", [
    LONG + 'a,"A, Inc",R1,P1,2007,1\n',  # a quoted label
    LONG + 'a,"A",R1,P1,2007,1\n',
    LONG + "a,A\x0bB,R1,P1,2007,1\n",  # a control character: here a line break
    LONG + "a,A\t,R1,P1,2007,1\n",  # and here white space
    LONG + "a,A\u2028B,R1,P1,2007,1\n",  # a line break beyond ASCII
    LONG + "a,A\x85B,R1,P1,2007,1\n",
    LONG + "a,A\xa0,R1,P1,2007,1\n",  # white space beyond ASCII at an edge
    LONG + "a,A\u3000B,R1,P1,2007,1\n",  # and inside a label
    LONG + "a,A\udc80,R1,P1,2007,1\n",  # a lone surrogate
    LONG + "a,A,R1,P1,2007,\u0661\u0662\n",  # digits beyond ASCII, which float() reads
    LONG + "a,A,R1,P1,2007,Nan\n",  # a NaN that is not a missing marker
    LONG.replace("\n", "\r\n") + "a,A,R1,P1,2007,1\r\n",  # CRLF line breaks
    LONG + "a,A,R1,P1,2007,1\n# a note\nb,B,R1,P1,2007,2\n",  # a comment after the header
    LONG + "a, A,R1,P1,2007,1\n",  # a cell with white space at an edge
    LONG + "a,A,R1,P1 ,2007,1\n",
    LONG + "a,A,R1,P1,2007,1\n#b,B,R1,P1,2007,2\n",  # a '#' line of the header's width
    LONG + "a,A,R1,P1,2007,1e400\n",  # a value that overflows
    LONG + "a,A,R1,P1,2007,-1\n",  # a negative value
    LONG + "a,A,R1,P1,2007,1\na,B,R1,P1,2008,1\n",  # an id given other labels
    LONG + "a,A,R1,P1,2007,1\na,A,R1,P1,2007,2\n",  # a repeated cell
    LONG + "a,A,R1,P1,y2007,1\n",  # a malformed year
    LONG + ",A,R1,P1,2007,1\n",  # an empty id
    LONG + "a,A,R1,P1,2007\n",  # a short row
    "entity_id,name,region,province,2007,2007\na,A,R1,P1,1,2\n",  # a repeated year column
    "entity_id,name,region,province,x\na,A,R1,P1,1\n",  # a malformed header
    # a line break before the header that is not '\n'
    "# quantity_label: q\r# provenance: p\n" + LONG + "a,A,R1,P1,2007,1\n",
])
def test_a_text_the_plain_path_refuses_reads_as_before(text):
    assert ingest._plain_panel(text) is None
    _assert_same(_outcome(ingest.parse_panel, text),
                 _outcome(reference_ingest.parse_panel, text))


def _per_row_ranking(rows):
    """A rank,entity_id,value reading with float() row by row, or None where
    the chunked reader refuses the rows."""
    values = {}
    for eid, raw in rows:
        try:
            value = float(raw)
        except ValueError:
            return None
        if eid in values or not np.isfinite(value):
            return None
        values[eid] = value
    return values


RANKING_VALUE = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                          st.from_regex(r"-?[0-9]{1,25}(\.[0-9]{1,5})?([eE][+-]?[0-9]{1,3})?",
                                        fullmatch=True),
                          st.sampled_from(["", "+1", "1e309", "1-2", "e5"]))


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(st.from_regex(r"[a-z][a-z0-9]{0,3}", fullmatch=True),
                          RANKING_VALUE), min_size=1, max_size=20),
       st.sampled_from([",", "\t"]))
def test_parse_ranking_equals_a_per_row_float_reading(rows, delimiter):
    text = "".join(delimiter.join(row) + "\n"
                   for row in [("rank", "entity_id", "value"),
                               *((str(r), eid, raw) for r, (eid, raw) in enumerate(rows, 1))])
    expected = _per_row_ranking(rows)
    result = _outcome(reader.parse_ranking, text)
    if expected is None:
        assert isinstance(result, IngestError)
    else:
        assert list(result) == list(expected)
        assert [v.hex() for v in result.values()] == [v.hex() for v in expected.values()]


def _without_the_chunked_reader():
    """A patch under which the chunked reader, which reads every file through
    _read, fails."""
    return mock.patch.object(reader, "_read", side_effect=AssertionError("chunked read"))


def _benchmark_inputs():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@CAST_CHECKED
@pytest.mark.parametrize("seed", range(1, 9))
def test_the_benchmark_inputs_take_the_plain_path(tmp_path, seed):
    _benchmark_inputs().generate(tmp_path, seed)
    income, population = ((tmp_path / name).read_text()
                          for name in ("income.csv", "population.csv"))
    with _without_the_chunked_reader():
        panels = [ingest.parse_panel(income), ingest.parse_panel(population)]
    assert panels == [reference_ingest.parse_panel(income),
                      reference_ingest.parse_panel(population)]
