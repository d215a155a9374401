"""The chunked delimited-text reader every input file but a plain panel (see
ingest) is read with, and the parsers of ranking and scatter files."""

from __future__ import annotations

import contextlib
import csv
import math
import operator
import re
from itertools import chain, islice

import numpy as np

from .errors import IngestError

RANKING_COLUMNS = ["rank", "entity_id", "value"]
SCATTER_COLUMNS = ["entity_id", "x", "y"]
_CHUNK_ROWS = 500  # rows parsed at a time


def _number(raw: str, row_num: int) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise IngestError(f"malformed value {raw!r} at row {row_num}") from None
    if not math.isfinite(value):
        raise IngestError(f"non-finite value {raw!r} at row {row_num}")
    return value


def _body(text: str) -> tuple[list[str], list[int], list[str]]:
    """The '#' comment lines of a text, and the line numbers and lines, with
    their line breaks, of the others that are not blank."""
    lines = text.splitlines(keepends=True)
    # splitlines yields no empty line, and only one that starts with '#' or
    # whitespace can be dropped
    firsts = "".join(map(operator.itemgetter(0), lines))
    comments, numbers, kept, start = [], [], [], 0
    for candidate in re.finditer(r"[#\s]", firsts):
        i = candidate.start()
        if candidate[0] == "#":
            comments.append(lines[i])
        elif not lines[i].isspace():
            continue
        kept += lines[start:i]
        numbers += range(start + 1, i + 1)
        start = i + 1
    kept += lines[start:]
    numbers += range(start + 1, len(lines) + 1)
    return comments, numbers, kept


def _read(lines: list[str], numbers: list[int], start: int, count: int, delimiter, width):
    """Up to `count` rows from lines[start:], numbered `numbers`, the number of
    the line each starts on, the index of the next line, and the IngestError
    that stopped the read early, or None.  Lines that are `count` rows of
    `width` fields (not None) come from numpy's C tokenizer, which splits as csv
    does, as an object array; other rows come from csv as lists.  A row whose
    lines are not consecutive holds a quoted field over a '#' or blank line."""
    chunk = lines[start:start + count]
    if width is not None and chunk and max(map(len, chunk)) < csv.field_size_limit():
        with contextlib.suppress(ValueError, csv.Error):  # e.g. rows of different widths
            # strict csv fails where the last line ends inside a quoted field
            list(csv.reader(chunk[-1:], delimiter=delimiter, strict=True))
            table = np.loadtxt(chunk, dtype=object, delimiter=delimiter, quotechar='"',
                               comments=None, ndmin=2)
            if table.shape == (len(chunk), width):
                return table, numbers[start:start + len(chunk)], start + len(chunk), None
    reader = csv.reader(map(lines.__getitem__, range(start, len(lines))), delimiter=delimiter)
    with contextlib.suppress(csv.Error):
        rows = list(islice(reader, count))
        if reader.line_num == len(rows):  # every row is one line
            return rows, numbers[start:start + len(rows)], start + len(rows), None
    # a row spans lines, or csv failed: read the same lines again row by row
    reader = csv.reader(map(lines.__getitem__, range(start, len(lines))), delimiter=delimiter)
    rows = []
    ends = [start]  # lines read before each row, and after the last
    error = None
    try:
        for row in islice(reader, count):
            rows.append(row)
            ends.append(start + reader.line_num)
    except csv.Error as exc:  # e.g. a field over csv's size limit
        error = IngestError(f"malformed row {numbers[ends[-1]]}: {exc}")
    split = [numbers[b - 1] - numbers[a] != b - 1 - a for a, b in zip(ends, ends[1:])]
    if any(split):
        del rows[split.index(True):], ends[split.index(True) + 1:]
        error = IngestError(f"malformed row {numbers[ends[-1]]}: a quoted field "
                            "spans a '#' or blank line")
    return rows, [numbers[i] for i in ends[:-1]], ends[-1], error


def _table(text: str, columns: list[str]):
    """(comment lines, header line number, header, chunks) of a delimited file
    whose header starts with `columns`; the delimiter is tab if the header has
    one, comma otherwise.

    chunks yields (the number of the line each row starts on, a 2-D object
    array of the fields) for a few hundred rows at a time, so that the rows
    die young and a large file sets off no full garbage collection.  A row
    that does not split into the header's fields raises its IngestError only
    after the rows before it are yielded, so the caller checks those first.
    """
    comments, numbers, lines = _body(text)
    if not lines:
        raise IngestError("empty input: no header row")
    delimiter = "\t" if "\t" in lines[0] else ","
    head, _, start, error = _read(lines, numbers, 0, 1, delimiter, None)
    if error is not None:
        raise error
    header = [h.strip() for h in head[0]]
    if header[: len(columns)] != columns:
        raise IngestError(
            f"header must start with {','.join(columns)}; got {','.join(header)}"
        )

    def chunks(start, width):
        while True:
            rows, row_nums, end, error = _read(lines, numbers, start, _CHUNK_ROWS, delimiter, width)
            # numpy cannot number rows that span lines: once a row does, csv reads on
            width, start = width if end - start == len(rows) else None, end
            if not isinstance(rows, np.ndarray):  # _read has checked an array's width
                bad = next((i for i, row in enumerate(rows) if len(row) != len(header)), None)
                if bad is not None:
                    error = IngestError(f"malformed row {row_nums[bad]}: "
                                        f"expected {len(header)} fields, got {len(rows[bad])}")
                    rows = rows[:bad]
                rows = np.fromiter(chain.from_iterable(rows), object).reshape(-1, len(header))
            if len(rows):
                yield row_nums[:len(rows)], rows
            if error is not None:
                raise error
            if not len(rows):
                return
    return comments, numbers[0], header, chunks(start, len(header))


def _or_none(convert, cell):
    """convert(cell), or None where it raises ValueError or OverflowError."""
    try:
        return convert(cell)
    except (ValueError, OverflowError):
        return None


def is_ranking(text: str) -> bool:
    """Whether the text has the `rank,entity_id,value` layout rather than a panel's."""
    # only the '\n'-ended pieces up to the first line that _body keeps are split
    kept = filter(None, (_body(piece[0])[2] for piece in re.finditer(r"[^\n]*\n?", text)))
    return next(kept, [""])[0].replace("\t", ",").startswith("rank,")


def parse_ranking(text: str) -> dict[str, float]:
    """Values by entity id from a `rank,entity_id,value` file; ranks are not read."""
    values: dict[str, float] = {}
    for row_nums, table in _table(text, RANKING_COLUMNS)[3]:
        for row_num, eid, raw in zip(row_nums, *table.T[1:3].tolist()):
            eid = eid.strip()
            if eid in values:
                raise IngestError(f"duplicate entity_id {eid!r} at row {row_num}")
            values[eid] = _number(raw, row_num)
    return values


def parse_scatter(text: str) -> list[tuple[str, float, float]]:
    """(entity_id, x, y) points from a file whose columns start entity_id,x,y."""
    points: dict[str, tuple[str, float, float]] = {}
    for row_nums, table in _table(text, SCATTER_COLUMNS)[3]:
        for row_num, eid, x, y in zip(row_nums, *table.T[:3].tolist()):
            eid = eid.strip()
            if eid in points:
                raise IngestError(f"duplicate entity_id {eid!r} at row {row_num}")
            points[eid] = (eid, _number(x, row_num), _number(y, row_num))
    return list(points.values())
