"""The long-form and wide-form panel parser as it stood before its checks
were moved to bulk numpy and C-level work: one label compare per label
column, a set of Python-int keys for the filled cells, and a csv read that
records each row's line as it goes.  Kept verbatim as the reference that
ranklaw.ingest.parse_panel must agree with, panel for panel and message for
message; it runs only in the tests.

serialize_panel is the panel writer as it stood before it quoted labels
and wrote whole values itself: every label row goes through csv's writer and
every value through %.12g.  ranklaw.ingest.serialize_panel must write its
bytes."""

from __future__ import annotations

import csv
import math
import operator
from itertools import chain, islice
from types import SimpleNamespace

import numpy as np

from ranklaw.errors import IngestError
from ranklaw.ingest import _LINE_BREAKS, ID_COLUMNS, LONG_COLUMNS, MISSING_MARKERS, Panel

_CHUNK_ROWS = 500  # rows parsed at a time


def _value_fault(cell: str) -> str:
    """What is wrong with a stripped value cell that _value_column rejects."""
    value = _or_none(float, cell)
    if value is None:
        return f"malformed value {cell!r}"
    if not math.isfinite(value):
        return f"non-finite value {cell!r}"
    if value < 0:
        return "negative value"
    raise AssertionError(f"value cell {cell!r} was rejected but is valid")


def _body(text: str) -> tuple[list[str], list[int], list[str]]:
    """The '#' comment lines of a text, and the line numbers and lines, with
    their line breaks, of the others that are not blank."""
    comments, numbers, lines = [], [], []
    for n, line in enumerate(text.splitlines(keepends=True), start=1):
        if line.startswith("#"):
            comments.append(line)
        elif line.strip():
            numbers.append(n)
            lines.append(line)
    return comments, numbers, lines


def _read(reader, numbers: list[int], count: int):
    """Up to `count` rows from a csv reader of the lines numbered `numbers`, the
    number of the line each row starts on, and the IngestError that stopped the
    read early, or None.  A row whose lines are not consecutive in the file
    holds a quoted field that spans a '#' or blank line, which _body dropped."""
    rows: list[list[str]] = []
    ends = [reader.line_num]  # lines read before each row, and after the last
    error = None
    try:
        for row in islice(reader, count):
            rows.append(row)
            ends.append(reader.line_num)
    except csv.Error as exc:  # e.g. a field over csv's size limit
        error = IngestError(f"malformed row {numbers[ends[-1]]}: {exc}")
    if rows and numbers[ends[-1] - 1] - numbers[ends[0]] != ends[-1] - 1 - ends[0]:
        split = [numbers[b - 1] - numbers[a] != b - 1 - a for a, b in zip(ends, ends[1:])]
        if any(split):
            del rows[split.index(True):], ends[split.index(True) + 1:]
            error = IngestError(f"malformed row {numbers[ends[-1]]}: a quoted field "
                                "spans a '#' or blank line")
    return rows, [numbers[i] for i in ends[:-1]], error


def _table(text: str, columns: list[str]):
    """(comment lines, header line number, header, chunks) of a delimited file
    whose header starts with `columns`; the delimiter is tab if the header has
    one, comma otherwise.

    chunks yields (the number of the line each row starts on, fields) for a
    few hundred rows at a time, fields holding one tuple per header column, so
    that the row lists die young and a large file sets off no full garbage
    collection.  A row that does not split into the header's fields raises its
    IngestError only after the rows before it are yielded, so the caller
    checks those first.
    """
    comments, numbers, lines = _body(text)
    if not lines:
        raise IngestError("empty input: no header row")
    reader = csv.reader(lines, delimiter="\t" if "\t" in lines[0] else ",")
    head, _, error = _read(reader, numbers, 1)
    if error is not None:
        raise error
    header = [h.strip() for h in head[0]]
    if header[: len(columns)] != columns:
        raise IngestError(
            f"header must start with {','.join(columns)}; got {','.join(header)}"
        )

    def chunks():
        while True:
            rows, row_nums, error = _read(reader, numbers, _CHUNK_ROWS)
            lengths = list(map(len, rows))
            if lengths.count(len(header)) != len(rows):
                bad = next(i for i, k in enumerate(lengths) if k != len(header))
                error = IngestError(f"malformed row {row_nums[bad]}: "
                                    f"expected {len(header)} fields, got {lengths[bad]}")
                rows = rows[:bad]
            if rows:
                yield row_nums[:len(rows)], list(zip(*rows))
            if error is not None:
                raise error
            if not rows:
                return
    return comments, numbers[0], header, chunks()


def _or_none(convert, cell):
    """convert(cell), or None where it raises ValueError."""
    try:
        return convert(cell)
    except ValueError:
        return None


def _value_column(raw) -> tuple[np.ndarray, np.ndarray]:
    """(values, NaN where missing; cells that are neither a missing marker nor a
    finite number >= 0) of a column."""
    cells = list(map(str.strip, raw))
    missing = np.fromiter(map(MISSING_MARKERS.__contains__, cells), bool, len(cells))
    if missing.any():
        cells = ["nan" if m else c for c, m in zip(cells, missing.tolist())]
    try:
        values = np.array(list(map(float, cells)), dtype=float)
    except ValueError:
        values = np.array([_or_none(float, c) for c in cells], dtype=float)
    with np.errstate(invalid="ignore"):
        return values, ~missing & ~(np.isfinite(values) & (values >= 0))


def parse_panel(text: str) -> Panel:
    """Parse delimited text (long or wide form) into a Panel.

    Long form has columns entity_id,name,region,province,year,value; wide form
    replaces (year, value) with one column per year.  Lines starting with '#'
    carry optional metadata (quantity_label, provenance) and are skipped
    otherwise.  The rows are read a chunk at a time and each check runs on a
    chunk's columns; an error names the first row, in file order, that fails,
    and the first check that row fails.
    """
    comments, header_no, header, chunks = _table(text, ID_COLUMNS)
    quantity_label = "value"
    provenance = ""
    for line in comments:
        meta = line[1:].strip()
        if meta.startswith("quantity_label:"):
            quantity_label = meta.split(":", 1)[1].strip()
        elif meta.startswith("provenance:"):
            provenance = meta.split(":", 1)[1].strip()

    tail = header[len(ID_COLUMNS):]
    long_form = tail == ["year", "value"]
    if not long_form:
        try:
            wide_years = [int(col) for col in tail]
        except ValueError:
            raise IngestError(
                f"header row {header_no}: trailing columns must be 'year,value' "
                f"or integer years; got {tail}"
            ) from None
        if not wide_years:
            raise IngestError("wide form needs at least one year column")
        last = {year: j for j, year in enumerate(wide_years)}  # a repeated year's last column

    index: dict[str, int] = {}
    labels: tuple[list[str], ...] = ([], [], [])  # each entity's first name, region, province
    # the column of each year, numbered in the order the years are first seen
    positions = {} if long_form else {year: j for j, year in enumerate(sorted(last))}
    column_of: dict[str, int] = {}  # long form: column of each year cell, -1 if malformed
    filled: set[int] = set()  # long form: entity << 32 | column of every cell read
    parts = []  # (entity, column, value) arrays of each chunk
    for row_nums, columns in chunks:
        n = len(row_nums)
        ids, *row_labels = (list(map(str.strip, c)) for c in columns[:4])
        start = len(index)
        entity = np.array([index.setdefault(e, len(index)) for e in ids], dtype=np.intp)
        # new entities take the next indices, so their first rows are where the
        # running max of the indices, seeded below this chunk's new ones, rises
        firsts = np.flatnonzero(np.diff(np.maximum.accumulate(np.r_[start - 1, entity])) > 0)
        for stored, column_labels in zip(labels, row_labels):
            stored.extend(map(column_labels.__getitem__, firsts.tolist()))

        checks = []  # (rows that fail, fault of row i) of each check, in a row's check order
        if long_form:
            for raw in set(columns[4]).difference(column_of):
                year = _or_none(int, raw)
                column_of[raw] = -1 if year is None else positions.setdefault(year, len(positions))
            column = np.fromiter(map(column_of.__getitem__, columns[4]), np.intp, n)
            checks.append((column < 0, lambda i: f"malformed year {columns[4][i]!r}"))
        cells = []
        for raw in columns[5:] if long_form else columns[4:]:
            cell_values, invalid = _value_column(raw)
            cells.append(cell_values)
            checks.append((invalid, lambda i, raw=raw: _value_fault(raw[i].strip())))
        if long_form:
            # a row repeats an entity if its labels differ from the entity's
            # first row's, or if it fills a cell already filled
            entities = entity.tolist()
            repeats = np.zeros(n, dtype=bool)
            for stored, column_labels in zip(labels, row_labels):
                firsts_labels = map(stored.__getitem__, entities)
                repeats |= np.fromiter(map(str.__ne__, column_labels, firsts_labels), bool, n)
            keys = (entity << 32 | column).tolist()
            if not filled.isdisjoint(keys) or len(set(keys)) < n:
                for i, key in enumerate(keys):
                    repeats[i] |= key in filled
                    filled.add(key)
            filled.update(keys)
            parts.append((entity, column, cells[0]))
        else:
            repeats = np.ones(n, dtype=bool)
            repeats[firsts] = False
            parts += [(entity, positions[year], cells[j]) for year, j in last.items()]
        checks.append((repeats, lambda i: f"duplicate entity_id {ids[i]!r}"))
        faults = [(int(np.argmax(fails)), k) for k, (fails, _) in enumerate(checks) if fails.any()]
        if faults:
            i, k = min(faults)
            raise IngestError(f"{checks[k][1](i)} at row {row_nums[i]}")

    rank = {year: j for j, year in enumerate(sorted(positions))}
    sorted_column = np.array([rank[year] for year in positions], dtype=np.intp)
    years = list(rank) if index else []  # a panel's years are its rows'
    values = np.full((len(index), len(years)), np.nan)
    for entity, column, cell_values in parts:
        values[entity, sorted_column[column]] = cell_values
    return Panel(quantity_label, tuple(years), tuple(index), *map(tuple, labels), values,
                 provenance)



def serialize_panel(panel: Panel) -> str:
    """Canonical long-form text serialization (stable ordering, round-trips)."""
    head = f"# quantity_label: {panel.quantity_label}\n"
    if panel.provenance:
        head += f"# provenance: {panel.provenance}\n"
    head += ",".join(LONG_COLUMNS) + "\n"
    order = sorted(range(len(panel.ids)), key=panel.ids.__getitem__)
    # each entity's four label fields go through the csv writer once; csv
    # quotes a field holding any character of its line terminator, so every
    # line break of str.splitlines, which _body splits at, is one of them
    labels: list[str] = []
    csv.writer(SimpleNamespace(write=labels.append), lineterminator=_LINE_BREAKS).writerows(
        zip(*(map(column.__getitem__, order)
              for column in (panel.ids, panel.names, panel.regions, panel.provinces))))
    heads = list(map(operator.itemgetter(slice(None, -len(_LINE_BREAKS))), labels))
    # the year and value fields never need quoting; a missing value is empty
    years = [f",{year}," for year in panel.years] * len(order)
    values = panel.values[order].ravel().tolist()
    texts = ("%.12g\n" * len(values) % tuple(values)).replace("nan", "")
    # zip hands out one reused tuple, so no object per entity or cell is made
    return "".join(chain([head], chain.from_iterable(zip(
        chain.from_iterable(zip(*[heads] * len(panel.years))), years,
        texts.splitlines(keepends=True)))))
