"""Panel handling: delimited-text panels, merge ledgers, regional aggregation.

A Panel is an entity-by-year table of one measured quantity (e.g. aggregated
tax income or population), keyed by a stable entity id carrying region and
province membership, and held as columns: one tuple per label and one float64
matrix of entities by years.  Administrative consolidations are applied
through a MergeLedger; per-year values of merged entities are summed, which
preserves panel-wide totals.  Every file but a plain panel is read by the
reader module, which ranking and scatter files need alone.
"""

from __future__ import annotations

import csv
import math
import re
from collections import defaultdict
from itertools import chain, compress, count, islice
from typing import NamedTuple

import numpy as np

from .errors import IngestError, PanelGapError, checked, id_sample
from .reader import _body, _or_none, _read, _table

MISSING_MARKERS = {"", "NA", "NaN", "nan", "null", "None"}

LONG_COLUMNS = ["entity_id", "name", "region", "province", "year", "value"]
ID_COLUMNS = LONG_COLUMNS[:4]
_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"  # where str.splitlines breaks


class EntityRecord(NamedTuple):
    """One entity with its per-year values. A value of None marks missing data."""

    entity_id: str
    name: str
    region: str
    province: str
    values: dict[int, float | None]


@checked
class Panel(NamedTuple):
    """An entity-by-year table held as columns.

    ids, names, regions and provinces are aligned tuples in first-appearance
    order; values is a read-only float64 matrix with one row per entity and
    one column per year, NaN marking a missing cell.  records and
    values_for_year() are per-entity views built on each call.  Panels compare
    by value, with NaN cells equal.
    """

    quantity_label: str
    years: tuple[int, ...]
    ids: tuple[str, ...]
    names: tuple[str, ...]
    regions: tuple[str, ...]
    provinces: tuple[str, ...]
    values: np.ndarray
    provenance: str = ""

    def _check(self):
        if len(set(self.ids)) < len(self.ids):
            ids = sorted(self.ids)
            repeated = {a for a, b in zip(ids, ids[1:]) if a == b}
            raise IngestError(f"duplicate entity_id in {id_sample(repeated)}")
        n = len(self.ids)
        if (len(self.names), len(self.regions), len(self.provinces)) != (n, n, n) \
                or self.values.shape != (n, len(self.years)):
            raise IngestError(
                f"panel columns disagree: {n} ids, {len(self.names)} names, "
                f"{len(self.regions)} regions, {len(self.provinces)} provinces, "
                f"{len(self.years)} years and a {self.values.shape} value matrix")
        bad = np.isinf(self.values) | (self.values < 0)  # NaN marks a missing value
        if bad.any():
            i, j = divmod(int(np.argmax(bad)), len(self.years))
            raise IngestError(f"value {self.values[i, j]} for {self.ids[i]!r} in year "
                              f"{self.years[j]} is negative or infinite")

    def __eq__(self, other):
        if not isinstance(other, Panel):
            return NotImplemented
        # every field but values (the seventh), then values with NaN equal to NaN
        return (self[:6] + self[7:] == other[:6] + other[7:]
                and np.array_equal(self.values, other.values, equal_nan=True))

    def column(self, year: int) -> np.ndarray:
        """The values of one year, aligned with ids."""
        if year not in self.years:
            raise IngestError(f"year {year} not in panel years {list(self.years)}")
        return self.values[:, self.years.index(year)]

    @property
    def records(self) -> tuple[EntityRecord, ...]:
        return tuple(
            EntityRecord(eid, name, region, province,
                         {y: None if v != v else v for y, v in zip(self.years, row)})
            for eid, name, region, province, row in zip(
                self.ids, self.names, self.regions, self.provinces, self.values.tolist())
        )

    def values_for_year(self, year: int) -> dict[str, float | None]:
        return {eid: None if v != v else v
                for eid, v in zip(self.ids, self.column(year).tolist())}


class MergeEntry(NamedTuple):
    target_id: str
    target_name: str
    component_ids: tuple[str, ...]
    effective_year: int


@checked
class MergeLedger(NamedTuple):
    entries: tuple[MergeEntry, ...]

    def _check(self):
        seen: set[str] = set()
        for entry in self.entries:
            if not entry.component_ids:
                raise IngestError(f"entry {entry.target_id!r} has no components")
            for cid in entry.component_ids:
                if cid in seen:
                    raise IngestError(f"component {cid!r} appears in multiple entries")
                seen.add(cid)
            if entry.target_id in entry.component_ids:
                raise IngestError(
                    f"target {entry.target_id!r} listed among its own components"
                )


class RegionAggregate(NamedTuple):
    region: str
    n_cities: int
    n_inhabitants: float
    ati_by_year: dict[int, float]
    ati_mean: float


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


def _value_column(raw) -> tuple[np.ndarray, np.ndarray]:
    """(values, NaN where missing; cells that are neither a missing marker nor a
    finite number >= 0) of a column."""
    try:
        values = np.fromiter(map(float, raw), float, len(raw))
    except ValueError:  # a missing marker float does not read, or a malformed cell
        values = np.array([_or_none(float, c) for c in raw], dtype=float)
    missing = np.isnan(values)
    if missing.any():
        missing[missing] = [c.strip() in MISSING_MARKERS for c in compress(raw, missing)]
    with np.errstate(invalid="ignore"):
        return values, ~missing & ~(np.isfinite(values) & (values >= 0))


def _metadata(lines: list[str]) -> tuple[str, str]:
    """(quantity_label, provenance) from the '#' lines of `lines`; a later line overrides."""
    meta = {key: value.strip() for key, colon, value in
            (line[1:].strip().partition(":") for line in lines if line[:1] == "#") if colon}
    return meta.get("quantity_label", "value"), meta.get("provenance", "")


# '#' and blank lines, then a header line of tabs and printable ASCII but '"'
_HEAD = re.compile(r"(?:#.*\n|[ \t]*\n)*([\t -!#-~]*)\n")
# beyond ASCII: where str.splitlines breaks, what str.strip strips, lone surrogates
_UNPLAIN = re.compile(r"[\x85\xa0\u1680\u2000-\u200a\u2028\u2029\u202f\u205f\u3000\ud800-\udfff]")
# numpy 2.4's bytes-to-float cast was checked to read a plain number as float() does
_CAST_CHECKED = np.lib.NumpyVersion(np.__version__) >= "2.4.0"


def _plain_panel(text: str) -> Panel | None:
    """The panel of a plain text whose every row is valid, read in one pass as
    columns of UTF-8 bytes, or None.  A plain text breaks lines only at '\\n';
    after its header it has rows of the header's width and no '"', '#' line,
    control character but the delimiter, character in _UNPLAIN or edge space."""
    head = _HEAD.match(text)
    if not (_CAST_CHECKED and head) or len(head[0].splitlines()) != head[0].count("\n"):
        return None
    body, delimiter = text[head.end():], "\t" if "\t" in head[1] else ","
    header = [h.strip() for h in head[1].split(delimiter)]
    tail, long_form = header[4:], header[4:] == ["year", "value"]
    if not (header[:4] == ID_COLUMNS and (long_form or tail and all(map(str.isdigit, tail)))
            and '"' not in body and (body.isascii() or not _UNPLAIN.search(body))):
        return None
    buf = np.frombuffer((body if body.endswith("\n") else body + "\n").encode(), np.uint8)
    seps = (buf == 10) | (buf == ord(delimiter))
    # the separators before and after each field, by row; -1 comes before the first
    bounds = np.r_[np.int32(-1), np.flatnonzero(seps).astype(np.int32)]
    if len(bounds) % len(header) != 1 or len(buf) >= 2**31:
        return None
    before, ends = bounds[:-1].reshape(-1, len(header)), bounds[1:].reshape(-1, len(header))
    longest = int((ends[:, -1] - before[:, 0]).max())
    # a field under csv's size limit, and no cut over 4 times the text
    if not (longest < min(csv.field_size_limit(), 4 * len(buf) // len(ends) + 1)
            and np.count_nonzero(buf < 32) == (ends.size if delimiter == "\t" else len(ends))
            and ((buf[ends] == 10) == (np.arange(len(header)) == len(header) - 1)).all()
            and (buf[before[:, 0] + 1] != 35).all()
            and (buf[before + 1] != 32).all() and (buf[ends - 1] != 32).all()):
        return None
    buf = np.concatenate([buf, np.zeros(longest, np.uint8)])

    def cut(j, k):
        """Fields j to k of every row, with the delimiters between, as fixed-width bytes."""
        a, size = before[:, j] + 1, ends[:, k] - before[:, j] - 1
        cells = np.lib.stride_tricks.sliding_window_view(buf, max(int(size.max()), 1))[a]
        cells *= np.arange(cells.shape[1], dtype=np.int32) < size[:, None]
        return cells.view(f"S{cells.shape[1]}").ravel()

    # the value cells first: missing markers (NaN), or plain numbers >= 0 (NUL pads a cut)
    cells = np.concatenate([cut(j, j) for j in range(5 if long_form else 4, len(header))])
    missing = np.isin(cells, [marker.encode() for marker in MISSING_MARKERS])
    with np.errstate(over="ignore"):
        read = _or_none(lambda c: np.where(missing, b"nan", c).astype(float), cells)
    if (read is None or cells[~missing].tobytes().translate(None, b"\0+-.0123456789Ee")
            or np.isinf(read).any() or (read < 0).any()):
        return None
    # an entity is its id with its labels
    spans, firsts, entity = np.unique(cut(0, 3), return_index=True, return_inverse=True)
    order = np.argsort(firsts)
    entity = np.argsort(order)[entity]  # numbered in the order first seen
    # the id, name, region and province of each entity in turn
    labels = b"\n".join(spans[order].tolist()).decode().replace(delimiter, "\n").split("\n")
    if long_form:
        # with return_index, np.unique sorts stably, which is faster on bytes
        raw, _, column = np.unique(cut(4, 4), return_index=True, return_inverse=True)
        if not all(map(bytes.isdigit, raw.tolist())):
            return None
        found, columns = list(map(int, raw.tolist())), [column]
    else:
        found, columns = list(map(int, tail)), range(len(tail))
    years = sorted(set(found))
    position = np.searchsorted(years, found)  # the column of each year found
    at = np.concatenate([entity * len(years) + position[j] for j in columns])
    ids = labels[::4]  # an id given other labels repeats
    if not all(ids) or len(set(ids)) < len(ids) or np.bincount(at).max() > 1:
        return None
    values = np.full((len(spans), len(years)), np.nan)
    values.flat[at] = read
    quantity_label, provenance = _metadata(head[0].splitlines())
    return Panel(quantity_label, tuple(years), *(tuple(labels[j::4]) for j in range(4)),
                 values, provenance)


def parse_panel(text: str) -> Panel:
    """Parse delimited text (long or wide form) into a Panel.

    Long form has columns entity_id,name,region,province,year,value; wide form
    replaces (year, value) with one column per year.  Lines starting with '#'
    carry optional metadata (quantity_label, provenance) and are skipped
    otherwise.  A plain text (see _plain_panel) with no faulty row is read in
    one pass; any other is read a chunk at a time, each check running on a
    chunk's columns, and an error names the first row in file order that
    fails, and the first check that row fails.
    """
    panel = _plain_panel(text)
    if panel is not None:
        return panel
    comments, header_no, header, chunks = _table(text, ID_COLUMNS)
    quantity_label, provenance = _metadata(comments)

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

    index: defaultdict[str, int] = defaultdict(count().__next__)  # entities, as first seen
    # each entity's first name, region, province; a tuple each would wake the GC every chunk
    labels: tuple[list[str], ...] = ([], [], [])
    # the column of each year, numbered in the order the years are first seen
    positions = {} if long_form else {year: j for j, year in enumerate(sorted(last))}
    cell_no = defaultdict(count().__next__)  # long form: raw year cells, as first seen
    columns: list[int] = []  # long form: the column of each raw year cell, -1 if malformed
    filled = np.zeros((0, 0), dtype=bool)  # long form: the cells read, by entity and column
    first_cells = np.empty((0, 3), dtype=object)  # long form: each entity's first raw labels
    parts = []  # (entity, column, value) arrays of each chunk
    for row_nums, table in chunks:
        n = len(row_nums)
        ids = list(map(str.strip, table[:, 0].tolist()))
        start = len(index)
        entity = np.fromiter(map(index.__getitem__, ids), np.intp, n)
        # new entities take the next indices as they are first seen, so the
        # running max of the indices first reaches each new one at its first row
        firsts = np.maximum.accumulate(entity).searchsorted(np.arange(start, len(index)))
        new_cells = table[firsts, 1:4]
        for first, column in zip(labels, new_cells.T.tolist()):
            first.extend(map(str.strip, column))

        checks = []  # (rows that fail, fault of row i) of each check, in a row's check order
        if long_form:
            year_cells = table[:, 4].tolist()
            number = np.fromiter(map(cell_no.__getitem__, year_cells), np.intp, n)
            for raw in islice(cell_no, len(columns), None):  # the cells new in this chunk
                year = _or_none(int, raw)
                columns.append(-1 if year is None else positions.setdefault(year, len(positions)))
            column = np.array(columns)[number]
            checks.append((column < 0, lambda i: f"malformed year {year_cells[i]!r}"))
        cells = []
        for raw in table[:, 5 if long_form else 4:].T.tolist():
            cell_values, invalid = _value_column(raw)
            cells.append(cell_values)
            checks.append((invalid, lambda i, raw=raw: _value_fault(raw[i].strip())))
        if long_form:
            height, width = filled.shape
            if height < len(index) or width <= len(positions):
                # rows double only when short; columns grow to the years seen plus a spare
                grow = max(height, len(index) - height) if height < len(index) else 0
                filled = np.pad(filled, ((0, grow), (0, len(positions) + 1 - width)))
                first_cells = np.concatenate([first_cells, np.empty((grow, 3), dtype=object)])
            first_cells[start:len(index)] = new_cells
            # a row repeats an entity if its labels differ from the entity's
            # first row's, or if it fills a cell already filled; the stripped
            # labels can differ only where the raw cells do
            repeats = np.zeros(n, dtype=bool)
            for i in np.flatnonzero((table[:, 1:4] != first_cells[entity]).any(axis=1)).tolist():
                repeats[i] = (list(map(str.strip, table[i, 1:4].tolist()))
                              != [first[entity[i]] for first in labels])
            # column -1, a malformed year, takes the spare last column; such a
            # row fails before its repeat check and hides every fault after it
            cell = entity * filled.shape[1] + column % filled.shape[1]
            again = np.ones(n, dtype=bool)
            again[np.unique(cell, return_index=True)[1]] = False
            repeats |= again | filled.flat[cell]
            filled.flat[cell] = True
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


def parse_merge_ledger(text: str) -> MergeLedger:
    """Parse a ledger file: target_id,target_name,component_ids(semicolon-joined),effective_year.

    The header row is optional; errors name a row by its line number.
    """
    _, numbers, lines = _body(text)
    if not lines:
        return MergeLedger(())
    delimiter = "\t" if "\t" in lines[0] else ","
    rows, row_nums, _, error = _read(lines, numbers, 0, len(lines), delimiter, None)
    start = 1 if rows and rows[0] and rows[0][0].strip() == "target_id" else 0
    entries = []
    for row_num, row in zip(row_nums[start:], rows[start:]):
        if len(row) != 4:
            raise IngestError(f"malformed ledger row {row_num}: expected 4 fields")
        target_id, target_name, comps, year = (f.strip() for f in row)
        component_ids = tuple(c.strip() for c in comps.split(";") if c.strip())
        try:
            effective_year = int(year)
        except ValueError:
            raise IngestError(f"malformed effective_year at ledger row {row_num}") from None
        entries.append(MergeEntry(target_id, target_name, component_ids, effective_year))
    if error is not None:
        raise error
    return MergeLedger(tuple(entries))


def apply_merge_ledger(panel: Panel, ledger: MergeLedger) -> Panel:
    """Replace each entry's component rows with one summed target row.

    Per-year target values are the sum of the component values, so panel-wide
    totals are preserved.  A year is missing in the target iff it is missing
    in any component; a sum that overflows raises IngestError.  A target takes
    its region and province from its first component.
    """
    named = {eid for entry in ledger.entries for eid in (entry.target_id, *entry.component_ids)}
    found = list(map(named.__contains__, panel.ids))
    index = dict(zip(compress(panel.ids, found), compress(count(), found)))
    try:
        rows = [list(map(index.__getitem__, entry.component_ids)) for entry in ledger.entries]
    except KeyError as exc:
        raise IngestError(f"unknown component_id {exc.args[0]!r}") from None
    keep = np.ones(len(panel.ids), dtype=bool)
    keep[list(chain.from_iterable(rows))] = False
    survivors = keep.tolist()
    targets = [entry.target_id for entry in ledger.entries]
    taken: set[str] = set()
    for target in targets:
        if target in taken or target in index and survivors[index[target]]:
            raise IngestError(f"target_id {target!r} collides with a surviving record")
        taken.add(target)

    with np.errstate(over="ignore"):  # sum() adds each target's rows to 0 in ledger order
        sums = [sum(panel.values[row]) for row in rows]
    if np.isinf(sums).any():
        k, j = divmod(int(np.argmax(np.isinf(sums))), len(panel.years))
        raise IngestError(f"the sum for target {targets[k]!r} in year {panel.years[j]} overflows")
    return Panel(
        panel.quantity_label, panel.years,
        (*compress(panel.ids, survivors), *targets),
        (*compress(panel.names, survivors), *(entry.target_name for entry in ledger.entries)),
        (*compress(panel.regions, survivors), *(panel.regions[row[0]] for row in rows)),
        (*compress(panel.provinces, survivors), *(panel.provinces[row[0]] for row in rows)),
        np.vstack([panel.values[keep], *sums]), panel.provenance,
    )


def aggregate_by_region(ati_panel: Panel, pop_panel: Panel) -> list[RegionAggregate]:
    """Aggregate city panels into per-region totals.

    n_inhabitants sums the population panel's last year; ati_by_year sums the
    member-city values per year and ati_mean averages those yearly totals.
    Sums add the cities in panel order.  A missing cell, or a total that
    overflows, raises PanelGapError naming the panel that has it.
    """
    if set(ati_panel.ids) != set(pop_panel.ids):
        diff = id_sample(set(ati_panel.ids) ^ set(pop_panel.ids))
        raise IngestError(f"entity sets differ between panels in {diff}")
    if not pop_panel.years:
        raise PanelGapError("no census year: the panel has no entity rows", pop_panel)
    pop_index = {eid: i for i, eid in enumerate(pop_panel.ids)}
    population = pop_panel.values[[pop_index[eid] for eid in ati_panel.ids], -1]

    regions = sorted(set(ati_panel.regions))
    code = {region: r for r, region in enumerate(regions)}
    member = np.array([code[region] for region in ati_panel.regions], dtype=np.intp)
    gaps = np.isnan(ati_panel.values).any(axis=1) | np.isnan(population)
    if gaps.any():
        # the first gap region by region, income years before population
        cities = np.flatnonzero(member == member[gaps].min())
        for year, column in zip(ati_panel.years, ati_panel.values[cities].T):
            if np.isnan(column).any():
                eid = ati_panel.ids[cities[np.argmax(np.isnan(column))]]
                raise PanelGapError(f"missing value for {eid!r} in year {year}", ati_panel)
        eid = ati_panel.ids[cities[np.argmax(np.isnan(population[cities]))]]
        raise PanelGapError(f"missing population for {eid!r} in year {pop_panel.years[-1]}",
                            pop_panel)

    # a weighted bincount adds each region's cities one by one in panel order
    counts = np.bincount(member, minlength=len(regions)).tolist()
    sums = [np.bincount(member, weights, len(regions)).tolist()
            for weights in (population, *ati_panel.values.T)]
    aggregates = []
    for r, region in enumerate(regions):
        ati_by_year = {year: totals[r] for year, totals in zip(ati_panel.years, sums[1:])}
        total = _or_none(math.fsum, ati_by_year.values())  # inf if a year's sum is
        if math.isinf(sums[0][r]):
            raise PanelGapError(f"the population of region {region!r} overflows", pop_panel)
        if total is None or math.isinf(total):
            raise PanelGapError(f"the income of region {region!r} overflows", ati_panel)
        aggregates.append(RegionAggregate(region, counts[r], sums[0][r], ati_by_year,
                                          total / len(ati_by_year)))
    return aggregates


def average_over_years(panel: Panel, window: list[int] | None = None) -> np.ndarray:
    """Unweighted per-entity arithmetic mean of values over the year window,
    aligned with panel.ids; an empty or None window means every panel year.
    Every window year is checked to be in the panel before any window cell is
    checked to be there; a sum that overflows raises IngestError."""
    if not panel.ids:
        raise IngestError("no entity rows to average")
    window = list(window or panel.years)
    block = np.column_stack([panel.column(year) for year in window])
    gaps = np.isnan(block)
    if gaps.any():
        i, j = divmod(int(np.argmax(gaps)), len(window))
        raise IngestError(f"missing value for {panel.ids[i]!r} in year {window[j]}")
    try:  # zip hands fsum one reused tuple per entity
        sums = np.fromiter(map(math.fsum, zip(*block.T.tolist())), float, len(panel.ids))
    except OverflowError:
        eid = panel.ids[[_or_none(math.fsum, row) for row in block.tolist()].index(None)]
        raise IngestError(f"the sum for {eid!r} over the years {window} overflows") from None
    return sums / len(window)


_QUOTED = re.compile(f'[,"{_LINE_BREAKS}]')  # what csv's writer quotes, with these line breaks


def serialize_panel(panel: Panel) -> str:
    """Canonical long-form text serialization (stable ordering, round-trips).

    A label is quoted as csv's writer quotes it; a value is written by %.12g,
    and a missing value is empty."""
    head = f"# quantity_label: {panel.quantity_label}\n"
    if panel.provenance:
        head += f"# provenance: {panel.provenance}\n"
    head += ",".join(LONG_COLUMNS) + "\n"
    order = sorted(range(len(panel.ids)), key=panel.ids.__getitem__)
    columns = [list(map(column.__getitem__, order))
               for column in (panel.ids, panel.names, panel.regions, panel.provinces)]
    for fields in columns:  # _body splits at every line break that _QUOTED holds
        if _QUOTED.search("".join(fields)):
            fields[:] = ['"%s"' % f.replace('"', '""') if _QUOTED.search(f) else f for f in fields]
    heads = list(map(",".join, zip(*columns)))
    cells = panel.values[order].ravel().tolist()
    cells = ("%.12g\n" * len(cells) % tuple(cells)).replace("nan", "").splitlines()
    # one line per entity and year: the entity's labels, the year and the value
    args = [None] * (2 * len(cells))
    args[::2] = chain.from_iterable(zip(*[heads] * len(panel.years)))
    args[1::2] = cells
    return head + "".join(f"%s,{year},%s\n" for year in panel.years) * len(heads) % tuple(args)
