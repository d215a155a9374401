"""Input parsing and panel handling: delimited-text panels, ranking and scatter
files, merge ledgers, regional aggregation.

A Panel is an entity-by-year table of one measured quantity (e.g. aggregated
tax income or population), keyed by a stable entity id carrying region and
province membership, and held as columns: one tuple per label and one float64
matrix of entities by years.  Administrative consolidations are applied
through a MergeLedger; per-year values of merged entities are summed, which
preserves panel-wide totals.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from itertools import islice
from statistics import fmean
from types import SimpleNamespace

import numpy as np

from .errors import IngestError, id_sample

MISSING_MARKERS = {"", "NA", "NaN", "nan", "null", "None"}

LONG_COLUMNS = ["entity_id", "name", "region", "province", "year", "value"]
ID_COLUMNS = LONG_COLUMNS[:4]
RANKING_COLUMNS = ["rank", "entity_id", "value"]
SCATTER_COLUMNS = ["entity_id", "x", "y"]
_CHUNK_ROWS = 500  # rows parsed at a time


@dataclass(frozen=True)
class EntityRecord:
    """One entity with its per-year values. A value of None marks missing data."""

    entity_id: str
    name: str
    region: str
    province: str
    values: dict[int, float | None]


@dataclass(frozen=True, eq=False)
class Panel:
    """An entity-by-year table held as columns.

    ids, names, regions and provinces are aligned tuples in first-appearance
    order; values is a read-only float64 matrix with one row per entity and
    one column per year, NaN marking a missing cell.  records, by_id(),
    values_for_year() and entity_ids are per-entity views built on each call.
    """

    quantity_label: str
    years: tuple[int, ...]
    ids: tuple[str, ...]
    names: tuple[str, ...]
    regions: tuple[str, ...]
    provinces: tuple[str, ...]
    values: np.ndarray
    provenance: str = ""

    def __post_init__(self):
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
        self.values.setflags(write=False)

    def __eq__(self, other):
        if not isinstance(other, Panel):
            return NotImplemented
        return ({**vars(self), "values": None} == {**vars(other), "values": None}
                and np.array_equal(self.values, other.values, equal_nan=True))

    def column(self, year: int) -> np.ndarray:
        """The values of one year, aligned with ids."""
        if year not in self.years:
            raise IngestError(f"year {year} not in panel years {list(self.years)}")
        return self.values[:, self.years.index(year)]

    @property
    def entity_ids(self) -> set[str]:
        return set(self.ids)

    @property
    def records(self) -> tuple[EntityRecord, ...]:
        return tuple(
            EntityRecord(eid, name, region, province,
                         {y: None if v != v else v for y, v in zip(self.years, row)})
            for eid, name, region, province, row in zip(
                self.ids, self.names, self.regions, self.provinces, self.values.tolist())
        )

    def by_id(self) -> dict[str, EntityRecord]:
        return {rec.entity_id: rec for rec in self.records}

    def values_for_year(self, year: int) -> dict[str, float | None]:
        return {eid: None if v != v else v
                for eid, v in zip(self.ids, self.column(year).tolist())}


@dataclass(frozen=True)
class MergeEntry:
    target_id: str
    target_name: str
    component_ids: tuple[str, ...]
    effective_year: int


@dataclass(frozen=True)
class MergeLedger:
    entries: tuple[MergeEntry, ...]

    def __post_init__(self):
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


@dataclass(frozen=True)
class RegionAggregate:
    region: str
    n_cities: int
    n_inhabitants: float
    ati_by_year: dict[int, float]
    ati_mean: float


@dataclass(frozen=True)
class ColumnSchema:
    """Input-file layout description.

    delimiter None means auto-detect (tab if the header line contains one,
    comma otherwise).  region_codes, when given, is the closed set of valid
    region labels; rows with other labels are rejected.  region_overrides
    reassigns entities to a different region at parse time (used to pin
    membership to a fixed reference year when it changed mid-panel).
    """

    quantity_label: str = "value"
    delimiter: str | None = None
    region_codes: frozenset[str] | None = None
    region_overrides: dict[str, str] = field(default_factory=dict)


def _number(raw: str, row_num: int) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise IngestError(f"malformed value {raw!r} at row {row_num}") from None
    if not math.isfinite(value):
        raise IngestError(f"non-finite value {raw!r} at row {row_num}")
    return value


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
    """The '#' comment lines of a text, and the line numbers and lines of the
    others that are not blank."""
    comments, numbers, lines = [], [], []
    for n, line in enumerate(text.splitlines(), start=1):
        if line.startswith("#"):
            comments.append(line)
        elif line.strip():
            numbers.append(n)
            lines.append(line)
    return comments, numbers, lines


def _read(reader, numbers: list[int], count: int):
    """Up to `count` rows from a csv reader of the lines numbered `numbers`, and
    the IngestError that stopped the read early, or None."""
    rows: list[list[str]] = []
    try:
        rows.extend(islice(reader, count))
    except csv.Error as exc:  # e.g. a field over csv's size limit
        return rows, IngestError(f"malformed row {numbers[reader.line_num - 1]}: {exc}")
    return rows, None


def _table(text: str, columns: list[str], delimiter: str | None = None):
    """(comment lines, header line number, header, chunks) of a delimited file
    whose header starts with `columns`; the delimiter defaults to tab if the
    header has one, comma otherwise.

    chunks yields (line numbers, fields) for a few hundred rows at a time,
    fields holding one tuple per header column, so that the row lists die
    young and a large file sets off no full garbage collection.  A row that
    does not split into the header's fields raises its IngestError only after
    the rows before it are yielded, so the caller checks those first.
    """
    comments, numbers, lines = _body(text)
    if not lines:
        raise IngestError("empty input: no header row")
    reader = csv.reader(lines, delimiter=delimiter or ("\t" if "\t" in lines[0] else ","))
    head, error = _read(reader, numbers, 1)
    if error is not None:
        raise error
    header = [h.strip() for h in head[0]]
    if header[: len(columns)] != columns:
        raise IngestError(
            f"header must start with {','.join(columns)}; got {','.join(header)}"
        )

    def chunks():
        done = 1
        while True:
            rows, error = _read(reader, numbers, _CHUNK_ROWS)
            lengths = list(map(len, rows))
            if lengths.count(len(header)) != len(rows):
                bad = next(i for i, k in enumerate(lengths) if k != len(header))
                error = IngestError(f"malformed row {numbers[done + bad]}: "
                                    f"expected {len(header)} fields, got {lengths[bad]}")
                rows = rows[:bad]
            if rows:
                yield numbers[done: done + len(rows)], list(zip(*rows))
            done += len(rows)
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


def parse_panel(text, schema: ColumnSchema | None = None) -> Panel:
    """Parse delimited text (long or wide form) into a Panel.

    Long form has columns entity_id,name,region,province,year,value; wide form
    replaces (year, value) with one column per year.  Lines starting with '#'
    carry optional metadata (quantity_label, provenance) and are skipped
    otherwise.  The rows are read a chunk at a time and each check runs on a
    chunk's columns; an error names the first row, in file order, that fails,
    and the first check that row fails.
    """
    schema = schema or ColumnSchema()
    if hasattr(text, "read"):
        text = text.read()

    comments, header_no, header, chunks = _table(text, ID_COLUMNS, schema.delimiter)
    quantity_label = schema.quantity_label
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
        if schema.region_overrides:
            row_labels[1] = [schema.region_overrides.get(e, r) for e, r in zip(ids, row_labels[1])]
        start = len(index)
        entity = np.array([index.setdefault(e, len(index)) for e in ids], dtype=np.intp)
        # new entities take the next indices, so their first rows are where the
        # running max of the indices, seeded below this chunk's new ones, rises
        firsts = np.flatnonzero(np.diff(np.maximum.accumulate(np.r_[start - 1, entity])) > 0)
        for stored, column_labels in zip(labels, row_labels):
            stored.extend(map(column_labels.__getitem__, firsts.tolist()))

        checks = []  # (rows that fail, fault of row i) of each check, in a row's check order
        if schema.region_codes is not None:
            known = np.fromiter(map(schema.region_codes.__contains__, row_labels[1]), bool, n)
            checks.append((~known, lambda i: f"unknown region code {row_labels[1][i]!r}"))
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


def is_ranking(text: str) -> bool:
    """Whether the text has the `rank,entity_id,value` layout rather than a panel's."""
    lines = _body(text)[2]
    return bool(lines) and lines[0].replace("\t", ",").startswith("rank,")


def parse_ranking(text: str) -> dict[str, float]:
    """Values by entity id from a `rank,entity_id,value` file; ranks are not read."""
    values: dict[str, float] = {}
    for row_nums, columns in _table(text, RANKING_COLUMNS)[3]:
        for row_num, eid, raw in zip(row_nums, columns[1], columns[2]):
            if eid in values:
                raise IngestError(f"duplicate entity_id {eid!r} at row {row_num}")
            values[eid] = _number(raw, row_num)
    return values


def parse_scatter(text: str) -> list[tuple[str, float, float]]:
    """(entity_id, x, y) points from a file whose columns start entity_id,x,y."""
    points: dict[str, tuple[str, float, float]] = {}
    for row_nums, columns in _table(text, SCATTER_COLUMNS)[3]:
        for row_num, eid, x, y in zip(row_nums, *columns[:3]):
            if eid in points:
                raise IngestError(f"duplicate entity_id {eid!r} at row {row_num}")
            points[eid] = (eid, _number(x, row_num), _number(y, row_num))
    return list(points.values())


def parse_merge_ledger(text, delimiter: str | None = None) -> MergeLedger:
    """Parse a ledger file: target_id,target_name,component_ids(semicolon-joined),effective_year."""
    if hasattr(text, "read"):
        text = text.read()
    lines = [l for l in text.splitlines() if l.strip() and not l.startswith("#")]
    if not lines:
        return MergeLedger(())
    delim = delimiter or ("\t" if "\t" in lines[0] else ",")
    rows = list(csv.reader(lines, delimiter=delim))
    start = 1 if rows and rows[0] and rows[0][0].strip() == "target_id" else 0
    entries = []
    for row_num, row in enumerate(rows[start:], start=start + 1):
        if len(row) != 4:
            raise IngestError(f"malformed ledger row {row_num}: expected 4 fields")
        target_id, target_name, comps, year = (f.strip() for f in row)
        component_ids = tuple(c.strip() for c in comps.split(";") if c.strip())
        try:
            effective_year = int(year)
        except ValueError:
            raise IngestError(f"malformed effective_year at ledger row {row_num}") from None
        entries.append(MergeEntry(target_id, target_name, component_ids, effective_year))
    return MergeLedger(tuple(entries))


def apply_merge_ledger(panel: Panel, ledger: MergeLedger) -> Panel:
    """Replace each entry's component rows with one summed target row.

    Per-year target values are the sum of the component values, so panel-wide
    totals are preserved.  A year is missing in the target iff it is missing
    in any component.  A target takes its region and province from its first
    component.
    """
    index = {eid: i for i, eid in enumerate(panel.ids)}
    for entry in ledger.entries:
        for cid in entry.component_ids:
            if cid not in index:
                raise IngestError(f"unknown component_id {cid!r}")
    merged_away = {index[cid] for entry in ledger.entries for cid in entry.component_ids}
    keep = [i for i in range(len(panel.ids)) if i not in merged_away]
    taken = {panel.ids[i] for i in keep}
    for entry in ledger.entries:
        if entry.target_id in taken:
            raise IngestError(
                f"target_id {entry.target_id!r} collides with a surviving record"
            )
        taken.add(entry.target_id)

    sources = keep + [index[entry.component_ids[0]] for entry in ledger.entries]
    sums = [sum(panel.values[index[cid]] for cid in entry.component_ids)
            for entry in ledger.entries]
    return Panel(
        panel.quantity_label, panel.years,
        tuple([panel.ids[i] for i in keep] + [entry.target_id for entry in ledger.entries]),
        tuple([panel.names[i] for i in keep] + [entry.target_name for entry in ledger.entries]),
        tuple(panel.regions[i] for i in sources), tuple(panel.provinces[i] for i in sources),
        np.vstack([panel.values[keep], *sums]), panel.provenance,
    )


def aggregate_by_region(ati_panel: Panel, pop_panel: Panel,
                        census_year: int | None = None) -> list[RegionAggregate]:
    """Aggregate city panels into per-region totals.

    n_inhabitants sums the population panel at census_year (default: its last
    declared year); ati_by_year sums the member-city values per year and
    ati_mean averages those yearly totals.  Sums add the cities in panel order.
    """
    if set(ati_panel.ids) != set(pop_panel.ids):
        diff = id_sample(set(ati_panel.ids) ^ set(pop_panel.ids))
        raise IngestError(f"entity sets differ between panels in {diff}")
    census_year = census_year if census_year is not None else pop_panel.years[-1]
    pop_index = {eid: i for i, eid in enumerate(pop_panel.ids)}
    rows = [pop_index[eid] for eid in ati_panel.ids]
    population = (pop_panel.column(census_year)[rows] if census_year in pop_panel.years
                  else np.full(len(rows), np.nan))

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
                raise IngestError(f"missing value for {eid!r} in year {year}")
        eid = ati_panel.ids[cities[np.argmax(np.isnan(population[cities]))]]
        raise IngestError(f"missing population for {eid!r} in year {census_year}")

    # a weighted bincount adds each region's cities one by one in panel order
    counts = np.bincount(member, minlength=len(regions)).tolist()
    sums = [np.bincount(member, weights, len(regions)).tolist()
            for weights in (population, *ati_panel.values.T)]
    aggregates = []
    for r, region in enumerate(regions):
        ati_by_year = {year: totals[r] for year, totals in zip(ati_panel.years, sums[1:])}
        aggregates.append(RegionAggregate(region, counts[r], sums[0][r], ati_by_year,
                                          fmean(ati_by_year.values())))
    return aggregates


def average_over_years(panel: Panel, window: list[int]) -> dict[str, float]:
    """Unweighted per-entity arithmetic mean of values over the year window."""
    missing_years = [y for y in window if y not in panel.years]
    if missing_years:
        raise IngestError(f"window years {missing_years} not in panel")
    block = panel.values[:, [panel.years.index(y) for y in window]]
    gaps = np.isnan(block)
    if gaps.any():
        i, j = divmod(int(np.argmax(gaps)), len(window))
        raise IngestError(f"missing value for {panel.ids[i]!r} in year {window[j]}")
    return dict(zip(panel.ids, map(fmean, block.tolist())))


def serialize_panel(panel: Panel) -> str:
    """Canonical long-form text serialization (stable ordering, round-trips)."""
    out = io.StringIO()
    out.write(f"# quantity_label: {panel.quantity_label}\n")
    if panel.provenance:
        out.write(f"# provenance: {panel.provenance}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(LONG_COLUMNS)
    order = sorted(range(len(panel.ids)), key=panel.ids.__getitem__)
    # each entity's four label fields go through the csv writer once; the
    # year and value fields never need quoting
    labels: list[str] = []
    csv.writer(SimpleNamespace(write=labels.append), lineterminator="\n").writerows(
        (panel.ids[i], panel.names[i], panel.regions[i], panel.provinces[i]) for i in order)
    years = [f",{year}," for year in panel.years]
    out.writelines(
        head[:-1] + year + ("" if v != v else format(v, ".12g")) + "\n"
        for head, row in zip(labels, panel.values[order].tolist())
        for year, v in zip(years, row)
    )
    return out.getvalue()
