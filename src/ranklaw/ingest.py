"""Input parsing and panel handling: delimited-text panels, ranking and scatter
files, merge ledgers, regional aggregation.

A Panel is an entity-by-year table of one measured quantity (e.g. aggregated
tax income or population), keyed by a stable entity id carrying region and
province membership.  Administrative consolidations are applied through a
MergeLedger; per-year values of merged entities are summed, which preserves
panel-wide totals.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field, replace
from statistics import fmean

from .errors import IngestError, id_sample

MISSING_MARKERS = {"", "NA", "NaN", "nan", "null", "None"}

LONG_COLUMNS = ["entity_id", "name", "region", "province", "year", "value"]
ID_COLUMNS = LONG_COLUMNS[:4]
RANKING_COLUMNS = ["rank", "entity_id", "value"]
SCATTER_COLUMNS = ["entity_id", "x", "y"]


@dataclass(frozen=True)
class EntityRecord:
    """One entity with its per-year values. A value of None marks missing data."""

    entity_id: str
    name: str
    region: str
    province: str
    values: dict[int, float | None]


@dataclass(frozen=True)
class Panel:
    quantity_label: str
    years: tuple[int, ...]
    records: tuple[EntityRecord, ...]
    provenance: str = ""

    def __post_init__(self):
        seen = set()
        for rec in self.records:
            if rec.entity_id in seen:
                raise IngestError(f"duplicate entity_id {rec.entity_id!r}")
            seen.add(rec.entity_id)

    @property
    def entity_ids(self) -> set[str]:
        return {rec.entity_id for rec in self.records}

    def by_id(self) -> dict[str, EntityRecord]:
        return {rec.entity_id: rec for rec in self.records}

    def values_for_year(self, year: int) -> dict[str, float | None]:
        if year not in self.years:
            raise IngestError(f"year {year} not in panel years {list(self.years)}")
        return {rec.entity_id: rec.values.get(year) for rec in self.records}


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


def _parse_value(raw: str, row_num: int) -> float | None:
    raw = raw.strip()
    if raw in MISSING_MARKERS:
        return None
    value = _number(raw, row_num)
    if value < 0:
        raise IngestError(f"negative value at row {row_num}")
    return value


def _body(text: str) -> list[tuple[int, str]]:
    """(1-based line number, line) of every line that is not blank or a '#' comment."""
    return [(n, line) for n, line in enumerate(text.splitlines(), start=1)
            if line.strip() and not line.startswith("#")]


def _table(text: str, columns: list[str], delimiter: str | None = None):
    """(header line number, header, rows) of a delimited file whose header starts
    with `columns`.  rows yields (line number, fields) for each data row and
    rejects a row whose field count differs from the header's.  The delimiter
    defaults to tab if the header contains one, comma otherwise."""
    body = _body(text)
    if not body:
        raise IngestError("empty input: no header row")
    header_no, header_line = body[0]
    delim = delimiter or ("\t" if "\t" in header_line else ",")
    reader = csv.reader((line for _, line in body), delimiter=delim)
    header = [h.strip() for h in next(reader)]
    if header[: len(columns)] != columns:
        raise IngestError(
            f"header must start with {','.join(columns)}; got {','.join(header)}"
        )

    def rows():
        for (row_num, _), row in zip(body[1:], reader):
            if len(row) != len(header):
                raise IngestError(
                    f"malformed row {row_num}: expected {len(header)} fields, got {len(row)}"
                )
            yield row_num, row
    return header_no, header, rows()


def parse_panel(text, schema: ColumnSchema | None = None) -> Panel:
    """Parse delimited text (long or wide form) into a Panel.

    Long form has columns entity_id,name,region,province,year,value; wide form
    replaces (year, value) with one column per year.  Lines starting with '#'
    carry optional metadata (quantity_label, provenance) and are skipped
    otherwise.
    """
    schema = schema or ColumnSchema()
    if hasattr(text, "read"):
        text = text.read()

    quantity_label = schema.quantity_label
    provenance = ""
    for line in text.splitlines():
        if line.startswith("#"):
            meta = line[1:].strip()
            if meta.startswith("quantity_label:"):
                quantity_label = meta.split(":", 1)[1].strip()
            elif meta.startswith("provenance:"):
                provenance = meta.split(":", 1)[1].strip()

    header_no, header, rows = _table(text, ID_COLUMNS, schema.delimiter)
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

    # entity_id -> (name, region, province, {year: value})
    entities: dict[str, tuple[str, str, str, dict[int, float | None]]] = {}
    years: set[int] = set()
    for row_num, row in rows:
        entity_id, name, region, province = (f.strip() for f in row[:4])
        region = schema.region_overrides.get(entity_id, region)
        if schema.region_codes is not None and region not in schema.region_codes:
            raise IngestError(f"unknown region code {region!r} at row {row_num}")
        if long_form:
            try:
                year = int(row[4])
            except ValueError:
                raise IngestError(f"malformed year {row[4]!r} at row {row_num}") from None
            row_values = {year: _parse_value(row[5], row_num)}
        else:
            row_values = {
                y: _parse_value(raw, row_num) for y, raw in zip(wide_years, row[4:])
            }
        years.update(row_values)

        if entity_id in entities:
            prev = entities[entity_id]
            if not long_form or (prev[0], prev[1], prev[2]) != (name, region, province):
                raise IngestError(f"duplicate entity_id {entity_id!r} at row {row_num}")
            if any(y in prev[3] for y in row_values):
                raise IngestError(f"duplicate entity_id {entity_id!r} at row {row_num}")
            prev[3].update(row_values)
        else:
            entities[entity_id] = (name, region, province, dict(row_values))

    year_list = tuple(sorted(years))
    records = tuple(
        EntityRecord(eid, name, region, province,
                     {y: vals.get(y) for y in year_list})
        for eid, (name, region, province, vals) in entities.items()
    )
    return Panel(quantity_label, year_list, records, provenance)


def is_ranking(text: str) -> bool:
    """Whether the text has the `rank,entity_id,value` layout rather than a panel's."""
    body = _body(text)
    return bool(body) and body[0][1].replace("\t", ",").startswith("rank,")


def parse_ranking(text: str) -> dict[str, float]:
    """Values by entity id from a `rank,entity_id,value` file; ranks are not read."""
    values: dict[str, float] = {}
    for row_num, row in _table(text, RANKING_COLUMNS)[2]:
        eid = row[1]
        if eid in values:
            raise IngestError(f"duplicate entity_id {eid!r} at row {row_num}")
        values[eid] = _number(row[2], row_num)
    return values


def parse_scatter(text: str) -> list[tuple[str, float, float]]:
    """(entity_id, x, y) points from a file whose columns start entity_id,x,y."""
    points: dict[str, tuple[str, float, float]] = {}
    for row_num, row in _table(text, SCATTER_COLUMNS)[2]:
        eid = row[0]
        if eid in points:
            raise IngestError(f"duplicate entity_id {eid!r} at row {row_num}")
        points[eid] = (eid, _number(row[1], row_num), _number(row[2], row_num))
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
    """Replace each entry's component records with one summed target record.

    Per-year target values are the sum of the component values, so panel-wide
    totals are preserved.  A year is missing in the target iff it is missing
    in any component.
    """
    by_id = panel.by_id()
    merged_away: set[str] = set()
    for entry in ledger.entries:
        for cid in entry.component_ids:
            if cid not in by_id:
                raise IngestError(f"unknown component_id {cid!r}")
            merged_away.add(cid)

    survivors = [rec for rec in panel.records if rec.entity_id not in merged_away]
    survivor_ids = {rec.entity_id for rec in survivors}

    new_records = list(survivors)
    for entry in ledger.entries:
        if entry.target_id in survivor_ids:
            raise IngestError(
                f"target_id {entry.target_id!r} collides with a surviving record"
            )
        components = [by_id[cid] for cid in entry.component_ids]
        values: dict[int, float | None] = {}
        for year in panel.years:
            parts = [c.values.get(year) for c in components]
            values[year] = None if any(p is None for p in parts) else sum(parts)
        first = components[0]
        new_records.append(
            EntityRecord(entry.target_id, entry.target_name, first.region,
                         first.province, values)
        )
        survivor_ids.add(entry.target_id)
    return replace(panel, records=tuple(new_records))


def aggregate_by_region(ati_panel: Panel, pop_panel: Panel,
                        census_year: int | None = None) -> list[RegionAggregate]:
    """Aggregate city panels into per-region totals.

    n_inhabitants sums the population panel at census_year (default: its last
    declared year); ati_by_year sums the member-city values per year and
    ati_mean averages those yearly totals.
    """
    if ati_panel.entity_ids != pop_panel.entity_ids:
        diff = id_sample(ati_panel.entity_ids ^ pop_panel.entity_ids)
        raise IngestError(f"entity sets differ between panels in {diff}")
    census_year = census_year if census_year is not None else pop_panel.years[-1]
    pop = pop_panel.by_id()

    regions: dict[str, list[EntityRecord]] = {}
    for rec in ati_panel.records:
        regions.setdefault(rec.region, []).append(rec)

    aggregates = []
    for region in sorted(regions):
        members = regions[region]
        ati_by_year: dict[int, float] = {}
        for year in ati_panel.years:
            total = 0.0
            for rec in members:
                v = rec.values.get(year)
                if v is None:
                    raise IngestError(
                        f"missing value for {rec.entity_id!r} in year {year}"
                    )
                total += v
            ati_by_year[year] = total
        n_inhab = 0.0
        for rec in members:
            v = pop[rec.entity_id].values.get(census_year)
            if v is None:
                raise IngestError(
                    f"missing population for {rec.entity_id!r} in year {census_year}"
                )
            n_inhab += v
        aggregates.append(
            RegionAggregate(region, len(members), n_inhab, ati_by_year,
                            fmean(ati_by_year.values()))
        )
    return aggregates


def average_over_years(panel: Panel, window: list[int]) -> dict[str, float]:
    """Unweighted per-entity arithmetic mean of values over the year window."""
    missing_years = [y for y in window if y not in panel.years]
    if missing_years:
        raise IngestError(f"window years {missing_years} not in panel")
    out = {}
    for rec in panel.records:
        vals = []
        for year in window:
            v = rec.values.get(year)
            if v is None:
                raise IngestError(
                    f"missing value for {rec.entity_id!r} in year {year}"
                )
            vals.append(v)
        out[rec.entity_id] = fmean(vals)
    return out


def serialize_panel(panel: Panel) -> str:
    """Canonical long-form text serialization (stable ordering, round-trips)."""
    out = io.StringIO()
    out.write(f"# quantity_label: {panel.quantity_label}\n")
    if panel.provenance:
        out.write(f"# provenance: {panel.provenance}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(LONG_COLUMNS)
    for rec in sorted(panel.records, key=lambda r: r.entity_id):
        for year in panel.years:
            v = rec.values.get(year)
            writer.writerow([
                rec.entity_id, rec.name, rec.region, rec.province, year,
                "" if v is None else format(v, ".12g"),
            ])
    return out.getvalue()
