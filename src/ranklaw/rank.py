"""Rank assignment, rank pairing across two criteria, and rank differences."""

from __future__ import annotations

import enum
import io
from typing import NamedTuple

import numpy as np

from .errors import RankingError, checked, id_sample, require_finite


class TieBreak(enum.Enum):
    LEXICAL_NAME = "lexical"
    ENTITY_ID = "id"
    AVERAGE_RANK = "average"


@checked
class RankedSeries(NamedTuple):
    """Entities sorted by one criterion, rank 1 = largest value.

    ids is a tuple in rank order; values and ranks are aligned read-only
    float64 arrays.  Under a deterministic tie-break ranks are the integers
    1..n; under AVERAGE_RANK every tied entry carries the mean rank of its
    span.  tie_groups records (first_position, last_position) of each run of
    equal values (1-based, runs of length >= 2), in both modes.  A series
    equals only itself.
    """

    ids: tuple[str, ...]
    values: np.ndarray
    ranks: np.ndarray
    tie_groups: tuple[tuple[int, int], ...]
    __eq__, __hash__ = object.__eq__, object.__hash__

    def _check(self):
        self.values.setflags(write=False)
        self.ranks.setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.ids)


class RankPairs(NamedTuple):
    """Per-entity join of the ranks an entity holds under two criteria."""

    entries: tuple[tuple[str, float, float], ...]  # (entity_id, r_x, r_y), by entity id
    positions: tuple[np.ndarray, np.ndarray]  # of each entity in x, y; not compared

    def __eq__(self, other):
        return self.entries == other.entries if isinstance(other, RankPairs) else NotImplemented

    __ne__ = object.__ne__  # the negation of __eq__, not tuple's field by field test

    def __hash__(self):
        return hash(self.entries)

    @property
    def n(self) -> int:
        return len(self.entries)

    def rank_vectors(self) -> tuple[list[float], list[float]]:
        return ([rx for _, rx, _ in self.entries],
                [ry for _, _, ry in self.entries])


def rank_desc(values: dict[str, float],
              rule: TieBreak = TieBreak.LEXICAL_NAME,
              names: dict[str, str] | None = None) -> RankedSeries:
    """Rank entities by decreasing value.

    Ties are broken by display name then entity id (LEXICAL_NAME), by entity
    id (ENTITY_ID), or shared as the mean rank of the tied span (AVERAGE_RANK,
    which orders tied entries by id for reproducibility).
    """
    if not values:
        raise RankingError("cannot rank an empty map")
    require_finite(list(values.values()), RankingError, list(values))
    order = sorted(values)
    ordered = np.fromiter(map(values.__getitem__, order), float, len(order))
    if rule is TieBreak.LEXICAL_NAME:
        # stable sorts: by id, then by display name, then by decreasing value
        keys = list(map((names or {}).get, order, order))
        by_name = sorted(range(len(order)), key=keys.__getitem__)
        order, ordered = list(map(order.__getitem__, by_name)), ordered[by_name]
    by_value = np.argsort(-ordered, kind="stable")
    order, ordered = tuple(map(order.__getitem__, by_value.tolist())), ordered[by_value]
    # runs of equal values, as [start, end) positions in rank order
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], ordered.size]
    tied = ends - starts > 1
    tie_groups = tuple(zip((starts[tied] + 1).tolist(), ends[tied].tolist()))
    ranks = np.arange(1.0, ordered.size + 1)
    if rule is TieBreak.AVERAGE_RANK:
        ranks = np.repeat((starts + 1 + ends) / 2.0, ends - starts)
    return RankedSeries(order, ordered, ranks, tie_groups)


def pair_ranks(x: RankedSeries, y: RankedSeries) -> RankPairs:
    """Join two ranked series on entity id, keeping where each entry is in x and y."""
    position = dict(zip(y.ids, range(y.n)))
    diff = position.keys() ^ x.ids
    if diff:
        raise RankingError(f"entity sets differ in {id_sample(diff)}")
    ox = sorted(range(x.n), key=x.ids.__getitem__)
    ids = list(map(x.ids.__getitem__, ox))
    ox, oy = np.array(ox, dtype=np.intp), np.fromiter(map(position.__getitem__, ids), np.intp)
    return RankPairs(tuple(zip(ids, x.ranks[ox].tolist(), y.ranks[oy].tolist())), (ox, oy))


def rank_diff_series(pairs: RankPairs) -> tuple[list[float], SummaryStats, float]:
    """Per-entity rank difference r_y - r_x, its summary, and fraction(<= 0)."""
    from .stats import describe
    diffs = [ry - rx for _, rx, ry in pairs.entries]
    summary = describe(diffs)
    frac = sum(1 for d in diffs if d <= 0) / len(diffs)
    return diffs, summary, frac


def export_ranked_series(series: RankedSeries) -> str:
    """Delimited text `rank,entity_id,value` for plotting."""
    out = io.StringIO()
    out.write("rank,entity_id,value\n")
    for eid, value, rank in zip(series.ids, series.values.tolist(), series.ranks.tolist()):
        out.write(f"{format(rank, '.12g')},{eid},{format(value, '.12g')}\n")
    return out.getvalue()
