"""Rank assignment, rank pairing across two criteria, and rank differences."""

from __future__ import annotations

import enum
from itertools import chain
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
    span.  tie_groups is a read-only (runs, 2) integer array of the
    (first_position, last_position) of each run of equal values (1-based, runs
    of length >= 2), in both modes.  A series equals only itself.
    """

    ids: tuple[str, ...]
    values: np.ndarray
    ranks: np.ndarray
    tie_groups: np.ndarray
    __eq__, __hash__ = object.__eq__, object.__hash__

    @property
    def n(self) -> int:
        return len(self.ids)


@checked
class RankPairs(NamedTuple):
    """The ranks each entity holds under two criteria, joined on entity id.

    ids is a tuple in id order, rx and ry the aligned read-only float64 arrays
    of each entity's rank in x and in y, and positions where each entity is in
    x and in y.  Pairs compare and hash by their (entity_id, r_x, r_y) entries,
    not by positions; from_entries builds pairs from such tuples."""

    ids: tuple[str, ...]
    rx: np.ndarray
    ry: np.ndarray
    positions: tuple[np.ndarray, np.ndarray]

    @classmethod
    def from_entries(cls, entries, positions) -> RankPairs:
        ids, rx, ry = tuple(zip(*entries)) or ((), (), ())
        return cls(ids, np.array(rx, float), np.array(ry, float), positions)

    @property
    def entries(self) -> tuple[tuple[str, float, float], ...]:
        return tuple(zip(self.ids, self.rx.tolist(), self.ry.tolist()))

    def __eq__(self, other):
        return self.entries == other.entries if isinstance(other, RankPairs) else NotImplemented

    def __hash__(self):
        return hash(self.entries)


def rank_desc(ids, values, rule: TieBreak = TieBreak.LEXICAL_NAME, names=None) -> RankedSeries:
    """Rank entities by decreasing value.

    ids is a tuple of distinct entity ids, values and names (display names, or
    None) are aligned with it.  Ties are broken by display name then entity id
    (LEXICAL_NAME), by entity id (ENTITY_ID), or shared as the mean rank of the
    tied span (AVERAGE_RANK, which orders tied entries by id for reproducibility).
    """
    column = np.asarray(values, dtype=float)
    if not ids:
        raise RankingError("cannot rank an empty map")
    require_finite(column, RankingError, ids)
    order = np.argsort(-column, kind="stable")
    ordered = column[order]
    # runs of equal values, as [start, end) positions in rank order
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], ordered.size]
    tied = ends - starts > 1
    if tied.any():
        # sort the tied entries by key from input order, in which ids often come sorted
        members = np.sort(order[np.repeat(tied, ends - starts)]).tolist()
        members.sort(key=ids.__getitem__)
        if rule is TieBreak.LEXICAL_NAME and names is not None:
            members.sort(key=names.__getitem__)
        key = np.zeros(len(ids), dtype=np.intp)
        key[members] = np.arange(1, len(members) + 1)
        order = np.lexsort((key, -column))
        ordered = column[order]
    tie_groups = np.column_stack((starts[tied] + 1, ends[tied]))
    ranks = np.arange(1.0, ordered.size + 1)
    if rule is TieBreak.AVERAGE_RANK:
        ranks = np.repeat((starts + 1 + ends) / 2.0, ends - starts)
    return RankedSeries(tuple(map(ids.__getitem__, order.tolist())), ordered, ranks, tie_groups)


def positions_of(ids, among) -> list[int]:
    """The position in `among` of each of `ids`, which must hold the same entities."""
    position = dict(zip(among, range(len(among))))
    found = list(map(position.get, ids))
    if len(position) != len(found) or None in found:
        raise RankingError(f"entity sets differ in {id_sample(position.keys() ^ set(ids))}")
    return found


def pair_ranks(x: RankedSeries, y: RankedSeries) -> RankPairs:
    """Join two ranked series on entity id, keeping where each entry is in x and y."""
    ox = sorted(range(x.n), key=x.ids.__getitem__)
    ids = tuple(map(x.ids.__getitem__, ox))
    oy = positions_of(ids, y.ids)
    return RankPairs(ids, x.ranks[ox], y.ranks[oy], (np.array(ox), np.array(oy)))


def rank_diff_series(pairs: RankPairs) -> tuple[list[float], SummaryStats, float]:
    """Per-entity rank difference r_y - r_x, its summary, and fraction(<= 0)."""
    from .stats import describe
    diffs = pairs.ry - pairs.rx
    return diffs.tolist(), describe(diffs), np.count_nonzero(diffs <= 0) / diffs.size


def export_ranked_series(series: RankedSeries) -> str:
    """Delimited text `rank,entity_id,value` for plotting."""
    return "rank,entity_id,value\n" + "%.12g,%s,%.12g\n" * series.n % tuple(chain.from_iterable(
        zip(series.ranks.tolist(), series.ids, series.values.tolist())))
