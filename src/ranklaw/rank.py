"""Rank assignment, rank pairing across two criteria, and rank differences."""

from __future__ import annotations

import enum
import io
from dataclasses import dataclass

from .errors import RankingError, id_sample, require_finite
from .stats import SummaryStats, describe


class TieBreak(enum.Enum):
    LEXICAL_NAME = "lexical"
    ENTITY_ID = "id"
    AVERAGE_RANK = "average"


@dataclass(frozen=True)
class RankedSeries:
    """Entities sorted by one criterion, rank 1 = largest value.

    Under a deterministic tie-break ranks are the integers 1..n; under
    AVERAGE_RANK every tied entry carries the mean rank of its span.
    tie_groups records (first_position, last_position) of each run of equal
    values (1-based, runs of length >= 2), in both modes.
    """

    entries: tuple[tuple[str, float, float], ...]  # (entity_id, value, rank)
    tie_groups: tuple[tuple[int, int], ...]

    @property
    def n(self) -> int:
        return len(self.entries)

    def ranks(self) -> dict[str, float]:
        return {eid: rank for eid, _, rank in self.entries}

    def values(self) -> dict[str, float]:
        return {eid: value for eid, value, _ in self.entries}


@dataclass(frozen=True)
class RankPairs:
    """Per-entity join of the ranks an entity holds under two criteria."""

    entries: tuple[tuple[str, float, float], ...]  # (entity_id, r_x, r_y)

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
    names = names or {}

    def sort_key(eid):
        if rule is TieBreak.LEXICAL_NAME:
            return (-values[eid], names.get(eid, eid), eid)
        return (-values[eid], eid)

    order = sorted(values, key=sort_key)
    n = len(order)

    tie_groups: list[tuple[int, int]] = []
    start = 0
    for i in range(1, n + 1):
        if i == n or values[order[i]] != values[order[start]]:
            if i - start > 1:
                tie_groups.append((start + 1, i))
            start = i

    ranks = [float(i) for i in range(1, n + 1)]
    if rule is TieBreak.AVERAGE_RANK:
        for lo, hi in tie_groups:
            mean_rank = (lo + hi) / 2.0
            for pos in range(lo - 1, hi):
                ranks[pos] = mean_rank

    entries = tuple(
        (eid, float(values[eid]), ranks[i]) for i, eid in enumerate(order)
    )
    return RankedSeries(entries, tuple(tie_groups))


def pair_ranks(x: RankedSeries, y: RankedSeries) -> RankPairs:
    """Join two ranked series on entity id."""
    x_ranks = x.ranks()
    y_ranks = y.ranks()
    if x_ranks.keys() != y_ranks.keys():
        diff = id_sample(x_ranks.keys() ^ y_ranks.keys())
        raise RankingError(f"entity sets differ in {diff}")
    entries = tuple(
        (eid, x_ranks[eid], y_ranks[eid]) for eid in sorted(x_ranks)
    )
    return RankPairs(entries)


def rank_diff_series(pairs: RankPairs) -> tuple[list[float], SummaryStats, float]:
    """Per-entity rank difference r_y - r_x, its summary, and fraction(<= 0)."""
    diffs = [ry - rx for _, rx, ry in pairs.entries]
    summary = describe(diffs)
    frac = sum(1 for d in diffs if d <= 0) / len(diffs)
    return diffs, summary, frac


def export_ranked_series(series: RankedSeries) -> str:
    """Delimited text `rank,entity_id,value` for plotting."""
    out = io.StringIO()
    out.write("rank,entity_id,value\n")
    for eid, value, rank in series.entries:
        rank_str = format(rank, ".12g")
        out.write(f"{rank_str},{eid},{format(value, '.12g')}\n")
    return out.getvalue()
