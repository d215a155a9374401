import math

import pytest

from ranklaw import rank
from ranklaw.errors import RankingError
from ranklaw.rank import TieBreak


def test_rank_desc_strict_ordering():
    s = rank.rank_desc({"a": 3.0, "b": 1.0, "c": 2.0})
    assert s.ranks() == {"a": 1.0, "c": 2.0, "b": 3.0}
    values = [v for _, v, _ in s.entries]
    assert values == sorted(values, reverse=True)


def test_rank_desc_empty_map():
    with pytest.raises(RankingError):
        rank.rank_desc({})


def test_tie_semantics():
    lex = rank.rank_desc({"a": 5.0, "b": 5.0}, rule=TieBreak.LEXICAL_NAME)
    assert lex.ranks() == {"a": 1.0, "b": 2.0}
    avg = rank.rank_desc({"a": 5.0, "b": 5.0}, rule=TieBreak.AVERAGE_RANK)
    assert avg.ranks() == {"a": 1.5, "b": 1.5}


def test_tie_break_by_name_then_id():
    names = {"x1": "Zed", "x2": "Ann"}
    s = rank.rank_desc({"x1": 5.0, "x2": 5.0}, names=names)
    assert s.ranks() == {"x2": 1.0, "x1": 2.0}


def test_tie_groups_recorded_in_deterministic_mode():
    s = rank.rank_desc({"a": 5.0, "b": 5.0, "c": 1.0})
    assert s.tie_groups == ((1, 2),)
    assert s.ranks()["c"] == 3.0


def test_monotone_transform_invariance():
    values = {"a": 3.0, "b": 1.5, "c": 2.7, "d": 0.1}
    base = rank.rank_desc(values)
    transformed = rank.rank_desc({k: math.exp(v) for k, v in values.items()})
    assert base.ranks() == transformed.ranks()


def test_pair_ranks_identity_and_reversal():
    x = rank.rank_desc({"a": 3.0, "b": 2.0, "c": 1.0})
    same = rank.pair_ranks(x, x)
    assert all(rx == ry for _, rx, ry in same.entries)

    y = rank.rank_desc({"a": 1.0, "b": 2.0, "c": 3.0})
    rev = rank.pair_ranks(x, y)
    assert {(rx, ry) for _, rx, ry in rev.entries} == {(1, 3), (2, 2), (3, 1)}


def test_pair_ranks_set_mismatch_lists_ids():
    x = rank.rank_desc({"a": 1.0, "b": 2.0})
    y = rank.rank_desc({"a": 1.0, "z": 2.0})
    with pytest.raises(RankingError, match="'b'.*'z'|'z'.*'b'"):
        rank.pair_ranks(x, y)


def test_pair_ranks_antisymmetric_under_swap():
    x = rank.rank_desc({"a": 5.0, "b": 1.0, "c": 3.0})
    y = rank.rank_desc({"a": 1.0, "b": 4.0, "c": 2.0})
    fwd = {eid: (rx, ry) for eid, rx, ry in rank.pair_ranks(x, y).entries}
    bwd = {eid: (rx, ry) for eid, rx, ry in rank.pair_ranks(y, x).entries}
    assert all(bwd[eid] == (ry, rx) for eid, (rx, ry) in fwd.items())


def test_rank_diff_identical_rankings():
    x = rank.rank_desc({"a": 3.0, "b": 2.0, "c": 1.0})
    diffs, summary, frac = rank.rank_diff_series(rank.pair_ranks(x, x))
    assert diffs == [0.0, 0.0, 0.0]
    assert frac == 1.0
    assert summary.mean == 0.0


def test_rank_diff_reversal():
    x = rank.rank_desc({"a": 3.0, "b": 2.0, "c": 1.0})
    y = rank.rank_desc({"a": 1.0, "b": 2.0, "c": 3.0})
    diffs, summary, frac = rank.rank_diff_series(rank.pair_ranks(x, y))
    assert sorted(diffs) == [-2.0, 0.0, 2.0]
    assert summary.skewness == pytest.approx(0.0, abs=1e-12)
    assert frac == pytest.approx(2 / 3)


def test_export_ranked_series():
    s = rank.rank_desc({"a": 3.0, "b": 1.0})
    text = rank.export_ranked_series(s)
    assert text.splitlines() == ["rank,entity_id,value", "1,a,3", "2,b,1"]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_rank_desc_rejects_non_finite_values(bad):
    with pytest.raises(RankingError, match="non-finite value .* for 'b'"):
        rank.rank_desc({"a": 1.0, "b": bad, "c": 3.0})
