import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ranklaw import rank
from ranklaw.errors import RankingError
from ranklaw.rank import TieBreak
from tests.conftest import ranked


def _ranks(series):
    return dict(zip(series.ids, series.ranks.tolist()))


def test_rank_desc_strict_ordering():
    s = ranked({"a": 3.0, "b": 1.0, "c": 2.0})
    assert _ranks(s) == {"a": 1.0, "c": 2.0, "b": 3.0}
    values = s.values.tolist()
    assert values == sorted(values, reverse=True)


def test_rank_desc_empty_map():
    with pytest.raises(RankingError):
        ranked({})


def test_tie_semantics():
    lex = ranked({"a": 5.0, "b": 5.0}, rule=TieBreak.LEXICAL_NAME)
    assert _ranks(lex) == {"a": 1.0, "b": 2.0}
    avg = ranked({"a": 5.0, "b": 5.0}, rule=TieBreak.AVERAGE_RANK)
    assert _ranks(avg) == {"a": 1.5, "b": 1.5}


def test_tie_break_by_name_then_id():
    names = {"x1": "Zed", "x2": "Ann"}
    s = ranked({"x1": 5.0, "x2": 5.0}, names=names)
    assert _ranks(s) == {"x2": 1.0, "x1": 2.0}


def test_tie_groups_recorded_in_deterministic_mode():
    s = ranked({"a": 5.0, "b": 5.0, "c": 1.0})
    assert s.tie_groups == ((1, 2),)
    assert _ranks(s)["c"] == 3.0


def test_monotone_transform_invariance():
    values = {"a": 3.0, "b": 1.5, "c": 2.7, "d": 0.1}
    base = ranked(values)
    transformed = ranked({k: math.exp(v) for k, v in values.items()})
    assert _ranks(base) == _ranks(transformed)


def test_pair_ranks_identity_and_reversal():
    x = ranked({"a": 3.0, "b": 2.0, "c": 1.0})
    same = rank.pair_ranks(x, x)
    assert all(rx == ry for _, rx, ry in same.entries)

    y = ranked({"a": 1.0, "b": 2.0, "c": 3.0})
    rev = rank.pair_ranks(x, y)
    assert {(rx, ry) for _, rx, ry in rev.entries} == {(1, 3), (2, 2), (3, 1)}


def test_pair_ranks_set_mismatch_lists_ids():
    x = ranked({"a": 1.0, "b": 2.0})
    y = ranked({"a": 1.0, "z": 2.0})
    with pytest.raises(RankingError, match="'b'.*'z'|'z'.*'b'"):
        rank.pair_ranks(x, y)


def test_pair_ranks_antisymmetric_under_swap():
    x = ranked({"a": 5.0, "b": 1.0, "c": 3.0})
    y = ranked({"a": 1.0, "b": 4.0, "c": 2.0})
    fwd = {eid: (rx, ry) for eid, rx, ry in rank.pair_ranks(x, y).entries}
    bwd = {eid: (rx, ry) for eid, rx, ry in rank.pair_ranks(y, x).entries}
    assert all(bwd[eid] == (ry, rx) for eid, (rx, ry) in fwd.items())


def test_rank_diff_identical_rankings():
    x = ranked({"a": 3.0, "b": 2.0, "c": 1.0})
    diffs, summary, frac = rank.rank_diff_series(rank.pair_ranks(x, x))
    assert diffs == [0.0, 0.0, 0.0]
    assert frac == 1.0
    assert summary.mean == 0.0


def test_rank_diff_reversal():
    x = ranked({"a": 3.0, "b": 2.0, "c": 1.0})
    y = ranked({"a": 1.0, "b": 2.0, "c": 3.0})
    diffs, summary, frac = rank.rank_diff_series(rank.pair_ranks(x, y))
    assert sorted(diffs) == [-2.0, 0.0, 2.0]
    assert summary.skewness == pytest.approx(0.0, abs=1e-12)
    assert frac == pytest.approx(2 / 3)


def test_export_ranked_series():
    s = ranked({"a": 3.0, "b": 1.0})
    text = rank.export_ranked_series(s)
    assert text.splitlines() == ["rank,entity_id,value", "1,a,3", "2,b,1"]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_rank_desc_rejects_non_finite_values(bad):
    with pytest.raises(RankingError, match="non-finite value .* for 'b'"):
        ranked({"a": 1.0, "b": bad, "c": 3.0})


def _tied_series(seed):
    """Values drawn from at most 5 integers for up to 200 entities in random
    order, with random ids and display names (some repeated, some absent).

    Ids may differ only by trailing NULs, which numpy's fixed-width strings
    ignore in comparisons, so a numpy sort of the ids would not match.
    """
    rng = random.Random(seed)
    levels = rng.sample(range(-3, 10), rng.randint(1, 5))
    n = rng.randint(1, rng.choice([8, 200]))  # short series have lone values too
    ids = set()
    while len(ids) < n:
        ids.add("".join(rng.choices("ab\x00Z", k=rng.randint(1, 6))))
    ids = sorted(ids)
    rng.shuffle(ids)
    values = {eid: float(rng.choice(levels)) for eid in ids}
    names = {eid: "".join(rng.choices("xY ", k=rng.randint(0, 2)))
             for eid in values if rng.random() < 0.8}
    return values, names


def _reference_ranking(values, rule, names):
    """(ids, values, ranks, tie groups) from the documented sort keys, with the
    runs of equal values found by a loop."""
    if rule is TieBreak.LEXICAL_NAME:
        order = sorted(values, key=lambda eid: (-values[eid], names.get(eid, eid), eid))
    else:
        order = sorted(values, key=lambda eid: (-values[eid], eid))
    ranks = [float(i) for i in range(1, len(order) + 1)]
    groups = []
    start = 0
    for i in range(1, len(order) + 1):
        if i == len(order) or values[order[i]] != values[order[start]]:
            if i - start > 1:
                groups.append((start + 1, i))
                if rule is TieBreak.AVERAGE_RANK:
                    ranks[start:i] = [(start + 1 + i) / 2] * (i - start)
            start = i
    return tuple(order), [values[eid] for eid in order], ranks, tuple(groups)


@pytest.mark.parametrize("rule", list(TieBreak))
def test_tie_rules_match_a_plain_python_reference(rule):
    for seed in range(50):
        values, names = _tied_series(seed)
        s = ranked(values, rule=rule, names=names)
        ids, ordered, ranks, groups = _reference_ranking(values, rule, names)
        assert s.ids == ids, seed
        assert s.values.tolist() == ordered, seed
        assert s.ranks.tolist() == ranks, seed
        assert s.tie_groups == groups, seed


def test_average_ranks_match_scipy():
    scipy_stats = pytest.importorskip("scipy.stats")
    for seed in range(50):
        values, _ = _tied_series(seed)
        s = ranked(values, rule=TieBreak.AVERAGE_RANK)
        expected = scipy_stats.rankdata(-np.array(list(values.values())), method="average")
        assert _ranks(s) == dict(zip(values, expected.tolist())), seed


def test_ranked_series_arrays_are_read_only():
    s = ranked({"a": 2.0, "b": 1.0})
    for array in (s.values, s.ranks):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


# ids that may differ only by trailing NULs; values with -0.0/0.0 ties
IDS = st.text(st.sampled_from("ab\x00"), min_size=1, max_size=4)
VALUES = st.sampled_from([-0.0, 0.0, 1.0, 2.5, -2.5, 1e308, 5e-324])


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(IDS, VALUES, min_size=1, max_size=30), st.data())
def test_rank_desc_equals_a_sort_by_its_keys(values, data):
    names = data.draw(st.dictionaries(st.sampled_from(sorted(values)),
                                      st.text(st.sampled_from("xY \x00"), max_size=2)))
    for rule in TieBreak:
        s = ranked(values, rule=rule, names=names)
        ids, ordered, ranks, groups = _reference_ranking(values, rule, names)
        assert (s.ids, s.ranks.tolist(), s.tie_groups) == (ids, ranks, groups)
        assert s.values.tobytes() == np.array(ordered).tobytes()  # the sign of a zero too


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(IDS, st.tuples(VALUES, VALUES), min_size=1, max_size=30),
       st.sampled_from(list(TieBreak)), st.sampled_from(list(TieBreak)))
def test_pair_ranks_joins_on_id_in_id_order(values, x_rule, y_rule):
    x = ranked({eid: v for eid, (v, _) in values.items()}, rule=x_rule)
    y = ranked({eid: v for eid, (_, v) in values.items()}, rule=y_rule)
    pairs = rank.pair_ranks(x, y)
    x_ranks, y_ranks = (dict(zip(s.ids, s.ranks.tolist())) for s in (x, y))
    assert pairs.entries == tuple((eid, x_ranks[eid], y_ranks[eid]) for eid in sorted(x_ranks))
    # Pearson pi reads the values in the same order: by id
    ox, oy = pairs.positions
    for s, order in ((x, ox), (y, oy)):
        by_id = [v for _, v in sorted(zip(s.ids, s.values.tolist()))]
        assert s.values[order].tobytes() == np.array(by_id).tobytes()
