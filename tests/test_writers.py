"""Each one-call writer, and the key/value writers of ranklaw.text, against its
per-row definition: one formatted line per row, on values that test the
formatting (NaN, -0.0, 1e16, 1e-5) and ids holding commas."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from ranklaw import rank, regime, text, urnsim

IDS = st.text("a,\"é ", min_size=1, max_size=4)
FLOATS = st.one_of(st.sampled_from([math.nan, -0.0, 0.0, 1e16, 1e-5, 2.5, math.inf]),
                   st.floats(allow_nan=False, allow_infinity=False))
FINITE = st.one_of(st.sampled_from([-0.0, 0.0, 1e16, 1e-5, 2.5]),
                   st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(IDS, FLOATS, FLOATS), max_size=10))
def test_export_ranked_series_writes_one_line_per_rank(rows):
    ids, values, ranks = zip(*rows) if rows else ((), (), ())
    series = rank.RankedSeries(ids, np.array(values, float), np.array(ranks, float), ())
    expected = "rank,entity_id,value\n" + "".join(
        f"{format(r, '.12g')},{eid},{format(v, '.12g')}\n" for eid, v, r in rows)
    assert rank.export_ranked_series(series) == expected


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(IDS, FINITE, FINITE), min_size=2, max_size=10,
                unique_by=lambda p: p[0]),
       st.lists(FLOATS, max_size=3), FLOATS, FLOATS, st.booleans(), st.data())
def test_export_split_writes_one_line_per_point(points, slopes, overall, objective,
                                                degenerate, data):
    ids = [p[0] for p in points]
    outliers = tuple(data.draw(st.sets(st.sampled_from(ids), max_size=2)))
    assigned = data.draw(st.sets(st.sampled_from(ids)))
    split = regime.RegimeSplit({eid: 1 + i % 2 for i, eid in enumerate(sorted(assigned))},
                               tuple(slopes), overall, outliers, objective, 0, degenerate)
    scatter = regime.ScatterSet.from_points(points)
    expected = "entity_id,x,y,class\n"
    for eid, x, y in points:
        cls = split.assignments.get(eid, "outlier" if eid in split.outliers else "")
        expected += f"{eid},{format(x, '.12g')},{format(y, '.12g')},{cls}\n"
    expected += ("# slopes: " + ",".join(format(s, ".12g") for s in slopes) + "\n"
                 f"# overall_slope: {format(overall, '.12g')}\n"
                 f"# objective: {format(objective, '.12g')}\n"
                 "# iterations: 0\n"
                 f"# degenerate: {str(degenerate).lower()}\n")
    assert regime.export_split(scatter, split) == expected


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.integers(0, 10 ** 20), FLOATS), max_size=10))
def test_export_outcome_writes_one_line_per_urn(occupancy):
    expected = "urn_id,occupancy\n" + "".join(f"{i},{k}\n" for i, k in enumerate(occupancy))
    assert urnsim.export_outcome(urnsim.UrnOutcome(tuple(occupancy))) == expected


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.lists(
    st.lists(st.sampled_from([math.nan, -0.0, 0.0, 1e16, 1e-5, 2.5, 3.0]),
             min_size=n, max_size=n), min_size=1, max_size=4)))
def test_export_replicate_summary_writes_one_line_per_position(rows):
    rows = np.array(rows)
    with np.errstate(invalid="ignore"):  # NaN rows
        text = urnsim.export_replicate_summary(rows)
        mean = rows.mean(axis=0)
        std = rows.std(axis=0, ddof=1) if rows.shape[0] > 1 else np.zeros(rows.shape[1])
    expected = "position,mean_occupancy,std_occupancy\n" + "".join(
        f"{i},{format(m, '.12g')},{format(s, '.12g')}\n"
        for i, (m, s) in enumerate(zip(mean, std), start=1))
    assert text == expected


VALUES = st.one_of(FLOATS, st.integers(), st.text(max_size=4), st.booleans())
KEYS = st.text("ab_ .#:", min_size=1, max_size=6)


def _value(v) -> str:
    """A value as every text report writes it."""
    if v is True or v is False:
        return "true" if v else "false"
    return format(v, ".12g") if isinstance(v, float) else str(v)


def test_fmt_writes_a_bool_in_lower_case_and_a_float_at_12_digits():
    assert (text.fmt(True), text.fmt(False)) == ("true", "false")
    assert [text.fmt(v) for v in (1, 1.0, -0.0, math.nan, -math.inf, 1e16, 1e-5, 10 ** 20)] \
        == ["1", "1", "-0", "nan", "-inf", "1e+16", "1e-05", "100000000000000000000"]


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(KEYS, VALUES, max_size=8), st.sampled_from(["", "# "]))
def test_key_lines_writes_one_line_per_pair(pairs, prefix):
    expected = "".join(f"{prefix}{key}: {_value(v)}\n" for key, v in pairs.items())
    assert text.key_lines(pairs, prefix) == expected
    if not prefix:
        assert text.key_lines(pairs) == expected


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(KEYS, VALUES, min_size=1, max_size=8), st.sampled_from(["", "[x]"]))
def test_format_table_pads_each_key_to_the_longest(pairs, label):
    width = max(len(key) for key in pairs)
    rows = [key + " " * (width - len(key)) + "  " + _value(v) for key, v in pairs.items()]
    assert text.format_table(pairs, label) == "\n".join([label] * bool(label) + rows) + "\n"
