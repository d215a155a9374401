import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ranklaw import corr, ingest, rank
from ranklaw.errors import CorrelationError, IngestError
from tests.conftest import ranked


def _pairs_from_perms(px, py):
    entries = tuple((f"e{i}", float(a), float(b)) for i, (a, b) in enumerate(zip(px, py)))
    return rank.RankPairs.from_entries(entries, (np.arange(len(entries)),) * 2)


def test_counts_identical_rankings():
    pairs = _pairs_from_perms([1, 2, 3, 4], [1, 2, 3, 4])
    counts = corr.kendall_counts_xy(pairs.rx, pairs.ry)
    assert (counts.p, counts.q) == (6, 0)


def test_counts_reversed_rankings():
    pairs = _pairs_from_perms([1, 2, 3, 4], [4, 3, 2, 1])
    counts = corr.kendall_counts_xy(pairs.rx, pairs.ry)
    assert (counts.p, counts.q) == (0, 6)


def test_counts_hand_enumerated():
    # pairs (1,2),(2,1),(3,3): one discordant, two concordant
    counts = corr.kendall_counts_xy(*_pairs_from_perms([1, 2, 3], [2, 1, 3])[1:3])
    assert (counts.p, counts.q) == (2, 1)


def test_fast_equals_brute_on_random_permutations(rng):
    for _ in range(300):
        n = int(rng.integers(2, 120))
        x = rng.permutation(n)
        y = rng.permutation(n)
        assert corr.kendall_counts_xy(x, y) == corr.kendall_counts_brute(x, y)


def test_fast_equals_brute_with_ties(rng):
    for _ in range(100):
        n = int(rng.integers(2, 80))
        x = rng.integers(0, 6, n)
        y = rng.integers(0, 6, n)
        assert corr.kendall_counts_xy(x, y) == corr.kendall_counts_brute(x, y)


def test_tie_free_pairs_partition():
    rng = np.random.default_rng(9)
    for _ in range(20):
        n = int(rng.integers(3, 100))
        c = corr.kendall_counts_xy(rng.permutation(n), rng.permutation(n))
        assert c.p + c.q == n * (n - 1) // 2
        assert c.ties_x == c.ties_y == c.ties_both == 0


def test_tau_from_published_region_counts():
    tau_a, _ = corr.kendall_tau(corr.PairCounts(169, 21, 0, 0, 0))
    assert tau_a == pytest.approx(148 / 190)
    assert tau_a == pytest.approx(0.779, abs=5e-4)


def test_tau_balance_and_degenerate():
    tau_a, tau_b = corr.kendall_tau(corr.PairCounts(5, 5, 0, 0, 0))
    assert tau_a == 0.0
    with pytest.raises(CorrelationError):
        corr.kendall_tau(corr.PairCounts(0, 0, 3, 0, 0))


def test_tau_b_tie_correction():
    x = [1, 1, 2, 3]
    y = [1, 2, 2, 3]
    c = corr.kendall_counts_xy(x, y)
    n0 = 6
    n1 = c.ties_x + c.ties_both
    n2 = c.ties_y + c.ties_both
    _, tau_b = corr.kendall_tau(c)
    assert tau_b == pytest.approx((c.p - c.q) / math.sqrt((n0 - n1) * (n0 - n2)))


def test_city_count_sigma_and_z():
    sigma, z = corr.z_score(0.9747, 8092)
    assert sigma == pytest.approx(0.00741, abs=1e-5)
    assert z == pytest.approx(131.49, abs=0.05)
    _, z0 = corr.z_score(0.0, 8092)
    assert z0 == 0.0
    with pytest.raises(CorrelationError):
        corr.z_score(0.5, 2)


def test_z_monotone_in_n():
    zs = [corr.z_score(0.5, n)[1] for n in (10, 100, 1000, 10000)]
    assert zs == sorted(zs)


def test_spearman_limits():
    pairs = _pairs_from_perms([1, 2, 3], [1, 2, 3])
    assert corr.spearman_rho(pairs) == pytest.approx(1.0)
    pairs = _pairs_from_perms([1, 2, 3], [3, 2, 1])
    assert corr.spearman_rho(pairs) == pytest.approx(-1.0)


def test_pearson_exact_relations():
    x = [1.0, 2.0, 3.0, 4.0]
    assert corr.pearson_pi(x, [2 * v + 1 for v in x]) == pytest.approx(1.0)
    assert corr.pearson_pi(x, [-v for v in x]) == pytest.approx(-1.0)
    assert corr.pearson_pi([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5)
    with pytest.raises(CorrelationError):
        corr.pearson_pi([1, 1, 1], [1, 2, 3])


def _clipped_exponent(values, exponent):
    """exponent, clipped so that 2^exponent times every nonzero value stays normal."""
    exps = [math.frexp(v)[1] for v in values if v != 0.0]
    return min(max(exponent, -1021 - min(exps)), 1024 - max(exps))


_finite = st.floats(-1e6, 1e6, allow_subnormal=False)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_finite, _finite), min_size=2, max_size=40),
       st.integers(-600, 600), st.integers(-600, 600))
def test_pearson_is_unmoved_by_powers_of_two(xy, j, k):
    x, y = (np.array(v) for v in zip(*xy))
    assume(np.ptp(x) > 0 and np.ptp(y) > 0)
    j, k = _clipped_exponent(x, j), _clipped_exponent(y, k)
    assert corr.pearson_pi(np.ldexp(x, j), np.ldexp(y, k)) == corr.pearson_pi(x, y)


def test_spearman_equals_pearson_on_ranks(rng):
    for _ in range(50):
        n = int(rng.integers(2, 60))
        pairs = _pairs_from_perms(rng.permutation(n) + 1, rng.permutation(n) + 1)
        rx, ry = pairs.rx, pairs.ry
        assert corr.spearman_rho(pairs) == pytest.approx(
            corr.pearson_pi(rx, ry), abs=1e-12
        )


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(1, 10 ** 6), min_size=3, max_size=40, unique=True),
       st.randoms(use_true_random=False))
def test_tau_invariant_under_monotone_transform(values, rnd):
    y = list(values)
    rnd.shuffle(y)
    x = list(values)
    c1 = corr.kendall_counts_xy(x, y)
    c2 = corr.kendall_counts_xy([math.log(v) for v in x], [v ** 3 for v in y])
    assert c1 == c2


def test_correlation_report_fields():
    pairs = _pairs_from_perms([1, 2, 3, 4], [1, 2, 4, 3])
    report = corr.correlation_report(pairs, pairs.rx, pairs.ry)
    assert report.n == 4
    assert report.p + report.q == 6
    assert -1 <= report.tau_a <= 1
    assert report.z == pytest.approx(report.tau_a / report.sigma_tau)
    assert report.pi == pytest.approx(report.rho)


def _panel_from_columns(columns: dict[int, list[float]]) -> ingest.Panel:
    years = sorted(columns)
    n = len(next(iter(columns.values())))
    rows = ["entity_id,name,region,province," + ",".join(map(str, years))]
    for i in range(n):
        vals = ",".join(format(columns[y][i], ".12g") for y in years)
        rows.append(f"e{i:03d},E{i},R1,P1,{vals}")
    return ingest.parse_panel("\n".join(rows) + "\n")


def test_pairwise_matrix_identical_columns():
    panel = _panel_from_columns({2007: [3.0, 2.0, 1.0], 2008: [3.0, 2.0, 1.0]})
    m = corr.pairwise_matrix(panel)
    c = m.counts[("2007", "2008")]
    assert c.q == 0
    assert m.tau[("2007", "2008")] == pytest.approx(1.0)


def test_pairwise_matrix_cells_match_oracle(rng):
    columns = {y: list(rng.random(50)) for y in (2007, 2008, 2009)}
    panel = _panel_from_columns(columns)
    # a copy with the entities in another order: Kendall counts sum over
    # unordered pairs, so permuting the rows of every column alike changes no cell
    rows = rng.permutation(len(panel.ids)).tolist()
    labels = (panel.ids, panel.names, panel.regions, panel.provinces)
    shuffled = ingest.Panel(panel.quantity_label, panel.years,
                            *(tuple(map(column.__getitem__, rows)) for column in labels),
                            panel.values[rows])
    assert shuffled.ids != panel.ids
    for panel in (panel, shuffled):
        m = corr.pairwise_matrix(panel)
        order = sorted(range(len(panel.ids)), key=panel.ids.__getitem__)
        columns = {str(year): panel.values[order, j] for j, year in enumerate(panel.years)}
        average = ingest.average_over_years(panel, list(panel.years))
        columns[corr.AVERAGE_LABEL] = average[order]
        for (a, b), cell in m.counts.items():
            xa, xb = columns[a], columns[b]
            assert cell == corr.kendall_counts_brute(xa, xb)
            # swapping columns swaps nothing for p/q: concordance is symmetric
            assert corr.kendall_counts_brute(xb, xa).p == cell.p
            assert corr.kendall_counts_brute(xb, xa).q == cell.q


def test_pairwise_matrix_includes_window_average():
    panel = _panel_from_columns({2007: [1.0, 2.0, 3.0], 2008: [3.0, 4.0, 5.0]})
    m = corr.pairwise_matrix(panel)
    assert m.labels == ("2007", "2008", corr.AVERAGE_LABEL)
    assert (("2007", corr.AVERAGE_LABEL)) in m.counts


def test_pairwise_matrix_rejects_missing():
    panel = ingest.parse_panel(
        "entity_id,name,region,province,2007,2008\na,A,R1,P1,1,\nb,B,R1,P1,2,3\n"
    )
    with pytest.raises(IngestError) as exc:
        corr.pairwise_matrix(panel)
    assert str(exc.value) == "missing value for 'a' in year 2008"


def test_matrix_formatting_layout():
    panel = _panel_from_columns({2007: [3.0, 2.0, 1.0], 2008: [2.0, 3.0, 1.0]})
    m = corr.pairwise_matrix(panel)
    pq = corr.format_pq_matrix(m).splitlines()
    assert pq[0] == ",2007,2008,avg"
    row_2007 = pq[1].split(",")
    row_2008 = pq[2].split(",")
    assert row_2007[1] == "-"
    assert row_2007[2] == str(m.counts[("2007", "2008")].p)
    assert row_2008[1] == str(m.counts[("2007", "2008")].q)
    tz = corr.format_tau_z_matrix(m).splitlines()
    assert tz[1].split(",")[1] == "-"


@pytest.mark.parametrize("x, y", [
    ([1.0, math.nan, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0]),
    ([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, math.inf, 4.0]),
])
def test_correlations_reject_non_finite_values(x, y):
    with pytest.raises(CorrelationError, match="non-finite value"):
        corr.kendall_counts_xy(x, y)
    with pytest.raises(CorrelationError, match="non-finite value"):
        corr.pearson_pi(x, y)


def _tied_series_reports(rng):
    """(x, y, report) for 100 series pairs with many ties, ranked under AVERAGE_RANK."""
    for _ in range(100):
        n = int(rng.integers(10, 2000))
        x = rng.integers(0, 2 + n // 10, n).astype(float)
        y = x + rng.integers(0, 4, n)
        xv = {f"e{i}": v for i, v in enumerate(x.tolist())}
        yv = {f"e{i}": v for i, v in enumerate(y.tolist())}
        pairs = rank.pair_ranks(ranked(xv, rule=rank.TieBreak.AVERAGE_RANK),
                                ranked(yv, rule=rank.TieBreak.AVERAGE_RANK))
        ids = [eid for eid, _, _ in pairs.entries]
        yield x, y, corr.correlation_report(pairs, [xv[i] for i in ids], [yv[i] for i in ids])


# both bounds are the tolerance CorrelationReport documents for n up to 10^4
def test_tau_b_matches_scipy_on_tied_series(rng):
    scipy_stats = pytest.importorskip("scipy.stats")
    for x, y, report in _tied_series_reports(rng):
        assert report.tau_b == pytest.approx(scipy_stats.kendalltau(x, y).statistic, abs=1e-12)


def test_rho_matches_scipy_on_tied_series(rng):
    scipy_stats = pytest.importorskip("scipy.stats")
    for x, y, report in _tied_series_reports(rng):
        assert report.rho == pytest.approx(scipy_stats.spearmanr(x, y).statistic, abs=1e-12)


# sizes around the inversion count's 32-element blocks and its doubling levels;
# each series takes values from `levels` distinct numbers, 1 for all tied
@st.composite
def _tied_pairs_of_series(draw):
    n = draw(st.sampled_from([0, 1, 2, 31, 32, 33, 63, 65, 200]))
    x, y = (draw(st.sampled_from([1, 2, 3, max(n, 1)])
                 .flatmap(lambda k: st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
            for _ in range(2))
    return np.array(x, dtype=float), np.array(y, dtype=float)


@settings(max_examples=300, deadline=None)
@given(_tied_pairs_of_series())
def test_counts_equal_brute_force_on_tied_series(series):
    x, y = series
    assert corr.kendall_counts_xy(x, y) == corr.kendall_counts_brute(x, y)


@pytest.mark.parametrize("n", [32, 33, 64, 65, 200])
def test_counts_of_a_reversed_series(n):
    # every pair discordant: each doubling level counts its whole cross product
    x = np.arange(n, dtype=float)
    assert corr.kendall_counts_xy(x, x[::-1]) == corr.PairCounts(0, n * (n - 1) // 2, 0, 0, 0)


def test_tau_b_matches_scipy_at_city_count(rng):
    scipy_stats = pytest.importorskip("scipy.stats")
    x = rng.integers(0, 3000, 8092).astype(float)
    y = x + rng.integers(0, 500, 8092)
    tau_b = corr.kendall_tau(corr.kendall_counts_xy(x, y))[1]
    assert tau_b == pytest.approx(scipy_stats.kendalltau(x, y).statistic, abs=1e-12)


# lengths around the 16-element blocks and the first doubling levels, and any
# other up to 300; codes repeat whenever fewer distinct ones than the length are drawn
@st.composite
def _codes_with_repeats(draw):
    n = draw(st.sampled_from([0, 1, 15, 16, 17, 31, 32, 33, 64, 65, 257, 300])
             | st.integers(0, 300))
    distinct = draw(st.integers(1, max(n, 1)))
    return np.array(draw(st.lists(st.integers(0, distinct - 1), min_size=n, max_size=n)),
                    dtype=np.int64)


def _brute_inversions(codes):
    """The pairs i < j with codes[i] > codes[j], from the whole n x n compare."""
    return int(np.count_nonzero(np.triu(codes[:, None] > codes[None, :], 1)))


@settings(max_examples=300, deadline=None)
@given(_codes_with_repeats())
def test_inversions_equal_a_brute_force_count(codes):
    assert corr._inversions(codes) == _brute_inversions(codes)


# lengths around the blocks, the level that first sorts stably and 3 000 (eight levels)
@pytest.mark.parametrize("n", [15, 16, 17, 511, 512, 513, 1023, 1024, 1025, 3000])
@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_inversions_at_every_level_equal_a_brute_force_count(monkeypatch, rng, n, dtype):
    monkeypatch.setattr(corr, "_key_dtype", lambda n: dtype)
    for distinct in (2, 7, n // 3, n):
        codes = rng.integers(0, distinct, n)
        assert corr._inversions(codes) == _brute_inversions(codes)
    assert corr._inversions(np.arange(n)[::-1]) == n * (n - 1) // 2
    assert corr._inversions(np.full(n, n // 2)) == 0


def test_the_key_dtype_holds_every_key():
    assert corr._key_dtype(2 ** 30 - 1) is np.int32  # largest key 2^31 - 1
    assert corr._key_dtype(2 ** 30) is np.int64


def test_pairwise_matrix_equals_brute_force_on_tied_columns(rng):
    for _ in range(100):
        n, years = int(rng.integers(3, 12)), int(rng.integers(2, 5))
        # each column takes at most two to five distinct values, so most cells tie
        values = rng.integers(0, rng.integers(2, 6, size=years), size=(n, years)).astype(float)
        panel = ingest.Panel("q", tuple(range(2007, 2007 + years)),
                             tuple(f"e{i}" for i in range(n)), ("N",) * n, ("R",) * n,
                             ("P",) * n, values)
        columns = {str(year): panel.column(year) for year in panel.years}
        columns[corr.AVERAGE_LABEL] = ingest.average_over_years(panel)
        brute = {(a, b): corr.kendall_counts_brute(columns[a], columns[b])
                 for i, a in enumerate(columns) for b in list(columns)[i + 1:]}
        if any(c.p + c.q == 0 for c in brute.values()):
            with pytest.raises(CorrelationError, match="all pairs tied"):
                corr.pairwise_matrix(panel)
            continue
        m = corr.pairwise_matrix(panel)
        assert m.counts == brute
        for pair, counts in brute.items():
            tau = corr.kendall_tau(counts)[0]
            assert (m.tau[pair], m.z[pair]) == (tau, corr.z_score(tau, n)[1])


def _pearson(a, b):
    """Pearson's r written out over Python floats."""
    ma, mb = sum(a) / len(a), sum(b) / len(b)
    sab = sum((u - ma) * (v - mb) for u, v in zip(a, b))
    saa, sbb = sum((u - ma) ** 2 for u in a), sum((v - mb) ** 2 for v in b)
    if saa == 0 or sbb == 0:
        raise CorrelationError("zero variance series")
    return sab / math.sqrt(saa * sbb)


def _defined_rank(values, names, rule, eid):
    """An entity's rank by its definition: entities above it, plus its share of its tie."""
    v = values[eid]
    above = sum(w > v for w in values.values())
    tied = sorted(f for f, w in values.items() if w == v)
    if rule is rank.TieBreak.AVERAGE_RANK:
        return above + (len(tied) + 1) / 2
    if rule is rank.TieBreak.LEXICAL_NAME:
        tied.sort(key=lambda f: names.get(f, f))  # stable: by id within a name
    return float(above + tied.index(eid) + 1)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.text("ab\x00", min_size=1, max_size=3),
                       st.tuples(*[st.sampled_from([-0.0, 0.0, 1.0, 2.5, 7.0])] * 2),
                       min_size=1, max_size=20),
       st.dictionaries(st.text("ab\x00", min_size=1, max_size=3), st.text("xy", max_size=2)),
       st.sampled_from(list(rank.TieBreak)))
def test_array_records_equal_their_per_entity_definitions(values, names, rule):
    xv, yv = ({eid: pair[k] for eid, pair in values.items()} for k in (0, 1))
    ids = sorted(values)
    rx = [_defined_rank(xv, names, rule, eid) for eid in ids]
    ry = [_defined_rank(yv, names, rule, eid) for eid in ids]
    # the ranks do not depend on the order the entities come in
    order = ids[::-1]
    y = rank.rank_desc(tuple(order), [yv[e] for e in order], rule,
                       names=[names.get(e, e) for e in order])
    pairs = rank.pair_ranks(ranked(xv, rule=rule, names=names), y)
    assert pairs.entries == tuple(zip(ids, rx, ry))
    assert pairs == rank.RankPairs.from_entries(zip(ids, rx, ry), pairs.positions)

    brute = corr.kendall_counts_brute(rx, ry)
    raw_x, raw_y = [xv[e] for e in ids], [yv[e] for e in ids]
    try:
        expected = (brute.p, brute.q, brute.ties_x + brute.ties_both,
                    brute.ties_y + brute.ties_both, _pearson(rx, ry), _pearson(raw_x, raw_y))
        if brute.p + brute.q == 0 or len(ids) < 3:
            raise CorrelationError("tau or Z undefined")
    except CorrelationError:
        with pytest.raises(CorrelationError):
            corr.correlation_report(pairs, raw_x, raw_y)
        return
    report = corr.correlation_report(pairs, raw_x, raw_y)
    assert (report.p, report.q, report.ties_x, report.ties_y) == expected[:4]
    assert report.rho == corr.spearman_rho(pairs) == pytest.approx(expected[4], abs=1e-12)
    assert report.pi == pytest.approx(expected[5], abs=1e-12)
