"""End-to-end acceptance checks.

Each test covers one numbered criterion and records a single pass/fail line,
echoed in the terminal summary after the run.
"""

import math
import os
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from ranklaw import corr, fit, ingest, rank, regime, stats, urnsim
from ranklaw.errors import RegimeError
from ranklaw.fit import ModelKind, RankSizeModel
from ranklaw.urnsim import UrnConfig

from tests import conftest
from tests.conftest import REGION_COUNTS_2011, ranked


def _emit(line: str) -> None:
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)


@contextmanager
def criterion(num: int, desc: str):
    try:
        yield
    except pytest.skip.Exception:
        _emit(f"criterion {num:2d}: SKIP  {desc}")
        raise
    except BaseException:
        _emit(f"criterion {num:2d}: FAIL  {desc}")
        raise
    _emit(f"criterion {num:2d}: PASS  {desc}")


def test_criterion_01_kendall_oracle_and_speed():
    with criterion(1, "fast pair counts match brute force; n=8092 under 50 ms"):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            n = int(rng.integers(2, 201))
            x, y = rng.permutation(n), rng.permutation(n)
            assert corr.kendall_counts_xy(x, y) == corr.kendall_counts_brute(x, y)
        for _ in range(50):
            n = int(rng.integers(2, 80))
            x = rng.integers(0, 5, n)
            y = rng.integers(0, 5, n)
            assert corr.kendall_counts_xy(x, y) == corr.kendall_counts_brute(x, y)

        x, y = rng.permutation(8092), rng.permutation(8092)
        best = min(
            _timed(lambda: corr.kendall_counts_xy(x, y)) for _ in range(3)
        )
        assert best < 0.050, f"n=8092 counting took {best * 1e3:.1f} ms"


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_criterion_02_region_tau():
    with criterion(2, "tau from p=169, q=21 matches 0.779 within 5e-4"):
        tau_a, _ = corr.kendall_tau(corr.PairCounts(169, 21, 0, 0, 0))
        assert tau_a == pytest.approx(0.779, abs=5e-4)


def test_criterion_03_z_formula():
    with criterion(3, "sigma_tau and Z at N=8092 match the published values"):
        sigma, z = corr.z_score(0.9747, 8092)
        assert sigma == pytest.approx(0.00741, abs=1e-5)
        assert z == pytest.approx(131.49, abs=0.05)
        _, z2 = corr.z_score(0.849, 8092)
        assert z2 == pytest.approx(114.5, abs=0.5)


def test_criterion_04_descriptive_formulas():
    with criterion(4, "nonparametric skew, mu/sigma and std err formulas"):
        mu, median, sigma = 8.9204e7, 2.4601e7, 6.7115e8
        assert stats.nonparametric_skew(mu, median, sigma) == pytest.approx(
            0.2889, abs=1e-3
        )
        assert mu / sigma == pytest.approx(0.1329, abs=1e-4)
        assert stats.standard_error(sigma, 8092) == pytest.approx(7.461e6, abs=1e3)


def test_criterion_05_reference_fit(region_count_series):
    # the source tables do not state the fitting scale; the log-scale optimum
    # for these 20 counts is (0.367, 0.521, 0.435), well outside the band, so
    # the reference values correspond to a linear-scale least-squares fit
    with criterion(5, "3-parameter fit on the 20 published region counts "
                      "(linear scale) within 10% of (0.847, 0.68, 0.209)"):
        result = fit.fit_model(region_count_series, A=1e3, scale="linear")
        m1, m2, m3 = result.model.params
        assert m1 == pytest.approx(0.847, rel=0.10)
        assert m2 == pytest.approx(0.68, rel=0.10)
        assert m3 == pytest.approx(0.209, rel=0.10)
        assert result.r_squared >= 0.94


def test_criterion_06_fit_round_trip():
    with criterion(6, "noise-free round trip 1e-3; 1% noise 5% in >=18/20; "
                      "Jacobian vs finite differences 1e-5"):
        for n in (20, 8092):
            truth = RankSizeModel(ModelKind.LAVALETTE3, 1e3, n, (0.847, 0.68, 0.209))
            series = urnsim.generate_ranksize(truth)
            result = fit.fit_model(series, A=1e3)
            for got, want in zip(result.model.params, truth.params):
                assert got == pytest.approx(want, rel=1e-3)

        truth = RankSizeModel(ModelKind.LAVALETTE3, 1e3, 200, (0.9, 0.7, 0.2))
        hits = 0
        for seed in range(20):
            series = urnsim.generate_ranksize(truth, noise_sigma=0.01, seed=seed)
            result = fit.fit_model(series, A=1e3)
            if all(abs(g - w) / w <= 0.05
                   for g, w in zip(result.model.params, truth.params)):
                hits += 1
        assert hits >= 18, f"only {hits}/20 noisy replicates recovered"

        r = np.array([1.0, 7.0, 25.0, 44.0, 50.0])
        for m1 in (0.5, 1.0, 2.0):
            for m2 in (0.3, 0.7, 1.2):
                for m3 in (0.05, 0.2, 0.9):
                    model = RankSizeModel(ModelKind.LAVALETTE3, 10.0, 50,
                                          (m1, m2, m3))
                    analytic = fit.model_jacobian(model, r)
                    numeric = _jacobian_fd(model, r)
                    assert np.allclose(analytic, numeric, rtol=1e-5)


def _jacobian_fd(model, r, rel_step=1e-6):
    base = np.array(model.params)
    cols = []
    for i in range(len(base)):
        h = rel_step * abs(base[i]) if base[i] != 0 else rel_step
        up = RankSizeModel(model.kind, model.A, model.N,
                           tuple(base + h * np.eye(len(base))[i]))
        dn = RankSizeModel(model.kind, model.A, model.N,
                           tuple(base - h * np.eye(len(base))[i]))
        cols.append((fit.model_eval(up, r) - fit.model_eval(dn, r)) / (2 * h))
    return np.column_stack(cols)


def test_criterion_07_spearman_pearson_bridge():
    with criterion(7, "Spearman equals Pearson on rank vectors to 1e-12 "
                      "on 200 tie-free instances"):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(3, 80))
            entries = tuple(
                (f"e{i}", float(a), float(b))
                for i, (a, b) in enumerate(
                    zip(rng.permutation(n) + 1, rng.permutation(n) + 1)
                )
            )
            pairs = rank.RankPairs.from_entries(entries, (np.arange(n),) * 2)
            rx, ry = pairs.rx, pairs.ry
            assert corr.spearman_rho(pairs) == pytest.approx(
                corr.pearson_pi(rx, ry), abs=1e-12
            )


def test_criterion_08_special_functions():
    with criterion(8, "incomplete beta polynomial cases 1e-10; beta "
                      "identities 1e-12; occupancy pmf sums to 1"):
        for a in range(4):
            for b in range(4):
                for eps in (Fraction(0), Fraction(1, 4), Fraction(1, 2),
                            Fraction(1)):
                    expected = sum(
                        Fraction(math.comb(b, j)) * (-1) ** j
                        * eps ** (a + j + 1) / (a + j + 1)
                        for j in range(b + 1)
                    )
                    got = urnsim.incomplete_beta(a, b, float(eps))
                    assert got == pytest.approx(float(expected), abs=1e-10)

        assert urnsim.beta_fn(1.0, 1.0) == pytest.approx(1.0, rel=1e-12)
        assert urnsim.beta_fn(2.0, 3.0) == pytest.approx(1 / 12, rel=1e-12)
        assert urnsim.beta_fn(4.0, 5.0) == pytest.approx(
            math.factorial(3) * math.factorial(4) / math.factorial(8), rel=1e-12
        )
        rng = np.random.default_rng(8)
        for _ in range(20):
            x, y = rng.random(2) * 8 + 0.1
            assert urnsim.beta_fn(x, y) == pytest.approx(
                urnsim.beta_fn(y, x), rel=1e-12
            )

        for b in (1.5, 2.0, 3.0):
            k_max = 200000
            total = sum(
                urnsim.yule_simon_pmf(k, 0.5, b, k0=1)
                for k in range(1, k_max + 1)
            )
            tail = urnsim.yule_simon_tail(k_max, 0.5, b, k0=1)
            assert total + tail == pytest.approx(1.0, abs=1e-6)


def test_criterion_09_urn_simulator():
    with criterion(9, "urn conservation; uniform limit; preferential "
                      "profiles fit R^2 >= 0.9; replicate under 100 ms"):
        rng = np.random.default_rng(9)
        for _ in range(10):
            cfg = UrnConfig(n_urns=int(rng.integers(1, 40)),
                            total_balls=int(rng.integers(0, 3000)),
                            seed=int(rng.integers(0, 1000)))
            assert urnsim.simulate_urns(cfg).total == cfg.n_urns + cfg.total_balls

        uniform = UrnConfig(n_urns=10, total_balls=10_000, a=1e9, seed=2)
        occ = urnsim.simulate_urns(uniform).occupancy
        assert max(occ) / min(occ) < 1.2

        pref = UrnConfig(n_urns=20, total_balls=10_000, a=1.0, k0=1, seed=3)
        elapsed = _timed(lambda: urnsim.simulate_urns(pref))
        assert elapsed < 0.100, f"one replicate took {elapsed * 1e3:.1f} ms"

        rows = urnsim.replicate_occupancies(pref, 100)
        r2s = []
        for row in rows:
            values = {f"u{i:03d}": float(v) for i, v in enumerate(row)}
            series = ranked(values, rule=rank.TieBreak.ENTITY_ID)
            r2s.append(fit.fit_model(series).r_squared)
        assert float(np.mean(r2s)) >= 0.9


def test_criterion_10_two_line_split():
    with criterion(10, "exact split recovery; monotone objective; "
                       "collinear input flagged"):
        xs = [1.0, 2.0, 3.0, 4.0, 5.0] * 2
        ys = [4 * x for x in xs[:5]] + [x for x in xs[5:]]
        points = regime.ScatterSet.from_points(
            tuple((f"p{i}", x, y) for i, (x, y) in enumerate(zip(xs, ys)))
        )
        split = regime.two_line_split(points)
        assert abs(split.slopes[0] - 4.0) < 1e-9
        assert abs(split.slopes[1] - 1.0) < 1e-9
        assert [split.assignments[f"p{i}"] for i in range(10)] == [1] * 5 + [2] * 5

        rng = np.random.default_rng(10)
        defined = 0
        for _ in range(100):
            n = int(rng.integers(8, 60))
            x = rng.random(n) + 0.1
            y = x * rng.choice([1.0, 5.0], size=n) + rng.normal(0, 0.3, n)
            pts = regime.ScatterSet.from_points(
                tuple((f"q{i}", float(a), float(b))
                      for i, (a, b) in enumerate(zip(x, y)))
            )
            # the objective does not grow with the number of lines: one, two, then three
            two = regime.two_line_split(pts)
            one = float(np.sum(regime._orthogonal_sq_dist(x, y, two.overall_slope)))
            assert two.objective <= one * (1 + 1e-9)
            try:
                three = regime.two_line_split(pts, k=3)
            except RegimeError as exc:  # the 3-line split needs directions within a right angle
                assert "within a right angle" in str(exc)
                continue
            defined += 1
            assert three.objective <= two.objective * (1 + 1e-9)
        assert defined > 0

        line = regime.ScatterSet.from_points(
            tuple((f"c{i}", float(i + 1), 2.0 * (i + 1)) for i in range(8))
        )
        assert regime.two_line_split(line).degenerate


DATA_DIR_VAR = "RANKLAW_DATA_DIR"
DATA_FILES = ("ati_panel.csv", "population_panel.csv", "expected_values.csv")


def test_criterion_11_full_dataset_integration():
    with criterion(11, "full-dataset correlation report against expected "
                       "values (needs user-supplied data)"):
        root = os.environ.get(DATA_DIR_VAR)
        if not root:
            pytest.skip(
                f"full-dataset files not provided; set {DATA_DIR_VAR} to a "
                f"directory containing {', '.join(DATA_FILES)} "
                "(see README for the column layout) to enable this check"
            )
        root = Path(root)
        missing = [f for f in DATA_FILES if not (root / f).exists()]
        if missing:
            pytest.skip(f"{DATA_DIR_VAR} is set but missing: {', '.join(missing)}")

        ati = ingest.parse_panel((root / "ati_panel.csv").read_text())
        merges = root / "merges.csv"
        if merges.exists():
            ledger = ingest.parse_merge_ledger(merges.read_text())
            ati = ingest.apply_merge_ledger(ati, ledger)
        pop = ingest.parse_panel((root / "population_panel.csv").read_text())

        averages = dict(zip(ati.ids, ingest.average_over_years(ati, list(ati.years)).tolist()))
        names = {rec.entity_id: rec.name for rec in ati.records}
        x = ranked(averages, names=names)
        pop_values = pop.values_for_year(pop.years[-1])
        y = ranked(pop_values, names=names)
        pairs = rank.pair_ranks(x, y)
        ids = [eid for eid, _, _ in pairs.entries]
        report = corr.correlation_report(
            pairs, [averages[i] for i in ids], [pop_values[i] for i in ids]
        )
        got = {"p": report.p, "q": report.q, "tau": report.tau_a,
               "rho": report.rho, "pi": report.pi}

        expected = {}
        for line in (root / "expected_values.csv").read_text().splitlines():
            if not line.strip() or line.startswith("#"):
                continue
            key, _, value = line.partition(",")
            expected[key.strip()] = float(value)

        for key in ("p", "q"):
            if key in expected:
                assert got[key] == int(expected[key]), key
        for key in ("tau", "rho", "pi"):
            if key in expected:
                assert got[key] == pytest.approx(expected[key], abs=5e-3), key
