import math
import tracemalloc
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest

from ranklaw import fit, urnsim
from ranklaw.errors import SimulationError
from ranklaw.urnsim import UrnConfig


def test_beta_fn_values_and_symmetry(rng):
    assert urnsim.beta_fn(1.0, 1.0) == pytest.approx(1.0, rel=1e-12)
    assert urnsim.beta_fn(2.0, 3.0) == pytest.approx(1.0 / 12.0, rel=1e-12)
    for _ in range(20):
        x, y = rng.random(2) * 10 + 0.05
        assert urnsim.beta_fn(x, y) == pytest.approx(urnsim.beta_fn(y, x), rel=1e-12)
    with pytest.raises(SimulationError):
        urnsim.beta_fn(-1.0, 2.0)


def test_beta_fn_matches_scipy(rng):
    special = pytest.importorskip("scipy.special")
    for _ in range(500):
        x, y = rng.random(2) * 50 + 0.001
        # the relative error beta_fn documents while x + y <= 100
        assert urnsim.beta_fn(x, y) == pytest.approx(special.beta(x, y), rel=1e-12)


def _poly_incomplete_beta(a: int, b: int, eps: Fraction) -> Fraction:
    # binomial expansion of the integrand, integrated term by term
    total = Fraction(0)
    for j in range(b + 1):
        total += (Fraction(math.comb(b, j)) * (-1) ** j
                  * eps ** (a + j + 1) / (a + j + 1))
    return total


@pytest.mark.parametrize("a", [0, 1, 2, 3])
@pytest.mark.parametrize("b", [0, 1, 2, 3])
@pytest.mark.parametrize("eps", [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1)])
def test_incomplete_beta_polynomial_cases(a, b, eps):
    expected = float(_poly_incomplete_beta(a, b, eps))
    assert urnsim.incomplete_beta(a, b, float(eps)) == pytest.approx(
        expected, abs=1e-10
    )


def test_incomplete_beta_matches_scipy_for_non_integer_exponents(rng):
    special = pytest.importorskip("scipy.special")
    for _ in range(1000):
        a, b = rng.random(2) * 5
        eps = float(rng.random())
        expected = special.betainc(a + 1, b + 1, eps) * special.beta(a + 1, b + 1)
        # the absolute error incomplete_beta documents
        assert urnsim.incomplete_beta(a, b, eps) == pytest.approx(expected, abs=1e-10)


def test_incomplete_beta_half_interval_value():
    assert urnsim.incomplete_beta(1, 1, 0.5) == pytest.approx(1 / 8 - 1 / 24, abs=1e-12)


def test_incomplete_beta_complete_equals_beta_fn():
    for a, b in [(0.5, 1.5), (2.0, 3.0), (1.2, 0.3)]:
        assert urnsim.incomplete_beta(a, b, 1.0) == pytest.approx(
            urnsim.beta_fn(a + 1, b + 1), abs=1e-9
        )


def test_incomplete_beta_monotone_in_eps():
    values = [urnsim.incomplete_beta(1.7, 2.3, e) for e in np.linspace(0, 1, 21)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_incomplete_beta_argument_validation():
    with pytest.raises(SimulationError):
        urnsim.incomplete_beta(1.0, 1.0, 1.5)
    with pytest.raises(SimulationError):
        urnsim.incomplete_beta(-0.5, 1.0, 0.5)


def test_yule_simon_classic_special_case():
    # b * B(1, b+1) = b/(b+1), the no-offset single-seed value
    for b in [1.5, 2.0, 3.0]:
        assert b * urnsim.beta_fn(1.0, b + 1.0) == pytest.approx(b / (b + 1.0), rel=1e-12)


def test_yule_simon_pmf_normalizes_with_tail_bound():
    for b in [1.5, 2.0, 3.0]:
        k_max = 200000
        total = sum(urnsim.yule_simon_pmf(k, 0.5, b, k0=1) for k in range(1, k_max + 1))
        tail = urnsim.yule_simon_tail(k_max, 0.5, b, k0=1)
        assert total + tail == pytest.approx(1.0, abs=1e-6)
        assert tail < 0.01


def test_yule_simon_ratio_recurrence():
    a, b, k0 = 0.7, 2.4, 2
    for k in [2, 5, 17, 120]:
        ratio = (urnsim.yule_simon_pmf(k + 1, a, b, k0)
                 / urnsim.yule_simon_pmf(k, a, b, k0))
        assert ratio == pytest.approx((k + a) / (k + a + b), rel=1e-10)


def test_yule_simon_support_and_validation():
    assert urnsim.yule_simon_pmf(1, 0.0, 2.0, k0=2) == 0.0
    with pytest.raises(SimulationError):
        urnsim.yule_simon_pmf(3, 0.0, 1.0, k0=1)


def test_yule_simon_tail_slope_hyperbolic():
    ks = np.arange(100, 1001)
    for b in [1.5, 2.0, 3.0]:
        pmf = np.array([urnsim.yule_simon_pmf(int(k), 0.0, b, k0=1) for k in ks])
        slope = np.polyfit(np.log(ks), np.log(pmf), 1)[0]
        assert slope == pytest.approx(-b, rel=0.03)


def test_simulate_single_urn():
    outcome = urnsim.simulate_urns(UrnConfig(n_urns=1, total_balls=50))
    assert outcome.occupancy == (51,)


def test_simulate_conservation(rng):
    for _ in range(10):
        cfg = UrnConfig(n_urns=int(rng.integers(1, 30)),
                        total_balls=int(rng.integers(0, 2000)),
                        a=float(rng.random() * 3), k0=int(rng.integers(0, 3)) or 1,
                        seed=int(rng.integers(0, 10000)))
        outcome = urnsim.simulate_urns(cfg)
        assert outcome.total == cfg.n_urns * cfg.k0 + cfg.total_balls


def test_simulate_deterministic_for_seed():
    cfg = UrnConfig(n_urns=10, total_balls=500, seed=7)
    assert urnsim.simulate_urns(cfg) == urnsim.simulate_urns(cfg)


def test_simulate_uniform_attachment_limit():
    cfg = UrnConfig(n_urns=10, total_balls=10000, a=1e9, seed=3)
    occ = urnsim.simulate_urns(cfg).occupancy
    assert max(occ) / min(occ) < 1.2


def test_simulate_capacity_cap_respected():
    cfg = UrnConfig(n_urns=5, total_balls=15, k0=1, capacity=4, seed=1)
    occ = urnsim.simulate_urns(cfg).occupancy
    assert all(k <= 4 for k in occ)
    assert sum(occ) == 20


def test_simulate_capped_stream_pinned():
    # binding capacities take the event-time sampler; these draws are pinned
    cfg = UrnConfig(n_urns=8, total_balls=60, a=0.5, k0=2, capacity=12, seed=3)
    assert urnsim.simulate_urns(cfg).occupancy == (12, 12, 12, 12, 8, 8, 8, 4)


class _Fenwick:
    """Partial-sum tree over per-urn attachment weights (O(log n) per ball)."""

    def __init__(self, weights):
        self.n = len(weights)
        self.tree = [0.0] * (self.n + 1)
        for i, w in enumerate(weights):
            self.add(i, w)

    def add(self, i, delta):
        i += 1
        while i <= self.n:
            self.tree[i] += delta
            i += i & (-i)

    def total(self):
        s, i = 0.0, self.n
        while i > 0:
            s += self.tree[i]
            i -= i & (-i)
        return s

    def find(self, target):
        """Smallest index i with prefix(i+1) > target."""
        idx = 0
        bit = 1 << (self.n.bit_length())
        while bit:
            nxt = idx + bit
            if nxt <= self.n and self.tree[nxt] <= target:
                target -= self.tree[nxt]
                idx = nxt
            bit >>= 1
        return idx


def _sequential_urns(config: UrnConfig, rng: np.random.Generator) -> tuple[int, ...]:
    """Reference sampler: place the balls one at a time through a Fenwick tree."""
    cap = config.capacity
    k = [config.k0] * config.n_urns
    tree = _Fenwick([0.0 if config.k0 >= cap else config.k0 + config.a
                     for _ in range(config.n_urns)])
    for placed in range(config.total_balls):
        total = tree.total()
        if total <= 0:
            raise SimulationError(
                f"all urns at capacity after {placed} of {config.total_balls} balls")
        urn = tree.find(rng.random() * total)
        k[urn] += 1
        if k[urn] >= cap:
            tree.add(urn, -(k[urn] - 1 + config.a))  # retire the urn
        else:
            tree.add(urn, 1.0)
    return tuple(k)


def _exact_capped_law(n, balls, a, k0, cap) -> dict[tuple[int, ...], Fraction]:
    """Occupancy law after `balls` steps of the capped urn chain, in exact arithmetic."""
    law = {(k0,) * n: Fraction(1)}
    for _ in range(balls):
        step = defaultdict(Fraction)
        for state, p in law.items():
            total = sum(k + a for k in state if k < cap)
            for i, k in enumerate(state):
                if k < cap:
                    step[state[:i] + (k + 1,) + state[i + 1:]] += p * (k + a) / total
        law = step
    return law


def _chi2_z(draws: list[tuple[int, ...]], law: dict) -> float:
    """Standardized Pearson chi-squared of observed occupancies against `law`.

    Cells are pooled, rarest first, until each expects at least 5 of the
    len(draws) replicates, the usual condition for the chi-squared law to
    hold; the statistic is then standardized by its mean df and sd sqrt(2 df).
    """
    R = len(draws)
    observed = defaultdict(int)
    for occ in draws:
        assert occ in law, f"impossible occupancy {occ}"
        observed[occ] += 1
    cells, pending_e, pending_o = [], 0.0, 0
    for state in sorted(law, key=law.get):
        pending_e += R * float(law[state])
        pending_o += observed[state]
        if pending_e >= 5:
            cells.append((pending_o, pending_e))
            pending_e, pending_o = 0.0, 0
    if pending_e:
        o, e = cells.pop()
        cells.append((o + pending_o, e + pending_e))
    chi2 = sum((o - e) ** 2 / e for o, e in cells)
    df = len(cells) - 1
    return (chi2 - df) / math.sqrt(2 * df)


@pytest.mark.parametrize("n_urns,balls,a,k0,cap", [
    (3, 6, Fraction(1, 2), 1, 4), (4, 7, Fraction(1), 0, 3), (3, 5, Fraction(-1, 2), 1, 4),
])
def test_capped_samplers_match_exact_law(n_urns, balls, a, k0, cap):
    # 10 000 replicates per sampler; |z| < 5 is five standard deviations of
    # the chi-squared statistic under the exact law
    law = _exact_capped_law(n_urns, balls, a, k0, cap)
    assert sum(law.values()) == 1
    cfg = UrnConfig(n_urns=n_urns, total_balls=balls, a=float(a), k0=k0, capacity=cap)
    rng = np.random.default_rng(2026)
    R = 10_000
    event_time = [urnsim.simulate_urns(cfg, rng).occupancy for _ in range(R)]
    sequential = [_sequential_urns(cfg, rng) for _ in range(R)]
    assert abs(_chi2_z(event_time, law)) < 5
    assert abs(_chi2_z(sequential, law)) < 5


def test_loose_capacity_at_scale_stays_small():
    # a capacity that barely binds would need n * (cap - k0) = 8e8 birth
    # times (6.5 GB) if drawn in full; the blocked draw holds O(n + balls)
    # of them, and the bound allows 64 float64 per urn and per ball
    cfg = UrnConfig(n_urns=8092, total_balls=100_000, capacity=99_999, seed=6)
    tracemalloc.start()
    try:
        outcome = urnsim.simulate_urns(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert outcome.total == cfg.n_urns * cfg.k0 + cfg.total_balls
    assert len(outcome.occupancy) == cfg.n_urns
    assert peak < 64 * 8 * (cfg.n_urns + cfg.total_balls)


@pytest.mark.parametrize("k0,balls", [(1, 15), (0, 40), (3, 0)])
def test_simulate_nonbinding_capacity_equals_uncapped(k0, balls):
    base = UrnConfig(n_urns=6, total_balls=balls, a=0.5, k0=k0, seed=4)
    uncapped = urnsim.simulate_urns(base).occupancy
    for cap in (k0 + balls, k0 + balls + 1, 10**9):
        capped = UrnConfig(n_urns=6, total_balls=balls, a=0.5, k0=k0,
                           capacity=cap, seed=4)
        assert urnsim.simulate_urns(capped).occupancy == uncapped


def _assert_dirmult_moments(added: np.ndarray, cfg: UrnConfig):
    """One urn's added count against the exact Dirichlet-multinomial moments.

    Tolerances are 5 standard errors for len(added) replicates: the exact
    standard deviation for the mean, and the sample fourth central moment
    for the variance.
    """
    T, alpha = cfg.total_balls, cfg.k0 + cfg.a
    A = cfg.n_urns * alpha
    p = alpha / A
    mean, var = T * p, T * p * (1 - p) * (T + A) / (1 + A)
    R = added.size
    assert abs(added.mean() - mean) < 5 * math.sqrt(var / R)
    s2 = added.var(ddof=1)
    m4 = ((added - added.mean()) ** 4).mean()
    assert abs(s2 - var) < 5 * math.sqrt((m4 - s2 ** 2) / R)


@pytest.mark.parametrize("n_urns,balls,a,k0", [
    (20, 2000, 1.0, 1), (5, 500, -0.7, 1), (10, 300, 0.5, 0),
])
def test_uncapped_urn_count_has_dirmult_moments(n_urns, balls, a, k0):
    cfg = UrnConfig(n_urns=n_urns, total_balls=balls, a=a, k0=k0)
    rng = np.random.default_rng(2024)
    added = np.array([urnsim.simulate_urns(cfg, rng).occupancy[0] - k0
                      for _ in range(4000)], dtype=float)
    _assert_dirmult_moments(added, cfg)


def test_sequential_sampler_has_dirmult_moments():
    # a capacity of k0 + balls - 1 forces the event-time sampler; with
    # alpha = 0.5 over 10 urns no urn comes near it, so the law is uncapped
    cfg = UrnConfig(n_urns=10, total_balls=300, a=0.5, k0=0, capacity=299)
    rng = np.random.default_rng(2025)
    added = np.array([urnsim.simulate_urns(cfg, rng).occupancy[0]
                      for _ in range(600)], dtype=float)
    _assert_dirmult_moments(added, cfg)


def test_simulate_capacity_equals_k0_errors_immediately():
    cfg = UrnConfig(n_urns=3, total_balls=1, k0=2, capacity=2)
    with pytest.raises(SimulationError, match="after 0 of 1"):
        urnsim.simulate_urns(cfg)


def test_simulate_capacity_exhaustion_reports_progress():
    cfg = UrnConfig(n_urns=2, total_balls=100, k0=1, capacity=3, seed=5)
    with pytest.raises(SimulationError, match="after 4 of 100"):
        urnsim.simulate_urns(cfg)


def test_simulate_invalid_configs():
    with pytest.raises(SimulationError):
        UrnConfig(n_urns=0, total_balls=1)
    with pytest.raises(SimulationError):
        UrnConfig(n_urns=1, total_balls=1, k0=1, a=-1.0)
    with pytest.raises(SimulationError):
        UrnConfig(n_urns=1, total_balls=1, k0=2, capacity=1)
    for a in (math.nan, math.inf, -math.inf, 1e308):
        with pytest.raises(SimulationError, match="must be finite"):
            UrnConfig(n_urns=3, total_balls=5, a=a)


def test_preferential_profile_is_convex_decreasing():
    rows = urnsim.replicate_occupancies(
        UrnConfig(n_urns=20, total_balls=8092, a=1.0, k0=1, seed=11), 100
    )
    mean = rows.mean(axis=0)
    assert all(b <= a for a, b in zip(mean, mean[1:]))
    drops = -np.diff(mean)
    # head drops dominate tail drops (convex-decreasing shape)
    assert drops[:5].mean() > drops[-5:].mean()


def test_generate_ranksize_exact_curve():
    model = fit.RankSizeModel(fit.ModelKind.LAVALETTE3, 1e3, 15, (1.0, 0.6, 0.2))
    series = urnsim.generate_ranksize(model)
    r = np.arange(1, 16, dtype=float)
    expected = np.sort(fit.model_eval(model, r))[::-1]
    assert np.allclose(series.values, expected, rtol=1e-12)


def test_generate_ranksize_symmetric_form():
    model = fit.RankSizeModel(fit.ModelKind.LAVALETTE3, 1.0, 12, (1.0, 0.3, 0.3))
    series = urnsim.generate_ranksize(model)
    values = series.values.tolist()
    pairs = list(zip(values, values[::-1]))
    # reflection-symmetric generator: values come in equal head/tail pairs
    log_values = np.log(np.sort(values))
    assert np.allclose(np.diff(log_values[:6]), np.diff(log_values[:6]))


def test_export_outcome_format():
    outcome = urnsim.simulate_urns(UrnConfig(n_urns=2, total_balls=3, seed=0))
    text = urnsim.export_outcome(outcome)
    assert text.splitlines()[0] == "urn_id,occupancy"
    assert len(text.splitlines()) == 3


def test_replicate_summary_format():
    rows = urnsim.replicate_occupancies(UrnConfig(n_urns=4, total_balls=50), 5)
    text = urnsim.export_replicate_summary(rows)
    assert text.splitlines()[0] == "position,mean_occupancy,std_occupancy"
    assert len(text.splitlines()) == 5
