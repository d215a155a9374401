"""Preferential-attachment urn process and the special functions behind it.

Urns receive balls with probability proportional to their occupancy plus a
constant offset; in the long-time limit occupancy follows a Yule-Simon
distribution with a hyperbolic tail.  A hard per-urn capacity reproduces the
high-rank collapse that motivates the doubly decreasing rank-size form.

Both cases are sampled exactly without placing balls one by one: without a
binding capacity the added counts are one Dirichlet-multinomial draw; with
one, each urn is an independent capped birth process and the occupancy is
read off the earliest birth times over all urns (see simulate_urns).

The random stream is numpy's PCG64 (default_rng); replicate substreams are
spawned from SeedSequence(seed) so runs reproduce across platforms.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import NamedTuple

import numpy as np

from .errors import SimulationError, checked

def beta_fn(x: float, y: float) -> float:
    """Euler Beta function Gamma(x)Gamma(y)/Gamma(x+y), computed in log space
    to a relative error below 1e-12 while x + y <= 100."""
    if x <= 0 or y <= 0:
        raise SimulationError("beta_fn needs positive arguments")
    return math.exp(math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y))


_TOL = 1e-10  # absolute error of incomplete_beta
# halvings of [0, eps]: at most _MAX_DEPTH, and at least _MIN_DEPTH before the
# error test may stop, so two coarse estimates that agree by chance cannot end it
_MIN_DEPTH, _MAX_DEPTH = 6, 60


def _adaptive_simpson(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    if depth >= _MAX_DEPTH or (depth >= _MIN_DEPTH and abs(left + right - whole) <= 15.0 * tol):
        return left + right + (left + right - whole) / 15.0
    return (_adaptive_simpson(f, a, m, fa, flm, fm, left, tol / 2.0, depth + 1)
            + _adaptive_simpson(f, m, b, fm, frm, fb, right, tol / 2.0, depth + 1))


def incomplete_beta(a: float, b: float, eps: float) -> float:
    """Lower incomplete integral of x^a (1-x)^b over [0, eps], to an absolute
    error of 1e-10 by adaptive Simpson.

    Note the exponents are (a, b) directly, not the conventional shifted
    (a-1, b-1); at eps = 1 this equals beta_fn(a + 1, b + 1).
    """
    if a < 0 or b < 0:
        raise SimulationError("incomplete_beta needs a, b >= 0")
    if not 0.0 <= eps <= 1.0:
        raise SimulationError(f"eps must be in [0, 1]; got {eps}")
    if eps == 0.0:
        return 0.0

    def f(x):
        return x ** a * (1.0 - x) ** b

    lo, hi = 0.0, eps
    fa, fb = f(lo), f(hi)
    m = 0.5 * (lo + hi)
    fm = f(m)
    whole = (hi - lo) / 6.0 * (fa + 4.0 * fm + fb)
    return _adaptive_simpson(f, lo, hi, fa, fm, fb, whole, _TOL, depth=0)


def yule_simon_pmf(k: int, a: float, b: float, k0: int = 1) -> float:
    """Occupancy pmf P(k) = B(k + a, b) / B(k0 + a, b - 1) on support k >= k0.

    Normalizes exactly over k = k0, k0+1, ... (telescoping Beta identity);
    the tail decays hyperbolically as k^-b.  Needs b > 1 and k0 + a > 0.
    """
    if b <= 1:
        raise SimulationError("yule_simon_pmf needs b > 1 for normalizability")
    if k0 + a <= 0:
        raise SimulationError("yule_simon_pmf needs k0 + a > 0")
    if k < k0:
        return 0.0
    return beta_fn(k + a, b) / beta_fn(k0 + a, b - 1.0)


def yule_simon_tail(k_max: int, a: float, b: float, k0: int = 1) -> float:
    """Exact remaining mass above k_max: sum_{k > k_max} P(k)."""
    if k_max < k0:
        return 1.0
    return beta_fn(k_max + 1 + a, b - 1.0) / beta_fn(k0 + a, b - 1.0)


@checked
class UrnConfig(NamedTuple):
    n_urns: int
    total_balls: int
    a: float = 1.0             # attachment offset, weight is k + a
    k0: int = 1                # initial balls per urn
    capacity: int | None = None
    seed: int = 0

    def _check(self):
        if self.n_urns < 1 or self.total_balls < 0:
            raise SimulationError("n_urns >= 1 and total_balls >= 0 required")
        if not math.isfinite(self.n_urns * (self.k0 + self.a)):
            raise SimulationError("total attachment weight n_urns * (k0 + a) "
                                  f"must be finite; got a = {self.a}")
        if self.k0 < 0:
            raise SimulationError("k0 must be >= 0")
        if self.k0 + self.a <= 0:
            raise SimulationError("initial attachment weight k0 + a must be positive")
        if self.capacity is not None and self.capacity < self.k0:
            raise SimulationError("capacity must be >= k0")


class UrnOutcome(NamedTuple):
    occupancy: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.occupancy)


def simulate_urns(config: UrnConfig,
                  rng: np.random.Generator | None = None) -> UrnOutcome:
    """Run one preferential-attachment filling sequence.

    Each ball lands in urn i with probability (k_i + a) / sum_j (k_j + a);
    urns at capacity leave the choice set.  Deterministic for a fixed seed.

    When no urn can reach the capacity this is a Polya urn, whose added
    counts are exactly Dirichlet-multinomial(total_balls, k0 + a) (Johnson &
    Kotz 1977; Blackwell & MacQueen 1973), so they are drawn in one step.

    A binding capacity retires urns and breaks exchangeability.  That case
    runs every urn as an independent linear birth process of rate k + a that
    stops at the capacity (Athreya & Karlin 1968): by memorylessness the
    order of births across urns is exactly the urn process, so the
    occupancy counts each urn's share of the total_balls earliest births.
    Births are drawn in blocks, only for urns whose last drawn birth is
    still earlier than the total_balls-th earliest time drawn so far, so
    memory stays O(n_urns + total_balls) however loose the capacity.
    """
    if rng is None:
        rng = np.random.default_rng(config.seed)
    n, T, k0, cap = config.n_urns, config.total_balls, config.k0, config.capacity
    if cap is None or cap >= k0 + T:
        alpha = np.full(n, k0 + config.a)
        added = rng.multinomial(T, rng.dirichlet(alpha))
        return UrnOutcome(tuple((k0 + added).tolist()))
    room = cap - k0                  # births each urn can take
    if T > n * room:
        raise SimulationError(f"all urns at capacity after {n * room} of {T} balls")
    urns = np.arange(n)              # urns whose next birth may still count
    frontier = np.zeros(n)           # their last drawn birth time
    times, owner = np.empty(0), np.empty(0, dtype=np.intp)
    drawn, width, t_star = 0, -(-T // n), np.inf   # first width: mean births per urn
    while urns.size:
        # an urn once dropped never returns, so every urn left has drawn
        # `drawn` births and the next block's rates are shared
        w = min(width, room - drawn)
        rates = k0 + config.a + np.arange(drawn, drawn + w)
        block = frontier[:, None] + np.cumsum(
            rng.standard_exponential((urns.size, w)) / rates, axis=1)
        times = np.concatenate((times, block.ravel()))
        owner = np.concatenate((owner, np.repeat(urns, w)))
        if times.size >= T:
            # t_star only falls as births are added, so later times never count
            t_star = np.partition(times, T - 1)[T - 1]
            keep = times <= t_star
            times, owner = times[keep], owner[keep]
        drawn, width = drawn + w, 2 * width
        live = (block[:, -1] < t_star) & (drawn < room)
        urns, frontier = urns[live], block[live, -1]
    first = np.argpartition(times, T - 1)[:T]
    added = np.bincount(owner[first], minlength=n)
    return UrnOutcome(tuple((k0 + added).tolist()))


def replicate_occupancies(config: UrnConfig, replicates: int) -> np.ndarray:
    """Sorted-descending occupancy per replicate, one row each.

    Replicate r uses the r-th child stream of SeedSequence(config.seed).
    """
    streams = np.random.SeedSequence(config.seed).spawn(replicates)
    rows = np.empty((replicates, config.n_urns), dtype=np.int64)
    for i, ss in enumerate(streams):
        outcome = simulate_urns(config, rng=np.random.default_rng(ss))
        rows[i] = np.sort(outcome.occupancy)[::-1]
    return rows


def generate_ranksize(model: RankSizeModel, noise_sigma: float = 0.0,
                      seed: int = 0) -> RankedSeries:
    """Synthetic ranked series from a rank-size model.

    Evaluates the model at every rank, applies multiplicative lognormal noise
    of the given sigma, then re-sorts descending and re-ranks.
    """
    from .fit import model_eval
    from .rank import TieBreak, rank_desc
    r = np.arange(1, model.N + 1, dtype=float)
    y = model_eval(model, r)
    if noise_sigma > 0:
        rng = np.random.default_rng(seed)
        y = y * np.exp(rng.normal(0.0, noise_sigma, size=model.N))
    return rank_desc(tuple(f"r{ri:06d}" for ri in range(1, model.N + 1)), y, TieBreak.ENTITY_ID)


def export_outcome(outcome: UrnOutcome) -> str:
    """Delimited text `urn_id,occupancy`."""
    return "urn_id,occupancy\n" + "%d,%s\n" * len(outcome.occupancy) % tuple(
        chain.from_iterable(enumerate(outcome.occupancy)))


def export_replicate_summary(rows: np.ndarray) -> str:
    """Mean and std occupancy per sorted position across replicates."""
    mean = rows.mean(axis=0)
    std = rows.std(axis=0, ddof=1) if rows.shape[0] > 1 else np.zeros(rows.shape[1])
    return "position,mean_occupancy,std_occupancy\n" + "%d,%.12g,%.12g\n" * mean.size % tuple(
        chain.from_iterable(zip(range(1, mean.size + 1), mean.tolist(), std.tolist())))
