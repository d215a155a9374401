"""Seeded paper-scale inputs for the benchmark.

Everything is drawn from one numpy Generator seeded with the benchmark seed,
so the same seed writes the same bytes.  The files follow the formats in the
README's "Input formats" section; ranklaw only ever sees these files.
"""

from __future__ import annotations

import string
from pathlib import Path

import numpy as np

N_ENTITIES = 8092
YEARS = tuple(range(2007, 2012))
CENSUS_YEARS = (2001, 2011)
N_REGIONS = 20
N_MERGES = 40

# lavalette3 shape y(r) = A m1 r^-m2 (N - r + 1)^m3 shared by the income
# panel and the ranking file
LAVALETTE = {"A": 1e8, "m1": 1.0, "m2": 0.75, "m3": 0.45}
INCOME_SIGMA = 0.25     # lognormal spread around the rank-size curve
YEAR_SIGMA = 0.04       # year-to-year lognormal wobble
RANKING_SIGMA = 0.1
# two per-capita income classes (euro per inhabitant) give the report's
# two-regime scatter
PER_CAPITA = ((0.65, 14000.0), (0.35, 9000.0))
PER_CAPITA_SIGMA = 0.15

FILES = ("income.csv", "merges.csv", "population.csv", "ranking.csv")


def lavalette3(r: np.ndarray, n: int) -> np.ndarray:
    p = LAVALETTE
    return p["A"] * p["m1"] * r ** -p["m2"] * (n - r + 1) ** p["m3"]


def _names(rng: np.random.Generator, count: int) -> list[str]:
    letters = np.array(list(string.ascii_lowercase))
    draws = rng.integers(0, 26, size=(count, 8))
    return ["".join(row).capitalize() for row in letters[draws]]


def generate(out_dir: Path, seed: int) -> None:
    """Write the four input files (FILES) into out_dir."""
    rng = np.random.default_rng(seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    n = N_ENTITIES
    ids = [f"c{i:05d}" for i in range(1, n + 1)]
    names = _names(rng, n)
    regions = rng.integers(1, N_REGIONS + 1, size=n)
    provinces = regions * 10 + rng.integers(0, 6, size=n)

    base = lavalette3(np.arange(1, n + 1, dtype=float), n)
    base = rng.permutation(base * np.exp(rng.normal(0.0, INCOME_SIGMA, n)))
    drift = np.exp(rng.normal(0.0, YEAR_SIGMA, (n, len(YEARS))))
    income = np.maximum(np.rint(base[:, None] * drift), 1).astype(np.int64)

    lines = ["# quantity_label: ATI", f"# provenance: perfbench seed {seed}",
             "entity_id,name,region,province,year,value"]
    for i, eid in enumerate(ids):
        head = f"{eid},{names[i]},R{regions[i]:02d},P{provinces[i]:03d}"
        lines.extend(f"{head},{y},{v}" for y, v in zip(YEARS, income[i]))
    (out_dir / "income.csv").write_text("\n".join(lines) + "\n")

    # merge ledger: components drawn without replacement, 2 or 3 per target
    sizes = rng.integers(2, 4, size=N_MERGES)
    picked = rng.choice(n, size=int(sizes.sum()), replace=False)
    groups = np.split(picked, np.cumsum(sizes)[:-1])
    target_names = _names(rng, N_MERGES)
    lines = ["target_id,target_name,component_ids,effective_year"]
    merged = np.zeros(n, dtype=bool)
    post_ids, post_names, post_income = [], [], []
    for k, group in enumerate(groups):
        comps = sorted(int(i) for i in group)
        merged[comps] = True
        tid = f"m{k + 1:03d}"
        lines.append(f"{tid},{target_names[k]},{';'.join(ids[i] for i in comps)},"
                     f"{int(rng.integers(2008, 2012))}")
        post_ids.append(tid)
        post_names.append(target_names[k])
        post_income.append(income[comps].sum(axis=0))
    (out_dir / "merges.csv").write_text("\n".join(lines) + "\n")

    survivors = np.flatnonzero(~merged)
    all_ids = [ids[i] for i in survivors] + post_ids
    all_names = [names[i] for i in survivors] + post_names
    heads = [int(g.min()) for g in groups]   # a merged entity takes its first component's place
    all_regions = np.concatenate([regions[survivors], regions[heads]])
    all_provinces = np.concatenate([provinces[survivors], provinces[heads]])
    avg = np.concatenate([income[survivors], np.array(post_income)]).mean(axis=1)
    share, level = zip(*PER_CAPITA)
    per_capita = np.array(level)[rng.choice(len(level), size=avg.size, p=share)]
    per_capita *= np.exp(rng.normal(0.0, PER_CAPITA_SIGMA, avg.size))
    pop_2011 = np.maximum(np.rint(avg / per_capita), 1).astype(np.int64)
    pop_2001 = np.maximum(
        np.rint(pop_2011 * np.exp(rng.normal(-0.03, 0.05, avg.size))), 1
    ).astype(np.int64)
    lines = ["# quantity_label: population",
             "entity_id,name,region,province," + ",".join(map(str, CENSUS_YEARS))]
    for row in zip(all_ids, all_names, all_regions, all_provinces, pop_2001, pop_2011):
        eid, name, reg, prov, a, b = row
        lines.append(f"{eid},{name},R{reg:02d},P{prov:03d},{a},{b}")
    (out_dir / "population.csv").write_text("\n".join(lines) + "\n")

    values = lavalette3(np.arange(1, n + 1, dtype=float), n)
    values = -np.sort(-values * np.exp(rng.normal(0.0, RANKING_SIGMA, n)))
    lines = ["rank,entity_id,value"]
    lines.extend(f"{r},r{r:05d},{format(v, '.12g')}" for r, v in enumerate(values, 1))
    (out_dir / "ranking.csv").write_text("\n".join(lines) + "\n")
