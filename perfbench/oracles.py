"""Output checks against oracles that share no code with ranklaw.

Each check reads the generated inputs and one command's output directory and
returns a list of problems; an empty list means the output is correct.  The
oracles recompute every checked number from the input files with plain numpy:
Kendall counts from blockwise sign products, log-scale fits from lstsq,
goodness of fit from the written table, urn and panel totals from sums.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

# a fit that ran but did not converge is a failed operation, not a wrong output
NOT_CONVERGED = "fit reports converged: false"

REL_TOL = 1e-9          # numbers printed at 12 significant digits
FIT_PARAM_TOL = 1e-6    # LM stops at a 1e-8 relative step; lstsq is exact
TABLE_TOL = 1e-7        # R^2 and chi^2 recomputed from 12-digit table cells
SIGN_BLOCK = 512
PARAM_NAMES = {"lavalette3": ("m1", "m2", "m3"), "powerlaw": ("c", "beta"),
               "cutoff": ("h", "alpha", "lambda")}


def _close(a: float, b: float, rel: float) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=rel)


def _data_rows(path: Path) -> list[list[str]]:
    lines = [l for l in path.read_text().splitlines() if l.strip() and not l.startswith("#")]
    return list(csv.reader(lines))


def _key_values(text: str, sep: str = ":") -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        if sep in line:
            key, value = line.split(sep, 1)
            out[key.strip()] = value.strip()
    return out


def sign_counts(x, y) -> tuple[int, int]:
    """(p, q) from sign(x_j - x_i) * sign(y_j - y_i) over all pairs i < j."""
    xr = np.unique(np.asarray(x), return_inverse=True)[1].astype(np.int32)
    yr = np.unique(np.asarray(y), return_inverse=True)[1].astype(np.int32)
    n = xr.size
    diff = nonzero = 0
    for i0 in range(0, n, SIGN_BLOCK):
        i1 = min(i0 + SIGN_BLOCK, n)
        prod = np.triu(np.sign(xr[i0:i1, None] - xr[None, i0:])
                       * np.sign(yr[i0:i1, None] - yr[None, i0:]), k=1)
        diff += int(prod.sum(dtype=np.int64))
        nonzero += int(np.count_nonzero(prod))
    return (nonzero + diff) // 2, (nonzero - diff) // 2


def tie_pairs(x, y) -> int:
    """Pairs tied in x or in y, from value multiplicities."""
    def pairs(counts):
        return int(np.sum(counts * (counts - 1) // 2))
    x, y = np.asarray(x), np.asarray(y)
    both = np.unique(np.column_stack((x, y)), axis=0, return_counts=True)[1]
    return (pairs(np.unique(x, return_counts=True)[1])
            + pairs(np.unique(y, return_counts=True)[1]) - pairs(both))


def z_closed_form(tau: float, n: int) -> float:
    return tau / math.sqrt(2.0 * (2 * n + 5) / (9.0 * n * (n - 1)))


def _check_kendall(label: str, x, y, p: int, q: int, tau: float, z: float) -> list[str]:
    n = len(x)
    problems = []
    p_ref, q_ref = sign_counts(x, y)
    if (p, q) != (p_ref, q_ref):
        problems.append(f"{label}: p, q = {p}, {q}; sign products give {p_ref}, {q_ref}")
    if p + q + tie_pairs(x, y) != n * (n - 1) // 2:
        problems.append(f"{label}: p + q + ties != n(n-1)/2")
    tau_ref = (p_ref - q_ref) / (p_ref + q_ref)
    if not _close(tau, tau_ref, REL_TOL):
        problems.append(f"{label}: tau {tau} != {tau_ref}")
    if not _close(z, z_closed_form(tau_ref, n), REL_TOL):
        problems.append(f"{label}: Z {z} != closed form {z_closed_form(tau_ref, n)}")
    return problems


def log_lstsq(kind: str, A: float, r: np.ndarray, y: np.ndarray) -> tuple[float, ...]:
    """Least-squares optimum of a rank-size model on the log scale."""
    n = r.size
    if kind == "lavalette3":
        cols = [np.ones(n), -np.log(r), np.log(n - r + 1)]
    elif kind == "powerlaw":
        cols = [np.ones(n), -np.log(r)]
    else:
        cols = [np.ones(n), -np.log(r), -r]
    coef = np.linalg.lstsq(np.column_stack(cols), np.log(y), rcond=None)[0]
    if kind == "cutoff" and coef[2] < 0:   # lambda >= 0: optimum on the boundary
        coef = np.append(np.linalg.lstsq(np.column_stack(cols[:2]), np.log(y),
                                         rcond=None)[0], 0.0)
    return (math.exp(coef[0]) / A, *map(float, coef[1:]))


def _check_log_params(label, kind, report, r, y) -> list[str]:
    got = tuple(float(report[name].split()[0]) for name in PARAM_NAMES[kind])
    want = log_lstsq(kind, float(report["A"]), r, y)
    if all(_close(a, b, FIT_PARAM_TOL) for a, b in zip(got, want)):
        return []
    return [f"{label}: parameters {got} differ from the lstsq optimum {want}"]


@dataclass(frozen=True)
class Inputs:
    """The generated input files, parsed independently of ranklaw."""

    root: Path

    @cached_property
    def income(self) -> tuple[list[str], dict[str, str], np.ndarray, tuple[int, ...]]:
        rows = _data_rows(self.root / "income.csv")[1:]
        years = tuple(sorted({int(r[4]) for r in rows}))
        ids = list(dict.fromkeys(r[0] for r in rows))
        index = {eid: i for i, eid in enumerate(ids)}
        values = np.zeros((len(ids), len(years)))
        for r in rows:
            values[index[r[0]], years.index(int(r[4]))] = float(r[5])
        names = {r[0]: r[1] for r in rows}
        return ids, names, values, years

    @cached_property
    def merges(self) -> list[tuple[str, str, list[str]]]:
        return [(r[0], r[1], r[2].split(";")) for r in _data_rows(self.root / "merges.csv")[1:]]

    @cached_property
    def merged(self) -> tuple[list[str], dict[str, str], np.ndarray]:
        """Income after the merge ledger: component rows summed into targets."""
        ids, names, values, _ = self.income
        index = {eid: i for i, eid in enumerate(ids)}
        gone = {c for _, _, comps in self.merges for c in comps}
        keep = [eid for eid in ids if eid not in gone]
        out_ids = keep + [t for t, _, _ in self.merges]
        out_names = dict(names)
        out_names.update({t: name for t, name, _ in self.merges})
        rows = [values[index[eid]] for eid in keep]
        rows += [values[[index[c] for c in comps]].sum(axis=0) for _, _, comps in self.merges]
        return out_ids, out_names, np.array(rows)

    @cached_property
    def population(self) -> dict[str, float]:
        """Last census column of the population panel."""
        return {r[0]: float(r[-1]) for r in _data_rows(self.root / "population.csv")[1:]}

    @cached_property
    def ranking(self) -> tuple[np.ndarray, np.ndarray]:
        rows = _data_rows(self.root / "ranking.csv")[1:]
        y = -np.sort(-np.array([float(r[2]) for r in rows]))
        return np.arange(1, y.size + 1, dtype=float), y


def _lexical_ranks(ids, values, names) -> np.ndarray:
    """Rank 1 = largest value; ties by display name, then entity id."""
    order = sorted(range(len(ids)), key=lambda i: (-values[i], names[ids[i]], ids[i]))
    ranks = np.empty(len(ids))
    ranks[order] = np.arange(1, len(ids) + 1)
    return ranks


def check_report(inputs: Inputs, out: Path) -> list[str]:
    text = (out / "report.txt").read_text()
    head, _, rest = text.partition("[rank-size fit]")
    corr_part = head.partition("[correlation]")[2]
    values = {}
    for line in corr_part.splitlines():
        if line.strip():
            key, value = line.rsplit(None, 1)
            values[key] = value
    ids, names, merged = inputs.merged
    x = merged.mean(axis=1)
    pop = inputs.population
    y = np.array([pop[eid] for eid in ids])
    rx, ry = _lexical_ranks(ids, x, names), _lexical_ranks(ids, y, names)
    problems = _check_kendall("report", rx, ry, int(values["p"]), int(values["q"]),
                              float(values["Kendall tau"]), float(values["Z"]))
    if int(values["p+q"]) != int(values["p"]) + int(values["q"]):
        problems.append("report: p+q line disagrees with p and q")
    for key, ref in (("Spearman rho", np.corrcoef(rx, ry)[0, 1]),
                     ("Pearson Pi", np.corrcoef(x, y)[0, 1])):
        if not _close(float(values[key]), float(ref), REL_TOL):
            problems.append(f"report: {key} {values[key]} != {ref}")

    fit = _key_values(rest.partition("[two-regime split]")[0])
    if fit.get("converged") != "true":
        return problems + [NOT_CONVERGED]
    r = np.arange(1, x.size + 1, dtype=float)
    problems += _check_log_params("report fit", "lavalette3", fit, r, -np.sort(-x))
    return problems


def check_pairwise(inputs: Inputs, out: Path) -> list[str]:
    _, _, values, years = inputs.income
    columns = [values[:, j] for j in range(len(years))] + [values.mean(axis=1)]
    labels = [str(y) for y in years] + ["avg"]
    pq = _data_rows(out / "pairwise_pq.csv")
    tz = _data_rows(out / "pairwise_tau_z.csv")
    if pq[0][1:] != labels or tz[0][1:] != labels:
        return [f"pairwise: header {pq[0][1:]} != {labels}"]
    problems = []
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            problems += _check_kendall(
                f"pairwise {labels[i]}/{labels[j]}", columns[i], columns[j],
                int(pq[i + 1][j + 1]), int(pq[j + 1][i + 1]),
                float(tz[i + 1][j + 1]), float(tz[j + 1][i + 1]))
    return problems


def check_ingest(inputs: Inputs, out: Path) -> list[str]:
    _, _, values, years = inputs.income
    ids, _, merged = inputs.merged
    rows = _data_rows(out / "panel.csv")[1:]
    totals = dict.fromkeys(years, 0.0)
    for r in rows:
        totals[int(r[4])] += float(r[5])
    problems = []
    if len(rows) != len(ids) * len(years):
        problems.append(f"ingest: {len(rows)} panel rows, expected {len(ids) * len(years)}")
    for j, year in enumerate(years):
        if not _close(totals[year], float(values[:, j].sum()), REL_TOL):
            problems.append(f"ingest: {year} total {totals[year]} != input "
                            f"{values[:, j].sum()} across the merge")
    regions = _data_rows(out / "regions.csv")[1:]
    if sum(int(r[1]) for r in regions) != len(ids):
        problems.append("ingest: region city counts do not sum to the entity count")
    if not _close(sum(float(r[2]) for r in regions), sum(inputs.population.values()), REL_TOL):
        problems.append("ingest: region inhabitants do not sum to the population total")
    return problems


def check_fit(inputs: Inputs, out: Path, kind: str, scale: str) -> list[str]:
    label = f"fit {kind}/{scale}"
    report = _key_values((out / "fit_report.txt").read_text())
    if report.get("converged") != "true":
        return [NOT_CONVERGED]
    table = np.array([[float(v) for v in row] for row in _data_rows(out / "fit_table.csv")[1:]])
    y, yhat = table[:, 1], table[:, 2]
    obs, pred = (np.log(y), np.log(yhat)) if scale == "log" else (y, yhat)
    r2 = 1.0 - np.sum((obs - pred) ** 2) / np.sum((obs - obs.mean()) ** 2)
    chi2 = float(np.sum((y - yhat) ** 2))
    problems = []
    if not _close(float(report[f"r_squared_{scale}"]), r2, TABLE_TOL):
        problems.append(f"{label}: R^2 {report[f'r_squared_{scale}']} != table {r2}")
    if not _close(float(report["chi_squared"]), chi2, TABLE_TOL):
        problems.append(f"{label}: chi^2 {report['chi_squared']} != table {chi2}")
    r, y_ref = inputs.ranking
    if not np.allclose(y, y_ref, rtol=REL_TOL):
        problems.append(f"{label}: table values differ from the ranking file")
    if scale == "log":
        problems += _check_log_params(label, kind, report, r, y_ref)
    return problems


def check_simulate(out: Path, urns: int, balls: int, k0: int = 1,
                   capacity: int | None = None, replicates: int = 1) -> list[str]:
    expected = urns * k0 + balls
    occupancy = np.array([int(r[1]) for r in _data_rows(out / "occupancy.csv")[1:]])
    problems = []
    if occupancy.size != urns or int(occupancy.sum()) != expected:
        problems.append(f"simulate: {occupancy.size} urns holding {occupancy.sum()} balls; "
                        f"expected {urns} holding {expected}")
    if capacity is not None and int(occupancy.max()) > capacity:
        problems.append(f"simulate: an urn holds {occupancy.max()} > capacity {capacity}")
    if replicates > 1:
        mean = [float(r[1]) for r in _data_rows(out / "simulate_summary.csv")[1:]]
        if len(mean) != urns or not _close(sum(mean), expected, REL_TOL):
            problems.append(f"simulate: replicate mean occupancy sums to {sum(mean)}, "
                            f"expected {expected}")
    return problems
