"""Golden outputs: the exact bytes every CLI command writes on small fixtures.

The inputs are built here from closed-form rules (no random draws): a long-form
income panel of 26 entities over 2007-2009 with ties, quoted names and a
three-entry merge ledger, a wide population panel keyed by the post-merge ids,
a 40-entity wide panel whose years disagree and tie, a 30-rank ranking file,
a two-slope scatter file and a one-direction scatter file with a point below
the origin.  The expected files live
in tests/golden/<case>/.  A change that alters an output on purpose rewrites
them with

    PYTHONPATH=src python -m tests.test_golden

and the diff of tests/golden/ shows what moved.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from ranklaw import cli

GOLDEN = Path(__file__).parent / "golden"

# a floating-point fault must end a command as an error, never pass as a warning
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

MERGES = {"m1": ("e03", "e04"), "m2": ("e10", "e11", "e12"), "m3": ("e20", "e21")}


def _income() -> str:
    lines = ["# quantity_label: ati", "# provenance: closed-form test fixture",
             "entity_id,name,region,province,year,value"]
    for i in range(26):
        eid = f"e{i:02d}"
        # e06/e07 tie in every year under names that sort against their ids
        j = 7 if i == 6 else i
        base = 1000.0 * (27 - j) ** 1.3
        name = {6: "Zeta", 7: "Alpha", 15: '"Borgo, San Dalmazzo"'}.get(i, f"City {i}")
        region, province = f"R{i % 4}", f"P{i % 7}"
        for t, year in enumerate((2007, 2008, 2009)):
            value = round(base * (1.0 + 0.02 * t) + (j % 3) * 17.25 * t, 2)
            lines.append(f"{eid},{name},{region},{province},{year},{value}")
    return "\n".join(lines) + "\n"


def _population() -> str:
    merged = {c for comps in MERGES.values() for c in comps}
    ids = [f"e{i:02d}" for i in range(26) if f"e{i:02d}" not in merged] + sorted(MERGES)
    lines = ["# quantity_label: population", "entity_id,name,region,province,2010,2011"]
    for k, eid in enumerate(ids):
        # integer counts, tied in pairs in 2011
        pop = 500 * (30 - k) // 1000 * 1000
        lines.append(f"{eid},N{eid},R{k % 4},P{k % 7},{pop - 60 - k},{pop}")
    return "\n".join(lines) + "\n"


def _gaps() -> str:
    """The population panel with missing cells, which serialize as empty fields."""
    lines = _population().splitlines()
    lines[3] = ",".join(lines[3].split(",")[:4] + ["NA", lines[3].split(",")[5]])
    lines[6] = ",".join(lines[6].split(",")[:5] + [""])
    return "\n".join(lines) + "\n"


def _disagree() -> str:
    """40 entities over four years whose orders disagree (q > 0 in every year pair)
    and tie (13 to 26 distinct values a year), long enough for the Kendall count
    to merge more than one level of runs."""
    lines = ["entity_id,name,region,province,2007,2008,2009,2010"]
    for i in range(40):
        values = [100 + 10 * ((i * (3 + 2 * t) + 5 * t) % 13) + (i < 20) * 7 * t for t in range(4)]
        lines.append(f"d{i:02d},D{i},R{i % 3},P{i % 5}," + ",".join(map(str, values)))
    return "\n".join(lines) + "\n"


def _merges() -> str:
    lines = ["target_id,target_name,component_ids,effective_year"]
    lines += [f"{t},Merged {t},{';'.join(c)},2010" for t, c in MERGES.items()]
    return "\n".join(lines) + "\n"


def _ranking(ids=None) -> str:
    n = 30 if ids is None else len(ids)
    ids = ids or [f"r{r:02d}" for r in range(1, n + 1)]
    lines = ["rank,entity_id,value"]
    for r, eid in enumerate(ids, start=1):
        value = 2.0e5 * (n + 1 - r) ** 0.35 / r ** 0.9 * (1.0 + 0.03 * ((r * 7) % 5 - 2))
        lines.append(f"{r},{eid},{value:.6f}")
    return "\n".join(lines) + "\n"


def _scatter() -> str:
    lines = ["entity_id,x,y"]
    for i in range(12):
        x = 1.0 + i * 0.75
        lines.append(f"s{i:02d},{x},{x * (3.0 + 0.05 * (i % 3))}")
        lines.append(f"t{i:02d},{x + 0.3},{(x + 0.3) * (0.8 - 0.04 * (i % 4))}")
    return "\n".join(lines) + "\n"


def _one_direction() -> str:
    """Six points on y = 2x, one of them below the origin: a degenerate split
    with a single slope, and no log-log fit."""
    return "entity_id,x,y\na,1,2\nb,2,4\nc,3,6\nd,-1,-2\ne,4,8\nf,0.5,1\n"


def _write_inputs(root: Path) -> dict[str, str]:
    pop_ids = [line.split(",")[0] for line in _population().splitlines()[2:]]
    files = {"income.csv": _income(), "population.csv": _population(),
             "merges.csv": _merges(), "ranking.csv": _ranking(),
             "pop_ranking.csv": _ranking(pop_ids), "scatter.csv": _scatter(),
             "one_direction.csv": _one_direction(),
             "gaps.csv": _gaps(), "disagree.csv": _disagree()}
    root.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (root / name).write_text(text)
    return {Path(name).stem: str(root / name) for name in files}


def _cases(f: dict[str, str]) -> dict[str, list[str]]:
    report = ["report", "--input", f["income"], "--population", f["population"],
              "--merges", f["merges"]]
    cases = {
        "report_log": report,
        "report_linear": report + ["--scale", "linear"],
        "pairwise": ["pairwise", "--input", f["income"]],
        "pairwise_disagree": ["pairwise", "--input", f["disagree"]],
        "ingest": ["ingest", "--input", f["income"], "--merges", f["merges"],
                   "--population", f["population"]],
        "ingest_gaps": ["ingest", "--input", f["gaps"]],
        "describe_text": ["describe", "--input", f["income"]],
        "describe_machine": ["describe", "--input", f["income"], "--format", "machine"],
        "corr_panel": ["corr", "--input", f["income"], "--population", f["population"],
                       "--merges", f["merges"]],
        "corr_ranking": ["corr", "--input", f["pop_ranking"], "--population", f["population"],
                         "--format", "machine"],
        "fit_lavalette3_log": ["fit", "--input", f["ranking"]],
        "fit_powerlaw_linear": ["fit", "--input", f["ranking"], "--model", "powerlaw",
                                "--scale", "linear"],
        "fit_lavalette3_drop_top": ["fit", "--input", f["ranking"], "--drop-top", "3"],
        "regime_k2": ["regime", "--input", f["scatter"]],
        "regime_k3": ["regime", "--input", f["scatter"], "--k-lines", "3",
                      "--exclude", "s00,t11"],
        "regime_degenerate": ["regime", "--input", f["one_direction"]],
        "simulate_uncapped": ["simulate", "--urns", "12", "--balls", "300", "--seed", "5",
                              "--replicates", "4"],
        "simulate_capped": ["simulate", "--urns", "12", "--balls", "300", "--seed", "5",
                            "--capacity", "40", "--replicates", "4"],
    }
    for model, scale in (("powerlaw", "log"), ("cutoff", "log"), ("cutoff", "linear"),
                         ("lavalette3", "linear")):
        cases[f"fit_{model}_{scale}"] = ["fit", "--input", f["ranking"], "--model", model,
                                         "--scale", scale]
    for ties in ("lexical", "id", "average"):
        cases[f"rank_{ties}"] = ["rank", "--input", f["income"], "--ties", ties]
    return cases


CASES = _cases({k: k for k in ("income", "population", "merges", "ranking", "pop_ranking",
                               "scatter", "one_direction", "gaps", "disagree")})
CASE_NAMES = sorted(CASES)


def _run(case: str, root: Path) -> dict[str, bytes]:
    files = _write_inputs(root / "inputs")
    out = root / "out" / case
    assert cli.main(_cases(files)[case] + ["--out", str(out)]) == 0
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("case", CASE_NAMES)
def test_golden_output(case, tmp_path):
    expected = {p.name: p.read_bytes() for p in sorted((GOLDEN / case).iterdir())}
    got = _run(case, tmp_path)
    assert sorted(got) == sorted(expected)
    for name in expected:
        assert got[name] == expected[name], f"{case}/{name} differs from the golden file"


def test_every_subcommand_has_a_golden_case():
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    assert set(sub.choices) - {argv[0] for argv in CASES.values()} == set()


def _regenerate(workdir: Path) -> None:
    for case in CASE_NAMES:
        target = GOLDEN / case
        target.mkdir(parents=True, exist_ok=True)
        for old in target.iterdir():
            old.unlink()
        for name, data in _run(case, workdir).items():
            (target / name).write_bytes(data)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        _regenerate(Path(tmp))
    sys.exit(0)
