"""Self-tests of the benchmark: generator, checker and failure accounting.

Run from the root of a checkout with `python3 -m pytest -q perfbench`.
Scratch files go to .perfbench_work/selftest in the checkout.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from ranklaw import cli, urnsim  # noqa: E402


@pytest.fixture
def scratch(request):
    path = ROOT / ".perfbench_work" / "selftest" / request.node.name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def test_same_seed_same_bytes(scratch):
    inputs.generate(scratch / "a", 7)
    inputs.generate(scratch / "b", 7)
    inputs.generate(scratch / "c", 8)
    for name in inputs.FILES:
        assert (scratch / "a" / name).read_bytes() == (scratch / "b" / name).read_bytes()
    assert run.tree_digest(scratch / "a") == run.tree_digest(scratch / "b")
    assert run.tree_digest(scratch / "a") != run.tree_digest(scratch / "c")


def _small_panel(path: Path):
    rows = ["entity_id,name,region,province,year,value"]
    values = {"a": (5, 7), "b": (3, 3), "c": (9, 1), "d": (3, 8), "e": (1, 2), "f": (6, 6)}
    for eid, (v07, v08) in values.items():
        rows += [f"{eid},N{eid},R1,P1,2007,{v07}", f"{eid},N{eid},R1,P1,2008,{v08}"]
    path.write_text("\n".join(rows) + "\n")


def test_checker_rejects_p_off_by_one(scratch):
    data, out = scratch / "in", scratch / "out"
    data.mkdir()
    _small_panel(data / "income.csv")
    assert cli.main(["pairwise", "--input", str(data / "income.csv"), "--out", str(out)]) == 0
    given = oracles.Inputs(data)
    assert oracles.check_pairwise(given, out) == []

    pq = (out / "pairwise_pq.csv").read_text().splitlines()
    cells = pq[1].split(",")
    cells[2] = str(int(cells[2]) + 1)          # p of 2007 / 2008
    (out / "pairwise_pq.csv").write_text("\n".join([pq[0], ",".join(cells)] + pq[2:]) + "\n")
    problems = oracles.check_pairwise(given, out)
    assert any("sign products" in p for p in problems)


def test_checker_rejects_occupancy_off_by_one(scratch):
    argv = ["simulate", "--urns", "5", "--balls", "50", "--capacity", "20", "--out", str(scratch)]
    assert cli.main(argv) == 0
    assert oracles.check_simulate(scratch, 5, 50, capacity=20) == []

    lines = (scratch / "occupancy.csv").read_text().splitlines()
    urn, k = lines[1].split(",")
    lines[1] = f"{urn},{int(k) + 1}"
    (scratch / "occupancy.csv").write_text("\n".join(lines) + "\n")
    assert oracles.check_simulate(scratch, 5, 50, capacity=20)


def test_nonzero_exit_counts_as_failure_and_keeps_its_wall(scratch):
    ops = [run.Op(f"fit {i}", "fit_s", (), scratch / str(i), lambda d: []) for i in range(2)]
    outcomes = iter([run.OpRun(1.0, 0, 10.0, ""),
                     run.OpRun(3.0, 1, 12.0, "ranklaw: fit: singular normal equations")])
    ledger = run.Ledger()
    result = run.run_pass(ops, ledger, lambda op, log: next(outcomes), scratch / "log")

    assert (ledger.attempted, ledger.failed) == (2, 1)
    assert result.ok == [True, False]
    assert result.command_s("fit_s") == pytest.approx(4.0)      # (1 + 3) s / 1 success
    assert result.pass_s == pytest.approx(8.0)                  # 4 s x 2 attempted / 1
    assert not ledger.wrong


def test_tracer_counts_and_restores(scratch):
    original = urnsim.simulate_urns
    t = tracer.Tracer()
    with t.installed():
        assert urnsim.simulate_urns is not original
        assert cli.main(["simulate", "--urns", "5", "--balls", "50", "--capacity", "12",
                         "--out", str(scratch)]) == 0
    assert urnsim.simulate_urns is original
    counts = t.count_values()
    assert counts["urnsim.balls"] == 50
    assert counts["urnsim.retired"] == sum(
        int(line.split(",")[1]) >= 12
        for line in (scratch / "occupancy.csv").read_text().splitlines()[1:])
    root = [s for s in t.spans if s.parent is None]
    assert [s.name for s in root] == ["cli.main"]
    assert t.self_ms()["urnsim.simulate_ms"] > 0
