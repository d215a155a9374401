import fcntl
import gc
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ranklaw
from ranklaw import cli, fit, rank
from ranklaw.errors import RanklawError
from tests.conftest import LONG_PANEL, REGION_COUNTS_2011, perfbench_module, ranked

# a floating-point fault must end a command as an error, never pass as a warning
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def _write_region_ranking(path):
    values = {f"reg{i:02d}": float(v) for i, v in enumerate(REGION_COUNTS_2011)}
    series = ranked(values, rule=rank.TieBreak.ENTITY_ID)
    path.write_text(rank.export_ranked_series(series))
    return path


def test_rank_then_describe(tmp_path):
    panel = tmp_path / "panel.csv"
    panel.write_text(LONG_PANEL)
    code = cli.main(["rank", "--input", str(panel), "--out", str(tmp_path / "out")])
    assert code == 0
    ranked = (tmp_path / "out" / "ranked.csv").read_text().splitlines()
    assert ranked[0] == "rank,entity_id,value"
    assert ranked[1].startswith("1,c2,")

    code = cli.main(["describe", "--input", str(panel),
                     "--out", str(tmp_path / "out2"), "--format", "machine"])
    assert code == 0
    text = (tmp_path / "out2" / "describe.txt").read_text()
    assert text.startswith("schema_version: 1")
    assert "2007.mean: 116.666666667" in text


def test_corr_identical_rankings(tmp_path):
    ranking = _write_region_ranking(tmp_path / "ranked.csv")
    code = cli.main(["corr", "--input", str(ranking), "--population", str(ranking),
                     "--out", str(tmp_path / "out"), "--format", "machine"])
    assert code == 0
    text = (tmp_path / "out" / "corr.txt").read_text()
    assert "kendall_tau: 1\n" in text
    assert "spearman_rho: 1\n" in text
    assert "q: 0\n" in text
    diff = (tmp_path / "out" / "rank_diff.txt").read_text()
    assert "fraction(<=0)  1" in diff


def test_fit_reference_counts_linear_scale(tmp_path):
    ranking = _write_region_ranking(tmp_path / "ranked.csv")
    code = cli.main(["fit", "--input", str(ranking), "--model", "lavalette3",
                     "--A", "1e3", "--scale", "linear",
                     "--out", str(tmp_path / "out")])
    assert code == 0
    report = (tmp_path / "out" / "fit_report.txt").read_text()
    assert "model: lavalette3" in report
    m = {}
    for line in report.splitlines():
        if ":" in line:
            key, _, rest = line.partition(":")
            m[key.strip()] = rest.split()[0] if rest.split() else ""
    assert float(m["m1"]) == pytest.approx(0.847, rel=0.01)
    assert float(m["m2"]) == pytest.approx(0.68, rel=0.01)
    assert float(m["m3"]) == pytest.approx(0.209, rel=0.01)
    table = (tmp_path / "out" / "fit_table.csv").read_text().splitlines()
    assert table[0] == "rank,value,predicted,residual"
    assert len(table) == 21


def test_pairwise_matrices_written(tmp_path):
    panel = tmp_path / "panel.csv"
    panel.write_text(LONG_PANEL)
    code = cli.main(["pairwise", "--input", str(panel), "--out", str(tmp_path / "o")])
    assert code == 0
    pq = (tmp_path / "o" / "pairwise_pq.csv").read_text().splitlines()
    assert pq[0].startswith(",2007,2008")
    assert (tmp_path / "o" / "pairwise_tau_z.csv").exists()


def test_regime_outputs(tmp_path):
    scatter = tmp_path / "scatter.csv"
    rows = ["entity_id,x,y"]
    for i, x in enumerate([1.0, 2.0, 3.0, 4.0, 5.0]):
        rows.append(f"a{i},{x},{3 * x}")
    for i, x in enumerate([1.0, 2.0, 3.0, 4.0, 5.0]):
        rows.append(f"b{i},{x},{x}")
    scatter.write_text("\n".join(rows) + "\n")
    code = cli.main(["regime", "--input", str(scatter), "--out", str(tmp_path / "o")])
    assert code == 0
    split = (tmp_path / "o" / "regime_split.csv").read_text()
    assert split.splitlines()[0] == "entity_id,x,y,class"
    axis = (tmp_path / "o" / "regime_axis.txt").read_text()
    assert axis.startswith("intercept:")
    assert "loglog_beta:" in axis


def test_simulate_deterministic(tmp_path):
    argv = ["simulate", "--urns", "20", "--balls", "1000", "--seed", "11",
            "--replicates", "5"]
    assert cli.main(argv + ["--out", str(tmp_path / "a")]) == 0
    assert cli.main(argv + ["--out", str(tmp_path / "b")]) == 0
    for name in ("occupancy.csv", "simulate_summary.csv"):
        first = (tmp_path / "a" / name).read_bytes()
        second = (tmp_path / "b" / name).read_bytes()
        assert first == second


def test_lock_file_blocks_concurrent_run(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    lock = out / cli.LOCK_NAME
    with open(lock, "w") as held:  # another run's lock: a flock on its own open file
        fcntl.flock(held, fcntl.LOCK_EX | fcntl.LOCK_NB)
        code = cli.main(["simulate", "--urns", "2", "--balls", "3", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"ranklaw: output directory locked by another run: {lock}\n")
        # the foreign lock is left in place
        assert lock.exists()
    assert list(out.iterdir()) == [lock]


def test_stale_lock_file_does_not_block_a_run(tmp_path):
    # a lock file left by a killed run holds no flock
    out = tmp_path / "out"
    out.mkdir()
    (out / cli.LOCK_NAME).write_text("999999")
    assert cli.main(["simulate", "--urns", "2", "--balls", "3", "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["occupancy.csv"]


def test_lock_path_is_checked_after_locking_and_before_unlinking(tmp_path, capsys,
                                                                  monkeypatch):
    out = tmp_path / "out"
    lock = out / cli.LOCK_NAME
    # a run releasing the lock unlinks the file this run opened before locking it
    flock = fcntl.flock
    monkeypatch.setattr(cli.fcntl, "flock", lambda fd, op: (lock.unlink(), flock(fd, op)))
    assert cli.main(["simulate", "--urns", "2", "--balls", "3", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"ranklaw: output directory locked by another run: {lock}\n"
    monkeypatch.undo()
    # a lock file that replaced this run's is not this run's to unlink
    held = cli.OutputDir(out)
    lock.unlink()
    lock.write_text("another run's")
    held.release()
    assert lock.read_text() == "another run's"


def test_lock_released_after_success(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["simulate", "--urns", "2", "--balls", "3",
                     "--out", str(out)]) == 0
    assert not (out / cli.LOCK_NAME).exists()


def test_failure_rolls_back_partial_outputs(tmp_path):
    panel = tmp_path / "panel.csv"
    panel.write_text(LONG_PANEL)
    bad = tmp_path / "missing.csv"
    out = tmp_path / "out"
    code = cli.main(["corr", "--input", str(panel), "--population", str(bad),
                     "--out", str(out)])
    assert code == 1
    assert list(out.glob("*.txt")) == []
    assert not (out / cli.LOCK_NAME).exists()


def test_bad_input_exit_code(tmp_path, capsys):
    code = cli.main(["rank", "--input", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "o")])
    assert code == 1
    assert "ranklaw:" in capsys.readouterr().err


def test_out_dir_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("RANKLAW_OUT_DIR", str(tmp_path / "env_out"))
    assert cli.main(["simulate", "--urns", "3", "--balls", "5"]) == 0
    assert (tmp_path / "env_out" / "occupancy.csv").exists()


def test_report_pipeline(tmp_path):
    ati = tmp_path / "ati.csv"
    ati.write_text(
        "entity_id,name,region,province,2007,2008\n"
        "c1,Alpha,R1,P1,100,110\nc2,Beta,R1,P1,200,210\n"
        "c3,Gamma,R2,P2,50,55\nc4,Delta,R2,P2,20,25\nc5,Eps,R1,P1,10,12\n"
    )
    pop = tmp_path / "pop.csv"
    pop.write_text(
        "entity_id,name,region,province,2008\n"
        "c1,Alpha,R1,P1,1000\nc2,Beta,R1,P1,3000\nc3,Gamma,R2,P2,500\n"
        "c4,Delta,R2,P2,200\nc5,Eps,R1,P1,100\n"
    )
    scatter_out = tmp_path / "out"
    code = cli.main(["report", "--input", str(ati), "--population", str(pop),
                     "--out", str(scatter_out)])
    assert code == 0
    text = (scatter_out / "report.txt").read_text()
    assert "[correlation]" in text
    assert "Kendall tau  1" in text
    assert "[rank-size fit]" in text
    assert "[two-regime split]" in text


@pytest.mark.parametrize("flag,value", [
    ("--a", "nan"), ("--a", "inf"), ("--replicates", "0"), ("--replicates", "-4"),
])
def test_simulate_rejects_bad_arguments(tmp_path, capsys, flag, value):
    out = tmp_path / "out"
    code = cli.main(["simulate", "--urns", "3", "--balls", "5", flag, value,
                     "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("ranklaw: simulate:") and "Traceback" not in err
    assert list(out.iterdir()) == []


def test_simulate_names_a_negative_seed(tmp_path, capsys):
    assert cli.main(["simulate", "--urns", "3", "--balls", "5", "--seed", "-1",
                     "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "ranklaw: simulate: --seed must be >= 0; got -1\n"


def test_report_missing_population_cell(tmp_path, capsys):
    ati = tmp_path / "ati.csv"
    ati.write_text(
        "entity_id,name,region,province,2007,2008\n"
        "c1,Alpha,R1,P1,100,110\nc2,Beta,R1,P1,200,210\nc3,Gamma,R2,P2,50,55\n"
    )
    pop = tmp_path / "pop.csv"
    pop.write_text(
        "entity_id,name,region,province,2007,2008\n"
        "c1,Alpha,R1,P1,900,1000\nc2,Beta,R1,P1,2900,3000\nc3,Gamma,R2,P2,480,NA\n"
    )
    out = tmp_path / "out"
    code = cli.main(["report", "--input", str(ati), "--population", str(pop),
                     "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert str(pop) in err and "'c3'" in err and "2008" in err
    assert "Traceback" not in err
    assert list(out.iterdir()) == []


def test_report_names_a_fault_of_the_income_panel_before_one_of_the_population(tmp_path, capsys):
    # one entity cannot be summarized, and its census cell is missing
    ati, pop = tmp_path / "ati.csv", tmp_path / "pop.csv"
    ati.write_text("entity_id,name,region,province,2007,2008\nc1,Alpha,R1,P1,100,110\n")
    pop.write_text("entity_id,name,region,province,2007,2008\nc1,Alpha,R1,P1,900,NA\n")
    assert cli.main(["report", "--input", str(ati), "--population", str(pop),
                     "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"ranklaw: report: {ati}: describe needs at least 2 values\n"


def _corr_argv(tmp_path, population):
    panel = tmp_path / "panel.csv"
    panel.write_text(LONG_PANEL)
    return ["corr", "--input", str(panel), "--population", str(population),
            "--out", str(tmp_path / "out")]


def test_failed_rerun_keeps_previous_outputs(tmp_path):
    out = tmp_path / "out"
    assert cli.main(_corr_argv(tmp_path, tmp_path / "panel.csv")) == 0
    before = {name: (out / name).read_bytes() for name in ("corr.txt", "rank_diff.txt")}
    assert cli.main(_corr_argv(tmp_path, tmp_path / "missing.csv")) == 1
    assert {name: (out / name).read_bytes() for name in before} == before
    assert sorted(p.name for p in out.iterdir()) == sorted(before)


@pytest.mark.parametrize("error", [RanklawError, RuntimeError])
def test_error_after_a_write_keeps_previous_outputs(tmp_path, monkeypatch, capsys, error):
    out = tmp_path / "out"
    assert cli.main(_corr_argv(tmp_path, tmp_path / "panel.csv")) == 0
    before = (out / "corr.txt").read_bytes()

    def crash(args, outdir):
        outdir.write("corr.txt", "partial\n")
        raise error("boom")

    # main binds each subcommand when building its parser
    monkeypatch.setattr(cli, "cmd_corr", crash)
    assert cli.main(_corr_argv(tmp_path, tmp_path / "panel.csv")) == 1
    internal = "" if error is RanklawError else "internal error: RuntimeError: "
    assert capsys.readouterr().err == f"ranklaw: corr: {internal}boom\n"
    assert (out / "corr.txt").read_bytes() == before
    assert sorted(p.name for p in out.iterdir()) == ["corr.txt", "rank_diff.txt"]


def test_a_fault_inside_a_layer_is_one_error_line(tmp_path, monkeypatch, capsys):
    ranking = tmp_path / "ranking.csv"
    _write_region_ranking(ranking)
    argv = ["fit", "--input", str(ranking), "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 0
    out = tmp_path / "out"
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()

    def overflow(*args, **kwargs):
        raise OverflowError("math range error")

    monkeypatch.setattr(fit, "fit_model", overflow)
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == "ranklaw: fit: internal error: OverflowError: math range error\n"
    assert captured.out == ""
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_rerun_replaces_outputs_with_new_files(tmp_path):
    out = tmp_path / "out"
    argv = _corr_argv(tmp_path, tmp_path / "panel.csv")
    assert cli.main(argv) == 0
    first = {p.name: (p.stat().st_ino, p.read_bytes()) for p in out.iterdir()}
    assert cli.main(argv) == 0
    second = {p.name: (p.stat().st_ino, p.read_bytes()) for p in out.iterdir()}
    assert sorted(first) == sorted(second) == ["corr.txt", "rank_diff.txt"]
    for name, (ino, data) in first.items():
        assert second[name][0] != ino   # a new file, not the old one truncated
        assert second[name][1] == data


def test_stage_left_by_killed_run_is_cleared(tmp_path):
    out = tmp_path / "out"
    (out / cli.STAGE_NAME).mkdir(parents=True)
    (out / cli.STAGE_NAME / "occupancy.csv").write_text("stale\n")
    assert cli.main(["simulate", "--urns", "2", "--balls", "3", "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["occupancy.csv"]
    assert (out / "occupancy.csv").read_text() != "stale\n"


def test_missing_window_value_names_the_file(tmp_path, capsys):
    ati = tmp_path / "ati.csv"
    ati.write_text(
        "entity_id,name,region,province,2007,2008\n"
        "c1,Alpha,R1,P1,100,110\nc2,Beta,R1,P1,200,NA\nc3,Gamma,R2,P2,50,55\n"
    )
    pop = tmp_path / "pop.csv"
    pop.write_text(
        "entity_id,name,region,province,2008\n"
        "c1,Alpha,R1,P1,1000\nc2,Beta,R1,P1,3000\nc3,Gamma,R2,P2,500\n"
    )
    out = tmp_path / "out"
    code = cli.main(["report", "--input", str(ati), "--population", str(pop),
                     "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert f"{ati}: missing value for 'c2' in year 2008" in err
    assert list(out.iterdir()) == []


def test_duplicate_id_in_ranking_file(tmp_path, capsys):
    ranking = tmp_path / "ranked.csv"
    ranking.write_text("rank,entity_id,value\n1,a,60\n2,b,50\n3,c,40\n"
                       "4,b,30\n5,d,20\n6,e,10\n")
    code = cli.main(["fit", "--input", str(ranking), "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert f"{ranking}: duplicate entity_id 'b' at row 5" in err


def test_failed_stage_setup_releases_the_lock(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    (out / cli.STAGE_NAME).write_text("not a directory\n")
    assert cli.main(["simulate", "--urns", "2", "--balls", "3", "--out", str(out)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    assert not (out / cli.LOCK_NAME).exists()


@pytest.mark.parametrize("cell", ["inf", "NAN", "1e400"])
def test_non_finite_panel_value(tmp_path, capsys, cell):
    panel = tmp_path / "panel.csv"
    panel.write_text("entity_id,name,region,province,2007,2008\n"
                     f"c1,Alpha,R1,P1,100,110\nc2,Beta,R1,P1,200,{cell}\n")
    out = tmp_path / "out"
    assert cli.main(["rank", "--input", str(panel), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"ranklaw: rank: {panel}: non-finite value {cell!r} at row 3\n"
    assert not (out / "ranked.csv").exists()


@pytest.mark.parametrize("command, header, row, message", [
    ("fit", "rank,entity_id,value", "3,c", "malformed row 4: expected 3 fields, got 2"),
    ("fit", "rank,entity_id,value", "3,c,x", "malformed value 'x' at row 4"),
    ("fit", "rank,entity_id,value", "3,c,inf", "non-finite value 'inf' at row 4"),
    ("regime", "entity_id,x,y", "c,3", "malformed row 4: expected 3 fields, got 2"),
    ("regime", "entity_id,x,y", "c,3,x", "malformed value 'x' at row 4"),
    ("regime", "entity_id,x,y", "c,1e400,3", "non-finite value '1e400' at row 4"),
    ("regime", "entity_id,x,y", "a,3,3", "duplicate entity_id 'a' at row 4"),
])
def test_bad_ranking_or_scatter_row(tmp_path, capsys, command, header, row, message):
    good = ["1,a,60", "2,b,50"] if command == "fit" else ["a,1,2", "b,2,4"]
    data = tmp_path / "data.csv"
    data.write_text("\n".join([header, *good, row]) + "\n")
    out = tmp_path / "out"
    assert cli.main([command, "--input", str(data), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"ranklaw: {command}: {data}: {message}\n"
    assert list(out.iterdir()) == []


def test_fit_drop_top_lists_the_dropped_ids(tmp_path):
    ranking = _write_region_ranking(tmp_path / "ranked.csv")
    out = tmp_path / "out"
    assert cli.main(["fit", "--input", str(ranking), "--drop-top", "2",
                     "--out", str(out)]) == 0
    report = (out / "fit_report.txt").read_text()
    assert "excluded: reg00,reg01\n" in report
    assert "N: 18\n" in report


@pytest.mark.parametrize("k", [20, -1])
def test_an_out_of_range_drop_top_names_the_option_and_the_input(tmp_path, capsys, k):
    ranking = _write_region_ranking(tmp_path / "ranked.csv")  # 20 ranks
    out = tmp_path / "out"
    assert cli.main(["fit", "--input", str(ranking), "--drop-top", str(k), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (f"ranklaw: fit: --drop-top must be in [0, 19] "
                                       f"for --input {ranking}\n")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["fit", "corr"])
def test_a_window_that_applies_to_no_panel_is_refused(tmp_path, capsys, command):
    ranking = _write_region_ranking(tmp_path / "ranked.csv")
    argv = [command, "--input", str(ranking), "--out", str(tmp_path / "out")]
    argv += ["--population", str(ranking)] if command == "corr" else []
    assert cli.main(argv + ["--window", "1999"]) == 1
    assert capsys.readouterr().err == f"ranklaw: {command}: " + (
        f"{ranking}: --window needs a panel, not a ranking file\n" if command == "fit" else
        f"{ranking}, {ranking}: --window needs a panel\n")
    assert list((tmp_path / "out").iterdir()) == []
    assert cli.main(argv + ["--window"]) == 0  # an empty window is every year


def test_corr_applies_a_window_to_its_one_panel(tmp_path):
    panel, ranking = tmp_path / "panel.csv", tmp_path / "ranked.csv"
    panel.write_text(LONG_PANEL)
    ranking.write_text("rank,entity_id,value\n1,c2,210\n2,c1,110\n3,c3,55\n")
    for x, y in ((panel, ranking), (ranking, panel)):
        assert cli.main(["corr", "--input", str(x), "--population", str(y), "--window", "2008",
                         "--out", str(tmp_path / "out")]) == 0


def test_corr_refuses_merges_with_a_ranking_input(tmp_path, capsys):
    ranking = _write_region_ranking(tmp_path / "ranked.csv")
    ledger = tmp_path / "merges.csv"
    ledger.write_text("target_id,target_name,component_ids,effective_year\n")
    assert cli.main(["corr", "--input", str(ranking), "--population", str(ranking),
                     "--merges", str(ledger), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (f"ranklaw: corr: {ranking}: --merges needs a panel, "
                                       "not a ranking file\n")


@pytest.fixture(scope="module")
def seed5_inputs(tmp_path_factory):
    """The directory of the benchmark's input files for seed 5."""
    root = tmp_path_factory.mktemp("benchmark")
    perfbench_module("inputs").generate(root, 5)
    return root


@pytest.fixture(scope="module")
def seed5_ranking(seed5_inputs):
    return (seed5_inputs / "ranking.csv").read_text().splitlines()


@pytest.mark.parametrize("scale", ["log", "linear"])
@pytest.mark.parametrize("factor", [1e-200, 1e150])
def test_a_fit_of_a_scaled_ranking(tmp_path, capsys, seed5_ranking, scale, factor):
    def fit_of(name, times):
        path = tmp_path / name
        path.write_text(seed5_ranking[0] + "\n" + "".join(
            f"{rank},{eid},{float(value) * times!r}\n"
            for rank, eid, value in (line.split(",") for line in seed5_ranking[1:])))
        out = tmp_path / f"out_{name}"
        code = cli.main(["fit", "--input", str(path), "--scale", scale, "--out", str(out)])
        report = (out / "fit_report.txt").read_text().splitlines() if code == 0 else []
        return path, code, {line.split(": ")[0]: line.split(": ")[1] for line in report}

    _, _, plain = fit_of("plain.csv", 1.0)
    path, code, scaled = fit_of("scaled.csv", factor)
    if factor > 1:  # values near 6e159: chi^2 is past the float range
        assert code == 1
        assert capsys.readouterr().err == (f"ranklaw: fit: {path}: the sum of squared "
                                           "residuals is past the float range\n")
    else:  # values near 6e-191: the unscaled R^2, and chi^2 (about 1e-378) is below every double
        assert code == 0
        for key in (f"r_squared_{scale}", "r_squared_linear", "converged"):
            assert scaled[key] == plain[key]
        assert scaled["chi_squared"] == "0"


def test_linear_scale_fit_report_keys_are_unique(tmp_path):
    ranking = _write_region_ranking(tmp_path / "ranked.csv")
    out = tmp_path / "out"
    assert cli.main(["fit", "--input", str(ranking), "--model", "powerlaw",
                     "--scale", "linear", "--out", str(out)]) == 0
    keys = [line.partition(":")[0] for line in
            (out / "fit_report.txt").read_text().splitlines()]
    assert len(keys) == len(set(keys))
    assert "r_squared_linear" in keys


MERGE_INCOME = """\
entity_id,name,region,province,2007,2008
c1,Alpha,R1,P1,100,110
c2,Beta,R1,P1,200,210
c3,Gamma,R2,P2,50,55
c4,Delta,R2,P2,80,60
"""
MERGE_POPULATION = """\
entity_id,name,region,province,2001,2011
m1,AlphaBeta,R1,P1,30,31
c3,Gamma,R2,P2,5,6
c4,Delta,R2,P2,9,8
"""


def test_corr_applies_merges_to_the_input_panel(tmp_path, capsys):
    income, pop, ledger = (tmp_path / "income.csv", tmp_path / "pop.csv",
                           tmp_path / "merges.csv")
    income.write_text(MERGE_INCOME)
    pop.write_text(MERGE_POPULATION)
    ledger.write_text("target_id,target_name,component_ids,effective_year\n"
                      "m1,AlphaBeta,c1;c2,2008\n")
    argv = ["corr", "--input", str(income), "--population", str(pop), "--format", "machine"]
    assert cli.main(argv + ["--out", str(tmp_path / "plain")]) == 1
    assert "entity sets differ in 3 ids: 'c1', 'c2', 'm1'\n" in capsys.readouterr().err
    out = tmp_path / "merged"
    assert cli.main(argv + ["--merges", str(ledger), "--out", str(out)]) == 0
    text = (out / "corr.txt").read_text()
    assert "n: 3\n" in text
    assert "kendall_tau: 1\n" in text


def test_entity_set_mismatch_lists_at_most_ten_ids(tmp_path, capsys):
    x = _write_region_ranking(tmp_path / "x.csv")
    y = tmp_path / "y.csv"
    y.write_text(x.read_text().replace(",reg", ",other"))
    assert cli.main(["corr", "--input", str(x), "--population", str(y),
                     "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "entity sets differ in 40 ids: " in err
    assert err.count("'") == 2 * 10
    assert err.endswith(" and 30 more\n")


MISMATCH_PANEL = "entity_id,name,region,province,2007,2011\n" + "".join(
    f"{eid},N{eid},R{i % 2},P1,{10 * i + 5},{7 * i + 3}\n" for i, eid in enumerate("abc"))


@pytest.mark.parametrize("command", ["report", "corr", "ingest"])
def test_an_entity_set_mismatch_names_the_population_panel_alike(tmp_path, capsys, command):
    income, pop = tmp_path / "income.csv", tmp_path / "pop.csv"
    income.write_text(MISMATCH_PANEL + "d,Nd,R1,P1,40,20\n")
    pop.write_text(MISMATCH_PANEL + "e,Ne,R1,P1,40,20\n")
    assert cli.main([command, "--input", str(income), "--population", str(pop),
                     "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        f"ranklaw: {command}: {pop}: entity sets differ in 2 ids: 'd', 'e'\n")


@pytest.mark.parametrize("amplitude", ["0", "-5", "nan", "inf"])
def test_fit_rejects_a_bad_amplitude(tmp_path, capsys, amplitude):
    ranking = _write_region_ranking(tmp_path / "ranked.csv")
    out = tmp_path / "out"
    assert cli.main(["fit", "--input", str(ranking), "--A", amplitude,
                     "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == (f"ranklaw: fit: amplitude A must be positive and finite; "
                   f"got {float(amplitude)}\n")
    assert list(out.iterdir()) == []


def test_report_checks_the_amplitude_before_reading_a_file(tmp_path, capsys):
    missing = str(tmp_path / "nope.csv")
    assert cli.main(["report", "--input", missing, "--population", missing, "--A", "-1",
                     "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "ranklaw: report: amplitude A must be positive and finite; got -1.0\n")


@pytest.mark.parametrize("scale", ["log", "linear"])
def test_a_fit_of_equal_values_names_the_file(tmp_path, capsys, scale):
    ranking = tmp_path / "flat.csv"
    ranking.write_text("rank,entity_id,value\n" + "".join(f"{r},c{r},7\n" for r in range(1, 6)))
    out = tmp_path / "out"
    assert cli.main(["fit", "--input", str(ranking), "--scale", scale, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"ranklaw: fit: {ranking}: zero total sum of squares\n"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("threshold", ["nan", "inf", "-1", "0"])
def test_fit_rejects_a_bad_threshold(tmp_path, capsys, threshold):
    ranking = _write_region_ranking(tmp_path / "ranked.csv")
    out = tmp_path / "out"
    assert cli.main(["fit", "--input", str(ranking), "--threshold", threshold,
                     "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == (f"ranklaw: fit: --threshold must be positive and finite; "
                   f"got {float(threshold)}\n")
    assert list(out.iterdir()) == []


def _two_slope_scatter(path):
    rows = ["entity_id,x,y"] + [f"a{i},{x},{3 * x}" for i, x in enumerate(range(1, 6))]
    rows += [f"b{i},{x},{x}" for i, x in enumerate(range(1, 6))]
    path.write_text("\n".join(rows) + "\n")
    return path


def test_regime_rejects_an_unknown_exclude_id(tmp_path, capsys):
    scatter = _two_slope_scatter(tmp_path / "scatter.csv")
    out = tmp_path / "out"
    assert cli.main(["regime", "--input", str(scatter), "--exclude", "a0,zz,b9",
                     "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"ranklaw: regime: {scatter}: outlier ids not in the scatter: 2 ids: 'b9', 'zz'\n"
    assert list(out.iterdir()) == []


def _eight_city_panel(path):
    path.write_text("entity_id,name,region,province,2007,2008\n" + "".join(
        f"c{i},N{i},R{i % 2},P1,{100 * i + 7 * (i % 3)},{110 * i}\n" for i in range(1, 9)))
    return path


def test_report_rejects_an_unknown_exclude_id(tmp_path, capsys):
    ati = _eight_city_panel(tmp_path / "ati.csv")
    out = tmp_path / "out"
    assert cli.main(["report", "--input", str(ati), "--population", str(ati),
                     "--out", str(out)]) == 0
    assert cli.main(["report", "--input", str(ati), "--population", str(ati),
                     "--exclude", "c1,zz", "--out", str(out / "x")]) == 1
    err = capsys.readouterr().err
    assert err == f"ranklaw: report: {ati}: outlier ids not in the scatter: 1 ids: 'zz'\n"
    assert list((out / "x").iterdir()) == []


@pytest.mark.parametrize("command", ["regime", "report"])
def test_an_empty_exclude_excludes_nothing(tmp_path, command):
    if command == "regime":
        argv = ["regime", "--input", str(_two_slope_scatter(tmp_path / "scatter.csv"))]
    else:
        panel = _eight_city_panel(tmp_path / "ati.csv")
        argv = ["report", "--input", str(panel), "--population", str(panel)]
    assert cli.main(argv + ["--out", str(tmp_path / "none")]) == 0
    assert cli.main(argv + ["--exclude", "", "--out", str(tmp_path / "empty")]) == 0
    written = sorted((tmp_path / "none").iterdir())
    assert [p.name for p in written] == sorted(p.name for p in (tmp_path / "empty").iterdir())
    for path in written:
        assert (tmp_path / "empty" / path.name).read_bytes() == path.read_bytes()


@pytest.mark.parametrize("command, n, message", [
    ("regime", 4, "need at least 5 points after outlier exclusion"),
    ("report", 4, "need at least 5 points after outlier exclusion"),
    ("regime", 1, "scatter set needs at least 2 points"),
], ids=["regime", "report", "regime_one_point"])
def test_too_few_points_for_the_split_names_the_file(tmp_path, capsys, command, n, message):
    rows = [(f"c{i}", 100 * i + 7 * (i % 3), 110 * i) for i in range(1, n + 1)]
    data = tmp_path / "points.csv"
    if command == "regime":
        data.write_text("entity_id,x,y\n" + "".join(f"{e},{x},{y}\n" for e, x, y in rows))
        argv = ["regime", "--input", str(data)]
    else:
        data.write_text("entity_id,name,region,province,2007,2008\n" + "".join(
            f"{e},N{e},R1,P1,{x},{y}\n" for e, x, y in rows))
        argv = ["report", "--input", str(data), "--population", str(data)]
    out = tmp_path / "out"
    assert cli.main(argv + ["--k-lines", "3", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"ranklaw: {command}: {data}: {message}\n"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["ingest", "corr"])
def test_a_merged_sum_that_overflows_names_the_ledger(tmp_path, capsys, command):
    income, pop, ledger = (tmp_path / "income.csv", tmp_path / "pop.csv",
                           tmp_path / "merges.csv")
    income.write_text("entity_id,name,region,province,2007,2008\n"
                      "c1,Alpha,R1,P1,1e308,1e308\nc2,Beta,R1,P1,1e308,1e308\n"
                      "c3,Gamma,R2,P2,5,6\nc4,Delta,R2,P2,9,8\n")
    pop.write_text("entity_id,name,region,province,2011\n"
                   "c12,AlphaBeta,R1,P1,31\nc3,Gamma,R2,P2,6\nc4,Delta,R2,P2,8\n")
    ledger.write_text("target_id,target_name,component_ids,effective_year\n"
                      "c12,AlphaBeta,c1;c2,2008\n")
    out = tmp_path / "out"
    argv = [command, "--input", str(income), "--merges", str(ledger), "--out", str(out)]
    if command == "corr":
        argv += ["--population", str(pop)]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == (
        f"ranklaw: {command}: {ledger}: the sum for target 'c12' in year 2007 overflows\n")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["pairwise", "report"])
def test_a_window_sum_that_overflows_names_the_input(tmp_path, capsys, command):
    panel = tmp_path / "wide.csv"
    panel.write_text("entity_id,name,region,province,2007,2008\n"
                     "c1,Alpha,R1,P1,1e308,1.7e308\nc2,Beta,R1,P1,5,6\nc3,Gamma,R2,P2,9,8\n")
    out = tmp_path / "out"
    argv = [command, "--input", str(panel), "--out", str(out)]
    if command == "report":
        argv += ["--population", str(panel)]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == (
        f"ranklaw: {command}: {panel}: the sum for 'c1' over the years [2007, 2008] overflows\n")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("population, income, faulty, message", [
    ("1e308", ("1e308,1", "1e308,1"), "pop", "the population of region 'R1' overflows"),
    ("1", ("1e308,1", "1e308,1"), "income", "the income of region 'R1' overflows"),  # in 2007
    ("1", ("1e308,1", "1,1e308"), "income", "the income of region 'R1' overflows"),  # in all
])
def test_a_regional_sum_that_overflows_names_its_panel(tmp_path, capsys, population, income,
                                                       faulty, message):
    paths = {"income": tmp_path / "income.csv", "pop": tmp_path / "pop.csv"}
    paths["income"].write_text("entity_id,name,region,province,2007,2008\n"
                               f"c1,Alpha,R1,P1,{income[0]}\nc2,Beta,R1,P1,{income[1]}\n"
                               "c3,Gamma,R2,P2,9,8\n")
    paths["pop"].write_text("entity_id,name,region,province,2011\n"
                            f"c1,Alpha,R1,P1,{population}\nc2,Beta,R1,P1,1.7e308\n"
                            "c3,Gamma,R2,P2,9\n")
    out = tmp_path / "out"
    assert cli.main(["ingest", "--input", str(paths["income"]), "--population",
                     str(paths["pop"]), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"ranklaw: ingest: {paths[faulty]}: {message}\n"
    assert list(out.iterdir()) == []


def test_ingest_with_population_reads_a_year_ordered_panel(tmp_path):
    # 2 x 300 rows ordered by year cross a parse chunk boundary with every
    # entity already seen in the earlier chunk
    ids = range(300)
    rows = [f"c{i:03d},N{i},R{i % 3},P{i % 2},{year},{i + year - 2000}"
            for year in (2007, 2008) for i in ids]
    header = "entity_id,name,region,province,year,value\n"
    by_year, by_entity = tmp_path / "by_year.csv", tmp_path / "by_entity.csv"
    by_year.write_text(header + "\n".join(rows) + "\n")
    by_entity.write_text(header + "\n".join(sorted(rows)) + "\n")
    pop = tmp_path / "pop.csv"
    pop.write_text("entity_id,name,region,province,2011\n" + "".join(
        f"c{i:03d},N{i},R{i % 3},P{i % 2},{2 * i + 1}\n" for i in ids))
    for panel in (by_year, by_entity):
        assert cli.main(["ingest", "--input", str(panel), "--population", str(pop),
                         "--out", str(tmp_path / panel.stem)]) == 0
    out = tmp_path / "by_year"
    assert (out / "panel.csv").read_text() == (tmp_path / "by_entity" / "panel.csv").read_text()
    expected = ["region,n_cities,n_inhabitants,ati_mean"]
    for r in range(3):
        members = [i for i in ids if i % 3 == r]
        ati_mean = sum(2 * i + 15 for i in members) / 2
        expected.append(f"R{r},100,{sum(2 * i + 1 for i in members)},{ati_mean:.12g}")
    assert (out / "regions.csv").read_text().splitlines() == expected


def test_oversized_ledger_field_names_the_ledger_and_row(tmp_path, capsys):
    income, ledger = tmp_path / "income.csv", tmp_path / "merges.csv"
    income.write_text(MERGE_INCOME)
    ledger.write_text("target_id,target_name,component_ids,effective_year\n"
                      'm1,"' + "x" * 200_000 + '",c1;c2,2008\n')
    out = tmp_path / "out"
    assert cli.main(["ingest", "--input", str(income), "--merges", str(ledger),
                     "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"ranklaw: ingest: {ledger}: malformed row 2: field larger than")
    assert err.count("\n") == 1
    assert list(out.iterdir()) == []


GAP_INCOME = "entity_id,name,region,province,2007,2008\n{}\n{}\nc3,Gamma,R2,P2,50,{}\n"
GAP_POPULATION = "entity_id,name,region,province,2011\nc1,Alpha,R1,P1,{}\nc2,Beta,R1,P1,3\nc3,Gamma,R2,P2,4\n"


@pytest.mark.parametrize("c1, c2, c3, c1_population, message", [
    # a gap in region R1 is named before one in R2, and within a region an
    # income gap before a population gap
    ("c1,Alpha,R1,P1,1,2", "c2,Beta,R1,P1,3,NA", "NA", "NA",
     "{income}: missing value for 'c2' in year 2008"),
    ("c1,Alpha,R1,P1,1,2", "c2,Beta,R1,P1,3,4", "NA", "NA",
     "{population}: missing population for 'c1' in year 2011"),
], ids=["income_gap", "population_gap"])
def test_ingest_population_gap_names_its_panel(tmp_path, capsys, c1, c2, c3, c1_population,
                                               message):
    income, pop = tmp_path / "income.csv", tmp_path / "pop.csv"
    income.write_text(GAP_INCOME.format(c1, c2, c3))
    pop.write_text(GAP_POPULATION.format(c1_population))
    assert cli.main(["ingest", "--input", str(income), "--population", str(pop),
                     "--out", str(tmp_path / "out")]) == 1
    expected = message.format(income=income, population=pop)
    assert capsys.readouterr().err == f"ranklaw: ingest: {expected}\n"


def test_describe_window_outside_the_panel_names_the_file(tmp_path, capsys):
    panel = tmp_path / "panel.csv"
    panel.write_text(LONG_PANEL)
    assert cli.main(["describe", "--input", str(panel), "--window", "1999",
                     "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        f"ranklaw: describe: {panel}: year 1999 not in panel years [2007, 2008]\n")


def test_describe_keeps_a_repeated_window_year(tmp_path):
    panel = tmp_path / "panel.csv"
    panel.write_text(LONG_PANEL)
    argv = ["describe", "--input", str(panel), "--window", "2008", "2008"]
    assert cli.main(argv + ["--out", str(tmp_path / "text")]) == 0
    assert cli.main(argv + ["--format", "machine", "--out", str(tmp_path / "machine")]) == 0
    # the year's text section twice, and its machine block once
    first, second, average = (tmp_path / "text" / "describe.txt").read_text().split("\n\n")
    assert first == second and first.startswith("[2008]\nn ")
    assert average.startswith("[window average]\nn ")
    machine = (tmp_path / "machine" / "describe.txt").read_text().splitlines()
    assert machine[:2] == ["schema_version: 1", "section: describe"]
    assert [line.split(".")[0] for line in machine[2:]] == ["2008"] * 15 + ["avg"] * 15


OPTIONS = {
    "ingest": {"--input", "--out", "--merges", "--population"},
    "describe": {"--input", "--out", "--window", "--format"},
    "rank": {"--input", "--out", "--window", "--ties"},
    "corr": {"--input", "--out", "--window", "--format", "--population", "--merges"},
    "pairwise": {"--input", "--out", "--window"},
    "fit": {"--input", "--out", "--window", "--model", "--A", "--scale", "--drop-top",
            "--threshold"},
    "regime": {"--input", "--out", "--k-lines", "--exclude"},
    "simulate": {"--out", "--urns", "--balls", "--a", "--k0", "--capacity", "--seed",
                 "--replicates"},
    "report": {"--input", "--out", "--window", "--population", "--merges", "--model", "--A",
               "--scale", "--k-lines", "--exclude"},
}


def test_each_subcommand_accepts_only_the_options_it_reads(tmp_path, capsys):
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if a.dest == "command")
    accepted = {name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
                for name, p in sub.choices.items()}
    assert accepted == OPTIONS
    for argv in (["simulate", "--urns", "2", "--balls", "3", "--format", "machine"],
                 ["report", "--input", "a", "--population", "b", "--format", "machine"],
                 ["regime", "--input", "a", "--window", "1"],
                 ["ingest", "--input", "a", "--window", "2007"]):
        with pytest.raises(SystemExit) as exit_:
            cli.main(argv + ["--out", str(tmp_path / "out")])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ranklaw")
        assert f"error: unrecognized arguments: {' '.join(argv[-2:])}\n" in err
    choices = {(name, a.dest): list(a.choices) for name, p in sub.choices.items()
               for a in p._actions if a.dest in ("model", "ties")}
    models = [k.value for k in fit.ModelKind]
    assert choices == {("rank", "ties"): [t.value for t in rank.TieBreak],
                       ("fit", "model"): models, ("report", "model"): models}
    with pytest.raises(SystemExit) as exit_:
        cli.main(["fit", "--input", "a", "--model", "bogus", "--out", str(tmp_path / "out")])
    assert exit_.value.code == 2
    assert ("error: argument --model: invalid choice: 'bogus' (choose from "
            "'lavalette3', 'powerlaw', 'cutoff')\n") in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("imports, absent", [
    ("ranklaw.cli, ranklaw.urnsim",
     {"ranklaw.ingest", "ranklaw.fit", "ranklaw.rank", "ranklaw.stats", "statistics"}),
    # fit on a ranking file
    ("ranklaw.cli, ranklaw.reader, ranklaw.rank, ranklaw.fit",
     {"ranklaw.ingest", "ranklaw.stats", "statistics", "dataclasses"}),
    # the runtime is numpy-only: scipy and the test tools serve the tests alone;
    # records are NamedTuples, not dataclasses
    (", ".join(f"ranklaw.{m.name}" for m in pkgutil.iter_modules(ranklaw.__path__)),
     {"scipy", "hypothesis", "pytest", "dataclasses"}),
], ids=["simulate", "fit", "every_module"])
def test_start_up_loads_only_the_layers_a_command_runs(imports, absent):
    src = str(Path(ranklaw.__file__).parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); import {imports}; print(*sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    # a package in `absent` stands for each of its submodules too
    assert {m for m in run.stdout.split() if {m, m.split(".")[0]} & absent} == set()


def test_describe_runs_without_numpy_ma(tmp_path):
    panel = tmp_path / "panel.csv"
    panel.write_text(LONG_PANEL)
    src = str(Path(ranklaw.__file__).parents[1])
    argv = ["describe", "--input", str(panel), "--out", str(tmp_path / "out")]
    code = (f"import sys; sys.path.insert(0, {src!r}); from ranklaw import cli; "
            f"print(cli.main({argv!r}), 'numpy.ma' in sys.modules)")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert run.stdout == "0 False\n"


PANEL_HEADER = "entity_id,name,region,province,2007\n"


# a header-only ranking or scatter file is refused as a header-only panel is
@pytest.mark.parametrize("argv, header, message", [
    (["ingest", "--input", "{empty}", "--population", "{empty}"], PANEL_HEADER,
     "no census year: the panel has no entity rows"),
    (["report", "--input", "{income}", "--population", "{empty}"], PANEL_HEADER,
     "no census year: the panel has no entity rows"),
    (["pairwise", "--input", "{empty}"], PANEL_HEADER, "no entity rows to average"),
    (["fit", "--input", "{empty}"], "rank,entity_id,value\n", "cannot rank an empty map"),
    (["corr", "--input", "{income}", "--population", "{empty}"], "rank,entity_id,value\n",
     "cannot rank an empty map"),
    (["regime", "--input", "{empty}"], "entity_id,x,y\n", "scatter set needs at least 2 points"),
], ids=["ingest", "report", "pairwise", "fit", "corr", "regime"])
def test_a_header_only_panel_is_refused_naming_its_file(tmp_path, capsys, argv, header, message):
    empty, income = tmp_path / "empty.csv", tmp_path / "income.csv"
    empty.write_text(header)
    income.write_text(LONG_PANEL)
    argv = [arg.format(empty=empty, income=income) for arg in argv]
    out = tmp_path / "out"
    assert cli.main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == f"ranklaw: {argv[0]}: {empty}: {message}\n"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command, entities, message", [
    ("corr", 2, "z_score needs n >= 3"),
    ("pairwise", 2, "z_score needs n >= 3"),
    ("fit", 2, "need at least 4 points, got 2"),
    ("describe", 1, "describe needs at least 2 values"),
    ("report", 2, "z_score needs n >= 3"),
    ("report", 3, "need at least 4 points, got 3"),
])
def test_a_panel_too_small_for_a_statistic_names_its_file(tmp_path, capsys, command,
                                                          entities, message):
    panel = tmp_path / "small.csv"
    panel.write_text("".join(LONG_PANEL.splitlines(keepends=True)[:1 + 2 * entities]))
    argv = [command, "--input", str(panel), "--out", str(tmp_path / "out")]
    if command in ("corr", "report"):
        argv += ["--population", str(panel)]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"ranklaw: {command}: {panel}: {message}\n"
    assert list((tmp_path / "out").iterdir()) == []


def test_pairwise_names_the_file_of_a_missing_value(tmp_path, capsys):
    panel = tmp_path / "income.csv"
    panel.write_text("entity_id,name,region,province,year,value\n"
                     "c1,Alpha,R1,P1,2007,1\nc1,Alpha,R1,P1,2008,2\nc2,Beta,R1,P1,2007,3\n"
                     "c3,Gamma,R2,P2,2007,5\nc3,Gamma,R2,P2,2008,6\n")
    out = tmp_path / "out"
    assert cli.main(["pairwise", "--input", str(panel), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"ranklaw: pairwise: {panel}: missing value for 'c2' in year 2008\n")
    assert list(out.iterdir()) == []


def test_pairwise_window_outside_the_panel_names_the_year(tmp_path, capsys):
    # the window's years are checked before its gaps, as at every release so far
    panel = tmp_path / "panel.csv"
    panel.write_text(LONG_PANEL)
    assert cli.main(["pairwise", "--input", str(panel), "--window", "2007", "1999",
                     "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        f"ranklaw: pairwise: {panel}: year 1999 not in panel years [2007, 2008]\n")


# every option that names an input file, with the valid files the command
# reads before it; {bad} is the file under test
FILE_OPTIONS = [
    ["ingest", "--input", "{bad}"],
    ["ingest", "--input", "{panel}", "--merges", "{bad}"],
    ["ingest", "--input", "{panel}", "--population", "{bad}"],
    ["describe", "--input", "{bad}"],
    ["rank", "--input", "{bad}"],
    ["corr", "--input", "{bad}", "--population", "{panel}"],
    ["corr", "--input", "{panel}", "--population", "{bad}"],
    ["corr", "--input", "{panel}", "--population", "{panel}", "--merges", "{bad}"],
    ["pairwise", "--input", "{bad}"],
    ["fit", "--input", "{bad}"],
    ["regime", "--input", "{bad}"],
    ["report", "--input", "{bad}", "--population", "{panel}"],
    ["report", "--input", "{panel}", "--population", "{bad}"],
    ["report", "--input", "{panel}", "--population", "{panel}", "--merges", "{bad}"],
]


@pytest.mark.parametrize("argv", FILE_OPTIONS,
                         ids=[f"{argv[0]}{argv[argv.index('{bad}') - 1]}" for argv in FILE_OPTIONS])
@pytest.mark.parametrize("content, message", [
    (None, "cannot read: No such file or directory"),
    (b"entity_id,name\n\xff\n",
     "cannot read: 'utf-8' codec can't decode byte 0xff in position 15: invalid start byte"),
], ids=["missing", "not_utf8"])
def test_every_command_names_a_file_it_cannot_read_alike(tmp_path, capsys, argv, content,
                                                         message):
    panel, bad = tmp_path / "panel.csv", tmp_path / "bad.csv"
    panel.write_text(LONG_PANEL)
    if content is not None:
        bad.write_bytes(content)
    argv = [arg.format(panel=panel, bad=bad) for arg in argv]
    out = tmp_path / "out"
    assert cli.main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == f"ranklaw: {argv[0]}: {bad}: {message}\n"
    assert list(out.iterdir()) == []


WINDOW_COMMANDS = [["describe"], ["rank"], ["corr", "--population", "{panel}"], ["pairwise"],
                   ["fit"], ["report", "--population", "{panel}"]]


@pytest.mark.parametrize("argv", WINDOW_COMMANDS, ids=[argv[0] for argv in WINDOW_COMMANDS])
@pytest.mark.parametrize("window, message", [
    # the window's years are checked before its cells
    (["--window", "2008", "1999"], "year 1999 not in panel years [2007, 2008]"),
    ([], "missing value for 'c2' in year 2008"),
    (["--window"], "missing value for 'c2' in year 2008"),  # an empty window is every year
    (["--window", "2008"], "missing value for 'c2' in year 2008"),
], ids=["absent_year", "gap", "gap_empty_window", "gap_in_window"])
def test_every_command_names_a_window_fault_alike(tmp_path, capsys, argv, window, message):
    panel, gap = tmp_path / "panel.csv", tmp_path / "gap.csv"
    panel.write_text(LONG_PANEL)
    # one value left in 2008, too few for describe's summary of that year
    gap.write_text(LONG_PANEL.replace("c2,Beta,R1,P1,2008,210\n", "")
                   .replace("c3,Gamma,R2,P2,2008,55\n", ""))
    argv = [argv[0], "--input", str(gap), *(arg.format(panel=panel) for arg in argv[1:])]
    out = tmp_path / "out"
    assert cli.main(argv + window + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == f"ranklaw: {argv[0]}: {gap}: {message}\n"
    assert list(out.iterdir()) == []


def test_ranking_and_scatter_ids_are_stripped_as_panel_ids_are(tmp_path):
    panel, ranking = tmp_path / "panel.csv", tmp_path / "ranking.csv"
    panel.write_text(LONG_PANEL)
    ranking.write_text("rank,entity_id,value\n1, c2,30\n2, c1 ,20\n3,c3\t,10\n")
    assert cli.main(["corr", "--input", str(ranking), "--population", str(panel),
                     "--format", "machine", "--out", str(tmp_path / "corr")]) == 0
    assert "\nkendall_tau: 1\n" in (tmp_path / "corr" / "corr.txt").read_text()
    scatter = _two_slope_scatter(tmp_path / "scatter.csv")
    scatter.write_text(scatter.read_text().replace("\na0,", "\n a0 ,"))
    assert cli.main(["regime", "--input", str(scatter), "--exclude", "a0",
                     "--out", str(tmp_path / "regime")]) == 0
    assert "\na0,1,3," in (tmp_path / "regime" / "regime_split.csv").read_text()


SIMULATE = ["simulate", "--urns", "20", "--balls", "1000", "--seed", "11", "--replicates", "5"]


def _python(*args, cwd, **env):
    """Run the interpreter with this checkout's sources first on its path, and
    `env` added to the environment."""
    path = [str(Path(ranklaw.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          cwd=cwd)


def test_the_program_entry_writes_what_main_writes(tmp_path):
    run = _python("-m", "ranklaw.cli", *SIMULATE, "--out", str(tmp_path / "entry"), cwd=tmp_path)
    assert (run.returncode, run.stdout, run.stderr) == (0, "", "")
    assert cli.main(SIMULATE + ["--out", str(tmp_path / "main")]) == 0
    names = sorted(p.name for p in (tmp_path / "main").iterdir())
    assert names == ["occupancy.csv", "simulate_summary.csv"]
    assert sorted(p.name for p in (tmp_path / "entry").iterdir()) == names
    for name in names:
        assert (tmp_path / "entry" / name).read_bytes() == (tmp_path / "main" / name).read_bytes()


def test_inputs_are_read_and_outputs_written_as_utf8_whatever_the_locale(tmp_path):
    panel = tmp_path / "acc.csv"
    panel.write_text("entity_id,name,region,province,2007,2008\n"
                     "è1,Forlì,R1,P1,10,12\na2,Cesena,R1,P1,20,18\n", encoding="utf-8")
    written = {}
    for locale, utf8 in (("C", "0"), ("C.UTF-8", "1")):
        out = tmp_path / locale
        run = _python("-X", f"utf8={utf8}", "-m", "ranklaw.cli", "rank", "--input", str(panel),
                      "--out", str(out), cwd=tmp_path, LC_ALL=locale, PYTHONCOERCECLOCALE="0")
        assert (run.returncode, run.stdout, run.stderr) == (0, "", "")
        written[locale] = (out / "ranked.csv").read_bytes()
    assert written["C"] == written["C.UTF-8"]
    assert "\n2,è1,11\n".encode() in written["C"]


def test_a_failing_program_entry_prints_the_line_main_prints(tmp_path, capsys):
    argv = ["fit", "--input", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "out")]
    run = _python("-m", "ranklaw.cli", *argv, cwd=tmp_path)
    assert cli.main(argv) == 1
    assert (run.returncode, run.stdout, run.stderr) == (1, "", capsys.readouterr().err)
    assert run.stderr.count("\n") == 1


def test_the_program_entry_freezes_the_heap_and_runs_atexit_handlers(tmp_path):
    argv = SIMULATE + ["--out", str(tmp_path / "out")]
    code = ("import atexit, gc, sys; from ranklaw import cli; "
            "atexit.register(lambda: print(gc.get_freeze_count() > 0)); "
            f"sys.argv[1:] = {argv!r}; cli.run()")
    run = _python("-c", code, cwd=tmp_path)
    assert (run.returncode, run.stdout, run.stderr) == (0, "True\n", "")


def test_the_program_entry_runs_the_command_with_the_collector_off(tmp_path):
    argv = SIMULATE + ["--out", str(tmp_path / "out")]
    code = ("import atexit, gc, sys; from ranklaw import cli; "
            "atexit.register(lambda: print(gc.isenabled())); "
            f"sys.argv[1:] = {argv!r}; cli.run()")
    run = _python("-c", code, cwd=tmp_path)
    assert (run.returncode, run.stdout, run.stderr) == (0, "False\n", "")


def test_python_m_ranklaw_cli_imports_numpy_with_the_collector_off(tmp_path):
    argv = SIMULATE + ["--out", str(tmp_path / "out")]
    # a finder that finds nothing, asked first for every module imported
    code = ("import gc, runpy, sys\n"
            "class Probe:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name == 'numpy': print(gc.isenabled())\n"
            f"sys.meta_path.insert(0, Probe()); sys.argv[1:] = {argv!r}\n"
            "runpy.run_module('ranklaw.cli', run_name='__main__')")
    run = _python("-c", code, cwd=tmp_path)
    assert (run.returncode, run.stdout, run.stderr) == (0, "False\n", "")


def test_text_left_in_the_stdout_buffer_reaches_the_pipe(tmp_path):
    argv = SIMULATE + ["--out", str(tmp_path / "out")]
    code = ("import sys; from ranklaw import cli; sys.stdout.write('left'); "
            f"sys.argv[1:] = {argv!r}; cli.run()")
    run = _python("-c", code, cwd=tmp_path)
    assert (run.returncode, run.stdout, run.stderr) == (0, "left", "")


def test_a_failed_flush_at_the_program_entry_prints_nothing(tmp_path):
    argv = SIMULATE + ["--out", str(tmp_path / "out")]
    code = ("import io, sys; from ranklaw import cli\n"
            "class Broken(io.StringIO):\n"
            "    def flush(self): raise BrokenPipeError(32, 'Broken pipe')\n"
            f"sys.stdout = Broken(); sys.argv[1:] = {argv!r}; cli.run()")
    run = _python("-c", code, cwd=tmp_path)
    assert (run.returncode, run.stdout, run.stderr) == (0, "", "")


def test_main_leaves_the_collector_as_it_was(tmp_path):
    before = gc.get_freeze_count(), gc.isenabled()
    assert cli.main(SIMULATE + ["--out", str(tmp_path / "out")]) == 0
    assert cli.main(["fit", "--input", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "out")]) == 1
    assert (gc.get_freeze_count(), gc.isenabled()) == before


def test_the_console_script_is_the_program_entry(tmp_path):
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())
    module, func = pyproject["project"]["scripts"]["ranklaw"].split(":")
    argv = SIMULATE + ["--out", str(tmp_path / "out")]
    # neither the entry's import, numpy's with it, nor its command runs a collection
    code = ("import atexit, gc, sys; runs = []\n"
            "gc.callbacks.append(lambda phase, info: runs.append(phase))\n"
            "atexit.register(lambda: print(runs.count('start')))\n"
            f"from {module} import {func}; sys.argv[1:] = {argv!r}; {func}()")
    run = _python("-c", code, cwd=tmp_path)
    assert (run.returncode, run.stdout, run.stderr) == (0, "0\n", "")
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "occupancy.csv", "simulate_summary.csv"]


@pytest.mark.parametrize("command, scale", [("regime", 1e300), ("regime", 1e80), ("fit", 1e308),
                                            ("describe", 1e200), ("report", 1e200)])
def test_a_floating_point_fault_is_one_error_line(tmp_path, capsys, command, scale):
    # a scatter, a ranking and a panel whose second moments overflow a float
    path = tmp_path / "data.csv"
    argv = [command, "--input", str(path), "--out", str(tmp_path / "out")]
    if command == "regime":
        rows = [f"p{i},{scale * (1 + i % 7)!r},{scale * (1 + i % 7) * (5 if i % 2 else 1)!r}"
                for i in range(40)]
        path.write_text("entity_id,x,y\n" + "\n".join(rows) + "\n")
    elif command == "fit":
        path.write_text("rank,entity_id,value\n" + "".join(
            f"{r},e{r},{scale * r ** -0.8!r}\n" for r in range(1, 51)))
    else:  # a legal panel, which is also its own population panel
        path.write_text("entity_id,name,region,province,2007,2008\n" + "".join(
            f"c{i},N{i},R1,P1,{scale * (1 + i % 7)!r},{scale * (2 + i % 5)!r}\n" for i in range(40)))
        argv += ["--population", str(path)] if command == "report" else []
    before = np.geterr()
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert np.geterr() == before  # main leaves the caller's error state as it was
    if scale == 1e80:  # the split's moments are taken on values divided by a power of two
        assert (code, err) == (0, "")
        return
    # every other input meets a real limit of the float range, refused by name
    limit = {"regime": "the sum of squared orthogonal distances",
             "fit": "the sum of squared residuals"}.get(command, "the variance")
    assert (code, err) == (1, f"ranklaw: {command}: {path}: {limit} is past the float range\n")
    assert not [p for p in (tmp_path / "out").iterdir() if p.suffix in (".csv", ".txt")]


@pytest.mark.parametrize("exponent", [660, -1000])
def test_corr_of_panels_scaled_by_a_power_of_two_writes_the_unscaled_outputs(tmp_path,
                                                                             exponent):
    # Pearson's moments of the raw values would overflow near 2^660 and vanish
    # near 2^-1000; scaled by a power of two, every statistic is as unscaled
    x = [1000.0 + 40 * i + 90 * (i % 4) for i in range(30)]
    y = [v * (1 + 0.05 * ((i * 7) % 5 - 2)) for i, v in enumerate(x)]

    def corr_of(e):
        paths = [tmp_path / f"{name}{e}.csv" for name in "xy"]
        for path, values in zip(paths, (x, y)):
            path.write_text("entity_id,name,region,province,2007\n" + "".join(
                f"c{i:02d},N{i},R{i % 3},P{i % 5},{math.ldexp(v, e)!r}\n"
                for i, v in enumerate(values)))
        out = tmp_path / f"out{e}"
        assert cli.main(["corr", "--input", str(paths[0]), "--population", str(paths[1]),
                         "--out", str(out)]) == 0
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    unscaled = corr_of(0)
    assert b"pearson_pi     0.951583815585\n" in unscaled["corr.txt"]
    assert corr_of(exponent) == unscaled


# the powers of each machine describe field in the unit of the values: 1 for location
# and spread, 2 for the variance, 0 for the count and the shape statistics
DESCRIBE_POWERS = {"min": 1, "max": 1, "sum": 1, "mean": 1, "median": 1, "rms": 1,
                   "std_dev": 1, "variance": 2, "std_err": 1}


def test_describe_of_a_panel_times_a_power_of_two_writes_the_scaled_fields(tmp_path):
    # below about 1e-154 the squares of the raw values would underflow, to RMS 0,
    # sigma 0 and skewness 0; a variance below the normal range is written rounded
    def describe_of(e):
        path, out = tmp_path / f"panel{e}.csv", tmp_path / f"out{e}"
        path.write_text("entity_id,name,region,province,2007,2008\n" + "".join(
            f"c{i},N{i},R1,P1,{math.ldexp(1 + i % 7, e)!r},{math.ldexp(2 + i % 5, e)!r}\n"
            for i in range(40)))
        assert cli.main(["describe", "--input", str(path), "--format", "machine",
                         "--out", str(out)]) == 0
        return dict(line.split(": ") for line in (out / "describe.txt").read_text().splitlines())

    unscaled, scaled = describe_of(0), describe_of(-600)
    assert scaled.keys() == unscaled.keys()
    for key, value in unscaled.items():
        power = DESCRIBE_POWERS.get(key.partition(".")[2], 0)
        if power:
            assert float(scaled[key]) == pytest.approx(math.ldexp(float(value), -600 * power),
                                                       rel=1e-11, abs=0)
        else:
            assert scaled[key] == value
    assert scaled["avg.variance"] == "0" and float(scaled["avg.std_dev"]) > 0


def _noisy_two_slope_scatter(path, exponent):
    """200 points around the lines y = 5x and y = x with 5 % noise, times 2^exponent."""
    rng = np.random.default_rng(0)
    x = rng.uniform(1, 100, 200)
    y = np.where(np.arange(200) % 2, 5 * x, x) * (1 + 0.05 * rng.standard_normal(200))
    path.write_text("entity_id,x,y\n" + "".join(
        f"p{i:03d},{a!r},{b!r}\n"
        for i, (a, b) in enumerate(zip(np.ldexp(x, exponent).tolist(),
                                       np.ldexp(y, exponent).tolist()))))
    return path


@pytest.mark.parametrize("k_lines", ["2", "3"])
@pytest.mark.parametrize("exponent", [-530, -660, 260])
def test_regime_of_a_scatter_times_a_power_of_two_writes_the_unscaled_split(tmp_path, exponent,
                                                                           k_lines):
    # raw moments near 2^-530 gave wrong slopes, near 2^-660 a false zero variance and
    # near 2^260 an overflow
    def regime_of(e):
        path, out = _noisy_two_slope_scatter(tmp_path / f"{e}.csv", e), tmp_path / f"out{e}"
        assert cli.main(["regime", "--input", str(path), "--k-lines", k_lines,
                         "--out", str(out)]) == 0
        rows = (out / "regime_split.csv").read_text().splitlines()
        axis = (out / "regime_axis.txt").read_text().splitlines()
        return ([row.rsplit(",", 1)[1] for row in rows[1:] if not row.startswith("#")],
                [row for row in rows if row.startswith(("# slopes:", "# overall_slope:"))],
                [row for row in axis if row.startswith(("slope:", "r_squared:"))])

    unscaled = regime_of(0)
    assert unscaled[1][0] == ("# slopes: 4.96382407712,0.9953580956" if k_lines == "2" else
                              "# slopes: 5.20998625558,4.77618723328,0.9953580956")
    assert regime_of(exponent) == unscaled


def _power_law_scatter(path, exponent):
    """40 points around y = x^-2, times 2^exponent: the log-log c is 2^(3 exponent)."""
    x = 1 + np.arange(40) / 40
    y = x ** -2 * (1 + 0.01 * (np.arange(40) % 3))
    path.write_text("entity_id,x,y\n" + "".join(
        f"p{i},{a!r},{b!r}\n" for i, (a, b) in enumerate(zip(np.ldexp(x, exponent).tolist(),
                                                              np.ldexp(y, exponent).tolist()))))
    return path


@pytest.mark.parametrize("scatter, exponent, limit", [
    (_noisy_two_slope_scatter, 530, "the sum of squared orthogonal distances"),
    (_power_law_scatter, 400, "the log-log amplitude c"),
], ids=["objective", "loglog_c"])
def test_a_regime_output_past_the_float_range_is_one_named_line(tmp_path, capsys, scatter,
                                                                exponent, limit):
    path = scatter(tmp_path / "scatter.csv", exponent)
    out = tmp_path / "out"
    assert cli.main(["regime", "--input", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (f"ranklaw: regime: {path}: {limit} is past the "
                                       "float range\n")
    assert list(out.iterdir()) == []


def _write_scatter(path, x, y):
    path.write_text("entity_id,x,y\n" + "".join(
        f"p{i},{a!r},{b!r}\n" for i, (a, b) in enumerate(zip(x.tolist(), y.tolist()))))
    return path


def _steep_axis_scatter(path):
    """50 points with x near 1e-200 and y near 1e150: the inertia-axis slope is near 1e350."""
    rng = np.random.default_rng(1)
    return _write_scatter(path, 1e-200 * rng.lognormal(0, 1, 50), 1e150 * rng.lognormal(0, 1, 50))


def _tiny_power_law_scatter(path):
    """200 points around y = x^-2 with x near 2^-300, times 2^-1200: the log-log c is near
    2^-1200, below every double."""
    rng = np.random.default_rng(2)
    x = 2.0 ** -300 * rng.lognormal(0, 1, 200)
    y = x ** -2 * rng.lognormal(0, 0.05, 200) * 2.0 ** -600 * 2.0 ** -600
    return _write_scatter(path, x, y)


@pytest.mark.parametrize("scatter, limit", [
    (_steep_axis_scatter, "the inertia-axis slope"),
    (_tiny_power_law_scatter, "the log-log amplitude c"),
], ids=["inertia_slope", "loglog_c_below"])
def test_a_regime_axis_past_either_end_of_the_float_range_leaves_the_outputs(tmp_path, capsys,
                                                                             scatter, limit):
    out = tmp_path / "out"
    assert cli.main(["regime", "--input", str(_power_law_scatter(tmp_path / "previous.csv", 0)),
                     "--out", str(out)]) == 0
    previous = {p.name: p.read_bytes() for p in out.iterdir()}
    path = scatter(tmp_path / "scatter.csv")
    assert cli.main(["regime", "--input", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"ranklaw: regime: {path}: {limit} is past the float range\n"
    assert {p.name: p.read_bytes() for p in out.iterdir()} == previous


def test_a_scatter_on_one_line_near_the_largest_double_splits_with_objective_0(tmp_path):
    # the objective 0 times 4^997 is 0, not past the float range
    path = _write_scatter(tmp_path / "line.csv", np.arange(1.0, 6.0) * 1e300,
                          np.arange(1.0, 6.0) * 1e300)
    assert cli.main(["regime", "--input", str(path), "--out", str(tmp_path / "out")]) == 0
    summary = (tmp_path / "out" / "regime_split.csv").read_text().splitlines()[-5:]
    assert summary == ["# slopes: 1", "# overall_slope: 1", "# objective: 0", "# iterations: 0",
                       "# degenerate: true"]


def test_a_linear_fit_whose_amplitude_factor_underflows_is_one_error_line(tmp_path, capsys):
    # drawn so that the linear-scale lavalette3 optimum has m3 near 213, where m1 is
    # below the smallest double
    rng = np.random.default_rng(323)
    n = int(rng.integers(10, 60))
    m2, m3 = rng.uniform(0.0, 3), rng.uniform(0.0, 3)
    r = np.arange(1, n + 1)
    y = np.sort(r ** -m2 * (n - r + 1.0) ** m3 * np.exp(rng.normal(0, rng.uniform(0.05, 2), n)))
    path = tmp_path / "ranking.csv"
    path.write_text("rank,entity_id,value\n" + "".join(
        f"{i},e{i},{v!r}\n" for i, v in enumerate(y[::-1].tolist(), start=1)))
    assert cli.main(["fit", "--input", str(path), "--scale", "linear",
                     "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (f"ranklaw: fit: {path}: the fitted amplitude factor 0 "
                                       "is out of the float range\n")


@pytest.mark.parametrize("options", [
    *(["--model", model, "--scale", scale] for model in ("lavalette3", "powerlaw", "cutoff")
      for scale in ("log", "linear")),
    ["--A", "1e-300"],
], ids=lambda options: "-".join(o.lstrip("-") for o in options))
def test_a_fit_whose_amplitude_is_past_the_float_range_is_one_error_line(tmp_path, capsys,
                                                                          options):
    # every value is finite, but the fitted curve's A m1 (m1 with --A 1e-300) is not
    path = tmp_path / "ranking.csv"
    path.write_text("rank,entity_id,value\n" + "".join(
        f"{r},e{r},{1.79e308 * min(1.0, (r / 2) ** -2)!r}\n" for r in range(1, 51)))
    out = tmp_path / "out"
    assert cli.main(["fit", "--input", str(path), *options, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    if options == ["--model", "lavalette3", "--scale", "linear"]:
        # its optimum's A m1 is near 2.47e210, but its residuals' squares pass the float range
        assert err == (f"ranklaw: fit: {path}: the sum of squared residuals is past the "
                       "float range\n")
    else:
        assert err.startswith(f"ranklaw: fit: {path}: ")
        assert err.endswith(" is out of the float range\n") and err.count("\n") == 1
    assert list(out.iterdir()) == []


def test_a_linear_fit_rejects_a_step_whose_residuals_overflow(tmp_path, monkeypatch):
    # drawn so that, with values near 1e154, the power-law fit's loop tried steps whose
    # unscaled residual squares overflow; the loop works on the values divided by a power
    # of two, so none does now, and a step made to overflow is still rejected
    rng = np.random.default_rng(113)
    n = int(rng.integers(5, 40))
    m2, m3 = rng.uniform(0.0, 3), rng.uniform(0.0, 3)
    r = np.arange(1, n + 1)
    sigma = rng.uniform(0.1, 3)
    y = np.sort(r ** -m2 * (n - r + 1.0) ** m3 * np.exp(rng.normal(0, sigma, n)))[::-1]
    y = y / y.max() * 10.0 ** rng.uniform(152.5, 154.2)
    path = tmp_path / "ranking.csv"
    path.write_text("rank,entity_id,value\n" + "".join(
        f"{i},e{i},{v!r}\n" for i, v in enumerate(y.tolist(), start=1)))
    projection, finite = fit._projection, []

    def spy(*args):
        trial = projection(*args)
        finite.append(np.isfinite(trial[-1]))
        return (*trial[:-1], math.inf) if len(finite) == 2 else trial  # the first step

    monkeypatch.setattr(fit, "_projection", spy)
    out = tmp_path / "out"
    assert cli.main(["fit", "--input", str(path), "--model", "powerlaw", "--scale", "linear",
                     "--out", str(out)]) == 0
    assert len(finite) > 2 and all(finite)
    assert "converged: true" in (out / "fit_report.txt").read_text()


def test_the_benchmark_tracer_counts_every_traced_command(tmp_path, seed5_inputs):
    # perfbench --trace 1 counts fields of what the layers return, such as Panel.records,
    # FitResult.iterations and RegimeSplit.iterations: a command whose result lost one fails
    tracer = perfbench_module("tracer")
    income, pop, merges, ranking = (str(seed5_inputs / name) for name in (
        "income.csv", "population.csv", "merges.csv", "ranking.csv"))
    argvs = [["report", "--input", income, "--population", pop, "--merges", merges],
             ["fit", "--input", ranking], ["fit", "--input", ranking, "--scale", "linear"],
             ["regime", "--input", str(_two_slope_scatter(tmp_path / "scatter.csv"))]]
    traced = tracer.Tracer()
    with traced.installed():
        codes = [cli.main([*argv, "--out", str(tmp_path / str(i))]) for i, argv in enumerate(argvs)]
    assert codes == [0] * len(argvs)
    assert list(traced.count_values()) == list(tracer.COUNT_METRICS)
    assert set(traced.counts) == {"ingest.rows", "rank.tie_groups", "corr.pairs", "fit.iterations",
                                  "fit.converged", "regime.iterations"}
