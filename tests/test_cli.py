import pytest

from ranklaw import cli, rank
from ranklaw.errors import RanklawError
from tests.conftest import LONG_PANEL, REGION_COUNTS_2011


def _write_region_ranking(path):
    values = {f"reg{i:02d}": float(v) for i, v in enumerate(REGION_COUNTS_2011)}
    series = rank.rank_desc(values, rule=rank.TieBreak.ENTITY_ID)
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


def test_lock_file_blocks_concurrent_run(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / cli.LOCK_NAME).write_text("999999")
    code = cli.main(["simulate", "--urns", "2", "--balls", "3", "--out", str(out)])
    assert code == 1
    # the foreign lock is left in place
    assert (out / cli.LOCK_NAME).exists()


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
def test_error_after_a_write_keeps_previous_outputs(tmp_path, monkeypatch, error):
    out = tmp_path / "out"
    assert cli.main(_corr_argv(tmp_path, tmp_path / "panel.csv")) == 0
    before = (out / "corr.txt").read_bytes()

    def crash(args, outdir):
        outdir.write("corr.txt", "partial\n")
        raise error("boom")

    # main binds each subcommand when building its parser
    monkeypatch.setattr(cli, "cmd_corr", crash)
    if error is RanklawError:
        assert cli.main(_corr_argv(tmp_path, tmp_path / "panel.csv")) == 1
    else:
        with pytest.raises(RuntimeError):
            cli.main(_corr_argv(tmp_path, tmp_path / "panel.csv"))
    assert (out / "corr.txt").read_bytes() == before
    assert sorted(p.name for p in out.iterdir()) == ["corr.txt", "rank_diff.txt"]


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
    assert err == "ranklaw: regime: outlier ids not in the scatter: 2 ids: 'b9', 'zz'\n"
    assert list(out.iterdir()) == []


def test_report_rejects_an_unknown_exclude_id(tmp_path, capsys):
    ati = tmp_path / "ati.csv"
    ati.write_text("entity_id,name,region,province,2007,2008\n" + "".join(
        f"c{i},N{i},R{i % 2},P1,{100 * i + 7 * (i % 3)},{110 * i}\n" for i in range(1, 9)))
    out = tmp_path / "out"
    assert cli.main(["report", "--input", str(ati), "--population", str(ati),
                     "--out", str(out)]) == 0
    assert cli.main(["report", "--input", str(ati), "--population", str(ati),
                     "--exclude", "c1,zz", "--out", str(out / "x")]) == 1
    err = capsys.readouterr().err
    assert err == "ranklaw: report: outlier ids not in the scatter: 1 ids: 'zz'\n"
    assert list((out / "x").iterdir()) == []


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
