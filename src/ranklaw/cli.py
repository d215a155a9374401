"""Command-line front end.

Chains the pipeline modules and writes plot-ready delimited files plus text
or machine-readable reports.  Identical configuration and inputs produce
byte-identical outputs; floats are formatted at 12 significant digits.
"""

from __future__ import annotations

import argparse
import contextlib
import fcntl
import gc
import os
import shutil
import sys
from pathlib import Path

import numpy as np

# every layer module is imported inside the functions that use it, so that a
# command pays the start-up cost only of the modules it runs
from . import __version__
from .errors import (CorrelationError, FitError, IngestError, PanelGapError, RanklawError,
                     RegimeError, StatsError)

SCHEMA_VERSION = 1
LOCK_NAME = ".ranklaw.lock"
STAGE_NAME = ".ranklaw.stage"


def _fmt(v: float) -> str:
    return format(v, ".12g")


class OutputDir:
    """Stages one run's files so only a finished run's outputs reach the directory.

    A run holds a flock on the lock file until release() (POSIX only), so a
    killed run's lock file blocks no later run.  write() puts each file into
    a fresh staging directory inside the output directory; commit() moves
    them into place and release() discards whatever is left, so a failed run
    leaves the previous outputs untouched.  An existing output is unlinked
    before the new file is renamed onto its free name, never truncated or
    renamed over: on ext4 with auto_da_alloc, replacing a non-empty file
    either way forces the new file's writeback.
    """

    def __init__(self, path: Path):
        self.path = path
        path.mkdir(parents=True, exist_ok=True)
        self.lock = path / LOCK_NAME
        self.fd = os.open(self.lock, os.O_CREAT | os.O_WRONLY)
        try:
            fcntl.flock(self.fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            if not self._holds_path():  # the run that held it unlinked it on release
                raise BlockingIOError
        except OSError as exc:
            os.close(self.fd)
            if isinstance(exc, BlockingIOError):
                raise RanklawError(f"output directory locked by another run: {self.lock}") \
                    from None
            raise
        self.stage = path / STAGE_NAME
        self.staged: list[str] = []
        try:
            shutil.rmtree(self.stage, ignore_errors=True)  # left by a killed run
            self.stage.mkdir()
        except BaseException:
            self.release()
            raise

    def write(self, name: str, text: str) -> None:
        (self.stage / name).write_text(text)
        self.staged.append(name)

    def commit(self) -> None:
        for name in self.staged:
            target = self.path / name
            target.unlink(missing_ok=True)
            os.rename(self.stage / name, target)

    def _holds_path(self) -> bool:
        """Whether the lock file's path still names the file this run locked."""
        with contextlib.suppress(FileNotFoundError):
            return os.path.samestat(os.fstat(self.fd), os.stat(self.lock))
        return False

    def release(self) -> None:
        shutil.rmtree(self.stage, ignore_errors=True)
        if self._holds_path():
            self.lock.unlink()
        os.close(self.fd)


@contextlib.contextmanager
def _naming(path: str, *errors: type[RanklawError]):
    """Prefix an IngestError, or one of `errors`, raised in the block with the file it concerns.

    Every input file is read in such a block, so a file that cannot be read
    or decoded raises one IngestError naming it, as a fault in its rows does.
    """
    try:
        yield
    except (IngestError, *errors) as exc:
        raise IngestError(f"{path}: {exc}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise IngestError(f"{path}: cannot read: {getattr(exc, 'strerror', None) or exc}") from None


def _load_panel(path: str) -> ingest.Panel:
    from . import ingest
    with _naming(path):
        return ingest.parse_panel(Path(path).read_text())


def _merged(panel: ingest.Panel, merges: str | None) -> ingest.Panel:
    """The panel with the merge ledger at path `merges` applied, if one is given."""
    if not merges:
        return panel
    from . import ingest
    with _naming(merges):
        ledger = ingest.parse_merge_ledger(Path(merges).read_text())
        return ingest.apply_merge_ledger(panel, ledger)


def _load_ranked(path: str, window: list[int] | None,
                 merges: str | None = None) -> rank.RankedSeries:
    """Load a ranked series from either an exported ranking file or a panel."""
    from . import rank, reader
    with _naming(path):
        text = Path(path).read_text()
        if reader.is_ranking(text):
            if merges:
                raise IngestError("--merges needs a panel, not a ranking file")
            values = reader.parse_ranking(text)
            return rank.rank_desc(tuple(values), list(values.values()), rank.TieBreak.ENTITY_ID)
        from . import ingest
        panel = ingest.parse_panel(text)
    panel = _merged(panel, merges)
    with _naming(path):
        averages = ingest.average_over_years(panel, window)
    return rank.rank_desc(panel.ids, averages, names=panel.names)


def _load_scatter(path: str) -> regime.ScatterSet:
    from . import reader, regime
    with _naming(path):
        return regime.ScatterSet.from_points(reader.parse_scatter(Path(path).read_text()))


def _check_amplitude(amplitude: float | None) -> None:
    """Refuse a bad --A before any input is read, so that its message names no file."""
    if amplitude is not None and not 0 < amplitude < float("inf"):
        raise RanklawError(f"amplitude A must be positive and finite; got {amplitude}")


def _machine_doc(section: str, pairs: dict) -> str:
    lines = [f"schema_version: {SCHEMA_VERSION}", f"section: {section}"]
    for key, value in pairs.items():
        if isinstance(value, float):
            value = _fmt(value)
        lines.append(f"{key}: {value}")
    return "\n".join(lines) + "\n"


def cmd_ingest(args, out: OutputDir) -> None:
    from . import ingest
    panel = _merged(_load_panel(args.input), args.merges)
    out.write("panel.csv", ingest.serialize_panel(panel))
    if args.population:
        pop = _load_panel(args.population)
        try:
            aggregates = ingest.aggregate_by_region(panel, pop)
        except PanelGapError as exc:
            path = args.population if exc.panel is pop else args.input
            raise IngestError(f"{path}: {exc}") from None
        out.write("regions.csv", "region,n_cities,n_inhabitants,ati_mean\n" + "".join(
            f"{a.region},{a.n_cities},{_fmt(a.n_inhabitants)},{_fmt(a.ati_mean)}\n"
            for a in aggregates))


def cmd_describe(args, out: OutputDir) -> None:
    from . import ingest, stats
    panel = _load_panel(args.input)
    with _naming(args.input):  # checks every window year and cell first
        averages = ingest.average_over_years(panel, args.window)
    sections = []
    machine: dict = {}
    with _naming(args.input, StatsError):
        for year in args.window or panel.years:
            summary = stats.describe(panel.column(year))
            sections.append(stats.format_summary(summary, label=f"[{year}]"))
            for key, value in stats.summary_key_values(summary).items():
                machine[f"{year}.{key}"] = value
        summary = stats.describe(averages)
    sections.append(stats.format_summary(summary, label="[window average]"))
    for key, value in stats.summary_key_values(summary).items():
        machine[f"avg.{key}"] = value
    if args.format == "machine":
        out.write("describe.txt", _machine_doc("describe", machine))
    else:
        out.write("describe.txt", "\n".join(sections))


def cmd_rank(args, out: OutputDir) -> None:
    from . import ingest, rank
    panel = _load_panel(args.input)
    with _naming(args.input):
        averages = ingest.average_over_years(panel, args.window)
    series = rank.rank_desc(panel.ids, averages, rank.TieBreak(args.ties), panel.names)
    out.write("ranked.csv", rank.export_ranked_series(series))


def _correlate(x: rank.RankedSeries, y: rank.RankedSeries):
    """(rank pairs, correlation report) of two ranked series; Pearson pi is
    taken on their values, in the pairs' order by entity id."""
    from . import corr, rank
    pairs = rank.pair_ranks(x, y)
    ox, oy = pairs.positions
    return pairs, corr.correlation_report(pairs, x.values[ox], y.values[oy])


def cmd_corr(args, out: OutputDir) -> None:
    from . import rank, stats
    x = _load_ranked(args.input, args.window, args.merges)
    y = _load_ranked(args.population, args.window)
    with _naming(args.input, CorrelationError):
        pairs, report = _correlate(x, y)
    doc = {
        "n": report.n, "p": report.p, "q": report.q,
        "p_plus_q": report.p + report.q, "p_minus_q": report.p - report.q,
        "ties_x": report.ties_x, "ties_y": report.ties_y,
        "kendall_tau": report.tau_a, "kendall_tau_b": report.tau_b,
        "sigma_tau": report.sigma_tau, "z": report.z,
        "spearman_rho": report.rho, "pearson_pi": report.pi,
    }
    if args.format == "machine":
        out.write("corr.txt", _machine_doc("corr", doc))
    else:
        width = max(len(k) for k in doc)
        body = "\n".join(
            f"{k:<{width}}  {_fmt(v) if isinstance(v, float) else v}"
            for k, v in doc.items()
        )
        out.write("corr.txt", body + "\n")
    diffs, summary, frac = rank.rank_diff_series(pairs)
    diff_doc = stats.format_summary(summary, label="[rank difference r_y - r_x]")
    diff_doc += f"fraction(<=0)  {_fmt(frac)}\n"
    out.write("rank_diff.txt", diff_doc)


def cmd_pairwise(args, out: OutputDir) -> None:
    from . import corr
    panel = _load_panel(args.input)
    with _naming(args.input, CorrelationError):
        matrix = corr.pairwise_matrix(panel, args.window)
    out.write("pairwise_pq.csv", corr.format_pq_matrix(matrix))
    out.write("pairwise_tau_z.csv", corr.format_tau_z_matrix(matrix))


def cmd_fit(args, out: OutputDir) -> None:
    from . import fit
    if not 0 < args.threshold < float("inf"):
        raise RanklawError(f"--threshold must be positive and finite; got {args.threshold}")
    _check_amplitude(args.amplitude)
    ranked = _load_ranked(args.input, args.window)
    series = fit.remove_top_outliers(ranked, args.drop_top)
    kind = fit.ModelKind(args.model)
    with _naming(args.input, FitError):  # every option is checked by now
        result = fit.fit_model(series, kind=kind, A=args.amplitude, scale=args.scale,
                               excluded=ranked.ids[:args.drop_top])
    out.write("fit_report.txt", fit.format_fit_report(result))
    out.write("fit_table.csv", fit.fit_table(series, result))
    outliers = fit.detect_outliers(series, result, threshold=args.threshold)
    out.write("fit_outliers.txt", "\n".join(outliers) + ("\n" if outliers else ""))


def cmd_regime(args, out: OutputDir) -> None:
    from . import regime
    points = _load_scatter(args.input)
    exclude = tuple(args.exclude.split(",")) if args.exclude else ()
    with _naming(args.input, RegimeError):
        split = regime.two_line_split(points, k=args.k_lines, outlier_ids=exclude)
        intercept, slope, r2, int_se, slope_se = regime.inertia_axis(points)
        lines = [
            f"intercept: {_fmt(intercept)} +/- {_fmt(int_se)}",
            f"slope: {_fmt(slope)} +/- {_fmt(slope_se)}",
            f"r_squared: {_fmt(r2)}",
        ]
        if points.x.min() > 0 and points.y.min() > 0:
            c, beta, r2log = regime.loglog_power_fit(points)
            lines += [
                f"loglog_c: {_fmt(c)}",
                f"loglog_beta: {_fmt(beta)}",
                f"loglog_r_squared: {_fmt(r2log)}",
            ]
    out.write("regime_split.csv", regime.export_split(points, split))
    out.write("regime_axis.txt", "\n".join(lines) + "\n")


def cmd_simulate(args, out: OutputDir) -> None:
    from . import urnsim
    if args.replicates < 1:
        raise RanklawError(f"--replicates must be >= 1; got {args.replicates}")
    config = urnsim.UrnConfig(
        n_urns=args.urns, total_balls=args.balls, a=args.offset,
        k0=args.k0, capacity=args.capacity, seed=args.seed,
    )
    if args.replicates > 1:
        rows = urnsim.replicate_occupancies(config, args.replicates)
        out.write("simulate_summary.csv", urnsim.export_replicate_summary(rows))
    outcome = urnsim.simulate_urns(config)
    out.write("occupancy.csv", urnsim.export_outcome(outcome))


def _level_sections(ids, names, x_values, y_values, args) -> list[str]:
    """The report's sections for entities `ids`, with names and both value
    arrays aligned with them: the correlation of the x and y rankings, the
    rank-size fit of x and the k-line split of (x, y)."""
    from . import fit, rank, regime
    x = rank.rank_desc(ids, x_values, names=names)
    y = rank.rank_desc(ids, y_values, names=names)
    pairs, report = _correlate(x, y)
    result = fit.fit_model(x, kind=fit.ModelKind(args.model), A=args.amplitude,
                           scale=args.scale)
    ox, oy = pairs.positions
    exclude = tuple(args.exclude.split(",")) if args.exclude else ()
    split = regime.two_line_split(regime.ScatterSet(pairs.ids, x.values[ox], y.values[oy]),
                                  k=args.k_lines, outlier_ids=exclude)
    correlation = {"p+q": report.p + report.q, "p-q": report.p - report.q, "p": report.p,
                   "q": report.q, "Kendall tau": _fmt(report.tau_a),
                   "sigma_tau": _fmt(report.sigma_tau), "Z": _fmt(report.z),
                   "Spearman rho": _fmt(report.rho), "Pearson Pi": _fmt(report.pi)}
    return [
        "[correlation]",
        *(f"{key:<12} {value}" for key, value in correlation.items()),
        "",
        "[rank-size fit]",
        fit.format_fit_report(result),
        "[two-regime split]",
        "slopes: " + ",".join(_fmt(s) for s in split.slopes),
        f"overall_slope: {_fmt(split.overall_slope)}",
        f"objective: {_fmt(split.objective)}",
        f"degenerate: {str(split.degenerate).lower()}",
    ]


def cmd_report(args, out: OutputDir) -> None:
    from . import ingest, rank, stats
    _check_amplitude(args.amplitude)
    ati = _merged(_load_panel(args.input), args.merges)
    pop = _load_panel(args.population)
    with _naming(args.input, StatsError):
        means = ingest.average_over_years(ati, args.window)
        summary = stats.format_summary(stats.describe(means),
                                       label="[summary: window-average values]")
    if not pop.years:
        raise IngestError(f"{args.population}: no census year: the panel has no entity rows")
    census = pop.values[:, -1]
    if np.isnan(census).any():
        raise IngestError(f"{args.population}: missing population for "
                          f"{pop.ids[np.argmax(np.isnan(census))]!r} in year {pop.years[-1]}")
    # the city level: every array aligned with the income panel's entities
    with _naming(args.input, CorrelationError, FitError, RegimeError, StatsError):
        census = census[rank.positions_of(ati.ids, pop.ids)]
        sections = _level_sections(ati.ids, ati.names, means, census, args)
    out.write("report.txt", "\n".join(
        [f"# ranklaw report (schema_version {SCHEMA_VERSION})", "", summary, *sections]) + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ranklaw",
        description="Rank-size law fitting and rank correlation toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input=True, window=True):
        if needs_input:
            p.add_argument("--input", required=True, help="input data file")
        p.add_argument("--out", default=None,
                       help="output directory (default $RANKLAW_OUT_DIR or .)")
        if window:
            p.add_argument("--window", type=int, nargs="*", default=None,
                           help="year window (default: all panel years)")

    p = sub.add_parser("ingest", help="parse, merge and serialize a panel")
    common(p, window=False)
    p.add_argument("--merges", help="merge ledger file")
    p.add_argument("--population", help="population panel for regional aggregation")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("describe", help="summary statistics per year column")
    common(p)
    p.add_argument("--format", choices=["text", "machine"], default="text")
    p.set_defaults(func=cmd_describe)

    p = sub.add_parser("rank", help="rank entities by window-average value")
    common(p)
    # the values of rank.TieBreak and fit.ModelKind, spelled out so that
    # building the parser imports neither module
    p.add_argument("--ties", choices=("lexical", "id", "average"), default="lexical")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("corr", help="rank correlation between two inputs")
    common(p)
    p.add_argument("--format", choices=["text", "machine"], default="text")
    p.add_argument("--population", required=True,
                   help="second input (ranking file or panel)")
    p.add_argument("--merges", help="merge ledger applied to the --input panel")
    p.set_defaults(func=cmd_corr)

    p = sub.add_parser("pairwise", help="year-pair Kendall matrices for one panel")
    common(p)
    p.set_defaults(func=cmd_pairwise)

    p = sub.add_parser("fit", help="fit a rank-size model")
    common(p)
    p.add_argument("--model", choices=("lavalette3", "powerlaw", "cutoff"),
                   default="lavalette3")
    p.add_argument("--A", dest="amplitude", type=float, default=None,
                   help="fixed amplitude scale (default: order of magnitude of max)")
    p.add_argument("--scale", choices=["log", "linear"], default="log")
    p.add_argument("--drop-top", dest="drop_top", type=int, default=0,
                   help="remove the top K ranks before fitting")
    p.add_argument("--threshold", type=float, default=3.0,
                   help="outlier detection threshold in residual sigmas")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("regime", help="two-regime split of a scatter file")
    common(p, window=False)
    p.add_argument("--k-lines", dest="k_lines", type=int, choices=[2, 3], default=2)
    p.add_argument("--exclude", default="", help="comma-joined outlier entity ids")
    p.set_defaults(func=cmd_regime)

    p = sub.add_parser("simulate", help="preferential-attachment urn simulation")
    common(p, needs_input=False, window=False)
    p.add_argument("--urns", type=int, required=True)
    p.add_argument("--balls", type=int, required=True)
    p.add_argument("--a", dest="offset", type=float, default=1.0,
                   help="attachment offset")
    p.add_argument("--k0", type=int, default=1, help="initial balls per urn")
    p.add_argument("--capacity", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--replicates", type=int, default=1)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("report", help="full pipeline report")
    common(p)
    p.add_argument("--population", required=True)
    p.add_argument("--merges", default=None)
    p.add_argument("--model", choices=("lavalette3", "powerlaw", "cutoff"),
                   default="lavalette3")
    p.add_argument("--A", dest="amplitude", type=float, default=None)
    p.add_argument("--scale", choices=["log", "linear"], default="log")
    p.add_argument("--k-lines", dest="k_lines", type=int, choices=[2, 3], default=2)
    p.add_argument("--exclude", default="")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    out_path = Path(args.out or os.environ.get("RANKLAW_OUT_DIR") or ".")
    try:
        out = OutputDir(out_path)
    except (RanklawError, OSError) as exc:
        print(f"ranklaw: {exc}", file=sys.stderr)
        return 1
    try:
        # a floating-point fault is an internal error, unless a local np.errstate allows it
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            args.func(args, out)
        out.commit()
    except (RanklawError, OSError, ValueError) as exc:
        print(f"ranklaw: {args.command}: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # a fault of ranklaw itself
        print(f"ranklaw: {args.command}: internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 1
    finally:
        out.release()
    return 0


def run() -> None:
    """The program entry: main(), then exit without the interpreter's teardown collections.

    At shutdown the interpreter runs full garbage collections over every
    container object numpy and the standard library hold, which took longer
    than a small command's own work.  gc.freeze() moves them all into the
    permanent generation, which no collection visits; atexit handlers, the
    stdio flushes and module teardown still run.  main() never freezes, so a
    caller that runs it in-process keeps its collector as it was.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
