"""Command-line front end.

Chains the pipeline modules and writes plot-ready delimited files plus text
or machine-readable reports.  Identical configuration and inputs produce
byte-identical outputs; floats are formatted at 12 significant digits.
"""

from __future__ import annotations

import gc

if __name__ == "__main__":  # python -m ranklaw.cli: numpy's import collects nothing either
    gc.disable()

import argparse
import atexit
import contextlib
import fcntl
import os
import shutil
import sys
from pathlib import Path

import numpy as np

# every layer module is imported inside the functions that use it, so that a
# command pays the start-up cost only of the modules it runs
from . import __version__
from .errors import IngestError, PanelGapError, RanklawError
from .text import fmt, format_table, key_lines

SCHEMA_VERSION = 1
LOCK_NAME = ".ranklaw.lock"
STAGE_NAME = ".ranklaw.stage"


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
        (self.stage / name).write_text(text, encoding="utf-8")
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
def _naming(path: str):
    """Turn any RanklawError raised in the block, or a failure to read or decode,
    into one IngestError naming `path`.  A block holds only work on that file's
    data: every option is checked before it, so that no option's message names a file."""
    try:
        yield
    except RanklawError as exc:
        raise IngestError(f"{path}: {exc}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise IngestError(f"{path}: cannot read: {getattr(exc, 'strerror', None) or exc}") from None


def _load_panel(path: str) -> ingest.Panel:
    from . import ingest
    with _naming(path):
        return ingest.parse_panel(Path(path).read_text(encoding="utf-8"))


def _merged(panel: ingest.Panel, merges: str | None) -> ingest.Panel:
    """The panel with the merge ledger at path `merges` applied, if one is given."""
    if not merges:
        return panel
    from . import ingest
    with _naming(merges):
        ledger = ingest.parse_merge_ledger(Path(merges).read_text(encoding="utf-8"))
        return ingest.apply_merge_ledger(panel, ledger)


def _load_ranked(path: str, window: list[int] | None,
                 merges: str | None = None) -> tuple[rank.RankedSeries, bool]:
    """Load a ranked series from either an exported ranking file or a panel, and
    say whether it was a panel, the only input a --window applies to."""
    from . import rank, reader
    with _naming(path):
        text = Path(path).read_text(encoding="utf-8")
        if reader.is_ranking(text):
            if merges:
                raise IngestError("--merges needs a panel, not a ranking file")
            return rank.rank_desc(*reader.parse_ranking(text), rank.TieBreak.ENTITY_ID), False
        from . import ingest
        panel = ingest.parse_panel(text)
    panel = _merged(panel, merges)
    with _naming(path):
        averages = ingest.average_over_years(panel, window)
    return rank.rank_desc(panel.ids, averages, names=panel.names), True


def _check_amplitude(amplitude: float | None) -> None:
    """Refuse a bad --A before any input is read, so that its message names no file."""
    if amplitude is not None and not 0 < amplitude < float("inf"):
        raise RanklawError(f"amplitude A must be positive and finite; got {amplitude}")


def _machine_doc(section: str, pairs: dict) -> str:
    return key_lines({"schema_version": SCHEMA_VERSION, "section": section, **pairs})


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
            f"{a.region},{a.n_cities},{fmt(a.n_inhabitants)},{fmt(a.ati_mean)}\n"
            for a in aggregates))


def cmd_describe(args, out: OutputDir) -> None:
    from . import ingest, stats
    panel = _load_panel(args.input)
    with _naming(args.input):
        averages = ingest.average_over_years(panel, args.window)  # checks every year and cell first
        sections = [(f"[{year}]", year, stats.describe(panel.column(year)))
                    for year in args.window or panel.years]
        sections.append(("[window average]", "avg", stats.describe(averages)))
    if args.format == "machine":  # a repeated window year is one block here
        out.write("describe.txt", _machine_doc("describe", {
            f"{key}.{field}": value for _, key, summary in sections
            for field, value in stats.summary_key_values(summary).items()}))
    else:
        out.write("describe.txt", "\n".join(stats.format_summary(summary, label)
                                            for label, _, summary in sections))


def cmd_rank(args, out: OutputDir) -> None:
    from . import ingest, rank
    panel = _load_panel(args.input)
    with _naming(args.input):
        averages = ingest.average_over_years(panel, args.window)
    series = rank.rank_desc(panel.ids, averages, rank.TieBreak(args.ties), panel.names)
    out.write("ranked.csv", rank.export_ranked_series(series))


def cmd_corr(args, out: OutputDir) -> None:
    from . import corr, rank, stats
    x, x_panel = _load_ranked(args.input, args.window, args.merges)
    y, y_panel = _load_ranked(args.population, args.window)
    if args.window and not (x_panel or y_panel):
        raise IngestError(f"{args.input}, {args.population}: --window needs a panel")
    with _naming(args.population):
        pairs = rank.pair_ranks(x, y)
    ox, oy = pairs.positions  # Pearson pi is taken on the values, in id order
    with _naming(args.input):
        report = corr.correlation_report(pairs, x.values[ox], y.values[oy])
    doc = {
        "n": report.n, "p": report.p, "q": report.q,
        "p_plus_q": report.p + report.q, "p_minus_q": report.p - report.q,
        "ties_x": report.ties_x, "ties_y": report.ties_y,
        "kendall_tau": report.tau_a, "kendall_tau_b": report.tau_b,
        "sigma_tau": report.sigma_tau, "z": report.z,
        "spearman_rho": report.rho, "pearson_pi": report.pi,
    }
    out.write("corr.txt", _machine_doc("corr", doc) if args.format == "machine"
              else format_table(doc))
    _, summary, frac = rank.rank_diff_series(pairs)
    out.write("rank_diff.txt", stats.format_summary(summary, label="[rank difference r_y - r_x]")
              + f"fraction(<=0)  {fmt(frac)}\n")


def cmd_pairwise(args, out: OutputDir) -> None:
    from . import corr
    panel = _load_panel(args.input)
    with _naming(args.input):
        matrix = corr.pairwise_matrix(panel, args.window)
    out.write("pairwise_pq.csv", corr.format_pq_matrix(matrix))
    out.write("pairwise_tau_z.csv", corr.format_tau_z_matrix(matrix))


def cmd_fit(args, out: OutputDir) -> None:
    from . import fit
    if not 0 < args.threshold < float("inf"):
        raise RanklawError(f"--threshold must be positive and finite; got {args.threshold}")
    _check_amplitude(args.amplitude)
    ranked, panel = _load_ranked(args.input, args.window)
    if args.window and not panel:
        raise IngestError(f"{args.input}: --window needs a panel, not a ranking file")
    if not 0 <= args.drop_top < ranked.n:
        raise RanklawError(f"--drop-top must be in [0, {ranked.n - 1}] for --input {args.input}")
    series = fit.remove_top_outliers(ranked, args.drop_top)
    kind = fit.ModelKind(args.model)
    with _naming(args.input):  # every option is checked by now
        result = fit.fit_model(series, kind=kind, A=args.amplitude, scale=args.scale,
                               excluded=ranked.ids[:args.drop_top])
    out.write("fit_report.txt", fit.format_fit_report(result))
    out.write("fit_table.csv", fit.fit_table(series, result))
    outliers = fit.detect_outliers(series, result, threshold=args.threshold)
    out.write("fit_outliers.txt", "\n".join(outliers) + ("\n" if outliers else ""))


def cmd_regime(args, out: OutputDir) -> None:
    from . import reader, regime
    with _naming(args.input):
        text = Path(args.input).read_text(encoding="utf-8")
        points = regime.ScatterSet.from_points(reader.parse_scatter(text))
        split = regime.two_line_split(points, k=args.k_lines, outlier_ids=args.exclude)
        intercept, slope, r2, int_se, slope_se = regime.inertia_axis(points.x, points.y)
        axis = {"intercept": f"{fmt(intercept)} +/- {fmt(int_se)}",
                "slope": f"{fmt(slope)} +/- {fmt(slope_se)}", "r_squared": r2}
        if points.x.min() > 0 and points.y.min() > 0:
            axis["loglog_c"], axis["loglog_beta"], axis["loglog_r_squared"] = \
                regime.loglog_power_fit(points)
    out.write("regime_split.csv", regime.export_split(points, split))
    out.write("regime_axis.txt", key_lines(axis))


def cmd_simulate(args, out: OutputDir) -> None:
    from . import urnsim
    if args.replicates < 1:
        raise RanklawError(f"--replicates must be >= 1; got {args.replicates}")
    if args.seed < 0:
        raise RanklawError(f"--seed must be >= 0; got {args.seed}")
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
    """The report's sections, each ending in a line break, for entities `ids`, with
    names and both value arrays aligned with them: the correlation of the x and y
    rankings, the rank-size fit of x and the k-line split of (x, y)."""
    from . import corr, fit, rank, regime
    x = rank.rank_desc(ids, x_values, names=names)
    y = rank.rank_desc(ids, y_values, names=names)
    pairs = rank.pair_ranks(x, y)
    ox, oy = pairs.positions
    report = corr.correlation_report(pairs, x.values[ox], y.values[oy])
    result = fit.fit_model(x, kind=fit.ModelKind(args.model), A=args.amplitude,
                           scale=args.scale)
    split = regime.two_line_split(regime.ScatterSet(pairs.ids, x.values[ox], y.values[oy]),
                                  k=args.k_lines, outlier_ids=args.exclude)
    correlation = {"p+q": report.p + report.q, "p-q": report.p - report.q, "p": report.p,
                   "q": report.q, "Kendall tau": report.tau_a, "sigma_tau": report.sigma_tau,
                   "Z": report.z, "Spearman rho": report.rho, "Pearson Pi": report.pi}
    return [
        "[correlation]\n" + "".join(f"{key:<12} {fmt(value)}\n"
                                    for key, value in correlation.items()),
        "[rank-size fit]\n" + fit.format_fit_report(result),
        "[two-regime split]\n" + key_lines({
            "slopes": ",".join(map(fmt, split.slopes)), "overall_slope": split.overall_slope,
            "objective": split.objective, "degenerate": split.degenerate}),
    ]


def cmd_report(args, out: OutputDir) -> None:
    from . import ingest, rank, stats
    _check_amplitude(args.amplitude)
    ati = _merged(_load_panel(args.input), args.merges)
    pop = _load_panel(args.population)
    with _naming(args.input):
        means = ingest.average_over_years(ati, args.window)
        summary = stats.format_summary(stats.describe(means),
                                       label="[summary: window-average values]")
    with _naming(args.population):
        if not pop.years:
            raise IngestError("no census year: the panel has no entity rows")
        census = pop.values[:, -1]
        if np.isnan(census).any():
            raise IngestError(f"missing population for "
                              f"{pop.ids[np.argmax(np.isnan(census))]!r} in year {pop.years[-1]}")
        # the city level: every array aligned with the income panel's entities
        census = census[rank.positions_of(ati.ids, pop.ids)]
    with _naming(args.input):
        sections = _level_sections(ati.ids, ati.names, means, census, args)
    out.write("report.txt", "\n".join(
        [f"# ranklaw report (schema_version {SCHEMA_VERSION})\n", summary, *sections]))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ranklaw",
        description="Rank-size law fitting and rank correlation toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, needs_input=True, window=True):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        if needs_input:
            p.add_argument("--input", required=True, help="input data file")
        p.add_argument("--out", help="output directory (default $RANKLAW_OUT_DIR or .)")
        if window:
            p.add_argument("--window", type=int, nargs="*", default=None,
                           help="year window (default: all panel years)")
        return p

    def two_inputs(p):  # corr, report
        p.add_argument("--population", required=True,
                       help="population panel (or, in corr, a ranking file)")
        p.add_argument("--merges", help="merge ledger applied to the --input panel")

    # the choices of --model and --ties are the values of fit.ModelKind and
    # rank.TieBreak, spelled out so that building the parser imports neither module
    def model(p):  # fit, report
        p.add_argument("--model", choices=("lavalette3", "powerlaw", "cutoff"),
                       default="lavalette3")
        p.add_argument("--A", dest="amplitude", type=float, default=None,
                       help="fixed amplitude scale (default: order of magnitude of max)")
        p.add_argument("--scale", choices=["log", "linear"], default="log")

    def split(p):  # regime, report
        p.add_argument("--k-lines", dest="k_lines", type=int, choices=[2, 3], default=2)
        p.add_argument("--exclude", type=lambda s: tuple(s.split(",")) if s else (), default="",
                       help="comma-joined outlier entity ids")

    p = command("ingest", cmd_ingest, "parse, merge and serialize a panel", window=False)
    p.add_argument("--merges", help="merge ledger file")
    p.add_argument("--population", help="population panel for regional aggregation")

    p = command("describe", cmd_describe, "summary statistics per year column")
    p.add_argument("--format", choices=["text", "machine"], default="text")

    p = command("rank", cmd_rank, "rank entities by window-average value")
    p.add_argument("--ties", choices=("lexical", "id", "average"), default="lexical")

    p = command("corr", cmd_corr, "rank correlation between two inputs")
    p.add_argument("--format", choices=["text", "machine"], default="text")
    two_inputs(p)

    command("pairwise", cmd_pairwise, "year-pair Kendall matrices for one panel")

    p = command("fit", cmd_fit, "fit a rank-size model")
    model(p)
    p.add_argument("--drop-top", dest="drop_top", type=int, default=0,
                   help="remove the top K ranks before fitting")
    p.add_argument("--threshold", type=float, default=3.0,
                   help="outlier detection threshold in residual sigmas")

    split(command("regime", cmd_regime, "two-regime split of a scatter file", window=False))

    p = command("simulate", cmd_simulate, "preferential-attachment urn simulation",
                needs_input=False, window=False)
    p.add_argument("--urns", type=int, required=True)
    p.add_argument("--balls", type=int, required=True)
    p.add_argument("--a", dest="offset", type=float, default=1.0,
                   help="attachment offset")
    p.add_argument("--k0", type=int, default=1, help="initial balls per urn")
    p.add_argument("--capacity", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--replicates", type=int, default=1)

    p = command("report", cmd_report, "full pipeline report")
    two_inputs(p)
    model(p)
    split(p)
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
    """The program entry: main() with the collector off, then os._exit().

    When main() returns, its outputs are committed and the lock released; the
    atexit handlers (weakref.finalize callbacks too) run on a frozen heap and
    stdout and stderr are flushed, a failed flush silently, before os._exit()
    skips module teardown.  An exception out of main() exits normally.
    """
    gc.disable()  # a command keeps what it builds to its end, so collecting frees nothing
    code = main()
    gc.freeze()
    atexit._run_exitfuncs()
    for stream in (sys.stdout, sys.stderr):
        with contextlib.suppress(OSError, ValueError):
            stream.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
