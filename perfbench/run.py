"""Paper-scale benchmark of the ranklaw command line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper_tables --seed 1 --seconds 15 --trace 0

With --trace 0 every command runs as a `python -m ranklaw.cli` subprocess,
one after another (a closed loop with one client), and the end-to-end
metrics are medians over passes.  With --trace 1 the same argv runs
in-process through ranklaw.cli.main with the layer modules wrapped (see
tracer.py) and the per-layer metrics are reported.  Either way the first
successful output of every command is checked against the oracles in
oracles.py and every later pass must reproduce it byte for byte.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it are a readable report
with every metric, its unit and the environment.  Workload rationale and the
per-layer to end-to-end mapping are in README.md next to this file.
"""

from __future__ import annotations

import os

# single-threaded numpy in this process and in every child, so the two cores
# are not contended by BLAS worker threads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import math
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import inputs
import oracles
import tracer

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 3      # setup_s is the median of this many set-ups
MIN_PASSES = 3         # measured passes even when --seconds is short
IMPORT_PROBES = 5      # interpreter start-up pairs behind cli.import_ms
# A fixed program that shares no code with ranklaw and does the kinds of work
# a command does: interpreter start-up, the numpy import, csv parsing into a
# dict, a sort, an interpreted loop and a numpy sort.  In measured passes it
# runs before every command and after the last.  The host's speed drifts by
# tens of percent over tens of seconds; dividing each command by the mean of
# the two reference runs around it cancels much of that drift.
REFERENCE = """
import csv, io
import numpy as np
text = "\\n".join(f"c{i:05d},N{i},R{i % 20},{i * 7919 % 100003}" for i in range(12000))
rows = {r[0]: float(r[3]) for r in csv.reader(io.StringIO(text))}
order = sorted(rows, key=lambda k: (-rows[k], k))
s = 0
for i in range(50000):
    s += i * i % 7
np.sort(np.random.default_rng(0).random(300000))
"""

FIT_MODELS = ("lavalette3", "powerlaw", "cutoff")
# the (model, scale) paths that converged on every seed tried (over 40); of the
# other two, cutoff/log always aborts and lavalette3/linear stops unconverged
# on some seeds, so they run only in fit_sweep
FIT_STABLE = (("lavalette3", "log"), ("powerlaw", "log"), ("powerlaw", "linear"),
              ("cutoff", "linear"))


@dataclass(frozen=True)
class Op:
    """One ranklaw command: its argv, the metric it feeds and its output check."""

    label: str
    metric: str
    argv: tuple[str, ...]
    out: Path
    check: Callable[[Path], list[str]]


@dataclass
class OpRun:
    wall_s: float
    code: int | None          # None: an exception escaped cli.main
    rss_mb: float
    stderr: str


def _paper_tables(seed: int, data: Path, out: Path) -> list[Op]:
    given = oracles.Inputs(data)
    income, pop, merges = (str(data / f) for f in ("income.csv", "population.csv", "merges.csv"))
    return [
        Op("report", "report_s", ("report", "--input", income, "--population", pop, "--merges", merges,
                        "--out", str(out / "report")), out / "report",
           lambda d: oracles.check_report(given, d)),
        Op("pairwise", "pairwise_s", ("pairwise", "--input", income, "--out", str(out / "pairwise")),
           out / "pairwise", lambda d: oracles.check_pairwise(given, d)),
        Op("ingest", "ingest_s", ("ingest", "--input", income, "--merges", merges, "--population", pop,
                        "--out", str(out / "ingest")), out / "ingest",
           lambda d: oracles.check_ingest(given, d)),
    ]


def _fits(paths):
    def build(seed: int, data: Path, out: Path) -> list[Op]:
        given = oracles.Inputs(data)
        ops = []
        for kind, scale in paths:
            d = out / f"fit_{kind}_{scale}"
            ops.append(Op(f"fit {kind}/{scale}", "fit_s", ("fit", "--input", str(data / "ranking.csv"), "--model", kind,
                                    "--scale", scale, "--out", str(d)), d,
                          lambda d, k=kind, s=scale: oracles.check_fit(given, d, k, s)))
        return ops
    return build


def _urns(seed: int, data: Path, out: Path) -> list[Op]:
    return [Op("simulate", "simulate_s", ("simulate", "--urns", "20", "--balls", "10000", "--a", "1",
                              "--replicates", "100", "--seed", str(seed),
                              "--out", str(out / "urns")), out / "urns",
               lambda d: oracles.check_simulate(d, 20, 10000, replicates=100))]


def _urns_capped(seed: int, data: Path, out: Path) -> list[Op]:
    return [Op("simulate capped", "simulate_capped_s", ("simulate", "--urns", "8092", "--balls", "100000",
                                     "--capacity", "30", "--seed", str(seed),
                                     "--out", str(out / "capped")), out / "capped",
               lambda d: oracles.check_simulate(d, 8092, 100000, capacity=30))]


WORKLOADS = {
    "paper_tables": _paper_tables,
    "fit": _fits(FIT_STABLE),
    "fit_sweep": _fits([(m, s) for m in FIT_MODELS for s in ("log", "linear")]),
    "urns": _urns,
    "urns_capped": _urns_capped,
}


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_subprocess(op: Op, log: Path) -> OpRun:
    """Run one command as `python -m ranklaw.cli`; reap it with wait4 for its RSS."""
    with open(log, "w+") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "ranklaw.cli", *op.argv], cwd=ROOT,
                                env=_child_env(), stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return OpRun(wall, proc.returncode, usage.ru_maxrss / 1024.0, err.read())


def run_inprocess(op: Op, log: Path) -> OpRun:
    """Run one command through ranklaw.cli.main in this interpreter."""
    from ranklaw import cli

    err = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stderr(err):
            code = cli.main(list(op.argv))
    except Exception:
        code = None
        err.write(traceback.format_exc())
    return OpRun(time.perf_counter() - start, code, 0.0, err.getvalue())


def tree_digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(str(f.relative_to(path)).encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


@dataclass
class Ledger:
    """Every operation of a run: outcomes, verified digests and problems."""

    verified: dict[int, str] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    wrong: list[str] = field(default_factory=list)
    failures: Counter = field(default_factory=Counter)    # "label: reason" -> times

    def judge(self, index: int, op: Op, run: OpRun) -> bool:
        """Record one operation; True when it succeeded with a correct output."""
        self.attempted += 1
        reason = None
        if run.code != 0 or "Traceback" in run.stderr:
            last = run.stderr.strip().splitlines()[-1:] or [""]
            reason = f"exit {run.code}: {last[0]}"
        elif index in self.verified:
            if tree_digest(op.out) != self.verified[index]:
                self.wrong.append(f"{op.label}: output differs from the verified pass")
                reason = "output differs"
        else:
            problems = op.check(op.out)
            if problems == [oracles.NOT_CONVERGED]:
                reason = oracles.NOT_CONVERGED
            elif problems:
                self.wrong.extend(problems)
                reason = "wrong output"
            else:
                self.verified[index] = tree_digest(op.out)
        if reason is not None:
            self.failed += 1
            self.failures[f"{op.label}: {reason}"] += 1
        return reason is None


@dataclass
class Pass:
    """One run of every op of a workload, in order."""

    metrics: list[str] = field(default_factory=list)   # command metric of each op
    walls: list[float] = field(default_factory=list)
    ok: list[bool] = field(default_factory=list)
    rss_mb: list[float] = field(default_factory=list)
    reference_s: list[float] = field(default_factory=list)   # before each op and after the last

    @property
    def wall_s(self) -> float:
        return sum(self.walls)

    @property
    def _per_success(self) -> float:
        """attempted / succeeded, so an abort does not read as a fast pass."""
        return len(self.ok) / sum(self.ok) if any(self.ok) else math.inf

    @property
    def pass_s(self) -> float:
        return self.wall_s * self._per_success

    @property
    def pass_rel(self) -> float:
        """Each op over the mean of the reference runs that bracket it, summed."""
        refs = self.reference_s
        return sum(2 * w / (a + b) for w, a, b in zip(self.walls, refs, refs[1:])) \
            * self._per_success

    def command_s(self, metric: str) -> float | None:
        """Wall time of the metric's ops divided by their successes."""
        mine = [(w, ok) for m, w, ok in zip(self.metrics, self.walls, self.ok) if m == metric]
        successes = sum(ok for _, ok in mine)
        return sum(w for w, _ in mine) / successes if successes else None


def run_reference() -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", REFERENCE], cwd=ROOT, env=_child_env(), check=True)
    return time.perf_counter() - start


def run_pass(ops: list[Op], ledger: Ledger, runner, log: Path, paired: bool = False) -> Pass:
    """Run every op once; with paired, reference runs bracket every op."""
    result = Pass()
    if paired:
        result.reference_s.append(run_reference())
    for i, op in enumerate(ops):
        op.out.mkdir(parents=True, exist_ok=True)
        run = runner(op, log)
        if paired:
            result.reference_s.append(run_reference())
        result.metrics.append(op.metric)
        result.walls.append(run.wall_s)
        result.ok.append(ledger.judge(i, op, run))
        result.rss_mb.append(run.rss_mb)
    return result


def generate_inputs(data: Path, seed: int, ledger: Ledger, digests: list[str]) -> float:
    """Write the inputs; every re-generation must give the bytes of the first."""
    start = time.perf_counter()
    inputs.generate(data, seed)
    elapsed = time.perf_counter() - start
    digests.append(tree_digest(data))
    if digests[-1] != digests[0]:
        ledger.wrong.append("the same seed wrote different input bytes")
    return elapsed


def provenance(args) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    src_lines = sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))
    return {"commit": commit, "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "python": platform.python_version(), "numpy": np.__version__,
            "cpu_count": os.cpu_count(), "src_lines": src_lines}


def median(values) -> float:
    return statistics.median(values) if values else float("nan")


def measure(args, ops: list[Op], ledger: Ledger, data: Path, log: Path) -> tuple[dict, list[str]]:
    """Untraced subprocess passes: set-up repeats, then passes for --seconds."""
    digests: list[str] = []
    setups = []
    for _ in range(SETUP_REPEATS):
        gen_s = generate_inputs(data, args.seed, ledger, digests)
        setups.append(gen_s + run_pass(ops, ledger, run_subprocess, log).wall_s)

    # each vCPU of the host slows down independently of the other, so a pass and
    # the reference runs around its commands share one core; passes alternate
    cpus = sorted(os.sched_getaffinity(0))
    passes: list[Pass] = []
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or len(passes) < MIN_PASSES:
        os.sched_setaffinity(0, {cpus[len(passes) % len(cpus)]})
        try:
            passes.append(run_pass(ops, ledger, run_subprocess, log, paired=True))
        finally:
            os.sched_setaffinity(0, cpus)

    metrics = {"setup_s": (median(setups), "s"),
               "pass_rel": (median([p.pass_rel for p in passes]), "ratio"),
               "peak_rss_mb": (median([max(p.rss_mb) for p in passes]), "MB")}
    attempted = sum(len(p.ok) for p in passes)
    failed = attempted - sum(sum(p.ok) for p in passes)
    lines = [f"passes: {len(passes)} measured after {SETUP_REPEATS} set-ups",
             f"{'pass_s':<20} {median([p.pass_s for p in passes]):.6f} s",
             f"{'reference_s':<20} {median([sum(p.reference_s) for p in passes]):.6f} s"]
    for name in dict.fromkeys(op.metric for op in ops):
        per_pass = [v for v in (p.command_s(name) for p in passes) if v is not None]
        lines.append(f"{name:<20} {median(per_pass):.6f} s  (median of {len(per_pass)} passes)")
    lines.append(f"{'failed_frac':<20} {failed / attempted:.6f} ratio  ({attempted} operations)")
    return metrics, lines


def trace(args, ops: list[Op], ledger: Ledger, data: Path, log: Path) -> tuple[dict, list[str]]:
    """In-process passes, alternately traced and untraced, plus the import probe."""
    sys.path.insert(0, str(SRC))
    generate_inputs(data, args.seed, ledger, [])
    run_pass(ops, ledger, run_inprocess, log)            # warm-up and oracle check

    plain, traced, self_ms, counts, spans = [], [], [], [], []
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or len(traced) < MIN_PASSES:
        plain.append(run_pass(ops, ledger, run_inprocess, log).wall_s)
        t = tracer.Tracer()
        with t.installed():
            traced.append(run_pass(ops, ledger, run_inprocess, log).wall_s)
        self_ms.append(t.self_ms())
        counts.append(t.count_values())
        spans.append(t.span_records())
    if any(c != counts[0] for c in counts):
        ledger.wrong.append(f"per-layer counts differ between traced passes: {counts}")
    (WORK / f"spans_{args.workload}.json").write_text(json.dumps(spans[-1]))

    probe = {"bare": [], "import": []}
    for _ in range(IMPORT_PROBES):
        for key, code in (("bare", "pass"), ("import", "import ranklaw.cli")):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=_child_env(), check=True)
            probe[key].append(time.perf_counter() - start)

    metrics = {name: (median([s[name] for s in self_ms]), "ms") for name in tracer.SELF_METRICS}
    metrics.update({name: (counts[0][name], "count") for name in tracer.COUNT_METRICS})
    metrics["cli.import_ms"] = ((median(probe["import"]) - median(probe["bare"])) * 1e3, "ms")
    metrics["trace.overhead_ms"] = (median([t - u for t, u in zip(traced, plain)]) * 1e3, "ms")
    lines = [f"traced passes: {len(traced)}, untraced in-process passes: {len(plain)}",
             f"in-process pass: untraced {median(plain) * 1e3:.3f} ms, "
             f"traced {median(traced) * 1e3:.3f} ms"]
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ranklaw" / "cli.py").is_file():
        print(f"perfbench: no ranklaw sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    data, log = work / "inputs", work / "stderr.txt"
    ops = WORKLOADS[args.workload](args.seed, data, work / "out")

    ledger = Ledger()
    metrics, lines = (trace if args.trace else measure)(args, ops, ledger, data, log)
    info = provenance(args)

    report = [f"perfbench {args.workload} seed {args.seed} trace {args.trace}"]
    report += [f"{k}: {v}" for k, v in info.items()]
    report += lines
    report += [f"{name:<20} {value if unit == 'count' else f'{value:.6f}'} {unit}"
               for name, (value, unit) in metrics.items()]
    report += [f"failed {n}x: {f}" for f, n in ledger.failures.items()]
    report += [f"WRONG: {w}" for w in ledger.wrong]
    print("\n".join(report))

    result = {"correct": not ledger.wrong, "attempted": ledger.attempted,
              "failed": ledger.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    (WORK / f"result_{args.workload}_trace{args.trace}.json").write_text(
        json.dumps({**result, "provenance": info, "report": report}, indent=1))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
