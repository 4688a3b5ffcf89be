"""dycknum benchmark: one workload per run, outputs checked, metrics printed.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json for why each was chosen): sweep, bigint,
lookup, cli. The benchmark imports dycknum from src/ of the checkout it
sits in, measures for --seconds, checks every output after the timed
loop, and prints a readable report followed, as the last line, by one
JSON object with the keys correct, attempted, failed and metrics.

With --trace 0 the metrics are the end-to-end ones. With --trace 1 the
run is split in two halves, untraced then traced; the metrics are the
per-layer ones from the traced half plus the tracing overhead (how much
worse each end-to-end metric read traced than untraced), and the spans
are written to perfbench/out/. Timings are taken from outside the
library, around the benchmark's own calls into each layer; perfbench/
README.md says how they are scaled to uncontended CPU speed.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

SETUP_REPEATS = 15
PROBE_REPEATS = 5
# latency_tail_ms is the highest percentile with at least ten samples
# beyond it at the seed's sample counts, kept fixed per workload so that
# commits compare like for like; a run with too few samples steps down
# the ladder. p99.9 is left out: on a shared machine the slowest 0.1% of
# samples are other tenants' noise.
TAIL_PERCENTILE = {"sweep": 90, "bigint": 99, "lookup": 95, "cli": 90}
TAIL_LADDER = (99, 95, 90, 75, 50)
HIGHER_IS_BETTER = {"ops_per_s", "terms_per_s"}

# what each workload's fresh-process set-up imports and warms up
SETUP_CODE = {
    "sweep": (
        "from dycknum import bfile, sequence\n"
        "t = sequence.range_terms(3)\n"
        "bfile.compare(bfile.BFile(5, tuple(t)), bfile.parse_bfile(bfile.emit_bfile(t, 5)))\n"
    ),
    "bigint": (
        "from dycknum import core\n"
        "for f in (core.is_dyck_number, core.violating_suffix, core.successor,\n"
        "          core.valley_depth, core.height_profile, core.to_dyck_word,\n"
        "          core.to_standard_code):\n"
        "    f(11)\n"
        "core.from_dyck_word('UUDD')\n"
    ),
    "lookup": "from dycknum import sequence\nsequence.index_of(sequence.term_at(10))\n",
    "cli": "from dycknum import cli\ncli.build_parser().parse_args(['check', '21'])\n",
}
# a fresh process times its own set-up and, around it, the calibration
# loop, so that set-up time can be scaled to uncontended speed too
SETUP_PROGRAM = """\
from time import perf_counter
{calibration}
def loops(n):
    times = []
    for _ in range(n):
        t0 = perf_counter()
        calibration_loop()
        times.append(perf_counter() - t0)
    return times
loops(30)  # let the interpreter specialise the loop before it is timed
before = loops(20)
t0 = perf_counter()
import dycknum
{code}
took = perf_counter() - t0
print(took, *before, *loops(20))
"""


def python(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=120,
        check=True,
    )


def use_sources() -> None:
    """Import dycknum from this checkout's src/, never from elsewhere."""
    if not (SRC / "dycknum" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no dycknum sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import dycknum

    if Path(dycknum.__file__).resolve().parent != (SRC / "dycknum").resolve():
        raise SystemExit(f"perfbench: dycknum came from {dycknum.__file__}, not {SRC}")


def setups(workload: str) -> list[tuple[float, float]]:
    """(set-up time, median calibration loop time) of fresh processes.

    Each process times its own import and warm-up, so interpreter
    start-up is left out.
    """
    import spans

    calibration = f"CALIBRATION_NUMBER = {spans.CALIBRATION_NUMBER}\n" + inspect.getsource(
        spans.calibration_loop
    )
    program = SETUP_PROGRAM.format(calibration=calibration, code=SETUP_CODE[workload])
    runs = []
    for _ in range(SETUP_REPEATS):
        took, *loops = map(float, python("-c", program).stdout.split())
        runs.append((took, statistics.median(loops)))
    return runs


def interpreter_ms() -> float:
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = perf_counter()
        python("-c", "pass")
        times.append((perf_counter() - t0) * 1e3)
    return statistics.median(times)


def import_ms() -> float:
    """Cumulative -X importtime of `import dycknum.cli`, its package included."""
    times = []
    for _ in range(PROBE_REPEATS):
        total = 0
        for line in python("-X", "importtime", "-c", "import dycknum.cli").stderr.splitlines():
            parts = line.split("|")
            # top-level entries have a single space before the module name
            if len(parts) == 3 and parts[2].rstrip() in (" dycknum", " dycknum.cli"):
                total += int(parts[1])
        times.append(total / 1e3)
    return statistics.median(times)


def git_sha() -> str:
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def tail_percentile(preferred: float, n: int) -> float:
    """`preferred`, or the next lower ladder step, with >= 10 samples beyond it."""
    for p in TAIL_LADDER:
        if p <= preferred and n * (100 - p) / 100 >= 10:
            return p
    return 100.0


class Phase:
    """One timed loop of a workload, the checks of its outputs, its metrics.

    The per-operation samples are released once summarised, so that a
    traced phase after an untraced one does not carry their memory.
    """

    def __init__(
        self,
        name: str,
        seed: int,
        seconds: float,
        trace: bool,
        workdir: Path,
        setup: list[tuple[float, float]],
    ):
        from spans import Recorder
        from workloads import WORKLOADS, Cli

        self.name = name
        self.workload = Cli(seed, ROOT, workdir) if name == "cli" else WORKLOADS[name](seed)
        self.workload.warm_up()
        self.rec = Recorder(trace)
        self.workload.run(self.rec, seconds)
        if self.workload.in_process:
            self.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        else:
            self.rss_mb = self.workload.peak_rss_mb
        self.failures = self.workload.check()
        self.failed = sum(f.ops for f in self.failures)
        self.tail = tail_percentile(TAIL_PERCENTILE[name], self.rec.ops)
        self.contention = self.rec.contention
        # set-up runs in fresh processes that time the calibration loop
        # themselves, so it is scaled for every workload, cli included
        best = self.rec.uncontended_loop()
        setup_s = statistics.median(took * best / loop for took, loop in setup)
        self.metrics = self.end_to_end(setup_s, scaled=self.workload.in_process)
        self.raw_metrics = self.end_to_end(statistics.median(t for t, _ in setup), scaled=False)
        self.rec.release()

    def end_to_end(self, setup_s: float, scaled: bool) -> dict[str, tuple[float, str]]:
        """The end-to-end metrics; with `scaled`, times at uncontended speed."""
        from spans import percentile

        rec = self.rec
        lat = rec.latencies(uncontended=scaled)
        busy = rec.uncontended_busy() if scaled else rec.busy
        return {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (rec.ops / busy, "1/s"),
            "terms_per_s": (rec.terms / busy, "1/s"),
            "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
            "latency_tail_ms": (percentile(lat, self.tail) * 1e3, "ms"),
            "peak_rss_mb": (self.rss_mb, "MB"),
        }


def per_layer(phase: Phase, untraced: dict, traced: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced phase, timed from outside and not scaled.

    A layer the workload does not call reports 0. The tracing overhead is
    the cost of tracing on each end-to-end metric: how much worse the
    traced half read than the untraced one, in percent.
    """
    import inputs
    from spans import LAYERS, layer_summary, percentile

    spans = phase.rec.spans
    summary = layer_summary(spans)
    durations: dict[tuple[str, object], list[float]] = {}
    for s in spans:
        durations.setdefault((s.name, s.tag), []).append(s.end - s.start)

    def by_name(name: str) -> list[float]:
        return [d for (n, _), ds in durations.items() if n == name for d in ds]

    def mid(values: list[float], scale: float) -> float:
        return statistics.median(values) * scale if values else 0.0

    def tail(values: list[float], scale: float) -> float:
        return percentile(values, phase.tail) * scale if values else 0.0

    m: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = (summary[layer]["count"], "count")
        m[f"{layer}.busy_s"] = (summary[layer]["busy_s"], "s")
        m[f"{layer}.self_s"] = (summary[layer]["self_s"], "s")

    # core
    m["core.failed"] = (sum(f.ops for f in phase.failures if f.layer == "core"), "count")
    refused, sent = (
        phase.workload.refusals(phase.failures) if phase.name == "bigint" else (0, 0)
    )
    m["core.reject_ratio"] = (refused / sent if sent else 0.0, "ratio")
    for fn in inputs.BIGINT_FUNCTIONS:
        for width in inputs.BIGINT_WIDTHS:
            m[f"core.{fn}.w{width}.us"] = (mid(durations.get((f"core.{fn}", width), []), 1e6), "us")
    wide = [d for (n, w), ds in durations.items() if n.startswith("core.") and w == 10_000 for d in ds]
    m["core.bits_per_s"] = (10_000 * len(wide) / sum(wide) if wide else 0.0, "bits/s")

    # sequence (from outside, these spans include the core work inside them)
    ranges = by_name("sequence.range_terms")
    m["sequence.range_terms.busy_s"] = (sum(ranges), "s")
    m["sequence.range_terms.terms"] = (
        sum(math.comb(k - 1, (k - 1) // 2) * len(ds) for (n, k), ds in durations.items() if n == "sequence.range_terms"),
        "count",
    )
    for fn in ("term_at", "index_of"):
        values = by_name(f"sequence.{fn}")
        m[f"sequence.{fn}.p50_ms"] = (mid(values, 1e3), "ms")
        m[f"sequence.{fn}.tail_ms"] = (tail(values, 1e3), "ms")

    # bfile
    for fn in ("emit", "parse", "compare"):
        name = "bfile.compare" if fn == "compare" else f"bfile.{fn}_bfile"
        spent = sum(by_name(name))
        lines = sum(
            math.comb(k - 1, (k - 1) // 2) * len(ds) for (n, k), ds in durations.items() if n == name
        )
        m[f"bfile.{fn}.lines_per_s"] = (lines / spent if spent else 0.0, "lines/s")
        m[f"bfile.{fn}.busy_s"] = (spent, "s")
    m["bfile.bytes"] = (phase.workload.bytes_per_pass() if phase.name == "sweep" else 0, "bytes")

    # cli
    probes = phase.name == "cli"
    m["cli.interpreter_ms"] = (interpreter_ms() if probes else 0.0, "ms")
    m["cli.import_ms"] = (import_ms() if probes else 0.0, "ms")
    for sub in inputs.CLI_SUBCOMMANDS:
        m[f"cli.{sub}.ms"] = (mid(by_name(f"cli.{sub}"), 1e3), "ms")
    m["cli.exit_mismatch"] = (phase.workload.exit_mismatches() if probes else 0, "count")

    m["bench.contention"] = (phase.contention, "ratio")
    for metric, (value, _) in untraced.items():
        if metric != "setup_s":
            worse = value - traced[metric][0] if metric in HIGHER_IS_BETTER else traced[metric][0] - value
            m[f"trace.overhead.{metric}"] = (100 * worse / value, "%")
    return m


def show(metrics: dict[str, tuple[float, str]]) -> None:
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:>16.6g} {unit}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "bigint", "lookup", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    use_sources()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from spans import layer_summary, write_spans

    setup = setups(args.workload)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    halves = (False, True) if args.trace else (False,)
    phases: list[Phase] = []
    try:
        for trace in halves:
            if phases:
                # free the untraced half's inputs and outputs: peak RSS keeps
                # growing, and its traced reading should show the spans only
                phases[-1].workload = None
            seconds = args.seconds / len(halves)
            phases.append(Phase(args.workload, args.seed, seconds, trace, workdir, setup))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    measured = phases[-1]
    scaled = measured.workload.in_process
    attempted = sum(p.rec.ops for p in phases)
    failed = sum(p.failed for p in phases)
    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "setup_repeats": SETUP_REPEATS,
        "samples": measured.rec.ops,
        "tail_percentile": measured.tail,
        "samples_beyond_tail": measured.rec.ops - math.ceil(measured.tail / 100 * measured.rec.ops),
        "times_scaled_to_uncontended_speed": scaled,
    }
    print(f"perfbench {json.dumps(stamp)}")
    print(f"setup_s is the median of {SETUP_REPEATS} fresh-process set-ups, as timed: {sorted(t for t, _ in setup)}")
    for phase in phases:
        label = "traced" if phase.rec.spans is not None else "untraced"
        print(
            f"end-to-end, {label}: {phase.rec.ops} operations, latency_tail_ms is "
            f"p{phase.tail:g}, contention {phase.contention:.3f}"
        )
        show(phase.metrics)
        if scaled:
            print("  as timed, before scaling to uncontended speed:")
            show(phase.raw_metrics)
    print(f"  {'failed_ratio':34s} {failed / attempted:>16.6g} ratio ({failed} of {attempted} operations)")
    for f in [f for p in phases for f in p.failures][:10]:
        print(f"  FAILED {f.ops} operations, first op {f.first_op} [{f.layer}]: {f.message}")

    if args.trace:
        spans = measured.rec.spans
        path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        write_spans(path, spans, stamp)
        print(f"spans: {len(spans)} written to {path.relative_to(ROOT)}")
        print("per layer, from outside (sequence spans include the core work inside them):")
        for layer, entry in layer_summary(spans).items():
            print(f"  {layer:10s} count {entry['count']:>8d}  busy {entry['busy_s']:.6f} s  self {entry['self_s']:.6f} s")
        metrics = per_layer(measured, phases[0].metrics, measured.metrics)
        print("per-layer metrics (0 where the workload does not call the layer):")
        show(metrics)
    else:
        metrics = measured.metrics

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
