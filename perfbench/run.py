"""evokit benchmark: one workload per invocation, closed loop, checked outputs.

    python3 perfbench/run.py --workload long_loop --seed 1 --seconds 35 --trace 0

Runs from the root of a checkout and imports evokit from its ``src/``. One
experiment runs at a time: each gets a fresh ``output_dir`` and ``EVO_HOME``,
is loaded with ``load_config``, run with ``run_experiment``, replayed with
``replay`` and checked. Set-up (importing evokit in a fresh interpreter,
timed by that interpreter, then input generation, the latency stub and one
smaller warm-up unit) is repeated ``SETUP_REPEATS`` times and reported as its
median, ``setup_s``.

End-to-end times are reported at a fixed host speed. A shared host can run
the same work up to twice as fast in one minute as in another, so between
units the benchmark times a fixed pure-Python loop (``reference_s``) and
rescales the CPU part of every interval by ``REFERENCE_S`` over that time;
waiting (the latency stub's sleep) is kept as measured. The wall-clock
figures are reported too, as per-layer ``wall.*`` metrics.

With ``--trace 0`` the end-to-end metrics are measured with no wrapper
installed. With ``--trace 1`` units alternate between traced and untraced;
the per-layer metrics come from the traced units and ``trace.overhead``
compares the two halves. See perfbench/README.md for every metric.

Human-readable lines go first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. The exit
code is 0 when the run completed (even with failed operations, which the
result counts) and 2 when it could not start.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
# Each trajectory is replayed until the replay time timed reaches this share
# of its experiment's run time. Replay then gets about the same share of
# every workload's measured time, where one replay takes ~0.05% of a
# fanout_http run and 5-10% of a long_loop or golden_mix one.
REPLAY_SHARE = 0.1
# Host speed: the loop below takes REFERENCE_S on the host the benchmark was
# written on; it allocates no containers, so evokit's heap does not move it.
REFERENCE_S = 0.009
REFERENCE_LOOPS = 100_000
REFERENCE_REPEATS = 3
REFERENCE_EVERY_S = 1.0
IMPORT_TIMER = (
    "from time import perf_counter; started = perf_counter(); "
    "import evokit, evokit.harness, evokit.playgrounds; "
    "print(perf_counter() - started)"
)


def reference_s() -> float:
    """Median time of a fixed pure-Python loop: the host's current speed."""
    times = []
    for _ in range(REFERENCE_REPEATS):
        started = perf_counter()
        total = 0
        for i in range(REFERENCE_LOOPS):
            total += i * i % 7
        times.append(perf_counter() - started)
    return statistics.median(times)


def speed_factor(wall_s: float, cpu_s: float, ref_s: float) -> float:
    """Factor that takes wall_s to reference speed: its CPU share is rescaled
    by REFERENCE_S / ref_s, the rest (waiting) is kept. 1.0 when ref_s is
    REFERENCE_S."""
    share = min(1.0, cpu_s / wall_s) if wall_s > 0 else 1.0
    return 1.0 - share + share * REFERENCE_S / ref_s


@dataclass
class Setup:
    import_s: float  # evokit import, timed by the fresh interpreter itself
    wall_s: float  # the rest of the set-up, in this process
    cpu_s: float
    ref_s: float  # reference loop time around the set-up

    def seconds(self, at_reference: bool) -> float:
        ref = self.ref_s if at_reference else REFERENCE_S
        return self.import_s * REFERENCE_S / ref + self.wall_s * speed_factor(
            self.wall_s, self.cpu_s, ref
        )


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 1]; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


@dataclass
class ExperimentStats:
    label: str
    load_s: float = 0.0
    run_s: float = 0.0
    run_cpu_s: float = 0.0  # process CPU time in load_config + run_experiment
    replay_s: float = 0.0
    replays: int = 0
    replay_total_s: float = 0.0
    replay_cpu_s: float = 0.0  # process CPU time in all replays
    events: int = 0
    trajectory_bytes: int = 0
    turns: int = 0
    turn_gaps_s: list[float] = field(default_factory=list)
    round_gaps_s: list[float] = field(default_factory=list)
    experiment_ok: bool = False
    replay_complete: bool = False
    violations: list[str] = field(default_factory=list)
    error: str | None = None
    spans: tuple[int, int] = (0, 0)


@dataclass
class Unit:
    traced: bool
    experiments: list[ExperimentStats]
    http_overhead_s: list[float] = field(default_factory=list)
    inflight_max: int = 0
    ref_s: float = REFERENCE_S  # reference loop time around the unit

    @property
    def experiment_s(self) -> float:
        return sum(e.run_s for e in self.experiments) / len(self.experiments)


def trajectory_stats(path: Path, stats: ExperimentStats) -> None:
    """Turn and round gaps from the trajectory's own timestamps."""
    last_turn: dict[tuple, tuple[int, float]] = {}
    last_round = None
    with path.open("r", encoding="utf-8") as handle:
        for line in handle:
            event = json.loads(line)
            kind = event["kind"]
            if kind == "turn":
                stats.turns += 1
                scope = (event["slot"], event["agent"])
                previous = last_turn.get(scope)
                if previous is not None and event["turn"] == previous[0] + 1:
                    stats.turn_gaps_s.append(event["ts"] - previous[1])
                last_turn[scope] = (event["turn"], event["ts"])
            elif kind == "promotion" and event["payload"].get("tier") == "round":
                if last_round is not None:
                    stats.round_gaps_s.append(event["ts"] - last_round)
                last_round = event["ts"]


def run_job(harness, job, exp_dir: Path, tracer) -> ExperimentStats:
    """load_config -> run_experiment -> replay -> check, in a fresh directory."""
    stats = ExperimentStats(job.label)
    exp_dir.mkdir(parents=True)
    os.environ["EVO_HOME"] = str(exp_dir / "home")
    first_span = len(tracer.spans) if tracer else 0
    try:
        t0, c0 = perf_counter(), process_time()
        config = harness.load_config(job.manifest)
        config.experiment.output_dir = str(exp_dir / "runs")
        t1 = perf_counter()
        record = harness.run_experiment(config)
        t2, c2 = perf_counter(), process_time()
        report = harness.replay(record.trajectory_path)
        t3 = perf_counter()
        stats.load_s, stats.run_s, stats.replay_s = t1 - t0, t2 - t1, t3 - t2
        stats.run_cpu_s = c2 - c0
        stats.replays, stats.replay_total_s = 1, stats.replay_s
        while stats.replay_total_s < REPLAY_SHARE * stats.run_s:
            t3 = perf_counter()
            again = harness.replay(record.trajectory_path)
            stats.replay_total_s += perf_counter() - t3
            stats.replays += 1
            if (again.events, again.complete) != (report.events, report.complete):
                raise AssertionError("replaying the same trajectory gave another report")
        stats.replay_cpu_s = process_time() - c2
        stats.events = report.events
        stats.replay_complete = report.complete
        stats.violations = list(report.violations)
        stats.error = job.check(record)
        stats.experiment_ok = stats.error is None
        trajectory = Path(record.trajectory_path)
        stats.trajectory_bytes = trajectory.stat().st_size
        trajectory_stats(trajectory, stats)
    except Exception:  # noqa: BLE001 - a crash is a counted failure, not an abort
        stats.error = traceback.format_exc(limit=3)
    finally:
        shutil.rmtree(exp_dir, ignore_errors=True)
    stats.spans = (first_span, len(tracer.spans) if tracer else 0)
    return stats


def import_in_fresh_interpreter(src: Path) -> float:
    """Seconds a fresh interpreter spends importing evokit, as it times itself."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    child = subprocess.run(
        [sys.executable, "-c", IMPORT_TIMER],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return float(child.stdout.split()[-1])


class Bench:
    def __init__(self, args, workdir: Path):
        import workloads

        import evokit.harness as harness

        self.args = args
        self.workdir = workdir
        self.harness = harness
        self.factory = workloads.WORKLOADS[args.workload]
        self.setups: list[Setup] = []
        self.warm: list[ExperimentStats] = []
        self.units: list[Unit] = []
        self.tracer = None
        self._counter = 0

    def _exp_dir(self) -> Path:
        self._counter += 1
        return self.workdir / f"exp-{self._counter}"

    def setup(self):
        """Set up SETUP_REPEATS times; keep the last workload for measuring."""
        workload = None
        ref_before = reference_s()
        for i in range(SETUP_REPEATS):
            if workload is not None:
                workload.__exit__(None, None, None)
                shutil.rmtree(self.workdir / f"inputs-{i - 1}", ignore_errors=True)
            import_s = import_in_fresh_interpreter(ROOT / "src")
            started, cpu = perf_counter(), process_time()
            workload = self.factory(ROOT, self.workdir / f"inputs-{i}", self.args.seed)
            workload.__enter__()
            for job in workload.warm_jobs():
                self.warm.append(run_job(self.harness, job, self._exp_dir(), None))
            wall, cpu = perf_counter() - started, process_time() - cpu
            ref_after = reference_s()
            self.setups.append(Setup(import_s, wall, cpu, (ref_before + ref_after) / 2))
            ref_before = ref_after
        return workload

    def measure(self, workload) -> None:
        trace_mode = bool(self.args.trace)
        if trace_mode:
            from spans import Tracer

            self.tracer = Tracer()
        stub = getattr(workload, "stub", None)
        # Each unit gets the mean of the reference times taken just before
        # and just after it; one is taken at least every REFERENCE_EVERY_S.
        ref_before, sampled_at, pending = reference_s(), perf_counter(), []
        deadline = perf_counter() + self.args.seconds
        while True:
            traced = trace_mode and len(self.units) % 2 == 0
            if stub is not None:
                stub.reset_counters()
            tracer = self.tracer if traced else None
            if tracer:
                tracer.install()
            try:
                experiments = [
                    run_job(self.harness, job, self._exp_dir(), tracer)
                    for job in workload.jobs()
                ]
            finally:
                if tracer:
                    tracer.uninstall()
            unit = Unit(traced, experiments)
            if stub is not None:
                unit.inflight_max = stub.inflight_max
                if tracer:
                    unit.http_overhead_s = self._http_overhead(stub, experiments)
            self.units.append(unit)
            pending.append(unit)
            enough = not trace_mode or len(self.units) >= 2
            done = enough and perf_counter() >= deadline
            if done or perf_counter() - sampled_at >= REFERENCE_EVERY_S:
                # Write back the file-system metadata the experiments dirtied, so
                # each unit starts without that backlog: without it the cost of a
                # file create/delete rose up to threefold over a minute or two of
                # churn, and golden_mix's run time with it.
                os.sync()
                ref_after = reference_s()
                for waiting in pending:
                    waiting.ref_s = (ref_before + ref_after) / 2
                ref_before, sampled_at, pending = ref_after, perf_counter(), []
            if done:
                break

    def _http_overhead(self, stub, experiments: list[ExperimentStats]) -> list[float]:
        samples = []
        for exp in experiments:
            for span in self.tracer.spans[exp.spans[0] : exp.spans[1]]:
                if span[0] != "gateway.complete" or not isinstance(span[4], tuple):
                    continue
                service = stub.pop_service_s(span[4][1])
                if service is not None:
                    samples.append(span[2] - span[1] - service)
        return samples


def ratio(numerator: float, denominator: float) -> float:
    """numerator / denominator, or 0.0 when nothing was measured (every run failed)."""
    return numerator / denominator if denominator else 0.0


def _experiments(units: list[Unit]) -> list[ExperimentStats]:
    return [e for u in units for e in u.experiments]


def _turn_gaps(units: list[Unit]) -> list[float]:
    return [g for e in _experiments(units) for g in e.turn_gaps_s]


def failed_share(experiments: list[ExperimentStats]) -> float:
    """Failed operations over attempted ones; a replay with violations has failed."""
    failed = sum(not e.experiment_ok for e in experiments)
    failed += sum(not e.replay_complete for e in experiments)
    return ratio(failed, 2 * len(experiments))


def end_to_end(
    units: list[Unit], setups: list[Setup], at_reference: bool = True
) -> dict[str, tuple[float, str]]:
    """The end-to-end figures; with at_reference=False, plain wall clock."""
    n = turns = replayed = 0
    run_s = busy_s = replay_s = 0.0
    turn_gaps: list[float] = []
    for unit in units:
        ref = unit.ref_s if at_reference else REFERENCE_S
        for e in unit.experiments:
            scale = speed_factor(e.load_s + e.run_s, e.run_cpu_s, ref)
            replay_scale = speed_factor(e.replay_total_s, e.replay_cpu_s, ref)
            n += 1
            turns += e.turns
            replayed += e.events * e.replays
            run_s += e.run_s * scale
            busy_s += (e.load_s + e.run_s) * scale + e.replay_s * replay_scale
            replay_s += e.replay_total_s * replay_scale
            turn_gaps.extend(g * scale for g in e.turn_gaps_s)
    experiments = _experiments(units)
    return {
        "setup_s": (statistics.median(s.seconds(at_reference) for s in setups), "s"),
        "experiment_ms.mean": (1000 * ratio(run_s, n), "ms"),
        "experiments_per_s": (ratio(n, busy_s), "1/s"),
        "turns_per_s": (ratio(turns, run_s), "1/s"),
        "turn_ms.p50": (1000 * percentile(turn_gaps, 0.50), "ms"),
        "replay_kevents_per_s": (ratio(replayed, 1000 * replay_s), "1/ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_share": (1.0 - failed_share(experiments), "share"),
    }


WALL_CLOCK = (
    "setup_s",
    "experiment_ms.mean",
    "experiments_per_s",
    "turns_per_s",
    "turn_ms.p50",
    "replay_kevents_per_s",
)


def drift(units: list[Unit]) -> float:
    """Median unit time of the last quarter over the first quarter."""
    times = [u.experiment_s for u in units]
    quarter = max(1, len(times) // 4)
    return ratio(statistics.median(times[-quarter:]), statistics.median(times[:quarter]))


def per_layer(bench: Bench) -> dict[str, tuple[float, str]]:
    traced = [u for u in bench.units if u.traced]
    plain = [u for u in bench.units if not u.traced]
    experiments = _experiments(traced)
    n = len(experiments)
    spans = bench.tracer.spans

    by_name: dict[str, list[list]] = {}
    for exp in experiments:
        for span in spans[exp.spans[0] : exp.spans[1]]:
            by_name.setdefault(span[0], []).append(span)

    def named(name: str) -> list[list]:
        return by_name.get(name, [])

    def durations(name: str) -> list[float]:
        return [s[2] - s[1] for s in named(name)]

    def us_p50(name: str) -> float:
        return 1e6 * percentile(durations(name), 0.5)

    child_time: dict[int, float] = {}
    for span in spans:
        if span[3] is not None:
            child_time[id(span[3])] = child_time.get(id(span[3]), 0.0) + span[2] - span[1]

    steps = named("engine.step")
    step_self = sum(s[2] - s[1] - child_time.get(id(s), 0.0) for s in steps)
    growth = []
    for exp in experiments:
        durs = [
            s[2] - s[1]
            for s in sorted(spans[exp.spans[0] : exp.spans[1]], key=lambda s: s[1])
            if s[0] == "engine.step"
        ]
        quarter = len(durs) // 4
        if quarter:
            growth.append(statistics.median(durs[-quarter:]) / statistics.median(durs[:quarter]))

    compress = named("context.compress")
    saved = [s[4] for s in compress if isinstance(s[4], int)]
    complete = named("gateway.complete")
    prompt_tokens = [s[4][0] for s in complete if isinstance(s[4], tuple)]
    invokes = named("tools.invoke")
    replays = [s[4] for s in named("harness.replay") if isinstance(s[4], tuple)]
    replay_events = sum(r[0] for r in replays)
    overhead = [x for u in traced for x in u.http_overhead_s]
    run_total = sum(durations("harness.runner.run_experiment"))
    events = sum(e.events for e in experiments)

    # A playground's children are its direct callees plus the root spans of
    # the worker threads it fanned out to; self time excludes their union.
    playground_self = 0.0
    for exp in experiments:
        window = spans[exp.spans[0] : exp.spans[1]]
        for pg in (s for s in window if s[0] == "playgrounds.run_playground"):
            intervals = sorted(
                (s[1], s[2])
                for s in window
                if s[3] is pg or (s[3] is None and s[5] != pg[5] and pg[1] <= s[1] <= pg[2])
            )
            covered, reach = 0.0, pg[1]
            for start, end in intervals:
                start = max(start, reach)
                if end > start:
                    covered += end - start
                    reach = end
            playground_self += pg[2] - pg[1] - covered

    plain_exps = _experiments(plain)
    round_gaps = [g for e in plain_exps for g in e.round_gaps_s]
    traced_ms = statistics.median(u.experiment_s for u in traced)
    plain_ms = statistics.median(u.experiment_s for u in plain)
    wall = end_to_end(plain, bench.setups, at_reference=False)

    return {
        "engine.step.calls": (len(steps) / n, "count"),
        "engine.step.self_ms": (1000 * step_self / n, "ms"),
        "engine.turn_growth": (statistics.median(growth) if growth else 0.0, "ratio"),
        "context.render.calls": (len(named("context.render")) / n, "count"),
        "context.render.us_p50": (us_p50("context.render"), "us"),
        "context.render.msgs_p50": (
            percentile([s[4] for s in named("context.render") if isinstance(s[4], int)], 0.5),
            "count",
        ),
        "context.compress.calls": (len(compress) / n, "count"),
        "context.compress.events": (len(saved) / n, "count"),
        "context.compress.ms_total": (1000 * sum(durations("context.compress")) / n, "ms"),
        "context.compress.tokens_saved": (sum(saved) / n, "count"),
        "gateway.complete.calls": (len(complete) / n, "count"),
        "gateway.complete.us_p50": (us_p50("gateway.complete"), "us"),
        "gateway.complete.errors": (sum(s[4] == "raised" for s in complete) / n, "count"),
        "gateway.scripted_step.us_p50": (us_p50("gateway.scripted_step"), "us"),
        "gateway.prompt_tokens_per_call": (
            statistics.mean(prompt_tokens) if prompt_tokens else 0.0,
            "count",
        ),
        "gateway.http_overhead_ms_p50": (1000 * percentile(overhead, 0.5), "ms"),
        "gateway.inflight_max": (max(u.inflight_max for u in traced), "count"),
        "gateway.overlap": (ratio(sum(durations("gateway.complete")), run_total), "ratio"),
        "tools.invoke.calls": (len(invokes) / n, "count"),
        "tools.invoke.us_p50": (us_p50("tools.invoke"), "us"),
        "tools.invoke.failed": (sum(s[4] == "failed" for s in invokes) / n, "count"),
        "tools.invoke.timeouts": (sum(s[4] == "timeout" for s in invokes) / n, "count"),
        "harness.recorder.events": (len(named("harness.recorder.record")) / n, "count"),
        "harness.recorder.record_us_p50": (us_p50("harness.recorder.record"), "us"),
        "harness.recorder.bytes_per_event": (
            ratio(sum(e.trajectory_bytes for e in experiments), events),
            "B",
        ),
        "harness.replay.us_per_event": (
            ratio(1e6 * sum(durations("harness.replay")), replay_events),
            "us",
        ),
        "harness.replay.violations": (
            ratio(sum(r[1] for r in replays), len(replays)),
            "count",
        ),
        "harness.config.load_ms": (
            1000 * statistics.mean(durations("harness.config.load")),
            "ms",
        ),
        "harness.runner.self_ms": (
            1000 * (run_total - sum(durations("playgrounds.run_playground"))) / n,
            "ms",
        ),
        "playgrounds.run_slot.calls": (len(named("playgrounds.run_slot")) / n, "count"),
        "playgrounds.self_ms": (1000 * playground_self / n, "ms"),
        "playgrounds.cache.prefetch_ms": (
            1000 * sum(durations("playgrounds.cache.prefetch")) / n,
            "ms",
        ),
        "playgrounds.cache.prefetch_records": (
            sum(s[4] for s in named("playgrounds.cache.prefetch") if isinstance(s[4], int)) / n,
            "count",
        ),
        "playgrounds.cache.promote_ms": (
            1000 * sum(durations("playgrounds.cache.promote")) / n,
            "ms",
        ),
        "playgrounds.round_ms.p50": (1000 * percentile(round_gaps, 0.5), "ms"),
        "playgrounds.round_ms.p90": (1000 * percentile(round_gaps, 0.9), "ms"),
        "turn_ms.p99": (1000 * percentile(_turn_gaps(plain), 0.99), "ms"),
        "experiment_ms.p95": (1000 * percentile([u.experiment_s for u in plain], 0.95), "ms"),
        "failed_share": (failed_share(plain_exps), "share"),
        "trace.overhead": (ratio(traced_ms, plain_ms), "ratio"),
        "bench.drift": (drift(plain), "ratio"),
        **{f"wall.{name}": wall[name] for name in WALL_CLOCK},
        "host.reference_ms": (1000 * statistics.median(u.ref_s for u in plain), "ms"),
        "host.cpu_share": (
            ratio(
                sum(e.run_cpu_s for e in plain_exps),
                sum(e.load_s + e.run_s for e in plain_exps),
            ),
            "ratio",
        ),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "evokit" / "__init__.py").is_file():
        print(f"perfbench: no evokit sources under {src}", file=sys.stderr)
        return 2
    golden = ROOT / "tests" / "fixtures" / "golden"
    if args.workload == "golden_mix" and not golden.is_dir():
        print(f"perfbench: no golden fixtures under {golden}", file=sys.stderr)
        return 2
    # One CPU for the benchmark and its children. On a shared 2-vCPU host a
    # thread hand-off to the other vCPU waits for the hypervisor to run it,
    # which moved long_loop's turn rate by up to a third between runs.
    # evokit's fan-outs are threads that overlap model waits; one CPU still
    # shows that overlap.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(src))
    for var in ("HTTP_PROXY", "HTTPS_PROXY", "ALL_PROXY", "http_proxy", "https_proxy", "all_proxy"):
        os.environ.pop(var, None)
    os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    # requests reads credentials from NETRC; point it at a file that does not exist.
    os.environ["NETRC"] = str(workdir / "netrc")
    try:
        bench = Bench(args, workdir)
        workload = bench.setup()
        try:
            bench.measure(workload)
        finally:
            workload.__exit__(None, None, None)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    all_exps = bench.warm + [e for u in bench.units for e in u.experiments]
    errors = [e for e in all_exps if e.error is not None]
    for exp in errors[:5]:
        print(f"perfbench: {exp.label} failed: {exp.error}", file=sys.stderr)
    plain = [u for u in bench.units if not u.traced]
    traced = [u for u in bench.units if u.traced]
    e2e = end_to_end(plain, bench.setups)
    metrics = per_layer(bench) if args.trace else e2e

    plain_exps = _experiments(plain)
    violated = [e for e in plain_exps if e.violations]
    print(
        f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} units={len(bench.units)} untraced_experiments={len(plain_exps)} "
        f"turn_samples={len(_turn_gaps(plain))} setups={len(bench.setups)}"
    )
    print(
        f"  failed_share={failed_share(plain_exps):.4f} "
        f"replays_with_violations={len(violated)}/{len(plain_exps)} drift={drift(plain):.4f}"
    )
    if violated:
        print(f"  first replay violation: {violated[0].label}: {violated[0].violations[0]}")
    wall = end_to_end(plain, bench.setups, at_reference=False)
    print(
        f"  reference_ms={1000 * statistics.median(u.ref_s for u in plain):.4f} wall clock: "
        + " ".join(f"{name}={wall[name][0]:.4f}" for name in WALL_CLOCK)
    )
    if args.trace:
        # Tracing overhead: the same end-to-end figures from the traced units.
        traced_e2e = end_to_end(traced, bench.setups)
        print(f"  {'end to end':34s} {'untraced':>14s} {'traced':>14s}")
        for name, (value, unit) in e2e.items():
            print(f"  {name:34s} {value:14.4f} {traced_e2e[name][0]:14.4f} {unit}")
        print("  per layer (traced units)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.4f} {unit}")
    if args.trace:
        trace_path = WORK_DIR / f"trace-{args.workload}.json"
        bench.tracer.write_chrome_trace(trace_path)
        print(f"  {len(bench.tracer.spans)} spans written to {trace_path.relative_to(ROOT)}")

    result = {
        "correct": not errors,
        "attempted": len(all_exps) * 2,
        "failed": len(errors),
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
