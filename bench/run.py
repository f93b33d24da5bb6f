"""Run one workload of the crosshom benchmark and print its metrics.

    python3 bench/run.py --workload witt-window --seed 1 --seconds 35 --trace 0

Run it from the root of a crosshom checkout; it imports crosshom from
./src. With --trace 0 it measures closed-loop passes over the workload's
job list for --seconds (at least the workload's minimum pass count) and
prints the end-to-end metrics, which give each job one time from all its
passes (see timed_run). With --trace 1 it runs one warm-up pass, one
untimed-layer pass, one traced pass and one counted pass over the same job
order and prints the per-layer metrics. Every job's answer is checked in
every pass.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. The lines before it are a readable summary and one
`details` JSON object (environment, percentiles, failures, absent metrics).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import resource
import shutil
import signal
import subprocess
import sys
import traceback
from pathlib import Path
from time import CLOCK_MONOTONIC, clock_gettime, perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 20  # fresh processes timed for setup_s, spread over the run; median reported
STARTUP_PROBES = 5  # spawns timed for cli.python_startup_s and cli.import_s
TAIL_BEYOND = 10  # job times that must lie beyond the reported tail percentile
DEADLINE_S = 170  # the whole run stops here, below the 180 s limit
CALIBRATION_LOOPS = 2000
# calibration_s() on a 2-vCPU VM with Python 3.11.7 while the host is in
# its fast state; scaled in-process job times are seconds at that speed.
CALIBRATION_REFERENCE_S = 0.0004
SPEED_TICK_S = 0.1  # process CPU seconds between speed readings inside a job

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    **{m: "s" for m in tracer.TIME_METRICS},
    **{m: "count" for m in tracer.CALL_METRICS},
    **{m: "count" for m in tracer.COMPUTED_METRICS},
    "formats.bytes_read": "bytes",
    "cli.json_bytes": "bytes",
    "linalg.density": "ratio",
    "fractions.ops": "count",
    "fractions.ops_per_identity": "ops/identity",
    "cli.import_s": "s",
    "cli.python_startup_s": "s",
    "cli.spawn_overhead_s": "s",
    **{f"{layer}.self_s": "s" for layer in tracer.LAYERS},
    "bench.self_s": "s",
    "trace.pass_s": "s",
    "trace.untimed_pass_s": "s",
    "trace.overhead_ratio": "ratio",
}


class Stop(BaseException):
    """Raised on SIGALRM (the deadline) or SIGTERM; a BaseException, so that
    no `except Exception` around a job swallows it."""


def _stop(signum, frame):
    if signum == signal.SIGALRM:
        raise Stop(f"the run did not finish within {DEADLINE_S} s")
    raise Stop("terminated")


class Spawner:
    """Runs child processes one at a time and remembers the live one."""

    def __init__(self, root: Path, workdir: Path):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.out = open(workdir / "stdout", "w+b")
        self.err = open(workdir / "stderr", "w+b")
        self.live: subprocess.Popen | None = None
        self.cli_max_rss_kb = 0

    def run(self, args: list[str]):
        """(exit code, stdout, stderr, peak RSS in KiB, wall seconds) of one child."""
        for f in (self.out, self.err):
            f.seek(0)
            f.truncate()
        t0 = perf_counter()
        self.live = subprocess.Popen(
            args, stdin=subprocess.DEVNULL, stdout=self.out, stderr=self.err, env=self.env
        )
        _, status, usage = os.wait4(self.live.pid, 0)
        wall = perf_counter() - t0
        self.live.returncode = os.waitstatus_to_exitcode(status)
        code, self.live = self.live.returncode, None
        self.out.seek(0)
        self.err.seek(0)
        return code, self.out.read(), self.err.read(), usage.ru_maxrss, wall

    def cli(self, argv: list[str]):
        result = self.run([sys.executable, "-m", "crosshom.cli", *argv])
        self.cli_max_rss_kb = max(self.cli_max_rss_kb, result[3])
        return result

    def run_ok(self, args: list[str]) -> tuple[bytes, float]:
        """(stdout, wall seconds) of a child that must exit 0."""
        code, out, err, _, wall = self.run(args)
        if code != 0:
            raise RuntimeError(f"{args[1:]} exited {code}: {err.decode()[-2000:]}")
        return out, wall

    def close(self):
        if self.live is not None:
            with contextlib.suppress(OSError):
                self.live.kill()
            self.live.wait()
        self.out.close()
        self.err.close()


def cli_inprocess(argv: list[str]):
    """The CLI's (exit code, stdout, stderr) from crosshom.cli.main in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = sys.modules["crosshom.cli"].main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an uncaught error ends the real CLI with a traceback
            traceback.print_exc()
            code = 1
    return code, out.getvalue().encode(), err.getvalue().encode()


def run_pass(order, spans=None, ops=None, between=None, meter=None):
    """One closed-loop pass: (wall seconds, per-job seconds, [(job, problem)]).

    A full collection before each job starts every job from the same
    garbage-collector state, whatever ran before it in the shuffled order.
    `between()`, if given, runs before each job, outside its time. A
    Speedometer, if given, turns each job's time into seconds at the
    reference speed.
    """
    samples, failures = [], []
    t0 = perf_counter()
    for idx, job in enumerate(order):
        if between is not None:
            between()
        gc.collect()
        if spans is not None:
            spans.current_job = idx
        if meter is not None:
            meter.start()
        j0 = perf_counter()
        if ops is not None:
            ops.counting = True
        try:
            result = job.run()
        except Exception as exc:  # a wrong answer is counted, never fatal
            result = exc
        finally:
            elapsed = perf_counter() - j0
            if ops is not None:
                ops.counting = False
            if meter is not None:
                elapsed = meter.stop(elapsed)
        samples.append(elapsed)
        if isinstance(result, Exception):
            problem = f"raised {type(result).__name__}: {result}"
        else:
            problem = job.check(result)
        if problem:
            failures.append((job.name, problem))
    return perf_counter() - t0, samples, failures


def environment(root: Path) -> dict:
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=root,
                capture_output=True,
                text=True,
                timeout=30,
            ).stdout.strip() or commit
    return {
        "python": sys.version.split()[0],
        "executable": sys.executable,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "commit": commit,
    }


def calibration_s() -> float:
    """Fastest of three runs of a fixed loop of dict and list work that never
    touches crosshom; the first run mostly refills the caches a job emptied.

    The host's slow state slows it by about the factor it slows the
    in-process jobs: over a 1.65x range of host speeds, the gw-cohomology [5]
    job scaled by a loop of this kind stayed within 5 %, a witt-window job
    within 8 %.
    """
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        counts, keys = {}, []
        for i in range(CALIBRATION_LOOPS):
            k = (i * 7) % 101
            counts[k] = counts.get(k, 0) + i
            keys.append(k)
        keys.sort()
        best = min(best, perf_counter() - t0)
    return best


class Speedometer:
    """Scales job times to the reference speed of calibration_s().

    It reads calibration_s() just before and just after each job and, on
    SIGPROF, after every SPEED_TICK_S of CPU time inside the job, because
    the host's speed can change within a second. A job's scaled time is its
    time without the readings inside it, times the mean over its readings of
    CALIBRATION_REFERENCE_S / reading.
    """

    def __init__(self):
        self.readings: list[float] = []
        self.spent = 0.0
        self.previous = signal.signal(signal.SIGPROF, self._tick)

    def _tick(self, signum, frame):
        t0 = perf_counter()
        self.readings.append(calibration_s())
        self.spent += perf_counter() - t0

    def start(self):
        self.readings = [calibration_s()]
        self.spent = 0.0
        signal.setitimer(signal.ITIMER_PROF, SPEED_TICK_S, SPEED_TICK_S)

    def stop(self, elapsed: float) -> float:
        signal.setitimer(signal.ITIMER_PROF, 0)
        self.readings.append(calibration_s())
        speed = sum(CALIBRATION_REFERENCE_S / c for c in self.readings) / len(self.readings)
        return (elapsed - self.spent) * speed

    def close(self):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self.previous)


def timed_run(workload, jobs, seconds, rng, spawner, probe):
    """Closed-loop passes until the next one would end after `seconds`.

    The host's speed swings by up to 1.65x for stretches of seconds to
    minutes, so a plain median over one run reports how much of the run the
    host spent in its slow state. Each job gets one time per run instead,
    from all its passes:
    - in-process workloads scale each job's time to the speed at which
      calibration_s() reads CALIBRATION_REFERENCE_S (see Speedometer); the
      job's time is the median of its scaled times;
    - cli-fixtures jobs run in a child on either vCPU, whose speed a reading
      in this process does not follow, so the job's time is its fastest pass.
    pass_s is the sum of the job times, job_p50_s and job_tail_s their
    percentiles over the jobs.

    In-process workloads first run one unmeasured pass: the first jobs in a
    fresh interpreter run up to 3x slower while its allocator grows, a cost
    a long-lived process pays once. Its answers are still checked.
    `probe()` times one fresh-process set-up; the SETUP_PROBES of them are
    spread over the run, between jobs.
    """
    in_process = not workload.subprocess_jobs
    walls, failures, setup_times = [], [], []
    by_job = {job.name: [] for job in jobs}
    start = perf_counter()
    attempted = 0

    def between():
        due = (perf_counter() - start) * SETUP_PROBES / seconds
        while len(setup_times) < min(due, SETUP_PROBES):
            setup_times.append(probe())

    meter = Speedometer() if in_process else None
    try:
        if in_process:
            _, _, failures = run_pass(jobs, between=between)
            attempted = len(jobs)
        while len(walls) < workload.passes_min or (
            perf_counter() - start + stats.median(walls) <= seconds
        ):
            order = list(jobs)
            rng.shuffle(order)
            dt, s, f = run_pass(order, between=between, meter=meter)
            walls.append(dt)
            for job, sample in zip(order, s):
                by_job[job.name].append(sample)
            failures += f
            attempted += len(order)
    finally:
        if meter is not None:
            meter.close()
    while len(setup_times) < SETUP_PROBES:
        setup_times.append(probe())
    if in_process:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        per_job = [stats.median(xs) for xs in by_job.values()]
    else:
        peak_kb = spawner.cli_max_rss_kb
        per_job = [min(xs) for xs in by_job.values()]
    pct = stats.tail_percentile(len(per_job), TAIL_BEYOND)
    metrics = {
        "setup_s": stats.median(setup_times),
        "pass_s": sum(per_job),
        "job_p50_s": stats.median(per_job),
        "job_tail_s": stats.nearest_rank(per_job, pct),
        "peak_rss_mb": peak_kb / 1024,
    }
    details = {
        "passes": len(walls),
        "pass_wall_s_all": walls,
        "job_times_s": dict(zip(by_job, per_job)),
        "job_tail_percentile": pct,
        "job_tail_jobs_beyond": sum(x > metrics["job_tail_s"] for x in per_job),
        "setup_s_all": setup_times,
    }
    return metrics, details, attempted, failures


def traced_run(workload, inputs, jobs, rng, spawner, out_dir: Path, startup_s: float):
    """Untimed-layer, traced and counted passes over one job order."""
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    absent: set[str] = set()
    details: dict = {}
    failures = []
    attempted = 0
    order = list(jobs)
    rng.shuffle(order)
    names = [job.name for job in order]

    if workload.subprocess_jobs:
        sub_dt, sub_samples, f = run_pass(order)
        failures += f
        attempted += len(order)
        by_name = {job.name: job for job in workload.jobs(inputs, cli_inprocess)}
        order = [by_name[name] for name in names]
        details["subprocess_pass_s"] = sub_dt

    _, _, f = run_pass(order)  # warm-up, as in the timed runs
    failures += f
    plain_dt, plain_samples, f = run_pass(order)
    failures += f

    spans, patches = tracer.Spans(), tracer.Patches()
    try:
        patches.install(spans.wrap)
        traced_dt, _, f = run_pass(order, spans=spans)
    finally:
        patches.remove()
    failures += f

    ops = tracer.FractionOps()
    counts, count_patches = tracer.Counts(ops), tracer.Patches()
    try:
        ops.install()
        count_patches.install(counts.wrap)
        _, _, f = run_pass(order, ops=ops)
    finally:
        count_patches.remove()
        ops.remove()
    failures += f
    attempted += 4 * len(order)

    durations = spans.durations()
    span_names, parents = list(spans.name), list(spans.parent)
    selfs = stats.self_times(parents, durations)
    layer_of = [fid.split(".")[0] for fid in spans.fids]
    for n, s in zip(span_names, selfs):
        metrics[f"{layer_of[n]}.self_s"] += s
    metrics["bench.self_s"] = traced_dt - sum(d for d, p in zip(durations, parents) if p < 0)
    metrics["trace.pass_s"] = traced_dt
    metrics["trace.untimed_pass_s"] = plain_dt
    metrics["trace.overhead_ratio"] = traced_dt / plain_dt
    self_sum = sum(metrics[f"{layer}.self_s"] for layer in tracer.LAYERS) + metrics["bench.self_s"]
    details["self_times_sum_minus_trace_pass_s"] = self_sum - traced_dt

    code_of = {fid: i for i, fid in enumerate(spans.fids)}
    for metric, group in tracer.TIME_METRICS.items():
        ids = {code_of[fid] for fid in group if fid in code_of}
        if ids:
            metrics[metric] = stats.outermost_time(span_names, parents, durations, ids)
        else:
            absent.add(metric)
    span_calls = {fid: 0 for fid in spans.fids}
    for n in span_names:
        span_calls[spans.fids[n]] += 1
    for metric, fid in tracer.CALL_METRICS.items():
        if fid in count_patches.present:
            metrics[metric] = counts.values[fid]
        else:
            absent.add(metric)
    details["span_calls_equal_counted_calls"] = all(
        span_calls[fid] == counts.values[fid] for fid in spans.fids
    )
    for fid, (_, produced) in tracer.COUNTERS.items():
        for metric in produced:
            if fid not in count_patches.present or metric in counts.broken:
                absent.add(metric)
            else:
                metrics[metric] = counts.values[metric]
    if "linalg.entries_in" not in absent and "linalg.nnz_in" not in absent:
        entries = metrics["linalg.entries_in"]
        metrics["linalg.density"] = metrics["linalg.nnz_in"] / entries if entries else 0.0
    else:
        absent.add("linalg.density")
    if ops.present:
        metrics["fractions.ops"] = ops.ops
    else:
        absent.add("fractions.ops")
    identities = sum(
        metrics[m]
        for m in ("witt.pairs_checked", "rinehart.identities_checked", "liealg.pairs_checked")
    )
    if identities and ops.present:
        metrics["fractions.ops_per_identity"] = ops.ops / identities
    else:
        absent.add("fractions.ops_per_identity")

    metrics["cli.python_startup_s"] = startup_s
    timed_import = [
        sys.executable,
        "-c",
        "import time; t = time.perf_counter(); import crosshom.cli; print(time.perf_counter() - t)",
    ]
    metrics["cli.import_s"] = stats.median(
        [float(spawner.run_ok(timed_import)[0]) for _ in range(STARTUP_PROBES)]
    )
    if workload.subprocess_jobs:
        metrics["cli.spawn_overhead_s"] = stats.median(
            [a - b for a, b in zip(sub_samples, plain_samples)]
        )
    else:
        absent.add("cli.spawn_overhead_s")

    spans_path = out_dir / f"spans-{workload.name}.tsv"
    spans.write_tsv(spans_path, names)
    details.update(
        spans=len(spans.name),
        spans_file=str(spans_path),
        absent_functions=sorted(patches.absent),
        computed_counts=tracer.COMPUTED_METRICS,
    )
    for metric in absent:
        metrics[metric] = 0
    details["absent"] = sorted(absent)
    return metrics, details, attempted, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "crosshom" / "__init__.py").is_file() or not (root / "fixtures").is_dir():
        print("bench/run.py: run from a crosshom checkout; src/crosshom or fixtures/ is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    workload = workloads.WORKLOADS[args.workload]
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir()
    signal.signal(signal.SIGALRM, _stop)
    signal.signal(signal.SIGTERM, _stop)
    signal.alarm(DEADLINE_S)
    spawner = Spawner(root, workdir)
    try:
        env = environment(root)
        env["loadavg_before"] = os.getloadavg()
        spawner.run_ok([sys.executable, "-c", "import crosshom.cli"])  # write the .pyc files once
        env["python_startup_s"] = stats.median(
            [spawner.run_ok([sys.executable, "-c", "pass"])[1] for _ in range(STARTUP_PROBES)]
        )
        probes = iter(range(SETUP_PROBES))

        def probe():
            probe_dir = workdir / f"probe{next(probes)}"
            probe_dir.mkdir()
            argv = [sys.executable, str(HERE / "probe.py"), workload.name, str(args.seed),
                    str(probe_dir)]
            spawned = clock_gettime(CLOCK_MONOTONIC)
            return float(spawner.run_ok(argv)[0]) - spawned

        t0 = perf_counter()
        inputs = workload.setup(args.seed, workdir)
        in_process_setup = perf_counter() - t0
        runner = spawner.cli if workload.subprocess_jobs else None
        jobs = workload.jobs(inputs, runner)
        rng = random.Random(f"{workload.name}:{args.seed}")
        if args.trace:
            metrics, details, attempted, failures = traced_run(
                workload, inputs, jobs, rng, spawner, out_dir, env["python_startup_s"]
            )
            units = PER_LAYER
        else:
            metrics, details, attempted, failures = timed_run(
                workload, jobs, args.seconds, rng, spawner, probe
            )
            units = END_TO_END
        env["loadavg_after"] = os.getloadavg()
        signal.alarm(0)
    except Stop as exc:
        print(f"bench/run.py: {exc}", file=sys.stderr)
        return 3
    finally:
        spawner.close()
        shutil.rmtree(workdir, ignore_errors=True)

    unexpected = [f for f in failures if f[0] not in workload.known_defects]
    details.update(
        workload=workload.name,
        seed=args.seed,
        trace=args.trace,
        jobs_per_pass=len(jobs),
        in_process_setup_s=in_process_setup,
        environment=env,
        failed_ratio=len(failures) / attempted,
        known_defects=sorted(workload.known_defects),
        failures=sorted({f"{name}: {problem}" for name, problem in failures}),
    )
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"jobs/pass {len(jobs)}  attempted {attempted}  failed {len(failures)}")
    for name, unit in units.items():
        value = metrics[name]
        shown = f"{value:>14.6g}" if isinstance(value, float) else f"{value:>14}"
        print(f"  {name:38s} {shown} {unit}")
    print(f"  {'failed_ratio':38s} {len(failures) / attempted:>14.6g} ratio")
    for line in details["failures"]:
        print(f"  failure: {line}")
    print(json.dumps({"details": details}, default=str))
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
