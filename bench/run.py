"""defdom benchmark: closed-loop CLI jobs, or a traced in-process run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the package is imported from its
`src` directory.  With `--trace 0`, one client runs the workload's job
cycle as separate `defdom` processes, one at a time (the next job starts
when the previous one exits), in the number of whole cycles that best fills
S seconds, checks every job against its oracle answer and reports the
end-to-end metrics, with times scaled to a fixed reference job's speed.
With `--trace 1`, the same cycle plus one small job of every command runs
inside this process, alternating untraced and traced passes, and the
per-layer metrics are reported.  The last line of stdout is one JSON object.
"""

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import workloads
from tracing import COUNT_METRICS, TIME_METRICS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SHIM = "import sys; from defdom.cli import main; sys.exit(main())"
SETUP_REPEATS = 3     # setup_s is the median of this many full set-ups
# The reference job: a fresh interpreter that imports numpy, as every CLI job
# does, then runs a fixed pure-Python loop.  It touches no repository code.
REFERENCE = "import numpy\ns = 0\nfor i in range(300_000):\n    s += i * i\n"
REFERENCE_S = 0.25    # its typical median on a shared 2-vCPU 2.1 GHz Xeon VM,
                      # where run medians ranged 0.19-0.30 s with the host's load
JOB_LIMIT_S = 20.0    # a job still running after this is killed and fails
IMPORT_REPEATS = 5    # cli.import_s is the median of this many fresh imports

END_TO_END_UNITS = {"job_s_p50": "s", "job_s_tail": "s", "jobs_per_s": "1/s",
                    "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER_UNITS = {"cli.import_s": "s", **{m: "s" for m in TIME_METRICS},
                   **{m: "count" for m in COUNT_METRICS}, "trace.overhead_frac": "ratio"}


def child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")


def run_job(job: workloads.Job, work: Path, env: dict) -> tuple[float, float, str | None]:
    """Run one CLI job as its own process: (wall seconds, peak RSS in MB, error)."""
    out_path = work / "job.stdout"
    killed = threading.Event()
    with open(out_path, "w+b") as out:
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SHIM, *job.argv], stdout=out,
                                stderr=subprocess.DEVNULL, env=env, cwd=work)

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(JOB_LIMIT_S, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        elapsed = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        stdout = out.read().decode(errors="replace")
    rss_mb = usage.ru_maxrss / 1024
    if killed.is_set():
        return elapsed, rss_mb, f"killed after the {JOB_LIMIT_S:.0f} s job limit"
    return elapsed, rss_mb, workloads.job_error(job, proc.returncode, stdout)


def reference_seconds(env: dict) -> float:
    """Wall time of one run of the reference job."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", REFERENCE], env=env, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return perf_counter() - start


def loop_s(start: float, refs: list[float]) -> float:
    """Seconds since `start`, at reference speed."""
    return (perf_counter() - start) * REFERENCE_S / statistics.median(refs)


def tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and that percentile.

    With ten samples or fewer no such percentile exists; the maximum is
    reported instead (percentile 100).
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def setup(args, work: Path, env: dict,
          refs: list[float]) -> tuple[list[workloads.Job], float, int]:
    """Build inputs and oracle answers, then warm up with one untimed job;
    repeated from scratch SETUP_REPEATS times, each followed by a reference
    job (appended to `refs`).  Returns the last job cycle, the median set-up
    time and the number of failed warm-up jobs."""
    times, failed = [], 0
    for r in range(SETUP_REPEATS):
        start = perf_counter()
        jobs = workloads.build(args.workload, args.seed, work / f"setup{r}")
        _, _, error = run_job(jobs[0], work, env)
        times.append(perf_counter() - start)
        refs.append(reference_seconds(env))
        if error:
            failed += 1
            print(f"# warm-up {' '.join(jobs[0].argv)}: {error}", file=sys.stderr)
    return jobs, statistics.median(times), failed


def timed_run(args, work: Path) -> dict:
    """Closed loop of CLI jobs.  The host's speed drifts by a fifth or more
    over minutes, so a reference job runs after every job, and every time
    metric is scaled by REFERENCE_S over the run's median reference time:
    it reads as seconds at the reference speed.  Raw seconds go to the
    summary line."""
    env = child_env()
    refs: list[float] = []
    jobs, setup_s, warm_failed = setup(args, work, env, refs)
    times, rss, failed = [], [], 0
    start = perf_counter()
    # The run stops at the cycle boundary nearest to the deadline, so every
    # run measures whole cycles and the job mix does not depend on the
    # program's speed.  The deadline counts loop time at reference speed,
    # so that the number of cycles does not depend on the host's speed.
    cycles = 0
    while len(times) % len(jobs) or not cycles or (
            loop_s(start, refs) * (1 + 0.5 / cycles) < args.seconds):
        job = jobs[len(times) % len(jobs)]
        elapsed, rss_mb, error = run_job(job, work, env)
        times.append(elapsed)
        rss.append(rss_mb)
        refs.append(reference_seconds(env))
        cycles += len(times) % len(jobs) == 0
        if error:
            failed += 1
            print(f"# {' '.join(job.argv)}: {error}", file=sys.stderr)
    loop = loop_s(start, refs)
    tail_s, pct = tail(times)
    scale = REFERENCE_S / statistics.median(refs)
    raw = {"job_s_p50": statistics.median(times), "job_s_tail": tail_s,
           "jobs_per_s": (len(times) - failed) / sum(times), "setup_s": setup_s}
    print(f"# {args.workload} seed {args.seed}: {len(times)} jobs "
          f"({cycles} cycles of {len(jobs)}) in {loop:.2f} s of loop time "
          f"at reference speed, {failed} failed (failed_frac {failed / len(times):.4f}); "
          f"job_s_tail is p{pct:.1f} of {len(times)} samples; reference job "
          f"median {statistics.median(refs):.4f} s of {len(refs)}, scale {scale:.4f}; "
          f"raw {', '.join(f'{k} {v:.4f}' for k, v in raw.items())}")
    values = {"job_s_p50": raw["job_s_p50"] * scale, "job_s_tail": tail_s * scale,
              "jobs_per_s": raw["jobs_per_s"] / scale, "peak_rss_mb": max(rss),
              "setup_s": setup_s * scale}
    return {"correct": failed == 0 and warm_failed == 0, "attempted": len(times),
            "failed": failed,
            "metrics": {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                        for name, value in values.items()}}


class _Sink(io.TextIOBase):
    def write(self, text: str) -> int:
        return len(text)


def run_pass(jobs: list[workloads.Job]) -> tuple[float, int]:
    """Run every job in this process once: (wall seconds, failed jobs)."""
    failed = 0
    start = perf_counter()
    for job in jobs:
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(_Sink()):
                code = sys.modules["defdom.cli"].main(job.argv)
        except Exception as exc:   # a crash fails the job, like a traceback would
            error = f"raised {exc!r}"
        else:
            error = workloads.job_error(job, code, out.getvalue())
        if error:
            failed += 1
            print(f"# traced {' '.join(job.argv)}: {error}", file=sys.stderr)
    return perf_counter() - start, failed


def import_seconds(env: dict) -> float:
    """Median wall time of `import defdom.cli` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import defdom.cli; "
            "print(time.perf_counter() - t)")
    samples = [float(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                    capture_output=True, text=True).stdout)
               for _ in range(IMPORT_REPEATS)]
    return statistics.median(samples)


def traced_run(args, work: Path) -> dict:
    env = child_env()
    jobs = workloads.build(args.workload, args.seed, work / "cycle")
    jobs += workloads.build_probe(args.seed, work / "probe")
    layers = {"cli.import_s": import_seconds(env)}
    import defdom.cli  # noqa: F401  (loads every module the tracer wraps)

    _, failed = run_pass(jobs)   # warm-up, untimed
    attempted = len(jobs)
    tracer = Tracer()
    plain, traced, seconds, counts = [], [], [], []
    start = perf_counter()
    while not traced or perf_counter() + plain[-1] + traced[-1] < start + args.seconds:
        # Alternate which side of a pair runs first, so drift cancels.
        for with_trace in (False, True) if len(traced) % 2 == 0 else (True, False):
            if with_trace:
                tracer.reset()
                tracer.install()
            try:
                wall, bad = run_pass(jobs)
            finally:
                tracer.uninstall()
            (traced if with_trace else plain).append(wall)
            failed += bad
            attempted += len(jobs)
        seconds.append(dict(tracer.seconds))
        counts.append(dict(tracer.counts))
    for name in TIME_METRICS:
        layers[name] = statistics.median(s.get(name, 0.0) for s in seconds)
    repeat = all(c == counts[0] for c in counts)
    for name in COUNT_METRICS:
        layers[name] = counts[0].get(name, 0)
    # Per pair, so that both sides of a ratio ran at the same machine speed.
    layers["trace.overhead_frac"] = statistics.median(t / p for t, p in zip(traced, plain)) - 1
    print(f"# {args.workload} seed {args.seed}: {len(traced)} untraced/traced pass pairs "
          f"of {len(jobs)} jobs; counts repeat exactly: {repeat}")
    return {"correct": failed == 0 and repeat, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": PER_LAYER_UNITS[name]}
                        for name, value in layers.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "defdom" / "cli.py").is_file():
        print(f"error: no defdom sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work_root = ROOT / ".bench_work"
    work = work_root / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = (traced_run if args.trace else timed_run)(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
