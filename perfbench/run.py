"""sigmadim benchmark: one workload, one closed-loop caller, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the program is imported from
``src/`` of that checkout and nothing is installed.  A job is one CLI verb
run in-process through ``sigmadim.cli.main(argv)`` with stdout captured,
so parsing, the engine and output formatting are all inside the timed
call.  The next job starts only after the previous one returned; there are
no worker threads or processes.  Jobs come from the seed's stream (see
``workloads.py``) and every output is checked (see ``checks.py``); for the
default seed each output must also equal, byte for byte, the output the
seed commit printed (``golden/``).

``--trace 0`` reports the end-to-end metrics: job latency median and tail,
correct jobs per second, the share of jobs that completed correctly, peak
resident memory, and the cold start of a fresh interpreter (``setup_s``).
``--trace 1`` runs the first jobs of the stream twice, untraced and then
traced (see ``tracing.py``), and reports the per-layer metrics of the traced
pass plus the tracing overhead.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
GOLDEN = HERE / "golden"
GOLDEN_SEED = 0

JOB_TIMEOUT_S = 15.0  # about six times the slowest job at the seed commit
WARMUP_S = 1.0
SETUP_STARTS = 12
SETUP_ARGV = ["-m", "sigmadim.cli", "cover", "0,1"]
SETUP_OUTPUT = "E = {0,1}\ndensity = 1/2\ncomplement: period 2, offsets {0}\n"
# correct jobs per second of each workload at the seed commit; a traced run
# covers the jobs the untraced loop would finish in half of --seconds
TRACE_RATE = {"truncation": 2.6, "automaton": 1.8, "windows": 3.2, "certify": 2.7}


def fingerprint(text: str) -> str:
    """First 64 bits of the SHA-256 of a text, in hex."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class JobTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise JobTimeout


class Runner:
    """Runs jobs of one stream, checks each output, and remembers outputs
    so that a repeated job must print the same bytes again."""

    def __init__(self, workload: str, seed: int, cli, golden: bool = True):
        self.cli = cli
        self.stream = workloads.stream(workload, seed)
        self.jobs: list = []
        self.seen: dict[str, str] = {}
        self.golden = self._load_golden(workload) if golden and seed == GOLDEN_SEED else None
        self.workdir = OUT / f"{workload}-{seed}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.failures: list[str] = []
        self.attempted = 0

    @staticmethod
    def _load_golden(workload: str):
        path = GOLDEN / f"{workload}.json"
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)["jobs"]

    def job(self, index: int):
        while len(self.jobs) <= index:
            self.jobs.append(next(self.stream))
        return self.jobs[index]

    def _argv(self, job) -> list[str]:
        if job.family is None:
            return job.argv
        path = self.workdir / f"family-{fingerprint(job.family)}.txt"
        if not path.exists():
            path.write_text(job.family, encoding="utf-8")
        return [str(path) if a == workloads.FAMILY_ARG else a for a in job.argv]

    def execute(self, job) -> tuple[float, int | None, str, str | None]:
        """(seconds, exit code, stdout, error) of one job in-process."""
        argv = self._argv(job)
        out, err = io.StringIO(), io.StringIO()
        code, error = None, None
        signal.setitimer(signal.ITIMER_REAL, JOB_TIMEOUT_S)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except JobTimeout:
            error = f"timed out after {JOB_TIMEOUT_S} s"
        except SystemExit as exc:
            error = f"exited with {exc.code}"
        except Exception as exc:  # any crash of the program is a failed job
            error = f"raised {type(exc).__name__}: {exc}"
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
        return elapsed, code, out.getvalue(), error

    def verdict(self, index: int, job, code, out: str, error) -> str | None:
        if error is not None:
            return error
        if code != 0:
            return f"exit code {code}"
        try:
            reason = job.check(json.loads(out)["result"])
        except Exception as exc:  # output of an unexpected shape is a failed job
            return f"output does not parse as expected: {type(exc).__name__}: {exc}"
        if reason is not None:
            return reason
        digest = fingerprint(out)
        label = job.label()
        if self.seen.setdefault(label, digest) != digest:
            return "output differs from an earlier run of the same job"
        if self.golden is not None and index < len(self.golden):
            want_label, want = self.golden[index]
            if want_label != fingerprint(label):
                raise SystemExit(f"golden/{index}: the job stream changed; regenerate golden/")
            if digest != want:
                return "output differs from the seed commit's"
        return None

    def run(self, index: int) -> tuple[float, bool]:
        job = self.job(index)
        elapsed, code, out, error = self.execute(job)
        reason = self.verdict(index, job, code, out, error)
        self.attempted += 1
        if reason is not None:
            self.failures.append(f"job {index} {job.label()}: {reason}")
        return elapsed, reason is None


def cold_start(env: dict) -> float:
    """Seconds a fresh interpreter takes to run one trivial verb."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *SETUP_ARGV], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0 or proc.stdout != SETUP_OUTPUT:
        raise RuntimeError(f"cold start printed {proc.stdout!r}, exit {proc.returncode}")
    return elapsed


def tail(times: list[float]) -> tuple[float, int]:
    """Highest whole percentile with at least ten jobs beyond it (nearest
    rank), and that percentile; the maximum when there are ten jobs or fewer."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100
    p = 100 * (n - 10) // n
    rank = max(1, math.ceil(p * n / 100))
    return ordered[rank - 1], p


def closed_loop(runner: Runner, first: int, deadline_s: float) -> tuple[list[float], int, float]:
    """Jobs first, first + 1, ... of the stream until deadline_s has passed:
    (latencies, correct jobs, wall seconds)."""
    times, ok = [], 0
    start = time.perf_counter()
    while time.perf_counter() - start < deadline_s:
        elapsed, good = runner.run(first + len(times))
        times.append(elapsed)
        ok += good
    return times, ok, time.perf_counter() - start


def fixed_pass(runner: Runner, count: int, tracer=None) -> tuple[int, float]:
    """Jobs 0..count-1 of the stream: (correct jobs, wall seconds)."""
    ok = 0
    start = time.perf_counter()
    for index in range(count):
        if tracer is not None:
            tracer.start_job(index)
        ok += runner.run(index)[1]
    return ok, time.perf_counter() - start


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(runner: Runner, seconds: float) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cold_start(env)  # the first start only fills the bytecode cache
    closed_loop(runner, 0, WARMUP_S)
    attempted_before = runner.attempted
    times, ok, wall, starts = [], 0, 0.0, []
    # the cold starts alternate with slices of the timed loop, so that set-up
    # is sampled over the whole run and not at one moment of it
    for _ in range(SETUP_STARTS):
        starts.append(cold_start(env))
        more, more_ok, more_wall = closed_loop(runner, len(times), seconds / SETUP_STARTS)
        times += more
        ok += more_ok
        wall += more_wall
    attempted = runner.attempted - attempted_before
    tail_s, pct = tail(times)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"jobs: {attempted} attempted, {ok} correct, in {wall:.3f} s")
    print(f"job_tail_s is p{pct} of {len(times)} jobs; failed_ratio = {(attempted - ok) / attempted}")
    return {
        "job_p50_s": metric(statistics.median(times), "s"),
        "job_tail_s": metric(tail_s, "s"),
        "jobs_per_s": metric(ok / wall, "1/s"),
        "ok_ratio": metric(ok / attempted, "ratio"),
        "peak_rss_mb": metric(rss_mb, "MB"),
        "setup_s": metric(statistics.median(starts), "s"),
    }


def per_layer(runner: Runner, workload: str, seed: int, seconds: float) -> dict:
    count = max(1, round(TRACE_RATE[workload] * seconds / 2))
    ok_plain, wall_plain = fixed_pass(runner, count)
    tracer = Tracer()
    tracer.install()
    try:
        ok_traced, wall_traced = fixed_pass(runner, count, tracer)
    finally:
        tracer.uninstall()
    tracer.write(OUT / f"spans-{workload}-{seed}.jsonl")
    out = tracer.metrics()
    overhead = (ok_traced / wall_traced) / (ok_plain / wall_plain) if ok_plain else 0.0
    out["trace.overhead_ratio"] = metric(overhead, "ratio")
    print(f"traced pass: {count} jobs, {wall_plain:.3f} s untraced, {wall_traced:.3f} s traced, "
          f"{len(tracer.spans)} spans")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (SRC / "sigmadim" / "cli.py").is_file():
        print(f"error: no program source at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import sigmadim.cli

    if Path(sigmadim.cli.__file__).resolve().parent != SRC / "sigmadim":
        print(f"error: imported sigmadim from {sigmadim.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    signal.signal(signal.SIGALRM, _alarm)
    runner = Runner(args.workload, args.seed, sigmadim.cli)
    if args.trace:
        metrics = per_layer(runner, args.workload, args.seed, args.seconds)
    else:
        metrics = end_to_end(runner, args.seconds)
    for line in runner.failures[:20]:
        print("FAILED", line)
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
