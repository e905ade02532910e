"""Steadiness check: is each end-to-end metric's run-to-run spread within
its bound, and do two sets of runs agree?

    python3 perfbench/steady.py

Runs ``run.py`` for seeds 1-10 on every workload of BENCHMARK.json, one run
at a time with its ``run_seconds``, and then does it all a second time.
For each set, workload and end-to-end metric it prints the median, the
quartiles, and the spread: the distance between the quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound; for the second set also how much worse its median is
than the first set's, as a share of the first.  A metric is ``steady`` when
its spread is below a third of its bound and the second median is not worse
by more than the bound, ``within bound`` when the spread only stays within
the bound, and ``NOT WITHIN BOUND`` otherwise; any of the last, or a run
that is not correct, makes the exit code 1.  Raw results go to
``out/steady.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)
SETS = 2


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse the second median is, as a share of the first."""
    change = (second - first) / first
    return change if better == "lower" else -change


def verdict(spread: float, drift: float, bound: float) -> str:
    if drift > bound or spread > bound:
        return "NOT WITHIN BOUND"
    return "steady" if spread < bound / 3 else "within bound"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    raw: dict = {w: [] for w in workloads}
    ok = True
    for k in range(SETS):
        for workload in workloads:
            runs = []
            for seed in SEEDS:
                result = run_once(workload, seed, spec["run_seconds"])
                if not result["correct"]:
                    print(f"set {k + 1} {workload} seed {seed}: {result['failed']} failed jobs")
                    ok = False
                runs.append(result)
            raw[workload].append(runs)
    for workload, sets in raw.items():
        print(f"\n{workload}: seeds {SEEDS.start}-{SEEDS.stop - 1}, {SETS} sets")
        print(f"  {'metric':<14} {'set':>3} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>7} "
              f"{'bound':>6} {'worse':>7}")
        for m in spec["end_to_end"]:
            first = None
            for k, runs in enumerate(sets, 1):
                values = [r["metrics"][m["name"]]["value"] for r in runs]
                q1, med, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med if med else float("inf")
                first = med if first is None else first
                drift = worse_by(first, med, m["better"])
                word = verdict(spread, drift, m["bound"])
                ok = ok and word != "NOT WITHIN BOUND"
                print(f"  {m['name']:<14} {k:>3} {med:>11.5g} {q1:>11.5g} {q3:>11.5g} "
                      f"{spread:>7.3f} {m['bound']:>6} {drift:>7.3f} {word}")
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "steady.json").write_text(json.dumps(raw, indent=1), encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
