"""Record the program's outputs for the default seed.

    python3 perfbench/golden.py

Runs the first ``JOBS`` jobs of every workload's stream for the default
seed and writes, per workload, the fingerprint (64 bits of SHA-256) of each job's
input label and of its output to ``golden/<workload>.json``.  Run it only
at a commit whose outputs are the reference: ``run.py`` then requires
byte-identical output for these jobs.  A job that fails its checks stops the recording.
"""

from __future__ import annotations

import json
import signal
import sys

import run
import workloads

JOBS = 200


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import sigmadim.cli

    signal.signal(signal.SIGALRM, run._alarm)
    run.GOLDEN.mkdir(exist_ok=True)
    for workload in workloads.WORKLOADS:
        runner = run.Runner(workload, run.GOLDEN_SEED, sigmadim.cli, golden=False)
        rows = []
        for index in range(JOBS):
            job = runner.job(index)
            _, code, out, error = runner.execute(job)
            reason = runner.verdict(index, job, code, out, error)
            if reason is not None:
                print(f"{workload} job {index} {job.label()}: {reason}", file=sys.stderr)
                return 1
            rows.append([run.fingerprint(job.label()), run.fingerprint(out)])
        with open(run.GOLDEN / f"{workload}.json", "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"seed": run.GOLDEN_SEED, "jobs": rows}) + "\n")
        print(f"{workload}: {len(rows)} outputs recorded")
    return 0


if __name__ == "__main__":
    sys.exit(main())
