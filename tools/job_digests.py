"""The exit code and stdout digest of every benchmark job.

    python3 tools/job_digests.py --src ../other/src --seeds 1 2 > other.txt
    python3 tools/job_digests.py --seeds 1 2 > this.txt
    diff other.txt this.txt

Each workload's inputs are built by bench/workloads.py under --inputs, the
same directory for every run, because its path appears in each report's
command and inputs.  Every job then runs as `python -m bkt.cli ...` with
--src (by default this checkout's src) first on PYTHONPATH, one at a time.
One line is printed per job: workload, seed, job index, exit code and the
sha256 of stdout.  Two checkouts print the same lines exactly when their
jobs print the same bytes and exit the same way.  Nothing is written in the
repository.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402

JOB_TIMEOUT_S = 600


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="the bkt sources to run (default: this checkout's)")
    ap.add_argument("--inputs", type=Path,
                    default=Path(tempfile.gettempdir()) / "bkt-job-digests",
                    help="where the inputs are built; keep it the same across runs")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1])
    ap.add_argument("--workloads", nargs="+", choices=sorted(workloads.WORKLOADS),
                    default=list(workloads.WORKLOADS))
    args = ap.parse_args()
    src = args.src.resolve()
    if not (src / "bkt" / "cli.py").is_file():
        print(f"job_digests: no bkt sources under {src}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("BKT_JOBS", None)
    for seed in args.seeds:
        for name in args.workloads:
            jobs = workloads.build(name, seed, args.inputs.resolve())
            for index, job in enumerate(jobs):
                out = subprocess.run([sys.executable, "-m", "bkt.cli", *job.argv],
                                     capture_output=True, env=env, timeout=JOB_TIMEOUT_S)
                digest = hashlib.sha256(out.stdout).hexdigest()
                print(f"{name} {seed} {index} {out.returncode} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
