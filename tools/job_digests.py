"""The exit code and stdout digest of every benchmark job.

    python3 tools/job_digests.py --seeds 1 2 > this.txt
    python3 tools/job_digests.py --seeds 1 2 --against main

Each workload's inputs are built by bench/workloads.py under --inputs, the
same directory for every run, because its path appears in each report's
command and inputs.  Every job then runs as `python -m bkt.cli ...` with
--src (by default this checkout's src) first on PYTHONPATH, one at a time.
One line is printed per job: workload, seed, job index, exit code and the
sha256 of stdout.  Two checkouts print the same lines exactly when their
jobs print the same bytes and exit the same way.

With --against REV, the src of git revision REV is extracted to a temporary
directory and each job runs on both trees.  Only the jobs whose lines differ
are printed, or one line saying that none do, and the exit code is 1 when
any differs.  Nothing is written in the repository.
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


def _jobs(args):
    """(workload seed index, argv) of every job, its inputs built under --inputs."""
    for seed in args.seeds:
        for name in args.workloads:
            for index, job in enumerate(workloads.build(name, seed, args.inputs.resolve())):
                yield f"{name} {seed} {index}", job.argv


def _digest(src: Path, argv: list[str]) -> str:
    """The exit code and stdout sha256 of one job run on the sources at src."""
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-m", "bkt.cli", *argv],
                         capture_output=True, env=env, timeout=JOB_TIMEOUT_S)
    return f"{out.returncode} {hashlib.sha256(out.stdout).hexdigest()}"


def _extract(rev: str, into: str) -> Path:
    """The src of git revision rev, extracted under into."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", into], input=archive, check=True)
    return Path(into) / "src"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="the bkt sources to run (default: this checkout's)")
    ap.add_argument("--against", metavar="REV",
                    help="run each job on REV's src too and print only the jobs that differ")
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
    if args.against is None:
        for label, argv in _jobs(args):
            print(f"{label} {_digest(src, argv)}", flush=True)
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        other, differ = _extract(args.against, tmp), 0
        for label, argv in _jobs(args):
            theirs, ours = _digest(other, argv), _digest(src, argv)
            if theirs != ours:
                differ += 1
                print(f"{label} {theirs} at {args.against}\n{label} {ours} here", flush=True)
    print(f"jobs that differ from {args.against}: {differ}" if differ else
          f"no job differs from {args.against}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
