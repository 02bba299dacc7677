"""Benchmark of the bkt command line, end to end and layer by layer.

    python3 bench/run.py --workload ingest --seed 1 --seconds 20 --trace 0

Run from the repository root.  The load is a closed loop with one client:
each job is one `python -m bkt.cli ...` process, started only after the
previous one has exited.  A pass runs the workload's job list once; the run
repeats passes for --seconds and checks every output against the
benchmark's own reference code (oracle.py).

--trace 0 reports the end-to-end metrics of the CLI processes, with times
scaled to a reference machine speed (see calibrate).  --trace 1 runs the
same jobs in-process under spans wrapped around each bkt module instead and
reports the per-layer metrics (layers.py), unscaled.  The last line of
stdout is one JSON object {"correct", "attempted", "failed", "metrics"};
the lines before it list every metric with its unit, the raw times, the
environment and the per-layer self times.  Seed 1 is the default; seed 2
is the one for confirming a claim made on seed 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import layers
import workloads

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SETUPS = 3  # setup_s is the median of this many set-ups
JOB_TIMEOUT_S = 60.0
MEASURE_CAP_S = 100.0  # no pass starts after this, whatever --seconds says
RUN_LIMIT_S = 150.0  # a job still running this long after the start is killed
TAIL_PERCENTILES = (99.0, 95.0, 90.0, 75.0, 50.0)
CAL_LOOPS = 200_000
CAL_REF_S = {"loop": 0.015, "start": 0.05}  # calibration times at the reference speed

END_TO_END = {
    "setup_s": "s", "pass_s": "s", "job_ms_p50": "ms", "cpu_s": "s",
    "peak_rss_mb": "MB", "passed_frac": "1", "found_frac": "1",
}


def job_env() -> dict[str, str]:
    """The jobs' environment: this one, with bkt taken from the checkout's
    src and the solver's worker count left at its default."""
    env = dict(os.environ)
    env.pop("BKT_JOBS", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_process(argv: list[str], out_path: Path, err_path: Path, deadline: float) -> dict:
    """Run one process to completion, or kill it after JOB_TIMEOUT_S or at
    the deadline (a time.perf_counter() value); wall time and its own
    resource usage."""
    with out_path.open("wb") as out, err_path.open("wb") as err:
        start = time.perf_counter()
        timeout = max(0.0, min(JOB_TIMEOUT_S, deadline - start))
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=job_env(), cwd=ROOT)
        fd = os.pidfd_open(proc.pid)
        try:
            timed_out = not select.select([fd], [], [], timeout)[0]
            if timed_out:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        finally:
            os.close(fd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "code": proc.returncode,
        "timed_out": timed_out,
    }


def calibrate() -> dict[str, float]:
    """Seconds two fixed tasks take on this machine right now: a pure-Python
    loop, and starting an interpreter that imports json.

    The host's speed swings by a third or more over tens of seconds (its
    other tenants, frequency scaling): more than any run can average out.
    Each job's times are therefore scaled to the reference speed; see speed.
    The raw times are printed alongside.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(CAL_LOOPS):
        acc += i * i
    loop = time.perf_counter() - start
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import json"], check=True, env=job_env(), cwd=ROOT)
    return {"loop": loop, "start": time.perf_counter() - start}


def speed(before: dict[str, float], after: dict[str, float]) -> float:
    """Factor that scales a time measured between two calibrations to the
    reference speed: the geometric mean over both tasks of the reference
    time over the mean of the two samples."""
    ratios = [2 * ref / (before[k] + after[k]) for k, ref in CAL_REF_S.items()]
    return math.prod(ratios) ** (1 / len(ratios))


def cli_argv(job) -> list[str]:
    return [sys.executable, "-m", "bkt.cli", *job.argv]


class Checker:
    """Checks job outputs, caching each verdict by job and output digest."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.cache: dict[tuple, tuple[bool, bool, str]] = {}

    def __call__(self, index: int, code: int, out: bytes | str) -> tuple[bool, bool, str]:
        """(passed, found a witness, reason) for one job's exit code and stdout."""
        raw = out.encode() if isinstance(out, str) else out
        key = (index, code, hashlib.sha256(raw).hexdigest())
        if key not in self.cache:
            job = self.jobs[index]
            try:
                doc = json.loads(raw)
                job.check(doc, code)
                found = doc["result"]["answer"] in ("yes", "found") if job.known_witness else False
                self.cache[key] = (True, found, "")
            except (ValueError, KeyError, TypeError, IndexError, AttributeError,
                    workloads.CheckFailed) as e:
                self.cache[key] = (False, False, f"{type(e).__name__}: {e}")
        return self.cache[key]


def setup(name: str, seed: int, tmp: Path, count: int, deadline: float) -> tuple[list, list[dict]]:
    """Build the inputs `count` times, each followed by one warm-up job."""
    times = []
    for _ in range(count):
        before = calibrate()
        start = time.perf_counter()
        jobs = workloads.build(name, seed, tmp / "inputs")
        run_process(cli_argv(jobs[0]), tmp / "warmup.out", tmp / "warmup.err", deadline)
        wall = time.perf_counter() - start
        times.append({"raw_s": wall, "speed": speed(before, calibrate())})
    return jobs, times


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest listed percentile with at least ten samples beyond it.

    With fewer than twenty samples none qualifies and the median stands
    in; the count beyond it says so.
    """
    ordered = np.sort(samples)
    for pct in TAIL_PERCENTILES:
        value = float(np.percentile(ordered, pct))
        beyond = int(np.sum(ordered > value))
        if beyond >= 10:
            return value, pct, beyond
    value = float(np.percentile(ordered, 50.0))
    return value, 50.0, int(np.sum(ordered > value))


def measure(jobs, seconds: float, tmp: Path, deadline: float) -> dict:
    """Closed loop, one client: whole passes over the job list until
    `seconds` have gone by."""
    check = Checker(jobs)
    records, passes, cal = [], [], [calibrate()]
    start = time.perf_counter()
    while time.perf_counter() - start < min(seconds, MEASURE_CAP_S):
        batch = []
        for k, job in enumerate(jobs):
            rec = run_process(cli_argv(job), tmp / "job.out", tmp / "job.err", deadline)
            cal.append(calibrate())
            rec.update(speed=speed(cal[-2], cal[-1]), cal=[cal[-2], cal[-1]])
            stderr = (tmp / "job.err").read_bytes()
            passed, found, reason = check(k, rec["code"], (tmp / "job.out").read_bytes())
            if rec["timed_out"]:
                passed, reason = False, "timeout"
            elif b"Traceback" in stderr:
                passed, reason = False, "traceback on stderr"
            rec.update(job=k, kind=job.kind, passed=passed, found=found, reason=reason,
                       known=job.known_witness)
            batch.append(rec)
        records += batch
        passes.append(batch)

    for r in records:
        r["norm_wall_s"] = r["wall_s"] * r["speed"]
        r["norm_cpu_s"] = r["cpu_s"] * r["speed"]
    walls = [r["norm_wall_s"] for r in records]
    tail_ms, tail_pct, beyond = tail([w * 1e3 for w in walls])
    known = [r for r in records if r["known"]]
    failed = sum(not r["passed"] for r in records)

    def typical_pass(key):
        # each job's median over the passes, summed: it rides out speed
        # bursts shorter than a pass better than the median of whole passes
        return sum(statistics.median(b[k][key] for b in passes) for k in range(len(jobs)))

    return {
        "metrics": {
            "pass_s": typical_pass("norm_wall_s"),
            "job_ms_p50": statistics.median(walls) * 1e3,
            "cpu_s": typical_pass("norm_cpu_s"),
            "peak_rss_mb": max(r["rss_mb"] for r in records),
            "passed_frac": 1.0 - failed / len(records),
            # no job with a known witness: none was missed
            "found_frac": sum(r["found"] for r in known) / len(known) if known else 1.0,
        },
        "detail": {
            "passes": len(passes),
            "raw_pass_s": typical_pass("wall_s"),
            "raw_job_ms_p50": statistics.median(r["wall_s"] for r in records) * 1e3,
            "raw_cpu_s": typical_pass("cpu_s"),
            "speed_median": statistics.median(r["speed"] for r in records),
            "raw_pass_s_samples": [sum(r["wall_s"] for r in b) for b in passes],
            "jobs": len(records),
            "failed_frac": failed / len(records),
            "job_ms_tail": tail_ms,
            "job_ms_tail_percentile": tail_pct,
            "job_ms_tail_samples_beyond": beyond,
            "known_witness_jobs": len(known),
            "failures": sorted({(r["kind"], r["reason"]) for r in records if not r["passed"]}),
            "job_ms_p50_by_kind": {
                kind: statistics.median(r["wall_s"] * 1e3 for r in records if r["kind"] == kind)
                for kind in sorted({r["kind"] for r in records})
            },
        },
        "jobs_run": records,
        "attempted": len(records),
        "failed": failed,
    }


def traced(jobs, seed: int, seconds: float, tmp: Path, name: str, deadline: float) -> dict:
    """In-process run under spans; see layers.py."""
    # only the traced run imports bkt: the end-to-end client never does
    sys.path.insert(0, str(SRC))
    os.environ.pop("BKT_JOBS", None)
    import bkt
    import bkt.cli

    import_argv = [sys.executable, "-c", "import bkt"]
    out, err = tmp / "import.out", tmp / "import.err"
    startup = layers.startup_ms(lambda: run_process(import_argv, out, err, deadline)["wall_s"])
    check = Checker(jobs)
    result = layers.traced_run(
        bkt, jobs, min(seconds, MEASURE_CAP_S), np.random.default_rng(seed),
        lambda k, code, out: check(k, code, out)[0], JOB_TIMEOUT_S,
    )
    result["metrics"]["cli.startup_ms"] = startup
    layers.write_spans(ROOT / ".bench_out" / f"spans-{name}.jsonl", result.pop("spans"))
    return result


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or "unknown"
        except OSError:
            pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {k: os.environ.get(k, "unset") for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cpu_count": os.cpu_count(),
        "loadavg_before": os.getloadavg(),
        "commit": commit,
        "source_digest": source_digest(),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "bkt" / "cli.py").is_file():
        print(f"bench: no bkt sources under {SRC}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + RUN_LIMIT_S
    env = environment()
    tmp = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    try:
        count = 1 if args.trace else SETUPS
        jobs, setup_times = setup(args.workload, args.seed, tmp, count, deadline)
        if args.trace:
            result = traced(jobs, args.seed, args.seconds, tmp, args.workload, deadline)
            units = layers.metric_units()
        else:
            result = measure(jobs, args.seconds, tmp, deadline)
            result["metrics"]["setup_s"] = statistics.median(
                t["raw_s"] * t["speed"] for t in setup_times)
            result["detail"]["raw_setup_s"] = statistics.median(t["raw_s"] for t in setup_times)
            units = END_TO_END
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    env["loadavg_after"] = os.getloadavg()

    metrics = {k: {"value": float(result["metrics"][k]), "unit": u} for k, u in units.items()}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "setups": setup_times,
              **result, "metrics": metrics}
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))

    for key, value in env.items():
        print(f"env {key} = {value}")
    for key, value in result.get("detail", {}).items():
        print(f"detail {key} = {value}")
    for layer, ms in sorted(result.get("self_ms_per_pass", {}).items()):
        print(f"self {layer} = {ms:.3f} ms per pass")
    for key, m in metrics.items():
        print(f"metric {key} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
