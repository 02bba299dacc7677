"""Per-layer view: a traced in-process run of a workload's jobs.

The benchmark's own code wraps spans around the public functions of each
bkt module (cli, matrix, generators, draws, winprob, robustness, solvers)
by swapping module attributes while a traced pass runs; nothing inside
src/bkt changes.  Passes alternate between traced and untraced so the
difference gives the tracing overhead.  A per-call metric the workload's
own jobs never reach (say, sensitivity at 128 players in `ingest`) is
measured by a small probe through the same wrappers, so every workload
reports every metric.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import signal
import statistics
import time
import types
from pathlib import Path

import oracle
import workloads

PROBE_REPEATS = {"us": 200, "ms": 3}


def _n_of_report(args, result):
    return (1 + math.isqrt(1 + 8 * len(result["alphas"]))) // 2


def _arg_size(k):
    return lambda args, result: args[k].size


def _result_size(args, result):
    return result.size


# (module, attribute, span name, size of the call)
TRACED = [
    ("cli", "main", "cli.main", None),
    ("matrix", "matrix_from_json_dict", "matrix.from_json", _result_size),
    ("matrix", "validate_matrix", "matrix.validate", _result_size),
    ("matrix", "ComparisonMatrix.to_json_dict", "matrix.to_json", _arg_size(0)),
    ("generators", "gen_hard", "generators.gen", _result_size),
    ("generators", "gen_unbalanced", "generators.gen", _result_size),
    ("generators", "gen_threetier", "generators.gen", _result_size),
    ("generators", "gen_bigsmall", "generators.gen", lambda a, r: r.matrix.size),
    ("generators", "uniform_perturbation", "generators.perturb", _result_size),
    ("draws", "canonicalize", "draws.canonicalize", _result_size),
    ("draws", "draw_from_json_dict", "draws.from_json", _result_size),
    ("winprob", "win_probabilities", "winprob.win_probabilities", _arg_size(0)),
    ("winprob", "winner", "winprob.winner", _arg_size(0)),
    ("winprob", "wp_by_outcome_enumeration", "winprob.outcome_enumeration", _arg_size(0)),
    ("robustness", "sensitivity", "robustness.sensitivity", _arg_size(0)),
    ("robustness", "SensitivityReport.to_json_dict", "robustness.report_json", _n_of_report),
    ("robustness", "drop_estimate", "robustness.drop_estimate", None),
    ("robustness", "worst_perturbation_witness", "robustness.witness", _arg_size(1)),
    ("robustness", "crucial_matches", "robustness.crucial", _arg_size(0)),
    ("robustness", "crucial_matches_oracle", "robustness.crucial_oracle", _arg_size(0)),
    ("robustness", "exact_worst_drop_oracle", "robustness.oracle_drop", _arg_size(0)),
    ("solvers", "solve", "solvers.solve", lambda a, r: a[0].matrix.size),
]

# Per-call metrics: mean inclusive span time of one function at one size.
# The name is "<span>_<unit>.n<size>".
PER_CALL = [
    ("matrix.from_json", 1024, "ms"),
    ("matrix.to_json", 1024, "ms"),
    ("generators.gen", 1024, "ms"),
    ("draws.canonicalize", 16, "us"),
    ("draws.canonicalize", 32, "us"),
    ("draws.enumerate", 8, "ms"),
    ("winprob.win_probabilities", 1024, "ms"),
    ("winprob.win_probabilities", 8, "us"),
    ("winprob.win_probabilities", 16, "us"),
    ("winprob.win_probabilities", 32, "us"),
    ("winprob.winner", 16, "us"),
    ("robustness.sensitivity", 64, "ms"),
    ("robustness.sensitivity", 128, "ms"),
    ("robustness.sensitivity", 8, "us"),
    ("robustness.report_json", 128, "ms"),
    ("robustness.witness", 128, "ms"),
    ("robustness.oracle_drop", 4, "ms"),
    ("robustness.crucial", 1024, "ms"),
]
_SCALE = {"us": 1e-3, "ms": 1e-6, "s": 1e-9}  # from nanoseconds


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {
        "cli.startup_ms": "ms", "cli.main_ms": "ms",
        "cli.json_load_ms": "ms", "cli.json_dump_ms": "ms",
    }
    units.update({f"{span}_{unit}.n{size}": unit for span, size, unit in PER_CALL})
    units.update({
        "solvers.solve_ms": "ms", "solvers.draws_examined": "count",
        "solvers.draws_per_s": "1/s", "solvers.found_ratio": "1",
        "trace.coverage": "1", "trace.overhead_s": "s",
    })
    return units


class Tracer:
    """Spans kept in memory: (id, parent, job, name, size, start_ns, end_ns, info)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.job = None
        self._ids = 0
        self._saved: list[tuple[object, str, object]] = []

    def _open(self) -> tuple[int, int]:
        sid = self._ids
        self._ids += 1
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, size, start, info=None):
        end = time.perf_counter_ns()
        self.stack.pop()
        self.spans.append((sid, parent, self.job, name, size, start, end, info))

    @contextlib.contextmanager
    def span(self, name: str, size: int = 0):
        sid, parent = self._open()
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(sid, parent, name, size, start)

    def wrap(self, fn, name, size_of):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = tracer._open()
            start = time.perf_counter_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                size, info = 0, None
                if size_of is not None and result is not None:
                    size = size_of(args, result)
                if name == "solvers.solve" and result is not None:
                    info = (result.draws_examined, result.exact, result.answer)
                tracer._close(sid, parent, name, size, start, info)
        return traced

    def install(self, bkt) -> None:
        """Swap every reference to a traced function inside bkt for its wrapper."""
        names = ("cli", "matrix", "generators", "draws", "winprob", "robustness", "solvers")
        modules = [bkt] + [getattr(bkt, m) for m in names]
        for mod_name, attr, name, size_of in TRACED:
            owner = getattr(bkt, mod_name)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                self._swap(owner, attr, self.wrap(getattr(owner, attr), name, size_of))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(original, name, size_of)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._swap(mod, key, wrapper)
        proxy = types.SimpleNamespace(
            loads=self.wrap(json.loads, "cli.json_load", None),
            dumps=self.wrap(json.dumps, "cli.json_dump", None),
            JSONDecodeError=json.JSONDecodeError,
        )
        self._swap(bkt.cli, "json", proxy)

    def _swap(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def self_times(spans) -> dict[str, int]:
    """Nanoseconds of each layer's own work: span time not covered by children."""
    covered: dict[int, int] = {}
    for _sid, parent, _job, _name, _size, start, end, _info in spans:
        if parent >= 0:
            covered[parent] = covered.get(parent, 0) + (end - start)
    out: dict[str, int] = {}
    for sid, _parent, _job, name, _size, start, end, _info in spans:
        layer = name.split(".")[0]
        out[layer] = out.get(layer, 0) + (end - start) - covered.get(sid, 0)
    return out


class JobTimeout(Exception):
    pass


def _expire(signum, frame):
    raise JobTimeout


def run_inprocess(bkt, job, timeout: float) -> tuple[int, str, str | None]:
    """Exit code, stdout and the error, if any, of one in-process CLI job.

    A job still running after `timeout` seconds is interrupted by a timer
    signal and counts as failed.
    """
    buf = io.StringIO()
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        with contextlib.redirect_stdout(buf):
            code = bkt.cli.main(job.argv)
    except SystemExit as e:
        return (e.code if isinstance(e.code, int) else 2), buf.getvalue(), "SystemExit"
    except JobTimeout:
        return 2, buf.getvalue(), "timeout"
    except Exception as e:  # a traceback from the CLI is a failed job, not a crashed run
        return 2, buf.getvalue(), f"{type(e).__name__}: {e}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, buf.getvalue(), None


def _probe_inputs(bkt, rng):
    cache = {}

    def matrix(size):
        if size not in cache:
            cache[size] = bkt.matrix.validate_matrix(workloads.interior(rng, size))
        return cache[size]

    def draw(size):
        return bkt.draws.Draw(tuple(int(x) + 1 for x in rng.permutation(size)))

    return matrix, draw


def run_probes(bkt, tracer, wanted, rng) -> None:
    """Call each wanted (span, size) through the wrappers, in-process."""
    matrix, draw = _probe_inputs(bkt, rng)
    rob, wp = bkt.robustness, bkt.winprob
    for span, size, unit in wanted:
        reps = 1 if size >= 128 else PROBE_REPEATS[unit]
        tracer.job = f"probe:{span}.n{size}"
        for _ in range(reps):
            if span == "matrix.from_json":
                doc = workloads.matrix_doc(workloads.interior(rng, size))
                bkt.matrix.matrix_from_json_dict(doc)
            elif span == "matrix.to_json":
                matrix(size).to_json_dict()
            elif span == "generators.gen":
                bkt.generators.gen_hard(size.bit_length() - 1)
            elif span == "draws.canonicalize":
                bkt.draws.canonicalize(draw(size))
            elif span == "draws.enumerate":
                with tracer.span(span, size):
                    sum(1 for _ in bkt.draws.enumerate_draws(size.bit_length() - 1))
            elif span == "winprob.win_probabilities":
                wp.win_probabilities(matrix(size), draw(size))
            elif span == "winprob.winner":
                p = bkt.matrix.validate_matrix(workloads.coin(rng, size))
                wp.winner(p, draw(size))
            elif span == "robustness.sensitivity":
                rob.sensitivity(matrix(size), draw(size), 1)
            elif span == "robustness.report_json":
                rob.sensitivity(matrix(size), draw(size), 1).to_json_dict()
            elif span == "robustness.witness":
                rep = rob.sensitivity(matrix(size), draw(size), 1)
                rob.worst_perturbation_witness(rep, matrix(size), 0.01)
            elif span == "robustness.oracle_drop":
                rob.exact_worst_drop_oracle(matrix(size), draw(size), 1, 0.01)
            elif span == "robustness.crucial":
                hard = bkt.matrix.validate_matrix(oracle.hard(size.bit_length() - 1))
                rob.crucial_matches(hard, bkt.draws.Draw(tuple(range(1, size + 1))), 1)


def run_solver_probe(bkt, tracer, rng) -> None:
    """An exact 8-player scan and a 16-player heuristic search, for
    workloads whose jobs never call the solver."""
    matrix, _ = _probe_inputs(bkt, rng)
    req = bkt.solvers.SolveRequest
    tracer.job = "probe:solvers"
    bkt.solvers.solve(req("RPTFP", matrix(8), 1, q=0.0, s=0.0))
    bkt.solvers.solve(req("PTFP", matrix(16), 1, q=0.0))


def traced_run(bkt, jobs, seconds, rng, check, job_timeout) -> dict:
    """Alternate untraced and traced in-process passes for `seconds`.

    check(index, code, stdout) returns whether the output passed.  Returns
    metrics, per-layer self times, job counts and the recorded spans.
    """
    tracer = Tracer()
    untraced, traced_passes = [], []
    attempted = failed = 0

    def run_pass(tracing: bool) -> float:
        nonlocal attempted, failed
        if tracing:
            tracer.install(bkt)
        t0 = time.perf_counter()
        try:
            for k, job in enumerate(jobs):
                tracer.job = f"{len(traced_passes)}:{k}"
                code, out, err = run_inprocess(bkt, job, job_timeout)
                attempted += 1
                failed += err is not None or not check(k, code, out)
        finally:
            tracer.uninstall()
        return time.perf_counter() - t0

    run_pass(False)  # warms the heap and caches; not timed
    start = time.perf_counter()
    while not traced_passes or time.perf_counter() - start < seconds:
        tracing = len(traced_passes) < len(untraced)
        (traced_passes if tracing else untraced).append(run_pass(tracing))

    job_spans = list(tracer.spans)
    by_pass: dict[str, dict[str, float]] = {}
    for _sid, _parent, job, name, _size, s0, s1, info in job_spans:
        acc = by_pass.setdefault(job.split(":")[0], {})
        acc[name] = acc.get(name, 0.0) + (s1 - s0)
        if info is not None:
            acc["draws"] = acc.get("draws", 0.0) + info[0]

    def per_pass(key, scale):
        return statistics.median(acc.get(key, 0.0) for acc in by_pass.values()) * scale

    metrics = {
        "cli.json_load_ms": per_pass("cli.json_load", 1e-6),
        "cli.json_dump_ms": per_pass("cli.json_dump", 1e-6),
        "trace.overhead_s": statistics.median(traced_passes) - statistics.median(untraced),
    }
    mains = [s for s in job_spans if s[3] == "cli.main"]
    main_ids = {s[0] for s in mains}
    main_ns = sum(s[6] - s[5] for s in mains)
    under = sum(s[6] - s[5] for s in job_spans if s[1] in main_ids)
    metrics["cli.main_ms"] = main_ns / len(mains) * 1e-6
    metrics["trace.coverage"] = under / main_ns

    durations: dict[tuple[str, int], list[int]] = {}
    for s in job_spans:
        durations.setdefault((s[3], s[4]), []).append(s[6] - s[5])
    wanted = [(span, size, unit) for span, size, unit in PER_CALL if (span, size) not in durations]
    solves = [s for s in job_spans if s[3] == "solvers.solve"]
    if solves:
        metrics["solvers.draws_examined"] = per_pass("draws", 1.0)
    tracer.install(bkt)
    try:
        run_probes(bkt, tracer, wanted, rng)
        if not solves:
            run_solver_probe(bkt, tracer, rng)
    finally:
        tracer.uninstall()
    if not solves:
        solves = [s for s in tracer.spans if s[3] == "solvers.solve"]
        metrics["solvers.draws_examined"] = float(sum(s[7][0] for s in solves))
    solve_ns = sum(s[6] - s[5] for s in solves)
    heuristic = [s for s in solves if not s[7][1]]
    metrics["solvers.solve_ms"] = solve_ns / len(solves) * 1e-6
    metrics["solvers.draws_per_s"] = sum(s[7][0] for s in solves) / (solve_ns * 1e-9)
    metrics["solvers.found_ratio"] = (
        sum(1 for s in heuristic if s[7][2]) / len(heuristic) if heuristic else 1.0
    )
    for s in tracer.spans[len(job_spans):]:
        durations.setdefault((s[3], s[4]), []).append(s[6] - s[5])
    for span, size, unit in PER_CALL:
        metrics[f"{span}_{unit}.n{size}"] = statistics.fmean(durations[span, size]) * _SCALE[unit]

    layer_ms = {k: v * 1e-6 / max(1, len(traced_passes)) for k, v in self_times(job_spans).items()}
    return {
        "metrics": metrics,
        "self_ms_per_pass": layer_ms,
        "detail": {
            "traced_pass_s": traced_passes,
            "untraced_pass_s": untraced,
            "probed": [f"{span}_{unit}.n{size}" for span, size, unit in wanted],
        },
        "attempted": attempted,
        "failed": failed,
        "spans": tracer.spans,
    }


def write_spans(path: Path, spans) -> None:
    """One JSON array per line: id, parent, job, name, size, start_ns, end_ns."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as f:
        for sid, parent, job, name, size, start, end, _info in spans:
            f.write(json.dumps([sid, parent, job, name, size, start, end]) + "\n")


def startup_ms(run_import, repeats: int = 5) -> float:
    """Median wall time of a fresh interpreter importing bkt."""
    return statistics.median(run_import() for _ in range(repeats)) * 1e3

