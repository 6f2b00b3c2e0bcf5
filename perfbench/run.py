"""graphcp benchmark: repeat one pipeline operation for a fixed time and
report end-to-end metrics (``--trace 0``) or per-layer metrics (``--trace 1``).

    python3 perfbench/run.py --workload snaps-5k --seed 1 --seconds 40 --trace 0

Closed loop: one process, one client, one operation at a time.  The first
operation is a warm-up: it is checked but not timed.  A run ends when the
next operation would end more than ``--seconds`` after the process started.
Set-up (import graphcp, ``generate_synthetic``, ``save_bundle``) runs several
times in child processes, spread evenly over the run, so its median is
reported without touching this process's memory high-water mark.  Every
operation's output is checked; the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Spans, per-operation times and the
run context are written to ``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from tracing import Tracer, combine_ops, op_layer_metrics, self_times
from workloads import (ROOT, WORKLOADS, bundle_bytes, check_report,
                       import_graphcp, run_op)

HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"
THREADS_ENV = "GRAPHCP_THREADS"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUPS = 7          # set-ups per run; setup_s is their median
WARMUP_OPS = 1      # leading operations that are checked but not timed
MIN_TIMED = 2       # timed operations per run even past --seconds, wall time allowing
MAX_WALL_S = 120.0  # stop starting operations that would end after this


@dataclass
class Op:
    traced: bool
    warmup: bool
    seconds: float
    report: object = None
    problems: list = field(default_factory=list)


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else (os.cpu_count() or 1)


def prepare_env() -> bool:
    """Serial graphcp trials and at most ``nproc`` BLAS threads, for this
    process and the set-up children.  Returns whether GRAPHCP_THREADS was set."""
    removed = os.environ.pop(THREADS_ENV, None) is not None
    cap = nproc()
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= cap:
            os.environ[var] = str(cap)
    return removed


def run_context(seed: int, threads_removed: bool) -> dict:
    import numpy
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), platform.processor())
    except OSError:
        cpu = platform.processor()
    return {
        "nproc": nproc(), "cpu_model": cpu or "unknown",
        "python": platform.python_version(), "numpy": numpy.__version__,
        "seed": seed, THREADS_ENV: "unset",
        f"{THREADS_ENV}_was_set": threads_removed,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "loop": "closed, one operation at a time",
    }


def set_up(workload, seed: int, bundle_dir: Path) -> tuple[float, tuple]:
    """One set-up child; returns (its seconds, digests of the files it wrote)."""
    from graphcp.matrixio import file_sha256
    cmd = [sys.executable, str(HERE / "setup_bundle.py"), "--n", str(workload.n),
           "--seed", str(seed), "--out", str(bundle_dir)]
    done = subprocess.run(cmd, check=True, capture_output=True, text=True,
                          timeout=MAX_WALL_S)
    return (float(done.stdout.split()[-1]),
            tuple(file_sha256(p) for p in sorted(bundle_dir.iterdir())))


def _direct(_name, fn, /, *args, **kwargs):
    return fn(*args, **kwargs)


def _more_ops(ops: list[Op], setups: list, t_start: float, seconds: float) -> bool:
    """Whether to start another operation: until the next one, and the
    set-ups still due, would end after ``seconds`` of the run's wall time."""
    if len(ops) <= WARMUP_OPS:
        return True
    est = statistics.median(o.seconds for o in ops[WARMUP_OPS:])
    due = (SETUPS - len(setups)) * statistics.median(t for t, _ in setups)
    elapsed = time.perf_counter() - t_start
    if len(ops) < WARMUP_OPS + MIN_TIMED and elapsed + est + due <= MAX_WALL_S:
        return True
    return elapsed + est + due <= seconds


def measure(g, workload, seed: int, seconds: float, trace: bool, work: Path,
            t_start: float) -> dict:
    bundle_dir = work / "bundle"
    setups = [set_up(workload, seed, bundle_dir)]
    manifest = bundle_dir / "manifest.txt"
    errors: list[str] = []
    tracer = Tracer()
    harness_names = dict(vars(g.harness))
    ops: list[Op] = []
    while _more_ops(ops, setups, t_start, seconds):
        warmup = len(ops) < WARMUP_OPS
        # timed operations alternate traced, untraced in a traced run
        traced = trace and not warmup and (len(ops) - WARMUP_OPS) % 2 == 0
        report_path = work / f"report-{len(ops)}.json"
        # free the previous operation's cyclic garbage first, so neither its
        # memory nor its collection lands inside this operation
        gc.collect()
        t = time.perf_counter()
        try:
            if traced:
                tracer.begin_op()
                with tracer.wrapping(g.harness):
                    report = run_op(g, workload, seed, manifest, report_path, tracer.call)
            else:
                report = run_op(g, workload, seed, manifest, report_path, _direct)
            op = Op(traced, warmup, time.perf_counter() - t, report)
            op.problems = check_report(g, workload, report, report_path)
        except Exception as exc:  # an operation that raises counts as failed
            op = Op(traced, warmup, time.perf_counter() - t,
                    problems=[f"raised {type(exc).__name__}: {exc}"])
        ops.append(op)
        # spread the set-ups evenly over the run: the host's speed drifts,
        # and set-ups in a row would all catch the same moment
        while (len(setups) < SETUPS and
               time.perf_counter() - t_start >= len(setups) * seconds / SETUPS):
            setups.append(set_up(workload, seed, bundle_dir))
    while len(setups) < SETUPS:
        setups.append(set_up(workload, seed, bundle_dir))

    if len({digest for _, digest in setups}) != 1:
        errors.append("set-ups from one seed wrote different files")
    if any(vars(g.harness).get(k) is not v for k, v in harness_names.items()):
        errors.append("tracing left graphcp.harness functions wrapped")
    done = [o for o in ops if o.report is not None]
    if not any(not o.warmup for o in done):
        errors.append("no timed operation completed")
    elif not all(g.reports_equal(o.report, done[0].report) for o in done[1:]):
        errors.append("reports differ between operations of one seed "
                      "(traced vs untraced, or run to run)")
    return {"setup_s": [t for t, _ in setups], "ops": ops,
            "done": [o for o in done if not o.warmup],
            "errors": errors, "tracer": tracer, "bytes_read": bundle_bytes(manifest)}


def _median_of(values: list[float]) -> tuple[float, int]:
    return statistics.median(values), len(values)


def end_to_end(m: dict) -> dict:
    """name -> (value, sample count)."""
    ref = m["done"][0].report.aggregate
    return {
        "run_s": _median_of([o.seconds for o in m["done"]]),
        "setup_s": _median_of(m["setup_s"]),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "set_size": (ref["size"]["mean"], len(m["done"][0].report.trials)),
        "singleton_hit": (ref["sh"]["mean"], len(m["done"][0].report.trials)),
    }


def per_layer(m: dict, names: list[str]) -> tuple[dict, list[str]]:
    tracer: Tracer = m["tracer"]
    traced = [o for o in m["done"] if o.traced]
    plain = [o for o in m["done"] if not o.traced]
    if not traced or not plain:
        return {}, ["a traced run needs a completed traced and untraced operation"]
    selfs = self_times(tracer.spans)
    traced_ops = sorted({s.op for s in tracer.spans})
    per_op = [op_layer_metrics(tracer.spans, selfs, op) for op in traced_ops]
    for row, o in zip(per_op, (o for o in m["ops"] if o.traced)):
        row["harness.trials"] = len(o.report.trials) if o.report else 0
        row["matrixio.bytes_read"] = m["bytes_read"]
    values, problems = combine_ops(per_op, [n for n in names if n != "trace.overhead_s"])
    out = {name: (v, len(per_op)) for name, v in values.items()}
    overhead = (statistics.median(o.seconds for o in traced)
                - statistics.median(o.seconds for o in plain))
    out["trace.overhead_s"] = (overhead, len(traced) + len(plain))
    return out, problems


def main(argv=None) -> int:
    t_start = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    threads_removed = prepare_env()
    try:
        g = import_graphcp()
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ImportError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    context = run_context(args.seed, threads_removed)
    print("context " + json.dumps(context), flush=True)

    work = WORK / f"{workload.name}-s{args.seed}-p{os.getpid()}"
    try:
        m = measure(g, workload, args.seed, args.seconds, bool(args.trace),
                    work, t_start)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    errors = list(m["errors"])
    declared = spec["per_layer" if args.trace else "end_to_end"]
    values: dict = {}
    if m["done"]:
        if args.trace:
            values, problems = per_layer(m, [d["name"] for d in declared])
            errors += problems
        else:
            values = end_to_end(m)
    failed = sum(1 for o in m["ops"] if o.problems)
    for i, o in enumerate(m["ops"]):
        for p in o.problems:
            print(f"op {i} FAILED: {p}")
    for e in errors:
        print(f"ERROR: {e}")
    if not values:
        return 1

    metrics = {}
    for d in declared:
        value, samples = values[d["name"]]
        metrics[d["name"]] = {"value": value, "unit": d["unit"]}
        shown = f"{value:>16.6f}" if isinstance(value, float) else f"{value:>16}"
        print(f"{d['name']:<36} {shown} {d['unit']:<7} (n={samples})")

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    tracer: Tracer = m["tracer"]
    (results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({
            "context": context, "workload": asdict(workload),
            "setup_s": m["setup_s"],
            "ops": [{"traced": o.traced, "warmup": o.warmup, "seconds": o.seconds,
                     "problems": o.problems} for o in m["ops"]],
            "errors": errors, "metrics": metrics,
            "spans": [s.as_list() for s in tracer.spans],
        }) + "\n", encoding="utf-8")

    correct = failed == 0 and not errors
    print(json.dumps({"correct": correct, "attempted": len(m["ops"]),
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
