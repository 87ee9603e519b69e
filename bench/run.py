"""The wcnn benchmark: three workloads, end-to-end metrics and a traced run.

    python3 bench/run.py --workload desk-train --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --seed 0               # every workload, one process each

Run from any directory; paths resolve from this file.  One workload runs in
one process with the BLAS thread count pinned to BLAS_THREADS.  With
`--trace 0` the run sets up several times (median `setup_s`), then times each
phase's operations for its share of `--seconds` and reports the median
images/s, both scaled to a fixed host speed by `reference.py`.  With `--trace 1` it runs the same work untraced and
then traced, and reports the per-layer metrics of the traced half plus the
tracing overhead; the spans go to `.wcnnbench/trace-<workload>-seed<n>.json`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it holds the
machine fingerprint and per-phase sample statistics.  A failed output check
exits 1 after printing the result; a missing library fails at import.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".wcnnbench"
MIN_OPS = 3  # per phase in a timed run, so each median has something to choose from
REF_EVERY_S = 2.0  # how often a timed run gauges the host speed


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# One BLAS thread: on a 2-vCPU host the second thread spin-waits on every
# small GEMM, which made desk training slower and about twice as variable.
BLAS_THREADS = 1


def pin_blas_threads() -> int:
    """Pin every BLAS/OpenMP pool to BLAS_THREADS; call before numpy loads."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    return BLAS_THREADS


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def fingerprint(threads: int, precision: str) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):  # numpy without the dict form of show_config
        blas = {"name": "unknown"}
    return {
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "precision": precision,
        "git_commit": git_commit(),
    }


# --- timing ---------------------------------------------------------------------


class PhaseRun:
    def __init__(self, phase):
        self.phase = phase
        self.seconds: list[float] = []  # one per operation that passed its check
        self.ref_seconds: list[float] = []  # reference kernel runs during the phase
        self.attempted = 0
        self.failures: list[str] = []

    def img_per_s(self) -> float:
        if not self.seconds:
            return 0.0
        return statistics.median(self.phase.images / s for s in self.seconds)

    def summary(self) -> dict:
        """Sample count, median and the highest percentile with ten samples beyond it."""
        out = {"phase": self.phase.name, "ops": self.attempted, "failed": len(self.failures),
               "images_per_op": self.phase.images}
        n = len(self.seconds)
        if n:
            out["median_op_s"] = statistics.median(self.seconds)
        if n > 10:
            pct = math.floor(100 * (n - 10) / n)
            out[f"p{pct}_op_s"] = statistics.quantiles(self.seconds, n=100)[pct - 1]
        if self.ref_seconds:
            out["img_per_s"] = self.img_per_s()
            out["median_ref_s"] = statistics.median(self.ref_seconds)
        return out


def run_phase(phase, budget_s: float, min_ops: int, ops: int | None = None,
              reference=None) -> PhaseRun:
    """Repeat `phase.op` for `budget_s` (at least `min_ops` times), or exactly `ops` times.

    With a `reference`, run it at the start and then every REF_EVERY_S.
    """
    run = PhaseRun(phase)
    start = last_ref = time.perf_counter()
    if reference:
        run.ref_seconds.append(reference())
    while True:
        if reference and time.perf_counter() - last_ref >= REF_EVERY_S:
            run.ref_seconds.append(reference())
            last_ref = time.perf_counter()
        elapsed = time.perf_counter() - start
        if ops is not None:
            if run.attempted >= ops:
                break
        elif run.attempted >= min_ops and elapsed * (1 + 1 / run.attempted) > budget_s:
            break  # one more operation of average length would overrun the budget
        i = run.attempted
        run.attempted += 1
        try:
            t0 = time.perf_counter()
            out = phase.op(i)
            t1 = time.perf_counter()
            phase.check(i, out)
        except Exception as exc:  # any failed operation is counted, the run goes on
            traceback.print_exc(file=sys.stderr)
            run.failures.append(f"{phase.name}[{i}]: {type(exc).__name__}: {exc}")
            continue
        run.seconds.append(t1 - t0)
    return run


def timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def measure(workload, seconds: float) -> tuple[dict, list[PhaseRun], dict]:
    """Time set-up and phases; scale every timing to the host speed at which
    the workload's reference kernel takes its nominal time."""
    from reference import Reference

    reference = Reference(workload.reference_mix)
    nominal_s = reference.nominal_s
    setups, setup_refs = [], []
    for _ in range(workload.setup_repeats):
        setup_refs.append(reference())
        setups.append(timed(workload.setup))
    runs = [run_phase(ph, seconds * ph.share, MIN_OPS, reference=reference)
            for ph in workload.phases()]
    setup_ref_s = statistics.median(setup_refs)
    metrics = {"setup_s": statistics.median(setups) * nominal_s / setup_ref_s}
    for run in runs:
        ref_s = statistics.median(run.ref_seconds)
        metrics[run.phase.metric] = run.img_per_s() * ref_s / nominal_s
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    return metrics, runs, {"setup_runs_s": setups, "setup_ref_s": setup_ref_s}


def measure_traced(workload, seconds: float, trace_path: Path) -> tuple[dict, list[PhaseRun], dict]:
    from tracer import Tracer

    workload.setup()  # warm-up, so neither half pays first-call costs

    def one_pass(ops=None):
        t0 = time.perf_counter()
        workload.setup()
        runs = [run_phase(ph, seconds / 2 * ph.share, 1, None if ops is None else ops[k])
                for k, ph in enumerate(workload.phases())]
        return time.perf_counter() - t0, runs

    untraced_s, untraced = one_pass()
    tracer = Tracer()
    tracer.install()
    try:
        traced_s, traced = one_pass([r.attempted for r in untraced])
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(traced_s)
    metrics["trace.overhead_share"] = traced_s / untraced_s - 1.0
    walls = {"untraced_s": untraced_s, "traced_s": traced_s,
             "spans": str(trace_path.relative_to(ROOT))}
    tracer.dump(trace_path, dict(walls, metrics=metrics))
    return metrics, untraced + traced, walls


# --- entry points ---------------------------------------------------------------


def run_workload(args, spec: dict) -> int:
    threads = pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import wcnn

    expected = ROOT / "src" / "wcnn"
    if Path(wcnn.__file__).resolve().parent != expected:
        raise SystemExit(f"imported wcnn from {wcnn.__file__}, expected {expected}")
    from workloads import WORKLOADS

    load_start = os.getloadavg()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="work-", dir=OUT) as workdir:
        workload = WORKLOADS[args.workload](args.seed, Path(workdir))
        if args.trace:
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            metrics, runs, extra = measure_traced(workload, args.seconds, trace_path)
        else:
            metrics, runs, extra = measure(workload, args.seconds)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    if set(metrics) != {m["name"] for m in declared}:
        raise SystemExit(f"metrics {sorted(metrics)} do not match BENCHMARK.json")
    attempted = sum(r.attempted for r in runs)
    failures = [f for r in runs for f in r.failures]
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "fingerprint": dict(fingerprint(threads, workload.precision),
                            loadavg_start=load_start, loadavg_end=os.getloadavg()),
        "phases": [r.summary() for r in runs],
        **extra,
        "failures": failures,
    }
    print(json.dumps(details))
    result = {
        "correct": not failures and attempted > 0,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def run_all(args, spec: dict) -> int:
    """Run every workload in its own process; print its metrics by name and unit."""
    status = 0
    for w in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        verdict = "ok" if proc.returncode == 0 and result["correct"] else "FAILED"
        print(f"{w['name']}: {verdict} ({result['failed']} of {result['attempted']} "
              f"operations failed, exit {proc.returncode})")
        for name, m in result["metrics"].items():
            print(f"  {name:32s} {m['value']:14.6g} {m['unit']}")
        status = status or (0 if verdict == "ok" else 1)
    return status


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]],
                        help="run one workload (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload is None:
        return run_all(args, spec)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
