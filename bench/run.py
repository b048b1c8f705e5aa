"""Benchmark of the fuelgap CLI on seeded synthetic workloads.

Usage, from the repository root:

    python3 bench/run.py --workload rp_recovery --seed 7 --seconds 20 --trace 0

The workloads are defined in bench/workloads.py and described in
bench/README.md.  Inputs are generated from --seed outside any timed
region.  Operations then run one after another, each in a fresh process
(bench/op.py), until --seconds of operation time have passed; every
operation's outputs are checked.  With --trace 1 the run alternates
untraced and traced operations and reports the per-module metrics.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the metric names and units are
those of BENCHMARK.json.  The lines before it record the environment and
each operation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# BLAS and OpenMP get one thread each, so no process of the benchmark uses
# more threads than the fit's own --threads (at most 2, the cores of the
# reference machine).  Set before numpy is first imported.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 21
DEADLINE_S = 170.0          # the whole run must end within 180 s


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC), **THREAD_ENV)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def measure_setup() -> list[float]:
    """Seconds for a fresh interpreter to import fuelgap.cli, after one warm-up."""
    times = []
    for i in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import fuelgap.cli"], env=child_env(),
                       check=True)
        if i:
            times.append(time.perf_counter() - start)
    return times


def run_op(op, work: Path, trace: bool, timeout: float) -> dict:
    """Run one operation in a fresh process; its cost and any failure reasons."""
    plan, result, log = work / "plan.json", work / "op_result.json", work / "op.log"
    plan.write_text(json.dumps({"commands": op.commands, "trace": trace}), encoding="utf-8")
    result.unlink(missing_ok=True)
    with open(log, "w", encoding="utf-8") as fh:
        try:
            proc = subprocess.run([sys.executable, str(BENCH / "op.py"), str(plan), str(result)],
                                  stdout=fh, stderr=subprocess.STDOUT, env=child_env(),
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            return {"reasons": [f"operation still running after {timeout:.0f} s"]}
    if proc.returncode != 0 or not result.exists():
        tail = log.read_text(encoding="utf-8").strip().splitlines()[-3:]
        return {"reasons": [f"operation process exited {proc.returncode}: {tail}"]}
    return json.loads(result.read_text(encoding="utf-8"))


def judge(op, out: dict, reference: list[str] | None) -> tuple[list[str], dict, list[str]]:
    """Failure reasons, observed values and fit hashes of one finished operation."""
    reasons = list(out.get("reasons", []))
    if reasons:
        return reasons, {}, []
    if any(code != 0 for code in out["exit_codes"]):
        reasons.append(f"exit codes {out['exit_codes']}")
    try:
        hashes = [sha256(p) for p in op.fit_paths]
        failures, observed = op.check()
    except (OSError, KeyError, TypeError, ValueError) as exc:
        return reasons + [f"outputs unreadable: {exc!r}"], {}, []
    if reference is not None and hashes != reference:
        reasons.append("fit JSON SHA-256 differs from the run's first operation")
    return reasons + failures, observed, hashes


def environment(threads: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
            "fit_threads": threads, "child_thread_env": THREAD_ENV}


def median_of(records: list[dict], key: str) -> float | None:
    """Median of key over the records' outputs; None if no record has it."""
    values = [r["out"][key] for r in records if key in r["out"]]
    return statistics.median(values) if values else None


def summarise(records: list[dict], setup: list[float], trace: bool) -> dict:
    """Metric values of the run: end-to-end untraced, per-module traced.

    A metric no finished operation measured (every one crashed or timed
    out) is None; the run then also reports correct: false.
    """
    plain = [r for r in records if not r["traced"]]
    if not trace:
        return {"wall_s": median_of(plain, "wall_s"), "cpu_s": median_of(plain, "cpu_s"),
                "peak_rss_mb": median_of(plain, "peak_rss_mb"),
                "setup_s": statistics.median(setup)}
    traced = [r for r in records if r["traced"]]
    layers = [r["out"]["layers"] for r in traced if "layers" in r["out"]]
    values = {name: statistics.median(layer[name] for layer in layers)
              for name in (layers[0] if layers else ())}
    shortfalls = [r["observed"]["loglik_shortfall"] for r in records
                  if "loglik_shortfall" in r["observed"]]
    traced_wall, plain_wall = median_of(traced, "wall_s"), median_of(plain, "wall_s")
    values.update({
        "failed_share": sum(bool(r["reasons"]) for r in records) / len(records),
        "loglik_shortfall": statistics.median(shortfalls) if shortfalls else 0.0,
        "trace_overhead_s": None if traced_wall is None or plain_wall is None
        else traced_wall - plain_wall,
    })
    return values


def run(workload, name: str, seed: int, seconds: float, trace: bool,
        declared: dict) -> dict:
    """One benchmark run; prints progress lines and returns the result object."""
    started = time.perf_counter()
    work = ROOT / ".bench_work" / f"{name}-s{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        op = workload.prepare(work, seed)
        print("env " + json.dumps(environment(op.threads)), flush=True)
        # setup_s is an end-to-end metric, so traced runs skip its imports
        setup = [] if trace else measure_setup()
        # untraced only, or untraced/traced pairs; stop after a whole cycle
        cycle = (False, True) if trace else (False,)
        records, reference, spent, longest = [], None, 0.0, 0.0
        while True:
            remaining = DEADLINE_S - (time.perf_counter() - started)
            cycle_done = len(records) % len(cycle) == 0
            if records and ((cycle_done and spent >= seconds) or remaining < 1.5 * longest):
                break
            traced = cycle[len(records) % len(cycle)]
            begun = time.perf_counter()
            out = run_op(op, work, traced, timeout=max(remaining, 1.0))
            took = time.perf_counter() - begun
            spent, longest = spent + took, max(longest, took)
            reasons, observed, hashes = judge(op, out, reference)
            reference = reference or hashes or None
            records.append({"traced": traced, "out": out, "reasons": reasons,
                            "observed": observed})
            print(f"op {len(records)} traced={int(traced)} "
                  f"wall_s={out.get('wall_s', float('nan')):.4f} "
                  f"cpu_s={out.get('cpu_s', float('nan')):.4f} "
                  f"peak_rss_mb={out.get('peak_rss_mb', float('nan')):.1f} "
                  f"{json.dumps(observed)} "
                  f"{'ok' if not reasons else 'FAILED: ' + '; '.join(reasons)}",
                  flush=True)
        values = summarise(records, setup, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(bool(r["reasons"]) for r in records)
    samples = {"setup_s": len(setup), "failed_share": len(records),
               "loglik_shortfall": len(records)}
    operations = sum(r["traced"] == trace for r in records)
    metrics = {}
    for metric in declared["per_layer" if trace else "end_to_end"]:
        name, unit = metric["name"], metric["unit"]
        value = values.get(name)
        metrics[name] = {"value": value, "unit": unit}
        shown = "unmeasured" if value is None else f"{value:.6g} {unit}"
        print(f"metric {name} = {shown} (from {samples.get(name, operations)} samples)")
    measured = all(m["value"] is not None for m in metrics.values())
    return {"correct": failed == 0 and measured, "attempted": len(records), "failed": failed,
            "metrics": metrics}


def load_workloads() -> dict:
    """Point this process at the checkout's sources; the named workloads."""
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    return WORKLOADS


def declared_metrics() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (SRC / "fuelgap" / "cli.py").is_file():
        print(f"error: no fuelgap sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    workloads = load_workloads()
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads)}")
    result = run(workloads[args.workload], args.workload, args.seed, args.seconds,
                 bool(args.trace), declared_metrics())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
