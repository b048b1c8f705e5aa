"""Self-test of the benchmark at toy sizes; takes about a minute.

Usage, from the repository root:

    python3 bench/selftest.py

It checks that every metric BENCHMARK.json names is emitted with its unit,
traced and untraced, for each kind of workload; that the output checks
fail an operation on their own, both when the fit is forced to stop early
(--max-iterations 1) and when the CLI exits 0 with a fit that lacks SEs and
falls short of the exact-ML optimum; that a corrupted fit JSON fails the
determinism check; and that an operation that never writes its result
still gives a result line, with correct false.  It is not part of the
repository's test suite.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import sys
from contextlib import contextmanager

import run as bench


def toy_workloads() -> dict:
    workloads = bench.load_workloads()
    return {
        "rp": dataclasses.replace(workloads["rp_wide"],
                                  truth=dict(workloads["rp_wide"].truth, n=300), draws=20),
        "ingest": dataclasses.replace(workloads["ingest"],
                                      truth=dict(workloads["ingest"].truth, n=2000)),
        "recovery": dataclasses.replace(workloads["rp_recovery"],
                                        truth=dict(workloads["rp_recovery"].truth, n=300),
                                        draws=20),
    }


@contextmanager
def run_once(workload, tag: str, extra_args: tuple[str, ...] = ()):
    """Prepare, run and judge one untraced operation in a scratch directory.

    Yields the operation, its raw output, and judge()'s reasons and hashes;
    the directory is removed on exit.
    """
    work = bench.ROOT / ".bench_work" / f"selftest-{tag}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        op = workload.prepare(work, 1)
        op.commands[0].extend(extra_args)
        out = bench.run_op(op, work, trace=False, timeout=120)
        reasons, _, hashes = bench.judge(op, out, None)
        yield op, out, reasons, hashes
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check_metrics(toy: dict, declared: dict) -> None:
    for name in ("rp", "ingest"):
        workload = toy[name]
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            result = bench.run(workload, f"selftest-{name}", 1, 0.0, trace, declared)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["attempted"] >= 1
            expected = {m["name"]: m["unit"] for m in declared[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == expected, (name, section, got)
            assert all(isinstance(v["value"], (int, float))
                       for v in result["metrics"].values())


def check_early_stop_fails(toy: dict) -> None:
    with run_once(toy["recovery"], "early-stop", ("--max-iterations", "1")) \
            as (_, out, reasons, _):
        assert out["exit_codes"] != [0], out
        assert any(r.startswith("status ") for r in reasons), reasons


def check_exit_zero_fit_fails(toy: dict) -> None:
    """The toy rp_wide fit exits 0, so only the output checks can fail it."""
    with run_once(toy["rp"], "checks") as (_, out, reasons, _):
        assert out["exit_codes"] == [0], out
        assert "standard errors missing" in reasons, reasons
        assert any("below the simulated log-likelihood" in r for r in reasons), reasons


def check_corrupt_fit_fails(toy: dict) -> None:
    with run_once(toy["ingest"], "corrupt") as (op, out, _, hashes):
        assert hashes, "first operation produced no fit JSON"
        reasons, _, _ = bench.judge(op, out, hashes)
        assert not reasons, reasons
        with open(op.fit_paths[0], "a", encoding="utf-8") as fh:
            fh.write(" ")
        reasons, _, _ = bench.judge(op, out, hashes)
        assert any("SHA-256" in r for r in reasons), reasons


def check_lost_operation_reported(declared: dict) -> None:
    """An operation killed before it writes its result still gives a result."""
    workload = bench.load_workloads()["rp_recovery"]      # a fit takes far over 1 s
    deadline = bench.DEADLINE_S
    bench.DEADLINE_S = 0.0          # the operation gets 1 s and is killed
    try:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            result = bench.run(workload, "selftest-lost", 1, 0.0, trace, declared)
            assert result["correct"] is False, result
            assert result["failed"] == result["attempted"] == 1, result
            assert set(result["metrics"]) == {m["name"] for m in declared[section]}
            json.dumps(result, allow_nan=False)
    finally:
        bench.DEADLINE_S = deadline


def main() -> int:
    toy, declared = toy_workloads(), bench.declared_metrics()
    check_metrics(toy, declared)
    check_early_stop_fails(toy)
    check_exit_zero_fit_fails(toy)
    check_corrupt_fit_fails(toy)
    check_lost_operation_reported(declared)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
