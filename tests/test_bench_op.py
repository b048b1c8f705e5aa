"""The benchmark runs against the sources.

bench/op.py wraps names bound in fuelgap.cli and fuelgap.msl and reads fit
fields and LoglikKernel.products; a refactor that moves one of them breaks
the benchmark.  One small traced plan exercises every layer it measures.
bench/workloads.py draws and screens its data with the library; each listed
workload runs at toy size, through the CLI, and passes its own check.
"""

import dataclasses
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fuelgap.cli import main
from fuelgap.synthetic import simulate_dataset, truth_from_dict

ROOT = Path(__file__).resolve().parents[1]
# per-layer metrics bench/run.py derives from all operations, not from one
RUN_LEVEL = {"failed_share", "loglik_shortfall", "trace_overhead_s"}

TRUTH = {
    "n": 300, "seed": 5,
    "error": {"sigma1": 0.1, "sigma2": 0.1, "rho": 0.5},
    "covariates": [{"name": "x1", "kind": "normal", "mean": 0.0, "sd": 1.0},
                   {"name": "x2", "kind": "normal", "mean": 0.0, "sd": 1.0}],
    "equations": [{"name": "vehicle_1", "intercept": 0.88,
                   "terms": [{"column": "x1", "coef": -0.03, "sigma": 0.05}]},
                  {"name": "vehicle_2", "intercept": 0.92,
                   "terms": [{"column": "x2", "coef": 0.02, "sigma": 0.06}]}],
}


def spec(kind):
    return {"equations": [
        {"name": name, "intercept": True, "terms": [{"column": column, "kind": kind}]}
        for name, column in (("vehicle_1", "x1"), ("vehicle_2", "x2"))]}


def test_traced_operation_reports_every_layer(tmp_path):
    data, prepared = tmp_path / "data.csv", tmp_path / "prepared.csv"
    simulate_dataset(truth_from_dict(TRUTH)).write_csv(data)
    rp_spec, spec_path = tmp_path / "rp_spec.json", tmp_path / "spec.json"
    rp_spec.write_text(json.dumps(spec("random-normal")), encoding="utf-8")
    spec_path.write_text(json.dumps(spec("fixed")), encoding="utf-8")
    out = {name: str(tmp_path / name) for name in
           ("rp.json", "sure.json", "ols.json", "groups.csv", "table.csv")}
    commands = [
        ["fit", "--data", str(data), "--spec", str(rp_spec), "--estimator", "rp-sure",
         "--out", out["rp.json"], "--draws", "20", "--bases", "2,3"],
        ["prepare", "--input", str(data), "--out", str(prepared),
         "--group-by", "us_division,model_year_bin_1", "--groups-out", out["groups.csv"]],
        ["fit", "--data", str(prepared), "--spec", str(spec_path), "--estimator", "sure",
         "--out", out["sure.json"]],
        ["fit", "--data", str(prepared), "--spec", str(spec_path), "--estimator", "ols",
         "--out", out["ols.json"]],
        ["compare", out["sure.json"], out["ols.json"], "--out", out["table.csv"]],
    ]
    plan, result = tmp_path / "plan.json", tmp_path / "result.json"
    plan.write_text(json.dumps({"commands": commands, "trace": True}), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "op.py"), str(plan),
                           str(result)], cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(result.read_text(encoding="utf-8"))
    assert report["exit_codes"] == [0] * len(commands), proc.stdout + proc.stderr

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {m["name"] for m in declared["per_layer"]} - RUN_LEVEL
    layers = report["layers"]
    assert len(expected) == 22 and set(layers) == expected
    # every layer ran in this plan, so a traced name that is bound but no
    # longer called reads zero
    assert [name for name, value in layers.items() if not value > 0] == []


def bench_workloads(monkeypatch):
    """bench/workloads.py as a module, imported as bench/run.py imports it."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", module)   # dataclasses look it up
    spec.loader.exec_module(module)
    return module.WORKLOADS


# the toy size of each workload BENCHMARK.json lists: its truth's n, and draws
TOY_SIZES = {"rp_recovery": {"n": 300, "draws": 20}, "ingest": {"n": 2000}}
LISTED = [w["name"] for w in
          json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]


@pytest.mark.parametrize("name", LISTED)
def test_listed_workload_passes_its_check_at_toy_size(name, tmp_path, monkeypatch):
    workload = bench_workloads(monkeypatch)[name]
    size = dict(TOY_SIZES[name])
    toy = dataclasses.replace(workload, truth=dict(workload.truth, n=size.pop("n")), **size)
    op = toy.prepare(tmp_path, seed=1)
    assert [main(command) for command in op.commands] == [0] * len(op.commands)
    reasons, _ = op.check()
    assert reasons == []
