"""Run one benchmark operation in this process and report what it cost.

Usage: python3 op.py PLAN_JSON RESULT_JSON

The plan holds the ``fuelgap`` CLI argument lists of one operation and
whether to trace it.  The commands run in order through
``fuelgap.cli.main``; wall time, process CPU time and peak resident memory
of the operation go to RESULT_JSON.  With tracing on, spans are recorded
around the public functions of cli, data, sure, halton and msl that the
commands call, and the per-module metrics derived from them are added.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from fuelgap import cli, msl

# names bound in fuelgap.cli -> span name
CLI_SPANS = {
    "cmd_prepare": "cli.prepare", "cmd_fit": "cli.fit", "cmd_compare": "cli.compare",
    "parse_raw": "data.parse", "compute_gaps": "data.gaps", "trim_outliers": "data.trim",
    "encode_design": "data.encode", "group_summary": "data.group_summary",
    "write_group_summary_csv": "data.group_summary",
    "fgls_fit": "sure.fgls", "ols_system_fit": "sure.ols",
    "build_draw_store": "halton.draw_store", "fit_rp_sure": "msl.fit",
}
LOGLIK_AT_OPTIMUM_REPEATS = 15


class Tracer:
    """In-memory spans: [name, parent index, start, end], plus captured objects."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.captured: dict[str, list] = {}

    def wrap(self, owner, attr: str, name: str, keep=None) -> None:
        """Replace owner.attr by a spanned call; keep(args, result) is captured."""
        inner = getattr(owner, attr)

        def traced(*args, **kwargs):
            record = [name, self.stack[-1] if self.stack else None, time.perf_counter(), None]
            self.stack.append(len(self.spans))
            self.spans.append(record)
            try:
                result = inner(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                self.stack.pop()
            if keep is not None:
                self.captured.setdefault(name, []).append(keep(args, result))
            return result

        setattr(owner, attr, traced)

    def install(self) -> None:
        keep = {"data.trim": lambda args, result: len(result[0]),
                "halton.draw_store": lambda args, result: result.z.nbytes,
                "msl.fit": lambda args, result: result}
        for attr, name in CLI_SPANS.items():
            self.wrap(cli, attr, name, keep.get(name))
        self.wrap(msl, "fgls_fit", "sure.fgls")            # the rp-sure start fit
        self.wrap(msl.LoglikKernel, "__init__", "msl.kernel_init",
                  keep=lambda args, result: args[0])
        self.wrap(msl.LoglikKernel, "loglik", "msl.loglik")

    def total(self, name: str) -> float:
        return sum(end - start for n, _, start, end in self.spans if n == name)

    def count(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)

    def cli_self_s(self) -> float:
        """Command spans minus the time their direct child spans cover."""
        commands = {i for i, span in enumerate(self.spans) if span[0].startswith("cli.")}
        own = sum(self.spans[i][3] - self.spans[i][2] for i in commands)
        children = sum(end - start for _, parent, start, end in self.spans
                       if parent in commands)
        return own - children


def layer_metrics(tracer: Tracer, loglik_original) -> dict:
    """Per-module metrics of one traced operation (zero where a module is unused)."""
    captured = tracer.captured
    out = {
        "data.parse_s": tracer.total("data.parse"),
        "data.gaps_s": tracer.total("data.gaps"),
        "data.trim_s": tracer.total("data.trim"),
        "data.encode_s": tracer.total("data.encode"),
        "data.group_summary_s": tracer.total("data.group_summary"),
        "data.rows_kept": sum(captured.get("data.trim", [])),
        "sure.fgls_s": tracer.total("sure.fgls"),
        "sure.ols_s": tracer.total("sure.ols"),
        "halton.draw_store_s": tracer.total("halton.draw_store"),
        "halton.draw_store_mb": sum(captured.get("halton.draw_store", [])) / 1e6,
        "cli.self_s": tracer.cli_self_s(),
    }
    fits = captured.get("msl.fit", [])
    kernels = captured.get("msl.kernel_init", [])
    evals = tracer.count("msl.loglik")
    busy = tracer.total("msl.loglik")
    fit_s = tracer.total("msl.fit")
    out.update({
        "msl.fit_s": fit_s,
        "msl.kernel_init_s": tracer.total("msl.kernel_init"),
        "msl.products_mb": sum(p.nbytes for k in kernels for eq in k.products
                               for _, p in eq) / 1e6,
        "msl.loglik_evals": evals,
        "msl.loglik_busy_s": busy,
        "msl.kernel_share": busy / fit_s if fit_s else 0.0,
        "msl.iterations": sum(f.convergence.iterations for f in fits),
        "msl.evals_per_iteration": 0.0,
        "msl.accepted_eval_ratio": 0.0,
        "msl.grad_norm": 0.0,
        "msl.loglik_eval_ms": 0.0,
    })
    if fits:
        fit, kernel = fits[-1], kernels[-1]
        if out["msl.iterations"]:
            out["msl.evals_per_iteration"] = evals / out["msl.iterations"]
        out["msl.accepted_eval_ratio"] = len(fit.convergence.loglik_path) / evals
        out["msl.grad_norm"] = fit.convergence.grad_norm
        out["msl.loglik_eval_ms"] = 1e3 * loglik_at_optimum_s(kernel, fit, loglik_original)
    return out


def loglik_at_optimum_s(kernel, fit, loglik) -> float:
    """Median seconds of one untraced kernel evaluation at the fitted point."""
    eq1 = fit.coefficients[0].equation
    params = msl.RpParameters(
        coef1=[c.estimate for c in fit.coefficients if c.equation == eq1],
        coef2=[c.estimate for c in fit.coefficients if c.equation != eq1],
        sigmas=[c.sigma for c in fit.random_coefficients], cov=fit.sigma)
    times = []
    for _ in range(LOGLIK_AT_OPTIMUM_REPEATS):
        start = time.perf_counter()
        loglik(kernel, params)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_cli(argv: list[str]) -> int:
    """Exit code of one command; an exception the CLI lets through counts as 1."""
    try:
        return cli.main(argv)
    except SystemExit as exc:       # argparse usage errors
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:               # e.g. LinAlgError, MemoryError
        traceback.print_exc()
        return 1


def main() -> int:
    plan = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    loglik_original = msl.LoglikKernel.loglik
    tracer = Tracer() if plan["trace"] else None
    if tracer:
        tracer.install()
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    codes = [run_cli(argv) for argv in plan["commands"]]
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "wall_s": wall,
        "cpu_s": (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime),
        "peak_rss_mb": after.ru_maxrss / 1024,      # Linux reports KiB
        "exit_codes": codes,
    }
    if tracer:
        result["layers"] = layer_metrics(tracer, loglik_original)
    Path(sys.argv[2]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
