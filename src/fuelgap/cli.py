"""Batch command-line front end: prepare -> fit -> compare -> effects,
plus a synthetic-data generator, all emitting JSON/CSV artifacts.

Every command writes a manifest next to its output recording the resolved
options and SHA-256 hashes of inputs and outputs; re-running with identical
inputs and options reproduces identical output hashes (only the duration
field varies).  Exit codes: 0 success, 2 usage or validation, 3 estimation
did not converge (the fit is still written), 4 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .criteria import CriteriaInput, effect_summary, rank_models
from .data import (
    DEFAULT_YEAR_BINS,
    GapTable,
    compute_gaps,
    encode_design,
    gap_correlation,
    group_summary,
    parse_raw,
    responses,
    trim_outliers,
    write_group_summary_csv,
)
from .errors import DegenerateDataError, FuelGapError, SpecError
from .halton import HaltonConfig, build_draw_store, first_primes
from .modelspec import load_model_spec
from .msl import RpSureFit, fit_rp_sure
from .sure import SureFit, fgls_fit, ols_system_fit
from .synthetic import load_truth, simulate_dataset, truth_from_dict

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NOT_CONVERGED = 3
EXIT_IO = 4

# columns of a prepared CSV that the input's covariates may not reuse:
# the fixed fields, then the two gaps written after the covariates
_PREPARED_FIELDS = ("garage_id", "my_mpg_1", "epa_mpg_1", "my_mpg_2", "epa_mpg_2",
                    "model_year_1", "model_year_2", "us_division")
_PREPARED_GAPS = ("gap_1", "gap_2")


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return "sha256:" + digest.hexdigest()


def _jsonable(value):
    """Recursively convert to JSON-safe values; non-finite floats become null."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return _jsonable(value.tolist())
    if isinstance(value, (np.floating, float)):
        value = float(value)
        return value if math.isfinite(value) else None
    if isinstance(value, np.integer):
        return int(value)
    return value


def _write_json(payload: dict, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(payload), fh, indent=2)
        fh.write("\n")


def _write_manifest(command: str, options: dict, inputs: list[Path],
                    outputs: list[Path], started: float) -> Path:
    primary = Path(outputs[0])
    manifest_path = primary.with_name(primary.name + ".manifest.json")
    options = {k: v for k, v in options.items() if k not in ("handler", "command")}
    payload = {
        "command": command,
        "version": __version__,
        "options": {k: _jsonable(v) for k, v in sorted(options.items())},
        "inputs": {str(p): _sha256(Path(p)) for p in inputs},
        "outputs": {str(p): _sha256(Path(p)) for p in outputs},
        "duration_seconds": round(time.monotonic() - started, 6),
    }
    _write_json(payload, manifest_path)
    return manifest_path


def _t_stat(coef: float, se) -> float | None:
    if se is None or not math.isfinite(se) or se == 0.0:
        return None
    return coef / se


def _equations_payload(fit: SureFit) -> list[dict]:
    payload = []
    for eq in fit.equations:
        payload.append({
            "name": eq.name,
            "coef": {n: v for n, v in zip(eq.coef_names, eq.coef)},
            "se": {n: v for n, v in zip(eq.coef_names, eq.se)},
            "t": {n: _t_stat(v, s) for n, v, s in zip(eq.coef_names, eq.coef, eq.se)},
        })
    return payload


def sure_fit_payload(fit: SureFit, estimator: str) -> dict:
    sigma = None if fit.sigma is None else fit.sigma.matrix.tolist()
    return {
        "estimator": estimator,
        "n": fit.n,
        "k": fit.k,
        "loglik": fit.loglik,
        "equations": _equations_payload(fit),
        "sigma": sigma,
        "rho": None if fit.sigma is None else fit.sigma.rho,
        "param_names": list(fit.param_names),
        "param_cov": None if fit.param_cov is None else fit.param_cov.tolist(),
    }


def rp_fit_payload(fit: RpSureFit) -> dict:
    equations: dict[str, dict] = {}
    for coef in fit.coefficients:
        eq = equations.setdefault(coef.equation, {"name": coef.equation,
                                                  "coef": {}, "se": {}, "t": {}})
        eq["coef"][coef.name] = coef.estimate
        eq["se"][coef.name] = coef.se
        eq["t"][coef.name] = _t_stat(coef.estimate, coef.se)
    config = fit.draw_config
    return {
        "estimator": "rp-sure",
        "n": fit.n,
        "k": fit.k,
        "loglik": fit.loglik,
        "equations": list(equations.values()),
        "random_coefficients": [
            {"name": c.name, "equation": c.equation, "mu": c.estimate, "mu_se": c.se,
             "sigma": c.sigma, "sigma_se": c.sigma_se}
            for c in fit.random_coefficients
        ],
        "sigma": fit.sigma.matrix.tolist(),
        "rho": fit.sigma.rho,
        "sigma1": math.sqrt(fit.sigma.sigma11),
        "sigma2": math.sqrt(fit.sigma.sigma22),
        "sigma1_se": fit.sigma1_se,
        "sigma2_se": fit.sigma2_se,
        "rho_se": fit.rho_se,
        "draws": None if config is None else {
            "R": config.draws_per_obs, "burn": config.burn, "bases": list(config.bases)},
        "convergence": {"status": fit.convergence.status,
                        "iters": fit.convergence.iterations,
                        "grad_norm": fit.convergence.grad_norm},
        "param_names": list(fit.param_names),
        "param_cov": None if fit.param_cov is None else fit.param_cov.tolist(),
    }


# ---------------------------------------------------------------------------
# commands


def _positive_float(parser: argparse.ArgumentParser, value: str, flag: str) -> float:
    try:
        out = float(value)
    except ValueError:
        parser.error(f"{flag} expects a number, got {value!r}")
    if out <= 0:
        parser.error(f"{flag} must be positive, got {value}")
    return out


def _parse_year_bins(parser: argparse.ArgumentParser, text: str):
    bins = []
    for part in text.split(","):
        lo, _, hi = part.strip().partition("-")
        try:
            lo, hi = int(lo), int(hi)
        except ValueError:
            parser.error(f"--year-bins expects ranges like '1984-1988,1989-1993', "
                         f"got {text!r}")
        if lo > hi:
            parser.error(f"--year-bins range {part.strip()!r} is empty")
        bins.append((lo, hi))
    return tuple(bins)


def _parse_bases(parser: argparse.ArgumentParser, text: str) -> tuple[int, ...]:
    try:
        return HaltonConfig(bases=tuple(int(b) for b in text.split(","))).bases
    except ValueError as exc:
        parser.error(f"--bases expects distinct primes like '2,3', got {text!r}: {exc}")


def cmd_prepare(args, parser) -> int:
    started = time.monotonic()
    trim_sd = _positive_float(parser, args.trim_sd, "--trim-sd")
    user_col, epa_col = _split_mpg_columns(parser, args.mpg_columns)
    bins = _parse_year_bins(parser, args.year_bins) if args.year_bins else DEFAULT_YEAR_BINS
    table = compute_gaps(parse_raw(args.input, user_col=user_col, epa_col=epa_col))
    clashes = [c for c in table.covariates if c in _PREPARED_FIELDS + _PREPARED_GAPS]
    if clashes:
        raise SpecError(f"input columns {clashes} would repeat fixed columns of the "
                        "prepared CSV; rename them")
    kept, _, report = trim_outliers(table, trim_sd)

    out = Path(args.out)
    _write_prepared_csv(kept, out)
    outputs = [out]

    report_path = out.with_name(out.stem + ".report.json")
    payload = report.as_dict()
    payload["mean_gap"] = _column_means(kept.gap)
    payload["mean_mpg_shortfall"] = _column_means(kept.epa_mpg - kept.my_mpg)
    try:
        payload["gap_correlation"] = gap_correlation(kept)
    except DegenerateDataError:
        payload["gap_correlation"] = None
    _write_json(payload, report_path)
    outputs.append(report_path)

    if args.group_by:
        keys = [k.strip() for k in args.group_by.split(",") if k.strip()]
        rows = group_summary(kept, keys, bins=bins)
        groups_path = Path(args.groups_out) if args.groups_out \
            else out.with_name(out.stem + ".groups.csv")
        write_group_summary_csv(rows, keys, groups_path)
        outputs.append(groups_path)

    _write_manifest("prepare", vars(args), [Path(args.input)], outputs, started)
    print(f"kept {report.n_kept} of {report.n_input} observations "
          f"({report.n_removed} outside {trim_sd} SD)")
    return EXIT_OK


def _split_mpg_columns(parser, text: str) -> tuple[str, str]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2 or not all(parts):
        parser.error("--mpg-columns expects 'user_base,epa_base'")
    return parts[0], parts[1]


def _column_means(values: np.ndarray) -> list:
    """Mean of each vehicle's column; None for both when there are no rows."""
    if not len(values):
        return [None, None]
    return [float(np.mean(column)) for column in values.T]


def _write_prepared_csv(table: GapTable, path: Path) -> None:
    def floats(column: np.ndarray):
        return map(repr, column.tolist())

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([*_PREPARED_FIELDS, *table.covariates, *_PREPARED_GAPS])
        writer.writerows(zip(
            table.garage_id.tolist(),
            floats(table.my_mpg[:, 0]), floats(table.epa_mpg[:, 0]),
            floats(table.my_mpg[:, 1]), floats(table.epa_mpg[:, 1]),
            table.model_year[:, 0].tolist(), table.model_year[:, 1].tolist(),
            table.us_division.tolist(),
            *(column.tolist() for column in table.covariates.values()),
            floats(table.gap[:, 0]), floats(table.gap[:, 1])))


def cmd_fit(args, parser) -> int:
    started = time.monotonic()
    user_col, epa_col = _split_mpg_columns(parser, args.mpg_columns)
    if args.draws < 1:
        parser.error("--draws must be >= 1")
    if args.burn < 0:
        parser.error("--burn must be >= 0")
    if args.threads < 1:
        parser.error("--threads must be >= 1")
    if args.max_iterations < 1:
        parser.error("--max-iterations must be >= 1")
    bases = _parse_bases(parser, args.bases) if args.bases else None

    spec = load_model_spec(args.spec)
    table = compute_gaps(parse_raw(args.data, user_col=user_col, epa_col=epa_col))
    design = encode_design(table, spec)
    y1, y2 = responses(table)
    eq_names = (spec.equations[0].name, spec.equations[1].name)

    exit_code = EXIT_OK
    if args.estimator == "ols":
        fit = ols_system_fit(design.x1, design.x2, y1, y2,
                             names1=design.names1, names2=design.names2,
                             eq_names=eq_names)
        payload = sure_fit_payload(fit, "ols")
    elif args.estimator == "sure":
        fit = fgls_fit(design.x1, design.x2, y1, y2,
                       names1=design.names1, names2=design.names2,
                       eq_names=eq_names, cov_denominator=args.cov_denominator)
        payload = sure_fit_payload(fit, "sure")
    else:
        draws = None
        if spec.n_random > 0:
            config = HaltonConfig(bases=bases or first_primes(spec.n_random),
                                  draws_per_obs=args.draws, burn=args.burn)
            draws = build_draw_store(len(table), config)
        fit = fit_rp_sure(design, y1, y2, draws=draws, eq_names=eq_names,
                          max_iterations=args.max_iterations, threads=args.threads)
        payload = rp_fit_payload(fit)
        if not fit.convergence.converged:
            exit_code = EXIT_NOT_CONVERGED

    out = Path(args.out)
    _write_json(payload, out)
    _write_manifest("fit", vars(args), [Path(args.data), Path(args.spec)],
                    [out], started)
    status = payload.get("convergence", {}).get("status", "ok")
    print(f"{args.estimator} fit written to {out} "
          f"(loglik={_fmt(payload['loglik'])}, k={payload['k']}, status={status})")
    if exit_code == EXIT_NOT_CONVERGED:
        print("warning: estimation did not converge", file=sys.stderr)
    return exit_code


def _fmt(value) -> str:
    return "inf" if value is None else f"{value:.4f}"


def _read_fit_file(path: str) -> tuple[str, CriteriaInput]:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
        loglik = raw["loglik"]
        if loglik is None:
            raise SpecError(f"fit file {path} has a degenerate log-likelihood; "
                            "it cannot be scored")
        cov = raw.get("param_cov")
        ci = CriteriaInput(loglik=float(loglik), k=int(raw["k"]), n=int(raw["n"]),
                           fisher_inverse=None if cov is None else np.array(cov))
        label = f"{raw.get('estimator', 'fit')}:{Path(path).stem}"
        return label, ci
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise SpecError(f"unreadable fit file {path}: {exc}") from exc


def cmd_compare(args, parser) -> int:
    started = time.monotonic()
    if len(args.fits) < 2:
        parser.error("need at least two fit files to compare")
    labelled = [_read_fit_file(p) for p in args.fits]
    labels = [lab for lab, _ in labelled]
    if len(set(labels)) != len(labels):
        labelled = [(f"{lab}#{i}", ci) for i, (lab, ci) in enumerate(labelled)]
    ranking = rank_models(labelled)

    out = Path(args.out)
    with open(out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label", "n", "k", "loglik", "aic", "caic", "sbic",
                         "icomp", "best_on"])
        for row in ranking.as_rows():
            best = ";".join(c for c in ("aic", "caic", "sbic", "icomp")
                            if ranking.winners.get(c) == row["label"])
            writer.writerow([row["label"], row["n"], row["k"], f"{row['loglik']:.4f}",
                             f"{row['aic']:.4f}", f"{row['caic']:.4f}",
                             f"{row['sbic']:.4f}",
                             "" if row["icomp"] is None else f"{row['icomp']:.4f}",
                             best])
    _write_manifest("compare", vars(args), [Path(p) for p in args.fits],
                    [out], started)
    print(ranking.render_text())
    return EXIT_OK


def cmd_effects(args, parser) -> int:
    started = time.monotonic()
    try:
        with open(args.fit, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SpecError(f"unreadable fit file {args.fit}: {exc}") from exc
    randoms = (raw.get("random_coefficients") if isinstance(raw, dict) else None) or []
    if not randoms:
        raise SpecError("no random coefficients in this fit")
    try:
        summaries = [effect_summary(rc["name"], float(rc["mu"]), float(rc["sigma"]))
                     for rc in randoms]
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecError(f"malformed random coefficient in {args.fit}: {exc}") from exc
    out = Path(args.out)
    with open(out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["name", "equation", "mu", "sigma", "lower", "upper",
                         "pct_above", "pct_below"])
        for rc, summary in zip(randoms, summaries):
            writer.writerow([rc["name"], rc.get("equation", ""),
                             repr(summary.mu), repr(summary.sigma),
                             f"{summary.range_lower:.4f}", f"{summary.range_upper:.4f}",
                             f"{100 * summary.share_above_zero:.2f}",
                             f"{100 * summary.share_below_zero:.2f}"])
    _write_manifest("effects", vars(args), [Path(args.fit)], [out], started)
    print(f"wrote {len(randoms)} effect rows to {out}")
    return EXIT_OK


def cmd_simulate(args, parser) -> int:
    started = time.monotonic()
    try:
        with open(args.truth, encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SpecError(f"truth file {args.truth} is not valid JSON: {exc}") from exc
    if args.n is not None:
        if args.n < 1:
            parser.error("--n must be >= 1")
        raw["n"] = args.n
    if args.seed is not None:
        raw["seed"] = args.seed
    if "seed" not in raw:
        parser.error("--seed is required when the truth file carries none")
    if "n" not in raw:
        parser.error("--n is required when the truth file carries none")
    truth = truth_from_dict(raw)
    dataset = simulate_dataset(truth)
    out = Path(args.out)
    dataset.write_csv(out)
    outputs = [out]
    if args.coef_draws:
        dataset.write_coefficient_draws_csv(Path(args.coef_draws))
        outputs.append(Path(args.coef_draws))
    _write_manifest("simulate", vars(args), [Path(args.truth)], outputs, started)
    print(f"simulated {truth.n} observations (seed {truth.seed}) to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuelgap",
        description="Paired fuel-economy gap estimation: data preparation, "
                    "fixed and random-parameter bivariate SUR, model selection.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    p = sub.add_parser("prepare", formatter_class=fmt,
                       help="compute gap ratios, trim outliers, summarize")
    p.add_argument("--input", required=True, help="raw garage CSV")
    p.add_argument("--out", required=True, help="trimmed dataset CSV to write")
    p.add_argument("--trim-sd", default="3.0",
                   help="outlier interval half-width in SDs")
    p.add_argument("--mpg-columns", default="my_mpg,epa_mpg",
                   help="user,epa column bases for the gap ratio")
    p.add_argument("--group-by", default=None,
                   help="comma-separated keys for a grouped gap summary CSV")
    p.add_argument("--groups-out", default=None,
                   help="path for the grouped summary (default <out>.groups.csv)")
    p.add_argument("--year-bins", default=None,
                   help="model-year bins like '1984-1988,1989-1993'")
    p.set_defaults(handler=cmd_prepare)

    p = sub.add_parser("fit", formatter_class=fmt,
                       help="estimate a two-equation gap model")
    p.add_argument("--data", required=True, help="prepared or raw garage CSV")
    p.add_argument("--spec", required=True, help="model spec JSON")
    p.add_argument("--estimator", required=True, choices=("ols", "sure", "rp-sure"))
    p.add_argument("--out", required=True, help="fit JSON to write")
    p.add_argument("--draws", type=int, default=400,
                   help="Halton draws per observation")
    p.add_argument("--burn", type=int, default=50,
                   help="leading Halton points to discard")
    p.add_argument("--bases", default=None,
                   help="comma-separated Halton prime bases (default: first primes)")
    p.add_argument("--threads", type=int, default=1,
                   help="worker cap for the likelihood (never changes results)")
    p.add_argument("--max-iterations", type=int, default=500,
                   help="optimizer iteration cap")
    p.add_argument("--cov-denominator", choices=("ml", "dof"), default="ml",
                   help="residual covariance denominator")
    p.add_argument("--mpg-columns", default="my_mpg,epa_mpg",
                   help="user,epa column bases for the gap ratio")
    p.set_defaults(handler=cmd_fit)

    p = sub.add_parser("compare", formatter_class=fmt,
                       help="rank fitted models by information criteria")
    p.add_argument("fits", nargs="+", help="two or more fit JSON files")
    p.add_argument("--out", required=True, help="criteria table CSV to write")
    p.set_defaults(handler=cmd_compare)

    p = sub.add_parser("effects", formatter_class=fmt,
                       help="distributional summary of random coefficients")
    p.add_argument("--fit", required=True, help="rp-sure fit JSON")
    p.add_argument("--out", required=True, help="effects CSV to write")
    p.set_defaults(handler=cmd_effects)

    p = sub.add_parser("simulate", formatter_class=fmt,
                       help="draw a synthetic dataset from a truth JSON")
    p.add_argument("--truth", required=True, help="truth specification JSON")
    p.add_argument("--out", required=True, help="dataset CSV to write")
    p.add_argument("--n", type=int, default=None, help="override sample size")
    p.add_argument("--seed", type=int, default=None, help="override generator seed")
    p.add_argument("--coef-draws", default=None,
                   help="optional sidecar CSV of realized coefficient draws")
    p.set_defaults(handler=cmd_simulate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args, parser)
    except FuelGapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
