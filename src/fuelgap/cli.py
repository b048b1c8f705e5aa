"""Batch command-line front end: prepare -> fit -> compare -> effects,
plus a synthetic-data generator, all emitting JSON/CSV artifacts.

Every command writes a manifest next to its output recording the resolved
options that shaped it and SHA-256 hashes of inputs and outputs, each file
hashed once; re-running with identical inputs and options reproduces
identical output hashes (only the duration field varies).  `prepare` writes
the trimmed CSV, its table image (`data.write_table_image`, unless a text
column allows none), the report JSON and, with --group-by, the groups CSV;
its outputs list them in that order.  The manifest of `fit` records under
"table_source" what served the data table: "image" when the image beside
the CSV did (`data.parse_raw`), "csv" when the text was parsed.  An rp-sure
fit's manifest also records what the fit cost under "passes": Newton
steps, value-and-score and Hessian kernel passes, modified steps and the
last Newton decrement; the fit JSON never holds them.  Any other option is
refused: the `fit` options
in RP_SURE_OPTIONS go only to rp-sure, and --draws, --burn and --bases only
with random terms (ols and sure fit those as fixed, with a note on stderr).
`prepare` alone picks the rating columns, as my_mpg_*/epa_mpg_* for `fit`.
Exit codes: 0 success, 2 usage or validation, 3 estimation did not converge
(the fit is still written), 4 I/O failure.  A fit file given to compare or
effects that cannot be read exits 2 like any other unusable fit file; every
other input that cannot be read exits 4.

One result type, `sure.SureFit` (built only by `sure.layout_fit`), backs
the one fit JSON schema of every estimator (`fit_payload`): estimator, n,
k, loglik, equations, random_coefficients, sigma, rho, sigma1, sigma2,
sigma1_se, sigma2_se, rho_se, draws, convergence, param_names, param_cov.
param_names and param_cov follow the one parameter layout, described on
`sure.ParameterLayout`, and every SE is the root of its diagonal entry.  A
fixed-parameter fit writes random_coefficients [], draws null and
convergence null.  Non-finite numbers are written null.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .criteria import CRITERIA, CriteriaInput, effect_summary, rank_models
from .data import (
    DEFAULT_YEAR_BINS,
    GARAGE_COLUMNS,
    GROUP_SUMMARY_COLUMNS,
    compute_gaps,
    encode_design,
    file_sha256,
    gap_correlation,
    group_summary,
    parse_raw,
    responses,
    trim_outliers,
    write_csv,
    write_garage_csv,
    write_group_summary_csv,
    write_table_image,
)
from .errors import DegenerateDataError, FuelGapError, SpecError
from .halton import LOWER_BOUNDS, HaltonConfig, build_draw_store, first_primes
from .modelspec import (
    INTEGER,
    LIST,
    NUMBER,
    OBJECT,
    STRING,
    checked,
    is_json,
    load_model_spec,
    read_json,
)
from .msl import fit_rp_sure
from .sure import SureFit, fgls_fit, ols_system_fit
from .synthetic import simulate_dataset, truth_from_dict

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NOT_CONVERGED = 3
EXIT_IO = 4


def _jsonable(value):
    """Recursively convert to JSON-safe values; non-finite floats become null."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    return value


def _write_json(payload: dict, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(payload), fh, indent=2)
        fh.write("\n")


def _write_manifest(command: str, options: dict, inputs: list[Path], outputs: list[Path],
                    started: float, extra: dict | None = None,
                    digests: dict[Path, str] | None = None) -> Path:
    """Write the manifest of `outputs[0]`; `extra` adds keys to it, and
    `digests` holds the `file_sha256` of files this command hashed already."""
    primary = Path(outputs[0])
    manifest_path = primary.with_name(primary.name + ".manifest.json")
    options = {k: v for k, v in options.items() if k not in ("handler", "command")}
    digests = digests or {}
    payload = {
        "command": command,
        "version": __version__,
        "options": {k: _jsonable(v) for k, v in sorted(options.items())},
        "inputs": {str(p): digests.get(Path(p)) or file_sha256(p) for p in inputs},
        "outputs": {str(p): digests.get(Path(p)) or file_sha256(p) for p in outputs},
        "duration_seconds": round(time.monotonic() - started, 6),
        **(extra or {}),
    }
    _write_json(payload, manifest_path)
    return manifest_path


def _hashed(origin: dict, path) -> dict[Path, str]:
    """The digest of `path` that `parse_raw` took and left in `origin`, if any."""
    return {Path(path): origin["sha256"]} if "sha256" in origin else {}


def _t_stat(coef: float, se) -> float | None:
    if se is None or not math.isfinite(se) or se == 0.0:
        return None
    return coef / se


def fit_payload(fit: SureFit, estimator: str) -> dict:
    """The fit JSON of any estimator (see the module docstring)."""
    equations: dict[str, dict] = {}
    for coef in fit.coefficients:
        eq = equations.setdefault(coef.equation, {"name": coef.equation,
                                                  "coef": {}, "se": {}, "t": {}})
        eq["coef"][coef.name] = coef.estimate
        eq["se"][coef.name] = coef.se
        eq["t"][coef.name] = _t_stat(coef.estimate, coef.se)
    sigma, config, convergence = fit.sigma, fit.draw_config, fit.convergence
    return {
        "estimator": estimator,
        "n": fit.n,
        "k": fit.k,
        "loglik": fit.loglik,
        "equations": list(equations.values()),
        "random_coefficients": [
            {"name": c.name, "equation": c.equation, "mu": c.estimate, "mu_se": c.se,
             "sigma": c.sigma, "sigma_se": c.sigma_se}
            for c in fit.random_coefficients
        ],
        "sigma": sigma.matrix.tolist(),
        "rho": sigma.rho,
        "sigma1": math.sqrt(sigma.sigma11),
        "sigma2": math.sqrt(sigma.sigma22),
        "sigma1_se": fit.sigma1_se,
        "sigma2_se": fit.sigma2_se,
        "rho_se": fit.rho_se,
        "draws": None if config is None else {
            "R": config.draws_per_obs, "burn": config.burn, "bases": list(config.bases)},
        "convergence": None if convergence is None else {
            "status": convergence.status, "iters": convergence.iterations,
            "grad_norm": convergence.grad_norm},
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
    if not 0 < out < math.inf:
        parser.error(f"{flag} must be positive and finite, got {value}")
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
    ordered = sorted(bins)
    for (lo1, hi1), (lo2, hi2) in zip(ordered, ordered[1:]):
        if lo2 <= hi1:
            parser.error(f"--year-bins ranges {lo1}-{hi1} and {lo2}-{hi2} overlap")
    return tuple(bins)


def cmd_prepare(args, parser) -> int:
    started = time.monotonic()
    trim_sd = _positive_float(parser, args.trim_sd, "--trim-sd")
    columns = [c.strip() for c in args.mpg_columns.split(",")]
    if len(columns) != 2 or not all(columns):
        parser.error("--mpg-columns expects 'user_base,epa_base'")
    keys = [k.strip() for k in (args.group_by or "").split(",") if k.strip()]
    # the groups CSV has one column per key, then the summary columns
    repeated = sorted({k for k in keys if keys.count(k) > 1})
    if repeated:
        raise SpecError(f"--group-by repeats keys {repeated}")
    taken = [k for k in keys if k in GROUP_SUMMARY_COLUMNS]
    if taken:
        raise SpecError(f"--group-by keys {taken} would repeat the summary columns "
                        f"{list(GROUP_SUMMARY_COLUMNS)} of the groups CSV")
    if args.groups_out and not args.group_by:
        parser.error("--groups-out needs --group-by")
    if args.year_bins and not {"model_year_bin_1", "model_year_bin_2"} & set(keys):
        parser.error("--year-bins needs --group-by with model_year_bin_1 or model_year_bin_2")
    bins = _parse_year_bins(parser, args.year_bins) if args.year_bins else DEFAULT_YEAR_BINS
    origin = {}
    table = compute_gaps(parse_raw(args.input, *columns, origin=origin))
    clashes = [c for c in table.covariates if c in GARAGE_COLUMNS]
    if clashes:
        raise SpecError(f"input columns {clashes} would repeat fixed columns of the "
                        "prepared CSV; rename them")
    kept, _, report = trim_outliers(table, trim_sd)
    # before the first write, so a bad key writes nothing
    groups = group_summary(kept, keys, bins=bins) if args.group_by else None

    out = Path(args.out)
    write_garage_csv(kept, out)
    digests = {**_hashed(origin, args.input), out: file_sha256(out)}
    image = write_table_image(kept, out, digests[out])
    outputs = [out] if image is None else [out, image]

    report_path = out.with_name(out.stem + ".report.json")
    payload = dataclasses.asdict(report)
    payload["mean_gap"] = _column_means(kept.gap)
    payload["mean_mpg_shortfall"] = _column_means(kept.epa_mpg - kept.my_mpg)
    try:
        payload["gap_correlation"] = gap_correlation(kept)
    except DegenerateDataError:
        payload["gap_correlation"] = None
    _write_json(payload, report_path)
    outputs.append(report_path)

    if groups is not None:
        groups_path = Path(args.groups_out) if args.groups_out \
            else out.with_name(out.stem + ".groups.csv")
        write_group_summary_csv(groups, keys, groups_path)
        outputs.append(groups_path)

    _write_manifest("prepare", vars(args), [Path(args.input)], outputs, started,
                    digests=digests)
    print(f"kept {report.n_kept} of {report.n_input} observations "
          f"({report.n_removed} outside {trim_sd} SD)")
    return EXIT_OK


def _column_means(values: np.ndarray) -> list:
    """Mean of each vehicle's column; None for both when there are no rows."""
    if not len(values):
        return [None, None]
    return [float(np.mean(column)) for column in values.T]


# dest -> (default, help) of the options that only rp-sure uses; an option is
# given only when it is on the command line (argparse.SUPPRESS)
RP_SURE_OPTIONS = {
    "draws": (400, "Halton draws per observation (rp-sure with random terms)"),
    "burn": (50, "leading Halton points to discard (rp-sure with random terms)"),
    "bases": (None, "comma-separated Halton prime bases, one per random term "
                    "(rp-sure with random terms)"),
    "threads": (1, "worker cap for the likelihood, which never changes results (rp-sure)"),
    "max_iterations": (500, "Newton step cap (rp-sure)"),
}


def _rp_sure_options(args, parser, spec) -> dict:
    """The resolved rp-sure options that shape this fit; refuses any other given."""
    used = [k for k in RP_SURE_OPTIONS if args.estimator == "rp-sure"
            and (spec.n_random or k in ("threads", "max_iterations"))]
    unused = ", ".join(f"--{k.replace('_', '-')}" for k in RP_SURE_OPTIONS
                       if hasattr(args, k) and k not in used)
    if unused:
        where = " on a spec without random terms" if args.estimator == "rp-sure" else ""
        parser.error(f"--estimator {args.estimator} does not use {unused}{where}")
    options = {k: getattr(args, k, RP_SURE_OPTIONS[k][0]) for k in used}
    for key, value in options.items():
        low = LOWER_BOUNDS.get({"draws": "draws_per_obs"}.get(key, key))
        if low is not None and value < low:
            parser.error(f"--{key.replace('_', '-')} must be >= {low}")
    if "bases" in options:
        text, count = options["bases"], spec.n_random
        try:
            bases = first_primes(count) if text is None \
                else HaltonConfig(tuple(int(b) for b in text.split(","))).bases
        except ValueError as exc:
            parser.error(f"--bases expects distinct primes like '2,3', got {text!r}: {exc}")
        if len(bases) != count:
            parser.error(f"--bases needs one prime per random term, got {len(bases)} for {count}")
        options["bases"] = bases
    return options


def cmd_fit(args, parser) -> int:
    started = time.monotonic()
    spec = load_model_spec(args.spec)
    options = _rp_sure_options(args, parser, spec)
    randoms = [f"{eq.name}:{t.design_name}" for eq in spec.equations
               for t in eq.terms if t.is_random]
    if randoms and args.estimator != "rp-sure":
        print(f"note: {args.estimator} fits the random terms {randoms} as fixed", file=sys.stderr)
    origin = {}
    table = compute_gaps(parse_raw(args.data, origin=origin))
    design = encode_design(table, spec)
    y1, y2 = responses(table)

    if args.estimator == "ols":
        fit = ols_system_fit(design, y1, y2)
    elif args.estimator == "sure":
        fit = fgls_fit(design, y1, y2)
    else:
        draws = None if not spec.n_random else build_draw_store(
            len(table), HaltonConfig(options["bases"], options["draws"], options["burn"]))
        fit = fit_rp_sure(design, y1, y2, draws=draws,
                          max_iterations=options["max_iterations"],
                          threads=options["threads"])

    out = Path(args.out)
    _write_json(fit_payload(fit, args.estimator), out)
    convergence = fit.convergence
    extra = {"table_source": origin["source"]}
    if convergence is not None:
        extra["passes"] = {
            "newton_steps": convergence.iterations, "score_passes": convergence.score_passes,
            "hessian_passes": convergence.hessian_passes,
            "modified_steps": convergence.modified_steps,
            "newton_decrement": convergence.decrement}
    _write_manifest("fit", {**vars(args), **options}, [Path(args.data), Path(args.spec)],
                    [out], started, extra, _hashed(origin, args.data))
    status = "ok" if convergence is None else convergence.status
    print(f"{args.estimator} fit written to {out} "
          f"(loglik={fit.loglik:.4f}, k={fit.k}, status={status})")
    if convergence is None or convergence.converged:
        return EXIT_OK
    print("warning: estimation did not converge", file=sys.stderr)
    return EXIT_NOT_CONVERGED


def _read_fit_json(path: str) -> dict:
    """The JSON object a fit file holds; a file that cannot be read is a
    SpecError, so it exits 2 like any other unusable fit file."""
    try:
        return checked(read_json(path, "fit file"), OBJECT, f"fit file {path}")
    except OSError as exc:
        raise SpecError(f"unreadable fit file {path}: {exc}") from exc


def _read_fit_file(path: str) -> tuple[str, CriteriaInput]:
    where = f"fit file {path}"
    raw = _read_fit_json(path)
    try:
        loglik = checked(raw["loglik"], NUMBER, f"{where}: 'loglik'", nullable=True)
        if loglik is None:
            raise SpecError(f"{where} has a degenerate log-likelihood; it cannot be scored")
        k = checked(raw["k"], INTEGER, f"{where}: 'k'")
        cov = checked(raw.get("param_cov"), LIST, f"{where}: 'param_cov'", nullable=True)
        # k lists of k numbers or nulls: a null is how a fit records a non-finite entry
        for i in range(0 if cov is None else max(k, len(cov))):
            row = cov[i] if i < len(cov) else None
            if not (i < k and is_json(row, LIST) and len(row) == k
                    and all(is_json(value, NUMBER, nullable=True) for value in row)):
                raise SpecError(f"{where}: 'param_cov' must be k = {k} lists of {k} numbers "
                                f"or nulls, but its row {i + 1} is "
                                f"{repr(row) if i < len(cov) else 'missing'}")
        ci = CriteriaInput(loglik=loglik, k=k, n=checked(raw["n"], INTEGER, f"{where}: 'n'"),
                           fisher_inverse=None if cov is None else np.array(cov))
        estimator = checked(raw.get("estimator", "fit"), STRING, f"{where}: 'estimator'")
        return f"{estimator}:{Path(path).stem}", ci
    except (KeyError, ValueError) as exc:
        raise SpecError(f"unreadable fit file {path}: {exc}") from exc


def _fit_data_hash(path: str) -> str | None:
    """SHA-256 of the data file that the fit's manifest records; None, named
    on stderr, for a fit without a manifest."""
    manifest = Path(path).with_name(Path(path).name + ".manifest.json")
    if not manifest.exists():
        print(f"warning: fit file {path} has no manifest, so its data is not checked",
              file=sys.stderr)
        return None
    where = f"manifest {manifest}"
    raw = checked(read_json(manifest, "manifest"), OBJECT, where)
    options = checked(raw.get("options"), OBJECT, f"{where}: 'options'")
    inputs = checked(raw.get("inputs"), OBJECT, f"{where}: 'inputs'")
    data = checked(options.get("data"), STRING, f"{where}: 'options.data'")
    return checked(inputs.get(str(Path(data))), STRING, f"{where}: the hash of {data}")


def cmd_compare(args, parser) -> int:
    started = time.monotonic()
    if len(args.fits) < 2:
        parser.error("need at least two fit files to compare")
    labelled = [_read_fit_file(p) for p in args.fits]
    labels = [lab for lab, _ in labelled]
    if len(set(labels)) != len(labels):
        labelled = [(f"{lab}#{i}", ci) for i, (lab, ci) in enumerate(labelled)]
    # information criteria compare models only on the same data
    hashes = [(lab, _fit_data_hash(p)) for (lab, _), p in zip(labelled, args.fits)]
    if len({h for _, h in hashes if h is not None}) > 1:
        raise SpecError("fits of different data cannot be ranked: " + ", ".join(
            f"{lab} was fit to {h}" for lab, h in hashes if h is not None))
    ranking = rank_models(labelled)

    def cell(value) -> str:
        return "" if value is None else f"{value:.4f}"

    rows = [[m.label, m.n, m.k, cell(m.loglik), *(cell(m.scores.value(c)) for c in CRITERIA),
             ";".join(c for c in CRITERIA if ranking.winners.get(c) == m.label)]
            for m in ranking.models]
    out = Path(args.out)
    write_csv(out, ["label", "n", "k", "loglik", *CRITERIA, "best_on"], list(zip(*rows)))
    _write_manifest("compare", vars(args), [Path(p) for p in args.fits],
                    [out], started)
    print(ranking.render_text())
    return EXIT_OK


def cmd_effects(args, parser) -> int:
    started = time.monotonic()
    raw = _read_fit_json(args.fit)
    randoms = raw.get("random_coefficients") or []
    if not randoms:
        raise SpecError("no random coefficients in this fit")
    where = f"malformed random coefficient in {args.fit}"
    try:
        summaries = []
        for rc in checked(randoms, LIST, f"{where}: 'random_coefficients'"):
            rc = checked(rc, OBJECT, where)
            checked(rc.get("equation", ""), STRING, f"{where}: 'equation'")
            summaries.append(effect_summary(checked(rc["name"], STRING, f"{where}: 'name'"),
                                            checked(rc["mu"], NUMBER, f"{where}: 'mu'"),
                                            checked(rc["sigma"], NUMBER, f"{where}: 'sigma'")))
    except (KeyError, ValueError) as exc:
        raise SpecError(f"{where}: {exc}") from exc
    rows = [[rc["name"], rc.get("equation", ""), summary.mu, summary.sigma,
             f"{summary.range_lower:.4f}", f"{summary.range_upper:.4f}",
             f"{100 * summary.share_above_zero:.2f}", f"{100 * summary.share_below_zero:.2f}"]
            for rc, summary in zip(randoms, summaries)]
    out = Path(args.out)
    write_csv(out, ["name", "equation", "mu", "sigma", "lower", "upper",
                    "pct_above", "pct_below"], list(zip(*rows)))
    _write_manifest("effects", vars(args), [Path(args.fit)], [out], started)
    print(f"wrote {len(randoms)} effect rows to {out}")
    return EXIT_OK


def cmd_simulate(args, parser) -> int:
    started = time.monotonic()
    raw = checked(read_json(args.truth, "truth file"), OBJECT, f"truth file {args.truth}")
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
    year_bins = ",".join(f"{lo}-{hi}" for lo, hi in DEFAULT_YEAR_BINS)

    p = sub.add_parser("prepare", help="compute gap ratios, trim outliers, summarize")
    p.add_argument("--input", required=True, help="raw garage CSV")
    p.add_argument("--out", required=True, help="trimmed dataset CSV to write")
    p.add_argument("--trim-sd", default="3.0",
                   help="outlier interval half-width in SDs (default: 3.0)")
    p.add_argument("--mpg-columns", default="my_mpg,epa_mpg",
                   help="user,epa column bases for the gap ratio (default: my_mpg,epa_mpg)")
    p.add_argument("--group-by", default=None,
                   help="comma-separated keys for a grouped gap summary CSV")
    p.add_argument("--groups-out", default=None,
                   help="path for the grouped summary (default: <out>.groups.csv)")
    p.add_argument("--year-bins", default=None,
                   help="model-year bins of the model_year_bin_1/2 group keys "
                        f"(default: {year_bins})")
    p.set_defaults(handler=cmd_prepare)

    p = sub.add_parser("fit", help="estimate a two-equation gap model")
    p.add_argument("--data", required=True, help="prepared or raw garage CSV")
    p.add_argument("--spec", required=True, help="model spec JSON")
    p.add_argument("--estimator", required=True, choices=("ols", "sure", "rp-sure"))
    p.add_argument("--out", required=True, help="fit JSON to write")
    for dest, (default, text) in RP_SURE_OPTIONS.items():
        shown = "the first primes" if default is None else default
        p.add_argument("--" + dest.replace("_", "-"), type=str if dest == "bases" else int,
                       default=argparse.SUPPRESS, help=f"{text} (default: {shown})")
    p.set_defaults(handler=cmd_fit)

    p = sub.add_parser("compare", help="rank fitted models by information criteria")
    p.add_argument("fits", nargs="+", help="two or more fit JSON files")
    p.add_argument("--out", required=True, help="criteria table CSV to write")
    p.set_defaults(handler=cmd_compare)

    p = sub.add_parser("effects", help="distributional summary of random coefficients")
    p.add_argument("--fit", required=True, help="rp-sure fit JSON")
    p.add_argument("--out", required=True, help="effects CSV to write")
    p.set_defaults(handler=cmd_effects)

    p = sub.add_parser("simulate", help="draw a synthetic dataset from a truth JSON")
    p.add_argument("--truth", required=True, help="truth specification JSON")
    p.add_argument("--out", required=True, help="dataset CSV to write")
    p.add_argument("--n", type=int, default=None,
                   help="sample size (default: the truth file's n)")
    p.add_argument("--seed", type=int, default=None,
                   help="generator seed (default: the truth file's seed)")
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
