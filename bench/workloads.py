"""Benchmark workloads: seeded inputs, reference optima and output checks.

Every workload draws its data with ``fuelgap.synthetic.simulate_dataset``
from a key derived from the run seed, writes the files the ``fuelgap`` CLI
reads, and returns one operation: the CLI commands to run in one process
and a check of what they wrote.  Nothing here is timed.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.optimize import minimize

from fuelgap import (
    DesignMatrices,
    ErrorCovariance,
    HaltonConfig,
    RpParameters,
    build_draw_store,
    exact_marginal_loglik,
    simulate_dataset,
    simulated_loglik,
    truth_from_dict,
)
from fuelgap.msl import effects_from_design

# A dataset is used only if the reference estimator (exact ML, or GLS with
# the true error covariance) puts every parameter within SCREEN_SE of the
# truth.  The 3-SE recovery checks then test the program, not the luck of
# the draw: without the screen about 2% of seeds would miss on 9 parameters
# by chance alone.  The screen never calls the code under test.
SCREEN_SE = 2.5
RECOVERY_SE = 3.0
# rp_wide passes when the fit is within this many nats of the simulated
# log-likelihood at the exact-ML optimum (a true MSL maximum is at or above it).
SHORTFALL_TOL_NATS = 0.5
MAX_SCREEN_ATTEMPTS = 64


def data_seed(seed: int, attempt: int) -> int:
    """Philox key of the dataset for one run seed and screening attempt."""
    return seed * MAX_SCREEN_ATTEMPTS + attempt


@dataclass
class Operation:
    """What one timed operation runs, and how its outputs are judged."""

    commands: list[list[str]]
    fit_paths: list[Path]
    threads: int
    # returns (failure reasons, observed values such as loglik_shortfall)
    check: Callable[[], tuple[list[str], dict]]


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# random-parameter workloads


@dataclass(frozen=True)
class RpWorkload:
    truth: dict            # truth JSON without "seed"
    draws: int
    bases: tuple[int, ...]
    threads: int
    recovery: bool         # True: criterion-5 check; False: shortfall check

    def prepare(self, work: Path, seed: int) -> Operation:
        for attempt in range(MAX_SCREEN_ATTEMPTS):
            truth = truth_from_dict(dict(self.truth, seed=data_seed(seed, attempt)))
            ds = simulate_dataset(truth)
            design = _rp_design(truth, ds)
            target = truth_vector(truth)
            optimum, natural, se = exact_ml(design, ds.y1, ds.y2, target)
            if not self.recovery or np.all(np.abs(natural - target) <= SCREEN_SE * se):
                break
        else:
            raise RuntimeError(f"no dataset passed the screen in {MAX_SCREEN_ATTEMPTS} tries")

        data, spec, out = work / "data.csv", work / "spec.json", work / "fit.json"
        ds.write_csv(data)
        spec.write_text(json.dumps(spec_for(self.truth)), encoding="utf-8")
        store = build_draw_store(ds.n, HaltonConfig(bases=self.bases, draws_per_obs=self.draws))
        reference = simulated_loglik(optimum, design, ds.y1, ds.y2, store)

        def check() -> tuple[list[str], dict]:
            fit = _read_json(out)
            estimates, ses = rp_fit_vector(fit)
            shortfall = reference - fit["loglik"]
            reasons = []
            if any(s is None or not s > 0 for s in ses):
                reasons.append("standard errors missing")
            if self.recovery:
                if fit["convergence"]["status"] != "converged":
                    reasons.append(f"status {fit['convergence']['status']!r}")
                elif not reasons:
                    misses = [i for i, (e, s, t) in enumerate(zip(estimates, ses, target))
                              if abs(e - t) > RECOVERY_SE * s]
                    if misses:
                        reasons.append(f"parameters {misses} outside {RECOVERY_SE} SEs "
                                       "of the truth")
            elif shortfall > SHORTFALL_TOL_NATS:
                reasons.append(f"loglik {shortfall:.3f} nats below the simulated "
                               "log-likelihood at the exact-ML optimum")
            return reasons, {"loglik_shortfall": shortfall}

        command = ["fit", "--data", str(data), "--spec", str(spec),
                   "--estimator", "rp-sure", "--out", str(out),
                   "--threads", str(self.threads), "--draws", str(self.draws),
                   "--bases", ",".join(map(str, self.bases))]
        return Operation(commands=[command], fit_paths=[out], threads=self.threads,
                         check=check)


def spec_for(truth: dict) -> dict:
    """Model spec that estimates the truth's model, random where sigma > 0."""
    return {"equations": [
        {"name": eq["name"], "intercept": eq.get("intercept") is not None,
         "terms": [{"column": t["column"],
                    "kind": "random-normal" if t.get("sigma", 0.0) > 0 else "fixed"}
                   for t in eq["terms"]]}
        for eq in truth["equations"]]}


def _rp_design(truth, ds) -> DesignMatrices:
    spec = truth.model_spec()
    return DesignMatrices(x1=ds.x1, x2=ds.x2, names1=ds.names1, names2=ds.names2,
                          random1=spec.equations[0].random_design_indices,
                          random2=spec.equations[1].random_design_indices)


def truth_vector(truth) -> np.ndarray:
    """[coef1..., coef2..., sigmas..., sigma1, sigma2, rho], the fit's order."""
    coefs, sigmas = [], []
    for eq in truth.equations:
        if eq.intercept is not None:
            coefs.append(eq.intercept)
        coefs.extend(t.value for t in eq.terms)
        sigmas.extend(t.sigma for t in eq.terms if t.sigma > 0)
    return np.array(coefs + sigmas + [truth.sigma1, truth.sigma2, truth.rho])


def rp_fit_vector(fit: dict) -> tuple[np.ndarray, list]:
    """Estimates and SEs from an rp-sure fit JSON, in truth_vector order."""
    est, ses = [], []
    for eq in fit["equations"]:
        est.extend(eq["coef"].values())
        ses.extend(eq["se"].values())
    for rc in fit["random_coefficients"]:
        est.append(rc["sigma"])
        ses.append(rc["sigma_se"])
    for name in ("sigma1", "sigma2", "rho"):
        est.append(fit[name])
        ses.append(fit[f"{name}_se"])
    return np.array(est, dtype=float), ses


def exact_ml(design: DesignMatrices, y1, y2, start: np.ndarray
             ) -> tuple[RpParameters, np.ndarray, np.ndarray]:
    """Maximise the closed-form marginal likelihood from `start`.

    Returns the optimum as parameters and as a truth_vector-ordered array,
    and the SEs of that array from the likelihood's Hessian.
    """
    effects = effects_from_design(design)
    k1, k2, d = design.x1.shape[1], design.x2.shape[1], len(effects)

    def params_at(v: np.ndarray) -> RpParameters:
        s1, s2, rho = v[-3:]
        cov = ErrorCovariance(sigma11=s1 * s1, sigma22=s2 * s2, sigma12=rho * s1 * s2)
        return RpParameters(coef1=v[:k1], coef2=v[k1:k1 + k2],
                            sigmas=np.abs(v[k1 + k2:k1 + k2 + d]), cov=cov)

    def negll(v: np.ndarray) -> float:
        p = params_at(v)
        return -exact_marginal_loglik(design.x1, design.x2, y1, y2, p.coef1, p.coef2,
                                      effects, p.sigmas, p.cov)

    # search on log spreads and atanh(rho) so every trial point is valid
    nc = k1 + k2

    def to_natural(t: np.ndarray) -> np.ndarray:
        return np.concatenate([t[:nc], np.exp(t[nc:-1]), np.tanh(t[-1:])])

    t0 = np.concatenate([start[:nc], np.log(start[nc:-1]), np.arctanh(start[-1:])])
    res = minimize(lambda t: negll(to_natural(t)), t0, method="BFGS",
                   options={"gtol": 1e-6, "maxiter": 2000})
    natural = to_natural(res.x)
    hess = _central_hessian(negll, natural)
    return params_at(natural), natural, np.sqrt(np.diag(np.linalg.inv(hess)))


def _central_hessian(f, x: np.ndarray) -> np.ndarray:
    h = 1e-4 * np.maximum(np.abs(x), 0.05)
    p = x.size
    hess = np.empty((p, p))
    for i in range(p):
        for j in range(i, p):
            def at(si, sj):
                v = x.copy()
                v[i] += si * h[i]
                v[j] += sj * h[j]
                return f(v)
            hess[i, j] = hess[j, i] = (at(1, 1) - at(1, -1) - at(-1, 1) + at(-1, -1)) \
                / (4.0 * h[i] * h[j])
    return hess


# ---------------------------------------------------------------------------
# ingest workload

DIVISIONS = ("New England", "Middle Atlantic", "East North Central",
             "West North Central", "South Atlantic", "East South Central",
             "West South Central", "Mountain", "Pacific")


@dataclass(frozen=True)
class IngestWorkload:
    """A raw garage CSV with planted outliers through prepare, fit and compare.

    truth["n"] natural rows are followed by planted rows, 1% of all rows,
    whose gaps lie far outside the 3-SD trim interval; the natural gap
    spread is small enough that no natural row reaches it (the construction
    is verified below).
    """

    truth: dict            # truth JSON without "seed"
    spec: dict

    def prepare(self, work: Path, seed: int) -> Operation:
        for attempt in range(MAX_SCREEN_ATTEMPTS):
            truth = truth_from_dict(dict(self.truth, seed=data_seed(seed, attempt)))
            ds = simulate_dataset(truth)
            beta, se = gls_known_covariance(ds.x1, ds.x2, ds.y1, ds.y2,
                                            truth.error_covariance)
            target = truth_vector(truth)
            if np.all(np.abs(beta - target[:beta.size]) <= SCREEN_SE * se):
                break
        else:
            raise RuntimeError(f"no dataset passed the screen in {MAX_SCREEN_ATTEMPTS} tries")

        raw, spec = work / "raw.csv", work / "spec.json"
        prepared, groups = work / "prepared.csv", work / "groups.csv"
        sure, ols, table = work / "sure.json", work / "ols.json", work / "criteria.csv"
        rng = np.random.default_rng([data_seed(seed, attempt), 1])
        planted_ids = _write_raw_csv(raw, ds, rng)
        spec.write_text(json.dumps(self.spec), encoding="utf-8")

        def check() -> tuple[list[str], dict]:
            reasons = []
            report = _read_json(prepared.with_name(prepared.stem + ".report.json"))
            if set(report["removed_ids"]) != planted_ids \
                    or report["n_removed"] != len(planted_ids):
                reasons.append(f"trim removed {report['n_removed']} rows, "
                               f"planted {len(planted_ids)}")
            fit = _read_json(sure)
            est = [v for eq in fit["equations"] for v in eq["coef"].values()]
            ses = [v for eq in fit["equations"] for v in eq["se"].values()]
            misses = [i for i, (e, s, t) in enumerate(zip(est, ses, target))
                      if s is None or abs(e - t) > RECOVERY_SE * s]
            if misses:
                reasons.append(f"FGLS coefficients {misses} outside {RECOVERY_SE} SEs "
                               "of the truth")
            with open(table, newline="", encoding="utf-8") as fh:
                sbic = {row["label"].split(":")[0]: float(row["sbic"])
                        for row in csv.DictReader(fh)}
            if not sbic["sure"] < sbic["ols"]:
                reasons.append(f"compare ranks ols ahead of sure on SBIC: {sbic}")
            return reasons, {}

        commands = [
            ["prepare", "--input", str(raw), "--out", str(prepared), "--trim-sd", "3",
             "--group-by", "us_division,model_year_bin_1", "--groups-out", str(groups)],
            ["fit", "--data", str(prepared), "--spec", str(spec), "--estimator", "sure",
             "--out", str(sure)],
            ["fit", "--data", str(prepared), "--spec", str(spec), "--estimator", "ols",
             "--out", str(ols)],
            ["compare", str(sure), str(ols), "--out", str(table)],
        ]
        return Operation(commands=commands, fit_paths=[sure, ols], threads=1, check=check)


def gls_known_covariance(x1, x2, y1, y2, cov: ErrorCovariance):
    """Stacked GLS with the true error covariance: coefficients and SEs."""
    low = np.linalg.cholesky(cov.matrix)
    l11, l21, l22 = low[0, 0], low[1, 0], low[1, 1]
    # whiten each observation pair by the inverse Cholesky factor
    z = np.vstack([np.hstack([x1 / l11, np.zeros((x1.shape[0], x2.shape[1]))]),
                   np.hstack([-l21 * x1 / (l11 * l22), x2 / l22])])
    w = np.concatenate([y1 / l11, (y2 - l21 * y1 / l11) / l22])
    beta, *_ = np.linalg.lstsq(z, w, rcond=None)
    return beta, np.sqrt(np.diag(np.linalg.inv(z.T @ z)))


def _write_raw_csv(path: Path, ds, rng: np.random.Generator) -> set[str]:
    """Raw pipeline CSV of ds's rows with planted outliers mixed in.

    The planted rows are 1% of all rows: 40% with a high gap 1, 40% with a
    high gap 2 and 20% with both gaps low.  Bernoulli covariates are written
    as categorical yes/no text.  Returns the planted garage ids.
    """
    n = ds.n
    planted = n // 99
    high1 = high2 = 2 * planted // 5
    low = planted - high1 - high2
    gaps = np.vstack([np.column_stack([ds.y1, ds.y2]),
                      [(2.2 + 0.001 * j, 0.86) for j in range(high1)],
                      [(0.86, 2.4 + 0.001 * j) for j in range(high2)],
                      [(0.20, 0.18 + 0.0001 * j) for j in range(low)]])
    total = gaps.shape[0]
    ids = [f"g{i:06d}" for i in range(n)] + [f"p{j:05d}" for j in range(total - n)]
    epa = np.round(rng.uniform(15.0, 45.0, size=(total, 2)), 1)
    mpg = gaps * epa
    year1 = rng.integers(1984, 2013, size=total)
    year2 = year1 + rng.integers(0, 3, size=total)
    division = rng.integers(0, len(DIVISIONS), size=total)
    # planted rows borrow the covariates of a random natural row
    source = np.concatenate([np.arange(n), rng.integers(0, n, size=total - n)])

    computed = mpg / epa                # the gaps compute_gaps will see
    mu, sd = computed.mean(axis=0), computed.std(axis=0, ddof=1)
    outside = ((computed < mu - 3 * sd) | (computed > mu + 3 * sd)).any(axis=1)
    if not np.array_equal(np.flatnonzero(outside), np.arange(n, total)):
        raise RuntimeError("ingest construction error: the planted rows are not "
                           "exactly the rows outside the 3-SD interval")

    names = [c.name for c in ds.truth.covariates]
    columns = []
    for recipe in ds.truth.covariates:
        values = ds.covariate_columns[recipe.name][source]
        columns.append(np.where(values > 0, "yes", "no").tolist() if recipe.kind == "bernoulli"
                       else [repr(v) for v in values.tolist()])
    mpg, epa = mpg.tolist(), epa.tolist()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["garage_id", "my_mpg_1", "epa_mpg_1", "my_mpg_2", "epa_mpg_2",
                         "model_year_1", "model_year_2", "us_division", *names])
        for i in rng.permutation(total).tolist():
            writer.writerow([ids[i], repr(mpg[i][0]), repr(epa[i][0]), repr(mpg[i][1]),
                             repr(epa[i][1]), int(year1[i]), int(year2[i]),
                             DIVISIONS[division[i]], *(col[i] for col in columns)])
    return set(ids[n:])


# ---------------------------------------------------------------------------
# the named workloads

RECOVERY_TRUTH = {      # the criterion-5 truth
    "n": 2000,
    "error": {"sigma1": 0.1, "sigma2": 0.1, "rho": 0.5},
    "covariates": [
        {"name": "x1", "kind": "normal", "mean": 0.0, "sd": 1.0},
        {"name": "x2", "kind": "normal", "mean": 0.0, "sd": 1.0},
    ],
    "equations": [
        {"name": "vehicle_1", "intercept": 0.88,
         "terms": [{"column": "x1", "coef": -0.03, "sigma": 0.05}]},
        {"name": "vehicle_2", "intercept": 0.92,
         "terms": [{"column": "x2", "coef": 0.02, "sigma": 0.06}]},
    ],
}

# Means a tenth of the spreads or less, the paper's regime (Table 4: mu=0.013,
# sigma=0.052) taken far enough that every seed starts the spreads at the
# optimizer's 1e-3 floor, so the workload behaves alike on every seed.
WIDE_TRUTH = {
    "n": 2000,
    "error": {"sigma1": 0.1, "sigma2": 0.1, "rho": 0.5},
    "covariates": [
        {"name": "x1", "kind": "normal", "mean": 0.0, "sd": 1.0},
        {"name": "x2", "kind": "normal", "mean": 0.0, "sd": 1.0},
        {"name": "x3", "kind": "normal", "mean": 0.0, "sd": 1.0},
        {"name": "x4", "kind": "normal", "mean": 0.0, "sd": 1.0},
        {"name": "d1", "kind": "bernoulli", "p": 0.4},
        {"name": "d2", "kind": "bernoulli", "p": 0.4},
    ],
    "equations": [
        {"name": "vehicle_1", "intercept": 0.88,
         "terms": [{"column": "x1", "coef": 0.004, "sigma": 0.052},
                   {"column": "x2", "coef": -0.006, "sigma": 0.06},
                   {"column": "d1", "coef": 0.03}]},
        {"name": "vehicle_2", "intercept": 0.92,
         "terms": [{"column": "x3", "coef": 0.005, "sigma": 0.05},
                   {"column": "x4", "coef": -0.003, "sigma": 0.045},
                   {"column": "d2", "coef": -0.02}]},
    ],
}

INGEST_TRUTH = {        # 99,000 natural rows + 1,000 planted = 100,000
    "n": 99_000,
    "error": {"sigma1": 0.04, "sigma2": 0.04, "rho": 0.5},
    "covariates": [
        {"name": "commute", "kind": "uniform", "low": 0.0, "high": 1.0},
        {"name": "age_2", "kind": "uniform", "low": 0.0, "high": 1.0},
        {"name": "urban", "kind": "bernoulli", "p": 0.5},
    ],
    "equations": [
        {"name": "vehicle_1", "intercept": 0.86,
         "terms": [{"column": "commute", "coef": -0.03},
                   {"column": "urban", "coef": -0.02}]},
        {"name": "vehicle_2", "intercept": 0.85,
         "terms": [{"column": "age_2", "coef": -0.04},
                   {"column": "urban", "coef": 0.015}]},
    ],
}

INGEST_SPEC = {
    "base_levels": {"urban": "no"},
    "equations": [
        {"name": "vehicle_1", "intercept": True,
         "terms": [{"column": "commute"}, {"column": "urban", "level": "yes"}]},
        {"name": "vehicle_2", "intercept": True,
         "terms": [{"column": "age_2"}, {"column": "urban", "level": "yes"}]},
    ],
}

# rp_wide is not listed in BENCHMARK.json: every fit of it stops early and
# fails its check (see README.md), and a benchmark run must pass its checks.
# It stays here to reproduce that failure: run.py --workload rp_wide.
WORKLOADS = {
    "rp_recovery": RpWorkload(truth=RECOVERY_TRUTH, draws=400, bases=(2, 3), threads=1,
                              recovery=True),
    "rp_wide": RpWorkload(truth=WIDE_TRUTH, draws=200, bases=(2, 3, 5, 7), threads=2,
                          recovery=False),
    "ingest": IngestWorkload(truth=INGEST_TRUTH, spec=INGEST_SPEC),
}
