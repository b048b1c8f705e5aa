"""Acceptance gate: one test per published criterion, each timed against its
stated runtime budget.  The conftest hook prints a PASS/FAIL line per
criterion at the end of the run."""

import json
import time

import numpy as np
import pytest

from fuelgap.cli import main as cli_main
from fuelgap.criteria import effect_summary
from fuelgap.data import compute_gaps, parse_raw, gap_correlation
from fuelgap.halton import HaltonConfig, build_draw_store, radical_inverse
from fuelgap.msl import RpParameters, effects_from_design, simulated_loglik
from fuelgap.sure import fgls_fit
from fuelgap.synthetic import (
    CovariateRecipe,
    EquationTruth,
    TermTruth,
    TruthSpec,
    exact_marginal_loglik,
    quadrature_loglik,
    simulate_dataset,
)
from test_criteria import REFERENCE_EFFECT_ROWS
from test_sure import design_of, equation_values, lstsq_ols


class Stopwatch:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        return False


# ---------------------------------------------------------------------------
# criterion 1: closed-form reproduction of the published effect table


def test_criterion_1_table4_reproduction():
    with Stopwatch() as clock:
        for name, mu, sigma, lo, hi, above, below, transposed in REFERENCE_EFFECT_ROWS:
            s = effect_summary(name, mu, sigma)
            printed_above = below if transposed else above
            assert 100 * s.share_above_zero == pytest.approx(printed_above, abs=0.05), name
            assert s.range_lower == pytest.approx(lo, abs=5e-4), name
            assert s.range_upper == pytest.approx(hi, abs=5e-4), name
        # spot-check the two shares quoted with the criterion
        assert 100 * effect_summary("a", 0.01294, 0.0521).share_above_zero == \
            pytest.approx(59.81, abs=0.05)
        assert 100 * effect_summary("b", -0.03870, 0.0275).share_above_zero == \
            pytest.approx(7.97, abs=0.05)
    assert clock.elapsed < 1.0


# ---------------------------------------------------------------------------
# criterion 2: Halton correctness


def test_criterion_2_halton_correctness():
    with Stopwatch() as clock:
        assert [radical_inverse(i, 2) for i in (1, 2, 3, 4)] == [0.5, 0.25, 0.75, 0.125]
        for m in range(1, 7):
            span = 2 ** m
            for start in (1, 3, span + 1):
                pts = np.array([radical_inverse(i, 2)
                                for i in range(start, start + span)])
                cells = np.floor(pts * span).astype(int)
                assert sorted(cells) == list(range(span)), (m, start)
    assert clock.elapsed < 1.0


# ---------------------------------------------------------------------------
# criterion 3: Kruskal equivalence


def test_criterion_3_kruskal_equivalence():
    rng = np.random.default_rng(1234)
    with Stopwatch() as clock:
        for _ in range(20):
            x = np.column_stack([np.ones(200), rng.normal(size=(200, 4))])
            y1 = x @ rng.normal(size=5) + 0.3 * rng.normal(size=200)
            y2 = x @ rng.normal(size=5) + 0.4 * rng.normal(size=200)
            fit = fgls_fit(design_of(x, x), y1, y2)
            diff = max(
                np.max(np.abs(equation_values(fit, 0) - lstsq_ols(x, y1)[0])),
                np.max(np.abs(equation_values(fit, 1) - lstsq_ols(x, y2)[0])))
            assert diff <= 1e-8
    assert clock.elapsed < 5.0


# ---------------------------------------------------------------------------
# criterion 4: MSL vs oracle, Gauss-Hermite vs oracle

ORACLE_TRUTH = TruthSpec(
    equations=(EquationTruth("vehicle_1", (TermTruth("x1", -0.03, 0.05),),
                             intercept=0.88),
               EquationTruth("vehicle_2", (TermTruth("x2", 0.02, 0.06),),
                             intercept=0.92)),
    covariates=(CovariateRecipe("x1", "uniform", (-1.0, 1.0)),
                CovariateRecipe("x2", "uniform", (-1.0, 1.0))),
    sigma1=0.1, sigma2=0.1, rho=0.5, n=100, seed=313)


def test_criterion_4_msl_oracle_convergence():
    with Stopwatch() as clock:
        ds = simulate_dataset(ORACLE_TRUTH)
        design = ds.design
        params = RpParameters(coef1=[0.88, -0.03], coef2=[0.92, 0.02],
                              sigmas=[0.05, 0.06], cov=ORACLE_TRUTH.error_covariance)
        effects = effects_from_design(design)
        exact = exact_marginal_loglik(ds.x1, ds.x2, ds.y1, ds.y2,
                                      params.coef1, params.coef2, effects,
                                      params.sigmas, params.cov)
        gaps = []
        for r in (100, 400, 1600):
            draws = build_draw_store(100, HaltonConfig(bases=(2, 3), draws_per_obs=r))
            msl = simulated_loglik(params, design, ds.y1, ds.y2, draws)
            gaps.append(abs(msl - exact))
        assert gaps[1] / 100 <= 1e-3
        assert gaps[0] > gaps[1] > gaps[2]
        quad = quadrature_loglik(ds.x1, ds.x2, ds.y1, ds.y2,
                                 params.coef1, params.coef2, effects,
                                 params.sigmas, params.cov, nodes=20)
        assert abs(quad - exact) <= 1e-8
    assert clock.elapsed < 30.0


# ---------------------------------------------------------------------------
# criteria 5, 6, 8: full-stack recovery through the CLI

RECOVERY_TRUTH = {
    "n": 2000, "seed": 20240,
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

RECOVERY_SPEC = {
    "equations": [
        {"name": "vehicle_1", "intercept": True,
         "terms": [{"column": "x1", "kind": "random-normal"}]},
        {"name": "vehicle_2", "intercept": True,
         "terms": [{"column": "x2", "kind": "random-normal"}]},
    ],
}

RECOVERY_TARGETS = {
    "vehicle_1:const": 0.88, "vehicle_1:x1": -0.03,
    "vehicle_2:const": 0.92, "vehicle_2:x2": 0.02,
    "sd:x1": 0.05, "sd:x2": 0.06,
    "sigma1": 0.1, "sigma2": 0.1, "rho": 0.5,
}


def run_cli(*argv) -> int:
    try:
        return cli_main([str(a) for a in argv])
    except SystemExit as exc:
        return int(exc.code)


@pytest.fixture(scope="module")
def recovery_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("recovery")
    truth = root / "truth.json"
    truth.write_text(json.dumps(RECOVERY_TRUTH))
    spec = root / "spec.json"
    spec.write_text(json.dumps(RECOVERY_SPEC))
    data = root / "data.csv"
    assert run_cli("simulate", "--truth", truth, "--out", data) == 0

    t0 = time.perf_counter()
    fits = {}
    for label, extra in (("rp_a", ["--threads", "1"]),
                         ("rp_b", ["--threads", "1"]),
                         ("rp_t8", ["--threads", "8"])):
        out = root / f"{label}.json"
        code = run_cli("fit", "--data", data, "--spec", spec,
                       "--estimator", "rp-sure", "--draws", "400",
                       "--out", out, *extra)
        assert code == 0, f"rp-sure fit {label} failed with exit {code}"
        fits[label] = out
    fit_seconds = time.perf_counter() - t0
    for label, estimator in (("sure", "sure"), ("ols", "ols")):
        out = root / f"{label}.json"
        assert run_cli("fit", "--data", data, "--spec", spec,
                       "--estimator", estimator, "--out", out) == 0
        fits[label] = out
    return {"root": root, "fits": fits, "fit_seconds": fit_seconds}


def test_criterion_5_full_stack_recovery(recovery_run):
    fit = json.loads(recovery_run["fits"]["rp_a"].read_text())
    assert fit["convergence"]["status"] == "converged"
    estimates = {}
    for eq in fit["equations"]:
        for name, value in eq["coef"].items():
            estimates[f"{eq['name']}:{name}"] = (value, eq["se"][name])
    for rc in fit["random_coefficients"]:
        estimates[f"{rc['equation']}:{rc['name']}"] = (rc["mu"], rc["mu_se"])
        estimates[f"sd:{rc['name']}"] = (rc["sigma"], rc["sigma_se"])
    estimates["sigma1"] = (fit["sigma1"], fit["sigma1_se"])
    estimates["sigma2"] = (fit["sigma2"], fit["sigma2_se"])
    estimates["rho"] = (fit["rho"], fit["rho_se"])
    for name, truth_value in RECOVERY_TARGETS.items():
        estimate, se = estimates[name]
        assert se is not None and se > 0, name
        assert abs(estimate - truth_value) <= 3 * se, \
            f"{name}: {estimate} vs {truth_value} (se {se})"
    # one rp-sure fit at R=400, N=2000 must stay inside the stated budget
    assert recovery_run["fit_seconds"] / 3 < 600.0


def test_criterion_6_criteria_ordering(recovery_run):
    root = recovery_run["root"]
    table = root / "criteria.csv"
    assert run_cli("compare", recovery_run["fits"]["ols"], recovery_run["fits"]["sure"],
                   recovery_run["fits"]["rp_a"], "--out", table) == 0
    rows = {}
    header, *lines = table.read_text().splitlines()
    columns = header.split(",")
    for line in lines:
        cells = dict(zip(columns, line.split(",")))
        rows[cells["label"].split(":")[0]] = cells
    for criterion in ("aic", "sbic"):
        rp = float(rows["rp-sure"][criterion])
        sure = float(rows["sure"][criterion])
        ols = float(rows["ols"][criterion])
        assert rp < sure < ols, (criterion, rp, sure, ols)


def test_criterion_8_determinism(recovery_run):
    fits = recovery_run["fits"]
    bytes_a = fits["rp_a"].read_bytes()
    assert bytes_a == fits["rp_b"].read_bytes(), "identical rerun changed the fit JSON"
    assert bytes_a == fits["rp_t8"].read_bytes(), "--threads changed the fit JSON"
    man_a = json.loads((fits["rp_a"].parent / "rp_a.json.manifest.json").read_text())
    man_b = json.loads((fits["rp_b"].parent / "rp_b.json.manifest.json").read_text())
    for manifest in (man_a, man_b):
        manifest.pop("duration_seconds")
        manifest["outputs"] = list(manifest["outputs"].values())
        manifest["options"].pop("out")
    assert man_a == man_b


# ---------------------------------------------------------------------------
# criterion 7: trimming a 7000-row file with 30 planted outliers


def test_criterion_7_trimming(tmp_path):
    rng = np.random.default_rng(777)
    n_base = 6970
    g1 = 0.86 + 0.04 * rng.standard_normal(n_base)
    g2 = 0.85 + 0.04 * rng.standard_normal(n_base)
    lines = ["garage_id,my_mpg_1,epa_mpg_1,my_mpg_2,epa_mpg_2,"
             "model_year_1,model_year_2,us_division"]

    def row(gid, a, b):
        return f"{gid},{a * 25.0!r},25.0,{b * 25.0!r},25.0,1999,2004,Pacific"

    for i, (a, b) in enumerate(zip(g1, g2)):
        lines.append(row(f"g{i}", float(a), float(b)))
    planted = []
    for j in range(12):
        planted.append((f"p1_{j}", 2.2 + 0.01 * j, 0.85))
    for j in range(10):
        planted.append((f"p2_{j}", 0.86, 2.4 + 0.01 * j))
    for j in range(8):
        planted.append((f"pb_{j}", 0.20, 0.18 + 0.002 * j))
    for gid, a, b in planted:
        lines.append(row(gid, a, b))
    raw = tmp_path / "raw.csv"
    raw.write_text("\n".join(lines) + "\n")

    with Stopwatch() as clock:
        prepared = tmp_path / "prepared.csv"
        assert run_cli("prepare", "--input", raw, "--out", prepared,
                       "--trim-sd", "3") == 0
    report = json.loads((tmp_path / "prepared.report.json").read_text())

    # independent interval check over the full contaminated input
    table = compute_gaps(parse_raw(raw))
    gaps = np.array(table.gap.tolist())
    mu = gaps.mean(axis=0)
    sd = gaps.std(axis=0, ddof=1)
    outside = ((gaps < mu - 3 * sd) | (gaps > mu + 3 * sd)).any(axis=1)
    expected = {gid for gid, bad in zip(table.garage_id.tolist(), outside) if bad}
    assert expected == {gid for gid, _, _ in planted}, \
        "construction error: planted set is not exactly the out-of-interval set"

    assert report["n_input"] == 7000
    assert report["n_removed"] == 30
    assert set(report["removed_ids"]) == expected
    assert clock.elapsed < 2.0


# ---------------------------------------------------------------------------
# criterion 9: observed-gap correlation plumbing


def test_criterion_9_gap_correlation():
    import io

    with Stopwatch() as clock:
        rng = np.random.default_rng(np.random.Philox(key=40))
        n = 10_000
        z = rng.standard_normal((n, 2))
        g1 = 0.86 + 0.14 * z[:, 0]
        g2 = 0.85 + 0.14 * (0.40 * z[:, 0] + np.sqrt(1 - 0.40 ** 2) * z[:, 1])
        g1 = np.clip(g1, 0.02, None)
        g2 = np.clip(g2, 0.02, None)
        lines = ["garage_id,my_mpg_1,epa_mpg_1,my_mpg_2,epa_mpg_2,"
                 "model_year_1,model_year_2,us_division"]
        lines += [f"g{i},{float(a) * 25.0!r},25.0,{float(b) * 25.0!r},25.0,"
                  "1999,2004,Pacific" for i, (a, b) in enumerate(zip(g1, g2))]
        table = compute_gaps(parse_raw(io.StringIO("\n".join(lines) + "\n")))
        assert gap_correlation(table) == pytest.approx(0.40, abs=0.03)
    assert clock.elapsed < 1.0
