import dataclasses
import hashlib
import math
import re

import numpy as np
import pytest

from fuelgap.data import compute_gaps, encode_design, parse_raw, responses
from fuelgap.errors import SpecError
from fuelgap.modelspec import read_json
from fuelgap.sure import RandomEffect
from fuelgap.sure import ErrorCovariance, loglik_fixed
from fuelgap.synthetic import (
    CovariateRecipe,
    EquationTruth,
    SyntheticDataset,
    TermTruth,
    TruthSpec,
    exact_marginal_loglik,
    quadrature_loglik,
    simulate_dataset,
    truth_from_dict,
)


def basic_truth(n=200, seed=7, sigma_b=(0.05, 0.06), rho=0.5, sigma_e=(0.1, 0.1),
                recipe_kind="normal"):
    params = {"normal": (0.0, 1.0), "uniform": (-1.0, 1.0)}[recipe_kind]
    return TruthSpec(
        equations=(
            EquationTruth("vehicle_1", (TermTruth("x1", -0.03, sigma_b[0]),),
                          intercept=0.88),
            EquationTruth("vehicle_2", (TermTruth("x2", 0.02, sigma_b[1]),),
                          intercept=0.92),
        ),
        covariates=(CovariateRecipe("x1", recipe_kind, params),
                    CovariateRecipe("x2", recipe_kind, params)),
        sigma1=sigma_e[0], sigma2=sigma_e[1], rho=rho, n=n, seed=seed,
    )


# uniform, normal and bernoulli covariates, fixed and random terms, one
# equation without an intercept, and equation names of its own
MIXED_TRUTH = {
    "n": 300, "seed": 17,
    "error": {"sigma1": 0.05, "sigma2": 0.05, "rho": -0.3},
    "covariates": [
        {"name": "u", "kind": "uniform", "low": 0.5, "high": 1.5},
        {"name": "z", "kind": "normal", "mean": 0.0, "sd": 1.0},
        {"name": "b", "kind": "bernoulli", "p": 0.4},
    ],
    "equations": [
        {"name": "older", "intercept": 0.9,
         "terms": [{"column": "u", "coef": 0.01, "sigma": 0.02}, {"column": "b", "coef": -0.02}]},
        {"name": "newer",
         "terms": [{"column": "u", "coef": 0.8}, {"column": "b", "coef": 0.05},
                   {"column": "z", "coef": 0.01, "sigma": 0.01}]},
    ],
}


def dataset_hash(ds: SyntheticDataset) -> bytes:
    h = hashlib.sha256()
    for arr in (ds.x1, ds.x2, ds.y1, ds.y2, ds.errors):
        h.update(arr.tobytes())
    return h.digest()


class TestSimulateDataset:
    def test_same_seed_bit_identical(self):
        a = simulate_dataset(basic_truth(seed=42))
        b = simulate_dataset(basic_truth(seed=42))
        assert dataset_hash(a) == dataset_hash(b)

    def test_different_seed_differs(self):
        a = simulate_dataset(basic_truth(seed=1))
        b = simulate_dataset(basic_truth(seed=2))
        assert dataset_hash(a) != dataset_hash(b)

    def test_error_correlation_large_sample(self):
        truth = basic_truth(n=100_000, seed=5, rho=0.5)
        ds = simulate_dataset(truth)
        corr = np.corrcoef(ds.errors[:, 0], ds.errors[:, 1])[0, 1]
        assert corr == pytest.approx(0.5, abs=0.01)

    def test_coefficient_draw_moments(self):
        truth = basic_truth(n=50_000, seed=11)
        ds = simulate_dataset(truth)
        beta = ds.coefficient_draws["vehicle_1:x1"]
        assert beta.mean() == pytest.approx(-0.03, abs=0.002)
        assert beta.std(ddof=1) == pytest.approx(0.05, abs=0.002)

    def test_column_recipes(self):
        truth = TruthSpec(
            equations=(EquationTruth("vehicle_1", (TermTruth("b", 0.1),), intercept=0.8),
                       EquationTruth("vehicle_2", (TermTruth("u", 0.1),), intercept=0.8)),
            covariates=(CovariateRecipe("b", "bernoulli", (0.25,)),
                        CovariateRecipe("u", "uniform", (2.0, 3.0))),
            sigma1=0.1, sigma2=0.1, rho=0.0, n=20_000, seed=3)
        ds = simulate_dataset(truth)
        b = ds.covariate_columns["b"]
        u = ds.covariate_columns["u"]
        assert set(np.unique(b)) <= {0.0, 1.0}
        assert b.mean() == pytest.approx(0.25, abs=0.01)
        assert u.min() >= 2.0 and u.max() <= 3.0
        assert u.mean() == pytest.approx(2.5, abs=0.01)

    def test_validation(self):
        with pytest.raises(SpecError, match="unknown covariate"):
            TruthSpec(
                equations=(EquationTruth("a", (TermTruth("missing", 1.0),)),
                           EquationTruth("b", (), intercept=0.9)),
                covariates=(), sigma1=0.1, sigma2=0.1, rho=0.0, n=5, seed=1)
        with pytest.raises(SpecError, match="rho"):
            basic_truth(rho=1.0)

    def test_recipe_takes_its_kind_parameter_count(self):
        with pytest.raises(SpecError, match=re.escape(
                "covariate 'u': uniform takes 2 parameter(s), got (0.0,)")):
            CovariateRecipe("u", "uniform", (0.0,))


NAN, INF = float("nan"), float("inf")


class TestNonFinite:
    # a NaN fails every comparison, so a "> 0" or "< 0" check alone lets it through
    @pytest.mark.parametrize("build,named", [
        pytest.param(lambda: basic_truth(sigma_e=(NAN, 0.1)), "sigma1", id="sigma1"),
        pytest.param(lambda: basic_truth(sigma_e=(0.1, INF)), "sigma2", id="sigma2"),
        pytest.param(lambda: TermTruth("x1", -0.03, NAN), "'x1': sigma", id="term-sigma"),
        pytest.param(lambda: TermTruth("x1", INF), "'x1': coef", id="term-coef"),
        pytest.param(lambda: EquationTruth("vehicle_1", (), intercept=NAN),
                     "'vehicle_1': intercept", id="intercept"),
        pytest.param(lambda: CovariateRecipe("x1", "normal", (NAN, 1.0)), "'mean'",
                     id="normal-mean"),
        pytest.param(lambda: CovariateRecipe("x1", "uniform", (0.0, INF)), "'high'",
                     id="uniform-high"),
    ])
    def test_truth_value_must_be_finite(self, build, named):
        with pytest.raises(SpecError, match="must be finite") as exc:
            build()
        assert named in str(exc.value)

    def test_nan_response_is_not_written(self, tmp_path):
        ds = simulate_dataset(basic_truth(n=3, seed=1))
        ds.y1[1] = NAN
        with pytest.raises(SpecError, match="positive"):
            ds.write_csv(tmp_path / "bad.csv")
        assert not (tmp_path / "bad.csv").exists()


class TestNoiselessDegenerate:
    def test_sigma_zero_reproduces_linear_predictor(self):
        truth = TruthSpec(
            equations=(EquationTruth("vehicle_1", (TermTruth("x1", -0.03, 0.0),),
                                     intercept=0.88),
                       EquationTruth("vehicle_2", (TermTruth("x2", 0.02, 0.0),),
                                     intercept=0.92)),
            covariates=(CovariateRecipe("x1", "normal", (0.0, 1.0)),
                        CovariateRecipe("x2", "normal", (0.0, 1.0))),
            sigma1=1e-300, sigma2=1e-300, rho=0.0, n=50, seed=9)
        ds = simulate_dataset(truth)
        np.testing.assert_allclose(ds.y1, 0.88 - 0.03 * ds.x1[:, 1], atol=1e-290)
        np.testing.assert_allclose(ds.y2, 0.92 + 0.02 * ds.x2[:, 1], atol=1e-290)


class TestCsvRoundTrip:
    def test_written_file_reproduces_responses_exactly(self, tmp_path):
        ds = simulate_dataset(basic_truth(n=40, seed=21))
        path = tmp_path / "synthetic.csv"
        ds.write_csv(path)
        table = compute_gaps(parse_raw(path))
        np.testing.assert_array_equal(table.gap[:, 0], ds.y1)
        np.testing.assert_array_equal(table.gap[:, 1], ds.y2)
        np.testing.assert_array_equal([float(v) for v in table.covariates["x1"]],
                                      ds.covariate_columns["x1"])

    def test_parsed_file_encodes_to_the_simulated_design(self, tmp_path):
        # the CSV that simulate writes, parsed and encoded against the truth's
        # spec, gives the dataset's design and responses bit for bit
        truth = truth_from_dict(MIXED_TRUTH)
        ds = simulate_dataset(truth)
        path = tmp_path / "synthetic.csv"
        ds.write_csv(path)
        table = compute_gaps(parse_raw(path))
        design = encode_design(table, truth.model_spec())
        for f in dataclasses.fields(design):
            parsed, simulated = getattr(design, f.name), getattr(ds.design, f.name)
            if isinstance(parsed, np.ndarray):
                assert parsed.shape == simulated.shape
                assert parsed.tobytes() == simulated.tobytes(), f.name
            else:
                assert parsed == simulated, f.name
        assert ds.design.random1 == (1,) and ds.design.random2 == (2,)
        assert ds.design.eq_names == ("older", "newer")
        y1, y2 = responses(table)
        assert y1.tobytes() == ds.y1.tobytes() and y2.tobytes() == ds.y2.tobytes()

    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        simulate_dataset(basic_truth(n=25, seed=4)).write_csv(a)
        simulate_dataset(basic_truth(n=25, seed=4)).write_csv(b)
        assert a.read_bytes() == b.read_bytes()

    def test_nonpositive_response_rejected(self, tmp_path):
        truth = TruthSpec(
            equations=(EquationTruth("vehicle_1", (), intercept=-5.0),
                       EquationTruth("vehicle_2", (), intercept=0.9)),
            covariates=(), sigma1=0.01, sigma2=0.01, rho=0.0, n=5, seed=1)
        with pytest.raises(SpecError, match="positive"):
            simulate_dataset(truth).write_csv(tmp_path / "bad.csv")

    def test_coefficient_draw_sidecar(self, tmp_path):
        ds = simulate_dataset(basic_truth(n=10, seed=2))
        path = tmp_path / "draws.csv"
        ds.write_coefficient_draws_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "row,vehicle_1:x1,vehicle_2:x2"


class TestTruthJson:
    def test_friendly_parameter_names(self):
        truth = truth_from_dict({
            "n": 10, "seed": 3,
            "error": {"sigma1": 0.1, "sigma2": 0.2, "rho": 0.4},
            "covariates": [
                {"name": "b", "kind": "bernoulli", "p": 0.3},
                {"name": "u", "kind": "uniform", "low": 0.0, "high": 2.0},
                {"name": "z", "kind": "normal", "mean": 1.0, "sd": 0.5},
            ],
            "equations": [
                {"name": "vehicle_1", "intercept": 0.9,
                 "terms": [{"column": "b", "coef": -0.1, "sigma": 0.02}]},
                {"name": "vehicle_2", "intercept": 0.8,
                 "terms": [{"column": "u", "coef": 0.05}, {"column": "z", "coef": 0.01}]},
            ],
        })
        assert truth.covariates[0].params == (0.3,)
        assert truth.covariates[1].params == (0.0, 2.0)
        assert truth.equations[0].terms[0].sigma == 0.02
        assert truth.equations[1].terms[0].sigma == 0.0

    def test_model_spec_random_flags(self):
        truth = basic_truth()
        spec = truth.model_spec()
        assert spec.equations[0].terms[0].is_random
        assert spec.equations[0].design_names == ("const", "x1")
        assert spec.equations[0].random_design_indices == (1,)

    def test_load_truth_file(self, tmp_path):
        path = tmp_path / "truth.json"
        path.write_text('{"n": 5, "seed": 1, "error": {"sigma1": 0.1, "sigma2": 0.1},'
                        '"covariates": [], "equations":'
                        '[{"intercept": 0.9}, {"intercept": 0.8}]}')
        truth = truth_from_dict(read_json(path, "truth file"))
        assert truth.n == 5 and truth.rho == 0.0

    def test_invalid_truth(self, tmp_path):
        with pytest.raises(SpecError):
            truth_from_dict({"n": 5})

    def test_truth_must_be_an_object(self):
        with pytest.raises(SpecError, match=re.escape("truth must be an object, got []")):
            truth_from_dict([])

    def test_seed_is_a_128_bit_key(self):
        raw = {"n": 5, "seed": 2 ** 128 - 1, "error": {"sigma1": 0.1, "sigma2": 0.1},
               "covariates": [], "equations": [{"intercept": 0.9}, {"intercept": 0.8}]}
        assert simulate_dataset(truth_from_dict(raw)).n == 5
        for seed in (-1, 2 ** 128):
            with pytest.raises(SpecError, match=re.escape("seed must be in [0, 2**128)")):
                truth_from_dict(dict(raw, seed=seed))

    @pytest.mark.parametrize("key,value", [
        ("n", 2.5), ("n", 5.0), ("n", "5"), ("n", True), ("seed", True), ("seed", 1.0),
    ])
    def test_n_and_seed_must_be_integers(self, key, value):
        raw = {"n": 5, "seed": 1, "error": {"sigma1": 0.1, "sigma2": 0.1},
               "covariates": [], "equations": [{"intercept": 0.9}, {"intercept": 0.8}]}
        truth_from_dict(raw)
        with pytest.raises(SpecError, match=f"truth '{key}' must be an integer"):
            truth_from_dict(dict(raw, **{key: value}))


ONE_OBS_COV = ErrorCovariance(1.0, 1.0, 0.0)


class TestExactMarginal:
    def test_no_random_coefficients_equals_fixed_loglik(self):
        ds = simulate_dataset(basic_truth(n=80, seed=14))
        c1, c2 = np.array([0.88, -0.03]), np.array([0.92, 0.02])
        cov = ErrorCovariance(0.01, 0.01, 0.005)
        exact = exact_marginal_loglik(ds.x1, ds.x2, ds.y1, ds.y2, c1, c2, (), [], cov)
        fixed = loglik_fixed(ds.x1, ds.x2, ds.y1, ds.y2, c1, c2, cov)
        assert exact == pytest.approx(fixed, abs=1e-10)

    def test_variance_addition_single_observation(self):
        # one random coefficient on x = 2 with unit spread: marginal variance 1 + 4
        x1 = np.array([[2.0]])
        x2 = np.array([[1.0]])
        effects = (RandomEffect("b", equation=0, column=0),)
        got = exact_marginal_loglik(x1, x2, [0.0], [0.0], [0.0], [0.0],
                                    effects, [1.0], ONE_OBS_COV)
        expect = (-0.5 * math.log(2 * math.pi * 5.0)) + (-0.5 * math.log(2 * math.pi))
        assert got == pytest.approx(expect, abs=1e-12)


    def test_one_sigma_per_random_effect(self):
        effects = (RandomEffect("b", equation=0, column=0),)
        with pytest.raises(ValueError, match="^one sigma per random effect is required$"):
            exact_marginal_loglik([[2.0]], [[1.0]], [0.0], [0.0], [0.0], [0.0],
                                  effects, [1.0, 0.5], ONE_OBS_COV)


class TestQuadrature:
    def setup_method(self):
        self.ds = simulate_dataset(basic_truth(n=60, seed=313, recipe_kind="uniform"))
        self.c1 = np.array([0.88, -0.03])
        self.c2 = np.array([0.92, 0.02])
        self.effects = (RandomEffect("b1", equation=0, column=1),
                        RandomEffect("b2", equation=1, column=1))
        self.sigmas = np.array([0.05, 0.06])
        self.cov = ErrorCovariance(0.01, 0.01, 0.005)
        self.args = (self.ds.x1, self.ds.x2, self.ds.y1, self.ds.y2,
                     self.c1, self.c2, self.effects, self.sigmas, self.cov)

    def test_single_node_is_zero_spread_likelihood(self):
        got = quadrature_loglik(*self.args, nodes=1)
        fixed = exact_marginal_loglik(self.ds.x1, self.ds.x2, self.ds.y1, self.ds.y2,
                                      self.c1, self.c2, self.effects,
                                      [0.0, 0.0], self.cov)
        assert got == pytest.approx(fixed, abs=1e-10)

    def test_no_random_coefficients_equals_fixed_loglik(self):
        got = quadrature_loglik(*self.args[:6], (), [], self.cov, nodes=5)
        fixed = loglik_fixed(*self.args[:6], self.cov)
        assert got == pytest.approx(fixed, abs=1e-10)

    def test_twenty_nodes_agree_with_exact(self):
        exact = exact_marginal_loglik(*self.args)
        assert quadrature_loglik(*self.args, nodes=20) == pytest.approx(exact, abs=1e-8)

    def test_monotone_convergence(self):
        exact = exact_marginal_loglik(*self.args)
        gaps = [abs(quadrature_loglik(*self.args, nodes=k) - exact)
                for k in (2, 5, 10, 20)]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_no_nodes_is_refused(self):
        with pytest.raises(ValueError, match="nodes must be >= 1"):
            quadrature_loglik(*self.args, nodes=0)

    def test_dimension_cap(self):
        effects = tuple(RandomEffect(f"e{i}", equation=0, column=0) for i in range(4))
        with pytest.raises(SpecError, match="at most 3"):
            quadrature_loglik(self.ds.x1, self.ds.x2, self.ds.y1, self.ds.y2,
                              self.c1, self.c2, effects, [0.1] * 4, self.cov, nodes=3)
