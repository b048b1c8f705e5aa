import itertools
import math

import numpy as np
import pytest

from fuelgap import msl
from fuelgap.data import DesignMatrices
from fuelgap.errors import SpecError
from fuelgap.halton import HaltonConfig, build_draw_store
from fuelgap.msl import (
    CoefficientEstimate,
    Convergence,
    LoglikKernel,
    RpParameters,
    RpSureFit,
    effects_from_design,
    rp_retention_test,
    simulated_loglik,
)
from fuelgap.sure import ErrorCovariance, fgls_fit, loglik_fixed
from fuelgap.synthetic import (
    CovariateRecipe,
    EquationTruth,
    TermTruth,
    TruthSpec,
    exact_marginal_loglik,
    simulate_dataset,
)


def fit_rp_sure(*args, **kwargs):
    """msl.fit_rp_sure, checking that "converged" means a score near zero."""
    fit = msl.fit_rp_sure(*args, **kwargs)
    if fit.convergence.converged:
        assert fit.convergence.grad_norm <= msl._GRAD_TOL * fit.n
    return fit


def rp_truth(n=200, seed=313, sigma_b=(0.05, 0.06), sigma_e=(0.1, 0.1), rho=0.5,
             recipe=("uniform", (-1.0, 1.0))):
    kind, params = recipe
    return TruthSpec(
        equations=(EquationTruth("vehicle_1", (TermTruth("x1", -0.03, sigma_b[0]),),
                                 intercept=0.88),
                   EquationTruth("vehicle_2", (TermTruth("x2", 0.02, sigma_b[1]),),
                                 intercept=0.92)),
        covariates=(CovariateRecipe("x1", kind, params),
                    CovariateRecipe("x2", kind, params)),
        sigma1=sigma_e[0], sigma2=sigma_e[1], rho=rho, n=n, seed=seed)


def design_of(ds, random1=(1,), random2=(1,)):
    return DesignMatrices(x1=ds.x1, x2=ds.x2, names1=ds.names1, names2=ds.names2,
                          random1=random1, random2=random2)


def truth_params(truth):
    return RpParameters(
        coef1=[truth.equations[0].intercept, truth.equations[0].terms[0].value],
        coef2=[truth.equations[1].intercept, truth.equations[1].terms[0].value],
        sigmas=[truth.equations[0].terms[0].sigma, truth.equations[1].terms[0].sigma],
        cov=truth.error_covariance)


class TestSimulatedLoglik:
    def test_zero_spread_equals_fixed_loglik_exactly(self):
        truth = rp_truth(n=60)
        ds = simulate_dataset(truth)
        design = design_of(ds)
        draws = build_draw_store(60, HaltonConfig(bases=(2, 3), draws_per_obs=50))
        params = RpParameters(coef1=[0.88, -0.03], coef2=[0.92, 0.02],
                              sigmas=[0.0, 0.0], cov=truth.error_covariance)
        msl = simulated_loglik(params, design, ds.y1, ds.y2, draws)
        fixed = loglik_fixed(ds.x1, ds.x2, ds.y1, ds.y2,
                             np.array([0.88, -0.03]), np.array([0.92, 0.02]),
                             truth.error_covariance)
        assert abs(msl - fixed) <= 1e-12

    def test_single_observation_analytic_marginal(self):
        # random coefficient on x = 2 with unit spread and unit noise:
        # the marginal of y1 is N(0, 5)
        design = DesignMatrices(
            x1=np.array([[2.0]]), x2=np.array([[1.0]]),
            names1=("x",), names2=("w",), random1=(0,), random2=())
        draws = build_draw_store(1, HaltonConfig(bases=(2,), draws_per_obs=400))
        params = RpParameters(coef1=[0.0], coef2=[0.0], sigmas=[1.0],
                              cov=ErrorCovariance(1.0, 1.0, 0.0))
        msl = simulated_loglik(params, design, [0.0], [0.0], draws)
        expect = -0.5 * math.log(2 * math.pi * 5.0) - 0.5 * math.log(2 * math.pi)
        assert msl == pytest.approx(expect, abs=1e-3)

    def test_oracle_gap_shrinks_with_draws(self):
        truth = rp_truth(n=100)
        ds = simulate_dataset(truth)
        design = design_of(ds)
        params = truth_params(truth)
        exact = exact_marginal_loglik(
            ds.x1, ds.x2, ds.y1, ds.y2, params.coef1, params.coef2,
            effects_from_design(design), params.sigmas, params.cov)
        gaps = []
        for r in (100, 400, 1600):
            draws = build_draw_store(100, HaltonConfig(bases=(2, 3), draws_per_obs=r))
            gaps.append(abs(simulated_loglik(params, design, ds.y1, ds.y2, draws) - exact))
        assert gaps[1] / 100 <= 1e-3
        assert gaps[0] > gaps[1] > gaps[2]

    def test_thread_count_does_not_change_bits(self):
        truth = rp_truth(n=111)
        ds = simulate_dataset(truth)
        design = design_of(ds)
        draws = build_draw_store(111, HaltonConfig(bases=(2, 3), draws_per_obs=64))
        params = truth_params(truth)
        values = {simulated_loglik(params, design, ds.y1, ds.y2, draws, threads=t)
                  for t in (1, 2, 4, 8)}
        assert len(values) == 1

    def test_draw_store_shape_validation(self):
        truth = rp_truth(n=20)
        ds = simulate_dataset(truth)
        design = design_of(ds)
        params = truth_params(truth)
        with pytest.raises(SpecError, match="no draw store"):
            simulated_loglik(params, design, ds.y1, ds.y2, None)
        bad_dims = build_draw_store(20, HaltonConfig(bases=(2,), draws_per_obs=8))
        with pytest.raises(SpecError, match="dimensions"):
            simulated_loglik(params, design, ds.y1, ds.y2, bad_dims)
        bad_n = build_draw_store(19, HaltonConfig(bases=(2, 3), draws_per_obs=8))
        with pytest.raises(SpecError, match="observations"):
            simulated_loglik(params, design, ds.y1, ds.y2, bad_n)


def central_difference(fun, t, rel_step):
    g = np.empty_like(t)
    for j in range(t.size):
        h = rel_step * max(1.0, abs(t[j]))
        tp, tm = t.copy(), t.copy()
        tp[j] += h
        tm[j] -= h
        g[j] = (fun(tp) - fun(tm)) / (2.0 * h)
    return g


def value_only_hessian(fun, t, rel_step):
    """Second differences of the value alone: 1 + 2p + 2p(p - 1) calls."""
    p = t.size
    h = rel_step * np.maximum(1.0, np.abs(t))
    hess = np.empty((p, p))
    f0 = fun(t)

    def at(steps):
        return fun(t + steps * h)

    for i in range(p):
        e = np.zeros(p)
        e[i] = 1.0
        hess[i, i] = (at(e) - 2.0 * f0 + at(-e)) / h[i] ** 2
        for j in range(i + 1, p):
            f = np.zeros(p)
            f[j] = 1.0
            hess[i, j] = hess[j, i] = (at(e + f) - at(e - f) - at(f - e) + at(-e - f)) \
                / (4.0 * h[i] * h[j])
    return hess


# random coefficients in equation 1 only and in equation 2 only: the other
# equation's residual is (rows, 1) in the kernel and broadcast over the draws
ONE_EQUATION_LAYOUTS = [pytest.param((1,), (), id="eq1-only"),
                        pytest.param((), (1,), id="eq2-only")]


def layout_params(truth, random1, random2):
    """truth_params with spreads only for the equations that have them."""
    params = truth_params(truth)
    sigmas = [s for s, cols in zip(params.sigmas, (random1, random2)) if cols]
    return RpParameters(coef1=params.coef1, coef2=params.coef2, sigmas=sigmas,
                        cov=params.cov)


def layout_kernel(n, draws_per_obs, random1, random2, threads=1):
    truth = rp_truth(n=n)
    ds = simulate_dataset(truth)
    effects = effects_from_design(design_of(ds, random1, random2))
    draws = build_draw_store(n, HaltonConfig(bases=(2, 3)[:len(effects)],
                                             draws_per_obs=draws_per_obs))
    kernel = LoglikKernel(ds.x1, ds.x2, ds.y1, ds.y2, effects, draws, threads=threads)
    return kernel, layout_params(truth, random1, random2)


def check_score_matches_central_difference(random1, random2):
    # the analytic score against central differences of the value,
    # at five points away from the optimum
    kernel, params = layout_kernel(60, 50, random1, random2)
    from fuelgap.msl import _Transform
    transform = _Transform(2, 2, len(kernel.effects))

    def loglik(t):
        return kernel.loglik(transform.unpack(t))

    rng = np.random.default_rng(0)
    base = transform.pack(params)
    for _ in range(5):
        t = base + 0.2 * rng.uniform(-1, 1, base.size)
        value, score = kernel.loglik_and_score(transform.unpack(t))
        assert value == loglik(t)
        numeric = central_difference(loglik, t, 1e-5)
        scale = np.maximum(np.abs(score), np.abs(numeric))
        assert np.max(np.abs(score - numeric) / np.maximum(scale, 1.0)) <= 1e-6


def check_score_bits_do_not_depend_on_threads(random1, random2, thread_counts):
    # 2000 draws split the 111 observations into several kernel blocks
    results = []
    for threads in thread_counts:
        kernel, params = layout_kernel(111, 2000, random1, random2, threads)
        assert len(kernel.blocks) > 1
        value, score = kernel.loglik_and_score(params)
        results.append((value, score.tobytes()))
    assert len(set(results)) == 1


class TestGradientConsistency:
    def test_score_matches_central_difference(self):
        check_score_matches_central_difference((1,), (1,))

    def test_score_bits_do_not_depend_on_threads(self):
        check_score_bits_do_not_depend_on_threads((1,), (1,), (1, 2, 4, 8))

    @pytest.mark.parametrize("random1,random2", ONE_EQUATION_LAYOUTS)
    def test_one_equation_score_matches_central_difference(self, random1, random2):
        check_score_matches_central_difference(random1, random2)

    @pytest.mark.parametrize("random1,random2", ONE_EQUATION_LAYOUTS)
    def test_one_equation_score_bits_do_not_depend_on_threads(self, random1, random2):
        check_score_bits_do_not_depend_on_threads(random1, random2, (1, 2))

    @pytest.mark.parametrize("random1,random2",
                             [pytest.param((1,), (1,), id="both")] + ONE_EQUATION_LAYOUTS)
    @pytest.mark.parametrize("threads", [1, 2])
    def test_value_pass_equals_score_pass_value(self, random1, random2, threads):
        # a line search that takes its values from the score pass must
        # accept exactly the steps the value pass accepts
        kernel, params = layout_kernel(111, 2000, random1, random2, threads)
        assert len(kernel.blocks) > 1
        assert kernel.loglik(params) == kernel.loglik_and_score(params)[0]


@pytest.fixture(scope="module")
def recovery_small():
    truth = rp_truth(n=800, seed=51, sigma_b=(0.08, 0.1),
                     recipe=("normal", (0.0, 1.0)))
    ds = simulate_dataset(truth)
    design = design_of(ds)
    draws = build_draw_store(800, HaltonConfig(bases=(2, 3), draws_per_obs=100))
    return fit_rp_sure(design, ds.y1, ds.y2, draws=draws), design, ds, draws


class TestFitRpSure:
    def test_zero_random_matches_fgls(self):
        # shared regressors make two-step FGLS the exact joint optimum
        truth = TruthSpec(
            equations=(EquationTruth("vehicle_1", (TermTruth("x", -0.03),), intercept=0.88),
                       EquationTruth("vehicle_2", (TermTruth("x", 0.02),), intercept=0.92)),
            covariates=(CovariateRecipe("x", "normal", (0.0, 1.0)),),
            sigma1=0.1, sigma2=0.12, rho=0.5, n=300, seed=99)
        ds = simulate_dataset(truth)
        design = design_of(ds, random1=(), random2=())
        fit = fit_rp_sure(design, ds.y1, ds.y2, draws=None)
        ref = fgls_fit(ds.x1, ds.x2, ds.y1, ds.y2)
        got = np.array([c.estimate for c in fit.coefficients])
        expect = np.concatenate([ref.equations[0].coef, ref.equations[1].coef])
        assert np.max(np.abs(got - expect)) <= 1e-4
        exact_at_optimum = loglik_fixed(ds.x1, ds.x2, ds.y1, ds.y2,
                                        ref.equations[0].coef, ref.equations[1].coef,
                                        ref.sigma)
        assert abs(fit.loglik - exact_at_optimum) <= 1e-6
        assert fit.convergence.converged
        assert fit.k == 2 + 2 + 3

    def test_no_gradient_tolerance_ends_stalled_without_null_steps(self, monkeypatch):
        # with a zero tolerance only the line search can end the fit; it must
        # stop when f stops improving, not walk on with steps that change nothing
        truth = rp_truth(n=150, seed=8)
        ds = simulate_dataset(truth)
        design = design_of(ds)
        draws = build_draw_store(150, HaltonConfig(bases=(2, 3), draws_per_obs=50))
        monkeypatch.setattr(msl, "_GRAD_TOL", 0.0)
        fit = fit_rp_sure(design, ds.y1, ds.y2, draws=draws)
        assert fit.convergence.status == "stalled"
        assert fit.convergence.iterations < 100
        path = fit.convergence.loglik_path
        assert len(path) == fit.convergence.iterations + 1
        assert all(b > a for a, b in zip(path, path[1:]))

    def test_monotone_loglik_path_and_determinism(self):
        truth = rp_truth(n=150, seed=8)
        ds = simulate_dataset(truth)
        design = design_of(ds)
        draws = build_draw_store(150, HaltonConfig(bases=(2, 3), draws_per_obs=50))
        fit_a = fit_rp_sure(design, ds.y1, ds.y2, draws=draws, threads=1)
        fit_b = fit_rp_sure(design, ds.y1, ds.y2, draws=draws, threads=4)
        path = fit_a.convergence.loglik_path
        assert all(b >= a for a, b in zip(path, path[1:]))
        assert fit_a.convergence.loglik_path == fit_b.convergence.loglik_path
        assert fit_a.loglik == fit_b.loglik
        got_a = [c.estimate for c in fit_a.coefficients]
        got_b = [c.estimate for c in fit_b.coefficients]
        assert got_a == got_b

    def test_recovery_small(self, recovery_small):
        fit = recovery_small[0]
        assert fit.convergence.converged
        assert fit.param_cov is not None
        by_name = {f"{c.equation}:{c.name}": c for c in fit.coefficients}
        checks = [
            (by_name["vehicle_1:const"].estimate, by_name["vehicle_1:const"].se, 0.88),
            (by_name["vehicle_1:x1"].estimate, by_name["vehicle_1:x1"].se, -0.03),
            (by_name["vehicle_1:x1"].sigma, by_name["vehicle_1:x1"].sigma_se, 0.08),
            (by_name["vehicle_2:x2"].sigma, by_name["vehicle_2:x2"].sigma_se, 0.1),
            (math.sqrt(fit.sigma.sigma11), fit.sigma1_se, 0.1),
            (fit.sigma.rho, fit.rho_se, 0.5),
        ]
        for est, se, tv in checks:
            assert se is not None and se > 0
            assert abs(est - tv) <= 4 * se

    def test_ses_match_value_only_hessian(self, recovery_small):
        # SEs from the differenced score against SEs from second differences
        # of the value alone, at the same optimum and step
        from fuelgap.msl import _natural_covariance, _Transform
        fit, design, ds, draws = recovery_small
        kernel = LoglikKernel(ds.x1, ds.x2, ds.y1, ds.y2, effects_from_design(design), draws)
        transform = _Transform(2, 2, 2)
        coefs = [c.estimate for c in fit.coefficients]
        t_hat = transform.pack(RpParameters(
            coef1=coefs[:2], coef2=coefs[2:],
            sigmas=[c.sigma for c in fit.random_coefficients], cov=fit.sigma))
        hess = value_only_hessian(lambda t: -kernel.loglik(transform.unpack(t)),
                                  t_hat, msl._HESSIAN_STEP)
        _, reference = _natural_covariance(hess, transform.jacobian(t_hat))
        got = np.sqrt(np.diag(fit.param_cov))
        np.testing.assert_allclose(got, reference, rtol=1e-3)

    def test_boundary_sigma_zero_truth(self):
        # data generated with no heterogeneity: the fitted spread collapses
        truth = rp_truth(n=1500, seed=61, sigma_b=(0.0, 0.0), sigma_e=(0.05, 0.05),
                         recipe=("normal", (0.0, 1.0)))
        ds = simulate_dataset(truth)
        design = design_of(ds)
        draws = build_draw_store(1500, HaltonConfig(bases=(2, 3), draws_per_obs=100))
        fit = fit_rp_sure(design, ds.y1, ds.y2, draws=draws)
        for c in fit.random_coefficients:
            assert c.sigma <= 0.01
            # a spread at the boundary still gets an SE, so the paper's
            # fixed-versus-random decision can be made
            assert c.sigma_se is not None and c.sigma_se > 0
            assert rp_retention_test(fit, c.name).verdict != "indeterminate"
        ref = fgls_fit(ds.x1, ds.x2, ds.y1, ds.y2)
        assert abs(fit.loglik - ref.loglik) <= 1.0

    @pytest.mark.parametrize("seed", [62, 64])
    def test_negative_spread_reported_as_magnitude(self, seed):
        # on zero-spread data these fits end with the x1 spread negative
        truth = rp_truth(n=1500, seed=seed, sigma_b=(0.0, 0.0), sigma_e=(0.05, 0.05),
                         recipe=("normal", (0.0, 1.0)))
        ds = simulate_dataset(truth)
        design = design_of(ds)
        draws = build_draw_store(1500, HaltonConfig(bases=(2, 3), draws_per_obs=100))
        fit = fit_rp_sure(design, ds.y1, ds.y2, draws=draws)
        coefs = [c.estimate for c in fit.coefficients]
        reported = np.array([c.sigma for c in fit.random_coefficients])
        assert (reported >= 0).all()

        def loglik_at(sigmas):
            params = RpParameters(coef1=coefs[:2], coef2=coefs[2:], sigmas=sigmas,
                                  cov=fit.sigma)
            return simulated_loglik(params, design, ds.y1, ds.y2, draws)

        # fit.loglik is the value at the signed optimum, and that optimum has
        # a negative spread
        signs = [s for s in itertools.product((1.0, -1.0), repeat=2)
                 if loglik_at(reported * np.array(s)) == fit.loglik]
        assert signs and all(min(s) < 0 for s in signs)
        # the draws' asymmetry moves the value at |sigma| by far less than
        # the simulation error criterion 4 accepts
        assert abs(fit.loglik - loglik_at(reported)) <= 0.1

    def test_not_converged_status_is_reported(self):
        truth = rp_truth(n=120, seed=5)
        ds = simulate_dataset(truth)
        design = design_of(ds)
        draws = build_draw_store(120, HaltonConfig(bases=(2, 3), draws_per_obs=50))
        fit = fit_rp_sure(design, ds.y1, ds.y2, draws=draws, max_iterations=2)
        assert fit.convergence.status == "not converged"
        assert fit.loglik == fit.convergence.loglik_path[-1]

    def test_rho_and_sigma_respect_type_invariants(self):
        truth = rp_truth(n=200, seed=17, rho=-0.8)
        ds = simulate_dataset(truth)
        design = design_of(ds)
        draws = build_draw_store(200, HaltonConfig(bases=(2, 3), draws_per_obs=50))
        fit = fit_rp_sure(design, ds.y1, ds.y2, draws=draws)
        assert -1.0 < fit.sigma.rho < 1.0
        assert fit.sigma.sigma11 > 0 and fit.sigma.sigma22 > 0
        for c in fit.random_coefficients:
            assert c.sigma > 0


def toy_fit(sigma, sigma_se, mu=0.1, mu_se=0.05):
    coef = CoefficientEstimate(name="x", equation="vehicle_1", kind="random-normal",
                               estimate=mu, se=mu_se, sigma=sigma, sigma_se=sigma_se)
    return RpSureFit(
        n=10, k=4, loglik=0.0,
        coefficients=(coef,
                      CoefficientEstimate(name="const", equation="vehicle_1",
                                          kind="fixed", estimate=0.9, se=0.1)),
        sigma=ErrorCovariance(1.0, 1.0, 0.0),
        sigma1_se=None, sigma2_se=None, rho_se=None,
        param_names=(), param_cov=None,
        convergence=Convergence(status="converged", iterations=1, grad_norm=0.0))


class TestRetention:
    def test_significant_spread_retained(self):
        # spread 0.0435 with t = 5.16
        fit = toy_fit(sigma=0.0435, sigma_se=0.0435 / 5.16)
        verdict = rp_retention_test(fit, "x")
        assert verdict.verdict == "retain-random"
        assert verdict.sigma_t == pytest.approx(5.16)

    def test_insignificant_spread_prefers_fixed(self):
        fit = toy_fit(sigma=0.01, sigma_se=0.02)
        assert rp_retention_test(fit, "x").verdict == "prefer-fixed"

    def test_boundary_inclusive(self):
        fit = toy_fit(sigma=1.96, sigma_se=1.0)
        assert rp_retention_test(fit, "x").verdict == "retain-random"

    def test_missing_se_indeterminate(self):
        fit = toy_fit(sigma=0.05, sigma_se=None)
        assert rp_retention_test(fit, "x").verdict == "indeterminate"

    def test_fixed_coefficient_rejected(self):
        fit = toy_fit(sigma=0.05, sigma_se=0.01)
        with pytest.raises(SpecError, match="not random"):
            rp_retention_test(fit, "const")

    def test_retention_reports_both_t_ratios(self):
        fit = toy_fit(sigma=0.06, sigma_se=0.01, mu=0.2, mu_se=0.08)
        verdict = rp_retention_test(fit, "x")
        assert verdict.mean_t == pytest.approx(2.5)
        assert verdict.sigma_t == pytest.approx(6.0)


class TestEffectsFromDesign:
    def test_equation_one_dims_come_first(self):
        design = DesignMatrices(
            x1=np.ones((3, 2)), x2=np.ones((3, 3)),
            names1=("const", "a"), names2=("const", "b", "c"),
            random1=(1,), random2=(0, 2))
        effects = effects_from_design(design)
        assert [e.name for e in effects] == ["a", "const", "c"]
        assert [(e.equation, e.column) for e in effects] == [(0, 1), (1, 0), (1, 2)]


class TestNaturalCovariance:
    def test_singular_hessian_flags_ses_unavailable(self):
        from fuelgap.msl import _natural_covariance

        singular = np.zeros((3, 3))
        cov, ses = _natural_covariance(singular, np.eye(3))
        assert cov is None and ses is None

    def test_negative_curvature_flags_ses_unavailable(self):
        from fuelgap.msl import _natural_covariance

        hess = np.diag([1.0, -2.0, 3.0])
        cov, ses = _natural_covariance(hess, np.eye(3))
        assert cov is None and ses is None

    def test_indefinite_hessian_flags_ses_unavailable(self):
        # eigenvalues -1, 0.33 and 1: every diagonal entry of the inverse is
        # positive, so only a positive-definiteness check rejects it
        from fuelgap.msl import _natural_covariance

        hess = np.array([[0.3565, -0.5837, -0.491],
                         [-0.5837, -0.6095, -0.2313],
                         [-0.491, -0.2313, 0.5829]])
        assert (np.diag(np.linalg.inv(hess)) > 0).all()
        cov, ses = _natural_covariance(hess, np.eye(3))
        assert cov is None and ses is None

    def test_well_posed_case(self):
        from fuelgap.msl import _natural_covariance

        hess = np.diag([4.0, 25.0])
        jac = np.diag([1.0, 2.0])
        cov, ses = _natural_covariance(hess, jac)
        np.testing.assert_allclose(ses, [0.5, 0.4])
        np.testing.assert_allclose(cov, np.diag([0.25, 0.16]))
