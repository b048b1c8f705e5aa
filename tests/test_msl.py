import collections
import dataclasses
import itertools
import math
import sys
import threading
import warnings

import numpy as np
import pytest

from fuelgap import msl
from fuelgap.data import DesignMatrices
from fuelgap.errors import DegenerateDataError, EstimationError, SpecError
from fuelgap.halton import HaltonConfig, build_draw_store
from fuelgap.msl import (
    Convergence,
    LoglikKernel,
    RpParameters,
    effects_from_design,
    rp_retention_test,
    simulated_loglik,
)
from fuelgap.criteria import CriteriaInput, score_criteria
from fuelgap.sure import (CoefficientEstimate, ErrorCovariance, SureFit, fgls_fit,
                          loglik_fixed, ols_system_fit, residual_covariance)
from fuelgap.synthetic import (
    CovariateRecipe,
    EquationTruth,
    TermTruth,
    TruthSpec,
    exact_marginal_loglik,
    simulate_dataset,
    truth_from_dict,
)
from test_sure import equation_values

# the truth of acceptance criterion 5, without its seed
CRITERION_5_TRUTH = {
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


def fit_rp_sure(*args, **kwargs):
    """msl.fit_rp_sure, checking that "converged" means a maximum: a Newton
    decrement within the stop rule's tolerance and a positive-definite -H,
    so SEs, and that every fit made one Hessian pass per step and one at
    its last point."""
    fit = msl.fit_rp_sure(*args, **kwargs)
    convergence = fit.convergence
    if convergence.converged:
        assert 0 <= convergence.decrement <= msl._NEWTON_TOL
        assert fit.param_cov is not None
    assert convergence.hessian_passes == convergence.iterations + 1
    assert len(convergence.loglik_path) == convergence.iterations + 1
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
    """The dataset's design with the random columns random1 and random2."""
    return dataclasses.replace(ds.design, random1=random1, random2=random2)


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

    def test_value_beyond_double_range_names_its_cause(self):
        # the mixture is summed in log space, a sum of at least 1, so the
        # value is not finite only when a draw's ln phi is: here the
        # residuals of an intercept of 1e160 overflow when squared.  Pool
        # threads do not inherit the caller's np.errstate, so each block
        # silences numpy's warnings itself; N R = 120k makes two blocks
        truth = rp_truth(n=300)
        ds = simulate_dataset(truth)
        draws = build_draw_store(300, HaltonConfig(bases=(2, 3), draws_per_obs=400))
        design = design_of(ds)
        params = truth_params(truth)
        far = RpParameters(coef1=[1e160, params.coef1[1]], coef2=params.coef2,
                           sigmas=params.sigmas, cov=params.cov)
        for threads in (1, 2):
            kernel = LoglikKernel(design, ds.y1, ds.y2, draws, threads=threads)
            assert len(kernel.blocks) == 2
            for run in (lambda: kernel.loglik(far), lambda: kernel.hessian(far)):
                with warnings.catch_warnings(), \
                        pytest.raises(EstimationError,
                                      match="simulated log-likelihood is not finite: the "
                                            "whitened residuals or the covariance factor "
                                            "l11 l22 left double-precision range"):
                    warnings.simplefilter("error")
                    run()

    @pytest.fixture(scope="class")
    def eight_blocks(self):
        # N R = 800k makes eight kernel blocks
        truth = rp_truth(n=800)
        ds = simulate_dataset(truth)
        draws = build_draw_store(800, HaltonConfig(bases=(2, 3), draws_per_obs=1000))
        return design_of(ds), ds.y1, ds.y2, draws, truth_params(truth)

    def test_thread_count_does_not_change_bits(self, eight_blocks):
        # every thread count above 1 runs the pool: 3 splits the eight blocks
        # into runs of 3, 3 and 2, and 16 asks for more threads than there
        # are blocks; many workers on fewer cores, switching threads every
        # microsecond, interleave the runs as finely as they can
        *data, params = eight_blocks

        def passes(threads):
            kernel = LoglikKernel(*data, threads=threads)
            assert len(kernel.blocks) == 8
            value, score = kernel.loglik(params)
            return [np.float64(value).tobytes(), score.tobytes(),
                    kernel.hessian(params).tobytes()]

        serial = passes(1)
        assert passes(2) == serial
        assert [len(run) for run in LoglikKernel(*data, threads=3)._runs] == [3, 3, 2]
        assert passes(3) == serial
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert passes(8) == serial
            assert passes(16) == serial
        finally:
            sys.setswitchinterval(interval)

    def test_one_thread_starts_no_thread(self, eight_blocks):
        *data, params = eight_blocks
        before = set(threading.enumerate())
        kernel = LoglikKernel(*data, threads=1)
        kernel.loglik(params)
        kernel.hessian(params)
        assert kernel._pool is None
        assert set(threading.enumerate()) <= before

    def test_pool_threads_never_outnumber_the_other_blocks(self, eight_blocks):
        # the calling thread runs the first of at most eight runs
        *data, params = eight_blocks
        before = set(threading.enumerate())
        kernel = LoglikKernel(*data, threads=16)
        kernel.hessian(params)
        assert 1 <= len(set(threading.enumerate()) - before) <= len(kernel.blocks) - 1

    def test_thread_count_below_one_is_refused(self, eight_blocks):
        *data, _ = eight_blocks
        with pytest.raises(ValueError, match="threads must be >= 1"):
            LoglikKernel(*data, threads=0)

    @pytest.mark.parametrize("spread", [np.nan, np.inf, -np.inf])
    def test_non_finite_spread_is_refused(self, spread):
        with pytest.raises(ValueError, match="random-coefficient spreads must be finite"):
            RpParameters(coef1=[0.88, -0.03], coef2=[0.92, 0.02], sigmas=[0.05, spread],
                         cov=ErrorCovariance(0.01, 0.01, 0.005))

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
        # draws that would shape nothing are refused, not ignored
        fixed = design_of(ds, (), ())
        unused = build_draw_store(20, HaltonConfig(bases=(2,), draws_per_obs=8))
        with pytest.raises(SpecError, match="no random coefficients"):
            simulated_loglik(dataclasses.replace(params, sigmas=[]), fixed, ds.y1, ds.y2,
                             unused)
        with pytest.raises(SpecError, match="no random coefficients"):
            fit_rp_sure(fixed, ds.y1, ds.y2, draws=unused)


def central_difference(fun, t, rel_step):
    """Column j is the central difference of fun (a value or a vector) in t[j]."""
    columns = []
    for j in range(t.size):
        h = rel_step * max(1.0, abs(t[j]))
        tp, tm = t.copy(), t.copy()
        tp[j] += h
        tm[j] -= h
        columns.append((fun(tp) - fun(tm)) / (2.0 * h))
    return np.array(columns).T


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


def layout_inputs(n, draws_per_obs, random1, random2):
    """((design, y1, y2, draw store), parameter point) of one layout."""
    truth = rp_truth(n=n)
    ds = simulate_dataset(truth)
    design = design_of(ds, random1, random2)
    effects = effects_from_design(design)
    draws = None if not effects else build_draw_store(
        n, HaltonConfig(bases=(2, 3)[:len(effects)], draws_per_obs=draws_per_obs))
    return (design, ds.y1, ds.y2, draws), layout_params(truth, random1, random2)


def layout_kernel(n, draws_per_obs, random1, random2, threads=1):
    data, params = layout_inputs(n, draws_per_obs, random1, random2)
    return LoglikKernel(*data, threads=threads), params


def check_score_matches_central_difference(random1, random2):
    # the analytic score against central differences of the value,
    # at five points away from the optimum
    kernel, params = layout_kernel(60, 50, random1, random2)
    from fuelgap.msl import _Transform
    transform = _Transform(2, 2, len(kernel.effects))

    def loglik(t):
        return kernel.loglik(transform.unpack(t))[0]

    rng = np.random.default_rng(0)
    base = transform.pack(params)
    for _ in range(5):
        t = base + 0.2 * rng.uniform(-1, 1, base.size)
        score = kernel.loglik(transform.unpack(t))[1]
        numeric = central_difference(loglik, t, 1e-5)
        scale = np.maximum(np.abs(score), np.abs(numeric))
        assert np.max(np.abs(score - numeric) / np.maximum(scale, 1.0)) <= 1e-6


def check_score_bits_do_not_depend_on_threads(random1, random2, thread_counts):
    # 2000 draws split the 111 observations into several kernel blocks
    results = []
    for threads in thread_counts:
        kernel, params = layout_kernel(111, 2000, random1, random2, threads)
        assert len(kernel.blocks) > 1
        value, score = kernel.loglik(params)
        results.append((value, score.tobytes()))
    assert len(set(results)) == 1


# random coefficients in both equations, in one of them, or in none
# (no draw store: the exact fixed-parameter likelihood)
ALL_LAYOUTS = ([pytest.param((1,), (1,), id="both")] + ONE_EQUATION_LAYOUTS
               + [pytest.param((), (), id="none")])


class TestHessian:
    @pytest.mark.parametrize("random1,random2", ALL_LAYOUTS)
    def test_matches_central_difference_of_score(self, random1, random2):
        kernel, params = layout_kernel(60, 50, random1, random2)
        from fuelgap.msl import _Transform
        transform = _Transform(2, 2, len(kernel.effects))
        rng = np.random.default_rng(0)
        base = transform.pack(params)
        points = [base + 0.2 * rng.uniform(-1, 1, base.size) for _ in range(3)]
        if kernel.effects:
            # a negative signed spread, and a spread of exactly 0
            points[1][4] = -abs(points[1][4])
            points[2][4] = 0.0
        for t in points:
            hess = kernel.hessian(transform.unpack(t))
            assert (hess == hess.T).all()
            # the Hessian oracle: central differences of the analytic score
            numeric = central_difference(
                lambda u: kernel.loglik(transform.unpack(u))[1], t, 1e-5)
            scale = np.maximum(np.maximum(np.abs(hess), np.abs(numeric)), 1.0)
            assert np.max(np.abs(hess - numeric) / scale) <= 1e-5

    @pytest.mark.parametrize("random1,random2",
                             [pytest.param((1,), (1,), id="both")] + ONE_EQUATION_LAYOUTS)
    def test_bits_do_not_depend_on_threads(self, random1, random2):
        # 2000 draws split the 111 observations into several kernel blocks;
        # a short switch interval interleaves the workers' per-thread buffers
        results = set()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for threads in (1, 2, 4):
                kernel, params = layout_kernel(111, 2000, random1, random2, threads)
                assert len(kernel.blocks) > 1
                hess = kernel.hessian(params)
                assert (hess == hess.T).all()
                results.add(hess.tobytes())
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == 1

    def test_fit_makes_one_hessian_pass_per_step_and_one_score_pass_per_trial(
            self, monkeypatch):
        # every point the fit evaluates gets its value and score from one
        # pass: as many passes as the value-then-score Newton asks for values
        # (the start and each line-search trial), plus one Hessian pass per
        # accepted point, the last one's giving the SEs
        ds = simulate_dataset(rp_truth(n=150, seed=8))
        design, draws = design_of(ds), build_draw_store(
            150, HaltonConfig(bases=(2, 3), draws_per_obs=50))
        passes = count_passes(monkeypatch)
        fit = fit_rp_sure(design, ds.y1, ds.y2, draws=draws)
        assert fit.convergence.converged and fit.param_cov is not None
        fused = dict(passes)
        kernel = LoglikKernel(design, ds.y1, ds.y2, draws)
        reference = value_then_score_newton(kernel, newton_start(design, ds))
        assert reference["iterations"] == fit.convergence.iterations >= 1
        trials = reference["calls"]["value"] - 1
        assert reference["calls"]["score"] == fit.convergence.iterations + 1 <= trials + 1
        assert reference["calls"]["hessian"] == fit.convergence.iterations + 1
        assert fused == {"score": trials + 1, "hessian": fit.convergence.iterations + 1}
        assert (fit.convergence.score_passes, fit.convergence.hessian_passes) == \
            (fused["score"], fused["hessian"])


def newton_start(design, ds):
    """The transform-space point where fit_rp_sure's Newton stage starts."""
    from fuelgap.msl import _Transform
    return _Transform(design.x1.shape[1], design.x2.shape[1],
                      len(effects_from_design(design))).pack(exact_start(design, ds)[0])


def value_then_score_newton(kernel, t0, max_iterations=500):
    """fit_rp_sure's Newton stage from t0 as it would run without the fused
    pass: trial values from the value alone, the score and the Hessian only
    at each accepted point.  "calls" counts the points at which it asks for
    the value, the score and the Hessian."""
    from fuelgap.msl import _Transform
    transform = _Transform(kernel.x[0].shape[1], kernel.x[1].shape[1], len(kernel.effects))
    calls = collections.Counter()
    size = transform.size

    def guarded(kind, evaluate, fallback):
        def at(t):
            calls[kind] += 1
            try:
                return evaluate(transform.unpack(t))
            except (EstimationError, DegenerateDataError):
                return fallback
        return at

    value = guarded("value", lambda p: kernel.loglik(p)[0], -np.inf)
    score = guarded("score", lambda p: kernel.loglik(p)[1], np.full(size, np.nan))
    neg_hessian = guarded("hessian", lambda p: -kernel.hessian(p), np.full((size, size), np.nan))
    t, f, g = t0, value(t0), score(t0)
    iterates, path = [t], [f]
    while True:
        neg_h = neg_hessian(t)
        if not np.isfinite(neg_h).all():
            status = "stalled"
            break
        direction, decrement, indefinite = msl._newton_direction(neg_h, g)
        if not indefinite and decrement <= msl._NEWTON_TOL:
            status = "converged"
            break
        if len(path) > max_iterations:
            status = "not converged"
            break
        slope, step = float(g @ direction), 1.0
        for _ in range(40 if slope > 0 else 0):
            f_new = value(t + step * direction)
            if f_new > f and f_new >= f + 1e-4 * step * slope:
                break
            step *= 0.5
        else:
            status = "stalled"
            break
        t = t + step * direction
        f, g = f_new, score(t)
        iterates.append(t)
        path.append(f)
    grad_norm = float(np.max(np.abs(np.linalg.solve(transform.jacobian(t).T, g))))
    return {"iterates": iterates, "loglik_path": tuple(path), "grad_norm": grad_norm,
            "status": status, "iterations": len(path) - 1, "calls": calls}


def record_iterates(monkeypatch):
    """Make every fit's line search keep the points it accepts; the list."""
    iterates = []
    line_search = msl._line_search

    def recorded(*args):
        accepted = line_search(*args)
        if accepted is not None:
            iterates.append(accepted[0])
        return accepted

    monkeypatch.setattr(msl, "_line_search", recorded)
    return iterates


def count_passes(monkeypatch):
    """Count the kernel's passes by kind: "score" or "hessian"."""
    passes = collections.Counter()
    original = LoglikKernel._evaluate

    def counted(self, params, with_hessian=False):
        passes["hessian" if with_hessian else "score"] += 1
        return original(self, params, with_hessian)

    monkeypatch.setattr(LoglikKernel, "_evaluate", counted)
    return passes


class TestFusedLineSearch:
    @pytest.mark.parametrize("random1,random2",
                             [pytest.param((1,), (1,), id="both")] + ONE_EQUATION_LAYOUTS)
    @pytest.mark.parametrize("threads", [1, 2])
    def test_same_bits_as_value_then_score(self, random1, random2, threads, monkeypatch):
        # 800 draws split the 250 observations into two kernel blocks
        ds = simulate_dataset(rp_truth(n=250, seed=8))
        design = design_of(ds, random1, random2)
        d = len(effects_from_design(design))
        draws = build_draw_store(250, HaltonConfig(bases=(2, 3)[:d], draws_per_obs=800))
        iterates = record_iterates(monkeypatch)
        fit = fit_rp_sure(design, ds.y1, ds.y2, draws=draws, threads=threads)
        kernel = LoglikKernel(design, ds.y1, ds.y2, draws, threads=threads)
        assert len(kernel.blocks) > 1
        reference = value_then_score_newton(kernel, newton_start(design, ds))
        assert fit.convergence.converged and fit.convergence.iterations >= 1
        assert [x.tobytes() for x in iterates] == \
            [x.tobytes() for x in reference["iterates"][1:]]
        assert fit.convergence.loglik_path == reference["loglik_path"]
        assert fit.convergence.grad_norm == reference["grad_norm"]
        assert fit.convergence.status == reference["status"]
        assert fit.loglik == reference["loglik_path"][-1]

    @pytest.mark.parametrize("uphill", [[1.0, 2.0], [0.0, 1.0]], ids=["ascent", "level"])
    def test_no_trial_along_a_direction_that_does_not_descend(self, uphill):
        # the objective -f = |x|^2 / 2 at x = (1, 0): the score is (-1, 0),
        # so the slope of f along `uphill` is -1 or 0, and no step along it
        # can lower the objective
        calls = []

        def evaluate(x):
            calls.append(x.copy())
            return -0.5 * float(x @ x), -x

        x = np.array([1.0, 0.0])
        f, g = evaluate(x)
        assert msl._line_search(evaluate, x, f, g, np.array(uphill)) is None
        assert len(calls) == 1

    def test_newton_direction_ascends_where_the_hessian_is_indefinite(self):
        # where -H is positive definite the direction is the Newton step and
        # the decrement g'(-H)^-1 g; where it is not, V |Lambda|^-1 V' g
        # still ascends, and the step is flagged as modified; a flat
        # direction gives a long but finite step
        rng = np.random.default_rng(3)
        vec = np.linalg.qr(rng.normal(size=(5, 5)))[0]
        g = rng.normal(size=5)
        for lam in ([0.5, 1.0, 2.0, 4.0, 9.0], [-3.0, -0.2, 1.0, 2.0, 5.0],
                    [0.0, 1.0, 2.0, 3.0, 4.0]):
            neg_h = vec @ np.diag(lam) @ vec.T
            direction, decrement, modified = msl._newton_direction(neg_h, g)
            assert modified == (min(lam) <= 0)
            assert np.isfinite(direction).all()
            assert decrement == float(g @ direction) > 0
            if min(lam) > 0:
                np.testing.assert_allclose(direction, np.linalg.solve(neg_h, g), rtol=1e-12)
            elif min(lam) < 0:
                np.testing.assert_allclose(direction, vec @ ((vec.T @ g) / np.abs(lam)),
                                           rtol=1e-12)


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
        # simulated_loglik, the value route that callers outside the fit
        # take, builds a one-thread kernel; its value must be the bits of
        # the fused pass that the fit's line search compares, at any thread count
        data, params = layout_inputs(111, 2000, random1, random2)
        kernel = LoglikKernel(*data, threads=threads)
        assert len(kernel.blocks) > 1
        assert simulated_loglik(params, *data) == kernel.loglik(params)[0]


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
        ref = fgls_fit(design, ds.y1, ds.y2)
        got = np.array([c.estimate for c in fit.coefficients])
        expect = np.concatenate([equation_values(ref, 0), equation_values(ref, 1)])
        assert np.max(np.abs(got - expect)) <= 1e-4
        exact_at_optimum = loglik_fixed(ds.x1, ds.x2, ds.y1, ds.y2,
                                        equation_values(ref, 0), equation_values(ref, 1),
                                        ref.sigma)
        assert abs(fit.loglik - exact_at_optimum) <= 1e-6
        assert fit.convergence.converged
        assert fit.k == 2 + 2 + 3

    def test_no_decrement_tolerance_ends_stalled_without_null_steps(self, monkeypatch):
        # with a zero tolerance only the line search can end the fit; it must
        # stop when f stops improving, not walk on with steps that change nothing
        truth = rp_truth(n=150, seed=8)
        ds = simulate_dataset(truth)
        design = design_of(ds)
        draws = build_draw_store(150, HaltonConfig(bases=(2, 3), draws_per_obs=50))
        monkeypatch.setattr(msl, "_NEWTON_TOL", 0.0)
        fit = fit_rp_sure(design, ds.y1, ds.y2, draws=draws)
        assert fit.convergence.status == "stalled"
        assert fit.convergence.iterations < 20
        path = fit.convergence.loglik_path
        assert all(b > a for a, b in zip(path, path[1:]))
        # the last point's Hessian still gives the SEs
        assert fit.param_cov is not None

    def test_non_finite_points_are_rejected_or_leave_no_ses(self, monkeypatch):
        # a line-search trial whose likelihood is not finite counts as -inf,
        # so the search halves its step; a Hessian that is not finite ends
        # the fit "stalled", without SEs
        ds = simulate_dataset(rp_truth(n=150, seed=8))
        draws = build_draw_store(150, HaltonConfig(bases=(2, 3), draws_per_obs=50))
        loglik, calls = LoglikKernel.loglik, []

        def first_trial_not_finite(self, params):
            calls.append(params)
            if len(calls) == 2:
                raise EstimationError("simulated log-likelihood is not finite")
            return loglik(self, params)

        def hessian_not_finite(self, params):
            raise EstimationError("simulated log-likelihood is not finite")

        monkeypatch.setattr(LoglikKernel, "loglik", first_trial_not_finite)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            fit = fit_rp_sure(design_of(ds), ds.y1, ds.y2, draws=draws)
        assert fit.convergence.converged and len(calls) > 2
        assert fit.convergence.score_passes == len(calls)
        assert fit.param_cov is not None

        monkeypatch.setattr(LoglikKernel, "hessian", hessian_not_finite)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            fit = fit_rp_sure(design_of(ds), ds.y1, ds.y2, draws=draws)
        assert fit.convergence.status == "stalled"
        assert fit.convergence.iterations == 0 and math.isnan(fit.convergence.decrement)
        assert fit.param_cov is None and {c.se for c in fit.coefficients} == {None}

    @pytest.mark.parametrize("coordinate,value", [(-3, 800.0), (-2, 1e200), (-1, 800.0)],
                             ids=["log-l11", "l21", "log-l22"])
    def test_covariance_beyond_double_range_is_refused_quietly(self, coordinate, value):
        # a line-search trial can put a Cholesky coordinate beyond double
        # range: the covariance refuses it, which the line search rejects
        from fuelgap.msl import _Transform
        t = np.zeros(9)
        t[coordinate] = value
        with warnings.catch_warnings(), \
                pytest.raises(DegenerateDataError, match="is not positive definite"):
            warnings.simplefilter("error")
            _Transform(2, 2, 2).unpack(t)

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
        # SEs from the analytic Hessian against SEs from second differences
        # of the value alone, at the same optimum
        from fuelgap.msl import _natural_covariance, _Transform
        fit, design, ds, draws = recovery_small
        kernel = LoglikKernel(design, ds.y1, ds.y2, draws)
        transform = _Transform(2, 2, 2)
        coefs = [c.estimate for c in fit.coefficients]
        t_hat = transform.pack(RpParameters(
            coef1=coefs[:2], coef2=coefs[2:],
            sigmas=[c.sigma for c in fit.random_coefficients], cov=fit.sigma))
        hess = value_only_hessian(lambda t: -kernel.loglik(transform.unpack(t))[0],
                                  t_hat, 1e-4)
        reference = np.sqrt(np.diag(_natural_covariance(hess, transform.jacobian(t_hat))))
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
        ref = fgls_fit(design, ds.y1, ds.y2)
        assert abs(fit.loglik - ref.loglik) <= 1.0

    @pytest.mark.parametrize("seed", [62, 66])
    def test_negative_spread_reported_as_magnitude(self, seed):
        # on zero-spread data these fits end with the x1 spread negative: of
        # seeds 61-72, 62, 66, 67, 68, 69 and 70 end with one spread negative
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
        # the draws' asymmetry moves the value at |sigma|: on this zero-spread
        # data by 0 to 0.21 nats over seeds 61-72 (0.008 and 0.056 on these
        # two), and by up to 1.07 nats at R=400 on the criterion-5 model
        assert abs(fit.loglik - loglik_at(reported)) <= 0.1

    def test_not_converged_status_is_reported(self):
        truth = rp_truth(n=120, seed=5)
        ds = simulate_dataset(truth)
        design = design_of(ds)
        draws = build_draw_store(120, HaltonConfig(bases=(2, 3), draws_per_obs=50))
        # Newton needs 2 steps here, so a cap of 1 stops it
        fit = fit_rp_sure(design, ds.y1, ds.y2, draws=draws, max_iterations=1)
        assert fit.convergence.status == "not converged"
        assert fit.convergence.iterations == 1
        assert fit.loglik == fit.convergence.loglik_path[-1]

    @pytest.mark.parametrize("cap", [0, -5])
    def test_step_cap_below_one_is_refused(self, cap):
        ds = simulate_dataset(rp_truth(n=40))
        draws = build_draw_store(40, HaltonConfig(bases=(2, 3), draws_per_obs=8))
        with pytest.raises(ValueError, match="max_iterations must be >= 1"):
            fit_rp_sure(design_of(ds), ds.y1, ds.y2, draws=draws, max_iterations=cap)

    def test_ill_conditioned_design_warns_once_per_equation(self):
        # an uncentred column near 1e6 leaves equation 1's design with a
        # condition number near 1e12; the exact-ML start solves the whitened
        # system at every step, but only each equation's design is judged,
        # so the rp-sure fit warns as the sure fit does
        rng = np.random.default_rng(3)
        n = 300
        x, year = rng.standard_normal((n, 2)), 1e6 + rng.standard_normal(n)
        design = DesignMatrices(np.column_stack([np.ones(n), x[:, 0], year]),
                                np.column_stack([np.ones(n), x[:, 1]]),
                                ("const", "x1", "year"), ("const", "x2"),
                                random1=(1,), random2=(1,))
        z, e = rng.standard_normal((n, 2)), rng.standard_normal((n, 2))
        y1 = 0.88 + (-0.03 + 0.05 * z[:, 0]) * x[:, 0] + 1e-3 * (year - 1e6) + 0.1 * e[:, 0]
        y2 = 0.92 + (0.02 + 0.06 * z[:, 1]) * x[:, 1] + 0.1 * (0.5 * e[:, 0] + 0.87 * e[:, 1])
        draws = build_draw_store(n, HaltonConfig(bases=(2, 3), draws_per_obs=20))

        def condition_warnings(fit, *args, **kwargs):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                fit(design, y1, y2, *args, **kwargs)
            return {str(w.message) for w in caught if "condition number" in str(w.message)}

        sure_warnings = condition_warnings(fgls_fit)
        assert len(sure_warnings) == 1
        assert next(iter(sure_warnings)).startswith("equation vehicle_1:")
        assert condition_warnings(fit_rp_sure, draws=draws) == sure_warnings

    @pytest.mark.parametrize("random1,random2", ALL_LAYOUTS)
    def test_report_follows_the_parameter_layout(self, random1, random2):
        # [coef1 | coef2 | sigma_d | sigma1, sigma2, rho]: names, SEs and
        # param_cov rows all follow the one order
        truth = rp_truth(n=300, seed=23)
        ds = simulate_dataset(truth)
        design = design_of(ds, random1, random2)
        d = len(effects_from_design(design))
        draws = None if not d else build_draw_store(
            300, HaltonConfig(bases=(2, 3)[:d], draws_per_obs=50))
        fit = fit_rp_sure(design, ds.y1, ds.y2, draws=draws)
        assert_follows_layout(fit, d, ["sigma1", "sigma2", "rho"])

    @pytest.mark.parametrize("estimator,tail", [
        pytest.param(fgls_fit, ["sigma1", "sigma2", "rho"], id="sure"),
        pytest.param(ols_system_fit, ["sigma1", "sigma2"], id="ols"),
    ])
    def test_fixed_fits_follow_the_parameter_layout(self, estimator, tail):
        ds = simulate_dataset(rp_truth(n=300, seed=23))
        fit = estimator(design_of(ds, (), ()), ds.y1, ds.y2)
        assert fit.random_coefficients == () and fit.convergence is None
        assert_follows_layout(fit, 0, tail)

    @pytest.mark.parametrize("seed", [20240, 1])
    def test_fixed_and_random_parameter_fits_agree_on_icomp(self, seed):
        # the criterion-5 data fit with no random terms: one model, by FGLS
        # and by ML, so ICOMP may differ only by the FGLS-versus-ML gap (it
        # differed by 4.5-5.2 with the FGLS error block in other coordinates)
        ds = simulate_dataset(truth_from_dict(dict(CRITERION_5_TRUTH, seed=seed)))
        design = design_of(ds, (), ())
        sure = fgls_fit(design, ds.y1, ds.y2)
        rp = fit_rp_sure(design, ds.y1, ds.y2)
        assert rp.param_names == sure.param_names
        assert abs(rp.loglik - sure.loglik) < 1e-3
        sure_icomp, rp_icomp = (score_criteria(CriteriaInput(f.loglik, f.k, f.n,
                                                             fisher_inverse=f.param_cov)).icomp
                                for f in (sure, rp))
        assert abs(rp_icomp - sure_icomp) <= 0.01

    def test_random_intercept_is_refused(self):
        # x^2 = 1 for the constant: its spread and the error variance move
        # the likelihood alike, so the fit refuses it before starting
        ds = simulate_dataset(rp_truth(n=100))
        draws = build_draw_store(100, HaltonConfig(bases=(2, 3), draws_per_obs=20))
        with pytest.raises(SpecError, match=r"the spreads of random terms \['const'\] of "
                           r"equation vehicle_2 are not identified: .*collinear"):
            fit_rp_sure(design_of(ds, (1,), (0,)), ds.y1, ds.y2, draws=draws)

    def test_random_dummy_with_intercept_fits(self):
        # a 0/1 column has x^2 = x, which a constant does not span
        truth = rp_truth(n=400, sigma_b=(0.1, 0.12), recipe=("bernoulli", (0.4,)))
        ds = simulate_dataset(truth)
        draws = build_draw_store(400, HaltonConfig(bases=(2, 3), draws_per_obs=50))
        fit = fit_rp_sure(design_of(ds), ds.y1, ds.y2, draws=draws)
        assert fit.convergence.converged
        for c, sigma in zip(fit.random_coefficients, (0.1, 0.12)):
            assert c.sigma_se is not None and abs(c.sigma - sigma) <= 3 * c.sigma_se

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

    @pytest.mark.parametrize("seed", [3, 5, 9])
    def test_swapping_the_equations_mirrors_the_fit(self, seed):
        # the same likelihood with its equations, responses and Halton bases
        # swapped, so each spread keeps its draws; the optimizer runs in other
        # Cholesky coordinates, so the fits agree to the stop rule, not in bits.
        # N R = 120k makes two kernel blocks, so the mirror at two threads
        # runs the pool
        ds = simulate_dataset(truth_from_dict(dict(CRITERION_5_TRUTH, n=600, seed=seed)))
        design = design_of(ds)
        mirror = DesignMatrices(x1=design.x2, x2=design.x1, names1=design.names2,
                                names2=design.names1, random1=design.random2,
                                random2=design.random1, eq_names=design.eq_names[::-1])
        draws = build_draw_store(600, HaltonConfig(bases=(3, 2), draws_per_obs=200))
        assert len(LoglikKernel(mirror, ds.y2, ds.y1, draws, threads=2).blocks) == 2
        fit = fit_rp_sure(design, ds.y1, ds.y2,
                          build_draw_store(600, HaltonConfig(bases=(2, 3), draws_per_obs=200)))
        mirrored = fit_rp_sure(mirror, ds.y2, ds.y1, draws, threads=2)
        assert fit.convergence.converged and mirrored.convergence.converged
        assert abs(fit.loglik - mirrored.loglik) <= 1e-9

        def error_terms(f, order):
            """(estimate, SE) of sigma1 and sigma2 in `order`, then of rho."""
            sds = [(np.sqrt(f.sigma.sigma11), f.sigma1_se),
                   (np.sqrt(f.sigma.sigma22), f.sigma2_se)]
            return [sds[i] for i in order] + [(f.sigma.rho, f.rho_se)]

        pairs = [(c, mirrored.coefficient(f"{c.equation}:{c.name}")) for c in fit.coefficients]
        pairs = [((c.estimate, c.se), (m.estimate, m.se)) for c, m in pairs] \
            + [((c.sigma, c.sigma_se), (m.sigma, m.sigma_se)) for c, m in pairs
               if c.kind == "random-normal"] \
            + list(zip(error_terms(fit, (0, 1)), error_terms(mirrored, (1, 0))))
        assert len(pairs) == 9
        for (estimate, se), (mirror_estimate, mirror_se) in pairs:
            assert abs(estimate - mirror_estimate) <= 1e-6
            assert abs(se - mirror_se) <= 1e-5 * se


def exact_start(design, ds):
    """Stage 1 of fit_rp_sure: (optimum, its log-likelihood, steps)."""
    return msl._exact_ml(design, ds.y1, ds.y2, fgls_fit(design, ds.y1, ds.y2).sigma)


def exact_at(design, ds, params):
    return exact_marginal_loglik(design.x1, design.x2, ds.y1, ds.y2, params.coef1,
                                 params.coef2, effects_from_design(design), params.sigmas,
                                 params.cov)


class TestExactMl:
    """Stage 1, exact marginal ML by Fisher scoring, against independent oracles."""

    @pytest.mark.parametrize("random1,random2", ALL_LAYOUTS)
    def test_value_at_its_optimum_is_the_exact_marginal_loglik(self, random1, random2):
        ds = simulate_dataset(rp_truth(n=300, seed=23, sigma_b=(0.08, 0.1)))
        design = design_of(ds, random1, random2)
        params, value, steps = exact_start(design, ds)
        assert 1 <= steps < msl._EXACT_MAX_STEPS
        assert abs(value - exact_at(design, ds, params)) <= 1e-9 * abs(value)

    @pytest.mark.parametrize("n,seed,sigma_b", [(300, 11, (0.08, 0.1)), (300, 12, (0.08, 0.1)),
                                                (1500, 61, (0.0, 0.0))],
                             ids=["planted-11", "planted-12", "zero-spread-61"])
    def test_matches_the_scipy_optimum_of_the_exact_loglik(self, n, seed, sigma_b):
        # scipy's BFGS on exact_marginal_loglik, from the truth, in signed
        # spreads and Cholesky coordinates; on the zero-spread data one
        # spread lies on the boundary, where stage 1 puts it at exactly 0
        from scipy.optimize import minimize
        truth = rp_truth(n=n, seed=seed, sigma_b=sigma_b, recipe=("normal", (0.0, 1.0)))
        ds = simulate_dataset(truth)
        design = design_of(ds)
        params, value, _ = exact_start(design, ds)

        def at(v):
            l11, l21, l22 = np.exp(v[6]), v[7], np.exp(v[8])
            return RpParameters(coef1=v[:2], coef2=v[2:4], sigmas=v[4:6], cov=ErrorCovariance(
                sigma11=l11 * l11, sigma22=l21 * l21 + l22 * l22, sigma12=l11 * l21))

        low = truth.error_covariance.low
        start = np.concatenate([truth_params(truth).coef1, truth_params(truth).coef2,
                                np.maximum(sigma_b, 0.01),
                                [np.log(low[0, 0]), low[1, 0], np.log(low[1, 1])]])
        found = at(minimize(lambda v: -exact_at(design, ds, at(v)), start, method="BFGS",
                            options={"gtol": 1e-9}).x)

        def vector(p):
            return np.concatenate([p.coef1, p.coef2, np.abs(p.sigmas),
                                   [p.cov.sigma11, p.cov.sigma12, p.cov.sigma22]])

        assert value >= exact_at(design, ds, found) - 1e-8
        np.testing.assert_allclose(vector(params), vector(found), rtol=0, atol=1e-6)
        if not any(sigma_b):
            assert 0.0 in params.sigmas

    def test_without_random_terms_it_is_the_sure_model_by_ml(self):
        # shared regressors make two-step FGLS the exact ML fit; with other
        # regressors per equation ML is the fixed point of FGLS: the error
        # covariance of its own residuals, above the FGLS likelihood
        ds = simulate_dataset(rp_truth(n=300, seed=23))
        shared = DesignMatrices(x1=ds.x1, x2=ds.x1, names1=("const", "x1"),
                                names2=("const", "x1"))
        for design, equal_to_fgls in ((shared, True), (design_of(ds, (), ()), False)):
            params, value, _ = exact_start(design, ds)
            ref = fgls_fit(design, ds.y1, ds.y2)
            assert params.sigmas.size == 0
            assert value == pytest.approx(loglik_fixed(design.x1, design.x2, ds.y1, ds.y2,
                                                       params.coef1, params.coef2, params.cov),
                                          rel=1e-12)
            res = (ds.y1 - design.x1 @ params.coef1, ds.y2 - design.x2 @ params.coef2)
            # to the stop rule's 1e-10 nats, about 1e-5 SE
            own = residual_covariance(*res)
            np.testing.assert_allclose(params.cov.matrix, own.matrix, rtol=1e-6)
            if equal_to_fgls:
                coef = np.concatenate([params.coef1, params.coef2])
                expect = np.concatenate([equation_values(ref, 0), equation_values(ref, 1)])
                np.testing.assert_allclose(coef, expect, rtol=0, atol=1e-12)
                assert value == pytest.approx(ref.loglik, rel=1e-12)
            else:
                assert value > ref.loglik


def rescaled(design, eq, col, scale=1.0, shift=0.0):
    """The design with column col of equation eq replaced by shift + scale x."""
    x = [design.x1.copy(), design.x2.copy()]
    x[eq][:, col] = shift + scale * x[eq][:, col]
    return dataclasses.replace(design, x1=x[0], x2=x[1])


def natural_vector(fit):
    """The estimates in param_cov's order, spreads and error terms included."""
    return np.array([c.estimate for c in fit.coefficients]
                    + [c.sigma for c in fit.random_coefficients]
                    + [math.sqrt(fit.sigma.sigma11), math.sqrt(fit.sigma.sigma22),
                       fit.sigma.rho])


class TestUnits:
    """A change of a covariate's units or origin is a reparametrization: the
    same likelihood, so the same status and log-likelihood, and estimates
    and SEs that map with it.  Tolerances: 1e-7 nats for the log-likelihood,
    1e-6 SE for the estimates and 1e-6 relative for the SEs; the two fits
    take the same Newton steps up to rounding (seen: 2e-13 nats, 1e-11 SE)."""

    @pytest.mark.parametrize("scale", [1e3, 1e-3])
    @pytest.mark.parametrize("seed", [3, 5])
    def test_rescaling_a_random_covariate_rescales_the_fit(self, seed, scale):
        ds = simulate_dataset(truth_from_dict(dict(CRITERION_5_TRUTH, n=400, seed=seed)))
        design = design_of(ds)
        draws = build_draw_store(400, HaltonConfig(bases=(2, 3), draws_per_obs=50))
        base = fit_rp_sure(design, ds.y1, ds.y2, draws)
        fit = fit_rp_sure(rescaled(design, 0, 1, scale), ds.y1, ds.y2, draws)
        # x1's mean and spread (positions 1 and 4) shrink by the scale
        back = np.ones(base.k)
        back[[1, 4]] = scale
        assert base.convergence.converged
        assert fit.convergence.status == base.convergence.status
        assert abs(fit.loglik - base.loglik) <= 1e-7
        se = np.sqrt(np.diag(base.param_cov))
        assert np.max(np.abs(natural_vector(fit) * back - natural_vector(base)) / se) <= 1e-6
        np.testing.assert_allclose(np.sqrt(np.diag(fit.param_cov)) * back, se, rtol=1e-6)
        # stage 1 alone, the exact-ML start, maps the same way
        params, value, steps = exact_start(design, ds)
        moved, moved_value, moved_steps = exact_start(rescaled(design, 0, 1, scale), ds)
        assert moved_steps == steps and abs(moved_value - value) <= 1e-7
        np.testing.assert_allclose(moved.coef1 * [1.0, scale], params.coef1, rtol=1e-9)
        np.testing.assert_allclose(moved.sigmas * [scale, 1.0], params.sigmas, rtol=1e-9)

    @pytest.mark.parametrize("seed", [3, 5])
    def test_shifting_a_fixed_column_moves_only_the_intercept(self, seed):
        # a fixed model-year term in its own units (1984-2012) against the
        # same term counted from 1984: the intercept moves by -c beta
        truth = TruthSpec(
            equations=(EquationTruth("vehicle_1", (TermTruth("x1", -0.03, 0.08),
                                                   TermTruth("year", 0.004)), intercept=0.88),
                       EquationTruth("vehicle_2", (TermTruth("x2", 0.02, 0.1),),
                                     intercept=0.92)),
            covariates=(CovariateRecipe("x1", "normal", (0.0, 1.0)),
                        CovariateRecipe("x2", "normal", (0.0, 1.0)),
                        CovariateRecipe("year", "uniform", (1984.0, 2012.0))),
            sigma1=0.1, sigma2=0.1, rho=0.5, n=400, seed=seed)
        ds = simulate_dataset(truth)
        design = ds.design
        assert design.names1 == ("const", "x1", "year") and design.random1 == (1,)
        draws = build_draw_store(400, HaltonConfig(bases=(2, 3), draws_per_obs=50))
        shift = -1984.0
        base = fit_rp_sure(design, ds.y1, ds.y2, draws)
        fit = fit_rp_sure(rescaled(design, 0, 2, shift=shift), ds.y1, ds.y2, draws)
        assert base.convergence.converged
        assert fit.convergence.status == base.convergence.status
        assert abs(fit.loglik - base.loglik) <= 1e-7
        beta = base.coefficient("year").estimate
        expect = natural_vector(base)
        expect[0] -= shift * beta
        se = np.sqrt(np.diag(base.param_cov))
        assert np.max(np.abs(natural_vector(fit) - expect) / se) <= 1e-6
        # every SE but the intercept's stays
        np.testing.assert_allclose(np.sqrt(np.diag(fit.param_cov))[1:], se[1:], rtol=1e-6)


def assert_follows_layout(fit, d, tail):
    """[coef1 | coef2 | sigma_d | tail]: names, SEs and param_cov rows all
    follow the one order, and every SE is the root of its param_cov entry."""
    names, coefs, randoms = fit.param_names, fit.coefficients, fit.random_coefficients
    assert fit.param_cov is not None
    assert fit.k == len(names) == fit.param_cov.shape[0] == len(coefs) + d + len(tail)
    assert list(names[:len(coefs)]) == [f"{c.equation}:{c.name}" for c in coefs]
    assert list(names[len(coefs):]) == [f"sd:{c.name}" for c in randoms] + tail
    se = np.sqrt(np.diag(fit.param_cov)).tolist()
    assert [c.se for c in coefs] == se[:len(coefs)]
    assert [c.sigma_se for c in randoms] == se[len(coefs):len(coefs) + d]
    # ols does not estimate rho
    assert [fit.sigma1_se, fit.sigma2_se, fit.rho_se] == \
        se[len(coefs) + d:] + [None] * (3 - len(tail))


def toy_fit(sigma, sigma_se, mu=0.1, mu_se=0.05):
    coef = CoefficientEstimate(name="x", equation="vehicle_1", kind="random-normal",
                               estimate=mu, se=mu_se, sigma=sigma, sigma_se=sigma_se)
    return SureFit(
        n=10, loglik=0.0,
        coefficients=(coef,
                      CoefficientEstimate(name="const", equation="vehicle_1",
                                          kind="fixed", estimate=0.9, se=0.1)),
        sigma=ErrorCovariance(1.0, 1.0, 0.0),
        sigma1_se=None, sigma2_se=None, rho_se=None,
        param_names=(), param_cov=None,
        convergence=Convergence(status="converged", iterations=1, grad_norm=0.0),
        draw_config=None)


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
    @pytest.mark.parametrize("random2", [(2, 0), (1, 1), (3,), (-1,)])
    def test_random_columns_out_of_design_order_are_refused(self, random2):
        # the fit reports spreads by a pass over the design columns, so the
        # design refuses any other order when it is built
        with pytest.raises(SpecError, match="equation 2 .* increasing order"):
            DesignMatrices(
                x1=np.ones((3, 2)), x2=np.ones((3, 3)),
                names1=("const", "a"), names2=("const", "b", "c"),
                random1=(1,), random2=random2)

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
        assert _natural_covariance(singular, np.eye(3)) is None

    def test_negative_curvature_flags_ses_unavailable(self):
        from fuelgap.msl import _natural_covariance

        hess = np.diag([1.0, -2.0, 3.0])
        assert _natural_covariance(hess, np.eye(3)) is None

    def test_indefinite_hessian_flags_ses_unavailable(self):
        # eigenvalues -1, 0.33 and 1: every diagonal entry of the inverse is
        # positive, so only a positive-definiteness check rejects it
        from fuelgap.msl import _natural_covariance

        hess = np.array([[0.3565, -0.5837, -0.491],
                         [-0.5837, -0.6095, -0.2313],
                         [-0.491, -0.2313, 0.5829]])
        assert (np.diag(np.linalg.inv(hess)) > 0).all()
        assert _natural_covariance(hess, np.eye(3)) is None

    @pytest.mark.parametrize("hess,jac", [
        pytest.param(np.full((2, 2), np.nan), np.eye(2), id="non-finite-hessian"),
        pytest.param(np.diag([1e-300, 1.0]), np.diag([1e10, 1.0]), id="variance-overflows"),
    ])
    def test_non_finite_flags_ses_unavailable(self, hess, jac):
        from fuelgap.msl import _natural_covariance

        with np.errstate(over="ignore", invalid="ignore"):
            assert _natural_covariance(hess, jac) is None

    def test_well_posed_case(self):
        from fuelgap.msl import _natural_covariance

        hess = np.diag([4.0, 25.0])
        jac = np.diag([1.0, 2.0])
        cov = _natural_covariance(hess, jac)
        np.testing.assert_allclose(np.sqrt(np.diag(cov)), [0.5, 0.4])
        np.testing.assert_allclose(cov, np.diag([0.25, 0.16]))
