import math
import re
import mpmath as mp
import numpy as np
import pytest
from scipy.linalg import cholesky

from fuelgap.errors import DegenerateDataError, EstimationError
from fuelgap.sure import (
    DesignMatrices,
    ErrorCovariance,
    ParameterLayout,
    _qr_solve,
    fgls_fit,
    full_rank_qr,
    layout_fit,
    loglik_fixed,
    ols_system_fit,
    residual_covariance,
    whitened_logpdf,
)

LOG_INV_2PI = -1.8378770664093453  # ln(1/(2*pi))


def equation_values(fit, eq, attr="estimate"):
    """One equation's coefficient estimates (or SEs), in design order."""
    first = fit.coefficients[0].equation
    return np.array([getattr(c, attr) for c in fit.coefficients
                     if (c.equation == first) == (eq == 0)])


def design_of(x1, x2, **kwargs):
    """The design of two bare matrices, their columns named x0, x1, ..."""
    return DesignMatrices(x1, x2, tuple(f"x{j}" for j in range(x1.shape[1])),
                          tuple(f"x{j}" for j in range(x2.shape[1])), **kwargs)


def lstsq_ols(x, y):
    """Independent oracle: LAPACK least squares (SVD) and the classical
    s^2 (X'X)^-1 of its residuals, by an explicit inverse; returns
    (beta, residuals, se)."""
    beta = np.linalg.lstsq(x, y, rcond=None)[0]
    residuals = y - x @ beta
    s2 = residuals @ residuals / (x.shape[0] - x.shape[1])
    return beta, residuals, np.sqrt(np.diag(s2 * np.linalg.inv(x.T @ x)))


def mp_normal_equations(x, y, dps=50):
    """Independent oracle: explicit (X'X)^-1 X'y at high precision."""
    with mp.workdps(dps):
        xm = mp.matrix(x.tolist())
        ym = mp.matrix([[v] for v in y.tolist()])
        xtx = xm.T * xm
        xty = xm.T * ym
        beta = mp.lu_solve(xtx, xty)
        return np.array([float(b) for b in beta])


def mp_bivariate_loglik(e1, e2, sigma, dps=50):
    """Independent oracle: naive -(1/2)e'S^-1 e - (1/2)ln|S| - ln(2pi) sum."""
    with mp.workdps(dps):
        s = mp.matrix(sigma.tolist())
        det = s[0, 0] * s[1, 1] - s[0, 1] * s[1, 0]
        sinv = mp.matrix([[s[1, 1], -s[0, 1]], [-s[1, 0], s[0, 0]]]) / det
        total = mp.mpf(0)
        for a, b in zip(e1.tolist(), e2.tolist()):
            e = mp.matrix([[a], [b]])
            quad = (e.T * sinv * e)[0, 0]
            total += -mp.mpf(0.5) * quad - mp.mpf(0.5) * mp.log(det) - mp.log(2 * mp.pi)
        return float(total)


class TestOls:
    def test_noiseless_recovery(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(40, 3))
        b = np.array([0.5, -2.0, 3.25])
        beta = _qr_solve(x, x @ b, ("a", "b", "c"))[0]
        np.testing.assert_allclose(beta, b, atol=1e-12)
        np.testing.assert_allclose(x @ b - x @ beta, 0.0, atol=1e-12)

    def test_against_normal_equations_oracle(self):
        rng = np.random.default_rng(7)
        x = np.column_stack([np.ones(200), rng.normal(size=(200, 3))])
        y = x @ np.array([1.0, -0.5, 0.25, 2.0]) + rng.normal(size=200)
        fit = ols_system_fit(design_of(x, x), y, y)
        for eq in (0, 1):
            np.testing.assert_allclose(equation_values(fit, eq), mp_normal_equations(x, y),
                                       atol=1e-8)

    def test_rank_deficiency_names_columns(self):
        x = np.column_stack([np.ones(10), np.arange(10.0), 2 * np.arange(10.0)])
        names = ("const", "lin1", "lin2")
        with pytest.raises(EstimationError, match="lin2|lin1"):
            ols_system_fit(DesignMatrices(x, x, names, names), np.arange(10.0),
                           np.arange(10.0))

    def test_zero_column_design_is_estimation_error(self):
        with pytest.raises(EstimationError, match="no columns"):
            ols_system_fit(design_of(np.empty((5, 0)), np.empty((5, 0))), np.arange(5.0),
                           np.arange(5.0))

    def test_too_few_rows(self):
        # the solve refuses the design before the identification rule runs
        with pytest.raises(EstimationError, match=r"fewer rows \(2\) than columns \(3\)"):
            ols_system_fit(design_of(np.ones((2, 3)), np.ones((2, 3))), np.ones(2),
                           np.ones(2))

    def test_rank_check_rejects_fewer_rows_than_columns(self):
        # the economic R of a 2 x 3 design has only two diagonal entries to test
        with pytest.raises(EstimationError, match=r"fewer rows \(2\) than columns \(3\)"):
            full_rank_qr(np.array([[1.0, 2.0, 3.0], [1.0, 5.0, 7.0]]), ("a", "b", "c"))

    def test_classical_se(self):
        rng = np.random.default_rng(3)
        x = np.column_stack([np.ones(500), rng.normal(size=500)])
        y = 1.0 + rng.normal(size=500)
        fit = ols_system_fit(design_of(x, x), y, y)
        for eq in (0, 1):
            np.testing.assert_allclose(equation_values(fit, eq, "se"), lstsq_ols(x, y)[2],
                                       rtol=1e-8)


SINGULAR_RESIDUALS = "degenerate residual covariance: a residual variance is zero, " \
    "or the residuals are perfectly correlated"


def proportional_data(seed, c, n=30):
    """Both equations on one design [1, x], y2 = c y1: the OLS residuals are
    exactly proportional, so their covariance is singular."""
    rng = np.random.default_rng(seed)
    x = np.column_stack([np.ones(n), rng.normal(size=n)])
    y1 = 0.9 + 0.1 * x[:, 1] + 0.05 * rng.normal(size=n)
    return x, y1, c * y1


class TestResidualCovariance:
    def test_identical_series(self):
        r = np.array([1.0, -0.5, 0.25, 2.0])
        with pytest.raises(EstimationError, match=f"^{SINGULAR_RESIDUALS}$"):
            residual_covariance(r, r)

    def test_orthogonal_series(self):
        r1 = np.array([1.0, -1.0, 1.0, -1.0])
        r2 = np.array([1.0, 1.0, -1.0, -1.0])
        cov = residual_covariance(r1, r2)
        assert cov.sigma12 == 0.0
        assert cov.rho == 0.0

    def test_hand_arithmetic(self):
        # products 4/4, 16/4 and 4/4; rho = 1/sqrt(4), and the Cholesky
        # factor is [[1, 0], [1, sqrt(4 - 1)]]
        cov = residual_covariance(np.array([1.0, -1.0, 1.0, -1.0]),
                                  np.array([2.0, -2.0, 2.0, 2.0]))
        assert (cov.sigma11, cov.sigma22, cov.sigma12, cov.rho) == (1.0, 4.0, 1.0, 0.5)
        assert cov.low.tolist() == [[1.0, 0.0], [1.0, math.sqrt(3.0)]]

    def test_zero_variance(self):
        # a zero variance, or a single garage, leaves a zero determinant
        for r1, r2 in [(np.zeros(5), np.ones(5)), ([0.3, -0.3], [0.0, 0.0]),
                       ([0.0, 0.0], [0.0, 0.0]), ([1.0], [2.0])]:
            with pytest.raises(EstimationError, match=f"^{SINGULAR_RESIDUALS}$"):
                residual_covariance(np.array(r1), np.array(r2))

    def test_empty_residuals_are_an_argument_error(self):
        with pytest.raises(ValueError, match="non-empty"):
            residual_covariance(np.zeros(0), np.zeros(0))

    @pytest.mark.parametrize("rho", [0.999, -0.999, 1.0 - 1e-9])
    def test_strong_correlation_is_kept(self, rho):
        rng = np.random.default_rng(4)
        z = rng.normal(size=(500, 2))
        r2 = rho * z[:, 0] + math.sqrt(1.0 - rho * rho) * z[:, 1]
        cov = residual_covariance(z[:, 0], r2)
        assert np.sign(cov.rho) == np.sign(rho)
        assert 0.5 < (1.0 - cov.rho ** 2) / (1.0 - rho * rho) < 2.0


class TestErrorCovariance:
    def test_rho_formula(self):
        cov = ErrorCovariance(sigma11=4.0, sigma22=9.0, sigma12=3.0)
        assert cov.rho == pytest.approx(3.0 / 6.0)

    def test_rejects_non_psd(self):
        # |rho| > 1, a negative or zero variance, and rho = +1 or -1
        for s11, s22, s12 in [(1.0, 1.0, 1.5), (-1.0, 1.0, 0.0), (0.0, 1.0, 0.0),
                              (1.0, 1.0, 1.0), (4.0, 9.0, -6.0)]:
            matrix = re.escape(str([[s11, s12], [s12, s22]]))
            with pytest.raises(DegenerateDataError,
                               match=f"^error covariance {matrix} is not positive definite: "):
                ErrorCovariance(sigma11=s11, sigma22=s22, sigma12=s12)

    @pytest.mark.parametrize("entries", [(math.nan, 1.0, 0.0), (1.0, math.inf, 0.0),
                                         (1.0, 1.0, math.nan)])
    def test_rejects_non_finite(self, entries):
        # NaN fails every comparison, so a positivity check alone accepts it
        with pytest.raises(DegenerateDataError,
                           match=r"^error covariance \[\[.*\]\] is not positive definite: "
                                 "array must not contain infs or NaNs"):
            ErrorCovariance(*entries)

    def test_factor_is_the_matrix_cholesky(self):
        cov = ErrorCovariance(0.09, 0.25, 0.06)
        assert cov.low.tobytes() == cholesky(cov.matrix, lower=True).tobytes()
        assert cov == ErrorCovariance(0.09, 0.25, 0.06) and "low" not in repr(cov)


class TestLoglikFixed:
    def test_density_at_mode(self):
        cov = ErrorCovariance(1.0, 1.0, 0.0)
        x = np.ones((1, 1))
        val = loglik_fixed(x, x, np.zeros(1), np.zeros(1), np.zeros(1), np.zeros(1), cov)
        assert val == pytest.approx(LOG_INV_2PI, abs=1e-12)

    def test_unit_residual(self):
        cov = ErrorCovariance(1.0, 1.0, 0.0)
        x = np.ones((1, 1))
        val = loglik_fixed(x, x, np.ones(1), np.zeros(1), np.zeros(1), np.zeros(1), cov)
        assert val == pytest.approx(LOG_INV_2PI - 0.5, abs=1e-12)

    def test_against_dense_matrix_oracle(self):
        rng = np.random.default_rng(21)
        n = 50
        x1 = np.column_stack([np.ones(n), rng.normal(size=n)])
        x2 = np.column_stack([np.ones(n), rng.uniform(size=n)])
        b1 = np.array([0.8, -0.1])
        b2 = np.array([0.9, 0.2])
        y1 = x1 @ b1 + rng.normal(size=n) * 0.3
        y2 = x2 @ b2 + rng.normal(size=n) * 0.5
        cov = ErrorCovariance(0.09, 0.25, 0.06)
        got = loglik_fixed(x1, x2, y1, y2, b1, b2, cov)
        expect = mp_bivariate_loglik(y1 - x1 @ b1, y2 - x2 @ b2, cov.matrix)
        assert got == pytest.approx(expect, abs=1e-10)

    def test_decreases_away_from_zero_residual(self):
        cov = ErrorCovariance(1.0, 1.0, 0.0)
        x = np.ones((3, 1))
        base = loglik_fixed(x, x, np.zeros(3), np.zeros(3), np.zeros(1), np.zeros(1), cov)
        bumped = loglik_fixed(x, x, np.array([0.0, 0.7, 0.0]), np.zeros(3),
                              np.zeros(1), np.zeros(1), cov)
        assert bumped < base


def simulate_sur(rng, n, rho=0.6, shared=False):
    """Small SUR data generator used only inside this test module."""
    x1 = np.column_stack([np.ones(n), rng.normal(size=n), rng.normal(size=n)])
    if shared:
        x2 = x1.copy()
    else:
        x2 = np.column_stack([np.ones(n), rng.normal(size=n), rng.uniform(size=n)])
    b1 = np.array([0.86, -0.03, 0.05])
    b2 = np.array([0.85, 0.02, -0.04])
    s1, s2 = 0.12, 0.15
    z = rng.normal(size=(n, 2))
    e1 = s1 * z[:, 0]
    e2 = s2 * (rho * z[:, 0] + np.sqrt(1 - rho ** 2) * z[:, 1])
    return x1, x2, x1 @ b1 + e1, x2 @ b2 + e2, b1, b2


class TestWhitenedLogpdf:
    @pytest.mark.parametrize("wide", [0, 1])
    def test_broadcast_bits_match_plain_expression(self, wide):
        # the msl kernel passes a (rows, 1) residual for an equation without
        # random effects and a (rows, draws) one for the other
        rng = np.random.default_rng(41)
        low = np.linalg.cholesky(np.array([[0.02, 0.006], [0.006, 0.03]]))
        narrow, broad = rng.normal(0, 0.1, (30, 1)), rng.normal(0, 0.1, (30, 40))
        e1, e2 = (narrow, broad) if wide else (broad, narrow)
        l11, l21, l22 = low[0, 0], low[1, 0], low[1, 1]
        v1 = e1 / l11
        v2 = (e2 - l21 * v1) / l22
        expect = -np.log(2.0 * np.pi) - np.log(l11 * l22) - 0.5 * (v1 * v1 + v2 * v2)
        lnphi, got1, got2 = whitened_logpdf(e1, e2, low)
        assert lnphi.shape == (30, 40)
        assert lnphi.tobytes() == expect.tobytes()
        assert got1.tobytes() == v1.tobytes() and got2.tobytes() == v2.tobytes()


class TestFgls:
    def test_coefficient_lookup_refuses_unknown_and_ambiguous_names(self):
        x1, x2, y1, y2, _, _ = simulate_sur(np.random.default_rng(5), 50)
        names = ("const", "a", "b")
        fit = fgls_fit(DesignMatrices(x1, x2, names, names), y1, y2)
        assert fit.coefficient("vehicle_2:const") is fit.coefficients[3]
        with pytest.raises(KeyError, match="no coefficient named 'c'"):
            fit.coefficient("c")
        with pytest.raises(KeyError, match="coefficient name 'const' is ambiguous; "
                                           "qualify with equation"):
            fit.coefficient("const")

    def test_kruskal_equivalence(self):
        # identical regressors force FGLS == per-equation OLS
        rng = np.random.default_rng(5)
        for _ in range(20):
            x1, x2, y1, y2, _, _ = simulate_sur(rng, 200, shared=True)
            x1 = np.column_stack([x1, rng.normal(size=200), rng.normal(size=200)])
            x2 = x1
            fit = fgls_fit(design_of(x1, x2), y1, y2)
            o1 = lstsq_ols(x1, y1)[0]
            o2 = lstsq_ols(x2, y2)[0]
            assert np.max(np.abs(equation_values(fit, 0) - o1)) <= 1e-8
            assert np.max(np.abs(equation_values(fit, 1) - o2)) <= 1e-8

    def test_diagonal_covariance_reduces_to_ols(self):
        # residual cross product exactly zero after stage one
        n = 8
        x = np.column_stack([np.ones(n)])
        y1 = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
        y2 = np.array([1.0, 1.0, -1.0, -1.0, 1.0, 1.0, -1.0, -1.0])
        x2 = np.column_stack([np.ones(n), np.tile([1.0, -1.0], 4)])
        fit = fgls_fit(design_of(x, x2), y1, y2)
        np.testing.assert_allclose(equation_values(fit, 0), lstsq_ols(x, y1)[0], atol=1e-12)
        np.testing.assert_allclose(equation_values(fit, 1), lstsq_ols(x2, y2)[0], atol=1e-12)

    def test_rho_recovery_and_efficiency(self):
        rng = np.random.default_rng(42)
        x1, x2, y1, y2, b1, b2 = simulate_sur(rng, 5000, rho=0.6)
        fit = fgls_fit(design_of(x1, x2), y1, y2)
        assert abs(fit.sigma.rho - 0.6) <= 0.05
        ols_se = np.concatenate([lstsq_ols(x1, y1)[2][1:], lstsq_ols(x2, y2)[2][1:]])
        fgls_se = np.concatenate([equation_values(fit, 0, "se")[1:],
                                  equation_values(fit, 1, "se")[1:]])
        assert fgls_se.mean() <= ols_se.mean()
        np.testing.assert_allclose(equation_values(fit, 0), b1, atol=0.02)
        np.testing.assert_allclose(equation_values(fit, 1), b2, atol=0.02)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(9)
        x1, x2, y1, y2, _, _ = simulate_sur(rng, 300)
        base = fgls_fit(design_of(x1, x2), y1, y2)
        lam = 3.5
        scaled = fgls_fit(design_of(x1, x2), lam * y1, y2)
        np.testing.assert_allclose(equation_values(scaled, 0), lam * equation_values(base, 0),
                                   rtol=1e-9)
        assert np.sqrt(scaled.sigma.sigma11) == pytest.approx(
            lam * np.sqrt(base.sigma.sigma11), rel=1e-9)
        assert scaled.sigma.rho == pytest.approx(base.sigma.rho, abs=1e-12)

    def test_loglik_matches_exact_evaluation(self):
        rng = np.random.default_rng(13)
        x1, x2, y1, y2, _, _ = simulate_sur(rng, 400)
        fit = fgls_fit(design_of(x1, x2), y1, y2)
        expect = loglik_fixed(x1, x2, y1, y2,
                              equation_values(fit, 0), equation_values(fit, 1), fit.sigma)
        assert fit.loglik == pytest.approx(expect, abs=1e-10)

    def test_k_counts_covariance_parameters(self):
        rng = np.random.default_rng(1)
        x1, x2, y1, y2, _, _ = simulate_sur(rng, 100)
        fit = fgls_fit(design_of(x1, x2), y1, y2)
        assert fit.k == 3 + 3 + 3
        assert fit.param_cov.shape == (fit.k, fit.k)
        # parameter covariance must admit a Cholesky factorization
        np.linalg.cholesky(fit.param_cov)

    def test_sigma_block_is_the_delta_method_image_of_the_covariance_entries(self):
        rng = np.random.default_rng(5)
        x1, x2, y1, y2, _, _ = simulate_sur(rng, 300)
        fit = fgls_fit(design_of(x1, x2), y1, y2)
        s11, s12, s22, n = fit.sigma.sigma11, fit.sigma.sigma12, fit.sigma.sigma22, fit.n
        # ML covariance of (sigma11, sigma12, sigma22) under normality
        c = np.array([[2 * s11 * s11, 2 * s11 * s12, 2 * s12 * s12],
                      [2 * s11 * s12, s11 * s22 + s12 * s12, 2 * s12 * s22],
                      [2 * s12 * s12, 2 * s12 * s22, 2 * s22 * s22]]) / n
        s1, s2, rho = math.sqrt(s11), math.sqrt(s22), s12 / math.sqrt(s11 * s22)
        # d (sigma1, sigma2, rho) / d (sigma11, sigma12, sigma22)
        j = np.array([[1 / (2 * s1), 0, 0],
                      [0, 0, 1 / (2 * s2)],
                      [-rho / (2 * s11), 1 / (s1 * s2), -rho / (2 * s22)]])
        assert fit.param_names[-3:] == ("sigma1", "sigma2", "rho")
        np.testing.assert_allclose(fit.param_cov[-3:, -3:], j @ c @ j.T, rtol=1e-12)
        assert (fit.param_cov[-3:, :-3] == 0).all() and (fit.param_cov[:-3, -3:] == 0).all()

    def test_degenerate_residual_covariance(self):
        n = 10
        x = np.ones((n, 1))
        y = np.arange(float(n))
        with pytest.raises(EstimationError, match="degenerate residual covariance"):
            fgls_fit(design_of(x, x), y, y)
        # residuals in exact proportion, which rounding can leave factorable
        # with |rho| = 1
        rng = np.random.default_rng(0)
        x = np.column_stack([np.ones(30), rng.normal(size=30)])
        y = rng.normal(size=30) + 1.0
        with pytest.raises(EstimationError, match="degenerate residual covariance"):
            fgls_fit(design_of(x, x), y, 2.0 * y)

    @pytest.mark.parametrize("c", [2.0, 0.5, 3.0, -1.0, 1.0])
    def test_proportional_residuals_get_one_message(self, c):
        # rounding leaves the step-one covariance of such residuals
        # factorable with rho = 1 - 2e-16 on some seeds (10 at c = 3), or the
        # re-estimated one singular after step one passed (2 at c = 3)
        for seed in range(40):
            x, y1, y2 = proportional_data(seed, c)
            with pytest.raises(EstimationError, match=f"^{SINGULAR_RESIDUALS}$"):
                fgls_fit(design_of(x, x), y1, y2)
            # ols estimates no rho, so it still fits
            assert np.isfinite(ols_system_fit(design_of(x, x), y1, y2).loglik)


    def test_layout_refuses_estimates_of_another_size(self):
        with pytest.raises(ValueError, match="^estimates, param_cov and the parameter "
                                             "layout differ in size$"):
            layout_fit(ParameterLayout(design_of(np.ones((3, 1)), np.ones((3, 1)))), [1.0],
                       None, n=3, loglik=0.0, sigma=ErrorCovariance(1.0, 1.0, 0.0))


def reparametrized_fits(estimator, seed, eq, column):
    """The fit of a two-equation design (N=600, two normal covariates) and
    the fit after `column` maps column 1 of equation `eq`; with the flat
    index of that equation's intercept and of the mapped column."""
    rng = np.random.default_rng(seed)
    n = 600
    z = rng.normal(size=(n, 2))
    x = [np.column_stack([np.ones(n), z]), np.column_stack([np.ones(n), z[:, 1]])]
    e = rng.normal(size=(n, 2))
    y1 = x[0] @ [0.86, -0.03, 0.05] + 0.12 * e[:, 0]
    y2 = x[1] @ [0.85, 0.02] + 0.15 * (0.6 * e[:, 0] + 0.8 * e[:, 1])
    base = estimator(design_of(*x), y1, y2)
    x[eq] = x[eq].copy()
    x[eq][:, 1] = column(x[eq][:, 1])
    intercept = 0 if eq == 0 else x[0].shape[1]
    return base, estimator(design_of(*x), y1, y2), intercept, intercept + 1


def fit_arrays(fit):
    return (np.array([c.estimate for c in fit.coefficients]),
            np.array([c.se for c in fit.coefficients]))


@pytest.mark.parametrize("eq", [0, 1])
@pytest.mark.parametrize("seed", [3, 5, 9])
@pytest.mark.parametrize("estimator", [ols_system_fit, fgls_fit], ids=["ols", "sure"])
class TestReparametrization:
    """A fixed column x replaced by c + x or by s x is the same model."""

    def test_shift_moves_only_the_intercept(self, estimator, seed, eq):
        base, shifted, intercept, col = reparametrized_fits(estimator, seed, eq,
                                                            lambda x: x + 1987.0)
        (b, b_se), (s, s_se) = fit_arrays(base), fit_arrays(shifted)
        assert shifted.loglik == pytest.approx(base.loglik, abs=1e-9)
        expect = b.copy()
        expect[intercept] -= 1987.0 * b[col]
        np.testing.assert_allclose(s, expect, rtol=0, atol=1e-10)
        slopes = np.arange(len(b)) != intercept
        np.testing.assert_allclose(s_se[slopes], b_se[slopes], rtol=1e-9)
        for name in ("sigma11", "sigma22"):
            assert math.sqrt(getattr(shifted.sigma, name)) == pytest.approx(
                math.sqrt(getattr(base.sigma, name)), abs=1e-10)
        assert shifted.sigma.rho == pytest.approx(base.sigma.rho, abs=1e-10)

    def test_scale_divides_the_coefficient_and_its_se(self, estimator, seed, eq):
        base, scaled, _, col = reparametrized_fits(estimator, seed, eq, lambda x: 1e3 * x)
        (b, b_se), (s, s_se) = fit_arrays(base), fit_arrays(scaled)
        assert scaled.loglik == pytest.approx(base.loglik, abs=1e-9)
        unit = np.ones(len(b))
        unit[col] = 1e3
        np.testing.assert_allclose(s * unit, b, rtol=0, atol=1e-10)
        np.testing.assert_allclose(s_se * unit, b_se, rtol=1e-9)


class TestDesignMatrices:
    @pytest.mark.parametrize("x1,x2", [(np.ones(3), np.ones((3, 1))),
                                       (np.ones((3, 1), dtype=int), np.ones((3, 1))),
                                       (np.ones((3, 1)), [[1.0]] * 3),
                                       (np.ones((3, 1)), np.ones((4, 1)))],
                             ids=["one-dimensional", "integer", "list", "unequal-rows"])
    def test_matrices_are_2d_floats_that_share_their_rows(self, x1, x2):
        with pytest.raises(ValueError, match="2-D float arrays that share their rows"):
            DesignMatrices(x1, x2, ("a",), ("b",))

    def test_one_name_per_column(self):
        with pytest.raises(ValueError, match="equation 2 has 2 columns but 1 names"):
            DesignMatrices(np.ones((3, 1)), np.ones((3, 2)), ("a",), ("b",))

    @pytest.mark.parametrize("estimator", [ols_system_fit, fgls_fit], ids=["ols", "sure"])
    def test_responses_cover_the_design_rows(self, estimator):
        x = np.column_stack([np.ones(5), np.arange(5.0)])
        with pytest.raises(ValueError, match="X has 5 rows but y has 4"):
            estimator(design_of(x, x), np.arange(5.0) ** 2, np.ones(4))


class TestOlsSystem:
    def test_loglik_is_sum_of_univariate_logliks(self):
        rng = np.random.default_rng(17)
        x1, x2, y1, y2, _, _ = simulate_sur(rng, 150)
        fit = ols_system_fit(design_of(x1, x2), y1, y2)
        total = 0.0
        for x, y in ((x1, y1), (x2, y2)):
            residuals = lstsq_ols(x, y)[1]
            s2 = residuals @ residuals / len(y)
            total += float(np.sum(-0.5 * np.log(2 * np.pi * s2)
                                  - 0.5 * residuals ** 2 / s2))
        assert fit.loglik == pytest.approx(total, abs=1e-8)
        assert fit.k == 3 + 3 + 2
        assert fit.sigma.rho == 0.0

    @pytest.mark.parametrize("estimator", [ols_system_fit, fgls_fit], ids=["ols", "sure"])
    def test_perfect_interpolation_is_refused(self, estimator):
        # as many garages as columns: the coefficients are exact, but no
        # residual variance is left to estimate the error variance from
        x = np.array([[1.0, 0.0], [1.0, 1.0]])
        y = np.array([1.0, 2.0])
        np.testing.assert_allclose(_qr_solve(x, y, ("x0", "x1"))[0], [1.0, 1.0], atol=1e-14)
        with pytest.raises(EstimationError, match=r"equation vehicle_1 is not identified: "
                           r"no residual variance is left \(n=2 garages, k=2 columns\)"):
            estimator(design_of(x, x), y, y)

    @pytest.mark.parametrize("estimator", [ols_system_fit, fgls_fit], ids=["ols", "sure"])
    def test_exactly_zero_residuals_are_refused(self, estimator):
        x = np.ones((4, 1))
        y = np.full(4, 0.9)
        beta = _qr_solve(x, y, ("x0",))[0]
        np.testing.assert_allclose(beta, [0.9])
        assert (y - x @ beta == 0.0).all()
        with pytest.raises(EstimationError, match=r"equation b is not identified: "
                           r"no residual variance is left \(n=4 garages, k=1 columns\)"):
            estimator(design_of(x, x, eq_names=("a", "b")), np.arange(4.0), y)


class TestConditioning:
    def test_condition_number_warning(self):
        import warnings

        n = 50
        rng = np.random.default_rng(0)
        base = np.linspace(0.0, 1.0, n)
        x = np.column_stack([np.ones(n), base,
                             base + 1e-11 * rng.standard_normal(n)])
        y = base + 0.1 * rng.standard_normal(n)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ols_system_fit(design_of(x, x[:, :2]), y, y[::-1])
        # each equation's design is judged once, and only the first is
        # ill-conditioned
        found = [str(w.message) for w in caught if "condition number" in str(w.message)]
        assert len(found) == 1 and found[0].startswith("equation vehicle_1:")
