"""Fixed-parameter estimation for the two-equation gap system.

Per-equation OLS, residual covariance with the cross-equation correlation,
and two-step feasible GLS (OLS first, residual covariance second, one stacked
GLS solve weighted by its inverse).  All solves go through orthogonal
decompositions; nothing inverts a design matrix explicitly.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cholesky, qr, solve_triangular

from .errors import DegenerateDataError, EstimationError

_LOG_2PI = np.log(2.0 * np.pi)
CONDITION_WARN_THRESHOLD = 1e10


def _rowdot(x: np.ndarray, coef: np.ndarray) -> np.ndarray:
    # row-wise x_i'b with a fixed, thread-count-independent reduction order
    return (x * coef).sum(axis=1)


@dataclass(frozen=True)
class ErrorCovariance:
    """Bivariate error covariance with its implied correlation."""

    sigma11: float
    sigma22: float
    sigma12: float
    rho: float = field(init=False)

    def __post_init__(self):
        if self.sigma11 <= 0 or self.sigma22 <= 0:
            raise DegenerateDataError(
                f"error variances must be positive, got {self.sigma11}, {self.sigma22}")
        rho = self.sigma12 / np.sqrt(self.sigma11 * self.sigma22)
        if abs(rho) > 1.0 + 1e-12:
            raise DegenerateDataError(f"covariance is not PSD (rho={rho})")
        object.__setattr__(self, "rho", float(np.clip(rho, -1.0, 1.0)))

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.sigma11, self.sigma12],
                         [self.sigma12, self.sigma22]])

    def cholesky_lower(self) -> np.ndarray:
        """Lower Cholesky factor; raises if the matrix is only semi-definite."""
        try:
            return cholesky(self.matrix, lower=True)
        except ValueError as exc:  # LinAlgError, or a non-finite matrix
            raise EstimationError(f"covariance not positive definite: {exc}") from exc


@dataclass(frozen=True)
class EquationFit:
    """Coefficients of one equation, aligned with their names."""

    name: str
    coef_names: tuple[str, ...]
    coef: np.ndarray
    se: np.ndarray

    def __post_init__(self):
        if not (len(self.coef_names) == self.coef.size == self.se.size):
            raise ValueError("coefficient, SE and name lengths differ")


@dataclass(frozen=True)
class SureFit:
    """Result of a fixed-parameter system fit.

    `k` counts every estimated quantity: all coefficients plus the error
    covariance parameters (3 for the full bivariate matrix, 2 when the
    equations are fit independently).  `param_cov` is the k x k parameter
    covariance in the order given by `param_names`.
    """

    n: int
    k: int
    loglik: float
    equations: tuple[EquationFit, EquationFit]
    # None only for a degenerate perfect-interpolation fit
    sigma: ErrorCovariance | None
    param_names: tuple[str, ...]
    param_cov: np.ndarray | None = field(repr=False, default=None)


@dataclass(frozen=True)
class OlsFit:
    beta: np.ndarray
    residuals: np.ndarray
    se: np.ndarray
    cov: np.ndarray          # classical s^2 (X'X)^-1
    sigma2_ml: float         # RSS / N


def _check_design(x: np.ndarray, names: tuple[str, ...] | None) -> tuple[str, ...]:
    x = np.asarray(x)
    if x.ndim != 2:
        raise ValueError("design matrix must be 2-dimensional")
    n, k = x.shape
    if names is None:
        names = tuple(f"x{j}" for j in range(k))
    if len(names) != k:
        raise ValueError("one name per design column is required")
    return names


def full_rank_qr(x: np.ndarray, names: tuple[str, ...]):
    """Pivoted economic QR of a design matrix that must have full column rank.

    Returns (q, r, piv).  A design with no columns, with fewer rows than
    columns, or with an R diagonal entry at or below
    max|diag R| * max(n, k) * eps, raises an error; a rank-deficient one
    names the collinear columns (all of them when the matrix is zero).
    """
    n, k = x.shape
    if k == 0:
        raise EstimationError("design matrix has no columns")
    if n < k:
        raise EstimationError(f"design matrix has fewer rows ({n}) than columns ({k})")
    q, r, piv = qr(x, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    top = diag.max()
    bad = diag <= top * max(x.shape) * np.finfo(float).eps
    if top == 0.0 or bad.any():
        collinear = [names[j] for j in piv[bad]] if top > 0 else list(names)
        raise EstimationError(f"design matrix is rank deficient; collinear columns: {collinear}")
    return q, r, piv


def _qr_solve(x: np.ndarray, y: np.ndarray, names: tuple[str, ...]):
    """Least squares via pivoted QR; returns (beta, r_inv_factor).

    r_inv_factor A satisfies (X'X)^-1 = A A'.  Rank deficiency raises an
    error naming the offending columns.
    """
    k = x.shape[1]
    q, r, piv = full_rank_qr(x, names)
    diag = np.abs(np.diag(r))
    cond = diag.max() / diag.min()
    if cond > CONDITION_WARN_THRESHOLD:
        warnings.warn(f"design matrix condition number ~{cond:.2e} exceeds "
                      f"{CONDITION_WARN_THRESHOLD:.0e}; estimates may be unstable")
    beta_piv = solve_triangular(r, q.T @ y)
    beta = np.empty(k)
    beta[piv] = beta_piv
    # (X'X)^-1 = P R^-1 R^-T P'
    r_inv = solve_triangular(r, np.eye(k))
    a = np.zeros((k, k))
    a[piv, :] = r_inv
    return beta, a


def ols_fit(x: np.ndarray, y: np.ndarray,
            names: tuple[str, ...] | None = None) -> OlsFit:
    """Ordinary least squares with classical standard errors.

    Solves the normal equations through a pivoted QR factorization and
    reports SEs from s^2 (X'X)^-1 with s^2 = RSS / (N - k).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    names = _check_design(x, names)
    n, k = x.shape
    if len(y) != n:
        raise ValueError(f"X has {n} rows but y has {len(y)}")
    if n < k:
        raise DegenerateDataError(f"need at least as many observations as parameters (N={n}, k={k})")
    beta, a = _qr_solve(x, y, names)
    residuals = y - _rowdot(x, beta)
    rss = float(residuals @ residuals)
    if n > k:
        s2 = rss / (n - k)
        cov = s2 * (a @ a.T)
        se = np.sqrt(np.diag(cov))
    else:
        # exact interpolation: classical SEs are undefined
        cov = np.full((k, k), np.nan)
        se = np.full(k, np.nan)
    return OlsFit(beta=beta, residuals=residuals, se=se, cov=cov, sigma2_ml=rss / n)


def residual_covariance(res1: np.ndarray, res2: np.ndarray,
                        denominator: str = "ml",
                        k1: int = 0, k2: int = 0) -> ErrorCovariance:
    """Cross-equation covariance of two residual vectors.

    The default "ml" denominator divides every product by N; "dof" divides
    sigma_ab by sqrt((N - k_a)(N - k_b)) instead.
    """
    res1 = np.asarray(res1, dtype=float)
    res2 = np.asarray(res2, dtype=float)
    if res1.shape != res2.shape:
        raise ValueError("residual vectors must have equal length")
    n = res1.size
    if n < 2:
        raise DegenerateDataError("need at least 2 observations for a residual covariance")
    if denominator == "ml":
        d11 = d22 = d12 = float(n)
    elif denominator == "dof":
        d11, d22 = float(n - k1), float(n - k2)
        d12 = float(np.sqrt((n - k1) * (n - k2)))
    else:
        raise ValueError(f"unknown denominator {denominator!r}")
    s11 = float(res1 @ res1) / d11
    s22 = float(res2 @ res2) / d22
    s12 = float(res1 @ res2) / d12
    if s11 <= 0 or s22 <= 0:
        raise DegenerateDataError("degenerate series: residual variance is zero")
    return ErrorCovariance(sigma11=s11, sigma22=s22, sigma12=s12)


def whitened_logpdf(e1, e2, low: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Log density of centred bivariate normal pairs, with their whitened form.

    `low` is the lower Cholesky factor of the covariance; e1 and e2 are
    broadcast elementwise.  Returns (logpdf, v1, v2) with v1 = e1 / l11 and
    v2 = (e2 - l21 v1) / l22, the residuals whitened by low^-1.
    """
    l11, l21, l22 = low[0, 0], low[1, 0], low[1, 1]
    v1 = e1 / l11
    v2 = e2 - l21 * v1
    v2 /= l22
    # v2 has the broadcast shape of e1 and e2, v1 only that of e1; the
    # in-place steps keep the float operations of
    # -_LOG_2PI - log(l11 l22) - 0.5 (v1 v1 + v2 v2), so the bits are equal
    lnphi = v2 * v2
    lnphi += v1 * v1
    lnphi *= 0.5
    return np.subtract(-_LOG_2PI - np.log(l11 * l22), lnphi, out=lnphi), v1, v2


def bivariate_normal_logpdf(e1: np.ndarray, e2: np.ndarray,
                            cov: ErrorCovariance) -> np.ndarray:
    """Elementwise log density of centred bivariate normal residual pairs."""
    return whitened_logpdf(e1, e2, cov.cholesky_lower())[0]


def loglik_fixed(x1: np.ndarray, x2: np.ndarray,
                 y1: np.ndarray, y2: np.ndarray,
                 beta1: np.ndarray, beta2: np.ndarray,
                 cov: ErrorCovariance) -> float:
    """Exact Gaussian log-likelihood of the two-equation system."""
    e1 = np.asarray(y1, dtype=float) - _rowdot(np.asarray(x1, dtype=float), beta1)
    e2 = np.asarray(y2, dtype=float) - _rowdot(np.asarray(x2, dtype=float), beta2)
    return float(np.sum(bivariate_normal_logpdf(e1, e2, cov)))


def _sigma_block_cov(cov: ErrorCovariance, n: int) -> np.ndarray:
    """Asymptotic covariance of (sigma11, sigma12, sigma22) under normality."""
    s11, s12, s22 = cov.sigma11, cov.sigma12, cov.sigma22
    return np.array([
        [2 * s11 * s11, 2 * s11 * s12, 2 * s12 * s12],
        [2 * s11 * s12, s11 * s22 + s12 * s12, 2 * s12 * s22],
        [2 * s12 * s12, 2 * s12 * s22, 2 * s22 * s22],
    ]) / n


def _equation_ols(x1, x2, y1, y2, names1, names2):
    """(x, y, names, OLS fit) of each equation, both checked to share rows."""
    xs = (np.asarray(x1, dtype=float), np.asarray(x2, dtype=float))
    ys = (np.asarray(y1, dtype=float), np.asarray(y2, dtype=float))
    names = (_check_design(xs[0], names1), _check_design(xs[1], names2))
    n = xs[0].shape[0]
    if xs[1].shape[0] != n or len(ys[0]) != n or len(ys[1]) != n:
        raise ValueError("both equations must cover the same observations")
    return tuple((x, y, nm, ols_fit(x, y, nm)) for x, y, nm in zip(xs, ys, names))


def fgls_fit(x1: np.ndarray, x2: np.ndarray,
             y1: np.ndarray, y2: np.ndarray,
             names1: tuple[str, ...] | None = None,
             names2: tuple[str, ...] | None = None,
             eq_names: tuple[str, str] = ("vehicle_1", "vehicle_2"),
             cov_denominator: str = "ml") -> SureFit:
    """Two-step Zellner FGLS for the bivariate system.

    Step one fits each equation by OLS; step two estimates the error
    covariance from those residuals and solves the stacked system whitened
    by its Cholesky inverse.  The reported covariance and correlation are
    re-estimated from the FGLS residuals, and the log-likelihood is the
    exact Gaussian value at the solution.
    """
    (x1, y1, names1, ols1), (x2, y2, names2, ols2) = \
        _equation_ols(x1, x2, y1, y2, names1, names2)
    n = x1.shape[0]
    k1, k2 = x1.shape[1], x2.shape[1]
    try:
        step1 = residual_covariance(ols1.residuals, ols2.residuals,
                                    denominator=cov_denominator, k1=k1, k2=k2)
        low = step1.cholesky_lower()
    except (DegenerateDataError, EstimationError) as exc:
        raise EstimationError(f"degenerate residual covariance: {exc}") from exc
    if abs(step1.rho) >= 1.0:
        raise EstimationError("degenerate residual covariance: |rho| = 1")

    # Whiten each observation's residual pair by L^-1 and stack into a
    # single least-squares problem over (beta1, beta2).
    inv00 = 1.0 / low[0, 0]
    inv10 = -low[1, 0] / (low[0, 0] * low[1, 1])
    inv11 = 1.0 / low[1, 1]
    zeros1 = np.zeros((n, k2))
    zt = np.vstack([
        np.hstack([inv00 * x1, zeros1]),
        np.hstack([inv10 * x1, inv11 * x2]),
    ])
    yt = np.concatenate([inv00 * y1, inv10 * y1 + inv11 * y2])
    stacked_names = tuple(f"{eq_names[0]}:{c}" for c in names1) + \
        tuple(f"{eq_names[1]}:{c}" for c in names2)
    beta, a = _qr_solve(zt, yt, stacked_names)
    # With unit-variance whitened errors the GLS covariance is (Z'Z)^-1.
    coef_cov = a @ a.T
    beta1, beta2 = beta[:k1], beta[k1:]

    res1 = y1 - _rowdot(x1, beta1)
    res2 = y2 - _rowdot(x2, beta2)
    sigma = residual_covariance(res1, res2, denominator="ml")
    loglik = float(np.sum(bivariate_normal_logpdf(res1, res2, sigma)))

    k = k1 + k2 + 3
    param_cov = np.zeros((k, k))
    param_cov[:k1 + k2, :k1 + k2] = coef_cov
    param_cov[k1 + k2:, k1 + k2:] = _sigma_block_cov(sigma, n)
    param_names = stacked_names + ("sigma11", "sigma12", "sigma22")
    se = np.sqrt(np.diag(coef_cov))
    return SureFit(
        n=n,
        k=k,
        loglik=loglik,
        equations=(
            EquationFit(eq_names[0], names1, beta1, se[:k1]),
            EquationFit(eq_names[1], names2, beta2, se[k1:]),
        ),
        sigma=sigma,
        param_names=param_names,
        param_cov=param_cov,
    )


def ols_system_fit(x1: np.ndarray, x2: np.ndarray,
                   y1: np.ndarray, y2: np.ndarray,
                   names1: tuple[str, ...] | None = None,
                   names2: tuple[str, ...] | None = None,
                   eq_names: tuple[str, str] = ("vehicle_1", "vehicle_2")) -> SureFit:
    """Equation-by-equation OLS packaged as a system fit.

    The log-likelihood treats the equations as independent Gaussian
    regressions (two variance parameters, no cross covariance), which makes
    this fit the summed pair of univariate models for comparison purposes.
    """
    (x1, _, names1, ols1), (x2, _, names2, ols2) = \
        _equation_ols(x1, x2, y1, y2, names1, names2)
    n = x1.shape[0]
    k1, k2 = x1.shape[1], x2.shape[1]
    k = k1 + k2 + 2
    equations = (EquationFit(eq_names[0], names1, ols1.beta, ols1.se),
                 EquationFit(eq_names[1], names2, ols2.beta, ols2.se))
    if ols1.sigma2_ml <= 0 or ols2.sigma2_ml <= 0:
        # perfect interpolation: coefficients are exact, likelihood unbounded
        return SureFit(n=n, k=k, loglik=float("inf"), equations=equations,
                       sigma=None, param_names=(), param_cov=None)
    loglik = 0.0
    for fit in (ols1, ols2):
        loglik += -0.5 * n * (_LOG_2PI + np.log(fit.sigma2_ml) + 1.0)

    sigma = ErrorCovariance(sigma11=ols1.sigma2_ml, sigma22=ols2.sigma2_ml, sigma12=0.0)
    param_cov = np.zeros((k, k))
    param_cov[:k1, :k1] = ols1.cov
    param_cov[k1:k1 + k2, k1:k1 + k2] = ols2.cov
    param_cov[k1 + k2, k1 + k2] = 2 * ols1.sigma2_ml ** 2 / n
    param_cov[k1 + k2 + 1, k1 + k2 + 1] = 2 * ols2.sigma2_ml ** 2 / n
    param_names = tuple(f"{eq_names[0]}:{c}" for c in names1) + \
        tuple(f"{eq_names[1]}:{c}" for c in names2) + ("sigma1_sq", "sigma2_sq")
    return SureFit(
        n=n,
        k=k,
        loglik=float(loglik),
        equations=equations,
        sigma=sigma,
        param_names=param_names,
        param_cov=param_cov,
    )
