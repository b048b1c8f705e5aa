"""Fixed-parameter estimation for the two-equation gap system.

Per-equation OLS, residual covariance with the cross-equation correlation,
and two-step feasible GLS (OLS first, the maximum-likelihood residual
covariance second, one stacked GLS solve weighted by its inverse, _gls,
which msl._exact_ml shares).  All solves go through pivoted QR; nothing
inverts a design matrix explicitly.  An ErrorCovariance is positive definite
by construction; residual_covariance, which divides every cross-product by
N, refuses an estimate that is singular up to rounding.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import block_diag, cholesky, qr, solve_triangular

from .errors import DegenerateDataError, EstimationError, SpecError
from .modelspec import FIXED, RANDOM

_LOG_2PI = np.log(2.0 * np.pi)
# the error covariance's entries in every estimator's parameter layout
SIGMA_NAMES = ("sigma1", "sigma2", "rho")
CONDITION_WARN_THRESHOLD = 1e10
# 1 - rho^2 at or below which an estimated covariance is singular: exactly
# proportional residuals leave 2-6 eps at any n from 2 to 100k, rho = 0.999 2e-3
_MIN_1_MINUS_RHO2 = 1e-12


def _rowdot(x: np.ndarray, coef: np.ndarray) -> np.ndarray:
    # row-wise x_i'b with a fixed, thread-count-independent reduction order
    return (x * coef).sum(axis=1)


@dataclass(frozen=True)
class ErrorCovariance:
    """Bivariate error covariance, positive definite by construction: `low`,
    its lower Cholesky factor, is computed once, and a matrix without one (a
    non-finite entry, a variance <= 0, |rho| >= 1) raises DegenerateDataError."""

    sigma11: float
    sigma22: float
    sigma12: float
    rho: float = field(init=False)
    low: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            low = cholesky(self.matrix, lower=True)
        except ValueError as exc:  # LinAlgError, or a non-finite matrix
            raise DegenerateDataError(f"error covariance {self.matrix.tolist()} is not "
                                      f"positive definite: {exc}") from exc
        rho = self.sigma12 / np.sqrt(self.sigma11 * self.sigma22)
        object.__setattr__(self, "rho", float(np.clip(rho, -1.0, 1.0)))
        object.__setattr__(self, "low", low)

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.sigma11, self.sigma12],
                         [self.sigma12, self.sigma22]])


@dataclass(frozen=True)
class DesignMatrices:
    """The one input of every estimator, checked once: two float matrices
    sharing their rows (one per garage), one name per column, and the
    columns of random-normal coefficients, distinct and increasing."""

    x1: np.ndarray = field(repr=False)
    x2: np.ndarray = field(repr=False)
    names1: tuple[str, ...]
    names2: tuple[str, ...]
    random1: tuple[int, ...] = ()
    random2: tuple[int, ...] = ()
    eq_names: tuple[str, str] = ("vehicle_1", "vehicle_2")

    def __post_init__(self):
        x1, x2 = self.x1, self.x2
        if not all(isinstance(x, np.ndarray) and x.ndim == 2 and x.dtype == float
                   for x in (x1, x2)) or x1.shape[0] != x2.shape[0]:
            raise ValueError("design matrices must be 2-D float arrays that share their rows")
        for eq, (x, names, cols) in enumerate(((x1, self.names1, self.random1),
                                               (x2, self.names2, self.random2))):
            if len(names) != x.shape[1]:
                raise ValueError(f"equation {eq + 1} has {x.shape[1]} columns "
                                 f"but {len(names)} names")
            if list(cols) != sorted(set(cols)) or not all(0 <= c < len(names) for c in cols):
                raise SpecError(f"random columns of equation {eq + 1} must be distinct "
                                f"design indices in increasing order, got {tuple(cols)}")

    @property
    def n(self) -> int:
        return self.x1.shape[0]


@dataclass(frozen=True)
class CoefficientEstimate:
    """One reported coefficient: a fixed value, or a normal (mu, sigma) pair."""

    name: str
    equation: str
    kind: str                     # modelspec.FIXED or RANDOM
    estimate: float               # the fixed value, or the random mean
    se: float | None
    sigma: float | None = None
    sigma_se: float | None = None


@dataclass(frozen=True)
class SureFit:
    """The result of every estimator, built only by layout_fit.

    The parameters follow [coef1 | coef2 | sigma_d ... | sigma1, sigma2, rho]
    (`ols` leaves rho out, so its rho_se is None); param_cov is in that order,
    and every SE is the root of its diagonal entry, or None without it.  A
    closed-form fit has no convergence (msl.Convergence) and one without
    draws no draw_config.
    """

    n: int
    loglik: float
    coefficients: tuple[CoefficientEstimate, ...]
    sigma: ErrorCovariance
    sigma1_se: float | None
    sigma2_se: float | None
    rho_se: float | None
    param_names: tuple[str, ...]
    param_cov: np.ndarray | None = field(repr=False)
    convergence: object | None
    draw_config: object | None

    @property
    def k(self) -> int:
        return len(self.param_names)

    @property
    def random_coefficients(self) -> tuple[CoefficientEstimate, ...]:
        return tuple(c for c in self.coefficients if c.kind == RANDOM)

    def coefficient(self, name: str) -> CoefficientEstimate:
        matches = [c for c in self.coefficients
                   if c.name == name or f"{c.equation}:{c.name}" == name]
        if not matches:
            raise KeyError(f"no coefficient named {name!r}")
        if len(matches) > 1:
            raise KeyError(f"coefficient name {name!r} is ambiguous; qualify with equation")
        return matches[0]


def layout_fit(eq_names: tuple[str, str], names, random, estimates,
               param_cov: np.ndarray | None, *, n: int, loglik: float,
               sigma: ErrorCovariance, sigma_names: tuple[str, ...] = SIGMA_NAMES,
               convergence=None, draw_config=None) -> SureFit:
    """Build a fit in the one parameter layout (see SureFit).

    names and random hold each equation's design column names and its random
    columns (increasing design indices); estimates is [coef1 | coef2 |
    sigma_d ...], the spreads in the order of the random columns, equation 1
    first.  param_cov, when given, covers those parameters and then
    sigma_names.  A coefficient is named "equation:column" and a spread
    "sd:column".
    """
    columns = [(eq, col) for eq in (0, 1) for col in range(len(names[eq]))]
    randoms = [(eq, col) for eq in (0, 1) for col in random[eq]]
    spread = {r: len(columns) + d for d, r in enumerate(randoms)}
    param_names = [f"{eq_names[eq]}:{names[eq][col]}" for eq, col in columns] \
        + [f"sd:{names[eq][col]}" for eq, col in randoms] + list(sigma_names)
    estimates = np.asarray(estimates, dtype=float).tolist()
    se = [None] * len(param_names) if param_cov is None \
        else np.sqrt(np.diag(param_cov)).tolist()
    if len(estimates) != len(columns) + len(randoms) or len(se) != len(param_names):
        raise ValueError("estimates, param_cov and the parameter layout differ in size")
    coefficients = []
    for i, (eq, col) in enumerate(columns):
        d = spread.get((eq, col))
        coefficients.append(CoefficientEstimate(
            name=names[eq][col], equation=eq_names[eq],
            kind=FIXED if d is None else RANDOM,
            estimate=estimates[i], se=se[i],
            sigma=None if d is None else estimates[d],
            sigma_se=None if d is None else se[d]))
    sigma1_se, sigma2_se, rho_se = se[len(estimates):] + [None] * (3 - len(sigma_names))
    return SureFit(n=n, loglik=loglik, coefficients=tuple(coefficients), sigma=sigma,
                   sigma1_se=sigma1_se, sigma2_se=sigma2_se, rho_se=rho_se,
                   param_names=tuple(param_names), param_cov=param_cov,
                   convergence=convergence, draw_config=draw_config)


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
    """Least squares via pivoted QR; returns (beta, r_inv_factor, cond).

    r_inv_factor A satisfies (X'X)^-1 = A A', and cond is the ratio of the
    largest to the smallest |R| diagonal entry.  Rank deficiency raises an
    error naming the offending columns.
    """
    k = x.shape[1]
    q, r, piv = full_rank_qr(x, names)
    diag = np.abs(np.diag(r))
    # (X'X)^-1 = P R^-1 R^-T P' = A A'
    beta, a = np.empty(k), np.empty((k, k))
    beta[piv] = solve_triangular(r, q.T @ y)
    a[piv, :] = solve_triangular(r, np.eye(k))
    return beta, a, diag.max() / diag.min()


def residual_covariance(res1: np.ndarray, res2: np.ndarray) -> ErrorCovariance:
    """Maximum-likelihood cross-equation covariance of two residual vectors:
    every cross-product divided by N.

    The one rule for an estimated covariance: 1 - rho^2 at rounding level (a
    zero residual variance, or perfectly correlated residuals) raises
    EstimationError.
    """
    res1 = np.asarray(res1, dtype=float)
    res2 = np.asarray(res2, dtype=float)
    if res1.shape != res2.shape or res1.size == 0:
        raise ValueError("residual vectors must be non-empty and of equal length")
    n = float(res1.size)
    s11 = float(res1 @ res1) / n
    s22 = float(res2 @ res2) / n
    s12 = float(res1 @ res2) / n
    if not s11 * s22 - s12 * s12 > _MIN_1_MINUS_RHO2 * s11 * s22:
        raise EstimationError("degenerate residual covariance: a residual variance is zero,"
                              " or the residuals are perfectly correlated")
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


def loglik_fixed(x1: np.ndarray, x2: np.ndarray,
                 y1: np.ndarray, y2: np.ndarray,
                 beta1: np.ndarray, beta2: np.ndarray,
                 cov: ErrorCovariance) -> float:
    """Exact Gaussian log-likelihood of the two-equation system."""
    e1 = np.asarray(y1, dtype=float) - _rowdot(np.asarray(x1, dtype=float), beta1)
    e2 = np.asarray(y2, dtype=float) - _rowdot(np.asarray(x2, dtype=float), beta2)
    return float(np.sum(whitened_logpdf(e1, e2, cov.low)[0]))


def _sigma_block_cov(cov: ErrorCovariance, n: int) -> np.ndarray:
    """Asymptotic covariance of (sigma1, sigma2, rho) under normality: the
    delta-method image of that of (sigma11, sigma12, sigma22), in closed form."""
    s1, s2, rho = np.sqrt(cov.sigma11), np.sqrt(cov.sigma22), cov.rho
    r2 = rho * rho
    c = rho * (1.0 - r2)
    return np.array([
        [cov.sigma11, r2 * s1 * s2, c * s1],
        [r2 * s1 * s2, cov.sigma22, c * s2],
        [c * s1, c * s2, 2.0 * (1.0 - r2) ** 2],
    ]) / (2.0 * n)


def _equation_ols(design: DesignMatrices, y1, y2):
    """The one OLS fit of each equation, and the one identification rule.

    Returns (y, residuals, beta, cov, rss / n) per equation, cov the
    classical s^2 (X'X)^-1 with s^2 = RSS / (n - k).  _qr_solve refuses
    collinear columns or fewer rows than columns, and an equation with
    n <= k, or residuals that are zero up to rounding, leaves no residual
    variance, so its error variance and every SE are not identified.  A
    response linear in the design leaves a residual variance of rounding
    noise, at most about (n eps)^2 mean(y^2)."""
    out = []
    for eq, x, y, names in zip(design.eq_names, (design.x1, design.x2), (y1, y2),
                               (design.names1, design.names2)):
        y = np.asarray(y, dtype=float)
        n, k = x.shape
        if len(y) != n:
            raise ValueError(f"X has {n} rows but y has {len(y)}")
        beta, a, cond = _qr_solve(x, y, names)
        residuals = y - _rowdot(x, beta)
        rss = float(residuals @ residuals)
        rounding = (n * np.finfo(float).eps) ** 2 * float(np.mean(y * y))
        if n <= k or rss / n <= rounding:
            raise EstimationError(f"equation {eq} is not identified: no residual "
                                  f"variance is left (n={n} garages, k={k} columns)")
        if cond > CONDITION_WARN_THRESHOLD:
            warnings.warn(f"equation {eq}: design matrix condition number ~{cond:.2e} "
                          f"exceeds {CONDITION_WARN_THRESHOLD:.0e}; estimates may be unstable")
        out.append((y, residuals, beta, rss / (n - k) * (a @ a.T), rss / n))
    return out


def _gls(design: DesignMatrices, y1: np.ndarray, y2: np.ndarray, low: np.ndarray):
    """The one stacked GLS solve: each row pair whitened by low^-1, a (2, 2)
    Cholesky factor or one per row (2, 2, n) as in whitened_logpdf.

    Returns (beta, A, res1, res2) with (Z'Z)^-1 = A A'.  The whitened design
    Z combines the rows of the two designs, which _equation_ols judges, so
    its conditioning is not judged here.
    """
    x1, x2 = design.x1, design.x2
    # low^-1 = [[i11, 0], [i21, i22]]; [..., None] spreads a per-row entry
    i11 = 1.0 / low[0, 0]
    i21 = -low[1, 0] / (low[0, 0] * low[1, 1])
    i22 = 1.0 / low[1, 1]
    z = np.block([[i11[..., None] * x1, np.zeros((design.n, x2.shape[1]))],
                  [i21[..., None] * x1, i22[..., None] * x2]])
    names = tuple(f"{eq}:{c}" for eq, cols in
                  zip(design.eq_names, (design.names1, design.names2)) for c in cols)
    beta, a, _ = _qr_solve(z, np.concatenate([i11 * y1, i21 * y1 + i22 * y2]), names)
    k1 = x1.shape[1]
    return beta, a, y1 - _rowdot(x1, beta[:k1]), y2 - _rowdot(x2, beta[k1:])


def fgls_fit(design: DesignMatrices, y1, y2) -> SureFit:
    """Two-step Zellner FGLS for the bivariate system.

    Step one fits each equation by OLS; step two estimates the error
    covariance from those residuals, each cross-product divided by N, and
    solves the stacked system whitened by its Cholesky inverse (_gls).  The
    reported covariance and correlation are re-estimated from the FGLS
    residuals, and the log-likelihood is the exact Gaussian value at the
    solution.  Both covariance estimates go through residual_covariance,
    which refuses a singular one.  `param_cov` holds the coefficients' GLS
    covariance, then the closed-form covariance of (sigma1, sigma2, rho),
    which is uncorrelated with the coefficients.  The SureFit has no random
    coefficients, draws or convergence record; fit_rp_sure starts from it.
    """
    (y1, ols_res1, *_), (y2, ols_res2, *_) = _equation_ols(design, y1, y2)
    beta, a, res1, res2 = _gls(design, y1, y2, residual_covariance(ols_res1, ols_res2).low)
    sigma = residual_covariance(res1, res2)
    loglik = float(np.sum(whitened_logpdf(res1, res2, sigma.low)[0]))
    # With unit-variance whitened errors the GLS covariance is (Z'Z)^-1.
    param_cov = block_diag(a @ a.T, _sigma_block_cov(sigma, design.n))
    return layout_fit(design.eq_names, (design.names1, design.names2), ((), ()), beta,
                      param_cov, n=design.n, loglik=loglik, sigma=sigma)


def ols_system_fit(design: DesignMatrices, y1, y2) -> SureFit:
    """Equation-by-equation OLS packaged as a system fit.

    The log-likelihood treats the equations as independent Gaussian
    regressions (two variance parameters, no cross covariance), which makes
    this fit the summed pair of univariate models for comparison purposes.
    Its layout is [coef1 | coef2 | sigma1, sigma2]: rho is not estimated.
    """
    (*_, beta1, cov1, s11), (*_, beta2, cov2, s22) = _equation_ols(design, y1, y2)
    n = design.n
    loglik = 0.0
    for sigma2_ml in (s11, s22):
        loglik += -0.5 * n * (_LOG_2PI + np.log(sigma2_ml) + 1.0)

    sigma = ErrorCovariance(sigma11=s11, sigma22=s22, sigma12=0.0)
    param_cov = block_diag(cov1, cov2, _sigma_block_cov(sigma, n)[:2, :2])
    return layout_fit(design.eq_names, (design.names1, design.names2), ((), ()),
                      np.concatenate([beta1, beta2]), param_cov,
                      n=n, loglik=float(loglik), sigma=sigma, sigma_names=SIGMA_NAMES[:2])
