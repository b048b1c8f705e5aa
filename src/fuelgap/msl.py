"""Random-parameter bivariate SUR by maximum simulated likelihood.

Selected coefficients become independent normal random variables across
observations; the likelihood integrates them out by averaging the bivariate
normal density over fixed per-observation Halton draws.  The optimizer works
on an unconstrained vector: each spread as a signed sigma (the likelihood is
even in it, and |sigma| is reported) and the error covariance as a Cholesky
factor with log diagonal, so every iterate maps to a valid model.  The
gradient is the analytic score, computed in the same pass over the draws as
the value.  A fit is "converged" only when the natural-scale score is zero
to within a per-observation tolerance; otherwise it ends "stalled" (no
descent step lowers the objective) or "not converged" (iteration cap).
Standard errors come from the Hessian at the optimum, taken as central
differences of the score, delta-method transformed to the natural scale.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .data import DesignMatrices
from .errors import DegenerateDataError, EstimationError, SpecError
from .halton import DrawStore
from .sure import ErrorCovariance, fgls_fit, whitened_logpdf, _rowdot

_MIN_SIGMA_START = 1e-3
# "converged" iff the natural-scale score's infinity norm is at most
# _GRAD_TOL * N: the smallest gradient a double-precision sum over N
# observations resolves grows with N
_GRAD_TOL = 1e-6
# relative step for differencing the score
_HESSIAN_STEP = 1e-4
# |sigma| / SE at or above which rp_retention_test keeps a coefficient random
_RETENTION_Z = 1.96
# doubles per (rows, draws) temporary of one kernel block
_BLOCK_DOUBLES = 100_000


@dataclass(frozen=True)
class RandomEffect:
    """One random coefficient: design column `column` of equation `equation` (0 or 1)."""

    name: str
    equation: int
    column: int


@dataclass(frozen=True)
class RpParameters:
    """Natural-scale parameter point for the simulated likelihood.

    coef1/coef2 hold every coefficient of each equation, with random
    positions holding their means; sigmas align with the random-effect
    list.  A spread may be signed (only |sigma| matters up to the draws'
    asymmetry); zeros reproduce the fixed-parameter model.
    """

    coef1: np.ndarray
    coef2: np.ndarray
    sigmas: np.ndarray
    cov: ErrorCovariance

    def __post_init__(self):
        object.__setattr__(self, "coef1", np.asarray(self.coef1, dtype=float))
        object.__setattr__(self, "coef2", np.asarray(self.coef2, dtype=float))
        object.__setattr__(self, "sigmas", np.asarray(self.sigmas, dtype=float))
        if not np.isfinite(self.sigmas).all():
            raise ValueError("random-coefficient spreads must be finite")


def effects_from_design(design: DesignMatrices) -> tuple[RandomEffect, ...]:
    """One effect per random design column, equation 1 first, in spec order."""
    effects = []
    for eq, (names, cols) in enumerate(((design.names1, design.random1),
                                        (design.names2, design.random2))):
        for col in cols:
            effects.append(RandomEffect(name=names[col], equation=eq, column=col))
    return tuple(effects)


class LoglikKernel:
    """Simulated log-likelihood and score evaluator with precomputed draw products.

    Observations are evaluated in fixed blocks of about _BLOCK_DOUBLES / R
    rows, so temporaries stay small for any N.  Per-observation values and
    score rows are summed in one fixed order, so results are bit-identical
    for any thread count.
    """

    def __init__(self, x1, x2, y1, y2, effects: tuple[RandomEffect, ...],
                 draws: DrawStore | None, threads: int = 1):
        self.x = (np.asarray(x1, dtype=float), np.asarray(x2, dtype=float))
        self.y = (np.asarray(y1, dtype=float), np.asarray(y2, dtype=float))
        self.effects = tuple(effects)
        self.n = self.x[0].shape[0]
        if self.x[1].shape[0] != self.n or len(y1) != self.n or len(y2) != self.n:
            raise ValueError("design matrices and responses must share rows")
        if threads < 1:
            raise ValueError("threads must be >= 1")
        self.threads = threads
        if self.effects:
            if draws is None:
                raise SpecError("random coefficients declared but no draw store given")
            if draws.n_dims != len(self.effects):
                raise SpecError(f"draw store has {draws.n_dims} dimensions, "
                                f"model has {len(self.effects)} random coefficients")
            if draws.n_obs != self.n:
                raise SpecError(f"draw store covers {draws.n_obs} observations, "
                                f"data has {self.n}")
            r = draws.draws_per_obs
        else:
            r = 1
        # x[:, col] * z[:, :, d] never changes across evaluations
        self.products: tuple[list[tuple[int, np.ndarray]], list[tuple[int, np.ndarray]]] = ([], [])
        for d, effect in enumerate(self.effects):
            p = self.x[effect.equation][:, effect.column][:, None] * draws.z[:, :, d]
            self.products[effect.equation].append((d, p))
        self.log_r = np.log(float(r))
        rows = max(1, _BLOCK_DOUBLES // r)
        self.blocks = [(lo, min(lo + rows, self.n)) for lo in range(0, self.n, rows)]

    def _block(self, params: RpParameters, low: np.ndarray, lo: int, hi: int,
               base: tuple, value: np.ndarray, score: np.ndarray | None) -> None:
        """Fill value[lo:hi], and score[lo:hi] unless it is None.

        The (rows, draws) temporaries are written in place where the float
        operations allow it; a residual of an equation without random
        effects stays (rows, 1) and is broadcast.
        """
        e = []
        for eq in (0, 1):
            resid = base[eq][lo:hi, None]
            for d, p in self.products[eq]:
                term = params.sigmas[d] * p[lo:hi]
                resid = np.subtract(resid, term, out=term)
            e.append(resid)
        lnphi, v1, v2 = whitened_logpdf(e[0], e[1], low)
        # log of the mixture average over draws, computed in log space;
        # w are the draws' mixture weights before division by w_sum
        m = lnphi.max(axis=1)
        w = np.subtract(lnphi, m[:, None], out=lnphi)
        np.exp(w, out=w)
        w_sum = w.sum(axis=1)
        value[lo:hi] = m + np.log(w_sum) - self.log_r
        if score is None:
            return
        # the score is the mixture-weighted draw average of d lnphi / d theta
        # (Train 2009, ch. 10); d lnphi / d e is linear in (v1, v2), so every
        # term is a weighted average of v1 or v2 times something
        l11, l21, l22 = low[0, 0], low[1, 0], low[1, 1]
        wv2 = w * v2
        wv = (np.multiply(w, v1, out=w), wv2)

        def mean(i, b=None):
            return (wv[i].sum(axis=1) if b is None
                    else np.einsum("ij,ij->i", wv[i], b)) / w_sum

        # a2 = -v2/l22 and a1 = -v1/l11 - a2*l21/l11 are d lnphi / d e
        def mean_a2(b=None):
            return mean(1, b) * (-1.0 / l22)

        def mean_a1(a2, b=None):
            return mean(0, b) * (-1.0 / l11) - a2 * (l21 / l11)

        a2 = mean_a2()
        a = (mean_a1(a2), a2)
        out = score[lo:hi]
        col = 0
        for eq in (0, 1):
            k = self.x[eq].shape[1]
            out[:, col:col + k] = self.x[eq][lo:hi] * -a[eq][:, None]
            col += k
        for d, p in self.products[0]:
            b = p[lo:hi]
            out[:, col + d] = -mean_a1(mean_a2(b), b)
        for d, p in self.products[1]:
            out[:, col + d] = -mean_a2(p[lo:hi])
        s12 = mean(0, v2)
        out[:, -3] = mean(0, v1) - (l21 / l22) * s12 - 1.0
        out[:, -2] = s12 / l22
        out[:, -1] = mean(1, v2) - 1.0

    def _evaluate(self, params: RpParameters, with_score: bool
                  ) -> tuple[float, np.ndarray | None]:
        base = (self.y[0] - _rowdot(self.x[0], params.coef1),
                self.y[1] - _rowdot(self.x[1], params.coef2))
        value = np.empty(self.n)
        score = None
        if with_score:
            size = self.x[0].shape[1] + self.x[1].shape[1] + len(self.effects) + 3
            score = np.empty((self.n, size))
        low = params.cov.cholesky_lower()
        if self.threads == 1 or len(self.blocks) == 1:
            for lo, hi in self.blocks:
                self._block(params, low, lo, hi, base, value, score)
        else:
            with ThreadPoolExecutor(max_workers=min(self.threads, len(self.blocks))) as pool:
                for fut in [pool.submit(self._block, params, low, lo, hi, base, value, score)
                            for lo, hi in self.blocks]:
                    fut.result()
        total = float(np.sum(value))
        if not np.isfinite(total):
            raise EstimationError("simulated log-likelihood is not finite "
                                  "(all draws underflowed)")
        return total, None if score is None else score.sum(axis=0)

    def loglik(self, params: RpParameters) -> float:
        return self._evaluate(params, with_score=False)[0]

    def loglik_and_score(self, params: RpParameters) -> tuple[float, np.ndarray]:
        """Log-likelihood and its gradient in the optimizer coordinates.

        The gradient is taken with respect to [coef1, coef2, sigma_d ...,
        log l11, l21, log l22], the layout of _Transform.
        """
        return self._evaluate(params, with_score=True)


def simulated_loglik(params: RpParameters, design: DesignMatrices,
                     y1, y2, draws: DrawStore | None, threads: int = 1) -> float:
    """Simulated log-likelihood at one natural-scale parameter point."""
    effects = effects_from_design(design)
    kernel = LoglikKernel(design.x1, design.x2, y1, y2, effects, draws, threads)
    return kernel.loglik(params)


# ---------------------------------------------------------------------------
# optimizer coordinates


class _Transform:
    """Packing between the optimizer vector and natural-scale parameters.

    Layout: [coef1, coef2, sigma_d ..., log l11, l21, log l22], with each
    spread signed; natural() reports |sigma_d|.
    """

    def __init__(self, k1: int, k2: int, n_effects: int):
        self.k1 = k1
        self.k2 = k2
        self.d = n_effects
        self.size = k1 + k2 + n_effects + 3

    def pack(self, params: RpParameters) -> np.ndarray:
        low = params.cov.cholesky_lower()
        return np.concatenate([
            params.coef1, params.coef2, params.sigmas,
            [np.log(low[0, 0]), low[1, 0], np.log(low[1, 1])],
        ])

    def unpack(self, t: np.ndarray) -> RpParameters:
        k1, k2, d = self.k1, self.k2, self.d
        sigmas = t[k1 + k2:k1 + k2 + d]
        l11 = np.exp(t[-3])
        l21 = t[-2]
        l22 = np.exp(t[-1])
        cov = ErrorCovariance(sigma11=l11 * l11,
                              sigma22=l21 * l21 + l22 * l22,
                              sigma12=l11 * l21)
        return RpParameters(coef1=t[:k1], coef2=t[k1:k1 + k2], sigmas=sigmas, cov=cov)

    def natural(self, t: np.ndarray) -> np.ndarray:
        """Natural-scale vector: [coefs..., sigma_d..., sigma1, sigma2, rho]."""
        k1, k2, d = self.k1, self.k2, self.d
        l11, l21, l22 = np.exp(t[-3]), t[-2], np.exp(t[-1])
        s2 = np.hypot(l21, l22)
        return np.concatenate([
            t[:k1 + k2], np.abs(t[k1 + k2:k1 + k2 + d]),
            [l11, s2, l21 / s2],
        ])

    def jacobian(self, t: np.ndarray) -> np.ndarray:
        """d natural / d t, square and invertible for all finite t."""
        k1, k2, d = self.k1, self.k2, self.d
        j = np.zeros((self.size, self.size))
        j[:k1 + k2, :k1 + k2] = np.eye(k1 + k2)
        for i in range(d):
            # d |sigma| / d sigma, taken as +1 at 0
            j[k1 + k2 + i, k1 + k2 + i] = -1.0 if t[k1 + k2 + i] < 0 else 1.0
        l11, l21, l22 = np.exp(t[-3]), t[-2], np.exp(t[-1])
        s2 = np.hypot(l21, l22)
        j[-3, -3] = l11                              # d sigma1 / d log l11
        j[-2, -2] = l21 / s2                         # d sigma2 / d l21
        j[-2, -1] = l22 * l22 / s2                   # d sigma2 / d log l22
        j[-1, -2] = l22 * l22 / s2 ** 3              # d rho / d l21
        j[-1, -1] = -l21 * l22 * l22 / s2 ** 3       # d rho / d log l22
        return j


def _score_hessian(grad, t: np.ndarray) -> np.ndarray:
    """Central difference of the analytic gradient: 2p gradient calls."""
    h = _HESSIAN_STEP * np.maximum(1.0, np.abs(t))
    hess = np.empty((t.size, t.size))
    for j in range(t.size):
        tp = t.copy()
        tm = t.copy()
        tp[j] += h[j]
        tm[j] -= h[j]
        hess[:, j] = (grad(tp) - grad(tm)) / (2.0 * h[j])
    return hess


def _natural_covariance(hess: np.ndarray, jacobian: np.ndarray
                        ) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Delta-method parameter covariance from the objective Hessian.

    Returns (None, None) unless the symmetrized Hessian is finite and
    positive definite (a Cholesky factorization succeeds); the fit is
    still usable, just without SEs.
    """
    hess = 0.5 * (hess + hess.T)
    if not np.isfinite(hess).all():
        return None, None
    try:
        low_inv = np.linalg.inv(np.linalg.cholesky(hess))
    except np.linalg.LinAlgError:
        return None, None
    cov_nat = jacobian @ (low_inv.T @ low_inv) @ jacobian.T
    diag = np.diag(cov_nat)
    if (diag <= 0).any() or not np.isfinite(diag).all():
        return None, None
    return cov_nat, np.sqrt(diag)


@dataclass(frozen=True)
class Convergence:
    status: str                   # "converged", "stalled" or "not converged"
    iterations: int
    grad_norm: float
    loglik_path: tuple[float, ...] = field(repr=False, default=())

    @property
    def converged(self) -> bool:
        return self.status == "converged"


@dataclass(frozen=True)
class CoefficientEstimate:
    """One reported coefficient: a fixed value, or a normal (mu, sigma) pair."""

    name: str
    equation: str
    kind: str                     # "fixed" or "random-normal"
    estimate: float               # the fixed value, or the random mean
    se: float | None
    sigma: float | None = None
    sigma_se: float | None = None


@dataclass(frozen=True)
class RpSureFit:
    """Random-parameter fit on the natural scale, with delta-method SEs."""

    n: int
    k: int
    loglik: float
    coefficients: tuple[CoefficientEstimate, ...]
    sigma: ErrorCovariance
    sigma1_se: float | None
    sigma2_se: float | None
    rho_se: float | None
    param_names: tuple[str, ...]
    param_cov: np.ndarray | None
    convergence: Convergence
    draw_config: object | None = None

    @property
    def random_coefficients(self) -> tuple[CoefficientEstimate, ...]:
        return tuple(c for c in self.coefficients if c.kind == "random-normal")

    def coefficient(self, name: str) -> CoefficientEstimate:
        matches = [c for c in self.coefficients
                   if c.name == name or f"{c.equation}:{c.name}" == name]
        if not matches:
            raise KeyError(f"no coefficient named {name!r}")
        if len(matches) > 1:
            raise KeyError(f"coefficient name {name!r} is ambiguous; qualify with equation")
        return matches[0]


class _BfgsMinimizer:
    """Monotone BFGS with backtracking line search on the transform space."""

    def __init__(self, fun, grad, x0: np.ndarray):
        self.fun = fun
        self.grad = grad
        self.x = x0.copy()
        self.f = fun(self.x)
        self.g = grad(self.x)
        self.h = np.eye(x0.size)
        self.first_update = True
        self.path = [self.f]

    def _line_search(self, direction: np.ndarray) -> tuple[float, float] | None:
        slope = float(self.g @ direction)
        if slope >= 0:
            return None
        step = 1.0
        for _ in range(40):
            f_new = self.fun(self.x + step * direction)
            # a strict decrease too: below the resolution of f, the Armijo
            # test alone accepts steps that leave f unchanged
            if f_new < self.f and f_new <= self.f + 1e-4 * step * slope:
                return step, f_new
            step *= 0.5
        return None

    def step(self) -> bool:
        """One accepted descent step; False when no progress is possible."""
        direction = -self.h @ self.g
        if self.first_update:
            # no curvature information yet: keep the first probe bounded
            scale = np.max(np.abs(direction))
            if scale > 1.0:
                direction = direction / scale
        result = self._line_search(direction)
        if result is None:
            # curvature information went stale; retry once from steepest descent
            self.h = np.eye(self.x.size)
            self.first_update = True
            direction = -self.g
            result = self._line_search(direction)
            if result is None:
                return False
        step, f_new = result
        x_new = self.x + step * direction
        g_new = self.grad(x_new)
        s = x_new - self.x
        yv = g_new - self.g
        ys = float(yv @ s)
        if ys > 1e-10 * np.linalg.norm(s) * np.linalg.norm(yv):
            if self.first_update:
                self.h = (ys / float(yv @ yv)) * np.eye(self.x.size)
                self.first_update = False
            hy = self.h @ yv
            rho = 1.0 / ys
            self.h += (rho * rho * (float(yv @ hy) + ys)) * np.outer(s, s) \
                - rho * (np.outer(hy, s) + np.outer(s, hy))
        self.x, self.f, self.g = x_new, f_new, g_new
        self.path.append(self.f)
        return True


def fit_rp_sure(design: DesignMatrices, y1, y2,
                draws: DrawStore | None = None,
                eq_names: tuple[str, str] = ("vehicle_1", "vehicle_2"),
                *, max_iterations: int = 500, threads: int = 1) -> RpSureFit:
    """Maximize the simulated likelihood by quasi-Newton ascent.

    Starting values come from the FGLS fit (random-coefficient spreads start
    at 0.1 |coefficient|, floored at 1e-3).  The fit stops in one of three
    ways, and only the first is "converged": the natural-scale gradient
    infinity norm falls to _GRAD_TOL * N or below; the line search, retried
    from steepest descent, finds no step that lowers the objective
    ("stalled"); or the iteration cap is hit ("not converged").  The last
    two return the fit instead of raising.
    The line search evaluates the value alone; the search direction uses
    the analytic score.  SEs need a positive-definite Hessian, formed from
    central differences of the score (2p score evaluations).

    Spreads are optimized signed and reported as |sigma|.  The likelihood
    is even in each spread only up to the asymmetry of the Halton draws, so
    a fit that ends on a negative spread reports the log-likelihood at the
    signed point, which can differ from simulated_loglik at the reported
    |sigma| by a few hundredths of a nat (a small share of the simulation
    error itself).
    """
    effects = effects_from_design(design)
    kernel = LoglikKernel(design.x1, design.x2, y1, y2, effects, draws, threads=threads)
    k1, k2 = design.x1.shape[1], design.x2.shape[1]
    transform = _Transform(k1, k2, len(effects))

    start_fit = fgls_fit(design.x1, design.x2, y1, y2,
                         names1=design.names1, names2=design.names2, eq_names=eq_names)
    coef1, coef2 = (eq.coef for eq in start_fit.equations)
    sigmas = [max(0.1 * abs((coef1, coef2)[e.equation][e.column]), _MIN_SIGMA_START)
              for e in effects]
    start = RpParameters(coef1=coef1, coef2=coef2, sigmas=np.array(sigmas),
                         cov=start_fit.sigma)

    def objective(t: np.ndarray) -> float:
        # a trial point whose likelihood underflows is simply rejected by
        # the line search; only the accepted path must stay finite
        try:
            return -kernel.loglik(transform.unpack(t))
        except (EstimationError, DegenerateDataError):
            return float("inf")

    def gradient(t: np.ndarray) -> np.ndarray:
        # the analytic score; NaN where the likelihood underflows, so a
        # Hessian probe there yields no SEs
        try:
            return -kernel.loglik_and_score(transform.unpack(t))[1]
        except (EstimationError, DegenerateDataError):
            return np.full(t.size, np.nan)

    def natural_grad_norm(t: np.ndarray, g: np.ndarray) -> float:
        # g is the transform-space gradient of -loglik; map through J^-T
        g_nat = np.linalg.solve(transform.jacobian(t).T, g)
        return float(np.max(np.abs(g_nat)))

    minimizer = _BfgsMinimizer(objective, gradient, transform.pack(start))
    status = "converged"
    grad_norm = natural_grad_norm(minimizer.x, minimizer.g)
    iterations = 0
    while grad_norm > _GRAD_TOL * kernel.n:
        if iterations >= max_iterations:
            status = "not converged"
            break
        if not minimizer.step():
            status = "stalled"
            break
        iterations += 1
        grad_norm = natural_grad_norm(minimizer.x, minimizer.g)

    t_hat = minimizer.x
    params = transform.unpack(t_hat)
    loglik = -minimizer.f
    natural = transform.natural(t_hat)

    hess = _score_hessian(gradient, t_hat)
    param_cov, ses = _natural_covariance(hess, transform.jacobian(t_hat))

    def se_at(i: int) -> float | None:
        return None if ses is None else float(ses[i])

    names = []
    coefficients = []
    random_positions = {(e.equation, e.column): k1 + k2 + d for d, e in enumerate(effects)}
    offset = 0
    for eq, (eq_design_names, coefs) in enumerate(
            ((design.names1, params.coef1), (design.names2, params.coef2))):
        for col, coef_name in enumerate(eq_design_names):
            idx = offset + col
            names.append(f"{eq_names[eq]}:{coef_name}")
            spread_idx = random_positions.get((eq, col))
            if spread_idx is None:
                coefficients.append(CoefficientEstimate(
                    name=coef_name, equation=eq_names[eq], kind="fixed",
                    estimate=float(coefs[col]), se=se_at(idx)))
            else:
                coefficients.append(CoefficientEstimate(
                    name=coef_name, equation=eq_names[eq], kind="random-normal",
                    estimate=float(coefs[col]), se=se_at(idx),
                    sigma=float(natural[spread_idx]), sigma_se=se_at(spread_idx)))
        offset += len(eq_design_names)
    names.extend(f"sd:{e.name}" for e in effects)
    names.extend(["sigma1", "sigma2", "rho"])

    return RpSureFit(
        n=kernel.n,
        k=transform.size,
        loglik=loglik,
        coefficients=tuple(coefficients),
        sigma=params.cov,
        sigma1_se=se_at(transform.size - 3),
        sigma2_se=se_at(transform.size - 2),
        rho_se=se_at(transform.size - 1),
        param_names=tuple(names),
        param_cov=param_cov,
        convergence=Convergence(status=status, iterations=iterations,
                                grad_norm=grad_norm,
                                loglik_path=tuple(-f for f in minimizer.path)),
        draw_config=None if draws is None else draws.config,
    )


@dataclass(frozen=True)
class RetentionVerdict:
    verdict: str            # "retain-random" | "prefer-fixed" | "indeterminate"
    mean_t: float | None
    sigma_t: float | None


def rp_retention_test(fit: RpSureFit, name: str) -> RetentionVerdict:
    """Keep a coefficient random iff its spread is statistically significant.

    A significant spread retains the coefficient whether or not the mean is
    also significant (a zero mean with real spread still signals
    heterogeneity); the _RETENTION_Z comparison is inclusive.
    """
    coef = fit.coefficient(name)
    if coef.kind != "random-normal":
        raise SpecError(f"coefficient {name!r} is not random in this fit")
    mean_t = None
    if coef.se not in (None, 0.0):
        mean_t = coef.estimate / coef.se
    if coef.sigma_se in (None, 0.0):
        return RetentionVerdict(verdict="indeterminate", mean_t=mean_t, sigma_t=None)
    sigma_t = coef.sigma / coef.sigma_se
    verdict = "retain-random" if abs(sigma_t) >= _RETENTION_Z else "prefer-fixed"
    return RetentionVerdict(verdict=verdict, mean_t=mean_t, sigma_t=sigma_t)
