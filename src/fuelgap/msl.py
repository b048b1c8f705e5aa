"""Random-parameter bivariate SUR by maximum simulated likelihood.

Selected coefficients become independent normal random variables across
observations; the likelihood integrates them out by averaging the bivariate
normal density over fixed per-observation Halton draws, in log space:
m + log sum exp(ln phi - m) sums at least 1, so it cannot underflow, and it
is non-finite only when ln phi is, when the whitened residuals or the
covariance factor l11 l22 leave double-precision range.  The optimizer works
on an unconstrained vector: each spread as a signed sigma (the likelihood is
even in it, and |sigma| is reported) and the error covariance as a Cholesky
factor with log diagonal, so every iterate maps to a valid model.  Each
point the optimizer tries, line-search trials included, gets its value and
its analytic score from one pass over the draws; the kernel has no
value-only pass.  A fit is "converged" only when the
natural-scale score is zero to within a per-observation tolerance;
otherwise it ends "stalled" (no descent step lowers the objective) or "not
converged" (iteration cap).
Standard errors come from the Hessian at the optimum, delta-method
transformed to the natural scale.  The Hessian is analytic too, formed in
one more pass over the draws: for a simulated log-likelihood it is the
mixture-weighted draw average of (d2 ln phi + g g') less the outer product
of the score (Train 2009, Discrete Choice Methods with Simulation, ch. 10),
and d2 ln phi is closed form for this linear-normal kernel.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateDataError, EstimationError, SpecError
from .halton import DrawStore
from .modelspec import RANDOM
from .sure import (DesignMatrices, ErrorCovariance, SureFit, fgls_fit, full_rank_qr,
                   layout_fit, whitened_logpdf, _rowdot)

_MIN_SIGMA_START = 1e-3
# "converged" iff the natural-scale score's infinity norm is at most
# _GRAD_TOL * N: the smallest gradient a double-precision sum over N
# observations resolves grows with N
_GRAD_TOL = 1e-6
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
    """One effect per random design column, equation 1 first, in design order."""
    return tuple(RandomEffect(name=names[col], equation=eq, column=col)
                 for eq, (names, cols) in enumerate(((design.names1, design.random1),
                                                     (design.names2, design.random2)))
                 for col in cols)


class LoglikKernel:
    """Simulated log-likelihood, score and Hessian evaluator with precomputed
    draw products.

    Observations are evaluated in fixed blocks of about _BLOCK_DOUBLES / R
    rows, so temporaries stay small for any N, in at most `threads`
    contiguous runs of blocks: the first on the calling thread, the others
    on a pool that lives as long as the kernel.  Per-block results are
    summed in block order, so they are bit-identical for any thread count.
    """

    def __init__(self, design: DesignMatrices, y1, y2, draws: DrawStore | None,
                 threads: int = 1):
        self.x = (design.x1, design.x2)
        self.y = (np.asarray(y1, dtype=float), np.asarray(y2, dtype=float))
        self.effects = effects_from_design(design)
        self.n = design.n
        if threads < 1:
            raise ValueError("threads must be >= 1")
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
        self._buffer_shape = (5 + 2 * len(self.effects), min(rows, self.n), r)
        k = max(1, min(threads, len(self.blocks)))
        self._runs = np.array_split(np.arange(len(self.blocks)), k)
        self._pool = ThreadPoolExecutor(k - 1) if k > 1 else None

    # _evaluate raises on a value that is not finite; silenced here, since
    # pool threads do not inherit the caller's np.errstate
    @np.errstate(over="ignore", invalid="ignore")
    def _run(self, run, params, low, base, value, score, hess) -> None:
        """Evaluate a run of blocks in order on this thread, with one Hessian
        buffer: fresh (rows, draws) arrays per block cost more in page
        faults than the arithmetic that fills them."""
        buf = None if hess is None else np.empty(self._buffer_shape)
        for b in run:
            lo, hi = self.blocks[b]
            self._block(params, low, lo, hi, base, value, score,
                        None if hess is None else hess[b], buf)

    def _block(self, params: RpParameters, low: np.ndarray, lo: int, hi: int,
               base: tuple, value: np.ndarray, score: np.ndarray,
               hess: np.ndarray | None, buf: np.ndarray | None) -> None:
        """Fill value[lo:hi], score[lo:hi], and hess with the block's Hessian
        contribution unless it is None (needs buf, the run's Hessian buffer).

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
        # the score is the mixture-weighted draw average of d lnphi / d theta
        # (Train 2009, ch. 10); d lnphi / d e is linear in (v1, v2), so every
        # term is a weighted average of v1 or v2 times something
        l11, l21, l22 = low[0, 0], low[1, 0], low[1, 1]
        wv2 = w * v2
        wv = (np.multiply(w, v1, out=w if hess is None else None), wv2)

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
        m11, m12, m22 = mean(0, v1), mean(0, v2), mean(1, v2)
        out[:, -3] = m11 - (l21 / l22) * m12 - 1.0
        out[:, -2] = m12 / l22
        out[:, -1] = m22 - 1.0
        if hess is not None:
            s_bar = [-a[0], -a[1]] + [out[:, j] for j in range(col, out.shape[1])]
            self._block_hessian(low, lo, hi, w, w_sum, v1, v2, (m11, m12, m22),
                                s_bar, hess, buf)

    def _block_hessian(self, low, lo, hi, w, w_sum, v1, v2, vv, s_bar, hess, buf) -> None:
        """Fill hess with the block's rows of the log-likelihood Hessian.

        Per row this is E[d2 lnphi + g g'] - gbar gbar', E the mixture-weighted
        draw mean (Train 2009, ch. 10).  Each row's matrix is formed in
        reduced coordinates, one per equation residual, spread and Cholesky
        coordinate, and then expanded: an equation's coefficient entries are
        its residual entry times x x' (or x).  Per draw the reduced gradient
        is sign * f with f = (a1, a2, p_d a_eq(d) ..., c11, c21, c22), where
        a = d lnphi / d e and c holds d lnphi / d (log l11, l21, log l22);
        its row mean is s_bar, the score already written.  vv holds the row
        means of v1 v1, v1 v2 and v2 v2.  Only the upper triangle is set.
        w and buf, which holds the draw-level factors, are overwritten.
        """
        l11, l21, l22 = low[0, 0], low[1, 0], low[1, 1]
        n_d = len(self.effects)
        eq = [0, 1] + [e.equation for e in self.effects]
        p = [None] * n_d
        for e in (0, 1):
            for d, prod in self.products[e]:
                p[d] = prod[lo:hi]
        tmp = iter(buf[:, :w.shape[0]])

        def mean(x, y):
            return np.einsum("ij,ij->i", x, y) / w_sum

        # every draw-level factor carries sqrt(w), so the row mean of a
        # product of two is one dot product per row
        sw = np.sqrt(w, out=w)
        v1w = np.multiply(v1, sw, out=next(tmp))
        v2w = np.multiply(v2, sw, out=next(tmp))
        a2 = np.multiply(v2w, -1.0 / l22, out=next(tmp))
        a1 = np.multiply(a2, l21, out=next(tmp))
        a1 += v1w
        a1 *= -1.0 / l11
        a = (a1, a2)
        r = l21 / l22
        c11 = np.multiply(v2, -r, out=next(tmp))
        c11 += v1
        c11 *= v1w
        c11 -= sw
        c21 = np.multiply(v1w, v2, out=v1w)
        c21 *= 1.0 / l22
        c22 = np.multiply(v2w, v2, out=v2w)
        c22 -= sw
        f = [a1, a2] + [np.multiply(p[d], a[eq[2 + d]], out=next(tmp))
                        for d in range(n_d)] + [c11, c21, c22]
        sign = [-1.0] * (2 + n_d) + [1.0] * 3
        wp = [np.multiply(sw, pd, out=next(tmp)) for pd in p]

        # the mean of d2 lnphi: a = d lnphi / d e = -Sigma^-1 e, so the
        # (coefficient, spread) block is -Sigma^-1 times the mean product of
        # the two loadings (x or p_d), and d a / d (log l11, l21, log l22)
        # is -Sigma^-1 (d Sigma) a
        inv_low = np.array([[1.0 / l11, 0.0], [-l21 / (l11 * l22), 1.0 / l22]])
        sinv = inv_low.T @ inv_low
        dlow = np.zeros((3, 2, 2))
        dlow[0, 0, 0], dlow[1, 1, 0], dlow[2, 1, 1] = l11, 1.0, l22
        dsig = dlow @ low.T
        da = -sinv @ (dsig + dsig.transpose(0, 2, 1))
        # row means of a, and of p_d a, that the loadings multiply
        mean_a = [(-s_bar[0], -s_bar[1])] * 2 + [(mean(x, a1), mean(x, a2)) for x in wp]
        h = {}
        for j in range(2 + n_d):
            for k in range(j, 2 + n_d):
                if j >= 2:
                    load = mean(wp[j - 2], wp[k - 2])
                else:
                    load = 1.0 if k < 2 else mean(wp[k - 2], sw)
                h[j, k] = -sinv[eq[j], eq[k]] * load
            for c in range(3):
                h[j, 2 + n_d + c] = -(da[c, eq[j], 0] * mean_a[j][0]
                                      + da[c, eq[j], 1] * mean_a[j][1])
        # second derivatives of lnphi in (log l11, l21, log l22)
        m11, m12, m22 = vv
        for (j, k), val in {(0, 0): r * m12 - (2.0 + r * r) * m11,
                            (0, 1): (r * m11 - m12) / l22, (0, 2): 2.0 * r * m12,
                            (1, 1): -m11 / (l22 * l22), (1, 2): -2.0 * m12 / l22,
                            (2, 2): -2.0 * m22}.items():
            h[2 + n_d + j, 2 + n_d + k] = val

        k1, k2 = self.x[0].shape[1], self.x[1].shape[1]
        x = (self.x[0][lo:hi], self.x[1][lo:hi])
        pos = [slice(0, k1), slice(k1, k1 + k2)] + list(range(k1 + k2, k1 + k2 + n_d + 3))
        for (j, k), hjk in h.items():
            row = hjk + sign[j] * sign[k] * mean(f[j], f[k]) - s_bar[j] * s_bar[k]
            if k < 2:
                hess[pos[j], pos[k]] = np.einsum("i,ik,il->kl", row, x[j], x[k])
            elif j < 2:
                hess[pos[j], pos[k]] = np.einsum("i,ik->k", row, x[j])
            else:
                hess[pos[j], pos[k]] = row.sum()

    def _evaluate(self, params: RpParameters, with_hessian: bool = False
                  ) -> tuple[float, np.ndarray, np.ndarray | None]:
        base = (self.y[0] - _rowdot(self.x[0], params.coef1),
                self.y[1] - _rowdot(self.x[1], params.coef2))
        value = np.empty(self.n)
        size = self.x[0].shape[1] + self.x[1].shape[1] + len(self.effects) + 3
        score = np.empty((self.n, size))
        # one (p, p) slot per block, summed in block order
        hess = np.zeros((len(self.blocks), size, size)) if with_hessian else None
        args = (params, params.cov.low, base, value, score, hess)
        futures = [self._pool.submit(self._run, run, *args) for run in self._runs[1:]]
        try:
            self._run(self._runs[0], *args)
        finally:   # no worker may still be writing when an error propagates
            for future in futures:
                future.result()
        total = float(np.sum(value))
        if not np.isfinite(total):
            raise EstimationError("simulated log-likelihood is not finite: the whitened "
                                  "residuals or the covariance factor l11 l22 left "
                                  "double-precision range")
        if hess is not None:
            upper = np.triu(hess.sum(axis=0))
            hess = upper + np.triu(upper, 1).T
        return total, score.sum(axis=0), hess

    def loglik(self, params: RpParameters) -> tuple[float, np.ndarray]:
        """(log-likelihood, score) from one pass; there is no value-only pass.

        The score is the gradient with respect to [coef1, coef2, sigma_d
        ..., log l11, l21, log l22], the layout of _Transform.
        """
        return self._evaluate(params)[:2]

    def hessian(self, params: RpParameters) -> np.ndarray:
        """Exactly symmetric Hessian of the log-likelihood, in the score's
        layout, from one pass over the draws."""
        return self._evaluate(params, with_hessian=True)[2]


def simulated_loglik(params: RpParameters, design: DesignMatrices,
                     y1, y2, draws: DrawStore | None) -> float:
    """Simulated log-likelihood at one natural-scale parameter point."""
    return LoglikKernel(design, y1, y2, draws).loglik(params)[0]


# ---------------------------------------------------------------------------
# optimizer coordinates


class _Transform:
    """Packing between the optimizer vector and natural-scale parameters.

    Layout: [coef1, coef2, sigma_d ..., log l11, l21, log l22], with each
    spread signed; natural() reports |sigma_d|.
    """

    def __init__(self, k1: int, k2: int, n_effects: int):
        self.k1, self.k2, self.d = k1, k2, n_effects
        self.size = k1 + k2 + n_effects + 3

    def pack(self, params: RpParameters) -> np.ndarray:
        low = params.cov.low
        return np.concatenate([params.coef1, params.coef2, params.sigmas,
                               [np.log(low[0, 0]), low[1, 0], np.log(low[1, 1])]])

    @staticmethod
    def _cholesky(t: np.ndarray) -> tuple[float, float, float]:
        """(l11, l21, l22), the error covariance's Cholesky factor at t."""
        return np.exp(t[-3]), t[-2], np.exp(t[-1])

    @np.errstate(over="ignore", invalid="ignore")   # ErrorCovariance refuses inf and nan
    def unpack(self, t: np.ndarray) -> RpParameters:
        k1, k2, d = self.k1, self.k2, self.d
        l11, l21, l22 = self._cholesky(t)
        cov = ErrorCovariance(sigma11=l11 * l11,
                              sigma22=l21 * l21 + l22 * l22,
                              sigma12=l11 * l21)
        return RpParameters(coef1=t[:k1], coef2=t[k1:k1 + k2],
                            sigmas=t[k1 + k2:k1 + k2 + d], cov=cov)

    def natural(self, t: np.ndarray) -> np.ndarray:
        """Natural-scale vector: [coefs..., sigma_d..., sigma1, sigma2, rho]."""
        k1, k2, d = self.k1, self.k2, self.d
        l11, l21, l22 = self._cholesky(t)
        s2 = np.hypot(l21, l22)
        return np.concatenate([t[:k1 + k2], np.abs(t[k1 + k2:k1 + k2 + d]),
                               [l11, s2, l21 / s2]])

    def jacobian(self, t: np.ndarray) -> np.ndarray:
        """d natural / d t, square and invertible for all finite t."""
        k1, k2, d = self.k1, self.k2, self.d
        j = np.zeros((self.size, self.size))
        j[:k1 + k2, :k1 + k2] = np.eye(k1 + k2)
        for i in range(d):
            # d |sigma| / d sigma, taken as +1 at 0
            j[k1 + k2 + i, k1 + k2 + i] = -1.0 if t[k1 + k2 + i] < 0 else 1.0
        l11, l21, l22 = self._cholesky(t)
        s2 = np.hypot(l21, l22)
        j[-3, -3] = l11                              # d sigma1 / d log l11
        j[-2, -2] = l21 / s2                         # d sigma2 / d l21
        j[-2, -1] = l22 * l22 / s2                   # d sigma2 / d log l22
        j[-1, -2] = l22 * l22 / s2 ** 3              # d rho / d l21
        j[-1, -1] = -l21 * l22 * l22 / s2 ** 3       # d rho / d log l22
        return j


def _natural_covariance(hess: np.ndarray, jacobian: np.ndarray) -> np.ndarray | None:
    """Delta-method parameter covariance from the symmetric objective Hessian.

    Returns None unless the Hessian is finite and positive definite (a
    Cholesky factorization succeeds) and the covariance has a positive,
    finite diagonal; the fit is still usable, just without SEs.
    """
    if not np.isfinite(hess).all():
        return None
    try:
        low_inv = np.linalg.inv(np.linalg.cholesky(hess))
    except np.linalg.LinAlgError:
        return None
    cov_nat = jacobian @ (low_inv.T @ low_inv) @ jacobian.T
    diag = np.diag(cov_nat)
    if (diag <= 0).any() or not np.isfinite(diag).all():
        return None
    return cov_nat


@dataclass(frozen=True)
class Convergence:
    status: str                   # "converged", "stalled" or "not converged"
    iterations: int
    grad_norm: float
    loglik_path: tuple[float, ...] = field(repr=False, default=())

    @property
    def converged(self) -> bool:
        return self.status == "converged"


class _BfgsMinimizer:
    """Monotone BFGS with backtracking line search on the transform space.

    evaluate(x) returns (f, g), the objective and its gradient from one
    pass.  Every line-search trial is evaluated that way, so the accepted
    trial's gradient is already at hand for the update and the next step.
    """

    def __init__(self, evaluate, x0: np.ndarray):
        self.evaluate = evaluate
        self.x = x0.copy()
        self.f, self.g = evaluate(self.x)
        self.h = np.eye(x0.size)
        self.first_update = True
        self.path = [self.f]

    def _line_search(self, direction: np.ndarray
                     ) -> tuple[np.ndarray, float, np.ndarray] | None:
        """(x, f, g) at the first accepted trial point, or None."""
        slope = float(self.g @ direction)
        if slope >= 0:
            return None
        step = 1.0
        for _ in range(40):
            x_new = self.x + step * direction
            f_new, g_new = self.evaluate(x_new)
            # a strict decrease too: below the resolution of f, the Armijo
            # test alone accepts steps that leave f unchanged
            if f_new < self.f and f_new <= self.f + 1e-4 * step * slope:
                return x_new, f_new, g_new
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
            result = self._line_search(-self.g)
            if result is None:
                return False
        x_new, f_new, g_new = result
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


def _check_spreads_identified(design: DesignMatrices) -> None:
    """With one observation per garage, equation e's variance is sigma_e^2 +
    sum_d sigma_d^2 x_d^2, so its spreads are identified only if
    [1 | x_d^2 for each random d of e] has full column rank."""
    for eq, x, names, cols in zip(design.eq_names, (design.x1, design.x2),
                                  (design.names1, design.names2),
                                  (design.random1, design.random2)):
        if not cols:
            continue
        terms = [names[c] for c in cols]
        try:
            full_rank_qr(np.column_stack([np.ones(design.n), x[:, list(cols)] ** 2]),
                         ("constant", *terms))
        except EstimationError as exc:
            raise SpecError(f"the spreads of random terms {terms} of equation {eq} "
                            f"are not identified: {exc}") from exc


def fit_rp_sure(design: DesignMatrices, y1, y2, draws: DrawStore | None = None,
                *, max_iterations: int = 500, threads: int = 1) -> SureFit:
    """Maximize the simulated likelihood by quasi-Newton ascent.

    Returns a SureFit (see sure.layout_fit) with delta-method SEs and the
    Convergence record; with no random terms it is the FGLS model by ML.
    Spreads the data cannot identify are refused (SpecError).

    Starting values come from the FGLS fit (random-coefficient spreads start
    at 0.1 |coefficient|, floored at 1e-3).  The fit stops in one of three
    ways, and only the first is "converged": the natural-scale gradient
    infinity norm falls to _GRAD_TOL * N or below; the line search, retried
    from steepest descent, finds no step that lowers the objective
    ("stalled"); or the iteration cap is hit ("not converged").  The last
    two return the fit instead of raising.
    Every line-search trial gets its value and analytic score from one
    kernel pass, and the accepted trial's score is the next step's gradient.
    SEs need a positive-definite Hessian, the analytic one from a single
    kernel pass at the optimum (LoglikKernel.hessian).

    Spreads are optimized signed and reported as |sigma|.  The likelihood
    is even in each spread only up to the asymmetry of the Halton draws, so
    a fit that ends on a negative spread reports the log-likelihood at the
    signed point, which can differ from simulated_loglik at the reported
    |sigma|.  Flipping one spread's sign moved the value by up to 1.07 nats
    at R=400 on the criterion-5 model (N=2000, 2 random coefficients), and
    by 0 to 0.21 nats on zero-spread data (N=1500, R=100, seeds 61-72).
    """
    start_fit = fgls_fit(design, y1, y2)   # refuses a rank-deficient design first
    _check_spreads_identified(design)
    kernel = LoglikKernel(design, y1, y2, draws, threads=threads)
    effects = kernel.effects
    k1, k2 = design.x1.shape[1], design.x2.shape[1]
    transform = _Transform(k1, k2, len(effects))

    coef = np.array([c.estimate for c in start_fit.coefficients])
    coef1, coef2 = coef[:k1], coef[k1:]
    sigmas = [max(0.1 * abs((coef1, coef2)[e.equation][e.column]), _MIN_SIGMA_START)
              for e in effects]
    start = RpParameters(coef1=coef1, coef2=coef2, sigmas=np.array(sigmas),
                         cov=start_fit.sigma)

    def guarded(evaluate, fallback):
        # a trial point whose likelihood is not finite (its residuals or
        # covariance beyond double range) is simply rejected by the line
        # search; only the accepted path must stay finite
        def at(t: np.ndarray):
            try:
                return evaluate(transform.unpack(t))
            except (EstimationError, DegenerateDataError):
                return fallback
        return at

    size = transform.size
    objective = guarded(lambda p: tuple(-x for x in kernel.loglik(p)),
                        (float("inf"), np.full(size, np.nan)))
    # at t_hat a non-finite likelihood leaves the fit without SEs
    hessian = guarded(lambda p: -kernel.hessian(p), np.full((size, size), np.nan))

    def natural_grad_norm(t: np.ndarray, g: np.ndarray) -> float:
        # g is the transform-space gradient of -loglik; map through J^-T
        g_nat = np.linalg.solve(transform.jacobian(t).T, g)
        return float(np.max(np.abs(g_nat)))

    minimizer = _BfgsMinimizer(objective, transform.pack(start))
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
    return layout_fit(
        design.eq_names, (design.names1, design.names2), (design.random1, design.random2),
        transform.natural(t_hat)[:-3],
        _natural_covariance(hessian(t_hat), transform.jacobian(t_hat)),
        n=kernel.n, loglik=-minimizer.f, sigma=transform.unpack(t_hat).cov,
        convergence=Convergence(status=status, iterations=iterations, grad_norm=grad_norm,
                                loglik_path=tuple(-f for f in minimizer.path)),
        draw_config=None if draws is None else draws.config)


@dataclass(frozen=True)
class RetentionVerdict:
    verdict: str            # "retain-random" | "prefer-fixed" | "indeterminate"
    mean_t: float | None
    sigma_t: float | None


def rp_retention_test(fit: SureFit, name: str) -> RetentionVerdict:
    """Keep a coefficient random iff its spread is statistically significant.

    A significant spread retains the coefficient whether or not the mean is
    also significant (a zero mean with real spread still signals
    heterogeneity); the _RETENTION_Z comparison is inclusive.
    """
    coef = fit.coefficient(name)
    if coef.kind != RANDOM:
        raise SpecError(f"coefficient {name!r} is not random in this fit")
    mean_t = None
    if coef.se not in (None, 0.0):
        mean_t = coef.estimate / coef.se
    if coef.sigma_se in (None, 0.0):
        return RetentionVerdict(verdict="indeterminate", mean_t=mean_t, sigma_t=None)
    sigma_t = coef.sigma / coef.sigma_se
    verdict = "retain-random" if abs(sigma_t) >= _RETENTION_Z else "prefer-fixed"
    return RetentionVerdict(verdict=verdict, mean_t=mean_t, sigma_t=sigma_t)
