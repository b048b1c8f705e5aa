"""Random-parameter bivariate SUR by maximum simulated likelihood.

Selected coefficients become independent normal random variables across
observations; the likelihood integrates them out by averaging the bivariate
normal density over fixed per-observation Halton draws, in log space:
m + log sum exp(ln phi - m) sums at least 1, so it cannot underflow, and it
is non-finite only when ln phi is, when the whitened residuals or the
covariance factor l11 l22 leave double-precision range.
The fit has two stages.  For normal mixing the marginal likelihood is
closed form, so stage 1 maximizes it exactly by Fisher scoring (_exact_ml);
the simulated optimum lies within simulation error of that point.  Stage 2
takes Newton steps on the simulated likelihood from there, with the
kernel's analytic Hessian, on the unconstrained vector of
sure.ParameterLayout, so every iterate maps to a valid model.  Each point
the line search tries gets its value and its analytic score from one pass
over the draws; the kernel has no value-only pass.  A fit is "converged"
only when -H is positive definite and the Newton decrement g'(-H)^-1 g is
below a fixed tolerance in nats, a rule that does not depend on the
covariates' units; otherwise it ends "stalled" (no step raises the
likelihood) or "not converged" (step cap).
Standard errors come from the Hessian at the last point, the one the stop
rule read, delta-method transformed to the natural scale.  The Hessian is
analytic too, formed in one pass over the draws: for a simulated
log-likelihood it is the mixture-weighted draw average of (d2 ln phi + g g')
less the outer product of the score (Train 2009, Discrete Choice Methods
with Simulation, ch. 10), and d2 ln phi is closed form for this
linear-normal kernel.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateDataError, EstimationError, SpecError
from .halton import DrawStore, check_lower_bound
from .modelspec import RANDOM
from . import sure
from .sure import (DesignMatrices, ErrorCovariance, RpParameters, SureFit, fgls_fit,
                   full_rank_qr, layout_fit, whitened_logpdf, _gls, _rowdot)

# stage 1 stops once the Fisher-scoring step predicts a gain of at most
# _EXACT_TOL / 2 nats, or after _EXACT_MAX_STEPS steps
_EXACT_TOL = 1e-10
_EXACT_MAX_STEPS = 100
# "converged" iff -H is positive definite and the Newton decrement
# g'(-H)^-1 g is at most _NEWTON_TOL nats (Train 2009, s. 8.6); it does not
# change with the covariates' units
_NEWTON_TOL = 1e-6
# |sigma| / SE at or above which rp_retention_test keeps a coefficient random
_RETENTION_Z = 1.96
# doubles per (rows, draws) temporary of one kernel block
_BLOCK_DOUBLES = 100_000
# the order of the random terms, which the demos and the benchmark import from here
effects_from_design = sure.effects_from_design


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
        self.layout = design.layout
        effects = self.layout.effects
        self.n = design.n
        check_lower_bound("threads", threads)
        if effects:
            if draws is None:
                raise SpecError("random coefficients declared but no draw store given")
            if draws.n_dims != len(effects):
                raise SpecError(f"draw store has {draws.n_dims} dimensions, "
                                f"model has {len(effects)} random coefficients")
            if draws.n_obs != self.n:
                raise SpecError(f"draw store covers {draws.n_obs} observations, "
                                f"data has {self.n}")
        elif draws is not None:
            raise SpecError("draw store given but the model declares no random coefficients")
        r = 1 if draws is None else draws.draws_per_obs
        # x[:, col] * z[:, :, d] never changes across evaluations
        self.products: tuple[list[tuple[int, np.ndarray]], list[tuple[int, np.ndarray]]] = ([], [])
        for d, effect in enumerate(effects):
            p = self.x[effect.equation][:, effect.column][:, None] * draws.z[:, :, d]
            self.products[effect.equation].append((d, p))
        self.log_r = np.log(float(r))
        rows = max(1, _BLOCK_DOUBLES // r)
        self.blocks = [(lo, min(lo + rows, self.n)) for lo in range(0, self.n, rows)]
        self._buffer_shape = (5 + 2 * len(effects), min(rows, self.n), r)
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
        layout, out = self.layout, score[lo:hi]
        for eq in (0, 1):
            out[:, layout.coef[eq]] = self.x[eq][lo:hi] * -a[eq][:, None]
        spread, chol = out[:, layout.spreads], out[:, layout.cov]
        for d, p in self.products[0]:
            b = p[lo:hi]
            spread[:, d] = -mean_a1(mean_a2(b), b)
        for d, p in self.products[1]:
            spread[:, d] = -mean_a2(p[lo:hi])
        m11, m12, m22 = mean(0, v1), mean(0, v2), mean(1, v2)
        chol[:, 0], chol[:, 1], chol[:, 2] = m11 - (l21 / l22) * m12 - 1.0, m12 / l22, m22 - 1.0
        if hess is not None:
            s_bar = [-a[0], -a[1], *spread.T, *chol.T]
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
        n_d = len(self.layout.effects)
        eq = [0, 1] + [e.equation for e in self.layout.effects]
        # the layout orders the spreads equation 1 first, as products holds them
        p = [prod[lo:hi] for products in self.products for _, prod in products]
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
        # the (coefficient, spread) loadings, shared by both equations' rows
        mean_p = [mean(x, sw) for x in wp]
        h = {}
        for j in range(2 + n_d):
            for k in range(j, 2 + n_d):
                if j >= 2:
                    load = mean(wp[j - 2], wp[k - 2])
                else:
                    load = 1.0 if k < 2 else mean_p[k - 2]
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

        x = (self.x[0][lo:hi], self.x[1][lo:hi])
        pos = self.layout.slots
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
        self.layout.check(params)
        base = (self.y[0] - _rowdot(self.x[0], params.coef1),
                self.y[1] - _rowdot(self.x[1], params.coef2))
        value = np.empty(self.n)
        size = self.layout.size
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

        The score is the gradient with respect to the optimizer vector of
        the design's ParameterLayout; a point whose blocks do not match that
        layout raises ValueError.
        """
        return self._evaluate(params)[:2]

    def hessian(self, params: RpParameters) -> tuple[float, np.ndarray, np.ndarray]:
        """(log-likelihood, score, Hessian) from one pass over the draws.

        The value and score are the bits loglik returns at the same point;
        the Hessian is exactly symmetric, in the score's layout.
        """
        return self._evaluate(params, with_hessian=True)


def simulated_loglik(params: RpParameters, design: DesignMatrices,
                     y1, y2, draws: DrawStore | None) -> float:
    """Simulated log-likelihood at one natural-scale parameter point."""
    return LoglikKernel(design, y1, y2, draws).loglik(params)[0]


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
    """How the Newton stage ended, and what it cost in kernel passes.

    iterations counts accepted Newton steps; score_passes the value-and-score
    passes, one per line-search trial; hessian_passes the Hessian passes:
    one at the start, which also gives the start's value and score, and one
    at every accepted point, the last of which gives the SEs.
    modified_steps counts the steps taken where -H was not positive
    definite.  decrement is g'd at the last point, d the direction of
    _newton_direction (so g'(-H)^-1 g where -H is positive definite), and
    NaN where the Hessian there is not finite.
    """

    status: str                   # "converged", "stalled" or "not converged"
    iterations: int
    grad_norm: float
    loglik_path: tuple[float, ...] = field(repr=False, default=())
    score_passes: int = 0
    hessian_passes: int = 0
    modified_steps: int = 0
    decrement: float = float("nan")

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def _newton_direction(neg_hess: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, float, bool]:
    """(direction, decrement, modified) for ascent on a log-likelihood with
    score g and Hessian -neg_hess.

    With -H = V Lambda V', the direction is V |Lambda|^-1 V' g: the Newton
    step (-H)^-1 g where -H is positive definite, and an ascent direction
    where it is not (modified True).  The decrement is g' direction.
    Eigenvalues are floored at eps times the largest, so a flat direction
    gives a long step for the line search to cut, not a division by zero.
    """
    lam, vec = np.linalg.eigh(neg_hess)
    modified = not lam.min() > 0
    scale = np.abs(lam)
    scale = np.maximum(scale, np.finfo(float).eps * scale.max())
    direction = vec @ ((vec.T @ g) / scale)
    return direction, float(g @ direction), modified


def _line_search(evaluate, t: np.ndarray, f: float, g: np.ndarray, direction: np.ndarray
                 ) -> tuple[np.ndarray, float, np.ndarray] | None:
    """(t, f, g) at the first trial t + step * direction, step = 1, 1/2, ...,
    that raises the log-likelihood f by the Armijo fraction of its predicted
    gain, or None after 40 halvings.  evaluate(t) returns (f, g) from one
    pass.  A direction that does not ascend gets no trial."""
    slope = float(g @ direction)
    if not slope > 0:
        return None
    step = 1.0
    for _ in range(40):
        t_new = t + step * direction
        f_new, g_new = evaluate(t_new)
        # a strict increase too: below the resolution of f, the Armijo
        # test alone accepts steps that leave f unchanged
        if f_new > f and f_new >= f + 1e-4 * step * slope:
            return t_new, f_new, g_new
        step *= 0.5
    return None


def _check_spreads_identified(design: DesignMatrices) -> None:
    """With one observation per garage, equation e's variance is sigma_e^2 +
    sum_d sigma_d^2 x_d^2, so its spreads are identified only if
    [1 | x_d^2 for each random d of e] has full column rank."""
    x = (design.x1, design.x2)
    for eq in sorted({e.equation for e in design.layout.effects}):
        effects = [e for e in design.layout.effects if e.equation == eq]
        terms = [e.name for e in effects]
        try:
            full_rank_qr(np.column_stack([np.ones(design.n)]
                                         + [x[eq][:, e.column] ** 2 for e in effects]),
                         ("constant", *terms))
        except EstimationError as exc:
            raise SpecError(f"the spreads of random terms {terms} of equation "
                            f"{design.eq_names[eq]} are not identified: {exc}") from exc


def _exact_ml(design: DesignMatrices, y1, y2, cov: ErrorCovariance
              ) -> tuple[RpParameters, float, int]:
    """Exact marginal ML of the linear-normal model by Fisher scoring.

    Integrating the normal coefficients out leaves row n's response pair
    normal with covariance V_n = Sigma + diag(sum_{d in e} s_d x_nd^2), which
    is linear in phi = (sigma11, sigma12, sigma22, s_d ...), s_d = sigma_d^2.
    Each step takes beta by GLS under the V_n (sure._gls, fgls_fit's solve;
    the beta score is zero), then a scoring step in phi: the expected
    information 1/2 sum_n tr(V_n^-1 D_j V_n^-1 D_k), D_j = d V_n / d phi_j,
    is closed form, since every D_j is a row weight (1 or x_nd^2) times E11,
    E12 + E21 or E22.  A spread at s_d = 0 whose score points below 0 stays
    out of the step, every s_d is projected onto s_d >= 0, and the step is
    halved until Sigma is positive definite and the log-likelihood rises.
    The fit starts from cov with every spread 0, and stops once score' I^-1
    score, twice the gain the step predicts, is at most _EXACT_TOL nats.

    Returns (the optimum, sigma_d = sqrt(s_d); its log-likelihood; steps).
    """
    y1, y2 = np.asarray(y1, dtype=float), np.asarray(y2, dtype=float)
    n, x, layout = design.n, (design.x1, design.x2), design.layout
    effects = layout.effects
    # phi_j enters V_n as w[:, j] times basis matrix kind[j]: 0 is E11,
    # 1 is E12 + E21 and 2 is E22
    kind = np.array([0, 1, 2] + [2 * e.equation for e in effects])
    w = np.column_stack([np.ones((n, 3))] + [x[e.equation][:, e.column] ** 2 for e in effects])

    def profile(phi):
        """(beta, value, u = V^-1 e, (p11, p12, p22) = V^-1) at the GLS beta
        under phi; None unless Sigma is positive definite."""
        try:
            ErrorCovariance(sigma11=phi[0], sigma22=phi[2], sigma12=phi[1])
        except DegenerateDataError:
            return None
        v11, v22 = w @ np.where(kind == 0, phi, 0.0), w @ np.where(kind == 2, phi, 0.0)
        # each row's Cholesky factor, for the GLS solve and the density
        l11 = np.sqrt(v11)
        l21 = phi[1] / l11
        low = np.array([[l11, np.zeros(n)], [l21, np.sqrt(v22 - l21 * l21)]])
        beta, _, e1, e2 = _gls(design, y1, y2, low)
        lnphi, v1, v2 = whitened_logpdf(e1, e2, low)
        u2 = v2 / low[1, 1]
        u1 = (v1 - l21 * u2) / l11
        det = v11 * v22 - phi[1] * phi[1]
        return beta, float(np.sum(lnphi)), (u1, u2), (v22 / det, -phi[1] / det, v11 / det)

    phi = np.array([cov.sigma11, cov.sigma12, cov.sigma22] + [0.0] * len(effects))
    beta, value, (u1, u2), (p11, p12, p22) = profile(phi)
    steps = 0
    while steps < _EXACT_MAX_STEPS:
        # per row, 2 dl/dphi_j / w_nj and tr(V^-1 B_a V^-1 B_b) for the basis matrices
        q = (u1 * u1 - p11, 2.0 * (u1 * u2 - p12), u2 * u2 - p22)
        trace = np.array([[p11 * p11, 2.0 * p11 * p12, p12 * p12],
                          [2.0 * p11 * p12, 2.0 * (p12 * p12 + p11 * p22), 2.0 * p12 * p22],
                          [p12 * p12, 2.0 * p12 * p22, p22 * p22]])
        score = 0.5 * np.einsum("nj,jn->j", w, np.array(q)[kind])
        info = 0.5 * np.einsum("nj,jkn,nk->jk", w, trace[kind][:, kind], w)
        free = np.ones(kind.size, dtype=bool)
        free[3:] = (phi[3:] > 0) | (score[3:] > 0)
        step = np.zeros(kind.size)
        step[free] = np.linalg.solve(info[np.ix_(free, free)], score[free])
        if score @ step <= _EXACT_TOL:
            break
        for _ in range(40):
            trial = phi + step
            trial[3:] = np.maximum(trial[3:], 0.0)
            state = profile(trial)
            if state is not None and state[1] > value:
                break
            step *= 0.5
        else:
            break
        phi, steps = trial, steps + 1
        beta, value, (u1, u2), (p11, p12, p22) = state
    params = RpParameters(coef1=beta[layout.coef[0]], coef2=beta[layout.coef[1]],
                          sigmas=np.sqrt(phi[3:]),
                          cov=ErrorCovariance(sigma11=phi[0], sigma22=phi[2], sigma12=phi[1]))
    return params, value, steps


def fit_rp_sure(design: DesignMatrices, y1, y2, draws: DrawStore | None = None,
                *, max_iterations: int = 500, threads: int = 1) -> SureFit:
    """Maximize the simulated likelihood in two stages: exact ML, then Newton.

    Returns a SureFit (see sure.layout_fit) with delta-method SEs and the
    Convergence record; with no random terms it is the FGLS model by ML.
    Spreads the data cannot identify are refused (SpecError).

    Stage 1 maximizes the closed-form marginal likelihood by Fisher scoring
    (_exact_ml), from the FGLS covariance; the simulated optimum lies within
    simulation error of that point.  Stage 2 starts there, each spread at
    +sqrt(s_d), and takes Newton steps on the kernel's analytic Hessian
    (_newton_direction, Train 2009, ch. 8) with a backtracking line search.
    The start gets its value, score and Hessian from one Hessian pass
    (LoglikKernel.hessian); every line-search trial gets its value and score
    from one score pass (LoglikKernel.loglik), and every point the line
    search accepts gets one Hessian pass more, whose value and score are
    the trial's.  Newton steps, and so the fit, do not depend on the units
    of the covariates.  The fit stops in one of three ways, and only the
    first is "converged": -H is positive definite and the decrement
    g'(-H)^-1 g is at most _NEWTON_TOL nats; no trial raises the
    log-likelihood, or the Hessian is not finite ("stalled"); or
    max_iterations Newton steps are taken ("not converged").  The last two
    return the fit instead of raising.  The Hessian at the last point gives
    the SEs, which need it positive definite; grad_norm reports the
    natural-scale score's infinity norm there.

    Spreads are optimized signed and reported as |sigma|.  The likelihood
    is even in each spread only up to the asymmetry of the Halton draws, so
    a fit that ends on a negative spread reports the log-likelihood at the
    signed point, which can differ from simulated_loglik at the reported
    |sigma|.  Flipping one spread's sign moved the value by up to 1.07 nats
    at R=400 on the criterion-5 model (N=2000, 2 random coefficients), and
    by 0 to 0.21 nats on zero-spread data (N=1500, R=100, seeds 61-72).
    """
    check_lower_bound("max_iterations", max_iterations)
    start_fit = fgls_fit(design, y1, y2)   # refuses a rank-deficient design first
    _check_spreads_identified(design)
    start = _exact_ml(design, y1, y2, start_fit.sigma)[0]
    kernel = LoglikKernel(design, y1, y2, draws, threads=threads)
    layout, size = kernel.layout, kernel.layout.size
    passes = {"score": 0, "hessian": 0}

    def guarded(kind, evaluate, fallback):
        # a trial point whose likelihood is not finite (its residuals or
        # covariance beyond double range) is simply rejected by the line
        # search, and a Hessian that is not finite stops the fit
        def at(t: np.ndarray):
            passes[kind] += 1
            try:
                return evaluate(layout.unpack(t))
            except (EstimationError, DegenerateDataError):
                return fallback
        return at

    value_and_score = guarded("score", kernel.loglik, (-np.inf, np.full(size, np.nan)))
    with_hessian = guarded("hessian", kernel.hessian,
                           (-np.inf, np.full(size, np.nan), np.full((size, size), np.nan)))

    t = layout.pack(start)
    f, g, hess = with_hessian(t)
    path, modified = [f], 0
    while True:
        neg_h = -hess
        if not np.isfinite(neg_h).all():
            status, decrement = "stalled", float("nan")
            break
        direction, decrement, indefinite = _newton_direction(neg_h, g)
        if not indefinite and decrement <= _NEWTON_TOL:
            status = "converged"
            break
        if len(path) > max_iterations:
            status = "not converged"
            break
        accepted = _line_search(value_and_score, t, f, g, direction)
        if accepted is None:
            status = "stalled"
            break
        t, f, g = accepted
        path.append(f)
        modified += indefinite
        hess = with_hessian(t)[2]   # its value and score are the trial's bits

    # g is the optimizer-vector score; the natural-scale one is J^-T g
    jacobian = layout.jacobian(t)
    grad_norm = float(np.max(np.abs(np.linalg.solve(jacobian.T, g))))
    return layout_fit(
        layout, layout.natural(t), _natural_covariance(neg_h, jacobian),
        n=kernel.n, loglik=f, sigma=layout.unpack(t).cov,
        convergence=Convergence(status=status, iterations=len(path) - 1, grad_norm=grad_norm,
                                loglik_path=tuple(path), score_passes=passes["score"],
                                hessian_passes=passes["hessian"], modified_steps=modified,
                                decrement=decrement),
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

    At a true spread of 0 the Wald ratio |sigma| / SE has no normal limit:
    on zero-spread data (N=1500, R=100, data seed 61) this returns
    "retain-random" for x2 with t = 2.40.  See ROADMAP item 6 for an LR test
    with a 50:50 chi-squared mixture p-value.
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
