"""Information criteria, model ranking, and random-parameter effect summaries.

Four penalized-likelihood scores are reported: AIC, the consistent AIC,
the Schwarz Bayesian criterion, and the information-complexity criterion
built from the inverse Fisher information (the fit's parameter covariance).
Lower is better for every score.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

from .errors import FuelGapError

CRITERIA = ("aic", "caic", "sbic", "icomp")


@dataclass(frozen=True)
class CriteriaInput:
    """Everything needed to score one fitted model.

    fisher_inverse is the k x k parameter covariance; without it every
    score except ICOMP is still available.
    """

    loglik: float
    k: int
    # sample size; any positive real is accepted so that identities such as
    # n = e^2 can be exercised exactly
    n: float
    fisher_inverse: np.ndarray | None = field(repr=False, default=None)

    def __post_init__(self):
        if self.k <= 0:
            raise ValueError("k must be positive")
        if self.n <= 0:
            raise ValueError("n must be positive")
        if self.fisher_inverse is not None:
            f = np.asarray(self.fisher_inverse, dtype=float)
            if f.shape != (self.k, self.k):
                raise ValueError(f"fisher_inverse must be {self.k}x{self.k}, got {f.shape}")
            object.__setattr__(self, "fisher_inverse", f)


@dataclass(frozen=True)
class CriteriaScores:
    aic: float
    caic: float
    sbic: float
    icomp: float | None
    icomp_note: str | None = None

    def value(self, criterion: str) -> float | None:
        return getattr(self, criterion)


def score_criteria(inputs: CriteriaInput) -> CriteriaScores:
    """Score one model on all four criteria.

    AIC   = -2 lnL + 2k
    CAIC  = -2 lnL + k (ln n + 1)
    SBIC  = -2 lnL + k ln n
    ICOMP = -2 lnL + s ln(tr(F^-1)/s) - ln|F^-1|, with s = rank(F^-1),
            taken as k once the Cholesky factorization succeeds.

    A missing or non-positive-definite fisher_inverse leaves icomp as None
    with a note; the other three scores are always returned.
    """
    neg2ll = -2.0 * inputs.loglik
    ln_n = np.log(inputs.n)
    aic = neg2ll + 2.0 * inputs.k
    caic = neg2ll + inputs.k * (ln_n + 1.0)
    sbic = neg2ll + inputs.k * ln_n

    icomp = None
    note = None
    if inputs.fisher_inverse is None:
        note = "icomp omitted: no parameter covariance available"
    else:
        try:
            low = np.linalg.cholesky(inputs.fisher_inverse)
        except np.linalg.LinAlgError:
            note = "icomp omitted: parameter covariance not positive definite"
        else:
            s = inputs.k
            trace = float(np.trace(inputs.fisher_inverse))
            logdet = 2.0 * float(np.sum(np.log(np.diag(low))))
            icomp = neg2ll + s * np.log(trace / s) - logdet
    return CriteriaScores(aic=float(aic), caic=float(caic), sbic=float(sbic),
                          icomp=None if icomp is None else float(icomp),
                          icomp_note=note)


@dataclass(frozen=True)
class RankedModel:
    label: str
    n: int
    k: int
    loglik: float
    scores: CriteriaScores


@dataclass(frozen=True)
class ModelRanking:
    """Scores for every candidate, per-criterion winners, and an overall
    ordering by SBIC (ties broken by smaller k, then label)."""

    models: tuple[RankedModel, ...]
    winners: dict[str, str]
    order: tuple[str, ...]

    def as_rows(self) -> list[dict]:
        rows = []
        for m in self.models:
            rows.append({
                "label": m.label, "n": m.n, "k": m.k, "loglik": m.loglik,
                "aic": m.scores.aic, "caic": m.scores.caic,
                "sbic": m.scores.sbic, "icomp": m.scores.icomp,
            })
        return rows

    def render_text(self) -> str:
        header = f"{'model':<28}{'n':>7}{'k':>5}{'loglik':>14}" + \
            "".join(f"{c.upper():>14}" for c in CRITERIA)
        lines = [header, "-" * len(header)]
        for m in self.models:
            cells = f"{m.label:<28}{m.n:>7}{m.k:>5}{m.loglik:>14.4f}"
            for c in CRITERIA:
                v = m.scores.value(c)
                text = "---" if v is None else f"{v:.4f}"
                if self.winners.get(c) == m.label and v is not None:
                    text += "*"
                cells += f"{text:>14}"
            lines.append(cells)
        lines.append("(* = lowest score on that criterion; overall order by SBIC: "
                     + " > ".join(self.order) + ")")
        return "\n".join(lines)


def rank_models(fits: list[tuple[str, CriteriaInput]]) -> ModelRanking:
    """Score and rank at least two competing fits."""
    if len(fits) < 2:
        raise ValueError("need at least two fits to rank")
    labels = [label for label, _ in fits]
    if len(set(labels)) != len(labels):
        raise ValueError("fit labels must be distinct")
    models = tuple(
        RankedModel(label=label, n=ci.n, k=ci.k, loglik=ci.loglik,
                    scores=score_criteria(ci))
        for label, ci in fits
    )
    winners: dict[str, str] = {}
    for c in CRITERIA:
        scored = [(m.scores.value(c), m.k, m.label) for m in models
                  if m.scores.value(c) is not None]
        if scored:
            winners[c] = min(scored)[2]
    order = tuple(m.label for m in sorted(models,
                                          key=lambda m: (m.scores.sbic, m.k, m.label)))
    return ModelRanking(models=models, winners=winners, order=order)


@dataclass(frozen=True)
class RpEffectSummary:
    """Distributional summary of one normally distributed random coefficient.

    share_above_zero is Phi(mu/sigma); the approximate range is mu +/- 2 sigma.
    """

    name: str
    mu: float
    sigma: float
    share_above_zero: float
    range_lower: float
    range_upper: float

    @property
    def share_below_zero(self) -> float:
        return 1.0 - self.share_above_zero


def effect_summary(name: str, mu: float, sigma: float) -> RpEffectSummary:
    if not (np.isfinite(mu) and 0 < sigma < np.inf):
        raise ValueError(f"need finite mu and finite sigma > 0 for {name!r}, got {mu}, {sigma}")
    share = float(ndtr(mu / sigma))
    return RpEffectSummary(name=name, mu=float(mu), sigma=float(sigma),
                           share_above_zero=share,
                           range_lower=float(mu - 2.0 * sigma),
                           range_upper=float(mu + 2.0 * sigma))


def rp_effects(fit) -> list[RpEffectSummary]:
    """Effect summaries for every random coefficient of a random-parameter fit."""
    coefficients = list(fit.random_coefficients)
    if not coefficients:
        raise FuelGapError("fit contains no random coefficients")
    return [effect_summary(rc.name, rc.estimate, rc.sigma) for rc in coefficients]
