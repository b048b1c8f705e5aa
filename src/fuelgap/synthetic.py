"""Synthetic garage datasets from a declared truth, plus analytic oracles.

Because real garage-level data is proprietary, validation runs on simulated
datasets whose generating process is the random-parameter model itself.
With normal random coefficients and normal errors the response pair is
bivariate normal with a per-observation covariance, so the marginal
log-likelihood has a closed form; tensor-product Gauss-Hermite quadrature
provides a second, independent route to the same integral.

Generation uses numpy's counter-based Philox generator keyed by a 64-bit
seed, so a dataset is reproducible bit-for-bit from its TruthSpec alone.
Draw order: covariate columns in declared order, then one coefficient array
per random term (equation order, term order), then the N x 2 error normals.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .data import GarageTable, encode_columns, write_csv, write_garage_csv
from .errors import SpecError
from .modelspec import (FIXED, INTEGER, LIST, NUMBER, OBJECT, RANDOM, STRING, EquationSpec,
                        ModelSpec, Term, checked)
from .sure import (DesignMatrices, ErrorCovariance, RandomEffect, whitened_logpdf, _LOG_2PI,
                   _rowdot)


# the truth-JSON keys of each covariate kind's parameters, in `params` order
RECIPE_KEYS = {"bernoulli": ("p",), "uniform": ("low", "high"), "normal": ("mean", "sd")}


def _require_finite(value: float, what: str) -> None:
    if not math.isfinite(value):
        raise SpecError(f"{what} must be finite, got {value}")


@dataclass(frozen=True)
class CovariateRecipe:
    """Recipe for one independent covariate column."""

    name: str
    kind: str                    # "bernoulli" | "uniform" | "normal"
    params: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(self.params))
        if self.kind not in RECIPE_KEYS:
            raise SpecError(f"unknown covariate kind {self.kind!r} for {self.name!r}")
        if len(self.params) != len(RECIPE_KEYS[self.kind]):
            raise SpecError(f"covariate {self.name!r}: {self.kind} takes "
                            f"{len(RECIPE_KEYS[self.kind])} parameter(s), got {self.params}")
        for key, value in zip(RECIPE_KEYS[self.kind], self.params):
            _require_finite(value, f"covariate {self.name!r}: {key!r}")
        if self.kind == "bernoulli" and not 0.0 <= self.params[0] <= 1.0:
            raise SpecError(f"covariate {self.name!r}: bernoulli p must be in [0, 1]")

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.kind == "bernoulli":
            return (rng.random(n) < self.params[0]).astype(float)
        if self.kind == "uniform":
            lo, hi = self.params
            return lo + (hi - lo) * rng.random(n)
        mean, sd = self.params
        return mean + sd * rng.standard_normal(n)


@dataclass(frozen=True)
class TermTruth:
    """True coefficient of one design column; sigma > 0 makes it random."""

    column: str
    value: float
    sigma: float = 0.0

    def __post_init__(self):
        _require_finite(self.value, f"term {self.column!r}: coef")
        _require_finite(self.sigma, f"term {self.column!r}: sigma")
        if self.sigma < 0:
            raise SpecError(f"term {self.column!r}: sigma must be >= 0")


@dataclass(frozen=True)
class EquationTruth:
    name: str
    terms: tuple[TermTruth, ...]
    intercept: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        if self.intercept is not None:
            _require_finite(self.intercept, f"equation {self.name!r}: intercept")


@dataclass(frozen=True)
class TruthSpec:
    """A complete data-generating process: model, truth values, and seed."""

    equations: tuple[EquationTruth, EquationTruth]
    covariates: tuple[CovariateRecipe, ...]
    sigma1: float
    sigma2: float
    rho: float
    n: int
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "equations", tuple(self.equations))
        object.__setattr__(self, "covariates", tuple(self.covariates))
        self.model_spec()       # refuses a model that no spec could declare
        for key in ("sigma1", "sigma2"):
            _require_finite(getattr(self, key), key)
        if self.sigma1 <= 0 or self.sigma2 <= 0:
            raise SpecError("error standard deviations must be positive")
        if not abs(self.rho) < 1:
            raise SpecError("|rho| must be < 1")
        if self.n < 1:
            raise SpecError("n must be >= 1")
        if not 0 <= self.seed < 2 ** 128:      # the key of numpy's Philox generator
            raise SpecError(f"seed must be in [0, 2**128), got {self.seed}")
        known = {c.name for c in self.covariates}
        if len(known) != len(self.covariates):
            raise SpecError("covariate names must be distinct")
        for eq in self.equations:
            for term in eq.terms:
                if term.column not in known:
                    raise SpecError(f"equation {eq.name!r} references unknown "
                                    f"covariate {term.column!r}")

    @property
    def error_covariance(self) -> ErrorCovariance:
        return ErrorCovariance(sigma11=self.sigma1 ** 2,
                               sigma22=self.sigma2 ** 2,
                               sigma12=self.rho * self.sigma1 * self.sigma2)

    def model_spec(self) -> ModelSpec:
        """The estimation spec matching this truth (random flags included)."""
        eqs = []
        for eq in self.equations:
            terms = tuple(Term(column=t.column, level=None,
                               kind=RANDOM if t.sigma > 0 else FIXED)
                          for t in eq.terms)
            eqs.append(EquationSpec(name=eq.name, terms=terms,
                                    intercept=eq.intercept is not None))
        return ModelSpec(equations=tuple(eqs), base_levels={})


def truth_from_dict(raw: dict) -> TruthSpec:
    """Build a TruthSpec from its JSON structure.

    Every value must have the JSON type listed (`modelspec.checked`); a key
    with a default may be left out:
    - "n" and "seed": integers.
    - "error": an object of the numbers "sigma1", "sigma2" and "rho"
      (default 0).
    - "covariates": a list of objects, each with a string "name", a string
      "kind" and that kind's numbers (RECIPE_KEYS): "p" for "bernoulli",
      "low" and "high" for "uniform", "mean" and "sd" for "normal".
    - "equations": a list of two objects, each with a string "name" (default
      "vehicle_1", "vehicle_2"), a number or null "intercept" (default null,
      no intercept) and a list "terms" (default empty) of objects with a
      string "column", a number "coef" and a number "sigma" (default 0; a
      positive sigma makes the coefficient random).
    """
    raw = checked(raw, OBJECT, "truth")
    try:
        covariates = []
        for i, c in enumerate(checked(raw["covariates"], LIST, "truth 'covariates'")):
            where = f"truth covariate {i + 1}"
            c = checked(c, OBJECT, where)
            kind = checked(c["kind"], STRING, f"{where}: 'kind'")
            covariates.append(CovariateRecipe(
                name=checked(c["name"], STRING, f"{where}: 'name'"), kind=kind,
                params=tuple(checked(c[key], NUMBER, f"{where}: {key!r}")
                             for key in RECIPE_KEYS.get(kind, ()))))
        equations = []
        for i, eq in enumerate(checked(raw["equations"], LIST, "truth 'equations'")):
            eq = checked(eq, OBJECT, f"truth equation {i + 1}")
            name = checked(eq.get("name", f"vehicle_{i + 1}"), STRING,
                           f"truth equation {i + 1}: 'name'")
            terms = []
            for j, t in enumerate(checked(eq.get("terms", []), LIST,
                                          f"truth equation {name!r}: 'terms'")):
                where = f"truth equation {name!r}, term {j + 1}"
                t = checked(t, OBJECT, where)
                terms.append(TermTruth(
                    column=checked(t["column"], STRING, f"{where}: 'column'"),
                    value=checked(t["coef"], NUMBER, f"{where}: 'coef'"),
                    sigma=checked(t.get("sigma", 0.0), NUMBER, f"{where}: 'sigma'")))
            equations.append(EquationTruth(
                name=name, terms=tuple(terms),
                intercept=checked(eq.get("intercept"), NUMBER,
                                  f"truth equation {name!r}: 'intercept'", nullable=True)))
        error = checked(raw["error"], OBJECT, "truth 'error'")
        return TruthSpec(
            equations=tuple(equations), covariates=tuple(covariates),
            sigma1=checked(error["sigma1"], NUMBER, "truth 'error': 'sigma1'"),
            sigma2=checked(error["sigma2"], NUMBER, "truth 'error': 'sigma2'"),
            rho=checked(error.get("rho", 0.0), NUMBER, "truth 'error': 'rho'"),
            n=checked(raw["n"], INTEGER, "truth 'n'"),
            seed=checked(raw["seed"], INTEGER, "truth 'seed'"))
    except KeyError as exc:
        raise SpecError(f"invalid truth specification: missing key {exc}") from exc


@dataclass(frozen=True)
class SyntheticDataset:
    """Simulated garages: the design that the truth's model spec declares,
    the responses, and the realized randomness."""

    truth: TruthSpec
    design: DesignMatrices = field(repr=False)
    y1: np.ndarray = field(repr=False)
    y2: np.ndarray = field(repr=False)
    covariate_columns: dict[str, np.ndarray] = field(repr=False, default_factory=dict)
    coefficient_draws: dict[str, np.ndarray] = field(repr=False, default_factory=dict)
    errors: np.ndarray = field(repr=False, default=None)

    x1 = property(lambda self: self.design.x1)
    x2 = property(lambda self: self.design.x2)
    names1 = property(lambda self: self.design.names1)
    names2 = property(lambda self: self.design.names2)
    n = property(lambda self: self.design.n)

    def write_csv(self, path) -> None:
        """Emit the dataset in the raw pipeline schema.

        Responses are stored as my_mpg with epa_mpg = 1, so the gap ratio
        computed downstream reproduces y exactly.  Covariate columns keep
        their recipe names.
        """
        if not ((self.y1 > 0).all() and (self.y2 > 0).all()):
            raise SpecError("responses must be positive to round-trip through "
                            "the MPG-ratio schema; shift the truth intercepts")
        n = self.n
        write_garage_csv(GarageTable(
            garage_id=np.array([f"s{i:06d}" for i in range(n)], dtype=object),
            my_mpg=np.column_stack([self.y1, self.y2]), epa_mpg=np.ones((n, 2)),
            model_year=np.tile(np.array([2000, 2001]), (n, 1)),
            us_division=np.full(n, "Synthetic", dtype=object),
            covariates={c.name: self.covariate_columns[c.name]
                        for c in self.truth.covariates}), path)

    def write_coefficient_draws_csv(self, path) -> None:
        """Debug sidecar: the realized per-observation coefficient draws."""
        names = sorted(self.coefficient_draws)
        write_csv(path, ["row", *names],
                  [np.arange(self.n), *(self.coefficient_draws[n] for n in names)])


def simulate_dataset(truth: TruthSpec) -> SyntheticDataset:
    """Draw one dataset from the truth; bit-identical for equal seeds."""
    rng = np.random.Generator(np.random.Philox(key=truth.seed))
    n = truth.n
    columns = {c.name: c.draw(rng, n) for c in truth.covariates}
    design = encode_columns(n, columns.__getitem__, truth.model_spec())

    coefficient_draws: dict[str, np.ndarray] = {}
    contributions = [np.zeros(n), np.zeros(n)]
    for e, eq in enumerate(truth.equations):
        if eq.intercept is not None:
            contributions[e] += eq.intercept
        for term in eq.terms:
            x = columns[term.column]
            if term.sigma > 0:
                beta = term.value + term.sigma * rng.standard_normal(n)
                coefficient_draws[f"{eq.name}:{term.column}"] = beta
                contributions[e] += beta * x
            else:
                contributions[e] += term.value * x

    z = rng.standard_normal((n, 2))
    e1 = truth.sigma1 * z[:, 0]
    e2 = truth.sigma2 * (truth.rho * z[:, 0] + np.sqrt(1 - truth.rho ** 2) * z[:, 1])
    errors = np.column_stack([e1, e2])
    return SyntheticDataset(
        truth=truth, design=design,
        y1=contributions[0] + e1, y2=contributions[1] + e2,
        covariate_columns=columns,
        coefficient_draws=coefficient_draws,
        errors=errors,
    )


def exact_marginal_loglik(x1, x2, y1, y2, coef1, coef2,
                          effects: tuple[RandomEffect, ...],
                          sigmas, cov: ErrorCovariance) -> float:
    """Closed-form marginal log-likelihood of the linear-normal model.

    Integrating normal coefficients out of a linear model leaves the
    response pair bivariate normal with mean (x1'coef1, x2'coef2) and
    covariance Sigma + diag(sum_b sigma_b^2 x_b^2) per observation, where
    coefficient b multiplies column x_b of its own equation and so adds to
    that equation's variance only; the covariance stays sigma12.
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    y1 = np.asarray(y1, dtype=float)
    y2 = np.asarray(y2, dtype=float)
    sigmas = np.asarray(sigmas, dtype=float)
    if sigmas.size != len(effects):
        raise ValueError("one sigma per random effect is required")
    e1 = y1 - _rowdot(x1, np.asarray(coef1, dtype=float))
    e2 = y2 - _rowdot(x2, np.asarray(coef2, dtype=float))
    x = (x1, x2)
    var = [np.full(x1.shape[0], cov.sigma11), np.full(x1.shape[0], cov.sigma22)]
    for effect, s in zip(effects, sigmas):
        g = x[effect.equation][:, effect.column]
        var[effect.equation] += s * s * g * g
    v11, v22 = var
    v12 = cov.sigma12
    det = v11 * v22 - v12 * v12
    quad = (e1 * e1 * v22 - 2.0 * e1 * e2 * v12 + e2 * e2 * v11) / det
    return float(np.sum(-_LOG_2PI - 0.5 * np.log(det) - 0.5 * quad))


def quadrature_loglik(x1, x2, y1, y2, coef1, coef2,
                      effects: tuple[RandomEffect, ...],
                      sigmas, cov: ErrorCovariance, nodes: int) -> float:
    """Gauss-Hermite marginal log-likelihood over the random coefficients.

    Tensor-product rule, at most 3 random dimensions; one node degenerates
    to the all-spreads-zero likelihood, and the value converges to
    exact_marginal_loglik as the node count grows.
    """
    if nodes < 1:
        raise ValueError("nodes must be >= 1")
    d = len(effects)
    if d > 3:
        raise SpecError("tensor-product quadrature supports at most 3 random "
                        "coefficients; use the exact oracle or simulation")
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    sigmas = np.asarray(sigmas, dtype=float)
    e1 = np.asarray(y1, dtype=float) - _rowdot(x1, np.asarray(coef1, dtype=float))
    e2 = np.asarray(y2, dtype=float) - _rowdot(x2, np.asarray(coef2, dtype=float))

    gh_x, gh_w = np.polynomial.hermite.hermgauss(nodes)

    def tensor(values):
        """Every d-tuple of `values`, one per row, the last entry varying fastest."""
        return np.array(list(itertools.product(values, repeat=d))).reshape(nodes ** d, d)

    grid = np.sqrt(2.0) * tensor(gh_x)
    log_w = np.sum(np.log(tensor(gh_w)), axis=1) - d * 0.5 * np.log(np.pi)

    x = (x1, x2)
    shape = (x1.shape[0], grid.shape[0])
    dev = [np.zeros(shape), np.zeros(shape)]
    for effect, s, zcol in zip(effects, sigmas, grid.T):
        dev[effect.equation] += s * np.outer(x[effect.equation][:, effect.column], zcol)
    lnphi = whitened_logpdf(e1[:, None] - dev[0], e2[:, None] - dev[1], cov.low)[0]
    weighted = lnphi + log_w[None, :]
    m = weighted.max(axis=1)
    per_obs = m + np.log(np.exp(weighted - m[:, None]).sum(axis=1))
    return float(np.sum(per_obs))
