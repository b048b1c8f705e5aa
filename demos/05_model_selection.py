"""Model selection and random-parameter effect summaries.

Fits the summed univariate OLS, the fixed-parameter joint model, and the
random-parameter joint model on the same heterogeneous data, scores them on
AIC / CAIC / SBIC / ICOMP, and prints the distributional summary of each
random coefficient (share above zero, approximate mean +/- 2 SD range).
"""

import numpy as np

from fuelgap import (
    CriteriaInput,
    HaltonConfig,
    build_draw_store,
    effect_summary,
    fgls_fit,
    fit_rp_sure,
    ols_system_fit,
    rank_models,
    truth_from_dict,
)
from fuelgap.synthetic import simulate_dataset

truth = truth_from_dict({
    "n": 1500, "seed": 99,
    "error": {"sigma1": 0.1, "sigma2": 0.1, "rho": 0.5},
    "covariates": [
        {"name": "x1", "kind": "normal", "mean": 0.0, "sd": 1.0},
        {"name": "x2", "kind": "normal", "mean": 0.0, "sd": 1.0},
    ],
    "equations": [
        {"name": "vehicle_1", "intercept": 0.88,
         "terms": [{"column": "x1", "coef": -0.03, "sigma": 0.07}]},
        {"name": "vehicle_2", "intercept": 0.92,
         "terms": [{"column": "x2", "coef": 0.02, "sigma": 0.09}]},
    ],
})
ds = simulate_dataset(truth)
design = ds.design

# one design serves all three estimators; the fixed-parameter ones ignore
# its random columns
ols = ols_system_fit(design, ds.y1, ds.y2)
sure = fgls_fit(design, ds.y1, ds.y2)
draws = build_draw_store(ds.n, HaltonConfig(bases=(2, 3), draws_per_obs=200))
rp = fit_rp_sure(design, ds.y1, ds.y2, draws=draws)

ranking = rank_models([
    ("univariate-ols (summed)", CriteriaInput(ols.loglik, ols.k, ols.n,
                                              fisher_inverse=ols.param_cov)),
    ("fixed-sure", CriteriaInput(sure.loglik, sure.k, sure.n,
                                 fisher_inverse=sure.param_cov)),
    ("rp-sure", CriteriaInput(rp.loglik, rp.k, rp.n, fisher_inverse=rp.param_cov)),
])
print(ranking.render_text())

print("\nrandom-coefficient distributions implied by the rp-sure fit:")
print(f"{'coefficient':18s}{'mu':>9s}{'sigma':>9s}{'lower':>9s}{'upper':>9s}"
      f"{'above 0':>9s}{'below 0':>9s}")
for rc in rp.random_coefficients:
    s = effect_summary(f"{rc.equation}:{rc.name}", rc.estimate, rc.sigma)
    print(f"{s.name:18s}{s.mu:9.4f}{s.sigma:9.4f}{s.range_lower:9.4f}"
          f"{s.range_upper:9.4f}{100 * s.share_above_zero:8.2f}%"
          f"{100 * s.share_below_zero:8.2f}%")
