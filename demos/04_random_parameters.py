"""Random-parameter estimation by maximum simulated likelihood.

Simulates garages whose coefficients genuinely vary, checks the simulated
likelihood against the closed-form marginal, fits the model over Halton
draws, and applies the retention rule for random coefficients.
"""

import math

import numpy as np

from fuelgap import (
    HaltonConfig,
    RpParameters,
    build_draw_store,
    exact_marginal_loglik,
    fit_rp_sure,
    rp_retention_test,
    simulated_loglik,
    truth_from_dict,
)
from fuelgap.msl import effects_from_design
from fuelgap.synthetic import simulate_dataset

truth = truth_from_dict({
    "n": 1000, "seed": 2024,
    "error": {"sigma1": 0.1, "sigma2": 0.1, "rho": 0.5},
    "covariates": [
        {"name": "x1", "kind": "normal", "mean": 0.0, "sd": 1.0},
        {"name": "x2", "kind": "normal", "mean": 0.0, "sd": 1.0},
    ],
    "equations": [
        {"name": "vehicle_1", "intercept": 0.88,
         "terms": [{"column": "x1", "coef": -0.03, "sigma": 0.06}]},
        {"name": "vehicle_2", "intercept": 0.92,
         "terms": [{"column": "x2", "coef": 0.02, "sigma": 0.08}]},
    ],
})
ds = simulate_dataset(truth)
design = ds.design

# how close is the simulated likelihood to the exact marginal at the truth?
params = RpParameters(coef1=[0.88, -0.03], coef2=[0.92, 0.02],
                      sigmas=[0.06, 0.08], cov=truth.error_covariance)
exact = exact_marginal_loglik(ds.x1, ds.x2, ds.y1, ds.y2, params.coef1, params.coef2,
                              effects_from_design(design), params.sigmas, params.cov)
print("simulated vs exact marginal log-likelihood at the truth:")
for r in (100, 400):
    draws = build_draw_store(ds.n, HaltonConfig(bases=(2, 3), draws_per_obs=r))
    msl = simulated_loglik(params, design, ds.y1, ds.y2, draws)
    print(f"  R={r:4d}: |gap| per observation = {abs(msl - exact) / ds.n:.2e}")

draws = build_draw_store(ds.n, HaltonConfig(bases=(2, 3), draws_per_obs=200))
fit = fit_rp_sure(design, ds.y1, ds.y2, draws=draws)
print(f"\nfit: {fit.convergence.status} after {fit.convergence.iterations} Newton steps, "
      f"loglik={fit.loglik:.2f}, k={fit.k}")

print(f"\n{'parameter':22s}{'truth':>9s}{'estimate':>10s}{'se':>9s}")
rows = [("vehicle_1:const", 0.88), ("vehicle_1:x1 mu", -0.03),
        ("vehicle_1:x1 sigma", 0.06), ("vehicle_2:const", 0.92),
        ("vehicle_2:x2 mu", 0.02), ("vehicle_2:x2 sigma", 0.08)]
by_name = {f"{c.equation}:{c.name}": c for c in fit.coefficients}
values = {
    "vehicle_1:const": (by_name["vehicle_1:const"].estimate, by_name["vehicle_1:const"].se),
    "vehicle_1:x1 mu": (by_name["vehicle_1:x1"].estimate, by_name["vehicle_1:x1"].se),
    "vehicle_1:x1 sigma": (by_name["vehicle_1:x1"].sigma, by_name["vehicle_1:x1"].sigma_se),
    "vehicle_2:const": (by_name["vehicle_2:const"].estimate, by_name["vehicle_2:const"].se),
    "vehicle_2:x2 mu": (by_name["vehicle_2:x2"].estimate, by_name["vehicle_2:x2"].se),
    "vehicle_2:x2 sigma": (by_name["vehicle_2:x2"].sigma, by_name["vehicle_2:x2"].sigma_se),
}
for label, tv in rows:
    est, se = values[label]
    print(f"{label:22s}{tv:9.4f}{est:10.4f}{se:9.5f}")
print(f"{'sigma1':22s}{0.1:9.4f}{math.sqrt(fit.sigma.sigma11):10.4f}{fit.sigma1_se:9.5f}")
print(f"{'rho':22s}{0.5:9.4f}{fit.sigma.rho:10.4f}{fit.rho_se:9.5f}")

print("\nretention rule (spread significant at the 95% level keeps a "
      "coefficient random):")
for name in ("vehicle_1:x1", "vehicle_2:x2"):
    verdict = rp_retention_test(fit, name)
    print(f"  {name}: {verdict.verdict} "
          f"(mean t={verdict.mean_t:+.2f}, spread t={verdict.sigma_t:.2f})")
