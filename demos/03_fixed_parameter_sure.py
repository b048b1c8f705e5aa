"""Fixed-parameter estimation: per-equation OLS versus feasible-GLS SUR.

When the two equations' errors are correlated and the regressors differ,
the joint fit buys efficiency; with identical regressors it collapses to
OLS exactly (Kruskal's equivalence).
"""

import numpy as np

from fuelgap import DesignMatrices, fgls_fit, ols_fit

rng = np.random.default_rng(42)
n = 3000
rho = 0.6

x1 = np.column_stack([np.ones(n), rng.normal(size=n), (rng.random(n) < 0.3) * 1.0])
x2 = np.column_stack([np.ones(n), rng.normal(size=n), rng.uniform(-1, 1, n)])
b1 = np.array([0.86, -0.030, 0.020])
b2 = np.array([0.85, 0.015, -0.040])
z = rng.normal(size=(n, 2))
e1 = 0.12 * z[:, 0]
e2 = 0.15 * (rho * z[:, 0] + np.sqrt(1 - rho ** 2) * z[:, 1])
y1 = x1 @ b1 + e1
y2 = x2 @ b2 + e2

# the encoded design is the one input of every estimator: both matrices,
# their column names and the equation names
names1 = ("const", "style", "hybrid")
fit = fgls_fit(DesignMatrices(x1, x2, names1=names1, names2=("const", "style", "weight")),
               y1, y2)
print(f"FGLS: n={fit.n}, k={fit.k}, loglik={fit.loglik:.2f}, "
      f"cross-equation rho={fit.sigma.rho:.3f} (truth {rho})")

print(f"\n{'coefficient':22s}{'truth':>9s}{'OLS':>10s}{'FGLS':>10s}"
      f"{'OLS se':>9s}{'FGLS se':>9s}")
ols_rows = [row for x, y, truth in ((x1, y1, b1), (x2, y2, b2))
            for ols in [ols_fit(x, y)] for row in zip(ols.beta, ols.se, truth)]
for c, (ols_coef, ols_se, truth) in zip(fit.coefficients, ols_rows):
    print(f"{c.equation + ':' + c.name:22s}{truth:9.4f}{ols_coef:10.4f}"
          f"{c.estimate:10.4f}{ols_se:9.5f}{c.se:9.5f}")

shared = fgls_fit(DesignMatrices(x1, x1, names1=names1, names2=names1), y1, y2)
ols_shared = ols_fit(x1, y1)
shared_coef = np.array([c.estimate for c in shared.coefficients[:x1.shape[1]]])
print("\nKruskal check with identical regressors: max |FGLS - OLS| =",
      f"{np.max(np.abs(shared_coef - ols_shared.beta)):.2e}")
