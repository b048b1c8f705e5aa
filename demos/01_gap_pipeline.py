"""Data pipeline walk-through: gap ratios, outlier trimming, summaries.

Builds a small raw garage file in memory, runs it through the preparation
pipeline, and prints what each stage produces.
"""

import io

import numpy as np

from fuelgap import compute_gaps, gap_correlation, group_summary, parse_raw, trim_outliers

rng = np.random.default_rng(7)
n = 500

lines = ["garage_id,my_mpg_1,epa_mpg_1,my_mpg_2,epa_mpg_2,"
         "model_year_1,model_year_2,us_division,fuel_type_1"]
divisions = ["Pacific", "Mountain", "New England"]
for i in range(n):
    epa1, epa2 = float(rng.uniform(20, 35)), float(rng.uniform(22, 38))
    gap1 = float(np.clip(0.86 + 0.10 * rng.standard_normal(), 0.4, 1.4))
    gap2 = float(np.clip(0.85 + 0.06 * gap1 / 0.86 + 0.08 * rng.standard_normal(),
                         0.4, 1.4))
    year1 = rng.integers(1990, 2008)
    lines.append(f"g{i},{gap1 * epa1!r},{epa1!r},{gap2 * epa2!r},{epa2!r},"
                 f"{year1},{year1 + rng.integers(0, 6)},"
                 f"{divisions[i % 3]},{'Gasoline' if i % 7 else 'Hybrid'}")
# two garages with wildly implausible self-reports
lines.append(f"weird_high,{3.1 * 25!r},25.0,{0.84 * 30!r},30.0,2000,2003,Pacific,Gasoline")
lines.append(f"weird_low,{0.1 * 25!r},25.0,{0.85 * 30!r},30.0,2000,2003,Pacific,Gasoline")

table = compute_gaps(parse_raw(io.StringIO("\n".join(lines) + "\n")))
print(f"parsed {len(table)} garages; first gap pair: "
      f"({table.gap[0, 0]:.4f}, {table.gap[0, 1]:.4f})")

kept, removed, report = trim_outliers(table, 3.0)
print(f"\ntrim at mean +/- 3 SD: kept {report.n_kept}, removed {report.n_removed} "
      f"-> {list(report.removed_ids)}")
print(f"gap means: {report.mu[0]:.4f} / {report.mu[1]:.4f}, "
      f"SDs: {report.sd[0]:.4f} / {report.sd[1]:.4f}")

print(f"\nPearson correlation between the two gap series: "
      f"{gap_correlation(kept):.3f}")

print("\nmean gaps by US division and vehicle-1 model-year bin:")
for row in group_summary(kept, ["us_division", "model_year_bin_1"]):
    key = ", ".join(row.key)
    print(f"  {key:32s} n={row.n:3d}  gap1={row.mean_gap_1:.3f}  gap2={row.mean_gap_2:.3f}")
