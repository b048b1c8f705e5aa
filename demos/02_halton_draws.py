"""Halton draws: radical inverses, per-observation blocks, normal transform.

Shows why the simulated likelihood uses stratified quasi-random draws
instead of pseudo-random ones: the empirical moments settle much faster.
"""

import numpy as np

from fuelgap import HaltonConfig, build_draw_store, radical_inverse

print("radical inverses, base 2:",
      [radical_inverse(i, 2) for i in range(1, 9)])
print("radical inverses, base 3:",
      [round(radical_inverse(i, 3), 4) for i in range(1, 9)])

# any 2^m consecutive points fill the 2^m dyadic cells exactly once
m = 4
span = 2 ** m
pts = [radical_inverse(i, 2) for i in range(9, 9 + span)]
cells = sorted(int(p * span) for p in pts)
print(f"\n{span} consecutive base-2 points occupy cells {cells}")

config = HaltonConfig(bases=(2, 3), draws_per_obs=4, burn=0)
print("\nper-observation blocks are disjoint slices of one stream:")
r = config.draws_per_obs
for i in range(3):
    # observation i owns indices burn + i*R + 1 ... burn + (i+1)*R of each base
    block = np.array([[radical_inverse(config.burn + i * r + j + 1, base)
                       for base in config.bases] for j in range(r)])
    print(f"  obs {i}: dim0={np.round(block[:, 0], 4)} dim1={np.round(block[:, 1], 4)}")

store = build_draw_store(250, HaltonConfig(bases=(2,), draws_per_obs=400, burn=50))
z = store.z.ravel()
print(f"\n{z.size} standard-normal Halton draws: "
      f"mean={z.mean():+.5f}, variance={z.var():.5f}")
pseudo = np.random.default_rng(0).standard_normal(z.size)
print(f"{z.size} pseudo-random draws for comparison:  "
      f"mean={pseudo.mean():+.5f}, variance={pseudo.var():.5f}")
