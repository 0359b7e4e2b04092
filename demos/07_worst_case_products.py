"""
Worst-case relative error of rounded products
=============================================

For x1 in (i, i+1) and x2 in (0, 1), conditioning on the second factor
rounding up, the product's relative error takes one of two branch values.
Once x1*x2 <= i/2 both branches are at least 1 (a 100% error), and the
up-branch blows up as x2 approaches zero.
"""

import numpy as np

from srlab import contour_grid, worst_case_rel_error

for x1, x2 in [(0.5, 0.5), (1.5, 0.4), (2.7, 0.3), (4.5, 0.05)]:
    b = worst_case_rel_error(x1, x2)
    print(
        f"x1={x1}, x2={x2}: product {x1 * x2:.3f}, "
        f"error {b.e_down:.3f} with prob {b.p:.2f}, else {b.e_up:.3f}"
    )

grid = contour_grid(x1_max=5.0, resolution=200)
i = np.floor(grid.x1)[:, None]
prod = grid.x1[:, None] * grid.x2[None, :]
small = (prod <= i / 2) & (i >= 1)
min_branch = np.minimum(grid.e_down, grid.e_up)

print()
print(f"grid cells: {grid.e_down.size}, in the small-product region: {small.sum()}")
print(f"smallest branch error there: {min_branch[small].min():.6f}  (always >= 1)")
print(f"largest up-branch error anywhere: {grid.e_up.max():.1f}  (x2 -> 0 blow-up)")
