"""Fit a decaying exponential by eliminating its linear amplitude.

The model y * exp(rate * t) is linear in the amplitude y, so at any fixed
rate the best amplitude comes from one least-squares solve. That collapses
the two-parameter fit into a one-dimensional search over the rate, which a
grid bracket plus quasi-Newton steps on the section settle.
"""

import numpy as np

import minsection as ms

entry = ms.get_problem("EXP_FIT")
merit = entry.merit
split = ms.ParameterSplit((0,), (1,))

print("samples: d_k = 2 * exp(-0.5 * t_k), t = 0..9 (noiseless)")
print(f"domain box: {merit.domain_box.tolist()}")

# The eliminated block is convex by construction; the probe certifies it.
certificate = ms.probe_y_convexity(merit, split)
print(f"\nconvexity probe: {certificate.verdict}, "
      f"min eigenvalue {certificate.min_eig_over_samples:.4f} "
      f"over {certificate.sampled_points} rate samples")

# One exact amplitude solve per rate: the section through the graph of the
# conditional minima.
print("\nrate -> best amplitude -> section value")
for rate in (-1.0, -0.5, -0.2, 0.0):
    sub = ms.subminimize_linear(ms.SliceProblem(merit, split, [rate]))
    print(f"  {rate:+.2f} -> {sub.y_star[0]:+.6f} -> {sub.value:.6e}")

# The full solve: bracket the section over the rate grid, refine, report.
report = ms.solve_hierarchical(merit, split)
print("\nhierarchical solve")
print(f"  minimizer:        {report.minimizer}")
print(f"  value:            {report.value:.3e}")
print(f"  inner solves:     {report.inner_solves}")
print(f"  gradient norm:    {report.certificates.gradient_norm:.3e}")

# A damped-Newton baseline started from the box center lands on the same
# point, illustrating that nothing was lost by eliminating the amplitude.
direct = ms.solve_direct(merit, merit.domain_box.mean(axis=1))
gap = np.max(np.abs(report.minimizer - direct.minimizer))
print("\ndirect baseline")
print(f"  minimizer:        {direct.minimizer}")
print(f"  max coordinate gap vs hierarchical: {gap:.2e}")
