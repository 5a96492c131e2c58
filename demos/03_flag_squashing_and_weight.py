"""Flag-state target measurements and the weight outside the kept blocks.

The flag-state squasher keeps the vacuum and one-photon blocks of the
measurement and replaces everything above the cutoff by classical flags.
How much of the state the flags can absorb is bounded by one observed
probability, here the union of all multi-click patterns.
"""

import numpy as np

import detcert as dc

setup = dc.passive_bb84_setup([0.6, 0.55, 0.5, 0.58])
povm = dc.build_threshold_povm(setup, cutoff=2)

squashed = dc.flag_state_target(povm, cutoff=1)
print("squashed layout:", squashed.layout.blocks)
print("flag dimension (one flag per click pattern):", squashed.layout.dim("flag"))

cg = dc.multiclick_coarse_graining(povm.events)
coarse = dc.apply_postprocessing(cg, povm)
print("after merging multi-clicks:", dc.flag_state_target(coarse, 1).layout.dim("flag"), "flags")

p_multi = 0.002
wb = dc.weight_bound(povm, "multi", p_multi, cutoff=1)
print(f"\nobserved multi-click probability {p_multi}")
print(f"  eigenvalue inside the kept blocks : {wb.lambda_inside:.4f}")
print(f"  eigenvalue outside                : {wb.lambda_outside:.4f}")
print(f"  weight outside the kept blocks    : <= {wb.value:.6f}")

lo, hi = dc.eta_star_range(0.5, 0.6)
print(f"\nadmissible common efficiency for eta in [0.5, 0.6]: [{lo:.4f}, {hi}]")

p00 = dc.dark_count_matrix([0.01] * 4).entries[0, 0]
w_out = dc.propagate_weight(wb.value, p00, eta_min=0.5, eta_star=1.0)
print(f"after giving dark counts and loss to the adversary: W' = {w_out:.6f}")
print("  (no-dark survival", round(p00, 6), "* efficiency ratio 0.5)")

low_povm = dc.build_threshold_povm(setup.with_eta(0.5), cutoff=2)
low = dc.weight_bound(low_povm, "multi", p_multi, cutoff=1)
print(f"\nbound at the all-low corner eta = 0.5: {low.value:.6f}")
print("  (what `detcert weight` reports for eta in [0.5, 0.6] when no eta is given;")
print("   that it is the largest bound over the box is not yet proved)")
