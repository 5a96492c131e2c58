"""Build threshold-detector POVMs on truncated photon-number blocks.

A detection setup is an isometry from input modes into detector modes plus
a per-detector efficiency.  The POVM elements are exact on each photon
block; with one photon and four detectors only single clicks (or no click)
can happen.
"""

import numpy as np

import detcert as dc

np.set_printoptions(precision=4, suppress=True)

eta = [0.8, 0.85, 0.9, 0.75]
setup = dc.passive_bb84_setup(eta)
print("passive BB84 mode map (rows H, V, D, A):")
print(setup.mode_map)

povm = dc.build_threshold_povm(setup, cutoff=2)
print(f"\n{len(povm)} click patterns, blocks {povm.layout.labels}")

print("\nvacuum never clicks:")
print("  P(no-click | vacuum) =", povm.block("m=0")[0, 0, 0].real)

print("\none-photon block of the first single-click element (rank one):")
idx = povm.events.single_indices[0]
print(povm.block("m=1")[idx].real)

print("\nmulti-click elements vanish below two photons:")
worst = abs(povm.block("m=1")[list(povm.events.multi_indices)]).max()
print("  largest one-photon entry over all multi-click elements:", worst)

report = dc.verify_single_photon_assumption(povm)
print("\nclick-count assumption:", "pass" if report.passed else "FAIL")

total = povm.block("m=2").sum(axis=0)
print("completeness on the two-photon block (should be identity):")
print(total.real)
