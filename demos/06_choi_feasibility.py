"""Decide noise-channel existence via the Choi matrix: closed form and probe.

The statistics requirement is linear in the Choi matrix, so existence is
a semidefinite feasibility question.  For the BB84 measurement (orthogonal
rank-one projectors) it has a closed-form answer: the measure-and-prepare
channel is a witness iff the post-processing is column-stochastic, and
this is the witness ``detcert choi-check`` emits.  The general probe,
L-BFGS on the dual of the nearest-point problem, either reaches a Choi
matrix meeting every identity (a witness) or runs off along a Farkas ray
proving none exists.  Every certificate is re-verified from scratch,
without the solver.
"""

import numpy as np

import detcert as dc

p_dc = dc.bb84_squashed_dark_matrix(0.05)
povm = dc.bb84_qubit_measurement("Z")

result = dc.choi_feasibility(p_dc, povm, povm, tol=1e-6, max_iter=10_000)
print("equal dark rates 0.05, Z basis:")
print(f"  verdict    : {result.verdict} (stop: {result.stop})")
print(f"  residual   : {result.residual:.2e}")
print(f"  iterations : {result.iterations}")

report = dc.verify_choi_witness(result.witness, p_dc, povm, povm, 1e-6)
print("  witness re-verified from scratch:", report.passed)
print(f"    PSD residual    {report.psd_residual:.1e}")
print(f"    trace residual  {report.trace_preservation_dev:.1e}")
print(f"    linear residual {report.linear_residual:.1e}")

closed = dc.measure_prepare_witness(p_dc, povm, povm)
closed_report = dc.verify_choi_witness(closed, p_dc, povm, povm, 1e-15)
print("\nthe closed-form measure-and-prepare witness (what choi-check emits):")
print("  re-verified at 1e-15:", closed_report.passed)
print(f"    PSD residual    {closed_report.psd_residual:.1e}")
print(f"    trace residual  {closed_report.trace_preservation_dev:.1e}")
print(f"    linear residual {closed_report.linear_residual:.1e}")

print("\nthe explicit construction solves the same constraints:")
explicit = dc.bb84_simple_noise_channel(0.05).choi
print("  ", dc.verify_choi_witness(explicit, p_dc, povm, povm, 1e-9).passed)

print("\na post-processing demanding a negative probability cannot be realized:")
adversarial = np.array([[1.0, 0.0, 0.0], [0.0, -0.2, 1.2], [0.0, 1.2, -0.2]])
closed = dc.verify_choi_witness(dc.measure_prepare_witness(adversarial, povm, povm), adversarial, povm, povm, 1e-6)
print(f"  closed-form witness: passed {closed.passed}, PSD residual {closed.psd_residual:.1f} (the -0.2 entry)")
result = dc.choi_feasibility(adversarial, povm, povm, tol=1e-6, max_iter=4000)
print(f"  verdict    : {result.verdict} (stop: {result.stop})")
print(f"  iterations : {result.iterations}")

ray = dc.verify_farkas_ray(result.ray, adversarial, povm, povm, 1e-6)
print("  Farkas ray re-verified from scratch:", ray.passed)
print(f"    lambda_max on the full Choi space {ray.lambda_max:.1e}, absorbed by the trace-preservation block")
print(f"    margin {ray.margin:.3f}: every PSD Choi matrix misses an identity by at least this")
