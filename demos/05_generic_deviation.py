"""Arbitrary imperfections through a single deviation parameter q.

If the imperfect measurement dominates (1-q) times the ideal one
elementwise, a noise channel exists that surrenders exactly weight q of
the preserved state to the flags.  The best q has a closed form, and an
operator-norm error bound can always be converted into this form by
mixing in uniform noise.
"""

import numpy as np

import detcert as dc
from detcert import POVM, EventTable
from detcert.fock import SpaceLayout

rng = np.random.default_rng(5)
layout = SpaceLayout((("m=0", 1), ("m=1", 2), ("flag", 3)))
events = EventTable(
    k=2, labels=("no-click", "a", "b"), classes=("no-click", "single", "single"), masks=()
)


def random_target(rng):
    mats = {lab: [] for lab in ("m=0", "m=1")}
    for lab in mats:
        d = layout.dim(lab)
        raw = [
            (lambda g: g @ g.conj().T + 0.1 * np.eye(d))(
                rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            )
            for _ in range(3)
        ]
        w = np.linalg.inv(np.linalg.cholesky(sum(raw)))
        mats[lab] = [w @ m @ w.conj().T for m in raw]
    dense = np.zeros((3, 6, 6), dtype=complex)
    for i in range(3):
        dense[i, 0, 0] = mats["m=0"][i][0, 0]
        dense[i, 1:3, 1:3] = mats["m=1"][i]
        dense[i, 3 + i, 3 + i] = 1.0  # the flag |i><i|
    return POVM(layout, dense, events)


f_ideal = random_target(rng)
q_povm = random_target(rng)
q0 = 0.25
f_noise = POVM(layout, (1 - q0) * f_ideal.dense + q0 * q_povm.dense, events)

q_min = dc.min_deviation_q(f_noise, f_ideal)
print(f"measurement mixed with weight {q0}: smallest admissible q = {q_min:.6f}")

channel = dc.generic_channel(f_noise, f_ideal, q_min)
print("CPTP:", dc.verify_cptp(channel, 1e-9).passed)
stats = dc.verify_statistics_equivalence(None, f_noise, f_ideal, channel)
print(f"noisy statistics from the ideal measurement: residual {stats.max_residual:.1e}")

proj = layout.projector(("m=0", "m=1"))
rho = np.diag(rng.dirichlet(np.ones(layout.total_dim)))  # a random diagonal state
kept = np.trace(proj @ channel.apply_dense(rho)).real / np.trace(proj @ rho).real
print(f"preserved weight scales by exactly 1 - q: {kept:.6f} vs {1 - q_min:.6f}")

delta = 0.05
mixed = dc.inf_norm_mixing(f_noise, delta)
scale = 1.0 / (1.0 + len(f_noise) * delta)
print(f"\noperator-norm route at delta = {delta}:")
ok = np.linalg.eigvalsh(mixed.dense - scale * f_noise.dense)[:, 0].min() >= -1e-10
print("mixed measurement dominates the scaled original elementwise:", ok)
