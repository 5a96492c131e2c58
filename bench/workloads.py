"""Seeded setup descriptors for the benchmark workloads.

A workload is an endless stream of rounds; a round is a list of ops, and
an op is one ``detcert`` subcommand on one descriptor together with the
outcome the descriptor was built to produce.  Round ``r`` of workload
``w`` at seed ``s`` depends only on ``(w, s, r)``.  ``plan`` turns a
workload, a seed and a run length into the run's whole schedule before
anything is timed, so the same seed always gives the same ops, in the same
order and number, whatever the speed of the machine.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

# Expected outcomes, fixed by how a descriptor was built.
REDUCIBLE = "reducible"  # analyze: exit 0, every check passed
NOT_REDUCIBLE = "not-reducible"  # analyze: exit 2, swap LP infeasible
FEASIBLE = "feasible"  # choi-check: exit 0, verified witness in each basis
LP_INFEASIBLE = "lp-infeasible"  # choi-check: exit 2, swap equation infeasible

# active-mixed: dark maxima sit at the midpoints of this many equal strata of
# log10 d in [-3, -1].  Fixed strata keep the cost of a round the same from
# seed to seed; the feasibility probe's cost grows steeply as d falls.
ACTIVE_STRATA = 4
ACTIVE_LOG_D = (-3.0, -1.0)
# Unequal rates differ by at least this much in log10 d, far outside the
# swap LP tolerance.
ACTIVE_MIN_LOG_GAP = 0.25
# The feasibility probe seeds its restarts from the descriptor, and which
# restart converges can change an op's cost threefold.  A fixed probe seed
# (the shipped descriptors' 7) keeps each stratum's cost the same per run.
ACTIVE_PROBE_SEED = 7

# Nominal warm seconds per op, measured on the reference machine (2 vCPU
# Xeon 2.1 GHz, BLAS pinned to 1 thread).  They size and order a run's
# plan; no timing decides what runs.
PASSIVE_COST_S = {"multiclick": 0.25, "none": 2.4}
ACTIVE_FAST_COST_S = 0.006  # analyze, and choi-check with an infeasible swap LP
# Feasibility probe per stratum, lowest d first: the iteration count grows
# roughly as 1/d, and the lowest stratum runs to the 30000-iteration cap.
ACTIVE_PROBE_COST_S = (10.5, 1.1, 0.27, 0.045)
# Light rounds, and the cold CLI, run the probe only where it costs less
# than this: one cold sample at the capped stratum would take a fifth of a
# run.  The full in-process rounds run every op, the capped one included.
LIGHT_MAX_S = 0.5
# Interpreter start plus ``import detcert``: the nominal cost of a child
# process before its op.
STARTUP_COST_S = 0.6


@dataclass(frozen=True)
class Op:
    """One subcommand on one descriptor, with its expected outcome."""

    cmd: str  # "analyze" | "choi-check"
    descriptor: dict
    expect: str
    tag: str  # "<workload>/s<seed>/r<round>/<index>", names the op in failure lists
    cost: float  # nominal warm seconds on the reference machine, for planning only
    slot: str  # place in the round's mix: one slot does the same work in every round


def _rng(workload: str, seed: int, round_index: int) -> random.Random:
    # String seeds hash through SHA-512: stable across processes and versions.
    return random.Random(f"{workload}/{seed}/{round_index}")


def _eta_ranges(rng: random.Random, k: int) -> list[list[float]]:
    ranges = []
    for _ in range(k):
        lo, hi = sorted((rng.uniform(0.4, 1.0), rng.uniform(0.4, 1.0)))
        ranges.append([lo, hi])
    return ranges


def passive_descriptor(rng: random.Random, coarse_grain: str) -> dict:
    """Passive BB84: per-detector eta ranges in [0.4, 1], dark maxima in [0, 0.05]."""
    return {
        "setup": "passive-bb84",
        "eta_range": _eta_ranges(rng, 4),
        "dark_range": [[0.0, rng.uniform(0.0, 0.05)] for _ in range(4)],
        "cutoff": 1,
        "coarse_grain": coarse_grain,
        "weight_in": 0.0,
        "seed": rng.randrange(2**31),
    }


def active_descriptor(rng: random.Random, dark: tuple[float, float]) -> dict:
    return {
        "setup": "active-bb84",
        "eta_range": _eta_ranges(rng, 2),
        "dark_range": [[0.0, dark[0]], [0.0, dark[1]]],
        "cutoff": 1,
        "seed": ACTIVE_PROBE_SEED,
    }


def _unequal_partner(rng: random.Random, log_d: float) -> float:
    lo, hi = ACTIVE_LOG_D
    while True:
        other = rng.uniform(lo, hi)
        if abs(other - log_d) >= ACTIVE_MIN_LOG_GAP:
            return other


def _passive_round(workload: str, coarse_grain: str, seed: int, r: int) -> list[Op]:
    desc = passive_descriptor(_rng(workload, seed, r), coarse_grain)
    return [Op("analyze", desc, REDUCIBLE, f"{workload}/s{seed}/r{r}/0", PASSIVE_COST_S[coarse_grain], "analyze")]


def _active_round(workload: str, seed: int, r: int) -> list[Op]:
    """One descriptor pair per stratum, strata in seeded order.

    The equal-rate descriptor has a feasible swap LP, so ``analyze`` is
    reducible and ``choi-check`` must return a verified witness.  The
    unequal-rate one has an infeasible LP and both ops exit 2.
    """
    rng = _rng(workload, seed, r)
    lo, hi = ACTIVE_LOG_D
    width = (hi - lo) / ACTIVE_STRATA
    strata = list(range(ACTIVE_STRATA))
    rng.shuffle(strata)
    ops = []
    for stratum in strata:
        log_d = lo + (stratum + 0.5) * width
        d = 10.0**log_d
        d_other = 10.0 ** _unequal_partner(rng, log_d)
        equal = active_descriptor(rng, (d, d))
        unequal = active_descriptor(rng, (d, d_other) if rng.random() < 0.5 else (d_other, d))
        fast = ACTIVE_FAST_COST_S
        ops += [
            Op(cmd, desc, expect, "", cost, f"{cmd}/{expect}/stratum{stratum}")
            for cmd, desc, expect, cost in (
                ("analyze", equal, REDUCIBLE, fast),
                ("analyze", unequal, NOT_REDUCIBLE, fast),
                ("choi-check", equal, FEASIBLE, ACTIVE_PROBE_COST_S[stratum]),
                ("choi-check", unequal, LP_INFEASIBLE, fast),
            )
        ]
    return [
        Op(op.cmd, op.descriptor, op.expect, f"{workload}/s{seed}/r{r}/{i}", op.cost, op.slot)
        for i, op in enumerate(ops)
    ]


def _active_light_round(seed: int, r: int) -> list[Op]:
    return [op for op in _active_round("active-mixed", seed, r) if op.cost <= LIGHT_MAX_S]


def _active_warmup(seed: int) -> list[Op]:
    rng = _rng("active-mixed-warmup", seed, 0)
    d = 10.0 ** ACTIVE_LOG_D[1]
    desc = active_descriptor(rng, (d, d))
    return [
        Op("analyze", desc, REDUCIBLE, f"warmup/s{seed}/0", ACTIVE_FAST_COST_S, "warmup"),
        Op("choi-check", desc, FEASIBLE, f"warmup/s{seed}/1", ACTIVE_PROBE_COST_S[-1], "warmup"),
    ]


def _passive_warmup(seed: int) -> list[Op]:
    # Multiclick runs the same functions as fine graining in a tenth of the time.
    return _passive_round("passive-warmup", "multiclick", seed, 0)


# "shares": fraction of a run's planned seconds for fresh set-up
# interpreters, cold CLI ops, warm in-process rounds and, on active-mixed,
# warm light rounds.  An active-mixed round takes about 12 s, most of it in
# one capped probe; two rounds fit a run, and light rounds add samples of
# the fast op kinds at many more moments of the run.  "light_round" gives
# a round's ops that cost at most LIGHT_MAX_S: what a cold CLI runs.
PASSIVE_SHARES = {"setup": 0.2, "cli": 0.4, "inproc": 0.4}
WORKLOADS = {
    "passive-multiclick": {
        "round": lambda seed, r: _passive_round("passive-multiclick", "multiclick", seed, r),
        "light_round": lambda seed, r: _passive_round("passive-multiclick", "multiclick", seed, r),
        "warmup": _passive_warmup,
        "shares": PASSIVE_SHARES,
    },
    "passive-fine": {
        "round": lambda seed, r: _passive_round("passive-fine", "none", seed, r),
        "light_round": lambda seed, r: _passive_round("passive-fine", "none", seed, r),
        "warmup": _passive_warmup,
        "shares": {"setup": 0.1, "cli": 0.5, "inproc": 0.4},
    },
    "active-mixed": {
        "round": lambda seed, r: _active_round("active-mixed", seed, r),
        "light_round": _active_light_round,
        "warmup": _active_warmup,
        "shares": {"setup": 0.12, "cli": 0.3, "inproc": 0.5, "light": 0.08},
    },
}
# The plan fills this share of ``--seconds`` at nominal cost; the rest is
# left for interpreter start, warm-up and machines slower than the reference.
PLAN_FILL = 0.8
MIN_CHILDREN = 3  # set-up and CLI samples in every run, however short


def op_stream(workload: str, seed: int, key: str = "round", start: int = 0):
    """Ops of rounds ``start``, ``start + 1``, ... in order, as ``(round_index, op)``."""
    r = start
    while True:
        for op in WORKLOADS[workload][key](seed, r):
            yield r, op
        r += 1


def _count(budget: float, cost: float, minimum: int = 0) -> int:
    """How many items of nominal ``cost`` fit ``budget``."""
    return max(minimum, round(budget / cost))


def plan(workload: str, seed: int, seconds: float) -> list[tuple[str, Op]]:
    """A run's schedule: ``(activity, op)`` with activity "setup", "cli" or "inproc".

    Counts follow from the shares and nominal costs, and a round has the
    same op kinds at every seed, so the counts depend only on the workload
    and ``seconds``.  Full rounds keep the workload's op mix in every run.
    Each activity's ops are spread evenly over the run, by count, so that
    the timings sample as many moments of the run as they can.
    """
    w = WORKLOADS[workload]
    budget = {k: share * PLAN_FILL * seconds for k, share in w["shares"].items()}
    full, light = w["round"](seed, 0), w["light_round"](seed, 0)
    light_cost = sum(op.cost for op in light) / len(light)
    n_rounds = _count(budget["inproc"], sum(op.cost for op in full), 1)
    n_setup = _count(budget["setup"], STARTUP_COST_S, MIN_CHILDREN)
    n_cli = _count(budget["cli"], STARTUP_COST_S + light_cost, MIN_CHILDREN)
    n_light = _count(budget.get("light", 0.0), light_cost * len(light))
    lists = {
        "setup": [op for _, op in itertools.islice(op_stream(workload, seed), n_setup)],
        "cli": [op for _, op in itertools.islice(op_stream(workload, seed, "light_round"), n_cli)],
        "inproc": [op for r in range(n_rounds) for op in w["round"](seed, r)],
        # Light rounds continue the round numbering: every op has its own descriptor.
        "light": [op for r in range(n_rounds, n_rounds + n_light) for op in w["light_round"](seed, r)],
    }
    keyed = [
        ((i + 0.5) / len(ops), order, activity, op)
        for order, (activity, ops) in enumerate(lists.items())
        for i, op in enumerate(ops)
    ]
    keyed.sort(key=lambda item: item[:2])
    return [("inproc" if activity == "light" else activity, op) for _, _, activity, op in keyed]
