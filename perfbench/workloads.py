"""The four benchmark workloads, as lists of timed units.

A unit is one call of a public harness driver (``table_run``, ``rank_sweep``
or ``verify_run``).  Every unit runs with ``workers=1`` and rank k=20,
oversampling p=5, power exponent q=0; the workload seed reaches the library
only as the drivers' ``base_seed``.  ``tiny`` shrinks every size so that the
same code path runs in well under a second; it serves as the untimed
warm-up unit of set-up and as the benchmark's own smoke test.
"""

from dataclasses import dataclass
from typing import Callable

from rsvdreg import diagnostics, harness, problems

K, P, Q = 20, 5, 0
DELTAS = (0.01, 0.05)
SWEEP_KS = (2, 4, 6, 8, 10, 15, 20, 25, 30, 35, 40, 50, 60)
SWEEP_POLICIES = ("alpha_star", "10x", "0.1x")


@dataclass(frozen=True)
class Workload:
    name: str
    driver: str  # the harness function each unit calls
    why: str
    full: dict
    tiny: dict
    #: share of a relative change in calibration-kernel time that shows in
    #: this workload's time (see ``calib.py``)
    speed_elasticity: float


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "table-none", "table_run",
            "Table-1 protocol with the identity penalty: direct dense solve, "
            "100-point alpha selection and problem generation carry the weight; "
            "bypasses the penalty layer.",
            full={"n": 2000, "problems": problems.PROBLEM_NAMES, "penalty": "none"},
            tiny={"n": 128, "problems": problems.PROBLEM_NAMES, "penalty": "none"},
            speed_elasticity=0.9,
        ),
        Workload(
            "table-d1", "table_run",
            "Same protocol with the first-difference penalty: the only path "
            "through the standard-form reduction (weighted_pinv, gamma_apply).",
            full={"n": 1500, "problems": problems.PROBLEM_NAMES, "penalty": "d1"},
            tiny={"n": 128, "problems": problems.PROBLEM_NAMES, "penalty": "d1"},
            speed_elasticity=0.8,
        ),
        Workload(
            "sweep-rank", "rank_sweep",
            "Rank sweep on deriv2 and shaw: factorization dominates, with no "
            "direct solve and no penalty; shaw wastes probe columns.",
            full={"n": 2000, "problems": ("deriv2", "shaw"), "ks": SWEEP_KS,
                  "repeats": 3},
            tiny={"n": 64, "problems": ("deriv2", "shaw"), "ks": (2, 4, 8),
                  "repeats": 3},
            speed_elasticity=0.85,
        ),
        Workload(
            "verify", "verify_run",
            "All ten bound checks at n=200: small LAPACK SVDs and per-call "
            "Python overhead instead of large BLAS-3 calls; 100%-pass guard.",
            full={"n": 200, "trials": 20},
            tiny={"n": 40, "trials": 2},
            speed_elasticity=1.0,
        ),
    )
}


@dataclass(frozen=True)
class Unit:
    uid: str
    call: Callable[[], object]


def params(name, tiny=False):
    wl = WORKLOADS[name]
    return wl.tiny if tiny else wl.full


def make_units(name, seed, tiny=False):
    """The ordered units of one pass over workload ``name``."""
    wl = WORKLOADS[name]
    prm = params(name, tiny)
    if wl.driver == "table_run":
        return [
            Unit(prob, lambda prob=prob: harness.table_run(
                [prob], DELTAS, penalty=prm["penalty"], n=prm["n"], k=K, p=P,
                q=Q, repeats=1, base_seed=seed, workers=1))
            for prob in prm["problems"]
        ]
    if wl.driver == "rank_sweep":
        return [
            Unit(prob, lambda prob=prob: harness.rank_sweep(
                prob, DELTAS[0], prm["ks"], n=prm["n"], policies=SWEEP_POLICIES,
                repeats=prm["repeats"], base_seed=seed, p=P, q=Q, workers=1))
            for prob in prm["problems"]
        ]
    return [
        Unit(f"trial{i}", lambda i=i: harness.verify_run(
            diagnostics.VERIFY_CHECKS, seeds=1, n=prm["n"],
            base_seed=verify_seed(seed, i)))
        for i in range(prm["trials"])
    ]


def verify_seed(seed, trial):
    """Distinct verification seeds for distinct workload seeds."""
    return 1000 * seed + trial


def warm_up(name):
    """One untimed unit of ``name`` at tiny size (part of set-up)."""
    return make_units(name, seed=0, tiny=True)[0].call()
