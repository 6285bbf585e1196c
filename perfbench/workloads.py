"""The benchmark's workloads: lists of CLI calls made from a seed.

One operation is one call of sstkalman.cli.main.  A pass runs every
operation of a workload once, in order; a run repeats whole passes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# simulate: one call per (code, mode), each over three points of one long block
SIM_CALLS = (("c1", "general"), ("c1", "qli"), ("c2", "general"), ("c2", "qli"))
SIM_BRANCHES = 5_000
SCARCE_DB = (6, 7, 8)
DENSE_DB = (-4, -2, 0)

ALPHA_POINTS = 5
KALMAN_STATES = 3
KALMAN_STEPS = 8

# search --nu 10 and 12 fail on every run through the trace_compare fault
SEARCH_NUS = (10, 12)

NAMES = ("sim-scarce", "sim-dense", "exact-analysis", "qli-search")


@dataclass(frozen=True)
class Op:
    """One CLI call: its argv, what it computes (for the checks) and its size.

    items counts the work it does: simulated branches for simulate, output
    rows for everything else.
    """

    argv: tuple
    kind: str
    params: dict = field(default_factory=dict)
    items: int = 0


def _db_arg(values):
    # '=' keeps argparse from reading a leading minus sign as an option
    return "--ebn0-db=" + ",".join(f"{v:g}" for v in values)


def _simulate_ops(rng, db_values, branches):
    ops = []
    for code, mode in SIM_CALLS:
        seed = rng.randrange(1 << 31)
        ops.append(Op(
            argv=("simulate", "--code", code, "--mode", mode, _db_arg(db_values),
                  "--branches", str(branches), "--seed", str(seed), "--format", "json"),
            kind="simulate",
            params={"code": code, "mode": mode, "db": tuple(db_values),
                    "branches": branches},
            items=branches * len(db_values)))
    return ops


def _exact_ops(rng):
    ops = [Op(("tables", "--table", str(t)), "table", {"table": t}, 21)
           for t in range(1, 9)]
    ops += [Op(("curves", "--code", c, "--mode", m, "--ebn0-db=-10..10"), "curves",
               {"code": c, "mode": m}, 21)
            for c in ("c1", "c2") for m in ("general", "qli")]
    db_values = tuple(round(rng.uniform(-10.0, 10.0), 1) for _ in range(ALPHA_POINTS))
    for code in ("c1", "c2"):
        ops.append(Op(("alpha", "--code", code, _db_arg(db_values)), "alpha-values",
                      {"code": code, "db": db_values}, ALPHA_POINTS))
        ops.append(Op(("alpha", "--code", code, "--emit", "polynomial"),
                      "alpha-polynomial", {"code": code}, 1))
    seed = rng.randrange(1 << 31)
    ops.append(Op(("kalman-check", "--seed", str(seed), "--states", str(KALMAN_STATES),
                   "--steps", str(KALMAN_STEPS)), "kalman",
                  {"seed": seed, "states": KALMAN_STATES, "steps": KALMAN_STEPS}, 11))
    return ops


def _search_ops(nus):
    ops = [Op(("tables", "--table", str(t)), "search-table", {"table": t},
              2 ** (t - 7)) for t in (9, 10)]
    ops += [Op(("search", "--nu", str(nu)), "search", {"nu": nu}, 2 ** (nu - 2))
            for nu in nus]
    return ops


def build(name, seed, tiny=False):
    """The operations of one pass of workload `name`.

    tiny shrinks the work (the smallest block simulate accepts, a search
    at nu = 6 and 7) so that the benchmark's own test runs in seconds.
    """
    rng = random.Random(f"{name}:{seed}")
    if name == "sim-scarce":
        return _simulate_ops(rng, SCARCE_DB, 1_000 if tiny else SIM_BRANCHES)
    if name == "sim-dense":
        return _simulate_ops(rng, DENSE_DB, 1_000 if tiny else SIM_BRANCHES)
    if name == "exact-analysis":
        return _exact_ops(rng)
    if name == "qli-search":
        return _search_ops((6, 7) if tiny else SEARCH_NUS)
    raise ValueError(f"unknown workload {name!r}; choose one of {', '.join(NAMES)}")
