"""Workload inputs as plain data, generated from the benchmark seed.

This module imports neither dplhom nor anything heavy, so the independent
checks in ``oracle.py`` and the set-up probe can share it.  A problem is a
dict with the window half-width ``K``, exponent ``p``, parameter ``lam``,
constant ``a``, a ``b`` field and a ``drive``; ``config_text`` renders one
as a dplhom run configuration.
"""

from __future__ import annotations

import random


def _pure_power(K: int, b: dict, q: float) -> dict:
    return {"K": K, "p": 2.0, "lam": 1.0, "a": 1.0, "b": b,
            "drive": {"kind": "pure_power", "q": q, "c": 1.0}}


CONST = {"kind": "constant", "value": 1.0}
POLY = {"kind": "polynomial", "exponent": 2.0}

# Problems of the ``enumerate`` workload with the start pool of the
# independent Newton oracle that produced each stored inventory (every sign
# pattern at several amplitudes plus this many random starts).  Random
# starts alone are not enough: 10,000 of them miss 8 of the 61 nonzero sign
# classes of K=2, polynomial b, q=4.
ENUMERATE_PROBLEMS = {
    "k1_const_q4": {"spec": _pure_power(1, CONST, 4.0), "oracle_starts": 20_000, "oracle_seed": 1},
    "k1_const_q3": {"spec": _pure_power(1, CONST, 3.0), "oracle_starts": 20_000, "oracle_seed": 2},
    "k1_poly_q4": {"spec": _pure_power(1, POLY, 4.0), "oracle_starts": 20_000, "oracle_seed": 3},
    "k1_poly_q3": {"spec": _pure_power(1, POLY, 3.0), "oracle_starts": 20_000, "oracle_seed": 4},
    "k2_const_q4": {"spec": _pure_power(2, CONST, 4.0), "oracle_starts": 50_000, "oracle_seed": 5},
}


def config_text(spec: dict, seed: int, extra: dict = None) -> str:
    """A dplhom configuration for ``spec`` (p = 2 problems with a = 1)."""
    b, drive = spec["b"], spec["drive"]
    lines = [f"problem.p = {spec['p']!r}",
             f"problem.lambda = {spec['lam']!r}",
             f"problem.half_width = {spec['K']}"]
    if b["kind"] == "constant":
        lines += ["problem.coeff.kind = constant", f"problem.coeff.b = {b['value']!r}"]
    else:
        lines += ["problem.coeff.kind = polynomial",
                  f"problem.coeff.exponent = {b['exponent']!r}"]
    if drive["kind"] == "pure_power":
        lines += ["problem.nonlinearity.kind = pure_power",
                  f"problem.nonlinearity.q = {drive['q']!r}",
                  f"problem.nonlinearity.c = {drive['c']!r}"]
    else:
        lines += ["problem.nonlinearity.kind = log_power",
                  f"problem.nonlinearity.mu = {drive['mu']!r}",
                  f"problem.nonlinearity.nu = {drive['nu']!r}"]
    lines.append(f"solver.seed = {seed}")
    for key, value in (extra or {}).items():
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


# Every point of this grid passes the ladder checks today (README, ``ladder``).
# A round holds each (lambda, b exponent, mu) triple once; the seed assigns
# the half-width, n_target and solver seed, with each half-width used three
# times and each n_target six times, so every round does comparable work.
LADDER_LAMBDA = (1.0, 1.5, 2.0)
LADDER_B_EXPONENT = (1.5, 2.0)
LADDER_MU = (1.5, 2.0)
LADDER_K = (50, 100, 200, 400)
LADDER_N_TARGET = (3, 4)


def ladder_grid(seed: int) -> list:
    rng = random.Random(seed)
    triples = [(lam, ex, mu) for lam in LADDER_LAMBDA for ex in LADDER_B_EXPONENT
               for mu in LADDER_MU]
    ks = list(LADDER_K) * (len(triples) // len(LADDER_K))
    targets = list(LADDER_N_TARGET) * (len(triples) // len(LADDER_N_TARGET))
    rng.shuffle(ks)
    rng.shuffle(targets)
    points = []
    for (lam, ex, mu), K, n_target in zip(triples, ks, targets):
        spec = {"K": K, "p": 2.0, "lam": lam, "a": 1.0,
                "b": {"kind": "polynomial", "exponent": ex},
                "drive": {"kind": "log_power", "mu": mu, "nu": 2.0}}
        points.append({"spec": spec, "n_target": n_target,
                       "solver_seed": rng.randrange(1, 2 ** 31)})
    return points


# The reference problem of the fountain workload (acceptance criterion 7).
FOUNTAIN_SPEC = {"K": 50, "p": 2.0, "lam": 1.0, "a": 1.0,
                 "b": {"kind": "polynomial", "exponent": 2.0},
                 "drive": {"kind": "log_power", "mu": 2.0, "nu": 2.0}}
