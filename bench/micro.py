"""Isolated layer timings and the import breakdown, for traced runs.

Each figure times one dplhom call on its own, untraced, and reports the
median of several repeats.  The import breakdown runs a fresh interpreter
under ``python -X importtime``; numpy is imported first so its cost is not
charged to whichever dplhom module happens to import it first.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

import dplhom.lattice
import dplhom.solver
from dplhom import (CoefficientField, LatticeSeq, LogPower, ProblemSpec, PurePower,
                    SolverConfig, Window)

IMPORT_MODULES = ("dplhom", "dplhom.nonlinearity", "dplhom.solver", "dplhom.fountain")


def _reference(K: int) -> ProblemSpec:
    window = Window(K)
    return ProblemSpec(2.0, 1.0, CoefficientField.polynomial(window, exponent=2.0),
                       LogPower(2.0, 2.0, 2.0))


def _median_call(fn, number: int, repeats: int = 5) -> float:
    """Median over ``repeats`` batches of the mean time of one call, in s."""
    per_call = []
    for _ in range(repeats):
        t0 = perf_counter()
        for _ in range(number):
            fn()
        per_call.append((perf_counter() - t0) / number)
    return statistics.median(per_call)


def isolated() -> dict:
    residual_many = dplhom.lattice.residual_many
    rng = np.random.default_rng(0)
    out = {}
    small = ProblemSpec(2.0, 1.0, CoefficientField.constant(Window(2)), PurePower(2.0, 4.0))
    for name, prob in (("n5_us", small), ("n101_us", _reference(50)),
                       ("n1001_us", _reference(500))):
        v = rng.uniform(-1.0, 1.0, prob.window.size)
        out[f"lattice.residual_many.{name}"] = 1e6 * _median_call(
            lambda: residual_many(v, prob), number=500)
    ref = _reference(50)
    V = rng.uniform(-1.0, 1.0, (1000, ref.window.size))
    out["lattice.residual_many.batch1000x101_row_us"] = 1e6 / 1000 * _median_call(
        lambda: residual_many(V, ref), number=10)

    cfg = SolverConfig(seed=0)
    amp = dplhom.solver.bump_amplitude(ref, 0)
    start = LatticeSeq.spike(ref.window, 0, amp)
    out["solver.newton_solve.k50_bump_ms"] = 1e3 * _median_call(
        lambda: dplhom.solver.newton_solve(start, ref, cfg), number=5)
    out["solver.bump_amplitude.site_ms"] = 1e3 * _median_call(
        lambda: dplhom.solver.bump_amplitude(ref, 1), number=2)

    # the first mountain pass of solution_sequence: zero to a spike of
    # negative energy, the spike doubled until the energy turns negative
    c = 1.0
    while dplhom.lattice.energy(LatticeSeq.spike(ref.window, 0, c), ref) >= 0.0:
        c *= 2.0
    low, high = LatticeSeq.zeros(ref.window), LatticeSeq.spike(ref.window, 0, c)
    out["solver.mountain_pass.k50_s"] = _median_call(
        lambda: dplhom.solver.mountain_pass(low, high, ref, cfg), number=1, repeats=3)
    return out


def import_breakdown(src: str, repeats: int = 3) -> dict:
    """Cumulative import time in s of each of IMPORT_MODULES, median of runs."""
    env = dict(os.environ, PYTHONPATH=src)
    samples = {name: [] for name in IMPORT_MODULES}
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import numpy; import dplhom"],
                              env=env, capture_output=True, text=True, check=True)
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2] in samples:
                samples[parts[2]].append(int(parts[1]) * 1e-6)
    missing = [name for name, vals in samples.items() if len(vals) != repeats]
    if missing:
        raise RuntimeError(f"no import time reported for {missing}")
    return {f"import.{name}_s": statistics.median(vals) for name, vals in samples.items()}
