"""The three workloads: inputs from the seed, the timed operations, the checks.

``build(workload, seed, scratch)`` parses the workload's configurations
and builds its problems (this is what ``setup_s`` times).  The returned
object's ``ops`` are run once per round; every call into dplhom is looked
up through its module at call time so a tracer installed later sees it.
``check`` verifies one round's outputs with ``oracle.py``, which never
calls dplhom; ``same`` compares a later round with the first.
"""

from __future__ import annotations

import filecmp
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import dplhom.cli
import dplhom.config
import dplhom.fountain
import dplhom.hypotheses
import dplhom.solver

import oracle
import specs


@dataclass
class Op:
    name: str
    run: Callable[[int], object]      # round index -> output
    meta: dict = field(default_factory=dict)


class CheckError(AssertionError):
    """An output failed an independent check."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


# ================================================================== enumerate

# (problem, random starts, complete).  A ``complete`` op is known to find its
# problem's whole inventory, so its result must equal the oracle's: bump
# starts are seed-independent, and 50 random starts found all 4 roots of
# k1_const_q3 by multistart alone for each of seeds 0-99.  The mix holds ops
# where the deflation rounds find roots that multistart missed (k1_const_q4,
# k1_poly_q3, k2_const_q4 from bump starts: 8 -> 12, 5 -> 7, 10 -> 17) and ops
# where they add nothing (k1_poly_q4 from bump starts; k1_const_q3, whose
# multistart is already complete, so its deflation round is pure cost).
ENUMERATE_OPS = (
    ("k1_const_q4", 0, True),
    ("k1_poly_q4", 0, False),
    ("k1_poly_q3", 0, False),
    ("k2_const_q4", 0, False),
    ("k1_const_q3", 50, True),
)


class Enumerate:
    def __init__(self, seed: int, scratch: Path):
        self.ops = []
        for name, random_starts, complete in ENUMERATE_OPS:
            spec = specs.ENUMERATE_PROBLEMS[name]["spec"]
            cfg = dplhom.config.parse_config_text(specs.config_text(spec, seed))
            prob, scfg = cfg.build_problem(), cfg.build_solver()
            self.ops.append(Op(f"{name}+{random_starts}", self._runner(prob, scfg, random_starts),
                               {"problem": name, "spec": spec, "complete": complete}))
        self._inventories = None

    @staticmethod
    def _runner(prob, scfg, random_starts):
        def run(_round):
            sols = dplhom.solver.find_critical_points(prob, scfg, random_starts=random_starts)
            return [np.array(r.u.values) for r in sols]
        return run

    def check(self, op: Op, roots) -> int:
        if self._inventories is None:
            self._inventories = oracle.load_inventories()
        spec, inventory = op.meta["spec"], self._inventories[op.meta["problem"]]
        for v in roots:
            res = oracle.literal_residual_inf(spec, v)
            _require(res <= oracle.ROOT_TOL, f"{op.name}: returned root has residual {res:.2e}")
            _require(oracle.contains(inventory, v), f"{op.name}: root outside the oracle inventory")
        _require(len(oracle.dedup(roots)) == len(roots), f"{op.name}: a root is repeated up to sign")
        if op.meta["complete"]:
            _require(len(roots) == len(inventory),
                     f"{op.name}: {len(roots)} roots, oracle has {len(inventory)}")
        return len(roots)

    @staticmethod
    def same(op: Op, first, later) -> bool:
        return len(first) == len(later) and all(np.array_equal(a, b) for a, b in zip(first, later))


# ===================================================================== ladder

TAIL_FRACTION = 0.8
TAIL_TOL = 1e-6
DRIFT_TOL = 1e-6
CONTINUATION_GROWTH = 10


class Ladder:
    def __init__(self, seed: int, scratch: Path):
        self.scratch = scratch
        cfg_dir = scratch / "configs"
        cfg_dir.mkdir(parents=True, exist_ok=True)
        self.ops = []
        for i, point in enumerate(specs.ladder_grid(seed)):
            text = specs.config_text(point["spec"], point["solver_seed"],
                                     {"sequence.n_target": point["n_target"]})
            cfg = dplhom.config.parse_config_text(text)   # validate before timing
            cfg.build_problem(), cfg.build_solver(), cfg.build_plan()
            path = cfg_dir / f"ladder_{i:02d}.cfg"
            path.write_text(text, encoding="utf-8")
            self.ops.append(Op(f"ladder_{i:02d}", self._runner(i, path), point))

    def _runner(self, i: int, path: Path):
        def run(round_idx):
            out = self.scratch / "out" / f"r{round_idx}" / f"c{i:02d}"
            if out.exists():
                shutil.rmtree(out)
            code = dplhom.cli.run(["sequence", "--config", str(path), "--out", str(out),
                                   "--quiet"])
            return {"code": code, "dir": out}
        return run

    @staticmethod
    def failed(output) -> bool:
        return output["code"] != 0

    def check(self, op: Op, output) -> int:
        spec, n_target = op.meta["spec"], op.meta["n_target"]
        K = spec["K"]
        out = output["dir"]
        files = sorted(out.glob("solution_*.json"))
        _require(len(files) == n_target, f"{op.name}: {len(files)} of {n_target} solutions")
        wide = dict(spec, K=K + CONTINUATION_GROWTH)
        energies = []
        for path in files:
            rec = json.loads(path.read_text(encoding="utf-8"))
            u = rec["u"]
            _require(rec["k"] == list(range(-K, K + 1)), f"{path.name}: wrong window")
            res = oracle.literal_residual_inf(spec, u)
            _require(res <= oracle.ROOT_TOL, f"{path.name}: residual {res:.2e}")
            e = oracle.literal_energy(spec, u)
            _require(abs(e - rec["scalars"]["energy"]) <= 1e-9 * max(1.0, abs(e)),
                     f"{path.name}: energy {rec['scalars']['energy']!r}, literal {e!r}")
            far = max(abs(x) for k, x in zip(rec["k"], u) if abs(k) >= TAIL_FRACTION * K)
            _require(far < TAIL_TOL, f"{path.name}: tail {far:.2e}")
            drift = rec["extras"]["continuation"]["drift"]
            _require(drift < DRIFT_TOL, f"{path.name}: continuation drift {drift:.2e}")
            padded = [0.0] * CONTINUATION_GROWTH + list(u) + [0.0] * CONTINUATION_GROWTH
            res_wide = oracle.literal_residual_inf(wide, padded)
            _require(res_wide <= oracle.ROOT_TOL,
                     f"{path.name}: residual {res_wide:.2e} on the wider window")
            energies.append(e)
        _require(all(b - a > 1e-8 for a, b in zip(energies, energies[1:])),
                 f"{op.name}: energies not strictly increasing: {energies}")
        return len(files)

    @staticmethod
    def same(op: Op, first, later) -> bool:
        return first["code"] == later["code"] and _same_tree(first["dir"], later["dir"])

    def rerun_identical(self, op: Op, first) -> bool:
        """One more equal-seed run of ``op``; its files must match byte for byte."""
        return self.same(op, first, op.run("rerun"))


def _same_tree(a: Path, b: Path) -> bool:
    names_a = sorted(p.name for p in a.iterdir())
    names_b = sorted(p.name for p in b.iterdir())
    if names_a != names_b:
        return False
    match, mismatch, errors = filecmp.cmpfiles(a, b, names_a, shallow=False)
    return not mismatch and not errors


# =================================================================== fountain

FOUNTAIN_Q = 4.0
FOUNTAIN_SAMPLES = 1000
CUBE_POINTS = 16          # fresh sup-norm cube points per row, plus as many vertices


class Fountain:
    def __init__(self, seed: int, scratch: Path, n_max: int = None):
        self.seed = seed
        cfg = dplhom.config.parse_config_text(specs.config_text(specs.FOUNTAIN_SPEC, seed))
        prob = cfg.build_problem()
        rep = dplhom.hypotheses.check_hypothesis(prob.nonlinearity, "H2", cfg.build_plan())
        self.d = rep.constants["d"]
        n_list = list(range(1, (n_max or prob.window.size) + 1))
        self.ops = [Op("fountain_table", self._runner(prob, n_list), {"n_list": n_list})]

    def _runner(self, prob, n_list):
        def run(_round):
            return dplhom.fountain.fountain_table(prob, q=FOUNTAIN_Q, d=self.d, n_list=n_list,
                                                  seed=self.seed, samples=FOUNTAIN_SAMPLES)
        return run

    def check(self, op: Op, rows) -> int:
        spec = specs.FOUNTAIN_SPEC
        p, lam, q, d = spec["p"], spec["lam"], FOUNTAIN_Q, self.d
        _require([r.n for r in rows] == op.meta["n_list"], "rows do not follow n_list")
        for name in ("beta_p", "beta_q"):
            vals = [getattr(r, name) for r in rows]
            _require(all(b - a <= 1e-9 for a, b in zip(vals, vals[1:])),
                     f"{name} increases with n")
        verified = 0
        for r in rows:
            if r.feasible:
                rz = r.radius_z
                lhs = rz ** p / p - lam * d * (r.beta_p ** p * rz ** p + r.beta_q ** q * rz ** q)
                _require(abs(lhs - r.energy_floor) <= 1e-10 * abs(r.energy_floor),
                         f"n={r.n}: floor identity off by {abs(lhs - r.energy_floor):.2e}")
                _require(r.z_violations == 0, f"n={r.n}: {r.z_violations} floor violations")
                verified += 1
            if r.radius_y is not None:
                _require(r.y_violations == 0 and r.y_max_energy <= 1e-9,
                         f"n={r.n}: ceiling violated (max energy {r.y_max_energy!r})")
                verified += 1
        _require(all(r.feasible for r in rows), "a split index is infeasible")
        _require(verified > len(rows), "no row reached a ceiling check")
        self._check_sup_constants(rows)
        return verified

    def _check_sup_constants(self, rows) -> None:
        """||u||^p / p <= lam C_n on fresh points of the sup-norm unit cube of Y_n."""
        spec = specs.FOUNTAIN_SPEC
        K, p, lam = spec["K"], spec["p"], spec["lam"]
        rng = np.random.default_rng([self.seed, 7])
        spiral = [0] + [s for k in range(1, K + 1) for s in (k, -k)]
        for r in rows:
            sites = np.array(spiral[: r.n]) + K
            coords = rng.uniform(-1.0, 1.0, size=(CUBE_POINTS, r.n))
            coords /= np.max(np.abs(coords), axis=1, keepdims=True)
            vertices = rng.choice([-1.0, 1.0], size=(CUBE_POINTS, r.n))
            for c in np.concatenate([coords, vertices]):
                u = np.zeros(2 * K + 1)
                u[sites] = c
                lhs = oracle.literal_norm_p(spec, u) / p
                _require(lhs <= lam * r.c_sup * (1.0 + 1e-12),
                         f"n={r.n}: ||u||^p/p = {lhs!r} exceeds lam C_n = {lam * r.c_sup!r}")

    @staticmethod
    def same(op: Op, first, later) -> bool:
        return first == later


WORKLOAD_TYPES = {"enumerate": Enumerate, "ladder": Ladder, "fountain": Fountain}


def build(workload: str, seed: int, scratch: Path):
    return WORKLOAD_TYPES[workload](seed, scratch)
