"""Command-line front end.

Subcommands:

    check               sampled audit of the structural conditions
    solve               one Newton refinement from a configured start
    sequence            increasing-energy solution ladder
    fountain            subspace geometry table (betas, radii, sphere checks)
    sweep               re-run a task over a list of lambda values
    demo-inconsistency  linear partial-sum growth under uniform superlinearity

Exit codes: 0 success, 1 partial result, 2 refutation or violation,
3 inconclusive-only, 64 malformed configuration or usage, 70 numerical
failure (a MountainPassError or FountainGeometryError that escapes; today
sequence and fountain catch both, so no subcommand exits 70).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from .config import ConfigError, RunConfig, parse_config_text
from .fountain import FountainGeometryError, FountainRow, fountain_table
from .hypotheses import (CONDITIONS, PreconditionViolation, check_all,
                         check_hypothesis, inconsistency_demo)
from .lattice import LatticeSeq
from .records import (save_json, save_plot_csv, save_table_csv,
                      solution_record)
from .solver import MountainPassError, newton_solve, solution_sequence

EXIT_OK = 0
EXIT_PARTIAL = 1
EXIT_REFUTED = 2
EXIT_INCONCLUSIVE = 3
EXIT_USAGE = 64
EXIT_NUMERICAL = 70


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 64
        raise _UsageError(message)


def _parse_args(argv):
    parser = _Parser(prog="dplhom", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", choices=_HANDLERS, help="subcommand, as listed above")
    parser.add_argument("--config", required=True, help="path to a run configuration")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the configured solver seed")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error(f"--seed must be nonnegative, got {args.seed}")
    return args


def _say(quiet: bool, *parts):
    if not quiet:
        print(*parts)


def cmd_check(cfg: RunConfig, seed: Optional[int], outdir: Path, quiet: bool) -> int:
    prob = cfg.build_problem()
    plan = cfg.build_plan()
    conditions = cfg.get_conditions("check.conditions", default=CONDITIONS)
    required = cfg.get_conditions("check.required", default=())
    reports = check_all(prob.nonlinearity, plan, prob.coeffs, conditions)

    payload = {"config": cfg.values, "required": required, "reports": {}}
    for name, rep in reports.items():
        payload["reports"][name] = {
            "verdict": rep.verdict,
            "witness": list(rep.witness) if rep.witness is not None else None,
            "constants": rep.constants,
            "detail": rep.detail,
        }
    save_json(outdir / "check_report.json", payload)

    _say(quiet, f"{'condition':<6} {'verdict':<22} detail")
    for name, rep in reports.items():
        _say(quiet, f"{name:<6} {rep.verdict:<22} {rep.detail}")

    verdicts = {name: reports[name].verdict for name in required if name in reports}
    if any(v == "refuted" for v in verdicts.values()):
        return EXIT_REFUTED
    if any(v == "inconclusive" for v in verdicts.values()):
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def cmd_solve(cfg: RunConfig, seed: Optional[int], outdir: Path, quiet: bool) -> int:
    prob = cfg.build_problem()
    scfg = cfg.build_solver(seed)
    start = cfg.get_str("solve.start", default="spike", choices=("zeros", "spike"))
    if start == "zeros":
        u0 = LatticeSeq.zeros(prob.window)
    else:
        site = cfg.get_int("solve.site", default=0)
        K = prob.window.half_width
        if abs(site) > K:
            raise cfg.error("solve.site", f"site {site} outside -{K}..{K}")
        u0 = LatticeSeq.spike(prob.window, site=site,
                              amplitude=cfg.get_float("solve.amplitude", default=1.0))
    # an overflowing start is reported by the result's note and exit code 1
    with np.errstate(over="ignore", invalid="ignore"):
        res = newton_solve(u0, prob, scfg)
    save_json(outdir / "solution.json", solution_record(cfg, scfg.seed, res))
    save_plot_csv(outdir / "solution.csv", prob.window, res.u.values)
    _say(quiet, f"converged={res.converged} energy={res.energy:.12g} "
                f"residual={res.residual_inf_norm:.3e} iterations={res.iterations}")
    return EXIT_OK if res.converged else EXIT_PARTIAL


def cmd_sequence(cfg: RunConfig, seed: Optional[int], outdir: Path, quiet: bool) -> int:
    prob = cfg.build_problem()
    scfg = cfg.build_solver(seed)
    n_target = cfg.get_int("sequence.n_target", default=3, minimum=0)
    if not prob.coeffs.rewindowable:
        # every accepted rung is re-solved on a wider window
        raise cfg.error("problem.coeff.kind", "a table field cannot be widened for "
                                              "the continuation check")

    gate = check_all(prob.nonlinearity, cfg.build_plan(), prob.coeffs,
                     ("H1", "H2", "H3", "H4", "H5"))
    refused = [name for name, rep in gate.items() if rep.refuted]
    if refused:
        _say(quiet, f"nonlinearity refuted on {', '.join(refused)}; "
                    f"run `dplhom check` for the full report")
        return EXIT_REFUTED

    sols = solution_sequence(prob, scfg, n_target)
    summary_rows = []
    for i, res in enumerate(sols):
        extras = {"index": i}
        extras.update({k: v for k, v in res.extras.items() if k == "continuation"})
        save_json(outdir / f"solution_{i:03d}.json",
                  solution_record(cfg, scfg.seed, res, extras=extras))
        save_plot_csv(outdir / f"solution_{i:03d}.csv", prob.window, res.u.values)
        drift = res.extras.get("continuation", {}).get("drift")
        summary_rows.append((i, res.energy, res.residual_inf_norm,
                             res.cerami_metric, res.tail_mass, drift))
    save_table_csv(outdir / "sequence_summary.csv",
                   ("n", "energy", "residual_inf", "cerami", "tail_mass", "drift"),
                   summary_rows)
    _say(quiet, f"found {len(sols)} of {n_target} requested solutions")
    for i, res in enumerate(sols):
        _say(quiet, f"  n={i} J={res.energy:.12g} residual={res.residual_inf_norm:.2e} "
                    f"tail={res.tail_mass:.2e}")
    if sols.warning:
        _say(quiet, "warning: " + sols.warning)
        return EXIT_PARTIAL
    return EXIT_OK


def _fountain_n_list(cfg: RunConfig, size: int) -> list:
    """``fountain.n_list``: split indices in 1..size, by default 1..min(size, 7)."""
    raw = cfg.get_str("fountain.n_list", default="")
    if not raw:
        return list(range(1, min(size, 7) + 1))
    if ":" in raw:
        lo_s, _, hi_s = raw.partition(":")
        try:
            lo, hi = int(lo_s), int(hi_s)
        except ValueError:
            raise cfg.error("fountain.n_list", f"bad range {raw!r}")
        n_list = list(range(lo, hi + 1))
    else:
        n_list = cfg.get_int_list("fountain.n_list")
    if not n_list:
        raise cfg.error("fountain.n_list", f"no split index in {raw!r}")
    bad = [n for n in n_list if not 1 <= n <= size]
    if bad:
        raise cfg.error("fountain.n_list", f"n values {bad} outside 1..{size}")
    return n_list


def cmd_fountain(cfg: RunConfig, seed: Optional[int], outdir: Path, quiet: bool) -> int:
    prob = cfg.build_problem()
    scfg = cfg.build_solver(seed)
    n_list = _fountain_n_list(cfg, prob.window.size)

    q = cfg.get_float("fountain.q", default=prob.nonlinearity.growth_exponent() or 0.0)
    if not q > prob.p:
        raise cfg.error("fountain.q", f"fountain.q must exceed p={prob.p}")
    if cfg.has("fountain.d"):
        d = cfg.get_float("fountain.d", minimum=0.0, strict=True)
    else:
        rep = check_hypothesis(prob.nonlinearity, "H2", cfg.build_plan())
        if "d" not in rep.constants:
            raise cfg.error("fountain.d", "no growth constant available; set fountain.d")
        d = rep.constants["d"]
    samples = cfg.get_int("fountain.samples", default=1000, minimum=1)

    rows = fountain_table(prob, q, d, n_list, seed=scfg.seed, samples=samples)
    header = tuple(f.name for f in dataclasses.fields(FountainRow))
    save_table_csv(outdir / "fountain_table.csv", header,
                   [dataclasses.astuple(r) for r in rows])
    save_json(outdir / "fountain_table.json", {
        "config": cfg.values, "q": q, "d": d,
        "rows": [dataclasses.asdict(r) for r in rows]})

    for r in rows:
        rz = f"{r.radius_z:.6g}" if r.radius_z is not None else "infeasible"
        note = f"  [{r.note}]" if r.note else ""
        _say(quiet, f"n={r.n:<4} beta_p={r.beta_p:.6g} beta_q={r.beta_q:.6g} "
                    f"r_n={rz} C_n={r.c_sup:.6g}{note}")

    if all(r.z_violations is None for r in rows):  # no row checked its floor
        _say(quiet, "every split index is infeasible; enlarge the window or reduce "
                    "lambda * d" if not any(r.feasible for r in rows) else
                    "no split index has a floor check; see the row notes")
        return EXIT_PARTIAL
    if any((r.z_violations or 0) > 0 or (r.y_violations or 0) > 0 for r in rows):
        return EXIT_REFUTED
    return EXIT_OK


def cmd_demo_inconsistency(cfg: RunConfig, seed: Optional[int], outdir: Path,
                           quiet: bool) -> int:
    prob = cfg.build_problem()
    T = cfg.get_float("demo.T", minimum=0.0, strict=True)
    T1 = cfg.get_float("demo.T1", minimum=0.0, strict=True)
    if not T > T1:
        raise cfg.error("demo.T", f"demo.T must exceed demo.T1 = {T1}, got {T}")
    K_list = cfg.get_int_list("demo.K_list", default=["10", "100", "1000"])
    if not K_list or min(K_list) < 1:
        raise cfg.error("demo.K_list", f"expected positive integers, got {K_list}")
    try:
        demo = inconsistency_demo(prob.nonlinearity, T, T1, K_list)
    except PreconditionViolation as exc:
        _say(quiet, f"precondition violated: {exc}")
        save_json(outdir / "inconsistency_table.json",
                  {"config": cfg.values, "violation": str(exc),
                   "witness": list(exc.witness)})
        return EXIT_REFUTED
    rows = list(demo.rows())
    save_table_csv(outdir / "inconsistency_table.csv",
                   ("K", "partial_sum", "average", "lower_bound"), rows)
    save_json(outdir / "inconsistency_table.json", {
        "config": cfg.values, "T": demo.T, "T1": demo.T1,
        "min_margin": demo.min_margin,
        "rows": [{"K": K, "partial_sum": s, "average": a, "lower_bound": lb}
                 for K, s, a, lb in rows]})
    for K, s, a, lb in rows:
        _say(quiet, f"K={K:<6} S_K={s:.12g} S_K/(2K+1)={a:.12g}"
                    + (f" bound={lb:.6g}" if lb is not None else ""))
    return EXIT_OK


def cmd_sweep(cfg: RunConfig, seed: Optional[int], outdir: Path, quiet: bool) -> int:
    values = cfg.get_float_list("sweep.values")
    if not values:
        raise cfg.error("sweep.values", "no values to sweep")
    names = [f"lambda_{value:g}" for value in values]  # one output directory each
    if min(values) <= 0.0 or len(set(names)) < len(names):
        raise cfg.error("sweep.values", f"values must be positive, with distinct "
                                        f"directory names; got {', '.join(names)}")
    task = cfg.get_str("sweep.task", default="fountain",
                       choices=("check", "solve", "sequence", "fountain"))
    worst = EXIT_OK
    for value, name in zip(values, names):
        sub_values = dict(cfg.values)
        sub_values["problem.lambda"] = repr(float(value))
        sub_cfg = RunConfig(sub_values, dict(cfg.lines))
        sub_dir = outdir / name
        sub_dir.mkdir(parents=True, exist_ok=True)
        _say(quiet, f"--- lambda = {value:g}")
        code = _HANDLERS[task](sub_cfg, seed, sub_dir, quiet)
        worst = max(worst, code)
    return worst


_HANDLERS = {
    "check": cmd_check,
    "solve": cmd_solve,
    "sequence": cmd_sequence,
    "fountain": cmd_fountain,
    "sweep": cmd_sweep,
    "demo-inconsistency": cmd_demo_inconsistency,
}


def run(argv=None) -> int:
    try:
        args = _parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_USAGE
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        cfg = parse_config_text(text)
        return _HANDLERS[args.command](cfg, args.seed, outdir, args.quiet)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:  # invariant violations raised by the types
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (MountainPassError, FountainGeometryError) as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
