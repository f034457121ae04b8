"""Self-test of the benchmark: tiny workloads, the tracer, planted faults.

    python3 bench/selftest.py

Runs each workload at a tiny size through the same checks as ``run.py``,
traced, and confirms that every layer the tiny run uses reads nonzero.  Then
it plants wrong answers (a perturbed or missing root, a doctored record, a
flipped beta, a shrunken C_n, a stale inventory, a vanished traced function)
and confirms that each one is rejected.  Exit status 0 when all pass.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import CheckError  # noqa: E402

SEED = 3
PASSED = []


def expect_rejected(label: str, fn, error=CheckError) -> None:
    try:
        fn()
    except error:
        PASSED.append(label)
        return
    raise AssertionError(f"planted fault not rejected: {label}")


def tiny(name: str, scratch: Path):
    if name == "fountain":
        return workloads.Fountain(SEED, scratch, n_max=8)
    wl = workloads.build(name, SEED, scratch)
    if name == "enumerate":
        wl.ops = [op for op in wl.ops if op.meta["problem"] == "k1_const_q4"]
    else:
        wl.ops = sorted(wl.ops, key=lambda op: op.meta["spec"]["K"])[:2]
    return wl


USED_LAYERS = {
    "enumerate": ("solver.find_critical_points", "solver.newton_solve",
                  "solver.deflated_solve", "solver.SolutionSet.add",
                  "solver.bump_amplitude", "lattice.residual_many", "nonlinearity.f",
                  "nonlinearity.df_dt"),
    "ladder": ("cli.run", "config.parse_config_text", "hypotheses.check_all",
               "solver.solution_sequence", "solver.mountain_pass",
               "solver.window_continuation", "records.save_json", "records.save_plot_csv",
               "lattice.energy_many", "nonlinearity.F"),
    "fountain": ("fountain.fountain_table", "fountain.embedding_profile",
                 "fountain.sup_norm_constant", "fountain.superlinearity_threshold",
                 "fountain.verify_energy_floor", "fountain.verify_energy_ceiling",
                 "lattice.weighted_norm_many", "lattice.energy_many", "nonlinearity.F"),
}


def tiny_runs(scratch: Path) -> dict:
    firsts = {}
    for name in ("enumerate", "ladder", "fountain"):
        wl = tiny(name, scratch / name)
        plain = run.Rounds(wl).run_n(1)
        assert plain.failed == 0, f"{name}: an operation failed"
        assert run.verify(wl, plain, rerun_seed=SEED) > 0, f"{name}: nothing verified"
        tracer = tracing.Tracer().install()
        try:
            traced = run.Rounds(tiny(name, scratch / f"{name}-traced")).run_n(1)
        finally:
            tracer.uninstall()
        run.reproduces(wl, plain.outputs[0], traced.outputs)
        idle = [span for span in USED_LAYERS[name]
                if tracer.stat(span).calls == 0 or tracer.stat(span).self <= 0.0]
        assert not idle, f"{name}: traced layers read zero: {idle}"
        PASSED.append(f"{name}: tiny run verified, traced run reproduces it")
        firsts[name] = (wl, plain.outputs[0])
    assert dplhom_untouched(), "uninstall left a wrapper in place"
    return firsts


def dplhom_untouched() -> bool:
    import dplhom.cli
    import dplhom.solver
    return (not hasattr(dplhom.solver.newton_solve, "__wrapped__")
            and not hasattr(dplhom.cli._HANDLERS["sequence"], "__wrapped__")
            and not hasattr(dplhom.solver.SolutionSet.add, "__wrapped__"))


def planted_enumerate(wl, first) -> None:
    op, roots = wl.ops[0], first[0]
    moved = [r.copy() for r in roots]
    moved[-1][0] += 1e-3
    expect_rejected("enumerate: perturbed root", lambda: wl.check(op, moved))
    expect_rejected("enumerate: root missing from a complete pool",
                    lambda: wl.check(op, roots[:-1]))
    expect_rejected("enumerate: root repeated up to sign",
                    lambda: wl.check(op, roots + [-roots[-1]]))


def planted_ladder(wl, first, scratch: Path) -> None:
    op, out = wl.ops[0], first[0]
    copies = itertools.count()

    def doctored(edit):
        copy = dict(out, dir=scratch / f"doctored{next(copies)}")
        shutil.copytree(out["dir"], copy["dir"])
        path = copy["dir"] / "solution_001.json"
        rec = json.loads(path.read_text(encoding="utf-8"))
        edit(rec, copy["dir"])
        if path.exists():
            path.write_text(json.dumps(rec), encoding="utf-8")
        return copy

    def bump(rec, _d):
        rec["u"][len(rec["u"]) // 2] += 1e-6

    def lie(rec, _d):
        rec["scalars"]["energy"] *= 1.0 + 1e-6

    def drop(rec, d):
        (d / "solution_001.json").unlink()

    for label, edit in (("perturbed solution value", bump), ("misreported energy", lie),
                        ("missing ladder rung", drop)):
        bad = doctored(edit)
        expect_rejected(f"ladder: {label}", lambda: wl.check(op, bad))
    expect_rejected("ladder: output that differs from the rerun",
                    lambda: run.reproduces(wl, first, [[doctored(bump)] + first[1:]]))


def planted_fountain(wl, first) -> None:
    op, rows = wl.ops[0], first[0]
    flipped = list(rows)
    flipped[4] = dataclasses.replace(rows[4], beta_p=rows[3].beta_p * 1.01)
    expect_rejected("fountain: beta increasing in n", lambda: wl.check(op, flipped))
    floor = list(rows)
    floor[2] = dataclasses.replace(rows[2], z_violations=1)
    expect_rejected("fountain: floor violation", lambda: wl.check(op, floor))
    shrunk = list(rows)
    shrunk[6] = dataclasses.replace(rows[6], c_sup=rows[6].c_sup * 0.5)
    expect_rejected("fountain: C_n below the sup-norm cube maximum",
                    lambda: wl.check(op, shrunk))


def planted_inventory(scratch: Path) -> None:
    data = json.loads(oracle.INVENTORY_PATH.read_text(encoding="utf-8"))
    data["k1_const_q4"]["roots"][1][0] += 1e-3
    path = scratch / "inventories.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    expect_rejected("oracle: stored inventory holding a non-root",
                    lambda: oracle.load_inventories(path), ValueError)


def planted_trace_target() -> None:
    saved = tracing.FUNCTIONS["solver"]
    tracing.FUNCTIONS["solver"] = saved + ("no_such_solver",)
    try:
        tracing.Tracer().install()
    except tracing.MissingTarget as exc:
        assert "dplhom.solver.no_such_solver" in str(exc), str(exc)
        PASSED.append("trace: a vanished function is named")
    else:
        raise AssertionError("trace installed over a missing function")
    finally:
        tracing.FUNCTIONS["solver"] = saved
    assert dplhom_untouched(), "a failed install left a wrapper in place"


def main() -> int:
    run._import_dplhom()
    run.SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.SCRATCH))
    try:
        firsts = tiny_runs(scratch)
        planted_enumerate(*firsts["enumerate"])
        planted_ladder(*firsts["ladder"], scratch)
        planted_fountain(*firsts["fountain"])
        planted_inventory(scratch)
        planted_trace_target()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for label in PASSED:
        print(f"ok  {label}")
    print(f"selftest: {len(PASSED)} checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
