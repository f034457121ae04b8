"""Run one dplhom benchmark workload and print its metrics.

    python3 bench/run.py --workload {enumerate,ladder,fountain} --seed N \
                         --seconds S --trace {0,1}

Run from the root of a checkout; dplhom is imported from its ``src/``.  The
run repeats whole rounds of the workload's operations (each operation once
per round, in order) for as long as the next round should still end within
``--seconds`` (always at least one round), then checks the first
round's outputs with the independent computations in ``oracle.py`` and
that every later round reproduced them exactly.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones of BENCHMARK.json, with ``--trace 1``
its per-layer ones.  Exit status: 0 when every output checked out, 1 when a
check failed (the result is still printed), 2 when the run could not start.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_out"
SETUP_PROBES = 5
# One thread per run: BLAS pools would otherwise start threads that the
# two-core machine the figures were taken on cannot host without contention.
THREAD_LIMITS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _die(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        _die(f"cannot read {path.name}: {exc}")


def _import_dplhom():
    if not (SRC / "dplhom" / "__init__.py").is_file():
        _die(f"no dplhom sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import dplhom
    if Path(dplhom.__file__).resolve().parent != (SRC / "dplhom").resolve():
        _die(f"imported dplhom from {dplhom.__file__}, not from {SRC}")


def measure_setup(workload: str, seed: int, scratch: Path) -> float:
    """Median wall time of SETUP_PROBES fresh interpreters doing the set-up."""
    times = []
    for i in range(SETUP_PROBES):
        t0 = perf_counter()
        subprocess.run([sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed),
                        str(scratch / f"probe{i}")], check=True, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
    return statistics.median(times)


class Rounds:
    """Outputs and timings of whole rounds of a workload's operations."""

    def __init__(self, wl):
        self.wl = wl
        self.outputs = []          # per round, per op: output, or None if the op failed
        self.op_times = []
        self.round_walls = []
        self.attempted = 0
        self.failed = 0

    def run_round(self) -> None:
        idx = len(self.outputs)
        outs = []
        t_round = perf_counter()
        for op in self.wl.ops:
            t0 = perf_counter()
            try:
                out = op.run(idx)
                ok = not getattr(self.wl, "failed", lambda _o: False)(out)
            except Exception:
                traceback.print_exc()
                out, ok = None, False
            self.op_times.append(perf_counter() - t0)
            self.attempted += 1
            self.failed += not ok
            outs.append(out if ok else None)
        self.round_walls.append(perf_counter() - t_round)
        self.outputs.append(outs)

    def run_for(self, seconds: float) -> "Rounds":
        """At least one round; another only while it should end within ``seconds``."""
        start = perf_counter()
        self.run_round()
        while (perf_counter() - start) * (1 + 1 / len(self.outputs)) <= seconds:
            self.run_round()
        return self

    def run_n(self, n: int) -> "Rounds":
        for _ in range(n):
            self.run_round()
        return self


def verify(wl, rounds: Rounds, rerun_seed: int) -> int:
    """Check the first round with the oracles; every later round must equal it.

    Returns the number of verified results of one round.  Raises
    ``workloads.CheckError`` (or any error a check hits) on a bad output.
    """
    from workloads import CheckError
    first = rounds.outputs[0]
    verified = sum(wl.check(op, out) for op, out in zip(wl.ops, first) if out is not None)
    reproduces(wl, first, rounds.outputs[1:])
    if hasattr(wl, "rerun_identical"):
        candidates = [(op, out) for op, out in zip(wl.ops, first) if out is not None]
        if candidates:
            op, out = candidates[rerun_seed % len(candidates)]
            if not wl.rerun_identical(op, out):
                raise CheckError(f"{op.name}: equal-seed rerun is not byte-identical")
    return verified


def reproduces(wl, first: list, later_rounds: list) -> None:
    from workloads import CheckError
    for outs in later_rounds:
        for op, a, b in zip(wl.ops, first, outs):
            if a is not None and b is not None and not wl.same(op, a, b):
                raise CheckError(f"{op.name}: a later round did not reproduce the first")


def _checked(fn) -> tuple:
    try:
        return True, fn()
    except Exception:
        traceback.print_exc()
        return False, None


def layer_metrics(names, tracer, extra: dict, rounds: int) -> dict:
    """Per-layer values; counts and self times are per traced round."""
    out = {}
    for name in names:
        if name in extra:
            out[name] = extra[name]
            continue
        span, _, field = name.rpartition(".")
        st = tracer.stat(span)
        if field == "self_s":
            out[name] = st.self / rounds
        elif field in ("calls", "rows", "iterations"):
            count = getattr(st, field)
            out[name] = count // rounds if count % rounds == 0 else count / rounds
        elif field in ("converged_ratio", "new_root_ratio"):
            out[name] = st.converged / st.calls if st.calls else 0.0
        else:
            raise KeyError(f"no measurement for per-layer metric {name!r}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in THREAD_LIMITS:
        os.environ[var] = "1"
    spec = _load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        _die(f"unknown workload {args.workload!r}; choose from {names}")
    _import_dplhom()
    import workloads

    scratch = SCRATCH / f"{args.workload}-{args.seed}"
    if scratch.exists():
        shutil.rmtree(scratch)
    scratch.mkdir(parents=True)

    if args.trace:
        result = traced_run(args, spec, scratch)
    else:
        setup_s = measure_setup(args.workload, args.seed, scratch / "run" / "probes")
        wl = workloads.build(args.workload, args.seed, scratch / "run")
        rounds = Rounds(wl).run_for(args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        correct, verified = _checked(lambda: verify(wl, rounds, rerun_seed=args.seed))
        values = {"setup_s": setup_s,
                  "wall_s": statistics.median(rounds.round_walls),
                  "op_p50_s": statistics.median(rounds.op_times),
                  "verified_results": verified or 0,
                  "peak_rss_mb": peak_rss_mb}
        result = {"correct": correct, "attempted": rounds.attempted, "failed": rounds.failed,
                  "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                              for m in spec["end_to_end"]}}
    shutil.rmtree(scratch / "run", ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def traced_run(args, spec: dict, scratch: Path) -> dict:
    """Untraced rounds, then as many traced rounds; per-layer metrics."""
    import micro
    import workloads
    from tracing import Tracer

    extra = micro.import_breakdown(str(SRC))
    extra.update(micro.isolated())
    wl = workloads.build(args.workload, args.seed, scratch / "run")
    plain = Rounds(wl).run_for(args.seconds)

    wl_traced = workloads.build(args.workload, args.seed, scratch / "run" / "traced")
    tracer = Tracer().install()
    try:
        traced = Rounds(wl_traced).run_n(len(plain.outputs))
    finally:
        tracer.uninstall()
    tracer.dump(scratch / "trace.json")
    extra["trace.overhead_s"] = (statistics.median(traced.round_walls)
                                 - statistics.median(plain.round_walls))
    ok_plain, _ = _checked(lambda: verify(wl, plain, rerun_seed=args.seed))
    ok_traced, _ = _checked(lambda: reproduces(wl_traced, plain.outputs[0], traced.outputs))
    names = [m["name"] for m in spec["per_layer"]]
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    values = layer_metrics(names, tracer, extra, len(traced.outputs))
    return {"correct": ok_plain and ok_traced,
            "attempted": plain.attempted + traced.attempted,
            "failed": plain.failed + traced.failed,
            "metrics": {n: {"value": values[n], "unit": units[n]} for n in names}}


if __name__ == "__main__":
    sys.exit(main())
