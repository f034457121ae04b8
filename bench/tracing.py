"""Layer tracing for dplhom from outside the package.

``Tracer.install`` wraps the public functions of every dplhom module (and
the drive methods and ``SolutionSet.add``) and rebinds each wrapper
wherever a dplhom module looks the original up: module globals, dicts held
in module globals (the CLI's handler table) and class attributes.  No file
of dplhom changes.

Each wrapped call is a span.  Spans are aggregated in memory as they close:
per name the call count, total and self time (self = duration minus the
time of the spans it caused) and a few work counters; per parent/child
pair the call count.  ``Tracer.dump`` writes the aggregate as JSON.

Every target is named explicitly, and a target that no longer exists makes
``install`` raise ``MissingTarget`` naming it, so a refactor cannot make a
layer silently read zero.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

PACKAGE = "dplhom"

# module -> public functions to wrap
FUNCTIONS = {
    "lattice": ("phi_p", "phi_p_prime", "forward_diff", "weighted_norm",
                "weighted_norm_many", "lp_norm", "sup_norm", "energy", "energy_parts",
                "energy_many", "residual", "residual_many",
                "tail_mass", "cerami_metric"),
    "hypotheses": ("check_hypothesis", "check_all", "positivity_check",
                   "inconsistency_demo"),
    "solver": ("newton_solve", "mountain_pass", "deflated_solve", "window_continuation",
               "solution_sequence", "find_critical_points", "bump_amplitude"),
    "fountain": ("spiral_sites", "embedding_constant", "embedding_maximizer",
                 "embedding_profile", "z_sphere_radius", "sup_norm_constant",
                 "superlinearity_threshold", "y_sphere_radius", "sample_sphere",
                 "verify_energy_floor", "verify_energy_ceiling", "fountain_table"),
    "config": ("parse_config_text", "serialize_config"),
    "records": ("solution_record", "save_json", "load_json", "save_plot_csv",
                "save_table_csv", "verify_record"),
    "cli": ("run", "cmd_check", "cmd_solve", "cmd_sequence", "cmd_fountain",
            "cmd_sweep", "cmd_demo_inconsistency"),
}

# (module, class) -> methods to wrap; spans are named module.method for the
# drive families (one layer, whichever family) and module.Class.method else.
METHODS = {
    ("nonlinearity", "LogPower"): ("f", "F", "df_dt"),
    ("nonlinearity", "PurePower"): ("f", "F", "df_dt"),
    ("nonlinearity", "CustomNonlinearity"): ("f", "F", "df_dt"),
    ("nonlinearity", "Nonlinearity"): ("df_dt",),
    ("solver", "SolutionSet"): ("add",),
}


class MissingTarget(RuntimeError):
    """A function or method the trace is meant to wrap does not exist."""


def _rows(arg) -> int:
    shape = np.shape(arg)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


class _Stat:
    __slots__ = ("calls", "total", "self", "rows", "iterations", "converged")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.rows = 0
        self.iterations = 0
        self.converged = 0


class Tracer:
    def __init__(self):
        self.stats = defaultdict(_Stat)
        self.edges = defaultdict(int)
        self._stack = []          # [span name, time covered by child spans]
        self._undo = []           # (container, key, original)

    # ---------------------------------------------------------------- wrapping

    def _wrap(self, name: str, fn):
        stats, edges, stack = self.stats, self.edges, self._stack
        count_rows = name in ("lattice.residual_many", "lattice.energy_many")
        solve = name in ("solver.newton_solve", "solver.deflated_solve")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            edges[(stack[-1][0] if stack else "", name)] += 1
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                st = stats[name]
                st.calls += 1
                st.total += dt
                st.self += dt - frame[1]
            if count_rows:
                st.rows += _rows(args[0] if args else kwargs.get("V"))
            elif solve:
                st.iterations += int(out.iterations)
                st.converged += bool(out.converged)
            return out

        return wrapper

    def _resolve(self):
        """(span name, owner, attribute, original) for every target."""
        found, missing = [], []
        for mod_name, names in FUNCTIONS.items():
            module = importlib.import_module(f"{PACKAGE}.{mod_name}")
            for fname in names:
                fn = getattr(module, fname, None)
                if not callable(fn):
                    missing.append(f"{PACKAGE}.{mod_name}.{fname}")
                    continue
                found.append((f"{mod_name}.{fname}", module, fname, fn))
        for (mod_name, cls_name), names in METHODS.items():
            module = importlib.import_module(f"{PACKAGE}.{mod_name}")
            cls = getattr(module, cls_name, None)
            for meth in names:
                fn = cls.__dict__.get(meth) if cls is not None else None
                if not callable(fn):
                    missing.append(f"{PACKAGE}.{mod_name}.{cls_name}.{meth}")
                    continue
                span = (f"{mod_name}.{meth}" if mod_name == "nonlinearity"
                        else f"{mod_name}.{cls_name}.{meth}")
                found.append((span, cls, meth, fn))
        if missing:
            raise MissingTarget("traced functions no longer exist: " + ", ".join(missing))
        return found

    def install(self) -> "Tracer":
        targets = self._resolve()
        wrappers = {}
        for span, owner, attr, fn in targets:
            wrapper = self._wrap(span, fn)
            wrappers[id(fn)] = wrapper
            if isinstance(owner, type):
                self._set(owner, attr, wrapper)
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for module in modules:
            for key, value in list(vars(module).items()):
                if id(value) in wrappers and callable(value):
                    self._set(module, key, wrappers[id(value)])
                elif isinstance(value, dict):
                    for dkey, dval in list(value.items()):
                        if id(dval) in wrappers and callable(dval):
                            self._set(value, dkey, wrappers[id(dval)])
        return self

    def _set(self, container, key, value):
        if isinstance(container, dict):
            self._undo.append((container, key, container[key]))
            container[key] = value
        else:
            self._undo.append((container, key, getattr(container, key)))
            setattr(container, key, value)

    def uninstall(self) -> None:
        for container, key, original in reversed(self._undo):
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)
        self._undo.clear()

    # ------------------------------------------------------------------ output

    def stat(self, name: str) -> _Stat:
        return self.stats.get(name, _Stat())

    def dump(self, path) -> None:
        payload = {
            "spans": {name: {"calls": s.calls, "total_s": s.total, "self_s": s.self,
                             "rows": s.rows, "iterations": s.iterations,
                             "converged": s.converged}
                      for name, s in sorted(self.stats.items())},
            "edges": [{"parent": p, "child": c, "calls": n}
                      for (p, c), n in sorted(self.edges.items())],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
