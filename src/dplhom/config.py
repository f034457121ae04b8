"""Flat dotted-key configuration files and builders for runs.

The format is one ``section.key = value`` assignment per line, ``#`` for
comments.  Values stay raw strings until a typed accessor parses them, so
error messages can point at the exact key and line.  A key outside
``KNOWN_KEYS`` is rejected at parse time, so a misspelling cannot silently
fall back to a default.  Example:

    problem.p = 2.0
    problem.lambda = 1.0
    problem.half_width = 50
    problem.coeff.kind = polynomial
    problem.coeff.exponent = 2.0
    problem.nonlinearity.kind = log_power
    problem.nonlinearity.mu = 2.0
    problem.nonlinearity.nu = 2.0
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .hypotheses import CONDITIONS, SamplingPlan
from .lattice import CoefficientField, ProblemSpec, Window
from .nonlinearity import LogPower, PurePower, WEIGHT_CONVENTIONS
from .solver import SolverConfig

__all__ = ["ConfigError", "KNOWN_KEYS", "RunConfig", "parse_config_text",
           "serialize_config"]

# Every key that a builder below or a CLI subcommand reads.
KNOWN_KEYS = frozenset({
    "problem.p", "problem.lambda", "problem.half_width",
    "problem.coeff.kind", "problem.coeff.a", "problem.coeff.b",
    "problem.coeff.exponent", "problem.coeff.a_values", "problem.coeff.b_values",
    "problem.nonlinearity.kind", "problem.nonlinearity.mu", "problem.nonlinearity.nu",
    "problem.nonlinearity.weight", "problem.nonlinearity.q", "problem.nonlinearity.c",
    "solver.seed", "solver.residual_tol", "solver.max_iter",
    "check.k_max", "check.t_min", "check.t_max", "check.per_decade", "check.s_points",
    "check.summability_T", "check.required", "check.conditions",
    "solve.start", "solve.site", "solve.amplitude",
    "sequence.n_target",
    "fountain.n_list", "fountain.q", "fountain.d", "fountain.samples",
    "sweep.values", "sweep.task",
    "demo.T", "demo.T1", "demo.K_list",
})


class ConfigError(Exception):
    def __init__(self, message: str, key: Optional[str] = None, line: Optional[int] = None):
        loc = ""
        if key is not None:
            loc += f" (key {key!r}"
            loc += f", line {line})" if line is not None else ")"
        elif line is not None:
            loc += f" (line {line})"
        super().__init__(message + loc)
        self.key = key
        self.line = line


@dataclass
class RunConfig:
    """Parsed key/value table with typed, validating accessors."""

    values: dict
    lines: dict

    def error(self, key: str, message: str) -> ConfigError:
        """A ``ConfigError`` naming ``key`` and, if the file sets it, its line."""
        return ConfigError(message, key, self.lines.get(key))

    def has(self, key: str) -> bool:
        return key in self.values

    def _get(self, key: str, default, parse):
        """``parse(raw)`` of the value set for ``key``, else ``default``; None makes it required."""
        raw = self.values.get(key)
        if raw is not None:
            return parse(raw)
        if default is None:
            raise self.error(key, "missing required key")
        return default

    def get_str(self, key: str, default: Optional[str] = None,
                choices: Optional[Sequence[str]] = None) -> str:
        raw = self._get(key, default, str)
        if choices is not None and raw not in choices:
            raise self.error(key, f"value {raw!r} not one of {sorted(choices)}")
        return raw

    def get_float(self, key: str, default: Optional[float] = None,
                  minimum: Optional[float] = None, strict: bool = False) -> float:
        def parse(raw):
            try:
                val = float(raw)
            except ValueError:
                raise self.error(key, f"expected a number, got {raw!r}")
            if not math.isfinite(val):
                raise self.error(key, "expected a finite number")
            if minimum is not None and (val <= minimum if strict else val < minimum):
                op = ">" if strict else ">="
                raise self.error(key, f"value must be {op} {minimum}, got {val}")
            return val
        return float(self._get(key, default, parse))

    def get_int(self, key: str, default: Optional[int] = None,
                minimum: Optional[int] = None) -> int:
        def parse(raw):
            try:
                val = int(raw)
            except ValueError:
                raise self.error(key, f"expected an integer, got {raw!r}")
            if minimum is not None and val < minimum:
                raise self.error(key, f"value must be >= {minimum}, got {val}")
            return val
        return int(self._get(key, default, parse))

    def get_list(self, key: str, default: Optional[Sequence[str]] = None) -> list:
        return list(self._get(key, default, lambda raw: [
            part.strip() for part in raw.split(",") if part.strip()]))

    def get_conditions(self, key: str, default: Sequence[str]) -> list:
        """The condition names listed under ``key``, each one of ``CONDITIONS``."""
        names = self.get_list(key, default)
        for name in names:
            if name not in CONDITIONS:
                raise self.error(key, f"unknown condition {name!r}; known: {CONDITIONS}")
        return names

    def get_float_list(self, key: str, default=None) -> list:
        items = self.get_list(key, default)
        try:
            vals = [float(x) for x in items]
        except ValueError:
            raise self.error(key, f"expected numbers, got {self.values.get(key)!r}")
        if not all(math.isfinite(x) for x in vals):
            raise self.error(key, "expected a finite number")
        return vals

    def get_int_list(self, key: str, default=None) -> list:
        items = self.get_list(key, default)
        try:
            return [int(x) for x in items]
        except ValueError:
            raise self.error(key, f"expected integers, got {self.values.get(key)!r}")

    # ---- builders -------------------------------------------------------

    def build_problem(self) -> ProblemSpec:
        p = self.get_float("problem.p", minimum=1.0, strict=True)
        lam = self.get_float("problem.lambda", default=1.0, minimum=0.0, strict=True)
        K = self.get_int("problem.half_width", minimum=1)
        window = Window(K)
        kind = self.get_str("problem.coeff.kind", default="constant",
                            choices=("constant", "polynomial", "table"))
        if kind == "constant":
            a = self.get_float("problem.coeff.a", default=1.0, minimum=0.0, strict=True)
            b = self.get_float("problem.coeff.b", default=1.0, minimum=0.0, strict=True)
            coeffs = CoefficientField.constant(window, a=a, b=b)
        elif kind == "polynomial":
            s = self.get_float("problem.coeff.exponent", default=2.0, minimum=0.0, strict=True)
            a = self.get_float("problem.coeff.a", default=1.0, minimum=0.0, strict=True)
            coeffs = CoefficientField.polynomial(window, exponent=s, a=a)
        else:
            a_vals = self.get_float_list("problem.coeff.a_values")
            b_vals = self.get_float_list("problem.coeff.b_values")
            try:
                coeffs = CoefficientField.from_arrays(window, np.array(a_vals), np.array(b_vals))
            except ValueError as exc:
                key = ("problem.coeff.a_values" if len(a_vals) != window.size + 1
                       or min(a_vals) <= 0.0 else "problem.coeff.b_values")
                raise self.error(key, str(exc))
        nl = self._build_nonlinearity(p)
        return ProblemSpec(p, lam, coeffs, nl)

    def _build_nonlinearity(self, p: float):
        kind = self.get_str("problem.nonlinearity.kind",
                            choices=("log_power", "pure_power"))
        if kind == "log_power":
            mu = self.get_float("problem.nonlinearity.mu", minimum=1.0, strict=True)
            nu = self.get_float("problem.nonlinearity.nu", minimum=1.0)
            conv = self.get_str("problem.nonlinearity.weight", default="one_plus_abs",
                                choices=WEIGHT_CONVENTIONS)
            return LogPower(p, mu, nu, weight_convention=conv)
        q = self.get_float("problem.nonlinearity.q", minimum=p, strict=True)
        c = self.get_float("problem.nonlinearity.c", default=1.0, minimum=0.0, strict=True)
        return PurePower(p, q, c)

    def build_solver(self, seed_override: Optional[int] = None) -> SolverConfig:
        seed = self.get_int("solver.seed", default=0, minimum=0)
        if seed_override is not None:
            seed = seed_override
        return SolverConfig(
            residual_tol=self.get_float("solver.residual_tol", default=1e-10,
                                        minimum=0.0, strict=True),
            max_iter=self.get_int("solver.max_iter", default=100, minimum=1),
            seed=seed,
        )

    def build_plan(self) -> SamplingPlan:
        k_max = self.get_int("check.k_max", default=100, minimum=1)
        t_min = self.get_float("check.t_min", default=1e-8, minimum=0.0, strict=True)
        t_max = self.get_float("check.t_max", default=1e3, minimum=0.0, strict=True)
        if not t_max > t_min:  # the default t_max included
            raise self.error("check.t_max", f"must exceed check.t_min = {t_min}, got {t_max}")
        return SamplingPlan.default(
            k_max=k_max, t_min=t_min, t_max=t_max,
            per_decade=self.get_int("check.per_decade", default=40, minimum=1),
            s_points=self.get_int("check.s_points", default=21, minimum=2),
            summability_T=self.get_float("check.summability_T", default=10.0,
                                         minimum=0.0, strict=True),
        )


def parse_config_text(text: str) -> RunConfig:
    values = {}
    lines = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {raw.strip()!r}", line=lineno)
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if val.startswith('"') and val.endswith('"') and len(val) >= 2:
            val = val[1:-1]
        if not key:
            raise ConfigError("empty key", line=lineno)
        if key not in KNOWN_KEYS:
            raise ConfigError("unknown key", key, lineno)
        if key in values:
            raise ConfigError("duplicate key", key, lineno)
        values[key] = val
        lines[key] = lineno
    return RunConfig(values, lines)


def serialize_config(cfg: RunConfig) -> str:
    """Canonical (sorted, diffable) text form; embedded in result records."""
    out = []
    for key in sorted(cfg.values):
        out.append(f"{key} = {cfg.values[key]}")
    return "\n".join(out) + "\n"
