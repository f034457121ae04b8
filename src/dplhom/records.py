"""Result persistence: self-describing JSON records and CSV plot data.

Records embed the effective configuration text and the full solution
values, so every scalar in a record can be recomputed from the record
alone.  Floats are written with Python's shortest round-trip repr in JSON
and with 17 significant digits in CSV; both reload bit-exactly.  JSON has no
inf or NaN (RFC 8259), so a non-finite float is written as the object
{"$float": "Infinity"}, {"$float": "-Infinity"} or {"$float": "NaN"}, which
``load_json`` reads back as the float; a one-key object of that form is
reserved for it.  Records carry no timestamps, which keeps equal-seed runs
byte-identical.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .config import RunConfig, parse_config_text, serialize_config
from .lattice import LatticeSeq, energy, residual_many

SCHEMA_VERSION = 1

__all__ = [
    "SCHEMA_VERSION",
    "solution_record",
    "save_json",
    "load_json",
    "save_plot_csv",
    "save_table_csv",
    "verify_record",
]

_F17 = "{:.17g}"
_FLOAT_TAG = "$float"


def solution_record(cfg: RunConfig, seed: int, result, extras: Optional[dict] = None) -> dict:
    u = result.u
    rec = {
        "schema_version": SCHEMA_VERSION,
        "config": serialize_config(cfg),
        "seed": seed,
        "half_width": u.window.half_width,
        "k": [int(k) for k in u.window.indices],
        "u": [float(x) for x in u.values],
        "scalars": {
            "energy": result.energy,
            "residual_inf_norm": result.residual_inf_norm,
            "cerami_metric": result.cerami_metric,
            "tail_mass": result.tail_mass,
            "tail_threshold": result.tail_threshold,
            "iterations": result.iterations,
            "converged": bool(result.converged),
        },
    }
    if extras:
        rec["extras"] = extras
    return rec


def _tag_non_finite(x):
    """``x`` with each inf, -inf or NaN float replaced by {"$float": its JSON-style name}."""
    if isinstance(x, float) and not math.isfinite(x):
        return {_FLOAT_TAG: "NaN" if x != x else ("Infinity" if x > 0 else "-Infinity")}
    if isinstance(x, dict):
        return {k: _tag_non_finite(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_tag_non_finite(v) for v in x]
    return x


def _untag_non_finite(obj: dict):
    return float(obj[_FLOAT_TAG]) if obj.keys() == {_FLOAT_TAG} else obj


def save_json(path, payload: dict) -> None:
    try:  # tagging changes nothing where every float is finite
        text = json.dumps(payload, sort_keys=True, indent=1, allow_nan=False)
    except ValueError:  # an inf or NaN float
        text = json.dumps(_tag_non_finite(payload), sort_keys=True, indent=1, allow_nan=False)
    Path(path).write_text(text + "\n", encoding="utf-8")


def load_json(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"), object_hook=_untag_non_finite)


def save_plot_csv(path, window, values) -> None:
    pairs = zip(window.indices.tolist(), np.asarray(values, dtype=float).tolist())
    text = "\n".join(["k,u", *(f"{k},{_F17.format(v)}" for k, v in pairs)])
    Path(path).write_text(text + "\n", encoding="utf-8")


def save_table_csv(path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    def fmt(x):
        if x is None:
            return ""
        if isinstance(x, float):
            return _F17.format(x)
        return str(x)

    out = [",".join(header)]
    out.extend(",".join(fmt(x) for x in row) for row in rows)
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8")


def verify_record(record: dict) -> dict:
    """Recompute the record's scalars from its embedded data.

    Returns the absolute drifts; a healthy record has drifts at rounding
    level (the round-trip contract is 1e-12).
    """
    cfg = parse_config_text(record["config"])
    prob = cfg.build_problem()
    if prob.window.half_width != record["half_width"]:
        prob = prob.with_half_width(int(record["half_width"]))
    u = LatticeSeq(prob.window, np.array(record["u"], dtype=float))
    e = energy(u, prob)
    r_inf = float(np.max(np.abs(residual_many(u.values, prob))))
    return {
        "energy": abs(e - record["scalars"]["energy"]),
        "residual_inf_norm": abs(r_inf - record["scalars"]["residual_inf_norm"]),
    }
