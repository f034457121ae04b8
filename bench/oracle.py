"""Independent checks for the dplhom benchmark.

Nothing here imports dplhom.  Problems arrive as the plain dicts built in
``specs.py`` and every formula is written out again from the equation

    -D(a(k) phi_p(D u(k-1))) + b(k) phi_p(u(k)) = lambda f(k, u(k)),

with zero extension outside the window {-K..K}, so a check that agrees
with dplhom is a cross-check, not dplhom agreeing with itself.

Two kinds of computation live here:

* literal loops over lattice sites for the residual, the energy and the
  weighted norm, used to confirm every value dplhom returns;
* a batched dense-Jacobian Newton oracle that enumerates the roots of the
  small pure-power problems of the ``enumerate`` workload.  Its inventories
  are stored in ``inventories.json`` because a complete one needs tens of
  thousands of starts; regenerate them with

      python3 bench/oracle.py

  which rewrites the file from ``specs.ENUMERATE_PROBLEMS``.
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

import numpy as np

import specs

INVENTORY_PATH = Path(__file__).resolve().parent / "inventories.json"

ROOT_TOL = 1e-8          # every returned root: literal residual sup-norm
MATCH_TOL = 1e-6         # two roots are the same if they agree to this (sup-norm)


# ---------------------------------------------------------------- problem data

def coefficients(spec: dict):
    """a(k) on k = -K..K+1 and b(k) on k = -K..K as Python lists."""
    K = spec["K"]
    a = [float(spec["a"])] * (2 * K + 2)
    bspec = spec["b"]
    if bspec["kind"] == "constant":
        b = [float(bspec["value"])] * (2 * K + 1)
    elif bspec["kind"] == "polynomial":
        b = [1.0 + abs(k) ** float(bspec["exponent"]) for k in range(-K, K + 1)]
    else:
        raise ValueError(f"unknown coefficient kind {bspec['kind']!r}")
    return a, b


def _phi(t: float, p: float) -> float:
    return 0.0 if t == 0.0 else math.copysign(abs(t) ** (p - 1.0), t)


def _weight(spec: dict, k: int) -> float:
    return (1.0 + abs(k)) ** (-float(spec["drive"]["mu"]))


def drive_f(spec: dict, k: int, t: float) -> float:
    drive = spec["drive"]
    if drive["kind"] == "pure_power":
        return float(drive["c"]) * _phi(t, float(drive["q"]))
    if drive["kind"] == "log_power":
        nu = float(drive["nu"])
        return _weight(spec, k) * _phi(t, spec["p"]) * math.log1p(abs(t) ** nu)
    raise ValueError(f"unknown drive {drive['kind']!r}")


_GL_X, _GL_W = np.polynomial.legendre.leggauss(24)


def _log_primitive(s: np.ndarray, p: float, nu: float) -> np.ndarray:
    """G(s) = int_0^s x^(p-1) ln(1 + x^nu) dx by composite Gauss-Legendre.

    Unit-width panels (at least one) with 24 nodes each; the integrand is
    analytic on the real axis, so this is accurate to rounding.
    """
    s = np.asarray(s, dtype=float)
    panels = max(1, int(math.ceil(float(np.max(s, initial=0.0)))))
    edges = np.linspace(0.0, 1.0, panels + 1)
    out = np.zeros_like(s)
    for lo, hi in zip(edges[:-1], edges[1:]):
        # nodes on [lo*s, hi*s] for every s at once
        half = 0.5 * (hi - lo) * s
        mid = 0.5 * (hi + lo) * s
        x = mid[..., None] + half[..., None] * _GL_X
        out += half * np.sum(_GL_W * x ** (p - 1.0) * np.log1p(x ** nu), axis=-1)
    return out


def drive_F_many(spec: dict, t_values) -> list:
    """F(k, u(k)) for every site of one configuration, as a list."""
    K = spec["K"]
    drive = spec["drive"]
    t = np.abs(np.asarray(t_values, dtype=float))
    if drive["kind"] == "pure_power":
        return list(float(drive["c"]) * t ** float(drive["q"]) / float(drive["q"]))
    G = _log_primitive(t, spec["p"], float(drive["nu"]))
    return [_weight(spec, k) * g for k, g in zip(range(-K, K + 1), G)]


# ------------------------------------------------------------- literal loops

def literal_residual(spec: dict, u) -> list:
    """Defect of the difference equation at every site, one site at a time."""
    K, p, lam = spec["K"], spec["p"], spec["lam"]
    a, b = coefficients(spec)
    n = 2 * K + 1
    if len(u) != n:
        raise ValueError(f"expected {n} values, got {len(u)}")
    u = [float(x) for x in u]
    out = []
    for i in range(n):
        left = u[i - 1] if i > 0 else 0.0
        right = u[i + 1] if i < n - 1 else 0.0
        flux_in = a[i] * _phi(u[i] - left, p)          # a(k) phi_p(u(k) - u(k-1))
        flux_out = a[i + 1] * _phi(right - u[i], p)    # a(k+1) phi_p(u(k+1) - u(k))
        out.append(flux_in - flux_out + b[i] * _phi(u[i], p)
                   - lam * drive_f(spec, i - K, u[i]))
    return out


def literal_residual_inf(spec: dict, u) -> float:
    return max(abs(r) for r in literal_residual(spec, u))


def literal_norm_p(spec: dict, u) -> float:
    """||u||^p = sum a(k)|u(k)-u(k-1)|^p over k=-K..K+1 plus sum b(k)|u(k)|^p."""
    p = spec["p"]
    a, b = coefficients(spec)
    ext = [0.0] + [float(x) for x in u] + [0.0]
    total = 0.0
    for j in range(len(ext) - 1):
        total += a[j] * abs(ext[j + 1] - ext[j]) ** p
    for i, x in enumerate(ext[1:-1]):
        total += b[i] * abs(x) ** p
    return total


def literal_energy(spec: dict, u) -> float:
    """J(u) = ||u||^p / p - lambda sum_k F(k, u(k))."""
    return (literal_norm_p(spec, u) / spec["p"]
            - spec["lam"] * math.fsum(drive_F_many(spec, u)))


# ------------------------------------------------------- inventories up to sign

def canonical(v) -> np.ndarray:
    """Sign flipped so the first entry above 1e-12 of the peak is positive."""
    v = np.array(v, dtype=float)
    peak = float(np.max(np.abs(v)))
    if peak == 0.0:
        return v
    first = int(np.argmax(np.abs(v) > 1e-12 * peak))
    return -v if v[first] < 0.0 else v


def dedup(vectors, tol: float = MATCH_TOL) -> list:
    out = []
    for v in vectors:
        c = canonical(v)
        if not any(float(np.max(np.abs(c - w))) <= tol for w in out):
            out.append(c)
    return out


def contains(inventory, v, tol: float = MATCH_TOL) -> bool:
    c = canonical(v)
    return any(float(np.max(np.abs(c - w))) <= tol for w in inventory)


# ------------------------------------------------ batched dense-Jacobian Newton

def _batch_residual(V: np.ndarray, spec: dict, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    p, lam = spec["p"], spec["lam"]
    q, c = float(spec["drive"]["q"]), float(spec["drive"]["c"])
    zero = np.zeros(V.shape[:-1] + (1,))
    D = np.diff(np.concatenate([zero, V, zero], axis=-1), axis=-1)
    flux = a * np.sign(D) * np.abs(D) ** (p - 1.0)
    return (flux[..., :-1] - flux[..., 1:] + b * np.sign(V) * np.abs(V) ** (p - 1.0)
            - lam * c * np.sign(V) * np.abs(V) ** (q - 1.0))


def _batch_jacobian(V: np.ndarray, spec: dict, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    p, lam = spec["p"], spec["lam"]
    q, c = float(spec["drive"]["q"]), float(spec["drive"]["c"])
    m, n = V.shape
    zero = np.zeros((m, 1))
    D = np.diff(np.concatenate([zero, V, zero], axis=-1), axis=-1)
    w = a * (p - 1.0) * np.abs(D) ** (p - 2.0)            # d flux_j / d D_j
    J = np.zeros((m, n, n))
    idx = np.arange(n)
    J[:, idx, idx] = (w[:, :-1] + w[:, 1:] + b * (p - 1.0) * np.abs(V) ** (p - 2.0)
                      - lam * c * (q - 1.0) * np.abs(V) ** (q - 2.0))
    J[:, idx[1:], idx[:-1]] = -w[:, 1:-1]
    J[:, idx[:-1], idx[1:]] = -w[:, 1:-1]
    return J


def newton_oracle(spec: dict, starts: np.ndarray, tol: float = 1e-12,
                  max_iter: int = 60) -> list:
    """Undamped Newton on every start at once; returns the converged rows.

    Only pure-power drives with p >= 2 are supported: their Jacobian is
    finite everywhere, so a dense solve per row is all a step needs.
    """
    if spec["drive"]["kind"] != "pure_power" or spec["p"] < 2.0:
        raise ValueError("the Newton oracle handles pure-power drives with p >= 2")
    a, b = (np.array(c) for c in coefficients(spec))
    V = np.array(starts, dtype=float)
    alive = np.ones(V.shape[0], dtype=bool)
    done = np.zeros(V.shape[0], dtype=bool)
    for _ in range(max_iter):
        R = _batch_residual(V, spec, a, b)
        alive &= np.all(np.isfinite(R), axis=1) & (np.max(np.abs(V), axis=1) < 1e6)
        conv = alive & (np.max(np.abs(R), axis=1) <= tol)
        done |= conv
        alive &= ~conv
        rows = np.nonzero(alive)[0]
        if rows.size == 0:
            break
        J = _batch_jacobian(V[rows], spec, a, b)
        singular = np.abs(np.linalg.det(J)) < 1e-300
        J[singular] = np.eye(V.shape[1])
        steps = np.linalg.solve(J, -R[rows][..., None])[..., 0]
        ok = ~singular & np.all(np.isfinite(steps), axis=1)
        V[rows[ok]] += steps[ok]
        alive[rows[~ok]] = False
    return [V[i] for i in np.nonzero(done)[0]]


def oracle_starts(spec: dict, random_starts: int, seed: int) -> np.ndarray:
    """Every sign pattern in {-1,0,1}^n at a few amplitudes, plus random starts."""
    n = 2 * spec["K"] + 1
    patterns = np.array(np.meshgrid(*([[-1.0, 0.0, 1.0]] * n), indexing="ij"))
    patterns = patterns.reshape(n, -1).T
    amplitudes = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0)
    structured = np.concatenate([amp * patterns for amp in amplitudes])
    rng = np.random.default_rng(seed)
    rand = rng.uniform(-5.0, 5.0, size=(random_starts, n))
    return np.concatenate([structured, rand])


def enumerate_roots(spec: dict, random_starts: int, seed: int, chunk: int = 10_000) -> list:
    starts = oracle_starts(spec, random_starts, seed)
    found = []
    for lo in range(0, starts.shape[0], chunk):
        found.extend(newton_oracle(spec, starts[lo:lo + chunk]))
    # cheap pre-merge on rounded keys before the O(N^2) tolerance dedup
    keys = {}
    for v in found:
        c = canonical(v)
        keys.setdefault(tuple(np.round(c, 7)), c)
    roots = dedup(list(keys.values()))
    roots.sort(key=lambda v: (float(np.sum(np.abs(v))), tuple(v)))
    return roots


def regenerate(path: Path = INVENTORY_PATH) -> dict:
    out = {}
    for name, entry in specs.ENUMERATE_PROBLEMS.items():
        t0 = time.perf_counter()
        roots = enumerate_roots(entry["spec"], entry["oracle_starts"], seed=entry["oracle_seed"])
        out[name] = {"spec": entry["spec"], "oracle_starts": entry["oracle_starts"],
                     "oracle_seed": entry["oracle_seed"],
                     "roots": [[float(x) for x in v] for v in roots]}
        print(f"{name}: {len(roots)} roots up to sign in {time.perf_counter() - t0:.1f}s",
              file=sys.stderr)
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return out


def load_inventories(path: Path = INVENTORY_PATH) -> dict:
    """Stored inventories, each root re-verified with the literal residual."""
    data = json.loads(path.read_text(encoding="utf-8"))
    out = {}
    for name, entry in specs.ENUMERATE_PROBLEMS.items():
        stored = data.get(name)
        if stored is None or stored["spec"] != entry["spec"]:
            raise ValueError(f"inventory for {name!r} is missing or stale; "
                             f"run `python3 bench/oracle.py`")
        roots = [np.array(v) for v in stored["roots"]]
        for v in roots:
            if literal_residual_inf(entry["spec"], v) > ROOT_TOL:
                raise ValueError(f"stored inventory for {name!r} holds a non-root")
        if len(dedup(roots)) != len(roots):
            raise ValueError(f"stored inventory for {name!r} repeats a root")
        out[name] = roots
    return out


if __name__ == "__main__":
    regenerate()
