"""Critical-point solvers on the truncated lattice.

The workhorses:

    newton_solve        damped Newton on the residual, tridiagonal Jacobian
    mountain_pass       Newton from the energy maximum on a segment
    deflated_solve      Newton on the deflated residual to find new roots
    window_continuation re-solve on a wider window to vet truncation
    solution_sequence   assemble distinct solutions with increasing energy
    find_critical_points  deflation-based enumeration of all reachable roots

newton_solve and deflated_solve share one damped Newton loop, which stops
where its step or its Armijo search fails.  Deflation multiplies the residual
by M(v) = prod_i (1 + ||v - w_i||^-p) over the known roots w_i, and their
negations for an odd drive.  The Jacobian M J + r grad(M)^T of M r is
tridiagonal plus rank one, so by Sherman-Morrison its Newton step is the
plain tridiagonal step delta times the scalar 1 / (1 - grad(log M).delta)
(Farrell, Birkisson & Funke, SIAM J. Sci. Comput. 37, 2015).

find_critical_points and solution_sequence run one enumeration engine,
multistart Newton then deflation rounds, and differ only in the data they
pass it.  Solutions are taken up to sign only for an odd drive
(``Nonlinearity.is_odd``).

Convergence is always declared on the infinity norm of the residual, never
on step size (steps can stagnate near clamped Jacobian entries for p < 2).
Every returned result re-evaluates its diagnostics from scratch rather
than trusting the loop's last internal values.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
from scipy.linalg import solve_banded

from .lattice import (LatticeSeq, ProblemSpec, Window, cerami_metric, energy,
                      energy_many, phi_p, phi_p_prime, residual_many, sup_norm,
                      tail_mass)

__all__ = [
    "SolverConfig",
    "SolveResult",
    "SolutionSet",
    "ContinuationReport",
    "MountainPassError",
    "newton_solve",
    "mountain_pass",
    "deflated_solve",
    "window_continuation",
    "solution_sequence",
    "find_critical_points",
    "bump_amplitude",
]


class MountainPassError(RuntimeError):
    pass


# Fixed solver geometry.  Line search: step shrink factor and Armijo
# sufficient-decrease factor, at most MAX_BACKTRACKS trials.  JACOBIAN_CAP
# caps phi_p' in the Jacobian (p < 2).  Mountain pass: PATH_POINTS points of
# the segment are searched for the energy maximum.  Acceptance: the tail
# starts at TAIL_FRACTION of the half-width; TAIL_TOL bounds its mass,
# DRIFT_TOL the move on a window CONTINUATION_GROWTH sites wider, DEDUP_TOL
# the sup-norm distance below which two roots are one.
LS_SHRINK = 0.5
LS_DECREASE = 1e-4
MAX_BACKTRACKS = 40
JACOBIAN_CAP = 1e8
PATH_POINTS = 64
TAIL_FRACTION = 0.8
TAIL_TOL = 1e-6
DRIFT_TOL = 1e-6
DEDUP_TOL = 1e-6
CONTINUATION_GROWTH = 10
# find_critical_points deflates from at most this many random starts.
DEFLATION_POOL = 200


@dataclass(frozen=True)
class SolverConfig:
    residual_tol: float = 1e-10
    max_iter: int = 100
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.residual_tol < math.inf):
            raise ValueError("residual_tol must be positive and finite")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


@dataclass(frozen=True)
class SolveResult:
    u: LatticeSeq
    energy: float
    residual_inf_norm: float
    cerami_metric: float
    tail_mass: float
    tail_threshold: int
    iterations: int
    converged: bool
    note: str = ""
    extras: dict = field(default_factory=dict, compare=False)


def _tail_threshold(window: Window) -> int:
    return int(math.floor(TAIL_FRACTION * window.half_width))


def _finish(v: np.ndarray, prob: ProblemSpec, cfg: SolverConfig, iterations: int,
            note: str = "") -> SolveResult:
    u = LatticeSeq(prob.window, v)
    r_inf = float(np.max(np.abs(residual_many(v, prob))))
    h = _tail_threshold(prob.window)
    return SolveResult(
        u=u,
        energy=energy(u, prob),
        residual_inf_norm=r_inf,
        cerami_metric=cerami_metric(u, prob),
        tail_mass=tail_mass(u, h, prob.p),
        tail_threshold=h,
        iterations=iterations,
        converged=bool(r_inf <= cfg.residual_tol),
        note=note,
    )


def _jacobian_bands(v: np.ndarray, prob: ProblemSpec) -> np.ndarray:
    """Banded (ab) form of the tridiagonal residual Jacobian."""
    n = v.size
    a, b = prob.coeffs.a, prob.coeffs.b
    d = np.diff(v, prepend=0.0, append=0.0)
    w = phi_p_prime(prob.p, d, cap=JACOBIAN_CAP)          # length n+1
    wp = phi_p_prime(prob.p, v, cap=JACOBIAN_CAP)
    k = prob.window.indices
    main = a[:-1] * w[:-1] + a[1:] * w[1:] + b * wp - prob.lam * prob.nonlinearity.df_dt(k, v)
    ab = np.zeros((3, n))
    ab[0, 1:] = -(a[1:-1] * w[1:-1])   # superdiagonal: dr[i]/dv[i+1]
    ab[1, :] = main
    ab[2, :-1] = -(a[1:-1] * w[1:-1])  # subdiagonal: dr[i]/dv[i-1]
    return ab


def _newton_values(v0: np.ndarray, prob: ProblemSpec, cfg: SolverConfig,
                   anchors: Optional[np.ndarray] = None):
    """Core damped Newton loop on raw values; returns (v, iters, note).

    With an (m, n) ``anchors`` array the loop runs on the deflated residual
    M r, M = prod_i (1 + ||v - w_i||^-p).  Its merit is ||M r||^2, and
    its step is the tridiagonal Newton step delta over 1 - grad(log M).delta:
    Sherman-Morrison on M J + r grad(M)^T.  Either loop stops at the first
    iteration whose Newton step is missing (singular, non-finite or at least
    1e14) or whose Armijo search fails, and the deflated loop also stops at a
    start that sits on an anchor.
    """
    v = np.array(v0, dtype=float)
    deflate = anchors is not None
    stop_note = "deflated iteration diverged" if deflate else "no descent direction made progress"

    def deflation(x):
        return _deflation_terms(x, anchors, prob.p) if deflate else (1.0, None)

    r = residual_many(v, prob)
    M, dlogM = deflation(v)
    note = ""
    it = 0
    if not math.isfinite(M):  # the start sits on an anchor
        return v, it, stop_note
    while it < cfg.max_iter:
        if M * float(np.max(np.abs(r))) <= cfg.residual_tol:
            break
        it += 1
        merit = float(r @ r) * (M * M)
        ab = _jacobian_bands(v, prob)
        delta = None
        try:
            cand = solve_banded((1, 1), ab, -r)
            if deflate:
                cand = cand / (1.0 - float(dlogM @ cand))
            if np.all(np.isfinite(cand)) and float(np.max(np.abs(cand))) < 1e14:
                delta = cand
        except np.linalg.LinAlgError:
            delta = None
        stepped = False
        if delta is not None:
            alpha = 1.0
            for _ in range(MAX_BACKTRACKS):
                v_try = v + alpha * delta
                r_try = residual_many(v_try, prob)
                M_try, dlogM_try = deflation(v_try)
                m_try = float(r_try @ r_try) * (M_try * M_try)
                if np.isfinite(m_try) and m_try <= (1.0 - 2.0 * LS_DECREASE * alpha) * merit:
                    v, r, M, dlogM = v_try, r_try, M_try, dlogM_try
                    stepped = True
                    break
                alpha *= LS_SHRINK
        if not stepped:
            note = stop_note
            break
    else:
        note = "max_iter exceeded"
    return v, it, note


def newton_solve(u0: LatticeSeq, prob: ProblemSpec, cfg: SolverConfig) -> SolveResult:
    """Damped Newton refinement of a critical-point candidate."""
    if u0.window.half_width != prob.window.half_width:
        raise ValueError("initial guess lives on a different window than the problem")
    v, it, note = _newton_values(u0.values, prob, cfg)
    return _finish(v, prob, cfg, it, note)


def mountain_pass(u_low: LatticeSeq, u_high: LatticeSeq, prob: ProblemSpec,
                  cfg: SolverConfig) -> SolveResult:
    """Newton from the energy maximum on the segment between two low points.

    J is evaluated at ``PATH_POINTS`` evenly spaced points of the segment
    from ``u_low`` to ``u_high``; ``newton_solve`` runs from the interior
    maximum, and its result is returned if it converged to a nonzero point
    strictly above both endpoints.  Otherwise, or if the maximum is an
    endpoint, ``MountainPassError`` is raised.
    """
    s = np.linspace(0.0, 1.0, PATH_POINTS)[:, None]
    path = (1.0 - s) * u_low.values[None, :] + s * u_high.values[None, :]
    energies = energy_many(path, prob)
    m = int(np.argmax(energies))
    if m == 0 or m == PATH_POINTS - 1:
        raise MountainPassError(
            "segment maximum sits at an endpoint; no pass is bracketed "
            "(increase the amplitude of u_high)")
    res = newton_solve(LatticeSeq(prob.window, path[m]), prob, cfg)
    if not (res.converged and res.energy > max(energies[0], energies[-1]) + 1e-12
            and sup_norm(res.u) > 1e-9):
        raise MountainPassError(
            "Newton from the segment maximum found no nonzero critical point "
            "above both endpoints")
    return res


def _deflation_terms(v: np.ndarray, anchors: np.ndarray, power: float):
    """M = prod_i (1 + ||v - w_i||^-power) over the anchor rows, and grad log M.

    M is inf, with no gradient, where v sits exactly on an anchor.
    """
    dv = v - anchors
    s2 = np.einsum("ij,ij->i", dv, dv)
    if not s2.all():
        return math.inf, None
    t = s2 ** (-0.5 * power)
    m = 1.0 + t
    return float(m.prod()), (-power * t / (s2 * m)) @ dv


def deflated_solve(known, u0: LatticeSeq, prob: ProblemSpec,
                   cfg: SolverConfig) -> SolveResult:
    """Newton on the residual deflated at the known roots.

    For an odd drive the negations of the known roots are anchors too.

    Runs the Newton loop of ``newton_solve`` on M r, whose step is the plain
    tridiagonal step times 1 / (1 - grad(log M).delta).  Any root of M r
    away from the anchors is a root of r; it is polished on the undeflated
    residual before it is returned.  A run that stops or runs out of
    iterations is returned as it stands with ``converged=False``, and so is
    a polished root that collapses back onto a known anchor.
    """
    anchors = _anchor_values(known, prob.nonlinearity.is_odd)
    v, it, note = _newton_values(u0.values, prob, cfg, anchors)
    if note:
        return replace(_finish(v, prob, cfg, it, note), converged=False)
    res = newton_solve(LatticeSeq(prob.window, v), prob, cfg)
    extras = dict(res.extras)
    extras["deflation"] = {"polish_move": float(np.max(np.abs(res.u.values - v)))}
    res = replace(res, extras=extras)
    if res.converged and np.min(np.max(np.abs(res.u.values - anchors), axis=1)) <= DEDUP_TOL:
        return replace(res, converged=False,
                       note="polished root collapsed onto a known solution")
    return res


def _anchor_values(known, odd: bool) -> np.ndarray:
    """Known roots, plus their negations if ``odd``, one distinct row each."""
    if isinstance(known, SolutionSet):
        rows = [r.u.values for r in known]
    else:
        rows = [getattr(w, "values", w) for w in known]
    if not rows:
        raise ValueError("deflated_solve needs at least one known solution")
    W = np.array(rows, dtype=float)
    return np.unique(np.concatenate([W, -W]) if odd else W, axis=0)


@dataclass(frozen=True)
class ContinuationReport:
    result: SolveResult
    drift: float
    boundary_peak: float
    truncation_artifact: bool


def window_continuation(result: SolveResult, prob: ProblemSpec, half_width_new: int,
                        cfg: SolverConfig) -> ContinuationReport:
    """Zero-pad onto a wider window, re-solve, and measure the drift."""
    K = prob.window.half_width
    if half_width_new <= K:
        raise ValueError(f"new half-width {half_width_new} must exceed {K}")
    boundary_peak = max(abs(result.u.value_at(-K)), abs(result.u.value_at(K)))
    prob_wide = prob.with_half_width(half_width_new)
    padded = result.u.padded_to(prob_wide.window)
    res_wide = newton_solve(padded, prob_wide, cfg)
    drift = float(np.max(np.abs(res_wide.u.values - padded.values)))
    return ContinuationReport(
        result=res_wide,
        drift=drift,
        boundary_peak=boundary_peak,
        truncation_artifact=bool(boundary_peak > 1e-3),
    )


def _canonical_values(values: np.ndarray, odd: bool, tol_rel: float = 1e-12) -> np.ndarray:
    """A copy; for an odd drive, signed so the first significant entry is positive."""
    v = np.array(values, dtype=float)
    scale = float(np.max(np.abs(v)))
    if not odd or scale == 0.0:
        return v
    idx = np.argmax(np.abs(v) > tol_rel * scale)
    if v[idx] < 0.0:
        v = -v
    return v


@dataclass
class SolutionSet:
    """Solutions at least ``tol`` apart in the sup norm, sorted by energy.

    With ``odd`` set (the solvers copy the drive's ``is_odd``), u and -u are
    the same physical solution: members are compared up to sign and stored
    with a canonical sign (first significant entry positive), which makes
    merging order-independent.  Without it every member keeps its own sign.
    """

    tol: float = 1e-6
    warning: Optional[str] = None
    odd: bool = False
    _items: list = field(default_factory=list)

    def add(self, result: SolveResult) -> bool:
        if self.contains_close(result.u.values):
            return False
        v = _canonical_values(result.u.values, self.odd)
        self._items.append(replace(result, u=LatticeSeq(result.u.window, v)))
        self._items.sort(key=lambda r: (r.energy, tuple(r.u.values)))
        return True

    def contains_close(self, values: np.ndarray) -> bool:
        v = _canonical_values(values, self.odd)
        return any(o.u.values.shape == v.shape and np.max(np.abs(o.u.values - v)) <= self.tol
                   for o in self._items)

    @property
    def results(self) -> tuple:
        return tuple(self._items)

    @property
    def energies(self) -> np.ndarray:
        return np.array([r.energy for r in self._items])

    def __len__(self):
        return len(self._items)

    def __iter__(self):
        return iter(self._items)


def bump_amplitude(prob: ProblemSpec, site: int) -> Optional[float]:
    """Amplitude where the one-site stiffness balances the drive term.

    Solves a(j) + a(j+1) + b(j) times phi_p(c) = lambda f(j, c) for c > 0;
    spikes of this height are excellent Newton starts for one-bump states.
    """
    i = prob.window.position(site)
    stiff = float(prob.coeffs.a[i] + prob.coeffs.a[i + 1] + prob.coeffs.b[i])

    def gap(c):
        return prob.lam * float(prob.nonlinearity.f(site, c)) - stiff * phi_p(prob.p, c)

    grid = np.logspace(-3.0, 16.0, 640)
    vals = prob.lam * prob.nonlinearity.f(site, grid) - stiff * phi_p(prob.p, grid)
    sign_change = np.nonzero((vals[:-1] <= 0.0) & (vals[1:] > 0.0))[0]
    if sign_change.size == 0:
        return None
    lo, hi = grid[sign_change[0]], grid[sign_change[0] + 1]
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _profile(window: Window, pattern: dict) -> np.ndarray:
    v = np.zeros(window.size)
    for site, amp in pattern.items():
        v[window.position(site)] = amp
    return v


def _candidate_starts(prob: ProblemSpec, max_site: int = 3) -> list:
    """One-site balance spikes plus sign-pattern combinations of them."""
    K = prob.window.half_width
    sites = [s for s in range(0, min(max_site, K) + 1)]
    amp = {}
    for s in sites:
        c = bump_amplitude(prob, s)
        if c is not None:
            amp[s] = c
            if s > 0:
                amp[-s] = bump_amplitude(prob, -s) or c
    starts = []
    for s, c in amp.items():
        starts.append(_profile(prob.window, {s: c}))
    for s in sites[1:]:
        if s in amp and -s in amp:
            starts.append(_profile(prob.window, {s: amp[s], -s: -amp[-s]}))   # odd pair
            starts.append(_profile(prob.window, {s: amp[s], -s: amp[-s]}))    # even pair
    if 0 in amp and 1 in amp and -1 in amp:
        starts.append(_profile(prob.window, {0: amp[0], 1: amp[1], -1: amp[-1]}))
        starts.append(_profile(prob.window, {0: amp[0], 1: -amp[1], -1: -amp[-1]}))
        starts.append(_profile(prob.window, {0: -amp[0], 1: amp[1], -1: amp[-1]}))
    if 0 in amp and 1 in amp:
        starts.append(_profile(prob.window, {0: amp[0], 1: amp[1]}))
        starts.append(_profile(prob.window, {0: amp[0], 1: -amp[1]}))
    return starts


def _enumerate(prob: ProblemSpec, cfg: SolverConfig, initial, starts, pool, accept,
               done, max_rounds: int, jitter: float, rng) -> SolutionSet:
    """Multistart Newton over ``starts``, then deflation rounds over ``pool``.

    Zero is an anchor.  Zero, each ``initial`` result and each multistart
    root is stored, and anchored, if ``accept`` returns a result for it.  A
    round deflates from each pool start times 1 + jitter N(0, 1), anchors
    every new converged root and stores the accepted ones.  Rounds stop once
    ``done(stored)`` holds, after a round that stores nothing, or at
    ``max_rounds``.
    """
    odd = prob.nonlinearity.is_odd
    stored = SolutionSet(tol=DEDUP_TOL, odd=odd)
    anchors = SolutionSet(tol=DEDUP_TOL, odd=odd)
    zero = _finish(np.zeros(prob.window.size), prob, cfg, 0)
    anchors.add(zero)
    solved = (newton_solve(LatticeSeq(prob.window, v), prob, cfg) for v in starts)
    for res in itertools.chain([zero], initial, solved):
        acc = accept(res)
        if acc is not None and stored.add(acc):
            anchors.add(acc)
    for _ in range(max_rounds):
        if done(stored):
            break
        added = False
        for v in pool:
            u0 = LatticeSeq(prob.window, v * (1.0 + jitter * rng.standard_normal(v.shape)))
            res = deflated_solve(anchors, u0, prob, cfg)
            if res.converged and anchors.add(res):
                acc = accept(res)
                if acc is not None and stored.add(acc):
                    added = True
        if not added:
            break
    return stored


def find_critical_points(prob: ProblemSpec, cfg: SolverConfig, *,
                         random_starts: int = 0, amplitude: float = 2.0,
                         max_rounds: int = 4) -> SolutionSet:
    """Enumerate roots reachable by multistart Newton plus deflation rounds.

    The zero configuration is included whenever it is an exact root.  The
    set accepts every converged root (no decay or continuation filters);
    it is the raw critical-point inventory of the truncated problem.
    """
    rng = np.random.default_rng(cfg.seed)
    starts = _candidate_starts(prob, max_site=3)
    n_bump = len(starts)
    if random_starts > 0:
        starts.extend(rng.uniform(-amplitude, amplitude, size=(random_starts, prob.window.size)))

    # Deflation rounds on a bounded start pool: enough to dig out roots the
    # plain multistart missed without re-running the full pool every round.
    n_random = len(starts) - n_bump
    pick = rng.choice(n_random, size=max(0, min(DEFLATION_POOL, n_random)), replace=False)
    pool = starts[:n_bump] + [starts[n_bump + i] for i in pick]
    return _enumerate(prob, cfg, [], starts, pool,
                      accept=lambda res: res if res.converged else None,
                      done=lambda stored: False, max_rounds=max_rounds, jitter=0.0, rng=rng)


def _sequence_accept(res: SolveResult, prob: ProblemSpec, cfg: SolverConfig):
    """Full acceptance for sequence members: residual, decay, continuation."""
    if not res.converged or res.residual_inf_norm > cfg.residual_tol:
        return None
    if res.energy <= 1e-8:  # excludes the zero solution and numerical ghosts
        return None
    if res.tail_mass > TAIL_TOL:
        return None
    K = prob.window.half_width
    rep = window_continuation(res, prob, K + CONTINUATION_GROWTH, cfg)
    if rep.truncation_artifact or not rep.result.converged or rep.drift >= DRIFT_TOL:
        return None
    extras = dict(res.extras)
    extras["continuation"] = {"drift": rep.drift, "half_width": K + CONTINUATION_GROWTH,
                              "boundary_peak": rep.boundary_peak}
    return replace(res, extras=extras)


def _first_pass_state(prob: ProblemSpec, cfg: SolverConfig) -> Optional[SolveResult]:
    """Mountain pass from zero toward a large spike with negative energy."""
    zero = LatticeSeq.zeros(prob.window)
    shape = LatticeSeq.spike(prob.window, 0, 1.0)
    c = 1.0
    for _ in range(60):
        if float(energy_many(c * shape.values, prob)) < 0.0:
            break
        c *= 2.0
    else:
        return None
    try:
        return mountain_pass(zero, LatticeSeq(prob.window, c * shape.values), prob, cfg)
    except MountainPassError:
        return None


def solution_sequence(prob: ProblemSpec, cfg: SolverConfig, n_target: int) -> SolutionSet:
    """Collect ``n_target`` distinct solutions with strictly increasing energy.

    Mountain pass supplies the first excited state; one-site balance starts
    plus deflation supply the rest.  Every member passes the residual, tail,
    and window-continuation acceptance.  If the budget runs out first, the
    partial set is returned with a warning attached.
    """
    if n_target < 0:
        raise ValueError("n_target must be nonnegative")
    out = SolutionSet(tol=DEDUP_TOL, odd=prob.nonlinearity.is_odd)
    if n_target == 0:
        return out
    rng = np.random.default_rng(cfg.seed)
    mp = _first_pass_state(prob, cfg)
    starts = _candidate_starts(prob, max_site=4)
    pool = _enumerate(prob, cfg, [] if mp is None else [mp], starts, starts,
                      accept=lambda res: _sequence_accept(res, prob, cfg),
                      done=lambda stored: len(_strict_ladder(stored)) >= n_target,
                      max_rounds=6, jitter=0.05, rng=rng)
    for r in _strict_ladder(pool)[:n_target]:
        out.add(r)
    if len(out) < n_target:
        out.warning = (f"found {len(out)} of {n_target} requested solutions "
                       f"before the search budget ran out")
    return out


def _strict_ladder(pool: SolutionSet, gap: float = 1e-8) -> list:
    """Greedy strictly-increasing-energy subsequence of the pool.

    A rung must clear the previous one by ``gap`` times max(1, |J|): an
    absolute gap below |J| = 1, a relative one above, so that energies equal
    up to rounding (mirror-image states at large |J|) count as equal.
    """
    ladder = []
    last = -np.inf
    for r in pool:
        if r.energy > last + gap * max(1.0, abs(r.energy)):
            ladder.append(r)
            last = r.energy
    return ladder
