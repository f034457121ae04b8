"""Critical-point solvers on the truncated lattice.

The workhorses:

    newton_solve        damped Newton on the residual, tridiagonal Jacobian
    mountain_pass       Newton from the energy maximum on a segment
    deflated_solve      Newton on the deflated residual to find new roots
    window_continuation re-solve on a wider window to vet truncation
    solution_sequence   assemble distinct solutions with increasing energy
    find_critical_points  multistart and deflation inventory of reachable roots

newton_solve and deflated_solve share one damped Newton loop, which stops
where its step or its Armijo search fails.  The search evaluates the step
lengths 1, 1/2, 1/4, ... in order, in batched residual calls: all 40 in
one call up to n = 25 (_SEARCH_MERGE), and above that the full step alone,
then the others about _SEARCH_BLOCK values to a call (all 39 in one up to
n = 105).  It keeps the first that passes: the point a one-at-a-time search
would accept, with the same bits.  Deflation multiplies the residual by
M(v) = prod_i (1 + ||v - w_i||^-p) over the known roots w_i, and their
negations for an odd drive.  The Jacobian
M J + r grad(M)^T of M r is tridiagonal plus rank one, so by
Sherman-Morrison its Newton step is the plain tridiagonal step delta times
the scalar 1 / (1 - grad(log M).delta) (Farrell, Birkisson & Funke, SIAM J.
Sci. Comput. 37, 2015).  The tridiagonal step is one direct LAPACK dgtsv
call; scipy.linalg loads at the first solve, so importing this module needs
numpy only.

find_critical_points and solution_sequence run one enumeration engine,
multistart Newton into one root store, then deflation rounds from the
one-site bump starts, and differ only in the data they pass it.  Solutions
are taken up to sign only for an odd drive (``Nonlinearity.is_odd``).  A
bump start's height is the drive's closed-form one-site balance where it
has one, else a scan and bisection of the balance gap (``bump_amplitude``).
solution_sequence keeps one rung per run of energies tied to rounding, the
greatest in lexicographic order of values: a mirror twin never replaces it.

Convergence is always declared on the infinity norm of the residual, never
on step size (steps can stagnate near clamped Jacobian entries for p < 2).
Every returned result re-evaluates its diagnostics from scratch rather
than trusting the loop's last internal values.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .lattice import (LatticeSeq, ProblemSpec, Window, _cerami_from_residual, _diff_many,
                      energy_many, energy_parts_many, phi_p, phi_p_prime, residual_many,
                      sup_norm, tail_mass)

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
# sufficient-decrease factor, at most MAX_BACKTRACKS trials, in order, in the
# batches of ``_search_chunks``.
# JACOBIAN_CAP caps phi_p' in the Jacobian (p < 2).  Mountain pass: PATH_POINTS points of
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

# LS_SHRINK^j for j < MAX_BACKTRACKS, by the repeated products that a
# one-at-a-time search forms.
_STEP_LENGTHS = np.cumprod(np.r_[1.0, np.full(MAX_BACKTRACKS - 1, LS_SHRINK)])
# Values per batched residual call of the Armijo search after the full step:
# every shorter step length fits one call up to n = 105, and at n = 401 and
# 801 a call holds 10 and 5 of them.  On a benchmark ladder round, 105 of
# the 155 searches at those n whose full step failed accepted within their
# first call.  The round took 0.51 s of process time at 4096, against 0.62,
# 0.58 and 0.52 s at 1024, 2048 and 8192, and 0.62 s with one call for all
# 39 (medians of 10 alternating rounds in one interpreter, 2-core host).
_SEARCH_BLOCK = 4096
# Values up to which the full step shares one call with the other 39 step
# lengths (40 n <= 1024: n <= 25).  Evaluating 40 trial rows (residual and
# merit, or with M at 3 anchors) costs 1.3-1.8 times one row at n <= 11,
# 1.6-2.0 times at n = 15-27 and 3.3-4.3 times at n = 101 (best of 7
# timings, PurePower and LogPower, 2-core host).  The merged call saves time
# once a share (C40 - C1) / C39 of the full steps fails: 0.25-0.45 at
# n <= 11, 0.43-0.47 at n = 25, 0.62-0.65 at n = 51, 0.71-0.78 at n = 101.
# Measured shares that fail: 82% in a benchmark enumerate round (n = 3 and
# 5); 79% in `dplhom sequence` on configs/pure_power.cfg (n = 21, 618 of
# 782 searches) and 72-74% on it at n = 23-27; 22% (25 of 114) in
# `sequence` on configs/reference.cfg at n = 23-27 and 101.  That run
# took 0.476 s at a limit of 200 and 0.473 s here at n = 21, 0.436 and
# 0.408 s at n = 25 (lower in 13 of 15), and on reference.cfg at n = 25
# 0.349 and 0.344 s (lower in 7 of 15): process-time medians of 15
# alternating fresh-interpreter runs, 2-core host.
_SEARCH_MERGE = 1024
# _canonical_values counts an entry as significant above _SIGN_TOL_REL times
# the largest |entry|; _strict_ladder's rungs are _LADDER_GAP max(1, |J|) apart.
_SIGN_TOL_REL = 1e-12
_LADDER_GAP = 1e-8
# bump_amplitude's range, and the grid it scans for a drive without a closed form
_AMPLITUDE_GRID = np.logspace(-3.0, 16.0, 640)


def _search_chunks(n: int) -> list:
    """The Armijo search at n sites: (step lengths, Armijo factors) per residual call.

    Up to _SEARCH_MERGE values every step length goes in one call.  Above it
    the full step goes alone, then the others in order, max(1,
    _SEARCH_BLOCK // n) to a call.  Step lengths come as a column, and the
    factor of step length alpha is 1 - 2 LS_DECREASE alpha.
    """
    if MAX_BACKTRACKS * n <= _SEARCH_MERGE:
        chunks = [_STEP_LENGTHS]
    else:
        rows = max(1, _SEARCH_BLOCK // n)
        chunks = [_STEP_LENGTHS[:1]] + [_STEP_LENGTHS[j:j + rows]
                                        for j in range(1, MAX_BACKTRACKS, rows)]
    return [(alphas[:, None], 1.0 - 2.0 * LS_DECREASE * alphas) for alphas in chunks]


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
    r = residual_many(v, prob)
    r_inf = float(np.max(np.abs(r)))
    total, norm_p, _ = energy_parts_many(v, prob)  # ||u||^p summed once, for both
    h = _tail_threshold(prob.window)
    return SolveResult(
        u=u,
        energy=float(total),
        residual_inf_norm=r_inf,
        cerami_metric=_cerami_from_residual(norm_p ** (1.0 / prob.p), r),
        tail_mass=tail_mass(u, h, prob.p),
        tail_threshold=h,
        iterations=iterations,
        converged=bool(r_inf <= cfg.residual_tol),
        note=note,
    )


def _jacobian_bands(v: np.ndarray, prob: ProblemSpec) -> np.ndarray:
    """Banded (ab) form of the tridiagonal residual Jacobian.

    At p = 2, phi_p' is 1.0 everywhere and x * 1.0 = x, so the off-diagonals
    are -a(k) and the main diagonal is the stiffness s(k) - lambda f_t(k, v):
    the general formula's bits without its phi_p' evaluations.
    """
    n = v.size
    a, b = prob.coeffs.a, prob.coeffs.b
    drive = prob.lam * prob.nonlinearity.df_dt(prob.window.indices, v)
    if prob.p == 2.0:
        off = -a[1:-1]
        main = prob.coeffs.stiffness - drive
    else:
        w = phi_p_prime(prob.p, _diff_many(v), cap=JACOBIAN_CAP)  # length n+1
        wp = phi_p_prime(prob.p, v, cap=JACOBIAN_CAP)
        off = -(a[1:-1] * w[1:-1])
        main = a[:-1] * w[:-1] + a[1:] * w[1:] + b * wp - drive
    ab = np.zeros((3, n))
    ab[0, 1:] = off   # superdiagonal: dr[i]/dv[i+1]
    ab[1, :] = main
    ab[2, :-1] = off  # subdiagonal: dr[i]/dv[i-1]
    return ab


def _newton_values(v0: np.ndarray, prob: ProblemSpec, cfg: SolverConfig,
                   anchors: Optional[np.ndarray] = None):
    """Core damped Newton loop on raw values; returns (v, iters, note).

    With an (m, n) ``anchors`` array the loop runs on the deflated residual
    M r, M = prod_i (1 + ||v - w_i||^-p); without, M is 1.0.  Its merit is
    ||M r||^2, and its step is the tridiagonal Newton step delta over
    1 - grad(log M).delta: Sherman-Morrison on M J + r grad(M)^T.  The Armijo
    search visits alpha = 1, then the LS_SHRINK^j, 0 < j < MAX_BACKTRACKS,
    in order, in the residual calls of ``_search_chunks``: all 40 in one call
    while 40 n <= _SEARCH_MERGE, else alpha = 1 alone and then
    max(1, _SEARCH_BLOCK // n) at a time.  It keeps the first passing row of
    the first call that has one, the longest step that passes.  The trial
    rows get M alone; grad(log M) is taken at the accepted point only.
    Either loop stops at the first iteration whose Newton step is missing
    (singular, non-finite or at least 1e14) or whose Armijo search fails,
    and the deflated loop also stops at a start that sits on an anchor.
    """
    from scipy.linalg.lapack import dgtsv  # scipy loads at the first solve, not at import

    v = np.array(v0, dtype=float)
    deflate = anchors is not None
    stop_note = "deflated iteration diverged" if deflate else "no descent direction made progress"
    r = residual_many(v, prob)
    M, dlogM = _deflation_terms(v, anchors, prob.p) if deflate else (1.0, None)
    if not math.isfinite(M):  # the start sits on an anchor
        return v, 0, stop_note
    chunks = _search_chunks(v.size)
    note = ""
    it = 0
    while not M * float(np.abs(r).max()) <= cfg.residual_tol:  # a NaN residual still steps
        if it == cfg.max_iter:
            note = "max_iter exceeded"
            break
        it += 1
        merit = float(r @ r) * (M * M)
        ab = _jacobian_bands(v, prob)
        # LAPACK's tridiagonal solve, as solve_banded((1, 1), ab, -r) calls it
        _, _, _, delta, info = dgtsv(ab[2, :-1], ab[1], ab[0, 1:], -r)
        if info == 0 and deflate:  # info > 0: a zero pivot, the Jacobian is singular
            delta = delta / (1.0 - float(dlogM @ delta))
        if info != 0 or not (np.isfinite(delta).all() and float(np.abs(delta).max()) < 1e14):
            note = stop_note
            break
        for alphas, factors in chunks:
            V_try = v + alphas * delta
            R_try = residual_many(V_try, prob)
            m_try = np.vecdot(R_try, R_try)  # row j: r_j @ r_j, bit for bit
            if deflate:
                M_try = _deflation_terms(V_try, anchors, prob.p, gradient=False)
                m_try = m_try * (M_try * M_try)
            ok = np.isfinite(m_try) & (m_try <= factors * merit)
            if ok.any():
                j = int(ok.argmax())
                v, r = V_try[j], R_try[j]
                if deflate:  # the row's bits, as in the batch
                    M, dlogM = _deflation_terms(v, anchors, prob.p)
                break
        else:
            note = stop_note
            break
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


def _deflation_terms(v: np.ndarray, anchors: np.ndarray, power: float, gradient: bool = True):
    """M = prod_i (1 + ||v - w_i||^-power) over the anchor rows, and grad log M.

    Batched over the leading axes of ``v``; each row gets the bits a call on
    that row alone gets.  M is inf, and its gradient NaN, where v sits
    exactly on an anchor.  With ``gradient`` false, M alone is returned.
    """
    dv = v[..., None, :] - anchors
    s2 = np.einsum("...ij,...ij->...i", dv, dv)
    with np.errstate(divide="ignore", invalid="ignore"):  # 0^-power on an anchor
        t = s2 ** (-0.5 * power)
        m = 1.0 + t
        if not gradient:
            return m.prod(axis=-1)
        grad = (-power * t / (s2 * m))[..., None, :] @ dv
    return m.prod(axis=-1), grad[..., 0, :]


def deflated_solve(known, u0: LatticeSeq, prob: ProblemSpec,
                   cfg: SolverConfig) -> SolveResult:
    """Newton on the residual deflated at the known roots.

    For an odd drive the negations of the known roots are anchors too.

    Runs the Newton loop of ``newton_solve`` on M r, whose step is the plain
    tridiagonal step times 1 / (1 - grad(log M).delta).  The loop converges
    only where M ||r||_inf <= ``residual_tol`` with M > 1, so its root already
    meets the plain residual test, which ``_finish`` re-checks; no polish on
    the undeflated residual follows.  A run that stops or runs out of
    iterations is returned as it stands with ``converged=False``.
    """
    anchors = _anchor_values(known, prob.nonlinearity.is_odd)
    v, it, note = _newton_values(u0.values, prob, cfg, anchors)
    res = _finish(v, prob, cfg, it, note)
    return replace(res, converged=False) if note else res


def _anchor_values(known, odd: bool) -> np.ndarray:
    """Known roots, plus their negations if ``odd``, one distinct row each."""
    rows = [w.u.values if isinstance(w, SolveResult) else getattr(w, "values", w) for w in known]
    if not rows:
        raise ValueError("deflated_solve needs at least one known solution")
    W = np.array(rows, dtype=float)
    if odd:
        W = np.concatenate([W, -W])
    # Rows in lexicographic order, first column first (the order M multiplies
    # its factors in), with each run of equal rows kept once.
    W = W[np.lexsort(W.T[::-1])]
    return W[np.r_[True, np.any(W[1:] != W[:-1], axis=1)]]


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


def _canonical_values(values: np.ndarray, odd: bool) -> np.ndarray:
    """A copy; for an odd drive, signed so the first significant entry is positive."""
    v = np.array(values, dtype=float)
    scale = float(np.max(np.abs(v)))
    if not odd or scale == 0.0:
        return v
    idx = np.argmax(np.abs(v) > _SIGN_TOL_REL * scale)
    if v[idx] < 0.0:
        v = -v
    return v


@dataclass
class SolutionSet:
    """Solutions more than ``DEDUP_TOL`` apart in the sup norm, sorted by energy.

    With ``odd`` set (the solvers copy the drive's ``is_odd``), u and -u are
    the same physical solution: members are compared up to sign and stored
    with a canonical sign (first significant entry positive), which makes
    merging order-independent.  Without it every member keeps its own sign.
    Members stand in a stable sort's order of (energy, values as a list),
    which for finite values is the order of (energy, tuple(values)).
    """

    warning: Optional[str] = None
    odd: bool = False
    _items: list = field(default_factory=list)

    def add(self, result: SolveResult) -> bool:
        v = _canonical_values(result.u.values, self.odd)
        if self._close(v):
            return False
        bisect.insort(self._items, replace(result, u=LatticeSeq(result.u.window, v)),
                      key=lambda r: (r.energy, r.u.values.tolist()))
        return True

    def contains_close(self, values: np.ndarray) -> bool:
        """Whether a member of ``values``' shape is within DEDUP_TOL of it (up to sign if odd)."""
        return self._close(_canonical_values(values, self.odd))

    def _close(self, v: np.ndarray) -> bool:  # members of v's shape, stacked on each call
        rows = [o.u.values for o in self._items if o.u.values.shape == v.shape]
        stack = np.array(rows).reshape(len(rows), v.size)
        return bool((np.abs(stack - v).max(axis=1) <= DEDUP_TOL).any())

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


def bump_amplitude(prob: ProblemSpec, site: int | np.ndarray) -> Optional[float] | np.ndarray:
    """Amplitude where the one-site stiffness balances the drive term.

    Solves a(j) + a(j+1) + b(j) times phi_p(c) = lambda f(j, c) for c > 0,
    the anti-continuum limit of one site with zero neighbours; spikes of
    this height are excellent Newton starts for one-bump states.  One site
    gives a float, or None where no c in [1e-3, 1e16] balances; an array of
    sites gives NaN there.  The drive's ``balance_amplitude`` gives c in
    closed form where it has one.  Otherwise each site scans a 640-point
    grid of that range for the first rise of the gap through 0 and bisects
    it in scalar arithmetic (for a non-integer power numpy's array kernels
    can round an ulp away from it), for 80 steps or until one leaves (lo,
    hi) as it was, which leaves the amplitude as the 80 steps would.
    """
    def gap(k, stiff, c):
        return prob.lam * prob.nonlinearity.f(k, c) - stiff * phi_p(prob.p, c)

    sites = np.ravel(site)
    pos = np.array([prob.window.position(k) for k in sites.tolist()], dtype=int)
    stiff = prob.coeffs.stiffness[pos]
    amp = prob.nonlinearity.balance_amplitude(sites, stiff, prob.lam)
    if amp is None:
        amp = np.full(sites.size, np.nan)
        for n, (k, s) in enumerate(zip(sites.tolist(), stiff.tolist())):
            vals = gap(k, s, _AMPLITUDE_GRID)
            change = np.nonzero((vals[:-1] <= 0.0) & (vals[1:] > 0.0))[0]
            if change.size == 0:
                continue
            lo, hi = _AMPLITUDE_GRID[change[0]], _AMPLITUDE_GRID[change[0] + 1]
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                step = (lo, mid) if gap(k, s, mid) > 0.0 else (mid, hi)
                if step == (lo, hi):  # a fixed point: every later step repeats this one
                    break
                lo, hi = step
            amp[n] = 0.5 * (lo + hi)
    amp = np.where((amp >= _AMPLITUDE_GRID[0]) & (amp <= _AMPLITUDE_GRID[-1]), amp, np.nan)
    if np.ndim(site) == 0:
        return None if math.isnan(amp[0]) else float(amp[0])
    return amp


def _candidate_starts(prob: ProblemSpec, max_site: int = 3) -> list:
    """One-site balance spikes plus sign-pattern combinations of them.

    Sites 0, 1, -1, ..., m, -m, m = min(max_site, K), get their amplitudes
    from one ``bump_amplitude`` call; -s borrows the amplitude of s if it
    does not balance, and neither is used if s does not.  Each {site: sign}
    pattern, in table order, gives a start where all its sites have one.
    """
    m = min(max_site, prob.window.half_width)
    sites = [0] + [s for j in range(1, m + 1) for s in (j, -j)]
    c = dict(zip(sites, bump_amplitude(prob, np.array(sites))))
    amp = {s: c[abs(s)] if math.isnan(c[s]) else c[s] for s in sites if not math.isnan(c[abs(s)])}
    patterns = ([{s: 1} for s in sites]  # spikes, odd and even pairs, then sites 0 and +-1
                + [{s: 1, -s: sign} for s in range(1, m + 1) for sign in (-1, 1)]
                + [{0: 1, 1: 1, -1: 1}, {0: 1, 1: -1, -1: -1}, {0: -1, 1: 1, -1: 1},
                   {0: 1, 1: 1}, {0: 1, 1: -1}])
    starts = []
    for pattern in patterns:
        if pattern.keys() <= amp.keys():
            v = np.zeros(prob.window.size)
            for s, sign in pattern.items():
                v[prob.window.position(s)] = sign * amp[s]
            starts.append(v)
    return starts


def _enumerate(prob: ProblemSpec, cfg: SolverConfig, initial, starts, accept, done,
               max_rounds: int, jitter: float, extra_starts=()) -> SolutionSet:
    """Multistart Newton over ``starts`` then ``extra_starts``; deflation rounds over ``starts``.

    Zero, each ``initial`` result and each multistart root not yet stored is
    stored if ``accept`` returns a result for it.  The first round anchors
    zero, then each stored root (only zero can turn one away).  A round
    deflates from each of ``starts`` times 1 + jitter N(0, 1), drawn from
    ``np.random.default_rng(cfg.seed)``, anchors every new converged root
    and stores the accepted ones.  Rounds stop once ``done(stored)`` holds,
    after a round that stores nothing, or at ``max_rounds``.
    """
    odd = prob.nonlinearity.is_odd
    stored, anchors = SolutionSet(odd=odd), None
    zero = _finish(np.zeros(prob.window.size), prob, cfg, 0)
    solved = (newton_solve(LatticeSeq(prob.window, v), prob, cfg)
              for v in itertools.chain(starts, extra_starts))
    for res in itertools.chain([zero], initial, solved):
        acc = None if stored.contains_close(res.u.values) else accept(res)
        if acc is not None:
            stored.add(acc)
    rng = np.random.default_rng(cfg.seed)
    for _ in range(max_rounds):
        if done(stored):
            break
        if anchors is None:
            anchors = SolutionSet(odd=odd)
            for res in itertools.chain([zero], stored):
                anchors.add(res)
        added = False
        for v in starts:
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

    Newton runs from the bump starts of ``_candidate_starts`` and from
    ``random_starts`` uniform starts in [-amplitude, amplitude]; the
    deflation rounds start from the bump starts only.  The zero
    configuration is included whenever it is an exact root.  The set
    accepts every converged root (no decay or continuation filters); it is
    the raw critical-point inventory of the truncated problem.
    """
    rng = np.random.default_rng(cfg.seed)
    extra = rng.uniform(-amplitude, amplitude, size=(random_starts, prob.window.size))
    return _enumerate(prob, cfg, [], _candidate_starts(prob, max_site=3),
                      accept=lambda res: res if res.converged else None,
                      done=lambda stored: False, max_rounds=max_rounds, jitter=0.0,
                      extra_starts=extra)


def _sequence_accept(res: SolveResult, prob: ProblemSpec, cfg: SolverConfig):
    """Full acceptance for sequence members: residual, decay, continuation."""
    # energy <= 1e-8 excludes the zero solution and numerical ghosts
    if not res.converged or res.energy <= 1e-8 or res.tail_mass > TAIL_TOL:
        return None
    K = prob.window.half_width
    rep = window_continuation(res, prob, K + CONTINUATION_GROWTH, cfg)
    # |u(+-K)| <= tail_mass <= TAIL_TOL here, so rep.truncation_artifact is false
    if not rep.result.converged or rep.drift >= DRIFT_TOL:
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
    if n_target == 0:
        return SolutionSet(odd=prob.nonlinearity.is_odd)
    mp = _first_pass_state(prob, cfg)
    pool = _enumerate(prob, cfg, [] if mp is None else [mp], _candidate_starts(prob, max_site=4),
                      accept=lambda res: _sequence_accept(res, prob, cfg),
                      done=lambda stored: len(_strict_ladder(stored)) >= n_target,
                      max_rounds=6, jitter=0.05)
    # the rungs are pool members: canonical, in order and DEDUP_TOL apart
    out = SolutionSet(odd=pool.odd, _items=_strict_ladder(pool)[:n_target])
    if len(out) < n_target:
        out.warning = (f"found {len(out)} of {n_target} requested solutions "
                       f"before the search budget ran out")
    return out


def _lex_order(r: SolveResult, s: SolveResult) -> int:
    """Sign of u_r - u_s at the first site where they differ by more than DEDUP_TOL, else 0."""
    d = r.u.values - s.u.values
    i = np.flatnonzero(np.abs(d) > DEDUP_TOL)
    return 0 if i.size == 0 else (1 if d[i[0]] > 0.0 else -1)


def _strict_ladder(pool: SolutionSet) -> list:
    """Strictly-increasing-energy rungs of the pool, one per run of tied energies.

    A member ties with the one before it unless it clears that energy by
    ``_LADDER_GAP`` times max(1, |J|): an absolute gap below |J| = 1, a
    relative one above, so that energies equal up to rounding (mirror-image
    states u(k) and u(-k) on an even problem) count as equal.  Each run of
    ties gives one rung, its member that is greatest in the order of
    ``_lex_order``, and the next run must clear the run's largest energy.
    Rounding that reorders or moves a run's energies leaves the rung as it is.
    """
    runs = []
    last = -np.inf
    for r in pool:  # in increasing energy
        if r.energy > last + _LADDER_GAP * max(1.0, abs(r.energy)):
            runs.append([])
        runs[-1].append(r)
        last = r.energy
    return [max(run, key=functools.cmp_to_key(_lex_order)) for run in runs]
