"""Independent oracles for the test suite.

Everything here is deliberately written against the raw formulas (literal
loops, fixed-grid quadrature, dense linear algebra, batched flow + Newton)
rather than through the library's own code paths, so a test that compares
the two is a genuine cross-check.
"""

import itertools
import json
import math
from pathlib import Path

import numpy as np
from scipy.linalg import solve_banded

from dplhom.fountain import FountainGeometryError
from dplhom.hypotheses import (_WITNESS_TOL, _ZERO_TOL, INCONCLUSIVE, REFUTED, SATISFIED,
                               HypothesisReport)
from dplhom.lattice import energy_many, phi_p, residual_many, weighted_norm_many
from dplhom.nonlinearity import PurePower
from dplhom.solver import (JACOBIAN_CAP, LS_DECREASE, LS_SHRINK, MAX_BACKTRACKS,
                           _jacobian_bands)


def direct_weighted_norm(values, a, b, p):
    """Literal summation of the weighted norm, zero extension by hand."""
    n = len(values)
    ext = [0.0] + list(values) + [0.0]
    total = 0.0
    for j in range(n + 1):  # difference terms, k = -K .. K+1
        total += a[j] * abs(ext[j + 1] - ext[j]) ** p
    for i in range(n):
        total += b[i] * abs(values[i]) ** p
    return total ** (1.0 / p)


def fd_gradient(values, prob, h=1e-6):
    """Central finite differences of the energy, batched over coordinates."""
    values = np.asarray(values, dtype=float)
    n = values.size
    eye = np.eye(n)
    plus = values[None, :] + h * eye
    minus = values[None, :] - h * eye
    return (energy_many(plus, prob) - energy_many(minus, prob)) / (2.0 * h)


def trapezoid_primitive(f_scalar, k, t, points=200_001):
    """Fixed-grid trapezoid value of int_0^t f(k, s) ds."""
    s = np.linspace(0.0, t, points)
    ys = np.array([f_scalar(k, x) for x in s])
    trap = getattr(np, "trapezoid", None) or np.trapz
    return float(trap(ys, s))


def gauss_legendre_log_primitive(s, p, nu, ratio=2.0 ** 0.5, panels=220):
    """G(s) = int_0^s x^(p-1) ln(1 + x^nu) dx by composite Gauss-Legendre.

    Geometric panels [s r^-(j+1), s r^-j], j < ``panels``, with 24 nodes
    each.  The integrand is analytic off x = 0 and the roots of x^nu = -1,
    which lie at angle pi / nu from the real axis; for nu <= 7 every panel
    is accurate to rounding (at nu = 50 it lost 1e-9 near x = 1).  The part
    below s r^-panels (about 1e-33 s) is left out; relative to G(s) it is
    below 1e-49 for p >= 1.5.
    """
    s = np.asarray(s, dtype=float)
    x_gl, w_gl = np.polynomial.legendre.leggauss(24)
    out = np.zeros_like(s)
    for j in reversed(range(panels)):  # smallest panel first
        hi, lo = ratio ** -j, ratio ** -(j + 1)
        half = 0.5 * (hi - lo) * s[..., None]
        x = 0.5 * (hi + lo) * s[..., None] + half * x_gl
        out += half[..., 0] * np.sum(w_gl * x ** (p - 1.0) * np.log1p(x ** nu), axis=-1)
    return out


def dense_jacobian_fd(values, prob, h=1e-7):
    """Finite-difference Jacobian of the residual (dense)."""
    values = np.asarray(values, dtype=float)
    n = values.size
    J = np.zeros((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = h
        J[:, j] = (residual_many(values + e, prob) - residual_many(values - e, prob)) / (2 * h)
    return J


def literal_deflation(v, anchors, power):
    """M = prod_i (1 + ||v - w_i||^-power) and grad M, one anchor at a time."""
    v = np.asarray(v, dtype=float)
    M = 1.0
    grad_log = np.zeros(v.size)
    for w in anchors:
        dv = v - np.asarray(w, dtype=float)
        s = math.sqrt(float(dv @ dv))
        m = 1.0 + s ** (-power)
        M *= m
        grad_log += (-power * s ** (-power - 2.0) / m) * dv
    return M, M * grad_log


def dense_deflated_step(values, prob, anchors, power):
    """Newton step of the deflated residual M r by a dense solve.

    Solves (M J + r grad M^T) delta = -M r with J from finite differences.
    """
    values = np.asarray(values, dtype=float)
    r = residual_many(values, prob)
    M, grad_M = literal_deflation(values, anchors, power)
    J = dense_jacobian_fd(values, prob)
    return np.linalg.solve(M * J + np.outer(r, grad_M), -M * r)


def sequential_newton_values(v0, prob, cfg, anchors=None):
    """Damped Newton with a one-trial-at-a-time Armijo search; (v, iters, note).

    The library's loop as it stood before its backtracking was batched: each
    step length alpha = 1, LS_SHRINK, LS_SHRINK^2, ... is evaluated on its
    own, with a single-point deflation factor, until one passes.  Same
    Jacobian bands; the step keeps scipy's ``solve_banded``, which calls the
    LAPACK ``dgtsv`` that the library calls directly and raises
    ``LinAlgError`` where dgtsv reports a zero pivot.  So a batched search
    that visits the same points must return the same bits.
    """
    def deflation(x):
        if anchors is None:
            return 1.0, None
        dv = x - anchors
        s2 = np.einsum("ij,ij->i", dv, dv)
        if not s2.all():
            return math.inf, None
        t = s2 ** (-0.5 * prob.p)
        m = 1.0 + t
        return float(m.prod()), (-prob.p * t / (s2 * m)) @ dv

    v = np.array(v0, dtype=float)
    stop_note = ("no descent direction made progress" if anchors is None
                 else "deflated iteration diverged")
    r = residual_many(v, prob)
    M, dlogM = deflation(v)
    note = ""
    it = 0
    if not math.isfinite(M):
        return v, it, stop_note
    while not M * float(np.max(np.abs(r))) <= cfg.residual_tol:
        if it == cfg.max_iter:
            note = "max_iter exceeded"
            break
        it += 1
        merit = float(r @ r) * (M * M)
        ab = _jacobian_bands(v, prob)
        delta = None
        try:
            cand = solve_banded((1, 1), ab, -r)
            if anchors is not None:
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
    return v, it, note


def _batched_newton(V, prob, tol=1e-12, max_iter=60, h=1e-7):
    """Plain (undamped) Newton on every row of V at once; FD Jacobians.

    Returns the rows that converged to roots of the residual.
    """
    V = np.array(V, dtype=float)
    m, n = V.shape
    alive = np.ones(m, dtype=bool)
    done = np.zeros(m, dtype=bool)
    for _ in range(max_iter):
        if not np.any(alive):
            break
        R = residual_many(V, prob)
        bad = ~np.all(np.isfinite(R), axis=1) | (np.max(np.abs(V), axis=1) > 1e6)
        alive &= ~bad
        conv = alive & (np.max(np.abs(R), axis=1) <= tol)
        done |= conv
        alive &= ~conv
        idx = np.nonzero(alive)[0]
        if idx.size == 0:
            break
        W = V[idx]
        J = np.empty((idx.size, n, n))
        for j in range(n):
            e = np.zeros(n)
            e[j] = h
            J[:, :, j] = (residual_many(W + e, prob) - residual_many(W - e, prob)) / (2 * h)
        try:
            steps = np.linalg.solve(J, -R[idx][..., None])[..., 0]
        except np.linalg.LinAlgError:
            steps = np.full((idx.size, n), np.nan)
            for row, (Ji, ri) in enumerate(zip(J, R[idx])):
                try:
                    steps[row] = np.linalg.solve(Ji, -ri)
                except np.linalg.LinAlgError:
                    pass
        ok_step = np.all(np.isfinite(steps), axis=1)
        V[idx[ok_step]] += steps[ok_step]
        alive[idx[~ok_step]] = False
    return [V[i] for i in np.nonzero(done)[0]]


def multistart_flow_newton(prob, n_starts, amplitude, seed, flow_steps=10, dt=0.02):
    """Gradient-flow preconditioning then Newton polish from random starts.

    Independent root enumerator: integrates du/dtau = -residual(u) for a
    short time (batched explicit Euler with a norm cap), then polishes every
    endpoint with dense FD-Jacobian Newton.  Returns deduplicated roots,
    canonical in sign.
    """
    rng = np.random.default_rng(seed)
    n = prob.window.size
    V = rng.uniform(-amplitude, amplitude, size=(n_starts, n))
    for _ in range(flow_steps):
        R = residual_many(V, prob)
        V = V - dt * R
        scale = np.maximum(1.0, np.max(np.abs(V), axis=1) / (4.0 * amplitude))
        V = V / scale[:, None]
    roots = _batched_newton(V, prob)
    return dedup_signed(roots)


def canonical_sign(v, tol_rel=1e-12):
    v = np.array(v, dtype=float)
    scale = np.max(np.abs(v))
    if scale == 0.0:
        return v
    idx = np.argmax(np.abs(v) > tol_rel * scale)
    return -v if v[idx] < 0.0 else v


def dedup_signed(vectors, tol=1e-6):
    """Deduplicate up to sign with an infinity-norm tolerance."""
    out = []
    for v in vectors:
        c = canonical_sign(v)
        if not any(np.max(np.abs(c - w)) <= tol for w in out):
            out.append(c)
    return out


def sets_match(set_a, set_b, tol=1e-6):
    """Mutual matching of two root inventories up to sign and tolerance."""
    a = dedup_signed(set_a, tol)
    b = dedup_signed(set_b, tol)
    if len(a) != len(b):
        return False, a, b
    for v in a:
        if not any(np.max(np.abs(v - w)) <= tol for w in b):
            return False, a, b
    return True, a, b


def literal_phi_p(p, t):
    """phi_p straight from its definition: 0 at t = 0, else |t|^(p-2) t."""
    t_arr = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(t_arr == 0.0, 0.0, np.abs(t_arr) ** (p - 2.0) * t_arr)
    return float(out) if np.ndim(t) == 0 else out


def general_phi_p(p, t):
    """phi_p by the general kernel formula, with no shortcut at p = 2."""
    t = np.add(t, 0.0, dtype=float)
    out = np.abs(t)
    out += out == 0.0
    out **= p - 2.0
    out *= t
    return out


def general_phi_p_prime(p, t, cap):
    """(p - 1) |t|^(p-2), NaN read as inf, then clamped at ``cap``: no p = 2 shortcut."""
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (p - 1.0) * np.abs(t) ** (p - 2.0)
    out = np.where(np.isnan(out), np.inf, out)
    return out if cap is None else np.minimum(out, cap)


def _rebuilt_drive(nl, k, t, derivative):
    """f or df/dt of a PurePower or LogPower drive, every factor rebuilt per call."""
    t = np.asarray(t, dtype=float)
    if isinstance(nl, PurePower):
        ones = np.ones_like(np.asarray(k, dtype=float))
        if derivative:
            return nl.c * general_phi_p_prime(nl.q, t, None) * ones
        return nl.c * general_phi_p(nl.q, t) * ones
    k_abs = np.abs(np.asarray(k, dtype=float))
    if nl.weight_convention == "one_plus_abs":
        w = (1.0 + k_abs) ** (-nl.mu)
    else:
        with np.errstate(divide="ignore"):
            w = np.where(k_abs == 0.0, 1.0, k_abs ** (-nl.mu))
    if not derivative:
        return w * general_phi_p(nl.p, t) * np.log1p(np.abs(t) ** nl.nu)
    s = np.abs(t)
    log_term = np.log1p(s ** nl.nu)
    with np.errstate(divide="ignore", invalid="ignore"):
        lead = (nl.p - 1.0) * s ** (nl.p - 2.0) * log_term
    lead = np.where(log_term == 0.0, 0.0, lead)
    ratio = nl.nu * s ** (nl.p + nl.nu - 2.0) / (1.0 + s ** nl.nu)
    return w * (lead + ratio)


def rebuilt_residual_many(V, prob):
    """The residual kernel with nothing kept between calls: indices, weights
    and differences are rebuilt, phi_p takes its general formula."""
    V = np.asarray(V, dtype=float)
    K = prob.window.half_width
    a, b, p = prob.coeffs.a, prob.coeffs.b, prob.p
    flux = a * general_phi_p(p, np.diff(V, axis=-1, prepend=0.0, append=0.0))
    k = np.arange(-K, K + 1)
    return (-np.diff(flux, axis=-1) + b * general_phi_p(p, V)
            - prob.lam * _rebuilt_drive(prob.nonlinearity, k, V, derivative=False))


def rebuilt_jacobian_bands(v, prob):
    """Banded Jacobian with nothing kept between calls, as ``rebuilt_residual_many``."""
    n = v.size
    K = prob.window.half_width
    a, b, p = prob.coeffs.a, prob.coeffs.b, prob.p
    w = general_phi_p_prime(p, np.diff(v, prepend=0.0, append=0.0), JACOBIAN_CAP)
    wp = general_phi_p_prime(p, v, JACOBIAN_CAP)
    df = _rebuilt_drive(prob.nonlinearity, np.arange(-K, K + 1), v, derivative=True)
    main = a[:-1] * w[:-1] + a[1:] * w[1:] + b * wp - prob.lam * df
    ab = np.zeros((3, n))
    ab[0, 1:] = -(a[1:-1] * w[1:-1])
    ab[1, :] = main
    ab[2, :-1] = -(a[1:-1] * w[1:-1])
    return ab


def literal_diff(V):
    """Forward differences of the zero-extended rows, by concatenation."""
    V = np.asarray(V, dtype=float)
    zero = np.zeros(V.shape[:-1] + (1,))
    return np.concatenate([V, zero], axis=-1) - np.concatenate([zero, V], axis=-1)


def vertex_maximum_constant(split, lam):
    """C_n by brute force: ||u||^p / (p lam) at every sign vertex of the Y_n cube.

    ||u||^p is convex, so its maximum over the sup-norm unit cube sits at one
    of the 2^m vertices; all of them are evaluated, with the norm summed from
    the zero-extended differences by hand.
    """
    sites = split.y_sites + split.window.half_width
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=sites.size)))
    V = np.zeros((signs.shape[0], split.window.size))
    V[:, sites] = signs
    a, b, p = split.coeffs.a, split.coeffs.b, split.p
    total = np.sum(a * np.abs(literal_diff(V)) ** p, axis=1) + np.sum(b * np.abs(V) ** p, axis=1)
    return float(np.max(total)) / (p * lam)


def one_shot_sphere_sample(split, block, radius, count, seed):
    """Sphere samples built in one piece: all ``count`` rows at full width.

    The same normals, scaling and norm as ``fountain.sample_sphere``, with
    no blocks; the reference for its blocked build and the checks on it.
    """
    sites = split.y_sites if block == "Y" else split.z_sites
    coords = np.random.default_rng(seed).standard_normal((count, sites.size))
    coords[np.all(coords == 0.0, axis=-1), 0] = 1.0
    coords /= split.spike_norms(sites)[None, :]
    V = np.zeros((count, split.window.size))
    V[:, sites + split.window.half_width] = coords
    V *= (radius / weighted_norm_many(V, split.coeffs, split.p))[:, None]
    return V


def per_point_threshold(prob, c_sup, h_n, t_lo=1e-3, t_hi=1e140, t_samples=64):
    """Superlinearity threshold by the plain scan: test every grid T in order.

    Each test samples [T, 10T] on |k| <= h_n; the first passing grid point
    is refined by 60 bisection steps.  No screening.
    """
    k = np.arange(-h_n, h_n + 1)

    def passes(T):
        ts = np.geomspace(T, 10.0 * T, t_samples)
        with np.errstate(over="ignore", invalid="ignore"):  # inf - inf is nan, not finite
            margin = prob.nonlinearity.F(k[:, None], ts[None, :]) - 2.0 * c_sup * ts ** prob.p
        return bool(np.all(np.isfinite(margin)) and np.min(margin) >= 0.0)

    grid = np.geomspace(t_lo, t_hi, max(2, int(8 * math.log10(t_hi / t_lo))))
    hit = None
    for i, T in enumerate(grid):
        if passes(float(T)):
            hit = i
            break
    if hit is None:
        raise FountainGeometryError(
            f"no threshold T with F >= 2 C |t|^p on |k| <= {h_n} below t = {t_hi:.2e}")
    if hit == 0:
        return float(grid[0])
    lo, hi = float(grid[hit - 1]), float(grid[hit])
    for _ in range(60):
        mid = math.sqrt(lo * hi)
        if passes(mid):
            hi = mid
        else:
            lo = mid
    return hi


def per_point_bump_amplitude(prob, site):
    """One-site balance amplitude by the plain scan: the gap at each grid c in turn.

    Same scalar gap and the same 80 bisection steps as the library, with no
    array evaluation of the grid.
    """
    i = prob.window.position(site)
    stiff = float(prob.coeffs.a[i] + prob.coeffs.a[i + 1] + prob.coeffs.b[i])

    def gap(c):
        return prob.lam * float(prob.nonlinearity.f(site, c)) - stiff * phi_p(prob.p, c)

    grid = np.logspace(-3.0, 16.0, 640)
    vals = np.array([gap(c) for c in grid])
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


def _profile(window, pattern):
    v = np.zeros(window.size)
    for site, amp in pattern.items():
        v[window.position(site)] = amp
    return v


def site_by_site_candidate_starts(prob, max_site=3):
    """Reference for ``solver._candidate_starts``: one scalar amplitude solve per
    site, by ``per_point_bump_amplitude``, and each multi-site start written out."""
    K = prob.window.half_width
    sites = [s for s in range(0, min(max_site, K) + 1)]
    amp = {}
    for s in sites:
        c = per_point_bump_amplitude(prob, s)
        if c is not None:
            amp[s] = c
            if s > 0:
                amp[-s] = per_point_bump_amplitude(prob, -s) or c
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


def power_method_lower_bound(A_Z, q, starts=8, seed=0, iters=2000):
    """Sup of ||u||_q over the ellipsoid u^T A_Z u = 1, from below.

    The nonlinear power method of D. W. Boyd (LAA 9, 1974): u <- A_Z^-1
    |u|^(q-1) sign(u), renormalized in the A_Z norm.  ||u||_q^q is convex,
    so each step (the maximizer over the ellipsoid of its linearization at
    u) does not decrease it, and every iterate is feasible: the result is a
    lower bound.  Starts: ``starts`` Gaussian vectors plus the column of
    A_Z^-1 at the argmax of its diagonal, the maximizer of ||u||_inf.
    """
    A_inv = np.linalg.inv(A_Z)
    rng = np.random.default_rng(seed)
    U = np.column_stack([rng.standard_normal((A_Z.shape[0], starts)),
                         A_inv[:, np.argmax(np.diag(A_inv))]])
    values = np.zeros(U.shape[1])
    for _ in range(iters):
        U /= np.sqrt(np.sum(U * (A_Z @ U), axis=0))
        new = np.sum(np.abs(U) ** q, axis=0) ** (1.0 / q)
        if np.all(new <= values * (1.0 + 1e-15)):
            break
        values = np.maximum(values, new)
        U = A_inv @ (np.abs(U) ** (q - 1.0) * np.sign(U))
    return float(np.max(values))


def ratio_ascent(coeffs, p, q, sites, starts=8, seed=0, iters=600):
    """Sup of ||u||_q / ||u|| over u supported on ``sites``, from below.

    Projected gradient ascent on the ratio from ``starts`` Gaussian vectors:
    each step follows the ratio gradient on the support, renormalizes
    radially, and is accepted only if the objective improves (per-start
    adaptive step sizes).  Every iterate is a feasible vector, so the result
    is a lower bound.  The gradient of ||u||^p / p is summed from the
    zero-extended differences by hand.  Returns the best ratio and its unit
    vector.
    """
    window = coeffs.window
    pos = np.asarray(sites) + window.half_width
    a, b = coeffs.a, coeffs.b

    def norm(U):
        return (np.sum(a * np.abs(literal_diff(U)) ** p, axis=-1)
                + np.sum(b * np.abs(U) ** p, axis=-1)) ** (1.0 / p)

    def norm_gradient(U):
        flux = a * general_phi_p(p, literal_diff(U))
        return flux[:, :-1] - flux[:, 1:] + b * general_phi_p(p, U)

    rng = np.random.default_rng(seed)
    U = np.zeros((max(1, starts), window.size))
    U[:, pos] = rng.standard_normal((U.shape[0], pos.size))
    U /= norm(U)[:, None]
    obj = np.sum(np.abs(U) ** q, axis=-1) ** (1.0 / q)
    eta = np.full(U.shape[0], 1.0)
    active = np.ones(U.shape[0], dtype=bool)
    for _ in range(iters):
        if not np.any(active):
            break
        lq = obj[:, None]
        # grad of ||u||_q minus its component along grad of ||u|| (at ||u|| = 1)
        grad_full = (lq ** (1.0 - q)) * general_phi_p(q, U) - lq * norm_gradient(U)
        grad = np.zeros_like(U)
        grad[:, pos] = grad_full[:, pos]
        cand = U + (eta * active)[:, None] * grad
        cn = norm(cand)
        ok_norm = cn > 0.0
        cand[ok_norm] /= cn[ok_norm, None]
        cobj = np.sum(np.abs(cand) ** q, axis=-1) ** (1.0 / q)
        improved = active & ok_norm & (cobj > obj + 1e-15)
        U[improved] = cand[improved]
        obj[improved] = cobj[improved]
        eta[improved] *= 1.5
        failed = active & ~improved
        eta[failed] *= 0.5
        active &= eta > 1e-14
    best = int(np.argmax(obj))
    return float(obj[best]), U[best]


# The hypothesis gate's checks as they stood before weighted drives were
# checked on their deciding k: every k of the plan (H5 subsampled to 81 rows)
# and every t.  Copied verbatim.
def _check_H1(nl, plan) -> HypothesisReport:
    t = plan.t_values[plan.t_values > 0.0]
    if t.size == 0:
        return HypothesisReport("H1", INCONCLUSIVE, detail="no nonzero t samples")
    k = plan.k_values[:, None]
    fp = nl.f(k, t[None, :])
    fm = nl.f(k, -t[None, :])
    err = np.abs(fp + fm)
    tol = _WITNESS_TOL * (1.0 + np.abs(fp))
    if np.any(err > tol):
        i, j = np.unravel_index(int(np.argmax(err - tol)), err.shape)
        return HypothesisReport("H1", REFUTED, witness=(int(plan.k_values[i]), float(t[j])),
                                detail=f"f(k,-t) + f(k,t) = {fp[i, j] + fm[i, j]:.3e}")
    return HypothesisReport("H1", SATISFIED, detail="odd on all sampled points")


def _growth_bound(nl, plan, condition: str) -> HypothesisReport:
    """Shared body of H2 / H2p: estimate d and judge tail stability."""
    q = nl.growth_exponent()
    if q is None or not q > nl.p:
        return HypothesisReport(condition, INCONCLUSIVE,
                                detail="no growth exponent q > p is known for this family")
    t = plan.t_values[plan.t_values != 0.0]
    k = plan.k_values[:, None]
    absF = np.abs(nl.F(k, t[None, :]))
    at = np.abs(t)[None, :]
    den = at ** nl.p + at ** q if condition == "H2" else at ** q
    ratio = absF / den
    d_hat = float(np.max(ratio))
    # If the ratio is still climbing across the outermost decade of |t|,
    # the sampled sup says nothing about a global d.
    tmax = float(np.max(np.abs(t)))
    outer = np.abs(t)[None, :] >= tmax / 10.0
    inner = (np.abs(t)[None, :] < tmax / 10.0) & (np.abs(t)[None, :] >= tmax / 100.0)
    sup_outer = float(np.max(ratio[np.broadcast_to(outer, ratio.shape)], initial=0.0))
    sup_inner = float(np.max(ratio[np.broadcast_to(inner, ratio.shape)], initial=0.0))
    consts = {"d": d_hat, "q": float(q)}
    if sup_inner > 0.0 and sup_outer > 1.10 * sup_inner:
        return HypothesisReport(condition, INCONCLUSIVE, constants=consts,
                                detail="|F| ratio still growing at the largest sampled |t|")
    return HypothesisReport(condition, SATISFIED, constants=consts,
                            detail=f"grid sup of the ratio is {d_hat:.6g} with q = {q:g}")


def _check_H3(nl, plan) -> HypothesisReport:
    t = plan.small_t()
    if t.size < 2:
        return HypothesisReport("H3", INCONCLUSIVE, detail="not enough small-t samples")
    k = plan.k_values[:, None]
    ratio = np.abs(nl.f(k, t[None, :])) / np.abs(t)[None, :] ** (nl.p - 1.0)
    sup_k = np.max(ratio, axis=0)              # per |t| level, decreasing magnitude
    first, last = float(sup_k[0]), float(sup_k[-1])
    consts = {"ratio_at_largest": first, "ratio_at_smallest": last}
    if last <= max(_ZERO_TOL, 1e-3 * first):
        return HypothesisReport("H3", SATISFIED, constants=consts,
                                detail="ratio decays by three decades over the sampled range")
    if last >= 0.5 * first:
        j = int(np.argmax(ratio[:, -1]))
        return HypothesisReport("H3", REFUTED, constants=consts,
                                witness=(int(plan.k_values[j]), float(t[-1])),
                                detail=f"ratio stays at {last:.3g} down to |t| = {abs(t[-1]):.1e}")
    return HypothesisReport("H3", INCONCLUSIVE, constants=consts,
                            detail="ratio decays too slowly to call")


def _h4_profiles(nl, plan):
    """Ratios f(k,t) t / |t|^p on the large-|t| grid, |t| levels, per-k worst ratio per level."""
    t = plan.large_t()
    k = plan.k_values[:, None]
    ratio = nl.f(k, t[None, :]) * t[None, :] / np.abs(t)[None, :] ** nl.p
    mags, level = np.unique(np.abs(t), return_inverse=True)
    prof = np.full((mags.size, plan.k_values.size), np.inf)
    np.minimum.at(prof, level, ratio.T)
    return ratio, mags, prof.T


def _check_H4(nl, plan, profiles=None) -> HypothesisReport:
    _, mags, prof = profiles or _h4_profiles(nl, plan)
    if mags.size < 3:
        return HypothesisReport("H4", INCONCLUSIVE, detail="not enough large-t samples")
    mid = mags.size // 2
    g_mid, g_last = prof[:, mid], prof[:, -1]
    flat = g_last <= g_mid * (1.0 + _WITNESS_TOL) + _ZERO_TOL
    if np.any(flat):
        i = int(np.argmax(flat))
        return HypothesisReport("H4", REFUTED,
                                witness=(int(plan.k_values[i]), float(mags[-1])),
                                detail=f"ratio at k={plan.k_values[i]} does not grow "
                                       f"({g_mid[i]:.3g} -> {g_last[i]:.3g})")
    if np.all(g_last >= 1.2 * np.maximum(g_mid, 0.0)) and np.all(g_last > 0.0):
        return HypothesisReport("H4", SATISFIED,
                                constants={"min_ratio_at_largest": float(g_last.min())},
                                detail="ratio grows for every sampled k")
    return HypothesisReport("H4", INCONCLUSIVE, detail="growth too slow to call")


# H4' as it stood while it passed its full large-|t| profiles to H4: every k,
# every t, and f evaluated again for the |f| >= 1 probe.  Copied verbatim,
# except that this file's _h4_profiles takes the large-|t| grid itself.
def _check_H4p(nl, plan) -> HypothesisReport:
    profiles = _h4_profiles(nl, plan)
    base = _check_H4(nl, plan, profiles)
    if base.verdict == REFUTED:
        return HypothesisReport("H4p", REFUTED, witness=base.witness,
                                detail="pointwise superlinearity already fails: " + base.detail)
    # Uniformity probe: where does the ratio f(k,t) t / |t|^p first reach
    # level 1?  Uniform divergence bounds that crossing amplitude over k;
    # a weight decaying in k pushes it beyond any fixed grid.
    t = plan.large_t()
    k = plan.k_values[:, None]
    hit = profiles[0] >= 1.0
    crossed = np.any(hit, axis=1)
    t_cross = np.where(crossed, np.abs(t)[np.argmax(hit, axis=1)], np.inf)
    if np.all(crossed):
        consts = {"T_level1": float(np.max(t_cross))}
        # The uniform floor |f| >= 1 then holds past some T1 as well;
        # report the sampled crossing for use by the growth demo.
        fhit = np.abs(nl.f(k, t[None, :])) >= 1.0
        if np.all(np.any(fhit, axis=1)):
            consts["T1"] = float(np.max(np.abs(t)[np.argmax(fhit, axis=1)]))
        rep_verdict = SATISFIED if base.verdict == SATISFIED else INCONCLUSIVE
        return HypothesisReport("H4p", rep_verdict, constants=consts,
                                detail="the superlinearity ratio reaches 1 for every "
                                       f"sampled k by |t| = {consts['T_level1']:.4g}")
    if np.any(crossed):
        missing = ~crossed
        i = int(np.argmax(np.abs(plan.k_values) * missing))
        return HypothesisReport(
            "H4p", REFUTED, witness=(int(plan.k_values[i]), float(np.max(np.abs(t)))),
            detail=f"the ratio at k={plan.k_values[i]} never reaches 1 on the grid "
                   f"while other k cross at |t| <= {float(np.min(t_cross)):.4g}")
    return HypothesisReport("H4p", INCONCLUSIVE,
                            detail="the ratio stays below 1 on the whole grid")


def _check_H5(nl, plan) -> HypothesisReport:
    t = plan.t_values[plan.t_values != 0.0]
    if t.size > 240:  # keep the (k, t, s) tensor moderate
        t = t[np.linspace(0, t.size - 1, 240).astype(int)]
    k = plan.k_values
    if k.size > 81:
        k = k[np.linspace(0, k.size - 1, 81).astype(int)]
    base = nl.curly_F(k[:, None], t[None, :])
    neg = base < -_WITNESS_TOL
    if np.any(neg):
        i, j = np.unravel_index(int(np.argmax(neg)), neg.shape)
        return HypothesisReport("H5", REFUTED, witness=(int(k[i]), float(t[j])),
                                detail=f"curly_F({k[i]}, {t[j]:.4g}) = {base[i, j]:.3e} < 0")
    s = plan.s_values
    scaled = nl.curly_F(k[:, None, None], t[None, :, None] * s[None, None, :])
    positive = base > _ZERO_TOL
    ratio = np.where(positive[:, :, None], scaled / np.where(positive, base, 1.0)[:, :, None], -np.inf)
    sigma_hat = max(1.0, float(np.max(ratio, initial=1.0)))
    # A positive scaled value over a vanishing base value defeats every
    # finite sigma on that sample pair.
    blown = (~positive[:, :, None]) & (scaled > 1e-6)
    if np.any(blown):
        i, j, m = np.unravel_index(int(np.argmax(blown)), blown.shape)
        return HypothesisReport("H5", REFUTED, witness=(int(k[i]), float(t[j]), float(s[m])),
                                detail="curly_F vanishes at (k,t) but not at (k,st)")
    return HypothesisReport("H5", SATISFIED, constants={"sigma": sigma_hat},
                            detail=f"sampled sigma = {sigma_hat:.6g}")


def full_block_report(nl, plan, condition):
    """The report of H1, H2, H2p, H3, H4, H4p or H5 from the full (k, t) block."""
    if condition in ("H2", "H2p"):
        return _growth_bound(nl, plan, condition)
    return {"H1": _check_H1, "H3": _check_H3, "H4": _check_H4, "H4p": _check_H4p,
            "H5": _check_H5}[condition](nl, plan)


# The record writers as they stood before they skipped the walk over finite
# floats and formatted from lists.  Copied verbatim, the writers renamed.
_F17 = "{:.17g}"
_FLOAT_TAG = "$float"


def _tag_non_finite(x):
    """``x`` with each inf, -inf or NaN float replaced by {"$float": its JSON-style name}."""
    if isinstance(x, float) and not math.isfinite(x):
        return {_FLOAT_TAG: "NaN" if x != x else ("Infinity" if x > 0 else "-Infinity")}
    if isinstance(x, dict):
        return {k: _tag_non_finite(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_tag_non_finite(v) for v in x]
    return x


def literal_save_json(path, payload: dict) -> None:
    text = json.dumps(_tag_non_finite(payload), sort_keys=True, indent=1, allow_nan=False)
    Path(path).write_text(text + "\n", encoding="utf-8")


def literal_save_plot_csv(path, window, values) -> None:
    rows = ["k,u"]
    for k, v in zip(window.indices, values):
        rows.append(f"{int(k)},{_F17.format(float(v))}")
    Path(path).write_text("\n".join(rows) + "\n", encoding="utf-8")
