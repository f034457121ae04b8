"""Independent oracles for the test suite.

Everything here is deliberately written against the raw formulas (literal
loops, fixed-grid quadrature, dense linear algebra, batched flow + Newton)
rather than through the library's own code paths, so a test that compares
the two is a genuine cross-check.
"""

import itertools
import math

import numpy as np

from dplhom.fountain import FountainGeometryError
from dplhom.lattice import energy_many, phi_p, residual_many


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
