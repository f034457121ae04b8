"""Numerical geometry of nested subspaces for the critical-value ladder.

The truncated space is split along a fixed ordered basis of normalized
single-site spikes taken in spiral order 0, 1, -1, 2, -2, ...  With a
1-based index n,

    Y_n = span(e_1 .. e_n)        (low block, grows with n)
    Z_n = span(e_n .. e_{2K+1})   (tail block, shrinks with n)

so the two blocks deliberately overlap in e_n.  On Z_n the best constant

    beta_{q,n} = sup { ||u||_q : u in Z_n, ||u|| = 1 }

shrinks as n grows, which makes the radius

    r_n = ((1/(2p) - lam d beta_{p,n}^p) / (lam d beta_{q,n}^q))^(1/(q-p))

well defined for large n and pushes the energy on the Z_n sphere of radius
r_n above r_n^p / (2p).  On Y_n, a comparison constant C_n with
||u||^p / p <= lam C_n ||u||_inf^p and a superlinearity threshold T with
F(k, t) >= 2 C_n |t|^p for |k| <= h_n, |t| > T give a radius
rho_n > max((lam p C_n)^(1/p) T, r_n) at which the energy is nonpositive.

C_n is exact: one sign vertex attains it (see ``sup_norm_constant``).
For p = 2, beta_{2,n} is exact and beta_{q,n} a certified upper bound, both
from the tridiagonal matrix of ||u||^2 (see ``embedding_profile``), so the
energy floor on the Z_n sphere follows from the bounds; the sphere sampling
re-checks it.  For p != 2, beta is a sampled maximum, so only a lower bound
on the true sup, and only the sphere sampling guards the floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .lattice import (CoefficientField, ProblemSpec, Window, _norm_gradient,
                      energy_many, phi_p, weighted_norm_many)

__all__ = [
    "FountainGeometryError",
    "BasisSplit",
    "SphereCheck",
    "FountainRow",
    "spiral_sites",
    "embedding_constant",
    "embedding_maximizer",
    "embedding_profile",
    "z_sphere_radius",
    "sup_norm_constant",
    "superlinearity_threshold",
    "y_sphere_radius",
    "sample_sphere",
    "verify_energy_floor",
    "verify_energy_ceiling",
    "fountain_table",
]

_SLACK = 1e-9
# Threshold amplitudes are useful only while rho^p and F(k, rho-scale)
# stay inside float64; past ~1e140 the energy evaluation itself overflows.
_T_SEARCH_MAX = 1e140
# Two evaluations of F at the same point can differ in their last bits
# (vectorized and scalar kernels round differently); the threshold screen
# drops a grid point only when its margin is negative by far more than that.
_SCREEN_RTOL = 1e-6
# The threshold scan starts at _T_SEARCH_MIN, and tests each T on
# _T_SAMPLES points of [T, 10T].
_T_SEARCH_MIN = 1e-3
_T_SAMPLES = 64


class FountainGeometryError(RuntimeError):
    pass


def spiral_sites(window: Window) -> np.ndarray:
    """Site order 0, 1, -1, 2, -2, ..., K, -K."""
    out = [0]
    for k in range(1, window.half_width + 1):
        out.extend((k, -k))
    return np.array(out, dtype=int)


@dataclass(frozen=True)
class BasisSplit:
    """Spike-basis split of the truncated space at index n (1-based)."""

    coeffs: CoefficientField
    p: float
    n: int

    def __post_init__(self):
        if not (1 <= self.n <= self.window.size):
            raise ValueError(f"n must lie in 1..{self.window.size}, got {self.n}")

    @property
    def window(self) -> Window:
        return self.coeffs.window

    @property
    def sites(self) -> np.ndarray:
        return spiral_sites(self.window)

    @property
    def y_sites(self) -> np.ndarray:
        return self.sites[: self.n]

    @property
    def z_sites(self) -> np.ndarray:
        return self.sites[self.n - 1:]

    @property
    def support_radius(self) -> int:
        """h_n: largest |k| carried by the low block Y_n."""
        return int(np.max(np.abs(self.y_sites)))

    def spike_norms(self, sites: np.ndarray) -> np.ndarray:
        """Weighted norm of the unit spike at each site."""
        pos = sites + self.window.half_width
        a, b = self.coeffs.a, self.coeffs.b
        return (a[pos] + a[pos + 1] + b[pos]) ** (1.0 / self.p)


def _embed(window: Window, sites: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Place per-site coordinates (..., m) into full-window arrays (..., n)."""
    out = np.zeros(coords.shape[:-1] + (window.size,))
    out[..., sites + window.half_width] = coords
    return out


def _ratio_ascent(coeffs: CoefficientField, p: float, q: float, window: Window,
                  sites: np.ndarray, starts: np.ndarray, iters: int):
    """Maximize ||u||_q / ||u|| over vectors supported on ``sites``.

    Projected gradient ascent on the ratio: each step follows the ratio
    gradient on the support, renormalizes radially, and is accepted only if
    the objective improves (per-start adaptive step sizes).  The q-norm
    gradient alone would be useless here: at q = p = 2 it is parallel to u
    and dies under renormalization.
    """
    mask_pos = sites + window.half_width
    U = np.array(starts, dtype=float)
    norms = weighted_norm_many(U, coeffs, p)
    U /= norms[:, None]
    obj = np.sum(np.abs(U) ** q, axis=-1) ** (1.0 / q)
    eta = np.full(U.shape[0], 1.0)
    active = np.ones(U.shape[0], dtype=bool)
    for _ in range(iters):
        if not np.any(active):
            break
        lq = obj[:, None]
        # grad of ||u||_q minus its component along grad of ||u|| (at ||u|| = 1)
        grad_full = (lq ** (1.0 - q)) * phi_p(q, U) - lq * _norm_gradient(U, coeffs, p)
        grad = np.zeros_like(U)
        grad[:, mask_pos] = grad_full[:, mask_pos]
        cand = U + (eta * active)[:, None] * grad
        cn = weighted_norm_many(cand, coeffs, p)
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


def embedding_maximizer(split: BasisSplit, q: float, starts: int = 8,
                        seed: int = 0, iters: int = 600):
    """Best sampled ||u||_q / ||u|| over Z_n and the unit vector achieving it."""
    if q < split.p:
        raise ValueError(f"q must be at least p = {split.p}, got {q}")
    rng = np.random.default_rng(seed)
    sites = split.z_sites
    coords = rng.standard_normal((max(1, starts), sites.size))
    U0 = _embed(split.window, sites, coords)
    return _ratio_ascent(split.coeffs, split.p, q, split.window, sites, U0, iters)


def embedding_constant(split: BasisSplit, q: float, starts: int = 8,
                       seed: int = 0, iters: int = 600) -> float:
    """Best sampled ||u||_q / ||u|| over the tail block Z_n (lower bound)."""
    return embedding_maximizer(split, q, starts=starts, seed=seed, iters=iters)[0]


def _norm_matrix(coeffs: CoefficientField) -> np.ndarray:
    """Dense tridiagonal A with ||u||^2 = u^T A u (the p = 2 norm)."""
    a, b = coeffs.a, coeffs.b
    off = -a[1:-1]
    return np.diag(a[:-1] + a[1:] + b) + np.diag(off, 1) + np.diag(off, -1)


def embedding_profile(coeffs: CoefficientField, p: float, q: float,
                      n_list: Sequence[int], seed: int = 0) -> np.ndarray:
    """Embedding constants beta_{q,n} along n, nonincreasing in n.

    Raises ValueError for q < p, as ``embedding_maximizer`` does.  For p = 2
    the values are closed forms on A_Z, the principal submatrix of the
    tridiagonal matrix A of ||u||^2 on the Z_n sites, and ``seed`` is unused:

    * beta_{2,n} = lambda_min(A_Z)^(-1/2), the exact sup of the Rayleigh
      quotient ||u||_2^2 / u^T A_Z u;
    * |u_k|^2 <= (A_Z^-1)_kk ||u||^2 by Cauchy-Schwarz in the A_Z inner
      product, so beta_inf^2 = max_k (A_Z^-1)_kk bounds ||u||_inf / ||u||;
    * sum |u|^q <= ||u||_inf^(q-2) sum |u|^2, so for q > 2 the value
      beta_{q,n} = (beta_inf^(q-2) beta_{2,n}^2)^(1/q) is an upper bound
      (at q = 2 it is beta_{2,n} itself).

    The Z_n are nested, so the A_Z are nested principal submatrices and both
    values are nonincreasing in n.  ``eigvalsh`` is backward stable: its
    lambda_min is off by about machine epsilon times ||A_Z||, which on the
    reference coefficients (K = 50, b = 1 + k^2, ||A_Z|| < 2600, lambda_min
    > 1.9) moves beta by under 1e-12 relative, far below ``_SLACK``.

    For p != 2 each value is a projected ratio ascent from 8 random starts
    (drawn with ``seed``, 600 steps each), so a sampled lower bound.  It
    runs from the largest n down, seeding each maximization with the best
    vector of the previous (smaller) tail block, which is feasible in the
    larger one; the sampled sup therefore never increases with n.
    """
    if q < p:
        raise ValueError(f"q must be at least p = {p}, got {q}")
    n_sorted = sorted(set(int(n) for n in n_list))
    window = coeffs.window
    out = {}
    if p == 2.0:
        A = _norm_matrix(coeffs)
        for n in n_sorted:
            pos = BasisSplit(coeffs, p, n).z_sites + window.half_width
            A_Z = A[np.ix_(pos, pos)]
            beta_2 = np.linalg.eigvalsh(A_Z)[0] ** -0.5
            beta_inf = np.max(np.diag(np.linalg.inv(A_Z))) ** 0.5
            out[n] = (beta_inf ** (q - 2.0) * beta_2 ** 2) ** (1.0 / q)
    else:
        rng = np.random.default_rng(seed)
        carry = None
        for n in reversed(n_sorted):
            split = BasisSplit(coeffs, p, n)
            sites = split.z_sites
            coords = rng.standard_normal((8, sites.size))
            U0 = _embed(window, sites, coords)
            if carry is not None:
                U0 = np.vstack([U0, carry[None, :]])
            val, best = _ratio_ascent(coeffs, p, q, window, sites, U0, 600)
            out[n] = val
            carry = best
    return np.array([out[int(n)] for n in n_list])


def z_sphere_radius(d: float, q: float, lam: float, p: float,
                    beta_p: float, beta_q: float) -> Optional[float]:
    """Radius of the tail-block sphere where the energy floor kicks in.

    Returns None when the feasibility margin 1/(2p) - lam d beta_p^p is not
    positive (the split index is still too small).
    """
    if not (d > 0.0 and q > p):
        raise ValueError("need d > 0 and q > p")
    margin = 1.0 / (2.0 * p) - lam * d * beta_p ** p
    if margin <= 0.0:
        return None
    return float((margin / (lam * d * beta_q ** q)) ** (1.0 / (q - p)))


def sup_norm_constant(split: BasisSplit, lam: float) -> float:
    """Comparison constant C_n with ||u||^p / p <= lam C_n ||u||_inf^p on Y_n.

    Exact, from one sign vertex.  Y_n is a contiguous run of sites (the
    first n in spiral order) and a, b > 0 (``CoefficientField`` enforces
    both), so on the cube ||u||_inf <= 1 every term of ||u||^p is bounded on
    its own: b(k) |u(k)|^p <= b(k) on the run, a(k) |u(k) - u(k-1)|^p
    <= 2^p a(k) inside it and <= a(k) at its two ends, where one neighbour
    is zero; all other terms vanish.  The alternating vertex u(k) = (-1)^k
    on Y_n attains all of these bounds at once, so it is the maximizer and
    C_n = ||u||^p / (p lam).
    """
    sites = split.y_sites
    v = _embed(split.window, sites, (-1.0) ** sites)
    return float(weighted_norm_many(v, split.coeffs, split.p) ** split.p) / (split.p * lam)


def superlinearity_threshold(prob: ProblemSpec, c_sup: float, h_n: int,
                             t_hi: float = _T_SEARCH_MAX) -> float:
    """Smallest sampled T with F(k, t) >= 2 C_n |t|^p on |k| <= h_n, t in [T, 10T].

    For drives with nonnegative curly_F the ratio F / t^p is nondecreasing,
    so a pass on [T, 10T] extends to all t >= T and the first passing T can
    be bisected; for other drives the scan is a heuristic.

    The scan over the geometric T grid is screened.  Each grid point T is
    also the first of the ``_T_SAMPLES`` points that test T (geomspace returns
    its start exactly), so the margin F(k, T) - 2 C_n T^p is evaluated at the
    grid points themselves, in grid order and in blocks of 1, 2, 4, ...
    points.  A point is dropped when its margin is not finite, or negative
    by more than rounding can explain (``_SCREEN_RTOL`` of |F| + 2 C_n T^p).
    Only the points that survive, and every bisection step, run the full
    [T, 10T] test.  The screen drops no point the test would pass, so the
    result, or the raise, is that of testing every grid point in turn; and a
    drive that passes at grid index i costs at most 2i + 1 screened points
    on top of the tests.  A block may reach past the T the scan stops at.
    When no T passes, the error says why: which of F and 2 C_n |t|^p first
    left float64 range, and at which grid T, or else the margin still
    reached at ``t_hi``.
    """
    k = np.arange(-h_n, h_n + 1)[:, None]

    def margins(ts: np.ndarray):
        """F(k, t), 2 C_n |t|^p and their difference, one column per t."""
        with np.errstate(over="ignore", invalid="ignore"):
            F = prob.nonlinearity.F(k, ts[None, :])
            lead = 2.0 * c_sup * ts ** prob.p
            return F, lead, F - lead

    def passes(T: float) -> bool:
        margin = margins(np.geomspace(T, 10.0 * T, _T_SAMPLES))[2]
        return bool(np.all(np.isfinite(margin)) and np.min(margin) >= 0.0)

    grid = np.geomspace(_T_SEARCH_MIN, t_hi, max(2, int(8 * math.log10(t_hi / _T_SEARCH_MIN))))
    hit = None
    overflow = None  # the first grid point with a non-finite margin
    start, size = 0, 1
    while hit is None and start < grid.size:
        stop = start + size
        size *= 2
        F, lead, margin = margins(grid[start:stop])
        block = grid[start:stop]
        finite = np.all(np.isfinite(margin), axis=0)
        if overflow is None and not np.all(finite):
            j = int(np.argmin(finite))
            what = [name for name, bad in (("F", not np.all(np.isfinite(F[:, j]))),
                                           ("2C|t|^p", not np.isfinite(lead[j]))) if bad]
            overflow = (" and ".join(what) or "F - 2C|t|^p", float(block[j]))
        with np.errstate(over="ignore"):  # |F| + lead may pass float64 max
            keep = finite & np.all(margin >= -_SCREEN_RTOL * (np.abs(F) + lead), axis=0)
        for j in np.flatnonzero(keep):
            if passes(float(block[j])):
                hit = start + int(j)
                break
        start = stop
    if hit is None:
        if overflow is not None:
            why = f"{overflow[0]} became non-finite at t = {overflow[1]:.2e}"
        elif np.min(margin[:, -1]) < 0.0:
            why = (f"the margin F - 2C|t|^p is still {np.min(margin[:, -1]):.3e} "
                   f"at t = {t_hi:.2e}")
        else:
            why = "every grid point with a nonnegative margin fails on [T, 10T]"
        raise FountainGeometryError(
            f"no threshold T with F >= 2 C |t|^p on |k| <= {h_n} below "
            f"t = {t_hi:.2e}: {why}")
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


def y_sphere_radius(lam: float, p: float, c_sup: float, threshold: float,
                    radius_z: float) -> float:
    """rho_n: strictly above both (lam p C_n)^(1/p) T and r_n."""
    return 1.01 * max((lam * p * c_sup) ** (1.0 / p) * threshold, radius_z)


def sample_sphere(split: BasisSplit, block: str, radius: float, count: int,
                  seed: int) -> np.ndarray:
    """Uniform-direction samples on a block sphere of the weighted norm.

    Directions are independent standard normals in the spike-basis
    coordinates of the block, then scaled radially to the requested norm.
    """
    if block not in ("Y", "Z"):
        raise ValueError("block must be 'Y' or 'Z'")
    sites = split.y_sites if block == "Y" else split.z_sites
    rng = np.random.default_rng(seed)
    coords = rng.standard_normal((count, sites.size))
    degenerate = np.all(coords == 0.0, axis=-1)
    coords[degenerate, 0] = 1.0
    coords /= split.spike_norms(sites)[None, :]
    V = _embed(split.window, sites, coords)
    V *= (radius / weighted_norm_many(V, split.coeffs, split.p))[:, None]
    return V


@dataclass(frozen=True)
class SphereCheck:
    samples: int
    extreme_energy: float
    bound: float
    margin: float
    violations: int
    witness: Optional[np.ndarray] = None
    strong_count: Optional[int] = None


def verify_energy_floor(split: BasisSplit, prob: ProblemSpec, radius: float,
                        floor: float, samples: int, seed: int) -> SphereCheck:
    """Sampled check of energy >= floor on the Z_n sphere of the given radius."""
    V = sample_sphere(split, "Z", radius, samples, seed)
    E = energy_many(V, prob)
    i = int(np.argmin(E))
    violations = int(np.sum(E < floor - _SLACK))
    return SphereCheck(samples, float(E[i]), floor, float(E[i] - floor), violations,
                       witness=V[i].copy() if violations else None)


def verify_energy_ceiling(split: BasisSplit, prob: ProblemSpec, radius: float,
                          samples: int, seed: int) -> SphereCheck:
    """Sampled check of energy <= 0 on the Y_n sphere of the given radius.

    Also counts how many samples satisfy the stronger bound
    energy <= -radius^p / p.
    """
    V = sample_sphere(split, "Y", radius, samples, seed)
    E = energy_many(V, prob)
    i = int(np.argmax(E))
    violations = int(np.sum(E > _SLACK))
    strong = int(np.sum(E <= -(radius ** prob.p) / prob.p + _SLACK))
    return SphereCheck(samples, float(E[i]), 0.0, float(E[i]), violations,
                       witness=V[i].copy() if violations else None,
                       strong_count=strong)


@dataclass(frozen=True)
class FountainRow:
    n: int
    beta_p: float
    beta_q: float
    feasible: bool
    radius_z: Optional[float]
    energy_floor: Optional[float]
    z_min_energy: Optional[float]
    z_violations: Optional[int]
    c_sup: float
    support_radius: int
    threshold: Optional[float]
    radius_y: Optional[float]
    y_max_energy: Optional[float]
    y_violations: Optional[int]
    y_strong_count: Optional[int]
    note: str = ""


def fountain_table(prob: ProblemSpec, q: float, d: float, n_list: Sequence[int],
                   seed: int = 0, samples: int = 1000) -> list:
    """Per-n geometry rows: beta values, radii, and sampled verifications.

    For p != 2 the betas are sampled lower bounds, and each row's note says
    so first.
    """
    n_list = [int(n) for n in n_list]
    coeffs, p, lam = prob.coeffs, prob.p, prob.lam
    note_prefix = "" if p == 2.0 else "beta is a sampled lower bound; "
    betas_p = embedding_profile(coeffs, p, p, n_list, seed=seed)
    betas_q = embedding_profile(coeffs, p, q, n_list, seed=seed + 1)
    rows = []
    for i, n in enumerate(n_list):
        split = BasisSplit(coeffs, p, n)
        bp, bq = float(betas_p[i]), float(betas_q[i])
        r_z = z_sphere_radius(d, q, lam, p, bp, bq)
        floor = z_min = None
        z_viol = None
        if r_z is not None:
            floor = r_z ** p / (2.0 * p)
            zc = verify_energy_floor(split, prob, r_z, floor, samples, seed + 100 + n)
            z_min, z_viol = zc.extreme_energy, zc.violations
        c_sup = sup_norm_constant(split, lam)
        note = ""
        threshold = r_y = y_max = None
        y_viol = y_strong = None
        try:
            threshold = superlinearity_threshold(prob, c_sup, split.support_radius)
            r_y = y_sphere_radius(lam, p, c_sup, threshold, r_z if r_z is not None else 0.0)
            yc = verify_energy_ceiling(split, prob, r_y, samples, seed + 300 + n)
            y_max, y_viol, y_strong = yc.extreme_energy, yc.violations, yc.strong_count
        except FountainGeometryError as exc:
            note = str(exc)
        except (OverflowError, FloatingPointError) as exc:  # pragma: no cover
            note = f"amplitude beyond float range: {exc}"
        rows.append(FountainRow(
            n=n, beta_p=bp, beta_q=bq, feasible=r_z is not None, radius_z=r_z,
            energy_floor=floor, z_min_energy=z_min, z_violations=z_viol,
            c_sup=c_sup, support_radius=split.support_radius, threshold=threshold,
            radius_y=r_y, y_max_energy=y_max, y_violations=y_viol,
            y_strong_count=y_strong, note=note_prefix + note))
    return rows
