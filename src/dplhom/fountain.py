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

C_n is exact: one sign vertex attains it (see ``sup_norm_constant``).  The
betas are certified upper bounds (see ``embedding_profile``), so the energy
floor on the Z_n sphere follows from them; the sphere sampling re-checks it.
Under (H5), F(k, t) / |t|^p is nondecreasing in |t|, so the margin at T alone
decides each test of a threshold T (see ``superlinearity_threshold``).

Both sphere checks draw their normals at once, then build and evaluate
the samples _SPHERE_BLOCK rows at a time, with F on the block's sites
only; the threshold scan evaluates F at one k when the drive has a
``weight``.  Every row is the same, bit for bit, as with one full-width
sample and the full k block (see ``_sphere_energies`` and
``superlinearity_threshold`` for why).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .lattice import (CoefficientField, ProblemSpec, Window, _norm_gradient,
                      energy_many, energy_parts_many, phi_p, phi_p_prime,
                      weighted_norm_many)

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
# The threshold scan starts at _T_SEARCH_MIN, with 8 grid points per decade.
_T_SEARCH_MIN = 1e-3
# Sphere samples are built and checked this many rows at a time, so that a
# block of full-width rows (200 KB at 101 sites) and its temporaries stay in
# a core's cache through a pass; 128 and 512 rows were slower.
_SPHERE_BLOCK = 256


class FountainGeometryError(RuntimeError):
    pass


def spiral_sites(window: Window) -> np.ndarray:
    """Site order 0, 1, -1, 2, -2, ..., K, -K."""
    out = np.zeros(window.size, dtype=int)
    out[1::2] = np.arange(1, window.half_width + 1)
    out[2::2] = -out[1::2]
    return out


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
        return self.coeffs.stiffness[sites + self.window.half_width] ** (1.0 / self.p)


def _embed(window: Window, sites: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Place per-site coordinates (..., m) into full-window arrays (..., n)."""
    out = np.zeros(coords.shape[:-1] + (window.size,))
    out[..., sites + window.half_width] = coords
    return out


# Per run: at most _EIGEN_STEPS Newton steps, each halved up to _HALVINGS times
# and moving a log(v_{k+1} / v_k) by at most _LOG_STEP; phi_p' reads relative
# differences under _PLATEAU (a flat top) as _PLATEAU.  _BRACKET_RTOL is the gap
# that stops the steps, and the slack by which one may raise the upper end.
_EIGEN_STEPS, _HALVINGS, _LOG_STEP, _PLATEAU, _BRACKET_RTOL = 50, 30, 1.0, 1e-8, 1e-12


def _run_bracket(a: np.ndarray, b: np.ndarray, p: float):
    """(lam_lo, lam_hi, v): lam_lo <= lambda_1 <= lam_hi on one run, and v > 0.

    lambda_1 = min ||u||^p / sum |u|^p over u on the run (site weights b,
    difference weights a).  For v > 0 the discrete Picone identity (Allegretto
    & Huang, Nonlinear Anal. 32, 1998) gives lambda_1 >= min rho, rho = L_p v /
    phi_p(v), L_p the gradient of ||.||^p / p; the Rayleigh quotient, the
    v^p-weighted mean of rho, is >= lambda_1.  From v = 1, damped Newton steps
    solve rho = const in s = log v; the Jacobian has zero row sums and left
    null vector v^p, so the system is consistent with the Rayleigh quotient on
    the right, and regular with s held at the largest v.  An iterate whose
    phi_p(v) underflows is refused, so it certifies nothing.
    """
    from scipy.linalg.lapack import dgtsv  # scipy loads at the first bracket, not at import

    def quotients(v):  # (rho, Rayleigh quotient), or None where phi_p(v) underflows
        phi = phi_p(p, v)
        if np.all(phi >= np.finfo(float).tiny):
            lv = _norm_gradient(v, a, b, p)
            return lv / phi, float(v @ lv) / float(phi @ v)

    v = np.ones(b.size)
    rho, lam_hi = quotients(v)
    lam_lo = float(np.min(rho))
    for _ in range(_EIGEN_STEPS):
        if lam_lo >= lam_hi * (1.0 - _BRACKET_RTOL):
            break
        r = v[1:] / v[:-1]
        up = -a[1:-1] * r * phi_p_prime(p, np.maximum(np.abs(r - 1.0), _PLATEAU), cap=None)
        down = -a[1:-1] / r * phi_p_prime(p, np.maximum(np.abs(1.0 / r - 1.0), _PLATEAU), cap=None)
        main = -np.r_[up, 0.0] - np.r_[0.0, down]
        rhs = lam_hi - rho
        c = int(np.argmax(v))  # row c follows from the others, and s_c stays
        main[c], rhs[c], up[c:c + 1], down[c - 1:c] = 1.0, 0.0, 0.0, 0.0
        ds, info = dgtsv(down, main, up, rhs)[3:]
        if info != 0 or not np.all(np.isfinite(ds)):
            break
        ds = np.cumsum(np.r_[0.0, np.clip(np.diff(ds), -_LOG_STEP, _LOG_STEP)])
        for _ in range(_HALVINGS):
            trial = v * np.exp(ds - ds.max())
            got = quotients(trial / trial.max())
            if got is not None and got[1] <= lam_hi * (1.0 + _BRACKET_RTOL):
                break
            ds *= 0.5
        else:
            break
        v, (rho, lam_hi) = trial / trial.max(), got
        lam_lo = max(lam_lo, float(np.min(rho)))
    # exactly, the Picone bound is <= the Rayleigh quotient; where the two
    # meet, rounding can put it an ulp above, so the lower end is the smaller
    return min(lam_lo, lam_hi), lam_hi, v


def _z_brackets(split: BasisSplit, memo: dict) -> list:
    """(positions, lam_lo, lam_hi, v) per connected run of Z_n; ``memo`` keeps solved runs."""
    pos = np.sort(split.z_sites + split.window.half_width)
    runs = np.split(pos, np.flatnonzero(np.diff(pos) > 1) + 1)
    for i, j in ((int(run[0]), int(run[-1])) for run in runs):
        if (i, j) not in memo:
            memo[i, j] = _run_bracket(split.coeffs.a[i:j + 2], split.coeffs.b[i:j + 1], split.p)
    return [(run, *memo[int(run[0]), int(run[-1])]) for run in runs]


def embedding_constant(split: BasisSplit, q: float) -> float:
    """Certified upper bound on beta_{q,n}: ``embedding_profile`` at n alone."""
    return float(embedding_profile(split.coeffs, split.p, q, [split.n])[0])


def embedding_maximizer(split: BasisSplit, q: float):
    """``embedding_constant`` and the unit vector u on Z_n whose ||u||_p is the
    lower end of the bracket on beta_{p,n}: the least-Rayleigh run's eigenvector."""
    run, _, _, v = min(_z_brackets(split, {}), key=lambda br: br[2])
    u = _embed(split.window, run - split.window.half_width, v)
    return embedding_constant(split, q), u / weighted_norm_many(u, split.coeffs, split.p)


def embedding_profile(coeffs: CoefficientField, p: float, q: float | Sequence[float],
                      n_list: Sequence[int]) -> np.ndarray:
    """Upper bounds on the embedding constants beta_{q,n}, nonincreasing in n
    (at p = 2 up to rounding).

    ``q`` is one exponent, or a sequence of them, which gives one row per
    exponent with each Z_n block's eigenvalue and inverse computed once.
    Raises ValueError for q < p.  For p = 2 the values are closed forms on
    A_Z, the Z_n block of the tridiagonal A with ||u||^2 = u^T A u:

    * beta_{2,n} = lambda_min(A_Z)^(-1/2), the exact sup of the Rayleigh
      quotient ||u||_2^2 / u^T A_Z u;
    * |u_k|^2 <= (A_Z^-1)_kk ||u||^2 by Cauchy-Schwarz in the A_Z inner
      product, so beta_inf^2 = max_k (A_Z^-1)_kk bounds ||u||_inf / ||u||;
    * sum |u|^q <= ||u||_inf^(q-2) sum |u|^2, so beta_{q,n} <=
      (beta_inf^(q-2) beta_{2,n}^2)^(1/q), which is beta_{2,n} at q = 2.

    The A_Z are nested, so both values are nonincreasing in n in exact
    arithmetic; ``eigvalsh`` and ``inv`` round each block on its own, so two
    consecutive values can rise by a few ulps (1.1e-16 on a random K = 3
    field).  ``eigvalsh`` is backward stable: on the reference coefficients
    (K = 50, b = 1 + k^2, ||A_Z|| < 2600, lambda_min > 1.9) beta moves by
    under 1e-12 relative.

    For p != 2, ||u||^p splits into one sum per connected run of Z_n (at
    most two), so beta_{p,n}^-p is the least first eigenvalue of the runs.
    Each run is bracketed once (``_run_bracket``); the value is the largest
    lam_lo^(-1/p), with a running minimum over the sorted n (Z_n shrinks as n
    grows), and bounds beta_{q,n} for q > p too, as ||u||_q <= ||u||_p.  On
    the reference coefficients at p = 1.5 and 3 the bracket's ends agree to
    about 1e-12.  Bounds are certified in floating point, without directed rounding.
    """
    qs = np.ravel(q).tolist()
    for qi in qs:
        if qi < p:
            raise ValueError(f"q must be at least p = {p}, got {qi}")
    n_sorted = sorted(set(int(n) for n in n_list))
    window = coeffs.window
    out = {}
    if p == 2.0:
        off = -coeffs.a[1:-1]
        A = np.diag(coeffs.stiffness) + np.diag(off, 1) + np.diag(off, -1)
        for n in n_sorted:
            pos = BasisSplit(coeffs, p, n).z_sites + window.half_width
            A_Z = A[np.ix_(pos, pos)]
            beta_2 = np.linalg.eigvalsh(A_Z)[0] ** -0.5
            beta_inf = np.max(np.diag(np.linalg.inv(A_Z))) ** 0.5
            out[n] = [(beta_inf ** (qi - 2.0) * beta_2 ** 2) ** (1.0 / qi) for qi in qs]
    else:
        memo, beta = {}, math.inf
        for n in n_sorted:
            lam_lo = min(br[1] for br in _z_brackets(BasisSplit(coeffs, p, n), memo))
            beta = min(beta, lam_lo ** (-1.0 / p) if lam_lo > 0.0 else math.inf)
            out[n] = [beta] * len(qs)
    prof = np.array([[out[int(n)][j] for n in n_list] for j in range(len(qs))])
    return prof if np.ndim(q) else prof[0]


def z_sphere_radius(d: float, q: float, lam: float, p: float,
                    beta_p: float, beta_q: float) -> Optional[float]:
    """Radius of the tail-block sphere where the energy floor kicks in.

    Returns None when the feasibility margin 1/(2p) - lam d beta_p^p is not
    positive (the split index is still too small), and inf when the radius
    is beyond float64 range (a tiny lam d beta_q^q).
    """
    if not (d > 0.0 and q > p):
        raise ValueError("need d > 0 and q > p")
    margin = 1.0 / (2.0 * p) - lam * d * beta_p ** p
    if margin <= 0.0:
        return None
    scale = lam * d * beta_q ** q
    return _power(margin / scale, 1.0 / (q - p)) if scale > 0.0 else math.inf


def _power(x: float, e: float) -> float:
    """x ** e for x >= 0 in Python floats, inf where that overflows."""
    try:
        return float(x) ** e
    except OverflowError:
        return math.inf


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


def superlinearity_threshold(prob: ProblemSpec, c_sup: float, h_n: int) -> float:
    """Smallest T with F(k, T) >= 2 C_n T^p on |k| <= h_n, to bisection precision.

    A T passes when the margin F(k, T) - 2 C_n T^p is finite and >= 0 at T
    alone.  The paper's (H5) at s = 0 gives curly_F = f t - p F >= 0, so
    F(k, t) / |t|^p is nondecreasing in |t|, and a pass at T holds for every
    t >= T: T is exact for every drive that meets (H5).  For a drive that
    fails (H5), T is only where the margin first holds; the Y_n sphere check
    still samples J <= 0 at rho_n.

    The scan visits a geometric grid of T from _T_SEARCH_MIN to _T_SEARCH_MAX
    in blocks of 1, 2, 4, ... points and stops at the first block with a
    passing point, so a drive that passes early is never evaluated near the
    top of the range.  60 geometric bisection steps, one point each, refine
    the first passing grid point against the one before it.  When no T
    passes, the error says why: which of F and 2 C_n |t|^p first left
    float64 range, and at which grid T, or else the margin still reached at
    _T_SEARCH_MAX.

    Where the drive has a ``weight`` (F = w(k) G(t), G >= 0, 0 <= w <= 1),
    F is evaluated at the one k of least w on |k| <= h_n.  Rounding is
    monotone, so there F is least at every t, and finite wherever any F is:
    every pass and overflow decision, and the margin in the error, is the
    one the full k block gives.  Other drives use the full block.
    """
    k = np.arange(-h_n, h_n + 1)
    w = prob.nonlinearity.weight(k)
    if w is not None:  # F = w(k) G(t): the least w(k) decides every test
        k = k[[int(np.argmin(w))]]
    k = k[:, None]
    k.flags.writeable = False  # so a LogPower drive keeps w(k) across the probes

    def margins(ts: np.ndarray):
        """F(k, t), 2 C_n |t|^p, and per t whether the margin is finite and >= 0."""
        with np.errstate(over="ignore", invalid="ignore"):
            F = prob.nonlinearity.F(k, ts[None, :])
            lead = 2.0 * c_sup * ts ** prob.p
            margin = F - lead
        return F, lead, margin, np.all(np.isfinite(margin) & (margin >= 0.0), axis=0)

    grid = np.geomspace(_T_SEARCH_MIN, _T_SEARCH_MAX,
                        int(8 * math.log10(_T_SEARCH_MAX / _T_SEARCH_MIN)))
    overflow = None  # the first grid point with a non-finite margin
    start, size, hit = 0, 1, None
    while hit is None and start < grid.size:
        block = grid[start:start + size]
        F, lead, margin, ok = margins(block)
        finite = np.all(np.isfinite(margin), axis=0)
        if overflow is None and not np.all(finite):
            j = int(np.argmin(finite))
            what = [name for name, bad in (("F", not np.all(np.isfinite(F[:, j]))),
                                           ("2C|t|^p", not np.isfinite(lead[j]))) if bad]
            overflow = (" and ".join(what) or "F - 2C|t|^p", float(block[j]))
        if ok.any():
            hit = start + int(np.argmax(ok))
        start, size = start + size, 2 * size
    if hit is None:
        why = (f"{overflow[0]} became non-finite at t = {overflow[1]:.2e}" if overflow else
               f"the margin F - 2C|t|^p is still {np.min(margin[:, -1]):.3e} "
               f"at t = {_T_SEARCH_MAX:.2e}")
        raise FountainGeometryError(
            f"no threshold T with F >= 2 C |t|^p on |k| <= {h_n} below "
            f"t = {_T_SEARCH_MAX:.2e}: {why}")
    if hit == 0:
        return float(grid[0])
    lo, hi = float(grid[hit - 1]), float(grid[hit])
    for _ in range(60):
        mid = math.sqrt(lo * hi)
        if margins(np.array([mid]))[3][0]:
            hi = mid
        else:
            lo = mid
    return hi


def y_sphere_radius(lam: float, p: float, c_sup: float, threshold: float,
                    radius_z: float) -> float:
    """rho_n: strictly above both (lam p C_n)^(1/p) T and r_n."""
    return 1.01 * max((lam * p * c_sup) ** (1.0 / p) * threshold, radius_z)


def _block_sites(split: BasisSplit, block: str) -> np.ndarray:
    if block not in ("Y", "Z"):
        raise ValueError("block must be 'Y' or 'Z'")
    return split.y_sites if block == "Y" else split.z_sites


def _sphere_blocks(split: BasisSplit, sites: np.ndarray, radius: float, count: int, seed: int):
    """``sample_sphere``'s rows on ``sites``, _SPHERE_BLOCK at a time (one empty
    block for count 0).

    All the normals are drawn first, so the stream is that of one draw; every
    later step acts on each row alone, so a row keeps its bits in any block.
    """
    coords = np.random.default_rng(seed).standard_normal((count, sites.size))
    spike_norms = split.spike_norms(sites)
    for start in range(0, max(count, 1), _SPHERE_BLOCK):
        c = coords[start:start + _SPHERE_BLOCK]
        c[np.all(c == 0.0, axis=-1), 0] = 1.0
        c /= spike_norms
        V = _embed(split.window, sites, c)
        V *= (radius / weighted_norm_many(V, split.coeffs, split.p))[:, None]
        yield V


def sample_sphere(split: BasisSplit, block: str, radius: float, count: int,
                  seed: int) -> np.ndarray:
    """Uniform-direction samples on a block sphere of the weighted norm.

    Directions are independent standard normals in the spike-basis
    coordinates of the block, then scaled radially to the requested norm.
    The rows are built in blocks of _SPHERE_BLOCK, as the sphere checks use
    them; each row is the same, bit for bit, as in a one-shot build.
    """
    sites = _block_sites(split, block)
    return np.concatenate(list(_sphere_blocks(split, sites, radius, count, seed)))


@dataclass(frozen=True)
class SphereCheck:
    samples: int
    extreme_energy: float
    bound: float
    margin: float
    violations: int
    witness: Optional[np.ndarray] = None
    strong_count: Optional[int] = None


def _sphere_energies(split: BasisSplit, prob: ProblemSpec, block: str, radius: float,
                     count: int, seed: int, pick):
    """(E, i, row): J at ``sample_sphere``'s rows, i = pick(E) and row i.

    Each block of rows is evaluated as it is built, with F on the block's
    sites alone (``energy_many``'s ``support``), so E has the bits of J on
    the one-shot sample.  Each block keeps its own pick(E) row; the first
    extreme of E is its block's first, so row i is that block's row.
    Raises FountainGeometryError, naming what overflowed, where some J is
    not finite, since a non-finite J checks nothing.
    """
    sites = _block_sites(split, block)
    support = np.sort(sites + split.window.half_width)
    energies, rows = [], []
    bad_count, norm_bad, source_bad = 0, False, False
    for V in _sphere_blocks(split, sites, radius, count, seed):
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite energies are refused below
            E = energy_many(V, prob, support=support)
            bad = ~np.isfinite(E)
            if bad.any():
                _, norm_p, source = energy_parts_many(V[bad], prob, support=support)
                bad_count += int(bad.sum())
                norm_bad |= not np.all(np.isfinite(norm_p))
                source_bad |= not np.all(np.isfinite(source))
        energies.append(E)
        if E.size:
            rows.append(V[pick(E)].copy())
    if bad_count:
        what = " and ".join(name for name, flag in (("||u||^p", norm_bad),
                                                     ("the sum of F", source_bad)) if flag) or "J"
        raise FountainGeometryError(
            f"radius_{block.lower()} = {radius:.3e}: {what} is beyond float64 range at "
            f"{bad_count} of {count} samples, so the {block}_n sphere is not checked")
    E = np.concatenate(energies)
    i = int(pick(E))
    return E, i, rows[i // _SPHERE_BLOCK]


def verify_energy_floor(split: BasisSplit, prob: ProblemSpec, radius: float,
                        floor: float, samples: int, seed: int) -> SphereCheck:
    """Sampled check of energy >= floor on the Z_n sphere of the given radius.

    The samples are those of ``sample_sphere``, built and evaluated a block
    at a time (``_sphere_energies``); the result is that of the one-shot
    sample.  Raises FountainGeometryError where a sampled energy is not finite.
    """
    E, i, row = _sphere_energies(split, prob, "Z", radius, samples, seed, np.argmin)
    violations = int(np.sum(E < floor - _SLACK))
    return SphereCheck(samples, float(E[i]), floor, float(E[i] - floor), violations,
                       witness=row if violations else None)


def verify_energy_ceiling(split: BasisSplit, prob: ProblemSpec, radius: float,
                          samples: int, seed: int) -> SphereCheck:
    """Sampled check of energy <= 0 on the Y_n sphere of the given radius.

    Also counts how many samples satisfy the stronger bound
    energy <= -radius^p / p.  Samples and evaluation as in
    ``verify_energy_floor``.  Raises FountainGeometryError where a sampled
    energy is not finite.
    """
    E, i, row = _sphere_energies(split, prob, "Y", radius, samples, seed, np.argmax)
    violations = int(np.sum(E > _SLACK))
    strong = int(np.sum(E <= -(radius ** prob.p) / prob.p + _SLACK))
    return SphereCheck(samples, float(E[i]), 0.0, float(E[i]), violations,
                       witness=row if violations else None,
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

    The betas are the certified upper bounds of ``embedding_profile``.
    """
    n_list = [int(n) for n in n_list]
    coeffs, p, lam = prob.coeffs, prob.p, prob.lam
    betas_p, betas_q = embedding_profile(coeffs, p, (p, q), n_list)  # each block once
    rows = []
    for i, n in enumerate(n_list):
        split = BasisSplit(coeffs, p, n)
        bp, bq = float(betas_p[i]), float(betas_q[i])
        r_z = z_sphere_radius(d, q, lam, p, bp, bq)
        c_sup = sup_norm_constant(split, lam)
        floor = None if r_z is None else _power(r_z, p) / (2.0 * p)
        z_min = z_viol = threshold = r_y = y_max = y_viol = y_strong = None
        notes = []
        if floor == math.inf:  # rho_n > r_n puts the Y_n sphere out of range too
            floor = None
            notes.append(f"radius_z = {r_z:.3e}: r_z^p is beyond float64 range, "
                         f"so neither sphere is checked")
        else:
            if floor is not None:
                try:
                    zc = verify_energy_floor(split, prob, r_z, floor, samples, seed + 100 + n)
                    z_min, z_viol = zc.extreme_energy, zc.violations
                except FountainGeometryError as exc:
                    notes.append(str(exc))
            try:
                threshold = superlinearity_threshold(prob, c_sup, split.support_radius)
                r_y = y_sphere_radius(lam, p, c_sup, threshold,
                                      r_z if r_z is not None else 0.0)
                yc = verify_energy_ceiling(split, prob, r_y, samples, seed + 300 + n)
                y_max, y_viol, y_strong = yc.extreme_energy, yc.violations, yc.strong_count
            except FountainGeometryError as exc:
                notes.append(str(exc))
            except (OverflowError, FloatingPointError) as exc:  # pragma: no cover
                notes.append(f"amplitude beyond float range: {exc}")
        rows.append(FountainRow(
            n=n, beta_p=bp, beta_q=bq, feasible=r_z is not None, radius_z=r_z,
            energy_floor=floor, z_min_energy=z_min, z_violations=z_viol,
            c_sup=c_sup, support_radius=split.support_radius, threshold=threshold,
            radius_y=r_y, y_max_energy=y_max, y_violations=y_viol,
            y_strong_count=y_strong, note="; ".join(notes)))
    return rows
