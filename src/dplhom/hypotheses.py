"""Sampled verification of the structural conditions on b(k) and f(k, t).

Nine conditions are checked:

    B    b(k) >= b0 > 0 and b(k) grows without bound
    H1   f odd in t
    H2   |F(k,t)| <= d (|t|^p + |t|^q) for some d > 0, q > p
    H3   f(k,t) / |t|^(p-1) -> 0 as t -> 0, uniformly in k
    H4   f(k,t) t / |t|^p -> +infinity as |t| -> infinity, for each k
    H5   sigma * curly_F(k,t) >= curly_F(k,st) for some sigma >= 1, s in [0,1]
    H2p  |F(k,t)| <= d |t|^q          (stronger than H2)
    H3p  sup_{|t|<=T} |F(.,t)| summable over k
    H4p  the H4 limit uniform in k    (stronger than H4)

Verdicts are three-valued.  ``refuted`` is definitive up to re-evaluating
the reported witness; ``satisfied_on_samples`` is evidence from finitely
many samples, never a proof of the quantified statement; trend-based
checks that cannot tell either way return ``inconclusive``.

A drive with a ``weight`` (``Nonlinearity.weight``: F = w(k) G(t) with
0 <= w <= 1, and f is w(k) times k-free factors, each product rounded, with
a sign free of k) is checked on the samples that decide each check, and
every report is the one the full k block gives:

    H2, H2p, H3  the k of greatest w.  Rounding is monotone, so |F| and |f|
                 are largest there at each t, and every sup over k is that
                 row's (a proof).  Rows of equal w have equal bits, so the
                 first such k is the block's first witness; a smaller w
                 gives a smaller |f| wherever the weights differ by more
                 than rounding.
    H1           the same row.  Both shipped drives are odd bit for bit
                 (phi_p(-t) = -phi_p(t) and the rest is even in t), so
                 f(k, t) + f(k, -t) = 0 at every k (a proof for them;
                 evidence for another weighted drive).
    H4           every k, at the t of the two |t| levels it compares.  Each
                 level's worst ratio is a minimum over its own t, and f is
                 evaluated elementwise, so this is exact for every drive;
                 every drive takes it, and H4p takes its verdict as a base.
    H5           the k of greatest w, and no k subsample, where curly_F is
                 finite on that row (where it is not, rows of smaller w may
                 be, so the full block runs).  curly_F = f t - p F is a
                 difference of two roundings, so its ratios are k-free only
                 up to rounding: evidence, not a proof.  The tests compare
                 the reports with the full block's on drawn plans.

H3p and H4p need every k and t; H4p evaluates f once there, for both of its
crossing probes.  A drive without a weight (``CustomNonlinearity``) gets
every k in every check, with H5's k subsampled to 81 rows.

``inconsistency_demo`` quantifies why uniform superlinearity (H4p) and
summability (H3p) cannot coexist: once |f(k,t)| >= 1 for |t| >= T1 and
all k, the per-k sup of |F| over |t| <= T is at least (T - T1) - |F(k,T1)|,
so the partial sums over |k| <= K grow linearly in K.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .lattice import CoefficientField
from .nonlinearity import Nonlinearity

__all__ = [
    "CONDITIONS",
    "SamplingPlan",
    "HypothesisReport",
    "PositivityReport",
    "InconsistencyDemo",
    "PreconditionViolation",
    "check_hypothesis",
    "check_all",
    "positivity_check",
    "inconsistency_demo",
]

CONDITIONS = ("B", "H1", "H2", "H3", "H4", "H5", "H2p", "H3p", "H4p")

SATISFIED = "satisfied_on_samples"
REFUTED = "refuted"
INCONCLUSIVE = "inconclusive"

_ZERO_TOL = 1e-12
_WITNESS_TOL = 1e-9
# inconsistency_demo: sup |F(k, .)| is sampled at _DEMO_T_POINTS points of
# [0, T], and |f| >= 1 is checked at _DEMO_PRECHECK_POINTS points of [T1, T].
_DEMO_T_POINTS = 512
_DEMO_PRECHECK_POINTS = 128


class PreconditionViolation(ValueError):
    """An operation's sampled precondition failed; carries the witness."""

    def __init__(self, message: str, witness):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
class SamplingPlan:
    """Grids for the sampled checks: k range, signed log t-grid, s-grid."""

    k_values: np.ndarray
    t_values: np.ndarray
    s_values: np.ndarray
    summability_T: float = 10.0

    def __post_init__(self):
        k = np.unique(np.asarray(self.k_values, dtype=int))
        t = np.unique(np.asarray(self.t_values, dtype=float))
        s = np.unique(np.asarray(self.s_values, dtype=float))
        if k.size == 0 or t.size == 0 or s.size == 0:
            raise ValueError("sampling plan must have nonempty k, t, and s grids")
        if np.any((s < 0.0) | (s > 1.0)):
            raise ValueError("s grid must lie in [0, 1]")
        for name, arr in (("k_values", k), ("t_values", t), ("s_values", s)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @classmethod
    def default(cls, k_max: int = 100, t_min: float = 1e-8, t_max: float = 1e3,
                per_decade: int = 40, s_points: int = 21,
                summability_T: float = 10.0) -> "SamplingPlan":
        decades = np.log10(t_max / t_min)
        pos = np.logspace(np.log10(t_min), np.log10(t_max),
                          max(2, int(round(decades * per_decade))))
        t = np.concatenate([-pos[::-1], [0.0], pos])
        return cls(np.arange(-k_max, k_max + 1), t, np.linspace(0.0, 1.0, s_points),
                   summability_T=summability_T)

    def small_t(self, cutoff: float = 1e-1) -> np.ndarray:
        """Nonzero |t| <= cutoff, sorted by decreasing magnitude."""
        t = self.t_values
        sel = t[(t != 0.0) & (np.abs(t) <= cutoff)]
        return sel[np.argsort(-np.abs(sel), kind="stable")]

    def large_t(self, cutoff: float = 1.0) -> np.ndarray:
        """|t| >= cutoff, sorted by increasing magnitude."""
        t = self.t_values
        sel = t[np.abs(t) >= cutoff]
        return sel[np.argsort(np.abs(sel), kind="stable")]


@dataclass(frozen=True)
class HypothesisReport:
    condition: str
    verdict: str
    witness: Optional[tuple] = None
    constants: dict = field(default_factory=dict)
    detail: str = ""

    def __post_init__(self):
        if self.condition not in CONDITIONS:
            raise ValueError(f"unknown condition {self.condition!r}")
        if self.verdict == REFUTED and self.witness is None:
            raise ValueError("a refutation must carry a witness point")

    @property
    def refuted(self) -> bool:
        return self.verdict == REFUTED


def _check_B(coeffs: CoefficientField) -> HypothesisReport:
    b = coeffs.b
    k = coeffs.window.indices
    bad = b < coeffs.b0
    if np.any(bad):
        i = int(np.argmax(bad))
        return HypothesisReport("B", REFUTED, witness=(int(k[i]), float(b[i])),
                                detail=f"b({k[i]}) = {b[i]} below the floor {coeffs.b0}")
    # Growth toward the window edges is evidence for b(k) -> infinity; a
    # flat profile cannot be refuted from samples, only left undecided.
    n = b.size
    edge = min(b[: max(1, n // 10)].min(), b[-max(1, n // 10):].min())
    inner = float(np.median(b[n // 4: max(n // 4 + 1, 3 * n // 4)]))
    if edge >= 2.0 * inner:
        return HypothesisReport("B", SATISFIED, constants={"b0": coeffs.b0},
                                detail="floor holds and b grows toward the window edges")
    return HypothesisReport("B", INCONCLUSIVE, constants={"b0": coeffs.b0},
                            detail="floor holds but growth of b at the edges is not visible")


def _k_rows(nl, plan) -> np.ndarray:
    """The k a check evaluates: the one of greatest w(k) where the drive has a weight.

    Drives without a weight get every k of the plan.
    """
    w = nl.weight(plan.k_values)
    return plan.k_values if w is None else plan.k_values[[int(np.argmax(w))]]


def _check_H1(nl, plan) -> HypothesisReport:
    t = plan.t_values[plan.t_values > 0.0]
    if t.size == 0:
        return HypothesisReport("H1", INCONCLUSIVE, detail="no nonzero t samples")
    ks = _k_rows(nl, plan)
    k = ks[:, None]
    fp = nl.f(k, t[None, :])
    fm = nl.f(k, -t[None, :])
    err = np.abs(fp + fm)
    tol = _WITNESS_TOL * (1.0 + np.abs(fp))
    if np.any(err > tol):
        i, j = np.unravel_index(int(np.argmax(err - tol)), err.shape)
        return HypothesisReport("H1", REFUTED, witness=(int(ks[i]), float(t[j])),
                                detail=f"f(k,-t) + f(k,t) = {fp[i, j] + fm[i, j]:.3e}")
    return HypothesisReport("H1", SATISFIED, detail="odd on all sampled points")


def _growth_bound(nl, plan, condition: str) -> HypothesisReport:
    """Shared body of H2 / H2p: estimate d and judge tail stability."""
    q = nl.growth_exponent()
    if q is None or not q > nl.p:
        return HypothesisReport(condition, INCONCLUSIVE,
                                detail="no growth exponent q > p is known for this family")
    t = plan.t_values[plan.t_values != 0.0]
    k = _k_rows(nl, plan)[:, None]
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
    ks = _k_rows(nl, plan)
    k = ks[:, None]
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
                                witness=(int(ks[j]), float(t[-1])),
                                detail=f"ratio stays at {last:.3g} down to |t| = {abs(t[-1]):.1e}")
    return HypothesisReport("H3", INCONCLUSIVE, constants=consts,
                            detail="ratio decays too slowly to call")


def _check_H4(nl, plan) -> HypothesisReport:
    t = plan.large_t()
    mags = np.unique(np.abs(t))
    if mags.size < 3:
        return HypothesisReport("H4", INCONCLUSIVE, detail="not enough large-t samples")
    levels = mags[[mags.size // 2, -1]]  # the middle and the last |t| level are compared
    t = t[np.isin(np.abs(t), levels)]  # a level's worst ratio needs its t alone
    ratio = nl.f(plan.k_values[:, None], t[None, :]) * t[None, :] / np.abs(t)[None, :] ** nl.p
    worst = np.full((2, plan.k_values.size), np.inf)  # minimum.at keeps t order in a +-0 tie
    np.minimum.at(worst, np.searchsorted(levels, np.abs(t)), ratio.T)
    g_mid, g_last = worst
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


def _check_H4p(nl, plan) -> HypothesisReport:
    base = _check_H4(nl, plan)
    if base.verdict == REFUTED:
        return HypothesisReport("H4p", REFUTED, witness=base.witness,
                                detail="pointwise superlinearity already fails: " + base.detail)
    # Uniformity probe: where does the ratio f(k,t) t / |t|^p first reach
    # level 1?  Uniform divergence bounds that crossing amplitude over k;
    # a weight decaying in k pushes it beyond any fixed grid.
    t = plan.large_t()
    if t.size == 0:  # t_max < 1: nothing to probe, as H4 finds
        return HypothesisReport("H4p", INCONCLUSIVE, detail="not enough large-t samples")
    f = nl.f(plan.k_values[:, None], t[None, :])
    hit = f * t[None, :] / np.abs(t)[None, :] ** nl.p >= 1.0
    crossed = np.any(hit, axis=1)
    t_cross = np.where(crossed, np.abs(t)[np.argmax(hit, axis=1)], np.inf)
    if np.all(crossed):
        consts = {"T_level1": float(np.max(t_cross))}
        # The uniform floor |f| >= 1 then holds past some T1 as well;
        # report the sampled crossing for use by the growth demo.
        fhit = np.abs(f) >= 1.0
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
    s = plan.s_values
    ts = t[None, :, None] * s[None, None, :]
    k = _k_rows(nl, plan)
    scaled = None
    if k.size < plan.k_values.size:  # the row of greatest w
        base = nl.curly_F(k[:, None], t[None, :])
        scaled = nl.curly_F(k[:, None, None], ts)
        if not (np.all(np.isfinite(base)) and np.all(np.isfinite(scaled))):
            k, scaled = plan.k_values, None  # rows of smaller w may not overflow there
    if scaled is None:
        if k.size > 81:
            k = k[np.linspace(0, k.size - 1, 81).astype(int)]
        base = nl.curly_F(k[:, None], t[None, :])
    neg = base < -_WITNESS_TOL
    if np.any(neg):
        i, j = np.unravel_index(int(np.argmax(neg)), neg.shape)
        return HypothesisReport("H5", REFUTED, witness=(int(k[i]), float(t[j])),
                                detail=f"curly_F({k[i]}, {t[j]:.4g}) = {base[i, j]:.3e} < 0")
    if scaled is None:
        scaled = nl.curly_F(k[:, None, None], ts)
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


def _sup_F_per_k(nl, k: np.ndarray, T: float, points: int = 256) -> np.ndarray:
    tgrid = np.linspace(0.0, T, points)
    return np.max(np.abs(nl.F(k[:, None], tgrid[None, :])), axis=1)


def _check_H3p(nl, plan) -> HypothesisReport:
    T = float(plan.summability_T)
    k = plan.k_values
    k_max = int(np.max(np.abs(k)))
    if k_max < 8:
        return HypothesisReport("H3p", INCONCLUSIVE, detail="k range too small")
    g = _sup_F_per_k(nl, k, T)
    absk = np.abs(k)

    def partial(m):
        return float(np.sum(g[absk <= m]))

    m1, m2, m3 = k_max // 4, k_max // 2, k_max
    inc1 = partial(m2) - partial(m1)
    inc2 = partial(m3) - partial(m2)
    consts = {"T": T, "partial_sum": partial(m3)}
    if inc1 > 0.0:
        consts["tail_ratio"] = inc2 / inc1
        if inc2 / inc1 < 0.99:
            return HypothesisReport("H3p", SATISFIED, constants=consts,
                                    detail="partial-sum increments decay geometrically")
    elif inc2 <= _ZERO_TOL:
        return HypothesisReport("H3p", SATISFIED, constants=consts,
                                detail="tail contributions vanish on the sampled range")
    outer = g[absk >= 0.8 * k_max]
    inner_med = float(np.median(g[absk <= max(1, k_max // 5)]))
    if outer.size and float(np.min(outer)) >= max(_ZERO_TOL, 0.5 * inner_med):
        i = int(np.argmax(absk))
        return HypothesisReport("H3p", REFUTED, constants=consts,
                                witness=(int(k[i]), T),
                                detail="per-k sup terms do not decay, the series diverges")
    return HypothesisReport("H3p", INCONCLUSIVE, constants=consts,
                            detail="decay too slow to certify summability")


_CHECKS = {
    "H1": _check_H1,
    "H2": lambda nl, plan: _growth_bound(nl, plan, "H2"),
    "H2p": lambda nl, plan: _growth_bound(nl, plan, "H2p"),
    "H3": _check_H3,
    "H4": _check_H4,
    "H4p": _check_H4p,
    "H5": _check_H5,
    "H3p": _check_H3p,
}


def check_hypothesis(nl: Nonlinearity, condition: str, plan: SamplingPlan,
                     coeffs: Optional[CoefficientField] = None) -> HypothesisReport:
    if condition not in CONDITIONS:
        raise ValueError(f"unknown condition {condition!r}; known: {CONDITIONS}")
    if condition == "B":
        if coeffs is None:
            raise ValueError("condition B needs a coefficient field")
        return _check_B(coeffs)
    return _CHECKS[condition](nl, plan)


def check_all(nl: Nonlinearity, plan: SamplingPlan,
              coeffs: Optional[CoefficientField] = None,
              conditions: Sequence[str] = CONDITIONS) -> dict:
    out = {}
    for cond in conditions:
        if cond == "B" and coeffs is None:
            continue
        out[cond] = check_hypothesis(nl, cond, plan, coeffs)
    return out


@dataclass(frozen=True)
class PositivityReport:
    """Worst sampled margins of F(k,t) >= 0 and f(k,t) t >= 0."""

    min_F: float
    min_F_at: tuple
    min_ft: float
    min_ft_at: tuple

    @property
    def passed(self) -> bool:
        return self.min_F >= -_ZERO_TOL and self.min_ft >= -_ZERO_TOL


def positivity_check(nl: Nonlinearity, plan: SamplingPlan) -> PositivityReport:
    k = plan.k_values[:, None]
    t = plan.t_values[None, :]
    Fv = nl.F(k, t)
    ftv = nl.f(k, t) * t
    iF = np.unravel_index(int(np.argmin(Fv)), Fv.shape)
    ift = np.unravel_index(int(np.argmin(ftv)), ftv.shape)
    return PositivityReport(
        float(Fv[iF]), (int(plan.k_values[iF[0]]), float(plan.t_values[iF[1]])),
        float(ftv[ift]), (int(plan.k_values[ift[0]]), float(plan.t_values[ift[1]])))


@dataclass(frozen=True)
class InconsistencyDemo:
    """Per-K partial sums of sup |F| and their linear-growth certificate."""

    T: float
    T1: float
    K_values: tuple
    partial_sums: tuple
    averages: tuple          # S_K / (2K + 1)
    min_margin: float        # min_k (T - T1) - |F(k, T1)|
    lower_bounds: tuple      # (2K+1) * min_margin when the margin is positive

    def rows(self):
        for i, K in enumerate(self.K_values):
            lb = self.lower_bounds[i] if self.lower_bounds else None
            yield K, self.partial_sums[i], self.averages[i], lb


def inconsistency_demo(nl: Nonlinearity, T: float, T1: float,
                       K_list: Sequence[int]) -> InconsistencyDemo:
    if not (T > T1 > 0.0):
        raise ValueError(f"need T > T1 > 0, got T={T}, T1={T1}")
    K_list = [int(K) for K in K_list]
    if not K_list or min(K_list) < 1:
        raise ValueError("K_list must contain positive integers")
    k_max = max(K_list)
    k = np.arange(-k_max, k_max + 1)

    # Sampled precondition: |f| >= 1 on [T1, T] for every k in range.
    tgrid = np.linspace(T1, T, _DEMO_PRECHECK_POINTS)
    absf = np.abs(nl.f(k[:, None], tgrid[None, :]))
    if np.min(absf) < 1.0 - _ZERO_TOL:
        i, j = np.unravel_index(int(np.argmin(absf)), absf.shape)
        raise PreconditionViolation(
            f"|f({k[i]}, {tgrid[j]:.6g})| = {absf[i, j]:.3e} < 1; the uniform "
            f"superlinearity floor does not hold at T1={T1}",
            witness=(int(k[i]), float(tgrid[j]), float(absf[i, j])))

    alpha = np.abs(nl.F(k, np.full(k.shape, T1)))
    margins = (T - T1) - alpha
    min_margin = float(np.min(margins))

    g = _sup_F_per_k(nl, k, T, points=_DEMO_T_POINTS)
    absk = np.abs(k)
    sums, avgs, bounds = [], [], []
    for K in K_list:
        s = float(np.sum(g[absk <= K]))
        sums.append(s)
        avgs.append(s / (2 * K + 1))
        bounds.append((2 * K + 1) * min_margin if min_margin > 0.0 else None)
    return InconsistencyDemo(T, T1, tuple(K_list), tuple(sums), tuple(avgs),
                             min_margin, tuple(bounds))
