"""Nonlinearity families f(k, t) with primitives and derivatives.

Each family exposes the same vectorized surface:

    f(k, t)        the drive term
    F(k, t)        its primitive in t with F(k, 0) = 0
    curly_F(k, t)  f(k, t) * t - p * F(k, t)
    df_dt(k, t)    the t-derivative (used by Newton Jacobians)

and, where the family has one, ``balance_amplitude``: the closed-form
height c of a one-site state, stiffness * phi_p(c) = lam f(k, c), which
``solver.bump_amplitude`` otherwise finds by bisection.  ``k`` and ``t``
broadcast against each other, so a (n,) index row against a (m, n) value
matrix works.

The log-weighted power family

    f(k, t) = w(k) |t|^(p-2) t ln(1 + |t|^nu)

factorizes as w(k) * g(t), so its primitive is w(k) * G(t) with a single
one-dimensional integral G(s) = int_0^s x^(p-1) ln(1 + x^nu) dx, s = |t|.
For nu == p it is the elementary ((1 + s^p) ln(1 + s^p) - s^p) / p.  For
other nu, G = (s^p / p) B with z = s^nu and a = p / nu, where

    B = ln(1 + z) - w 2F1(1, 1; a + 2; w) / (a + 1),  w = z / (1 + z),  z <= 10
    B = ln z - 1/a + a (C(a) z^-a + sum_j (-1)^j z^-j / (j (j - a))),     z > 10

The first integrates by parts and moves the 2F1(1, a + 1; a + 2; -z) of the
remaining integral to w by Pfaff's transformation; the second expands
ln(1 + x^-nu) for x > 1, with C(a) from digamma.  C(a) and the term j =
round(a) each have a pole at that integer, so the two are summed into one
expm1 term (``_tail_bracket``).  Neither form overflows before G does.
scipy's 2F1 at -z < -1 uses a transformation that is singular at integer
a, which lost 2% at nu one ulp from p, so neither form evaluates it there.
nu == p keeps its elementary branch, which needs no scipy.special.

The weight 1/k^mu is undefined at k = 0 and sign-ambiguous for k < 0, so
two conventions are offered: ``one_plus_abs`` (default) uses
(1 + |k|)^-mu, ``abs_nonzero`` uses |k|^-mu with w(0) = 1.  Both keep the
weight positive, even, and summable for mu > 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .lattice import phi_p, phi_p_prime

__all__ = [
    "Nonlinearity",
    "LogPower",
    "PurePower",
    "CustomNonlinearity",
    "WEIGHT_CONVENTIONS",
]

WEIGHT_CONVENTIONS = ("one_plus_abs", "abs_nonzero")

_FLOAT_MAX = float(np.finfo(float).max)


def _scalar_or_array(out, k, t):
    """``out`` as a float when both k and t are scalars, else as it is."""
    return float(out) if np.ndim(t) == 0 and np.ndim(k) == 0 else out


def _k_independent(out, k, t):
    """``out``, broadcast against k's shape, as ``_scalar_or_array`` returns it.

    The ones that widen ``out`` are skipped where it already has k's shape;
    the factor 1.0 changes no value.
    """
    if np.shape(out)[np.ndim(out) - np.ndim(k):] != np.shape(k):
        out = out * np.ones_like(np.asarray(k, dtype=float))
    return _scalar_or_array(out, k, t)


class Nonlinearity:
    """Common behavior; concrete families override f/F and friends."""

    p: float

    def f(self, k, t):
        raise NotImplementedError

    def F(self, k, t):
        raise NotImplementedError

    def curly_F(self, k, t):
        t_arr = np.asarray(t, dtype=float)
        return _scalar_or_array(self.f(k, t_arr) * t_arr - self.p * self.F(k, t_arr), k, t)

    def df_dt(self, k, t):
        t_arr = np.asarray(t, dtype=float)
        h = 1e-6 * np.maximum(1.0, np.abs(t_arr))
        return _scalar_or_array((self.f(k, t_arr + h) - self.f(k, t_arr - h)) / (2.0 * h), k, t)

    def weight(self, k):
        """w(k) where F(k, t) is computed as w(k) G(t), or None where it is not.

        A drive that returns a weight promises 0 <= w(k) <= 1 and G >= 0, with
        G independent of k, and that f(k, t) is formed as w(k) times factors
        free of k, through rounded products, with a sign that does not depend
        on k.  Rounding is monotone, so at each t the least w(k) gives the
        least F and, as w(k) G <= G, F is finite at every k where it is
        finite at that one (``superlinearity_threshold`` relies on both); and
        the greatest w(k) gives the largest |f| and |F| (the hypothesis
        checks rely on it).  A weight may underflow to 0 (``LogPower`` at
        large mu): rounding stays monotone, and 0 * inf = NaN is non-finite
        at exactly the t where w * inf = inf is.
        """
        return None

    def balance_amplitude(self, k, stiffness, lam):
        """c > 0 with stiffness * phi_p(c) = lam f(k, c) at each site k, in closed form.

        This is the height of a one-site state with zero neighbours (the
        anti-continuum limit).  A family without a closed form returns None,
        and ``solver.bump_amplitude`` then scans and bisects the balance gap.
        Where no c balances, c comes out 0, non-finite or NaN.
        """
        return None

    def growth_exponent(self) -> Optional[float]:
        """Natural q > p for the |F| <= d(|t|^p + |t|^q) bound, if known."""
        return None

    @property
    def is_odd(self) -> bool:
        return False


def _tail_bracket(lz: np.ndarray, a: float) -> np.ndarray:
    """B = p G / s^p of the log-power primitive at z = e^lz > 10.

    a C(a) = 1/a - beta(a + 1) + (-1)^(m+1) / m + sum_{j != m} (-1)^(j+1) /
    (j - a), with m = round(a).  The full sum would have a pole at a = m,
    as does series term m; the two together are (z^-a - z^-m) / (m - a),
    kept exact by expm1 as a -> m.  Terms past j = 18 are below 1e-20.
    """
    from scipy.special import digamma

    def beta(x):  # int_0^1 t^(x-1) / (1 + t) dt
        return 0.5 * (digamma(0.5 * x + 0.5) - digamma(0.5 * x))

    m = max(1, round(a))
    e = abs(m - a)
    j = np.arange(1, 19)
    j = j[j != m]
    series = np.exp(-np.outer(lz, j)) @ ((-1.0) ** j / (j * (j - a)))
    merged = np.exp(-min(a, m) * lz) * (-np.expm1(-e * lz) / e if e else lz)
    aC = (1.0 / a - beta(a + 1.0) + (-1) ** m * (beta(m + 1.0 - a) - 1.0 / m)
          + sum((-1) ** (i + 1) / (i - a) for i in range(1, m)))
    return lz - 1.0 / a + np.exp(-a * lz) * aC + a * ((-1) ** (m + 1) / m * merged + series)


@dataclass(frozen=True)
class LogPower(Nonlinearity):
    """f(k, t) = w(k) |t|^(p-2) t ln(1 + |t|^nu), mu > 1, nu >= 1."""

    p: float
    mu: float
    nu: float
    weight_convention: str = "one_plus_abs"

    def __post_init__(self):
        if not self.p > 1.0:
            raise ValueError(f"p must exceed 1, got {self.p}")
        if not self.mu > 1.0:
            raise ValueError(f"mu must exceed 1, got {self.mu}")
        if not self.nu >= 1.0:
            raise ValueError(f"nu must be at least 1, got {self.nu}")
        if self.weight_convention not in WEIGHT_CONVENTIONS:
            raise ValueError(f"unknown weight convention {self.weight_convention!r}; "
                             f"pick one of {WEIGHT_CONVENTIONS}")

    _weight_cache = (None, None)  # (k, w(k)) for the last read-only array k

    def weight(self, k):
        """w(k) <= 1; for a read-only k, such as a window's indices, kept read-only until the next.

        A read-only k is taken not to change while it is kept.
        """
        k_kept, w_kept = self._weight_cache  # one read: another thread may replace it
        if k is k_kept and k is not None:
            return w_kept
        k_arr = np.abs(np.asarray(k, dtype=float))
        if self.weight_convention == "one_plus_abs":
            w = (1.0 + k_arr) ** (-self.mu)
        else:
            with np.errstate(divide="ignore"):
                w = np.where(k_arr == 0.0, 1.0, k_arr ** (-self.mu))
        if np.ndim(k) == 0:
            return float(w)
        if isinstance(k, np.ndarray) and not k.flags.writeable:
            w.flags.writeable = False
            object.__setattr__(self, "_weight_cache", (k, w))
        return w

    def f(self, k, t):
        t_arr = np.asarray(t, dtype=float)
        out = self.weight(k) * phi_p(self.p, t_arr) * np.log1p(np.abs(t_arr) ** self.nu)
        return _scalar_or_array(out, k, t)

    def _primitive(self, s: np.ndarray) -> np.ndarray:
        """G on |t|; even extension handled by the caller."""
        if self.nu == self.p:
            # s^p capped at the largest float: an overflowed s^p would make
            # G = inf - inf = nan where it is +inf
            with np.errstate(over="ignore"):  # as in the nu != p branch, G is +inf there
                sp = np.minimum(s ** self.p, _FLOAT_MAX)
                return ((1.0 + sp) * np.log1p(sp) - sp) / self.p
        from scipy.special import hyp2f1  # only this branch needs scipy.special

        p, nu = self.p, self.nu
        a = p / nu
        s = np.minimum(s, _FLOAT_MAX)  # G(inf) = inf, through s^p alone
        with np.errstate(over="ignore"):  # s^nu or s^p past the largest float is +inf
            z = s ** nu
            low = z <= 10.0
            bracket = np.empty_like(z)
            w = z[low] / (1.0 + z[low])
            bracket[low] = np.log1p(z[low]) - w * hyp2f1(1.0, 1.0, a + 2.0, w) / (a + 1.0)
            bracket[~low] = _tail_bracket(nu * np.log(s[~low]), a)
            return s ** p / p * bracket

    def F(self, k, t):
        t_arr = np.asarray(t, dtype=float)
        return _scalar_or_array(self.weight(k) * self._primitive(np.abs(t_arr)), k, t)

    def balance_amplitude(self, k, stiffness, lam):
        """phi_p(c) cancels: ln(1 + c^nu) = stiffness / (lam w(k))."""
        with np.errstate(divide="ignore", over="ignore"):  # w = 0 or a huge ratio: c = inf
            return np.expm1(stiffness / (lam * self.weight(k))) ** (1.0 / self.nu)

    def df_dt(self, k, t):
        t_arr = np.asarray(t, dtype=float)
        s = np.abs(t_arr)
        p, nu = self.p, self.nu
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # taken again below
            s_nu = s ** nu
            log_term = np.log1p(s_nu)
            if p == 2.0:  # (p - 1) s^0 log_term, with its bits at every t, 0, inf and NaN too
                lead = log_term
            else:
                lead = (p - 1.0) * s ** (p - 2.0) * log_term
                lead = np.where(log_term == 0.0, 0.0, lead)  # t=0 limit is 0 for p>1
            out = lead + nu * s ** (p + nu - 2.0) / (1.0 + s_nu)
            if not math.isfinite(out.sum()):  # a sum past float64 max only costs this pass
                # the same terms in forms that stay in range: for s > 1, ln(1 + s^nu)
                # = nu ln s + ln(1 + s^-nu) and s^nu / (1 + s^nu) = 1 / (1 + s^-nu);
                # for s <= 1, where s^(p-2) overflows (p < 1.05 at subnormal s;
                # s^nu > 0 there, or the lead term would be 0), s^(p-2) ln(1 + s^nu)
                # = s^(p+nu-2) ln(1 + s^nu) / s^nu
                x, s_inv = s ** (p - 2.0), s ** -nu
                lead = (p - 1.0) * x * (nu * np.log(s) + np.log1p(s_inv))
                large = nu * x / (1.0 + s_inv) + np.where(x == 0.0, 0.0, lead)
                small = s ** (p + nu - 2.0) * ((p - 1.0) * (log_term / s_nu) + nu / (1.0 + s_nu))
                out = np.where(np.isfinite(out), out, np.where(s > 1.0, large, small))
        return _scalar_or_array(self.weight(k) * out, k, t)

    def growth_exponent(self) -> float:
        # ln(1 + |t|^nu) <= |t|^nu, so |F| <= w(k) |t|^(p+nu) / (p+nu)
        return self.p + self.nu

    @property
    def is_odd(self) -> bool:
        return True


@dataclass(frozen=True)
class PurePower(Nonlinearity):
    """f(k, t) = c |t|^(q-2) t, independent of k, with q > p and c > 0."""

    p: float
    q: float
    c: float = 1.0

    def __post_init__(self):
        if not self.p > 1.0:
            raise ValueError(f"p must exceed 1, got {self.p}")
        if not self.q > self.p:
            raise ValueError(f"q must exceed p={self.p}, got {self.q}")
        if not self.c > 0.0:
            raise ValueError(f"c must be positive, got {self.c}")

    def weight(self, k):
        """1 at every k: F does not depend on k."""
        return 1.0 if np.ndim(k) == 0 else np.ones(np.shape(k))

    def balance_amplitude(self, k, stiffness, lam):
        """c^(p-1) cancels: c^(q-p) = stiffness / (lam c0)."""
        with np.errstate(over="ignore"):  # past the largest float: c = inf
            return (stiffness / (lam * self.c)) ** (1.0 / (self.q - self.p))

    def f(self, k, t):
        return _k_independent(self.c * phi_p(self.q, np.asarray(t, dtype=float)), k, t)

    def F(self, k, t):
        return _k_independent((self.c / self.q) * np.abs(np.asarray(t, dtype=float)) ** self.q,
                              k, t)

    def df_dt(self, k, t):
        t_arr = np.asarray(t, dtype=float)
        return _k_independent(self.c * phi_p_prime(self.q, t_arr, cap=None), k, t)

    def growth_exponent(self) -> float:
        return self.q

    @property
    def is_odd(self) -> bool:
        return True


@dataclass(frozen=True)
class CustomNonlinearity(Nonlinearity):
    """User-supplied scalar f(k, t) and its primitive F(k, t).

    Meant for experiments and counterexamples; the scalar callables are
    wrapped with np.vectorize, so this family is much slower than the
    built-in ones.
    """

    p: float
    f_scalar: Callable[[int, float], float]
    F_scalar: Callable[[int, float], float]
    df_scalar: Optional[Callable[[int, float], float]] = None
    odd: Optional[bool] = None
    name: str = "custom"

    def __post_init__(self):
        if not self.p > 1.0:
            raise ValueError(f"p must exceed 1, got {self.p}")
        for k in (-3, 0, 5):
            for name, fn in (("f", self.f_scalar), ("F", self.F_scalar)):
                v = float(fn(k, 0.0))
                if v != 0.0:
                    raise ValueError(f"{name}(k, 0) must vanish; got {name}({k}, 0) = {v}")

    def f(self, k, t):
        fv = np.vectorize(self.f_scalar, otypes=[float])
        return _scalar_or_array(fv(k, t), k, t)

    def F(self, k, t):
        Fv = np.vectorize(self.F_scalar, otypes=[float])
        return _scalar_or_array(Fv(k, t), k, t)

    def df_dt(self, k, t):
        if self.df_scalar is None:
            return super().df_dt(k, t)
        dv = np.vectorize(self.df_scalar, otypes=[float])
        return _scalar_or_array(dv(k, t), k, t)

    @property
    def is_odd(self) -> bool:
        return bool(self.odd)

    @classmethod
    def zero(cls, p: float) -> "CustomNonlinearity":
        """f identically zero (useful for pure-norm test problems)."""
        return cls(p, lambda k, t: 0.0, F_scalar=lambda k, t: 0.0,
                   df_scalar=lambda k, t: 0.0, odd=True, name="zero")
