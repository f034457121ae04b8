"""Nonlinearity families f(k, t) with primitives and derivatives.

Each family exposes the same vectorized surface:

    f(k, t)        the drive term
    F(k, t)        its primitive in t with F(k, 0) = 0
    curly_F(k, t)  f(k, t) * t - p * F(k, t)
    df_dt(k, t)    the t-derivative (used by Newton Jacobians)

``k`` and ``t`` broadcast against each other, so a (n,) index row against
a (m, n) value matrix works.

The log-weighted power family

    f(k, t) = w(k) |t|^(p-2) t ln(1 + |t|^nu)

factorizes as w(k) * g(t), so its primitive is w(k) * G(t) with a single
one-dimensional integral G.  For nu == p the integral collapses to the
closed form ((1 + s^p) ln(1 + s^p) - s^p) / p with s = |t|; otherwise G is
computed by adaptive quadrature (absolute tolerance 1e-10) and memoized.

The weight 1/k^mu is undefined at k = 0 and sign-ambiguous for k < 0, so
two conventions are offered: ``one_plus_abs`` (default) uses
(1 + |k|)^-mu, ``abs_nonzero`` uses |k|^-mu with w(0) = 1.  Both keep the
weight positive, even, and summable for mu > 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .lattice import phi_p, phi_p_prime

__all__ = [
    "EvaluationError",
    "Nonlinearity",
    "LogPower",
    "PurePower",
    "CustomNonlinearity",
    "WEIGHT_CONVENTIONS",
]

WEIGHT_CONVENTIONS = ("one_plus_abs", "abs_nonzero")

_FLOAT_MAX = float(np.finfo(float).max)
_QUAD_ABS_TOL = 1e-10
_QUAD_LIMIT = 200


def _scalar_or_array(out, k, t):
    """``out`` as a float when both k and t are scalars, else as it is."""
    return float(out) if np.ndim(t) == 0 and np.ndim(k) == 0 else out


class EvaluationError(RuntimeError):
    """Raised when a primitive cannot be evaluated to tolerance."""


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

    def growth_exponent(self) -> Optional[float]:
        """Natural q > p for the |F| <= d(|t|^p + |t|^q) bound, if known."""
        return None

    @property
    def is_odd(self) -> bool:
        return False


@lru_cache(maxsize=262144)
def _log_primitive_quad(p: float, nu: float, s: float) -> float:
    """G(s) = int_0^s x^(p-1) ln(1 + x^nu) dx for s >= 0, by quadrature."""
    if s == 0.0:
        return 0.0
    from scipy.integrate import quad  # costs a third of ``import dplhom``

    val, err = quad(lambda x: x ** (p - 1.0) * math.log1p(x ** nu), 0.0, s,
                    epsabs=_QUAD_ABS_TOL, epsrel=1e-12, limit=_QUAD_LIMIT)
    if err > 1e-8:
        raise EvaluationError(
            f"quadrature for the log-power primitive did not converge at t={s} "
            f"(p={p}, nu={nu}, error estimate {err:.2e})")
    return val


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

    def weight(self, k):
        k_arr = np.abs(np.asarray(k, dtype=float))
        if self.weight_convention == "one_plus_abs":
            w = (1.0 + k_arr) ** (-self.mu)
        else:
            with np.errstate(divide="ignore"):
                w = np.where(k_arr == 0.0, 1.0, k_arr ** (-self.mu))
        return float(w) if np.ndim(k) == 0 else w

    def f(self, k, t):
        t_arr = np.asarray(t, dtype=float)
        out = self.weight(k) * phi_p(self.p, t_arr) * np.log1p(np.abs(t_arr) ** self.nu)
        return _scalar_or_array(out, k, t)

    def _primitive(self, s: np.ndarray) -> np.ndarray:
        """G on |t|; even extension handled by the caller."""
        if self.nu == self.p:
            # s^p capped at the largest float: an overflowed s^p would make
            # G = inf - inf = nan where it is +inf
            sp = np.minimum(s ** self.p, _FLOAT_MAX)
            return ((1.0 + sp) * np.log1p(sp) - sp) / self.p
        flat = np.ravel(s)
        vals = np.fromiter((_log_primitive_quad(self.p, self.nu, float(x)) for x in flat),
                           dtype=float, count=flat.size)
        return vals.reshape(np.shape(s))

    def F(self, k, t):
        t_arr = np.asarray(t, dtype=float)
        return _scalar_or_array(self.weight(k) * self._primitive(np.abs(t_arr)), k, t)

    def df_dt(self, k, t):
        t_arr = np.asarray(t, dtype=float)
        s = np.abs(t_arr)
        log_term = np.log1p(s ** self.nu)
        with np.errstate(divide="ignore", invalid="ignore"):
            lead = (self.p - 1.0) * s ** (self.p - 2.0) * log_term
        lead = np.where(log_term == 0.0, 0.0, lead)  # t=0 limit is 0 for p>1
        ratio = self.nu * s ** (self.p + self.nu - 2.0) / (1.0 + s ** self.nu)
        return _scalar_or_array(self.weight(k) * (lead + ratio), k, t)

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

    def f(self, k, t):
        t_arr = np.asarray(t, dtype=float)
        out = self.c * phi_p(self.q, t_arr) * np.ones_like(np.asarray(k, dtype=float))
        return _scalar_or_array(out, k, t)

    def F(self, k, t):
        t_arr = np.asarray(t, dtype=float)
        out = (self.c / self.q) * np.abs(t_arr) ** self.q * np.ones_like(np.asarray(k, dtype=float))
        return _scalar_or_array(out, k, t)

    def df_dt(self, k, t):
        t_arr = np.asarray(t, dtype=float)
        out = self.c * phi_p_prime(self.q, t_arr, cap=None) * np.ones_like(np.asarray(k, dtype=float))
        return _scalar_or_array(out, k, t)

    def growth_exponent(self) -> float:
        return self.q

    @property
    def is_odd(self) -> bool:
        return True


@dataclass(frozen=True)
class CustomNonlinearity(Nonlinearity):
    """User-supplied scalar f(k, t); primitive by quadrature unless given.

    Meant for experiments and counterexamples; the scalar callables are
    wrapped with np.vectorize, so this family is much slower than the
    built-in ones.
    """

    p: float
    f_scalar: Callable[[int, float], float]
    F_scalar: Optional[Callable[[int, float], float]] = None
    df_scalar: Optional[Callable[[int, float], float]] = None
    odd: Optional[bool] = None
    name: str = "custom"
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if not self.p > 1.0:
            raise ValueError(f"p must exceed 1, got {self.p}")
        for k in (-3, 0, 5):
            v = float(self.f_scalar(k, 0.0))
            if v != 0.0:
                raise ValueError(f"f(k, 0) must vanish; got f({k}, 0) = {v}")

    def f(self, k, t):
        fv = np.vectorize(self.f_scalar, otypes=[float])
        return _scalar_or_array(fv(k, t), k, t)

    def _F_one(self, k: int, t: float) -> float:
        if self.F_scalar is not None:
            return float(self.F_scalar(k, t))
        key = (int(k), float(t))
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        if t == 0.0:
            val = 0.0
        else:
            from scipy.integrate import quad  # costs a third of ``import dplhom``

            val, err = quad(lambda s: self.f_scalar(int(k), s), 0.0, t,
                            epsabs=_QUAD_ABS_TOL, epsrel=1e-12, limit=_QUAD_LIMIT)
            if err > 1e-8:
                raise EvaluationError(f"quadrature for the primitive failed at (k={k}, t={t})")
        self._cache[key] = val
        return val

    def F(self, k, t):
        Fv = np.vectorize(self._F_one, otypes=[float])
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
