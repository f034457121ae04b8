"""Truncated-lattice domain types, norms, energies, and residuals.

Sequences live on a symmetric window {-K, ..., K} and are implicitly
extended by zero outside it, which models decay at infinity.  The weighted
norm couples first differences against a weight a(k) and point values
against a weight b(k):

    ||u||^p = sum_{k=-K..K+1} a(k) |u(k) - u(k-1)|^p
            + sum_{k=-K..K}   b(k) |u(k)|^p

The difference sum deliberately runs one index past the window so that the
boundary difference u(K+1) - u(K) = -u(K) is counted; this keeps the
identity  norm_part = ||u||^p / p  exact on the truncated space.

The energy of a configuration is

    J(u) = ||u||^p / p - lambda * sum_k F(k, u(k))

and ``residual`` is its exact coordinate gradient, i.e. the defect of the
difference equation

    -D(a(k) phi_p(D u(k-1))) + b(k) phi_p(u(k)) = lambda f(k, u(k)).

Every type is an immutable value and every operation is a pure function of
its inputs, so everything here is safe to call concurrently.  Batched
variants (``*_many``) accept arrays of shape (..., 2K+1) and vectorize
over the leading axes.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Optional

import numpy as np

__all__ = [
    "Window",
    "LatticeSeq",
    "CoefficientField",
    "ProblemSpec",
    "EnergyParts",
    "phi_p",
    "phi_p_prime",
    "forward_diff",
    "weighted_norm",
    "weighted_norm_many",
    "lp_norm",
    "sup_norm",
    "energy",
    "energy_parts",
    "energy_many",
    "residual",
    "residual_many",
    "tail_mass",
    "cerami_metric",
]


def _frozen_array(values, length: Optional[int] = None) -> np.ndarray:
    out = np.array(values, dtype=float)
    if length is not None and out.shape != (length,):
        raise ValueError(f"expected array of length {length}, got shape {out.shape}")
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Window:
    """Symmetric index window {-K, ..., K}; sequences vanish outside it."""

    half_width: int

    def __post_init__(self):
        if int(self.half_width) < 1:
            raise ValueError(f"half_width must be >= 1, got {self.half_width}")
        object.__setattr__(self, "half_width", int(self.half_width))

    @property
    def size(self) -> int:
        return 2 * self.half_width + 1

    @cached_property
    def indices(self) -> np.ndarray:
        """-K..K, built once per window and read-only."""
        k = np.arange(-self.half_width, self.half_width + 1)
        k.flags.writeable = False
        return k

    def position(self, k: int) -> int:
        """Array offset of lattice index k."""
        if abs(k) > self.half_width:
            raise ValueError(f"index {k} outside window of half-width {self.half_width}")
        return k + self.half_width


@dataclass(frozen=True)
class LatticeSeq:
    """Real-valued sequence on a window, zero outside it."""

    window: Window
    values: np.ndarray

    def __post_init__(self):
        vals = _frozen_array(self.values, self.window.size)
        if not np.all(np.isfinite(vals)):
            raise ValueError("sequence values must all be finite")
        object.__setattr__(self, "values", vals)

    @classmethod
    def zeros(cls, window: Window) -> "LatticeSeq":
        return cls(window, np.zeros(window.size))

    @classmethod
    def spike(cls, window: Window, site: int = 0, amplitude: float = 1.0) -> "LatticeSeq":
        v = np.zeros(window.size)
        v[window.position(site)] = amplitude
        return cls(window, v)

    def value_at(self, k: int) -> float:
        if abs(k) > self.window.half_width:
            return 0.0
        return float(self.values[self.window.position(k)])

    def padded_to(self, window: Window) -> "LatticeSeq":
        """Zero-pad onto a wider window."""
        if window.half_width < self.window.half_width:
            raise ValueError("target window is narrower than the current one")
        grow = window.half_width - self.window.half_width
        return LatticeSeq(window, np.pad(self.values, (grow, grow)))

    def __neg__(self) -> "LatticeSeq":
        return LatticeSeq(self.window, -self.values)


@dataclass(frozen=True)
class CoefficientField:
    """Weights a(k) on {-K..K+1} and b(k) on {-K..K} with floor b0 > 0.

    Fields built from generating functions remember them so they can be
    re-materialized on a wider window (needed for window continuation);
    table-built fields cannot grow.
    """

    window: Window
    a: np.ndarray
    b: np.ndarray
    b0: float
    a_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    b_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        n = self.window.size
        a = _frozen_array(self.a, n + 1)
        b = _frozen_array(self.b, n)
        if not np.all(a > 0.0):
            raise ValueError("coefficient a(k) must be strictly positive")
        if not (self.b0 > 0.0):
            raise ValueError(f"floor b0 must be positive, got {self.b0}")
        if not np.all(b >= self.b0):
            k_bad = int(self.window.indices[np.argmin(b)])
            raise ValueError(f"b({k_bad}) = {b.min()} violates the floor b0 = {self.b0}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @classmethod
    def from_functions(cls, window: Window, a_fn, b_fn, b0: Optional[float] = None) -> "CoefficientField":
        k = window.indices
        a = np.asarray(a_fn(np.arange(-window.half_width, window.half_width + 2)), dtype=float)
        b = np.asarray(b_fn(k), dtype=float)
        if b0 is None:
            b0 = float(b.min())
        return cls(window, a, b, b0, a_fn=a_fn, b_fn=b_fn)

    @classmethod
    def constant(cls, window: Window, a: float = 1.0, b: float = 1.0) -> "CoefficientField":
        return cls.from_functions(window, lambda k: np.full(k.shape, float(a)),
                                  lambda k: np.full(k.shape, float(b)), b0=float(b))

    @classmethod
    def polynomial(cls, window: Window, exponent: float = 2.0, a: float = 1.0) -> "CoefficientField":
        """a(k) = a, b(k) = 1 + |k|^exponent; the floor is 1 at k = 0."""
        return cls.from_functions(window, lambda k: np.full(k.shape, float(a)),
                                  lambda k: 1.0 + np.abs(k).astype(float) ** exponent, b0=1.0)

    @classmethod
    def from_arrays(cls, window: Window, a, b, b0: Optional[float] = None) -> "CoefficientField":
        b_arr = np.asarray(b, dtype=float)
        return cls(window, a, b_arr, float(b_arr.min()) if b0 is None else float(b0))

    @property
    def rewindowable(self) -> bool:
        """Whether ``with_window`` can rebuild the field; a table-built one cannot."""
        return self.a_fn is not None and self.b_fn is not None

    def with_window(self, window: Window) -> "CoefficientField":
        if not self.rewindowable:
            raise ValueError("coefficient field was built from tables and cannot be re-windowed")
        return CoefficientField.from_functions(window, self.a_fn, self.b_fn, b0=self.b0)


@dataclass(frozen=True)
class ProblemSpec:
    """Exponent p, parameter lambda, coefficients, and the nonlinearity."""

    p: float
    lam: float
    coeffs: CoefficientField
    nonlinearity: object

    def __post_init__(self):
        if not self.p > 1.0:
            raise ValueError(f"p must exceed 1, got {self.p}")
        if not self.lam > 0.0:
            raise ValueError(f"lambda must be positive, got {self.lam}")
        nl_p = getattr(self.nonlinearity, "p", None)
        if nl_p is not None and abs(nl_p - self.p) > 0.0:
            raise ValueError(f"nonlinearity was built for p={nl_p}, problem has p={self.p}")

    @property
    def window(self) -> Window:
        return self.coeffs.window

    def with_half_width(self, half_width: int) -> "ProblemSpec":
        return ProblemSpec(self.p, self.lam, self.coeffs.with_window(Window(half_width)),
                           self.nonlinearity)

    def with_lambda(self, lam: float) -> "ProblemSpec":
        return ProblemSpec(self.p, lam, self.coeffs, self.nonlinearity)


class EnergyParts(NamedTuple):
    total: float
    norm_part: float    # ||u||^p / p
    source_part: float  # sum_k F(k, u(k))


def phi_p(p: float, t):
    """Odd power map |t|^(p-2) t, continuously extended by 0 at t = 0."""
    if not p > 1.0:
        raise ValueError(f"phi_p requires p > 1, got p={p}")
    # Adding 0.0 maps t = -0.0 to +0.0 (phi_p(-0.0) = +0.0) and changes no
    # other value; raising 1 in place of |t| = 0 keeps 0^(p-2) = inf out for
    # p < 2, so no floating-point state needs masking.
    t = np.add(t, 0.0, dtype=float)
    if p == 2.0:  # |t|^0 is 1 for every t, inf and NaN included
        return float(t) if t.ndim == 0 else t
    out = np.abs(t)
    out += out == 0.0
    out **= p - 2.0
    out *= t
    return float(out) if out.ndim == 0 else out


def phi_p_prime(p: float, t, cap: Optional[float] = 1e8):
    """Derivative (p-1) |t|^(p-2), clamped at ``cap`` (it blows up at 0 for p < 2)."""
    if not p > 1.0:
        raise ValueError(f"phi_p_prime requires p > 1, got p={p}")
    t_arr = np.asarray(t, dtype=float)
    if p == 2.0:  # 1.0 |t|^0 is 1 for every t, inf and NaN included
        out = np.ones(t_arr.shape)
    else:  # only p < 2 raises 0 to a negative power
        with np.errstate(divide="ignore", invalid="ignore") if p < 2.0 else nullcontext():
            out = (p - 1.0) * np.abs(t_arr) ** (p - 2.0)
        out = np.where(np.isnan(out), np.inf, out)
    if cap is not None:
        out = np.minimum(out, cap)
    if np.ndim(t) == 0:
        return float(out)
    return out


def _diff_many(V: np.ndarray) -> np.ndarray:
    """Forward differences of the zero-extended values, shape (..., n+1).

    Entry j is V[j] - V[j-1] with V[-1] = V[n] = 0, so the first entry is
    V[0] and the last is 0.0 - V[n-1] (which is +0.0 when V[n-1] = -0.0).
    """
    out = np.zeros(V.shape[:-1] + (V.shape[-1] + 1,))
    out[..., :-1] = V
    out[..., 1:] -= V
    return out


def forward_diff(u: LatticeSeq) -> np.ndarray:
    """Differences u(k) - u(k-1) for k = -K .. K+1 (length 2K+2)."""
    return _diff_many(u.values)


def _norm_p_many(V: np.ndarray, coeffs: CoefficientField, p: float) -> np.ndarray:
    return (np.sum(coeffs.a * np.abs(_diff_many(V)) ** p, axis=-1)
            + np.sum(coeffs.b * np.abs(V) ** p, axis=-1))


def weighted_norm_many(V: np.ndarray, coeffs: CoefficientField, p: float) -> np.ndarray:
    return _norm_p_many(np.asarray(V, dtype=float), coeffs, p) ** (1.0 / p)


def weighted_norm(u: LatticeSeq, coeffs: CoefficientField, p: float) -> float:
    return float(weighted_norm_many(u.values, coeffs, p))


def lp_norm(u: LatticeSeq, q: float) -> float:
    return float(np.sum(np.abs(u.values) ** q) ** (1.0 / q))


def sup_norm(u: LatticeSeq) -> float:
    return float(np.max(np.abs(u.values)))


def energy_parts_many(V: np.ndarray, prob: ProblemSpec, support: Optional[np.ndarray] = None):
    """Batched (total, ||u||^p, source_part) for values of shape (..., n).

    ``support``, sorted positions outside which every row of V is zero, has
    F evaluated on V[..., support] alone and scattered into zeros.  F(k, 0)
    = 0 is the drive contract, so every row sum still runs over the full
    width in the same order and keeps its bits; a custom drive's -0.0 in
    place of +0.0 could only change the sign of a zero source sum, which
    the total does not see.
    """
    V = np.asarray(V, dtype=float)
    norm_p = _norm_p_many(V, prob.coeffs, prob.p)
    if support is None:
        terms = prob.nonlinearity.F(prob.window.indices, V)
    else:
        terms = np.zeros(V.shape)
        terms[..., support] = prob.nonlinearity.F(prob.window.indices[support], V[..., support])
    source = np.sum(terms, axis=-1)
    return norm_p / prob.p - prob.lam * source, norm_p, source


def energy_many(V: np.ndarray, prob: ProblemSpec,
                support: Optional[np.ndarray] = None) -> np.ndarray:
    """Batched J; ``support`` as in ``energy_parts_many``."""
    return energy_parts_many(V, prob, support)[0]


def energy_parts(u: LatticeSeq, prob: ProblemSpec) -> EnergyParts:
    total, norm_p, source = energy_parts_many(u.values, prob)
    return EnergyParts(float(total), float(norm_p / prob.p), float(source))


def energy(u: LatticeSeq, prob: ProblemSpec) -> float:
    return float(energy_many(u.values, prob))


def _norm_gradient(V: np.ndarray, a: np.ndarray, b: np.ndarray, p: float) -> np.ndarray:
    """Gradient of ||u||^p / p, batched, for the weights a, b of the sites V covers."""
    flux = a * phi_p(p, _diff_many(V))
    return -(flux[..., 1:] - flux[..., :-1]) + b * phi_p(p, V)


def residual_many(V: np.ndarray, prob: ProblemSpec) -> np.ndarray:
    """Coordinate gradient of the energy, batched over leading axes."""
    V = np.asarray(V, dtype=float)
    return (_norm_gradient(V, prob.coeffs.a, prob.coeffs.b, prob.p)
            - prob.lam * prob.nonlinearity.f(prob.window.indices, V))


def residual(u: LatticeSeq, prob: ProblemSpec) -> LatticeSeq:
    return LatticeSeq(u.window, residual_many(u.values, prob))


def tail_mass(u: LatticeSeq, h: int, p: float) -> float:
    """lp mass (sum_{|k|>h} |u(k)|^p)^(1/p) strictly outside radius h."""
    if h < 0:
        raise ValueError(f"tail threshold must be nonnegative, got {h}")
    mask = np.abs(u.window.indices) > h
    return float(np.sum(np.abs(u.values[mask]) ** p) ** (1.0 / p))


def cerami_metric(u: LatticeSeq, prob: ProblemSpec) -> float:
    """(1 + ||u||) * euclidean norm of the residual.

    The euclidean norm stands in for the dual norm of the derivative,
    which would require a separate optimization; diagnostic use only.
    """
    return _cerami_from_residual(weighted_norm(u, prob.coeffs, prob.p),
                                 residual_many(u.values, prob))


def _cerami_from_residual(norm: float, r: np.ndarray) -> float:
    """(1 + ||u||) * euclidean norm of r, for ||u|| = ``norm`` and r the residual at u."""
    return float((1.0 + norm) * np.linalg.norm(r))
