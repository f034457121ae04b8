import os
from pathlib import Path

import numpy as np
import pytest

import dplhom
from dplhom import (CoefficientField, CustomNonlinearity, LogPower,
                    ProblemSpec, PurePower, SolverConfig, Window)


def subprocess_env():
    """os.environ with the imported dplhom's source tree first on PYTHONPATH."""
    src = str(Path(dplhom.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def make_constant_problem(K=2, p=2.0, lam=1.0, a=1.0, b=1.0, nl=None):
    window = Window(K)
    coeffs = CoefficientField.constant(window, a=a, b=b)
    if nl is None:
        nl = CustomNonlinearity.zero(p)
    return ProblemSpec(p, lam, coeffs, nl)


def make_reference_problem(K=50):
    """p=2, a=1, b(k)=1+k^2, lambda=1, log-power drive mu=2, nu=2."""
    window = Window(K)
    coeffs = CoefficientField.polynomial(window, exponent=2.0)
    return ProblemSpec(2.0, 1.0, coeffs, LogPower(2.0, 2.0, 2.0))


def make_pure_power_problem(K=2, q=4.0, p=2.0, lam=1.0):
    window = Window(K)
    coeffs = CoefficientField.constant(window)
    return ProblemSpec(p, lam, coeffs, PurePower(p, q))


def random_problem(rng, K=None, p=None):
    """Random window, coefficients, and a closed-form nonlinearity."""
    K = int(rng.integers(2, 8)) if K is None else K
    p = float(rng.choice([2.0, 3.0])) if p is None else p
    window = Window(K)
    a = rng.uniform(0.5, 2.0, size=window.size + 1)
    b = rng.uniform(0.8, 3.0, size=window.size)
    coeffs = CoefficientField.from_arrays(window, a, b)
    if rng.random() < 0.5:
        nl = PurePower(p, q=p + float(rng.uniform(0.5, 2.0)))
    else:
        nl = LogPower(p, mu=2.0, nu=p)  # nu = p keeps the primitive closed-form
    lam = float(rng.uniform(0.1, 2.0))
    return ProblemSpec(p, lam, coeffs, nl)


@pytest.fixture
def quick_cfg():
    return SolverConfig(seed=7)
