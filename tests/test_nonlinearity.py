import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dplhom
from dplhom import CustomNonlinearity, LogPower, PurePower
from oracles import gauss_legendre_log_primitive, trapezoid_primitive

# (p, nu) pairs with nu != p, which take the 2F1 form of the primitive
_NU_NE_P = [(p, nu) for p in (1.5, 2.0, 2.5, 3.0) for nu in (1.0, 1.5, 2.0, 3.0, 7.0) if nu != p]


def test_log_power_vanishes_at_zero():
    nl = LogPower(2.0, 2.0, 2.0)
    for k in (-5, 0, 3):
        assert nl.f(k, 0.0) == 0.0
        assert nl.F(k, 0.0) == 0.0


def test_log_power_point_value():
    # w(0) = 1 under the (1+|k|)^-mu convention, so f(0,1) = ln 2
    nl = LogPower(2.0, 2.0, 1.0)
    assert nl.f(0, 1.0) == pytest.approx(np.log(2.0), rel=1e-14)


def test_log_power_oddness(rng):
    nl = LogPower(2.0, 2.0, 2.0)
    k = rng.integers(-50, 51, size=40)
    t = rng.uniform(0.01, 20.0, size=40)
    assert np.allclose(nl.f(k, -t), -nl.f(k, t), rtol=1e-12, atol=0)
    assert np.allclose(nl.F(k, -t), nl.F(k, t), rtol=1e-12, atol=0)


def test_log_power_weight_conventions():
    shifted = LogPower(2.0, 2.0, 2.0, weight_convention="one_plus_abs")
    bare = LogPower(2.0, 2.0, 2.0, weight_convention="abs_nonzero")
    assert shifted.weight(0) == 1.0
    assert shifted.weight(1) == 0.25
    assert bare.weight(0) == 1.0
    assert bare.weight(2) == 0.25
    assert bare.weight(-2) == 0.25


def test_log_power_parameter_validation():
    with pytest.raises(ValueError):
        LogPower(2.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        LogPower(2.0, 2.0, 0.5)
    with pytest.raises(ValueError):
        LogPower(2.0, 2.0, 2.0, weight_convention="bogus")


def test_pure_power_primitive_value():
    nl = PurePower(2.0, 4.0)
    assert nl.F(0, 2.0) == pytest.approx(4.0, rel=0)
    assert nl.F(7, -2.0) == pytest.approx(4.0, rel=0)


def test_pure_power_curly_value():
    nl = PurePower(2.0, 4.0)
    # f t - p F = |t|^4 - 2 |t|^4 / 4 = |t|^4 / 2
    assert nl.curly_F(0, 2.0) == pytest.approx(8.0, rel=0)
    assert nl.curly_F(0, 0.0) == 0.0


def test_pure_power_validation():
    with pytest.raises(ValueError):
        PurePower(2.0, 2.0)
    with pytest.raises(ValueError):
        PurePower(2.0, 4.0, c=0.0)


def test_custom_rejects_nonvanishing_drive_at_zero():
    with pytest.raises(ValueError):
        CustomNonlinearity(2.0, lambda k, t: t + 1.0, F_scalar=lambda k, t: t * t / 2 + t)


def test_log_power_quadrature_against_trapezoid():
    # nu != p takes the 2F1 form; bespoke fixed-grid oracle
    nl = LogPower(2.0, 2.0, 1.0)
    got = nl.F(0, 1.0)
    want = trapezoid_primitive(lambda k, s: s * np.log1p(abs(s)), 0, 1.0)
    assert got == pytest.approx(want, abs=1e-8)
    # closed form of int_0^1 s ln(1+s) ds is exactly 1/4
    assert abs(got - 0.25) <= 1e-14


@pytest.mark.parametrize("p, nu", _NU_NE_P)
def test_log_power_2f1_against_gauss_legendre(p, nu):
    nl = LogPower(p, 2.0, nu)
    s = np.geomspace(1e-8, 1e6, 400)
    want = gauss_legendre_log_primitive(s, p, nu)
    assert np.max(np.abs(nl.F(0, s) - want) / want) <= 1e-12


# a = p / nu next to an integer: nu = p (1 +- 1e-6), one ulp from p, one ulp from p / 2
_NEAR_INTEGER_A = ([(p, p * (1.0 + d)) for p in (1.5, 2.0, 2.5, 3.0) for d in (-1e-6, 1e-6)]
                   + [(p, np.nextafter(p, x)) for p in (1.5, 2.0, 3.0) for x in (0.0, 4.0)]
                   + [(3.0, np.nextafter(1.5, 2.0)), (2.0, np.nextafter(1.0, 2.0))])


@pytest.mark.parametrize("p, nu", _NEAR_INTEGER_A)
def test_log_power_2f1_near_nu_equal_p(p, nu):
    # scipy's 2F1 at -z < -1 is near-singular here: evaluated there, it lost
    # 8e-10 at nu = p (1 - 1e-6) and 2% one ulp from p; the worst error
    # measured over these pairs is 1.5e-15
    s = np.geomspace(1e-8, 1e6, 2000)
    want = gauss_legendre_log_primitive(s, p, nu)
    assert np.max(np.abs(LogPower(p, 2.0, nu).F(0, s) - want) / want) <= 1e-12


@pytest.mark.parametrize("p, nu", _NU_NE_P)
def test_log_power_2f1_monotone_up_to_overflow(p, nu):
    # past s^p = 1.8e308 the primitive is +inf, never nan
    t = np.geomspace(1e-8, 1e160, 3000)
    F = LogPower(p, 2.0, nu).F(0, np.concatenate([-t, t]))
    assert not np.any(np.isnan(F))
    assert np.all(F[3000:][1:] >= F[3000:][:-1])
    assert np.array_equal(F[:3000], F[3000:])


def test_log_power_closed_form_against_trapezoid():
    nl = LogPower(2.0, 2.0, 2.0)
    want = trapezoid_primitive(lambda k, s: s * np.log1p(s * s), 0, 1.3)
    assert nl.F(0, 1.3) == pytest.approx(want, abs=1e-8)


def test_log_power_primitive_is_inf_past_overflow():
    # ((1 + s^p) log1p(s^p) - s^p) / p is inf - inf = nan once s^p overflows
    nl = LogPower(3.0, 1.5, 3.0)
    with np.errstate(over="ignore"):
        assert nl.F(0, 1e103) == np.inf
        assert nl.F(0, -1e103) == np.inf
        assert np.array_equal(nl.F(np.array([0, 2]), np.array([1e103, 1e103])),
                              [np.inf, np.inf])
    t = np.array([0.0, 1e-3, 0.5, 2.0, 40.0, 1e50, 1e101])
    sp = t ** 3.0
    want = ((1.0 + sp) * np.log1p(sp) - sp) / 3.0 * nl.weight(0)
    assert np.array_equal(nl.F(0, t), want)
    assert np.all(np.isfinite(want))


def test_primitive_derivative_matches_drive(rng):
    # central differences of F against f, relative error < 1e-6
    for nl in (LogPower(2.0, 2.0, 2.0), LogPower(3.0, 1.5, 3.0), PurePower(2.0, 4.0),
               LogPower(2.0, 2.0, 1.0), LogPower(1.5, 2.0, 3.0)):
        k = rng.integers(-30, 31, size=100)
        sign = rng.choice([-1.0, 1.0], size=100)
        t = sign * rng.uniform(0.1, 10.0, size=100)
        h = 1e-6 * np.maximum(1.0, np.abs(t))
        fd = (nl.F(k, t + h) - nl.F(k, t - h)) / (2.0 * h)
        f = nl.f(k, t)
        rel = np.abs(fd - f) / np.maximum(np.abs(f), 1e-12)
        assert np.max(rel) < 1e-6


def test_curly_identity(rng):
    for nl in (LogPower(2.0, 2.0, 2.0), PurePower(2.5, 4.0, c=0.7)):
        k = rng.integers(-40, 41, size=60)
        t = rng.uniform(-8.0, 8.0, size=60)
        direct = nl.curly_F(k, t)
        composed = nl.f(k, t) * t - nl.p * nl.F(k, t)
        assert np.allclose(direct, composed, atol=1e-10)


def test_log_power_curly_nonnegative(rng):
    nl = LogPower(2.0, 2.0, 2.0)
    k = rng.integers(-60, 61, size=200)
    t = rng.uniform(-50.0, 50.0, size=200)
    assert np.all(nl.curly_F(k, t) >= -1e-12)


def test_growth_constant_stable_under_grid_refinement():
    # grid sup of |F| / (|t|^p + |t|^q) with q = p + nu, stable to < 5%
    nl = LogPower(2.0, 2.0, 2.0)
    q = nl.growth_exponent()
    k = np.arange(-100, 101)

    def grid_sup(points):
        t = np.logspace(-3, 3, points)
        ratio = np.abs(nl.F(k[:, None], t[None, :])) / (t ** 2.0 + t ** q)[None, :]
        return float(np.max(ratio))

    d1, d2 = grid_sup(400), grid_sup(800)
    assert np.isfinite(d1) and d1 > 0
    assert abs(d2 - d1) / d1 < 0.05


def test_df_dt_matches_finite_differences(rng):
    for nl in (LogPower(2.0, 2.0, 2.0), LogPower(3.0, 2.0, 1.0), PurePower(2.0, 4.0)):
        k = rng.integers(-10, 11, size=50)
        t = rng.uniform(-5.0, 5.0, size=50)
        t[np.abs(t) < 0.05] = 0.5
        h = 1e-6 * np.maximum(1.0, np.abs(t))
        fd = (nl.f(k, t + h) - nl.f(k, t - h)) / (2.0 * h)
        got = nl.df_dt(k, t)
        assert np.allclose(got, fd, rtol=1e-5, atol=1e-8)


def test_custom_requires_vanishing_primitive():
    with pytest.raises(TypeError):
        CustomNonlinearity(2.0, lambda k, t: t ** 3)
    with pytest.raises(ValueError, match=r"F\(k, 0\) must vanish; got F\(-3, 0\) = 1.0"):
        CustomNonlinearity(2.0, lambda k, t: t ** 3, F_scalar=lambda k, t: t ** 4 / 4 + 1.0)
    nl = CustomNonlinearity(2.0, lambda k, t: t ** 3, F_scalar=lambda k, t: t ** 4 / 4)
    assert nl.F(0, 2.0) == 4.0
    assert nl.curly_F(0, 2.0) == 8.0


def test_custom_odd_flag_and_zero_family():
    z = CustomNonlinearity.zero(2.0)
    assert z.is_odd
    assert z.f(3, 1.7) == 0.0
    assert z.F(3, 1.7) == 0.0


def test_import_leaves_quadrature_unloaded():
    # no primitive uses quadrature, and only LogPower with nu != p needs
    # scipy.special
    src = str(Path(dplhom.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-c", "import sys, dplhom; "
         "print('scipy.integrate' in sys.modules, 'scipy.special' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False False"
