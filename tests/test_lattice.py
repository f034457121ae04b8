import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dplhom import (CoefficientField, CustomNonlinearity, LatticeSeq, LogPower,
                    ProblemSpec, PurePower, Window, cerami_metric, energy,
                    energy_many, energy_parts, forward_diff, lp_norm, phi_p, phi_p_prime,
                    residual, residual_many, sup_norm, tail_mass, weighted_norm)
from conftest import make_constant_problem, random_problem
from dplhom.lattice import _diff_many
from oracles import (direct_weighted_norm, fd_gradient, general_phi_p, general_phi_p_prime,
                     literal_diff, literal_phi_p)

# finite doubles with both zeros and the subnormals; exponents above and below 2
_REALS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([0.0, -0.0])
_EXPONENTS = st.sampled_from([1.1, 1.5, 2.0, 2.5, 3.0, 4.0]) | st.floats(1.01, 6.0)
_ARRAYS = hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3, max_side=6),
                     elements=_REALS)


def _bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


# ---- phi_p ---------------------------------------------------------------

def test_phi_p_identity_at_p2():
    assert phi_p(2.0, 3.0) == 3.0


def test_phi_p_cubic_negative():
    assert phi_p(3.0, -2.0) == -4.0


def test_phi_p_origin_subquadratic():
    assert phi_p(1.5, 0.0) == 0.0


def test_phi_p_rejects_p_not_above_one():
    with pytest.raises(ValueError):
        phi_p(1.0, 2.0)
    with pytest.raises(ValueError):
        phi_p(0.5, 2.0)


@settings(max_examples=300, deadline=None)
@given(_EXPONENTS, _ARRAYS)
def test_phi_p_matches_literal_formula_on_arrays(p, t):
    with np.errstate(over="ignore"):
        got, want = phi_p(p, t), literal_phi_p(p, t)
    assert isinstance(got, np.ndarray) and got.shape == t.shape
    assert _bits(got) == _bits(want)


@settings(max_examples=300, deadline=None)
@given(_EXPONENTS, _REALS, st.booleans())
def test_phi_p_matches_literal_formula_on_scalars(p, x, zero_dim):
    t = np.array(x) if zero_dim else x
    with np.errstate(over="ignore"):
        got, want = phi_p(p, t), literal_phi_p(p, t)
    assert type(got) is float
    assert _bits(got) == _bits(want)


def test_phi_p_signed_zero_maps_to_positive_zero():
    for p in (1.5, 2.0, 3.0):
        for t in (-0.0, np.array(-0.0), np.array([-0.0, 0.0])):
            assert _bits(phi_p(p, t)) == _bits(np.zeros(np.shape(t)))


def test_phi_p_prime_clamps_near_zero():
    assert phi_p_prime(1.5, 0.0, cap=1e8) == 1e8
    assert phi_p_prime(2.0, 0.0) == 1.0
    assert phi_p_prime(3.0, 0.0) == 0.0


_SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.5, 1e300])


def test_phi_p_at_p2_is_the_general_formula():
    # phi_2(t) = t + 0.0 is the general formula's bits at every t, NaN,
    # infinities and both zeros included; phi_2' has no shortcut, and the
    # general formula gives min(1, cap) there
    assert _bits(phi_p_prime(2.0, _SPECIAL, cap=None)) == _bits(np.ones(_SPECIAL.size))
    for t in (_SPECIAL, _SPECIAL.reshape(2, 4), -0.0, np.nan, np.array(-np.inf)):
        want = general_phi_p(2.0, t)
        got = phi_p(2.0, t)
        assert type(got) is (float if np.ndim(t) == 0 else np.ndarray)
        assert _bits(got) == _bits(want)
        for cap in (None, 1e8, 0.25, -0.0):
            got = phi_p_prime(2.0, t, cap=cap)
            assert np.shape(got) == np.shape(t)
            assert _bits(got) == _bits(general_phi_p_prime(2.0, t, cap))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([1.5, 2.5, 3.0]) | st.floats(1.01, 6.0), _ARRAYS,
       st.sampled_from([None, 1e8, 0.5]))
def test_phi_p_prime_matches_the_general_formula(p, t, cap):
    # p > 2 runs without masking floating-point state: no 0 to a negative power
    with np.errstate(over="ignore"):
        assert _bits(phi_p_prime(p, t, cap=cap)) == _bits(general_phi_p_prime(p, t, cap))


# ---- window / sequence types ---------------------------------------------

def test_window_indices_are_built_once_and_read_only():
    window = Window(3)
    k = window.indices
    assert k is window.indices
    assert k.tolist() == list(range(-3, 4))
    assert not k.flags.writeable
    with pytest.raises(ValueError):
        k[0] = 5
    assert Window(3) == window and hash(Window(3)) == hash(window)


def test_window_validation():
    with pytest.raises(ValueError):
        Window(0)
    w = Window(3)
    assert w.size == 7
    assert list(w.indices) == [-3, -2, -1, 0, 1, 2, 3]


def test_lattice_seq_checks_length_and_finiteness():
    w = Window(2)
    with pytest.raises(ValueError):
        LatticeSeq(w, np.zeros(4))
    with pytest.raises(ValueError):
        LatticeSeq(w, np.array([0.0, np.inf, 0, 0, 0]))


def test_lattice_seq_values_are_immutable():
    u = LatticeSeq.spike(Window(2), 0, 1.0)
    with pytest.raises(ValueError):
        u.values[0] = 5.0


def test_coefficient_floor_enforced():
    w = Window(2)
    with pytest.raises(ValueError):
        CoefficientField(w, np.ones(w.size + 1), np.full(w.size, 0.5), b0=1.0)
    with pytest.raises(ValueError):
        CoefficientField(w, -np.ones(w.size + 1), np.ones(w.size), b0=1.0)


def test_table_coefficients_refuse_rewindow():
    w = Window(2)
    field = CoefficientField.from_arrays(w, np.ones(w.size + 1), np.ones(w.size))
    with pytest.raises(ValueError):
        field.with_window(Window(4))


def test_function_coefficients_default_the_floor_to_the_least_b():
    # without b0 the floor is min b on the window, which is then kept on rewindowing
    field = CoefficientField.from_functions(Window(3), lambda k: np.full(k.shape, 2.0),
                                            lambda k: 3.0 + np.abs(k).astype(float))
    assert field.b0 == 3.0 and field.b.tolist() == [6.0, 5.0, 4.0, 3.0, 4.0, 5.0, 6.0]
    assert field.with_window(Window(5)).b0 == 3.0


def test_problem_spec_validation():
    w = Window(2)
    c = CoefficientField.constant(w)
    with pytest.raises(ValueError):
        ProblemSpec(1.0, 1.0, c, CustomNonlinearity.zero(1.5))
    with pytest.raises(ValueError):
        ProblemSpec(2.0, 0.0, c, CustomNonlinearity.zero(2.0))
    with pytest.raises(ValueError):
        ProblemSpec(2.0, 1.0, c, CustomNonlinearity.zero(3.0))  # p mismatch


# ---- forward differences ---------------------------------------------------

def test_forward_diff_zero():
    u = LatticeSeq.zeros(Window(3))
    assert np.all(forward_diff(u) == 0.0)


def test_forward_diff_spike():
    u = LatticeSeq.spike(Window(2), 0, 1.0)
    d = forward_diff(u)
    # entries correspond to k = -2 .. 3; delta at k=0 and k=1
    assert list(d) == [0.0, 0.0, 1.0, -1.0, 0.0, 0.0]


def test_forward_diff_random_elementwise(rng):
    u_vals = rng.standard_normal(5)
    u = LatticeSeq(Window(2), u_vals)
    d = forward_diff(u)
    ext = np.concatenate([[0.0], u_vals, [0.0]])
    expected = [ext[j + 1] - ext[j] for j in range(6)]
    assert np.allclose(d, expected, rtol=0, atol=0)


@settings(max_examples=300, deadline=None)
@given(_ARRAYS)
@example(np.array([np.finfo(float).max, -1e292]))  # max - (-1e292) overflows
def test_diff_many_matches_literal_formula(V):
    with np.errstate(over="ignore", invalid="ignore"):
        got = _diff_many(V)
        assert got.shape == V.shape[:-1] + (V.shape[-1] + 1,)
        assert _bits(got) == _bits(literal_diff(V))


def test_diff_many_keeps_the_sign_of_zero():
    d = _diff_many(np.array([-0.0, 1.0, -0.0]))
    assert _bits(d) == _bits([-0.0, 1.0, -1.0, 0.0])


# ---- norms -----------------------------------------------------------------

def test_weighted_norm_zero():
    prob = make_constant_problem()
    u = LatticeSeq.zeros(prob.window)
    assert weighted_norm(u, prob.coeffs, prob.p) == 0.0


def test_weighted_norm_spike_sqrt3():
    prob = make_constant_problem(K=2)
    u = LatticeSeq.spike(prob.window, 0, 1.0)
    assert weighted_norm(u, prob.coeffs, 2.0) == pytest.approx(np.sqrt(3.0), rel=1e-15)


def test_weighted_norm_matches_direct_summation(rng):
    for _ in range(20):
        prob = random_problem(rng)
        v = rng.standard_normal(prob.window.size)
        got = weighted_norm(LatticeSeq(prob.window, v), prob.coeffs, prob.p)
        want = direct_weighted_norm(v, prob.coeffs.a, prob.coeffs.b, prob.p)
        assert got == pytest.approx(want, rel=1e-13)


def test_weighted_norm_homogeneity(rng):
    prob = random_problem(rng)
    v = rng.standard_normal(prob.window.size)
    u = LatticeSeq(prob.window, v)
    cu = LatticeSeq(prob.window, -2.5 * v)
    assert weighted_norm(cu, prob.coeffs, prob.p) == pytest.approx(
        2.5 * weighted_norm(u, prob.coeffs, prob.p), rel=1e-12)


def test_lp_norms_spike():
    u = LatticeSeq.spike(Window(3), 1, 1.0)
    for q in (1.5, 2.0, 4.0):
        assert lp_norm(u, q) == 1.0
    assert sup_norm(u) == 1.0


def test_lp_norm_two_sites():
    u = LatticeSeq(Window(1), np.array([1.0, 1.0, 0.0]))
    assert lp_norm(u, 2.0) == pytest.approx(np.sqrt(2.0), rel=1e-15)


def test_sup_norm_below_lp_norm(rng):
    for _ in range(50):
        prob = random_problem(rng)
        u = LatticeSeq(prob.window, rng.standard_normal(prob.window.size))
        assert sup_norm(u) <= lp_norm(u, prob.p) + 1e-15


def test_embedding_inequality_chain(rng):
    # sup norm <= lp norm <= b0^(-1/p) * weighted norm
    for _ in range(200):
        prob = random_problem(rng)
        u = LatticeSeq(prob.window, rng.standard_normal(prob.window.size))
        lo = sup_norm(u)
        mid = lp_norm(u, prob.p)
        hi = prob.coeffs.b0 ** (-1.0 / prob.p) * weighted_norm(u, prob.coeffs, prob.p)
        assert lo <= mid * (1 + 1e-14)
        assert mid <= hi * (1 + 1e-14)


# ---- energy ----------------------------------------------------------------

def test_energy_zero_configuration():
    prob = make_constant_problem(nl=LogPower(2.0, 2.0, 2.0))
    assert energy(LatticeSeq.zeros(prob.window), prob) == 0.0


def test_energy_spike_no_drive():
    prob = make_constant_problem(K=2, p=2.0)
    u = LatticeSeq.spike(prob.window, 0, 1.0)
    assert energy(u, prob) == pytest.approx(1.5, rel=1e-15)


def test_energy_parts_identity(rng):
    prob = random_problem(rng)
    u = LatticeSeq(prob.window, rng.standard_normal(prob.window.size))
    parts = energy_parts(u, prob)
    norm = weighted_norm(u, prob.coeffs, prob.p)
    assert parts.norm_part == pytest.approx(norm ** prob.p / prob.p, rel=1e-12)
    assert parts.total == pytest.approx(parts.norm_part - prob.lam * parts.source_part,
                                        rel=1e-12)


def test_energy_even_under_odd_drive(rng):
    prob = make_constant_problem(K=4, nl=LogPower(2.0, 2.0, 2.0))
    v = rng.standard_normal(prob.window.size)
    u, mu = LatticeSeq(prob.window, v), LatticeSeq(prob.window, -v)
    eu, emu = energy(u, prob), energy(mu, prob)
    assert emu == pytest.approx(eu, rel=1e-12)
    assert np.allclose(residual(mu, prob).values, -residual(u, prob).values,
                       rtol=1e-12, atol=1e-14)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([1.5, 2.0, 2.5, 3.0]), st.integers(1, 5), st.sampled_from(["pure", "log"]),
       st.data())
def test_energy_exactly_even_under_odd_drives(p, K, drive, data):
    window = Window(K)
    weights = st.floats(0.1, 10.0)
    a = data.draw(hnp.arrays(np.float64, window.size + 1, elements=weights))
    b = data.draw(hnp.arrays(np.float64, window.size, elements=weights))
    nl = PurePower(p, q=p + data.draw(st.floats(0.5, 2.0))) if drive == "pure" \
        else LogPower(p, mu=2.0, nu=p)
    prob = ProblemSpec(p, data.draw(st.floats(0.1, 2.0)),
                       CoefficientField.from_arrays(window, a, b), nl)
    V = data.draw(hnp.arrays(np.float64, (3, window.size), elements=st.floats(-50.0, 50.0)))
    assert nl.is_odd
    assert _bits(energy_many(-V, prob)) == _bits(energy_many(V, prob))


def test_energy_not_even_under_a_non_odd_drive():
    # f = t^2 is even, so F = t^3 / 3 is odd and J(-u) - J(u) = 2 lam sum F(u)
    nl = CustomNonlinearity(2.0, lambda k, t: t * t, F_scalar=lambda k, t: t ** 3 / 3.0)
    prob = make_constant_problem(K=2, nl=nl)
    V = LatticeSeq.spike(prob.window, 0, 1.0).values
    assert not nl.is_odd
    assert energy_many(-V, prob) - energy_many(V, prob) == pytest.approx(2.0 / 3.0, rel=1e-12)


def test_phi_homogeneity(rng):
    for _ in range(20):
        prob = random_problem(rng)
        v = rng.standard_normal(prob.window.size)
        c = float(rng.uniform(0.3, 4.0)) * float(rng.choice([-1.0, 1.0]))
        base = energy_parts(LatticeSeq(prob.window, v), prob).norm_part
        scaled = energy_parts(LatticeSeq(prob.window, c * v), prob).norm_part
        assert scaled == pytest.approx(abs(c) ** prob.p * base, rel=1e-12)


# ---- residual ---------------------------------------------------------------

def test_zero_is_critical_when_drive_vanishes_at_zero():
    prob = make_constant_problem(nl=LogPower(2.0, 2.0, 2.0))
    r = residual(LatticeSeq.zeros(prob.window), prob)
    assert np.all(r.values == 0.0)


def test_residual_hand_values_cubic_spike():
    prob = make_constant_problem(K=2, p=3.0, nl=CustomNonlinearity.zero(3.0))
    u = LatticeSeq.spike(prob.window, 0, 1.0)
    r = residual(u, prob)
    assert list(r.values) == [0.0, -1.0, 3.0, -1.0, 0.0]


def test_residual_is_energy_gradient(rng):
    checked = 0
    for _ in range(25):
        prob = random_problem(rng)
        v = rng.standard_normal(prob.window.size) * 1.5
        d = np.diff(v, prepend=0.0, append=0.0)
        keep = (np.abs(d[:-1]) > 1e-3) & (np.abs(d[1:]) > 1e-3) & (np.abs(v) > 1e-3)
        if not np.any(keep):
            continue
        grad = fd_gradient(v, prob)
        r = residual_many(v, prob)
        scale = max(1e-3, float(np.max(np.abs(r))) * 1e-3)
        rel = np.abs(grad - r) / np.maximum(np.abs(r), scale)
        assert np.max(rel[keep]) < 1e-6
        checked += 1
    assert checked >= 15


# ---- tail mass / cerami -----------------------------------------------------

@pytest.mark.parametrize("K", [1, 3, 25])
def test_stiffness_is_the_one_site_formula_and_read_only(K):
    window = Window(K)
    rng = np.random.default_rng(K)
    fields = [CoefficientField.polynomial(window, exponent=1.5, a=0.3),
              CoefficientField.from_arrays(window, rng.uniform(0.1, 10.0, 2 * K + 2),
                                           rng.uniform(1.0, 1e3, 2 * K + 1))]
    for c in fields:
        s = c.stiffness
        assert np.array_equal(s, (c.a[:-1] + c.a[1:]) + c.b)
        pos = np.arange(window.size)
        assert np.array_equal(s, c.a[pos] + c.a[pos + 1] + c.b[pos])
        assert c.stiffness is s and not s.flags.writeable
        with pytest.raises(ValueError):
            s[0] = 0.0
        with pytest.raises(AttributeError):
            c.stiffness = s


def test_tail_mass_spike():
    u = LatticeSeq.spike(Window(3), 0, 1.0)
    assert tail_mass(u, 1, 2.0) == 0.0
    assert tail_mass(u, 0, 2.0) == 0.0  # |k| > 0 excludes the support


def test_tail_mass_full_support():
    u = LatticeSeq.spike(Window(3), 2, 2.0)
    assert tail_mass(u, 1, 2.0) == pytest.approx(2.0, rel=1e-15)


def test_tail_mass_partition_identity(rng):
    for _ in range(20):
        prob = random_problem(rng)
        v = rng.standard_normal(prob.window.size)
        u = LatticeSeq(prob.window, v)
        p = prob.p
        total = tail_mass(u, 0, p) ** p + abs(u.value_at(0)) ** p
        assert total == pytest.approx(lp_norm(u, p) ** p, rel=1e-12)


def test_tail_mass_monotone_and_vanishing(rng):
    prob = random_problem(rng, K=5)
    u = LatticeSeq(prob.window, rng.standard_normal(prob.window.size))
    vals = [tail_mass(u, h, prob.p) for h in range(7)]
    assert all(vals[i] >= vals[i + 1] - 1e-15 for i in range(len(vals) - 1))
    assert vals[5] == 0.0 and vals[6] == 0.0


def test_cerami_metric_zero_at_trivial_critical_point():
    prob = make_constant_problem(nl=LogPower(2.0, 2.0, 2.0))
    assert cerami_metric(LatticeSeq.zeros(prob.window), prob) == 0.0
