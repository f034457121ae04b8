import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dplhom import (BasisSplit, CoefficientField, CustomNonlinearity,
                    FountainGeometryError, LatticeSeq,
                    LogPower, ProblemSpec, PurePower, SamplingPlan, Window,
                    check_hypothesis, embedding_constant, embedding_maximizer,
                    embedding_profile,
                    energy_many, fountain_table, lp_norm, sample_sphere,
                    sup_norm_constant, superlinearity_threshold,
                    verify_energy_ceiling, verify_energy_floor,
                    weighted_norm, weighted_norm_many, y_sphere_radius,
                    z_sphere_radius)
import dplhom.fountain as fountain
from dplhom.fountain import spiral_sites
from oracles import (one_shot_sphere_sample, per_point_threshold, power_method_lower_bound,
                     ratio_ascent, vertex_maximum_constant)


@pytest.fixture(scope="module")
def coeffs6():
    return CoefficientField.polynomial(Window(6), exponent=2.0)


def quadratic_form_matrix(coeffs):
    """Dense A with ||u||^2 = u^T A u for p = 2 (independent construction)."""
    n = coeffs.window.size
    A = np.zeros((n, n))
    a, b = coeffs.a, coeffs.b
    for i in range(n):
        A[i, i] = a[i] + a[i + 1] + b[i]
        if i + 1 < n:
            A[i, i + 1] = A[i + 1, i] = -a[i + 1]
    return A


def power_iteration_largest(M, iters=5000, seed=0):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(M.shape[0])
    for _ in range(iters):
        v = M @ v
        v /= np.linalg.norm(v)
    return float(v @ M @ v)


def test_spiral_site_order():
    assert list(spiral_sites(Window(3))) == [0, 1, -1, 2, -2, 3, -3]


def test_split_blocks_overlap(coeffs6):
    split = BasisSplit(coeffs6, 2.0, 4)
    assert list(split.y_sites) == [0, 1, -1, 2]
    assert split.z_sites[0] == 2  # e_n belongs to both blocks
    assert split.support_radius == 2


def test_split_index_bounds(coeffs6):
    with pytest.raises(ValueError):
        BasisSplit(coeffs6, 2.0, 0)
    with pytest.raises(ValueError):
        BasisSplit(coeffs6, 2.0, coeffs6.window.size + 1)


# ---- beta estimates -----------------------------------------------------------

def test_beta_one_dimensional_closed_form(coeffs6):
    # Z_{2K+1} is spanned by the spike at the last spiral site
    site = spiral_sites(coeffs6.window)[-1]
    pos = site + coeffs6.window.half_width
    for p in (1.5, 2.0, 3.0):
        split = BasisSplit(coeffs6, p, coeffs6.window.size)
        spike_norm = (coeffs6.a[pos] + coeffs6.a[pos + 1] + coeffs6.b[pos]) ** (1.0 / p)
        for q in (p, p + 1.0, p + 2.0):
            got = embedding_constant(split, q)
            assert got == pytest.approx(1.0 / spike_norm, rel=1e-12)


def test_beta_matches_eigen_oracle(coeffs6):
    A = quadratic_form_matrix(coeffs6)
    for n in (1, 4, 9):
        split = BasisSplit(coeffs6, 2.0, n)
        pos = split.z_sites + coeffs6.window.half_width
        As = A[np.ix_(pos, pos)]
        lam_max_inv = np.linalg.eigvalsh(As)[0]
        oracle = 1.0 / np.sqrt(lam_max_inv)
        pi = power_iteration_largest(np.linalg.inv(As))
        assert np.sqrt(pi) == pytest.approx(oracle, rel=1e-9)
        got, u = embedding_maximizer(split, 2.0)
        assert got == pytest.approx(oracle, rel=1e-12)
        # the witness is a unit vector on Z_n whose ratio is the bracket's lower end
        assert weighted_norm_many(u, coeffs6, 2.0) == pytest.approx(1.0, rel=1e-12)
        assert np.all(np.delete(u, pos) == 0.0)
        assert np.linalg.norm(u) == pytest.approx(oracle, rel=1e-10)


def test_beta_profile_nonincreasing(coeffs6):
    n_list = list(range(1, coeffs6.window.size + 1))
    for p, q in ((2.0, 2.0), (2.0, 4.0), (1.5, 1.5), (2.5, 2.5), (2.5, 4.0)):
        prof = embedding_profile(coeffs6, p, q, n_list)
        assert np.all(np.diff(prof) <= 1e-9)


def _z_block(A, coeffs, n):
    pos = BasisSplit(coeffs, 2.0, n).z_sites + coeffs.window.half_width
    return A[np.ix_(pos, pos)]


def test_beta_profile_p2_is_the_eigen_value(coeffs6):
    A = quadratic_form_matrix(coeffs6)
    n_list = list(range(1, coeffs6.window.size + 1))
    prof = embedding_profile(coeffs6, 2.0, 2.0, n_list)
    want = [np.linalg.eigvalsh(_z_block(A, coeffs6, n))[0] ** -0.5 for n in n_list]
    np.testing.assert_allclose(prof, want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("q", [2.0, 3.0, 4.0])
def test_beta_profile_p2_bounds_the_sampled_constant(coeffs6, q):
    n_list = list(range(1, coeffs6.window.size + 1))
    prof = embedding_profile(coeffs6, 2.0, q, n_list)
    for n, bound in zip(n_list, prof):
        sampled, _ = ratio_ascent(coeffs6, 2.0, q, BasisSplit(coeffs6, 2.0, n).z_sites, seed=n)
        assert sampled <= bound * (1 + 1e-12)


def test_beta_q_profile_brackets_power_method_on_reference():
    coeffs = CoefficientField.polynomial(Window(50), exponent=2.0)
    A = quadratic_form_matrix(coeffs)
    n_list = list(range(1, coeffs.window.size + 1))
    prof = embedding_profile(coeffs, 2.0, 4.0, n_list)
    for n, upper in zip(n_list, prof):
        lower = power_method_lower_bound(_z_block(A, coeffs, n), 4.0)
        assert lower <= upper * (1 + 1e-12)
        assert upper <= 1.10 * lower


def test_beta_profile_p2_above_the_sampled_ascent_on_reference():
    # beta_{2,n} that the ratio ascent returned for the criterion-7
    # coefficients (seed 2024): it stopped short of the sup at small n
    ascent = {1: 0.633868615557011, 2: 0.519872638076324,
              3: 0.5116326092311738, 5: 0.3826114354562218}
    coeffs = CoefficientField.polynomial(Window(50), exponent=2.0)
    prof = embedding_profile(coeffs, 2.0, 2.0, sorted(ascent))
    ratio = prof / np.array([ascent[n] for n in sorted(ascent)])
    assert np.all(ratio > 1.001)
    assert ratio[0] > 1.10 and ratio[2] > 1.01  # n = 1 and n = 3


def test_beta_profile_p2_draws_no_random_numbers(coeffs6, monkeypatch):
    # neither the closed form at p = 2 nor the bracket off it samples
    def no_rng(*args, **kwargs):
        raise AssertionError("the profile must not sample")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    for p in (2.0, 1.5, 3.0):
        prof = embedding_profile(coeffs6, p, 4.0, [1, 5, 13])
        assert np.all(np.isfinite(prof))


def test_beta_profile_p15_bounds_the_spike_on_reference():
    # the sampled ascent returned 0.165 at n = 1, below the 0.48075 that the
    # spike at k = 0 attains; the sup is 0.5896622
    coeffs = CoefficientField.polynomial(Window(50), exponent=2.0)
    got = embedding_profile(coeffs, 1.5, 1.5, [1])[0]
    spike = 3.0 ** (-1.0 / 1.5)  # a(0) + a(1) + b(0) = 3
    sampled, _ = ratio_ascent(coeffs, 1.5, 1.5, spiral_sites(coeffs.window))
    assert got >= spike and got >= sampled
    assert got == pytest.approx(0.5896622, rel=1e-6)


def _lower_end(split, memo, q):
    """Largest ||v||_q / ||v|| over the run eigenvectors of Z_n, with v put on the window."""
    best = 0.0
    for pos, _, _, v in fountain._z_brackets(split, memo):
        u = np.zeros(split.window.size)
        u[pos] = v
        best = max(best, lp_norm(LatticeSeq(split.window, u), q)
                   / weighted_norm(LatticeSeq(split.window, u), split.coeffs, split.p))
    return best


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_beta_bracket_is_sound_and_tight_on_reference(p):
    coeffs = CoefficientField.polynomial(Window(50), exponent=2.0)
    n_list = list(range(1, coeffs.window.size + 1))
    prof = embedding_profile(coeffs, p, p + 2.0, n_list)
    assert np.array_equal(prof, embedding_profile(coeffs, p, p, n_list))  # beta_q = beta_p
    assert np.all(np.diff(prof) <= 0.0)
    memo = {}
    for n, upper in zip(n_list, prof):
        split = BasisSplit(coeffs, p, n)
        lower = _lower_end(split, memo, p)
        assert lower <= upper <= lower * (1.0 + 1e-6)
        if n in (1, 2, 3, 51, 101):
            sampled, _ = ratio_ascent(coeffs, p, p, split.z_sites, seed=n)
            assert sampled <= lower * (1.0 + 1e-12)


@pytest.mark.parametrize("steps", [0, 1, 3])
def test_beta_bracket_is_sound_before_it_converges(coeffs6, monkeypatch, steps):
    # every iterate's Picone bound is an upper bound on beta, not only the
    # converged one; v = 1 alone bounds it by min over the run of
    # b(k) plus a at the run's two ends
    n_list = list(range(1, coeffs6.window.size + 1))
    sups = {p: embedding_profile(coeffs6, p, p, n_list) for p in (1.5, 3.0)}
    monkeypatch.setattr(fountain, "_EIGEN_STEPS", steps)
    for p, sup in sups.items():
        got = embedding_profile(coeffs6, p, p, n_list)
        assert np.all(got >= sup * (1.0 - 1e-12))
        if steps == 0:  # Z_1 is the whole window, and b(0) = 1 is its least b
            assert got[0] == 1.0


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.floats(1.3, 4.0), st.integers(0, 2 ** 32 - 1))
def test_beta_bracket_bounds_every_drawn_vector(K, p, seed):
    rng = np.random.default_rng(seed)
    window = Window(K)
    coeffs = CoefficientField.from_arrays(window, rng.uniform(0.05, 5.0, window.size + 1),
                                          rng.uniform(0.05, 5.0, window.size))
    n_list = list(range(1, window.size + 1))
    prof = embedding_profile(coeffs, p, p, n_list)
    # (at p = 2 the closed form may rise by rounding)
    assert np.all(np.isfinite(prof)) and np.all(np.diff(prof) <= 1e-12 * prof[:-1])
    for n, upper in zip(n_list, prof):
        sites = BasisSplit(coeffs, p, n).z_sites
        sampled, _ = ratio_ascent(coeffs, p, p, sites, starts=2, seed=n, iters=150)
        W = np.zeros((64, window.size))
        W[:, sites + K] = rng.standard_normal((64, sites.size))
        drawn = np.sum(np.abs(W) ** p, axis=1) ** (1.0 / p) / weighted_norm_many(W, coeffs, p)
        assert max(sampled, float(np.max(drawn))) <= upper * (1.0 + 1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 40), st.integers(0, 2 ** 32 - 1))
@example(m=5, seed=24838)  # rounding put the Picone bound 1 ulp above the Rayleigh quotient
def test_run_bracket_at_p2_is_the_eigenvalue(m, seed):
    rng = np.random.default_rng(seed)
    a, b = rng.uniform(0.05, 5.0, m + 1), rng.uniform(0.05, 5.0, m)
    A = np.diag(a[:-1] + a[1:] + b) - np.diag(a[1:-1], 1) - np.diag(a[1:-1], -1)
    want = np.linalg.eigvalsh(A)[0]
    lam_lo, lam_hi, v = fountain._run_bracket(a, b, 2.0)
    assert lam_lo <= lam_hi
    assert lam_lo == pytest.approx(want, rel=1e-10)
    assert lam_hi == pytest.approx(want, rel=1e-10)
    assert np.all(v > 0.0)


def test_beta_bracket_holds_where_the_eigenvector_underflows():
    # at p = 1.3 on b = 1 + k^2 the first eigenvector of the full window
    # falls below the smallest float within |k| <= 50; iterates whose
    # phi_p(v) underflows are refused, and the bound stays above a witness
    coeffs = CoefficientField.polynomial(Window(50), exponent=2.0)
    split = BasisSplit(coeffs, 1.3, 1)
    upper = embedding_constant(split, 1.3)
    _, u = embedding_maximizer(split, 1.3)
    assert np.all(np.abs(u[40:61]) > 0.0)
    assert lp_norm(LatticeSeq(coeffs.window, u), 1.3) <= upper
    assert upper == pytest.approx(_lower_end(split, {}, 1.3), rel=1e-3)


def test_beta_without_a_positive_picone_bound_is_infinite(monkeypatch):
    # a run whose bracket certifies nothing (lam_lo <= 0) makes beta infinite
    # and the row infeasible, never a smaller number
    monkeypatch.setattr(fountain, "_run_bracket", lambda a, b, p: (0.0, 1.0, np.ones(b.size)))
    coeffs = CoefficientField.polynomial(Window(3), exponent=2.0)
    assert np.all(embedding_profile(coeffs, 1.5, 3.5, [1, 2, 7]) == math.inf)
    prob = ProblemSpec(1.5, 1.0, coeffs, LogPower(1.5, 2.0, 1.5))
    rows = fountain_table(prob, q=3.5, d=0.2, n_list=[1, 2], seed=1, samples=20)
    assert [(r.beta_p, r.feasible, r.radius_z) for r in rows] == [(math.inf, False, None)] * 2


@pytest.mark.parametrize("p, bracketed", [(2.0, False), (2.5, True)])
def test_fountain_table_brackets_beta_only_off_p2(monkeypatch, p, bracketed):
    calls = []
    real = fountain._run_bracket

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(fountain, "_run_bracket", spy)
    coeffs = CoefficientField.polynomial(Window(4), exponent=2.0)
    prob = ProblemSpec(p, 1.0, coeffs, LogPower(p, 2.0, p))
    rows = fountain_table(prob, q=4.0, d=0.2, n_list=[1, 2, 3], seed=1, samples=50)
    assert bool(calls) is bracketed
    # n = 1, 2, 3 have the runs -4..4, then -4..-1 and 1..4, then -4..-1 and
    # 2..4: each distinct run is solved once, and beta_q reuses beta_p
    assert len(calls) == (4 if bracketed else 0)
    assert all(r.feasible and r.note == "" for r in rows)
    assert all(r.beta_q == r.beta_p for r in rows) is bracketed  # q = 4 > p


def test_beta_rejects_q_below_p(coeffs6):
    with pytest.raises(ValueError):
        embedding_constant(BasisSplit(coeffs6, 2.0, 1), 1.5)
    for p in (2.0, 2.5):
        with pytest.raises(ValueError):
            embedding_profile(coeffs6, p, p - 0.5, [1, 2])


def test_lq_below_lp_on_sequences(rng):
    w = Window(5)
    for _ in range(50):
        u = LatticeSeq(w, rng.standard_normal(w.size))
        assert lp_norm(u, 4.0) <= lp_norm(u, 2.0) * (1 + 1e-14)


# ---- radius formulas -----------------------------------------------------------

def test_radius_formula_arithmetic():
    r = z_sphere_radius(d=1.0, q=4.0, lam=1.0, p=2.0, beta_p=0.1, beta_q=0.1)
    assert r == pytest.approx(np.sqrt(2400.0), rel=1e-14)


def test_radius_infeasible_at_boundary():
    beta_p = (1.0 / (2.0 * 2.0 * 1.0 * 1.0)) ** 0.5  # margin exactly zero
    assert z_sphere_radius(1.0, 4.0, 1.0, 2.0, beta_p, 0.1) is None


def test_radius_grows_as_betas_shrink():
    r1 = z_sphere_radius(1.0, 4.0, 1.0, 2.0, 1e-2, 1e-2)
    r2 = z_sphere_radius(1.0, 4.0, 1.0, 2.0, 1e-4, 1e-4)
    assert r2 > 100.0 * r1


def test_radius_argument_validation():
    with pytest.raises(ValueError):
        z_sphere_radius(0.0, 4.0, 1.0, 2.0, 0.1, 0.1)
    with pytest.raises(ValueError):
        z_sphere_radius(1.0, 2.0, 1.0, 2.0, 0.1, 0.1)


# ---- comparison constant -------------------------------------------------------

def test_sup_norm_constant_one_spike(coeffs6):
    split = BasisSplit(coeffs6, 2.0, 1)
    want = (coeffs6.a[6] + coeffs6.a[7] + coeffs6.b[6]) / 2.0  # = 1.5
    assert sup_norm_constant(split, lam=1.0) == pytest.approx(want, rel=1e-12)


def test_sup_norm_constant_nondecreasing():
    coeffs = CoefficientField.polynomial(Window(12), exponent=2.0)
    vals = [sup_norm_constant(BasisSplit(coeffs, 2.0, n), 1.0)
            for n in range(1, coeffs.window.size + 1)]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_sup_norm_constant_dominates_samples(coeffs6, rng):
    split = BasisSplit(coeffs6, 2.0, 5)
    c = sup_norm_constant(split, lam=1.0)
    pos = split.y_sites + coeffs6.window.half_width
    for _ in range(200):
        v = np.zeros(coeffs6.window.size)
        v[pos] = rng.uniform(-1.0, 1.0, size=pos.size)
        peak = np.max(np.abs(v))
        if peak == 0.0:
            continue
        v /= peak
        lhs = weighted_norm(LatticeSeq(coeffs6.window, v), coeffs6, 2.0) ** 2 / 2.0
        assert lhs <= 1.0 * c * (1 + 1e-12)


def test_sup_norm_constant_weak_coupling_row_sum():
    # with near-vanishing difference weights the vertex maximum is just the
    # b mass of the support: C_n ~ (sum of b over Y_n sites) / (p lam)
    coeffs = CoefficientField.constant(Window(6), a=1e-9, b=1.0)
    for n in (1, 3, 5):
        split = BasisSplit(coeffs, 2.0, n)
        got = sup_norm_constant(split, lam=1.0)
        assert got == pytest.approx(n / 2.0, rel=1e-6)


def test_sup_norm_constant_covers_every_vertex_with_varying_a():
    # a single-flip search over sign vertices stopped at 396.270 here, below
    # the 396.747 of the alternating vertex, so its C_n was no upper bound
    rng = np.random.default_rng(1)
    a = rng.uniform(0.01, 5.0, size=18)
    b = rng.uniform(0.5, 50.0, size=17)
    split = BasisSplit(CoefficientField.from_arrays(Window(8), a, b), 2.5, 17)
    want = vertex_maximum_constant(split, 0.7)
    got = sup_norm_constant(split, 0.7)
    assert got >= want
    assert got == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("p", [1.5, 2.0, 2.5, 3.0])
def test_sup_norm_constant_matches_vertex_oracle(p):
    rng = np.random.default_rng(int(10 * p))
    for K, n in ((3, 7), (5, 4), (6, 13), (7, 14)):
        window = Window(K)
        a = rng.uniform(0.01, 5.0, size=window.size + 1)
        b = rng.uniform(0.5, 50.0, size=window.size)
        lam = float(rng.uniform(0.1, 2.0))
        split = BasisSplit(CoefficientField.from_arrays(window, a, b), p, n)
        assert sup_norm_constant(split, lam) == pytest.approx(
            vertex_maximum_constant(split, lam), rel=1e-14)
    split = BasisSplit(CoefficientField.polynomial(Window(6), exponent=2.0), p, 13)
    assert sup_norm_constant(split, 1.0) == pytest.approx(
        vertex_maximum_constant(split, 1.0), rel=1e-14)


# ---- superlinearity threshold ----------------------------------------------------

def test_threshold_closed_form_quartic():
    prob = ProblemSpec(2.0, 1.0, CoefficientField.constant(Window(3)),
                       PurePower(2.0, 4.0))
    T = superlinearity_threshold(prob, c_sup=1.0, h_n=0)
    assert T == pytest.approx(np.sqrt(8.0), rel=1e-9)


def test_threshold_no_drive_errors():
    prob = ProblemSpec(2.0, 1.0, CoefficientField.constant(Window(3)),
                       CustomNonlinearity.zero(2.0))
    with pytest.raises(FountainGeometryError,
                       match=r"^no threshold T .*: the margin F - 2C\|t\|\^p is still "
                             r"-2\.000e\+20 at t = 1\.00e\+10$"):
        superlinearity_threshold(prob, c_sup=1.0, h_n=0, t_hi=1e10)


def _wavy_drive(p=2.0, a=2.2):
    """F(k, t) = |t|^a (2 + sin(3 ln|t|)) / (1 + k^2): F / |t|^p is not monotone."""
    def F(k, t):
        s = abs(t)
        return 0.0 if s == 0.0 else s ** a * (2.0 + math.sin(3.0 * math.log(s))) / (1.0 + k * k)

    def f(k, t):
        s = abs(t)
        if s == 0.0:
            return 0.0
        ln = 3.0 * math.log(s)
        return math.copysign(s ** (a - 1.0) * (a * (2.0 + math.sin(ln)) + 3.0 * math.cos(ln)),
                             t) / (1.0 + k * k)
    return CustomNonlinearity(p, f, F_scalar=F, odd=True, name="wavy")


_THRESHOLD_DRIVES = {
    "pure_power_q4": PurePower(2.0, 4.0),
    "pure_power_p3_q3.5": PurePower(3.0, 3.5, c=0.5),
    "log_power_nu_eq_p": LogPower(2.0, 2.0, 2.0),
    "log_power_p3": LogPower(3.0, 1.5, 3.0),
    "zero_p2": CustomNonlinearity.zero(2.0),
    "zero_p3": CustomNonlinearity.zero(3.0),
    "wavy": _wavy_drive(),
    # F by the 2F1 form (nu != p)
    "log_power_nu3": LogPower(2.0, 2.0, 3.0),
    "log_power_p1.5_nu1": LogPower(1.5, 2.0, 1.0),
    # w(0) = w(+-1) = 1: the least weight ties on |k| <= 1
    "log_power_abs_nonzero": LogPower(2.0, 2.0, 2.0, weight_convention="abs_nonzero"),
    "cubic": CustomNonlinearity(2.0, lambda k, t: t ** 3 / (1.0 + abs(k)),
                                F_scalar=lambda k, t: t ** 4 / (4.0 * (1.0 + abs(k))),
                                odd=True, name="cubic"),
}


@pytest.mark.parametrize("h_n", [0, 1, 3, 4])
@pytest.mark.parametrize("c_sup", [0.5, 3.0, 422.00000000000006])
@pytest.mark.parametrize("drive", sorted(_THRESHOLD_DRIVES))
def test_threshold_screen_matches_per_point_scan(drive, c_sup, h_n):
    nl = _THRESHOLD_DRIVES[drive]
    prob = ProblemSpec(nl.p, 1.0, CoefficientField.constant(Window(4)), nl)
    try:
        want = per_point_threshold(prob, c_sup, h_n)
    except FountainGeometryError as exc:
        with pytest.raises(FountainGeometryError) as got:
            superlinearity_threshold(prob, c_sup, h_n)
        assert str(got.value).startswith(str(exc) + ": ")
    else:
        got = superlinearity_threshold(prob, c_sup, h_n)
        assert type(got) is float and got == want


def test_threshold_probes_share_one_weight_array(monkeypatch):
    # a factorized drive is probed at the one k of least weight: after the
    # weights of |k| <= h_n pick it, every probe evaluates F on that k row,
    # so a LogPower drive computes w once for all of them
    nl = LogPower(2.0, 2.0, 2.0)
    plain = LogPower.weight
    calls = []

    def recorded(self, k):
        calls.append((np.array(k), plain(self, k)))
        return calls[-1][1]

    monkeypatch.setattr(LogPower, "weight", recorded)
    prob = ProblemSpec(2.0, 1.0, CoefficientField.constant(Window(4)), nl)
    superlinearity_threshold(prob, c_sup=3.0, h_n=2)
    (k_all, _), (k_row, w_row), *probes = calls
    assert k_all.tolist() == [-2, -1, 0, 1, 2]
    assert k_row.tolist() == [[-2]]
    assert w_row.tolist() == [[3.0 ** -2.0]]
    assert len(probes) > 5
    assert all(w is w_row for _, w in probes)


def test_threshold_scans_every_k_of_an_unfactorized_drive(monkeypatch):
    nl = _THRESHOLD_DRIVES["cubic"]
    seen = []
    plain = CustomNonlinearity.F

    def recorded(self, k, t):
        seen.append(np.shape(k))
        return plain(self, k, t)

    monkeypatch.setattr(CustomNonlinearity, "F", recorded)
    prob = ProblemSpec(2.0, 1.0, CoefficientField.constant(Window(4)), nl)
    superlinearity_threshold(prob, c_sup=3.0, h_n=2)
    assert seen and set(seen) == {(5, 1)}


def test_threshold_note_names_the_overflowing_term():
    coeffs = CoefficientField.constant(Window(3))
    zero3 = ProblemSpec(3.0, 1.0, coeffs, CustomNonlinearity.zero(3.0))
    with pytest.raises(FountainGeometryError, match=r": 2C\|t\|\^p became non-finite at t = "):
        superlinearity_threshold(zero3, c_sup=1.0, h_n=0)
    sink = CustomNonlinearity(2.0, lambda k, t: -4.0 * t ** 3,
                              F_scalar=lambda k, t: -np.float64(t) ** 4, name="sink")
    with pytest.raises(FountainGeometryError, match=r": F became non-finite at t = 1\.[0-9]{2}e\+77$"):
        superlinearity_threshold(ProblemSpec(2.0, 1.0, coeffs, sink), c_sup=1.0, h_n=1)


def test_threshold_at_the_first_grid_point():
    # F = t^4 / 4 >= 2e-12 t^2 from t = 2.8e-6, below the search's first T = 1e-3
    prob = ProblemSpec(2.0, 1.0, CoefficientField.constant(Window(3)), PurePower(2.0, 4.0))
    T = superlinearity_threshold(prob, c_sup=1e-12, h_n=0)
    assert T == 1e-3 == per_point_threshold(prob, 1e-12, 0)


def test_threshold_note_when_no_nonnegative_margin_lasts_a_decade():
    # F = 4 t^2 only on 9 <= |t| <= 11: the margin is nonnegative at t_hi = 10,
    # but every [T, 10T] reaches t > 11, where F is 0
    band = CustomNonlinearity(2.0, lambda k, t: 8.0 * t if 9.0 <= abs(t) <= 11.0 else 0.0,
                              F_scalar=lambda k, t: 4.0 * t * t if 9.0 <= abs(t) <= 11.0 else 0.0,
                              odd=True, name="band")
    prob = ProblemSpec(2.0, 1.0, CoefficientField.constant(Window(3)), band)
    with pytest.raises(FountainGeometryError,
                       match=r": every grid point with a nonnegative margin fails on \[T, 10T\]$"):
        superlinearity_threshold(prob, c_sup=1.0, h_n=1, t_hi=10.0)


@pytest.mark.parametrize("h_n", [0, 50, 80, 100])
@pytest.mark.parametrize("c_sup", [0.5, 3.0])
def test_threshold_with_weights_that_underflow_to_zero(c_sup, h_n):
    # at mu = 500, w(k) = (1 + |k|)^-500 is 0.0 from |k| = 4 on; the weight
    # contract allows w = 0, and the one-row scan still equals the plain scan
    nl = LogPower(2.0, 500.0, 2.0)
    assert np.count_nonzero(nl.weight(np.arange(-100, 101)) == 0.0) == 194
    prob = ProblemSpec(2.0, 1.0, CoefficientField.constant(Window(100)), nl)
    try:
        want = per_point_threshold(prob, c_sup, h_n)
    except FountainGeometryError as exc:
        with pytest.raises(FountainGeometryError) as got:
            superlinearity_threshold(prob, c_sup, h_n)
        assert str(got.value).startswith(str(exc) + ": ")
    else:
        assert superlinearity_threshold(prob, c_sup, h_n) == want


def test_y_radius_strictly_dominates():
    assert y_sphere_radius(1.0, 2.0, 1.5, 33.0, 8.9) > 8.9
    assert y_sphere_radius(1.0, 2.0, 1e-9, 1e-9, 7.0) > 7.0


# ---- sphere sampling and the two conditions ---------------------------------------

def test_sample_sphere_radius_and_support(coeffs6):
    split = BasisSplit(coeffs6, 2.0, 4)
    for block, sites in (("Y", split.y_sites), ("Z", split.z_sites)):
        V = sample_sphere(split, block, 3.7, 64, seed=9)
        norms = weighted_norm_many(V, coeffs6, 2.0)
        assert np.allclose(norms, 3.7, rtol=1e-12)
        off = np.setdiff1d(coeffs6.window.indices, sites) + 6
        assert np.all(V[:, off] == 0.0)


def test_sample_sphere_seed_reproducible(coeffs6):
    split = BasisSplit(coeffs6, 2.0, 3)
    A = sample_sphere(split, "Z", 1.0, 32, seed=5)
    B = sample_sphere(split, "Z", 1.0, 32, seed=5)
    assert np.array_equal(A, B)


def _quartic_signed_zero(k, t):  # F(k, 0) is -0.0, which the drive contract allows
    return np.float64(t) ** 4 / (4.0 * (1.0 + abs(k))) if t else -0.0


_BLOCK = fountain._SPHERE_BLOCK  # sample counts straddle it

_SPHERE_DRIVES = {
    "log_power_p1.5": LogPower(1.5, 2.0, 1.5),
    "log_power_p1.5_nu2.5": LogPower(1.5, 2.0, 2.5),
    "log_power_p2": LogPower(2.0, 2.0, 2.0),
    "log_power_p2_nu3": LogPower(2.0, 2.0, 3.0, weight_convention="abs_nonzero"),
    "log_power_p3": LogPower(3.0, 1.5, 3.0),
    "log_power_p3_nu2": LogPower(3.0, 2.0, 2.0),
    "pure_power_p2": PurePower(2.0, 4.0),
    "pure_power_p1.5": PurePower(1.5, 2.5, c=0.5),
    "custom": CustomNonlinearity(2.0, lambda k, t: t ** 3 / (1.0 + abs(k)),
                                 F_scalar=_quartic_signed_zero, odd=True, name="quartic"),
}


@settings(max_examples=60, deadline=None)
@given(drive=st.sampled_from(sorted(_SPHERE_DRIVES)), K=st.integers(1, 7),
       n_frac=st.floats(0.0, 1.0), block=st.sampled_from("YZ"),
       count=st.sampled_from(sorted({1, 127, 128, 129, _BLOCK - 1, _BLOCK, _BLOCK + 1, 1000})),
       seed=st.integers(0, 2 ** 32 - 1),
       radius=st.sampled_from([0.3, 2.5, 40.0, 1e80, 1e160]), polynomial=st.booleans())
@example(drive="custom", K=7, n_frac=0.0, block="Z", count=1000, seed=0, radius=2.5,
         polynomial=True)
@example(drive="log_power_p3", K=7, n_frac=1.0, block="Y", count=_BLOCK + 1, seed=5, radius=1e80,
         polynomial=False)
@example(drive="log_power_p2", K=50, n_frac=0.3, block="Z", count=1000, seed=107, radius=40.0,
         polynomial=True)  # the width of the benchmark's rows
def test_blocked_sphere_checks_match_the_one_shot_sample(drive, K, n_frac, block, count, seed,
                                                         radius, polynomial):
    # the blocked, support-only energies are those of energy_many on the
    # full-width one-shot sample, bit for bit, and so is the extreme row;
    # where some energy is not finite, the error counts every bad sample
    nl = _SPHERE_DRIVES[drive]
    window = Window(K)
    coeffs = (CoefficientField.polynomial(window, exponent=2.0) if polynomial
              else CoefficientField.constant(window, a=0.7, b=1.3))
    prob = ProblemSpec(nl.p, 1.0, coeffs, nl)
    split = BasisSplit(coeffs, nl.p, 1 + round(n_frac * (window.size - 1)))
    V = one_shot_sphere_sample(split, block, radius, count, seed)
    assert np.array_equal(sample_sphere(split, block, radius, count, seed), V)
    with np.errstate(over="ignore", invalid="ignore"):
        want = energy_many(V, prob)
    bad = int(np.sum(~np.isfinite(want)))
    for pick in (np.argmin, np.argmax):
        if bad:
            with pytest.raises(FountainGeometryError,
                               match=rf" at {bad} of {count} samples, so the {block}_n sphere "):
                fountain._sphere_energies(split, prob, block, radius, count, seed, pick)
            continue
        E, i, row = fountain._sphere_energies(split, prob, block, radius, count, seed, pick)
        assert np.array_equal(E, want)
        assert i == pick(want) and np.array_equal(row, V[i])
    if not bad and block == "Z":
        floor = float(np.median(want))  # about half the samples fall below it
        chk = verify_energy_floor(split, prob, radius, floor, count, seed)
        assert chk.extreme_energy == np.min(want)
        assert chk.violations == np.sum(want < floor - 1e-9)
        assert (chk.witness is None) == (chk.violations == 0)
        if chk.witness is not None:
            assert np.array_equal(chk.witness, V[np.argmin(want)])


def test_energy_floor_trivial_without_drive(coeffs6):
    # with f == 0, J = ||u||^p / p = r^p / p >= r^p / (2p) always
    prob = ProblemSpec(2.0, 1.0, coeffs6, CustomNonlinearity.zero(2.0))
    split = BasisSplit(coeffs6, 2.0, 2)
    r = 3.0
    chk = verify_energy_floor(split, prob, r, r ** 2 / 4.0, 500, seed=1)
    assert chk.violations == 0
    assert chk.extreme_energy == pytest.approx(r ** 2 / 2.0, rel=1e-12)


def test_energy_floor_halved_growth_constant_breaks():
    # honest d keeps the floor; halving d inflates the radius until the
    # most concentrated direction dips below it (amplitude-scan witness)
    coeffs = CoefficientField.constant(Window(2))
    prob = ProblemSpec(2.0, 1.0, coeffs, PurePower(2.0, 4.0))
    plan_t = np.logspace(-3, 3, 600)
    d_true = float(np.max((plan_t ** 4 / 4.0) / (plan_t ** 2 + plan_t ** 4)))
    split = BasisSplit(coeffs, 2.0, 1)
    # sharp constants: beta_p is exact at p = 2, and the ascent's beta_q is
    # attained by its direction (the certified beta_q bound is larger, and
    # with it the halved d still keeps the floor)
    beta_p = embedding_constant(split, 2.0)
    beta_q, direction = ratio_ascent(coeffs, 2.0, 4.0, split.z_sites, seed=1, iters=2000)

    r_true = z_sphere_radius(d_true, 4.0, 1.0, 2.0, beta_p, beta_q)
    chk = verify_energy_floor(split, prob, r_true, r_true ** 2 / 4.0, 1000, seed=3)
    assert chk.violations == 0
    assert float(energy_many(r_true * direction, prob)) >= r_true ** 2 / 4.0 - 1e-9

    r_half = z_sphere_radius(d_true / 2.0, 4.0, 1.0, 2.0, beta_p, beta_q)
    floor_half = r_half ** 2 / 4.0
    assert float(energy_many(r_half * direction, prob)) < floor_half - 1e-9


def test_energy_ceiling_reports_violation_without_drive(coeffs6):
    prob = ProblemSpec(2.0, 1.0, coeffs6, CustomNonlinearity.zero(2.0))
    split = BasisSplit(coeffs6, 2.0, 2)
    chk = verify_energy_ceiling(split, prob, 5.0, 200, seed=2)
    assert chk.violations == 200
    assert chk.extreme_energy == pytest.approx(12.5, rel=1e-12)
    assert chk.witness is not None


def test_energy_ceiling_reference_small(coeffs6):
    prob = ProblemSpec(2.0, 1.0, coeffs6, LogPower(2.0, 2.0, 2.0))
    split = BasisSplit(coeffs6, 2.0, 1)
    c = sup_norm_constant(split, 1.0)
    T = superlinearity_threshold(prob, c, split.support_radius)
    rho = y_sphere_radius(1.0, 2.0, c, T, 1.0)
    chk = verify_energy_ceiling(split, prob, rho, 500, seed=4)
    assert chk.violations == 0
    assert chk.extreme_energy <= 1e-9
    assert chk.strong_count == chk.samples  # the stronger bound holds too
    # doubling the radius keeps the verdict: the energy only sinks further
    chk2 = verify_energy_ceiling(split, prob, 2.0 * rho, 500, seed=5)
    assert chk2.violations == 0
    assert chk2.extreme_energy <= chk.extreme_energy


# ---- assembled table ---------------------------------------------------------------

def test_fountain_table_reference_small():
    coeffs = CoefficientField.polynomial(Window(10), exponent=2.0)
    prob = ProblemSpec(2.0, 1.0, coeffs, LogPower(2.0, 2.0, 2.0))
    rows = fountain_table(prob, q=4.0, d=0.11, n_list=list(range(1, 6)),
                          seed=7, samples=300)
    beta_p = np.array([r.beta_p for r in rows])
    beta_q = np.array([r.beta_q for r in rows])
    assert np.all(np.diff(beta_p) <= 1e-9)
    assert np.all(np.diff(beta_q) <= 1e-9)
    assert np.all(beta_q <= beta_p + 1e-9)  # lq <= lp transfers to the sups
    feasible = [r for r in rows if r.feasible]
    assert feasible, "every index infeasible in the reference-style setting"
    radii = [r.radius_z for r in feasible]
    assert all(b > a - 1e-9 for a, b in zip(radii, radii[1:]))
    assert radii[-1] > radii[0]
    floors = [r.energy_floor for r in feasible]
    assert all(b >= a - 1e-12 for a, b in zip(floors, floors[1:]))
    for r in feasible:
        assert r.z_violations == 0
        # algebraic identity behind the floor, evaluated with the row's betas
        lhs = (r.radius_z ** 2 / 2.0
               - 1.0 * 0.11 * (r.beta_p ** 2 * r.radius_z ** 2
                               + r.beta_q ** 4 * r.radius_z ** 4))
        assert lhs == pytest.approx(r.energy_floor, rel=1e-10)
        if r.radius_y is not None:
            assert r.radius_y > r.radius_z
            assert r.y_violations == 0
            assert r.y_max_energy <= 1e-9


def test_fountain_table_p3_threshold_screen_overflows_quietly():
    # On the reference coefficients at p = 3, |F| + 2 C_n |t|^p in the
    # threshold screen passes float64 max while both terms are finite; the
    # screen must still decide without warning (warnings are errors here).
    coeffs = CoefficientField.polynomial(Window(50), exponent=2.0)
    prob = ProblemSpec(3.0, 1.0, coeffs, LogPower(3.0, 2.0, 3.0))
    d = check_hypothesis(prob.nonlinearity, "H2", SamplingPlan.default()).constants["d"]
    rows = fountain_table(prob, q=5.0, d=d, n_list=[26, 27, 36], seed=0, samples=100)
    assert [r.n for r in rows] == [26, 27, 36]
    for r in rows:
        assert r.threshold is None
        assert "became non-finite at t = " in r.note


def test_fountain_table_no_drive_notes_error():
    coeffs = CoefficientField.constant(Window(4))
    for p in (2.0, 2.5):
        prob = ProblemSpec(p, 1.0, coeffs, CustomNonlinearity.zero(p))
        rows = fountain_table(prob, q=4.0, d=1.0, n_list=[1, 2], seed=0, samples=50)
        for r in rows:
            assert r.threshold is None
            assert r.note.startswith("no threshold T")

