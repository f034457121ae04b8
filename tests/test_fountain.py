import math

import numpy as np
import pytest

from dplhom import (BasisSplit, CoefficientField, CustomNonlinearity,
                    FountainGeometryError, LatticeSeq,
                    LogPower, ProblemSpec, PurePower, Window, embedding_constant, embedding_maximizer,
                    embedding_profile,
                    energy_many, fountain_table, lp_norm, sample_sphere,
                    sup_norm_constant, superlinearity_threshold,
                    verify_energy_ceiling, verify_energy_floor,
                    weighted_norm, weighted_norm_many, y_sphere_radius,
                    z_sphere_radius)
import dplhom.fountain as fountain
from dplhom.fountain import spiral_sites
from oracles import (per_point_threshold, power_method_lower_bound,
                     vertex_maximum_constant)


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
    split = BasisSplit(coeffs6, 2.0, coeffs6.window.size)
    site = spiral_sites(coeffs6.window)[-1]
    pos = site + coeffs6.window.half_width
    spike_norm = (coeffs6.a[pos] + coeffs6.a[pos + 1] + coeffs6.b[pos]) ** 0.5
    for q in (2.0, 3.0, 4.0):
        got = embedding_constant(split, q, seed=4)
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
        got = embedding_constant(split, 2.0, starts=8, seed=1, iters=2000)
        assert got == pytest.approx(oracle, rel=1e-7)


def test_beta_profile_nonincreasing(coeffs6):
    n_list = list(range(1, coeffs6.window.size + 1))
    for p, q in ((2.0, 2.0), (2.0, 4.0), (2.5, 2.5), (2.5, 4.0)):
        prof = embedding_profile(coeffs6, p, q, n_list, seed=3)
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
        assert embedding_constant(BasisSplit(coeffs6, 2.0, n), q, seed=n) <= bound * (1 + 1e-12)


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
    def no_rng(*args, **kwargs):
        raise AssertionError("the p = 2 profile must not sample")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    prof = embedding_profile(coeffs6, 2.0, 4.0, [1, 5, 13], seed=5)
    assert np.all(np.isfinite(prof))


@pytest.mark.parametrize("p, sampled", [(2.0, False), (2.5, True)])
def test_fountain_table_samples_beta_only_off_p2(monkeypatch, p, sampled):
    calls = []
    real = fountain._ratio_ascent

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(fountain, "_ratio_ascent", spy)
    coeffs = CoefficientField.polynomial(Window(4), exponent=2.0)
    prob = ProblemSpec(p, 1.0, coeffs, LogPower(p, 2.0, p))
    rows = fountain_table(prob, q=4.0, d=0.2, n_list=[1, 2, 3], seed=1, samples=50)
    assert bool(calls) is sampled
    for r in rows:
        assert r.note.startswith("beta is a sampled lower bound; ") is sampled


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
    "cubic": CustomNonlinearity(2.0, lambda k, t: t ** 3 / (1.0 + abs(k)),
                                F_scalar=lambda k, t: t ** 4 / (4.0 * (1.0 + abs(k))),
                                odd=True, name="cubic"),
}


@pytest.mark.parametrize("h_n", [0, 1, 3])
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


def test_threshold_note_names_the_overflowing_term():
    coeffs = CoefficientField.constant(Window(3))
    zero3 = ProblemSpec(3.0, 1.0, coeffs, CustomNonlinearity.zero(3.0))
    with pytest.raises(FountainGeometryError, match=r": 2C\|t\|\^p became non-finite at t = "):
        superlinearity_threshold(zero3, c_sup=1.0, h_n=0)
    sink = CustomNonlinearity(2.0, lambda k, t: -4.0 * t ** 3,
                              F_scalar=lambda k, t: -np.float64(t) ** 4, name="sink")
    with pytest.raises(FountainGeometryError, match=r": F became non-finite at t = 1\.[0-9]{2}e\+77$"):
        superlinearity_threshold(ProblemSpec(2.0, 1.0, coeffs, sink), c_sup=1.0, h_n=1)


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
    beta_p = embedding_constant(split, 2.0, seed=0, iters=2000)
    beta_q, direction = embedding_maximizer(split, 4.0, seed=1, iters=2000)

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


def test_fountain_table_no_drive_notes_error():
    coeffs = CoefficientField.constant(Window(4))
    for p in (2.0, 2.5):
        prob = ProblemSpec(p, 1.0, coeffs, CustomNonlinearity.zero(p))
        rows = fountain_table(prob, q=4.0, d=1.0, n_list=[1, 2], seed=0, samples=50)
        for r in rows:
            assert r.threshold is None
            assert "no threshold T" in r.note
            assert r.note.startswith("beta is a sampled lower bound; ") is (p != 2.0)

