import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg.lapack import dgtsv

import dplhom.lattice as lattice
import dplhom.solver as solver
from dplhom import (CoefficientField, CustomNonlinearity, LatticeSeq, LogPower,
                    MountainPassError, ProblemSpec, PurePower, SolutionSet, SolveResult,
                    SolverConfig, Window, bump_amplitude, cerami_metric, deflated_solve,
                    energy, energy_parts, find_critical_points, mountain_pass,
                    newton_solve, residual, residual_many, solution_sequence,
                    sup_norm, weighted_norm, window_continuation)
from dplhom.solver import (_anchor_values, _deflation_terms, _jacobian_bands,
                           _newton_values, _strict_ladder)
from conftest import (make_constant_problem, make_pure_power_problem,
                      make_reference_problem, random_problem)
from oracles import (dense_deflated_step, literal_deflation, multistart_flow_newton,
                     per_point_bump_amplitude, rebuilt_jacobian_bands, rebuilt_residual_many,
                     sequential_newton_values, sets_match, site_by_site_candidate_starts)


@pytest.fixture(scope="module")
def ref_problem():
    return make_reference_problem(K=50)


@pytest.fixture(scope="module")
def cfg():
    return SolverConfig(seed=3)


@pytest.mark.parametrize("field, value", [
    ("residual_tol", 0.0), ("residual_tol", float("inf")), ("residual_tol", float("nan")),
    ("path_points", 2), ("ls_shrink", 1.5),
    # tail_fraction >= 1 empties the tail mask, so the decay check would
    # pass everything
    ("tail_fraction", 1.0), ("tail_fraction", 1.5), ("tail_fraction", 0.0),
    ("ls_decrease", 0.0), ("ls_decrease", 0.5), ("ls_decrease", 0.9),
    ("max_backtracks", 0), ("max_iter", 0), ("dedup_tol", 0.0), ("dedup_tol", -1e-6),
    ("jacobian_cap", 0.0), ("jacobian_cap", -1e8),
    ("deflation_exponent", 0.0), ("deflation_exponent", -2.0),
    ("max_path_sweeps", 0), ("handoff_residual", 0.0), ("stagnation_tol", -1e-9),
    ("stagnation_tol", float("nan")),
    ("continuation_growth", 0), ("seed", -5),
])
def test_config_validation(field, value):
    # Every bad value stays rejected: by __post_init__ while the knob is a
    # field, and by the signature once it is a fixed constant, so a caller
    # that still sets a former knob fails instead of being ignored.
    settable = {f.name for f in dataclasses.fields(SolverConfig)}
    with pytest.raises(ValueError if field in settable else TypeError):
        SolverConfig(**{field: value})


# ---- newton ----------------------------------------------------------------

def test_newton_zero_start_is_instant(cfg):
    prob = make_constant_problem(nl=LogPower(2.0, 2.0, 2.0))
    res = newton_solve(LatticeSeq.zeros(prob.window), prob, cfg)
    assert res.converged
    assert res.iterations == 0
    assert res.energy == 0.0
    assert res.residual_inf_norm == 0.0


def test_newton_fixed_point_idempotence(cfg):
    prob = make_pure_power_problem(K=2)
    res = newton_solve(LatticeSeq.spike(prob.window, 0, 1.5), prob, cfg)
    assert res.converged
    again = newton_solve(res.u, prob, cfg)
    assert again.converged
    assert again.iterations <= 1
    assert np.max(np.abs(again.u.values - res.u.values)) < 1e-9


def test_newton_result_residual_independently_verified(cfg):
    prob = make_pure_power_problem(K=3)
    res = newton_solve(LatticeSeq.spike(prob.window, 0, 1.8), prob, cfg)
    assert res.converged
    fresh = float(np.max(np.abs(residual(res.u, prob).values)))
    assert fresh == res.residual_inf_norm
    assert fresh <= cfg.residual_tol


def test_newton_evaluates_diagnostics_once_per_solve(monkeypatch, cfg):
    # the loop computes only what decides the next step; energy and the
    # Cerami metric are evaluated once, on the returned point, the Cerami
    # metric reuses the residual that gives residual_inf_norm, and ||u||^p
    # is summed once, inside the energy, for both
    calls = {"energy_parts_many": 0, "_cerami_from_residual": 0, "residual_many": 0,
             "weighted_norm_many": 0}
    for module, name in ((solver, "energy_parts_many"), (solver, "_cerami_from_residual"),
                         (solver, "residual_many"), (lattice, "residual_many"),
                         (lattice, "weighted_norm_many")):
        plain = getattr(module, name)

        def counted(*args, _name=name, _plain=plain):
            calls[_name] += 1
            return _plain(*args)

        monkeypatch.setattr(module, name, counted)
    prob = make_pure_power_problem(K=2)
    res = newton_solve(LatticeSeq.spike(prob.window, 0, 1.5), prob, cfg)
    assert res.converged and res.iterations >= 3
    assert calls["energy_parts_many"] == 1 and calls["_cerami_from_residual"] == 1
    assert calls["weighted_norm_many"] == 0
    calls["residual_many"] = 0
    again = solver._finish(res.u.values, prob, cfg, res.iterations)
    assert calls["residual_many"] == 1
    assert (again.residual_inf_norm, again.cerami_metric) == (res.residual_inf_norm,
                                                              res.cerami_metric)
    # the same bits as the energy and the Cerami metric computed on their own
    assert res.energy == energy(res.u, prob)
    assert res.cerami_metric == cerami_metric(res.u, prob)


def test_cerami_bound_at_converged_point(cfg):
    prob = make_pure_power_problem(K=2)
    res = newton_solve(LatticeSeq.spike(prob.window, 0, 1.5), prob, cfg)
    bound = (1.0 + weighted_norm(res.u, prob.coeffs, prob.p)) \
        * np.sqrt(prob.window.size) * cfg.residual_tol
    assert res.cerami_metric <= bound


def test_newton_subquadratic_exponent(cfg):
    # p < 2 exercises the clamped Jacobian entries
    prob = make_pure_power_problem(K=2, p=1.5, q=3.0)
    res = newton_solve(LatticeSeq.spike(prob.window, 0, 1.2), prob, cfg)
    assert res.converged
    assert res.residual_inf_norm <= cfg.residual_tol


def test_newton_nonconvergence_reported():
    prob = make_pure_power_problem(K=2)
    tight = SolverConfig(max_iter=1, seed=0)
    res = newton_solve(LatticeSeq.spike(prob.window, 0, 1.9), prob, tight)
    assert not res.converged
    assert res.note == "max_iter exceeded"


def test_newton_converging_on_its_last_step_is_not_max_iter():
    # with a zero drive the residual is linear, so one Newton step lands on
    # the root; a solve allowed exactly that step must report it converged
    prob = make_constant_problem(K=3)
    res = newton_solve(LatticeSeq.spike(prob.window, 0, 1.0), prob,
                       SolverConfig(max_iter=1, seed=0))
    assert (res.converged, res.iterations, res.note) == (True, 1, "")
    assert res.residual_inf_norm == 0.0


def test_newton_stops_where_the_newton_step_is_missing(cfg):
    # At p > 2 the Jacobian of a spike start is singular (phi_p'(0) = 0 and
    # f_t(k, 0) = 0 on every zero site), so no Newton step exists: the solve
    # takes no other step and returns the start at its first iteration.
    prob = ProblemSpec(3.0, 1.0, CoefficientField.polynomial(Window(50), exponent=2.0),
                       LogPower(3.0, 2.0, 3.0))
    c = bump_amplitude(prob, 0)
    assert c == pytest.approx(2.6724, abs=1e-4)
    start = LatticeSeq.spike(prob.window, 0, c)
    res = newton_solve(start, prob, cfg)
    assert np.array_equal(res.u.values, start.values)
    assert res.iterations == 1
    assert not res.converged
    assert res.note == "no descent direction made progress"
    assert res.residual_inf_norm == pytest.approx(7.14, abs=0.01)


def test_newton_stops_on_a_non_finite_residual(cfg):
    # The quartic drive overflows at a 1e120 spike, so the residual is
    # non-finite.  The loop still steps; the Newton step it forms is not
    # finite, so the solve stops there instead of raising.
    prob = make_pure_power_problem(K=2)
    with np.errstate(over="ignore", invalid="ignore"):
        res = newton_solve(LatticeSeq.spike(prob.window, 0, 1e120), prob, cfg)
    assert res.iterations == 1
    assert not res.converged
    assert res.note == "no descent direction made progress"
    assert res.residual_inf_norm == np.inf


def test_newton_rejects_mismatched_window(cfg):
    prob = make_pure_power_problem(K=2)
    with pytest.raises(ValueError):
        newton_solve(LatticeSeq.zeros(Window(5)), prob, cfg)


# ---- mountain pass ----------------------------------------------------------

def test_mountain_pass_reference_first_state(ref_problem, cfg):
    u0 = LatticeSeq.zeros(ref_problem.window)
    uh = LatticeSeq.spike(ref_problem.window, 0, 10.0)
    assert energy(uh, ref_problem) < 0.0
    res = mountain_pass(u0, uh, ref_problem, cfg)
    assert res.converged
    assert res.energy > 0.0
    assert res.residual_inf_norm <= 1e-8
    assert sup_norm(res.u) > 1.0


def test_mountain_pass_sign_mirrored(ref_problem, cfg):
    u0 = LatticeSeq.zeros(ref_problem.window)
    uh = LatticeSeq.spike(ref_problem.window, 0, 10.0)
    plus = mountain_pass(u0, uh, ref_problem, cfg)
    minus = mountain_pass(u0, -uh, ref_problem, cfg)
    assert minus.energy == pytest.approx(plus.energy, abs=1e-8)
    assert np.max(np.abs(minus.u.values + plus.u.values)) < 1e-6


def test_mountain_pass_is_one_segment_scan_and_one_newton(ref_problem, cfg, monkeypatch):
    # the pass evaluates the segment once and runs Newton once from its
    # maximum: no path relaxation and no per-step counts in the extras
    calls = {"energy_many": 0, "newton_solve": 0}

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(solver, "energy_many", spy("energy_many", solver.energy_many))
    monkeypatch.setattr(solver, "newton_solve", spy("newton_solve", solver.newton_solve))
    u0 = LatticeSeq.zeros(ref_problem.window)
    uh = LatticeSeq.spike(ref_problem.window, 0, 10.0)
    res = mountain_pass(u0, uh, ref_problem, cfg)
    assert res.converged
    assert calls == {"energy_many": 1, "newton_solve": 1}
    assert "mountain_pass" not in res.extras


def test_mountain_pass_raises_where_newton_stops(cfg):
    # At p > 2 the segment maximum from zero to a site-0 spike is a spike,
    # whose Jacobian is singular: Newton stops at once and no pass is found.
    prob = ProblemSpec(3.0, 1.0, CoefficientField.polynomial(Window(50), exponent=2.0),
                       LogPower(3.0, 2.0, 3.0))
    u0 = LatticeSeq.zeros(prob.window)
    uh = LatticeSeq.spike(prob.window, 0, 10.0)
    assert energy(uh, prob) < 0.0
    with pytest.raises(MountainPassError, match="Newton"):
        mountain_pass(u0, uh, prob, cfg)


def test_mountain_pass_no_drive_errors(cfg):
    prob = make_constant_problem(K=5)  # f == 0: energy is coercive, no pass
    u0 = LatticeSeq.zeros(prob.window)
    uh = LatticeSeq.spike(prob.window, 0, 3.0)
    with pytest.raises(MountainPassError):
        mountain_pass(u0, uh, prob, cfg)


# ---- deflation ----------------------------------------------------------------

def test_deflated_solve_requires_known_roots(cfg):
    prob = make_pure_power_problem(K=2)
    with pytest.raises(ValueError):
        deflated_solve([], LatticeSeq.spike(prob.window, 0, 1.0), prob, cfg)


def test_deflated_solve_finds_nontrivial_root(cfg):
    prob = make_pure_power_problem(K=2)
    zero = LatticeSeq.zeros(prob.window)
    res = deflated_solve([zero], LatticeSeq.spike(prob.window, 0, 1.0), prob, cfg)
    assert res.converged
    assert res.residual_inf_norm <= cfg.residual_tol
    assert sup_norm(res.u) > 1e-3


def test_deflated_solve_respects_distinctness(cfg):
    prob = make_pure_power_problem(K=2)
    zero = LatticeSeq.zeros(prob.window)
    first = deflated_solve([zero], LatticeSeq.spike(prob.window, 0, 1.0), prob, cfg)
    for anchor in (first.u, -first.u):
        second = deflated_solve([zero, first.u],
                                LatticeSeq(prob.window, anchor.values * 1.01), prob, cfg)
        if second.converged:
            dist_known = min(np.max(np.abs(second.u.values - s))
                             for w in (zero, first.u) for s in (w.values, -w.values))
            assert dist_known > solver.DEDUP_TOL


def test_deflated_direction_matches_dense_solve():
    # one core iteration from starts where the full step is taken: the
    # scaled tridiagonal step equals the dense deflated Newton step
    prob = make_pure_power_problem(K=2)
    zero = LatticeSeq.zeros(prob.window)
    first = deflated_solve([zero], LatticeSeq.spike(prob.window, 0, 1.0), prob,
                           SolverConfig(seed=3))
    anchors = _anchor_values([zero, first.u], prob.nonlinearity.is_odd)
    for v0 in (np.array([0.3, 1.2, 0.2, -0.1, 0.05]),
               LatticeSeq.spike(prob.window, 1, 1.6).values,
               np.array([0.1, 1.7, 0.1, 0.0, 0.0])):
        v1, it, note = _newton_values(v0, prob, SolverConfig(max_iter=1), anchors)
        assert (it, note) == (1, "max_iter exceeded")
        dense = dense_deflated_step(v0, prob, anchors, prob.p)
        assert np.linalg.norm((v1 - v0) - dense) <= 1e-6 * np.linalg.norm(dense)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.integers(1, 5), st.integers(1, 4), st.floats(1.1, 4.0), st.data())
def test_deflation_terms_match_literal_loop(n, m, batch, power, data):
    coords = st.floats(-3.0, 3.0)
    V = data.draw(hnp.arrays(np.float64, (batch, n), elements=coords))
    anchors = data.draw(hnp.arrays(np.float64, (m, n), elements=coords))
    assume(np.min(np.linalg.norm(anchors - V[:, None, :], axis=2)) > 1e-2)
    M_batch, grad_batch = _deflation_terms(V, anchors, power)
    assert M_batch.shape == (batch,) and grad_batch.shape == (batch, n)
    for v, M_row, grad_row in zip(V, M_batch, grad_batch):
        M, grad_log = _deflation_terms(v, anchors, power)
        # a batch row carries the bits of the single-point call
        assert M_row == M
        assert np.array_equal(grad_row, grad_log)
        M_ref, grad_ref = literal_deflation(v, anchors, power)
        assert M == pytest.approx(M_ref, rel=1e-12)
        np.testing.assert_allclose(M * grad_log, grad_ref, rtol=1e-9,
                                   atol=1e-12 * np.max(np.abs(grad_ref)))


def test_deflation_terms_on_an_anchor_leave_other_rows_alone():
    anchors = np.array([[0.5, -1.0], [0.0, 0.0]])
    V = np.array([[1.0, 2.0], [0.5, -1.0], [-0.25, 0.75]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        M, grad = _deflation_terms(V, anchors, 2.0)
    assert M[1] == np.inf and np.all(np.isnan(grad[1]))
    for j in (0, 2):
        M_j, grad_j = _deflation_terms(V[j], anchors, 2.0)
        assert np.isfinite(M_j) and M[j] == M_j
        assert np.array_equal(grad[j], grad_j)


_GRID = st.integers(-12, 12).map(lambda k: k / 4.0)  # distances are 0 or >= 1/4
_WIDTH = 7  # window size at K = 3; a case takes the first n sites


def _search_case(seed, K, p, v0, n_anchors, anchors):
    prob = random_problem(np.random.default_rng(seed), K=K, p=p)
    n = prob.window.size
    return prob, v0[:n], (anchors[:n_anchors, :n] if n_anchors else None)


# dgtsv's two special cases, on the first Jacobian of the run.  At p = 3 on
# (0, 0, 1) row 0 of the Jacobian is zero: a zero pivot, no Newton step.  On
# the seed-2 problem |main| < |sub| in row 0, so dgtsv swaps rows 0 and 1.
_ZERO_PIVOT = dict(seed=0, K=1, p=3.0, v0=np.r_[0.0, 0.0, 1.0, np.zeros(4)],
                   n_anchors=0, anchors=np.zeros((4, _WIDTH)))
_ROW_SWAP = dict(seed=2, K=1, p=2.0, v0=np.r_[-1.75, -1.0, np.zeros(5)],
                 n_anchors=1, anchors=np.full((4, _WIDTH), 0.5))


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.sampled_from([2.0, 3.0]),
       hnp.arrays(np.float64, _WIDTH, elements=_GRID), st.integers(0, 4),
       hnp.arrays(np.float64, (4, _WIDTH), elements=_GRID))
@example(**_ZERO_PIVOT)
@example(**_ROW_SWAP)
def test_newton_values_match_sequential_search(seed, K, p, v0, n_anchors, anchors):
    # The batched Armijo search visits the step lengths of the one-at-a-time
    # search in the same order and keeps the first that passes, and its
    # direct dgtsv call is the one solve_banded makes, so values, iteration
    # count and stop note are the oracle's bit for bit.
    prob, v0, anchors = _search_case(seed, K, p, v0, n_anchors, anchors)
    cfg = SolverConfig(max_iter=30)
    v, it, note = _newton_values(v0, prob, cfg, anchors)
    v_ref, it_ref, note_ref = sequential_newton_values(v0, prob, cfg, anchors)
    assert np.array_equal(v, v_ref)
    assert (it, note) == (it_ref, note_ref)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([200, 400]), st.sampled_from([2.0, 3.0]),
       st.floats(0.5, 8.0), st.integers(1, 6), st.sampled_from(["even", "alternating", "random"]),
       st.integers(0, 3))
def test_wide_window_search_in_chunks_matches_sequential_search(seed, K, p, amplitude, width,
                                                                signs, n_anchors):
    # at n = 401 and 801 the step lengths after the full step are evaluated
    # 10 and 5 to a residual call; the first passing row of the first chunk
    # that has one is the point the one-at-a-time search accepts
    rng = np.random.default_rng(seed)
    prob = random_problem(rng, K=K, p=p)
    k = prob.window.indices
    sign = {"even": 1.0, "alternating": (-1.0) ** k,
            "random": rng.choice([-1.0, 1.0], k.size)}[signs]
    v0 = amplitude * sign * np.exp(-(k / width) ** 2)
    centers = rng.integers(-3, 4, (n_anchors, 1))
    anchors = (rng.uniform(0.5, 3.0, (n_anchors, 1)) * np.exp(-((k - centers) / width) ** 2)
               if n_anchors else None)
    cfg = SolverConfig(max_iter=30)
    v, it, note = _newton_values(v0, prob, cfg, anchors)
    v_ref, it_ref, note_ref = sequential_newton_values(v0, prob, cfg, anchors)
    assert np.array_equal(v, v_ref)
    assert (it, note) == (it_ref, note_ref)


_SMALL_WIDTH = 31  # K = 15; a case takes the first n = 2K + 1 sites


def _small_window_case(seed, K, p, drive, v0, n_anchors, anchors):
    rng = np.random.default_rng(seed)
    window = Window(K)
    n = window.size
    coeffs = CoefficientField.from_arrays(window, rng.uniform(0.5, 2.0, n + 1),
                                          rng.uniform(0.8, 3.0, n))
    nl = (PurePower(p, q=p + float(rng.uniform(0.5, 2.0))) if drive == "pure"
          else LogPower(p, mu=2.0, nu=p))
    prob = ProblemSpec(p, float(rng.uniform(0.1, 2.0)), coeffs, nl)
    return prob, v0[:n], (anchors[:n_anchors, :n] if n_anchors else None)


_NO_ANCHORS = dict(n_anchors=0, anchors=np.zeros((3, _SMALL_WIDTH)))
# row 0 of the first Jacobian is zero at p = 3 on (0, 0, 1): no Newton step
_SMALL_ZERO_PIVOT = dict(seed=0, K=1, p=3.0, drive="pure", v0=np.r_[0.0, 0.0, 1.0, np.zeros(28)],
                         **_NO_ANCHORS)
# the start is the first anchor: the deflated loop stops before its first step
_SMALL_ON_ANCHOR = dict(seed=1, K=2, p=2.0, drive="pure", v0=np.full(_SMALL_WIDTH, 0.5),
                        n_anchors=2, anchors=np.r_[[np.full(_SMALL_WIDTH, 0.5)],
                                                   np.zeros((2, _SMALL_WIDTH))])
# a NaN residual at the start of a deflated run: M is NaN as well, and both
# loops stop there
_SMALL_NAN = dict(seed=2, K=1, p=1.5, drive="log", v0=np.r_[1.0, np.nan, np.zeros(29)],
                  n_anchors=1, anchors=np.zeros((3, _SMALL_WIDTH)))
# the same start on a plain run: the first Newton step is NaN, and both loops stop
_SMALL_NAN_PLAIN = dict(_SMALL_NAN, **_NO_ANCHORS)
# the largest window whose search is one call, and the next one
_SMALL_MERGED, _SMALL_SPLIT = (
    dict(seed=5, K=K, p=2.0, drive="log", v0=np.r_[np.zeros(K - 2), 2.0, -1.5, 2.5,
                                                   np.zeros(_SMALL_WIDTH + 1 - K)],
         **_NO_ANCHORS)
    for K in (12, 13))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 15), st.sampled_from([1.5, 2.0, 3.0]),
       st.sampled_from(["pure", "log"]),
       hnp.arrays(np.float64, _SMALL_WIDTH, elements=_GRID | st.floats(-4.0, 4.0)),
       st.integers(0, 3), hnp.arrays(np.float64, (3, _SMALL_WIDTH), elements=_GRID))
@example(**_SMALL_ZERO_PIVOT)
@example(**_SMALL_ON_ANCHOR)
@example(**_SMALL_NAN)
@example(**_SMALL_NAN_PLAIN)
@example(**_SMALL_MERGED)
@example(**_SMALL_SPLIT)
def test_small_window_search_matches_sequential_search(seed, K, p, drive, v0, n_anchors,
                                                       anchors):
    # up to 40 n = _SEARCH_MERGE the full step shares one residual call with
    # the other 39 step lengths, and the first passing row is accepted: the
    # point, iteration count and stop note of the one-at-a-time search
    prob, v0, anchors = _small_window_case(seed, K, p, drive, v0, n_anchors, anchors)
    cfg = SolverConfig(max_iter=30)
    v, it, note = _newton_values(v0, prob, cfg, anchors)
    v_ref, it_ref, note_ref = sequential_newton_values(v0, prob, cfg, anchors)
    assert np.array_equal(v, v_ref, equal_nan=True)
    assert (it, note) == (it_ref, note_ref)


def test_small_window_examples_meet_their_cases():
    def run(case):
        prob, v0, anchors = _small_window_case(**case)
        return prob.window.size, _newton_values(v0, prob, SolverConfig(max_iter=30), anchors)

    assert run(_SMALL_ZERO_PIVOT)[1][1:] == (1, "no descent direction made progress")
    assert run(_SMALL_ON_ANCHOR)[1][1:] == (0, "deflated iteration diverged")
    assert run(_SMALL_NAN)[1][1:] == (0, "deflated iteration diverged")
    assert run(_SMALL_NAN_PLAIN)[1][1:] == (1, "no descent direction made progress")
    for case, merged in ((_SMALL_MERGED, True), (_SMALL_SPLIT, False)):
        n, (_, it, _) = run(case)
        assert it >= 1 and (solver.MAX_BACKTRACKS * n <= solver._SEARCH_MERGE) == merged


def test_search_examples_meet_a_zero_pivot_and_a_row_swap():
    prob, v0, _ = _search_case(**_ZERO_PIVOT)
    ab = _jacobian_bands(v0, prob)
    assert dgtsv(ab[2, :-1], ab[1], ab[0, 1:], -residual_many(v0, prob))[4] == 1
    assert _newton_values(v0, prob, SolverConfig())[1:] == (
        1, "no descent direction made progress")
    prob, v0, anchors = _search_case(**_ROW_SWAP)
    ab = _jacobian_bands(v0, prob)
    assert abs(ab[1, 0]) < abs(ab[2, 0])
    assert _newton_values(v0, prob, SolverConfig(), anchors)[1] >= 1


# signed zeros, subnormals and values whose powers overflow, among ordinary ones
_KERNEL_ENTRIES = (st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1e-300,
                                    1e300, -1e300])
                   | st.floats(-4.0, 4.0))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([1.5, 2.0, 3.0]), st.integers(1, 3), st.integers(1, 3),
       st.sampled_from(["pure", "log", "log_bare"]), st.integers(0, 2 ** 32 - 1),
       hnp.arrays(np.float64, (3, 7), elements=_KERNEL_ENTRIES))
@example(2.0, 1, 1, "pure", 0, np.full((3, 7), -0.0))  # phi_2(-0.0) must be +0.0
def test_kernels_match_the_rebuilt_formulas(p, K, m, drive, seed, values):
    # the residual and the Jacobian bands keep per-window constants between
    # calls; each call, the first and a repeat, is the rebuilt formula bit
    # for bit, NaN and the sign of zero included
    rng = np.random.default_rng(seed)
    window = Window(K)
    coeffs = CoefficientField.from_arrays(window, rng.uniform(0.5, 2.0, window.size + 1),
                                          rng.uniform(0.8, 3.0, window.size))
    nl = (PurePower(p, q=p + 1.5) if drive == "pure" else
          LogPower(p, mu=2.0, nu=p + 1.0,
                   weight_convention="one_plus_abs" if drive == "log" else "abs_nonzero"))
    prob = ProblemSpec(p, float(rng.uniform(0.1, 2.0)), coeffs, nl)
    V = values[:m, :window.size]
    with np.errstate(all="ignore"):
        R_ref = rebuilt_residual_many(V, prob)
        bands_ref = [rebuilt_jacobian_bands(v, prob) for v in V]
        for _ in range(2):
            assert residual_many(V, prob).tobytes() == R_ref.tobytes()
            assert residual_many(V[0], prob).tobytes() == R_ref[0].tobytes()
            for v, ab_ref in zip(V, bands_ref):
                assert _jacobian_bands(v, prob).tobytes() == ab_ref.tobytes()


def _search_calls(monkeypatch, v0, prob):
    """One Newton iteration from v0: (v, shapes of its residual calls)."""
    calls = []
    plain = solver.residual_many

    def counted(V, prob):
        calls.append(np.shape(V))
        return plain(V, prob)

    monkeypatch.setattr(solver, "residual_many", counted)
    v, it, note = _newton_values(v0, prob, SolverConfig(max_iter=1))
    monkeypatch.undo()
    assert (it, note) == (1, "max_iter exceeded")
    return v, calls


def test_line_search_makes_at_most_two_residual_calls(monkeypatch):
    # From this start the first Newton step is accepted at alpha = 1/64: a
    # one-at-a-time search evaluates 7 trial points, the batched search at
    # n = 3 evaluates all 40 step lengths, the full step included, in one call.
    prob = make_pure_power_problem(K=1)
    v0 = np.array([-0.8, -0.9, 1.5])
    v, calls = _search_calls(monkeypatch, v0, prob)
    assert calls == [(3,), (40, 3)]  # the start, then the search
    v_ref, _, _ = sequential_newton_values(v0, prob, SolverConfig(max_iter=1))
    assert np.array_equal(v, v_ref)


@pytest.mark.parametrize("K, searches", [
    (12, [(40, 25)]),               # 40 n = 1000: the largest window that merges
    (13, [(1, 27), (39, 27)]),      # 40 n = 1080: the full step alone first
])
def test_search_merges_the_full_step_up_to_the_limit(monkeypatch, K, searches):
    # the first step from this start is accepted at alpha = 1/2, after its
    # full step fails
    prob = make_pure_power_problem(K=K)
    k = prob.window.indices.astype(float)
    v0 = 2.0 * np.exp(-(k / 2.0) ** 2) * (-1.0) ** k
    v, calls = _search_calls(monkeypatch, v0, prob)
    assert calls == [(2 * K + 1,)] + searches
    v_ref, _, _ = sequential_newton_values(v0, prob, SolverConfig(max_iter=1))
    assert np.array_equal(v, v_ref)
    ab = _jacobian_bands(v0, prob)
    delta = dgtsv(ab[2, :-1], ab[1], ab[0, 1:], -residual_many(v0, prob))[3]
    assert np.array_equal(v, v0 + 0.5 * delta)


@pytest.mark.parametrize("problem, v0, chunks", [
    # accepted at alpha = 1/4, inside the first chunk of 5 step lengths
    (make_reference_problem(K=400),
     lambda k: 1.5 * np.exp(-k ** 2.0) * (-1.0) ** k, 1),
    # accepted at alpha = 1/128, in the second chunk
    (make_pure_power_problem(K=400),
     lambda k: 4.0 * np.exp(-(k / 5.0) ** 2) * (-1.0) ** k, 2),
], ids=["alpha_1_4", "alpha_1_128"])
def test_wide_line_search_stops_at_the_first_chunk_that_passes(monkeypatch, problem, v0, chunks):
    v0 = v0(problem.window.indices.astype(float))
    calls = []
    plain = solver.residual_many

    def counted(V, prob):
        calls.append(np.shape(V))
        return plain(V, prob)

    monkeypatch.setattr(solver, "residual_many", counted)
    cfg = SolverConfig(max_iter=1)
    v, it, note = _newton_values(v0, problem, cfg)
    assert (it, note) == (1, "max_iter exceeded")
    assert calls == [(801,), (1, 801)] + [(solver._SEARCH_BLOCK // 801, 801)] * chunks
    monkeypatch.undo()
    assert np.array_equal(v, sequential_newton_values(v0, problem, cfg)[0])


def _count_newton_calls(monkeypatch):
    calls = []
    plain = solver.newton_solve

    def counted(*args):
        calls.append(args)
        return plain(*args)

    monkeypatch.setattr(solver, "newton_solve", counted)
    return calls


def test_diverging_deflated_solve_is_not_polished(monkeypatch, cfg):
    prob = make_pure_power_problem(K=2)
    known = find_critical_points(prob, cfg)
    calls = _count_newton_calls(monkeypatch)
    res = deflated_solve(known, LatticeSeq.spike(prob.window, 0, 1.0), prob, cfg)
    assert not res.converged
    assert res.note == "deflated iteration diverged"
    assert res.iterations > 0
    assert calls == []


def test_deflated_start_on_an_anchor_ends_at_once(monkeypatch, cfg):
    prob = make_pure_power_problem(K=2)
    root = newton_solve(LatticeSeq.spike(prob.window, 0, 1.5), prob, cfg)
    calls = _count_newton_calls(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = deflated_solve([root.u], -root.u, prob, cfg)
    assert (res.converged, res.iterations, res.note) == (False, 0, "deflated iteration diverged")
    assert np.array_equal(res.u.values, -root.u.values)
    assert calls == []


def test_anchor_rows_are_unique():
    w = np.array([0.25, 1.5, -0.5])
    zero = np.zeros(3)
    anchors = _anchor_values([w, w.copy(), -w, zero, -zero], True)
    assert anchors.shape == (3, 3)
    assert {tuple(row) for row in anchors} == {tuple(w), tuple(-w), (0.0, 0.0, 0.0)}
    window = Window(1)
    sols = SolutionSet()
    sols.add(_stored(window, 0, 1.0))
    sols.add(_stored(window, 1, 2.0))
    assert _anchor_values(sols, True).shape == (4, 3)
    # without an odd drive a root's negation is no anchor
    assert _anchor_values(sols, False).shape == (2, 3)
    assert _anchor_values([w, w.copy(), zero], False).shape == (2, 3)


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 4)),
                  elements=st.sampled_from([-1.5, -0.0, 0.0, 0.25, 1.5])),
       st.booleans())
def test_anchor_values_match_np_unique(W, odd):
    # Few distinct entries, so rows repeat, rows meet their negations, and
    # rows of signed zeros equal their own negation.  The row order is
    # np.unique's: it sets the order of M's product, so its last bits.
    expected = np.unique(np.concatenate([W, -W]) if odd else W, axis=0)
    got = _anchor_values(list(W), odd)
    assert got.shape == expected.shape
    assert np.array_equal(got, expected)


def test_converged_deflated_solve_is_not_polished(monkeypatch, cfg):
    # the deflated run's root already meets the plain residual test, so it
    # is returned with the deflated run's own iteration count and no extras
    prob = make_pure_power_problem(K=2)
    zero = LatticeSeq.zeros(prob.window)
    start = LatticeSeq.spike(prob.window, 0, 1.0)
    anchors = _anchor_values([zero], prob.nonlinearity.is_odd)
    v, it, note = _newton_values(start.values, prob, cfg, anchors)
    calls = _count_newton_calls(monkeypatch)
    res = deflated_solve([zero], start, prob, cfg)
    assert calls == []
    assert (res.converged, res.iterations, res.note) == (True, it, note)
    assert it > 0 and note == ""
    assert np.array_equal(res.u.values, v)
    assert res.extras == {}


# ---- continuation -------------------------------------------------------------

def test_continuation_zero_solution(cfg):
    prob = make_constant_problem(K=4, nl=LogPower(2.0, 2.0, 2.0))
    res = newton_solve(LatticeSeq.zeros(prob.window), prob, cfg)
    rep = window_continuation(res, prob, 8, cfg)
    assert rep.drift == 0.0
    assert not rep.truncation_artifact
    assert rep.result.u.window.half_width == 8


def test_continuation_flags_boundary_mass(cfg):
    prob = make_constant_problem(K=4, nl=LogPower(2.0, 2.0, 2.0))
    res = newton_solve(LatticeSeq.spike(prob.window, 4, 0.5), prob,
                       SolverConfig(max_iter=0 + 1, seed=0))
    rep = window_continuation(res, prob, 8, cfg)
    assert rep.boundary_peak > 1e-3
    assert rep.truncation_artifact


def test_continuation_requires_growth(cfg):
    prob = make_constant_problem(K=4, nl=LogPower(2.0, 2.0, 2.0))
    res = newton_solve(LatticeSeq.zeros(prob.window), prob, cfg)
    with pytest.raises(ValueError):
        window_continuation(res, prob, 4, cfg)


def test_continuation_accepted_candidate_is_stable(ref_problem, cfg):
    amp = bump_amplitude(ref_problem, 0)
    res = newton_solve(LatticeSeq.spike(ref_problem.window, 0, amp), ref_problem, cfg)
    assert res.converged
    rep = window_continuation(res, ref_problem, 60, cfg)
    assert rep.result.converged
    assert rep.drift < 1e-6
    assert not rep.truncation_artifact


# ---- solution set ---------------------------------------------------------------

def _fake_result(prob, values, cfg):
    return newton_solve(LatticeSeq(prob.window, values), prob,
                        SolverConfig(max_iter=1, seed=0))


def test_solution_set_sign_dedup(cfg):
    prob = make_pure_power_problem(K=2)
    res = newton_solve(LatticeSeq.spike(prob.window, 0, 1.5), prob, cfg)
    negated = newton_solve(-res.u, prob, cfg)
    sols = SolutionSet(odd=prob.nonlinearity.is_odd)
    assert sols.add(res)
    assert sols.contains_close(negated.u.values)
    assert not sols.add(negated)
    assert len(sols) == 1
    # a set not told the drive is odd keeps both signs
    plain = SolutionSet()
    assert plain.add(res) and plain.add(negated)
    assert len(plain) == 2


def test_solution_set_sorted_by_energy(cfg):
    prob = make_pure_power_problem(K=2)
    sols = find_critical_points(prob, cfg, random_starts=60, amplitude=2.5,
                                max_rounds=1)
    energies = sols.energies
    assert np.all(np.diff(energies) >= 0.0)


def test_solution_set_merge_order_independent(cfg):
    prob = make_pure_power_problem(K=2)
    found = find_critical_points(prob, cfg, random_starts=40, amplitude=2.5,
                                 max_rounds=1)
    a, b = SolutionSet(), SolutionSet()
    for r in found.results:
        a.add(r)
    for r in reversed(found.results):
        b.add(r)
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.u.values, rb.u.values)


def _stored_values(window, values, energy):
    return SolveResult(u=LatticeSeq(window, np.array(values, dtype=float)), energy=energy,
                       residual_inf_norm=0.0, cerami_metric=0.0, tail_mass=0.0,
                       tail_threshold=0, iterations=0, converged=True)


def _stored(window, site, energy):
    return _stored_values(window, LatticeSeq.spike(window, site, 1.0).values, energy)


_SHAPES = (np.array([0.0, 0.0, 1.5, 0.0, 0.0]), np.array([0.0, 1.0, 0.5, 0.0, 0.0]),
           np.array([0.25, 0.0, 0.0, -1.0, 0.0]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, len(_SHAPES) - 1), st.booleans(),
                          st.sampled_from([-1.0, 1.0]), st.sampled_from([0.0, 5e-7, 2e-6]),
                          st.sampled_from([0.5, 1.0, 2.0])), max_size=12),
       st.booleans())
def test_solution_set_order_is_a_stable_sort_after_each_add(draws, odd):
    # equal energies, mirror images u(-k), negations and shifts within and
    # past DEDUP_TOL: after each add the members stand where a stable sort on
    # (energy, values) of the members before it plus the new one puts them
    window = Window(2)
    sols = SolutionSet(odd=odd)
    for shape, mirror, sign, shift, J in draws:
        v = sign * (_SHAPES[shape][::-1] if mirror else _SHAPES[shape]) + shift
        before = list(sols)
        res = SolveResult(u=LatticeSeq(window, v), energy=J, residual_inf_norm=0.0,
                          cerami_metric=0.0, tail_mass=0.0, tail_threshold=0, iterations=0,
                          converged=True)
        expected = before
        if sols.add(res):
            new = [r for r in sols if not any(r is b for b in before)]
            assert len(new) == 1
            expected = sorted(before + new, key=lambda r: (r.energy, tuple(r.u.values)))
        assert [id(r) for r in sols] == [id(r) for r in expected]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, len(_SHAPES) - 1), st.booleans(),
                          st.sampled_from([-1.0, 1.0]),
                          st.sampled_from([0.0, 5e-7, 1e-6, 2e-6, np.nan])), max_size=16),
       st.booleans())
def test_contains_close_matches_a_member_scan(draws, odd):
    # members of two window sizes, queries within, at and past DEDUP_TOL, and
    # NaN entries: the stacked comparison answers as a scan of the members does
    sols = SolutionSet(odd=odd)
    for shape, wide, sign, shift in draws:
        v = sign * (np.r_[0.0, _SHAPES[shape], 0.0] if wide else _SHAPES[shape]) + shift
        c = solver._canonical_values(v, odd)
        want = any(o.u.values.shape == c.shape
                   and np.max(np.abs(o.u.values - c)) <= solver.DEDUP_TOL for o in sols)
        assert sols.contains_close(v) == want
        if not np.isnan(shift):
            sols.add(_stored_values(Window(3 if wide else 2), v, float(shape)))


def test_strict_ladder_treats_rounding_level_gaps_as_equal():
    # mirror-image rungs of equal true energy whose computed energies differ
    # in the last bits (seen at K=100 with lambda=1, b=1+|k|^1.5, mu=2.5)
    window = Window(3)
    pool = SolutionSet()
    for site, J in ((0, 1.25e8), (1, 261142232.44972134), (-1, 261142232.4497223),
                    (2, 261142300.0)):
        pool.add(_stored(window, site, J))
    # the tie keeps the spike at -1: the first site where the two differ is k = -1
    assert [r.energy for r in _strict_ladder(pool)] == [1.25e8, 261142232.4497223,
                                                        261142300.0]


def test_strict_ladder_gap_is_absolute_below_unit_energy():
    window = Window(3)
    pool = SolutionSet()
    for site, J in ((0, 0.5), (1, 0.5 + 5e-9), (-1, 0.5 + 2e-8), (2, 3.0)):
        pool.add(_stored(window, site, J))
    assert [r.energy for r in _strict_ladder(pool)] == [0.5, 0.5 + 2e-8, 3.0]


# energies of well-separated runs: absolute and relative gaps, and the
# rounding-level tie of test_strict_ladder_treats_rounding_level_gaps_as_equal
_LADDER_LEVELS = (-2.0, 0.5, 3.0, 7.25, 1.2e3, 4.4e5, 261142232.44972134, 9.1e12)


def _ulps(x, k):
    """x moved k ulps (down for k < 0)."""
    for _ in range(abs(k)):
        x = np.nextafter(x, np.copysign(np.inf, k))
    return float(x)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_strict_ladder_ignores_order_and_rounding_within_a_tie(data):
    # members on one level tie, as mirror twins u(k) and -u(-k) do, with
    # energies a few ulps apart; however they are ordered and rounded, each
    # level's rung is the member greatest in lexicographic order of values
    # (integer values here, so plain tuple order)
    window = Window(2)
    levels = sorted(data.draw(st.sets(st.sampled_from(_LADDER_LEVELS), min_size=1)))
    values = data.draw(st.lists(st.tuples(*[st.integers(-2, 2)] * window.size),
                                min_size=len(levels), max_size=len(levels) + 8, unique=True))
    level_of = list(range(len(levels))) + data.draw(
        st.lists(st.integers(0, len(levels) - 1), min_size=len(values) - len(levels),
                 max_size=len(values) - len(levels)))
    m = len(values)

    def ladder(order, moves):
        pool = SolutionSet()
        for i in order:
            pool.add(_stored_values(window, values[i], _ulps(levels[level_of[i]], moves[i])))
        return [tuple(r.u.values) for r in _strict_ladder(pool)]

    moves = st.lists(st.integers(-4, 4), min_size=m, max_size=m)
    want = [max(v for v, j in zip(values, level_of) if j == lv) for lv in range(len(levels))]
    assert ladder(range(m), data.draw(moves)) == want
    assert ladder(data.draw(st.permutations(range(m))), data.draw(moves)) == want


def test_sequence_keeps_the_greater_mirror_twin():
    # a benchmark ladder config (seed 12121, config 4): rung 1 and its mirror
    # twin -u(-k) tie in energy to rounding.  The first-member rule kept the
    # twin with its large entry at k = 1, and amplitudes an ulp away flip
    # which twin comes first; the lexicographic rule keeps the one whose
    # first significantly different entry is the greater, its large entry at
    # k = -1, however they round
    prob = ProblemSpec(2.0, 1.5, CoefficientField.polynomial(Window(100), exponent=1.5),
                       LogPower(2.0, 1.5, 2.0))
    rung = solution_sequence(prob, SolverConfig(seed=1456606975), 2).results[1]
    u, twin = rung.u.values, -rung.u.values[::-1]
    assert float(np.max(np.abs(residual_many(twin, prob)))) <= 1e-10
    assert energy(LatticeSeq(prob.window, twin), prob) == pytest.approx(rung.energy, rel=1e-14)
    assert rung.energy == pytest.approx(587.5411905915307, rel=1e-12)
    assert u[prob.window.position(-1)] == pytest.approx(43.44096462933352, rel=1e-10)
    assert u[prob.window.position(1)] == pytest.approx(-4.546853985142279, rel=1e-10)
    assert solver._lex_order(rung, dataclasses.replace(rung, u=LatticeSeq(prob.window, twin))) == 1


# ---- amplitude balance / sequence ------------------------------------------------

def test_bump_amplitude_closed_form(ref_problem):
    # one-site balance: ln(1 + c^2) = (a + a + b(j)) / (lambda w(j))
    c0 = bump_amplitude(ref_problem, 0)
    assert c0 == pytest.approx(np.sqrt(np.exp(3.0) - 1.0), rel=1e-8)
    c1 = bump_amplitude(ref_problem, 1)
    assert c1 == pytest.approx(np.sqrt(np.exp(16.0) - 1.0), rel=1e-8)


# LogPower and PurePower give the amplitude in closed form; the bisection of
# per_point_bump_amplitude lands within 2e-14 relative of it (at most 9.9e-15
# on 363 sites of these problems and 40 random ones, each path within 8.2e-15
# of the root computed to 40 digits)
_CLOSED_FORM_RTOL = 2e-14


def _custom(drive):
    """``drive`` with no closed-form amplitude: bump_amplitude bisects it."""
    return CustomNonlinearity(drive.p, lambda k, t: float(drive.f(k, t)),
                              F_scalar=lambda k, t: float(drive.F(k, t)), odd=True)


def _reference_custom(K):
    prob = make_reference_problem(K)
    return dataclasses.replace(prob, nonlinearity=_custom(prob.nonlinearity))


def _assert_amplitudes_match(prob, got, want):
    """Exact for a bisected drive, else within _CLOSED_FORM_RTOL, with NaN where ``want`` has."""
    if isinstance(prob.nonlinearity, CustomNonlinearity):
        assert np.array_equal(got, want, equal_nan=True)
    else:
        assert np.array_equal(np.isnan(got), np.isnan(want))
        np.testing.assert_allclose(got, want, rtol=_CLOSED_FORM_RTOL, atol=0.0)


@pytest.mark.parametrize("make", [
    lambda rng: make_reference_problem(K=6),  # sites |k| >= 3 do not balance
    lambda rng: make_pure_power_problem(K=3, q=3.0),
    lambda rng: make_constant_problem(K=3, nl=_asymmetric_drive()),
    lambda rng: random_problem(rng, K=4),
    lambda rng: random_problem(rng, K=4, p=3.0),
    lambda rng: make_constant_problem(K=3, nl=_two_balance_drive()),
    lambda rng: make_pure_power_problem(K=3, q=2.4),  # non-integer powers
    lambda rng: make_constant_problem(K=3, p=1.5, nl=LogPower(1.5, 2.5, 2.0)),
    lambda rng: make_constant_problem(K=3, nl=_custom(PurePower(2.0, 2.4))),
    lambda rng: make_constant_problem(K=3, p=1.5, nl=_custom(LogPower(1.5, 2.5, 2.0))),
])
def test_bump_amplitude_matches_per_point_scan(make, rng):
    # a drive without a closed form evaluates the grid as one array and
    # bisects each site, of an array too, in the scan's scalar arithmetic, so
    # its amplitudes must agree exactly, with non-integer powers too; a closed
    # form agrees to _CLOSED_FORM_RTOL.  One site at a time and as an array,
    # with NaN in the array where the scan has None
    prob = make(rng)
    sites = np.arange(-3, 4)
    want = np.array([np.nan if w is None else w
                     for w in (per_point_bump_amplitude(prob, int(s)) for s in sites)])
    one = [bump_amplitude(prob, int(s)) for s in sites]
    assert all(c is None or type(c) is float for c in one)
    _assert_amplitudes_match(prob, np.array([np.nan if c is None else c for c in one]), want)
    got = bump_amplitude(prob, sites)
    assert got.shape == sites.shape
    _assert_amplitudes_match(prob, got, want)


def test_bump_amplitude_bisection_stops_at_its_fixed_point(monkeypatch):
    # once a step leaves (lo, hi) as it was, so would every later one: the
    # bisection stops there, well short of its 80 steps, with the same bits
    prob = _reference_custom(K=3)
    want = per_point_bump_amplitude(prob, 1)
    plain = CustomNonlinearity.f
    calls = []

    def counted(self, k, t):
        calls.append(np.ndim(t))
        return plain(self, k, t)

    monkeypatch.setattr(CustomNonlinearity, "f", counted)
    assert bump_amplitude(prob, 1) == want
    assert calls[0] == 1 and 40 < len(calls) - 1 < 80


def test_bump_amplitude_names_a_site_outside_the_window():
    prob = make_reference_problem(K=3)
    with pytest.raises(ValueError, match="index -4 outside window of half-width 3"):
        bump_amplitude(prob, np.array([0, 2, -4, 1]))


def _one_sided_problem(site):
    # the reference drive on K = 4 with b = 200 at ``site``: ln(1 + c^2) =
    # 202 / w there, so c is far past the 1e16 end of the amplitude grid
    window = Window(4)
    b = 1.0 + window.indices.astype(float) ** 2
    b[window.position(site)] = 200.0
    coeffs = CoefficientField.from_arrays(window, np.ones(window.size + 1), b)
    prob = ProblemSpec(2.0, 1.0, coeffs, LogPower(2.0, 2.0, 2.0))
    assert bump_amplitude(prob, site) is None and bump_amplitude(prob, -site) is not None
    return prob


@pytest.mark.parametrize("make, max_site", [
    (lambda: make_reference_problem(K=6), 4),  # sites |k| >= 3 do not balance
    (lambda: make_reference_problem(K=50), 3),
    (lambda: make_pure_power_problem(K=2), 3),  # max_site past K
    (lambda: make_pure_power_problem(K=6, q=3.0), 4),
    (lambda: _one_sided_problem(-1), 3),  # -1 takes the amplitude of 1
    (lambda: _one_sided_problem(1), 3),  # 1 does not balance, so neither of +-1 is used
    (lambda: _reference_custom(K=6), 4),  # bisected
], ids=["reference_K6", "reference_K50", "pure_power_K2", "pure_power_K6_q3", "minus_one_borrows",
        "plus_one_unbalanced", "reference_K6_custom"])
def test_candidate_starts_match_the_site_by_site_reference(make, max_site, monkeypatch):
    # one amplitude solve for all sites, and the starts of the reference, in
    # its order: exactly for a bisected drive, to _CLOSED_FORM_RTOL for a
    # closed form, with the same zero sites and signs
    prob = make()
    calls = _spy(monkeypatch, "bump_amplitude")
    got = solver._candidate_starts(prob, max_site)
    want = site_by_site_candidate_starts(prob, max_site)
    assert len(calls) == 1
    assert len(got) == len(want) > 0
    for g, w in zip(got, want):
        assert np.array_equal(np.sign(g), np.sign(w))
        _assert_amplitudes_match(prob, g, w)


def test_bump_amplitude_none_without_superlinearity():
    prob = make_constant_problem(K=3)  # zero drive never balances
    assert bump_amplitude(prob, 0) is None


def test_sequence_single_target(cfg):
    prob = make_reference_problem(K=12)
    sols = solution_sequence(prob, cfg, 1)
    assert len(sols) == 1
    assert sols.warning is None
    res = sols.results[0]
    assert res.energy > 0.0
    assert res.residual_inf_norm <= cfg.residual_tol
    assert res.tail_mass <= solver.TAIL_TOL


def test_sequence_accept_refuses_a_heavy_tail_before_continuation(monkeypatch, cfg):
    # a converged root on the window's edge keeps its mass in the tail: the
    # decay filter refuses it without a continuation solve
    prob = make_pure_power_problem(K=5)
    res = newton_solve(LatticeSeq.spike(prob.window, 5, bump_amplitude(prob, 5)), prob, cfg)
    assert res.converged and res.energy > 1e-8 and res.tail_mass > solver.TAIL_TOL

    def not_called(*args):
        raise AssertionError("window_continuation ran on a rejected root")

    monkeypatch.setattr(solver, "window_continuation", not_called)
    assert solver._sequence_accept(res, prob, cfg) is None


@pytest.mark.parametrize("flaw", ["truncation_artifact", "not_converged", "drift"])
def test_sequence_accept_refuses_a_failed_continuation(monkeypatch, cfg, flaw):
    # the central rung passes every filter; the same rung with a continuation
    # report that fails any one of its three tests is refused
    prob = make_reference_problem(K=12)
    res = newton_solve(LatticeSeq.spike(prob.window, 0, bump_amplitude(prob, 0)), prob, cfg)
    accepted = solver._sequence_accept(res, prob, cfg)
    assert accepted is not None and accepted.extras["continuation"]["half_width"] == 22
    report = solver.window_continuation(res, prob, 22, cfg)
    bad = {"truncation_artifact": dataclasses.replace(report, truncation_artifact=True),
           "not_converged": dataclasses.replace(
               report, result=dataclasses.replace(report.result, converged=False)),
           "drift": dataclasses.replace(report, drift=solver.DRIFT_TOL)}[flaw]
    monkeypatch.setattr(solver, "window_continuation", lambda *args: bad)
    assert solver._sequence_accept(res, prob, cfg) is None


def test_sequence_strictly_increasing(ref_problem, cfg):
    sols = solution_sequence(ref_problem, cfg, 3)
    assert len(sols) == 3
    e = sols.energies
    assert np.all(np.diff(e) > 1e-8)
    assert np.all(e > 0.0)


def test_sequence_deflation_rounds_add_a_rung(monkeypatch):
    # bump starts and the mountain pass leave this ladder short: the first
    # deflation round adds the J ~ 1103178.26 rung, the second adds nothing,
    # and the search ends one rung short
    prob = make_reference_problem(K=12)
    deflated = []
    plain = solver.deflated_solve

    def recorded(*args):
        deflated.append(plain(*args))
        return deflated[-1]

    monkeypatch.setattr(solver, "deflated_solve", recorded)
    sols = solution_sequence(prob, SolverConfig(seed=12345), 6)
    n_starts = len(solver._candidate_starts(prob, max_site=4))
    assert len(deflated) == 2 * n_starts
    assert sols.warning == "found 5 of 6 requested solutions before the search budget ran out"
    rung = 1103178.2581517622
    np.testing.assert_allclose(sols.energies, [4.179126380436237, 893424.7503922861,
                                               1102664.428352505, rung, 2645688.506548308],
                               rtol=1e-9)
    assert any(r.converged and r.energy == pytest.approx(rung, rel=1e-9)
               for r in deflated[:n_starts])


def test_enumerate_anchors_the_roots_it_rejects(monkeypatch):
    # every converged deflated root becomes an anchor, accepted or not, and
    # a round that stores nothing is the last one
    prob = make_pure_power_problem(K=2)
    n_anchors = []
    plain = solver.deflated_solve

    def recorded(known, *args):
        n_anchors.append(len(known))
        return plain(known, *args)

    monkeypatch.setattr(solver, "deflated_solve", recorded)
    starts = solver._candidate_starts(prob)
    stored = solver._enumerate(prob, SolverConfig(seed=0), [], starts,
                               accept=lambda res: None, done=lambda stored: False,
                               max_rounds=4, jitter=0.0)
    assert len(stored) == 0
    assert len(n_anchors) == len(starts)
    assert n_anchors[0] == 1 and n_anchors[-1] > 1
    assert n_anchors == sorted(n_anchors)


def test_enumerate_checks_a_root_only_until_it_is_stored(cfg):
    # random starts reach some roots many times; accept, which may run a
    # continuation solve, sees none of them again once it is stored
    prob = make_pure_power_problem(K=2)
    kept = SolutionSet(odd=True)

    def accept(res):
        assert not kept.contains_close(res.u.values)
        return res if res.converged and kept.add(res) else None

    extra = np.random.default_rng(0).uniform(-2.0, 2.0, size=(60, prob.window.size))
    stored = solver._enumerate(prob, cfg, [], solver._candidate_starts(prob), accept=accept,
                               done=lambda stored: False, max_rounds=2, jitter=0.0,
                               extra_starts=extra)
    assert len(stored) == len(kept) > 10
    assert all(np.array_equal(a.u.values, b.u.values) for a, b in zip(stored, kept))


def test_find_critical_points_deflates_from_the_bump_starts_only(monkeypatch, cfg):
    # random starts feed the multistart only: one deflation round makes one
    # deflated solve per bump start, however many random starts there are
    prob = make_pure_power_problem(K=2)
    calls = []
    plain = solver.deflated_solve

    def counted(*args):
        calls.append(args)
        return plain(*args)

    monkeypatch.setattr(solver, "deflated_solve", counted)
    find_critical_points(prob, cfg, random_starts=60, max_rounds=1)
    assert len(calls) == len(solver._candidate_starts(prob, 3))


def _two_balance_drive():
    # with stiffness 3 the gap f - 3t is t (t - 1)(t - 2)(t - 3): it turns
    # positive at c = 1 and again at c = 3, and the amplitude is the first
    return CustomNonlinearity(2.0, lambda k, t: t ** 4 - 6 * t ** 3 + 11 * t * t - 3 * t,
                              F_scalar=lambda k, t: t ** 5 / 5 - 1.5 * t ** 4 + 11 * t ** 3 / 3
                              - 1.5 * t * t)


def _asymmetric_drive():
    # f(-t) != -f(t), so -u is no root where u is one
    return CustomNonlinearity(2.0, lambda k, t: t ** 3 + t * t / 2,
                              F_scalar=lambda k, t: t ** 4 / 4 + t ** 3 / 6,
                              df_scalar=lambda k, t: 3 * t * t + t)


@pytest.mark.parametrize("odd", [True, False], ids=["odd", "not_odd"])
def test_every_returned_member_is_a_root(odd):
    if odd:
        find_prob, seq_prob = make_pure_power_problem(K=2), make_reference_problem(K=12)
    else:
        find_prob = make_constant_problem(K=2, nl=_asymmetric_drive())
        seq_prob = ProblemSpec(2.0, 1.0, CoefficientField.polynomial(Window(10), exponent=2.0),
                               _asymmetric_drive())
    assert find_prob.nonlinearity.is_odd is odd
    cfg = SolverConfig(seed=0)
    for prob, sols in ((find_prob, find_critical_points(find_prob, cfg)),
                       (seq_prob, solution_sequence(seq_prob, cfg, 3))):
        assert len(sols) > 0
        for r in sols:
            assert float(np.max(np.abs(residual_many(r.u.values, prob)))) <= cfg.residual_tol
            assert energy(r.u, prob) == pytest.approx(r.energy, rel=1e-12)


def _spy(monkeypatch, name, replacement=None):
    """Record the calls of ``solver.<name>``; run ``replacement`` in its place if given."""
    calls = []
    target = replacement or getattr(solver, name)

    def recorded(*args):
        calls.append(args)
        return target(*args)

    monkeypatch.setattr(solver, name, recorded)
    return calls


def test_sequence_without_a_negative_spike_skips_the_mountain_pass(monkeypatch, cfg):
    # the drive vanishes at site 0, so the spike there never reaches negative
    # energy and there is no mountain pass; the bump starts at the other
    # sites still find the rungs
    nl = CustomNonlinearity(2.0, lambda k, t: t ** 3 if k else 0.0,
                            F_scalar=lambda k, t: t ** 4 / 4 if k else 0.0,
                            df_scalar=lambda k, t: 3 * t * t if k else 0.0, odd=True)
    prob = ProblemSpec(2.0, 1.0, CoefficientField.polynomial(Window(8), exponent=2.0), nl)
    passes = _spy(monkeypatch, "mountain_pass")
    assert solver._first_pass_state(prob, cfg) is None
    sols = solution_sequence(prob, cfg, 2)
    assert passes == [] and sols.warning is None
    np.testing.assert_allclose(sols.energies, [3.044347996551262, 5.08178972262296],
                               rtol=1e-9)


def test_sequence_after_a_failed_mountain_pass_runs_the_bump_starts(monkeypatch, cfg):
    # the mountain pass raises; the sequence goes on from the bump starts and
    # finds the same first rung
    prob = make_reference_problem(K=12)
    want = solution_sequence(prob, cfg, 2)

    def no_pass(*args):
        raise MountainPassError("no pass")

    passes = _spy(monkeypatch, "mountain_pass", no_pass)
    assert solver._first_pass_state(prob, cfg) is None
    sols = solution_sequence(prob, cfg, 2)
    assert len(passes) == 2 and sols.warning is None
    np.testing.assert_allclose(sols.energies, want.energies, rtol=1e-9)


def test_sequence_zero_target(ref_problem, cfg):
    sols = solution_sequence(ref_problem, cfg, 0)
    assert len(sols) == 0
    assert sols.warning is None


def test_lambda_monotonicity(rng):
    prob = make_reference_problem(K=8)
    u = LatticeSeq.spike(prob.window, 0, 2.0)
    psi = energy_parts(u, prob).source_part
    assert psi > 0.0
    energies = [energy(u, prob.with_lambda(lam)) for lam in (0.5, 1.0, 2.0, 4.0)]
    assert all(a > b for a, b in zip(energies, energies[1:]))


# ---- brute-force cross-check (small version; the full one is acceptance) ---------

def test_pipeline_matches_flow_oracle_smoke(cfg):
    prob = make_pure_power_problem(K=1, q=4.0)
    pipe = find_critical_points(prob, cfg, random_starts=400, amplitude=2.5)
    oracle = multistart_flow_newton(prob, 3000, 2.5, seed=17)
    ok, a, b = sets_match([r.u.values for r in pipe], oracle)
    assert ok, f"pipeline found {len(a)} roots, oracle {len(b)}"
