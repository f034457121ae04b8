import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import dplhom.solver as solver
from dplhom import (CoefficientField, CustomNonlinearity, LatticeSeq, LogPower,
                    MountainPassError, ProblemSpec, SolutionSet, SolveResult,
                    SolverConfig, Window, bump_amplitude, deflated_solve,
                    energy, energy_parts, find_critical_points, mountain_pass,
                    newton_solve, residual, residual_many, solution_sequence,
                    sup_norm, weighted_norm, window_continuation)
from dplhom.solver import (_anchor_values, _deflation_terms, _newton_values,
                           _strict_ladder)
from conftest import (make_constant_problem, make_pure_power_problem,
                      make_reference_problem, random_problem)
from oracles import (dense_deflated_step, literal_deflation, multistart_flow_newton,
                     per_point_bump_amplitude, sets_match)


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
    # Cerami metric are evaluated once, on the returned point
    calls = {"energy": 0, "cerami_metric": 0}
    for name in calls:
        plain = getattr(solver, name)

        def counted(*args, _name=name, _plain=plain):
            calls[_name] += 1
            return _plain(*args)

        monkeypatch.setattr(solver, name, counted)
    prob = make_pure_power_problem(K=2)
    res = newton_solve(LatticeSeq.spike(prob.window, 0, 1.5), prob, cfg)
    assert res.converged and res.iterations >= 3
    assert calls == {"energy": 1, "cerami_metric": 1}


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
@given(st.integers(1, 6), st.integers(1, 5), st.floats(1.1, 4.0), st.data())
def test_deflation_terms_match_literal_loop(n, m, power, data):
    coords = st.floats(-3.0, 3.0)
    v = data.draw(hnp.arrays(np.float64, n, elements=coords))
    anchors = data.draw(hnp.arrays(np.float64, (m, n), elements=coords))
    assume(np.min(np.linalg.norm(anchors - v, axis=1)) > 1e-2)
    M, grad_log = _deflation_terms(v, anchors, power)
    M_ref, grad_ref = literal_deflation(v, anchors, power)
    assert M == pytest.approx(M_ref, rel=1e-12)
    np.testing.assert_allclose(M * grad_log, grad_ref, rtol=1e-9,
                               atol=1e-12 * np.max(np.abs(grad_ref)))


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
    sols = SolutionSet(tol=1e-6)
    sols.add(_stored(window, 0, 1.0))
    sols.add(_stored(window, 1, 2.0))
    assert _anchor_values(sols, True).shape == (4, 3)
    # without an odd drive a root's negation is no anchor
    assert _anchor_values(sols, False).shape == (2, 3)
    assert _anchor_values([w, w.copy(), zero], False).shape == (2, 3)


def test_deflation_polish_moves_little(cfg):
    # polishing the deflated root on the plain residual is a tiny correction
    prob = make_pure_power_problem(K=2)
    zero = LatticeSeq.zeros(prob.window)
    res = deflated_solve([zero], LatticeSeq.spike(prob.window, 0, 1.0), prob, cfg)
    assert res.converged
    assert res.extras["deflation"]["polish_move"] < 10.0 * cfg.residual_tol


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
    sols = SolutionSet(tol=1e-6, odd=prob.nonlinearity.is_odd)
    assert sols.add(res)
    assert sols.contains_close(negated.u.values)
    assert not sols.add(negated)
    assert len(sols) == 1
    # a set not told the drive is odd keeps both signs
    plain = SolutionSet(tol=1e-6)
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
    a, b = SolutionSet(tol=1e-6), SolutionSet(tol=1e-6)
    for r in found.results:
        a.add(r)
    for r in reversed(found.results):
        b.add(r)
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.u.values, rb.u.values)


def _stored(window, site, energy):
    return SolveResult(u=LatticeSeq.spike(window, site, 1.0), energy=energy,
                       residual_inf_norm=0.0, cerami_metric=0.0, tail_mass=0.0,
                       tail_threshold=0, iterations=0, converged=True)


def test_strict_ladder_treats_rounding_level_gaps_as_equal():
    # mirror-image rungs of equal true energy whose computed energies differ
    # in the last bits (seen at K=100 with lambda=1, b=1+|k|^1.5, mu=2.5)
    window = Window(3)
    pool = SolutionSet(tol=1e-6)
    for site, J in ((0, 1.25e8), (1, 261142232.44972134), (-1, 261142232.4497223),
                    (2, 261142300.0)):
        pool.add(_stored(window, site, J))
    assert [r.energy for r in _strict_ladder(pool)] == [1.25e8, 261142232.44972134,
                                                        261142300.0]


def test_strict_ladder_gap_is_absolute_below_unit_energy():
    window = Window(3)
    pool = SolutionSet(tol=1e-6)
    for site, J in ((0, 0.5), (1, 0.5 + 5e-9), (-1, 0.5 + 2e-8), (2, 3.0)):
        pool.add(_stored(window, site, J))
    assert [r.energy for r in _strict_ladder(pool)] == [0.5, 0.5 + 2e-8, 3.0]


# ---- amplitude balance / sequence ------------------------------------------------

def test_bump_amplitude_closed_form(ref_problem):
    # one-site balance: ln(1 + c^2) = (a + a + b(j)) / (lambda w(j))
    c0 = bump_amplitude(ref_problem, 0)
    assert c0 == pytest.approx(np.sqrt(np.exp(3.0) - 1.0), rel=1e-8)
    c1 = bump_amplitude(ref_problem, 1)
    assert c1 == pytest.approx(np.sqrt(np.exp(16.0) - 1.0), rel=1e-8)


@pytest.mark.parametrize("make", [
    lambda rng: make_reference_problem(K=6),
    lambda rng: make_pure_power_problem(K=3, q=3.0),
    lambda rng: make_constant_problem(K=3, nl=_asymmetric_drive()),
    lambda rng: random_problem(rng, K=4),
    lambda rng: random_problem(rng, K=4, p=3.0),
])
def test_bump_amplitude_matches_per_point_scan(make, rng):
    # the grid is evaluated as one array; the arithmetic per point is the
    # scalar scan's, so the amplitudes must agree exactly
    prob = make(rng)
    for site in range(-3, 4):
        assert bump_amplitude(prob, site) == per_point_bump_amplitude(prob, site)


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
    stored = solver._enumerate(prob, SolverConfig(seed=0), [], starts, starts,
                               accept=lambda res: None, done=lambda stored: False,
                               max_rounds=4, jitter=0.0, rng=np.random.default_rng(0))
    assert len(stored) == 0
    assert len(n_anchors) == len(starts)
    assert n_anchors[0] == 1 and n_anchors[-1] > 1
    assert n_anchors == sorted(n_anchors)


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
