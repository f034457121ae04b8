from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dplhom import (CoefficientField, CustomNonlinearity, LogPower,
                    PreconditionViolation, PurePower, SamplingPlan, Window,
                    check_all, check_hypothesis, inconsistency_demo,
                    positivity_check, phi_p)
from dplhom.nonlinearity import WEIGHT_CONVENTIONS
from oracles import full_block_report

GATE = ("H1", "H2", "H2p", "H3", "H4", "H5")


@pytest.fixture(scope="module")
def plan():
    return SamplingPlan.default()


@pytest.fixture(scope="module")
def log22():
    return LogPower(2.0, 2.0, 2.0)


def pure_p_power(p=2.0):
    """f = phi_p(t): the borderline drive with f t / |t|^p identically 1."""
    return CustomNonlinearity(p, lambda k, t: phi_p(p, t),
                              F_scalar=lambda k, t: abs(t) ** p / p, odd=True)


def test_plan_validation():
    with pytest.raises(ValueError):
        SamplingPlan(np.array([]), np.array([1.0]), np.array([0.5]))
    with pytest.raises(ValueError):
        SamplingPlan(np.array([0]), np.array([1.0]), np.array([2.0]))


def test_unknown_condition_rejected(plan, log22):
    with pytest.raises(ValueError):
        check_hypothesis(log22, "H9", plan)


def test_condition_B_needs_coefficients(plan, log22):
    with pytest.raises(ValueError):
        check_hypothesis(log22, "B", plan)


def test_condition_B_polynomial_growth(plan, log22):
    coeffs = CoefficientField.polynomial(Window(50), exponent=2.0)
    rep = check_hypothesis(log22, "B", plan, coeffs)
    assert rep.verdict == "satisfied_on_samples"


def test_condition_B_constant_inconclusive(plan, log22):
    coeffs = CoefficientField.constant(Window(50))
    rep = check_hypothesis(log22, "B", plan, coeffs)
    assert rep.verdict == "inconclusive"


def test_condition_B_floor_violation_refuted(plan, log22):
    # the library types enforce the floor, so exercise the checker on a stub
    w = Window(10)
    b = np.ones(w.size)
    b[3] = 0.25
    stub = SimpleNamespace(window=w, b=b, b0=1.0)
    rep = check_hypothesis(log22, "B", plan, stub)
    assert rep.refuted
    assert rep.witness == (-7, 0.25)


def test_log_power_satisfies_main_conditions(plan, log22):
    reports = check_all(log22, plan, conditions=("H1", "H2", "H3", "H4", "H5"))
    for name, rep in reports.items():
        assert rep.verdict == "satisfied_on_samples", (name, rep.detail)
    assert reports["H5"].constants["sigma"] == pytest.approx(1.0, abs=1e-9)
    assert reports["H2"].constants["q"] == 4.0
    assert 0.0 < reports["H2"].constants["d"] < 1.0


def test_H1_refutes_a_drive_that_is_not_odd(plan):
    # f = t^3 + t^2 has f(k, t) + f(k, -t) = 2 t^2; the witness reproduces it
    nl = CustomNonlinearity(2.0, lambda k, t: t ** 3 + t * t,
                            F_scalar=lambda k, t: t ** 4 / 4 + t ** 3 / 3)
    rep = check_hypothesis(nl, "H1", plan)
    assert rep.refuted
    k, t = rep.witness
    assert k in plan.k_values and t in plan.t_values
    assert nl.f(k, t) + nl.f(k, -t) == pytest.approx(2.0 * t * t, rel=1e-12)


def test_log_power_fails_uniform_superlinearity(plan, log22):
    rep = check_hypothesis(log22, "H4p", plan)
    assert rep.refuted
    k_witness, _ = rep.witness
    assert abs(k_witness) >= 3  # crossing escapes the grid at decayed weights


def test_log_power_satisfies_kong_growth_bound(plan, log22):
    rep = check_hypothesis(log22, "H2p", plan)
    assert rep.verdict == "satisfied_on_samples"


def test_pure_power_summability_refuted(plan):
    nl = PurePower(2.0, 4.0)
    rep = check_hypothesis(nl, "H3p", plan)
    assert rep.refuted
    # closed-form oracle: sup over |t| <= T of |F| is T^4 / 4 for every k,
    # so partial sums are (2K+1) T^4/4 and increments never decay
    T = plan.summability_T
    assert rep.constants["partial_sum"] == pytest.approx(
        (2 * 100 + 1) * T ** 4 / 4.0, rel=1e-12)


def test_pure_power_uniform_superlinearity_satisfied(plan):
    rep = check_hypothesis(PurePower(2.0, 4.0), "H4p", plan)
    assert rep.verdict == "satisfied_on_samples"
    assert rep.constants["T1"] == pytest.approx(1.0, rel=0.1)


def test_borderline_power_fails_superlinearity(plan):
    rep = check_hypothesis(pure_p_power(), "H4", plan)
    assert rep.refuted
    k, t = rep.witness
    ratio = pure_p_power().f(k, t) * t / abs(t) ** 2.0
    assert ratio == pytest.approx(1.0, rel=1e-9)  # witness reproducible


def test_zero_drive_fails_superlinearity(plan):
    rep = check_hypothesis(CustomNonlinearity.zero(2.0), "H4", plan)
    assert rep.refuted


def test_monotone_verdicts_never_flip_refuted(plan):
    small = SamplingPlan.default(k_max=25, t_max=1e2)
    for nl, cond in ((PurePower(2.0, 4.0), "H3p"), (pure_p_power(), "H4")):
        assert check_hypothesis(nl, cond, small).refuted
        assert check_hypothesis(nl, cond, plan).refuted  # superset plan


def test_growth_bound_inconclusive_without_exponent(plan):
    nl = CustomNonlinearity(2.0, lambda k, t: t ** 3,
                            F_scalar=lambda k, t: t ** 4 / 4.0, odd=True)
    rep = check_hypothesis(nl, "H2", plan)
    assert rep.verdict == "inconclusive"


def test_h5_sign_violation_reported(plan):
    # f = -phi_p(t) makes curly_F = -|t|^p + |t|^p... pick f = -t^3 (p=2):
    # curly_F = -t^4 + 2 t^4/4 = -t^4/2 < 0
    nl = CustomNonlinearity(2.0, lambda k, t: -t ** 3,
                            F_scalar=lambda k, t: -t ** 4 / 4.0, odd=True)
    rep = check_hypothesis(nl, "H5", plan)
    assert rep.refuted
    k, t = rep.witness
    assert nl.curly_F(k, t) < -1e-9


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_H3_refutes_a_drive_of_order_p_minus_1_at_zero(plan, p):
    # f = phi_p(t) keeps f / |t|^(p-1) at 1 down to the smallest sampled |t|
    nl = pure_p_power(p)
    rep = check_hypothesis(nl, "H3", plan)
    assert rep.refuted
    k, t = rep.witness
    assert k in plan.k_values and abs(t) == np.min(np.abs(plan.small_t()))
    assert abs(nl.f(k, t)) / abs(t) ** (p - 1.0) == pytest.approx(1.0, rel=1e-12)


def test_h5_vanishing_base_refuted(plan):
    # F = t^4 on |t| < 1 and t^2 beyond (p = 2): curly_F = 2 t^4 inside and
    # exactly 0 outside, so no finite sigma bounds curly_F(k, st) / curly_F(k, t)
    nl = CustomNonlinearity(2.0, lambda k, t: 4.0 * t ** 3 if abs(t) < 1.0 else 2.0 * t,
                            F_scalar=lambda k, t: t ** 4 if abs(t) < 1.0 else t * t, odd=True)
    rep = check_hypothesis(nl, "H5", plan)
    assert rep.refuted and rep.detail == "curly_F vanishes at (k,t) but not at (k,st)"
    k, t, s = rep.witness
    assert nl.curly_F(k, t) == 0.0 and nl.curly_F(k, s * t) > 1e-6


_P = st.sampled_from([1.5, 2.0, 3.0]) | st.floats(1.05, 4.0)
_LOG_POWER = st.builds(
    lambda p, mu, nu, conv: LogPower(p, mu, p if nu is None else nu, conv),
    _P, st.sampled_from([1.5, 2.0, 3.0]) | st.floats(1.01, 8.0),
    st.none() | st.sampled_from([1.0, 1.5, 2.0, 3.0]) | st.floats(1.0, 5.0),
    st.sampled_from(WEIGHT_CONVENTIONS))
_PURE_POWER = st.builds(lambda p, dq, c: PurePower(p, p + dq, c), _P,
                        st.sampled_from([0.02, 0.5, 2.0]) | st.floats(0.001, 4.0),
                        st.sampled_from([1e-14, 1.0, 5.0]) | st.floats(1e-6, 1e6))
# plans down to one k and a few t, where H3 and H4 turn inconclusive or
# refuted, and up to |t| where f, F and curly_F overflow
_PLAN = st.builds(
    lambda k_max, t_min, decades, per_decade, s_points: SamplingPlan.default(
        k_max, t_min, t_min * 10.0 ** decades, per_decade, s_points),
    st.integers(1, 120), st.sampled_from([1e-8, 1e-3, 0.05]) | st.floats(1e-12, 0.5),
    st.sampled_from([0.5, 1.5, 11.0, 208.0]) | st.floats(0.05, 20.0),
    st.integers(1, 60), st.integers(2, 30))


@settings(max_examples=150, deadline=None)
@given(_LOG_POWER | _PURE_POWER, _PLAN)
@example(LogPower(2.0, 2.0, 2.0), SamplingPlan.default(1, 0.05, 1.5, 1, 2))  # H3 refuted
@example(PurePower(2.0, 4.0, 1e-14), SamplingPlan.default(40, 1e-8, 1.5, 40, 2))  # H4 refuted
@example(LogPower(2.0, 2.0, 2.0, "abs_nonzero"),
         SamplingPlan.default(3, 1e-8, 1e200, 1, 2))  # H5 overflows on the row of greatest w
def test_gate_on_the_deciding_row_gives_the_full_block_report(nl, plan):
    # a drive with a weight is checked on the k (and, for H4, the |t| levels)
    # that decide each check: verdict, witness, constants and detail are the
    # full block's, compared as reprs so that a NaN constant compares too
    with np.errstate(all="ignore"):
        for cond in GATE:
            assert repr(check_hypothesis(nl, cond, plan)) == repr(full_block_report(nl, plan, cond))


@pytest.mark.parametrize("nl, plan_args, cond, verdict", [
    (LogPower(2.0, 2.0, 2.0), (1, 0.05, 1.5, 1, 2), "H3", "refuted"),
    (LogPower(2.0, 2.0, 2.0), (1, 1e-3, 50.0, 1, 2), "H3", "inconclusive"),
    (PurePower(2.0, 4.0, 1e-14), (40, 1e-8, 1.5, 40, 2), "H4", "refuted"),
    (LogPower(2.0, 2.0, 2.0), (1, 1e-8, 1.5, 1, 2), "H4", "inconclusive"),
    (LogPower(2.0, 2.0, 2.0, "abs_nonzero"), (3, 1e-8, 1e200, 1, 2), "H5", "refuted"),
], ids=["H3_refuted", "H3_inconclusive", "H4_refuted", "H4_inconclusive", "H5_overflow"])
def test_gate_examples_reach_each_verdict(nl, plan_args, cond, verdict):
    plan = SamplingPlan.default(*plan_args)
    with np.errstate(all="ignore"):
        rep = check_hypothesis(nl, cond, plan)
        assert rep.verdict == verdict
        assert repr(rep) == repr(full_block_report(nl, plan, cond))


@pytest.mark.parametrize("nl, verdict", [
    (CustomNonlinearity(2.0, lambda k, t: t ** 3, F_scalar=lambda k, t: t ** 4 / 4.0, odd=True),
     "satisfied_on_samples"),
    (pure_p_power(), "refuted"),
    (CustomNonlinearity.zero(2.0), "refuted"),
    (CustomNonlinearity(2.0, lambda k, t: (1.0 + k * k) * t ** 3,
                        F_scalar=lambda k, t: (1.0 + k * k) * t ** 4 / 4.0, odd=True),
     "satisfied_on_samples"),
    # not odd: the worst ratio at a level is the one at -t
    (CustomNonlinearity(2.0, lambda k, t: t ** 3 + t * t,
                        F_scalar=lambda k, t: t ** 4 / 4 + t ** 3 / 3), "satisfied_on_samples"),
], ids=["cubic", "borderline", "zero", "k_growing_cubic", "not_odd"])
def test_H4_on_its_two_levels_gives_the_full_grid_report_for_a_custom_drive(plan, nl, verdict):
    rep = check_hypothesis(nl, "H4", plan)
    assert rep.verdict == verdict
    assert rep == full_block_report(nl, plan, "H4")


@pytest.mark.parametrize("t_max", [1e3, 1e80, 1e200])
def test_gate_with_weights_that_underflow_to_zero(t_max):
    # at mu = 500 the weight is 0.0 at 194 of the 201 k: w = 0 keeps rounding
    # monotone, so the rows of greatest w still decide every check
    nl = LogPower(2.0, 500.0, 2.0)
    plan = SamplingPlan.default(k_max=100, t_max=t_max)
    assert np.count_nonzero(nl.weight(plan.k_values) == 0.0) == 194
    with np.errstate(all="ignore"):
        for cond in GATE:
            assert repr(check_hypothesis(nl, cond, plan)) == repr(full_block_report(nl, plan, cond))


# numpy scalars, so that |t| up to 1e200 overflows to inf rather than raising
_NOT_ODD = CustomNonlinearity(2.0, lambda k, t: np.float64(t) ** 3 + t * t,
                              F_scalar=lambda k, t: np.float64(t) ** 4 / 4 + t ** 3 / 3,
                              name="not_odd")
# plans whose large-|t| grid is not empty, up to |t| where f overflows
_H4_PLAN = st.builds(
    lambda k_max, t_min, t_max, per_decade: SamplingPlan.default(k_max, t_min, t_max,
                                                                 per_decade, 2),
    st.integers(1, 60), st.sampled_from([1e-8, 1e-3, 0.05]) | st.floats(1e-12, 0.5),
    st.sampled_from([1.5, 1e3, 1e80, 1e200]) | st.floats(1.5, 1e12), st.integers(1, 12))


@settings(max_examples=80, deadline=None)
@given(_LOG_POWER | _PURE_POWER
       | st.sampled_from([_NOT_ODD, PurePower(2.0, 2.02, 1e-14)]),  # the last never reaches 1
       _H4_PLAN)
@example(PurePower(2.0, 2.02, 1e-14), SamplingPlan.default(20, 1e-8, 1e200, 4, 2))  # below 1
@example(_NOT_ODD, SamplingPlan.default(5, 1e-3, 1e3, 6, 2))
@example(LogPower(2.0, 2.0, 2.0), SamplingPlan.default(60, 1e-8, 1e3, 12, 2))  # H4' refuted
def test_H4_and_H4p_give_the_full_profile_reports(nl, plan):
    # H4 on its two |t| levels and H4' on one evaluation of the large-|t|
    # block report what the full profiles of every level gave
    with np.errstate(all="ignore"):
        for cond in ("H4", "H4p"):
            assert repr(check_hypothesis(nl, cond, plan)) == repr(full_block_report(nl, plan, cond))


def test_H1_without_positive_t_is_inconclusive(log22):
    plan0 = SamplingPlan(np.arange(-2, 3), np.array([-1.0, 0.0]), np.array([0.5]))
    rep = check_hypothesis(log22, "H1", plan0)
    assert (rep.verdict, rep.detail) == ("inconclusive", "no nonzero t samples")


def test_H4p_refuted_where_H4_is(plan):
    rep = check_hypothesis(pure_p_power(), "H4p", plan)
    assert rep.refuted
    assert rep.witness == check_hypothesis(pure_p_power(), "H4", plan).witness
    assert rep.detail.startswith("pointwise superlinearity already fails: ratio at k=")


def test_H4p_inconclusive_below_level_one(plan):
    # f t / |t|^p = 1e-14 t^2 stays below 1e-8 up to |t| = 1e3
    rep = check_hypothesis(PurePower(2.0, 4.0, 1e-14), "H4p", plan)
    assert (rep.verdict, rep.detail) == ("inconclusive",
                                         "the ratio stays below 1 on the whole grid")
    assert check_hypothesis(PurePower(2.0, 4.0, 1e-14), "H4", plan).verdict == \
        "satisfied_on_samples"


@pytest.mark.parametrize("nl", [LogPower(2.0, 2.0, 2.0), PurePower(2.0, 4.0)],
                         ids=["log_power", "pure_power"])
def test_H4p_inconclusive_without_large_t(nl):
    # t_max < 1 leaves no |t| >= 1 to probe: H4' answers as H4 does, where
    # the crossing probe once took an argmax over an empty grid
    plan = SamplingPlan.default(t_max=0.5)
    assert plan.large_t().size == 0
    for cond in ("H4", "H4p"):
        rep = check_hypothesis(nl, cond, plan)
        assert (rep.condition, rep.verdict, rep.detail, rep.witness, rep.constants) == (
            cond, "inconclusive", "not enough large-t samples", None, {})


def test_H3p_needs_eight_k():
    rep = check_hypothesis(PurePower(2.0, 4.0), "H3p", SamplingPlan.default(k_max=7))
    assert (rep.verdict, rep.detail) == ("inconclusive", "k range too small")


def test_H3p_satisfied_where_the_tail_vanishes(plan):
    rep = check_hypothesis(CustomNonlinearity.zero(2.0), "H3p", plan)
    assert rep.verdict == "satisfied_on_samples"
    assert rep.detail == "tail contributions vanish on the sampled range"
    assert rep.constants == {"T": plan.summability_T, "partial_sum": 0.0}


def test_H3p_inconclusive_for_a_barely_summable_weight(plan):
    # w = (1 + |k|)^-1.01: the increments do not shrink on |k| <= 100, yet the
    # outer terms are below half the inner ones
    rep = check_hypothesis(LogPower(2.0, 1.01, 2.0), "H3p", plan)
    assert (rep.verdict, rep.detail) == ("inconclusive", "decay too slow to certify summability")
    assert rep.constants["tail_ratio"] >= 0.99


def _spy_k_rows(monkeypatch, cls):
    """Record (rows of k, distinct t) of every f, F and curly_F call on ``cls``."""
    calls = []
    for name in ("f", "F", "curly_F"):
        plain = getattr(cls, name)

        def spy(self, k, t, plain=plain, name=name):
            calls.append((name, int(np.size(k)), np.unique(np.abs(t)).size))
            return plain(self, k, t)

        monkeypatch.setattr(cls, name, spy)
    return calls


def test_weighted_gate_calls_the_drive_on_one_k_row(monkeypatch, plan):
    calls = _spy_k_rows(monkeypatch, LogPower)
    check_all(LogPower(2.0, 2.0, 2.0), plan, conditions=("H1", "H2", "H3", "H4", "H5"))
    # one k row, except H4's f, which takes every k at its two |t| levels
    assert {name for name, _, _ in calls} == {"f", "F", "curly_F"}
    assert all(rows == 1 or (name, rows, levels) == ("f", plan.k_values.size, 2)
               for name, rows, levels in calls)
    assert sum(rows > 1 for _, rows, _ in calls) == 1


def test_custom_drive_gate_calls_the_drive_on_the_full_k_block(monkeypatch):
    small = SamplingPlan.default(k_max=50, t_min=1e-2, t_max=1e2, per_decade=2, s_points=3)
    nl = CustomNonlinearity(2.0, lambda k, t: t ** 3, F_scalar=lambda k, t: t ** 4 / 4.0,
                            odd=True)
    calls = _spy_k_rows(monkeypatch, CustomNonlinearity)
    check_all(nl, small, conditions=("H1", "H2", "H3", "H4", "H5"))
    # every k of the plan, and H5's 81-row subsample (its f and F calls
    # come from curly_F)
    assert {rows for _, rows, _ in calls} == {small.k_values.size, 81}
    assert {name for name, rows, _ in calls if rows == 81} == {"curly_F", "f", "F"}


def test_positivity_log_power(plan, log22):
    rep = positivity_check(log22, plan)
    assert rep.passed
    assert rep.min_F >= -1e-12 and rep.min_ft >= -1e-12


def test_positivity_zero_row_exact():
    plan0 = SamplingPlan(np.arange(-3, 4), np.array([0.0, 1.0]), np.array([0.5]))
    rep = positivity_check(LogPower(2.0, 2.0, 2.0), plan0)
    assert rep.min_F >= 0.0 and rep.min_ft >= 0.0


def test_positivity_flags_sign_violation(plan):
    nl = CustomNonlinearity(2.0, lambda k, t: -t ** 3,
                            F_scalar=lambda k, t: -t ** 4 / 4.0, odd=True)
    rep = positivity_check(nl, plan)
    assert not rep.passed
    assert rep.min_F < -1e-6 and rep.min_ft < -1e-6


# ---- inconsistency demo ------------------------------------------------------

def test_inconsistency_demo_pure_power_exact():
    demo = inconsistency_demo(PurePower(2.0, 4.0), T=2.0, T1=1.0,
                              K_list=[10, 100, 1000])
    for K, s, avg, bound in demo.rows():
        assert s == pytest.approx((2 * K + 1) * 4.0, abs=0.0)
        assert abs(avg - 4.0) <= 1e-12
        assert bound == pytest.approx((2 * K + 1) * 0.75, rel=1e-12)
    assert demo.min_margin == pytest.approx(0.75, rel=1e-12)


def test_inconsistency_demo_linear_growth_ratio():
    demo = inconsistency_demo(PurePower(2.0, 4.0), T=2.0, T1=1.0,
                              K_list=[100, 200])
    s100, s200 = demo.partial_sums
    assert s200 / s100 == pytest.approx(401.0 / 201.0, rel=1e-12)


def test_inconsistency_demo_rejects_decaying_weights(log22):
    with pytest.raises(PreconditionViolation) as err:
        inconsistency_demo(log22, T=2.0, T1=1.0, K_list=[10, 100])
    k, t, val = err.value.witness
    assert abs(k) >= 10  # the floor |f| >= 1 breaks where the weight decays
    assert val < 1.0


def test_inconsistency_demo_argument_validation():
    with pytest.raises(ValueError):
        inconsistency_demo(PurePower(2.0, 4.0), T=1.0, T1=2.0, K_list=[10])
    with pytest.raises(ValueError):
        inconsistency_demo(PurePower(2.0, 4.0), T=2.0, T1=1.0, K_list=[])
