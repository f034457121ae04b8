import dataclasses
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import dplhom.cli as cli
from dplhom import LatticeSeq, SolverConfig, newton_solve
from dplhom.config import KNOWN_KEYS, ConfigError, parse_config_text
from dplhom.records import (load_json, save_json, save_plot_csv, solution_record,
                            verify_record)
from conftest import subprocess_env
from oracles import full_block_report, literal_save_json, literal_save_plot_csv

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

LOG_POWER_LINES = [
    "problem.p = 2.0",
    "problem.lambda = 1.0",
    "problem.half_width = 30",
    "problem.coeff.kind = polynomial",
    "problem.coeff.exponent = 2.0",
    "problem.nonlinearity.kind = log_power",
    "problem.nonlinearity.mu = 2.0",
    "problem.nonlinearity.nu = 2.0",
]

PURE_POWER_LINES = [
    "problem.p = 2.0",
    "problem.lambda = 1.0",
    "problem.half_width = 10",
    "problem.coeff.kind = constant",
    "problem.nonlinearity.kind = pure_power",
    "problem.nonlinearity.q = 4.0",
]


def write_config(tmp_path, lines, name="run.cfg"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def run_cli(command, config, out, extra=()):
    return cli.run([command, "--config", config, "--out", str(out),
                    "--quiet", *extra])


# ---- config parsing ----------------------------------------------------------

def test_parse_rejects_bad_line():
    with pytest.raises(ConfigError) as err:
        parse_config_text("problem.p 2.0\n")
    assert "line 1" in str(err.value)


def test_parse_rejects_duplicate_key():
    with pytest.raises(ConfigError) as err:
        parse_config_text("problem.p = 1\nproblem.p = 2\n")
    assert "line 2" in str(err.value)


def test_parse_comments_and_quotes():
    cfg = parse_config_text('problem.nonlinearity.kind = "log_power"  # inline note\n'
                            '\n# full line\n')
    assert cfg.get_str("problem.nonlinearity.kind") == "log_power"


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError) as err:
        parse_config_text("problem.p = 2.0\n# note\nsolver.residul_tol = banana\n")
    assert (err.value.key, err.value.line) == ("solver.residul_tol", 3)


def test_known_keys_are_the_keys_read():
    # the table lists exactly the dotted keys that the builders and the
    # subcommands read, so no key is accepted and then ignored
    src = Path(cli.__file__).parent
    head, _, table_and_rest = (src / "config.py").read_text(encoding="utf-8") \
        .partition("KNOWN_KEYS = frozenset({")
    read = set()
    for text in (head, table_and_rest.partition("})")[2],
                 (src / "cli.py").read_text(encoding="utf-8")):
        read |= set(re.findall(r'"((?:problem|solver|check|solve|sequence|fountain|'
                               r'sweep|demo)\.[A-Za-z_.0-9]+)"', text))
    assert read == set(KNOWN_KEYS)


def test_solver_keys_are_the_solver_fields():
    assert ({k for k in KNOWN_KEYS if k.startswith("solver.")}
            == {"solver." + f.name for f in dataclasses.fields(SolverConfig)})


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.cfg")), ids=lambda p: p.name)
def test_shipped_configs_build(path):
    cfg = parse_config_text(path.read_text(encoding="utf-8"))
    cfg.build_problem()
    cfg.build_solver()
    cfg.build_plan()


def test_typed_accessor_errors_carry_key():
    cfg = parse_config_text("problem.p = banana\n")
    with pytest.raises(ConfigError) as err:
        cfg.get_float("problem.p")
    assert "problem.p" in str(err.value)


def test_validation_bounds():
    cfg = parse_config_text("\n".join([
        "problem.p = 0.5", "problem.half_width = 10",
        "problem.nonlinearity.kind = pure_power", "problem.nonlinearity.q = 4.0"]))
    with pytest.raises(ConfigError):
        cfg.build_problem()


def test_cli_usage_error_exit_code(tmp_path):
    assert cli.run(["check"]) == cli.EXIT_USAGE            # missing --config
    assert cli.run(["bogus", "--config", "x"]) == cli.EXIT_USAGE
    assert run_cli("check", str(tmp_path / "missing.cfg"), tmp_path) == cli.EXIT_USAGE


# A table field on the 21-site window needs 22 a values and 21 b values.
_TABLE = "problem.coeff.kind = table"
_A22, _B21 = ",".join(["1"] * 22), ",".join(["1"] * 21)


# The last line of each case is the one at fault.
@pytest.mark.parametrize("line", ["solver.max_iter = 0",
                                  "solver.seed = -5",
                                  "solver.residual_tol = inf",
                                  "solver.residual_tol = nan",
                                  "problem.lambda = inf",
                                  (_TABLE, f"problem.coeff.b_values = {_B21}",
                                   "problem.coeff.a_values = 1,1,1"),
                                  (_TABLE, f"problem.coeff.a_values = {_A22}",
                                   "problem.coeff.b_values = 1,1")])
def test_cli_type_invariant_violation_exit_code(tmp_path, capsys, line):
    added = (line,) if isinstance(line, str) else line
    keys = [ln.partition(" = ")[0] for ln in added]
    lines = [ln for ln in PURE_POWER_LINES if ln.partition(" = ")[0] not in keys] + list(added)
    cfg = write_config(tmp_path, lines)
    assert run_cli("solve", cfg, tmp_path / "out") == cli.EXIT_USAGE
    assert f"'{keys[-1]}', line {len(lines)}" in capsys.readouterr().err


# A misspelling, the retired one-valued sweep.parameter (the sweep always
# varies lambda), then solver settings that are constants in dplhom.solver.
@pytest.mark.parametrize("line", ["solver.residul_tol = banana",
                                  "sweep.parameter = lambda",
                                  "solver.line_search.shrink = 2.0",
                                  "solver.tail_fraction = 1.5",
                                  "solver.line_search.decrease = 0.9",
                                  "solver.deflation_exponent = -2",
                                  "solver.deflation_exponent = 0",
                                  "solver.jacobian_cap = 0",
                                  "solver.continuation_growth = 0",
                                  "solver.path_points = 64",
                                  "solver.tail_tol = 1e-6",
                                  "solver.drift_tol = 1e-6"])
def test_cli_misspelled_key_exit_code(tmp_path, capsys, line):
    cfg = write_config(tmp_path, PURE_POWER_LINES + [line, "solve.amplitde = 3.0"])
    assert run_cli("solve", cfg, tmp_path / "out") == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("config error: unknown key")
    assert f"'{line.partition(' = ')[0]}', line {len(PURE_POWER_LINES) + 1}" in err


@pytest.mark.parametrize("command", ["check", "solve", "sequence", "fountain", "sweep",
                                     "demo-inconsistency"])
def test_cli_negative_seed_exit_code(tmp_path, capsys, command):
    cfg = write_config(tmp_path, PURE_POWER_LINES)
    assert run_cli(command, cfg, tmp_path / "out", extra=["--seed", "-5"]) == cli.EXIT_USAGE
    assert "--seed" in capsys.readouterr().err


# Values the library would reject with a bare ValueError, an empty sweep, a
# reversed audit grid, and sweep values that are not positive or that share an
# output directory (lambda_1 for both); the last line of each case is the one
# at fault.
@pytest.mark.parametrize("command, lines", [
    ("solve", ["solve.site = 99"]),
    ("demo-inconsistency", ["demo.T1 = 2", "demo.T = 1"]),
    ("demo-inconsistency", ["demo.T = 2", "demo.T1 = 1", "demo.K_list = 0,5"]),
    ("sequence", [f"problem.coeff.a_values = {_A22}", f"problem.coeff.b_values = {_B21}",
                  _TABLE]),
    ("sweep", ["sweep.task = check", "sweep.values ="]),
    ("check", ["check.t_min = 10", "check.t_max = 1"]),
    ("sweep", ["sweep.task = check", "sweep.values = 1, -1"]),
    ("sweep", ["sweep.task = check", "sweep.values = 1.0000001, 1.0000002"]),
], ids=["site", "T", "K_list", "table", "sweep", "t_max", "sweep_sign", "sweep_dirs"])
def test_cli_out_of_range_value_names_its_key(tmp_path, capsys, command, lines):
    keys = [ln.partition("=")[0].strip() for ln in lines]
    lines = [ln for ln in PURE_POWER_LINES if ln.partition(" = ")[0] not in keys] + lines
    cfg = write_config(tmp_path, lines)
    assert run_cli(command, cfg, tmp_path / "out") == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert f"'{keys[-1]}', line {len(lines)}" in err


def test_cli_malformed_config_exit_code(tmp_path):
    cfg = write_config(tmp_path, ["problem.p = 2.0", "problem.half_width = zero",
                                  "problem.nonlinearity.kind = pure_power",
                                  "problem.nonlinearity.q = 4.0"])
    assert run_cli("check", cfg, tmp_path / "out") == cli.EXIT_USAGE


def test_cli_log_power_nu_ne_p_check_and_sequence(tmp_path):
    # nu != p takes the 2F1 primitive, which the audit evaluates up to t = 1000
    lines = [ln.replace("nu = 2.0", "nu = 3.0") for ln in LOG_POWER_LINES]
    cfg = write_config(tmp_path, lines + ["sequence.n_target = 3"])
    assert run_cli("check", cfg, tmp_path / "check") == cli.EXIT_OK
    out = tmp_path / "sequence"
    assert run_cli("sequence", cfg, out) == cli.EXIT_OK
    records = sorted(out.glob("solution_*.json"))
    assert len(records) == 3
    for path in records:
        drifts = verify_record(load_json(path))
        assert drifts["energy"] <= 1e-12
        assert drifts["residual_inf_norm"] <= 1e-12


@pytest.mark.parametrize("error", [cli.MountainPassError, cli.FountainGeometryError])
def test_cli_library_errors_map_to_numerical_exit(tmp_path, monkeypatch, error):
    def fail(*args):
        raise error("cannot continue")

    monkeypatch.setitem(cli._HANDLERS, "solve", fail)
    cfg = write_config(tmp_path, PURE_POWER_LINES)
    assert run_cli("solve", cfg, tmp_path / "out") == cli.EXIT_NUMERICAL
    assert len({cli.EXIT_OK, cli.EXIT_PARTIAL, cli.EXIT_REFUTED, cli.EXIT_INCONCLUSIVE,
                cli.EXIT_USAGE, cli.EXIT_NUMERICAL}) == 6


def run_module(tmp_path, command, config, module="dplhom.cli"):
    """``python -m <module>`` in a fresh interpreter; returns the finished process."""
    return subprocess.run(
        [sys.executable, "-m", module, command, "--config", config,
         "--out", str(tmp_path / "out"), "--quiet"],
        env=subprocess_env(), capture_output=True, text=True)


def test_cli_runs_as_a_module(tmp_path):
    bad = write_config(tmp_path, PURE_POWER_LINES + ["solve.amplitde = 3.0"])
    assert run_module(tmp_path, "check", bad).returncode == cli.EXIT_USAGE
    assert not (tmp_path / "out" / "check_report.json").exists()
    ok = run_module(tmp_path, "check", str(CONFIG_DIR / "reference.cfg"))
    assert ok.returncode == cli.EXIT_OK
    assert (tmp_path / "out" / "check_report.json").exists()


def test_package_runs_as_a_module(tmp_path):
    # python -m dplhom runs the same CLI as python -m dplhom.cli
    bad = write_config(tmp_path, PURE_POWER_LINES + ["solve.amplitde = 3.0"])
    assert run_module(tmp_path, "check", bad, module="dplhom").returncode == cli.EXIT_USAGE
    ok = run_module(tmp_path, "check", str(CONFIG_DIR / "reference.cfg"), module="dplhom")
    assert ok.returncode == cli.EXIT_OK
    assert (tmp_path / "out" / "check_report.json").exists()


def strict_json(path):
    """The file parsed as RFC 8259 JSON: a bare Infinity, -Infinity or NaN fails."""
    def reject(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(path.read_text(encoding="utf-8"), parse_constant=reject)


def test_cli_solve_with_a_non_finite_residual_exits_partial(tmp_path):
    # a 1e120 spike overflows the quartic drive: the solve stops unconverged
    # (exit 1), quietly; it is not a configuration error (exit 64)
    text = (CONFIG_DIR / "pure_power.cfg").read_text(encoding="utf-8")
    cfg = write_config(tmp_path, [text, "solve.amplitude = 1e120"])
    proc = run_module(tmp_path, "solve", cfg)
    assert proc.returncode == cli.EXIT_PARTIAL
    assert proc.stderr == ""
    path = tmp_path / "out" / "solution.json"
    strict_json(path)
    record = load_json(path)
    assert record["scalars"]["converged"] is False
    assert record["scalars"]["iterations"] == 1
    assert record["scalars"]["energy"] == -math.inf
    assert record["scalars"]["residual_inf_norm"] == math.inf


# ---- check -------------------------------------------------------------------

def test_check_log_power_main_conditions(tmp_path):
    cfg = write_config(tmp_path, LOG_POWER_LINES + [
        "check.required = H1,H2,H3,H4,H5",
        "check.k_max = 60",
    ])
    out = tmp_path / "out"
    assert run_cli("check", cfg, out) == cli.EXIT_OK
    report = load_json(out / "check_report.json")
    for name in ("H1", "H2", "H3", "H4", "H5"):
        assert report["reports"][name]["verdict"] == "satisfied_on_samples"
    h4p = report["reports"]["H4p"]
    assert h4p["verdict"] == "refuted"
    assert abs(h4p["witness"][0]) >= 3


def test_check_pure_power_kong_set_refuted(tmp_path):
    cfg = write_config(tmp_path, PURE_POWER_LINES + ["check.required = H3p,H4p"])
    assert run_cli("check", cfg, tmp_path / "out") == cli.EXIT_REFUTED


def test_check_empty_required_exits_zero(tmp_path):
    cfg = write_config(tmp_path, PURE_POWER_LINES)
    out = tmp_path / "out"
    assert run_cli("check", cfg, out) == cli.EXIT_OK
    assert (out / "check_report.json").exists()


def test_check_inconclusive_only_exit_code(tmp_path):
    # constant b: the floor holds but growth is invisible, so B is undecided
    cfg = write_config(tmp_path, PURE_POWER_LINES + ["check.required = B"])
    assert run_cli("check", cfg, tmp_path / "out") == cli.EXIT_INCONCLUSIVE


def test_check_with_t_max_below_one(tmp_path):
    # no |t| >= 1 sample: H2 and H4 are inconclusive, and H4' is reported as
    # inconclusive too instead of ending the run with a usage error
    text = (CONFIG_DIR / "reference.cfg").read_text(encoding="utf-8")
    cfg = write_config(tmp_path, [text, "check.t_max = 0.5"])
    out = tmp_path / "out"
    assert run_cli("check", cfg, out) == cli.EXIT_INCONCLUSIVE
    reports = load_json(out / "check_report.json")["reports"]
    assert {name: rep["verdict"] for name, rep in reports.items()
            if rep["verdict"] != "satisfied_on_samples"} == {
        "H2": "inconclusive", "H4": "inconclusive", "H4p": "inconclusive"}
    assert reports["H4p"]["detail"] == "not enough large-t samples"


@pytest.mark.parametrize("line", ["check.required = H7", "check.conditions = H9"])
def test_check_unknown_required_condition(tmp_path, capsys, line):
    cfg = write_config(tmp_path, PURE_POWER_LINES + [line])
    assert run_cli("check", cfg, tmp_path / "out") == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert f"'{line.partition(' = ')[0]}', line {len(PURE_POWER_LINES) + 1}" in err


# ---- demo-inconsistency ---------------------------------------------------------

def test_demo_pure_power_exact_average(tmp_path):
    cfg = write_config(tmp_path, PURE_POWER_LINES + [
        "demo.T = 2.0", "demo.T1 = 1.0", "demo.K_list = 10,100,1000"])
    out = tmp_path / "out"
    assert run_cli("demo-inconsistency", cfg, out) == cli.EXIT_OK
    table = load_json(out / "inconsistency_table.json")
    assert [row["K"] for row in table["rows"]] == [10, 100, 1000]
    for row in table["rows"]:
        assert abs(row["average"] - 4.0) <= 1e-12
        assert row["lower_bound"] == pytest.approx((2 * row["K"] + 1) * 0.75)


def test_demo_log_power_precondition_witness(tmp_path):
    cfg = write_config(tmp_path, LOG_POWER_LINES + [
        "demo.T = 2.0", "demo.T1 = 1.0", "demo.K_list = 10,100"])
    out = tmp_path / "out"
    assert run_cli("demo-inconsistency", cfg, out) == cli.EXIT_REFUTED
    table = load_json(out / "inconsistency_table.json")
    assert abs(table["witness"][0]) >= 10


# ---- solve / sequence -------------------------------------------------------------

def test_solve_zeros_trivial(tmp_path):
    cfg = write_config(tmp_path, LOG_POWER_LINES + ["solve.start = zeros"])
    out = tmp_path / "out"
    assert run_cli("solve", cfg, out) == cli.EXIT_OK
    rec = load_json(out / "solution.json")
    assert rec["scalars"]["converged"] is True
    assert rec["scalars"]["energy"] == 0.0


SEQ_LINES = [
    "problem.p = 2.0",
    "problem.lambda = 1.0",
    "problem.half_width = 12",
    "problem.coeff.kind = polynomial",
    "problem.coeff.exponent = 2.0",
    "problem.nonlinearity.kind = log_power",
    "problem.nonlinearity.mu = 2.0",
    "problem.nonlinearity.nu = 2.0",
    "sequence.n_target = 2",
    "solver.seed = 5",
    "check.k_max = 30",
]


def test_sequence_records_roundtrip(tmp_path):
    cfg = write_config(tmp_path, SEQ_LINES)
    out = tmp_path / "out"
    assert run_cli("sequence", cfg, out) == cli.EXIT_OK
    summary = (out / "sequence_summary.csv").read_text().strip().splitlines()
    assert summary[0] == "n,energy,residual_inf,cerami,tail_mass,drift"
    assert len(summary) == 3  # header + 2 solutions
    rec = load_json(out / "solution_000.json")
    drifts = verify_record(rec)
    assert drifts["energy"] <= 1e-12
    assert drifts["residual_inf_norm"] <= 1e-12
    plot = (out / "solution_000.csv").read_text().splitlines()
    assert plot[0] == "k,u"
    assert len(plot) == 1 + 25  # window 2K+1 rows


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1.5, 2.0, 3.0]), st.integers(1, 4), st.sampled_from(["log", "pure"]),
       st.data())
def test_solution_records_roundtrip_through_verify(tmp_path_factory, p, K, drive, data):
    nu = data.draw(st.sampled_from([p, p + 1.0]))  # the elementary and the 2F1 primitive
    drive_lines = (["problem.nonlinearity.kind = log_power", "problem.nonlinearity.mu = 2.0",
                    f"problem.nonlinearity.nu = {nu!r}"] if drive == "log" else
                   ["problem.nonlinearity.kind = pure_power",
                    f"problem.nonlinearity.q = {p + 1.5!r}"])
    cfg = parse_config_text("\n".join([
        f"problem.p = {p!r}", "problem.lambda = 0.7", f"problem.half_width = {K}",
        "problem.coeff.kind = polynomial", "problem.coeff.exponent = 2.0",
        "solver.max_iter = 3"] + drive_lines) + "\n")
    prob = cfg.build_problem()
    v0 = data.draw(hnp.arrays(np.float64, prob.window.size, elements=st.floats(-3.0, 3.0)))
    res = newton_solve(LatticeSeq(prob.window, v0), prob, cfg.build_solver())
    path = tmp_path_factory.mktemp("record") / "solution.json"
    save_json(path, solution_record(cfg, 0, res))
    drifts = verify_record(load_json(path))
    assert drifts["energy"] <= 1e-12
    assert drifts["residual_inf_norm"] <= 1e-12


def test_verify_record_rebuilds_the_window_of_a_wider_record(tmp_path):
    # a continued solution lives on a wider window than its config's; the
    # record's own half-width decides where the scalars are recomputed
    cfg = parse_config_text("\n".join(SEQ_LINES) + "\n")
    prob = cfg.build_problem().with_half_width(15)
    res = newton_solve(LatticeSeq.spike(prob.window, 0, 1.0), prob, cfg.build_solver())
    path = tmp_path / "solution.json"
    save_json(path, solution_record(cfg, 0, res))
    rec = load_json(path)
    assert rec["half_width"] == 15 and "problem.half_width = 12" in rec["config"]
    drifts = verify_record(rec)
    assert drifts["energy"] <= 1e-12
    assert drifts["residual_inf_norm"] <= 1e-12


JSON_SCALARS = (st.none() | st.booleans() | st.integers(-10**6, 10**6)
                | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=8))
JSON_KEYS = st.text("abfloty", max_size=6)  # the tag {"$float": name} is reserved
JSON_VALUES = st.recursive(JSON_SCALARS, lambda inner: st.lists(inner, max_size=4)
                           | st.dictionaries(JSON_KEYS, inner, max_size=4),
                           max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(JSON_KEYS, JSON_VALUES, max_size=4))
def test_save_json_writes_strict_json_that_round_trips(tmp_path_factory, payload):
    path = tmp_path_factory.mktemp("json") / "payload.json"
    save_json(path, payload)
    strict_json(path)
    plain = json.dumps(payload, sort_keys=True, indent=1) + "\n"
    if "NaN" not in plain and "Infinity" not in plain:
        # a record of finite floats keeps the bytes of a plain dump
        assert path.read_text(encoding="utf-8") == plain
    # equal after the round trip, with every NaN at the place of a NaN
    assert json.dumps(load_json(path), sort_keys=True) == json.dumps(payload, sort_keys=True)


def test_save_json_tags_each_non_finite_float(tmp_path):
    path = tmp_path / "record.json"
    save_json(path, {"scalars": {"energy": -math.inf, "metric": math.inf, "x": 1.5},
                     "rows": [(math.nan, 0.0), np.float64(math.inf)]})
    assert strict_json(path) == {
        "scalars": {"energy": {"$float": "-Infinity"}, "metric": {"$float": "Infinity"},
                    "x": 1.5},
        "rows": [[{"$float": "NaN"}, 0.0], {"$float": "Infinity"}]}
    back = load_json(path)
    assert back["scalars"] == {"energy": -math.inf, "metric": math.inf, "x": 1.5}
    assert math.isnan(back["rows"][0][0]) and back["rows"][1] == math.inf


def test_record_writers_keep_the_bytes_of_the_literal_writers(tmp_path):
    # a K = 400 rung, and the same record with inf, -inf and NaN scalars
    cfg = parse_config_text("\n".join(
        ln.replace("half_width = 30", "half_width = 400") for ln in LOG_POWER_LINES) + "\n")
    prob = cfg.build_problem()
    res = newton_solve(LatticeSeq.spike(prob.window, site=0, amplitude=2.0), prob,
                       SolverConfig(max_iter=3))
    odd = dataclasses.replace(res, energy=-math.inf, residual_inf_norm=math.inf,
                              cerami_metric=math.nan)
    values = res.u.values.copy()
    values[:6] = [-0.0, 5e-324, math.inf, -math.inf, math.nan, 1e300]
    for i, (record, u) in enumerate([(solution_record(cfg, 7, res), res.u.values),
                                     (solution_record(cfg, 7, odd, {"index": 3}), values)]):
        save_json(tmp_path / f"new{i}.json", record)
        literal_save_json(tmp_path / f"old{i}.json", record)
        save_plot_csv(tmp_path / f"new{i}.csv", prob.window, u)
        literal_save_plot_csv(tmp_path / f"old{i}.csv", prob.window, u)
        for ext in ("json", "csv"):
            new = (tmp_path / f"new{i}.{ext}").read_bytes()
            assert new == (tmp_path / f"old{i}.{ext}").read_bytes()
    assert b'"energy": {\n   "$float": "-Infinity"' in (tmp_path / "new1.json").read_bytes()
    assert len((tmp_path / "new0.csv").read_text().splitlines()) == 802


@pytest.mark.parametrize("config", sorted(p.name for p in CONFIG_DIR.glob("*.cfg")))
def test_check_reports_equal_the_full_block_reports(tmp_path, config):
    # `dplhom check` evaluates H1-H5 on each weighted drive's deciding k; its
    # report keeps every value of the full (k, t) block
    cli.run(["check", "--config", str(CONFIG_DIR / config), "--out", str(tmp_path),
             "--quiet"])
    reports = load_json(tmp_path / "check_report.json")["reports"]
    cfg = parse_config_text((CONFIG_DIR / config).read_text(encoding="utf-8"))
    nl, plan = cfg.build_problem().nonlinearity, cfg.build_plan()
    for cond in ("H1", "H2", "H3", "H4", "H5", "H2p"):
        ref = full_block_report(nl, plan, cond)
        assert reports[cond] == {
            "verdict": ref.verdict, "constants": ref.constants, "detail": ref.detail,
            "witness": None if ref.witness is None else list(ref.witness)}


def test_sequence_short_of_its_target_is_a_partial_result(tmp_path, capsys):
    # K = 8 holds one rung the search reaches: its records are written and
    # the run exits 1 with the warning
    cfg = write_config(tmp_path, [ln.replace("half_width = 12", "half_width = 8")
                                  for ln in SEQ_LINES])
    out = tmp_path / "out"
    assert cli.run(["sequence", "--config", cfg, "--out", str(out)]) == cli.EXIT_PARTIAL
    stdout, stderr = capsys.readouterr()
    assert stderr == "" and stdout.endswith(
        "warning: found 1 of 2 requested solutions before the search budget ran out\n")
    assert len((out / "sequence_summary.csv").read_text().splitlines()) == 2
    assert verify_record(load_json(out / "solution_000.json"))["energy"] <= 1e-12


def test_sequence_zero_target(tmp_path):
    cfg = write_config(tmp_path, SEQ_LINES, name="z.cfg")
    cfgtext = (tmp_path / "z.cfg").read_text().replace("sequence.n_target = 2",
                                                       "sequence.n_target = 0")
    (tmp_path / "z.cfg").write_text(cfgtext)
    out = tmp_path / "out0"
    assert run_cli("sequence", str(tmp_path / "z.cfg"), out) == cli.EXIT_OK
    summary = (out / "sequence_summary.csv").read_text().strip().splitlines()
    assert len(summary) == 1


def test_sequence_gate_refuses_refuted_drive(tmp_path, monkeypatch):
    from dplhom.hypotheses import HypothesisReport
    cfg = write_config(tmp_path, SEQ_LINES)

    def fake_check_all(nl, plan, coeffs=None, conditions=()):
        return {"H5": HypothesisReport("H5", "refuted", witness=(0, 1.0))}

    monkeypatch.setattr(cli, "check_all", fake_check_all)
    assert run_cli("sequence", cfg, tmp_path / "out") == cli.EXIT_REFUTED


def test_sequence_determinism_byte_identical(tmp_path):
    cfg = write_config(tmp_path, SEQ_LINES)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_cli("sequence", cfg, out_a) == cli.EXIT_OK
    assert run_cli("sequence", cfg, out_b) == cli.EXIT_OK
    for name in ("sequence_summary.csv", "solution_000.json", "solution_000.csv",
                 "solution_001.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_seed_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path, SEQ_LINES)
    out = tmp_path / "s"
    assert run_cli("sequence", cfg, out, extra=["--seed", "9"]) == cli.EXIT_OK
    rec = load_json(out / "solution_000.json")
    assert rec["seed"] == 9


# ---- fountain ----------------------------------------------------------------------

def test_fountain_small_table(tmp_path):
    cfg = write_config(tmp_path, SEQ_LINES + [
        "fountain.n_list = 1:4", "fountain.samples = 200"])
    out = tmp_path / "out"
    assert run_cli("fountain", cfg, out) == cli.EXIT_OK
    table = load_json(out / "fountain_table.json")
    rows = table["rows"]
    assert [r["n"] for r in rows] == [1, 2, 3, 4]
    bp = [r["beta_p"] for r in rows]
    assert all(b <= a + 1e-9 for a, b in zip(bp, bp[1:]))
    assert all(r["z_violations"] == 0 for r in rows if r["feasible"])
    csv_lines = (out / "fountain_table.csv").read_text().splitlines()
    assert csv_lines[0].startswith("n,beta_p,beta_q,feasible")
    assert len(csv_lines) == 5


@pytest.mark.parametrize("line", ["fountain.n_list = 90:95", "fountain.n_list = 5:3",
                                  "fountain.n_list = a:b", "fountain.n_list = 0,30",
                                  "fountain.q = 1.5"])
def test_fountain_bad_n_list(tmp_path, capsys, line):
    cfg = write_config(tmp_path, SEQ_LINES + [line])
    assert run_cli("fountain", cfg, tmp_path / "out") == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert f"'{line.partition(' = ')[0]}', line {len(SEQ_LINES) + 1}" in err


# A tiny growth constant d puts r_n past float64 range: r_n^p overflows at
# q = 2.5, and lam d beta_q^q underflows to 0 at q = 4.
@pytest.mark.parametrize("q, d", [("2.5", "1e-200"), ("4", "5e-324")])
def test_fountain_radius_beyond_float_range_is_a_partial_result(tmp_path, capsys, q, d):
    cfg = write_config(tmp_path, [ln.replace("half_width = 30", "half_width = 5")
                                  for ln in LOG_POWER_LINES]
                       + ["fountain.n_list = 1:3", f"fountain.q = {q}", f"fountain.d = {d}"])
    out = tmp_path / "out"
    assert cli.run(["fountain", "--config", cfg, "--out", str(out)]) == cli.EXIT_PARTIAL
    stdout, stderr = capsys.readouterr()
    assert stderr == "" and stdout.endswith("no split index has a floor check; "
                                            "see the row notes\n")
    rows = load_json(out / "fountain_table.json")["rows"]
    assert [r["n"] for r in rows] == [1, 2, 3]
    for r in rows:
        assert r["feasible"] and r["radius_z"] == math.inf
        assert r["energy_floor"] is None and r["z_violations"] is None
        assert r["radius_y"] is None and r["y_violations"] is None
        assert r["note"].startswith("radius_z = inf: r_z^p is beyond float64 range")


# F overflows on the sampled spheres before r_n^p leaves float64 range.  At
# d = 1e-77 no row keeps a floor check.  At d = 3e-77 row n = 1 keeps both
# checks: its energies are finite, down to -1.5e307 against a floor of
# 4.1e304, so its floor violations are real (d is far below the growth of F).
@pytest.mark.parametrize("d, code, n_checked",
                         [("1e-77", cli.EXIT_PARTIAL, 0), ("3e-77", cli.EXIT_REFUTED, 1)],
                         ids=["1e-77", "3e-77"])
def test_fountain_sphere_energies_beyond_float_range_are_not_checked(tmp_path, capsys, d, code,
                                                                       n_checked):
    cfg = write_config(tmp_path, [ln.replace("half_width = 30", "half_width = 5")
                                  for ln in LOG_POWER_LINES]
                       + ["fountain.n_list = 1:3", "fountain.q = 2.5", f"fountain.d = {d}"])
    out = tmp_path / "out"
    assert cli.run(["fountain", "--config", cfg, "--out", str(out)]) == code
    stdout, stderr = capsys.readouterr()  # tier-1 makes any numpy warning an error
    assert stderr == ""
    partial = stdout.endswith("no split index has a floor check; see the row notes\n")
    assert partial == (n_checked == 0)
    rows = load_json(out / "fountain_table.json")["rows"]
    for r in rows[:n_checked]:
        assert r["note"] == "" and r["y_violations"] == 0
        assert r["z_violations"] == 1000 and -math.inf < r["z_min_energy"] < r["energy_floor"]
    for r in rows[n_checked:]:
        assert r["z_violations"] is None and r["y_violations"] is None
        assert r["z_min_energy"] is None and r["y_max_energy"] is None
        assert ("r_z^p is beyond float64 range" in r["note"]
                or re.fullmatch(r"radius_z = \S+: the sum of F is beyond float64 range at \d+ of "
                                r"1000 samples, so the Z_n sphere is not checked; radius_y = \S+: "
                                r"the sum of F is beyond float64 range at \d+ of 1000 samples, "
                                r"so the Y_n sphere is not checked", r["note"]))
    assert any("the sum of F" in r["note"] for r in rows)


def test_fountain_real_floor_violation_is_refuted(tmp_path):
    # d = 0.01 is below the growth of F = t^4 / 4 (H2 needs d >= 1/4), so the
    # energies on the Z_n spheres fall below the floor r_n^2 / 4 they promise
    cfg = write_config(tmp_path, PURE_POWER_LINES + [
        "fountain.n_list = 1:3", "fountain.samples = 200", "fountain.d = 0.01"])
    out = tmp_path / "out"
    assert run_cli("fountain", cfg, out) == cli.EXIT_REFUTED
    for r in load_json(out / "fountain_table.json")["rows"]:
        assert r["note"] == "" and r["y_violations"] == 0
        assert r["z_violations"] > 0 and r["z_min_energy"] < r["energy_floor"]


# ---- sweep -------------------------------------------------------------------------

def test_sweep_over_lambda_emits_table_per_value(tmp_path):
    cfg = write_config(tmp_path, PURE_POWER_LINES + [
        "sweep.values = 0.1,1,10", "sweep.task = fountain",
        "fountain.n_list = 1,2", "fountain.samples = 100"])
    out = tmp_path / "out"
    # large lambda shrinks the feasibility margin to nothing, which is a
    # legitimate partial result; each value still gets its table
    assert run_cli("sweep", cfg, out) in (cli.EXIT_OK, cli.EXIT_PARTIAL)
    for lam in ("0.1", "1", "10"):
        table = load_json(out / f"lambda_{lam}" / "fountain_table.json")
        assert table["config"]["problem.lambda"] == repr(float(lam))
        assert len(table["rows"]) == 2
    feasible01 = [r["feasible"] for r in
                  load_json(out / "lambda_0.1" / "fountain_table.json")["rows"]]
    assert all(feasible01)


def test_sweep_over_lambda_check_task(tmp_path):
    cfg = write_config(tmp_path, PURE_POWER_LINES + [
        "sweep.values = 0.5,2", "sweep.task = check"])
    out = tmp_path / "out"
    assert run_cli("sweep", cfg, out) == cli.EXIT_OK
    for lam in ("0.5", "2"):
        report = load_json(out / f"lambda_{lam}" / "check_report.json")
        assert report["config"]["problem.lambda"] == repr(float(lam))


def test_shipped_sweep_config_runs(tmp_path):
    # the README's sweep example: one fountain table per lambda value
    out = tmp_path / "out"
    assert run_cli("sweep", str(CONFIG_DIR / "lambda_sweep.cfg"), out) == cli.EXIT_OK
    assert sorted(d.name for d in out.iterdir()) == ["lambda_0.5", "lambda_1", "lambda_2"]
    for lam in ("0.5", "1", "2"):
        table = load_json(out / f"lambda_{lam}" / "fountain_table.json")
        assert table["config"]["problem.lambda"] == repr(float(lam))
        assert [r["n"] for r in table["rows"]] == [1, 2, 3, 4]
