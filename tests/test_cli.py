from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import egbp.cli
from egbp.assembly import ProblemSpec, assemble_system
from egbp.cli import (
    _STUDIES,
    CONDITION_HEADER,
    CSV_HEADER,
    STANDARD_HEADER,
    StudyConfig,
    StudyReport,
    _add_eoc,
    _check_layer,
    apply_experiment_defaults,
    emit_tables,
    layer_source,
    load_config,
    main,
    run_study,
    smooth_exact,
)
from oracles import parse_report_csv


def sample_report():
    config = StudyConfig(experiment="custom", levels=2)
    rows = [
        dict(
            elements=64, h=0.25, err_l2=1e-2, err_h1=1e-1, jump_norm=1e-3, const_l2=2e-3,
            iters=4, min_val=0.0, max_val=1.0, cons_residual=1e-16, nonlinear_residual=2.5e-13,
        ),
        dict(
            elements=256, h=0.125, err_l2=0.25e-2, err_h1=0.5e-1, jump_norm=0.125e-3,
            const_l2=0.25e-3, iters=3, min_val=0.0, max_val=1.0, cons_residual=2e-16,
        ),
    ]
    _add_eoc(rows)
    return StudyReport(config=config, tables={"t": (CSV_HEADER, rows)})


def test_eoc_columns():
    rows = sample_report().tables["t"][1]
    assert all(np.isnan(rows[0][k]) for k in ("eoc_l2", "eoc_h1", "eoc_jump", "eoc_const"))
    assert rows[1]["eoc_l2"] == pytest.approx(2.0)
    assert rows[1]["eoc_h1"] == pytest.approx(1.0)
    assert rows[1]["eoc_jump"] == pytest.approx(3.0)
    assert rows[1]["eoc_const"] == pytest.approx(3.0)


def test_emit_and_parse_roundtrip(tmp_path):
    report = sample_report()
    paths = emit_tables(report, str(tmp_path))
    csv_path = [p for p in paths if p.endswith(".csv")][0]
    rows = parse_report_csv(csv_path)
    assert len(rows) == 2
    assert rows[0]["elements"] == 64
    assert rows[0]["err_l2"] == 1e-2  # 17 significant digits are bit-exact
    assert np.isnan(rows[0]["eoc_l2"])
    assert rows[1]["eoc_l2"] == pytest.approx(2.0)
    assert rows[1]["iters"] == 3
    assert rows[0]["nonlinear_residual"] == 2.5e-13
    assert np.isnan(rows[1]["nonlinear_residual"])  # not recorded: "--"


def test_emit_tables_markdown(tmp_path):
    report = sample_report()
    paths = emit_tables(report, str(tmp_path))
    md = [p for p in paths if p.endswith(".md")][0]
    lines = Path(md).read_text().strip().split("\n")
    assert lines[0].startswith("| elements |")
    assert lines[0].endswith("| cons_residual | nonlinear_residual |")
    assert lines[1] == "|" + "---|" * len(CSV_HEADER)
    assert len(lines) == 4
    assert "--" in lines[2]  # first-level EOC cells are empty markers


def test_emit_tables_deterministic(tmp_path):
    report = sample_report()
    a = emit_tables(report, str(tmp_path / "a"))[0]
    b = emit_tables(report, str(tmp_path / "b"))[0]
    assert Path(a).read_bytes() == Path(b).read_bytes()


def test_emit_tables_empty(tmp_path):
    assert emit_tables(StudyReport(config=StudyConfig()), str(tmp_path / "none")) == []
    report = StudyReport(config=StudyConfig(), tables={"empty": (CSV_HEADER, [])})
    paths = emit_tables(report, str(tmp_path))
    csv_path = [p for p in paths if p.endswith(".csv")][0]
    assert Path(csv_path).read_text().strip() == ",".join(CSV_HEADER)
    assert parse_report_csv(csv_path) == []


def test_emit_tables_integer_column(tmp_path):
    # a table that is not per level: its integer columns stay integers
    row = dict(beta=2, elements=np.int64(8), h=0.5, cond_A=12.5, cond_A1=1.0, cond_A0=np.inf)
    report = StudyReport(config=StudyConfig(), tables={"c": (CONDITION_HEADER, [row])})
    csv_path, md_path = emit_tables(report, str(tmp_path))
    (parsed,) = parse_report_csv(csv_path, CONDITION_HEADER)
    assert type(parsed["beta"]) is int and type(parsed["elements"]) is int
    assert (parsed["beta"], parsed["elements"], parsed["h"]) == (2, 8, 0.5)
    assert parsed["cond_A1"] == 1.0 and np.isnan(parsed["cond_A0"])
    md_row = Path(md_path).read_text().split("\n")[2]
    assert md_row == "| 2 | 8 | 5.00e-01 | 1.25e+01 | 1.00e+00 | -- |"


def test_parse_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        parse_report_csv(str(path))


def test_load_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        """
# comment line
experiment = layer
levels = 3          # trailing comment
epsilon = 1e-7
emit_fields = true
"""
    )
    values = load_config(str(path))
    assert values == {
        "experiment": "layer",
        "levels": 3,
        "epsilon": 1e-7,
        "emit_fields": True,
    }


def test_load_config_unknown_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("no_such_key = 1\n")
    with pytest.raises(ValueError):
        load_config(str(path))


def test_load_config_bad_boolean(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("check = maybe\n")
    with pytest.raises(ValueError):
        load_config(str(path))


@pytest.mark.parametrize("line", ["omega = 0.5", "tol_inner = 1e-9"])
def test_load_config_rejects_removed_keys(tmp_path, line):
    # the solve reads neither setting: an old config line fails loudly
    path = tmp_path / "run.cfg"
    path.write_text(line + "\n")
    key = line.split(" = ")[0]
    with pytest.raises(ValueError, match="unknown key '%s'" % key):
        load_config(str(path))


def test_removed_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["smooth", "--omega", "0.5"])
    assert exc.value.code == 2
    assert "--omega" in capsys.readouterr().err


def test_load_config_coerces_every_field(tmp_path):
    # integer-looking text for float fields must still give floats
    text = {"bool": "yes", "int": "3", "float": "2", "str": "layer"}
    declared = {f.name: f.type.split(" | ")[0] for f in fields(StudyConfig)}
    assert set(declared.values()) == set(text)
    path = tmp_path / "run.cfg"
    path.write_text("".join("%s = %s\n" % (k, text[t]) for k, t in declared.items()))
    values = load_config(str(path))
    assert values.keys() == declared.keys()
    for key, kind in declared.items():
        assert type(values[key]).__name__ == kind, key
    assert values["beta"] == 3 and values["epsilon"] == 2.0 and values["check"] is True
    assert StudyConfig(**values).out_dir == "layer"


def test_apply_experiment_defaults():
    config = apply_experiment_defaults(StudyConfig(experiment="smooth"))
    assert config.x0 == -1.0 and config.nx == 8 and config.epsilon == 1e-5
    # user-set values survive
    config = apply_experiment_defaults(StudyConfig(experiment="smooth", levels=2))
    assert config.levels == 2
    config = apply_experiment_defaults(StudyConfig(experiment="condition"))
    assert config.epsilon == 1.0 and config.mu == 1.0 and config.nx == config.ny == 2
    with pytest.raises(ValueError):
        apply_experiment_defaults(StudyConfig(experiment="bogus"))
    with pytest.raises(ValueError, match="divisible by 4"):
        apply_experiment_defaults(StudyConfig(experiment="layer", nx=6))


@pytest.mark.parametrize("experiment", ["smooth", "layer", "custom"])
def test_default_run_uses_problem_spec_defaults(monkeypatch, tmp_path, experiment):
    # the CLI declares no solver default of its own: a run without flags
    # hands the study the ProblemSpec field defaults
    specs = []

    def fake_run_levels(config, spec, name, **kwargs):
        specs.append(spec)
        return StudyReport(config=config)

    monkeypatch.setattr(egbp.cli, "_run_levels", fake_run_levels)
    assert main([experiment, "--out", str(tmp_path)]) == 0
    spec = specs[0]
    assert spec == ProblemSpec(
        epsilon=spec.epsilon, mu=spec.mu, f=spec.f, u_D=spec.u_D, f_quadrature=spec.f_quadrature
    )


def _layer_config_from_main(monkeypatch, tmp_path, argv):
    """Filled config that ``main`` hands to the layer study, without solving."""
    seen = []

    def fake_layer(config):
        seen.append(config)
        return StudyReport(config=config)

    monkeypatch.setitem(_STUDIES, "layer", (fake_layer,) + _STUDIES["layer"][1:])
    assert main(["layer", "--out", str(tmp_path)] + argv) == 0
    return seen[0]


def test_levels_flag_wins_over_experiment_default(monkeypatch, tmp_path):
    # 5 is also the generic default; the layer study's own default is 2
    config = _layer_config_from_main(monkeypatch, tmp_path, ["--levels", "5"])
    assert config.levels == 5
    assert config.epsilon == 1e-7


def test_config_file_value_wins_over_experiment_default(monkeypatch, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epsilon = 1e-5\n")
    config = _layer_config_from_main(monkeypatch, tmp_path, ["--config", str(cfg)])
    assert config.epsilon == 1e-5
    assert config.levels == 2


def test_smooth_exact_consistency():
    u, grad_u, make_f = smooth_exact()
    # boundary trace of the manufactured solution vanishes
    xs = np.linspace(-1.0, 1.0, 33)
    assert np.abs(u(xs, 0.0)).max() <= 1e-14
    assert np.abs(u(xs, 1.0)).max() <= 1e-13
    assert np.abs(u(-1.0, xs)).max() <= 1e-14
    assert np.abs(u(1.0, np.linspace(0, 1, 9))).max() <= 1e-13
    # finite-difference check of the gradient at an interior point
    gx, gy = grad_u(0.3, 0.4)
    d = 1e-6
    assert gx == pytest.approx((u(0.3 + d, 0.4) - u(0.3 - d, 0.4)) / (2 * d), abs=1e-8)
    assert gy == pytest.approx((u(0.3, 0.4 + d) - u(0.3, 0.4 - d)) / (2 * d), abs=1e-8)
    # f = (eps*c + mu) u with c > 0
    f = make_f(1e-3, 2.0)
    assert f(0.3, 0.4) / u(0.3, 0.4) == pytest.approx(1e-3 * (np.pi**2 / 4 + np.pi**2) + 2.0)


def test_layer_source_values():
    assert layer_source(0.5, 0.5) == 0.0
    assert layer_source(0.1, 0.5) == 1.0
    assert layer_source(0.25, 0.25) == 0.0
    out = layer_source(np.array([0.0, 0.5, 1.0]), np.array([0.5, 0.5, 0.5]))
    assert np.array_equal(out, [1.0, 0.0, 1.0])


def test_run_custom_small():
    config = StudyConfig(experiment="custom", levels=2, nx=4, ny=4, epsilon=1e-3)
    report = run_study(config)
    assert list(report.tables) == ["custom"]
    rows = report.tables["custom"][1]
    assert len(rows) == 2
    assert report.all_converged
    assert rows[0]["elements"] == 32
    assert rows[1]["elements"] == 128
    for row in rows:
        assert row["min_val"] >= -1e-10
        assert row["max_val"] <= 1.0 + 1e-10


@pytest.mark.parametrize(
    "experiment, defaults, tables",
    [
        ("smooth", dict(x0=-1.0, nx=8, ny=4, epsilon=1e-5), ["smooth"]),
        ("layer", dict(x0=0.0, nx=12, ny=12, epsilon=1e-7), ["layer", "layer_standard"]),
        ("condition", dict(x0=0.0, nx=2, ny=2, epsilon=1.0), ["condition"]),
        ("custom", dict(x0=0.0, nx=8, ny=4, epsilon=1e-5), ["custom"]),
    ],
)
def test_run_study_runs_the_configured_experiment(experiment, defaults, tables):
    # the config's experiment picks the defaults and the study, so the
    # report echoes it and holds that study's tables on that study's mesh
    report = run_study(StudyConfig(experiment=experiment, levels=1))
    assert report.config.experiment == experiment
    assert {k: getattr(report.config, k) for k in defaults} == defaults
    assert list(report.tables) == tables
    elements = 2 * defaults["nx"] * defaults["ny"]
    assert all(row["elements"] == elements for name in tables for row in report.tables[name][1])


def test_run_condition_small(tmp_path, monkeypatch):
    # the full beta sweep on 8 and 32 elements; A11 does not depend on beta,
    # so kappa(A11) is computed once per mesh, kappa(A) and kappa(A00) once
    # per (beta, mesh)
    calls = []
    condition_number = egbp.cli.condition_number

    def counting(A):
        calls.append(A.shape)
        return condition_number(A)

    monkeypatch.setattr(egbp.cli, "condition_number", counting)
    config = StudyConfig(experiment="condition", levels=2)
    report = run_study(config)
    columns, rows = report.tables["condition"]
    assert columns == CONDITION_HEADER
    assert [(r["beta"], r["elements"]) for r in rows] == [
        (beta, n) for beta in (1, 2, 4) for n in (8, 32)
    ]
    assert len(calls) == 3 * 2 * 2 + 2
    assert [r["cond_A1"] for r in rows] == [rows[0]["cond_A1"], rows[1]["cond_A1"]] * 3
    for coarse, fine in zip(rows[::2], rows[1::2]):
        assert fine["cond_A"] > coarse["cond_A"]
    path = emit_tables(report, str(tmp_path))[0]
    lines = Path(path).read_text().strip().split("\n")
    assert lines[0] == "beta,elements,h,cond_A,cond_A1,cond_A0"
    assert len(lines) == 7


def test_condition_study_penalty_is_above_the_coercivity_threshold():
    # gamma = 10 keeps every monolithic matrix of the study positive definite
    # up to 512 elements; at beta = 1 the threshold on 512 elements is 2.61,
    # so gamma = 2 leaves that matrix indefinite
    config = apply_experiment_defaults(StudyConfig(experiment="condition", levels=4))
    meshes = list(egbp.cli._mesh_sequence(config))

    def lambda_min(mesh, **overrides):
        A = assemble_system(mesh, config.problem_spec(**overrides)).full_matrix()
        return np.linalg.eigvalsh(A.toarray())[0]

    assert all(lambda_min(mesh, beta=beta) > 0.0 for beta in (1, 2, 4) for mesh in meshes)
    assert lambda_min(meshes[-1], beta=1, gamma=2.0) < 0.0


def test_condition_reads_config_epsilon(tmp_path):
    # only beta is swept: epsilon and mu from a config file reach the matrices
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epsilon = 0.001\nmu = 5\n")
    assert main(["condition", "--levels", "2", "--out", str(tmp_path / "a")]) == 0
    argv = ["condition", "--levels", "2", "--config", str(cfg), "--out", str(tmp_path / "b")]
    assert main(argv) == 0
    a = parse_report_csv(str(tmp_path / "a" / "condition.csv"), CONDITION_HEADER)
    b = parse_report_csv(str(tmp_path / "b" / "condition.csv"), CONDITION_HEADER)
    assert len(a) == len(b) == 6
    assert all(ra["cond_A"] != rb["cond_A"] for ra, rb in zip(a, b))
    md = (tmp_path / "a" / "condition.md").read_text().strip().split("\n")
    assert md[0] == "| beta | elements | h | cond_A | cond_A1 | cond_A0 |"
    assert md[1] == "|---|---|---|---|---|---|"
    assert [line.split(" | ")[:2] for line in md[2:]] == [
        ["| %d" % beta, str(n)] for beta in (1, 2, 4) for n in (8, 32)
    ]


def test_main_layer_writes_standard_table(tmp_path):
    # the standard EG comparator undershoots on the coarsest layer mesh
    assert main(["layer", "--levels", "1", "--out", str(tmp_path)]) == 0
    (row,) = parse_report_csv(str(tmp_path / "layer_standard.csv"), STANDARD_HEADER)
    assert row["elements"] == 288
    assert row["min_val"] < 0.0 and row["violations"] > 0
    assert (tmp_path / "layer_standard.md").exists()


def test_bound_checks_read_the_configured_bounds():
    # [0.1, 0.7] lies in [0, 1] but not in the configured [0, 0.5]
    row = dict(min_val=0.1, max_val=0.7)
    report = StudyReport(
        config=StudyConfig(bound_a=0.0, bound_b=0.5),
        tables={
            "layer": (CSV_HEADER, [row]),
            "layer_standard": (STANDARD_HEADER, [dict(min_val=-0.1, max_val=0.4)]),
            "custom": (CSV_HEADER, [row]),
        },
    )
    expected = ["bound-preserving range [1.000e-01, 7.000e-01] violates [0, 0.5]"]
    assert _check_layer(report) == expected
    assert _STUDIES["custom"][1](report) == expected
    # the comparator's undershoot is measured against a, not against 0
    report.config = StudyConfig(bound_a=0.2, bound_b=1.0)
    report.tables["layer"] = (CSV_HEADER, [dict(min_val=0.2, max_val=0.7)])
    assert _check_layer(report) == []
    report.config.bound_a = -0.2
    assert _check_layer(report) == ["standard EG did not undershoot on any level"]


def test_main_custom_check_fails_outside_the_bounds(tmp_path, capsys):
    # zero boundary data below a = 0.001: u+ leaves [a, b] at the boundary
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bound_a = 0.001\n")
    argv = ["custom", "--levels", "1", "--check", "--config", str(cfg), "--out", str(tmp_path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("CHECK FAILED: bound-preserving range [")
    assert err.endswith("] violates [0.001, 1]\n")


def test_main_custom_exit_zero(tmp_path):
    rc = main(["custom", "--out", str(tmp_path), "--levels", "1"])
    assert rc == 0
    assert (tmp_path / "custom.csv").exists()
    assert (tmp_path / "custom.md").exists()


def test_main_smooth_small_run(tmp_path):
    rc = main(["smooth", "--out", str(tmp_path), "--levels", "2"])
    assert rc == 0
    rows = parse_report_csv(str(tmp_path / "smooth.csv"))
    assert len(rows) == 2
    assert rows[1]["err_l2"] < rows[0]["err_l2"]
    assert all(0.0 <= r["nonlinear_residual"] <= 1e-10 for r in rows)


def test_main_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("levels = 1\nnx = 4\nny = 4\nepsilon = 1e-2\n")
    rc = main(["custom", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 0
    rows = parse_report_csv(str(tmp_path / "out" / "custom.csv"))
    assert rows[0]["elements"] == 32


def test_main_emit_fields(tmp_path):
    rc = main(["custom", "--out", str(tmp_path), "--levels", "1", "--emit-fields"])
    assert rc == 0
    assert (tmp_path / "custom_level0.csv").exists()
    # every CSV the CLI writes ends its lines in LF alone
    written = sorted(p.name for p in tmp_path.glob("*.csv"))
    assert written == ["custom.csv", "custom_level0.csv", "custom_trace_level0.csv"]
    assert not any(b"\r" in (tmp_path / name).read_bytes() for name in written)


def _forbid_assembly(monkeypatch):
    """Make any assembly, and so any solve, of a study fail the test."""

    def fail(*args, **kwargs):
        raise AssertionError("a study started on invalid input")

    monkeypatch.setattr(egbp.cli, "assemble_system", fail)


@pytest.mark.parametrize("levels", ["0", "-1"])
def test_levels_below_one_rejected(tmp_path, capsys, levels):
    with pytest.raises(SystemExit) as exc:
        main(["custom", "--levels", levels, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "levels must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, cfg, message",
    [
        (["custom", "--tol-outer", "-1"], None, "tol_outer must be finite and >= 0"),
        (["custom"], "levels 3\n", "expected 'key = value'"),
        (["layer"], "nx = 6\n", "layer study requires nx, ny divisible by 4"),
        (["condition", "--beta", "3"], None, "beta cannot be set"),
        (["condition"], "beta = 2\n", "beta cannot be set"),
        (["custom", "--config", "{tmp}/missing.cfg"], None, "No such file"),
        (["custom"], "nx = 0\n", "subdivision counts must be >= 1"),
        (["layer"], "x1 = -2\n", "degenerate rectangle"),
        # condition reads none of these: set to any value, even the default, they are errors
        (["condition"], "alpha = 1\n", "alpha cannot be set"),
        (["condition"], "bound_a = 0\n", "bound_a cannot be set"),
        (["condition"], "bound_b = 1\n", "bound_b cannot be set"),
        (["condition", "--tol-outer", "1e-3"], None, "tol_outer cannot be set"),
        (["condition"], "tol_outer = 1e-12\n", "tol_outer cannot be set"),
        # the solver's iteration limits are constants, not settings
        (["condition"], "max_inner = 500\n", "unknown key"),
        (["condition"], "max_outer = 200\n", "unknown key"),
        (["condition", "--emit-fields"], None, "emit_fields cannot be set"),
        (["condition"], "emit_fields = false\n", "emit_fields cannot be set"),
        (
            ["condition", "--levels", "2", "--emit-fields", "--tol-outer", "1e-3"],
            None,
            "tol_outer, emit_fields cannot be set",
        ),
        # the subcommand is the experiment; a config file may only repeat it
        (["smooth"], "experiment = layer\n", "config file sets experiment = layer"),
        (["condition"], "experiment = custom\n", "config file sets experiment = custom"),
        # a 1 x 1 coarse mesh has no interior vertex, so its A11 has no condition number
        (["condition", "--levels", "1"], "nx = 1\nny = 1\n", "condition study requires nx, ny >= 2"),
    ],
)
def test_input_error_exits_2(monkeypatch, tmp_path, capsys, argv, cfg, message):
    # checked before any solve: a usage error, and no table is written
    _forbid_assembly(monkeypatch)
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    if cfg is not None:
        (tmp_path / "run.cfg").write_text(cfg)
        argv += ["--config", str(tmp_path / "run.cfg")]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_out_path_is_a_file_exits_2(monkeypatch, tmp_path, capsys):
    # the output directory is made before the first solve, not after the last
    _forbid_assembly(monkeypatch)
    out = tmp_path / "taken"
    out.write_text("")
    with pytest.raises(SystemExit) as exc:
        main(["layer", "--levels", "2", "--out", str(out)])
    assert exc.value.code == 2
    assert "File exists" in capsys.readouterr().err
    assert out.read_text() == ""


def test_solve_error_propagates(monkeypatch, tmp_path):
    # only input errors become usage errors
    def failing_run(config):
        raise ValueError("failure inside the solve")

    monkeypatch.setitem(_STUDIES, "custom", (failing_run,) + _STUDIES["custom"][1:])
    with pytest.raises(ValueError, match="failure inside the solve"):
        main(["custom", "--out", str(tmp_path)])


# Fewest levels whose rates leave out the pre-asymptotic coarsest mesh.
_MIN_CHECK_LEVELS = {"smooth": 3, "condition": 4}


@pytest.mark.parametrize("experiment", ["smooth", "condition"])
def test_condition_check_on_one_level_fails(tmp_path, capsys, experiment):
    # the EOCs and the kappa(A) rate need two levels; no NaN rate is reported
    assert main([experiment, "--levels", "1", "--check", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err == "CHECK FAILED: %s rates need at least %d levels, got 1\n" % (experiment, _MIN_CHECK_LEVELS[experiment])


@pytest.mark.parametrize("experiment", ["smooth", "condition"])
def test_rate_checks_pass_from_their_level_minimum(tmp_path, capsys, experiment):
    # one level fewer names the minimum; at the minimum a working program
    # passes (with the 8-element mesh in it, the kappa(A11) fit at 4 levels is 2.20)
    n = _MIN_CHECK_LEVELS[experiment]
    assert main([experiment, "--levels", str(n - 1), "--check", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err == "CHECK FAILED: %s rates need at least %d levels, got %d\n" % (experiment, n, n - 1)
    assert main([experiment, "--levels", str(n), "--check", "--out", str(tmp_path)]) == 0
