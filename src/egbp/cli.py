"""Config-driven experiment harness and command-line interface.

Subcommands reproduce the three studies (smooth convergence, interior
layer, conditioning) plus free-form custom runs.  All output is
machine-readable: CSV with 17-significant-digit decimals for re-parsing,
Markdown with 3-significant-digit scientific notation for reading.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .analysis import (
    LevelRecord,
    bound_violation,
    condition_number,
    conservation_report,
    eoc,
    error_h1_linear,
    error_l2,
    fit_rate,
    jump_norm,
)
from .assembly import ProblemSpec, assemble_system
from .fespace import DofMap, dirichlet_lift, write_egfunction
from .mesh import build_structured, refine_uniform
from .solver import solve_bound_preserving, solve_standard_eg, write_trace

__all__ = [
    "StudyConfig",
    "StudyReport",
    "run_smooth",
    "run_layer",
    "run_condition",
    "run_custom",
    "emit_tables",
    "parse_report_csv",
    "main",
]

CSV_HEADER = (
    "elements,h,err_l2,eoc_l2,err_h1,eoc_h1,jump_norm,eoc_jump,"
    "const_l2,eoc_const,iters,min_val,max_val,cons_residual,nonlinear_residual"
)


@dataclass
class StudyConfig:
    """Flat experiment configuration.

    Fields left at None are filled by :func:`apply_experiment_defaults`,
    so any value the user sets explicitly wins over the defaults.
    """

    experiment: str = "smooth"
    levels: int | None = None
    nx: int | None = None
    ny: int | None = None
    x0: float | None = None
    y0: float | None = None
    x1: float | None = None
    y1: float | None = None
    epsilon: float | None = None
    mu: float | None = None
    gamma: float | None = None
    beta: int | None = None
    alpha: float | None = None
    bound_a: float | None = None
    bound_b: float | None = None
    tol_outer: float | None = None
    max_inner: int = ProblemSpec.max_inner
    max_outer: int = ProblemSpec.max_outer
    emit_fields: bool = False
    out_dir: str = "."
    check: bool = False

    def problem_spec(self, f=None, u_D=None, **overrides):
        kwargs = dict(
            epsilon=self.epsilon,
            mu=self.mu,
            gamma=self.gamma,
            beta=self.beta,
            alpha=self.alpha,
            bounds=(self.bound_a, self.bound_b),
            f=f,
            u_D=u_D,
            tol_outer=self.tol_outer,
            max_inner=self.max_inner,
            max_outer=self.max_outer,
        )
        kwargs.update(overrides)
        return ProblemSpec(**kwargs)


# The solver settings default to ProblemSpec's own defaults.
_DEFAULTS = dict(
    levels=5, nx=8, ny=4, x0=0.0, y0=0.0, x1=1.0, y1=1.0, epsilon=1e-5, mu=1.0,
    gamma=ProblemSpec.gamma, beta=ProblemSpec.beta, alpha=ProblemSpec.alpha,
    bound_a=ProblemSpec.bounds[0], bound_b=ProblemSpec.bounds[1], tol_outer=ProblemSpec.tol_outer,
)

# Per experiment, the values that differ from _DEFAULTS.
_EXPERIMENT_DEFAULTS = {
    "smooth": dict(x0=-1.0),
    "layer": dict(levels=2, nx=12, ny=12, epsilon=1e-7),
    "condition": dict(nx=2, ny=2, epsilon=1.0, beta=1),
    "custom": dict(),
}


@dataclass
class StudyReport:
    """Study results: config echo, per-level records, derived EOC columns."""

    config: StudyConfig
    records: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    all_converged: bool = True

    def eoc_columns(self):
        """EOC between consecutive levels for the four error columns."""
        cols = {"eoc_l2": [], "eoc_h1": [], "eoc_jump": [], "eoc_const": []}
        prev = None
        for rec in self.records:
            for key, attr in (
                ("eoc_l2", "err_l2"),
                ("eoc_h1", "err_h1"),
                ("eoc_jump", "jump_norm"),
                ("eoc_const", "const_l2"),
            ):
                if prev is None:
                    cols[key].append(np.nan)
                else:
                    cols[key].append(eoc(getattr(prev, attr), getattr(rec, attr)))
            prev = rec
        return cols


def apply_experiment_defaults(config):
    """Fill every field the user left at None with its experiment default."""
    if config.experiment not in _EXPERIMENT_DEFAULTS:
        raise ValueError("unknown experiment %r" % config.experiment)
    defaults = {**_DEFAULTS, **_EXPERIMENT_DEFAULTS[config.experiment]}
    return replace(config, **{k: v for k, v in defaults.items() if getattr(config, k) is None})


def smooth_exact():
    """Manufactured solution of the smooth study and its data."""

    def u(x, y):
        return np.sin(np.pi * (np.asarray(x) + 1.0) / 2.0) * np.sin(np.pi * np.asarray(y))

    def grad_u(x, y):
        sx = np.sin(np.pi * (np.asarray(x) + 1.0) / 2.0)
        cx = np.cos(np.pi * (np.asarray(x) + 1.0) / 2.0)
        sy = np.sin(np.pi * np.asarray(y))
        cy = np.cos(np.pi * np.asarray(y))
        return 0.5 * np.pi * cx * sy, np.pi * sx * cy

    lap_factor = np.pi**2 / 4.0 + np.pi**2

    def make_f(epsilon, mu):
        def f(x, y):
            return (epsilon * lap_factor + mu) * u(x, y)

        return f

    return u, grad_u, make_f


def layer_source(x, y):
    """Discontinuous source of the interior-layer study."""
    x = np.asarray(x)
    y = np.asarray(y)
    inside = (x >= 0.25) & (x <= 0.75) & (y >= 0.25) & (y <= 0.75)
    return np.where(inside, 0.0, 1.0)


def _mesh_sequence(config):
    mesh = build_structured(config.nx, config.ny, (config.x0, config.y0, config.x1, config.y1))
    meshes = [mesh]
    for _ in range(config.levels - 1):
        mesh = refine_uniform(mesh)
        meshes.append(mesh)
    return meshes


def _record_solution(mesh, spec, system, solution, elapsed):
    u_plus = solution.u_plus
    residuals = conservation_report(mesh, system, solution)
    mn, mx, _ = bound_violation(mesh, u_plus, spec.bounds, tol=1e-10)
    return LevelRecord(
        n_elements=mesh.num_elements,
        h=mesh.h,
        jump_norm=jump_norm(mesh, spec, u_plus.const_coeffs),
        const_l2=float(np.sqrt(u_plus.const_coeffs @ (system.M0_diag * u_plus.const_coeffs))),
        outer_iters=solution.trace.outer_iters,
        min_val=mn,
        max_val=mx,
        max_conservation_residual=float(np.max(np.abs(residuals))),
        b_norm=float(np.linalg.norm(np.concatenate([system.b1, system.b0]))),
        nonlinear_residual=solution.trace.nonlinear_residual,
        wall_clock=elapsed,
    )


def _standard_row(mesh, spec, dofs, lift):
    """Standard EG comparator on one level: range, violations, conservation."""
    system = assemble_system(mesh, spec, dofs, lift)
    u_std = solve_standard_eg(mesh, spec, dofs, system, lift)
    mn, mx, nviol = bound_violation(mesh, u_std, spec.bounds, tol=1e-10)
    res_std = conservation_report(mesh, system, u_std)
    row = dict(
        n_elements=mesh.num_elements,
        h=mesh.h,
        min_val=mn,
        max_val=mx,
        violations=nviol,
        max_conservation_residual=float(np.max(np.abs(res_std))),
        b_norm=float(np.linalg.norm(np.concatenate([system.b1, system.b0]))),
    )
    return row, u_std


def _run_levels(config, spec, name, exact=None, spec_std=None):
    """Bound-preserving solve on every level of the mesh sequence.

    ``exact`` = (u, grad u) adds the L2/H1 errors; ``spec_std`` adds the
    standard EG comparator rows under ``report.extra["standard"]``.
    """
    report = StudyReport(config=config)
    standard_rows = []
    for level, mesh in enumerate(_mesh_sequence(config)):
        t0 = time.perf_counter()
        dofs = DofMap.from_mesh(mesh)
        lift = dirichlet_lift(mesh, spec.u_D)
        system = assemble_system(mesh, spec, dofs, lift)
        solution = solve_bound_preserving(mesh, spec, dofs, system, lift)
        rec = _record_solution(mesh, spec, system, solution, time.perf_counter() - t0)
        if exact is not None:
            rec.err_l2 = error_l2(mesh, exact[0], solution.u_plus)
            rec.err_h1 = error_h1_linear(mesh, exact[1], solution.u_plus)
        report.records.append(rec)
        report.all_converged &= solution.trace.converged
        if spec_std is None:
            _maybe_emit_fields(config, solution.u_plus, "%s_level%d" % (name, level))
        else:
            row, u_std = _standard_row(mesh, spec_std, dofs, lift)
            standard_rows.append(row)
            _maybe_emit_fields(config, solution.u_plus, "%s_bp_level%d" % (name, level))
            _maybe_emit_fields(config, u_std, "%s_standard_level%d" % (name, level))
        _maybe_emit_trace(config, solution.trace, level, name)
    if spec_std is not None:
        report.extra["standard"] = standard_rows
    return report


def run_smooth(config):
    """Convergence study with the manufactured smooth solution."""
    config = apply_experiment_defaults(config)
    u, grad_u, make_f = smooth_exact()
    spec = config.problem_spec(f=make_f(config.epsilon, config.mu), u_D=u)
    return _run_levels(config, spec, "smooth", exact=(u, grad_u))


def run_layer(config):
    """Interior-layer study: bound-preserving method plus the standard
    EG comparator (beta = 1, alpha = 0, direct solve) on every level."""
    config = apply_experiment_defaults(config)
    if config.nx % 4 or config.ny % 4:
        raise ValueError("layer study requires nx, ny divisible by 4")
    spec = config.problem_spec(f=layer_source, u_D=_zero, f_quadrature="centroid")
    spec_std = replace(spec, beta=1, alpha=0.0)
    return _run_levels(config, spec, "layer", spec_std=spec_std)


def run_condition(config, betas=(1, 2, 4)):
    """Condition numbers of the monolithic and split matrices.

    Uses eps = mu = 1 on structured unit-square grids with a penalty
    factor above the interior-penalty coercivity threshold (gamma = 10
    by default; values below about 4 make the monolithic matrix
    indefinite on right-triangle meshes); only the exponent beta varies.
    """
    config = apply_experiment_defaults(config)
    report = StudyReport(config=config)
    rows = []
    meshes = _mesh_sequence(config)
    for beta in betas:
        spec = config.problem_spec(beta=beta, epsilon=1.0, mu=1.0)
        for mesh in meshes:
            dofs = DofMap.from_mesh(mesh)
            system = assemble_system(mesh, spec, dofs)
            rows.append(
                dict(
                    beta=beta,
                    n_elements=mesh.num_elements,
                    h=mesh.h,
                    cond_A=condition_number(system.full_matrix()),
                    cond_A1=condition_number(system.A11),
                    cond_A0=condition_number(system.A00),
                )
            )
    report.extra["condition"] = rows
    return report


def run_custom(config, f=None, u_D=None):
    """Bound-preserving solve on a user-defined configuration."""
    config = apply_experiment_defaults(config)
    if f is None:
        f = lambda x, y: np.ones_like(np.asarray(x, dtype=float))
    spec = config.problem_spec(f=f, u_D=_zero if u_D is None else u_D)
    return _run_levels(config, spec, "custom")


def _zero(x, y):
    return 0.0 * np.asarray(x)


def _maybe_emit_fields(config, func, name):
    if config.emit_fields:
        os.makedirs(config.out_dir, exist_ok=True)
        write_egfunction(func, os.path.join(config.out_dir, name + ".csv"))


def _maybe_emit_trace(config, trace, level, name):
    if config.emit_fields:
        os.makedirs(config.out_dir, exist_ok=True)
        write_trace(trace, os.path.join(config.out_dir, "%s_trace_level%d.csv" % (name, level)), level)


def _fmt_full(x):
    if x is None or (isinstance(x, float) and not np.isfinite(x)):
        return "--"
    return "%.17g" % x


def _fmt_short(x):
    if x is None or (isinstance(x, float) and not np.isfinite(x)):
        return "--"
    return "%.2e" % x


def emit_tables(report, out_dir, basename="study"):
    """Write the study table as CSV and as Markdown; returns both file paths."""
    os.makedirs(out_dir, exist_ok=True)
    eocs = report.eoc_columns()
    rows = []
    for i, rec in enumerate(report.records):
        rows.append(
            [
                rec.n_elements,
                rec.h,
                rec.err_l2,
                eocs["eoc_l2"][i],
                rec.err_h1,
                eocs["eoc_h1"][i],
                rec.jump_norm,
                eocs["eoc_jump"][i],
                rec.const_l2,
                eocs["eoc_const"][i],
                rec.outer_iters,
                rec.min_val,
                rec.max_val,
                rec.max_conservation_residual,
                rec.nonlinear_residual,
            ]
        )
    csv_path = os.path.join(out_dir, basename + ".csv")
    with open(csv_path, "w", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        for row in rows:
            cells = [str(row[0])] + [_fmt_full(v) for v in row[1:10]]
            cells += [str(row[10])] + [_fmt_full(v) for v in row[11:]]
            fh.write(",".join(cells) + "\n")
    md_path = os.path.join(out_dir, basename + ".md")
    header = CSV_HEADER.split(",")
    with open(md_path, "w") as fh:
        fh.write("| " + " | ".join(header) + " |\n")
        fh.write("|" + "---|" * len(header) + "\n")
        for row in rows:
            cells = [str(row[0])] + [_fmt_short(v) for v in row[1:10]]
            cells += [str(row[10])] + [_fmt_short(v) for v in row[11:]]
            fh.write("| " + " | ".join(cells) + " |\n")
    return [csv_path, md_path]


def emit_condition_table(report, out_dir, basename="condition"):
    """CSV of the conditioning study: one row per (beta, level)."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, basename + ".csv")
    with open(path, "w", newline="") as fh:
        fh.write("beta,elements,h,cond_A,cond_A1,cond_A0\n")
        for row in report.extra["condition"]:
            fh.write(
                "%d,%d,%s,%s,%s,%s\n"
                % (
                    row["beta"],
                    row["n_elements"],
                    _fmt_full(row["h"]),
                    _fmt_full(row["cond_A"]),
                    _fmt_full(row["cond_A1"]),
                    _fmt_full(row["cond_A0"]),
                )
            )
    return path


def parse_report_csv(path):
    """Re-parse a study CSV into a list of numeric dicts ("--" -> nan)."""
    out = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != CSV_HEADER.split(","):
            raise ValueError("unexpected CSV header in %s" % path)
        for row in reader:
            parsed = {}
            for key, val in row.items():
                if val == "--":
                    parsed[key] = np.nan
                elif key in ("elements", "iters"):
                    parsed[key] = int(val)
                else:
                    parsed[key] = float(val)
            out.append(parsed)
    return out


# ---------------------------------------------------------------------------
# configuration files and command line
# ---------------------------------------------------------------------------

def _parse_bool(val):
    if val.lower() in ("1", "true", "yes", "on"):
        return True
    if val.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError("invalid boolean %r" % val)


# Config-file parser of each StudyConfig field, by its declared type.
_PARSERS = {"bool": _parse_bool, "int": int, "float": float, "str": str}


def load_config(path):
    """Flat "key = value" config file; '#' starts a comment; unknown keys
    are errors.  Each value is parsed to its StudyConfig field's type."""
    parsers = {f.name: _PARSERS[f.type.split(" | ")[0]] for f in fields(StudyConfig)}
    values = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError("%s:%d: expected 'key = value'" % (path, lineno))
            key, val = (part.strip() for part in line.split("=", 1))
            if key not in parsers:
                raise ValueError("%s:%d: unknown key %r" % (path, lineno, key))
            try:
                values[key] = parsers[key](val)
            except ValueError as exc:
                raise ValueError("%s:%d: key %r: %s" % (path, lineno, key, exc)) from exc
    return values


def build_config(args):
    """StudyConfig from the config file, overridden by every flag given.

    Each flag's destination is the name of its StudyConfig field; a flag
    left out is None.
    """
    values = load_config(args.config) if args.config else {}
    for f in fields(StudyConfig):
        val = getattr(args, f.name, None)
        if val is not None:
            values[f.name] = val
    return StudyConfig(**values)


def _check_smooth(report):
    failures = []
    eocs = report.eoc_columns()
    if not (1.9 <= eocs["eoc_l2"][-1] <= 2.1):
        failures.append("final L2 EOC %.3f outside [1.9, 2.1]" % eocs["eoc_l2"][-1])
    if not (0.9 <= eocs["eoc_h1"][-1] <= 1.1):
        failures.append("final H1 EOC %.3f outside [0.9, 1.1]" % eocs["eoc_h1"][-1])
    for rec in report.records:
        if rec.outer_iters > 30:
            failures.append("level with %d elements used %d outer iterations" % (rec.n_elements, rec.outer_iters))
    return failures


def _check_layer(report):
    failures = []
    for rec in report.records:
        if rec.min_val < -1e-10 or rec.max_val > 1.0 + 1e-10:
            failures.append(
                "bound-preserving range [%.3e, %.3e] violates [0, 1]" % (rec.min_val, rec.max_val)
            )
    std = report.extra["standard"]
    if not any(row["min_val"] < 0.0 for row in std):
        failures.append("standard EG did not undershoot on any level")
    return failures


def _check_condition(report):
    failures = []
    rows = report.extra["condition"]
    betas = sorted({row["beta"] for row in rows})
    for beta in betas:
        sub = [row for row in rows if row["beta"] == beta]
        kA = [row["cond_A"] for row in sub]
        kA1 = [row["cond_A1"] for row in sub]
        kA0 = [row["cond_A0"] for row in sub]
        rate_A = np.log2(kA[-1] / kA[-2])
        if not (beta + 0.5 <= rate_A <= beta + 1.3):
            failures.append("kappa(A) rate %.2f for beta=%d outside [%g, %g]" % (rate_A, beta, beta + 0.5, beta + 1.3))
        if not (1.7 <= fit_rate(1.0 / np.asarray(kA1)) <= 2.1):
            failures.append("kappa(A1) growth rate outside [1.7, 2.1] for beta=%d" % beta)
        if fit_rate(1.0 / np.asarray(kA0)) > 2.2:
            failures.append("kappa(A0) growth rate above 2.2 for beta=%d" % beta)
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(prog="egbp", description=__doc__)
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in ("smooth", "layer", "condition", "custom"):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="flat key=value config file")
        p.add_argument("--out", dest="out_dir", help="output directory")
        p.add_argument(
            "--check", action="store_true", default=None, help="run acceptance-style assertions"
        )
        p.add_argument("--levels", type=int)
        p.add_argument("--beta", type=int)
        p.add_argument("--gamma", type=float)
        p.add_argument("--tol-outer", type=float)
        p.add_argument("--emit-fields", action="store_true", default=None)
    args = parser.parse_args(argv)

    config = build_config(args)
    runners = {
        "smooth": run_smooth,
        "layer": run_layer,
        "condition": run_condition,
        "custom": run_custom,
    }
    report = runners[config.experiment](config)

    out_dir = config.out_dir
    if config.experiment == "condition":
        path = emit_condition_table(report, out_dir)
        print("wrote %s" % path)
    else:
        for path in emit_tables(report, out_dir, basename=config.experiment):
            print("wrote %s" % path)

    failures = []
    if not report.all_converged:
        failures.append("at least one level did not converge")
    if config.check:
        checker = {
            "smooth": _check_smooth,
            "layer": _check_layer,
            "condition": _check_condition,
        }.get(config.experiment)
        if checker is not None:
            failures.extend(checker(report))
    for msg in failures:
        print("CHECK FAILED: %s" % msg, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
