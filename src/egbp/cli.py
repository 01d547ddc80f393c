"""Config-driven experiment harness and command-line interface.

Subcommands reproduce the three studies (smooth convergence, interior
layer, conditioning) plus free-form custom runs.  Every study returns its
tables as lists of row dicts keyed by column name.  Each table is written
as CSV with 17 significant digits, which every double survives, and as
Markdown with 3-significant-digit scientific notation for reading.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .analysis import (
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
from .mesh import build_structured, refine_uniform
from .solver import solve_bound_preserving, solve_standard_eg

__all__ = [
    "StudyConfig",
    "StudyReport",
    "run_smooth",
    "run_layer",
    "run_condition",
    "run_custom",
    "emit_tables",
    "main",
]

# Columns of the per-level table of the bound-preserving solve.
CSV_HEADER = (
    "elements", "h", "err_l2", "eoc_l2", "err_h1", "eoc_h1", "jump_norm", "eoc_jump",
    "const_l2", "eoc_const", "iters", "min_val", "max_val", "cons_residual",
    "nonlinear_residual",
)
# Columns of the layer study's standard EG comparator table.
STANDARD_HEADER = ("elements", "h", "min_val", "max_val", "violations", "cons_residual", "b_norm")
CONDITION_HEADER = ("beta", "elements", "h", "cond_A", "cond_A1", "cond_A0")
# Columns of the --emit-fields files: coefficients, and one row per Newton step.
FIELD_HEADER = ("kind", "index", "value")
TRACE_HEADER = ("level", "m", "n", "inner_increment", "outer_increment", "feasible")

_EOC_COLUMNS = {
    "err_l2": "eoc_l2", "err_h1": "eoc_h1", "jump_norm": "eoc_jump", "const_l2": "eoc_const",
}

# Penalty exponents of the conditioning study.
CONDITION_BETAS = (1, 2, 4)
# Settings the conditioning study does not read: it sweeps beta, leaves the
# stabilizer out of every matrix, and solves nothing.
CONDITION_UNREAD = ("beta", "alpha", "bound_a", "bound_b", "tol_outer", "max_inner", "max_outer",
                    "emit_fields")


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

    def problem_spec(self, **overrides):
        kwargs = dict(
            epsilon=self.epsilon,
            mu=self.mu,
            gamma=self.gamma,
            beta=self.beta,
            alpha=self.alpha,
            bounds=(self.bound_a, self.bound_b),
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
    "condition": dict(nx=2, ny=2, epsilon=1.0),
    "custom": dict(),
}


@dataclass
class StudyReport:
    """Study results: config echo, tables and whether every solve converged.

    ``tables`` maps a table name to (columns, rows); each row is a dict
    keyed by column name and may hold keys that no column writes.
    """

    config: StudyConfig
    tables: dict = field(default_factory=dict)
    all_converged: bool = True


def apply_experiment_defaults(config):
    """Fill every field the user left at None with its experiment default."""
    if config.experiment not in _EXPERIMENT_DEFAULTS:
        raise ValueError("unknown experiment %r" % config.experiment)
    defaults = {**_DEFAULTS, **_EXPERIMENT_DEFAULTS[config.experiment]}
    config = replace(config, **{k: v for k, v in defaults.items() if getattr(config, k) is None})
    if config.levels < 1:
        raise ValueError("levels must be >= 1, got %d" % config.levels)
    if config.experiment == "layer" and (config.nx % 4 or config.ny % 4):
        raise ValueError("layer study requires nx, ny divisible by 4")
    return config


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
    """The coarse mesh, then each uniform refinement up to config.levels meshes."""
    mesh = build_structured(config.nx, config.ny, (config.x0, config.y0, config.x1, config.y1))
    yield mesh
    for _ in range(config.levels - 1):
        mesh = refine_uniform(mesh)
        yield mesh


def _summary(mesh, spec, system, u):
    """Range, bound violations, conservation residual and ||b|| of u on one level."""
    mn, mx, nviol = bound_violation(mesh, u, spec.bounds, tol=1e-10)
    return dict(
        elements=mesh.num_elements, h=mesh.h, min_val=mn, max_val=mx, violations=nviol,
        cons_residual=float(np.max(np.abs(conservation_report(mesh, system, u)))),
        b_norm=float(np.linalg.norm(np.concatenate([system.b1, system.b0]))),
    )


def _add_eoc(rows):
    """Write the EOC between consecutive rows of each error column."""
    for i, row in enumerate(rows):
        for err, rate in _EOC_COLUMNS.items():
            row[rate] = eoc(rows[i - 1][err], row[err]) if i else np.nan


def _trace_rows(trace, level):
    """One row per Step-1 Newton step, whose size is the inner increment;
    the outer increment is filled on the last Newton row of each sweep."""
    rows, feasible = [], trace.feasible_per_outer
    for m, incs in enumerate(trace.inner_residual_histories):
        for n, inc in enumerate(incs):
            outer = trace.outer_increments[m] if n == len(incs) - 1 else ""
            rows.append(dict(zip(TRACE_HEADER, (level, m, n, inc, outer, int(feasible[m])))))
    return rows


def _run_levels(config, spec, name, exact=None, spec_std=None):
    """Bound-preserving solve on every level of the mesh sequence.

    ``exact`` = (u, grad u) adds the L2/H1 errors; ``spec_std`` adds the
    standard EG comparator as the table ``<name>_standard``.
    """
    report = StudyReport(config=config)
    rows, std_rows = [], []
    for level, mesh in enumerate(_mesh_sequence(config)):
        system = assemble_system(mesh, spec)
        solution = solve_bound_preserving(mesh, spec, system=system)
        u, trace = solution.u_plus, solution.trace
        row = _summary(mesh, spec, system, u)
        row.update(
            err_l2=np.nan if exact is None else error_l2(mesh, exact[0], u),
            err_h1=np.nan if exact is None else error_h1_linear(mesh, exact[1], u),
            jump_norm=jump_norm(mesh, spec, u.const_coeffs),
            const_l2=float(np.sqrt(u.const_coeffs @ (system.M0_diag * u.const_coeffs))),
            iters=trace.outer_iters,
            nonlinear_residual=trace.nonlinear_residual,
        )
        rows.append(row)
        report.all_converged &= trace.converged
        emitted = {name: u}
        if spec_std is not None:
            system_std = assemble_system(mesh, spec_std, system.dofs, system.lift)
            u_std = solve_standard_eg(mesh, spec_std, system=system_std)
            std_rows.append(_summary(mesh, spec_std, system_std, u_std))
            emitted = {name + "_bp": u, name + "_standard": u_std}
        if config.emit_fields:
            os.makedirs(config.out_dir, exist_ok=True)
            for prefix, func in emitted.items():
                parts = (("vertex", func.linear_coeffs), ("element", func.const_coeffs))
                coeffs = [dict(kind=k, index=i, value=v) for k, c in parts for i, v in enumerate(c)]
                path = os.path.join(config.out_dir, "%s_level%d.csv" % (prefix, level))
                _write_csv(path, FIELD_HEADER, coeffs)
            path = os.path.join(config.out_dir, "%s_trace_level%d.csv" % (name, level))
            _write_csv(path, TRACE_HEADER, _trace_rows(trace, level))
    _add_eoc(rows)
    report.tables[name] = (CSV_HEADER, rows)
    if spec_std is not None:
        report.tables[name + "_standard"] = (STANDARD_HEADER, std_rows)
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
    spec = config.problem_spec(f=layer_source, f_quadrature="centroid")
    spec_std = replace(spec, beta=1, alpha=0.0)
    return _run_levels(config, spec, "layer", spec_std=spec_std)


def run_condition(config):
    """Condition numbers of the monolithic and split matrices.

    Sweeps beta over CONDITION_BETAS; no CONDITION_UNREAD field is read.  The
    defaults are eps = mu = 1 on structured unit-square grids and a
    penalty factor above the interior-penalty coercivity threshold
    (gamma = 10; below about 4 the monolithic matrix of right-triangle
    meshes is indefinite).
    """
    config = apply_experiment_defaults(config)
    rows = []
    meshes = list(_mesh_sequence(config))
    for beta in CONDITION_BETAS:
        spec = config.problem_spec(beta=beta)
        for mesh in meshes:
            system = assemble_system(mesh, spec)
            rows.append(
                dict(
                    beta=beta,
                    elements=mesh.num_elements,
                    h=mesh.h,
                    cond_A=condition_number(system.full_matrix()),
                    cond_A1=condition_number(system.A11),
                    cond_A0=condition_number(system.A00),
                )
            )
    return StudyReport(config=config, tables={"condition": (CONDITION_HEADER, rows)})


def run_custom(config):
    """Bound-preserving solve of a unit source with zero boundary data."""
    config = apply_experiment_defaults(config)
    spec = config.problem_spec(f=lambda x, y: np.ones_like(np.asarray(x, dtype=float)))
    return _run_levels(config, spec, "custom")


def _cell(value, fmt):
    if isinstance(value, (str, int, np.integer)):
        return str(value)
    if value is None or not np.isfinite(value):
        return "--"
    return fmt % value


def _write_csv(path, columns, rows):
    """Header row, then one line per row dict: ``%.17g`` floats, integers as
    integers, strings as they are, a missing or non-finite value as ``--``."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_cell(row.get(c), "%.17g") for c in columns) + "\n")


def emit_tables(report, out_dir):
    """Write each table of the report as ``<name>.csv`` and ``<name>.md``.

    Integers are written as integers, a missing or non-finite value as
    ``--``.  Returns the paths written.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for name, (columns, rows) in report.tables.items():
        csv_path = os.path.join(out_dir, name + ".csv")
        _write_csv(csv_path, columns, rows)
        md_path = os.path.join(out_dir, name + ".md")
        with open(md_path, "w") as fh:
            fh.write("| " + " | ".join(columns) + " |\n")
            fh.write("|" + "---|" * len(columns) + "\n")
            for row in rows:
                fh.write("| " + " | ".join(_cell(row.get(c), "%.2e") for c in columns) + " |\n")
        paths += [csv_path, md_path]
    return paths


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
    left out is None.  An experiment in the file must be the subcommand's,
    and a CONDITION_UNREAD setting of the conditioning study is an error.
    """
    values = load_config(args.config) if args.config else {}
    if values.get("experiment", args.experiment) != args.experiment:
        msg = "config file sets experiment = %s, the subcommand is %s"
        raise ValueError(msg % (values["experiment"], args.experiment))
    for f in fields(StudyConfig):
        val = getattr(args, f.name, None)
        if val is not None:
            values[f.name] = val
    unread = [k for k in CONDITION_UNREAD if k in values] if args.experiment == "condition" else []
    if unread:
        raise ValueError("%s cannot be set: condition does not read it" % ", ".join(unread))
    return StudyConfig(**values)


def _check_smooth(report):
    failures = []
    rows = report.tables["smooth"][1]
    if not (1.9 <= rows[-1]["eoc_l2"] <= 2.1):
        failures.append("final L2 EOC %.3f outside [1.9, 2.1]" % rows[-1]["eoc_l2"])
    if not (0.9 <= rows[-1]["eoc_h1"] <= 1.1):
        failures.append("final H1 EOC %.3f outside [0.9, 1.1]" % rows[-1]["eoc_h1"])
    for row in rows:
        if row["iters"] > 30:
            msg = "level with %d elements used %d outer iterations"
            failures.append(msg % (row["elements"], row["iters"]))
    return failures


def _check_layer(report):
    failures = []
    for row in report.tables["layer"][1]:
        if row["min_val"] < -1e-10 or row["max_val"] > 1.0 + 1e-10:
            rng = (row["min_val"], row["max_val"])
            failures.append("bound-preserving range [%.3e, %.3e] violates [0, 1]" % rng)
    if not any(row["min_val"] < 0.0 for row in report.tables["layer_standard"][1]):
        failures.append("standard EG did not undershoot on any level")
    return failures


def _check_condition(report):
    if report.config.levels < 2:
        return ["condition rates need at least 2 levels, got %d" % report.config.levels]
    failures = []
    rows = report.tables["condition"][1]
    for beta in CONDITION_BETAS:
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
    runners = {
        "smooth": run_smooth, "layer": run_layer, "condition": run_condition, "custom": run_custom,
    }
    checkers = {"smooth": _check_smooth, "layer": _check_layer, "condition": _check_condition}
    parser = argparse.ArgumentParser(prog="egbp", description=__doc__)
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in runners:
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

    # Every input error is a usage error, reported before any solve starts;
    # the output directory is made last, so a rejected run leaves none.
    try:
        config = build_config(args)
        filled = apply_experiment_defaults(config)
        filled.problem_spec()
        next(_mesh_sequence(filled))
        os.makedirs(config.out_dir, exist_ok=True)
    except (OSError, ValueError) as exc:
        parser.error(str(exc))
    report = runners[config.experiment](config)
    for path in emit_tables(report, config.out_dir):
        print("wrote %s" % path)

    failures = []
    if not report.all_converged:
        failures.append("at least one level did not converge")
    if config.check and config.experiment in checkers:
        failures.extend(checkers[config.experiment](report))
    for msg in failures:
        print("CHECK FAILED: %s" % msg, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
