"""Benchmark of the egbp solver: one workload per process.

    python3 perfbench/run.py --workload smooth --seed 1 --seconds 30 --trace 0

Runs complete passes of the workload (see workloads.py) until --seconds
have elapsed, at least one, and prints a few human-readable lines, then
one JSON line: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones of BENCHMARK.json: the times
are medians over the passes, each scaled to reference machine speed (see
speed.py), and the peak RSS is read after an untimed first pass.  With
--trace 1 the untimed pass and one untraced pass are followed by traced
passes, and the metrics are the per-layer ones, medians of raw span times.
Every solve is checked by the correctness gate (workloads.gate); a fingerprint that
drifts from reference.json makes the exit code nonzero.  A record with
provenance, raw samples, per-solve properties and spans is written under
perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_SETUP_SAMPLES = 5  # set-up-only passes fill up to this many setup_s samples


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--reference", default=str(HERE / "reference.json"))
    p.add_argument("--max-level", type=int, default=None, help="solve only the meshes up to this level")
    p.add_argument("--write-reference", action="store_true", help="store this run's fingerprint as the reference")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "egbp" / "__init__.py").is_file():
        print("perfbench: no egbp sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    # Fixed BLAS threads (<= nproc), set before numpy loads its BLAS.
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))

    import numpy as np
    import egbp
    import egbp.solver
    import spans
    import speed
    import workloads

    if Path(egbp.__file__).resolve().parent != ROOT / "src" / "egbp":
        print("perfbench: imported egbp from %s" % egbp.__file__, file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print("perfbench: unknown workload %r" % args.workload, file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    if args.max_level is not None:
        wl = wl.limited(args.max_level)
    reference = {}
    if not args.write_reference:
        with open(args.reference) as fh:
            reference = json.load(fh)["solves"]

    # The first pass is untimed: it warms up imports and lazy set-up, and the
    # peak RSS read after it is the workload's own, as no speed kernel has run.
    first = workloads.run_pass(wl, (args.seed, 0), spans.Tracer(0))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    timeline = speed.Timeline()
    timeline.kernel()
    passes, traced, setup_only = [], [], []

    def next_pass(tracer=None, **kwargs):
        tracer = tracer or spans.Tracer(1 + len(passes) + len(traced) + len(setup_only))
        timeline.tick()
        return workloads.run_pass(wl, (args.seed, tracer.run_id), tracer, **kwargs)

    start = time.perf_counter()
    timeline.sample()
    if args.trace:
        passes.append(next_pass(between=timeline.tick))
        while not traced or time.perf_counter() - start < args.seconds:
            tracer = spans.Tracer(1 + len(passes) + len(traced))
            with spans.installed(tracer, egbp.solver):
                traced.append(next_pass(tracer))
    else:
        while not passes or time.perf_counter() - start < args.seconds:
            passes.append(next_pass(between=timeline.tick))
        while len(passes) + len(setup_only) < MIN_SETUP_SAMPLES:
            setup_only.append(next_pass(solve=False, between=timeline.tick))
    timeline.sample()
    if args.write_reference:
        stored = {"tolerance": workloads.FINGERPRINT_RTOL, "solves": {}}
        if os.path.exists(args.reference):
            with open(args.reference) as fh:
                stored = json.load(fh)
        stored["solves"].update(workloads.fingerprint(first.records))
        stored["solves"] = dict(sorted(stored["solves"].items()))
        with open(args.reference, "w") as fh:
            json.dump(stored, fh, indent=1)
            fh.write("\n")
        print("wrote %d fingerprints to %s" % (len(first.records), args.reference))
        return 0

    attempted = failed = 0
    failures, drifted = [], False
    for p in [first] + passes + traced:
        for rec in p.records:
            fails, drifts = workloads.gate(rec, reference)
            attempted += 1
            if fails or drifts:
                failed += 1
                failures.append({"key": rec["key"], "fails": fails, "drifts": drifts})
                drifted |= bool(drifts)

    solves = (traced or passes)[0].records
    bp = [r for r in solves if r["kind"] == "bp"]
    summary = {
        "failed_share": (failed / attempted, "ratio"),
        "bound_violations": (sum(r["violations"] for r in bp), "count"),
    }
    measured = {"study_s": passes, "setup_s": passes + setup_only, "solve_s": passes}
    raw = {m: [timeline.seconds(p.intervals(m), scaled=False) for p in ps] for m, ps in measured.items()}
    at_reference = {m: [timeline.seconds(p.intervals(m)) for p in ps] for m, ps in measured.items()}
    if args.trace:
        per_pass = [layer_metrics(p) for p in traced]
        metrics = {k: (statistics.median(m[k][0] for m in per_pass), per_pass[0][k][1]) for k in per_pass[0]}
        traced_study = [timeline.seconds(p.intervals("study_s")) for p in traced]
        overhead = statistics.median(traced_study) - at_reference["study_s"][0]
        metrics["bench.trace_overhead_s"] = (overhead, "s")
        metrics["bench.failed_share"] = summary["failed_share"]
        metrics["analysis.bound_violations"] = summary["bound_violations"]
    else:
        metrics = {k: (statistics.median(v), "s") for k, v in at_reference.items()}
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")

    record = {
        "provenance": provenance(args, np),
        "samples_at_reference_speed": at_reference,
        "samples_raw": raw,
        "speed_kernel_runs": timeline.runs,
        "peak_rss_mb": peak_rss_mb,
        "solves": solves,
        "failures": failures,
        "per_layer_passes": [layer_metrics(p) for p in traced],
        "spans": [s for p in passes + traced for s in p.tracer.as_records()],
    }
    out = write_record(args, record)

    print("workload %s  seed %d  passes 1 warm-up, %d untraced, %d traced, %d set-up only  (%d solves)"
          % (wl.name, args.seed, len(passes), len(traced), len(setup_only), attempted))
    kernel_s = timeline.durations()
    print("  speed kernel: %d runs, median %.4f s (reference %.3f s), range %.4f-%.4f s"
          % (len(kernel_s), statistics.median(kernel_s), speed.REFERENCE_S, min(kernel_s), max(kernel_s)))
    for name, values in raw.items():
        print("  %-34s %14.6g s (raw median, not scaled)" % (name, statistics.median(values)))
    for r in bp:
        print("  solve %-26s outer %3d  inner %4d  clamped_share %.4f  violations %d interior / %d boundary"
              % (r["key"], r["outer_iters"], r["inner_iters"], r["clamped_share"],
                 r["violations_interior"], r["violations_boundary"]))
    shown = dict(metrics) if args.trace else {**metrics, **summary}
    for name, (value, unit) in shown.items():
        print("  %-34s %14.6g %s" % (name, value, unit))
    for f in failures[:10]:
        print("  FAILED %s: %s" % (f["key"], "; ".join(f["fails"] + f["drifts"])))
    print("record: %s" % out.relative_to(ROOT))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in sorted(metrics.items())},
    }
    print(json.dumps(result))
    return 1 if drifted else 0


def layer_metrics(p):
    """Per-layer metrics of one traced pass, as {name: (value, unit)}."""
    t, c = p.tracer, p.tracer.counts
    bp = [r for r in p.records if r["kind"] == "bp"]
    m = {
        "mesh.build_s": (t.total("mesh"), "s"),
        "mesh.elements": (c["elements"], "count"),
        "fespace.dofmap_lift_s": (t.total("dofmap_lift"), "s"),
        "assembly.assemble_s": (t.total("assemble"), "s"),
        "assembly.nnz": (c["assembly_nnz"], "count"),
        "solver.solve_bp_s": (t.total("solve_bp"), "s"),
        "solver.init_s": (t.total("solve_standard_eg", parent="solve_bp"), "s"),
        "solver.comparator_s": (t.total("comparator"), "s"),
        "solver.factor_A11_s": (t.total("factor:A11"), "s"),
        "solver.factor_A00_s": (t.total("factor:A00"), "s"),
        "solver.factor_monolithic_s": (t.total("factor:monolithic EG system"), "s"),
        "solver.factor_count": (c["factor_count"], "count"),
        "solver.lu_fill_nnz": (c["lu_fill_nnz"], "count"),
        "solver.inner_s": (t.total("inner_richardson"), "s"),
        "solver.inner_iters": (c["inner_iters"], "count"),
        "solver.outer_iters": (sum(r["outer_iters"] for r in bp), "count"),
        "solver.polish_iters": (sum(r["polish_iters"] for r in bp), "count"),
        "solver.spd_solves": (c["spd_solves"], "count"),
        "solver.step2_s": (t.total("outer_constant_solve"), "s"),
        "solver.residual_s": (t.total("nonlinear_residual"), "s"),
        "limiter.patch_extremes_s": (t.total("patch_extremes"), "s"),
        "limiter.patch_extremes_calls": (t.calls("patch_extremes"), "count"),
        "limiter.apply_P_s": (t.total("apply_P"), "s"),
        "limiter.clamped_share": (
            sum(r["clamped_nodes"] for r in bp) / sum(r["interior_nodes"] for r in bp), "ratio"
        ),
        "limiter.infeasible_outer": (sum(r["infeasible_outer"] for r in bp), "count"),
        "analysis.post_s": (t.total("post"), "s"),
        "analysis.bound_violations_interior": (sum(r["violations_interior"] for r in bp), "count"),
        "analysis.bound_violations_boundary": (sum(r["violations_boundary"] for r in bp), "count"),
        "analysis.max_conservation_rel": (max(r["conservation_rel"] for r in p.records), "ratio"),
        "analysis.max_nonlinear_residual": (max(r["residual"] for r in bp), "1"),
    }
    for layer, value in t.self_time_by_layer().items():
        m[layer + ".self_s"] = (value, "s")
    return m


def provenance(args, np):
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "max_level": args.max_level,
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "processor": platform.processor(),
    }


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown (%s)" % ref


def write_record(args, record):
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    out = out_dir / ("%s-seed%d-trace%d-%s-%d.json" % (args.workload, args.seed, args.trace, stamp, os.getpid()))
    with open(out, "w") as fh:
        json.dump(record, fh, indent=1, default=float)
    return out


if __name__ == "__main__":
    sys.exit(main())
