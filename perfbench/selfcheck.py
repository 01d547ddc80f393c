"""Self-check of the benchmark on tiny sizes (about half a minute).

    python3 perfbench/selfcheck.py

1. Each workload, untraced and traced, on its meshes up to level 2: the
   result line holds exactly the metrics BENCHMARK.json names, each with
   its unit, the gate passes and the exit code is 0.
2. With a copy of reference.json in which one fingerprint is perturbed by
   1e-8 relative, the gate trips: "correct" is false and the exit code is
   nonzero.
3. In a directory that holds only BENCHMARK.json and perfbench/, the run
   exits nonzero without printing a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT = 170


def run(args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--seed", "7", "--seconds", "0", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: bench["end_to_end"], 1: bench["per_layer"]}
    problems = []

    for wl in bench["workloads"]:
        for trace in (0, 1):
            proc = run(["--workload", wl["name"], "--trace", str(trace), "--max-level", "2"])
            res = result_of(proc)
            tag = "%s --trace %d" % (wl["name"], trace)
            if proc.returncode != 0 or res is None:
                problems.append("%s: exit %d\n%s" % (tag, proc.returncode, proc.stderr[-2000:]))
                continue
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append("%s: result keys %s" % (tag, sorted(res)))
            if not (res["correct"] and res["failed"] == 0 and res["attempted"] >= 1):
                problems.append("%s: gate failed: %s" % (tag, proc.stdout[-2000:]))
            got = res["metrics"]
            if set(got) != {m["name"] for m in wanted[trace]}:
                problems.append("%s: metrics differ: %s" % (tag, sorted(set(got) ^ {m["name"] for m in wanted[trace]})))
            for m in wanted[trace]:
                v = got.get(m["name"])
                if v is not None and (v["unit"] != m["unit"] or not math.isfinite(v["value"])):
                    problems.append("%s: %s = %r, unit %s expected" % (tag, m["name"], v, m["unit"]))
            print("ok  %s: %d metrics, %d solves" % (tag, len(got), res["attempted"]))

    out = HERE / "results"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as tmp:
        reference = json.loads((HERE / "reference.json").read_text())
        key = "smooth/1024/tol=1e-09"
        reference["solves"][key]["err_l2"] *= 1.0 + 1e-8
        perturbed = Path(tmp) / "reference.json"
        perturbed.write_text(json.dumps(reference))
        proc = run(["--workload", "smooth", "--trace", "0", "--max-level", "2", "--reference", str(perturbed)])
        res = result_of(proc)
        # Exactly the perturbed solve fails, once in each of the run's passes (3 solves each).
        if proc.returncode == 0 or res is None or res["correct"] or res["failed"] * 3 != res["attempted"]:
            problems.append("perturbed reference did not trip the gate: exit %d, %r" % (proc.returncode, res))
        else:
            print("ok  perturbed %s err_l2: exit %d, failed %d" % (key, proc.returncode, res["failed"]))

        bare = Path(tmp) / "bare"
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run(["--workload", "smooth", "--trace", "0"], cwd=bare)
        if proc.returncode == 0 or result_of(proc) is not None:
            problems.append("bare directory: exit %d, stdout %r" % (proc.returncode, proc.stdout[-500:]))
        else:
            print("ok  bare directory: exit %d, no result" % proc.returncode)

    for p in problems:
        print("FAIL " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
