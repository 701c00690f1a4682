"""Self-test of the benchmark at tiny item counts.

Run from the repository root:

    python3 bench/selftest.py

For every workload it runs one cycle untraced twice and one cycle traced,
all with the same seed, and checks that every metric BENCHMARK.json names is
reported with its unit, that no item failed, and that the result digest
repeats across the untraced runs and matches the traced run's, so that
instrumentation does not change results.  It then checks that the benchmark
exits non-zero without printing a result in a directory that holds only
BENCHMARK.json and the benchmark's own files.  Exit code 0 iff all pass.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
SEED = 7
TIMEOUT_S = 600


def run(args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S,
    )
    return proc


def parse(proc):
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise AssertionError(f"run failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return json.loads(lines[-2])["stamp"], json.loads(lines[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            problems.append(what)

    for workload in (w["name"] for w in spec["workloads"]):
        common = ["--workload", workload, "--seed", str(SEED), "--seconds", "1", "--cycles", "1"]
        digests = []
        for trace, wanted in ((0, spec["end_to_end"]), (0, spec["end_to_end"]), (1, spec["per_layer"])):
            stamp, result = parse(run(common + ["--trace", str(trace)]))
            label = f"{workload} trace={trace}"
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
            check(result["correct"] and result["failed"] == 0 and stamp["fail_frac"] == 0, f"{label}: fail_frac 0")
            reported = {k: v["unit"] for k, v in result["metrics"].items()}
            expected = {m["name"]: m["unit"] for m in wanted}
            if trace:
                expected["trace.overhead_s"] = "s"
            check(reported == expected, f"{label}: every metric reported with its unit")
            digests.append(stamp["digest"])
        check(len(set(digests)) == 1, f"{workload}: digest repeats across runs and under tracing")

    bare = os.path.join(ROOT, ".bench_out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(["--workload", spec["workloads"][0]["name"], "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
    check(proc.returncode != 0 and not proc.stdout.strip(), "refuses to run without the package")
    shutil.rmtree(bare, ignore_errors=True)

    print("selftest:", "FAILED " + "; ".join(problems) if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
