"""paulisq benchmark: seeded workloads that drive the package's public API.

Run from the repository root (the package is imported from ./src):

    python3 bench/run.py --workload sq-learn --seed 1 --seconds 35 --trace 0

Workloads are defined in bench/workloads.py.  A run is one process with no
worker pool.

--trace 0 runs whole cycles of items until --seconds of item time have
passed, then repeats the first cycle to check that it reproduces, then
spawns fresh processes that only set up, to time set-up.  It reports the
end-to-end metrics.

--trace 1 runs a fixed number of cycles per workload twice, first untraced
and then traced, so that its counts repeat exactly across runs and commits.
It reports the per-layer metrics of bench/tracing.py and trace.overhead_s,
and writes the spans to .bench_out/.

Times are rescaled to a reference speed (bench/speed.py), because the host
is shared and its speed changes from moment to moment: each item's time is
multiplied by the ratio of a fixed reference loop's nominal cost to its
cost measured while the item ran, and set-up time likewise.  The unscaled
item figures are kept in the stamp.

The next-to-last stdout line is a stamp (environment, result digest,
failure fraction, sample counts); the last line is the result object.
Exit code 0 iff a result was printed.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from typing import NamedTuple

WORKLOAD_NAMES = ("sq-learn", "stab-corr", "lpn-samples")
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")


def _import_package():
    """Import paulisq from ./src of the working directory, and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "paulisq", "__init__.py")):
        sys.exit(f"bench: {SRC}/paulisq not found; run from the repository root")
    # one process, one thread: keep numerical libraries from starting pools
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, SRC)
    import paulisq

    if not os.path.abspath(paulisq.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: paulisq was imported from {paulisq.__file__}, not {SRC}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--cycles", type=int, default=None,
        help="cycles to run: caps an untraced run, replaces a traced run's fixed count",
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0 or (args.cycles is not None and args.cycles < 1):
        parser.error("--seconds must be positive and --cycles at least 1")
    return args


class Item(NamedTuple):
    passed: bool
    seconds: float  # wall time, less the speed meter's handler
    ms: float  # the same, rescaled to the reference speed
    digest: str  # sha256 of the item's record


def item_rng(seed: int, index: int):
    import numpy as np

    return np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, index])


def run_items(workload, ctx, tracer, seed, *, seconds=None, cycles=None):
    """Run the prefix, then whole cycles until `seconds` of item time have
    passed or `cycles` cycles are done, and return an Item per item.  The
    meter's samples during an item give its rescaling factor."""
    from speed import SpeedMeter

    rows = []
    windows = []

    def run_one(kind):
        index = len(rows)
        item = kind.make(ctx, item_rng(seed, index))
        tracer.item = index
        spent = meter.spent
        t0 = time.perf_counter()
        try:
            passed, record = kind.run(ctx, item)
        except Exception as exc:  # a failed item is counted, not fatal
            passed, record = False, ("error", type(exc).__name__, str(exc))
            print(f"bench: item {index} ({kind.name}) raised:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
        t1 = time.perf_counter()
        tracer.item = None
        if not passed:
            print(f"bench: item {index} ({kind.name}) failed its check: {record!r}"[:2000], file=sys.stderr)
        windows.append((t0, t1))
        rows.append((bool(passed), t1 - t0 - (meter.spent - spent),
                     hashlib.sha256(repr((kind.name, record)).encode()).hexdigest()))

    with SpeedMeter() as meter:
        for kind in workload.prefix:
            run_one(kind)
        done = 0
        while True:
            for kind in workload.cycle:
                run_one(kind)
            done += 1
            if cycles is not None and done >= cycles:
                break
            if seconds is not None and sum(r[1] for r in rows) >= seconds:
                break
    return [
        Item(passed, seconds, 1e3 * seconds * meter.scale(t0, t1), item_digest)
        for (passed, seconds, item_digest), (t0, t1) in zip(rows, windows)
    ]


def digest(rows, count: int) -> str:
    h = hashlib.sha256()
    for item in rows[:count]:
        h.update(item.digest.encode())
    return h.hexdigest()


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def time_setup_probes(args) -> list[float]:
    """Set-up time of fresh processes, from spawn until the probe reports
    ready, rescaled by the speed the probe measured while it set up."""
    times = []
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - t0
                proc.wait(timeout=PROBE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise
        word, _, scale = line.partition(" ")
        if proc.returncode != 0 or word != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        times.append(elapsed * float(scale))
    return times


def environment(args, workload) -> dict:
    import numpy

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            commit = out.stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        pass
    source = hashlib.sha256()
    package_dir = os.path.join(SRC, "paulisq")
    for name in sorted(os.listdir(package_dir)):
        if name.endswith(".py"):
            with open(os.path.join(package_dir, name), "rb") as fh:
                source.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "workload": workload.name,
        "seed": args.seed,
        "trace": bool(args.trace),
        "seconds": args.seconds,
    }


def set_up(args):
    """Import the package and build the workload's shared inputs."""
    _import_package()
    from tracing import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    tracer = Tracer()
    tracer.enabled = bool(args.trace)
    ctx = workload.setup(args.seed, tracer)
    tracer.enabled = False
    return workload, tracer, ctx


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        from speed import SpeedMeter

        with SpeedMeter() as meter:
            set_up(args)
        print(f"ready {meter.scale()}", flush=True)
        return 0
    workload, tracer, ctx = set_up(args)
    from tracing import layer_metrics

    digest_items = len(workload.prefix) + len(workload.cycle)

    if args.trace:
        cycles = args.cycles or workload.trace_cycles
        untraced = run_items(workload, ctx, tracer, args.seed, cycles=cycles)
        tracer.install()
        try:
            rows = run_items(workload, ctx, tracer, args.seed, cycles=cycles)
        finally:
            tracer.uninstall()
        if tracer.missing:
            print(f"bench: not found, metrics read 0: {tracer.missing}", file=sys.stderr)
        reproducible = [r.digest for r in rows] == [r.digest for r in untraced]
        untraced_s = sum(r.ms for r in untraced) / 1e3
        traced_s = sum(r.ms for r in rows) / 1e3
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layer_metrics(tracer).items()}
        metrics["trace.overhead_s"] = {"value": traced_s - untraced_s, "unit": "s"}
        extra = {"untraced_s": untraced_s, "traced_s": traced_s, "cycles": cycles, "spans": len(tracer.spans),
                 "untraced_digest": digest(untraced, digest_items)}
        tracer.write(os.path.join(ROOT, ".bench_out", f"trace-{workload.name}-seed{args.seed}.json"),
                     {"workload": workload.name, "seed": args.seed})
    else:
        rows = run_items(workload, ctx, tracer, args.seed, seconds=args.seconds, cycles=args.cycles)
        repeat = run_items(workload, ctx, tracer, args.seed, cycles=1)
        reproducible = [r.digest for r in repeat] == [r.digest for r in rows[:len(repeat)]]
        probes = time_setup_probes(args)
        ms = [r.ms for r in rows]
        raw_ms = [1e3 * r.seconds for r in rows]
        p90 = percentile(ms, 90)
        metrics = {
            "setup_s": {"value": statistics.median(probes), "unit": "s"},
            "items_per_s": {"value": 1e3 * len(ms) / sum(ms), "unit": "1/s"},
            "item_ms_p50": {"value": percentile(ms, 50), "unit": "ms"},
            "item_ms_p90": {"value": p90, "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
        extra = {
            "setup_s_samples": probes,
            "items_beyond_p90": sum(1 for v in ms if v > p90),
            "unscaled": {"items_per_s": 1e3 * len(raw_ms) / sum(raw_ms), "item_ms_p50": percentile(raw_ms, 50),
                         "item_ms_p90": percentile(raw_ms, 90)},
        }

    failed = sum(1 for r in rows if not r.passed)
    stamp = environment(args, workload)
    stamp.update({
        "items": len(rows),
        "fail_frac": failed / len(rows),
        "digest": digest(rows, digest_items),
        "digest_items": digest_items,
        "reproducible": reproducible,
        **extra,
    })
    print(json.dumps({"stamp": stamp}))
    print(json.dumps({
        "correct": failed == 0 and reproducible,
        "attempted": len(rows),
        "failed": failed,
        "metrics": metrics,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
