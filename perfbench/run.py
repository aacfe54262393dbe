"""Run one weierlab benchmark workload and print its metrics.

From the repository root:

    python3 perfbench/run.py --workload graph_dim --seed 1 --seconds 30 --trace 0

The workload runs in this process as a closed loop, one repetition after
another, until --seconds have passed; times are medians over repetitions.
Set-up is timed in fresh child processes (interpreter start to weierlab
imported and the workload's inputs built), started at even intervals
through the run, and reported as the median.  With --trace 1 untraced and
traced repetitions alternate, and the per-layer numbers come from the
traced repetition of median wall time.

Every repetition's estimates must be identical, traced or not.  The first
is checked operation by operation against its acceptance-criterion gate;
a later one that differs counts all its operations as failed.

Standard output lists every metric by name and unit, the gate of each
operation, and a ``record`` line with provenance, inputs and estimates.
The last line is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1.
"""

import os

# One BLAS/OpenMP thread, set before numpy loads; set-up children inherit it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_RUNS = 15  # set-up children per run, spread evenly through it
# Prints the monotonic clock, which all processes share, once the inputs are built.
SETUP_CHILD = """\
import sys, time
sys.path[:0] = [{src!r}, {bench!r}]
import workloads
workloads.WORKLOADS[{name!r}]({seed!r})
print(repr(time.monotonic()))
"""


@dataclass
class Rep:
    wall: float
    traced: bool
    estimates: str  # JSON of every estimate, compared byte for byte across repetitions
    stats: dict | None  # layer statistics of a traced repetition


def setup_time(name: str, seed: int) -> float:
    code = SETUP_CHILD.format(src=str(SRC), bench=str(BENCH_DIR), name=name, seed=seed)
    start = time.monotonic()
    out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                         text=True, timeout=120)
    return float(out.stdout) - start


def measure(wl, seed: int, seconds: float, tracer=None):
    """Closed loop of repetitions with set-up children between them.

    A set-up child starts whenever fewer than SETUP_RUNS × (elapsed ÷
    ``seconds``) have run, so they spread evenly through the run; there is
    at least one and at most SETUP_RUNS.  The loop stops before the next
    repetition would pass ``seconds`` of elapsed time, children included
    (after at least one repetition, or one pair when tracing); checks are
    not counted.
    """
    reps, setups, review = [], [], None
    start = time.perf_counter()
    while True:
        due = SETUP_RUNS * min(1.0, (time.perf_counter() - start) / seconds)
        while not setups or len(setups) < due:
            setups.append(setup_time(wl.name, seed))
        traced = tracer is not None and len(reps) % 2 == 1
        if traced:
            raw, wall = tracer.run(wl.run)
            stats = tracer.layer_stats()
        else:
            t0 = time.perf_counter()
            raw = wl.run()
            wall = time.perf_counter() - t0
            stats = None
        reps.append(Rep(wall, traced, json.dumps(wl.estimates(raw)), stats))
        if review is None:
            review = wl.check(raw)
        del raw
        longest = max(r.wall for r in reps)
        if (time.perf_counter() - start + longest > seconds
                and (tracer is None or len(reps) % 2 == 0)):
            return reps, setups, review


def run_workload(cwd: Path, name: str, seed: int, seconds: float,
                 trace: int) -> tuple[dict, dict]:
    """Run this script on one workload in a fresh process from ``cwd``.

    Returns its ``record`` and its result line, parsed.  Raises
    RuntimeError if the process exits non-zero.
    """
    cmd = [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)
    lines = out.stdout.splitlines()
    if out.returncode != 0:
        printed = "a result" if lines and lines[-1].startswith('{"correct"') else "no result"
        raise RuntimeError(f"run.py exited {out.returncode} and printed {printed}:\n"
                           f"{out.stderr}")
    record = json.loads(next(ln for ln in lines if ln.startswith("record "))[len("record "):])
    return record, json.loads(lines[-1])


def provenance() -> dict:
    import numpy

    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "weierlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "git_sha": sha, "src_sha256": digest.hexdigest(),
            "machine": platform.machine()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "weierlab" / "__init__.py").is_file():
        print(f"run.py: no weierlab sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import weierlab

    if Path(weierlab.__file__).resolve().parent != (SRC / "weierlab").resolve():
        print(f"run.py: imported weierlab from {weierlab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    cls = workloads.WORKLOADS.get(args.workload)
    if cls is None:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    wl = cls(args.seed)
    reps, setups, review = measure(wl, args.seed, args.seconds,
                                   tracing.Tracer() if args.trace else None)
    ops_per_rep = len(review.ops)
    first_failed = sum(1 for _, ok, _ in review.ops if not ok)
    attempted = ops_per_rep * len(reps)
    failed = sum(first_failed if r.estimates == reps[0].estimates else ops_per_rep
                 for r in reps)
    wall = statistics.median(r.wall for r in reps if not r.traced)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall, "s"),
        "work_per_s": (review.work / wall, "items/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    reported = {
        "fail_ratio": (failed / attempted, "1"),
        "estimate_err": (review.estimate_err, "1"),
        "w_vec_gap": (workloads.w_vec_gap(wl, args.seed), "1"),
    }
    layer_metrics = {}
    if args.trace:
        traced = sorted((r for r in reps if r.traced), key=lambda r: r.wall)
        middle = traced[(len(traced) - 1) // 2]
        layer_metrics = tracing.per_layer_metrics(middle.stats)
        ratio = review.effective / review.requested if review.requested else 0.0
        layer_metrics["measure.graph_box_dimension.points_per_requested"] = (ratio, "ratio")
        layer_metrics["trace.wall_s"] = (middle.wall, "s")
        layer_metrics["trace.other_self_s"] = (middle.stats[tracing.ROOT]["self_s"], "s")
        layer_metrics["trace.untraced_wall_s"] = (wall, "s")
        layer_metrics["trace.overhead_s"] = (
            statistics.median(r.wall for r in traced) - wall, "s")

    print(f"{args.workload} seed {args.seed}: {len(reps)} repetitions "
          f"({sum(r.traced for r in reps)} traced) in {sum(r.wall for r in reps):.1f} s, "
          f"{attempted - failed}/{attempted} operations passed")
    shown = review.ops if ops_per_rep <= 32 else [op for op in review.ops if not op[1]][:10]
    for label, ok, detail in shown:
        print(f"  {'PASS' if ok else 'FAIL'} {label}: {detail}")
    if ops_per_rep > 32:
        print(f"  {ops_per_rep - first_failed}/{ops_per_rep} operations of one repetition "
              "passed their gates")
    if failed != first_failed * len(reps):
        print("  FAIL estimates differ between repetitions")
    every = {**metrics, **reported, **layer_metrics}
    for name, (value, unit) in every.items():
        print(f"  {name:<52} {value!r} {unit}")
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "provenance": provenance(), "inputs": wl.inputs,
        "rep_wall_s": [r.wall for r in reps], "rep_traced": [r.traced for r in reps],
        "setup_s": setups, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in every.items()},
        "estimates": json.loads(reps[0].estimates),
    }
    print("record " + json.dumps(record))
    shown_metrics = layer_metrics if args.trace else metrics
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in shown_metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
