"""Self-test of the benchmark: repeatable counts, neutral tracing, output contract.

From the repository root:

    python3 perfbench/selftest.py

For every workload it makes two traced runs and one untraced run on seed
3, each as short as run.py allows.  It checks that

- every run passes its gates; a traced repetition whose estimates differ
  from the untraced one in the same run would fail them;
- the two traced runs repeat every count (``calls``, ``items``,
  ``points_per_requested``) and every estimate exactly, and the untraced
  run repeats the estimates;
- the layers' self times plus the untraced remainder add up to the traced
  wall time;
- the last line names exactly the metrics BENCHMARK.json lists.

Last, it copies BENCHMARK.json and the benchmark's files, without the
library, to ``perfbench/out/stripped`` and checks that the benchmark fails
there without printing a result.  Exits 1 on any failed check.
"""

import json
import math
import shutil
import sys

from run import BENCH_DIR, ROOT, run_workload

SEED = 3
SHORTEST = 0.001  # --seconds: one repetition, or one pair when tracing
COUNTS = (".calls", ".items", ".points_per_requested")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            problems.append(what)

    for w in (w["name"] for w in spec["workloads"]):
        (rec_a, last_a), (rec_b, last_b), (rec_u, last_u) = (
            run_workload(ROOT, w, SEED, SHORTEST, trace) for trace in (1, 1, 0))
        expect(last_a["correct"] and last_b["correct"] and last_u["correct"],
               f"{w}: every gate passes, traced estimates equal untraced ones")
        expect(rec_a["estimates"] == rec_b["estimates"] == rec_u["estimates"],
               f"{w}: estimates repeat exactly across runs")
        counts = [k for k in last_a["metrics"] if k.endswith(COUNTS)]
        expect(all(last_a["metrics"][k]["value"] == last_b["metrics"][k]["value"]
                   for k in counts), f"{w}: {len(counts)} counts repeat exactly")
        m = {k: v["value"] for k, v in last_a["metrics"].items()}
        total = sum(v for k, v in m.items() if k.endswith(".self_s")) + m["trace.other_self_s"]
        expect(math.isclose(total, m["trace.wall_s"], rel_tol=1e-9),
               f"{w}: self times plus remainder {total:.6f} s = traced wall "
               f"{m['trace.wall_s']:.6f} s")
        expect(list(last_a["metrics"]) == [x["name"] for x in spec["per_layer"]],
               f"{w}: traced run reports exactly the per_layer metrics")
        expect(list(last_u["metrics"]) == [x["name"] for x in spec["end_to_end"]],
               f"{w}: untraced run reports exactly the end_to_end metrics")

    stripped = BENCH_DIR / "out" / "stripped"
    shutil.rmtree(stripped, ignore_errors=True)
    shutil.copytree(BENCH_DIR, stripped / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", stripped)
    try:
        run_workload(stripped, spec["workloads"][0]["name"], SEED, SHORTEST, 0)
        failed_there = False
    except RuntimeError as exc:
        failed_there = "no result" in str(exc)
    shutil.rmtree(stripped)
    expect(failed_there, "without the library the benchmark exits non-zero and prints no result")

    print("self-test passed" if not problems else f"self-test FAILED: {len(problems)} checks")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
