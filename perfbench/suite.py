"""Run every workload, untraced and then traced, each in a fresh process.

From the repository root:

    python3 perfbench/suite.py --seed 1

Each run lasts BENCHMARK.json's ``run_seconds``.  Prints the end-to-end
metrics of each workload with their units, then the share of the traced
wall time that each layer spends in itself, with the untraced remainder
and the tracing overhead.  Every run's ``record`` goes to
``perfbench/out/BENCH_<sha>.json``.  Exits 1 if a run fails or misses a
gate.
"""

import argparse
import json
import sys

from run import BENCH_DIR, ROOT, run_workload


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    records, ok = [], True
    for trace in (0, 1):
        for name in names:
            try:
                rec, result = run_workload(ROOT, name, args.seed, seconds, trace)
            except RuntimeError as exc:
                print(f"{name} --trace {trace}: {exc}", file=sys.stderr)
                ok = False
                continue
            ok = ok and result["correct"]
            records.append(rec)
    plain = {r["workload"]: r for r in records if not r["trace"]}
    traced = {r["workload"]: r for r in records if r["trace"]}

    # every metric an untraced run records: BENCHMARK.json's and the reported-only ones
    metric_names = list(next(iter(plain.values()), {}).get("metrics", {}))
    print(f"{'metric':<16}{'unit':<9}" + "".join(f"{n:>18}" for n in names))
    for metric in metric_names:
        cells, unit = [], ""
        for n in names:
            m = plain.get(n, {}).get("metrics", {}).get(metric)
            unit = m["unit"] if m else unit
            cells.append("n/a" if m is None or m["value"] is None else f"{m['value']:.6g}")
        print(f"{metric:<16}{unit:<9}" + "".join(f"{c:>18}" for c in cells))

    print("\nself time as a share of the traced wall time")
    for n in names:
        rec = traced.get(n)
        if rec is None:
            continue
        m = {k: v["value"] for k, v in rec["metrics"].items()}
        wall = m["trace.wall_s"]
        shares = sorted(((v / wall, k[: -len(".self_s")]) for k, v in m.items()
                         if k.endswith(".self_s") and v > 0.0), reverse=True)
        shares.append((m["trace.other_self_s"] / wall, "untraced remainder"))
        parts = ", ".join(f"{name} {share:.1%}" for share, name in shares)
        print(f"  {n}: traced wall {wall:.3f} s = {parts}; "
              f"tracing overhead {m['trace.overhead_s']:+.3f} s "
              f"on {m['trace.untraced_wall_s']:.3f} s untraced")

    prov = records[0]["provenance"] if records else {}
    tag = (prov.get("git_sha") or prov.get("src_sha256") or "unknown")[:12]
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"BENCH_{tag}.json"
    path.write_text(json.dumps({"seed": args.seed, "seconds": seconds,
                                "provenance": prov, "runs": records}, indent=1) + "\n")
    print(f"\nwrote {path.relative_to(ROOT)}; {'all gates passed' if ok else 'FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
