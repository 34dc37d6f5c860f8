"""Steadiness check: repeated untraced runs, alternating workloads.

    python3 perfbench/steady.py --runs 10

Two sets of runs of the same code.  Each set runs every workload ``--runs``
times for ``run_seconds`` of BENCHMARK.json, cycling through the workloads,
each run with a fresh seed.  For every workload and end-to-end metric it
prints the median, the quartiles, and the spread (q3 - q1) as a share of the
median next to the metric's bound, and how far the second set's median moved
from the first set's, in the metric's worse direction.  It exits 0 only if
every spread and every move is within its bound and no op failed.  Every
run's result line is written to perfbench/_out/steady.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
        check=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result.update(json.loads(lines[-2]))
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0], 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    args = p.parse_args(argv)

    (HERE / "_out").mkdir(exist_ok=True)
    results = {(s, w): [] for s in range(SETS) for w in names}
    with open(HERE / "_out" / "steady.jsonl", "w", encoding="utf-8") as log:
        for s in range(SETS):
            for i in range(args.runs):
                seed = 1 + s * args.runs + i
                for w in names:
                    r = run_once(w, seed, bench["run_seconds"])
                    results[s, w].append(r)
                    log.write(json.dumps(r) + "\n")
                    log.flush()
                    print(f"set {s + 1} run {i + 1} {w}: correct={r['correct']} "
                          f"probe={r['info']['host.probe_ms']:.2f}ms", file=sys.stderr)

    ok = True
    for w in names:
        print(f"\n{w}")
        print(f"  {'metric':12s} {'unit':6s} {'set':>3s} {'median':>12s} {'q1':>12s} "
              f"{'q3':>12s} {'spread':>7s} {'bound':>6s} {'moved':>7s}")
        for m in bench["end_to_end"]:
            first = None
            for s in range(SETS):
                values = [r["metrics"][m["name"]]["value"] for r in results[s, w]]
                med, q1, q3, sp = spread(values)
                moved = ""
                if first is None:
                    first = med
                else:
                    worse = (first - med if m["better"] == "higher" else med - first) / first
                    moved = f"{worse:+.3f}"
                    ok &= worse <= m["bound"]
                ok &= sp <= m["bound"]
                print(f"  {m['name']:12s} {m['unit']:6s} {s + 1:3d} {med:12.5g} {q1:12.5g} "
                      f"{q3:12.5g} {sp:7.3f} {m['bound']:6.2f} {moved:>7s}")
        rows = [r for s in range(SETS) for r in results[s, w]]
        fail = sum(r["failed"] for r in rows) / sum(r["attempted"] for r in rows)
        probes = [r["info"]["host.probe_ms"] for r in rows]
        print(f"  fail_ratio {fail:.6f} over {len(rows)} runs; host.probe_ms "
              f"min {min(probes):.2f} median {statistics.median(probes):.2f} max {max(probes):.2f}")
        ok &= fail == 0
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
