"""Run one primspec benchmark workload and print its metrics.

    python3 perfbench/run.py --workload large-rings --seed 1 --seconds 38 --trace 0

Run from the root of a source checkout; the package is imported from
``src``.  The run repeats whole passes of the workload's input list until
``--seconds`` have passed (and at least enough passes for the tail
percentile), checks every output outside the timed region, and prints as
its last line one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` each pass runs once untraced and once
traced, and the metrics are the per-layer ones.  The line before it records
the seed, the Python version, ``nproc`` and the host probe.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"

# Traced share of op time spent inside these callables (outermost calls only).
SHARES = {
    "ideals.closure_share_pct": {"ideals.enumerate_ideals", "ideals.ideal_generated_by"},
    "classify.a_conditions.share_pct": {"classify.a_conditions"},
    "zsymbolic.factorize.share_pct": {"zsymbolic.factorize"},
}

# The predicted split: each workload's dominant share and the floor it was
# predicted to reach.  A traced run reports whether it holds; it does not
# fail the run, since speeding up the dominant layer is meant to lower it.
SPLIT = {
    "large-rings": ("ideals.closure_share_pct", 80),
    "ideal-rich": ("classify.a_conditions.share_pct", 35),
    "z-queries": ("zsymbolic.factorize.share_pct", 80),
}

SETUP_CODE = "import sys; sys.path.insert(0, sys.argv[1]); import primspec.cli"
SETUP_SAMPLES = 12  # taken on a schedule spread evenly over the run


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def host_probe_ms() -> float:
    """A fixed pure-Python loop; it tracks the host's speed, nothing else."""
    started = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    return (time.perf_counter() - started) * 1000


def setup_sample() -> float:
    """Seconds for a fresh interpreter to start and import primspec.

    No timeout: with one, ``Popen.wait`` polls with sleeps of up to 50 ms,
    which rounds every sample up to that grid.
    """
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC)],
        check=True,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - started


def run_pass(ops, errors: list, sizes: Counter, tracer: Tracer | None = None):
    """Time each op; check its result afterwards.  Returns (latencies, failed)."""
    latencies, failed = [], 0
    for i, op in enumerate(ops):
        started = time.perf_counter()
        latency = None
        try:
            result = tracer.op_span(i, op.call) if tracer else op.call()
            latency = time.perf_counter() - started
            mismatches, op_sizes = op.check(result)
        except Exception as exc:  # a raising op or an unreadable output fails the op
            if latency is None:
                latency = time.perf_counter() - started
            mismatches, op_sizes = [f"{op.label}: raised {exc!r}"], {}
        latencies.append(latency)
        errors.extend(mismatches)
        failed += bool(mismatches)
        if tracer:
            sizes.update(op_sizes)
    return latencies, failed


def min_passes(workload: str) -> int:
    """Passes needed to leave at least 10 samples beyond the tail percentile."""
    beyond_per_pass = (1 - workloads.TAIL_PCT[workload] / 100) * workloads.pass_size(workload)
    return math.ceil(10 / beyond_per_pass - 1e-9)


def percentile(samples: list[float], pct: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "primspec" / "__init__.py").is_file():
        print(f"error: no primspec sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import primspec.cli  # noqa: F401  (loads every layer before tracing)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    OUT.mkdir(exist_ok=True)
    export_path = str(OUT / f"export-{os.getpid()}.json")

    tracer = Tracer() if args.trace else None
    needed = 2 if tracer else min_passes(args.workload)
    pass_medians, samples, probes, setups, overheads = [], [], [], [], []
    errors: list[str] = []
    sizes: Counter = Counter()
    attempted = failed = traced_ops = 0
    started = time.perf_counter()
    k = 0
    while k < needed or time.perf_counter() - started < args.seconds:
        probes.append(host_probe_ms())
        rng = random.Random(f"{args.workload}/{args.seed}/{k}")
        ops = workloads.make_pass(args.workload, rng, export_path)
        if tracer:
            # the same inputs untraced and traced, alternating which goes first
            walls = {}
            for traced in ((False, True) if k % 2 == 0 else (True, False)):
                if traced:
                    tracer.install()
                try:
                    lat, bad = run_pass(ops, errors, sizes, tracer if traced else None)
                finally:
                    tracer.remove()
                walls[traced] = sum(lat)
                attempted += len(ops)
                failed += bad
            traced_ops += len(ops)
            overheads.append((walls[True] / walls[False] - 1) * 100)
        else:
            lat, bad = run_pass(ops, errors, sizes)
            attempted += len(ops)
            failed += bad
            samples += lat
            pass_medians.append(statistics.median(lat))
        k += 1
        done = min((time.perf_counter() - started) / max(args.seconds, 1e-9), 1.0)
        while not tracer and len(setups) < max(1, SETUP_SAMPLES * done):
            setups.append(setup_sample())
    while not tracer and len(setups) < SETUP_SAMPLES:
        setups.append(setup_sample())
    if os.path.exists(export_path):
        os.remove(export_path)

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "passes": k,
        "ops": attempted,
        "fail_ratio": failed / attempted,
        "host.probe_ms": statistics.median(probes),
    }
    if tracer:
        spans = tracer.spans
        spans.dump(OUT / f"trace-{args.workload}.json")
        layer = spans.summary()
        for name, count in tracer.counts().items():
            layer[f"{name}.calls"] = count
        layer = {name: value / traced_ops for name, value in layer.items()}
        layer.update({name: value / traced_ops for name, value in sizes.items()})
        op_time = spans.inclusive({"op"})
        for name, members in SHARES.items():
            layer[name] = spans.inclusive(members) / op_time * 100
        share, floor = SPLIT[args.workload]
        info["split"] = {"share": share, "pct": layer[share], "floor": floor,
                         "met": layer[share] >= floor}
        print(f"split: {share} {layer[share]:.1f} % (predicted >= {floor} %): "
              f"{'met' if info['split']['met'] else 'NOT met'}", file=sys.stderr)
        layer["host.probe_ms"] = info["host.probe_ms"]
        layer["trace.overhead_pct"] = statistics.median(overheads)
        wanted = bench["per_layer"]
        info["spans"] = len(spans)
    else:
        tail_pct = workloads.TAIL_PCT[args.workload]
        tail = percentile(samples, tail_pct)
        info["tail_pct"] = tail_pct
        info["tail_beyond"] = sum(1 for x in samples if x > tail)
        info["setup_samples"] = len(setups)
        layer = {
            "ops_per_s": len(samples) / sum(samples),
            "op_p50_ms": statistics.median(pass_medians) * 1000,
            "op_tail_ms": tail * 1000,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_ratio": 1 - failed / attempted,
        }
        wanted = bench["end_to_end"]
    for line in errors[:10]:
        print(f"mismatch: {line}", file=sys.stderr)
    metrics = {
        m["name"]: {"value": float(layer.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in wanted
    }
    print(json.dumps({"info": info}))
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
