"""Wall time of ``primspec export`` on the fixed scale corpus.

Each ring is exported ``EXPORT_SAMPLES`` times per source tree, each time
in a fresh interpreter, interpreter start included, with ``primspec``
imported from that tree, and the table keeps the median.  Every tree
exports a ring before any tree moves on to the next export, and the tree
that goes first alternates from one export to the next, so drift of the
host shows in every column alike rather than as a difference between
trees.  Each ``--column`` names the tree given by the ``--src`` in the
same place (this checkout's ``src`` when no ``--src`` is given), and the
columns are merged into a JSON table:

    python scripts/bench_scale.py --out BENCH.json \
        --src ../parent/src --column parent --src src --column change

The table also records ``startup_ms``: per tree, the median of 11 fresh
interpreters that only ``import primspec.cli``, taken after the exports
in the same interleaved order.  And it records ``subcover_us``: per tree,
the median in-process microseconds of one fixed seeded batch of 900
covering ``extract_finite_subcover_z`` certificates, each for an ``r``
and nine ``s`` values below 10^9, timed in one fresh interpreter per tree,
last and in the same order.

Bytecode writes stay on, and one small export per tree runs first, so no
timed run pays for compiling the package.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# a 1024-element ring of each constructor, a CRT split, and GF(2)^7,
# GF(2)^9 and GF(2)^10, whose every ideal is principal (128, 512 and 1024
# ideals, the last the most of any ring the default cap admits)
SCALE_CORPUS = [
    "Zn(1024)",
    "GF(2^10)",
    "Quot(Zn(4), x^5)",
    "Prod(Zn(32), Zn(32))",
    "Zn(720)",
    "Prod(GF(2), " * 6 + "GF(2)" + ")" * 6,
    "Prod(GF(2), " * 8 + "GF(2)" + ")" * 8,
    "Prod(GF(2), " * 9 + "GF(2)" + ")" * 9,
]

_EXPORT = "import sys; from primspec.cli import main; sys.exit(main(sys.argv[1:]))"
_IMPORT = "import primspec.cli"
# one export per tree can read a ring a tenth slower or faster than the
# next on a shared host, so each ring's time is a median
EXPORT_SAMPLES = 5
STARTUP_SAMPLES = 11
# 900 covers drawn from seed 0 (nine random values below 10^9 have a gcd
# g below 2^30, so every prime of g divides r exactly when g | r^30), then
# the median microseconds of one certificate each
_SUBCOVER = """\
import random, statistics, time
from math import gcd
from primspec.zsymbolic import extract_finite_subcover_z
rng = random.Random(0)
batch = []
while len(batch) < 900:
    r = rng.randrange(2, 10**9)
    s = [rng.randrange(2, 10**9) for _ in range(9)]
    if pow(r, 30, gcd(*s)) == 0:
        batch.append((r, s))
times = []
for r, s in batch:
    start = time.perf_counter()
    extract_finite_subcover_z(r, s)
    times.append(time.perf_counter() - start)
print(statistics.median(times) * 1e6)
"""


def _run_seconds(args: list[str], env: dict[str, str]) -> float:
    """Wall seconds of one fresh interpreter running ``args``."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, *args],
        env=env,
        check=True,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - start


def _run_output(args: list[str], env: dict[str, str]) -> str:
    """Standard output of one fresh interpreter running ``args``."""
    return subprocess.run(
        [sys.executable, *args],
        env=env,
        check=True,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        text=True,
    ).stdout


def run_order(specs: list, columns: list[str]) -> list[tuple]:
    """(spec, column) pairs, ring by ring; the columns run in the given
    order on even-numbered rings and reversed on odd-numbered ones."""
    return [
        (spec, column)
        for k, spec in enumerate(specs)
        for column in (columns if k % 2 == 0 else columns[::-1])
    ]


def _warm_envs(trees: dict[str, Path]) -> dict[str, dict[str, str]]:
    """Per column, an environment that imports ``primspec`` from the
    column's tree, after one small export that writes its bytecode."""
    base = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    envs = {
        column: {**base, "PYTHONPATH": str(Path(src).resolve())}
        for column, src in trees.items()
    }
    for env in envs.values():
        _run_seconds(["-c", _EXPORT, "export", "Zn(2)"], env)
    return envs


def time_exports(specs: list[str], envs: dict[str, dict[str, str]]) -> dict[str, dict[str, float]]:
    """Median wall seconds of ``EXPORT_SAMPLES`` runs of ``export SPEC
    --seed 0`` per spec and column, each in a fresh interpreter with the
    column's environment from ``_warm_envs``, in ``run_order`` over the
    specs with each one repeated in place."""
    samples: dict[str, dict[str, list[float]]] = {
        column: {spec: [] for spec in specs} for column in envs
    }
    repeated = [spec for spec in specs for _ in range(EXPORT_SAMPLES)]
    for spec, column in run_order(repeated, list(envs)):
        args = ["-c", _EXPORT, "export", spec, "--seed", "0"]
        samples[column][spec].append(_run_seconds(args, envs[column]))
    return {
        column: {spec: round(statistics.median(t), 2) for spec, t in by_spec.items()}
        for column, by_spec in samples.items()
    }


def time_startup(envs: dict[str, dict[str, str]]) -> dict[str, float]:
    """Median milliseconds per column of ``STARTUP_SAMPLES`` fresh
    interpreters that import ``primspec.cli`` with the column's environment
    from ``_warm_envs``, in ``run_order``."""
    times: dict[str, list[float]] = {column: [] for column in envs}
    for _, column in run_order(range(STARTUP_SAMPLES), list(envs)):
        times[column].append(_run_seconds(["-c", _IMPORT], envs[column]))
    return {column: round(statistics.median(t) * 1000, 1) for column, t in times.items()}


def time_subcover(envs: dict[str, dict[str, str]]) -> dict[str, float]:
    """Median in-process microseconds per column of one certificate of the
    fixed batch in ``_SUBCOVER``, from one fresh interpreter per column with
    the column's environment from ``_warm_envs``, in ``run_order``."""
    return {
        column: round(float(_run_output(["-c", _SUBCOVER], envs[column])), 1)
        for _, column in run_order([_SUBCOVER], list(envs))
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--src", type=Path, action="append", help="source tree to import, once per column"
    )
    parser.add_argument(
        "--column", action="append", required=True, help="column name, e.g. parent or change"
    )
    parser.add_argument("--out", type=Path, required=True, help="JSON file to merge into")
    args = parser.parse_args(argv)
    srcs = args.src or [REPO / "src"] * len(args.column)
    if len(srcs) != len(args.column) or len(set(args.column)) != len(args.column):
        parser.error("give distinct column names, one per --src")

    table = json.loads(args.out.read_text()) if args.out.exists() else {}
    table["command"] = (
        f"primspec export SPEC --seed 0, median of {EXPORT_SAMPLES} fresh interpreters per ring"
    )
    table["python"] = platform.python_version()
    table["nproc"] = len(os.sched_getaffinity(0))
    table["rings"] = SCALE_CORPUS
    envs = _warm_envs(dict(zip(args.column, srcs)))
    columns = time_exports(SCALE_CORPUS, envs)
    startup = time_startup(envs)
    subcover = time_subcover(envs)
    table.setdefault("wall_s", {}).update(columns)
    table.setdefault("startup_ms", {}).update(startup)
    table.setdefault("subcover_us", {}).update(subcover)
    args.out.write_text(json.dumps(table, indent=2) + "\n")
    summary = {"wall_s": columns, "startup_ms": startup, "subcover_us": subcover}
    print(json.dumps(summary, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
