"""Wall time of ``primspec export`` on the fixed scale corpus.

Each ring is exported once per source tree in a fresh interpreter,
interpreter start included, with ``primspec`` imported from that tree.
Every tree exports a ring before any tree moves on to the next ring, and
the tree that goes first alternates from ring to ring, so drift of the
host shows in every column alike rather than as a difference between
trees.  Each ``--column`` names the tree given by the ``--src`` in the
same place (this checkout's ``src`` when no ``--src`` is given), and the
columns are merged into a JSON table:

    python scripts/bench_scale.py --out BENCH.json \
        --src ../parent/src --column parent --src src --column change

Bytecode writes stay on, and one small export per tree runs first, so no
timed run pays for compiling the package.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# a 1024-element ring of each constructor, a CRT split, and GF(2)^7 and
# GF(2)^9, whose every ideal is principal (128 and 512 ideals)
SCALE_CORPUS = [
    "Zn(1024)",
    "GF(2^10)",
    "Quot(Zn(4), x^5)",
    "Prod(Zn(32), Zn(32))",
    "Zn(720)",
    "Prod(GF(2), " * 6 + "GF(2)" + ")" * 6,
    "Prod(GF(2), " * 8 + "GF(2)" + ")" * 8,
]

_EXPORT = "import sys; from primspec.cli import main; sys.exit(main(sys.argv[1:]))"


def _export_seconds(spec: str, env: dict[str, str]) -> float:
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", _EXPORT, "export", spec, "--seed", "0"],
        env=env,
        check=True,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - start


def run_order(specs: list[str], columns: list[str]) -> list[tuple[str, str]]:
    """(spec, column) pairs, ring by ring; the columns run in the given
    order on even-numbered rings and reversed on odd-numbered ones."""
    return [
        (spec, column)
        for k, spec in enumerate(specs)
        for column in (columns if k % 2 == 0 else columns[::-1])
    ]


def time_exports(specs: list[str], trees: dict[str, Path]) -> dict[str, dict[str, float]]:
    """Wall seconds of one ``export SPEC --seed 0`` per spec and column, each
    in a fresh interpreter that imports ``primspec`` from the column's tree,
    in ``run_order``."""
    base = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    envs = {
        column: {**base, "PYTHONPATH": str(Path(src).resolve())}
        for column, src in trees.items()
    }
    for env in envs.values():
        _export_seconds("Zn(2)", env)
    times: dict[str, dict[str, float]] = {column: {} for column in trees}
    for spec, column in run_order(specs, list(trees)):
        times[column][spec] = round(_export_seconds(spec, envs[column]), 2)
    return times


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
    table["command"] = "primspec export SPEC --seed 0, one fresh interpreter per ring"
    table["python"] = platform.python_version()
    table["nproc"] = len(os.sched_getaffinity(0))
    table["rings"] = SCALE_CORPUS
    columns = time_exports(SCALE_CORPUS, dict(zip(args.column, srcs)))
    table.setdefault("wall_s", {}).update(columns)
    args.out.write_text(json.dumps(table, indent=2) + "\n")
    print(json.dumps(columns, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
