"""Wall time of ``primspec export`` on the fixed scale corpus.

Each ring is exported once in a fresh interpreter, interpreter start
included, with ``primspec`` imported from a chosen source tree.  The
results are merged into a JSON file under a column name, so running the
script on two trees (say, a parent checkout and a change) gives two
columns of the same table:

    python scripts/bench_scale.py --out BENCH.json --src ../parent/src --column parent
    python scripts/bench_scale.py --out BENCH.json --column change

Bytecode writes stay on, and one small export runs first, so no timed run
pays for compiling the package.
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


def time_exports(specs: list[str], src: Path = REPO / "src") -> dict[str, float]:
    """Wall seconds of one ``export SPEC --seed 0`` per spec, each in a fresh
    interpreter that imports ``primspec`` from ``src``."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(Path(src).resolve())
    _export_seconds("Zn(2)", env)
    return {spec: round(_export_seconds(spec, env), 2) for spec in specs}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=REPO / "src", help="source tree to import")
    parser.add_argument("--column", required=True, help="column name, e.g. parent or change")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to merge into")
    args = parser.parse_args(argv)

    table = json.loads(args.out.read_text()) if args.out.exists() else {}
    table["command"] = "primspec export SPEC --seed 0, one fresh interpreter per ring"
    table["python"] = platform.python_version()
    table["nproc"] = len(os.sched_getaffinity(0))
    table["rings"] = SCALE_CORPUS
    table.setdefault("wall_s", {})[args.column] = time_exports(SCALE_CORPUS, args.src)
    args.out.write_text(json.dumps(table, indent=2) + "\n")
    print(json.dumps(table["wall_s"][args.column], indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
