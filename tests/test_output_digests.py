"""Output identity of the CLI: each fixed command line's (exit code,
stdout, stderr), with ``timing_ms`` scrubbed, hashes to the SHA-256 in
``output_digests.json``.

A change that alters output on purpose regenerates the table with

    PYTHONPATH=src python tests/test_output_digests.py

and says so in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import shlex
import sys
from pathlib import Path

from primspec.cli import CHECK_PROPERTIES, main
from primspec.corpus import DEFAULT_CORPUS

TABLE = Path(__file__).with_name("output_digests.json")

# the rings of the benchmark's two ring workloads
POOL_SPECS = [
    "Zn(64)",
    "Zn(72)",
    "Zn(81)",
    "Zn(125)",
    "Zn(128)",
    "Quot(Zn(8), x^2+x+1)",
    "Quot(Zn(4), x^3+x+1)",
    "Quot(Zn(9), x^2+1)",
    "GF(2^6)",
    "GF(3^4)",
    "Prod(GF(2), Prod(GF(2), Prod(GF(2), Prod(GF(2), GF(2)))))",
    "Prod(Zn(4), Prod(GF(2), Prod(GF(2), GF(2))))",
    "Prod(Zn(6), Zn(6))",
    "Prod(Zn(8), Prod(GF(2), GF(2)))",
    "Prod(Zn(12), Zn(4))",
    "Prod(Zn(4), Prod(Zn(4), Zn(4)))",
    "Quot(Zn(4), x^3)",
    "Prod(Quot(Zn(4), x^2), GF(2))",
]

# local and not, reduced and not, a field, a product, a non-W-ring
SMALL_SPECS = [
    "Zn(8)",
    "Zn(12)",
    "GF(2^2)",
    "Quot(GF(2), x^3)",
    "Quot(Zn(4), x^2)",
    "Prod(Zn(4), Zn(9))",
    "Prod(GF(2), GF(2))",
]

Z_LINES = [
    ["vrad", "0"],
    ["vrad", "1"],
    ["vrad", "360"],
    ["v", "0"],
    ["v", "1"],
    ["v", "-84"],
    ["closure", "0"],
    ["closure", "2"],
    ["closure", "3", "4"],
    ["subcover", "6", "4", "9"],
    ["subcover", "30", "12", "45", "50"],
    ["subcover", "12", "8", "18"],
    ["subcover", "5", "4", "6"],
    ["subcover", "0", "0"],
    ["subcover", "2", "3", "5"],
    ["subcover", "1", "6", "10", "15"],
    ["subcover", "-7", "14", "21", "35", "-10"],
    ["a2-witness", "2"],
    ["a2-witness", "7"],
    ["zxz-closure", "left", "2"],
    ["zxz-closure", "right", "3", "2"],
    ["zxz-closure", "left", "0"],
]


def command_lines() -> list[list[str]]:
    lines = [["export", spec] for spec in DEFAULT_CORPUS + POOL_SPECS]
    queries = [["check", p] for p in CHECK_PROPERTIES]
    queries += [[c] for c in ("info", "ideals", "prim", "spec")]
    for spec in SMALL_SPECS:
        for command in queries:
            lines += [[*command, spec], ["--json", *command, spec]]
        lines += [["export", spec, "--graph", g] for g in ("ideal-lattice", "specialization")]
    lines.append(["verify-paper"])
    for z in Z_LINES:
        lines += [["z", *z], ["--json", "z", *z]]
    return lines


def digest(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    stdout = re.sub(r'"timing_ms": [-0-9.e+]+', '"timing_ms": 0', out.getvalue())
    blob = json.dumps([code, stdout, err.getvalue()])
    return hashlib.sha256(blob.encode()).hexdigest()


def digests() -> dict[str, str]:
    return {shlex.join(argv): digest(argv) for argv in command_lines()}


def test_every_command_line_prints_what_the_table_records():
    expected = json.loads(TABLE.read_text(encoding="utf-8"))
    got = digests()
    changed = [line for line in got if line in expected and got[line] != expected[line]]
    missing = [line for line in expected if line not in got]
    unrecorded = [line for line in got if line not in expected]
    assert (changed, missing, unrecorded) == ([], [], [])


if __name__ == "__main__":
    TABLE.write_text(json.dumps(digests(), indent=1) + "\n", encoding="utf-8")
    sys.exit(0)
