"""Output identity of the CLI: each fixed command line's (exit code,
stdout, stderr), with ``timing_ms`` scrubbed, hashes to the SHA-256 in
``output_digests.json``.

A change that alters output on purpose regenerates the table with

    PYTHONPATH=src python tests/test_output_digests.py

which prints each command line whose digest it changes, adds or drops
before it rewrites the table, and says so in CHANGES.md.
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
ROOT = Path(__file__).resolve().parent.parent

# a corpus file, keyed by its path from the repository root so that the
# keys are the same on every checkout, and run from its absolute path
CORPUS_FIXTURE = "tests/verify_paper_corpus.txt"

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
    # factors on both sides of the trial-division bound, the least strong
    # pseudoprimes psi_2 ... psi_6 and the largest prime below 2^64
    ["vrad", "64507"],
    ["v", "66049"],
    ["vrad", "63001"],
    ["vrad", "3215031751"],
    ["v", "2152302898747"],
    ["vrad", "18446744073709551557"],
    ["closure", "1373653"],
    ["closure", "65537", "2"],
    ["a2-witness", "25326001"],
    ["a2-witness", "4294967291"],
    ["zxz-closure", "right", "3474749660383"],
    ["subcover", "3215031751", "151", "751", "28351"],
    # exponents 2, 10 and 64 (gcd 3 * 2^64), a 65-bit r, and a non-cover
    ["subcover", "12", "8"],
    ["subcover", "-2", "1024"],
    ["subcover", "6", "55340232221128654848", "166020696663385964544"],
    ["subcover", "18446744073709551616", "2"],
    ["subcover", "6", "35", "70"],
]


def command_lines() -> list[list[str]]:
    lines = [["export", spec] for spec in DEFAULT_CORPUS + POOL_SPECS]
    queries = [["check", p] for p in CHECK_PROPERTIES]
    queries += [[c] for c in ("info", "ideals", "prim", "spec")]
    for spec in SMALL_SPECS:
        for command in queries:
            lines += [[*command, spec], ["--json", *command, spec]]
        lines += [["export", spec, "--graph", g] for g in ("ideal-lattice", "specialization")]
    for spec in POOL_SPECS:
        for p in ("a2", "spectral"):
            lines += [["check", p, spec], ["--json", "check", p, spec]]
    for paper in (["verify-paper"], ["verify-paper", "--corpus", CORPUS_FIXTURE]):
        lines += [paper, ["--json", *paper]]
    for z in Z_LINES:
        lines += [["z", *z], ["--json", "z", *z]]
    return lines


def digest(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(ROOT / arg) if arg == CORPUS_FIXTURE else arg for arg in argv])
    stdout = re.sub(r'"timing_ms": [-0-9.e+]+', '"timing_ms": 0', out.getvalue())
    blob = json.dumps([code, stdout, err.getvalue()])
    return hashlib.sha256(blob.encode()).hexdigest()


def digests() -> dict[str, str]:
    return {shlex.join(argv): digest(argv) for argv in command_lines()}


def differences(expected: dict[str, str], got: dict[str, str]) -> dict[str, list[str]]:
    """The command lines of ``got`` whose digest differs from ``expected``,
    those ``expected`` lacks, and those of ``expected`` that ``got`` lacks."""
    return {
        "changed": [line for line in got if line in expected and got[line] != expected[line]],
        "added": [line for line in got if line not in expected],
        "dropped": [line for line in expected if line not in got],
    }


def test_every_command_line_prints_what_the_table_records():
    expected = json.loads(TABLE.read_text(encoding="utf-8"))
    assert differences(expected, digests()) == {"changed": [], "added": [], "dropped": []}


def test_differences_name_changed_added_and_dropped_lines():
    expected = {"info Zn(6)": "a", "z v 0": "b", "z v 1": "c"}
    got = {"info Zn(6)": "a", "z v 0": "x", "z v 2": "d"}
    assert differences(expected, got) == {
        "changed": ["z v 0"],
        "added": ["z v 2"],
        "dropped": ["z v 1"],
    }


if __name__ == "__main__":
    got = digests()
    expected = json.loads(TABLE.read_text(encoding="utf-8")) if TABLE.exists() else {}
    for kind, lines in differences(expected, got).items():
        for line in lines:
            print(f"{kind}: {line}")
    TABLE.write_text(json.dumps(got, indent=1) + "\n", encoding="utf-8")
    sys.exit(0)
