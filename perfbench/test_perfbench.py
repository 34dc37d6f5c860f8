"""Tests of the benchmark itself:  python3 -m pytest perfbench"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import oracle
import run
import workloads
from tracer import Spans, Tracer

sys.path.insert(0, str(run.SRC))
import primspec.cli  # noqa: E402
import primspec.classify  # noqa: E402
from primspec import zsymbolic  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# -- tracer -----------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    # op [0, 10] > a [1, 7] > (b [2, 4], b [5, 6]);  op > c [8, 9]
    spans = Spans()
    op = spans.add("op", 0.0, 10.0, -1, 0)
    a = spans.add("a", 1.0, 7.0, op, 0)
    spans.add("b", 2.0, 4.0, a, 0)
    spans.add("b", 5.0, 6.0, a, 0)
    spans.add("c", 8.0, 9.0, op, 0)
    assert spans.self_times() == [3.0, 3.0, 2.0, 1.0, 1.0]
    summary = spans.summary()
    assert summary["b.self_ms"] == 3000.0 and summary["b.calls"] == 2
    assert summary["op.self_ms"] == 3000.0
    # inclusive time counts outermost spans of the set once
    assert spans.inclusive({"a", "b"}) == 6.0
    assert spans.inclusive({"b", "c"}) == 4.0


def test_tracer_patches_every_binding_and_restores():
    originals = (primspec.cli.verify_theorems, primspec.classify.is_w_ring, primspec.cli.main)
    assert primspec.cli.verify_theorems is primspec.classify.verify_theorems
    tracer = Tracer()
    tracer.install()
    try:
        # the `from .classify import verify_theorems` binding in cli is wrapped too
        assert primspec.cli.verify_theorems is primspec.classify.verify_theorems
        assert primspec.cli.verify_theorems is not originals[0]
        tracer.op_span(0, lambda: zsymbolic.v_rad_z(2**4 * 1_000_003))
    finally:
        tracer.remove()
    assert (primspec.cli.verify_theorems, primspec.classify.is_w_ring, primspec.cli.main) == originals
    summary = tracer.spans.summary()
    assert summary["zsymbolic.v_rad_z.calls"] == 1
    assert summary["zsymbolic.factorize.calls"] == 1
    counts = tracer.counts()
    assert counts["zsymbolic.is_probable_prime"] >= 1
    assert tracer.counts() == counts  # reading does not disturb the counts


# -- oracle -----------------------------------------------------------------


def test_oracle_rejects_wrong_ring_answers(tmp_path):
    spec, path = "Prod(Zn(6), Zn(6))", tmp_path / "export.json"
    assert primspec.cli.main(["export", spec, "--out", str(path)]) == 0
    assert oracle.check_export(spec, 0, path)[0] == []
    assert oracle.check_export(spec, 2, path)[0]
    report = json.loads(path.read_text())
    path.write_text(json.dumps(dict(report, ideals=report["ideals"][:-1])))
    assert oracle.check_export(spec, 0, path)[0]
    report["theorems"][0]["pass"] = False
    path.write_text(json.dumps(report))
    assert any("theorem" in e for e in oracle.check_export(spec, 0, path)[0])


def test_oracle_rejects_wrong_integer_answers():
    p, q = 1_000_003, 2_147_483_647
    assert oracle.check_prime_divisors(p * q, [p, q]) == []
    assert oracle.check_prime_divisors(p * q * q, [p, q]) == []
    assert oracle.check_prime_divisors(p * q, [p])  # missing factor
    assert oracle.check_prime_divisors(p * q, [p * q])  # composite
    assert oracle.check_prime_divisors(p * 4, [p, 4])  # 4 is not prime
    cert = zsymbolic.extract_finite_subcover_z(6, [4, 9])
    assert oracle.check_certificate(6, [4, 9], cert) == []
    bad = zsymbolic.SubcoverCertificate(6, cert.delta, cert.exponent,
                                        tuple(c + 1 for c in cert.coefficients))
    assert oracle.check_certificate(6, [4, 9], bad)
    assert oracle.check_certificate(6, [9], cert)  # delta not drawn from s


def test_independent_primality_agrees_with_sieve():
    limit = 20_000
    sieve = [True] * limit
    sieve[0] = sieve[1] = False
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = [False] * len(sieve[i * i :: i])
    assert [n for n in range(limit) if oracle.is_prime(n)] == [
        n for n in range(limit) if sieve[n]
    ]
    assert oracle.is_prime(2**61 - 1) and not oracle.is_prime(3_215_031_751)


# -- workloads --------------------------------------------------------------


def test_ring_facts_cover_every_pool_ring():
    pools = {spec for pool in workloads.RING_POOLS.values() for spec in pool}
    assert pools == set(oracle.RING_FACTS)


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    for w in BENCH["workloads"]:
        assert f"tail p{workloads.TAIL_PCT[w['name']]}" in w["why"]
    assert len(workloads.make_pass("z-queries", random.Random(0), "")) == (
        workloads.pass_size("z-queries")
    )


def test_raising_op_or_unreadable_output_counts_as_failed():
    def boom(*_):
        raise KeyError("classification")

    ops = [
        workloads.Op("ok", lambda: 1, lambda r: ([], {})),
        workloads.Op("raises", boom, lambda r: ([], {})),
        workloads.Op("unreadable", lambda: 1, boom),
    ]
    errors: list[str] = []
    latencies, failed = run.run_pass(ops, errors, Counter())
    assert failed == 2 and len(latencies) == 3
    assert [e.split(":")[0] for e in errors] == ["raises", "unreadable"]


def _result(capsys) -> tuple[dict, dict]:
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result, json.loads(lines[-2])["info"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_completes_at_minimal_size(workload, capsys, monkeypatch):
    monkeypatch.setattr(run, "min_passes", lambda _: 1)
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0"]) == 0
    result, info = _result(capsys)
    assert result["correct"] and result["failed"] == 0 and info["fail_ratio"] == 0
    assert result["attempted"] == workloads.pass_size(workload)
    metrics = result["metrics"]
    assert [m["name"] for m in BENCH["end_to_end"]] == list(metrics)
    assert all(v["value"] > 0 for v in metrics.values())


def test_traced_runs_report_every_layer_metric_and_the_split(capsys):
    seen = set()
    for workload in workloads.WORKLOADS:
        assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "1"]) == 0
        result, info = _result(capsys)
        assert result["correct"] and result["failed"] == 0
        assert info["split"]["met"], info["split"]
        assert [m["name"] for m in BENCH["per_layer"]] == list(result["metrics"])
        seen |= {k for k, v in result["metrics"].items() if v["value"] != 0}
    assert seen == {m["name"] for m in BENCH["per_layer"]}


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCH["command"][1:], "--workload", "z-queries", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
    assert not Path(tmp_path / "perfbench" / "_out").exists()
