"""Tests of the scale bench script: timing on small rings, and the shapes
of the rings in its corpus."""

import importlib.util
from pathlib import Path

from primspec.classify import analyze_ring

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "bench_scale.py"


def _bench_scale():
    spec = importlib.util.spec_from_file_location("bench_scale", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_time_exports_times_one_export_per_ring(monkeypatch):
    # the same tree twice, as two columns
    bench = _bench_scale()
    monkeypatch.setattr(bench, "EXPORT_SAMPLES", 1)
    envs = bench._warm_envs({"first": ROOT / "src", "second": ROOT / "src"})
    times = bench.time_exports(["Zn(12)", "Zn(6)"], envs)
    assert list(times) == ["first", "second"]
    for column in times.values():
        assert list(column) == ["Zn(12)", "Zn(6)"]
        assert all(0 < t < 30 for t in column.values())


def test_time_exports_keeps_the_median_of_repeats_in_run_order(monkeypatch):
    bench = _bench_scale()
    calls = []

    def fake_run(args, env):
        calls.append((args[3], env["tree"]))
        return len(calls)  # the k-th interpreter takes k seconds

    monkeypatch.setattr(bench, "_run_seconds", fake_run)
    monkeypatch.setattr(bench, "EXPORT_SAMPLES", 3)
    times = bench.time_exports(["A", "B"], {"parent": {"tree": "p"}, "change": {"tree": "c"}})
    # each repeat of a ring is one item of run_order, so the first tree
    # alternates between repeats too
    assert calls == [("A", t) for t in "pccppc"] + [("B", t) for t in "cppccp"]
    # medians of A (1, 4, 5) / (2, 3, 6) and B (8, 9, 12) / (7, 10, 11)
    assert times == {"parent": {"A": 4, "B": 9}, "change": {"A": 3, "B": 10}}


def test_run_order_interleaves_trees_and_alternates_the_first():
    order = _bench_scale().run_order(["A", "B", "C"], ["parent", "change"])
    assert order == [
        ("A", "parent"),
        ("A", "change"),
        ("B", "change"),
        ("B", "parent"),
        ("C", "parent"),
        ("C", "change"),
    ]


def test_time_startup_takes_each_tree_median_in_run_order(monkeypatch):
    bench = _bench_scale()
    calls = []

    def fake_run(args, env):
        calls.append(args)
        return len(calls) / 1000  # the k-th interpreter takes k ms

    monkeypatch.setattr(bench, "_run_seconds", fake_run)
    monkeypatch.setattr(bench, "STARTUP_SAMPLES", 3)
    medians = bench.time_startup({"parent": {}, "change": {}})
    # parent, change | change, parent | parent, change
    assert [args[-1] for args in calls] == ["import primspec.cli"] * 6
    assert medians == {"parent": 4.0, "change": 3.0}  # of (1, 4, 5) and (2, 3, 6)


def test_time_startup_imports_the_cli_in_a_fresh_interpreter(monkeypatch):
    bench = _bench_scale()
    monkeypatch.setattr(bench, "STARTUP_SAMPLES", 1)
    ms = bench.time_startup(bench._warm_envs({"only": ROOT / "src"}))
    assert list(ms) == ["only"] and 0 < ms["only"] < 30_000


def test_time_subcover_runs_one_interpreter_per_tree_in_run_order(monkeypatch):
    bench = _bench_scale()
    calls = []

    def fake_output(args, env):
        calls.append((args, env["tree"]))
        return f"{len(calls) * 12.34}\n"  # the k-th interpreter reads 12.34 k us

    monkeypatch.setattr(bench, "_run_output", fake_output)
    medians = bench.time_subcover({"parent": {"tree": "p"}, "change": {"tree": "c"}})
    assert calls == [(["-c", bench._SUBCOVER], "p"), (["-c", bench._SUBCOVER], "c")]
    assert medians == {"parent": 12.3, "change": 24.7}


def test_time_subcover_times_covering_certificates_in_a_fresh_interpreter():
    bench = _bench_scale()
    us = bench.time_subcover(bench._warm_envs({"only": ROOT / "src"}))
    assert list(us) == ["only"] and 0 < us["only"] < 10_000


def test_scale_corpus_rings_have_the_shapes_its_comment_names():
    corpus = _bench_scale().SCALE_CORPUS
    assert len(corpus) == len(set(corpus)) == 10
    # (ideals, Prim points, closed sets) of the Prim-rich and mixed rings
    shapes = {
        "Quot(Zn(4), x^5)": (37, 36, 2),
        "Quot(Zn(32), x^2)": (37, 36, 2),
        corpus[-1]: (448, 12, 128),
    }
    for spec, shape in shapes.items():
        a = analyze_ring(spec)
        assert a.ring.size == 1024, spec
        assert (len(a.lattice), len(a.prim.points), len(a.prim.closed_sets)) == shape, spec
