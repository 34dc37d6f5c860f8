"""Smoke test of the scale bench script on small rings."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "bench_scale.py"


def _bench_scale():
    spec = importlib.util.spec_from_file_location("bench_scale", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_time_exports_times_one_export_per_ring():
    # the same tree twice, as two columns
    trees = {"first": ROOT / "src", "second": ROOT / "src"}
    times = _bench_scale().time_exports(["Zn(12)", "Zn(6)"], trees)
    assert list(times) == ["first", "second"]
    for column in times.values():
        assert list(column) == ["Zn(12)", "Zn(6)"]
        assert all(0 < t < 30 for t in column.values())


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
