"""Smoke test of the scale bench script on one small ring."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_scale.py"


def _bench_scale():
    spec = importlib.util.spec_from_file_location("bench_scale", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_time_exports_times_one_export_per_ring():
    times = _bench_scale().time_exports(["Zn(12)"])
    assert list(times) == ["Zn(12)"]
    assert 0 < times["Zn(12)"] < 30
