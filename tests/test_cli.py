"""CLI surface: commands, output formats, exit-code contract, corpus files."""

import collections
import copy
import dataclasses
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from primspec import classify, cli
from primspec.classify import analyze_ring, verify_theorems
from primspec.cli import main
from primspec.corpus import DEFAULT_CORPUS, default_corpus, load_corpus, parse_corpus_lines
from primspec.rings import RingSpecError, parse_ring_spec
from primspec.spectra import Spectrum


SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_t0_false_exit_1(capsys):
    code, out, _ = run(capsys, "check", "t0", "Zn(8)")
    assert code == 1
    assert out.startswith("T0: false")


def test_check_t0_true_exit_0(capsys):
    code, out, _ = run(capsys, "check", "t0", "Zn(6)")
    assert code == 0
    assert out.startswith("T0: true")


@pytest.mark.parametrize(
    "prop,spec,expected",
    [
        ("supercompact", "Zn(8)", 0),
        ("supercompact", "Zn(6)", 1),
        ("irreducible", "Zn(8)", 0),
        ("irreducible", "Zn(6)", 1),
        ("local", "Zn(30)", 1),
        ("p-ring", "Zn(6)", 0),
        ("w-ring", "Zn(12)", 0),
        ("w-ring", "Quot(Zn(4), x^4)", 1),
        ("star", "Zn(30)", 1),
        ("star", "Zn(12)", 0),
        ("a2", "Zn(8)", 0),
        ("base", "Zn(12)", 0),
        ("quasi-compact", "Zn(12)", 0),
        ("sober", "Zn(6)", 0),
        ("spectral", "Zn(8)", 1),
        ("field", "GF(7)", 0),
        ("t1", "GF(7)", 0),
        ("t2", "Zn(8)", 1),
    ],
)
def test_check_matrix(capsys, prop, spec, expected):
    code, out, _ = run(capsys, "check", prop, spec)
    assert code == expected
    assert out.strip()


def test_check_quasi_compact_reports_a_missing_cover(capsys, monkeypatch):
    family = Spectrum.basic_open_family.func
    monkeypatch.setattr(
        Spectrum,
        "basic_open_family",
        property(lambda self: [u for u in family(self) if u != self.full]),
    )
    code, out, err = run(capsys, "check", "quasi-compact", "Zn(8)")
    assert (code, out, err) == (1, "quasi-compact: false  (family misses points [0, 1, 2])\n", "")


def _radical_of_zero_read_as_zero(a):
    # the true radical of (0) in Zn(12) is (6); (4) and (3) meet in (0)
    # while their radicals meet in (6)
    lat = copy.copy(a.lattice)
    lat.radical_ids = list(lat.radical_ids)
    lat.radical_ids[lat.zero_id] = lat.zero_id
    return dataclasses.replace(a, lattice=lat)


def _unit_read_as_nilpotent(a):
    # the unit 5 reads as lying in every radical, and its powers 5, 1 never
    # reach a proper ideal
    top = list(a.ring.top_powers)
    top[5] = 0
    a.ring.top_powers = top
    return a


@pytest.mark.parametrize(
    "corrupt, detail",
    [
        (_radical_of_zero_read_as_zero, "{(4), (3)} disagrees"),
        (_unit_read_as_nilpotent, "{(2)} disagrees"),
    ],
    ids=["radical-table", "top-power"],
)
def test_check_a2_names_a_disagreeing_family(capsys, monkeypatch, corrupt, detail):
    monkeypatch.setattr(cli, "analyze_ring", lambda *args: corrupt(analyze_ring(*args)))
    code, out, err = run(capsys, "check", "a2", "Zn(12)")
    assert (code, out, err) == (1, f"a2: false  ({detail})\n", "")
    code, out, _ = run(capsys, "--json", "check", "a2", "Zn(12)")
    assert (code, json.loads(out)["detail"]) == (1, detail)


def test_check_json(capsys):
    code, out, _ = run(capsys, "check", "t2", "Zn(8)", "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload == {
        "spec": "Zn(8)",
        "property": "t2",
        "value": False,
        "detail": payload["detail"],
    }


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["check", "bogus", "Zn(8)"])
    assert err.value.code == 2


def test_validation_error_exit_2(capsys):
    code, _, err = run(capsys, "info", "Zn(1)")
    assert code == 2 and "at least 2" in err


def test_cap_error_exit_3(capsys):
    code, _, err = run(capsys, "info", "Zn(2000)")
    assert code == 3 and "cap" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["export", "Zn(6)", "--out", "{tmp}/missing/report.json"],
        ["export", "Zn(6)", "--out", "{tmp}"],
        ["verify-paper", "--corpus", "{tmp}/missing.txt"],
        ["verify-paper", "--corpus", "{tmp}"],
    ],
    ids=["out-missing-dir", "out-is-dir", "corpus-missing", "corpus-is-dir"],
)
def test_path_error_exit_2(tmp_path, capsys, argv):
    code, out, err = run(capsys, *(arg.format(tmp=tmp_path) for arg in argv))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("flag", ["--max-elements", "--max-ideals"])
@pytest.mark.parametrize("before", [True, False], ids=["before", "after"])
def test_negative_cap_is_a_usage_error(capsys, flag, before):
    argv = [flag, "-1", "info", "Zn(4)"] if before else ["info", "Zn(4)", flag, "-1"]
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert "a cap must be at least 0, not -1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "spec",
    [
        "GF(2305843009213693951)",  # prime: trial division would run for hours
        "GF(2305843009213693951^2)",
        "GF(2^100000)",  # size past the int-to-str digit limit
        "Zn(1" + "0" * 5000 + ")",  # literal past the str-to-int digit limit
        "Quot(Zn(2), x^3000000+1)",  # 3 M coefficients if built
        "GF(2^1" + "0" * 5000 + ")",  # exponent past the str-to-int digit limit
        "Quot(Zn(2), x^1" + "0" * 5000 + "+1)",
    ],
    ids=[
        "gf-big-prime",
        "gf-big-prime-squared",
        "gf-2-pow-100000",
        "zn-5001-digits",
        "quot-degree-3M",
        "gf-exponent-5001-digits",
        "quot-exponent-5001-digits",
    ],
)
def test_oversized_spec_rejected_fast_exit_3(capsys, spec):
    started = time.perf_counter()
    code, _, err = run(capsys, "info", spec)
    assert time.perf_counter() - started < 2.0
    assert code == 3 and "exceeds element cap" in err


@pytest.mark.parametrize(
    "coefficient, char, canonical",
    [
        ("1" + "0" * 5000, 2, "Quot(Zn(2), x^2+1)"),  # 10^5000 = 0 mod 2
        ("1" + "0" * 5000, 3, "Quot(Zn(3), x^2+x+1)"),  # 10^5000 = 1 mod 3
        ("7" * 6000, 5, "Quot(Zn(5), x^2+2x+1)"),
    ],
    ids=["mod-2", "mod-3", "mod-5"],
)
def test_long_coefficient_reduced_exactly(capsys, coefficient, char, canonical):
    started = time.perf_counter()
    code, out, err = run(capsys, "info", f"Quot(Zn({char}), x^2+{coefficient}*x+1)")
    assert time.perf_counter() - started < 2.0
    assert code == 0, err
    assert out.startswith(f"spec: {canonical}\n")


@pytest.mark.parametrize("depth", [2000, 980], ids=["overflowed-parser", "overflowed-str"])
def test_deep_prod_nesting_rejected_under_huge_cap(capsys, depth):
    # with a cap of 2^1000 the cap bound admits about 998 levels, which
    # once overflowed the parser's stack (2000) or str(spec) (980)
    spec = "Prod(Zn(2), " * depth + "Zn(2)" + ")" * depth
    started = time.perf_counter()
    code, out, err = run(capsys, "info", spec, "--max-elements", str(2**1000))
    assert time.perf_counter() - started < 2.0
    assert code == 2 and out == ""
    assert err.startswith("error: Prod nested deeper than 64") and err.count("\n") == 1


def test_prod_nesting_bound_is_64():
    # parsed only: a ring this large is never built
    spec = "Prod(Zn(2), " * 64 + "Zn(2)" + ")" * 64
    assert str(parse_ring_spec(spec, 2**1000)) == spec
    with pytest.raises(RingSpecError, match="Prod nested deeper than 64"):
        parse_ring_spec("Prod(Zn(2), " + spec + ")", 2**1000)


def test_gf_at_psi13_rejected_exit_2(capsys):
    # psi_13 is composite but passes Miller-Rabin to all 13 bases
    psi13 = "3317044064679887385961981"
    code, out, err = run(capsys, "info", f"GF({psi13})", "--max-elements", str(10**25))
    assert (code, out) == (2, "") and f"is not below {psi13}" in err


@pytest.fixture
def builds(monkeypatch):
    """Counts of the spectra built, by kind, and of the ``classify_ring``
    calls, from here to the end of the test."""
    counts = collections.Counter()
    init, classify_ring = Spectrum.__init__, classify.classify_ring

    def counted_init(self, lattice, kind):
        counts[kind] += 1
        init(self, lattice, kind)

    def counted_classify(lattice):
        counts["classify"] += 1
        return classify_ring(lattice)

    monkeypatch.setattr(Spectrum, "__init__", counted_init)
    monkeypatch.setattr(classify, "classify_ring", counted_classify)
    return counts


@pytest.mark.parametrize(
    "argv, built",
    [
        (["ideals", "Zn(12)"], {}),
        (["export", "Zn(12)", "--graph", "ideal-lattice"], {}),
        (["prim", "Zn(12)"], {"primary": 1}),
        (["export", "Zn(12)", "--graph", "specialization"], {"primary": 1}),
        (["spec", "Zn(12)"], {"prime": 1}),
        (["check", "t0", "Zn(12)"], {"primary": 1}),
        (["info", "Zn(12)"], {"primary": 1, "prime": 1, "classify": 1}),
        (["export", "Zn(12)"], {"primary": 1, "prime": 1, "classify": 1}),
    ],
    ids=["ideals", "ideal-lattice", "prim", "specialization", "spec", "t0", "info", "export"],
)
def test_each_command_builds_only_what_it_reads(capsys, builds, argv, built):
    code, _, err = run(capsys, *argv)
    assert code in (0, 1) and err == ""
    assert builds == built


def test_verify_theorems_builds_no_prime_spectrum(builds):
    assert verify_theorems(analyze_ring("Zn(12)")).all_passed
    assert builds == {"primary": 1, "classify": 1}


GLOBAL_FLAG_CASES = [
    (["--json", "info", "Zn(6)"], 0, True),
    (["info", "Zn(6)", "--json"], 0, True),
    (["info", "Zn(6)"], 0, False),
    (["--json", "z", "v", "12"], 0, True),
    (["z", "v", "12"], 0, False),
    (["--max-elements", "4", "info", "Zn(6)"], 3, False),
    (["info", "Zn(6)", "--max-elements", "4"], 3, False),
    # given on both sides, the value after the subcommand wins
    (["--max-elements", "4", "info", "Zn(6)", "--max-elements", "8"], 0, False),
    (["--max-elements", "8", "info", "Zn(6)", "--max-elements", "4"], 3, False),
]


@pytest.mark.parametrize(
    "argv, code, is_json",
    GLOBAL_FLAG_CASES,
    ids=[
        "json-before",
        "json-after",
        "text",
        "json-before-z",
        "text-z",
        "cap-before",
        "cap-after",
        "cap-both-later-loose",
        "cap-both-later-tight",
    ],
)
def test_global_flags_before_or_after_subcommand(capsys, argv, code, is_json):
    got, out, _ = run(capsys, *argv)
    assert got == code
    if code == 0:
        assert _is_json(out) == is_json


def test_reused_parser_carries_no_flags_between_calls(capsys):
    # the cases above, run in one process in both orders, so each call with
    # a flag given before the subcommand is followed by one without it;
    # every call must print what a fresh interpreter prints
    cases = [argv for argv, _, _ in GLOBAL_FLAG_CASES]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    fresh = {}
    for argv in cases:
        done = subprocess.run(
            [sys.executable, "-m", "primspec.cli", *argv], env=env, capture_output=True, text=True
        )
        fresh[tuple(argv)] = (done.returncode, done.stdout, done.stderr)
    for order in (cases, cases[::-1]):
        for argv in order:
            assert run(capsys, *argv) == fresh[tuple(argv)], argv
    assert cli._arg_parser() is cli._arg_parser()


def _is_json(text):
    try:
        json.loads(text)
    except ValueError:
        return False
    return True


def test_z_vrad_rendering(capsys):
    code, out, _ = run(capsys, "z", "vrad", "12")
    assert code == 0
    assert out.strip() == "{(2^k): k≥1} ∪ {(3^k): k≥1}"
    code, out, _ = run(capsys, "z", "vrad", "0")
    assert out.strip() == "Prim(Z)"
    code, out, _ = run(capsys, "z", "vrad", "1")
    assert out.strip() == "∅"
    code, out, _ = run(capsys, "z", "vrad", "12", "--json")
    assert json.loads(out) == {
        "n": 12,
        "all_points": False,
        "families": [2, 3],
        "includes_zero": False,
    }


def test_z_vrad_accepts_64_bits(capsys):
    code, out, _ = run(capsys, "z", "vrad", "18446744073709551615")
    assert code == 0
    assert out.strip().startswith("{(3^k): k≥1} ∪ {(5^k): k≥1}")
    code, _, err = run(capsys, "z", "vrad", "18446744073709551616")
    assert code == 2 and "input exceeds 64 bits" in err


def test_z_v_contrast(capsys):
    code, out, _ = run(capsys, "z", "v", "12")
    assert code == 0 and out.strip() == "{(2), (3)}"


def test_z_closure(capsys):
    code, out, _ = run(capsys, "z", "closure", "2", "3")
    assert code == 0 and out.strip() == "{(2^k): k≥1}"
    code, out, _ = run(capsys, "z", "closure", "0")
    assert out.strip() == "Prim(Z)"


def test_z_subcover(capsys):
    code, out, _ = run(capsys, "z", "subcover", "6", "4", "9", "25", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verified"] is True
    assert set(payload["delta"]) <= {4, 9, 25}
    code, _, err = run(capsys, "z", "subcover", "2", "9")
    assert code == 2 and "power family of 3" in err


def test_z_a2_witness(capsys):
    code, out, _ = run(capsys, "z", "a2-witness", "2", "--json")
    payload = json.loads(out)
    assert payload == {
        "p": 2,
        "radical_of_intersection": "(0)",
        "intersection_of_radicals": "(2)",
        "sides_equal": False,
    }
    code, _, err = run(capsys, "z", "a2-witness", "4")
    assert code == 2


def test_z_zxz_closure(capsys):
    code, out, _ = run(capsys, "z", "zxz-closure", "left", "2", "3")
    assert code == 0 and out.strip() == "{(2^n)×Z: n≥1}"
    code, out, _ = run(capsys, "z", "zxz-closure", "right", "5")
    assert out.strip() == "{Z×(5^n): n≥1}"


M4253 = str(2**4253 - 1)  # a Mersenne prime of 1281 digits


@pytest.mark.parametrize(
    "argv",
    [["closure", M4253], ["a2-witness", M4253], ["zxz-closure", "left", M4253, "2"]],
    ids=["closure", "a2-witness", "zxz-closure"],
)
def test_z_point_above_64_bits_rejected_fast(capsys, argv):
    # rejected before any Miller-Rabin, which took seconds on such a prime
    started = time.perf_counter()
    code, out, err = run(capsys, "z", *argv)
    assert time.perf_counter() - started < 1.0
    assert (code, out) == (2, "") and "prime exceeds 64 bits" in err


def test_z_closure_accepts_the_largest_64_bit_prime(capsys):
    code, out, _ = run(capsys, "z", "closure", "18446744073709551557")
    assert code == 0 and out.strip() == "{(18446744073709551557^k): k≥1}"


@pytest.mark.parametrize(
    "argv,payload",
    [
        (["z", "v", "12"], {"n": 12, "primes": [2, 3]}),
        (
            ["z", "closure", "2", "3"],
            {"ideal": "(2^3)", "all_points": False, "families": [2], "includes_zero": False},
        ),
        (
            ["z", "zxz-closure", "left", "2", "3"],
            {"ideal": "(2^3)×Z", "side": "left", "prime": 2, "rendered": "{(2^n)×Z: n≥1}"},
        ),
        (
            ["info", "Zn(8)"],
            {
                "spec": "Zn(8)",
                "elements": 8,
                "characteristic": 8,
                "units": 4,
                "nilpotents": 4,
                "ideals": 4,
                "prim_points": 3,
                "spec_points": 1,
                "is_field": False,
                "is_local": True,
                "is_p_ring": False,
                "is_w_ring": True,
                "galois_ring": False,
            },
        ),
    ],
)
def test_json_payloads_pinned(capsys, argv, payload):
    code, out, err = run(capsys, *argv, "--json")
    assert (code, err) == (0, "")
    assert out == json.dumps(payload, indent=2) + "\n"


def test_z_v_text_of_zero_and_unit(capsys):
    assert run(capsys, "z", "v", "0") == (0, "Spec(Z)\n", "")
    assert run(capsys, "z", "v", "1") == (0, "∅\n", "")


@pytest.mark.parametrize("prop", cli.CHECK_PROPERTIES)
def test_check_json_agrees_with_text_and_exit_code(capsys, prop):
    code, out, _ = run(capsys, "check", prop, "Zn(8)", "--json")
    payload = json.loads(out)
    assert (payload["spec"], payload["property"]) == ("Zn(8)", prop)
    value, detail = payload["value"], payload["detail"]
    assert code == (0 if value else 1)
    label = prop.upper() if prop in ("t0", "t1", "t2") else prop
    text = f"{label}: {str(value).lower()}" + (f"  ({detail})" if detail else "")
    assert run(capsys, "check", prop, "Zn(8)") == (code, text + "\n", "")


def test_info_and_ideals_text(capsys):
    code, out, _ = run(capsys, "info", "Quot(Zn(4), x^2+x+1)")
    assert code == 0
    assert "galois_ring: True" in out
    assert "elements: 16" in out
    code, out, _ = run(capsys, "ideals", "Zn(12)")
    assert code == 0
    assert "(6)" in out and "6 ideals" in out


def test_prim_and_spec_text(capsys):
    code, out, _ = run(capsys, "prim", "Zn(8)")
    assert code == 0
    assert "3 points" in out
    code, out, _ = run(capsys, "spec", "Zn(8)")
    assert "1 points" in out


def test_export_report_schema(capsys):
    code, out, _ = run(capsys, "export", "Zn(6)")
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == [
        "version",
        "spec",
        "elements",
        "seed",
        "caps",
        "ideals",
        "prim",
        "prime_spectrum",
        "classification",
        "theorems",
        "timing_ms",
    ]
    assert payload["spec"] == "Zn(6)"
    assert len(payload["ideals"]) == 4
    assert len(payload["prim"]["points"]) == 2
    assert len(payload["prim"]["closed_sets"]) == 4
    for ideal in payload["ideals"]:
        assert set(ideal) == {
            "id",
            "gens",
            "proper",
            "prime",
            "maximal",
            "primary",
            "radical_id",
        }
    for theorem in payload["theorems"]:
        assert set(theorem) == {
            "id",
            "anchor",
            "applicable",
            "lhs",
            "rhs",
            "pass",
            "witness",
        }
    assert all(t["pass"] for t in payload["theorems"])


def test_export_report_gf7(capsys):
    code, out, _ = run(capsys, "export", "GF(7)")
    payload = json.loads(out)
    assert len(payload["ideals"]) == 2
    assert payload["prim"]["point_labels"] == ["(0)"]
    assert payload["classification"]["is_field"] is True


def test_export_byte_stable_modulo_timing(capsys):
    _, out1, _ = run(capsys, "export", "Zn(12)", "--seed", "4")
    _, out2, _ = run(capsys, "export", "Zn(12)", "--seed", "4")
    scrub = lambda s: re.sub(r'"timing_ms": [0-9.]+', '"timing_ms": 0', s)
    assert scrub(out1) == scrub(out2)


def test_export_dot_specialization(capsys):
    code, out, _ = run(capsys, "export", "Zn(8)", "--graph", "specialization")
    assert code == 0
    assert out.count("->") == 6  # complete digraph on 3 points
    code, out, _ = run(capsys, "export", "Zn(6)", "--graph", "specialization")
    assert out.count("->") == 0
    assert out.count("label=") == 2


def test_export_dot_ideal_lattice(capsys):
    code, out, _ = run(capsys, "export", "Zn(12)", "--graph", "ideal-lattice")
    assert code == 0
    assert out.count("label=") == 6
    edges = {
        tuple(m.groups())
        for m in re.finditer(r"n(\d+) -> n(\d+)", out)
    }
    # divisor lattice of 12: (0)-(6),(0)-(4),(6)-(3),(6)-(2),(4)-(2),(3)-(1),(2)-(1)
    assert len(edges) == 7


def test_export_to_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "export", "Zn(6)", "--out", str(target))
    assert code == 0 and out == ""
    payload = json.loads(target.read_text())
    assert payload["spec"] == "Zn(6)"


def test_verify_paper_small_corpus(tmp_path, capsys):
    corpus = tmp_path / "rings.txt"
    corpus.write_text("# comment\nZn(8)\nZn(6)  # trailing comment\nGF(7)\n")
    code, out, _ = run(capsys, "verify-paper", "--corpus", str(corpus))
    assert code == 0
    assert out.count("PASS") == 3
    assert "3 rings checked, all entries passed" in out


def test_verify_paper_json(tmp_path, capsys):
    corpus = tmp_path / "rings.txt"
    corpus.write_text("Zn(6)\n")
    code, out, _ = run(capsys, "verify-paper", "--corpus", str(corpus), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"] is True
    assert payload["corpus_size"] == 1
    assert payload["rings"][0]["spec"] == "Zn(6)"


def test_verify_paper_skips_over_cap_entries(tmp_path, capsys):
    corpus = tmp_path / "rings.txt"
    corpus.write_text("Zn(6)\nZn(30) max_ideals=3\n")
    code, out, _ = run(capsys, "verify-paper", "--corpus", str(corpus), "--json")
    assert code == 0
    payload = json.loads(out)
    skipped = payload["rings"][1]
    assert skipped["spec"] == "Zn(30)"
    assert skipped["passed"] == 0
    assert skipped["not_applicable"] > 0


def test_verify_paper_lowered_element_cap_skips_only_its_ring(tmp_path, capsys):
    corpus = tmp_path / "rings.txt"
    corpus.write_text("Zn(12) max_elements=5\nZn(6)\n")
    code, out, _ = run(capsys, "verify-paper", "--corpus", str(corpus), "--json")
    assert code == 0
    skipped, checked = json.loads(out)["rings"]
    assert (skipped["spec"], skipped["passed"], skipped["not_applicable"]) == ("Zn(12)", 0, 27)
    assert checked["spec"] == "Zn(6)" and checked["passed"] == 27


def test_verify_paper_raised_element_cap_admits_its_ring(tmp_path, capsys):
    corpus = tmp_path / "rings.txt"
    corpus.write_text("Zn(30) max_elements=32\nZn(6)\n")
    code, out, _ = run(
        capsys, "--max-elements", "8", "verify-paper", "--corpus", str(corpus), "--json"
    )
    assert code == 0
    raised, capped = json.loads(out)["rings"]
    assert (raised["spec"], raised["passed"], raised["not_applicable"]) == ("Zn(30)", 27, 0)
    assert (capped["spec"], capped["passed"]) == ("Zn(6)", 27)
    # without the override the global cap still rejects the corpus up front
    corpus.write_text("Zn(30)\n")
    code, _, err = run(capsys, "--max-elements", "8", "verify-paper", "--corpus", str(corpus))
    assert code == 3 and "exceeds element cap 8" in err


def test_verify_paper_zero_ideal_cap_skips(tmp_path, capsys):
    # a 0 override is a cap like any other, not a missing one
    corpus = tmp_path / "rings.txt"
    corpus.write_text("Zn(12) max_ideals=0\n")
    code, out, _ = run(capsys, "verify-paper", "--corpus", str(corpus), "--json")
    assert code == 0
    row = json.loads(out)["rings"][0]
    assert row["passed"] == 0
    assert row["not_applicable"] == 27


@pytest.mark.parametrize(
    "value",
    ["\u00b2", "\u0663", "9" * 5000, "-1", ""],
    ids=["superscript-two", "arabic-indic-three", "5000-digits", "negative", "empty"],
)
def test_corpus_bad_cap_value_rejected(value):
    with pytest.raises(RingSpecError) as err:
        parse_corpus_lines(["Zn(8)", f"Zn(12) max_elements={value}"])
    assert str(err.value).startswith("line 2: bad cap token max_elements=")
    assert len(str(err.value)) < 100


def test_corpus_bad_cap_value_exit_2(tmp_path, capsys):
    corpus = tmp_path / "rings.txt"
    corpus.write_text("Zn(12) max_ideals=" + "9" * 5000 + "\n")
    code, _, err = run(capsys, "verify-paper", "--corpus", str(corpus))
    assert code == 2
    assert "line 1: bad cap token" in err


def test_corpus_duplicate_rejected():
    with pytest.raises(RingSpecError) as err:
        parse_corpus_lines(["Zn(8)", "Zn( 8 )"])
    assert "duplicate" in str(err.value)


def test_corpus_caps_tokens(tmp_path):
    corpus = tmp_path / "rings.txt"
    corpus.write_text("Zn(12) max_elements=64 max_ideals=32\n")
    entries = load_corpus(str(corpus))
    assert entries[0].spec_text == "Zn(12)"
    assert entries[0].max_elements == 64
    assert entries[0].max_ideals == 32
    with pytest.raises(RingSpecError):
        parse_corpus_lines(["Zn(12) bogus=3"])


def test_default_corpus_well_formed():
    entries = default_corpus()
    assert len(entries) >= 25
    assert len({e.spec_text for e in entries}) == len(entries)
    for text in DEFAULT_CORPUS:
        assert str(parse_ring_spec(text)) == text


# Grammar fuzzer: specs drawn from the grammar, oversized, deeply nested or
# mangled, must each end fast with a documented exit code.

_LITERALS = st.one_of(
    st.integers(0, 9).map(str),
    st.integers(0, 70).map(str),
    st.integers(0, 10**40).map(str),
    st.sampled_from(["1" + "0" * 5000, "0" * 3000 + "7", "²", "٣", "-3", ""]),
)
_TERMS = st.one_of(
    st.just("x"),
    st.builds("x^{}".format, _LITERALS),
    st.builds("{}x^{}".format, _LITERALS, _LITERALS),
    st.builds("{}*x".format, _LITERALS),
    _LITERALS,
)
_POLYS = st.lists(st.tuples(st.sampled_from(["+", "-"]), _TERMS), min_size=1, max_size=4).map(
    lambda terms: "".join(sign + term for sign, term in terms).removeprefix("+")
)
_LEAVES = st.one_of(
    st.builds("Zn({})".format, _LITERALS),
    st.builds("GF({})".format, _LITERALS),
    st.builds("GF({}^{})".format, _LITERALS, _LITERALS),
)
_GRAMMAR = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.builds("Prod({}, {})".format, inner, inner),
        st.builds("Quot({}, {})".format, inner, _POLYS),
    ),
    max_leaves=6,
)
def _nest(template, depth):
    left, right = template.split("{}")
    return left * depth + "Zn(2)" + right * depth


def _mangle(spec, pos, token):
    return spec[:pos] + token + spec[pos + 1 :]


_SPECS = st.one_of(
    _GRAMMAR,
    st.builds(
        _nest,
        st.sampled_from(["Prod(Zn(2), {})", "Prod({}, GF(2))", "Quot({}, x)", "({})", "Prod({}"]),
        st.integers(1, 5000),
    ),
    # one character of a grammatical spec replaced by a token or dropped
    st.builds(
        _mangle,
        _GRAMMAR,
        st.integers(0, 60),
        st.sampled_from(["", "(", ")", ",", "^", "x", "+", "-", "*", " ", "Prod(", "\0", "é"]),
    ),
    st.text(max_size=40),
)


@given(_SPECS)
@example("Prod(Zn(2), " * 3000 + "Zn(2)" + ")" * 3000)  # overflowed the parser's stack
@example("Quot(" * 3000 + "Zn(2)" + ", x)" * 3000)  # likewise, before its base was checked
@settings(max_examples=200, derandomize=True, deadline=None)
def test_fuzzed_spec_ends_fast_with_a_documented_code(spec):
    started = time.perf_counter()
    try:
        code = main(["info", spec, "--max-elements", "64"])
    except SystemExit as exc:  # argparse, for a spec that reads as a flag
        code = exc.code
    assert time.perf_counter() - started < 2.0
    assert code in (0, 2, 3)
