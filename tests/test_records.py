"""Value records: immutable, compared within their class, validated on
every construction path, and cheap to import."""

import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from primspec.classify import a_conditions, analyze_ring, verify_theorems
from primspec.corpus import parse_corpus_lines
from primspec.records import record
from primspec.rings import GFSpec, ProdSpec, QuotSpec, ZnSpec
from primspec.zsymbolic import (
    ZPrimaryIdeal,
    ZVariety,
    ZxZClosure,
    ZxZPrimaryIdeal,
    a2_failure_witness_z,
    extract_finite_subcover_z,
)

SRC = Path(__file__).resolve().parent.parent / "src"

_ZN12 = analyze_ring("Zn(12)")

# one record of each value class, as the package builds them
RECORDS = [
    ZnSpec(4),
    GFSpec(2, 3),
    QuotSpec(GFSpec(2, 1), (1, 1, 1)),
    ProdSpec(ZnSpec(2), GFSpec(3, 1)),
    ZPrimaryIdeal(5, 2),
    ZVariety(families=frozenset({2, 3})),
    extract_finite_subcover_z(6, [4, 9]),
    a2_failure_witness_z(3),
    ZxZPrimaryIdeal("left", ZPrimaryIdeal(2, 1)),
    ZxZClosure("right", None),
    _ZN12.prim.separation,
    parse_corpus_lines(["Zn(4) max_ideals=3"])[0],
    a_conditions(_ZN12.lattice, [1, 2]),
    verify_theorems(_ZN12).entries[0],
    _ZN12.classification,
]


def _name(rec):
    return type(rec).__name__


def test_the_table_holds_one_record_of_each_class():
    assert len({type(rec) for rec in RECORDS}) == len(RECORDS) == 15


@pytest.mark.parametrize("rec", RECORDS, ids=_name)
def test_fields_are_read_only(rec):
    for field in rec._fields:
        with pytest.raises(AttributeError):
            setattr(rec, field, None)
    with pytest.raises(AttributeError):
        rec.extra = 1


@pytest.mark.parametrize("rec", RECORDS, ids=_name)
def test_a_record_equals_only_records_of_its_own_class(rec):
    cls = type(rec)
    twin = cls(*rec)
    assert twin == rec and not twin != rec
    assert copy.copy(rec) == rec == pickle.loads(pickle.dumps(rec))
    # neither the bare tuple of its fields, from either side ...
    assert rec != tuple(rec) and tuple(rec) != rec and not rec == tuple(rec)
    # ... nor a record of another class with the same fields
    stranger = record("Stranger", cls._fields)._make(rec)
    assert rec != stranger and stranger != rec and not rec == stranger


@pytest.mark.parametrize("rec", RECORDS, ids=_name)
def test_equal_records_hash_equal(rec):
    if any(isinstance(value, list) for value in rec):
        # the classification carries its ideal ids as lists
        with pytest.raises(TypeError):
            hash(rec)
    else:
        assert hash(type(rec)(*rec)) == hash(rec)


@pytest.mark.parametrize("rec", RECORDS, ids=_name)
def test_repr_names_each_field(rec):
    shown = ", ".join(f"{f}={v!r}" for f, v in zip(rec._fields, rec))
    assert repr(rec) == f"{_name(rec)}({shown})"


def test_repr_and_keys_keep_the_record_format():
    assert repr(ZnSpec(4)) == "ZnSpec(n=4)"
    assert repr(QuotSpec(GFSpec(2, 1), (1, 0, 1))) == (
        "QuotSpec(base=GFSpec(p=2, k=1), modulus=(1, 0, 1))"
    )
    assert ZnSpec(4) != (4,) and GFSpec(2, 1) != ZPrimaryIdeal(2, 1)
    assert len({GFSpec(2, 1), ZPrimaryIdeal(2, 1), (2, 1)}) == 3
    assert {ZnSpec(4): "ring"}.get((4,)) is None


BAD_Z_IDEALS = [(4, 1), (2, 0), (2**89 - 1, 1)]


@pytest.mark.parametrize("p, k", BAD_Z_IDEALS)
def test_z_primary_ideal_rejects_bad_values_on_every_path(p, k):
    good = ZPrimaryIdeal(5, 2)
    paths = [
        lambda: ZPrimaryIdeal(p, k),
        lambda: ZPrimaryIdeal(p=p, k=k),
        lambda: ZPrimaryIdeal._make((p, k)),
        lambda: good._replace(p=p, k=k),
    ]
    for build in paths:
        with pytest.raises(ValueError):
            build()


def test_z_primary_ideal_replace_checks_each_field():
    good = ZPrimaryIdeal(5, 2)
    for change in ({"p": 4}, {"k": 0}, {"p": 1 << 64}):
        with pytest.raises(ValueError):
            good._replace(**change)
    with pytest.raises(ValueError):
        ZPrimaryIdeal(p=7)  # the default exponent 0 fits only the zero ideal
    assert good._replace(k=3) == ZPrimaryIdeal(p=5, k=3)
    assert good._replace(p=None) == ZPrimaryIdeal(None, 2)


def test_zxz_primary_ideal_rejects_a_bad_side_on_every_path():
    inner = ZPrimaryIdeal(2, 1)
    paths = [
        lambda: ZxZPrimaryIdeal("middle", inner),
        lambda: ZxZPrimaryIdeal(side="middle", inner=inner),
        lambda: ZxZPrimaryIdeal._make(("middle", inner)),
        lambda: ZxZPrimaryIdeal("left", inner)._replace(side="middle"),
    ]
    for build in paths:
        with pytest.raises(ValueError, match="side must be"):
            build()
    assert ZxZPrimaryIdeal("left", inner)._replace(side="right") == ZxZPrimaryIdeal("right", inner)


def test_importing_the_cli_loads_no_dataclasses_inspect_or_typing():
    # the difference of sys.modules, since site may load typing already
    code = (
        "import sys; before = set(sys.modules); sys.path.insert(0, sys.argv[1]); "
        "import primspec.cli; print(*sorted(set(sys.modules) - before))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(SRC)],
        check=True,
        capture_output=True,
        text=True,
        stdin=subprocess.DEVNULL,
    ).stdout.split()
    assert "primspec.cli" in out
    assert {"dataclasses", "inspect", "typing"} & set(out) == set()
    # the package stays pure standard library
    allowed = {"primspec", *sys.stdlib_module_names}
    assert [m for m in out if m.split(".")[0] not in allowed] == []
