"""Command-line interface: build rings, query spectra, run property checks,
replay the full verification suite over a corpus, export JSON/DOT.

Exit codes: 0 success / all checks pass, 1 a checked property is false or a
suite entry fails, 2 usage, validation or file error, 3 a cap was exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import stat
import sys
import time

from .classify import (
    THEOREM_CLAIMS,
    a_conditions,
    analyze_ring,
    star_condition,
    verify_theorems,
)
from .corpus import default_corpus, load_corpus
from .ideals import DEFAULT_IDEAL_CAP
from .report import build_report, dot_ideal_lattice, dot_specialization, spectrum_block
from .rings import (
    DEFAULT_ELEMENT_CAP,
    CapExceededError,
    QuotSpec,
    RingSpecError,
    unit_and_nilpotent_flags,
)
from .spectra import Spectrum
from .topology import CoverageError, is_irreducible, is_quasi_compact
from .zsymbolic import (
    NotACoverError,
    ZPrimaryIdeal,
    ZxZPrimaryIdeal,
    a2_failure_witness_z,
    closure_z,
    extract_finite_subcover_z,
    prim_zxz_closure,
    v_rad_z,
    v_z,
)

def non_negative_int(text: str) -> int:
    """The argparse type of the cap flags: a negative cap is a usage error."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"a cap must be at least 0, not {value}")
    return value


def _globals_parser(on_subcommand: bool = False) -> argparse.ArgumentParser:
    """The global flags.  Their copy on each subcommand has SUPPRESS
    defaults, so it sets only a flag given after the subcommand and never
    overwrites one given before it."""

    def default(value):
        return argparse.SUPPRESS if on_subcommand else value

    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--json", action="store_true", default=default(False), help="emit JSON")
    p.add_argument("--out", metavar="PATH", default=default(None), help="write output to a file")
    p.add_argument("--max-elements", type=non_negative_int, default=default(DEFAULT_ELEMENT_CAP))
    p.add_argument("--max-ideals", type=non_negative_int, default=default(DEFAULT_IDEAL_CAP))
    p.add_argument("--seed", type=int, default=default(0))
    p.add_argument(
        "--corpus", metavar="PATH", default=default(None), help="corpus file (verify-paper)"
    )
    return p


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="primspec", parents=[_globals_parser()])
    shared = _globals_parser(on_subcommand=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", parents=[shared], help="ring summary")
    p.add_argument("spec")
    p = sub.add_parser("ideals", parents=[shared], help="ideal inventory")
    p.add_argument("spec")
    p = sub.add_parser("prim", parents=[shared], help="primary spectrum")
    p.add_argument("spec")
    p = sub.add_parser("spec", parents=[shared], help="prime spectrum")
    p.add_argument("spec")
    p = sub.add_parser("check", parents=[shared], help="check one property")
    p.add_argument("property", choices=CHECK_PROPERTIES)
    p.add_argument("spec")
    sub.add_parser(
        "verify-paper",
        parents=[shared],
        help="run the full verification suite over the corpus",
    )
    p = sub.add_parser("export", parents=[shared], help="JSON report or DOT graph")
    p.add_argument("spec")
    p.add_argument(
        "--graph",
        choices=("report", "ideal-lattice", "specialization"),
        default="report",
    )
    p = sub.add_parser("z", parents=[shared], help="symbolic spectrum of Z")
    zsub = p.add_subparsers(dest="zcommand", required=True)
    q = zsub.add_parser("vrad", parents=[shared])
    q.add_argument("n", type=int)
    q = zsub.add_parser("v", parents=[shared])
    q.add_argument("n", type=int)
    q = zsub.add_parser("closure", parents=[shared])
    q.add_argument("p", type=int)
    q.add_argument("k", type=int, nargs="?", default=1)
    q = zsub.add_parser("subcover", parents=[shared])
    q.add_argument("r", type=int)
    q.add_argument("s", type=int, nargs="+")
    q = zsub.add_parser("a2-witness", parents=[shared])
    q.add_argument("p", type=int)
    q = zsub.add_parser("zxz-closure", parents=[shared])
    q.add_argument("side", choices=("left", "right"))
    q.add_argument("p", type=int)
    q.add_argument("k", type=int, nargs="?", default=1)
    return parser


def _write(args, text: str) -> None:
    """Write ``text`` to stdout, or to ``--out`` ending in one newline.

    The file is overwritten in place: opened without ``O_TRUNC``, written,
    then cut at the written length.  Truncating to zero first makes ext4
    (``auto_da_alloc``) start writeback at ``close`` on every rewrite of
    the same file.  Only a regular file is cut; a device or a pipe
    (``/dev/null``, ``/dev/stdout``) rejects ``ftruncate``.
    """
    if not args.out:
        print(text)
        return
    data = (text if text.endswith("\n") else text + "\n").encode("utf-8")
    with open(os.open(args.out, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(data)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()


def _emit(args, payload, text: str) -> None:
    """Write ``payload`` as indented JSON under ``--json``, else ``text``."""
    _write(args, json.dumps(payload, indent=2) if args.json else text)


def _analyze(args):
    return analyze_ring(args.spec, args.max_elements, args.max_ideals)


def cmd_info(args) -> int:
    a = _analyze(args)
    cls = a.classification
    units = sum(
        1 for r in range(a.ring.size) if unit_and_nilpotent_flags(a.ring, r)[0]
    )
    nilpotents = a.lattice.mask(a.lattice.nilradical_id()).bit_count()
    payload = {
        "spec": str(a.spec),
        "elements": a.ring.size,
        "characteristic": a.ring.characteristic(),
        "units": units,
        "nilpotents": nilpotents,
        "ideals": len(a.lattice),
        "prim_points": len(a.prim.points),
        "spec_points": len(a.primes.points),
        "is_field": cls.is_field,
        "is_local": cls.is_local,
        "is_p_ring": cls.is_p_ring,
        "is_w_ring": a.w_ring[0],
        "galois_ring": isinstance(a.spec, QuotSpec) and a.spec.is_galois_ring(),
    }
    _emit(args, payload, "\n".join(f"{k}: {v}" for k, v in payload.items()))
    return 0


def cmd_ideals(args) -> int:
    a = _analyze(args)
    lat = a.lattice
    rows = [
        {
            "id": i,
            "gens": lat.render(i),
            "proper": lat.proper[i],
            "prime": lat.prime[i],
            "maximal": lat.maximal[i],
            "primary": lat.primary[i],
            "radical": lat.render(lat.radical_ids[i]),
        }
        for i in range(len(lat))
    ]
    lines = [f"{len(lat)} ideals of {a.ring.label}"]
    for row in rows:
        flags = "".join(
            ch if row[key] else "-"
            for ch, key in (("P", "prime"), ("M", "maximal"), ("Q", "primary"))
        )
        lines.append(
            f"  [{row['id']}] {row['gens']}  {flags}  radical={row['radical']}"
        )
    _emit(args, rows, "\n".join(lines))
    return 0


def _spectrum_text(spectrum: Spectrum, title: str) -> str:
    lines = [f"{title}: {len(spectrum.points)} points"]
    lines.append(
        "  points: " + ", ".join(spectrum.render_point(p) for p in range(len(spectrum.points)))
    )
    lines.append(f"  closed sets ({len(spectrum.closed_sets)}):")
    for idx, closed in enumerate(spectrum.closed_sets):
        gens = ", ".join(
            spectrum.lattice.render(i) for i in sorted(spectrum.generating_ideals[idx])
        )
        lines.append(f"    {spectrum.render_point_set(closed)}  from {gens}")
    return "\n".join(lines)


def cmd_spectrum(args) -> int:
    """``prim`` shows the primary spectrum, ``spec`` the prime one."""
    a = _analyze(args)
    spectrum, title = (a.prim, "Prim") if args.command == "prim" else (a.primes, "Spec")
    _emit(args, spectrum_block(spectrum), _spectrum_text(spectrum, f"{title}({a.ring.label})"))
    return 0


def _separation(axiom: str):
    def check(a):
        sep = a.prim.separation
        value = getattr(sep, axiom)
        return value, None if value else f"witness {sep.witness}"

    return check


def _irreducible(a):
    value, wit = is_irreducible(a.prim)
    return value, None if value else "witness " + ", ".join(map(a.prim.render_point_set, wit))


def _supercompact(a):
    value, wit = a.prim.supercompact
    if value:
        return True, None
    return False, "covering family " + ", ".join(map(a.prim.render_point_set, wit))


def _quasi_compact(a):
    try:
        chosen = is_quasi_compact(a.prim, a.prim.full, a.prim.basic_open_family)
    except CoverageError as exc:
        return False, str(exc)
    return True, f"subcover of {len(chosen)} basic opens"


def _a2(a):
    res = a_conditions(a.lattice, list(range(len(a.lattice))))
    return res.a2, res.witness


# each property of ``check``, in help order: analysis -> (value, detail)
CHECKS = {
    "t0": _separation("t0"),
    "t1": _separation("t1"),
    "t2": _separation("t2"),
    "sober": lambda a: (a.prim.sober, None),
    "spectral": lambda a: (a.prim.spectral, None),
    "irreducible": _irreducible,
    "supercompact": _supercompact,
    "quasi-compact": _quasi_compact,
    "base": lambda a: a.prim.is_base,
    "local": lambda a: (a.classification.is_local, None),
    "field": lambda a: (a.classification.is_field, None),
    "p-ring": lambda a: (a.classification.is_p_ring, None),
    "w-ring": lambda a: a.w_ring,
    "star": lambda a: star_condition(a.lattice, a.prim),
    "a2": _a2,
}
CHECK_PROPERTIES = tuple(CHECKS)


def cmd_check(args) -> int:
    a = _analyze(args)
    prop = args.property
    value, detail = CHECKS[prop](a)
    label = prop.upper() if prop.startswith("t") and len(prop) == 2 else prop
    text = f"{label}: {str(value).lower()}" + (f"  ({detail})" if detail else "")
    payload = {"spec": str(a.spec), "property": prop, "value": value, "detail": detail}
    _emit(args, payload, text)
    return 0 if value else 1


def _suite_for_entry(entry, args):
    """(passed, not applicable, failed entries) of the suite on one corpus
    ring, and the wall time in ms.  A ring that exceeds a cap while it is
    built passes with every entry not applicable."""
    started = time.perf_counter()
    try:
        a = analyze_ring(
            entry.spec,
            args.max_elements if entry.max_elements is None else entry.max_elements,
            args.max_ideals if entry.max_ideals is None else entry.max_ideals,
        )
    except CapExceededError:
        counts = 0, len(THEOREM_CLAIMS), []
    else:
        report = verify_theorems(a)
        counts = (
            sum(e.passed and e.applicable for e in report.entries),
            sum(not e.applicable for e in report.entries),
            report.failures(),
        )
    return counts, (time.perf_counter() - started) * 1000


def cmd_verify_paper(args) -> int:
    entries = load_corpus(args.corpus, args.max_elements) if args.corpus else default_corpus()
    total_fail = 0
    rows = []
    lines = []
    for entry in entries:
        (passed, na, failed), elapsed = _suite_for_entry(entry, args)
        total_fail += len(failed)
        spec = str(entry.spec)
        rows.append(
            {
                "spec": spec,
                "passed": passed,
                "not_applicable": na,
                "failed": [{"id": e.entry_id, "witness": e.witness} for e in failed],
                "timing_ms": round(elapsed, 3),
            }
        )
        lines.append(
            f"{'FAIL' if failed else 'PASS'}  {spec:28s} {passed:3d} passed"
            + (f", {na} n/a" if na else "")
        )
        lines += [f"      failed {e.entry_id}: {e.witness}" for e in failed]
    lines.append(
        f"{len(rows)} rings checked, "
        + ("all entries passed" if total_fail == 0 else f"{total_fail} failures")
    )
    payload = {"corpus_size": len(entries), "all_passed": total_fail == 0, "rings": rows}
    _emit(args, payload, "\n".join(lines))
    return 0 if total_fail == 0 else 1


def cmd_export(args) -> int:
    started = time.perf_counter()
    a = _analyze(args)
    if args.graph == "ideal-lattice":
        _write(args, dot_ideal_lattice(a.lattice))
        return 0
    if args.graph == "specialization":
        _write(args, dot_specialization(a.prim))
        return 0
    report = verify_theorems(a)
    payload = build_report(
        a,
        report,
        seed=args.seed,
        max_elements=args.max_elements,
        max_ideals=args.max_ideals,
        timing_ms=(time.perf_counter() - started) * 1000,
    )
    _write(args, json.dumps(payload, indent=2))
    return 0


def _variety_fields(variety) -> dict:
    return {
        "all_points": variety.all_points,
        "families": sorted(variety.families),
        "includes_zero": variety.includes_zero,
    }


def _z_primary(args) -> ZPrimaryIdeal:
    """The point (p^k) of Prim(Z), or (0) when p is 0."""
    return ZPrimaryIdeal(None) if args.p == 0 else ZPrimaryIdeal(args.p, args.k)


def cmd_z(args) -> int:
    command = args.zcommand
    if command == "vrad":
        result = v_rad_z(args.n)
        payload = {"n": args.n, **_variety_fields(result)}
    elif command == "v":
        primes = v_z(args.n)
        payload = {"n": args.n, "primes": primes}
        if primes is None:
            result = "Spec(Z)"
        else:
            result = "{" + ", ".join(f"({p})" for p in primes) + "}" if primes else "∅"
    elif command == "closure":
        ideal = _z_primary(args)
        result = closure_z(ideal)
        payload = {"ideal": str(ideal), **_variety_fields(result)}
    elif command == "subcover":
        cert = extract_finite_subcover_z(args.r, args.s)
        payload = {
            "r": cert.r,
            "delta": list(cert.delta),
            "exponent": cert.exponent,
            "coefficients": list(cert.coefficients),
            "verified": cert.verify(),
        }
        result = f"delta: {list(cert.delta)}\ncertificate: {cert}"
    elif command == "a2-witness":
        result = a2_failure_witness_z(args.p)
        payload = {
            "p": result.p,
            "radical_of_intersection": str(result.radical_of_intersection),
            "intersection_of_radicals": str(result.intersection_of_radicals),
            "sides_equal": result.sides_equal,
        }
    else:  # zxz-closure
        ideal = ZxZPrimaryIdeal(args.side, _z_primary(args))
        result = prim_zxz_closure(ideal)
        payload = {
            "ideal": str(ideal),
            "side": result.side,
            "prime": result.p,
            "rendered": str(result),
        }
    _emit(args, payload, str(result))
    return 0


_COMMANDS = {
    "info": cmd_info,
    "ideals": cmd_ideals,
    "prim": cmd_spectrum,
    "spec": cmd_spectrum,
    "check": cmd_check,
    "verify-paper": cmd_verify_paper,
    "export": cmd_export,
    "z": cmd_z,
}


@functools.cache
def _arg_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and reused by every later one:
    each parse starts from a fresh namespace, so no call sees another's
    flags."""
    return build_arg_parser()


def main(argv: list[str] | None = None) -> int:
    args = _arg_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (RingSpecError, NotACoverError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
