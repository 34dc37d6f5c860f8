"""Command-line interface: build rings, query spectra, run property checks,
replay the full verification suite over a corpus, export JSON/DOT.

Exit codes: 0 success / all checks pass, 1 a checked property is false or a
suite entry fails, 2 usage, validation or file error, 3 a cap was exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from .classify import (
    a_conditions,
    analyze_ring,
    star_condition,
    verify_theorems,
)
from .corpus import default_corpus, load_corpus
from .ideals import DEFAULT_IDEAL_CAP, iter_bits
from .report import build_report, dot_ideal_lattice, dot_specialization, spectrum_block
from .rings import (
    DEFAULT_ELEMENT_CAP,
    CapExceededError,
    QuotSpec,
    RingSpecError,
    unit_and_nilpotent_flags,
)
from .spectra import Spectrum
from .topology import CoverageError, is_quasi_compact, is_sober, is_spectral, is_supercompact
from .topology import is_irreducible as topo_is_irreducible
from .topology import separation_axioms
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

CHECK_PROPERTIES = (
    "t0",
    "t1",
    "t2",
    "sober",
    "spectral",
    "irreducible",
    "supercompact",
    "quasi-compact",
    "base",
    "local",
    "field",
    "p-ring",
    "w-ring",
    "star",
    "a2",
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
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


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
        "is_w_ring": cls.is_w_ring,
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


def cmd_check(args) -> int:
    a = _analyze(args)
    prop = args.property
    detail = None
    if prop in ("t0", "t1", "t2"):
        sep = separation_axioms(a.prim)
        value = getattr(sep, prop)
        detail = f"witness {sep.witness}" if not value else None
    elif prop == "sober":
        value = is_sober(a.prim)
    elif prop == "spectral":
        value = is_spectral(a.prim, a.prim.basic_open_family)
    elif prop == "irreducible":
        value, wit = topo_is_irreducible(a.prim)
        if not value:
            detail = "witness " + ", ".join(map(a.prim.render_point_set, wit))
    elif prop == "supercompact":
        value, wit = is_supercompact(a.prim)
        if not value:
            detail = "covering family " + ", ".join(map(a.prim.render_point_set, wit))
    elif prop == "quasi-compact":
        try:
            chosen = is_quasi_compact(a.prim, a.prim.full, a.prim.basic_open_family)
            value, detail = True, f"subcover of {len(chosen)} basic opens"
        except CoverageError as exc:
            value, detail = False, str(exc)
    elif prop == "base":
        value, wit = a.prim.is_base()
        detail = None if value else f"open {list(iter_bits(wit))} not a union of basics"
    elif prop == "local":
        value = a.classification.is_local
    elif prop == "field":
        value = a.classification.is_field
    elif prop == "p-ring":
        value = a.classification.is_p_ring
    elif prop == "w-ring":
        value, detail = a.classification.is_w_ring, a.classification.w_ring_witness
    elif prop == "star":
        value, detail = star_condition(a.lattice, a.prim)
    else:  # a2
        res = a_conditions(a.lattice, list(range(len(a.lattice))))
        value, detail = res.a2, res.witness
    label = prop.upper() if prop.startswith("t") and len(prop) == 2 else prop
    text = f"{label}: {str(value).lower()}" + (f"  ({detail})" if detail else "")
    payload = {"spec": str(a.spec), "property": prop, "value": value, "detail": detail}
    _emit(args, payload, text)
    return 0 if value else 1


def _suite_for_entry(entry, args):
    started = time.perf_counter()
    report = verify_theorems(
        entry.spec_text,
        max_elements=args.max_elements if entry.max_elements is None else entry.max_elements,
        max_ideals=args.max_ideals if entry.max_ideals is None else entry.max_ideals,
    )
    elapsed = (time.perf_counter() - started) * 1000
    return report, elapsed


def cmd_verify_paper(args) -> int:
    entries = load_corpus(args.corpus, args.max_elements) if args.corpus else default_corpus()
    total_fail = 0
    rows = []
    lines = []
    for entry in entries:
        report, elapsed = _suite_for_entry(entry, args)
        failed = report.failures()
        passed = sum(1 for e in report.entries if e.passed and e.applicable)
        na = sum(1 for e in report.entries if not e.applicable)
        total_fail += len(failed)
        rows.append(
            {
                "spec": entry.spec_text,
                "passed": passed,
                "not_applicable": na,
                "failed": [{"id": e.entry_id, "witness": e.witness} for e in failed],
                "timing_ms": round(elapsed, 3),
            }
        )
        lines.append(
            f"{'FAIL' if failed else 'PASS'}  {entry.spec_text:28s} {passed:3d} passed"
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
