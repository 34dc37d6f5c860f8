"""Report documents (JSON) and DOT exports for one analyzed ring.

The JSON layout is stable: all lists are canonically ordered and the
content is deterministic for a fixed (spec, caps) pair.  The measured
``timing_ms`` field is the one value that varies between runs; ``seed``
only records the CLI flag, since no check draws random numbers.
"""

from __future__ import annotations

from . import __version__
from .classify import RingAnalysis, TheoremReport
from .ideals import IdealLattice, iter_bits
from .spectra import Spectrum


def spectrum_block(spectrum: Spectrum) -> dict:
    return {
        "points": list(spectrum.points),
        "point_labels": [
            spectrum.lattice.render(i) for i in spectrum.points
        ],
        "closed_sets": [
            {
                "ideal_ids": sorted(spectrum.generating_ideals[idx]),
                "point_ids": list(iter_bits(closed)),
            }
            for idx, closed in enumerate(spectrum.closed_sets)
        ],
    }


def build_report(
    analysis: RingAnalysis,
    theorems: TheoremReport,
    seed: int,
    max_elements: int,
    max_ideals: int,
    timing_ms: float,
) -> dict:
    lattice = analysis.lattice
    cls = analysis.classification
    return {
        "version": __version__,
        "spec": str(analysis.spec),
        "elements": analysis.ring.size,
        "seed": seed,
        "caps": {"max_elements": max_elements, "max_ideals": max_ideals},
        "ideals": [
            {
                "id": i,
                "gens": lattice.render(i),
                "proper": lattice.proper[i],
                "prime": lattice.prime[i],
                "maximal": lattice.maximal[i],
                "primary": lattice.primary[i],
                "radical_id": lattice.radical_ids[i],
            }
            for i in range(len(lattice))
        ],
        "prim": spectrum_block(analysis.prim),
        "prime_spectrum": spectrum_block(analysis.primes),
        "classification": {
            "is_field": cls.is_field,
            "is_local": cls.is_local,
            "is_zero_dimensional": cls.is_zero_dimensional,
            "is_p_ring": cls.is_p_ring,
            "is_w_ring": cls.is_w_ring,
            "krull_dimension": cls.krull_dimension,
            "maximal_ideals": cls.maximal_ideals,
            "prime_ideals": cls.prime_ideals,
            "primary_ideals": cls.primary_ideals,
        },
        "theorems": [
            {
                "id": e.entry_id,
                "anchor": e.claim,
                "applicable": e.applicable,
                "lhs": e.lhs,
                "rhs": e.rhs,
                "pass": e.passed,
                "witness": e.witness,
            }
            for e in theorems.entries
        ],
        "timing_ms": round(timing_ms, 3),
    }


def dot_ideal_lattice(lattice: IdealLattice) -> str:
    """Hasse diagram of ideal inclusion: one edge from each ideal to each of
    its upper covers (``IdealLattice.upper_covers``)."""
    lines = ["digraph ideal_lattice {", "  rankdir=BT;"]
    for i in range(len(lattice)):
        lines.append(f'  n{i} [label="{lattice.render(i)}"];')
    for i, covers in enumerate(lattice.upper_covers):
        for j in covers:
            lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def dot_specialization(spectrum: Spectrum) -> str:
    """Specialization digraph: an edge from one point to each distinct point
    of its closure (self-loops suppressed)."""
    lines = ["digraph specialization {"]
    for pos in range(len(spectrum.points)):
        lines.append(f'  n{pos} [label="{spectrum.render_point(pos)}"];')
    for pos, closure in enumerate(spectrum.point_closures):
        for other in iter_bits(closure):
            if other != pos:
                lines.append(f"  n{pos} -> n{other};")
    lines.append("}")
    return "\n".join(lines) + "\n"
