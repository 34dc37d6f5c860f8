"""Primary spectra of finite commutative rings, with a symbolic engine for
Z and Z x Z."""

__version__ = "0.1.0"

from .classify import (  # noqa: F401
    AConditionsResult,
    RingAnalysis,
    RingClassification,
    TheoremEntry,
    TheoremReport,
    a_conditions,
    analyze_ring,
    classify_ring,
    closure_identity_check,
    is_w_ring,
    star_condition,
    verify_theorems,
)
from .ideals import IdealLattice, enumerate_ideals  # noqa: F401
from .rings import (  # noqa: F401
    CapExceededError,
    FiniteRing,
    GFSpec,
    ProdSpec,
    QuotSpec,
    RingSpecError,
    ZnSpec,
    build_ring,
    check_ring_axioms,
    parse_ring_spec,
    unit_and_nilpotent_flags,
)
from .spectra import Spectrum  # noqa: F401
from .topology import (  # noqa: F401
    CoverageError,
    FiniteTopology,
    SeparationResult,
    TopologyAxiomError,
    irreducible_closed_with_generic_points,
    is_irreducible,
    is_quasi_compact,
    is_sober,
    is_spectral,
    is_supercompact,
    separation_axioms,
)
from .zsymbolic import (  # noqa: F401
    A2FailureWitness,
    NotACoverError,
    SubcoverCertificate,
    ZPrimaryIdeal,
    ZVariety,
    ZxZPrimaryIdeal,
    a2_failure_witness_z,
    closure_equal_z,
    closure_equal_zxz,
    closure_z,
    extract_finite_subcover_z,
    factorize,
    prim_zxz_closure,
    v_rad_z,
    v_z,
)
