"""Exact Frobenius invariants of positive-characteristic rings.

The package computes Hilbert-Kunz functions and multiplicity estimates,
F-signature data via Frobenius splitting ideals, Hilbert-Samuel
multiplicities, tight-closure membership semidecisions, and localization /
equimultiplicity diagnostics for finitely presented rings over F_p, F_{p^k},
and F_{p^k}(t).  All arithmetic is exact; every reported number is an
integer or a rational.

Layering, bottom to top:

    coeff      exact coefficient fields
    polyring   sparse polynomials, monomial orders, presented rings, ideals
    groebner   Buchberger engine, normal forms, colons, saturation, colength
    frobenius  bracket powers, closure semidecisions, splitting ideals
    invariants Hilbert-Kunz / F-signature / Hilbert-Samuel reports
    equimult   localization at a prime, fiber rings, rigidity diagnostics
    cli        ring-description DSL, command dispatch, deterministic reports
"""

__version__ = "0.1.0"

from .coeff import (
    ExtensionField,
    FieldElement,
    FieldError,
    PrimeField,
    RationalFunctionField,
    field_frobenius,
    field_make,
)
from .polyring import (
    GREVLEX,
    LEX,
    Ideal,
    MonomialOrder,
    Polynomial,
    PresentedRing,
    RingError,
    ideal_power,
    ideal_product,
    ideal_sum,
    parse_polynomial,
    ring_make,
)
from .groebner import (
    colength,
    count_standard_monomials,
    groebner_basis,
    ideal_colon,
    ideal_colon_ideal,
    ideal_contains,
    ideal_dimension,
    ideal_equals,
    ideal_intersection,
    is_member,
    normal_form,
    saturate,
    staircase,
    staircase_dimension,
)
from .frobenius import (
    ClosureVerdict,
    FrobeniusError,
    frobenius_closure_membership,
    frobenius_power,
    jacobian_candidate,
    power_normal_form,
    splitting_ideal,
    splitting_sequence,
    tc_membership,
)
from .invariants import (
    AssocReport,
    DescentReport,
    FSigReport,
    HKReport,
    HSResult,
    InvariantError,
    LechReport,
    assoc_check,
    descent_sequence,
    ehk_estimate,
    fsig_function,
    hk_function,
    hk_rows,
    hs_multiplicity,
    lech_check,
)
from .equimult import (
    BMGapReport,
    EquimultError,
    EquimultVerdict,
    FiberPresentation,
    MonskyRepro,
    SpecializationReport,
    WYReport,
    bm_gap_table,
    brenner_monsky_ring,
    bm_maximal_ideal,
    colength_identity_check,
    equimult_check,
    fiber_presentation,
    filtration_check,
    localized_hk,
    localized_hk_report,
    monsky_repro,
    quartic_ring,
    rigidity_check,
    specialization_consistency,
    wy_inequality_check,
)
