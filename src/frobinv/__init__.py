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

``import frobinv`` loads no layer: each public name is imported from its
layer the first time it is looked up.  ``InputError`` is defined here, so
that every layer's error can derive from it without loading another layer.
"""

__version__ = "0.1.0"

from importlib import import_module as _import_module


class InputError(ValueError):
    """Bad input: the base of every error a layer raises on it."""


# The public names, by the layer that defines them; ``__getattr__`` (PEP 562)
# imports a layer when one of its names is first looked up, so that a
# process loads only the layers it uses.
_LAYERS = {
    "coeff": ("ExtensionField", "FieldElement", "FieldError", "PrimeField",
              "RationalFunctionField", "field_frobenius", "field_make"),
    "polyring": ("GREVLEX", "LEX", "Ideal", "MonomialOrder", "Polynomial",
                 "PresentedRing", "RingError", "ideal_power", "ideal_product",
                 "ideal_sum", "parse_polynomial", "ring_make"),
    "groebner": ("colength", "count_standard_monomials", "groebner_basis",
                 "ideal_colon", "ideal_colon_ideal", "ideal_contains",
                 "ideal_dimension", "ideal_equals", "ideal_intersection",
                 "is_member", "normal_form", "saturate", "staircase",
                 "staircase_dimension"),
    "frobenius": ("ClosureVerdict", "FrobeniusError",
                  "frobenius_closure_membership", "frobenius_power",
                  "jacobian_candidate", "splitting_ideal", "splitting_number",
                  "splitting_sequence", "tc_membership"),
    "invariants": ("AssocReport", "DescentReport", "FSigReport", "HKReport",
                   "HSResult", "InvariantError", "LechReport", "assoc_check",
                   "descent_sequence", "ehk_estimate", "fsig_function",
                   "hk_function", "hk_rows", "hs_multiplicity", "lech_check"),
    "equimult": ("BMGapReport", "EquimultError", "EquimultVerdict",
                 "FiberPresentation", "MonskyRepro", "SpecializationReport",
                 "WYReport", "bm_gap_table", "brenner_monsky_ring",
                 "bm_maximal_ideal", "colength_identity_check",
                 "equimult_check", "fiber_presentation", "filtration_check",
                 "localized_hk", "localized_hk_report", "monsky_repro",
                 "quartic_ring", "rigidity_check",
                 "specialization_consistency", "wy_inequality_check"),
}
_EXPORTS = {name: layer for layer, names in _LAYERS.items() for name in names}
__all__ = ["InputError", *_EXPORTS, *_LAYERS]


def __getattr__(name):
    """Import a public name, or a layer, from its layer on first lookup; the
    name is then kept in the package namespace, so later lookups are direct."""
    if name in _LAYERS:
        return _import_module("." + name, __name__)
    if name not in _EXPORTS:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(_import_module("." + _EXPORTS[name], __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
