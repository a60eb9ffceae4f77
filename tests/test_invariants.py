"""Hilbert-Kunz functions, F-signature, multiplicities, descent, and the
function-level inequality tables."""

from fractions import Fraction

import pytest

from frobinv.coeff import PrimeField
from frobinv.invariants import (
    InvariantError,
    affine_fit,
    assoc_check,
    descent_sequence,
    ehk_estimate,
    fsig_function,
    hk_function,
    hs_multiplicity,
    lech_check,
    parameter_degree,
)
from frobinv.polyring import Ideal, ring_make

F2 = PrimeField(2)
F3 = PrimeField(3)
F7 = PrimeField(7)

MONSKY_PRODUCT = "z*(x+y+z)*((x+y+z)^2+z*y)"
MONSKY_PLAIN = "z^4 + x*y*z^2 + (x^3+y^3)*z"  # the alpha = 0 plain quartic
MONSKY_ONE = "z^4 + x*y*z^2 + (x^3+y^3)*z + x^2*y^2"


def ideal(ring, *gens):
    return Ideal(ring, [ring.parse(g) for g in gens])


def origin(ring):
    return ring.origin_ideal()


# -- Hilbert-Kunz function -----------------------------------------------------


def test_hk_function_regular():
    R = ring_make(F2, ("x", "y"))
    assert hk_function(origin(R), 2) == 16


def test_hk_function_quadric_cone():
    R = ring_make(F2, ("x", "y", "z"), relations=["x^2 + z*y"])
    assert hk_function(origin(R), 1) == 6  # 3 q^2 / 2 at q = 2


def test_hk_function_degenerate_quartic():
    R = ring_make(F2, ("x", "y", "z"), relations=[MONSKY_PLAIN])
    assert hk_function(origin(R), 1) == 8  # 4 q^2 - 6 q + 4 at q = 2


def test_hk_function_bracket_shift():
    from frobinv.frobenius import frobenius_power
    R = ring_make(F3, ("x", "y"))
    I = ideal(R, "x+y", "y^2")
    assert hk_function(frobenius_power(I, 1), 1) == hk_function(I, 2)


def test_hk_function_rejects_non_primary():
    R = ring_make(F2, ("x", "y"))
    with pytest.raises(InvariantError):
        hk_function(ideal(R, "x"), 1)


# -- e_HK estimates ------------------------------------------------------------


def test_ehk_regular_is_exactly_one():
    R = ring_make(F3, ("x", "y"))
    rep = ehk_estimate(origin(R), 3)
    assert [r[2] for r in rep.rows] == [9, 81, 729]
    assert all(r[3] == 1 for r in rep.rows)
    assert rep.estimate == 1
    assert rep.error_band == 0
    assert rep.method == "affine-in-1/q"


def test_ehk_quadric_cone_is_exactly_three_halves():
    R = ring_make(F2, ("x", "y", "z"), relations=["x^2 + z*y"])
    rep = ehk_estimate(origin(R), 4)
    assert [r[2] for r in rep.rows] == [6, 24, 96, 384]
    assert all(r[3] == Fraction(3, 2) for r in rep.rows)
    assert rep.estimate == Fraction(3, 2)
    assert rep.error_band == 0
    assert rep.cauchy == [0, 0, 0]


def test_ehk_fermat_cubic_rows():
    # smooth plane cubic over F_7: l = (9 q^2 - 5)/4
    R = ring_make(F7, ("x", "y", "z"), relations=["x^3+y^3+z^3"])
    rep = ehk_estimate(origin(R), 2)
    assert [(r[1], r[2]) for r in rep.rows] == [(7, 109), (49, 5401)]
    assert all(4 * ell == 9 * q * q - 5 for _, q, ell, _ in rep.rows)


def test_ehk_quartic_rows():
    # product form: lengths head toward 7/2 per unit of q^2
    R = ring_make(F2, ("x", "y", "z"), relations=[MONSKY_PRODUCT])
    rep = ehk_estimate(origin(R), 3)
    assert [r[2] for r in rep.rows] == [8, 44, 200]
    # plain quartic with the alpha-term x^2 y^2: lands on 49/16 from q = 8
    R1 = ring_make(F2, ("x", "y", "z"), relations=[MONSKY_ONE])
    rep1 = ehk_estimate(origin(R1), 3)
    assert [r[2] for r in rep1.rows] == [8, 44, 196]
    assert rep1.rows[-1][3] == Fraction(49, 16)
    # degenerate quartic (product of four planes): l = 4 q^2 - 6 q + 4
    R4 = ring_make(F2, ("x", "y", "z"), relations=[MONSKY_PLAIN])
    rep4 = ehk_estimate(origin(R4), 3)
    assert [r[2] for r in rep4.rows] == [8, 44, 212]
    assert all(ell == 4 * q * q - 6 * q + 4 for _, q, ell, _ in rep4.rows)


def test_ehk_needs_two_rows():
    R = ring_make(F2, ("x",))
    with pytest.raises(InvariantError):
        ehk_estimate(origin(R), 1)


# -- Hilbert-Samuel multiplicity on curves --------------------------------------


def test_hs_hyperplane():
    S = ring_make(F2, ("x", "y"), relations=["x"])
    res = hs_multiplicity(S, "y")
    assert res.multiplicity == 1
    assert res.cm_defect == 0


def test_hs_double_line():
    S = ring_make(F2, ("x", "y"), relations=["y^2"])
    res = hs_multiplicity(S, "x")
    assert res.multiplicity == 2
    assert res.cm_defect == 0
    assert res.lengths[:3] == [2, 4, 6]


def test_hs_embedded_point_defect():
    # (x^2, xy) has an embedded prime at the origin: l(S/yS) = 2 but e(yS) = 1
    S = ring_make(F2, ("x", "y"), relations=["x^2", "x*y"])
    res = hs_multiplicity(S, "y")
    assert res.multiplicity == 1
    assert res.cm_defect == 1


def test_hs_rejects_wrong_dimension():
    with pytest.raises(InvariantError):
        hs_multiplicity(ring_make(F2, ("x", "y")), "x")


def test_hs_rejects_non_parameter():
    S = ring_make(F2, ("x", "y"), relations=["x"])
    with pytest.raises(InvariantError):
        hs_multiplicity(S, "x")  # x = 0 on S


@pytest.mark.parametrize("gens, x, degree", [
    (("y^2 + x^3",), "x", 2),
    (("y^2 + x^3",), "y", 3),
    # an embedded point at the origin: l(R/(P + xR)) = 2, but e(x on R/P) = 1
    (("y^2", "x*y"), "x", 1),
    # a double line with an embedded point: the differences run 2, 2, 1, 1
    (("y^2", "x^3*y"), "x", 1),
], ids=["cusp-x", "cusp-y", "embedded-point", "double-line-embedded-point"])
def test_parameter_degree_matches_hs_multiplicity(gens, x, degree):
    R = ring_make(F2, ("x", "y"))
    assert parameter_degree(ideal(R, *gens), R.parse(x)) == degree
    curve = ring_make(F2, ("x", "y"), relations=list(gens))
    assert hs_multiplicity(curve, x).multiplicity == degree


def test_hs_lengths_run_past_an_early_plateau():
    # two equal differences (2, 2) that are not yet e(x) do not stop the lengths
    S = ring_make(F2, ("x", "y"), relations=["y^2", "x^3*y"])
    res = hs_multiplicity(S, "x")
    assert (res.multiplicity, res.cm_defect) == (1, 1)
    assert res.lengths == [2, 4, 6, 7, 8]


# -- F-signature ----------------------------------------------------------------


def test_fsig_regular_rows_are_one():
    rep = fsig_function(ring_make(F3, ("x", "y")), 3)
    assert [r[2] for r in rep.rows] == [9, 81, 729]
    assert all(r[3] == 1 for r in rep.rows)
    assert rep.estimate == 1


def test_fsig_node_vanishes():
    rep = fsig_function(ring_make(F2, ("x", "y"), relations=["x*y"]), 4)
    assert [r[2] for r in rep.rows] == [1, 1, 1, 1]
    assert [r[3] for r in rep.rows] == [Fraction(1, q) for q in (2, 4, 8, 16)]


def test_fsig_whitney_umbrella_rate():
    # a_e tracks p^e / 2: positive linear growth, vanishing normalized rows
    rep = fsig_function(ring_make(F3, ("x", "y", "z"),
                                  relations=["x^2 + 2*y^2*z"]), 3)
    assert [r[2] for r in rep.rows] == [2, 5, 14]
    for e, q, a, norm in rep.rows:
        assert Fraction(3, 10) <= Fraction(a, q) <= Fraction(7, 10)
        assert norm == Fraction(a, q * q)


# -- descent along a parameter ----------------------------------------------------


def test_descent_regular_is_flat():
    R = ring_make(F2, ("x", "y"))
    rep = descent_sequence(ideal(R, "x"), "y", 3, 3,
                           fiber_estimate=Fraction(1))
    assert all(v == 1 for v in rep.table.values())
    assert all(v == 1 for v in rep.per_n_estimates.values())
    assert rep.monotone_in_n
    assert rep.hs_factor == 1
    assert rep.prediction == 1


def test_descent_quadric_cone():
    R = ring_make(F2, ("x", "y", "z"), relations=["x^2 + z*y"])
    rep = descent_sequence(ideal(R, "x", "y"), "z", 3, 4)
    for (n, e), v in rep.table.items():
        assert v == Fraction(2 * n + 1, 2 * n)
    assert rep.per_n_estimates == {1: Fraction(3, 2), 2: Fraction(5, 4),
                                   3: Fraction(7, 6)}
    assert rep.monotone_in_n
    assert rep.prediction is None


def test_descent_fiber_family():
    # quartic family over F_4: per-n estimates strictly decreasing toward 3
    from frobinv.cli import parse_spec
    from frobinv.corpus import corpus_text
    doc = parse_spec(corpus_text("brenner-monsky"))
    rep = descent_sequence(doc.ideals["p"], "t", 3, 3)
    assert rep.per_n_estimates == {1: Fraction(215, 64), 2: Fraction(427, 128),
                                   3: Fraction(213, 64)}
    est = [rep.per_n_estimates[n] for n in (1, 2, 3)]
    assert est[0] > est[1] > est[2] > 3
    assert rep.monotone_in_n
    assert rep.hs_factor == 1


def test_descent_rejects_parameter_in_prime():
    R = ring_make(F2, ("x", "y"))
    with pytest.raises(InvariantError):
        descent_sequence(ideal(R, "x"), "x", 2, 2)


def test_descent_rejects_wrong_codimension():
    R = ring_make(F2, ("x", "y", "z"))
    with pytest.raises(InvariantError):
        descent_sequence(ideal(R, "x"), "y", 2, 2)


# -- Lech-type rows ----------------------------------------------------------------


def test_lech_degenerate_equality():
    R = ring_make(F2, ("x", "y"))
    I = ideal(R, "x", "y")
    rep = lech_check(I, I, 3)
    assert rep.ok
    assert all(lhs == rhs for _, lhs, rhs, _ in rep.rows)


def test_lech_monomial_equality():
    R = ring_make(F2, ("x", "y"))
    rep = lech_check(ideal(R, "x^2", "y^2"), ideal(R, "x", "y"), 3)
    assert rep.ok
    assert [(lhs, rhs) for _, lhs, rhs, _ in rep.rows] == \
        [(16, 16), (64, 64), (256, 256)]


def test_lech_strict_on_node():
    R = ring_make(F2, ("x", "y"), relations=["x*y"])
    rep = lech_check(ideal(R, "x^2", "y^2"), origin(R), 3)
    assert rep.ok
    for e, lhs, rhs, good in rep.rows:
        q = 2 ** e
        assert (lhs, rhs) == (4 * q - 1, 6 * q - 3)
        assert good


def test_lech_rejects_non_containment():
    R = ring_make(F2, ("x", "y"))
    with pytest.raises(InvariantError):
        lech_check(ideal(R, "x", "y"), ideal(R, "x^2", "y^2"), 2)


# -- associativity rows --------------------------------------------------------------


def test_assoc_node_split():
    R = ring_make(F2, ("x", "y"), relations=["x*y"])
    rep = assoc_check(R, [("x", 1), ("y", 1)], 3)
    for e, q, lhs, rhs, gap in rep.rows:
        assert lhs == Fraction(2 * q - 1, q)
        assert rhs == 2
        assert gap == Fraction(1, q)
    assert rep.rhs_estimate == 2


def test_assoc_double_point_exact():
    R = ring_make(F2, ("x",), relations=["x^2"])
    rep = assoc_check(R, [("x", 2)], 3)
    assert all(lhs == rhs == 2 for _, _, lhs, rhs, _ in rep.rows)
    assert rep.lhs_estimate == rep.rhs_estimate == 2


def test_assoc_quartic_product():
    R = ring_make(F2, ("x", "y", "z"), relations=[MONSKY_PRODUCT])
    rep = assoc_check(R, [("z", 1), ("x+y+z", 1), ("(x+y+z)^2+z*y", 1)], 3)
    assert [c.estimate for c in rep.components] == [1, 1, Fraction(3, 2)]
    assert rep.rhs_estimate == Fraction(7, 2)
    for e, q, lhs, rhs, gap in rep.rows:
        assert rhs == Fraction(7, 2)
        assert gap == Fraction(3, q)


def test_assoc_rejects_shared_component():
    R = ring_make(F2, ("x", "y"), relations=["x^2*y"])
    with pytest.raises(InvariantError):
        assoc_check(R, [("x", 1), ("x*y", 1)], 2)


def test_assoc_rejects_wrong_product():
    R = ring_make(F2, ("x", "y"), relations=["x*y"])
    with pytest.raises(InvariantError):
        assoc_check(R, [("x", 2), ("y", 1)], 2)


# -- fitting helper -------------------------------------------------------------------


def test_affine_fit_recovers_exact_line():
    pts = [(Fraction(1, q), 2 + Fraction(1, q)) for q in (2, 4, 8)]
    a, b = affine_fit(pts)
    assert (a, b) == (2, 1)


def test_affine_fit_degenerate_returns_last():
    a, b = affine_fit([(Fraction(1, 2), Fraction(5))])
    assert a == 5
    assert b == 0
