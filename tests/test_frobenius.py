"""Bracket powers, closure membership semidecisions, splitting ideals."""

import pytest
from hypothesis import given, settings, strategies as st

from frobinv.coeff import ExtensionField, PrimeField, RationalFunctionField
from frobinv.frobenius import (
    FrobeniusError,
    frobenius_closure_membership,
    frobenius_power,
    jacobian_candidate,
    power_normal_form,
    splitting_ideal,
    splitting_sequence,
    tc_membership,
)
from frobinv.groebner import colength, groebner_basis, ideal_equals, normal_form
from frobinv.polyring import Ideal, ring_make

F2 = PrimeField(2)
F3 = PrimeField(3)
F7 = PrimeField(7)


def ideal(ring, *gens):
    return Ideal(ring, [ring.parse(g) for g in gens])


# -- bracket powers ----------------------------------------------------------


def test_bracket_power_generators():
    R = ring_make(F2, ("x", "y"))
    assert [str(g) for g in frobenius_power(ideal(R, "x", "y"), 1).gens] == \
        ["x^2", "y^2"]
    assert [str(g) for g in frobenius_power(ideal(R, "x+y"), 2).gens] == \
        ["x^4+y^4"]
    R3 = ring_make(F3, ("x", "y"))
    assert [str(g) for g in frobenius_power(ideal(R3, "x", "y^2"), 1).gens] == \
        ["x^3", "y^6"]


def test_bracket_power_composes():
    R = ring_make(F3, ("x", "y"))
    I = ideal(R, "x+y", "x*y^2")
    for a, b in [(1, 1), (1, 2), (2, 1)]:
        assert ideal_equals(frobenius_power(frobenius_power(I, a), b),
                            frobenius_power(I, a + b))


def test_power_normal_form_matches_plain_power():
    # F_3 and F_4 give base-p digits other than 0 and 1, and a Frobenius twist
    # that moves coefficients
    for field, gens, f in [(F2, ("x^3", "y^3"), "x+y"),
                           (F3, ("x^4", "y^4", "x^2*y^2"), "x+2*y+x*y"),
                           (ExtensionField(2, (1, 1, 1)), ("x^5", "y^5"), "x+a*y+a^2*x*y")]:
        R = ring_make(field, ("x", "y"))
        I = ideal(R, *gens)
        f = R.parse(f)
        for n in (0, 1, 7, 10, 26):
            assert power_normal_form(f, n, I) == normal_form(f ** n, I), (field, n)


# -- tight-closure membership -------------------------------------------------


def test_tc_regular_ring_is_tightly_closed():
    R = ring_make(F3, ("x",))
    v = tc_membership(R.parse("x"), ideal(R, "x^2"), R.parse("1"), 3)
    assert v.status == "non-member"
    assert v.e_bound == 1  # x^3 already escapes (x^6)


def test_tc_plain_membership_short_circuits():
    R = ring_make(F3, ("x",))
    v = tc_membership(R.parse("x"), ideal(R, "x"), R.parse("1"), 3)
    assert v.status == "definitive-member"
    assert v.e_bound == 0


def test_tc_fermat_cubic_containment():
    # the classical x^2 in (y, z)* example; e_max=4 also passes but costs
    # most of a minute, so the routine suite stops at 3
    R = ring_make(F7, ("x", "y", "z"), relations=["x^3+y^3+z^3"])
    c = jacobian_candidate(R)
    v = tc_membership(R.parse("x^2"), ideal(R, "y", "z"), c, 3)
    assert v.status == "member-up-to"
    assert v.e_bound == 3
    assert v.is_membership_evidence()


def test_tc_rejects_zero_multiplier():
    R = ring_make(F2, ("x", "y"))
    with pytest.raises(FrobeniusError):
        tc_membership(R.parse("x"), ideal(R, "x^2"), R.zero, 2)


# -- Frobenius-closure membership ---------------------------------------------


def test_fclosure_plain_membership():
    R = ring_make(F2, ("x", "y"))
    v = frobenius_closure_membership(R.parse("x"), ideal(R, "x"), 2)
    assert v.status == "definitive-member"
    assert v.e_bound == 0


def test_fclosure_failure_is_bounded_not_definitive():
    # (x+y)^2 = x^2+y^2 misses (x^2, y^4); x^4+y^4 misses (x^4, y^8)
    R = ring_make(F2, ("x", "y"))
    I = ideal(R, "x", "y^2")
    v1 = frobenius_closure_membership(R.parse("x+y"), I, 1)
    assert v1.status == "non-member-up-to"
    assert v1.e_bound == 1
    v2 = frobenius_closure_membership(R.parse("x+y"), I, 2)
    assert v2.status == "non-member-up-to"
    assert v2.e_bound == 2


def test_fclosure_monomial_ideals_are_closed():
    R = ring_make(F2, ("x", "y"))
    v = frobenius_closure_membership(R.parse("y"), ideal(R, "x"), 4)
    assert v.status == "non-member-up-to"


def test_fclosure_nontrivial_witness():
    # in F_2[x,y]/(x^2) the element x misses (y) but x^2 = 0 lands in (y^2)
    R = ring_make(F2, ("x", "y"), relations=["x^2"])
    I = ideal(R, "y")
    v = frobenius_closure_membership(R.parse("x"), I, 2)
    assert v.status == "definitive-member"
    assert v.e_bound == 1


# -- splitting ideals ----------------------------------------------------------


def test_splitting_ideal_regular():
    R = ring_make(F3, ("x",))
    I2 = splitting_ideal(R, 2)
    assert [str(g) for g in groebner_basis(I2)] == ["x^9"]


def test_splitting_ideal_node():
    R = ring_make(F2, ("x", "y"), relations=["x*y"])
    I1 = splitting_ideal(R, 1)
    assert sorted(str(g) for g in groebner_basis(I1)) == ["x", "y"]
    assert colength(I1) == 1


def test_splitting_ideal_whitney():
    R = ring_make(F3, ("x", "y", "z"), relations=["x^2 + 2*y^2*z"])
    I1 = splitting_ideal(R, 1)
    assert colength(I1) in (1, 2)  # a_1 tracks p^1/2


def test_splitting_sequence_chain():
    R = ring_make(F2, ("x", "y"), relations=["x*y"])
    seq = splitting_sequence(R, 3)
    assert [entry[0] for entry in seq.entries] == [1, 2, 3]


def test_splitting_ideal_rejects_rational_function_field():
    K = RationalFunctionField(F2, "t")
    R = ring_make(K, ("x", "y"), relations=["x*y"])
    with pytest.raises(FrobeniusError):
        splitting_ideal(R, 1)


# -- jacobian candidates --------------------------------------------------------


def test_jacobian_candidate_whitney():
    R = ring_make(F3, ("x", "y", "z"), relations=["x^2 + 2*y^2*z"])
    assert str(jacobian_candidate(R)) == "y^2"


def test_jacobian_candidate_fermat():
    R = ring_make(F7, ("x", "y", "z"), relations=["x^3+y^3+z^3"])
    assert str(jacobian_candidate(R)) == "x^2"


def test_jacobian_candidate_inseparable_direction():
    R = ring_make(F2, ("x", "y"), relations=["x^2"])
    with pytest.raises(FrobeniusError):
        jacobian_candidate(R)


# -- ordering of the closure notions -------------------------------------------


SMALL_MONOS = st.tuples(st.integers(0, 2), st.integers(0, 2))


@given(st.lists(SMALL_MONOS, min_size=1, max_size=3), SMALL_MONOS)
@settings(max_examples=50, deadline=None)
def test_fclosure_member_implies_tc_evidence(gen_monos, z_mono):
    R = ring_make(F2, ("x", "y"))
    I = Ideal(R, [R.monomial(m) for m in gen_monos])
    z = R.monomial(z_mono)
    fv = frobenius_closure_membership(z, I, 2)
    if fv.status == "definitive-member":
        tv = tc_membership(z, I, R.parse("x+1"), 2)
        assert tv.is_membership_evidence()
