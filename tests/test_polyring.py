"""Sparse polynomials, monomial orders, and ring presentations."""

import pytest
from hypothesis import given, settings, strategies as st

from frobinv.coeff import ExtensionField, PrimeField, RationalFunctionField, field_make
from frobinv.groebner import _Packer
from frobinv.polyring import (
    GREVLEX,
    LEX,
    Ideal,
    MonomialOrder,
    RingError,
    frobenius_order,
    grevlex_key,
    ideal_power,
    ideal_product,
    ideal_sum,
    ring_make,
)

F2 = PrimeField(2)
F3 = PrimeField(3)
F7 = PrimeField(7)


# -- ring presentations ------------------------------------------------------


def test_quartic_presentation_has_dimension_two():
    ring = ring_make(F2, ("x", "y", "z"),
                     relations=["z^4 + x*y*z^2 + (x^3+y^3)*z"])
    assert ring.dim == 2


def test_univariate_presentation():
    ring = ring_make(F3, ("x",))
    assert ring.dim == 1
    assert ring.relations == ()


def test_fiber_presentation_over_rational_functions():
    K = RationalFunctionField(F2, "t")
    ring = ring_make(K, ("x", "y", "z"),
                     relations=["z^4 + x*y*z^2 + (x^3+y^3)*z + t*x^2*y^2"])
    assert ring.dim == 2


def test_unit_relation_ideal_rejected():
    with pytest.raises(RingError):
        ring_make(F2, ("x", "y"), relations=["x+1", "x"])


def test_variable_name_clashes_rejected():
    F4 = ExtensionField(2, (1, 1, 1))
    with pytest.raises(RingError):
        ring_make(F4, ("a", "x"))
    K = RationalFunctionField(F2, "t")
    with pytest.raises(RingError):
        ring_make(K, ("x", "t"))
    with pytest.raises(RingError):
        ring_make(F2, ("x", "x"))


# -- parsing and printing ----------------------------------------------------


def test_parse_expands_powers_of_sums():
    ring = ring_make(F2, ("x", "y"))
    assert ring.parse("(x+y)^2") == ring.parse("x^2 + y^2")


def test_parse_unknown_symbol():
    ring = ring_make(F2, ("x", "y"))
    with pytest.raises(RingError):
        ring.parse("x*w + y")


def test_render_parse_round_trip():
    K = RationalFunctionField(F3, "t")
    ring = ring_make(K, ("x", "y"))
    f = ring.parse("(t/(t+1))*x^2 + 2*x*y + t^3")
    assert ring.parse(str(f)) == f


def test_prime_field_rendering_avoids_minus():
    ring = ring_make(F3, ("x", "y"))
    f = ring.parse("x - y")
    assert "-" not in str(f)
    assert ring.parse(str(f)) == f


# -- monomial orders ---------------------------------------------------------


def test_grevlex_basics():
    # degree first; among equal degrees the one smaller in the last
    # variable is larger
    ring = ring_make(F2, ("x", "y", "z"))
    x, y, z = ring.gens()
    lead = (x * y + z * z).leading_monomial(GREVLEX)
    assert lead == (1, 1, 0)
    assert (x + y + z).leading_monomial(GREVLEX) == (1, 0, 0)


def test_lex_vs_grevlex():
    ring = ring_make(F2, ("x", "y"))
    f = ring.parse("x*y^2 + x^2")
    assert f.leading_monomial(LEX) == (2, 0)
    assert f.leading_monomial(GREVLEX) == (1, 2)


def test_block_order_prefers_first_block():
    order = MonomialOrder("block", 1)
    ring = ring_make(F2, ("w", "x", "y"))
    f = ring.parse("w + x^5*y^5")
    assert f.leading_monomial(order) == (1, 0, 0)


ORDERS = [GREVLEX, LEX] + [MonomialOrder("block", k) for k in range(7)]


@pytest.mark.parametrize("order", ORDERS, ids=repr)
def test_descending_key_sorts_like_reversed_key(order):
    # the kernel's reduction heap pops the smallest negated packed monomial
    # first, and packed monomials compare as the order's key does; every
    # block split k = 0..n of a one- to six-variable ring
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda n: st.lists(
        st.tuples(*[st.integers(0, 5)] * n), unique=True, max_size=12)))
    def check(monos):
        if not monos:
            return
        pk = _Packer(order, len(monos[0]), 8)
        assert (sorted(monos, key=lambda m: -pk.pack(m))
                == sorted(monos, key=order.key, reverse=True))
        for a in monos:
            for b in monos:
                assert (pk.pack(a) < pk.pack(b)) == (order.key(a) < order.key(b))

    check()


# -- arithmetic --------------------------------------------------------------


def test_frobenius_power_of_polynomial():
    K = RationalFunctionField(F2, "t")
    ring = ring_make(K, ("x", "y"))
    f = ring.parse("t*x + y")
    assert f.frobenius_power(1) == ring.parse("t^2*x^2 + y^2")


def test_frobenius_power_refuses_q_past_two_to_the_sixteen():
    ring = ring_make(F2, ("x", "y"))
    f = ring.parse("x + y")
    assert f.frobenius_power(16) == ring.parse("x^65536 + y^65536")
    for e in (17, 60, 10 ** 9):
        with pytest.raises(RingError, match="exceeds the limit 65536"):
            f.frobenius_power(e)
    g = ring_make(PrimeField(257), ("x",)).parse("x")
    assert g.frobenius_power(1).terms == {(257,): 1}
    with pytest.raises(RingError, match="257\\^2"):   # 66049 > 65536
        g.frobenius_power(2)


def test_power_past_two_to_the_sixteen_is_a_monomial_or_refused():
    # t^(10^8) over F_2(t) ran past 20 s squaring t; x^m stays one term
    ring = ring_make(F2, ("x", "y"))
    x, f = ring.parse("x"), ring.parse("x + y")
    assert f ** 65536 == ring.parse("x^65536 + y^65536")
    assert x ** (2 ** 40) == ring.monomial((2 ** 40, 0))
    t = ring_make(RationalFunctionField(F2, "t"), ("x",)).parse("t")
    for g in (f, t):
        with pytest.raises(RingError, match="exponent 65537 exceeds the limit 65536"):
            g ** 65537


def test_frobenius_power_refuses_a_negative_exponent():
    # q = p^e would be a fraction, and so would every exponent of the power
    f = ring_make(F2, ("x", "y")).parse("x + y")
    for e in (-1, -17):
        with pytest.raises(RingError, match="e = %d is negative" % e):
            frobenius_order(2, e)
        with pytest.raises(RingError, match="e = %d is negative" % e):
            f.frobenius_power(e)


def test_derivative_and_evaluation():
    ring = ring_make(F7, ("x", "y"))
    f = ring.parse("x^3 + y^3")
    assert f.derivative(0) == ring.parse("3*x^2")
    one = field_make(F7, "1")
    two = field_make(F7, "2")
    assert f.evaluate([one, two]) == field_make(F7, "2")  # 1 + 8 = 9 = 2


def _polys(ring, max_terms=4, max_exp=3):
    nv = ring.nvars
    p = ring.field.p
    mono = st.tuples(*[st.integers(0, max_exp)] * nv)
    term = st.tuples(mono, st.integers(0, p - 1))
    return st.lists(term, min_size=0, max_size=max_terms).map(
        lambda ts: sum(
            (ring.monomial(m, field_make(ring.field, str(c))) for m, c in ts),
            ring.zero))


RING52 = ring_make(PrimeField(5), ("x", "y"))


@given(_polys(RING52), _polys(RING52), _polys(RING52))
@settings(max_examples=50, deadline=None)
def test_ring_axioms(f, g, h):
    assert f * (g + h) == f * g + f * h
    assert (f + g) * h == f * h + g * h
    assert f * g == g * f
    assert f - f == RING52.zero


@given(_polys(RING52), _polys(RING52), st.integers(0, 24), st.integers(0, 24))
@settings(max_examples=50, deadline=None)
def test_evaluation_homomorphism(f, g, a, b):
    pts = [field_make(RING52.field, str(a % 5)), field_make(RING52.field, str(b % 5))]
    assert (f * g).evaluate(pts) == f.evaluate(pts) * g.evaluate(pts)
    assert (f + g).evaluate(pts) == f.evaluate(pts) + g.evaluate(pts)


# -- ideal constructors ------------------------------------------------------


def test_ideal_sum_product_power():
    ring = ring_make(F2, ("x", "y"))
    I = Ideal(ring, [ring.parse("x")])
    J = Ideal(ring, [ring.parse("y")])
    assert [str(g) for g in ideal_sum(I, J).gens] == ["x", "y"]
    M = ideal_power(ideal_sum(I, J), 2)
    assert sorted(str(g) for g in M.gens) == ["x*y", "x^2", "y^2"]


def test_maximal_ideal_of_four_variable_ring():
    F4 = ExtensionField(2, (1, 1, 1))
    ring = ring_make(F4, ("x", "y", "z", "t"),
                     relations=["z^4 + x*y*z^2 + (x^3+y^3)*z + t*x^2*y^2"])
    assert ring.dim == 3
    P = Ideal(ring, [ring.var(0), ring.var(1), ring.var(2)])
    alpha = ring.parse("t + a")
    m_alpha = ideal_sum(P, Ideal(ring, [alpha]))
    assert [str(g) for g in m_alpha.gens] == ["x", "y", "z", "t+a"]


@given(st.integers(1, 3), st.integers(1, 3))
@settings(max_examples=20, deadline=None)
def test_ideal_power_is_additive(a, b):
    from frobinv.groebner import ideal_equals

    ring = ring_make(F2, ("x", "y"))
    I = Ideal(ring, [ring.parse("x"), ring.parse("y^2")])
    lhs = ideal_power(I, a + b)
    rhs = ideal_product(ideal_power(I, a), ideal_power(I, b))
    assert ideal_equals(lhs, rhs)
