"""The nine function-level property suites, each run over the stock corpus
and a batch of randomized small instances."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from frobinv.cli import parse_spec
from frobinv.coeff import PrimeField, RationalFunctionField
from frobinv.corpus import corpus_names, corpus_text
from frobinv.frobenius import (
    FrobeniusError,
    frobenius_power,
    splitting_ideal,
    splitting_number,
)
from frobinv.groebner import (
    colength,
    groebner_basis,
    ideal_contains,
    ideal_equals,
    normal_form,
    saturate,
)
from frobinv.invariants import descent_sequence, hk_function, lech_check
from frobinv.polyring import Ideal, ideal_product, ring_make

F2 = PrimeField(2)
F3 = PrimeField(3)

CORPUS = {name: parse_spec(corpus_text(name)) for name in corpus_names()}

FINITE_HYPERSURFACES = [
    name for name, doc in CORPUS.items()
    if len(doc.ring.relations) <= 1
    and not isinstance(doc.ring.field, RationalFunctionField)
]


def monomial_ideal(ring, exps):
    return Ideal(ring, [ring.monomial(m) for m in exps])


@st.composite
def primary_monomial_2(draw, maxdeg=4):
    """Exponent sets for an (x, y)-primary monomial ideal in two variables."""
    a = draw(st.integers(1, maxdeg))
    b = draw(st.integers(1, maxdeg))
    extras = draw(st.lists(
        st.tuples(st.integers(0, a), st.integers(0, b)), max_size=2))
    exps = [(a, 0), (0, b)] + [m for m in extras if 0 < sum(m) < a + b]
    return exps


@st.composite
def small_poly_ideal(draw, ring, gens=2, terms=3, deg=3):
    """A short list of nonzero polynomials with small monomial support."""
    mono = st.tuples(*(st.integers(0, deg) for _ in range(ring.nvars)))
    out = []
    for _ in range(draw(st.integers(1, gens))):
        monos = draw(st.lists(mono, min_size=1, max_size=terms, unique=True))
        f = ring.zero
        for m in monos:
            f = f + ring.monomial(m)
        if not f.is_zero():
            out.append(f)
    if not out:
        out = [ring.one]
    return Ideal(ring, out)


# -- suite 1: bracket-power identity ---------------------------------------------


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_bracket_identity_on_corpus(name):
    m = CORPUS[name].ring.origin_ideal()
    assert hk_function(frobenius_power(m, 1), 1) == hk_function(m, 2)


@given(primary_monomial_2(), st.sampled_from([2, 3]))
@settings(max_examples=50, deadline=None)
def test_bracket_identity_random(exps, p):
    R = ring_make(PrimeField(p), ("x", "y"))
    I = monomial_ideal(R, exps)
    assert hk_function(frobenius_power(I, 1), 1) == hk_function(I, 2)


# -- suite 2: monomial colength scaling -------------------------------------------


@pytest.mark.parametrize("name",
                         [n for n in sorted(CORPUS) if n.startswith("regular")])
def test_monomial_scaling_on_corpus(name):
    ring = CORPUS[name].ring
    q = ring.field.p
    m = ring.origin_ideal()
    assert colength(frobenius_power(m, 1)) == q ** ring.nvars * colength(m)


@given(primary_monomial_2(), st.integers(1, 2), st.sampled_from([2, 3]))
@settings(max_examples=50, deadline=None)
def test_monomial_scaling_random(exps, e, p):
    R = ring_make(PrimeField(p), ("x", "y"))
    I = monomial_ideal(R, exps)
    q = p ** e
    assert colength(frobenius_power(I, e)) == q ** 2 * colength(I)


# -- suite 3: Lech-type row-wise inequality ----------------------------------------


@pytest.mark.parametrize("name", ["regular-p2-d2", "node", "a1-char2",
                                  "whitney"])
def test_lech_on_corpus(name):
    ring = CORPUS[name].ring
    m = ring.origin_ideal()
    assert lech_check(ideal_product(m, m), m, 2).ok


@given(primary_monomial_2(maxdeg=3))
@settings(max_examples=50, deadline=None)
def test_lech_random_on_triple_line(exps):
    R = ring_make(F3, ("x", "y"), relations=["y^3"])
    J = monomial_ideal(R, exps)
    I = ideal_product(J, R.origin_ideal())
    assert lech_check(I, J, 3).ok


# -- suite 4: two-parameter bound ----------------------------------------------------


def two_parameter_rows(ring, I, x, n_max, e_max):
    rows = []
    for e in range(1, e_max + 1):
        q = ring.field.p ** e
        pq = frobenius_power(I, e)
        base = colength(Ideal(ring, list(pq.gens) + [x ** q]))
        for n in range(1, n_max + 1):
            ell = colength(Ideal(ring, list(pq.gens) + [x ** (n * q)]))
            rows.append((n, e, ell, base))
    return rows


@pytest.mark.parametrize("name,prime,param", [
    ("a1-char2", ("x", "y"), "z"),
    ("node", ("x",), "y"),
    ("brenner-monsky", ("x", "y", "z"), "t"),
])
def test_two_parameter_bound_on_corpus(name, prime, param):
    ring = CORPUS[name].ring
    I = Ideal(ring, [ring.parse(g) for g in prime])
    for n, e, ell, base in two_parameter_rows(ring, I, ring.parse(param), 3, 2):
        assert ell <= n * base


@given(st.integers(1, 4), st.lists(st.tuples(st.integers(0, 4),
                                             st.integers(1, 4)), max_size=2),
       st.integers(1, 3), st.integers(1, 2))
@settings(max_examples=50, deadline=None)
def test_two_parameter_bound_random(b, extras, n, e):
    R = ring_make(F2, ("x", "y"))
    I = Ideal(R, [R.monomial((0, b))] + [R.monomial(m) for m in extras])
    q = 2 ** e
    x = R.parse("x")
    pq = frobenius_power(I, e)
    ell = colength(Ideal(R, list(pq.gens) + [x ** (n * q)]))
    base = colength(Ideal(R, list(pq.gens) + [x ** q]))
    assert ell <= n * base


# -- suite 5: descent non-increasing in n ---------------------------------------------


def test_descent_monotone_on_corpus():
    doc = CORPUS["a1-char2"]
    P = Ideal(doc.ring, [doc.ring.parse("x"), doc.ring.parse("y")])
    assert descent_sequence(P, "z", 3, 3).monotone_in_n
    bm = CORPUS["brenner-monsky"]
    assert descent_sequence(bm.ideals["p"], "t", 3, 2).monotone_in_n


@given(st.sampled_from([2, 3]), st.integers(2, 3), st.integers(1, 2),
       st.integers(1, 2))
@settings(max_examples=50, deadline=None)
def test_descent_monotone_random_family(p, a, b, c):
    R = ring_make(PrimeField(p), ("x", "y", "z"),
                  relations=["x^%d + y^%d*z^%d" % (a, c, b)])
    P = Ideal(R, [R.parse("x"), R.parse("y")])
    rep = descent_sequence(P, "z", 3, 2)
    assert rep.monotone_in_n


# -- suite 6: splitting-chain containments ---------------------------------------------


@pytest.mark.parametrize("name", FINITE_HYPERSURFACES)
def test_splitting_chain_on_corpus(name):
    ring = CORPUS[name].ring
    m = ring.origin_ideal()
    ideals = {e: splitting_ideal(ring, e) for e in (1, 2)}
    for e in (1, 2):
        assert ideal_contains(ideals[e], frobenius_power(m, e))
        # the colon's colength against the rank formula q^n - l(S/(m^[q], f^(q-1)))
        assert colength(ideals[e]) == splitting_number(ring, e)
    assert ideal_contains(ideals[2], frobenius_power(ideals[1], 1))


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                min_size=1, max_size=3))
@settings(max_examples=50, deadline=None)
def test_splitting_chain_random_hypersurface(monos):
    monos = [m for m in monos if sum(m) > 0]
    if not monos:
        monos = [(1, 1)]
    R0 = ring_make(F2, ("x", "y"))
    f = R0.zero
    for m in monos:
        f = f + R0.monomial(m)
    if f.is_zero():
        f = R0.parse("x*y")
    R = ring_make(F2, ("x", "y"), relations=[str(f)])
    m_ideal = R.origin_ideal()
    try:
        chain = {e: splitting_ideal(R, e) for e in (1, 2)}
    except FrobeniusError:
        return  # nothing splits in the inseparable directions
    for e in (1, 2):
        assert ideal_contains(chain[e], frobenius_power(m_ideal, e))
        assert colength(chain[e]) == splitting_number(R, e)
    assert ideal_contains(chain[2], frobenius_power(chain[1], 1))


# -- suite 7: saturation idempotence ------------------------------------------------------


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_saturation_idempotent_on_corpus(name):
    ring = CORPUS[name].ring
    m = ring.origin_ideal()
    S = saturate(frobenius_power(m, 1), m)
    assert ideal_equals(saturate(S, m), S)


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_saturation_idempotent_random(data):
    R = ring_make(F3, ("x", "y"))
    I = data.draw(small_poly_ideal(R))
    m = R.origin_ideal()
    S = saturate(I, m)
    assert ideal_contains(S, I)
    assert ideal_equals(saturate(S, m), S)


# -- suite 8: Buchberger zero-reduction ------------------------------------------------------


def s_polynomial(ring, f, g):
    mf = f.leading_monomial()
    mg = g.leading_monomial()
    lcm = tuple(max(a, b) for a, b in zip(mf, mg))
    return (ring.monomial(tuple(l - a for l, a in zip(lcm, mf))) * f
            - ring.monomial(tuple(l - b for l, b in zip(lcm, mg))) * g)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_zero_reduction_on_corpus(name):
    ring = CORPUS[name].ring
    I = frobenius_power(ring.origin_ideal(), 1)
    basis = groebner_basis(I)
    for f, g in itertools.combinations(basis, 2):
        s = s_polynomial(ring, f, g)
        assert normal_form(s, I).is_zero()


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_zero_reduction_random(data):
    R = ring_make(F3, ("x", "y"))
    I = data.draw(small_poly_ideal(R, gens=3))
    basis = groebner_basis(I)
    for f, g in itertools.combinations(basis, 2):
        s = s_polynomial(R, f, g)
        assert normal_form(s, I).is_zero()


# -- suite 9: staircase count vs brute-force lattice count --------------------------------------


def brute_count(exps, box):
    count = 0
    for pt in itertools.product(*(range(b) for b in box)):
        if not any(all(p >= e for p, e in zip(pt, m)) for m in exps):
            count += 1
    return count


def test_staircase_count_near_budget():
    # a single instance close to the 10^4 colength line
    R = ring_make(F2, ("x", "y", "z"))
    exps = [(21, 0, 0), (0, 22, 0), (0, 0, 21)]
    I = monomial_ideal(R, exps)
    assert colength(I) == 21 * 22 * 21 == brute_count(exps, (21, 22, 21))


@given(primary_monomial_2(maxdeg=6))
@settings(max_examples=50, deadline=None)
def test_staircase_count_random_2d(exps):
    R = ring_make(F2, ("x", "y"))
    I = monomial_ideal(R, exps)
    box = (max(m[0] for m in exps), max(m[1] for m in exps))
    assert colength(I) == brute_count(exps, box)


@given(st.integers(1, 8), st.integers(1, 8), st.integers(1, 8),
       st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8),
                          st.integers(0, 8)), max_size=2))
@settings(max_examples=50, deadline=None)
def test_staircase_count_random_3d(a, b, c, extras):
    R = ring_make(F3, ("x", "y", "z"))
    exps = [(a, 0, 0), (0, b, 0), (0, 0, c)] + \
        [m for m in extras if sum(m) > 0]
    I = monomial_ideal(R, exps)
    assert colength(I) == brute_count(exps, (a, b, c))
