"""Buchberger engine: reduced bases, normal forms, colons, saturation,
colength, and dimension.

The colength tests carry an independent brute-force lattice counter so the
staircase arithmetic is never trusted on its own word.
"""

import hashlib
import itertools
import signal

import pytest
from hypothesis import given, settings, strategies as st

from frobinv import groebner
from frobinv.cli import parse_spec
from frobinv.coeff import (ExtensionField, FieldElement, FieldSpec, PrimeField,
                           RationalFunctionField)
from frobinv.corpus import corpus_text
from frobinv.equimult import bm_gap_table, brenner_monsky_ring, quartic_ring
from frobinv.frobenius import frobenius_power
from frobinv.groebner import (
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
)
from frobinv.invariants import hk_rows
from frobinv.polyring import (GREVLEX, LEX, Ideal, MonomialOrder, Polynomial, RingError,
                              mono_divides, mono_mul, ring_make)

F2 = PrimeField(2)
F3 = PrimeField(3)


def ring2(*names):
    return ring_make(F2, names)


def ideal(ring, *gens):
    return Ideal(ring, [ring.parse(g) for g in gens])


# -- reduced bases -----------------------------------------------------------


def test_reduced_basis_quadric_bracket():
    R = ring2("x", "y", "z")
    I = ideal(R, "x^2+y*z", "x^2", "y^2", "z^2")
    leads = sorted(str(g) for g in groebner_basis(I))
    assert leads == ["x^2", "y*z", "y^2", "z^2"]


def test_already_reduced():
    R = ring_make(F3, ("x", "y"))
    I = ideal(R, "x", "y")
    assert [str(g) for g in groebner_basis(I)] == ["y", "x"]


def test_one_reduction():
    R = ring2("x", "y")
    I = ideal(R, "x+y", "y")
    assert sorted(str(g) for g in groebner_basis(I)) == ["x", "y"]


def test_unit_ideal_basis():
    R = ring2("x", "y")
    I = ideal(R, "x+1", "x")
    assert [str(g) for g in groebner_basis(I)] == ["1"]


def test_basis_is_cached_per_order():
    R = ring2("x", "y")
    I = ideal(R, "x^2+y", "y^2")
    assert groebner_basis(I) == groebner_basis(I)
    groebner_basis(I, LEX)
    assert len(I._basis_cache) == 2


# -- normal forms ------------------------------------------------------------


def test_normal_form_reduces_into_basis():
    R = ring2("x", "y", "z")
    I = ideal(R, "x^2+y*z", "x^2", "y^2", "z^2")
    assert normal_form(R.parse("x^2"), I).is_zero()
    assert is_member(R.parse("y*z"), I)


def test_normal_form_no_divisor():
    R = ring2("x", "y")
    I = ideal(R, "x^2")
    f = R.parse("x")
    assert normal_form(f, I) == f
    assert normal_form(R.zero, I).is_zero()


def test_normal_form_is_idempotent():
    R = ring2("x", "y")
    I = ideal(R, "x^2+y", "y^3")
    f = R.parse("x^5 + x*y + 1")
    r = normal_form(f, I)
    assert normal_form(r, I) == r
    assert is_member(f - r, I)


# -- colength and staircases -------------------------------------------------


def brute_count(leads, box):
    """Count lattice points in prod(range(b)) not above any lead exponent."""
    total = 0
    for pt in itertools.product(*[range(b) for b in box]):
        if not any(all(p >= l for p, l in zip(pt, lead)) for lead in leads):
            total += 1
    return total


def test_colength_examples():
    R = ring_make(F3, ("x", "y"))
    assert colength(ideal(R, "x^2", "x*y", "y^3")) == 4  # {1, x, y, y^2}
    R2 = ring2("x", "y")
    assert colength(ideal(R2, "x", "y")) == 1
    assert colength(ideal(R2, "x")) is None  # not zero-dimensional


def test_colength_of_bracket_in_quartic_quotient():
    R = ring_make(F2, ("x", "y", "z"),
                  relations=["z^4 + x*y*z^2 + (x^3+y^3)*z"])
    assert colength(ideal(R, "x^2", "y^2", "z^2")) == 8


def test_staircase_matches_brute_force():
    R = ring2("x", "y", "z")
    I = ideal(R, "x^3", "y^2*z", "z^4", "x*y^5")
    sc = staircase(I)
    assert sc.count is None  # y-axis escapes
    J = ideal(R, "x^3", "y^4", "z^4", "x*y^2*z^2")
    n = colength(J)
    assert n == brute_count([(3, 0, 0), (0, 4, 0), (0, 0, 4), (1, 2, 2)],
                            (3, 4, 4))


MONO_IDEALS = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
    min_size=1, max_size=6)


@given(MONO_IDEALS)
@settings(max_examples=50, deadline=None)
def test_standard_monomial_count_agrees_with_enumeration(leads):
    count = count_standard_monomials(leads, 3)
    axis_bound = []
    for i in range(3):
        pures = [l[i] for l in leads if all(l[j] == 0 for j in range(3) if j != i)]
        axis_bound.append(min(pures) if pures else None)
    if any(b is None for b in axis_bound):
        assert count is None
        return
    assert count == brute_count(leads, tuple(axis_bound))


# -- colon, intersection, saturation ----------------------------------------


def test_colon_examples():
    R = ring2("x", "y")
    I = ideal(R, "x^2", "y^2")
    Q = ideal_colon(I, R.parse("x*y"))
    assert sorted(str(g) for g in groebner_basis(Q)) == ["x", "y"]
    assert ideal_equals(ideal_colon(I, R.parse("1")), I)
    R1 = ring_make(F3, ("x",))
    assert [str(g) for g in groebner_basis(ideal_colon(ideal(R1, "x^2"),
                                                       R1.parse("x")))] == ["x"]


def test_colon_by_ideal():
    R = ring2("x", "y")
    I = ideal(R, "x^2", "x*y")
    Q = ideal_colon_ideal(I, ideal(R, "x"))
    assert sorted(str(g) for g in groebner_basis(Q)) == ["x", "y"]


def test_intersection():
    R = ring2("x", "y")
    I = ideal(R, "x")
    J = ideal(R, "y")
    assert [str(g) for g in groebner_basis(ideal_intersection(I, J))] == ["x*y"]


def test_saturation_splits_off_primary_component():
    R = ring2("x", "y")
    I = ideal(R, "x^2", "x*y")
    S = saturate(I, ideal(R, "x", "y"))
    assert [str(g) for g in groebner_basis(S)] == ["x"]


def test_saturation_by_regular_element_is_identity():
    R = ring2("x", "y")
    I = ideal(R, "x")
    assert ideal_equals(saturate(I, ideal(R, "y")), I)


def test_saturation_with_member_power_is_unit():
    # y^2 lies in (x^2*y, y^2), so 1 in I : y^2 and the saturation by (y)
    # is the whole ring
    R = ring2("x", "y")
    I = ideal(R, "x^2*y", "y^2")
    S = saturate(I, ideal(R, "y"))
    assert [str(g) for g in groebner_basis(S)] == ["1"]


def test_colon_verified_by_membership():
    R = ring2("x", "y")
    I = ideal(R, "x^3", "y^3", "x*y^2")
    f = R.parse("x*y")
    Q = ideal_colon(I, f)
    for g in groebner_basis(Q):
        assert is_member(g * f, I)


# -- dimension ---------------------------------------------------------------


def test_dimension_examples():
    R = ring2("x", "y", "z")
    assert ideal_dimension(ideal(R, "x")) == 2
    assert ideal_dimension(ideal(R, "x", "y")) == 1
    assert ideal_dimension(ideal(R, "x", "y", "z")) == 0
    assert ideal_dimension(ideal(R, "x*y")) == 2


def test_contains():
    R = ring2("x", "y")
    I = ideal(R, "x", "y")
    J = ideal(R, "x^2", "x*y+y^5")
    assert ideal_contains(I, J)
    assert not ideal_contains(J, I)


# -- randomized Buchberger check ---------------------------------------------


RAND_RING = ring2("x", "y")


def _rand_polys():
    mono = st.tuples(st.integers(0, 3), st.integers(0, 3))
    poly = st.lists(mono, min_size=1, max_size=3).map(
        lambda ms: sum((RAND_RING.monomial(m) for m in ms), RAND_RING.zero))
    return st.lists(poly, min_size=1, max_size=3)


@given(_rand_polys())
@settings(max_examples=50, deadline=None)
def test_generators_reduce_to_zero_modulo_basis(gens):
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return
    I = Ideal(RAND_RING, gens)
    basis = groebner_basis(I)
    for g in gens:
        assert normal_form(g, I).is_zero()
    # ring multiples of basis elements stay inside
    for g in basis:
        assert is_member(g, I)
        assert is_member(g * RAND_RING.parse("x+y"), I)


# -- differential check against a reference kernel ---------------------------
#
# The reference is the plain Buchberger algorithm: the leading term is found
# by max() over every term, the next pair by min() over every pending pair,
# and no pair is pruned.  Reduced bases and normal forms are unique, so the
# kernel must match it term for term.


def ref_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def ref_lead(order, terms):
    return max(terms, key=order.key)


def ref_submul(F, p, c, sh, g):
    """p -= c * x^sh * g in place."""
    for m, v in g.items():
        mm = tuple(a + b for a, b in zip(m, sh))
        nv = F.sub(p.get(mm, F.zero), F.mul(c, v))
        if nv == F.zero:
            p.pop(mm, None)
        else:
            p[mm] = nv


def ref_reduce(F, order, terms, basis):
    """Normal form of terms by the monic dicts in basis."""
    p, rem = dict(terms), {}
    while p:
        t = ref_lead(order, p)
        g = next((g for g in basis if ref_divides(ref_lead(order, g), t)), None)
        if g is None:
            rem[t] = p.pop(t)
        else:
            sh = tuple(a - b for a, b in zip(t, ref_lead(order, g)))
            ref_submul(F, p, p[t], sh, g)
    return rem


def ref_monic(F, order, terms):
    ic = F.inv(terms[ref_lead(order, terms)])
    return {m: F.mul(ic, v) for m, v in terms.items()}


def ref_basis(F, order, gens):
    """Reduced monic basis as term dicts, ascending by leading monomial."""
    G = [ref_monic(F, order, g) for g in gens if g]
    P = [(i, j) for j in range(len(G)) for i in range(j)]

    def lcm(ij):
        a, b = (ref_lead(order, G[k]) for k in ij)
        return tuple(map(max, a, b))

    while P:
        ij = min(P, key=lambda ij: (order.key(lcm(ij)), ij))
        P.remove(ij)
        L, s = lcm(ij), {}
        for k, c in zip(ij, (F.neg(F.one), F.one)):
            ref_submul(F, s, c, tuple(a - b for a, b in zip(L, ref_lead(order, G[k]))), G[k])
        r = ref_reduce(F, order, s, G)
        if r:
            G.append(ref_monic(F, order, r))
            P += [(k, len(G) - 1) for k in range(len(G) - 1)]
    G.sort(key=lambda g: order.key(ref_lead(order, g)))
    minimal = []
    for g in G:
        if not any(ref_divides(ref_lead(order, h), ref_lead(order, g)) for h in minimal):
            minimal.append(g)
    return [ref_reduce(F, order, g, [h for h in minimal if h is not g]) for g in minimal]


def ref_eliminate(F, w_gens, rest_gens):
    """w-free part of the block(1) basis of (w * w_gens, (1 - w) * rest_gens)."""
    gens = [{(1,) + m: c for m, c in g.items()} for g in w_gens]
    for g in rest_gens:
        d = {(0,) + m: c for m, c in g.items()}
        d.update({(1,) + m: F.neg(c) for m, c in g.items()})
        gens.append(d)
    basis = ref_basis(F, MonomialOrder("block", 1), gens)
    return [{m[1:]: c for m, c in g.items()} for g in basis if all(m[0] == 0 for m in g)]


def ref_exact_div(F, num, den):
    p, quo = dict(num), {}
    dl = ref_lead(GREVLEX, den)
    while p:
        t = ref_lead(GREVLEX, p)
        sh = tuple(a - b for a, b in zip(t, dl))
        assert min(sh) >= 0
        quo[sh] = F.mul(p[t], F.inv(den[dl]))
        ref_submul(F, p, quo[sh], sh, den)
    return quo


F4 = ExtensionField(2, (1, 1, 1))
DIFF_FIELDS = {"F2": F2, "F3": F3, "F4": F4}
DIFF_ORDERS = [GREVLEX, LEX, MonomialOrder("block", 1)]


def _raw_polys(F, terms=3):
    coeffs = st.integers(1, F.p ** getattr(F, "degree", 1) - 1)
    monos = st.tuples(*[st.integers(0, 2)] * 3)
    return st.dictionaries(monos, coeffs, min_size=1, max_size=terms)


# x^3, y^3, z^3 join every random ideal: a lex basis of three random
# quintics can take minutes in either kernel, a finite quotient cannot
CUBES = [{(3, 0, 0): 1}, {(0, 3, 0): 1}, {(0, 0, 3): 1}]


@pytest.mark.parametrize("order", DIFF_ORDERS, ids=repr)
@pytest.mark.parametrize("name", DIFF_FIELDS)
def test_kernel_matches_reference(name, order):
    F = DIFF_FIELDS[name]
    R = ring_make(F, ("x", "y", "z"))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(_raw_polys(F), min_size=1, max_size=3).map(lambda g: g + CUBES),
           _raw_polys(F))
    def check(gens, f):
        I = Ideal(R, [Polynomial(R, g) for g in gens])
        want = ref_basis(F, order, gens)
        # the staircase first, from the loop's leads with no basis cached
        leads = sorted((ref_lead(order, g) for g in want), key=lambda m: (sum(m), m))
        sc = staircase(I, order)
        assert list(sc.generators) == leads
        assert sc.count == count_standard_monomials(leads, 3) == brute_count(leads, (3, 3, 3))
        assert [g.terms for g in groebner_basis(I, order)] == want
        assert normal_form(Polynomial(R, f), I, order).terms == ref_reduce(F, order, f, want)

    check()


# -- staircases from the loop's leading monomials -----------------------------
#
# colength and staircase read the leads of the kernel's minimal basis, which
# is never inter-reduced; the lead ideal is unique, so they must be the leads
# of the reduced basis (also checked in test_kernel_matches_reference).


@pytest.mark.parametrize("F,e_max", [(F2, 4), (F4, 3)], ids=["F2(t)", "F4(t)"])
def test_quartic_brackets_over_rational_functions_meet_closed_form(F, e_max):
    # z^4 + xyz^2 + (x^3 + y^3)z + t x^2 y^2 has l(R/m^[q]) = 3q^2 - 4
    R = quartic_ring(RationalFunctionField(F, "t").symbols()["t"])
    for e in range(1, e_max + 1):
        q = 2 ** e
        sc = staircase(frobenius_power(R.origin_ideal(), e))
        assert sc.count == 3 * q * q - 4
        basis = groebner_basis(frobenius_power(R.origin_ideal(), e))
        assert list(sc.generators) == sorted((g.leading_monomial() for g in basis),
                                             key=lambda m: (sum(m), m))


def test_colength_reads_leads_without_inter_reduction(monkeypatch):
    calls = []     # the full flag of every _reduce call
    kernel = groebner._reduce

    def counted(F, pk, terms, basis, full, sugar=0):
        calls.append(full)
        return kernel(F, pk, terms, basis, full, sugar)

    monkeypatch.setattr(groebner, "_reduce", counted)
    R = ring_make(F3, ("x", "y", "z"))
    gens = [{(2, 1, 0): 1, (0, 1, 2): 2, (1, 0, 0): 1}, {(0, 2, 1): 1, (1, 1, 1): 1}] + CUBES
    want = ref_basis(F3, GREVLEX, gens)

    I = Ideal(R, [Polynomial(R, g) for g in gens])
    assert colength(I) == count_standard_monomials([ref_lead(GREVLEX, g) for g in want], 3)
    assert calls and True not in calls
    assert not I._basis_cache  # the leads-only path caches nothing

    # the reduced basis after a colength is still the reference's
    assert [g.terms for g in groebner_basis(I)] == want
    assert True in calls

    # with the reduced basis cached, no kernel runs: a loop call would raise
    calls.clear()
    monkeypatch.setattr(groebner, "_basis", None)
    assert staircase(I).count == colength(I)
    assert ideal_dimension(I) == 0
    assert calls == []


def _corpus_rows(name, e_max):
    return lambda: hk_rows(parse_spec(corpus_text(name)).ideals["m"], e_max)


def _gap_table_e2():
    a = F4.symbols()["a"]
    return bm_gap_table([0, 1, a, a + 1], e_min=2, e_max=2, field=F4)


def _f4_quartic_rows(e_max):
    # alpha = 1 over F_4, which the kernel runs over F_2
    return lambda: hk_rows(quartic_ring(FieldElement(F4, F4.one)).origin_ideal(), e_max)


def _spoly_trace(run, monkeypatch):
    """The S-pairs the kernel reduces during run(): their count, and the
    sha256 of each one's lcm, two leads (unpacked) and two sugars, in order."""
    calls, digest = [], hashlib.sha256()
    kernel = groebner._spoly

    def traced(F, pk, lcm, f, g):
        calls.append(lcm)
        digest.update(repr((pk.unpack(lcm), pk.unpack(f.lmono), pk.unpack(g.lmono),
                            f.sugar, g.sugar)).encode())
        return kernel(F, pk, lcm, f, g)

    monkeypatch.setattr(groebner, "_spoly", traced)
    run()
    monkeypatch.undo()
    return len(calls), digest.hexdigest()[:16]


# Pinned to the S-pairs reduced at the time of writing, and to their order:
# a change to the pair criteria or to the selection strategy changes the
# count or the hash.  With the chain criterion switched off the first three
# reduce 98, 354 and 63 S-pairs.  The coefficients do not enter, so the
# trace is the same for monic and primitive basis entries.
@pytest.mark.parametrize("run, count, digest", [
    (_f4_quartic_rows(5), 54, "479d1bdf64ea1c67"),
    (_corpus_rows("a1-odd", 3), 84, "fb52c3b35c709951"),
    (_corpus_rows("monsky-t", 3), 34, "2ff0a926fbefaba2"),
    (_gap_table_e2, 32, "4f37261acb6fa8ff"),
], ids=["monsky-1-e5", "a1-odd-e3", "monsky-t-e3", "gap-table-e2"])
def test_pair_criteria_bound_the_s_pairs(run, count, digest, monkeypatch):
    assert _spoly_trace(run, monkeypatch) == (count, digest)


COLON_CASES = [
    # (field, relations, I, J, f)
    (F3, [], ["x^2+2*y*z", "y^2", "z^3+x*y"], ["x*y+z", "x^2+y"], "x+y*z"),
    (F4, ["z^3+a*x*y*z+y^3"], ["x^2", "y^2+a*z^2", "z^2*x"], ["x+a*y", "y*z"], "x*z+a*y^2"),
    # f has a content in t, so the division by f cross-multiplies after its
    # first step and the quotient's terms so far are scaled with the rest
    (RationalFunctionField(F2, "t"), [], ["x^3", "y^3", "z^3", "t^2*x+z/(t+1)"],
     ["x+y", "z^2"], "t^2*(t*y+t*z^2)"),
    (RationalFunctionField(F3, "t"), [], ["x^3", "y^3", "z^3", "(t^2+1)*y*z+x/(t+1)"],
     ["x*y", "y+z"], "(t+1)*(t*z^2+(t^2+1)*z)"),
]


@pytest.mark.parametrize("case", COLON_CASES, ids=["F3", "F4-quotient", "F2(t)", "F3(t)"])
def test_colon_and_intersection_match_reference(case):
    F, rels, I_gens, J_gens, f_text = case
    R = ring_make(F, ("x", "y", "z"), relations=rels)
    I, J, f = ideal(R, *I_gens), ideal(R, *J_gens), R.parse(f_text)
    raw_rels = [r.terms for r in R.relations]
    raw_I = [g.terms for g in I.gens] + raw_rels

    cut = ref_eliminate(F, raw_I, [f.terms])
    want = ref_basis(F, GREVLEX, [ref_exact_div(F, d, f.terms) for d in cut] + raw_rels)
    assert [g.terms for g in ideal_colon(I, f).gens] == want

    cut = ref_eliminate(F, raw_I, [g.terms for g in J.gens] + raw_rels)
    want = ref_basis(F, GREVLEX, cut + raw_rels)
    assert [g.terms for g in ideal_intersection(I, J).gens] == want


def test_a_division_that_leaves_a_remainder_raises():
    # a colon's division by f is exact; where it is not, the elimination
    # raises and returns no quotient of a division with remainder
    R = ring_make(F3, ("x", "y", "z"))
    g, f = R.parse("x^2+y*z"), R.parse("x+y")
    with pytest.raises(RingError, match="exact division left a remainder"):
        groebner._eliminate(R, [(g.terms, {})], f.terms)
    assert [str(h) for h in groebner._eliminate(R, [((g * f).terms, {})], f.terms)] == \
        ["x^2+y*z"]


@pytest.mark.parametrize("call", [
    lambda I, S: ideal_intersection(I, Ideal(S, [S.parse("x+y")])),
    lambda I, S: ideal_colon(I, S.parse("x+y")),
    lambda I, S: saturate(I, Ideal(S, [S.parse("x+y")])),
    lambda I, S: normal_form(S.parse("2*x"), I),
    lambda I, S: ideal_equals(I, Ideal(S, [S.parse("x^2"), S.parse("y^2")])),
], ids=["intersection", "colon", "saturate", "normal_form", "equals"])
@pytest.mark.parametrize("names", [("x", "y"), ("x", "y", "z")], ids=["F3[x,y]", "F3[x,y,z]"])
def test_an_argument_from_another_ring_is_refused(call, names):
    # over F_2[x,y,z]: from F_3[x,y] the colon returned (x+y, z^2, y^2),
    # from F_3[x,y,z] it divided by zero, a normal form kept 2*x, and
    # ideal_equals compared the bases' keys whatever their rings
    I = ideal(ring2("x", "y", "z"), "x^2", "y^2", "z^2")
    with pytest.raises(RingError, match="ambient ring mismatch"):
        call(I, ring_make(F3, names))


def test_colon_over_f4t_starts_from_the_reduced_basis():
    # from the raw generators this block(1) elimination ran past 10 min: its
    # working polynomials reached F_4[t] coefficients of degree past 300.
    # The reduced basis of I is (1), so the colon is (1) at once.
    R = ring_make(F4T, ("x", "y", "z"))
    I = ideal(R, "x^2*y^2*z^2/(t+a+1) + ((a+1)*t^2+a*t+a+1)/(t+a+1)*x^2*y*z"
                 " + (a*t^2+a+1)/(t+a)*z^2",
              "t*x^2*y + (a*t^2+1)*x*y^2 + ((a+1)*t+1)/(t^2+t)", "x^3", "y^3", "z^3")
    f = R.parse("(a*t+a+1)/(t^2+t)*x^2*y^2*z + (a+1)/(t^2+t)*x*y")
    def timeout(signum, frame):
        raise TimeoutError("the colon ran past 30 s")
    old = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(30)
    try:
        colon = ideal_colon(I, f)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    assert [str(g) for g in colon.gens] == ["1"]


# -- packed monomials ----------------------------------------------------------
#
# The kernel packs each exponent vector into one int; every packed operation
# must agree with the tuple operation it stands for.

PACK_ORDERS = [GREVLEX, LEX] + [MonomialOrder("block", k) for k in range(7)]


def _monomial_triples():
    return st.integers(1, 6).flatmap(
        lambda n: st.tuples(*[st.tuples(*[st.integers(0, 3)] * n)] * 3))


@pytest.mark.parametrize("order", PACK_ORDERS, ids=repr)
def test_packed_monomials_match_tuples(order):
    @settings(max_examples=80, deadline=None)
    @given(_monomial_triples(), st.sampled_from([8, 12, 64]))
    def check(abc, width):
        a, b, c = abc
        pk = groebner._Packer(order, len(a), width)
        pa, pb = pk.pack(a), pk.pack(b)
        assert pk.unpack(pa) == a
        assert pa & pk.mask == sum(a)
        assert pa + pb == pk.pack(mono_mul(a, b))
        for u, v in ((a, b), (b, a), (a, mono_mul(a, c)), (mono_mul(a, c), a)):
            assert (not (pk.pack(v) - pk.pack(u)) & pk.guard) == mono_divides(u, v)

    check()


def mono_lcm(a, b):
    return tuple(map(max, a, b))


@pytest.mark.parametrize("order", PACK_ORDERS, ids=repr)
@pytest.mark.parametrize("width", [8, 12, 64])
def test_packed_lcm_matches_tuples(order, width):
    # the kernel takes lcms on exponent sections, up to the field limit - 1
    top = (1 << (width - 1)) - 1
    exponent = st.one_of(st.integers(0, 3), st.integers(0, top), st.just(top))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(*[st.tuples(*[exponent] * n)] * 3)))
    def check(abw):
        a, b, w = abw
        pk = groebner._Packer(order, len(a), width)

        def sec(m):
            return sum(e << s for e, s in zip(m, pk.shifts))

        coprime_to_a = tuple(0 if x else y for x, y in zip(a, b))
        for u, v in ((a, b), (b, a), (a, coprime_to_a), (a, a), (a, (0,) * len(a))):
            want = mono_lcm(u, v)
            L = pk.lcm(sec(u), sec(v))
            assert L == sec(want) and pk.unpack(L) == want
            # the product criterion: the sections add up to the lcm exactly
            # when the monomials are coprime
            assert (sec(u) + sec(v) == L) == (not any(x and y for x, y in zip(u, v)))
            # the B test's equality, for a third monomial
            assert (pk.lcm(sec(w), sec(u)) == L) == (mono_lcm(w, u) == want)
            if sum(want) < pk.limit:
                assert pk.pack(pk.unpack(L)) == pk.pack(want)
                assert pk.pack(u) & pk.exps == sec(u)

    check()


def test_overflow_widens_and_reruns(monkeypatch):
    # the lex basis of (x - y^64, y - z^64) holds x - z^4096, past the
    # starting width chosen from the input's degree 64
    widths = []

    class Recorded(groebner._Packer):
        def __init__(self, order, nvars, width):
            widths.append(width)
            super().__init__(order, nvars, width)

    monkeypatch.setattr(groebner, "_Packer", Recorded)
    R = ring_make(F3, ("x", "y", "z"))
    gens = [{(1, 0, 0): 1, (0, 64, 0): 2}, {(0, 1, 0): 1, (0, 0, 64): 2}]
    I = Ideal(R, [Polynomial(R, g) for g in gens])
    assert [g.terms for g in groebner_basis(I, LEX)] == ref_basis(F3, LEX, gens)
    assert len(widths) == 2 and widths[1] == 2 * widths[0]
    assert 4096 >= 1 << (widths[0] - 1)

    # x^64 reduces to z^(64 * 4096), past the width the basis sets
    widths.clear()
    assert normal_form(R.parse("x^64"), I, LEX) == R.parse("z^%d" % (64 * 4096))
    assert len(widths) == 2

    # pack refuses a degree past the width, as an lcm of two wide leads
    # would have; the kernel then widens too
    with pytest.raises(groebner._Overflow):
        groebner._Packer(LEX, 2, 8).pack((100, 28))

    # exponents far past 32 bits need no special case
    J = ideal(R, "x^%d + y" % 2 ** 40, "y^2")
    assert [str(g) for g in groebner_basis(J)] == ["y^2", "x^%d+y" % 2 ** 40]


# -- saturation against the colon chain --------------------------------------
#
# The reference climbs I : J, I : J^2, ... one ideal colon at a time until two
# steps agree; saturate must reach the same reduced basis without the chain.


def ref_saturate(I, J):
    current = I
    while True:
        nxt = ideal_colon_ideal(current, J)
        if ideal_equals(nxt, current):
            return nxt
        current = nxt


def _cone():
    return ring_make(F2, ("x", "y", "z"), relations=["x^2+z*y"])


def _odd_a1():
    return ring_make(F3, ("x", "y", "z"), relations=["x*y+2*z^2"])


def _bm():
    return brenner_monsky_ring(F4)


def _bracket(make, names, e):
    """(names)^[p^e] and the origin ideal, in a fresh copy of the ring."""
    def build():
        R = make()
        return frobenius_power(ideal(R, *names), e), R.origin_ideal()
    return build


SATURATION_CASES = {
    "cone-p^[2]": _bracket(_cone, "xy", 1),
    "cone-p^[4]": _bracket(_cone, "xy", 2),
    "cone-m^[4]": _bracket(_cone, "xyz", 2),
    "cone-m^[8]": _bracket(_cone, "xyz", 3),
    "odd-a1-p^[3]": _bracket(_odd_a1, "xy", 1),
    "odd-a1-p^[9]": _bracket(_odd_a1, "xy", 2),
    "brenner-monsky-p^[2]": _bracket(_bm, "xyz", 1),
    "brenner-monsky-p^[4]": _bracket(_bm, "xyz", 2),
}


@pytest.mark.parametrize("name", SATURATION_CASES)
def test_saturation_matches_colon_chain(name):
    I, J = SATURATION_CASES[name]()
    got = [g.terms for g in groebner_basis(saturate(I, J))]
    assert got == [g.terms for g in groebner_basis(ref_saturate(I, J))]


@pytest.mark.parametrize("name", DIFF_FIELDS)
def test_saturation_matches_colon_chain_random(name):
    F = DIFF_FIELDS[name]
    R = ring_make(F, ("x", "y", "z"))

    # binomials: on three-term generators over F_4 the reference chain can
    # pass 5 s where saturate takes under a second
    @settings(max_examples=40, deadline=None)
    @given(st.lists(_raw_polys(F, 2), min_size=1, max_size=3),
           st.lists(_raw_polys(F, 2), min_size=1, max_size=2))
    def check(I_terms, J_terms):
        I = Ideal(R, [Polynomial(R, g) for g in I_terms])
        J = Ideal(R, [Polynomial(R, g) for g in J_terms])
        got = [g.terms for g in groebner_basis(saturate(I, J))]
        assert got == [g.terms for g in groebner_basis(ref_saturate(I, J))]

    check()


def _count_pair_loops(monkeypatch):
    """The order kind of every Buchberger pair loop run from now on."""
    runs = []
    kernel = groebner._run_loop

    def counted(F, order, gens, finish):
        runs.append(order.kind)
        return kernel(F, order, gens, finish)

    monkeypatch.setattr(groebner, "_run_loop", counted)
    return runs


def test_saturation_runs_one_elimination_per_generator(monkeypatch):
    # eliminations start from the reduced basis of I, the one grevlex run,
    # and run under block(1); their w-free part is already the reduced
    # grevlex basis, so no grevlex run follows
    runs = _count_pair_loops(monkeypatch)
    for name in ("cone-m^[8]", "odd-a1-p^[3]", "brenner-monsky-p^[2]"):
        I, J = SATURATION_CASES[name]()
        runs.clear()
        saturate(I, J)
        assert runs[0] == "grevlex" and runs.count("grevlex") == 1, name
        assert runs.count("block") <= 2 * len(J.gens) - 1, name


# Fedder colons m^[q] : f^(q-1) for f = xy + 2z^2 over F_3, and colons in
# quotient rings
def _f3_space():
    return ring_make(F3, ("x", "y", "z"))


COLON_LOOP_CASES = {
    "fedder-q3": (_bracket(_f3_space, "xyz", 1), "(x*y+2*z^2)^2"),
    "fedder-q9": (_bracket(_f3_space, "xyz", 2), "(x*y+2*z^2)^8"),
    "odd-a1-p^[3]-by-z": (_bracket(_odd_a1, "xy", 1), "z"),
    "brenner-monsky-p^[2]-by-x+y": (_bracket(_bm, "xyz", 1), "x+y"),
}


@pytest.mark.parametrize("name", COLON_LOOP_CASES)
def test_colon_runs_one_pair_loop(monkeypatch, name):
    # the elimination starts from the reduced basis of I, and the quotients
    # by f of its w-free entries are the colon's minimal basis, inter-reduced
    # inside the elimination's run, so no grevlex run follows
    build, f = COLON_LOOP_CASES[name]
    I, _ = build()
    runs = _count_pair_loops(monkeypatch)
    K = ideal_colon(I, f)
    assert runs == ["grevlex", "block"]
    groebner_basis(K)
    ideal_colon(I, f)   # I's basis is cached
    assert runs == ["grevlex", "block", "block"]


def test_saturation_edge_cases():
    R = ring2("x", "y")
    I = ideal(R, "x^2", "x*y")
    for J in (Ideal(R, []), ideal(R, "0")):
        assert [str(g) for g in groebner_basis(saturate(I, J))] == ["1"]
    for J in (ideal(R, "1"), ideal(R, "y", "1")):
        assert ideal_equals(saturate(I, J), I)


# An intersection, a saturation or a colon keeps the reduced basis that its
# one elimination finishes with as its grevlex basis, with no second
# Buchberger run; that basis must be the one a fresh Ideal on the same
# generators computes.
BASIS_RINGS = {"F3": lambda: ring_make(F3, ("x", "y", "z")), "F3-quotient": _odd_a1,
               "F4": lambda: ring_make(F4, ("x", "y", "z"))}


@pytest.mark.parametrize("name", BASIS_RINGS)
def test_eliminated_basis_is_the_reduced_basis(name):
    R = BASIS_RINGS[name]()

    @settings(max_examples=30, deadline=None)
    @given(st.lists(_raw_polys(R.field, 2), min_size=1, max_size=3),
           st.lists(_raw_polys(R.field, 2), min_size=1, max_size=2))
    def check(I_terms, J_terms):
        I = Ideal(R, [Polynomial(R, g) for g in I_terms])
        J = Ideal(R, [Polynomial(R, g) for g in J_terms])
        f = Polynomial(R, J_terms[0])
        for K in (ideal_intersection(I, J), saturate(I, J), ideal_colon(I, f)):
            cached = K._basis_cache[GREVLEX.cache_key()]
            fresh = groebner_basis(Ideal(R, list(K.gens)))
            assert [list(g.terms.items()) for g in cached] == \
                [list(g.terms.items()) for g in fresh]

    check()


def test_basis_over_f2t_holds_tuple_payloads():
    # over F_2, as over every base, a numerator and a denominator are tuples,
    # entry i the coefficient of t^i
    F2T = RationalFunctionField(F2, "t")
    R = ring_make(F2T, ("x", "y", "z"))
    basis = groebner_basis(ideal(R, "(t+1)*x^2+y*z", "x*y/(t^2+t+1)+z^2", "t^3*y^2+x*z"))
    coeffs = [c for g in basis for c in g.terms.values()]
    assert coeffs and all(type(n) is tuple and type(d) is tuple for n, d in coeffs)
    assert (1, 1) in {n for n, _ in coeffs} | {d for _, d in coeffs}


# -- the kernel over the prime field ------------------------------------------
#
# Buchberger's algorithm only adds, subtracts, multiplies and inverts the
# coefficients of its input, so when they all lie in the prime field (in
# F_p(t) over an extension) the kernel runs over that field's spec.  Every
# payload must be the same as over the field the ring was built on.

F9 = ExtensionField(3, (1, 0, 1))   # F_3[a]/(a^2 + 1)
F4T = RationalFunctionField(F4, "t")

# F_4(t) inputs whose coefficients lie in F_2(t): fractions, a t-power,
# and the Brenner-Monsky fiber's relation
F4T_CASES = [
    ((), ["(t+1)*x^2+y*z", "x*y/(t^2+t+1)+z^2", "t^3*y^2+x*z"]),
    (("z^4+x*y*z^2+(x^3+y^3)*z+t*x^2*y^2",), ["x^4", "y^4", "z^4"]),
]


def _kernel_trace(monkeypatch, R, gen_texts, f_text):
    """Everything one ring's kernel runs produce: the staircase, the reduced
    basis, a normal form and a colon, and each S-pair's lcm, leads, sugar and
    terms (operands written as payloads); with the fields of the op tables
    the kernel reduced with."""
    pairs, specs = [], set()
    spoly, reduce_ = groebner._spoly, groebner._reduce

    def spy(K, pk, lcm, f, g):
        d, sugar = spoly(K, pk, lcm, f, g)
        pairs.append((lcm, f.lmono, g.lmono, sugar, sorted(K.leave(d, K.one).items())))
        return d, sugar

    def reduce_spy(K, *args):
        specs.add(K.field)
        return reduce_(K, *args)
    monkeypatch.setattr(groebner, "_spoly", spy)
    monkeypatch.setattr(groebner, "_reduce", reduce_spy)
    I = ideal(R, *gen_texts)
    f = R.parse(f_text)
    trace = (staircase(I).generators, [g.terms for g in groebner_basis(I)],
             normal_form(f, I).terms, [g.terms for g in ideal_colon(I, f).gens], pairs)
    monkeypatch.undo()
    return trace, specs


def _without_descent(monkeypatch):
    # an extension's table is its own; base(t) takes the field of its base's
    monkeypatch.setattr(ExtensionField, "kernel", FieldSpec.kernel)


def _assert_same_run_with_and_without_descent(monkeypatch, R, gen_texts, f_text, prime):
    got, specs = _kernel_trace(monkeypatch, R, gen_texts, f_text)
    assert specs == {prime}
    _without_descent(monkeypatch)
    want, specs = _kernel_trace(monkeypatch, R, gen_texts, f_text)
    assert specs == {R.field}
    assert got == want


@pytest.mark.parametrize("F", [F4, F9], ids=["F4", "F9"])
def test_descent_keeps_every_payload_over_extensions(F, monkeypatch):
    R = ring_make(F, ("x", "y", "z"))
    polys = st.lists(_raw_polys(PrimeField(F.p)), min_size=1, max_size=3)

    @settings(max_examples=25, deadline=None)
    @given(polys.map(lambda g: g + CUBES), _raw_polys(PrimeField(F.p)))
    def check(gens, f):
        texts = [str(Polynomial(R, g)) for g in gens]
        _assert_same_run_with_and_without_descent(
            monkeypatch, R, texts, str(Polynomial(R, f)), PrimeField(F.p))

    check()


@pytest.mark.parametrize("rels, gens", F4T_CASES, ids=["fractions", "fiber-e2"])
def test_descent_keeps_every_payload_over_f4t(rels, gens, monkeypatch):
    R = ring_make(F4T, ("x", "y", "z"), relations=list(rels))
    _assert_same_run_with_and_without_descent(
        monkeypatch, R, gens, "t*x^3*y+x*z/(t+1)+y", RationalFunctionField(F2, "t"))


def test_a_coefficient_outside_the_prime_field_blocks_the_descent(monkeypatch):
    a, t = F4.symbols()["a"], F4T.symbols()["t"]
    assert F4.kernel([0, 1, 1]).field == F2
    assert F4.kernel([1, a.payload]).field is F4
    assert F9.kernel([2, F9.symbols()["a"].payload]).field is F9
    a_t = F4T.symbols()["a"]
    assert F4T.kernel([t.payload, (t + 1).inverse().payload]).field == \
        RationalFunctionField(F2, "t")
    assert F4T.kernel([t.payload, (t + a_t).payload]).field is F4T
    assert F4T.kernel([(t * t + a_t).inverse().payload]).field is F4T
    for spec in (F2, F3, RationalFunctionField(F3, "t")):
        assert spec.kernel([spec.one]).field is spec
    # one coefficient a keeps the whole run over F_4
    R = ring_make(F4, ("x", "y", "z"))
    _, specs = _kernel_trace(monkeypatch, R, ["x^2+a*y*z", "y^2+z^2", "x^3", "z^3"], "x*y+z")
    assert specs == {F4}


def test_the_gap_table_fiber_cell_runs_no_tuple_division(monkeypatch):
    from frobinv import coeff
    from frobinv.equimult import fiber_presentation
    from frobinv.invariants import hk_function
    R = brenner_monsky_ring(F4)
    prime = ideal(R, "x", "y", "z")
    image = fiber_presentation(prime).map_ideal(prime)
    calls = []
    udivmod = coeff._udivmod

    def counted(*args):
        calls.append(args)
        return udivmod(*args)
    monkeypatch.setattr(coeff, "_udivmod", counted)
    _field_ops_raise_in_the_pair_loop(monkeypatch)
    assert hk_function(image, 3) == 188
    assert calls == []
    # over F_4(t) itself the same cell divides on tuples
    _without_descent(monkeypatch)
    assert hk_function(image, 3) == 188
    assert calls


# -- primitive operands over base(t) ------------------------------------------
#
# Over base(t) the generators enter the pair loop as primitive polynomials
# over base[t] and reduce by cross-multiplication; the results leave divided
# by their lead coefficient, or a normal form by its scale.  Colengths,
# reduced bases, normal forms, colons and saturations are unique, so on
# inputs with fraction coefficients they must match the reference kernel,
# which works on payloads with monic entries and field division throughout.

F3T = RationalFunctionField(F3, "t")
# (field, whether F_4(t) stays F_4(t) on inputs over F_2(t)): with descent an
# F_4(t) input runs over F_4[t] tuples or packed F_2[t] ints by its payloads
PRIMITIVE_FIELDS = {"F2(t)": (RationalFunctionField(F2, "t"), False), "F4(t)": (F4T, False),
                    "F4(t)-undescended": (F4T, True), "F3(t)": (F3T, False)}


def _fractions(F):
    """Non-zero n/d with deg n, deg d <= 1, reduced by F.make."""
    q = F.base.p ** getattr(F.base, "degree", 1)
    upoly = st.tuples(st.lists(st.integers(0, q - 1), max_size=1),
                      st.integers(1, q - 1)).map(lambda lt: tuple(lt[0]) + (lt[1],))
    return st.tuples(upoly, upoly).map(lambda nd: F.make(*nd))


def _fraction_polys(F, terms):
    monos = st.tuples(*[st.integers(0, 2)] * 3)
    return st.dictionaries(monos, _fractions(F), min_size=1, max_size=terms)


def _ref_saturation(F, gens, g):
    """(gens) : g^infty as the w-free part of the block(1) basis of
    (gens, 1 - w g), reduced under grevlex."""
    parts = [{(0,) + m: c for m, c in d.items()} for d in gens]
    parts.append({(0, 0, 0, 0): F.one} | {(1,) + m: F.neg(c) for m, c in g.items()})
    basis = ref_basis(F, MonomialOrder("block", 1), parts)
    return ref_basis(F, GREVLEX, [{m[1:]: c for m, c in d.items()}
                                  for d in basis if all(m[0] == 0 for m in d)])


@pytest.mark.parametrize("name", PRIMITIVE_FIELDS)
def test_primitive_entries_match_reference(name, monkeypatch):
    F, undescended = PRIMITIVE_FIELDS[name]
    if undescended:
        _without_descent(monkeypatch)
    R = ring_make(F, ("x", "y", "z"))
    cubes = [{m: F.one for m in c} for c in CUBES]

    def ideal_of(gens):
        return Ideal(R, [Polynomial(R, d) for d in gens])

    @settings(max_examples=15, deadline=None)
    @given(st.lists(_fraction_polys(F, 3), min_size=1, max_size=2).map(lambda g: g + cubes),
           _fraction_polys(F, 3))
    def basis_and_normal_form(gens, f):
        want = ref_basis(F, GREVLEX, gens)
        I = ideal_of(gens)
        # the colength first, from the loop's leads with no basis cached
        leads = [ref_lead(GREVLEX, g) for g in want]
        assert colength(I) == count_standard_monomials(leads, 3) == brute_count(leads, (3, 3, 3))
        assert [d.terms for d in groebner_basis(I)] == want
        assert normal_form(Polynomial(R, f), I).terms == ref_reduce(F, GREVLEX, f, want)

    # binomials: an elimination of random trinomials with fraction
    # coefficients can run for minutes in either kernel
    @settings(max_examples=10, deadline=None)
    @given(st.lists(_fraction_polys(F, 2), min_size=1, max_size=2).map(lambda g: g + cubes),
           _fraction_polys(F, 2), _fraction_polys(F, 2))
    def colon_and_saturation(gens, f, g):
        cut = ref_eliminate(F, gens, [f])
        assert [d.terms for d in ideal_colon(ideal_of(gens), Polynomial(R, f)).gens] == \
            ref_basis(F, GREVLEX, [ref_exact_div(F, d, f) for d in cut])
        assert [d.terms for d in saturate(ideal_of(gens), ideal_of([g])).gens] == \
            _ref_saturation(F, gens, g)

    basis_and_normal_form()
    colon_and_saturation()


def _field_ops_raise_in_the_pair_loop(monkeypatch):
    """From now on an F_q(t) payload op called while ``_basis`` runs raises:
    the pair loop computes on operands only."""
    inside = [False]

    def guard(fn):
        def op(self, *args):
            if inside[0]:
                raise AssertionError("RationalFunctionField.%s in the pair loop" % fn.__name__)
            return fn(self, *args)
        return op

    for op in ("add", "sub", "mul", "neg", "inv"):
        monkeypatch.setattr(RationalFunctionField, op, guard(getattr(RationalFunctionField, op)))
    loop = groebner._basis

    def traced(*args):
        inside[0] = True
        try:
            return loop(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(groebner, "_basis", traced)


def test_alpha_t_cell_forms_no_fraction_in_the_pair_loop(monkeypatch):
    # every entry enters as a primitive polynomial over F_2[t] (a packed
    # int) and every reduction step is cross-multiplied, so no F_2(t) op runs
    # in the loop
    _field_ops_raise_in_the_pair_loop(monkeypatch)
    K = RationalFunctionField(F2, "t")
    R = quartic_ring(K.symbols()["t"])
    assert colength(frobenius_power(R.origin_ideal(), 3)) == 188
