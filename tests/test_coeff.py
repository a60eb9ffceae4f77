"""Exact coefficient fields: F_p, F_{p^k}, and F_{p^k}(t).

Fixed-value cases pin the documented element constructions and Frobenius
images; the hypothesis suites check the field axioms on randomized triples
for all three kinds of field, and compare the table-driven F_{p^k} and the
packed F_2(t) arithmetic with the schoolbook references below.
"""

import pickle

import pytest
from hypothesis import example, given, settings, strategies as st

from frobinv.coeff import (
    ExtensionField,
    FieldElement,
    FieldError,
    PrimeField,
    RationalFunctionField,
    field_frobenius,
    field_make,
)

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
F4 = ExtensionField(2, (1, 1, 1))          # F_2[a]/(a^2+a+1)
F9 = ExtensionField(3, (1, 0, 1), gen="b")  # F_3[b]/(b^2+1)
F8 = ExtensionField(2, (1, 1, 0, 1))       # F_2[a]/(a^3+a+1)
F16 = ExtensionField(2, (1, 1, 0, 0, 1))   # F_2[a]/(a^4+a+1)
F2T = RationalFunctionField(F2, "t")
F3T = RationalFunctionField(F3, "t")
F4T = RationalFunctionField(F4, "t")


def el(spec, text):
    return field_make(spec, text)


# -- fixed parsing / reduction cases ---------------------------------------


def test_prime_field_one():
    assert el(F2, "1") == el(F2, "1")
    assert el(F2, "1") + el(F2, "1") == el(F2, "0")


def test_extension_square_of_generator():
    # a*a reduces to a+1 modulo a^2+a+1
    assert el(F4, "a*a") == el(F4, "a+1")
    assert el(F4, "a^3") == el(F4, "1")


def test_rational_function_collapse():
    # t/(t+1) + 1/(t+1) = (t+1)/(t+1) = 1
    assert el(F2T, "t/(t+1) + 1/(t+1)") == el(F2T, "1")


def test_rational_function_canonical_form():
    # common factors cancel and the denominator is monic
    x = el(F3T, "(2*t^2+2*t)/(2*t)")
    assert x == el(F3T, "t+1")


def test_symbols_name_the_field_constants():
    assert F2.symbols() == {}
    assert F9.symbols() == {"b": el(F9, "b")}
    assert F2T.symbols() == {"t": el(F2T, "t")}
    assert F4T.symbols() == {"a": el(F4T, "a"), "t": el(F4T, "t")}
    # a parameter named like the base generator shadows it
    assert RationalFunctionField(F4, "a").symbols() == {
        "a": FieldElement(RationalFunctionField(F4, "a"), ((0, 1), (1,)))}


@pytest.mark.parametrize("K, point", [(F2T, "1"), (F3T, "2"), (F4T, "a")],
                         ids=["F2(t)", "F3(t)", "F4(t)"])
def test_ratfunc_monomial_and_evaluation(K, point):
    base = K.base
    c = el(base, point)
    assert FieldElement(K, K.monomial(c.payload, 3)) == el(K, "(%s)*t^3" % point)
    assert K.monomial(base.zero, 2) == K.zero
    f = el(K, "(t^2 + %s*t + 1)/(t + %s + 1)" % (point, point))
    at = (c * c + c * c + 1) / (c + c + 1)
    assert FieldElement(base, K.evaluate(f.payload, c.payload)) == at
    with pytest.raises(ZeroDivisionError):
        K.evaluate(el(K, "1/(t - %s)" % point).payload, c.payload)


def test_parse_rejects_garbage():
    with pytest.raises(FieldError):
        el(F4, "a +")
    with pytest.raises(FieldError):
        el(F2, "q")
    with pytest.raises(FieldError):
        el(F2T, "1/(t+t+1+1)")  # zero denominator


def test_extension_requires_irreducible_modulus():
    with pytest.raises(FieldError):
        ExtensionField(2, (1, 0, 1))  # a^2+1 = (a+1)^2 over F_2


def test_extension_order_is_bounded():
    # a^17 + a^3 + 1 is irreducible, but F_{2^17} is past the table limit
    with pytest.raises(FieldError, match="131072.*65536"):
        ExtensionField(2, (1, 0, 0, 1) + (0,) * 13 + (1,))


# -- Frobenius --------------------------------------------------------------


def test_frobenius_prime_field_fixes_elements():
    two = el(F3, "2")
    assert field_frobenius(two, 1) == two  # 2^3 = 8 = 2


def test_frobenius_extension_generator():
    a = el(F4, "a")
    assert field_frobenius(a, 1) == el(F4, "a^2")
    # F_4 has degree 2, so the square of Frobenius is the identity
    assert field_frobenius(a, 2) == a


def test_frobenius_rational_function():
    x = el(F2T, "t+1")
    assert field_frobenius(x, 2) == el(F2T, "t^4+1")


@given(st.integers(0, 4), st.integers(0, 3), st.integers(0, 3))
def test_frobenius_composes(n, e1, e2):
    x = FieldElement(F9, F9.from_int(n)) + el(F9, "b") * el(F9, str(e2 + 1))
    assert field_frobenius(field_frobenius(x, e1), e2) == field_frobenius(x, e1 + e2)


# -- field axioms on randomized triples -------------------------------------


def _prime_elements(spec):
    return st.integers(0, spec.p - 1).map(lambda n: FieldElement(spec, spec.from_int(n)))


def _f4_elements():
    a = el(F4, "a")
    return st.tuples(st.integers(0, 1), st.integers(0, 1)).map(
        lambda c: el(F4, str(c[0])) + a * el(F4, str(c[1])))


def _ratfunc_elements():
    t = el(F2T, "t")
    one = el(F2T, "1")

    def build(cs):
        num = el(F2T, str(cs[0])) + t * el(F2T, str(cs[1]))
        den = t * t * el(F2T, str(cs[2])) + t * el(F2T, str(cs[3])) + one
        return num / den

    return st.tuples(*[st.integers(0, 1)] * 4).map(build)


AXIOM_CASES = [
    ("F5", _prime_elements(F5)),
    ("F4", _f4_elements()),
    ("F2(t)", _ratfunc_elements()),
]


@pytest.mark.parametrize("label,strategy", AXIOM_CASES, ids=[c[0] for c in AXIOM_CASES])
def test_field_axioms(label, strategy):
    @settings(max_examples=50, deadline=None)
    @given(strategy, strategy, strategy)
    def check(x, y, z):
        assert x + y == y + x
        assert x * y == y * x
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x - x == y - y

    check()


@pytest.mark.parametrize("label,strategy", AXIOM_CASES, ids=[c[0] for c in AXIOM_CASES])
def test_multiplicative_inverses(label, strategy):
    @settings(max_examples=50, deadline=None)
    @given(strategy)
    def check(x):
        zero = x - x
        if x != zero:
            one = x / x
            assert (one / x) * x == one
            assert x ** 3 == x * x * x

    check()


@given(_ratfunc_elements(), _ratfunc_elements())
@settings(max_examples=50, deadline=None)
def test_fraction_reduction_is_canonical(x, y):
    # equal fractions built along different arithmetic routes share a payload
    lhs = (x + y) * (x + y)
    rhs = x * x + x * y + y * x + y * y
    assert lhs == rhs
    assert hash(lhs) == hash(rhs)


# -- differential tests against schoolbook references ------------------------------


def _trim(f):
    f = list(f)
    while f and not f[-1]:
        f.pop()
    return tuple(f)


def ref_f2_add(f, g):
    n = max(len(f), len(g))
    f, g = tuple(f) + (0,) * (n - len(f)), tuple(g) + (0,) * (n - len(g))
    return _trim(a ^ b for a, b in zip(f, g))


def ref_f2_mul(f, g):
    out = [0] * (len(f) + len(g))
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] ^= b
    return _trim(out)


def ref_f2_divmod(f, g):
    f, quo = list(_trim(f)), [0] * len(f)
    while len(f) >= len(g):
        k = len(f) - len(g)
        quo[k] = 1
        for i, b in enumerate(g):
            f[k + i] ^= b
        f = list(_trim(f))
    return _trim(quo), tuple(f)


def ref_f2_fraction(num, den):
    """num/den over F_2 reduced by plain Euclid, as an F_2(t) payload."""
    num, den = _trim(num), _trim(den)
    if not num:
        return ((), (1,))
    g, h = num, den
    while h:
        g, h = h, ref_f2_divmod(g, h)[1]
    return ref_f2_divmod(num, g)[0], ref_f2_divmod(den, g)[0]


def _f2_polys(min_size, max_size):
    return st.lists(st.integers(0, 1), min_size=min_size, max_size=max_size).map(
        lambda c: tuple(c) + (1,))


# short operands, and ones past 255 coefficients, where the packed product
# must cut its operand into pieces to keep every byte count below 256
F2_DENS = st.one_of(_f2_polys(0, 12), _f2_polys(255, 300))
F2_NUMS = st.one_of(st.just(()), F2_DENS)
LONG = (1,) * 300


def ref_f2_payload(num, den):
    """The F_2(t) payload of num/den: the reference fraction in bytes."""
    return tuple(bytes(f) for f in ref_f2_fraction(num, den))


@settings(max_examples=40, deadline=None)
@given(F2_NUMS, F2_DENS, F2_NUMS, F2_DENS)
@example(LONG, (1,), LONG, (0, 1))
@example(LONG, LONG[:-1] + (0, 1), (1, 1), LONG)
# factors of 255 coefficients take one multiply, of 256 the cut into pieces
@example((1,) * 255, (0, 1), (1,) * 255, (1, 1))
@example((1,) * 256, (1,) * 255, (1,) * 256, (0, 1))
@example((1,) * 255, (1,), (0,) * 255 + (1,), (1,) * 256)
# denominators t(t+1) and t(t^2+t+1): the sum keeps a factor t of their gcd
@example((1,), (0, 1, 1), (1,), (0, 1, 1, 1))
@example((1, 1), (0, 1, 1), (1,), (0, 1, 1, 1))
# t/t^2 + 1/t cancels to zero
@example((0, 1), (0, 0, 1), (1,), (0, 1))
# unit numerators and denominators
@example((1,), (1, 1, 0, 1), (1, 0, 1), (1,))
@example((1, 1), (1,), (1,), (1,))
def test_f2t_packed_ops_match_tuple_euclid(n1, d1, n2, d2):
    x, y = F2T.make(n1, d1), F2T.make(n2, d2)
    assert x == ref_f2_payload(n1, d1)
    assert F2T.add(x, y) == ref_f2_payload(
        ref_f2_add(ref_f2_mul(n1, d2), ref_f2_mul(n2, d1)), ref_f2_mul(d1, d2))
    assert F2T.add(x, x) == F2T.zero
    assert F2T.mul(x, y) == ref_f2_payload(ref_f2_mul(n1, n2), ref_f2_mul(d1, d2))
    if n1:
        assert F2T.inv(x) == ref_f2_payload(d1, n1)


def test_f3t_products_of_polynomials_run_no_division(monkeypatch):
    # a denominator 1 is a unit: the tuple path cancels nothing against it
    from frobinv import coeff
    calls = []
    udivmod = coeff._udivmod

    def counted(*args):
        calls.append(args)
        return udivmod(*args)
    monkeypatch.setattr(coeff, "_udivmod", counted)
    x, y = el(F3T, "t^2+2*t+1"), el(F3T, "2*t^3+t")
    assert x * y == el(F3T, "2*t^5+t^4+2*t^2+t")
    assert x + y == el(F3T, "2*t^3+t^2+1")
    assert calls == []
    assert el(F3T, "t^2+2*t+1") / el(F3T, "t+1") == el(F3T, "t+1")
    assert calls


def _ext_digits(K, a):
    return [a // K.p ** i % K.p for i in range(K.degree)]


def _ext_code(K, coeffs):
    return sum(c % K.p * K.p ** i for i, c in enumerate(coeffs))


def ref_ext_mul(K, a, b):
    """Schoolbook product of two codes, reduced mod the modulus."""
    p, k = K.p, K.degree
    f, g = _ext_digits(K, a), _ext_digits(K, b)
    prod = [0] * (2 * k - 1)
    for i, u in enumerate(f):
        for j, v in enumerate(g):
            prod[i + j] = (prod[i + j] + u * v) % p
    for top in range(2 * k - 2, k - 1, -1):
        c = prod[top]
        for i, m in enumerate(K.modulus):
            prod[top - k + i] = (prod[top - k + i] - c * m) % p
    return _ext_code(K, prod[:k])


EXT_FIELDS = {"F4": F4, "F8": F8, "F9": F9, "F16": F16}


@pytest.mark.parametrize("name", EXT_FIELDS)
def test_extension_tables_match_schoolbook(name):
    K = EXT_FIELDS[name]
    codes = st.integers(0, K.p ** K.degree - 1)

    @settings(max_examples=60, deadline=None)
    @given(codes, codes)
    def check(a, b):
        da, db = _ext_digits(K, a), _ext_digits(K, b)
        assert K.add(a, b) == _ext_code(K, [u + v for u, v in zip(da, db)])
        assert K.sub(a, b) == _ext_code(K, [u - v for u, v in zip(da, db)])
        assert K.neg(a) == _ext_code(K, [-u for u in da])
        assert K.mul(a, b) == ref_ext_mul(K, a, b)
        power = 1
        for _ in range(K.p):
            power = ref_ext_mul(K, power, a)
        assert K.frob(a) == power
        if a:
            assert ref_ext_mul(K, a, K.inv(a)) == 1
        else:
            with pytest.raises(ZeroDivisionError):
                K.inv(a)

    check()


@pytest.mark.parametrize("p,modulus", [(3, (1, 0, 1)), (3, (1, 2, 0, 1)),
                                       (2, (1, 1, 1, 1, 1)), (2, (1, 1, 0, 0, 1))],
                         ids=["F9", "F27", "F16-a^4+a^3+a^2+a+1", "F16-a^4+a+1"])
def test_extension_antilog_walks_first_primitive_element(p, modulus):
    # b^2 + 1 over F_3 and a^4 + a^3 + a^2 + a + 1 over F_2 are not
    # primitive: the search passes over the generator to the first code of
    # full order
    K = ExtensionField(p, modulus)
    q1 = p ** K.degree - 1

    def order(g):
        n, power = 1, g
        while power != 1:
            n, power = n + 1, ref_ext_mul(K, power, g)
        return n

    g = next(c for c in range(p, q1 + 1) if order(c) == q1)
    powers = [1]
    while len(powers) < q1:
        powers.append(ref_ext_mul(K, powers[-1], g))
    assert list(K._exp[:q1]) == powers


def _ratfunc_payloads(K):
    coeffs = st.integers(0, K.base.p ** getattr(K.base, "degree", 1) - 1)
    num = st.lists(coeffs, max_size=4)
    den = st.lists(coeffs, max_size=3).map(lambda c: tuple(c) + (1,))
    return st.tuples(num, den).map(lambda nd: K.make(*nd))


SPECS = {"F2": F2, "F5": F5, "F4": F4, "F9": F9, "F16": F16,
         "F2(t)": F2T, "F3(t)": F3T, "F4(t)": F4T}


def _payloads(K):
    if isinstance(K, RationalFunctionField):
        return _ratfunc_payloads(K)
    return st.integers(0, K.p ** getattr(K, "degree", 1) - 1)


@pytest.mark.parametrize("name", SPECS)
def test_payload_round_trips(name):
    K = SPECS[name]
    copy = pickle.loads(pickle.dumps(K))
    assert copy == K and hash(copy) == hash(K)
    if isinstance(K, ExtensionField):
        assert copy._exp is K._exp  # tables are per process, not pickled

    @settings(max_examples=40, deadline=None)
    @given(_payloads(K))
    def check(payload):
        x = FieldElement(K, payload)
        assert field_make(K, K.render(payload)) == x
        assert pickle.loads(pickle.dumps(x)) == x
        if isinstance(K, RationalFunctionField) and payload[0]:
            assert K.inv(payload) == K.make(payload[1], payload[0])

    check()


# -- the Groebner kernel's ops over base(t) -------------------------------------

def _fractions_over(K, deg):
    q = K.base.p ** getattr(K.base, "degree", 1)
    upoly = st.tuples(st.lists(st.integers(0, q - 1), max_size=deg),
                      st.integers(1, q - 1)).map(lambda lt: tuple(lt[0]) + (lt[1],))
    return st.tuples(upoly, upoly).map(lambda nd: K.make(*nd))


@pytest.mark.parametrize("K", [F2T, F3T, F4T, RationalFunctionField(F4, "t", tuple)],
                         ids=["F2(t)", "F3(t)", "F4(t)", "F2(t)-tuples"])
def test_primitive_and_cofactors_stay_in_the_polynomial_ring(K):
    unit = K.one[1]

    def polynomial(c):
        return c[1] == unit

    @settings(max_examples=40, deadline=None)
    @given(st.lists(_fractions_over(K, 3), min_size=2, max_size=5), st.integers(0, 3))
    def check(coeffs, k):
        # a common factor and a common denominator, for primitive to remove
        common = K.mul(K.make((1,) * k + (1,), (1,)), K.make((1,), (0, 1)))
        terms = {i: K.mul(common, c) for i, c in enumerate(coeffs)}
        prim = K.primitive(terms, 0)
        assert prim.keys() == terms.keys() and all(map(polynomial, prim.values()))
        ratio = K.mul(prim[0], K.inv(terms[0]))
        assert all(prim[m] == K.mul(ratio, c) for m, c in terms.items())
        assert K.primitive(prim, 0) is prim     # content 1: nothing left to divide
        c, d = terms[0], terms[1]
        u, v = K.cofactors(c, d)
        assert polynomial(u) and polynomial(v) and K.mul(u, d) == K.mul(v, c)
        assert K.cofactors(u, v) == (u, v)      # no common factor
        assert K.cofactors(c, c) == (K.one, K.one)
        assert K.cofactors(K.mul(u, d), d) == (u, K.one)  # a polynomial quotient

    check()


def test_field_defaults_of_the_kernel_ops():
    # over a field the primitive part is the monic associate
    for K in (F3, F9):
        a = K.from_int(2)
        assert K.primitive({0: a, 1: K.one}, 0) == {0: K.one, 1: K.inv(a)}
        assert K.cofactors(K.one, a) == (K.inv(a), K.one)
        terms = {0: K.one, 1: a}
        assert K.primitive(terms, 0) is terms and K.monic(terms, 0) is terms
