"""Exact coefficient fields: F_p, F_{p^k}, and F_{p^k}(t).

Fixed-value cases pin the documented element constructions and Frobenius
images; the hypothesis suites check the field axioms on randomized triples
for all three kinds of field, and compare the table-driven F_{p^k} and the
base(t) arithmetic over F_2, F_3, F_4 and F_9 with the schoolbook references
below.
"""

import operator
import pickle
import time

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
F9T = RationalFunctionField(F9, "t")


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


def test_characteristic_is_bounded():
    # 2^61 - 1 is prime, but its trial division would take 2^30 steps
    start = time.perf_counter()
    with pytest.raises(FieldError, match="2305843009213693951 exceeds the limit 2\\^32"):
        PrimeField(2305843009213693951)
    assert time.perf_counter() - start < 1
    assert PrimeField(4294967291).p == 4294967291  # the largest prime below 2^32


@pytest.mark.parametrize("call", [
    lambda: field_make(F2T, "t^100000000"),
    lambda: el(F3T, "t+1") ** 10 ** 7,
    lambda: el(F3T, "1/t") ** -(10 ** 7),
    lambda: el(F2T, "t").frobenius(40),
    lambda: el(F2T, "1").frobenius(10 ** 9),
], ids=["parsed-power", "power", "negative-power", "twist", "twist-of-a-constant"])
def test_ratfunc_powers_and_twists_are_bounded(call):
    # over F_q(t) a power of positive t-degree, and a twist t -> t^(p^e),
    # grow with the exponent: past 2^16 they are refused at once
    start = time.perf_counter()
    with pytest.raises(FieldError, match="exceeds the limit 65536 = 2\\^16"):
        call()
    assert time.perf_counter() - start < 1


def test_ratfunc_powers_and_twists_at_the_limit():
    assert el(F2T, "(t+1)^65536") == el(F2T, "t^65536+1")
    assert el(F2T, "t").frobenius(16) == el(F2T, "t^65536")
    # a constant of F_q(t), and any element of a finite field, has no such bound
    assert el(F3T, "2") ** (10 ** 7 + 1) == el(F3T, "2")
    assert el(F4T, "a") ** -(10 ** 9) == el(F4T, "a^2")
    assert field_frobenius(el(F4, "a"), 41) == el(F4, "a^2")


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


def _ratfunc_elements(K):
    t = el(K, "t")
    one = el(K, "1")

    def build(cs):
        c0, c1, c2, c3 = (FieldElement(K, K.monomial(c, 0)) for c in cs)
        return (c0 + t * c1) / (t * t * c2 + t * c3 + one)

    q = K.base.p ** getattr(K.base, "degree", 1)
    return st.tuples(*[st.integers(0, q - 1)] * 4).map(build)


AXIOM_CASES = [
    ("F5", _prime_elements(F5)),
    ("F4", _f4_elements()),
    ("F2(t)", _ratfunc_elements(F2T)),
    ("F3(t)", _ratfunc_elements(F3T)),
    ("F4(t)", _ratfunc_elements(F4T)),
    ("F9(t)", _ratfunc_elements(F9T)),
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


@given(_ratfunc_elements(F2T), _ratfunc_elements(F2T))
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


def _minus_one(base):
    m = base.zero
    for _ in range(base.p - 1):
        m = base.add(m, base.one)
    return m


def ref_add(base, f, g):
    n = max(len(f), len(g))
    f, g = tuple(f) + (0,) * (n - len(f)), tuple(g) + (0,) * (n - len(g))
    return _trim(base.add(a, b) for a, b in zip(f, g))


def ref_mul(base, f, g):
    out = [0] * (len(f) + len(g))
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = base.add(out[i + j], base.mul(a, b))
    return _trim(out)


def ref_divmod(base, f, g):
    f, quo = list(_trim(f)), [0] * len(f)
    ilc, m = base.inv(g[-1]), _minus_one(base)
    while len(f) >= len(g):
        k = len(f) - len(g)
        quo[k] = c = base.mul(f[-1], ilc)
        minus_c = base.mul(m, c)
        for i, b in enumerate(g):
            f[k + i] = base.add(f[k + i], base.mul(minus_c, b))
        f = list(_trim(f))
    return _trim(quo), tuple(f)


def ref_fraction(base, num, den):
    """num/den reduced by plain Euclid, the denominator made monic."""
    num, den = _trim(num), _trim(den)
    if not num:
        return ((), (1,))
    g, h = num, den
    while h:
        g, h = h, ref_divmod(base, g, h)[1]
    num, den = ref_divmod(base, num, g)[0], ref_divmod(base, den, g)[0]
    s = base.inv(den[-1])
    return tuple(base.mul(c, s) for c in num), tuple(base.mul(c, s) for c in den)


def ref_payload(K, num, den):
    """The payload of num/den in K: the reference fraction, on every base."""
    return ref_fraction(K.base, num, den)


def is_ratfunc_payload(K, a):
    """a is (num, den): tuples of base payloads with no trailing zero, den monic."""
    q = K.base.p ** getattr(K.base, "degree", 1)
    num, den = a
    return (type(a) is tuple and type(num) is tuple and type(den) is tuple
            and all(type(c) is int and 0 <= c < q for c in num + den)
            and num[-1:] != (0,) and den[-1:] == (1,))


def _upolys(q, min_size, max_size):
    return st.tuples(st.lists(st.integers(0, q - 1), min_size=min_size, max_size=max_size),
                     st.integers(1, q - 1)).map(lambda c: tuple(c[0]) + (c[1],))


LONG = (1,) * 300
# inputs (n1, d1, n2, d2) for F_2(t): factors of 255 coefficients take one
# packed multiply, of 256 the cut into pieces that keeps every byte count
# below 256
F2_EXAMPLES = [
    (LONG, (1,), LONG, (0, 1)),
    (LONG, LONG[:-1] + (0, 1), (1, 1), LONG),
    ((1,) * 255, (0, 1), (1,) * 255, (1, 1)),
    ((1,) * 256, (1,) * 255, (1,) * 256, (0, 1)),
    ((1,) * 255, (1,), (0,) * 255 + (1,), (1,) * 256),
    # denominators t(t+1) and t(t^2+t+1): the sum keeps a factor t of their gcd
    ((1,), (0, 1, 1), (1,), (0, 1, 1, 1)),
    ((1, 1), (0, 1, 1), (1,), (0, 1, 1, 1)),
    # t/t^2 + 1/t cancels to zero
    ((0, 1), (0, 0, 1), (1,), (0, 1)),
    # unit numerators and denominators
    ((1,), (1, 1, 0, 1), (1, 0, 1), (1,)),
    ((1, 1), (1,), (1,), (1,)),
]
RATFUNC_BASES = {"F2": F2T, "F3": F3T, "F4": F4T, "F9": F9T}


@pytest.mark.parametrize("name", RATFUNC_BASES)
def test_ratfunc_ops_match_schoolbook(name):
    # over F_2 also operands past 255 coefficients, where the packed product
    # must cut its operand into pieces
    K = RATFUNC_BASES[name]
    q = K.base.p ** getattr(K.base, "degree", 1)
    dens = _upolys(q, 0, 12)
    if K is F2T:
        dens = st.one_of(dens, _upolys(q, 255, 300))
    nums = st.one_of(st.just(()), dens)
    base = K.base

    @settings(max_examples=40, deadline=None)
    @given(nums, dens, nums, dens)
    def check(n1, d1, n2, d2):
        x, y = K.make(n1, d1), K.make(n2, d2)
        assert x == ref_payload(K, n1, d1)
        assert K.add(x, y) == ref_payload(K, ref_add(base, ref_mul(base, n1, d2),
                                                     ref_mul(base, n2, d1)),
                                          ref_mul(base, d1, d2))
        assert K.add(x, K.neg(x)) == K.sub(y, y) == K.zero
        assert K.mul(x, y) == ref_payload(K, ref_mul(base, n1, n2), ref_mul(base, d1, d2))
        assert K.frob(x) == K.pow(x, K.p)
        if n1:
            assert K.inv(x) == ref_payload(K, d1, n1)

    # 1/(t(t+1)) + 1/(t(t-1)) = 2/(t^2-1): the sum's numerator keeps the
    # factor t of the denominators' gcd
    for case in [((1,), (0, 1, 1), (1,), (0, K.p - 1, 1))] + (F2_EXAMPLES if K is F2T else []):
        check = example(*case)(check)
    check()


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
         "F2(t)": F2T, "F3(t)": F3T, "F4(t)": F4T, "F9(t)": F9T}


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


# -- the Groebner kernel's op tables ---------------------------------------------

def _fractions_over(K, deg, q=None):
    q = q or K.base.p ** getattr(K.base, "degree", 1)
    upoly = st.tuples(st.lists(st.integers(0, q - 1), max_size=deg),
                      st.integers(1, q - 1)).map(lambda lt: tuple(lt[0]) + (lt[1],))
    return st.tuples(upoly, upoly).map(lambda nd: K.make(*nd))


# (spec, coefficient codes drawn below q): F_4(t) inputs over F_2 descend
# to packed F_2[t] ops, and F_9(t) inputs over F_3 to F_3[t]
KERNEL_CASES = {"F2(t)": (F2T, 2), "F3(t)": (F3T, 3), "F4(t)": (F4T, 4),
                "F2(t)-tuples": (F4T, 2), "F9(t)": (F9T, 9)}


@pytest.mark.parametrize("name", KERNEL_CASES)
def test_primitive_and_cofactors_stay_in_the_polynomial_ring(name):
    K, q = KERNEL_CASES[name]

    @settings(max_examples=40, deadline=None)
    @given(st.lists(_fractions_over(K, 3, q), min_size=2, max_size=5), st.integers(0, 3))
    def check(coeffs, k):
        # a common factor and a common denominator, for enter and primitive
        # to remove
        common = K.mul(K.make((1,) * k + (1,), (1,)), K.make((1,), (0, 1)))
        terms = {i: K.mul(common, c) for i, c in enumerate(coeffs)}
        ops = K.kernel(terms.values())
        descends = K.base.kind == "extension" and all(
            c < K.p for a in terms.values() for f in a for c in f)
        assert ops.field == (RationalFunctionField(K.base.base, "t") if descends else K)
        num, scale = ops.enter(terms)
        assert num.keys() == terms.keys()
        back = ops.leave(num, scale)
        assert back == terms and all(is_ratfunc_payload(K, a) for a in back.values())
        prim = ops.primitive(num, 0)
        assert ops.primitive(prim, 0) is prim     # content 1: nothing left to divide
        assert ops.leave(prim, prim[0]) == ops.leave(num, num[0])  # the same monic associate
        c, d = prim[0], prim[1]
        u, v = ops.cofactors(c, d)
        assert ops.mul(u, d) == ops.mul(v, c)
        assert ops.cofactors(u, v) == (u, v)      # no common factor
        assert ops.cofactors(c, c) == (ops.one, ops.one)
        assert ops.cofactors(ops.mul(u, d), d) == (u, ops.one)  # a polynomial quotient
        assert ops.add(c, ops.neg(c)) == ops.zero

    check()


@pytest.mark.parametrize("name", KERNEL_CASES)
def test_every_ratfunc_payload_is_a_pair_of_tuples(name):
    # one payload format on every base: each op, and each kernel leave, writes
    # tuples of base payloads; a run that descends from F_4(t) to F_2(t)
    # leaves the payloads F_4(t)'s own ops give
    K, q = KERNEL_CASES[name]
    polys = st.lists(st.integers(0, q - 1), max_size=4)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(polys, polys), min_size=2, max_size=4),
           st.integers(0, q - 1), st.integers(-3, 5))
    def check(pairs, c, n):
        xs = [K.make(num, tuple(den) + (1,)) for num, den in pairs]
        x, y = xs[0], xs[1]
        out = xs + [K.from_int(n), K.from_int(1), K.add(x, y), K.sub(x, y), K.mul(x, y),
                    K.neg(x), K.frob(x), K.monomial(c, abs(n))]
        if x[0]:
            out.append(K.inv(x))
        symbols = [e.payload for e in K.symbols().values()]
        assert all(is_ratfunc_payload(K, a) for a in out + symbols)
        terms = {i: a for i, a in enumerate(out) if a[0]}
        ops = K.kernel(terms.values())
        descends = K.base.kind == "extension" and all(
            c < K.p for a in terms.values() for f in a for c in f)
        assert ops.field == (RationalFunctionField(K.base.base, "t") if descends else K)
        num, scale = ops.enter(terms)
        assert ops.leave(num, scale) == terms
        lead = next(iter(terms))
        prim = ops.primitive(num, lead)
        monic = ops.leave(prim, prim[lead])
        assert all(is_ratfunc_payload(K, a) for a in monic.values())
        s = K.inv(terms[lead])
        assert monic == {i: K.mul(s, a) for i, a in terms.items()}

    check()


def test_field_defaults_of_the_kernel_ops():
    # over a field an operand is its payload and the primitive part is the
    # monic associate
    b = F9.symbols()["b"].payload
    for F, payloads in ((F3, []), (F9, [b])):
        K = F.kernel(payloads)
        assert K.field is F
        a = F.from_int(2)
        assert K.primitive({0: a, 1: F.one}, 0) == {0: F.one, 1: F.inv(a)}
        assert K.cofactors(F.one, a) == (F.inv(a), F.one)
        terms = {0: F.one, 1: a}
        assert K.primitive(terms, 0) is terms and K.enter(terms) == (terms, F.one)
        assert K.leave({0: a}, a) == {0: F.one} and K.leave(terms, F.one) is terms
    # the smallest field the payloads generate
    assert F9.kernel([2, 1]).field is F9.base and F4.kernel([0, 1]).field is F4.base
    assert F4T.kernel([F4T.one]).field == F2T and F4T.kernel([F4T.one]).field is not F4T
    assert F4T.kernel([F4T.symbols()["a"].payload]).field is F4T


@pytest.mark.parametrize("K, payloads", [
    (F2, [1]), (F4, [F4.symbols()["a"].payload]), (F2T, [F2T.symbols()["t"].payload]),
], ids=["F2", "F4", "F2(t)"])
def test_characteristic_two_kernel_adds_by_xor(K, payloads):
    # the XOR add and the identity neg live in the kernel's op table only;
    # the payload ops add by Zech logarithms and by reduced fractions
    ops = K.kernel(payloads)
    assert ops.field is K and ops.add is operator.xor
    x = ops.enter({0: payloads[0]})[0][0]
    assert all(ops.neg(a) is a for a in (ops.zero, ops.one, x))
