"""Exact coefficient arithmetic for the three supported field kinds.

* ``PrimeField(p)`` -- integers mod a prime p; payloads are ints in [0, p).
* ``ExtensionField(p, modulus)`` -- F_q = F_p[a]/(modulus), q = p^k <= 2^16,
  for a monic irreducible modulus (little-endian coefficient tuple, length
  k+1).  The payload of sum c_i a^i is the int code sum c_i p^i; mul, inv and
  frob are lookups in log/antilog tables built once per process, and add is
  XOR for p = 2 and a Zech-logarithm lookup for odd p.
* ``RationalFunctionField(base, param)`` -- base(t).  Payloads are
  ``(num, den)``: reduced fractions of univariate polynomials, little-endian
  sequences of base payloads, with monic denominator.  Over F_2 they are
  ``bytes`` (byte i the coefficient of t^i) and the ops run on them read as
  ints; other bases keep tuples, and the tuple helpers serve every base but
  F_2.

Every element is a :class:`FieldElement` tagging a payload with its
:class:`FieldSpec`.  Payloads are plain hashable values (ints, tuples,
bytes) with raw ops on the spec (``add``/``mul``/``inv``/...).  The Groebner
kernel computes on operands instead, through the op table ``kernel``
returns: ``enter`` turns payload dicts into operands and ``leave`` turns
operands back into payloads, once per run, and between the two only the
table's ops run.  Over a finite field an operand is the payload and a
primitive entry is a monic one.  Over base(t) an operand is a polynomial
over base[t] -- a packed int over F_2 (byte i the coefficient of t^i, XOR
adds), a tuple otherwise -- so ``cofactors`` gives u/v = c/d in lowest terms
as two polynomials and a reduction forms no fraction.  The table is that of
the smallest field the payloads generate: an element of F_p is encoded the
same way in F_{p^k} and F_p, and so are the fractions over F_p in F_{p^k}(t)
and F_p(t), so a run over either gives the same payloads.  No
other module builds, takes apart or classifies a payload: named constants
come from ``symbols()``, c t^k from ``monomial`` and t -> alpha from
``evaluate``, and a field's kind is its ``kind`` string.
"""

import operator
from collections import namedtuple
from functools import partial, reduce

from . import InputError


class FieldError(InputError):
    pass


# ---------------------------------------------------------------------------
# univariate polynomial helpers over a base spec
#
# representation: tuple of base payloads, little-endian, no trailing zeros;
# the zero polynomial is the empty tuple.

def _utrim_spec(base, f):
    n = len(f)
    z = base.zero
    while n and f[n - 1] == z:
        n -= 1
    return tuple(f[:n])


def _uadd(base, f, g):
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, c in enumerate(g):
        out[i] = base.add(out[i], c)
    return _utrim_spec(base, out)


def _umul(base, f, g):
    if not f or not g:
        return ()
    out = [base.zero] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == base.zero:
            continue
        for j, b in enumerate(g):
            out[i + j] = base.add(out[i + j], base.mul(a, b))
    return _utrim_spec(base, out)


def _udivmod(base, f, g):
    if not g:
        raise ZeroDivisionError("univariate division by zero")
    f = list(f)
    dg = len(g) - 1
    ilc = base.inv(g[-1])
    quo = [base.zero] * max(0, len(f) - dg)
    while len(f) - 1 >= dg and f:
        k = len(f) - 1 - dg
        c = base.mul(f[-1], ilc)
        quo[k] = c
        for i, b in enumerate(g):
            f[k + i] = base.sub(f[k + i], base.mul(c, b))
        while f and f[-1] == base.zero:
            f.pop()
    return _utrim_spec(base, quo), _utrim_spec(base, f)


def _ugcd(base, f, g):
    """The monic gcd of f and g, not both zero."""
    while g:
        f, g = g, _udivmod(base, f, g)[1]
    ilc = base.inv(f[-1])
    return tuple(base.mul(c, ilc) for c in f)


def _ucancel(base, f, g):
    """f and g divided by their gcd."""
    if len(f) == 1 or len(g) == 1:  # a non-zero constant: the gcd is 1
        return f, g
    h = _ugcd(base, f, g)
    if len(h) == 1:
        return f, g
    return _udivmod(base, f, h)[0], _udivmod(base, g, h)[0]


def _umonic(base, num, den):
    """num/den scaled so the denominator is monic."""
    if den[-1] == base.one:
        return (num, den)
    ilc = base.inv(den[-1])
    return (tuple(base.mul(c, ilc) for c in num), tuple(base.mul(c, ilc) for c in den))


def _ufrob(base, f):
    """f(t) ^ p = sum c_i^p t^(i p) in characteristic p."""
    if not f:
        return ()
    p = base.p
    out = [base.zero] * ((len(f) - 1) * p + 1)
    for i, c in enumerate(f):
        out[i * p] = base.frob(c)
    return _utrim_spec(base, out)


# ---------------------------------------------------------------------------
# F_2[t] packed one coefficient per byte, f <-> sum f_i 256^i.  XOR adds.  Byte
# k of an integer product counts the pairs i + j = k with f_i = g_j = 1: exact
# while below 256, and its low bit is the F_2 coefficient.

_PIECE2 = (1 << 8 * 255) - 1  # 255 coefficients: byte counts stay <= 255
_ONES2 = int.from_bytes(b"\x01" * 4096, "little")  # byte k's low bit, k < 4096


def _unpack2(a):
    return a.to_bytes((a.bit_length() + 7) >> 3, "little")


def _clmul2(a, b):
    """Product in F_2[t]: one multiply while the shorter factor has at most
    255 coefficients (and the product fits _ONES2), else that factor cut into
    pieces of 255."""
    if a.bit_length() > b.bit_length():
        a, b = b, a
    n = a.bit_length() + b.bit_length()
    if a <= _PIECE2 and n <= 8 * 4096:
        return a * b & _ONES2
    ones = int.from_bytes(b"\x01" * ((n + 7) >> 3), "little")
    out = 0
    for s in range(0, a.bit_length(), 8 * 255):
        out ^= ((a >> s & _PIECE2) * b & ones) << s
    return out


def _quo2(a, b):
    """a / b in F_2[t], for b dividing a."""
    quo, nb = 0, b.bit_length()
    while a:
        s = a.bit_length() - nb
        quo ^= 1 << s
        a ^= b << s
    return quo


def _gcd2(a, b):
    """gcd(a, b) in F_2[t], with no division once a remainder is the unit 1."""
    while b > 1:
        nb = b.bit_length()
        while (s := a.bit_length() - nb) >= 0:
            a ^= b << s
        a, b = b, a
    return b or a


def _cancel2(a, b):
    """a and b divided by their gcd."""
    h = _gcd2(a, b)
    if h == 1:
        return a, b
    return _quo2(a, h), _quo2(b, h)


def _render_upoly(base, f, var):
    """Canonical string of sum f_i var^i, f a tuple of base payloads."""
    ext = isinstance(base, ExtensionField)
    terms = []
    for i in range(len(f) - 1, -1, -1):
        c = f[i]
        if c == base.zero:
            continue
        cs = base.render(c)
        if i == 0:
            terms.append("(%s)" % cs if ext and ("+" in cs or "*" in cs) else cs)
            continue
        head = var if i == 1 else "%s^%d" % (var, i)
        if c == base.one:
            terms.append(head)
        elif ext and ("+" in cs):
            terms.append("(%s)*%s" % (cs, head))
        else:
            terms.append("%s*%s" % (cs, head))
    return "+".join(terms) if terms else "0"


def _digits(code, p, n):
    """The n little-endian base-p digits of code."""
    return [code // p ** i % p for i in range(n)]


# ---------------------------------------------------------------------------
# field specs

# The Groebner kernel's ops on operands: the spec of the field they compute
# over; zero, one, add, mul, neg; cofactors(c, d) = (u, v) with u/v = c/d in
# lowest terms, v = one when d | c; primitive(terms, lead), a dict divided by
# its content (monic over a field); enter(terms) = (operand dict, scale), a
# payload dict times scale; leave(terms, s), the payloads of terms / s.
Kernel = namedtuple("Kernel", "field zero one add mul neg cofactors primitive enter leave")


def _same(a):
    return a  # -a in characteristic 2


class FieldSpec:
    """Base class; concrete specs implement raw ops on payloads."""

    kind = None

    # raw-op interface (implemented by subclasses):
    #   zero, one           -- payload constants
    #   add/sub/mul/neg/inv -- payload arithmetic
    #   frob(a)             -- a^p
    #   render(a)           -- canonical string, parseable by field_make

    def from_int(self, n):
        raise NotImplementedError

    def symbols(self):
        """Name -> FieldElement of each named constant; no variable may take one."""
        return {}

    def kernel(self, payloads):
        """The op table (``Kernel``) for a run on these payloads: over a field
        an operand is its payload and a primitive dict is a monic one."""
        one, mul, inv = self.one, self.mul, self.inv

        def cofactors(c, d):
            return (c, d) if d == one else (mul(c, inv(d)), one)

        def leave(terms, scale):
            s = inv(scale)
            return terms if s == one else {m: mul(s, c) for m, c in terms.items()}

        char2 = self.p == 2
        return Kernel(self, self.zero, one, operator.xor if char2 else self.add, mul,
                      _same if char2 else self.neg, cofactors,
                      lambda terms, lead: leave(terms, terms[lead]),
                      lambda terms: (terms, one), leave)

    def pow(self, a, n):
        if n < 0:
            a, n = self.inv(a), -n
        r = self.one
        while n:
            if n & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            n >>= 1
        return r

    def key(self):
        raise NotImplementedError

    def __eq__(self, other):
        return isinstance(other, FieldSpec) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())


class PrimeField(FieldSpec):
    kind = "prime"

    def __init__(self, p):
        if p < 2 or any(p % d == 0 for d in range(2, int(p ** 0.5) + 1)):
            raise FieldError("characteristic must be prime, got %r" % (p,))
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def key(self):
        return ("prime", self.p)

    def from_int(self, n):
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero in F_%d" % self.p)
        return pow(a, -1, self.p)

    def frob(self, a):
        return a  # a^p = a on the prime field

    def render(self, a):
        return str(a)

    def __repr__(self):
        return "F_%d" % self.p


MAX_EXTENSION_ORDER = 1 << 16  # tables hold O(q) entries
_TABLES = {}  # ExtensionField.key() -> its (read-only) tables, built once per process


class ExtensionField(FieldSpec):
    """F_{p^k} = F_p[gen]/(modulus), modulus monic irreducible of degree k."""

    kind = "extension"

    def __init__(self, p, modulus, gen="a"):
        base = PrimeField(p)
        self.p = p
        self.base = base
        mod = _utrim_spec(base, tuple(c % p for c in modulus))
        if len(mod) < 3:
            raise FieldError("extension modulus must have degree >= 2")
        if mod[-1] != 1:
            raise FieldError("extension modulus must be monic")
        self.modulus = mod
        self.degree = len(mod) - 1
        self.gen = gen
        q = p ** self.degree
        if q > MAX_EXTENSION_ORDER:
            raise FieldError("extension field of order %d exceeds the limit %d = 2^16"
                             % (q, MAX_EXTENSION_ORDER))
        tables = _TABLES.get(self.key())
        if tables is None:
            if not self._modulus_irreducible():
                raise FieldError("extension modulus is reducible over F_%d" % p)
            tables = _TABLES[self.key()] = self._build_tables()
        self._exp, self._log, self._zech, self._frob = tables
        self._q1 = q - 1
        self.zero = 0
        self.one = 1

    def __reduce__(self):
        # by constructor arguments: each process builds its own tables once
        return ExtensionField, (self.p, self.modulus, self.gen)

    def _modulus_irreducible(self):
        # trial division by every monic polynomial of degree 1..k//2
        for d in range(1, self.degree // 2 + 1):
            for code in range(self.p ** d):
                cand = tuple(_digits(code, self.p, d)) + (1,)
                if not _udivmod(self.base, self.modulus, cand)[1]:
                    return False
        return True

    def _build_tables(self):
        """Antilog (doubled, so exp[i + j] needs no reduction), log, Zech-log
        and Frobenius tables, from the first primitive element in code order."""
        p, k = self.p, self.degree
        q1 = p ** k - 1
        for g in range(p, q1 + 1):
            exp = self._powers(g)
            if len(exp) == q1:
                break
        log = [0] * (q1 + 1)
        for i, c in enumerate(exp):
            log[c] = i
        # zech[d] = log(1 + g^d), None where 1 + g^d = 0 (1 + c: constant digit + 1)
        zech = []
        for c in exp:
            s = c - c % p + (c + 1) % p
            zech.append(log[s] if s else None)
        frob = [0] + [exp[log[c] * p % q1] for c in range(1, q1 + 1)]
        return tuple(exp + exp), tuple(log), tuple(zech), tuple(frob)

    def _powers(self, g):
        """Codes of 1, g, g^2, ... up to the first power equal to 1 again."""
        p, k = self.p, self.degree
        exp = [1]
        if p == 2:
            # c * g is the XOR of c * a^i over the set bits i of g, and c * a
            # is a shift, then an XOR with the modulus when bit k comes up
            mcode = sum(c << i for i, c in enumerate(self.modulus))
            c = 1
            while True:
                out, h = 0, g
                while h:
                    if h & 1:
                        out ^= c
                    h >>= 1
                    c <<= 1
                    if c >> k:
                        c ^= mcode
                if out == 1:
                    return exp
                exp.append(out)
                c = out
        # odd p: times g is F_p-linear on digit vectors; column j of its
        # matrix is g * a^j, from g by shifting and subtracting the modulus
        cols, col = [], _digits(g, p, k)
        for _ in range(k):
            cols.append(col)
            t, col = col[-1], [0] + col[:-1]
            if t:
                col = [(x - t * m) % p for x, m in zip(col, self.modulus)]
        rows = list(zip(*cols))
        weights = [p ** i for i in range(k)]
        digits = [1] + [0] * (k - 1)
        while True:
            digits = [sum(map(operator.mul, row, digits)) % p for row in rows]
            code = sum(map(operator.mul, digits, weights))
            if code == 1:
                return exp
            exp.append(code)

    def key(self):
        return ("ext", self.p, self.modulus, self.gen)

    def kernel(self, payloads):
        # the codes below p are the prime field's elements, encoded as there
        p = self.p
        if all(c < p for c in payloads):
            return self.base.kernel(())
        return FieldSpec.kernel(self, ())

    def symbols(self):
        return {self.gen: FieldElement(self, self._fix((0, 1)))}

    def _fix(self, f):
        """The payload of sum f_i gen^i, f a little-endian coefficient tuple."""
        return sum(c % self.p * self.p ** i for i, c in enumerate(tuple(f)[: self.degree]))

    def from_int(self, n):
        return n % self.p

    def add(self, a, b):
        if self.p == 2:
            return a ^ b
        if not a or not b:
            return a or b
        la = self._log[a]
        # a + b = a (1 + b/a); a negative index wraps mod q - 1 as the log does
        z = self._zech[self._log[b] - la]
        return 0 if z is None else self._exp[la + z]

    def sub(self, a, b):
        return a ^ b if self.p == 2 else self.add(a, self.neg(b))

    def neg(self, a):
        if self.p == 2 or not a:
            return a
        return self._exp[self._log[a] + self._q1 // 2]  # -1 = g^((q-1)/2)

    def mul(self, a, b):
        return self._exp[self._log[a] + self._log[b]] if a and b else 0

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero in F_%d^%d" % (self.p, self.degree))
        return self._exp[self._q1 - self._log[a]]

    def frob(self, a):
        return self._frob[a]

    def render(self, a):
        return _render_upoly(self.base, _digits(a, self.p, self.degree), self.gen)

    def __repr__(self):
        return "F_%d[%s]/(%s)" % (self.p, self.gen,
                                  _render_upoly(self.base, self.modulus, self.gen))


class RationalFunctionField(FieldSpec):
    """base(t): reduced fractions of univariate polynomials over the base."""

    kind = "rational-function"

    def __init__(self, base, param="t"):
        if base.kind not in ("prime", "extension"):
            raise FieldError("rational-function base must be a finite field")
        self.base = base
        self.p = base.p
        self.param = param
        self._f2 = base.key() == ("prime", 2)  # bytes payloads, ops on packed ints
        self._box = box = bytes if self._f2 else tuple
        self.zero = (box(), box((base.one,)))
        self.one = (box((base.one,)), box((base.one,)))

    def __reduce__(self):
        return RationalFunctionField, (self.base, self.param)

    def key(self):
        return ("ratfunc", self.base.key(), self.param)

    def kernel(self, payloads):
        """The op table on primitive polynomials over base[t], base the
        smallest field that holds every coefficient of the payloads: packed
        ints over F_2, tuples otherwise.  ``enter`` clears denominators and
        ``leave`` writes this spec's payloads."""
        base = self.base.kernel(c for a in payloads for f in a for c in f).field
        box = self._box
        if base.key() == ("prime", 2):
            zero, one, add, mul, quo, gcd = 0, 1, operator.xor, _clmul2, _quo2, _gcd2
            neg, cofactors, pin = _same, _cancel2, partial(int.from_bytes, byteorder="little")
            out = _unpack2 if box is bytes else lambda a: tuple(_unpack2(a))

            def frac(c, s):
                return tuple(map(out, _cancel2(c, s)))
        else:
            zero, one, add, mul = (), (base.one,), partial(_uadd, base), partial(_umul, base)
            gcd, pin, out = partial(_ugcd, base), tuple, tuple
            neg = _same if base.p == 2 else lambda f: tuple(map(base.neg, f))

            def quo(f, g):
                return _udivmod(base, f, g)[0]

            def frac(c, d):  # in lowest terms, d made monic
                return _umonic(base, *_ucancel(base, c, d))
            cofactors = frac

        def primitive(terms, lead):
            g = reduce(gcd, terms.values())
            return terms if g == one else {m: quo(c, g) for m, c in terms.items()}

        def enter(terms):
            vals = [(pin(n), pin(d)) for n, d in terms.values()]
            den = one
            for _, d in vals:
                if d != one:
                    den = mul(den, quo(d, gcd(den, d)))
            return {m: n if d == den else mul(n, quo(den, d))
                    for m, (n, d) in zip(terms, vals)}, den

        def leave(terms, scale):
            return {m: frac(c, scale) for m, c in terms.items()}

        field = self if base is self.base else RationalFunctionField(base, self.param)
        return Kernel(field, zero, one, add, mul, neg, cofactors, primitive, enter, leave)

    def make(self, num, den):
        base = self.base
        num = _utrim_spec(base, num)
        den = _utrim_spec(base, den)
        if not den:
            raise ZeroDivisionError("zero denominator in %s(%s)" % (base, self.param))
        if not num:
            return self.zero
        if self._f2:
            num, den = _cancel2(int.from_bytes(num, "little"), int.from_bytes(den, "little"))
            return (_unpack2(num), _unpack2(den))
        return _umonic(base, *_ucancel(base, num, den))

    def from_int(self, n):
        return self.make((self.base.from_int(n),), (self.base.one,))

    def monomial(self, c, k):
        """The payload of c t^k, c a base payload."""
        base = self.base
        if c == base.zero:
            return self.zero
        return (self._box((base.zero,) * k + (c,)), self.one[1])

    def symbols(self):
        # the parameter shadows a base symbol of the same name
        out = {name: FieldElement(self, self.monomial(c.payload, 0))
               for name, c in self.base.symbols().items()}
        out[self.param] = FieldElement(self, self.monomial(self.base.one, 1))
        return out

    def evaluate(self, a, point):
        """The base payload a(point), point a base payload, by Horner's rule;
        raises ZeroDivisionError where the denominator of a vanishes."""
        base = self.base
        values = []
        for f in a:  # numerator, then denominator
            acc = base.zero
            for c in reversed(f):
                acc = base.add(base.mul(acc, point), c)
            values.append(acc)
        return base.mul(values[0], base.inv(values[1]))

    def add(self, a, b):
        (n1, d1), (n2, d2) = a, b
        if d1 == d2 == self.one[1]:  # polynomials: no gcd to take
            if self._f2:
                num = int.from_bytes(n1, "little") ^ int.from_bytes(n2, "little")
                return (_unpack2(num), d1) if num else self.zero
            return (_uadd(self.base, n1, n2), d1)
        if self._f2:
            # Henrici: with g = gcd(d1, d2), a + b = (n1 d2/g + n2 d1/g) / (d1 d2/g),
            # and a common factor of that numerator and denominator divides g
            # (Knuth, TAOCP vol. 2, 4.5.1)
            n1, d1 = int.from_bytes(n1, "little"), int.from_bytes(d1, "little")
            n2, d2 = int.from_bytes(n2, "little"), int.from_bytes(d2, "little")
            g = _gcd2(d1, d2)
            if g != 1:
                d1, d2 = _quo2(d1, g), _quo2(d2, g)
            num = _clmul2(n1, d2) ^ _clmul2(n2, d1)
            if not num:
                return self.zero
            if g != 1:
                num, g = _cancel2(num, g)
            return (_unpack2(num), _unpack2(_clmul2(_clmul2(d1, d2), g)))
        base = self.base
        if d1 == d2:
            return self.make(_uadd(base, n1, n2), d1)
        num = _uadd(base, _umul(base, n1, d2), _umul(base, n2, d1))
        return self.make(num, _umul(base, d1, d2))

    def neg(self, a):
        return a if self.p == 2 else (tuple(self.base.neg(c) for c in a[0]), a[1])

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        (n1, d1), (n2, d2) = a, b
        if not n1 or not n2:
            return self.zero
        if d1 == d2 == self.one[1]:
            if self._f2:
                return (_unpack2(_clmul2(int.from_bytes(n1, "little"),
                                         int.from_bytes(n2, "little"))), d1)
            return (_umul(self.base, n1, n2), d1)
        # cross-cancel first: keeps the gcd calls on small operands
        if self._f2:
            n1, d2 = _cancel2(int.from_bytes(n1, "little"), int.from_bytes(d2, "little"))
            n2, d1 = _cancel2(int.from_bytes(n2, "little"), int.from_bytes(d1, "little"))
            return (_unpack2(_clmul2(n1, n2)), _unpack2(_clmul2(d1, d2)))
        base = self.base
        n1, d2 = _ucancel(base, n1, d2)
        n2, d1 = _ucancel(base, n2, d1)
        return _umonic(base, _umul(base, n1, n2), _umul(base, d1, d2))

    def inv(self, a):
        num, den = a
        if not num:
            raise ZeroDivisionError("inverse of zero in %s(%s)" % (self.base, self.param))
        return _umonic(self.base, den, num)  # a is reduced, so den/num is too

    def frob(self, a):
        return (self._box(_ufrob(self.base, a[0])), self._box(_ufrob(self.base, a[1])))

    def render(self, a):
        num, den = a
        ns = _render_upoly(self.base, num, self.param)
        if den == self.one[1]:
            return ns
        return "(%s)/(%s)" % (ns, _render_upoly(self.base, den, self.param))

    def __repr__(self):
        return "%r(%s)" % (self.base, self.param)


# ---------------------------------------------------------------------------
# elements

class FieldElement:
    __slots__ = ("spec", "payload")

    def __init__(self, spec, payload):
        self.spec = spec
        self.payload = payload

    def _check(self, other):
        if not isinstance(other, FieldElement):
            if isinstance(other, int):
                return FieldElement(self.spec, self.spec.from_int(other))
            raise TypeError("cannot mix FieldElement with %r" % (other,))
        if self.spec != other.spec:
            raise FieldError("cross-field arithmetic rejected: %r vs %r"
                             % (self.spec, other.spec))
        return other

    def __add__(self, other):
        other = self._check(other)
        return FieldElement(self.spec, self.spec.add(self.payload, other.payload))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        return FieldElement(self.spec, self.spec.sub(self.payload, other.payload))

    def __rsub__(self, other):
        return self._check(other) - self

    def __mul__(self, other):
        other = self._check(other)
        return FieldElement(self.spec, self.spec.mul(self.payload, other.payload))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._check(other)
        return FieldElement(self.spec, self.spec.mul(self.payload,
                                                     self.spec.inv(other.payload)))

    def __neg__(self):
        return FieldElement(self.spec, self.spec.neg(self.payload))

    def __pow__(self, n):
        return FieldElement(self.spec, self.spec.pow(self.payload, n))

    def inverse(self):
        return FieldElement(self.spec, self.spec.inv(self.payload))

    def frobenius(self, e=1):
        return field_frobenius(self, e)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.payload == self.spec.from_int(other)
        return (isinstance(other, FieldElement) and self.spec == other.spec
                and self.payload == other.payload)

    def __hash__(self):
        return hash((self.spec.key(), self.payload))

    def __bool__(self):
        return self.payload != self.spec.zero

    def __str__(self):
        return self.spec.render(self.payload)

    def __repr__(self):
        return "<%s in %r>" % (self.spec.render(self.payload), self.spec)


def field_frobenius(x, e=1):
    """x^(p^e) by repeated p-th powering."""
    if e < 0:
        raise FieldError("frobenius exponent must be nonnegative")
    a = x.payload
    for _ in range(e):
        a = x.spec.frob(a)
    return FieldElement(x.spec, a)


# ---------------------------------------------------------------------------
# literal parsing (shared tokenizer also used by the polynomial parser)

def tokenize(text):
    """Split into INT / NAME / operator tokens; raises on anything else."""
    toks = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(("int", int(text[i:j])))
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("name", text[i:j]))
            i = j
        elif c in "+-*/^()":
            toks.append((c, c))
            i += 1
        else:
            raise FieldError("unexpected character %r at position %d" % (c, i))
    return toks


class ExprParser:
    """Recursive-descent + - * / ^ ( ) evaluator over caller-supplied atoms."""

    def __init__(self, toks, atom):
        self.toks = toks
        self.pos = 0
        self.atom = atom

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else (None, None)

    def take(self):
        t = self.peek()
        self.pos += 1
        return t

    def parse(self):
        try:
            v = self.expr()
        except RecursionError:
            raise FieldError("expression nested too deeply") from None
        if self.peek()[0] is not None:
            raise FieldError("trailing input at token %d" % self.pos)
        return v

    def expr(self):
        kind, _ = self.peek()
        neg = False
        if kind in ("+", "-"):
            self.take()
            neg = kind == "-"
        v = self.term()
        if neg:
            v = -v
        while self.peek()[0] in ("+", "-"):
            op, _ = self.take()
            w = self.term()
            v = v + w if op == "+" else v - w
        return v

    def term(self):
        v = self.factor()
        while self.peek()[0] in ("*", "/"):
            op, _ = self.take()
            w = self.factor()
            v = v * w if op == "*" else v / w
        return v

    def factor(self):
        v = self.primary()
        if self.peek()[0] == "^":
            self.take()
            kind, val = self.take()
            if kind != "int":
                raise FieldError("exponent must be an integer literal")
            v = v ** val
        return v

    def primary(self):
        kind, val = self.take()
        if kind == "int":
            return self.atom(("int", val))
        if kind == "name":
            return self.atom(("name", val))
        if kind == "(":
            v = self.expr()
            if self.take()[0] != ")":
                raise FieldError("unbalanced parenthesis")
            return v
        raise FieldError("unexpected token %r" % (val,))


def field_make(spec, literal):
    """Parse a constant literal in the spec's syntax into a FieldElement.

    Integers and the names in ``spec.symbols()`` are the atoms: the
    generator of an extension field, and over base(t) the parameter and the
    base's symbols.
    """
    symbols = spec.symbols()

    def atom(tok):
        kind, val = tok
        if kind == "int":
            return FieldElement(spec, spec.from_int(val))
        if val in symbols:
            return symbols[val]
        raise FieldError("unknown symbol %r for field %r" % (val, spec))

    try:
        return ExprParser(tokenize(literal), atom).parse()
    except ZeroDivisionError as exc:
        raise FieldError("in %r: %s" % (literal, exc)) from None
