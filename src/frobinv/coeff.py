"""Exact coefficient arithmetic for the three supported field kinds.

* ``PrimeField(p)`` -- integers mod a prime p; payloads are ints in [0, p).
* ``ExtensionField(p, modulus)`` -- F_q = F_p[a]/(modulus), q = p^k <= 2^16,
  for a monic irreducible modulus (little-endian coefficient tuple, length
  k+1).  The payload of sum c_i a^i is the int code sum c_i p^i; mul, inv and
  frob are lookups in log/antilog tables built once per process, and add is a
  Zech-logarithm lookup for every p (the kernel's table adds by XOR for p = 2).
* ``RationalFunctionField(base, param)`` -- base(t).  Payloads are
  ``(num, den)``: reduced fractions of univariate polynomials, little-endian
  tuples of base payloads, with monic denominator.  Every op runs on the
  base's one table of base[t] ops, ``PolyOps``: packed ints over F_2, the
  tuple helpers over any other base.

Every element is a :class:`FieldElement` tagging a payload with its
:class:`FieldSpec`.  Payloads are plain hashable values (ints and tuples)
with raw ops on the spec (``add``/``mul``/``inv``/...).  The Groebner
kernel computes on operands instead, through the op table ``kernel``
returns: ``enter`` turns payload dicts into operands and ``leave`` turns
operands back into payloads, once per run, and between the two only the
table's ops run.  Over a finite field an operand is the payload and a
primitive entry is a monic one.  Over base(t) an operand is a ``PolyOps``
operand, a polynomial over base[t], so ``cofactors`` gives u/v = c/d in
lowest terms as two polynomials and a reduction forms no fraction.  The table
is that of the smallest field the payloads generate: an element of F_p is
encoded the same way in F_{p^k} and F_p, and so are the fractions over F_p in
F_{p^k}(t) and F_p(t), so a run over either gives the same payloads.  No
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
# univariate polynomial helpers over a finite field F; add is the sum of its
# kernel op table (XOR in characteristic 2)
#
# representation: tuple of F payloads, little-endian, no trailing zeros;
# the zero polynomial is the empty tuple.

def _utrim_spec(F, f):
    n = len(f)
    z = F.zero
    while n and f[n - 1] == z:
        n -= 1
    return tuple(f[:n])


def _uadd(F, add, f, g):
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, c in enumerate(g):
        out[i] = add(out[i], c)
    return _utrim_spec(F, out)


def _umul(F, add, f, g):
    if not f or not g:
        return ()
    zero, mul = F.zero, F.mul
    out = [zero] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == zero:
            continue
        for j, b in enumerate(g):
            out[i + j] = add(out[i + j], mul(a, b))
    return _utrim_spec(F, out)


def _udivmod(F, add, f, g):
    if not g:
        raise ZeroDivisionError("univariate division by zero")
    zero, mul = F.zero, F.mul
    f = list(f)
    dg = len(g) - 1
    ilc = F.inv(g[-1])
    quo = [zero] * max(0, len(f) - dg)
    while len(f) - 1 >= dg and f:
        k = len(f) - 1 - dg
        quo[k] = mul(f[-1], ilc)
        c = F.neg(quo[k])
        for i, b in enumerate(g):
            f[k + i] = add(f[k + i], mul(c, b))
        while f and f[-1] == zero:
            f.pop()
    return _utrim_spec(F, quo), _utrim_spec(F, f)


def _ugcd(F, add, f, g):
    """The monic gcd of f and g, not both zero."""
    if len(f) == 1 or len(g) == 1:  # a non-zero constant: the gcd is 1
        return (F.one,)
    while g:
        f, g = g, _udivmod(F, add, f, g)[1]
    ilc = F.inv(f[-1])
    return tuple(F.mul(c, ilc) for c in f)


def _umonic(F, num, den):
    """num/den scaled so the denominator is monic."""
    if den[-1] == F.one:
        return (num, den)
    ilc = F.inv(den[-1])
    return (tuple(F.mul(c, ilc) for c in num), tuple(F.mul(c, ilc) for c in den))


def _ufrob(F, f):
    """f(t) ^ p = sum c_i^p t^(i p) in characteristic p."""
    out = [F.zero] * ((len(f) - 1) * F.p + 1)
    out[::F.p] = map(F.frob, f)
    return tuple(out)


# ---------------------------------------------------------------------------
# F_2[t] packed one coefficient per byte, f <-> sum f_i 256^i.  XOR adds.  Byte
# k of an integer product counts the pairs i + j = k with f_i = g_j = 1: exact
# while below 256, and its low bit is the F_2 coefficient.

_PIECE2 = (1 << 8 * 255) - 1  # 255 coefficients: byte counts stay <= 255
_ONES2 = int.from_bytes(b"\x01" * 4096, "little")  # byte k's low bit, k < 4096


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


# ---------------------------------------------------------------------------
# base[t], one op table per base.  An operand is a packed int over F_2 and a
# tuple otherwise; pin and out turn a payload polynomial into one and back.
# cancel(f, g) is f and g over their gcd, frob(f) is f^p.  neg and
# monic(num, den), which makes den monic, act on payloads and operands alike:
# over F_2 both are the identity, elsewhere an operand is its payload.

PolyOps = namedtuple("PolyOps", "zero one add mul neg quo gcd monic frob pin out cancel")


def _same(a):
    return a  # -a in characteristic 2


def _poly_ops(base):
    if base.key() == ("prime", 2):  # a non-zero polynomial is monic; f^2 is f^p
        ops = (0, 1, operator.xor, _clmul2, _same, _quo2, _gcd2, lambda *nd: nd,
               lambda a: _clmul2(a, a), lambda f: int.from_bytes(f, "little"),
               lambda a: (1,) if a == 1 else  # shared unit
               tuple(a.to_bytes((a.bit_length() + 7) >> 3, "little")))
    else:
        K = FieldSpec.kernel(base, ())  # base's own table: base.kernel(()) is F_p's
        add = K.add
        ops = ((), (base.one,), partial(_uadd, base, add), partial(_umul, base, add),
               lambda f: tuple(map(K.neg, f)), lambda f, g: _udivmod(base, add, f, g)[0],
               partial(_ugcd, base, add), partial(_umonic, base), partial(_ufrob, base),
               tuple, tuple)
    one, quo, gcd = ops[1], ops[5], ops[6]

    def cancel(f, g):
        h = gcd(f, g)
        return (f, g) if h == one else (quo(f, h), quo(g, h))

    return PolyOps(*ops, cancel)


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
        # over base(t) a power of positive t-degree grows with n
        if abs(n) > MAX_EXTENSION_ORDER and self.kind == "rational-function" \
                and len(a[0]) + len(a[1]) > 2:
            raise FieldError("exponent %d exceeds the limit %d = 2^16" % (n, MAX_EXTENSION_ORDER))
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
        if p >= 1 << 32:  # trial division takes at most 2^16 steps
            raise FieldError("characteristic %d exceeds the limit 2^32" % p)
        if p < 2 or any(p % d == 0 for d in range(2, int(p ** 0.5) + 1)):
            raise FieldError("characteristic %r is not prime" % (p,))
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
        base = self.base
        for d in range(1, self.degree // 2 + 1):
            for code in range(self.p ** d):
                cand = tuple(_digits(code, self.p, d)) + (1,)
                if not _udivmod(base, base.add, self.modulus, cand)[1]:
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
            # is a shift, then an XOR with the modulus when bit k comes up:
            # F_{2^16} builds 12x faster than with the digit-matrix walk
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
        return FieldSpec.kernel(self.base if all(c < p for c in payloads) else self, ())

    def symbols(self):
        return {self.gen: FieldElement(self, self._fix((0, 1)))}

    def _fix(self, f):
        """The payload of sum f_i gen^i, f a little-endian coefficient tuple."""
        return sum(c % self.p * self.p ** i for i, c in enumerate(tuple(f)[: self.degree]))

    def from_int(self, n):
        return n % self.p

    def add(self, a, b):
        if not a or not b:
            return a or b
        la = self._log[a]
        # a + b = a (1 + b/a); a negative index wraps mod q - 1 as the log does
        z = self._zech[self._log[b] - la]
        return 0 if z is None else self._exp[la + z]

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def neg(self, a):
        return self.mul(a, self.p - 1)  # the code p - 1 is -1

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
        self._ops = _poly_ops(base)
        self.zero = ((), (base.one,))
        self.one = ((base.one,), (base.one,))

    def __reduce__(self):
        return RationalFunctionField, (self.base, self.param)

    def key(self):
        return ("ratfunc", self.base.key(), self.param)

    def kernel(self, payloads):
        """The op table on primitive polynomials over base[t], base the
        smallest field that holds every coefficient of the payloads, on that
        field's ``PolyOps``.  ``enter`` clears denominators and ``leave``
        writes this spec's payloads."""
        base = self.base.kernel(c for a in payloads for f in a for c in f).field
        field = self if base is self.base else RationalFunctionField(base, self.param)
        zero, one, add, mul, neg, quo, gcd, monic, _, pin, _, cancel = field._ops

        def cofactors(c, d):
            return monic(*cancel(c, d))

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
            return {m: field._reduced(c, scale) for m, c in terms.items()}

        return Kernel(field, zero, one, add, mul, neg, cofactors, primitive, enter, leave)

    def make(self, num, den):
        T = self._ops
        num, den = T.pin(_utrim_spec(self.base, num)), T.pin(_utrim_spec(self.base, den))
        if not den:
            raise ZeroDivisionError("zero denominator in %s(%s)" % (self.base, self.param))
        return self._reduced(num, den)

    def _reduced(self, num, den):
        """The payload of num/den, for operands num and den != 0."""
        if not num:
            return self.zero
        T = self._ops
        num, den = T.cancel(num, den)
        return T.monic(T.out(num), T.out(den))

    def from_int(self, n):
        return self.make((self.base.from_int(n),), (self.base.one,))

    def monomial(self, c, k):
        """The payload of c t^k, c a base payload."""
        if c == self.base.zero:
            return self.zero
        return ((self.base.zero,) * k + (c,), self.one[1])

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
        T = self._ops
        (n1, d1), (n2, d2) = map(T.pin, a), map(T.pin, b)
        return self._reduced(T.add(T.mul(n1, d2), T.mul(n2, d1)), T.mul(d1, d2))

    def neg(self, a):
        return (self._ops.neg(a[0]), a[1])

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        T = self._ops
        (n1, d1), (n2, d2) = map(T.pin, a), map(T.pin, b)
        return self._reduced(T.mul(n1, n2), T.mul(d1, d2))

    def inv(self, a):
        num, den = a
        if not num:
            raise ZeroDivisionError("inverse of zero in %s(%s)" % (self.base, self.param))
        return self._ops.monic(den, num)  # a is reduced, so den/num is too

    def frob(self, a):
        T = self._ops
        return tuple(T.out(T.frob(T.pin(f))) for f in a)

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
    K, a = x.spec, x.payload
    if K.kind == "rational-function" and (e > 16 or K.p ** e > MAX_EXTENSION_ORDER):
        raise FieldError("Frobenius twist %d^%d exceeds the limit %d = 2^16"
                         % (K.p, e, MAX_EXTENSION_ORDER))
    for _ in range(e):
        a = K.frob(a)
    return FieldElement(K, a)


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
        if kind in ("int", "name"):
            return self.atom((kind, val))
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
