"""Sparse multivariate polynomials, monomial orders, and ring presentations.

A :class:`PresentedRing` is a polynomial ring over one of the coeff module's
fields, modulo a (possibly empty) list of relations that vanish at the
origin, whose maximal ideal the variables generate.  All colengths
downstream are of ideals primary to the origin, for which the affine and
local counts agree.

Monomials are plain exponent tuples; polynomials map monomials to nonzero raw
coefficient payloads (see coeff) and carry their ring.  The tuples are the
public encoding: the Buchberger kernel in groebner packs them into ints for
the length of one computation and hands tuples back.
"""

from . import InputError
from .coeff import MAX_EXTENSION_ORDER, FieldElement, FieldError, tokenize, ExprParser


class RingError(InputError):
    pass


def frobenius_order(p, e):
    """q = p^e for e >= 0, refused past 2^16, the bound on a field's order as well."""
    if e < 0:
        raise RingError("Frobenius exponent e = %d is negative" % e)
    if e > 16 or p ** e > MAX_EXTENSION_ORDER:  # p >= 2, so e > 16 is past it
        raise RingError("Frobenius power q = %d^%d exceeds the limit %d = 2^16"
                        % (p, e, MAX_EXTENSION_ORDER))
    return p ** e


# ---------------------------------------------------------------------------
# monomials: exponent tuples

def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a, b):
    """True when a | b componentwise."""
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


def grevlex_key(m):
    return (sum(m), tuple(-e for e in reversed(m)))


class MonomialOrder:
    """grevlex, lex, or block(k): eliminate the first k variables.

    block(k) compares the first k exponents by grevlex, ties broken by
    grevlex on the rest -- an elimination order for the leading block.
    ``key`` grows with the order.
    """

    def __init__(self, kind="grevlex", split=0):
        if kind not in ("grevlex", "lex", "block"):
            raise RingError("unknown monomial order %r" % kind)
        self.kind = kind
        self.split = split
        if kind == "grevlex":
            self.key = grevlex_key
        elif kind == "lex":
            self.key = lambda m: m
        else:
            k = split
            self.key = lambda m: (grevlex_key(m[:k]), grevlex_key(m[k:]))

    def cache_key(self):
        return (self.kind, self.split)

    def __repr__(self):
        if self.kind == "block":
            return "block(%d)" % self.split
        return self.kind


GREVLEX = MonomialOrder("grevlex")
LEX = MonomialOrder("lex")


# ---------------------------------------------------------------------------
# polynomials

class Polynomial:
    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        zero = ring.field.zero
        self.ring = ring
        self.terms = {m: c for m, c in terms.items() if c != zero}

    # -- queries ------------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def degree(self):
        return max((sum(m) for m in self.terms), default=-1)

    def leading_monomial(self, order=GREVLEX):
        if not self.terms:
            raise RingError("zero polynomial has no leading monomial")
        return max(self.terms, key=order.key)

    def leading_coefficient(self, order=GREVLEX):
        return FieldElement(self.ring.field, self.terms[self.leading_monomial(order)])

    def coefficient(self, mono):
        return FieldElement(self.ring.field,
                            self.terms.get(tuple(mono), self.ring.field.zero))

    def constant_value(self):
        """The coefficient payload when the polynomial is constant, else None."""
        if not self.terms:
            return self.ring.field.zero
        if len(self.terms) == 1:
            (m, c), = self.terms.items()
            if not any(m):
                return c
        return None

    def canonical_key(self):
        return tuple(sorted(self.terms.items()))

    # -- arithmetic -----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.ring != self.ring:
                raise RingError("polynomials from different rings")
            return other
        if isinstance(other, int):
            return self.ring.const(other)
        if isinstance(other, FieldElement):
            return self.ring.const(other)
        raise TypeError("cannot combine Polynomial with %r" % (other,))

    def __add__(self, other):
        other = self._coerce(other)
        F = self.ring.field
        out = dict(self.terms)
        for m, c in other.terms.items():
            v = F.add(out.get(m, F.zero), c)
            if v == F.zero:
                out.pop(m, None)
            else:
                out[m] = v
        return Polynomial(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        F = self.ring.field
        return Polynomial(self.ring, {m: F.neg(c) for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        F = self.ring.field
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                v = F.add(out.get(m, F.zero), F.mul(c1, c2))
                if v == F.zero:
                    out.pop(m, None)
                else:
                    out[m] = v
        return Polynomial(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise RingError("negative polynomial power")
        result = self.ring.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __truediv__(self, other):
        other = self._coerce(other)
        c = other.constant_value()
        if c is None:
            raise RingError("polynomial division only by constants")
        F = self.ring.field
        ic = F.inv(c)
        return Polynomial(self.ring, {m: F.mul(v, ic) for m, v in self.terms.items()})

    def derivative(self, var_index):
        F = self.ring.field
        out = {}
        for m, c in self.terms.items():
            e = m[var_index]
            if e == 0:
                continue
            c2 = F.mul(c, F.from_int(e))
            if c2 == F.zero:
                continue
            m2 = m[:var_index] + (e - 1,) + m[var_index + 1:]
            out[m2] = F.add(out.get(m2, F.zero), c2)
        return Polynomial(self.ring, out)

    def evaluate(self, points):
        """Evaluate at a list of FieldElements, one per variable."""
        F = self.ring.field
        acc = F.zero
        for m, c in self.terms.items():
            v = c
            for e, pt in zip(m, points):
                if e:
                    v = F.mul(v, F.pow(pt.payload, e))
            acc = F.add(acc, v)
        return FieldElement(F, acc)

    def frobenius_power(self, e):
        """self^(p^e) via the additive p-th power map: exact and sparse."""
        F = self.ring.field
        q = frobenius_order(F.p, e)
        out = {}
        for m, c in self.terms.items():
            cc = c
            for _ in range(e):
                cc = F.frob(cc)
            out[tuple(x * q for x in m)] = cc
        return Polynomial(self.ring, out)

    # -- comparison / rendering ----------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            if isinstance(other, int):
                return self.terms == self.ring.const(other).terms
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def __str__(self):
        if not self.terms:
            return "0"
        F = self.ring.field
        names = self.ring.varnames
        parts = []
        for m in sorted(self.terms, key=grevlex_key, reverse=True):
            c = self.terms[m]
            factors = []
            for name, e in zip(names, m):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append("%s^%d" % (name, e))
            cs = F.render(c)
            needs_parens = any(ch in cs for ch in "+-/") and factors
            if not factors:
                parts.append("(%s)" % cs if any(ch in cs for ch in "/") else cs)
            elif c == F.one:
                parts.append("*".join(factors))
            else:
                coeff_str = "(%s)" % cs if needs_parens else cs
                parts.append(coeff_str + "*" + "*".join(factors))
        return "+".join(parts)

    def __repr__(self):
        return "<poly %s>" % self


# ---------------------------------------------------------------------------
# ring presentations

class PresentedRing:
    """k[x_1..x_n] / (relations), localized in spirit at the origin ideal."""

    def __init__(self, field, varnames):
        self.field = field
        self.varnames = tuple(varnames)
        self.nvars = len(self.varnames)
        if len(set(self.varnames)) != self.nvars or not self.varnames:
            raise RingError("variable names must be nonempty and distinct")
        clash = set(field.symbols()) & set(self.varnames)
        if clash:
            raise RingError("variable names clash with field symbols: %s" % sorted(clash))
        self.relations = ()
        self.dim = self.nvars
        self._key = None

    # construction helpers ---------------------------------------------------

    def var(self, i):
        m = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Polynomial(self, {m: self.field.one})

    def gens(self):
        return [self.var(i) for i in range(self.nvars)]

    @property
    def zero(self):
        return Polynomial(self, {})

    @property
    def one(self):
        return Polynomial(self, {(0,) * self.nvars: self.field.one})

    def const(self, c):
        if isinstance(c, FieldElement):
            if c.spec != self.field:
                raise RingError("constant from the wrong field")
            payload = c.payload
        else:
            payload = self.field.from_int(c)
        return Polynomial(self, {(0,) * self.nvars: payload})

    def parse(self, text):
        return parse_polynomial(self, text)

    def origin_ideal(self):
        """The maximal ideal of the origin, generated by the variables."""
        return Ideal(self, self.gens())

    def monomial(self, expvec, coeff=None):
        payload = self.field.one if coeff is None else coeff.payload
        return Polynomial(self, {tuple(expvec): payload})

    # identity ----------------------------------------------------------------

    def key(self):
        if self._key is None:
            self._key = (self.field.key(), self.varnames,
                         tuple(r.canonical_key() for r in self.relations))
        return self._key

    def __eq__(self, other):
        return isinstance(other, PresentedRing) and (self is other or self.key() == other.key())

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        rel = "/(%s)" % ", ".join(str(r) for r in self.relations) if self.relations else ""
        return "%r[%s]%s" % (self.field, ",".join(self.varnames), rel)

    def ambient(self):
        """The same polynomial ring with no relations (used by Fedder colons)."""
        if not self.relations:
            return self
        return PresentedRing(self.field, self.varnames)


def ring_make(field, varnames, relations=()):
    """Build a PresentedRing; relations may be strings or Polynomials.

    The dimension is computed from the grevlex staircase of the relation
    ideal.  Every relation must vanish at the origin, so that the variables
    generate a maximal ideal with residue field k.
    """
    ring = PresentedRing(field, varnames)

    def as_poly(obj):
        if isinstance(obj, str):
            return parse_polynomial(ring, obj)
        if isinstance(obj, Polynomial):
            return Polynomial(ring, obj.terms)
        raise RingError("relation must be a string or Polynomial, got %r" % (obj,))

    rels = tuple(r for r in map(as_poly, relations) if not r.is_zero())
    ring.relations = rels

    from . import groebner  # deferred: groebner depends on this module

    if rels:
        ring.dim = groebner.ideal_dimension(
            Ideal(ring.ambient(), [Polynomial(ring.ambient(), r.terms) for r in rels]))
        if ring.dim < 0:
            raise RingError("relation ideal is the unit ideal")
    else:
        ring.dim = ring.nvars

    # (variables + relations) has colength one iff no relation has a constant term
    origin = (0,) * ring.nvars
    if any(origin in r.terms for r in rels):
        raise RingError("origin ideal is not maximal with residue field k")
    return ring


# ---------------------------------------------------------------------------
# ideals

class Ideal:
    """Generators within a PresentedRing; Groebner bases cached per order.

    The cached basis always generates (relations + generators) in the ambient
    polynomial ring.  The fill is idempotent -- the kernel is deterministic,
    so concurrent fills would compute identical bases.
    """

    def __init__(self, ring, gens):
        self.ring = ring
        out = []
        for g in gens:
            if isinstance(g, str):
                g = parse_polynomial(ring, g)
            elif isinstance(g, Polynomial):
                if g.ring != ring:
                    raise RingError("generator from a different ring")
            else:
                raise RingError("ideal generator must be string or Polynomial")
            if not g.is_zero():
                out.append(g)
        self.gens = tuple(out)
        self._basis_cache = {}

    def __repr__(self):
        return "Ideal(%s)" % ", ".join(str(g) for g in self.gens)

    def __eq__(self, other):
        return (isinstance(other, Ideal) and self.ring == other.ring
                and tuple(g.canonical_key() for g in self.gens)
                == tuple(g.canonical_key() for g in other.gens))


def ideal_sum(*ideals):
    ring = ideals[0].ring
    gens = []
    for I in ideals:
        if I.ring != ring:
            raise RingError("ideal_sum: ambient ring mismatch")
        gens.extend(I.gens)
    return Ideal(ring, gens)


def ideal_product(I, J):
    if I.ring != J.ring:
        raise RingError("ideal_product: ambient ring mismatch")
    gens = []
    seen = set()
    for f in I.gens:
        for g in J.gens:
            h = f * g
            key = h.canonical_key()
            if key not in seen:
                seen.add(key)
                gens.append(h)
    return Ideal(I.ring, gens)


def ideal_power(I, n):
    if n < 0:
        raise RingError("negative ideal power")
    if n == 0:
        return Ideal(I.ring, [I.ring.one])
    result = I
    for _ in range(n - 1):
        result = ideal_product(result, I)
    return result


# ---------------------------------------------------------------------------
# polynomial parsing

def parse_polynomial(ring, text):
    """Parse +,-,*,^,() expressions over the ring's variables and the
    field's named constants (extension generator, parameter)."""
    var_index = {name: i for i, name in enumerate(ring.varnames)}
    symbols = ring.field.symbols()

    def atom(tok):
        kind, val = tok
        if kind == "int":
            return ring.const(val)
        if val in var_index:
            return ring.var(var_index[val])
        if val in symbols:
            return ring.const(symbols[val])
        raise RingError("unknown symbol %r in %r" % (val, text))

    try:
        return ExprParser(tokenize(text), atom).parse()
    except (FieldError, ZeroDivisionError) as exc:
        raise RingError("cannot parse %r: %s" % (text, exc)) from None
