"""Reference mathematics for the benchmark, written apart from frobinv.

Nothing here imports the package under test.  The module holds:

* ``Poly``, a small sparse polynomial over F_p in named variables, used to
  write the benchmark's rings, apply the seeded coordinate changes and
  render relations as ring-script text;
* the closed forms that the rows must meet;
* ``rank_colength``, an independent colength of a hypersurface over F_2:
  l(S/(m^[q], f)) = q^n - rank(f* on S/m^[q]) by bit-packed GF(2)
  elimination, and ``rank_splitting``, Fedder's a_e = rank(f^(q-1)*);
* checks that return ``None`` when a result is right and a one-line reason
  when it is wrong.
"""

from fractions import Fraction
from itertools import product


class Poly:
    """Sparse polynomial over F_p: exponent tuple -> coefficient in 1..p-1."""

    __slots__ = ("p", "names", "terms")

    def __init__(self, p, names, terms):
        self.p = p
        self.names = tuple(names)
        self.terms = {m: c % p for m, c in terms.items() if c % p}

    @classmethod
    def variables(cls, p, names):
        n = len(names)
        return [cls(p, names, {tuple(int(i == j) for j in range(n)): 1})
                for i in range(n)]

    def _lift(self, other):
        if isinstance(other, Poly):
            return other
        return Poly(self.p, self.names, {(0,) * len(self.names): other})

    def __add__(self, other):
        other = self._lift(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return Poly(self.p, self.names, out)

    __radd__ = __add__

    def __mul__(self, other):
        other = self._lift(other)
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                out[m] = out.get(m, 0) + c1 * c2
        return Poly(self.p, self.names, out)

    __rmul__ = __mul__

    def __neg__(self):
        return Poly(self.p, self.names, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __pow__(self, n):
        out = self._lift(1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        return isinstance(other, Poly) and (self.p, self.names, self.terms) == (
            other.p, other.names, other.terms)

    def substitute(self, images):
        """f(images[0], images[1], ...): one image Poly per variable."""
        out = Poly(self.p, images[0].names, {})
        for m, c in self.terms.items():
            term = images[0]._lift(c)
            for img, e in zip(images, m):
                if e:
                    term = term * img ** e
            out = out + term
        return out

    def render(self):
        """Ring-script text; monomials in a fixed order, so it is canonical."""
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, key=lambda m: (-sum(m), m), reverse=False):
            c = self.terms[m]
            factors = ["%s^%d" % (v, e) if e > 1 else v
                       for v, e in zip(self.names, m) if e]
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            else:
                parts.append("%d*%s" % (c, "*".join(factors)))
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# seeded coordinate changes

def reduce_by(f, name, rule):
    """Rewrite name^2 as ``rule`` until no power above one is left: with
    rule = a + 1 this is reduction modulo a^2 + a + 1, the F_4 modulus."""
    k = f.names.index(name)
    out = Poly(f.p, f.names, {})
    todo = dict(f.terms)
    while todo:
        m, c = todo.popitem()
        if m[k] < 2:
            out = out + Poly(f.p, f.names, {m: c})
            continue
        rest = Poly(f.p, f.names, {m[:k] + (m[k] - 2,) + m[k + 1:]: c})
        for mm, cc in (rest * rule).terms.items():
            todo[mm] = (todo.get(mm, 0) + cc) % f.p
            if not todo[mm]:
                del todo[mm]
    return out


def coordinate_change(rng, names, scalars):
    """Images of the variables under a seeded monomial change of coordinates.

    The change may swap x and y and multiplies x, y and z by units drawn
    from ``scalars`` (Polys: the nonzero constants of F_p, or 1, a, a+1 for
    F_4); further variables stay fixed.  It is never the identity: over F_2,
    where 1 is the only unit, it is the swap.  Monomial changes keep the
    support of every polynomial, so they keep the Groebner work close to
    that of the written presentation; a general linear change over F_2 was
    measured to cost anywhere from 0.06 to 45 times as much on the quartics.
    """
    gens = Poly.variables(scalars[0].p, names)
    moved = min(3, len(names))
    while True:
        swap = rng.randrange(2) if moved > 1 else 0
        units = [rng.randrange(len(scalars)) for _ in range(moved)]
        if swap or any(units):
            break
        if len(scalars) == 1:
            swap = int(moved > 1)
            break
    order = list(range(len(names)))
    if swap:
        order[0], order[1] = 1, 0
    images = [gens[i] for i in order]
    for i in range(moved):
        images[i] = scalars[units[i]] * images[i]
    return images


def parse_f2(text, names):
    """Parse frobinv's rendering of a polynomial over F_2 into a Poly.

    Only what the program prints for F_2 rings is accepted: '+'-separated
    terms of '*'-separated factors NAME, NAME^INT or INT.
    """
    index = {v: i for i, v in enumerate(names)}
    terms = {}
    for term in text.replace(" ", "").split("+"):
        mono = [0] * len(names)
        coeff = 1
        for factor in term.split("*"):
            base, _, exp = factor.partition("^")
            if base.isdigit() and not exp:
                coeff *= int(base)
            elif base in index and (not exp or exp.isdigit()):
                mono[index[base]] += int(exp or 1)
            else:
                raise ValueError("cannot read %r in %r" % (factor, text))
        mono = tuple(mono)
        terms[mono] = terms.get(mono, 0) + coeff
    return Poly(2, names, terms)


# ---------------------------------------------------------------------------
# rank-based colength over F_2

def quotient_colength(gens, box):
    """dim_F2 S/(m^[box] + (gens)) for polynomials over F_2 in n variables.

    S/m^[box] has the monomials with every exponent below ``box`` as a basis,
    one bit each; the ideal's image is spanned by g*u for every generator g
    and basis monomial u.  The colength is box^n minus the rank of that
    span, found by bit-packed elimination.
    """
    if not gens:
        raise ValueError("no generators")
    n = len(gens[0].names)
    basis = list(product(range(box), repeat=n))

    def bit(m):
        k = 0
        for e in m:
            if e >= box:
                return None
            k = k * box + e
        return k

    pivots = {}
    for g in gens:
        if g.p != 2:
            raise ValueError("quotient_colength works over F_2")
        for u in basis:
            row = 0
            for m in g.terms:
                b = bit(tuple(a + c for a, c in zip(m, u)))
                if b is not None:
                    row ^= 1 << b
            while row:
                top = row.bit_length() - 1
                if top not in pivots:
                    pivots[top] = row
                    break
                row ^= pivots[top]
    return box ** n - len(pivots)


def rank_colength(f, q):
    """l(S/(m^[q], f)) = q^n - rank(f* on S/m^[q]) for f over F_2."""
    return quotient_colength([f], q)


def rank_splitting(f, q):
    """Fedder's a_e = l(S/(m^[q] : f^(q-1))) = rank(f^(q-1)* on S/m^[q])."""
    g = f._lift(1)
    for _ in range(q - 1):
        g = g * f
        g = Poly(g.p, g.names, {m: c for m, c in g.terms.items() if max(m) < q})
    return q ** len(f.names) - quotient_colength([g], q)


# ---------------------------------------------------------------------------
# closed forms, as functions of q = p^e

def _exact(value):
    if isinstance(value, Fraction):
        if value.denominator != 1:
            raise ValueError("closed form is not an integer: %s" % value)
        return value.numerator
    return value


CLOSED_FORMS = {
    # Hilbert-Kunz rows l(R/m^[q])
    "quadric-cone": lambda q: Fraction(3 * q * q, 2),
    "split-quartic": lambda q: Fraction(7 * q * q, 2) - 3 * q,
    "alpha-1-quartic": lambda q: {2: 8, 4: 44}.get(q, Fraction(49 * q * q, 16)),
    "degenerate-quartic": lambda q: 4 * q * q - 6 * q + 4,
    "transcendental-quartic": lambda q: 3 * q * q - 4,
    "a1-odd": lambda q: Fraction(3 * q * q - 1, 2),
    # F-signature rows a_e; regular rings take q^d and are built per d
    "fsig-one": lambda q: 1,
    "fsig-a1-char2": lambda q: Fraction(q * q, 2),
    "fsig-a1-odd": lambda q: Fraction(q * q + 1, 2),
    "fsig-whitney": lambda q: Fraction(q + 1, 2),
    "fsig-zero": lambda q: 0,
}


def regular_form(d):
    return lambda q: q ** d


def expected(form, q):
    return _exact(form(q))


# ---------------------------------------------------------------------------
# checks: None when the result is right, else a one-line reason

def check_rows(rows, form, what):
    """rows: (e, q, length) triples; form: q -> expected length."""
    if not rows:
        return "%s: no rows" % what
    for e, q, length in rows:
        want = expected(form, q)
        if length != want:
            return "%s: row e=%d (q=%d) is %s, expected %s" % (what, e, q, length, want)
    return None


def check_rank(rows, f, what, q_max=8):
    """Rows with q <= q_max must equal the rank-based colength of f."""
    for e, q, length in rows:
        if q <= q_max:
            want = rank_colength(f, q)
            if length != want:
                return ("%s: row e=%d (q=%d) is %s, rank colength is %s"
                        % (what, e, q, length, want))
    return None


def check_splitting(rows, f, what, q_max=8):
    """F-signature rows with q <= q_max must equal Fedder's rank."""
    for e, q, a in rows:
        if q <= q_max:
            want = rank_splitting(f, q)
            if a != want:
                return ("%s: splitting number e=%d (q=%d) is %s, rank gives %s"
                        % (what, e, q, a, want))
    return None


def check_kunz(residue_rows, fiber_rows, what):
    """l(R/m_alpha^[q]) >= q * l_fiber(p^[q]) for every residue row, with
    equality at e = 2.  residue_rows: alpha -> [(e, q, length)]."""
    fiber = {e: length for e, _, length in fiber_rows}
    if not residue_rows:
        return "%s: no residue rows" % what
    for alpha, rows in sorted(residue_rows.items()):
        for e, q, length in rows:
            bound = q * fiber[e]
            if length < bound or (e == 2 and length != bound):
                return ("%s: alpha=%s e=%d colength %s against q*fiber %s"
                        % (what, alpha, e, length, bound))
    return None
