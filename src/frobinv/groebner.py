"""Buchberger kernel and the ideal-theoretic operations built on it.

The kernel works on term dicts (packed monomial -> coefficient operand)
through the op table ``FieldSpec.kernel`` returns, so the same code path
serves F_p, F_{p^k} and rational-function coefficients.  A run enters its
generators once and leaves its basis once; in between only the table's ops
touch a coefficient.  The table is that of the smallest field holding the
input's coefficients: Buchberger's algorithm never leaves the field its
input's coefficients generate, and the payloads are the same.

Inside the kernel a monomial is one int (``_Packer``): a product is an add,
divisibility is one subtract and one mask, and the monomial order is int
comparison.  Tuples are converted
at the boundary only, when a basis computation or normal form starts and
ends.  The field width is chosen from the input's degrees with headroom; a
product that sets a guard bit raises ``_Overflow`` and the whole
computation reruns at twice the width.

The pair loop keeps each entry as the table's ``primitive`` scales it:
monic over a finite field, over base(t) a primitive polynomial over base[t]
(a packed int over F_2, where XOR adds).  A reduction step by an entry whose
lead coefficient is not 1 is cross-multiplied, p <- v p - u x^sh b with u/v
= c/lc(b) in lowest terms (``cofactors``), so over base(t) it costs one gcd
of two lead coefficients and forms no fraction.  The result is the
remainder times the product of the v's: a normal form leaves divided by
that scale, a reduced basis entry by its lead coefficient.  Leads and sugars
do not depend on the scaling, so neither does any pair choice.

Reduction takes terms from the top down off a min-heap of negated packed
monomials, next to the term dict; a monomial is pushed when it enters the
dict, and a popped one that has cancelled since is skipped.  Pair pruning
uses the Gebauer-Moeller update (product + chain criteria), which takes the
new pairs in one ascending pass over the exponent sections of their lcms
(a field-wise max on packed ints); pair selection uses the
sugar strategy with ties broken by the lcm in the order and then by the
ranks (creation order) of the two entries, so runs are deterministic.  Each
pair's (sugar, lcm) is computed once, when the pair is formed, and pairs
are popped off a heap, skipping those pruned since.

Intersection, colon and saturation each eliminate one variable w under
block(1), from reduced bases, on term dicts: a generator is a pair (a, b)
meaning a + w*b, so w needs no name.  The w-free entries of the loop's minimal block(1) basis are a
minimal grevlex basis of the eliminated ideal; a colon divides them by f in
the same packed run, through ``_reduce`` with a quotient dict, the one
division loop of the kernel.  Only they are inter-reduced, and every result keeps
that reduced basis.  Saturation needs no chain of colons: I : J^infty is the
intersection over the generators g of J of the eliminations (I, 1 - w*g) cap R.

The pair loop ends with a minimal basis, whose leads already are the
minimal generators of the lead ideal; only the reduced-basis path
(``groebner_basis`` and the eliminations) inter-reduces its tails.
Colengths and dimensions read leading monomials alone
(``_leading_monomials``), so they skip that step.  Colengths of
zero-dimensional quotients are counted from the staircase by a
coordinate-by-coordinate lattice sweep over the minimal generators; it
returns an exact big integer, or None when the staircase is infinite.
"""

from bisect import insort
from collections import namedtuple
from functools import reduce
from heapq import heapify, heappop, heappush
from itertools import combinations, count
from operator import attrgetter

from .polyring import Polynomial, Ideal, MonomialOrder, GREVLEX, RingError, mono_divides


class _Overflow(Exception):
    """A monomial passed the field width: the run restarts at twice the width."""


class _Packer:
    """Exponent vectors of one order and arity packed into one int.

    An order is lex on a list of non-negative linear forms in the exponents;
    grevlex's are the prefix sums S_n, S_{n-1}, ..., S_1 (S_k = e_1+...+e_k),
    block(k)'s those of the first block and then of the second, lex's the
    exponents.  From the top down the int holds those forms, the exponents
    e_1..e_n and the total degree, ``width`` bits each, whose top bit is a
    guard that stays clear.  Every field is linear, so a product is a + b, a
    quotient b - a, a | b is ``not (b - a) & guard``, the order is int
    comparison and the degree is ``m & mask`` (Bachmann-Schoenemann,
    ISSAC 1998).  The exponent section ``m & exps`` alone orders divisors
    before their multiples, and ``lcm`` takes the field-wise max of two
    sections with the guard bits.
    """

    def __init__(self, order, nvars, width):
        n, k = nvars, min(order.split, nvars)

        def prefix_sums(lo, hi):
            return [(lo, j) for j in range(hi, lo, -1)]

        if order.kind == "lex":
            forms = [(i, i + 1) for i in range(n)]
        else:
            forms = prefix_sums(0, k) + prefix_sums(k, n)
        fields = forms + [(i, i + 1) for i in range(n)] + [(0, n)]
        shifts = [width * f for f in reversed(range(len(fields)))]
        self.mask = (1 << width) - 1
        self.limit = 1 << (width - 1)     # every field, the degree included
        self.guard = sum(self.limit << s for s in shifts)
        # pack is linear: the packed unit vectors span it
        self.units = [sum(1 << s for s, (lo, hi) in zip(shifts, fields) if lo <= i < hi)
                      for i in range(n)]
        self.shifts = shifts[len(forms):len(forms) + n]   # of e_1..e_n
        self.exps = sum(self.mask << s for s in self.shifts)
        self._guards = self.guard & self.exps
        self._low = width - 1

    def pack(self, m):
        if sum(m) >= self.limit:
            raise _Overflow
        return sum(e * u for e, u in zip(m, self.units) if e)

    def lcm(self, a, b):
        """The lcm of two exponent sections, as a section: a guard stays set
        in (a | guards) - b where a_i >= b_i, and spreads to that field's mask."""
        ge = ((a | self._guards) - b) & self._guards
        return b ^ ((a ^ b) & (ge - (ge >> self._low)))

    def unpack(self, v):
        mask = self.mask
        return tuple((v >> s) & mask for s in self.shifts)

    def pack_terms(self, terms):
        return {self.pack(m): c for m, c in terms.items()}

    def unpack_terms(self, terms):
        return {self.unpack(m): c for m, c in terms.items()}


def _packed(order, nvars, dicts, run):
    """run(packer), with fields wide enough for the dicts' degrees with
    headroom, and again at twice the width whenever a product overflows."""
    # a reduced basis inside m^[q] reaches degree about nvars * q, and an
    # S-pair's lcm twice that
    top = max((sum(m) for d in dicts for m in d), default=0)
    width = max(8, (8 * nvars * top).bit_length() + 1)
    while True:
        try:
            return run(_Packer(order, nvars, width))
        except _Overflow:
            width *= 2


class _GEntry:
    __slots__ = ("terms", "lmono", "lc", "sugar", "rank")

    def __init__(self, terms, lmono, sugar, rank=None):
        self.terms = terms
        self.lmono = lmono
        self.lc = terms[lmono]
        self.sugar = sugar
        self.rank = rank    # creation order within one basis run


def _submul(K, guard, p, heap, c, sh, terms):
    """p -= c * x^sh * terms in place, as p += (-c) x^sh terms with -c formed
    once; a monomial new to p goes on the heap of negated packed monomials.
    No op runs whose result is known: -c = 1 multiplies nothing."""
    zero, add = K.zero, K.add
    c = K.neg(c)
    mul = None if c == K.one else K.mul
    for m, v in terms.items():
        if mul is not None:
            v = mul(c, v)
        mm = m + sh
        old = p.get(mm)
        if old is None:
            if mm & guard:
                raise _Overflow
            p[mm] = v
            heappush(heap, -mm)
        else:
            nv = add(old, v)
            if nv == zero:
                del p[mm]
            else:
                p[mm] = nv


def _reduce(K, pk, terms, basis, full, sugar=0, quo=None):
    """Divide terms by the basis entries (sorted by ascending lead).

    Terms are taken from the top down off a heap of negated monomials; a
    popped monomial no longer in the working dict cancelled after it was
    pushed, and is skipped.  A step by an entry b whose lead coefficient is
    not 1 is cross-multiplied, p <- v p - u x^sh b with u/v = c/lc(b)
    (``cofactors``), so the result is the remainder times the product of
    the v's, the scale.  full=False stops at the first irreducible leading
    term (top-reduction, used inside the main loop); full=True computes the
    normal form.  A dict quo collects each step's multiplier u x^sh and is
    scaled with the remainder: after dividing by one entry b it holds the
    quotient, terms * scale = quo * b + remainder.  Returns (terms, leading
    monomial or None for zero, sugar, scale) with the sugar updated through
    every cancellation.
    """
    guard, mask, one, mul = pk.guard, pk.mask, K.one, K.mul
    p = dict(terms)
    heap = [-m for m in p]
    heapify(heap)
    tail = {}
    scaled = (p, tail) if quo is None else (p, tail, quo)
    scale = one
    while heap:
        t = -heappop(heap)
        c = p.get(t)
        if c is None:
            continue
        for b in basis:
            sh = t - b.lmono
            if not sh & guard:
                break
        else:
            if not full:
                return p, t, sugar, scale
            del p[t]
            tail[t] = c
            continue
        sugar = max(sugar, b.sugar + (sh & mask))
        if b.lc != one:
            c, v = K.cofactors(c, b.lc)
            if v != one:
                scale = mul(scale, v)
                for d in scaled:
                    for m, a in d.items():
                        d[m] = mul(v, a)
        if quo is not None:
            quo[sh] = c
        _submul(K, guard, p, heap, c, sh, b.terms)
    return tail, next(iter(tail), None), sugar, scale


def _spoly(K, pk, lcm, f, g):
    """v x^shf f - u x^shg g with u/v = lc(f)/lc(g), and its sugar."""
    shf = lcm - f.lmono
    shg = lcm - g.lmono
    u, v = K.cofactors(f.lc, g.lc)
    if v == K.one:
        d = {m + shf: c for m, c in f.terms.items()}
    else:
        mul = K.mul
        d = {m + shf: mul(v, c) for m, c in f.terms.items()}
    if any(m & pk.guard for m in d):
        raise _Overflow
    _submul(K, pk.guard, d, [], u, shg, g.terms)   # no heap to keep
    mask = pk.mask
    sugar = max(f.sugar + (shf & mask), g.sugar + (shg & mask))
    return d, sugar


def _interreduce(K, pk, basis):
    """The reduced basis (tuple-keyed payload dicts) of a minimal one: each
    entry reduced by the others, which leaves a multiple of the reduced
    entry, and left divided by its lead coefficient.  The leads divide no
    other lead, so each entry keeps its lead and the ascending order."""
    out = []
    for e in basis:
        red = _reduce(K, pk, e.terms, [b for b in basis if b is not e], True)[0]
        out.append(pk.unpack_terms(K.leave(red, red[e.lmono])))
    return out


def _run_loop(field, order, gen_dicts, finish):
    """finish(ops, packer, minimal basis of the packed loop), [] for no
    generators, which enter the op table of the smallest field holding their
    coefficients (``FieldSpec.kernel``) once; finish leaves the basis."""
    gens = [d for d in gen_dicts if d]
    if not gens:
        return []
    K = field.kernel(c for d in gens for c in d.values())
    gens = [K.enter(d)[0] for d in gens]
    nvars = len(next(iter(gens[0])))
    return _packed(order, nvars, gens,
                   lambda pk: finish(K, pk, _basis(K, pk, map(pk.pack_terms, gens))))


def _basis(K, pk, gen_dicts):
    """Minimal basis (entries ascending by lead) on packed operand dicts.

    Each entry is scaled by ``K.primitive``: monic over a finite field, a
    primitive polynomial over base[t] (content 1), so a reduction over
    base(t) forms no fraction.  Its leads are the minimal
    generators of the lead ideal: a new lead is top-reduced, so no basis
    lead divides it, and ``add`` evicts every lead it divides.  The tails
    are only top-reduced.  New pairs are chosen in one ascending pass over
    the exponent sections of their lcms, where divisors come before their
    multiples; pairs leave the heap by sugar, ties broken by the lcm and
    then by the ranks (creation order) of the entries.
    """
    guard, mask, exps, lcm, primitive = pk.guard, pk.mask, pk.exps, pk.lcm, K.primitive
    basis = []      # the current entries, ascending by lead
    P = {}          # pending pairs (rank i, rank j), i < j -> (lcm, entry i, entry j)
    heap = []       # (sugar, lcm, rank i, rank j) of every pair formed
    ranks = count()

    def add(terms, mh, sugar):
        # Gebauer-Moeller: prune the old pairs, form the new pairs, and evict
        # the basis leads the new lead mh divides.
        nonlocal basis
        h = _GEntry(primitive(terms, mh), mh, sugar, next(ranks))
        hs = mh & exps
        for ij, (L, a, b) in list(P.items()):
            if not (L - mh) & guard:
                Ls = L & exps
                if lcm(hs, a.lmono & exps) != Ls and lcm(hs, b.lmono & exps) != Ls:
                    del P[ij]
        # A divisor precedes its multiples among the sections, so each new
        # lcm is tested against the lcms kept so far only (chain criterion);
        # among equal lcms a coprime pair comes first, blocks the others and
        # is dropped itself (product criterion).  A kept pair alone is packed.
        new = []
        for g in basis:
            gs = g.lmono & exps
            L = lcm(hs, gs)
            new.append((L, hs + gs != L, g.rank, g))
        kept = []
        for L, shared, _, g in sorted(new):
            if all((L - K) & guard for K in kept):
                kept.append(L)
                if shared:
                    L = pk.pack(pk.unpack(L))
                    sl = L & mask
                    sug = max(g.sugar + sl - (g.lmono & mask), sugar + sl - (mh & mask))
                    P[g.rank, h.rank] = (L, g, h)
                    heappush(heap, (sug, L, g.rank, h.rank))
        basis = [g for g in basis if (g.lmono - mh) & guard]
        insort(basis, h, key=attrgetter("lmono"))

    for d in gen_dicts:
        d = primitive(d, max(d))
        red, lead, sug, _ = _reduce(K, pk, d, basis, False, max(m & mask for m in d))
        if lead is not None:
            add(red, lead, sug)

    while heap:
        _, _, i, j = heappop(heap)
        pair = P.pop((i, j), None)
        if pair is None:
            continue  # pruned after it was formed
        s, sug = _spoly(K, pk, *pair)
        red, lead, sug, _ = _reduce(K, pk, s, basis, False, sug)
        if lead is not None:
            add(red, lead, sug)

    return basis


# ---------------------------------------------------------------------------
# public basis/normal-form interface on polyring types

def groebner_basis(ideal, order=GREVLEX):
    """Reduced Groebner basis of (relations + generators), cached per order.

    The unit ideal yields [1].  The fill is idempotent, so a concurrent
    recomputation would store an identical tuple.
    """
    ck = order.cache_key()
    cached = ideal._basis_cache.get(ck)
    if cached is None:
        ring = ideal.ring
        raw = _run_loop(ring.field, order, _generator_dicts(ideal), _interreduce)
        cached = tuple(Polynomial(ring, d) for d in raw)
        ideal._basis_cache[ck] = cached
    return list(cached)


def _generator_dicts(ideal):
    return [g.terms for g in ideal.gens] + [r.terms for r in ideal.ring.relations]


def _leading_monomials(ideal, order=GREVLEX):
    """Minimal generators of the lead ideal of (relations + generators).

    They are the leads of a cached reduced basis when there is one, and
    otherwise those of the kernel's minimal basis, which skips the
    inter-reduction that only the tails need.  Nothing is cached.
    """
    cached = ideal._basis_cache.get(order.cache_key())
    if cached is not None:
        return [g.leading_monomial(order) for g in cached]
    return _run_loop(ideal.ring.field, order, _generator_dicts(ideal),
                     lambda K, pk, basis: [pk.unpack(e.lmono) for e in basis])


def normal_form(f, ideal, order=GREVLEX):
    """The remainder of f by the reduced basis: f and the basis enter once,
    and the remainder leaves divided by f's scale and the reduction's."""
    ring = ideal.ring
    if f.ring != ring:
        raise RingError("normal form: ambient ring mismatch")
    basis = [g.terms for g in groebner_basis(ideal, order)]
    K = ring.field.kernel(c for d in basis + [f.terms] for c in d.values())
    entered = [K.enter(g)[0] for g in basis]
    num, den = K.enter(f.terms)

    def run(pk):
        entries = [_GEntry(g, max(g), 0) for g in map(pk.pack_terms, entered)]
        red, _, _, scale = _reduce(K, pk, pk.pack_terms(num), entries, True)
        return pk.unpack_terms(K.leave(red, K.mul(den, scale)))
    return Polynomial(ring, _packed(order, ring.nvars, basis + [f.terms], run))


def is_member(f, ideal):
    return normal_form(f, ideal).is_zero()


def ideal_equals(I, J):
    bi = groebner_basis(I)
    bj = groebner_basis(J)
    return ([g.canonical_key() for g in bi] == [g.canonical_key() for g in bj])


def ideal_contains(I, J):
    """True when J is a subset of I (generator-wise membership)."""
    return all(is_member(g, I) for g in J.gens)


# ---------------------------------------------------------------------------
# staircases, colengths, dimension

class Staircase(namedtuple("Staircase", "generators count")):
    """Minimal leading monomials of an ideal and the standard-monomial count.

    count is a big int, or None exactly when the quotient is
    infinite-dimensional, i.e. when some variable has no pure power among the
    generators.  The field shadows ``tuple.count``.
    """
    __slots__ = ()


def minimalize_monomials(monos):
    """Drop monomials divisible by another; sort for determinism."""
    out = []
    for m in sorted(set(monos), key=lambda m: (sum(m), m)):
        if not any(mono_divides(g, m) for g in out):
            out.append(m)
    return out


def _count_sweep(gens, nv):
    """Recursive last-coordinate sweep; None signals an infinite staircase."""
    if any(all(e == 0 for e in g) for g in gens):
        return 0
    if nv < 0:
        return 1  # no variables: the empty monomial alone
    if nv == 0:
        if not gens:
            return None
        return min(g[0] for g in gens)
    vals = sorted({g[nv] for g in gens} | {0})
    total = 0
    for a, b in zip(vals, vals[1:] + [None]):
        sect = minimalize_monomials([g[:nv] for g in gens if g[nv] <= a])
        c = _count_sweep(sect, nv - 1)
        if b is None:
            if c != 0:
                return None
        else:
            if c is None:
                return None
            total += c * (b - a)
    return total


def count_standard_monomials(leads, nvars):
    """Monomials outside the ideal of the leads, minimal or not; None if infinite."""
    return _count_sweep(list(leads), nvars - 1)


def staircase(ideal, order=GREVLEX):
    """The staircase of the lead ideal; reads leading monomials only."""
    leads = sorted(_leading_monomials(ideal, order), key=lambda m: (sum(m), m))
    return Staircase(tuple(leads), count_standard_monomials(leads, ideal.ring.nvars))


def colength(ideal):
    """dim_k of the quotient by (relations + generators); None if infinite.

    Counted from the grevlex leading monomials alone (``staircase``)."""
    return staircase(ideal).count


def staircase_dimension(leads, nvars):
    """Krull dimension of the quotient by a monomial ideal: the largest
    coordinate subspace meeting the staircase in a full lattice cone."""
    gens = minimalize_monomials(leads)
    if any(all(e == 0 for e in g) for g in gens):
        return -1
    supports = [frozenset(i for i, e in enumerate(g) if e) for g in gens]
    for d in range(nvars, -1, -1):
        for U in combinations(range(nvars), d):
            su = set(U)
            if not any(s <= su for s in supports):
                return d
    return 0


def ideal_dimension(ideal):
    """Krull dimension of the quotient, -1 for the unit ideal; reads the
    grevlex leading monomials only."""
    return staircase_dimension(_leading_monomials(ideal), ideal.ring.nvars)


# ---------------------------------------------------------------------------
# intersection, colon, saturation

def _eliminate(ring, parts, den=None):
    """The reduced grevlex basis of E = (a + w*b for (a, b) in parts) cap R,
    or of E / den, as Polynomials of ring; each a and b is a term dict over R.
    The w-free entries of the minimal block(1) basis are a minimal basis of E.
    For a colon E = f*(I : f), so LT(E) = lm(f)*LT(I : f) and their quotients
    by f are a minimal basis of I : f; f is among the generators, so the
    kernel's op table holds its coefficients.  Only that list is inter-reduced."""
    gens = [{(0,) + m: c for m, c in a.items()} | {(1,) + m: c for m, c in b.items()}
            for a, b in parts]

    def finish(K, pk, basis):
        kept = [e for e in basis if not pk.unpack(e.lmono)[0]]
        if den is not None:
            d = pk.pack_terms(K.enter({(0,) + m: c for m, c in den.items()})[0])
            f, quotients = [_GEntry(d, max(d), 0)], []
            for e in kept:
                q = {}
                if _reduce(K, pk, e.terms, f, True, 0, q)[0]:
                    raise RingError("exact division left a remainder")
                quotients.append(_GEntry(K.primitive(q, max(q)), max(q), 0))
            kept = quotients
        return [{m[1:]: c for m, c in t.items()} for t in _interreduce(K, pk, kept)]
    return [Polynomial(ring, d)
            for d in _run_loop(ring.field, MonomialOrder("block", 1), gens, finish)]


def _neg(F, terms):
    return {m: F.neg(c) for m, c in terms.items()}


def ideal_intersection(I, J):
    """I cap J = (w*I + (1 - w)*J) cap R, from the reduced bases of I and J."""
    ring = I.ring
    if J.ring != ring:
        raise RingError("intersection: ambient ring mismatch")
    parts = ([({}, g.terms) for g in groebner_basis(I)]
             + [(g.terms, _neg(ring.field, g.terms)) for g in groebner_basis(J)])
    return _with_basis(ring, _eliminate(ring, parts))


def ideal_colon(I, f):
    """(I : f) = (1/f)(I cap (f)), one elimination from the reduced basis of I."""
    ring = I.ring
    if isinstance(f, str):
        f = ring.parse(f)
    if f.ring != ring:
        raise RingError("colon: ambient ring mismatch")
    if f.is_zero():
        raise RingError("colon by the zero element")
    parts = [({}, g.terms) for g in groebner_basis(I)] + [(f.terms, _neg(ring.field, f.terms))]
    return _with_basis(ring, _eliminate(ring, parts, f.terms))


def _intersect_all(ring, ideals):
    """Intersection of the ideals; R when there are none."""
    if not ideals:
        return _with_basis(ring, [ring.one])
    return reduce(ideal_intersection, ideals)


def ideal_colon_ideal(I, J):
    """(I : J) as the intersection of the generator-wise colons."""
    return _intersect_all(I.ring, [ideal_colon(I, g) for g in J.gens])


def saturate(I, J):
    """(I : J^infty) as the intersection over the generators g of J of
    I : g^infty = (I + relations + (1 - w*g)) cap R, one block(1) elimination
    in R[w] each, from the reduced basis of I (Cox-Little-O'Shea, 4.4), with
    no chain of colons to iterate.  J with no nonzero generator saturates to R."""
    ring = I.ring
    if J.ring != ring:
        raise RingError("saturation: ambient ring mismatch")
    base = [(h.terms, {}) for h in groebner_basis(I)]
    one = {(0,) * ring.nvars: ring.field.one}
    return _intersect_all(ring, [
        _with_basis(ring, _eliminate(ring, base + [(one, _neg(ring.field, g.terms))]))
        for g in J.gens])


def _with_basis(ring, basis):
    """The ideal on a reduced grevlex basis, with that basis cached."""
    out = Ideal(ring, basis)
    out._basis_cache[GREVLEX.cache_key()] = tuple(basis)
    return out
