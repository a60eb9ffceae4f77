"""Buchberger kernel and the ideal-theoretic operations built on it.

The kernel works on term dicts (packed monomial -> coefficient payload)
through a FieldSpec's raw ops, so the same code path serves F_p, F_{p^k},
and rational-function coefficients.  Inside the kernel a monomial is one
int (``_Packer``): a product is an add, divisibility is one subtract and
one mask, and the monomial order is int comparison.  Tuples are converted
at the boundary only, when a basis computation, normal form or exact
division starts and ends.  The field width is chosen from the input's
degrees with headroom; a product that sets a guard bit raises ``_Overflow``
and the whole computation reruns at twice the width.

Reduction takes terms from the top down off a min-heap of negated packed
monomials, next to the term dict; a monomial is pushed when it enters the
dict, and a popped one that has cancelled since is skipped.  Pair pruning
uses the Gebauer-Moeller update (product + chain criteria); pair selection
uses the sugar strategy with ties broken by the lcm in the order, so runs
are deterministic.  Each pair's (sugar, lcm) is computed once, when the
pair is formed, and pairs are popped off a heap, skipping those pruned
since.

Intersection, colon and saturation each eliminate a fresh variable w under
block(1).  Saturation needs no chain of colons: I : J^infty is the
intersection over the generators g of J of the eliminations (I, 1 - w*g) cap R.

The pair loop ends with a minimal monic basis, whose leads already are the
minimal generators of the lead ideal; only the reduced-basis path
(``groebner_basis`` and the eliminations) inter-reduces its tails.
Colengths and dimensions read leading monomials alone
(``_leading_monomials``), so they skip that step.  Colengths of
zero-dimensional quotients are counted from the staircase by a
coordinate-by-coordinate lattice sweep over the minimal generators; it
returns an exact big integer, or None when the staircase is infinite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from heapq import heapify, heappop, heappush
from itertools import combinations

from .polyring import (Polynomial, Ideal, PresentedRing, MonomialOrder,
                       GREVLEX, RingError, mono_divides, mono_lcm)


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
    ISSAC 1998).
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

    def pack(self, m):
        if sum(m) >= self.limit:
            raise _Overflow
        return sum(e * u for e, u in zip(m, self.units) if e)

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
    __slots__ = ("terms", "lmono", "sugar")

    def __init__(self, terms, lmono, sugar):
        self.terms = terms
        self.lmono = lmono
        self.sugar = sugar


def _make_monic(F, terms, lmono):
    c = terms[lmono]
    if c == F.one:
        return terms
    ic = F.inv(c)
    return {m: F.mul(ic, v) for m, v in terms.items()}


def _submul(F, guard, p, heap, c, sh, terms):
    """p -= c * x^sh * terms in place; a monomial new to p goes on the heap
    of negated packed monomials."""
    zero, sub, mul = F.zero, F.sub, F.mul
    for m, v in terms.items():
        mm = m + sh
        old = p.get(mm)
        if old is None:
            if mm & guard:
                raise _Overflow
            p[mm] = sub(zero, mul(c, v))
            heappush(heap, -mm)
        else:
            nv = sub(old, mul(c, v))
            if nv == zero:
                del p[mm]
            else:
                p[mm] = nv


def _reduce(F, pk, terms, basis, full, sugar=0):
    """Divide terms by the monic basis entries (sorted by ascending lead).

    Terms are taken from the top down off a heap of negated monomials; a
    popped monomial no longer in the working dict cancelled after it was
    pushed, and is skipped.  full=False stops at the first irreducible
    leading term (top-reduction, used inside the main loop); full=True
    computes the normal form.  Returns (terms, leading monomial or None for
    zero, sugar) with the sugar updated through every cancellation.
    """
    guard, mask = pk.guard, pk.mask
    p = dict(terms)
    heap = [-m for m in p]
    heapify(heap)
    tail = {}
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
                return p, t, sugar
            del p[t]
            tail[t] = c
            continue
        sugar = max(sugar, b.sugar + (sh & mask))
        _submul(F, guard, p, heap, c, sh, b.terms)
    return tail, next(iter(tail), None), sugar


def _spoly(F, pk, lcm, f, g):
    shf = lcm - f.lmono
    shg = lcm - g.lmono
    d = {m + shf: v for m, v in f.terms.items()}
    for m, v in g.terms.items():
        mm = m + shg
        nv = F.sub(d.get(mm, F.zero), v)
        if nv == F.zero:
            d.pop(mm, None)
        else:
            d[mm] = nv
    if any(m & pk.guard for m in d):
        raise _Overflow
    mask = pk.mask
    sugar = max(f.sugar + (shf & mask), g.sugar + (shg & mask))
    return d, sugar


def _buchberger(F, order, gen_dicts):
    """Reduced monic basis (list of term dicts, ascending leading monomial)."""
    def reduced(pk, basis):
        # inter-reduce the minimal basis; the leads divide no other lead, so
        # each entry keeps its monic lead and the ascending order
        return [pk.unpack_terms(_reduce(F, pk, e.terms, [b for b in basis if b is not e],
                                        True)[0])
                for e in basis]
    return _run_loop(F, order, gen_dicts, reduced)


def _run_loop(F, order, gen_dicts, finish):
    """finish(packer, minimal basis of the packed loop), [] for no generators."""
    gens = [d for d in gen_dicts if d]
    if not gens:
        return []
    nvars = len(next(iter(gens[0])))
    return _packed(order, nvars, gens,
                   lambda pk: finish(pk, _basis(F, pk, map(pk.pack_terms, gens))))


def _basis(F, pk, gen_dicts):
    """Minimal monic basis (entries ascending by lead) on packed term dicts.

    Its leads are the minimal generators of the lead ideal: a new lead is
    top-reduced, so no basis lead divides it, and ``add`` evicts every lead
    it divides.  The tails are only top-reduced.
    """
    guard, mask, pack = pk.guard, pk.mask, pk.pack
    f = []          # all entries ever created
    E = []          # the exponent tuple of each entry's lead
    G = set()       # indices of current basis entries
    basis = []      # the entries of G, ascending by leading monomial
    P = {}          # pending pairs (i, j), i < j -> lcm of their leads
    heap = []       # (sugar, lcm, i, j) of every pair formed

    def add(terms, mh, sugar):
        # Gebauer-Moeller: prune new pairs against each other (chain
        # criterion), drop coprime-lead pairs (product criterion), prune the
        # old pair set, and evict basis leads the new lead mh divides.  Each
        # lcm(mh, lm(g)) is computed once per update.
        nonlocal G, basis
        ih = len(f)
        f.append(_GEntry(_make_monic(F, terms, mh), mh, sugar))
        eh = pk.unpack(mh)
        E.append(eh)
        Lh = {ig: pack(mono_lcm(eh, E[ig])) for ig in G}
        coprime = {ig for ig in G if mh + f[ig].lmono == Lh[ig]}
        cand = set(G)
        kept = set()
        while cand:
            ig = cand.pop()
            L = Lh[ig]
            if ig in coprime or (
                    all((L - Lh[ic]) & guard for ic in cand)
                    and all((L - Lh[ik]) & guard for ik in kept)):
                kept.add(ig)

        def lcm_h(i):
            L = Lh.get(i)
            if L is None:
                L = Lh[i] = pack(mono_lcm(eh, E[i]))
            return L

        for ij, L in list(P.items()):
            if not (L - mh) & guard and lcm_h(ij[0]) != L and lcm_h(ij[1]) != L:
                del P[ij]
        for ig in kept - coprime:
            L = Lh[ig]
            g, sl = f[ig], L & mask
            sug = max(g.sugar + sl - (g.lmono & mask), sugar + sl - (mh & mask))
            P[ig, ih] = L
            heappush(heap, (sug, L, ig, ih))
        G = {ig for ig in G if (f[ig].lmono - mh) & guard}
        G.add(ih)
        basis = sorted((f[k] for k in G), key=lambda e: e.lmono)

    for d in gen_dicts:
        red, lead, sug = _reduce(F, pk, d, basis, False, max(m & mask for m in d))
        if lead is not None:
            add(red, lead, sug)

    while heap:
        _, L, i, j = heappop(heap)
        if P.pop((i, j), None) is None:
            continue  # pruned after it was formed
        s, sug = _spoly(F, pk, L, f[i], f[j])
        red, lead, sug = _reduce(F, pk, s, basis, False, sug)
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
        raw = _buchberger(ring.field, order, _generator_dicts(ideal))
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
                     lambda pk, basis: [pk.unpack(e.lmono) for e in basis])


def normal_form(f, ideal, order=GREVLEX):
    ring = ideal.ring
    basis = [g.terms for g in groebner_basis(ideal, order)]

    def run(pk):
        entries = [_GEntry(g, max(g), 0) for g in map(pk.pack_terms, basis)]
        red, _, _ = _reduce(ring.field, pk, pk.pack_terms(f.terms), entries, True)
        return pk.unpack_terms(red)
    return Polynomial(ring, _packed(order, ring.nvars, basis + [f.terms], run))


def is_member(f, ideal, order=GREVLEX):
    return normal_form(f, ideal, order).is_zero()


def ideal_equals(I, J):
    bi = groebner_basis(I)
    bj = groebner_basis(J)
    return ([g.canonical_key() for g in bi] == [g.canonical_key() for g in bj])


def ideal_contains(I, J):
    """True when J is a subset of I (generator-wise membership)."""
    return all(is_member(g, I) for g in J.gens)


# ---------------------------------------------------------------------------
# staircases, colengths, dimension

@dataclass
class Staircase:
    """Minimal leading monomials of an ideal and the standard-monomial count.

    count is None exactly when the quotient is infinite-dimensional, i.e.
    when some variable has no pure power among the generators.
    """
    ring: PresentedRing
    generators: tuple
    count: object  # big int, or None for infinite

    @property
    def is_finite(self):
        return self.count is not None


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
    return Staircase(ideal.ring, tuple(leads),
                     count_standard_monomials(leads, ideal.ring.nvars))


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

def _fresh_name(names):
    cand = "w"
    n = 0
    while cand in names:
        n += 1
        cand = "w%d" % n
    return cand


def _eliminate(ring, build):
    """w-free part of the block(1) basis of build(w, lift) in ring[w].

    The fresh variable w comes first; lift carries a polynomial of ring into
    ring[w].  The surviving elements come back as term dicts over ring.
    """
    ext = PresentedRing(ring.field, (_fresh_name(ring.varnames),) + ring.varnames)

    def lift(p):
        return Polynomial(ext, {(0,) + m: c for m, c in p.terms.items()})

    gens = build(ext.var(0), lift)
    raw = _buchberger(ext.field, MonomialOrder("block", 1), [g.terms for g in gens])
    return [{m[1:]: c for m, c in d.items()}
            for d in raw if all(m[0] == 0 for m in d)]


def ideal_intersection(I, J):
    """I cap J via the single-auxiliary-variable elimination trick."""
    ring = I.ring
    if J.ring != ring:
        raise RingError("intersection: ambient ring mismatch")
    rels = list(ring.relations)
    cut = _eliminate(ring, lambda w, lift:
                     [w * lift(g) for g in list(I.gens) + rels]
                     + [(1 - w) * lift(g) for g in list(J.gens) + rels])
    return _canonicalize(Ideal(ring, [Polynomial(ring, d) for d in cut]))


def _exact_div(num_terms, den_terms, F, order):
    """Quotient of a known multiple; raises if the division leaves a remainder."""
    def run(pk):
        guard = pk.guard
        p = pk.pack_terms(num_terms)
        den = pk.pack_terms(den_terms)
        heap = [-m for m in p]
        heapify(heap)
        dl = max(den)
        idc = F.inv(den[dl])
        quo = {}
        while heap:
            t = -heappop(heap)
            c = p.get(t)
            if c is None:
                continue
            sh = t - dl
            if sh & guard:
                raise RingError("exact division left a remainder")
            c = quo[sh] = F.mul(c, idc)
            _submul(F, guard, p, heap, c, sh, den)
        return pk.unpack_terms(quo)
    return _packed(order, len(next(iter(den_terms))), [num_terms, den_terms], run)


def ideal_colon(I, f):
    """(I : f) = (1/f)(I cap (f)) computed by elimination in the ambient ring."""
    ring = I.ring
    if isinstance(f, str):
        f = ring.parse(f)
    if f.is_zero():
        raise RingError("colon by the zero element")
    cut = _eliminate(ring, lambda w, lift:
                     [w * lift(g) for g in list(I.gens) + list(ring.relations)]
                     + [(1 - w) * lift(f)])
    quots = [Polynomial(ring, _exact_div(d, f.terms, ring.field, GREVLEX)) for d in cut]
    return _canonicalize(Ideal(ring, quots))


def _intersect_all(ring, ideals):
    """Canonical intersection of the ideals; R when there are none."""
    if not ideals:
        return _canonicalize(Ideal(ring, [ring.one]))
    return _canonicalize(reduce(ideal_intersection, ideals))


def ideal_colon_ideal(I, J):
    """(I : J) as the intersection of the generator-wise colons."""
    return _intersect_all(I.ring, [ideal_colon(I, g) for g in J.gens])


def saturate(I, J):
    """(I : J^infty) as the intersection over the generators g of J of
    I : g^infty = (I + relations + (1 - w*g)) cap R, one block(1) elimination
    in R[w] each (Cox-Little-O'Shea, section 4.4), with no chain of colons to
    iterate.  J with no nonzero generator saturates to R."""
    ring = I.ring
    base = list(I.gens) + list(ring.relations)
    cuts = [_eliminate(ring, lambda w, lift: [lift(h) for h in base] + [1 - w * lift(g)])
            for g in J.gens]
    return _intersect_all(ring, [Ideal(ring, [Polynomial(ring, d) for d in c]) for c in cuts])


def _canonicalize(I):
    """Rewrite an ideal on its reduced basis (deterministic generators)."""
    basis = groebner_basis(I)
    out = Ideal(I.ring, basis)
    out._basis_cache[GREVLEX.cache_key()] = tuple(basis)
    return out
