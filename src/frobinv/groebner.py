"""Buchberger kernel and the ideal-theoretic operations built on it.

The kernel works on raw term dicts (monomial tuple -> coefficient payload)
through a FieldSpec's raw ops, so the same code path serves F_p, F_{p^k},
and rational-function coefficients.  Reduction takes terms from the top
down off a min-heap of the order's ``desc_key``s, next to the term dict;
a monomial is pushed when it enters the dict, and a popped one that has
cancelled since is skipped.  Pair pruning uses the Gebauer-Moeller update
(product + chain criteria); pair selection uses the sugar strategy with
ties broken by the lcm's order key, so runs are deterministic.  Each pair's
(sugar, lcm key) is computed once, when the pair is formed, and pairs are
popped off a heap, skipping those pruned since.

Intersection, colon and saturation each eliminate a fresh variable w under
block(1).  Saturation needs no chain of colons: I : J^infty is the
intersection over the generators g of J of the eliminations (I, 1 - w*g) cap R.

Colengths of zero-dimensional quotients are counted from the staircase of
leading monomials by a coordinate-by-coordinate lattice sweep over the
minimal generators; it returns an exact big integer, or None when the
staircase is infinite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from heapq import heapify, heappop, heappush
from itertools import combinations

from .polyring import (Polynomial, Ideal, PresentedRing, MonomialOrder,
                       GREVLEX, RingError,
                       mono_mul, mono_divides, mono_quot, mono_lcm)


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


def _ordered(desc, terms):
    """A working copy of terms and the min-heap of its (desc_key, monomial)s."""
    p = dict(terms)
    heap = [(desc(m), m) for m in p]
    heapify(heap)
    return p, heap


def _submul(F, desc, p, heap, c, sh, terms):
    """p -= c * x^sh * terms in place; a monomial new to p goes on the heap."""
    zero, sub, mul = F.zero, F.sub, F.mul
    for m, v in terms.items():
        mm = mono_mul(m, sh)
        old = p.get(mm)
        if old is None:
            p[mm] = sub(zero, mul(c, v))
            heappush(heap, (desc(mm), mm))
        else:
            nv = sub(old, mul(c, v))
            if nv == zero:
                del p[mm]
            else:
                p[mm] = nv


def _reduce(F, desc, terms, basis, full, sugar=0):
    """Divide terms by the monic basis entries (sorted by ascending lead).

    Terms are taken from the top down off the heap; a popped monomial no
    longer in the working dict cancelled after it was pushed, and is skipped.
    full=False stops at the first irreducible leading term (top-reduction,
    used inside the main loop); full=True computes the normal form.  Returns
    (terms, leading monomial or None for zero, sugar) with the sugar updated
    through every cancellation.
    """
    p, heap = _ordered(desc, terms)
    tail = {}
    while heap:
        t = heappop(heap)[1]
        c = p.get(t)
        if c is None:
            continue
        for b in basis:
            if mono_divides(b.lmono, t):
                break
        else:
            if not full:
                return p, t, sugar
            del p[t]
            tail[t] = c
            continue
        sh = mono_quot(t, b.lmono)
        sugar = max(sugar, b.sugar + sum(sh))
        _submul(F, desc, p, heap, c, sh, b.terms)
    return tail, next(iter(tail), None), sugar


def _spoly(F, f, g):
    lcm = mono_lcm(f.lmono, g.lmono)
    shf = mono_quot(lcm, f.lmono)
    shg = mono_quot(lcm, g.lmono)
    d = {mono_mul(m, shf): v for m, v in f.terms.items()}
    for m, v in g.terms.items():
        mm = mono_mul(m, shg)
        nv = F.sub(d.get(mm, F.zero), v)
        if nv == F.zero:
            d.pop(mm, None)
        else:
            d[mm] = nv
    sugar = max(f.sugar + sum(shf), g.sugar + sum(shg))
    return d, sugar


def _buchberger(F, order, gen_dicts):
    """Reduced monic basis (list of term dicts, ascending leading key)."""
    key, desc = order.key, order.desc_key
    f = []          # all entries ever created
    G = set()       # indices of current basis entries
    basis = []      # the entries of G, ascending by leading key
    P = {}          # pending pairs (i, j), i < j -> lcm of their leads
    heap = []       # (sugar, key(lcm), i, j) of every pair formed

    def add(terms, mh, sugar):
        # Gebauer-Moeller: prune new pairs against each other (chain
        # criterion), drop coprime-lead pairs (product criterion), prune the
        # old pair set, and evict basis leads the new lead mh divides.  Each
        # lcm(mh, lm(g)) is computed once per update.
        nonlocal G, basis
        ih = len(f)
        f.append(_GEntry(_make_monic(F, terms, mh), mh, sugar))
        Lh = {ig: mono_lcm(mh, f[ig].lmono) for ig in G}
        coprime = {ig for ig in G if mono_mul(mh, f[ig].lmono) == Lh[ig]}
        cand = set(G)
        kept = set()
        while cand:
            ig = cand.pop()
            L = Lh[ig]
            if ig in coprime or (
                    not any(mono_divides(Lh[ic], L) for ic in cand)
                    and not any(mono_divides(Lh[ik], L) for ik in kept)):
                kept.add(ig)

        def lcm_h(i):
            L = Lh.get(i)
            if L is None:
                L = Lh[i] = mono_lcm(mh, f[i].lmono)
            return L

        for ij, L in list(P.items()):
            if mono_divides(mh, L) and lcm_h(ij[0]) != L and lcm_h(ij[1]) != L:
                del P[ij]
        for ig in kept - coprime:
            L = Lh[ig]
            g, sl = f[ig], sum(L)
            sug = max(g.sugar + sl - sum(g.lmono), sugar + sl - sum(mh))
            P[ig, ih] = L
            heappush(heap, (sug, key(L), ig, ih))
        G = {ig for ig in G if not mono_divides(mh, f[ig].lmono)}
        G.add(ih)
        basis = sorted((f[k] for k in G), key=lambda e: key(e.lmono))

    for d in gen_dicts:
        if d:
            red, lead, sug = _reduce(F, desc, d, basis, False, max(sum(m) for m in d))
            if lead is not None:
                add(red, lead, sug)

    while heap:
        _, _, i, j = heappop(heap)
        if P.pop((i, j), None) is None:
            continue  # pruned after it was formed
        s, sug = _spoly(F, f[i], f[j])
        red, lead, sug = _reduce(F, desc, s, basis, False, sug)
        if lead is not None:
            add(red, lead, sug)

    # inter-reduce to the unique reduced basis; the leads divide no other
    # lead, so each entry keeps its monic lead and the ascending order
    return [_reduce(F, desc, e.terms, [b for b in basis if b is not e], True)[0]
            for e in basis]


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
        gens = [g.terms for g in ideal.gens] + [r.terms for r in ring.relations]
        raw = _buchberger(ring.field, order, gens)
        cached = tuple(Polynomial(ring, d) for d in raw)
        ideal._basis_cache[ck] = cached
    return list(cached)


def normal_form(f, ideal, order=GREVLEX):
    entries = []
    for g in groebner_basis(ideal, order):
        lead = g.leading_monomial(order)
        entries.append(_GEntry(g.terms, lead, g.degree()))
    red, _, _ = _reduce(ideal.ring.field, order.desc_key, f.terms, entries, True)
    return Polynomial(ideal.ring, red)


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
    basis = groebner_basis(ideal, order)
    leads = minimalize_monomials([g.leading_monomial(order) for g in basis])
    return Staircase(ideal.ring, tuple(leads),
                     count_standard_monomials(leads, ideal.ring.nvars))


def colength(ideal):
    """dim_k of the quotient by (relations + generators); None if infinite."""
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
    basis = groebner_basis(ideal)
    leads = [g.leading_monomial() for g in basis]
    return staircase_dimension(leads, ideal.ring.nvars)


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
    desc = order.desc_key
    p, heap = _ordered(desc, num_terms)
    dl = min(den_terms, key=desc)
    idc = F.inv(den_terms[dl])
    quo = {}
    while heap:
        t = heappop(heap)[1]
        c = p.get(t)
        if c is None:
            continue
        if not mono_divides(dl, t):
            raise RingError("exact division left a remainder")
        sh = mono_quot(t, dl)
        c = quo[sh] = F.mul(c, idc)
        _submul(F, desc, p, heap, c, sh, den_terms)
    return quo


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
