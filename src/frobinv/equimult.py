"""Equimultiplicity diagnostics along dimension-one primes.

The localization R -> R_p is realized for primes p with R/p isomorphic to
k[t] for one distinguished variable t: the fiber presentation re-reads the
relations over the rational-function field k(t), moving t into the
coefficients.  Hilbert-Kunz data of the localization is then an ordinary
colength computation over k(t), and substituting t -> alpha recovers the
presentation at the maximal ideal (p, t - alpha) exactly.

On top of the fiber sit the diagnostics: the saturation/tight-closure
necessary condition for equimultiplicity, the colength-identity residual
table, the rigidity identity l(R/m^{[q]}) = q^{dim R/p} l_fiber(p^{[q]}),
filtration-hypothesis checks, and the quartic-family reproduction drivers.

Tight closure enters only through semidecisions; every verdict records the
multiplier used and the warranties (test element, formal unmixedness) it is
conditional on.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .coeff import (PrimeField, ExtensionField, RationalFunctionField,
                    FieldElement)
from .polyring import Polynomial, Ideal, ring_make
from . import groebner, frobenius, invariants


class EquimultError(ValueError):
    pass


WARRANTY = ("conditional on the supplied multiplier being a test element "
            "and the ring being formally unmixed; neither is verified")


# ---------------------------------------------------------------------------
# fiber presentation

@dataclass
class FiberPresentation:
    """R localized at a prime p with R/p = k[t], presented over k(t)."""
    ring: object          # the original presented ring
    prime: object         # the prime ideal p
    t_index: int          # index of the distinguished variable in ring
    t_name: str
    fiber_ring: object    # same relations over k(t), t moved to coefficients

    def map_poly(self, f):
        """Push a polynomial of R into the fiber ring."""
        fr = self.fiber_ring
        K = fr.field
        j = self.t_index
        out = {}
        for m, c in f.terms.items():
            mm = m[:j] + m[j + 1:]
            out[mm] = K.add(out.get(mm, K.zero), K.monomial(c, m[j]))
        return Polynomial(fr, out)

    def map_ideal(self, I):
        return Ideal(self.fiber_ring, [self.map_poly(g) for g in I.gens])

    def specialize(self, alpha):
        """Substitute t -> alpha in the fiber presentation: the ring at the
        maximal ideal (p, t - alpha), presented over the finite field."""
        K = self.fiber_ring.field
        base = K.base
        if isinstance(alpha, int):
            alpha = FieldElement(base, base.from_int(alpha))
        if alpha.spec != base:
            raise EquimultError("specialization point must lie in %r" % base)
        out = ring_make(base, self.fiber_ring.varnames)
        rels = []
        for r in self.fiber_ring.relations:
            try:
                terms = {m: K.evaluate(c, alpha.payload) for m, c in r.terms.items()}
            except ZeroDivisionError:
                raise EquimultError("denominator vanishes at the "
                                    "specialization point") from None
            rels.append(Polynomial(out, terms))
        return ring_make(base, self.fiber_ring.varnames, relations=rels)


def fiber_presentation(prime, t_name=None):
    """Build the k(t)-fiber at a prime with R/p = k[t].

    The shape check: the reduced basis of p (with the relations) must have
    degree-one leading terms covering every variable except one survivor.
    """
    ring = prime.ring
    if ring.field.kind == "rational-function":
        raise EquimultError("fiber presentations need a finite coefficient field")
    basis = groebner.groebner_basis(prime)
    lead_vars = set()
    for g in basis:
        lm = g.leading_monomial()
        if sum(lm) != 1:
            raise EquimultError("prime is not in the supported shape: "
                                "leading term %s is not a single variable"
                                % str(g))
        lead_vars.add(lm.index(1))
    survivors = [i for i in range(ring.nvars) if i not in lead_vars]
    if len(survivors) != 1:
        raise EquimultError("prime does not leave exactly one free variable")
    j = survivors[0]
    if t_name is not None and ring.varnames[j] != t_name:
        raise EquimultError("designated variable %r does not survive; %r does"
                            % (t_name, ring.varnames[j]))
    name = ring.varnames[j]
    K = RationalFunctionField(ring.field, name)
    varnames = ring.varnames[:j] + ring.varnames[j + 1:]
    fp = FiberPresentation(ring, prime, j, name, ring_make(K, varnames))
    fp.fiber_ring = ring_make(K, varnames, relations=[fp.map_poly(r) for r in ring.relations])
    return fp


def localized_hk(prime, e, fiber=None):
    """l over k(t) of the image of p^{[p^e]} in the fiber presentation: the
    bracket power of the image of p, as the fiber map commutes with
    Frobenius."""
    fp = fiber or fiber_presentation(prime)
    return invariants.hk_function(fp.map_ideal(prime), e)


def localized_hk_report(prime, e_max, fiber=None, jobs=1):
    """HK rows of the localization, normalized by q^{dim R - 1}."""
    fp = fiber or fiber_presentation(prime)
    image = fp.map_ideal(prime)
    return invariants.ehk_estimate(image, e_max, jobs=jobs)


# ---------------------------------------------------------------------------
# colength identity, rigidity

@dataclass
class ColengthIdentityReport:
    hs_factor: int      # e(x on R/p)
    rows: list          # (e, q, l(R/(p^[q]+xR)), hs_factor * l_fiber, residual)
    all_zero: bool


def colength_identity_check(prime, x, e_max, fiber=None):
    """Residuals l(R/(p^{[q]} + xR)) - e(x on R/p) * l_fiber(p^{[q]}).

    The identity with tight closures in place of p^{[q]} characterizes
    equimultiplicity; the computable surrogate reported here differs from it
    by the colength gap of the tight closure, so zero residuals are strong
    evidence and positive residuals are what failure looks like.
    """
    ring = prime.ring
    if isinstance(x, str):
        x = ring.parse(x)
    fp = fiber or fiber_presentation(prime)
    hs = invariants.parameter_degree(prime, x)
    fiber_rows, = invariants.hk_table([fp.map_ideal(prime)], range(1, e_max + 1))
    rows = []
    for e, q, ell, _ in fiber_rows:
        pq = frobenius.frobenius_power(prime, e)
        lhs = groebner.colength(Ideal(ring, list(pq.gens) + [x]))
        if lhs is None:
            raise EquimultError("(p^[q], x) is not origin-primary")
        rows.append((e, q, lhs, hs * ell, lhs - hs * ell))
    return ColengthIdentityReport(hs, rows, all(r[4] == 0 for r in rows))


@dataclass
class RigidityReport:
    rows: list          # (e, q, l(R/m^[q]), q^{dim R/p} * l_fiber, ok)
    all_pass: bool


def rigidity_check(prime, e_max, fiber=None):
    """Check l(R/m^{[q]}) = q^{dim R/p} * l_fiber(p^{[q]}) for e <= e_max.

    Under a weak F-regularity warranty the identity holds iff the numbers of
    minimal generators of F_*^e R and F_*^e R_p agree; a failing row
    certifies (conditionally) that the HK multiplicities differ.
    """
    if e_max < 1:
        raise EquimultError("rigidity_check needs e_max >= 1")
    ring = prime.ring
    fp = fiber or fiber_presentation(prime)
    dimq = groebner.ideal_dimension(prime)
    rows = []
    for (e, q, lhs, _), (_, _, ell, _) in zip(*invariants.hk_table(
            [ring.origin_ideal(), fp.map_ideal(prime)], range(1, e_max + 1))):
        rhs = q ** dimq * ell
        rows.append((e, q, lhs, rhs, lhs == rhs))
    return RigidityReport(rows, all(r[4] for r in rows))


# ---------------------------------------------------------------------------
# the equimultiplicity necessary condition

@dataclass
class EquimultVerdict:
    status: str            # consistent | violates-necessary-condition | inconclusive
    witness: object        # (e, polynomial) for a violation, else None
    records: list          # (e, [(z, fclosure verdict, tc verdict), ...])
    residuals: object      # ColengthIdentityReport or None
    warranty: str


def equimult_check(prime, c=None, e_max=3, tc_e_max=2):
    """Test the necessary condition: saturation adds nothing to p^{[q]}
    beyond its tight closure.

    For each e the saturation S_e = (p^{[q]} : m^infty) is computed; every
    reduced-basis element outside p^{[q]} is screened by Frobenius-closure
    and (when a multiplier is supplied) tight-closure membership in p^{[q]}.
    A certified non-member violates the necessary condition for
    equimultiplicity -- conditionally on the multiplier being a test element.
    """
    if e_max < 1:
        raise EquimultError("equimult_check needs e_max >= 1")
    if tc_e_max < 1:
        raise EquimultError("equimult_check needs tc_e_max >= 1")
    ring = prime.ring
    if groebner.ideal_dimension(prime) != 1:
        raise EquimultError("equimultiplicity check needs dim R/p = 1")
    if isinstance(c, str):
        c = ring.parse(c)
    m = ring.origin_ideal()
    records = []
    status = "consistent"
    witness = None
    undecided = False
    for e in range(1, e_max + 1):
        pq = frobenius.frobenius_power(prime, e)
        sat = groebner.saturate(pq, m)
        found = []
        for z in groebner.groebner_basis(sat):
            if groebner.is_member(z, pq):
                continue
            fcl = frobenius.frobenius_closure_membership(z, pq, tc_e_max)
            tc = None
            if c is not None:
                tc = frobenius.tc_membership(z, pq, c, tc_e_max)
            found.append((z, fcl, tc))
            if tc is not None and tc.status == "non-member":
                status = "violates-necessary-condition"
                if witness is None:
                    witness = (e, z)
            elif fcl.status != "definitive-member" and tc is None:
                undecided = True
        records.append((e, found))
    if status == "consistent" and undecided:
        status = "inconclusive"
    residuals = None
    try:
        fp = fiber_presentation(prime)
        t = ring.var(fp.t_index)
        residuals = colength_identity_check(prime, t, e_max, fiber=fp)
    except (EquimultError, invariants.InvariantError):
        pass
    return EquimultVerdict(status, witness, records, residuals, WARRANTY)


# ---------------------------------------------------------------------------
# filtration hypotheses

@dataclass
class FiltrationReport:
    hypotheses_ok: bool
    failures: list       # strings describing failed containments
    rows: list           # (e, q, norm l(R/L_e), norm l(R/I^[q]), gap)
    trends_match: bool
    spot_checks: list    # (e, generator, ClosureVerdict) when c supplied


def filtration_check(I, seq, c=None, tc_e_max=2):
    """Verify the filtration hypotheses I^{[q]} subset L_e and
    L_e^{[p]} subset L_{e+1}, and compare normalized colength trends.

    Matching trends (final gap below 1/q_max -- a heuristic at the 1/q
    scale used throughout) plus the hypotheses constitute evidence for the
    containment of the L_e in the tight closure of I^{[q]}.
    """
    ring = I.ring
    p = ring.field.p
    d = ring.dim
    if isinstance(c, str):
        c = ring.parse(c)
    failures = []
    for idx, L in enumerate(seq, start=1):
        bracket = frobenius.frobenius_power(I, idx)
        if not groebner.ideal_contains(L, bracket):
            failures.append("I^[p^%d] is not inside L_%d" % (idx, idx))
    for idx in range(1, len(seq)):
        if not groebner.ideal_contains(seq[idx],
                                       frobenius.frobenius_power(seq[idx - 1], 1)):
            failures.append("L_%d^[p] is not inside L_%d" % (idx, idx + 1))
    rows = []
    irows, = invariants.hk_table([I], range(1, len(seq) + 1))
    for L, (idx, q, _, ci) in zip(seq, irows):
        cl = groebner.colength(L)
        if cl is None:
            raise EquimultError("L_%d has infinite colength" % idx)
        cl = Fraction(cl, q ** d)
        rows.append((idx, q, cl, ci, abs(cl - ci)))
    qmax = p ** len(seq)
    trends = bool(rows) and rows[-1][4] <= Fraction(1, qmax)
    spots = []
    if c is not None:
        for idx, L in enumerate(seq, start=1):
            bracket = frobenius.frobenius_power(I, idx)
            for z in L.gens:
                spots.append((idx, z,
                              frobenius.tc_membership(z, bracket, c, tc_e_max)))
    return FiltrationReport(not failures, failures, rows, trends, spots)


# ---------------------------------------------------------------------------
# quartic family drivers

QUARTIC_BODY = "z^4+x*y*z^2+(x^3+y^3)*z"
QUARTIC_PRODUCT_ZERO = "z*(x+y+z)*((x+y+z)^2+z*y)"


def quartic_ring(alpha):
    """Q_alpha = K[x,y,z]/(z^4+xyz^2+(x^3+y^3)z + alpha x^2 y^2) for a field
    element alpha, over alpha's own field."""
    K = alpha.spec
    shell = ring_make(K, ("x", "y", "z"))
    rel = shell.parse(QUARTIC_BODY) + shell.const(alpha) * shell.parse("x^2*y^2")
    return ring_make(K, ("x", "y", "z"), relations=[rel])


@dataclass
class MonskyRepro:
    ring: object
    report: object       # HKReport
    target: Fraction
    within: Fraction     # |estimate - target|


def monsky_repro(alpha_spec, e_max, lam_modulus=(1, 1, 1), jobs=1):
    """Reproduce the quartic family limits.

    alpha_spec selects the coefficient:
      "zero"          -- the split quartic z(x+y+z)((x+y+z)^2+zy); target 7/2.
      "algebraic"     -- alpha = lam^2 + lam for lam = the generator of
                         F_2[a]/(lam_modulus); target 3 + 4^{-m} with
                         m the degree of the modulus.
      "transcendental"-- alpha = t over F_2(t); target 3.
    """
    if alpha_spec == "zero":
        ring = ring_make(PrimeField(2), ("x", "y", "z"),
                         relations=[QUARTIC_PRODUCT_ZERO])
        target = Fraction(7, 2)
    elif alpha_spec == "algebraic":
        K = ExtensionField(2, lam_modulus)
        lam = K.symbols()[K.gen]
        alpha = lam * lam + lam
        if not alpha:
            raise EquimultError("lam^2 + lam vanished; modulus does not give "
                                "an algebraic quartic")
        ring = quartic_ring(alpha)
        target = 3 + Fraction(1, 4 ** K.degree)
    elif alpha_spec == "transcendental":
        K = RationalFunctionField(PrimeField(2), "t")
        alpha = K.symbols()["t"]
        ring = quartic_ring(alpha)
        target = Fraction(3)
    else:
        raise EquimultError("alpha_spec must be zero | algebraic | transcendental")
    report = invariants.ehk_estimate(ring.origin_ideal(), e_max, jobs=jobs)
    return MonskyRepro(ring, report, target, abs(report.estimate - target))


def brenner_monsky_ring(field=None):
    """K[x,y,z,t]/(z^4 + xyz^2 + (x^3+y^3)z + t x^2 y^2), K finite."""
    K = field or ExtensionField(2, (1, 1, 1))
    if K.p != 2:
        raise EquimultError("the quartic family lives in characteristic 2")
    return ring_make(K, ("x", "y", "z", "t"),
                     relations=[QUARTIC_BODY + "+t*x^2*y^2"])


def bm_maximal_ideal(ring, alpha):
    """m_alpha = (x, y, z, t - alpha), alpha a field element or an int."""
    t = ring.var(3)
    return Ideal(ring, [ring.var(0), ring.var(1), ring.var(2),
                        t - ring.const(alpha)])


@dataclass
class BMGapReport:
    ring: object
    fiber_rows: list     # (e, q, l_fiber, Fraction l_fiber/q^2)
    alpha_rows: dict     # alpha string -> [(e, q, l, Fraction l/q^3, gap)]
    min_gap: Fraction


def bm_gap_table(alphas, e_min=2, e_max=4, field=None, jobs=1):
    """Normalized HK at each m_alpha against the localized rows at
    p = (x,y,z): gap_e = l(R/m_alpha^{[q]})/q^3 - l_fiber(p^{[q]})/q^2."""
    if e_max < e_min:
        raise EquimultError("the gap table needs e_max >= e_min = %d" % e_min)
    ring = brenner_monsky_ring(field)
    prime = Ideal(ring, [ring.var(0), ring.var(1), ring.var(2)])
    fp = fiber_presentation(prime)
    ideals = [bm_maximal_ideal(ring, alpha) for alpha in alphas]
    # the fiber ideal first: its cells are the largest, so the pool starts them first
    fiber_rows, *residue_rows = invariants.hk_table(
        [fp.map_ideal(prime)] + ideals, range(e_min, e_max + 1), jobs)
    alpha_rows = {}
    for m_alpha, rows in zip(ideals, residue_rows):
        alpha_rows[str(m_alpha.gens[3])] = [
            (e, q, ell, norm, norm - fib[3])
            for (e, q, ell, norm), fib in zip(rows, fiber_rows)]
    min_gap = min((row[4] for rows in alpha_rows.values() for row in rows),
                  default=None)
    return BMGapReport(ring, fiber_rows, alpha_rows, min_gap)


@dataclass
class SpecializationReport:
    alpha: object
    relation_match: bool
    rows: list           # (e, q, l_specialized, l_direct, equal)
    all_equal: bool


def specialization_consistency(alpha, e_max, field=None):
    """Substituting t -> alpha into the fiber presentation must reproduce,
    exactly, the ring obtained by writing alpha into the quartic directly."""
    ring = brenner_monsky_ring(field)
    K = ring.field
    if isinstance(alpha, int):
        alpha = FieldElement(K, K.from_int(alpha))
    prime = Ideal(ring, [ring.var(0), ring.var(1), ring.var(2)])
    fp = fiber_presentation(prime)
    specialized = fp.specialize(alpha)
    direct = quartic_ring(alpha)
    rel_match = ([r.canonical_key() for r in specialized.relations]
                 == [r.canonical_key() for r in direct.relations])
    rows = [(e, q, a, b, a == b) for (e, q, a, _), (_, _, b, _) in zip(
        *invariants.hk_table([specialized.origin_ideal(), direct.origin_ideal()],
                             range(1, e_max + 1)))]
    return SpecializationReport(alpha, rel_match, rows,
                                rel_match and all(r[4] for r in rows))


# ---------------------------------------------------------------------------
# the Watanabe-Yoshida style comparison

@dataclass
class WYReport:
    rows: list           # (e, q, lhs, rhs, ok)
    derived: tuple       # (p^d, l(R/m^[p]), ok)
    all_pass: bool


def wy_inequality_check(I, e_max):
    """Row-wise check of l(R/I^{[q]}) >= l(m^{[p][q]}/I^{[q]}) + p^d q^d.

    Both sides are assembled from exact colengths; since
    l(R/I^{[q]}) = l(m^{[p][q]}/I^{[q]}) + l(R/m^{[p q]}), each row reduces
    to the Kunz-type bound l(R/m^{[pq]}) >= (pq)^d, and the derived pair
    compares p^d with l(R/m^{[p]}).
    """
    if e_max < 1:
        raise EquimultError("wy_inequality_check needs e_max >= 1")
    ring = I.ring
    p = ring.field.p
    d = ring.dim
    m = ring.origin_ideal()
    mp = frobenius.frobenius_power(m, 1)
    if not groebner.ideal_contains(mp, I):
        raise EquimultError("wy check needs I inside m^{[p]}")
    rows = []
    # (m^{[p]})^{[q]} = m^{[pq]}: both rows come from one table at levels 1..e_max
    for (e, q, iq, _), (_, _, mpq, _) in zip(
            *invariants.hk_table([I, mp], range(1, e_max + 1))):
        lhs = (iq - mpq) + (p ** d) * (q ** d)
        rows.append((e, q, lhs, iq, iq >= lhs))
    mp_len = groebner.colength(mp)
    derived = (p ** d, mp_len, mp_len >= p ** d)
    return WYReport(rows, derived, derived[2] and all(r[4] for r in rows))
