"""Frobenius-specific ideal operations.

Bracket powers I^{[p^e]}, membership semidecisions for tight closure and
Frobenius closure, Fedder-style splitting ideals for hypersurfaces, and
Jacobian-derived candidate test elements.  Fedder's splitting numbers a_e are
ranks on S/m^{[q]}: q^n - l(S/(m^{[q]}, f^(q-1))), one colength in the ambient
ring, with f^(q-1) formed by truncated Frobenius products.

Tight closure is checked as the finite-stage criterion c*z^{p^e} in I^{[p^e]}
for e = 1..e_max.  A run of passes is evidence, not proof; a failure is a
certificate only when the caller warrants that c is a genuine test element.
Verdicts therefore record the multiplier and the exponent range tested.
"""

from collections import namedtuple

from .polyring import Polynomial, Ideal, GREVLEX, frobenius_order
from . import InputError, groebner


class FrobeniusError(InputError):
    pass


# what a tc_membership verdict is conditional on
WARRANTY = ("conditional on the supplied multiplier being a test element "
            "and the ring being formally unmixed; neither is verified")


class ClosureVerdict(namedtuple("ClosureVerdict", "status e_bound multiplier",
                                defaults=(None,))):
    """Outcome of a closure-membership semidecision.

    status is one of:
      definitive-member  -- plain membership (tight closure) or a witnessed
                            containment z^{p^e} in I^{[p^e]} (Frobenius
                            closure); e_bound records the witness exponent.
      member-up-to       -- every stage e = 1..e_bound passed; evidence only.
      non-member         -- stage e_bound failed; definitive for tight
                            closure only if the multiplier is a genuine
                            test element.
      non-member-up-to   -- no stage e <= e_bound certified membership
                            (Frobenius closure); larger e could still work.

    multiplier is the tight-closure multiplier c, or None (Frobenius closure).
    """
    __slots__ = ()

    def is_membership_evidence(self):
        return self.status in ("definitive-member", "member-up-to")


def frobenius_power(I, e):
    """The bracket power I^{[p^e]}, generated by g^{p^e} generator-wise."""
    # refused here, not only per generator: the zero ideal has none
    frobenius_order(I.ring.field.p, e)
    return Ideal(I.ring, [g.frobenius_power(e) for g in I.gens])


def tc_membership(z, I, c, e_max):
    """Stage-by-stage tight-closure test: c*z^{p^e} in I^{[p^e]}, e <= e_max."""
    if e_max < 1:
        raise FrobeniusError("tc_membership needs e_max >= 1")
    ring = I.ring
    frobenius_order(ring.field.p, e_max)
    if isinstance(z, str):
        z = ring.parse(z)
    if isinstance(c, str):
        c = ring.parse(c)
    if c.is_zero():
        raise FrobeniusError("tight-closure multiplier must be nonzero")
    if groebner.is_member(z, I):
        return ClosureVerdict("definitive-member", 0, c)
    for e in range(1, e_max + 1):
        Iq = frobenius_power(I, e)
        test = c * z.frobenius_power(e)
        if not groebner.is_member(test, Iq):
            return ClosureVerdict("non-member", e, c)
    return ClosureVerdict("member-up-to", e_max, c)


def frobenius_closure_membership(z, I, e_max):
    """z in the Frobenius closure iff z^{p^e} in I^{[p^e]} for some e."""
    if e_max < 0:
        raise FrobeniusError("frobenius_closure_membership needs e_max >= 0")
    ring = I.ring
    frobenius_order(ring.field.p, e_max)
    if isinstance(z, str):
        z = ring.parse(z)
    for e in range(e_max + 1):
        if groebner.is_member(z.frobenius_power(e), frobenius_power(I, e)):
            return ClosureVerdict("definitive-member", e)
    return ClosureVerdict("non-member-up-to", e_max)


def _check_splitting_ring(ring, e):
    if len(ring.relations) > 1:
        raise FrobeniusError("splitting ideals need a hypersurface or regular ring")
    if ring.field.kind == "rational-function":
        raise FrobeniusError("splitting ideals need a perfect coefficient field")
    if e < 1:
        raise FrobeniusError("splitting ideals start at e = 1")


def _fedder_power(ring, e):
    """f^(q-1) modulo m^{[q]} in the ambient ring S, q = p^e; 1 when R = S.

    Every base-p digit of q - 1 is p - 1, so f^(q-1) = prod_{i<e} (f^(p-1))^{[p^i]}.
    A normal form modulo the monomial ideal m^{[q]} drops each term with an
    exponent >= q, and dropping commutes with products: each partial product
    is cut as it is formed, the sparse high Frobenius twists first.
    """
    amb, p, q = ring.ambient(), ring.field.p, ring.field.p ** e
    h = Polynomial(amb, ring.relations[0].terms) ** (p - 1) if ring.relations else amb.one
    g = amb.one
    for i in reversed(range(e)):
        g = g * h.frobenius_power(i)
        g = Polynomial(amb, {m: c for m, c in g.terms.items() if max(m) < q})
    return g


def splitting_ideal(ring, e):
    """The e-th splitting ideal I_e.

    Regular ambient ring: I_e = m^{[p^e]}.  Hypersurface S/(f): the image in
    the quotient of the colon (m_S^{[p^e]} :_S f^{p^e - 1}), computed in the
    ambient polynomial ring S.  Its colength in the quotient counts the free
    splittings a_e of F_*^e R (``splitting_number``).
    """
    _check_splitting_ring(ring, e)
    if not ring.relations:
        return frobenius_power(ring.origin_ideal(), e)
    g = _fedder_power(ring, e)
    if g.is_zero():
        # f^{p^e-1} already fell into m^{[p^e]}: nothing splits at this level
        return Ideal(ring, [ring.one])
    colon = groebner.ideal_colon(frobenius_power(ring.ambient().origin_ideal(), e), g)
    return Ideal(ring, [Polynomial(ring, b.terms) for b in colon.gens])


def splitting_number(ring, e):
    """Fedder's a_e = l(R/I_e) = l(S/(m^{[q]} : g)), g = f^(q-1): the rank of
    multiplication by g on S/m^{[q]}, whose cokernel is S/(m^{[q]}, g).  So
    a_e = q^n - l(S/(m^{[q]}, g)); a regular ring (g = 1) gives q^n.
    """
    _check_splitting_ring(ring, e)
    amb = ring.ambient()
    mq = frobenius_power(amb.origin_ideal(), e)
    rest = groebner.colength(Ideal(amb, mq.gens + (_fedder_power(ring, e),)))
    return (ring.field.p ** e) ** ring.nvars - rest


class SplittingIdealSeq(namedtuple("SplittingIdealSeq", "entries")):
    """Splitting ideals I_e with their colength proxies a_e = l(R/I_e):
    entries are (e, I_e, a_e)."""
    __slots__ = ()


def splitting_sequence(ring, e_max):
    frobenius_order(ring.field.p, e_max)
    return SplittingIdealSeq([(e, splitting_ideal(ring, e), splitting_number(ring, e))
                              for e in range(1, e_max + 1)])


def jacobian_candidate(ring):
    """A monic nonzero partial derivative of the hypersurface relation that
    survives modulo (f), offered as a candidate test element.

    Among the surviving partials the one with the largest leading monomial
    is chosen (ties by variable index), so the candidate is deterministic.
    """
    if len(ring.relations) != 1:
        raise FrobeniusError("jacobian candidate needs exactly one relation")
    f = ring.relations[0]
    rel_ideal = Ideal(ring, [])
    best = None
    for i in range(ring.nvars):
        df = f.derivative(i)
        if df.is_zero() or groebner.normal_form(df, rel_ideal).is_zero():
            continue
        if best is None or GREVLEX.key(df.leading_monomial()) > GREVLEX.key(
                best.leading_monomial()):
            best = df
    if best is None:
        raise FrobeniusError(
            "all partial derivatives vanish modulo the relation; "
            "supply a test-element candidate explicitly")
    return best / best.leading_coefficient()
