"""Numerical invariants: Hilbert-Kunz functions and multiplicity estimates,
Hilbert-Samuel multiplicity of one-dimensional quotients, F-signature
functions, descent sequences along a parameter, and the Lech/associativity
consistency tables.

Every row is an exact big integer colength; normalized values l/q^d are
exact Fractions.  Limit estimates are least-squares fits of the model
l/q^d ~ c + b/q over the last rows (tag "affine-in-1/q"); the fit is a
reporting convenience -- rows always travel with it, and the error band is
max(|fit - last row|, last Cauchy difference).
"""

import os
from collections import namedtuple
from fractions import Fraction

from .polyring import MAX_EXTENSION_ORDER, Ideal, Polynomial, frobenius_order, ring_make
from . import InputError, groebner
from . import frobenius


class InvariantError(InputError):
    pass


# ---------------------------------------------------------------------------
# report types

class HKReport(namedtuple("HKReport", "rows dim estimate method error_band cauchy")):
    """Hilbert-Kunz rows with their limit estimate.

    rows: (e, q, length, Fraction(length, q^d)); cauchy: |row_{e+1} - row_e|
    of the normalized values.
    """
    __slots__ = ()


class FSigReport(namedtuple("FSigReport", "rows dim estimate error_band")):
    """F-signature rows (e, q, a_e, Fraction(a_e, q^d)) with their estimate."""
    __slots__ = ()


class HSResult(namedtuple("HSResult", "multiplicity cm_defect lengths")):
    """Hilbert-Samuel multiplicity; lengths: l(S/x^n) for n = 1 up to the
    certified stop."""
    __slots__ = ()


class DescentReport(namedtuple("DescentReport", "dim table per_n_estimates "
                               "monotone_in_n prediction hs_factor")):
    """The descent table (n, e) -> Fraction(l(R/(p^[q], x^{nq})), n q^d).

    prediction: e(x on R/p) * fiber estimate, a Fraction, or None;
    hs_factor: e(x on R/p).
    """
    __slots__ = ()


class LechReport(namedtuple("LechReport", "rows ok")):
    """Lech-type rows (e, lhs, rhs, ok)."""
    __slots__ = ()


class AssocReport(namedtuple("AssocReport", "factors rows components "
                             "lhs_estimate rhs_estimate")):
    """Associativity rows (e, q, lhs_norm, rhs_norm, |lhs - rhs|);
    components: an HKReport per reduced factor."""
    __slots__ = ()


# ---------------------------------------------------------------------------
# fitting helper

def affine_fit(points):
    """Exact least squares for y ~ a + b*u over (u, y) Fraction pairs."""
    n = Fraction(len(points))
    su = sum((u for u, _ in points), Fraction(0))
    sy = sum((y for _, y in points), Fraction(0))
    suu = sum((u * u for u, _ in points), Fraction(0))
    suy = sum((u * y for u, y in points), Fraction(0))
    det = n * suu - su * su
    if det == 0:
        return points[-1][1], Fraction(0)
    a = (sy * suu - su * suy) / det
    b = (n * suy - su * sy) / det
    return a, b


def _tail_fit(rows):
    """Fit the last min(3, len) normalized rows against 1/q."""
    pts = [(Fraction(1, q), norm) for (_, q, _, norm) in rows[-3:]]
    a, _ = affine_fit(pts)
    return a


# ---------------------------------------------------------------------------
# Hilbert-Kunz

def hk_function(I, e):
    """l(R/I^{[p^e]}) as an exact big integer."""
    return hk_table([I], [e])[0][0][2]


def _hk_cell(args):
    I, e = args
    return groebner.colength(frobenius.frobenius_power(I, e))


def sweep(plan, jobs):
    """Run the cells a plan asks for and return the plan's value.

    A plan is a generator that yields lists of cells (I, e) and is sent
    back the colengths l(R/I^{[p^e]}) of each list, in order (None where
    infinite); plans compose with ``yield from`` (see ``hk_plan``).  Every
    list of the plan runs in one process pool of at most jobs workers,
    started for the first list of two cells or more and with no more workers
    than it has cells or the machine has CPUs; before that, and with
    jobs <= 1, cells run here.
    """
    pool = None
    lengths = None
    try:
        while True:
            try:
                cells = plan.send(lengths)
            except StopIteration as done:
                return done.value
            if pool is None and jobs > 1 and len(cells) > 1:
                # imported here: the pool's modules cost every process start otherwise
                from concurrent.futures import ProcessPoolExecutor
                pool = ProcessPoolExecutor(max_workers=min(jobs, len(cells), os.cpu_count() or 1))
            if pool is None:
                lengths = [_hk_cell(c) for c in cells]
            else:
                lengths = list(pool.map(_hk_cell, cells))
    finally:
        if pool is not None:
            pool.shutdown()


_sweep = sweep  # the sweep's former name, which bench/tracing.py wraps


def hk_plan(ideals, levels):
    """The plan (see ``sweep``) of ``hk_table``: one list of cells.  An empty
    level list, or a level whose q = p^e passes 2^16, is refused before the
    first cell; each level is checked as it is read, so a long range stops at
    its first level past the limit, before the rest of it is listed."""
    chars = {I.ring.field.p for I in ideals}
    levels = [(e, {p: frobenius_order(p, e) for p in chars}) for e in levels]
    if not levels:
        raise InvariantError("a Hilbert-Kunz table needs at least one level e")
    lengths = iter((yield [(I, e) for I in ideals for e, _ in levels]))
    table = []
    for I in ideals:
        p, d = I.ring.field.p, I.ring.dim
        rows = []
        for e, orders in levels:
            ell = next(lengths)
            if ell is None:
                raise InvariantError("ideal is not origin-primary: infinite colength")
            q = orders[p]
            rows.append((e, q, ell, Fraction(ell, q ** d)))
        table.append(rows)
    return table


def hk_table(ideals, levels, jobs=1):
    """Hilbert-Kunz rows (e, q, l(R/I^{[q]}), l/q^d) of each ideal at each
    level e, all from one sweep; one list of rows per ideal, in order.  The
    ideals may live in different rings: each row is normalized by its own."""
    return sweep(hk_plan(ideals, levels), jobs)


def hk_rows(I, e_max, jobs=1):
    """Hilbert-Kunz rows (e, q, l(R/I^{[q]}), l/q^d) for e = 1..e_max."""
    return hk_table([I], range(1, e_max + 1), jobs)[0]


def _fit_levels(e_max, caller):
    """The levels 1..e_max of a fitted estimate, which needs two rows."""
    if e_max < 2:
        raise InvariantError("%s needs e_max >= 2" % caller)
    return range(1, e_max + 1)


def _hk_report(I, rows):
    """The affine-in-1/q estimate of I's Hilbert-Kunz rows, with its band."""
    cauchy = [abs(rows[i + 1][3] - rows[i][3]) for i in range(len(rows) - 1)]
    est = _tail_fit(rows)
    band = abs(est - rows[-1][3])
    if cauchy:
        band = max(band, cauchy[-1])
    return HKReport(rows, I.ring.dim, est, "affine-in-1/q", band, cauchy)


def ehk_estimate(I, e_max, jobs=1):
    """Hilbert-Kunz rows e = 1..e_max and the affine-in-1/q estimate."""
    return _hk_report(I, hk_table([I], _fit_levels(e_max, "ehk_estimate"), jobs)[0])


# ---------------------------------------------------------------------------
# Hilbert-Samuel multiplicity on a one-dimensional presentation

def _parameter(ring, x):
    """x (text or a Polynomial of ring), which must vanish at the origin: a
    non-zero constant term makes it a unit of the local ring there, where
    every colength is taken, and a colength would describe another point."""
    if isinstance(x, str):
        x = ring.parse(x)
    if (0,) * ring.nvars in x.terms:
        raise InvariantError("%s does not vanish at the origin" % x)
    return x


def hs_multiplicity(ring, x):
    """e(xS) exactly, with the lengths l(S/x^n S) up to a certified stop.

    The differences l(S/x^{n+1}S) - l(S/x^n S) = l(S/(xS + (0 : x^n))) never
    increase and end at e(xS) = l(S/((0 : x^infty) + xS)), the parameter
    degree of x on S itself; so the lengths stop at the first n >= 3 whose
    last two differences both equal e(xS).  cm_defect = l(S/xS) - e(xS)
    vanishes exactly when x is a nonzerodivisor, the Cohen-Macaulay case.
    """
    if ring.dim != 1:
        raise InvariantError("hs_multiplicity needs a one-dimensional ring")
    x = _parameter(ring, x)
    first = groebner.colength(Ideal(ring, [x]))
    if first is None:
        raise InvariantError("%s is not a parameter: infinite colength" % x)
    mult = parameter_degree(Ideal(ring, []), x)
    lengths = [first]
    while len(lengths) < 3 or {lengths[-1] - lengths[-2], lengths[-2] - lengths[-3]} != {mult}:
        lengths.append(groebner.colength(Ideal(ring, [x ** (len(lengths) + 1)])))
    return HSResult(mult, first - mult, lengths)


def parameter_degree(prime, x):
    """e(x on R/prime) = l(R/((prime : x^infty) + xR)) for dim R/prime = 1.

    Saturating drops the finite-length x-torsion of R/prime and leaves a
    one-dimensional ring on which x is a nonzerodivisor, so Cohen-Macaulay,
    where e(x) is the colength of x.  For a prime p not containing x,
    (p : x^infty) = p.
    """
    ring = prime.ring
    x = _parameter(ring, x)
    sat = groebner.saturate(prime, Ideal(ring, [x]))
    c = groebner.colength(Ideal(ring, list(sat.gens) + [x]))
    if c is None:
        raise InvariantError("%s is not a parameter on R/p: infinite colength" % x)
    return c


# ---------------------------------------------------------------------------
# F-signature

def fsig_function(ring, e_max):
    """Splitting-number rows a_e = l(R/I_e) with the normalized estimate."""
    if e_max < 1:
        raise InvariantError("fsig_function needs e_max >= 1")
    d = ring.dim
    p = ring.field.p
    frobenius_order(p, e_max)
    rows = []
    for e in range(1, e_max + 1):
        q = p ** e
        a = frobenius.splitting_number(ring, e)
        rows.append((e, q, a, Fraction(a, q ** d)))
    est = rows[-1][3]
    band = abs(rows[-1][3] - rows[-2][3]) if len(rows) >= 2 else Fraction(0)
    return FSigReport(rows, d, est, band)


# ---------------------------------------------------------------------------
# descent along a parameter

def descent_sequence(prime, x, n_max, e_max, fiber_estimate=None, jobs=1):
    """Normalized colengths l(R/(p^{[q]}, x^{nq}))/(n q^d) over the (n, e) grid.

    prime must cut out a one-dimensional quotient and x must be a parameter
    on it.  When a fiber estimate for the localized Hilbert-Kunz multiplicity
    at the prime is supplied, the report carries the product prediction
    e(x on R/p) * estimate next to the observed per-n limits.
    """
    if e_max < 1 or n_max < 1:
        raise InvariantError("descent needs e_max >= 1 and n_max >= 1")
    ring = prime.ring
    # x^{nq} is a power like any other: refused before the n_max ideals are built
    if n_max * frobenius_order(ring.field.p, e_max) > MAX_EXTENSION_ORDER:
        raise InvariantError("descent exponent n_max * q = %d * %d^%d exceeds the limit %d = 2^16"
                             % (n_max, ring.field.p, e_max, MAX_EXTENSION_ORDER))
    d = ring.dim
    x = _parameter(ring, x)
    if groebner.is_member(x, prime):
        raise InvariantError("descent parameter lies in the prime")
    if groebner.ideal_dimension(prime) != 1:
        raise InvariantError("descent needs dim R/p = 1")
    if groebner.colength(Ideal(ring, list(prime.gens) + [x])) is None:
        raise InvariantError("prime + parameter is not origin-primary")

    # (p + (x^n))^[q] = p^[q] + (x^{nq}), generator by generator
    ideals = [Ideal(ring, list(prime.gens) + [x ** n]) for n in range(1, n_max + 1)]
    table, per_n = {}, {}
    for n, rows in enumerate(hk_table(ideals, range(1, e_max + 1), jobs), 1):
        table.update(((n, e), norm / n) for e, _, _, norm in rows)
        per_n[n] = _tail_fit(rows) / n

    monotone = all(table[(n + 1, e)] <= table[(n, e)]
                   for e in range(2, e_max + 1)
                   for n in range(1, n_max))

    # multiplicity of x on the curve R/p, for the limit prediction
    hs = parameter_degree(prime, x)
    prediction = None if fiber_estimate is None else hs * fiber_estimate
    return DescentReport(d, table, per_n, monotone, prediction, hs)


# ---------------------------------------------------------------------------
# function-level inequality and associativity tables

def lech_check(I, J, e_max):
    """Row-wise l(R/I^{[q]}) <= l(J/I) l(R/m^{[q]}) + l(R/J^{[q]}) for I in J."""
    ring = I.ring
    if not groebner.ideal_contains(J, I):
        raise InvariantError("lech_check needs I contained in J")
    ci = groebner.colength(I)
    cj = groebner.colength(J)
    if ci is None or cj is None:
        raise InvariantError("lech_check needs origin-primary ideals")
    gap = ci - cj  # l(J/I)
    rows = []
    for (e, _, lhs, _), (_, _, lm, _), (_, _, lj, _) in zip(
            *hk_table([I, ring.origin_ideal(), J], range(1, e_max + 1))):
        rhs = gap * lm + lj
        rows.append((e, lhs, rhs, lhs <= rhs))
    return LechReport(rows, all(r[3] for r in rows))


def assoc_check(ring, factors, e_max, jobs=1):
    """Compare HK rows of S/(prod f_i^{a_i}) with sum_i a_i * rows of S/(f_i).

    factors is a list of (f_i, a_i) whose weighted product must equal the
    ring's hypersurface relation; the f_i must be pairwise coprime, checked
    by the codimension of (f_i, f_j) being at least 2 in the ambient ring.
    """
    if len(ring.relations) != 1:
        raise InvariantError("assoc_check needs a hypersurface presentation")
    amb = ring.ambient()
    parsed = []
    for f, a in factors:
        if isinstance(f, str):
            f = amb.parse(f)
        if a < 1:
            raise InvariantError("factor multiplicities must be positive")
        parsed.append((f, a))
    prod = amb.one
    for f, a in parsed:
        prod = prod * f ** a
    rel = Polynomial(amb, ring.relations[0].terms)
    lead = rel.leading_coefficient()
    if prod * lead != rel * prod.leading_coefficient():
        raise InvariantError("factorization does not match the relation")
    n = ring.nvars
    for i in range(len(parsed)):
        for j in range(i + 1, len(parsed)):
            pair = Ideal(amb, [parsed[i][0], parsed[j][0]])
            if groebner.ideal_dimension(pair) > n - 2:
                raise InvariantError("factors %d and %d share a component" % (i, j))

    ideals = [ring.origin_ideal()] + [
        ring_make(ring.field, ring.varnames, relations=[f]).origin_ideal()
        for f, _ in parsed]
    total, *components = [_hk_report(I, rows) for I, rows in
                          zip(ideals, hk_table(ideals, _fit_levels(e_max, "assoc_check"), jobs))]
    weights = [Fraction(a) for _, a in parsed]
    rows = []
    for idx, (e, q, _, lhs) in enumerate(total.rows):
        rhs = sum((a * rep.rows[idx][3] for a, rep in zip(weights, components)),
                  Fraction(0))
        rows.append((e, q, lhs, rhs, abs(lhs - rhs)))
    rhs_est = sum((a * rep.estimate for a, rep in zip(weights, components)), Fraction(0))
    return AssocReport(parsed, rows, components, total.estimate, rhs_est)
