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

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .polyring import Ideal, ring_make
from . import groebner
from . import frobenius


class InvariantError(ValueError):
    pass


# ---------------------------------------------------------------------------
# report types

@dataclass
class HKReport:
    ring: object
    ideal: object
    rows: list          # (e, q, length, Fraction(length, q^d))
    dim: int
    estimate: Fraction
    method: str
    error_band: Fraction
    cauchy: list        # |row_{e+1} - row_e| of normalized values


@dataclass
class FSigReport:
    ring: object
    rows: list          # (e, q, a_e, Fraction(a_e, q^d))
    dim: int
    estimate: Fraction
    error_band: Fraction


@dataclass
class HSResult:
    multiplicity: int
    cm_defect: int
    lengths: list       # l(S/x^n) for n = 1 up to the certified stop


@dataclass
class DescentReport:
    dim: int
    table: dict         # (n, e) -> Fraction(l(R/(p^[q], x^{nq})), n q^d)
    per_n_estimates: dict
    monotone_in_n: bool
    prediction: object  # Fraction or None: e(x on R/p) * fiber estimate
    hs_factor: int      # e(x on R/p)


@dataclass
class LechReport:
    rows: list          # (e, lhs, rhs, ok)
    ok: bool


@dataclass
class AssocReport:
    ring: object
    factors: list
    rows: list          # (e, q, lhs_norm, rhs_norm, |lhs - rhs|)
    components: list    # HKReport per reduced factor
    lhs_estimate: Fraction
    rhs_estimate: Fraction


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
    tail = rows[-3:] if len(rows) >= 3 else rows
    pts = [(Fraction(1, q), norm) for (_, q, _, norm) in tail]
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


def _sweep(cells, jobs):
    if jobs and jobs > 1:
        # imported here: the pool's modules cost every process start otherwise
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_hk_cell, cells))
    return [_hk_cell(c) for c in cells]


def hk_table(ideals, levels, jobs=1):
    """Hilbert-Kunz rows (e, q, l(R/I^{[q]}), l/q^d) of each ideal at each
    level e, all from one sweep; one list of rows per ideal, in order.  The
    ideals may live in different rings: each row is normalized by its own."""
    levels = list(levels)
    lengths = iter(_sweep([(I, e) for I in ideals for e in levels], jobs))
    table = []
    for I in ideals:
        p, d = I.ring.field.p, I.ring.dim
        rows = []
        for e in levels:
            ell = next(lengths)
            if ell is None:
                raise InvariantError("ideal is not origin-primary: infinite colength")
            q = p ** e
            rows.append((e, q, ell, Fraction(ell, q ** d)))
        table.append(rows)
    return table


def hk_rows(I, e_max, jobs=1):
    """Hilbert-Kunz rows (e, q, l(R/I^{[q]}), l/q^d) for e = 1..e_max."""
    if e_max < 1:
        raise InvariantError("hk_rows needs e_max >= 1")
    return hk_table([I], range(1, e_max + 1), jobs)[0]


def _fit_levels(e_max):
    """The levels 1..e_max of a fitted estimate, which needs two rows."""
    if e_max < 2:
        raise InvariantError("ehk_estimate needs e_max >= 2")
    return range(1, e_max + 1)


def _hk_report(I, rows):
    """The affine-in-1/q estimate of I's Hilbert-Kunz rows, with its band."""
    cauchy = [abs(rows[i + 1][3] - rows[i][3]) for i in range(len(rows) - 1)]
    est = _tail_fit(rows)
    band = abs(est - rows[-1][3])
    if cauchy:
        band = max(band, cauchy[-1])
    return HKReport(I.ring, I, rows, I.ring.dim, est, "affine-in-1/q", band, cauchy)


def ehk_estimate(I, e_max, jobs=1):
    """Hilbert-Kunz rows e = 1..e_max and the affine-in-1/q estimate."""
    return _hk_report(I, hk_table([I], _fit_levels(e_max), jobs)[0])


# ---------------------------------------------------------------------------
# Hilbert-Samuel multiplicity on a one-dimensional presentation

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
    if isinstance(x, str):
        x = ring.parse(x)
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
    seq = frobenius.splitting_sequence(ring, e_max)
    rows = []
    for e, _, a in seq.entries:
        q = p ** e
        rows.append((e, q, a, Fraction(a, q ** d)))
    est = rows[-1][3]
    band = abs(rows[-1][3] - rows[-2][3]) if len(rows) >= 2 else Fraction(0)
    return FSigReport(ring, rows, d, est, band)


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
    p = ring.field.p
    d = ring.dim
    if isinstance(x, str):
        x = ring.parse(x)
    if groebner.is_member(x, prime):
        raise InvariantError("descent parameter lies in the prime")
    if groebner.ideal_dimension(prime) != 1:
        raise InvariantError("descent needs dim R/p = 1")
    if groebner.colength(Ideal(ring, list(prime.gens) + [x])) is None:
        raise InvariantError("prime + parameter is not origin-primary")

    cells = []
    for e in range(1, e_max + 1):
        q = p ** e
        pq = frobenius.frobenius_power(prime, e)
        for n in range(1, n_max + 1):
            cells.append((Ideal(ring, list(pq.gens) + [x ** (n * q)]), 0))
    lengths = _sweep(cells, jobs)

    table = {}
    i = 0
    for e in range(1, e_max + 1):
        q = p ** e
        for n in range(1, n_max + 1):
            ell = lengths[i]
            i += 1
            if ell is None:
                raise InvariantError("descent cell (n=%d, e=%d) is not finite" % (n, e))
            table[(n, e)] = Fraction(ell, n * q ** d)

    per_n = {}
    for n in range(1, n_max + 1):
        pts = [(Fraction(1, p ** e), table[(n, e)]) for e in range(1, e_max + 1)]
        a, _ = affine_fit(pts[-3:] if len(pts) >= 3 else pts)
        per_n[n] = a

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
    if e_max < 1:
        raise InvariantError("lech_check needs e_max >= 1")
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
    rel = amb.parse(str(ring.relations[0]))
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
        ring_make(ring.field, ring.varnames, relations=[str(f)]).origin_ideal()
        for f, _ in parsed]
    total, *components = [_hk_report(I, rows) for I, rows in
                          zip(ideals, hk_table(ideals, _fit_levels(e_max), jobs))]
    weights = [Fraction(a) for _, a in parsed]
    rows = []
    for idx, (e, q, _, lhs) in enumerate(total.rows):
        rhs = sum((a * rep.rows[idx][3] for a, rep in zip(weights, components)),
                  Fraction(0))
        rows.append((e, q, lhs, rhs, abs(lhs - rhs)))
    rhs_est = sum((a * rep.estimate for a, rep in zip(weights, components)), Fraction(0))
    return AssocReport(ring, parsed, rows, components, total.estimate, rhs_est)
