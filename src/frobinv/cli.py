"""Command-line front end: ring-description DSL, dispatch, reports, cache.

The DSL describes a presented ring in semicolon-terminated statements::

    char 2;              # prime characteristic (required, first error checked)
    ext a^2 + a + 1;     # optional: extend F_p by a root of a monic irreducible
    param t;             # optional: pass to the fraction field F_q(t)
    vars x y z;          # ambient variable names (required)
    rel z^4 + x*y*z^2;   # zero or more defining relations
    ideal m = (x, y, z); # named ideals
    elem f = x*y;        # named elements

``#`` starts a comment that runs to the end of the line.  Parsing,
pretty-printing, and reparsing is a fixed point: :func:`parse_spec`
followed by :meth:`RingSpecDocument.render` yields a canonical script that
parses back to the same document.

Every command prints a report envelope.  The JSON form is deterministic:
keys are sorted, lengths and other potentially large counts are decimal
strings, rationals are ``{"num": ..., "den": ...}`` objects, and the only
run-dependent field is ``timing``, which sits outside the payload.  CSV
and table forms render the same rows with exact entries.  Each command
is one entry of the ``_COMMANDS`` table, which declares its positionals,
its own flags and its column header; every command also takes
``--format`` and ``--cache``.  Results can be cached on disk keyed by a
content digest of (spec, command, the command's parameters, version, the
package's source); cache writes go through a temporary file and an atomic
rename.

Exit codes: 0 = computed; 2 = computed but the checked property failed
(a non-member verdict, a violated inequality, a missed target); 3 = bad
input (usage errors, syntax, unknown names, non-prime characteristic,
infinite colengths, missing files).
"""

import argparse
import csv
import hashlib
import json
import os
import sys
import tempfile
import time
from collections import namedtuple
from contextlib import contextmanager
from fractions import Fraction

from . import __version__ as VERSION
from . import corpus
from .coeff import (
    ExtensionField,
    FieldError,
    PrimeField,
    RationalFunctionField,
    tokenize,
)
from .polyring import GREVLEX, LEX, Ideal, RingError, parse_polynomial, ring_make
from . import groebner
from .frobenius import (
    FrobeniusError,
    frobenius_closure_membership,
    frobenius_power,
    jacobian_candidate,
    tc_membership,
)
from .invariants import (
    InvariantError,
    assoc_check,
    descent_sequence,
    ehk_estimate,
    fsig_function,
    hk_rows,
    hs_multiplicity,
    lech_check,
)
from .equimult import (
    WARRANTY,
    EquimultError,
    bm_gap_table,
    equimult_check,
    monsky_repro,
    rigidity_check,
    wy_inequality_check,
)

CACHE_ENV = "FROBINV_CACHE"


class SpecError(ValueError):
    """A positioned error in a ring-description script."""

    def __init__(self, message, line=None, col=None):
        if line is not None:
            message = "line %d, col %d: %s" % (line, col, message)
        super().__init__(message)
        self.line = line
        self.col = col


# every error that main reports as bad input, exit 3
_INPUT_ERRORS = (SpecError, OSError, FieldError, RingError, FrobeniusError,
                 InvariantError, EquimultError)


# ---------------------------------------------------------------------------
# DSL parsing


def _statements(text):
    """Split a script into (line, col, statement-text) triples.

    Statements are terminated by ';'.  '#' comments run to end of line.
    Positions point at the first non-blank character of each statement.
    """
    out = []
    buf = []
    pos = None
    for line, raw in enumerate(text.split("\n"), 1):
        for col, ch in enumerate(raw.partition("#")[0], 1):
            if ch == ";":
                stmt = "".join(buf).strip()
                if not stmt:
                    raise SpecError("empty statement", line, col)
                out.append((pos[0], pos[1], stmt))
                buf = []
                pos = None
                continue
            if not ch.isspace() and pos is None:
                pos = (line, col)
            buf.append(ch)
        if buf:
            buf.append(" ")
    if "".join(buf).strip():
        raise SpecError("statement is missing its ';' terminator", pos[0], pos[1])
    return out


@contextmanager
def _located(line, col):
    """Report a field or ring error raised in the block as a SpecError at
    (line, col); without a position the message is passed on unchanged."""
    try:
        yield
    except (FieldError, RingError) as exc:
        raise SpecError(str(exc), line, col) from None


def _split_top_commas(s):
    """Split on commas that are not nested inside parentheses."""
    parts = []
    depth = 0
    cur = []
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def _parse_binding(rest, line, col, what):
    """Parse 'name = tail' and return (name, tail)."""
    if "=" not in rest:
        raise SpecError("expected '%s NAME = ...'" % what, line, col)
    name, tail = rest.split("=", 1)
    name = name.strip()
    tail = tail.strip()
    if not name.isidentifier():
        raise SpecError("bad %s name %r" % (what, name), line, col)
    if not tail:
        raise SpecError("empty %s body" % what, line, col)
    return name, tail


class RingSpecDocument:
    """A parsed ring-description script.

    Holds the constructed ring together with the named ideals and elements,
    plus enough canonical text to pretty-print the document back out.
    """

    def __init__(self, char, ext, param, ring, ideals, elements):
        self.char = char
        self.ext = ext          # canonical modulus text, or None
        self.param = param      # parameter name, or None
        self.ring = ring
        self.ideals = ideals    # name -> Ideal
        self.elements = elements  # name -> Polynomial

    def render(self):
        lines = ["char %d;" % self.char]
        if self.ext is not None:
            lines.append("ext %s;" % self.ext)
        if self.param is not None:
            lines.append("param %s;" % self.param)
        lines.append("vars %s;" % " ".join(self.ring.varnames))
        for rel in self.ring.relations:
            lines.append("rel %s;" % rel)
        for name, ideal in self.ideals.items():
            gens = ", ".join(str(g) for g in ideal.gens)
            lines.append("ideal %s = (%s);" % (name, gens))
        for name, f in self.elements.items():
            lines.append("elem %s = %s;" % (name, f))
        return "\n".join(lines) + "\n"


def _build_extension(p, text, line, col):
    """Turn an 'ext' body into an ExtensionField plus its canonical text."""
    with _located(line, col):
        toks = tokenize(text)
    names = sorted({val for kind, val in toks if kind == "name"})
    if len(names) != 1:
        raise SpecError(
            "extension modulus must use exactly one symbol, got %s"
            % (names or "none"), line, col)
    gen = names[0]
    helper = ring_make(PrimeField(p), (gen,))
    with _located(line, col):
        f = helper.parse(text)
    deg = f.degree()
    if deg < 2:
        raise SpecError("extension modulus must have degree >= 2", line, col)
    f = f / f.leading_coefficient()
    coeffs = tuple(f.coefficient((k,)).payload for k in range(deg + 1))
    with _located(line, col):
        field = ExtensionField(p, coeffs, gen=gen)
    return field, str(f)


def parse_spec(text):
    """Parse a ring-description script into a RingSpecDocument."""
    stmts = _statements(text)
    char = ext_t = param = varnames = None
    char_pos = ext_pos = param_pos = vars_pos = (1, 1)
    rels = []
    ideal_stmts = []
    elem_stmts = []
    once = set()
    for line, col, stmt in stmts:
        head, _, rest = stmt.partition(" ")
        rest = rest.strip()
        if head in ("char", "ext", "param", "vars"):
            if head in once:
                raise SpecError("duplicate %r statement" % head, line, col)
            once.add(head)
        if head == "char":
            try:
                char = int(rest)
            except ValueError:
                raise SpecError("characteristic must be an integer, got %r"
                                % rest, line, col) from None
            char_pos = (line, col)
        elif head == "ext":
            if not rest:
                raise SpecError("empty 'ext' statement", line, col)
            ext_t, ext_pos = rest, (line, col)
        elif head == "param":
            if not rest.isidentifier():
                raise SpecError("bad parameter name %r" % rest, line, col)
            param, param_pos = rest, (line, col)
        elif head == "vars":
            names = rest.split()
            if not names:
                raise SpecError("empty 'vars' statement", line, col)
            for nm in names:
                if not nm.isidentifier():
                    raise SpecError("bad variable name %r" % nm, line, col)
                if names.count(nm) > 1:
                    raise SpecError("duplicate variable %r" % nm, line, col)
            varnames, vars_pos = tuple(names), (line, col)
        elif head == "rel":
            if not rest:
                raise SpecError("empty 'rel' statement", line, col)
            rels.append((rest, (line, col)))
        elif head == "ideal":
            name, tail = _parse_binding(rest, line, col, "ideal")
            if not (tail.startswith("(") and tail.endswith(")")):
                raise SpecError("ideal generators must be parenthesized",
                                line, col)
            gens = [g.strip() for g in _split_top_commas(tail[1:-1])]
            if gens == [""]:
                gens = []
            if any(not g for g in gens):
                raise SpecError("empty ideal generator", line, col)
            ideal_stmts.append((name, gens, (line, col)))
        elif head == "elem":
            name, tail = _parse_binding(rest, line, col, "elem")
            elem_stmts.append((name, tail, (line, col)))
        else:
            raise SpecError("unknown statement %r" % head, line, col)

    if char is None:
        raise SpecError("missing 'char' statement", 1, 1)
    try:
        field = PrimeField(char)
    except FieldError:
        raise SpecError("characteristic %d is not prime" % char, *char_pos) from None
    if varnames is None:
        raise SpecError("missing 'vars' statement", 1, 1)

    ext_canonical = None
    if ext_t is not None:
        field, ext_canonical = _build_extension(char, ext_t, *ext_pos)
    if param is not None:
        with _located(*param_pos):
            field = RationalFunctionField(field, param)

    with _located(*vars_pos):
        ambient = ring_make(field, varnames)
    rel_polys = []
    for txt, pos in rels:
        with _located(*pos):
            rel_polys.append(parse_polynomial(ambient, txt))
    with _located(*(rels[0][1] if rels else vars_pos)):
        ring = ring_make(field, varnames, relations=rel_polys)

    seen = set()
    ideals = {}
    elements = {}
    for name, gens, pos in ideal_stmts:
        if name in seen:
            raise SpecError("duplicate name %r" % name, *pos)
        seen.add(name)
        polys = []
        for g in gens:
            with _located(*pos):
                polys.append(ring.parse(g))
        ideals[name] = Ideal(ring, polys)
    for name, txt, pos in elem_stmts:
        if name in seen:
            raise SpecError("duplicate name %r" % name, *pos)
        seen.add(name)
        with _located(*pos):
            elements[name] = ring.parse(txt)
    return RingSpecDocument(char, ext_canonical, param, ring, ideals, elements)


# ---------------------------------------------------------------------------
# JSON-safe rendering helpers


def _S(n):
    """Potentially large integer -> decimal string."""
    return str(int(n))


def _R(x):
    """Exact rational -> {"num","den"} with decimal-string parts."""
    f = Fraction(x)
    return {"num": str(f.numerator), "den": str(f.denominator)}


def _cell(value):
    """One JSON-typed row entry -> its CSV / table cell text."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, dict):
        if value["den"] == "1":
            return value["num"]
        return "%s/%s" % (value["num"], value["den"])
    return str(value)


def _verdict_payload(v):
    if v is None:
        return None
    return {
        "status": v.status,
        "e_bound": v.e_bound,
        "multiplier": None if v.multiplier is None else str(v.multiplier),
    }


def _hk_json(rows):
    return [[e, _S(q), _S(l), _R(nrm)] for e, q, l, nrm in rows]


# ---------------------------------------------------------------------------
# command handlers


# Handlers take the spec document, the parsed arguments and the resolved
# ideal and element positionals.  They return the payload, the JSON-typed
# rows that the CSV and table reports render, whether the checked property
# held (exit 0, else 2) and the warranty notes; the shared code adds the
# ring to the payload.
_Result = namedtuple("_Result", "payload rows ok warranty", defaults=(True, ()))


def _get_ideal(doc, name):
    if name not in doc.ideals:
        raise SpecError("no ideal named %r in the spec" % name)
    return doc.ideals[name]


def _get_poly(doc, token):
    if token in doc.elements:
        return doc.elements[token]
    with _located(None, None):
        return doc.ring.parse(token)


def _basis_text(I, order):
    order = {"grevlex": GREVLEX, "lex": LEX}[order]
    return [str(g) for g in groebner.groebner_basis(I, order)]


def _ring_payload(doc):
    out = {"char": doc.char, "vars": list(doc.ring.varnames),
           "relations": [str(r) for r in doc.ring.relations]}
    if doc.ext is not None:
        out["ext"] = doc.ext
    if doc.param is not None:
        out["param"] = doc.param
    return out


def cmd_hk(doc, args, I):
    rows = _hk_json(hk_rows(I, args.emax, args.jobs))
    return _Result({"ideal": args.ideal, "dim": doc.ring.dim, "rows": rows}, rows)


def cmd_ehk(doc, args, I):
    rep = ehk_estimate(I, args.emax, jobs=args.jobs)
    rows = _hk_json(rep.rows)
    payload = {"ideal": args.ideal, "dim": rep.dim, "rows": rows,
               "estimate": _R(rep.estimate), "method": rep.method,
               "error_band": _R(rep.error_band),
               "cauchy": [_R(c) for c in rep.cauchy]}
    return _Result(payload, rows)


def cmd_fsig(doc, args):
    rep = fsig_function(doc.ring, args.emax)
    rows = _hk_json(rep.rows)
    payload = {"dim": rep.dim, "rows": rows, "estimate": _R(rep.estimate),
               "error_band": _R(rep.error_band)}
    return _Result(payload, rows)


def cmd_mult(doc, args, x):
    res = hs_multiplicity(doc.ring, x)
    lengths = [_S(l) for l in res.lengths]
    payload = {"element": str(x), "multiplicity": res.multiplicity,
               "cm_defect": res.cm_defect, "lengths": lengths}
    return _Result(payload, list(enumerate(lengths, 1)))


def cmd_frobpow(doc, args, I):
    J = frobenius_power(I, args.emax)
    q = doc.ring.field.p ** args.emax
    gens = [str(g) for g in J.gens]
    payload = {"ideal": args.ideal, "e": args.emax, "q": _S(q),
               "generators": gens}
    return _Result(payload, [[g] for g in gens])


def cmd_colon(doc, args, I, f):
    gens = _basis_text(groebner.ideal_colon(I, f), args.order)
    payload = {"ideal": args.ideal, "element": str(f), "order": args.order,
               "generators": gens}
    return _Result(payload, [[g] for g in gens])


def cmd_saturate(doc, args, I, J):
    gens = _basis_text(groebner.saturate(I, J), args.order)
    payload = {"ideal": args.ideal, "by": args.jideal, "order": args.order,
               "generators": gens}
    return _Result(payload, [[g] for g in gens])


def cmd_tc_member(doc, args, z, I):
    if args.testel is not None:
        c = _get_poly(doc, args.testel)
    else:
        c = jacobian_candidate(doc.ring)
    v = tc_membership(z, I, c, args.emax)
    payload = {"element": str(z), "ideal": args.ideal, "candidate": str(c),
               "verdict": _verdict_payload(v)}
    rows = [["status", v.status], ["e_bound", v.e_bound], ["candidate", str(c)]]
    return _Result(payload, rows, not v.status.startswith("non-member"),
                   [WARRANTY])


def cmd_fclosure_member(doc, args, z, I):
    v = frobenius_closure_membership(z, I, args.emax)
    payload = {"element": str(z), "ideal": args.ideal,
               "verdict": _verdict_payload(v)}
    rows = [["status", v.status], ["e_bound", v.e_bound]]
    return _Result(payload, rows, not v.status.startswith("non-member"))


def cmd_descent(doc, args, P, x):
    rep = descent_sequence(P, x, args.nmax, args.emax, jobs=args.jobs)
    p = doc.ring.field.p
    rows = [[n, e, _S(p ** e), _R(v)]
            for (n, e), v in sorted(rep.table.items())]
    payload = {"prime": args.ideal, "element": str(x), "dim": rep.dim,
               "rows": rows,
               "per_n": [[n, _R(v)] for n, v in sorted(rep.per_n_estimates.items())],
               "monotone_in_n": rep.monotone_in_n,
               "hs_factor": rep.hs_factor,
               "prediction": None if rep.prediction is None else _R(rep.prediction)}
    return _Result(payload, rows, rep.monotone_in_n)


def cmd_equimult(doc, args, P):
    if args.testel is not None:
        c = _get_poly(doc, args.testel)
    else:
        try:
            c = jacobian_candidate(doc.ring)
        except FrobeniusError:
            c = None
    v = equimult_check(P, c=c, e_max=args.emax, tc_e_max=args.tc_emax)
    records = []
    for e, checked in v.records:
        records.append([e, [{"element": str(z),
                             "fclosure": _verdict_payload(fv),
                             "tc": _verdict_payload(tv)}
                            for z, fv, tv in checked]])
    residuals = None
    if v.residuals is not None:
        residuals = {"hs_factor": v.residuals.hs_factor,
                     "rows": [[e, _S(q), _S(lhs), _S(rhs), _S(res)]
                              for e, q, lhs, rhs, res in v.residuals.rows],
                     "all_zero": v.residuals.all_zero}
    payload = {"prime": args.ideal, "status": v.status,
               "witness": None if v.witness is None else
               {"e": v.witness[0], "element": str(v.witness[1])},
               "records": records, "residuals": residuals}
    rows = [["status", v.status]]
    if v.witness is not None:
        rows.append(["witness", "e=%d %s" % (v.witness[0], v.witness[1])])
    return _Result(payload, rows, v.status != "violates-necessary-condition",
                   [v.warranty])


def cmd_rigidity(doc, args, P):
    rep = rigidity_check(P, args.emax)
    rows = [[e, _S(q), _S(lhs), _S(rhs), bool(ok)]
            for e, q, lhs, rhs, ok in rep.rows]
    payload = {"prime": args.ideal, "rows": rows, "all_pass": rep.all_pass}
    return _Result(payload, rows, rep.all_pass)


def cmd_lech(doc, args, I, J):
    rep = lech_check(I, J, args.emax)
    rows = [[e, _S(lhs), _S(rhs), bool(ok)] for e, lhs, rhs, ok in rep.rows]
    payload = {"ideal": args.ideal, "inside": args.jideal, "rows": rows,
               "ok": rep.ok}
    return _Result(payload, rows, rep.ok)


def cmd_assoc(doc, args):
    factors = []
    for token in args.factors:
        base, _, mult = token.rpartition(":")
        if base and mult.isdigit():
            text, a = base, int(mult)
        else:
            text, a = token, 1
        if text in doc.elements:
            text = str(doc.elements[text])
        factors.append((text, a))
    rep = assoc_check(doc.ring, factors, args.emax, jobs=args.jobs)
    rows = [[e, _S(q), _R(lhs), _R(rhs), _R(diff)]
            for e, q, lhs, rhs, diff in rep.rows]
    payload = {"factors": [[str(f), a] for f, a in rep.factors],
               "rows": rows, "lhs_estimate": _R(rep.lhs_estimate),
               "rhs_estimate": _R(rep.rhs_estimate)}
    return _Result(payload, rows)


def cmd_wy(doc, args, I):
    rep = wy_inequality_check(I, args.emax)
    rows = [[e, _S(q), _S(lhs), _S(rhs), bool(ok)]
            for e, q, lhs, rhs, ok in rep.rows]
    pd, mp, dok = rep.derived
    payload = {"ideal": args.ideal, "rows": rows,
               "derived": [_S(pd), _S(mp), bool(dok)],
               "all_pass": rep.all_pass}
    return _Result(payload, rows, rep.all_pass)


_MONSKY_MODES = {
    "0": ("zero", Fraction(1, 10)),
    "1": ("algebraic", Fraction(1, 10)),
    "t": ("transcendental", Fraction(3, 20)),
}


def cmd_repro_monsky(doc, args):
    mode, tol = _MONSKY_MODES[args.alpha]
    rep = monsky_repro(mode, args.emax, jobs=args.jobs)
    ok = rep.within <= tol
    rows = _hk_json(rep.report.rows)
    payload = {"alpha": args.alpha, "mode": mode, "rows": rows,
               "estimate": _R(rep.report.estimate), "target": _R(rep.target),
               "distance": _R(rep.within), "tolerance": _R(tol), "ok": ok}
    return _Result(payload, rows, ok)


def cmd_repro_bm(doc, args):
    K = ExtensionField(2, (1, 1, 1))
    gen = K.symbols()["a"]
    rep = bm_gap_table([0, 1, gen, gen + 1], e_min=2, e_max=args.emax,
                       field=K, jobs=args.jobs)
    threshold = Fraction(1, 50)
    ok = rep.min_gap >= threshold
    alpha_rows = {key: [[e, _S(q), _S(l), _R(nrm), _R(gap)]
                        for e, q, l, nrm, gap in rows]
                  for key, rows in rep.alpha_rows.items()}
    payload = {
        "fiber_rows": _hk_json(rep.fiber_rows), "alphas": alpha_rows,
        "min_gap": _R(rep.min_gap), "threshold": _R(threshold), "ok": ok,
    }
    rows = [[key] + row for key in sorted(alpha_rows) for row in alpha_rows[key]]
    return _Result(payload, rows, ok)


# ---------------------------------------------------------------------------
# the command table: handler, positionals, own flags with their defaults,
# the CSV / table header, and help.  Every command also takes --format
# and --cache; argparse and the digest parameters are built from this table.

# a positional: its name, how a spec document resolves it for the handler
# (None: passed on as text), and its argparse keywords
_SPEC = ("spec", None, {"help": "ring script: a file path, '-' for stdin, "
                                "or corpus:<name>"})
_IDEAL = ("ideal", _get_ideal, {"nargs": "?", "default": "m",
                                "help": "ideal name (default m)"})
_PRIME = ("ideal", _get_ideal, {"nargs": "?", "default": "p",
                                "help": "prime ideal name (default p)"})
_NAMED = ("ideal", _get_ideal, {"help": "ideal name"})
_ELEM = ("element", _get_poly, {"help": "named element or polynomial text"})
_SATURATOR = ("jideal", _get_ideal, {"nargs": "?", "default": "m",
                                     "help": "saturating ideal name (default m)"})
_SMALLER = ("ideal", _get_ideal, {"help": "smaller (contained) ideal name"})
_LARGER = ("jideal", _get_ideal, {"help": "larger ideal name"})
_FACTORS = ("factors", None, {"nargs": "+", "metavar": "FACTOR",
                              "help": "factor (elem name or polynomial), "
                                      "optionally with ':mult'"})

def _jobs(text):
    """The --jobs type: a worker count of at least one."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text) from None
    if n < 1:
        raise argparse.ArgumentTypeError("must be at least 1, got %d" % n)
    return n


_FLAGS = {
    "emax": {"type": int, "help": "largest Frobenius exponent e (q = p^e)"},
    "nmax": {"type": int,
             "help": "largest multiplier n where a command sweeps one"},
    "order": {"choices": ("grevlex", "lex"),
              "help": "term order for reported bases"},
    "testel": {"metavar": "POLY",
               "help": "test-element candidate (named elem or polynomial)"},
    "tc_emax": {"type": int,
                "help": "stage bound for the tight-closure probes"},
    "alpha": {"choices": tuple(_MONSKY_MODES), "required": True,
              "help": "family member: 0, 1, or the parameter t"},
    "jobs": {"type": _jobs, "help": "worker processes for independent cells (>= 1)"},
}

# the spec enters the digest as its text; --jobs changes how cells are
# scheduled, never a result
_UNHASHED = {"spec", "jobs"}

_Command = namedtuple("_Command", "handler positionals flags header help")

_HK_HEADER = ["e", "q", "colength", "normalized"]
_GENERATORS = ["generator"]
_KEY_VALUE = ["key", "value"]

_COMMANDS = {
    "hk": _Command(cmd_hk, [_SPEC, _IDEAL], {"emax": 3, "jobs": 1}, _HK_HEADER,
                   "Hilbert-Kunz function of an ideal for e = 1..emax"),
    "ehk": _Command(cmd_ehk, [_SPEC, _IDEAL], {"emax": 4, "jobs": 1}, _HK_HEADER,
                    "Hilbert-Kunz multiplicity estimate with error band"),
    "fsig": _Command(cmd_fsig, [_SPEC], {"emax": 4}, ["e", "q", "a_e", "normalized"],
                     "F-signature function a_e and normalized estimate"),
    "mult": _Command(cmd_mult, [_SPEC, _ELEM], {}, ["n", "length"],
                     "Hilbert-Samuel multiplicity of a one-dimensional ring along a "
                     "parameter"),
    "frobpow": _Command(cmd_frobpow, [_SPEC, _IDEAL], {"emax": 1}, _GENERATORS,
                        "generators of the bracket power I^[p^e]"),
    "colon": _Command(cmd_colon, [_SPEC, _NAMED, _ELEM], {"order": "grevlex"},
                      _GENERATORS, "reduced basis of the colon ideal (I : f)"),
    "saturate": _Command(cmd_saturate, [_SPEC, _NAMED, _SATURATOR],
                         {"order": "grevlex"}, _GENERATORS,
                         "reduced basis of the saturation (I : J^infinity)"),
    "tc-member": _Command(cmd_tc_member, [_SPEC, _ELEM, _NAMED],
                          {"emax": 2, "testel": None}, _KEY_VALUE,
                          "tight-closure membership semidecision for z in I*"),
    "fclosure-member": _Command(cmd_fclosure_member, [_SPEC, _ELEM, _NAMED],
                                {"emax": 2}, _KEY_VALUE,
                                "Frobenius-closure membership semidecision"),
    "descent": _Command(cmd_descent, [_SPEC, _PRIME, _ELEM],
                        {"emax": 3, "nmax": 3, "jobs": 1},
                        ["n", "e", "q", "normalized"],
                        "two-parameter descent table for l(R/(P^[q], x^{nq}))"),
    "equimult": _Command(cmd_equimult, [_SPEC, _PRIME],
                         {"emax": 2, "testel": None, "tc_emax": 2}, _KEY_VALUE,
                         "equimultiplicity necessary-condition check at a prime"),
    "rigidity": _Command(cmd_rigidity, [_SPEC, _PRIME], {"emax": 3},
                         ["e", "q", "colength", "q^dim * fiber", "equal"],
                         "colength rigidity l(R/m^[q]) = q^dim * fiber colength"),
    "lech": _Command(cmd_lech, [_SPEC, _SMALLER, _LARGER], {"emax": 3},
                     ["e", "lhs", "rhs", "ok"],
                     "row-wise Lech-type bound between nested ideals"),
    "assoc": _Command(cmd_assoc, [_SPEC, _FACTORS], {"emax": 3, "jobs": 1},
                      ["e", "q", "lhs", "rhs", "gap"],
                      "additivity of HK rows over the factors of a hypersurface"),
    "wy": _Command(cmd_wy, [_SPEC, _NAMED], {"emax": 3},
                   ["e", "q", "lhs", "rhs", "ok"],
                   "iterated-power inequality rows for an ideal inside m^[p]"),
    "repro-monsky": _Command(cmd_repro_monsky, [],
                             {"alpha": None, "emax": 5, "jobs": 1}, _HK_HEADER,
                             "reproduce a quartic-family multiplicity estimate"),
    "repro-bm": _Command(cmd_repro_bm, [], {"emax": 3, "jobs": 1},
                         ["maximal ideal", "e", "q", "colength", "normalized", "gap"],
                         "reproduce the fiberwise multiplicity gap table"),
}


# ---------------------------------------------------------------------------
# envelope, emission, cache


def _source_fingerprint():
    """sha256 over the package's .py sources, so that a change to the code
    retires every cached result it computed."""
    pkg = os.path.dirname(os.path.abspath(__file__))
    h = hashlib.sha256()
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode("utf-8") + b"\0" + fh.read())
    return h.hexdigest()


def _digest(spec_text, command, params):
    blob = json.dumps({"command": command, "parameters": params,
                       "source": _source_fingerprint(),
                       "spec": spec_text, "version": VERSION},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _emit(envelope, header, rows, fmt, out):
    if fmt == "json":
        out.write(json.dumps(envelope, sort_keys=True, indent=2))
        out.write("\n")
        return
    cells = [[_cell(v) for v in row] for row in rows]
    if fmt == "csv":
        w = csv.writer(out, lineterminator="\n")
        w.writerow(header)
        w.writerows(cells)
        return
    widths = [len(h) for h in header]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt_row(row):
        return "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
    out.write(fmt_row(header) + "\n")
    out.write(fmt_row(["-" * w for w in widths]) + "\n")
    for row in cells:
        out.write(fmt_row(row) + "\n")


def _cache_path(cdir, digest):
    return os.path.join(cdir, digest + ".json")


def _cache_load(cdir, digest):
    try:
        with open(_cache_path(cdir, digest), "r", encoding="utf-8") as fh:
            blob = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None
    if blob.get("version") != VERSION:
        return None
    return blob


def _cache_store(cdir, digest, blob):
    os.makedirs(cdir, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=cdir, prefix=".frobinv-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(blob, fh, sort_keys=True)
        os.replace(tmp, _cache_path(cdir, digest))
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_spec_text(source):
    if source.startswith("corpus:"):
        try:
            return corpus.corpus_text(source[len("corpus:"):])
        except KeyError as exc:
            raise SpecError(str(exc.args[0])) from None
    if source == "-":
        return sys.stdin.read()
    with open(source, "r", encoding="utf-8") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# argument parsing and dispatch


class _Parser(argparse.ArgumentParser):
    """Usage errors are bad input: exit 3, not argparse's 2, which the
    reports use for a failed check."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, "%s: error: %s\n" % (self.prog, message))


def _build_parser():
    top = _Parser(
        prog="frobinv",
        description="Exact Frobenius invariants of positive-characteristic "
                    "rings: Hilbert-Kunz functions, F-signature, tight-"
                    "closure semidecisions, and localization diagnostics.")
    top.add_argument("--version", action="version",
                     version="frobinv %s" % VERSION)
    sub = top.add_subparsers(dest="command", required=True, metavar="command")
    for name, cmd in _COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help)
        for argname, _, kw in cmd.positionals:
            p.add_argument(argname, **kw)
        for dest, default in cmd.flags.items():
            p.add_argument("--" + dest.replace("_", "-"), dest=dest,
                           default=default, **_FLAGS[dest])
        p.add_argument("--format", choices=("json", "csv", "table"),
                       default="json", help="report format")
        p.add_argument("--cache", default=None, metavar="DIR",
                       help="result cache directory (default: $%s)" % CACHE_ENV)
    return top


def _params_for_digest(args):
    cmd = _COMMANDS[args.command]
    names = [n for n, _, _ in cmd.positionals] + list(cmd.flags)
    return {n: getattr(args, n) for n in sorted(names) if n not in _UNHASHED}


def _run(args, out):
    cmd = _COMMANDS[args.command]
    source = getattr(args, "spec", None)
    spec_text = "" if source is None else _load_spec_text(source)
    params = _params_for_digest(args)
    digest = _digest(spec_text, args.command, params)

    cdir = args.cache or os.environ.get(CACHE_ENV)
    blob = _cache_load(cdir, digest) if cdir else None

    start = time.perf_counter()
    if blob is None:
        # the spec is parsed only when there is something to compute
        doc = None if source is None else parse_spec(spec_text)
        values = [get(doc, getattr(args, name))
                  for name, get, _ in cmd.positionals if get is not None]
        res = cmd.handler(doc, args, *values)
        if doc is not None:
            res.payload["ring"] = _ring_payload(doc)
        blob = {"version": VERSION, "payload": res.payload,
                "exit": 0 if res.ok else 2, "warranty": list(res.warranty),
                "rows": res.rows}
        if cdir:
            _cache_store(cdir, digest, blob)
    elapsed = time.perf_counter() - start

    envelope = {
        "version": VERSION,
        "command": args.command,
        "parameters": params,
        "digest": digest,
        "payload": blob["payload"],
        "warranty": blob["warranty"],
        "timing": {"seconds": round(elapsed, 6)},
    }
    _emit(envelope, cmd.header, blob["rows"], args.format, out)
    return blob["exit"]


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return _run(args, sys.stdout)
    except _INPUT_ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
