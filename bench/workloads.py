"""The benchmark's workloads: inputs made from the seed, the operations that
call frobinv, and the oracle that each operation's result must pass.

A workload is three passes of operations, run in this order every round:

* ``solve`` -- the computations; their summed wall time is ``solve_s``;
* ``fill``  -- frobinv commands that compute a result into an empty cache;
* ``hit``   -- the same commands again, answered from that cache; each one's
  wall time is a ``cache_hit_s`` sample.

prime-field and ext-field call the library in-process and fill the cache
with one small row command over their own field.  cli-corpus runs every
command as a fresh ``python -m frobinv`` process, so its solve pass is also
its fill pass.

Seed 0 runs the presentations as written.  Any other seed moves every ring
by a monomial change of coordinates (``oracles.coordinate_change``), drawn
per ring, and shuffles the residue points of the gap table.  Every oracle
is invariant under both.
"""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import oracles
from oracles import CLOSED_FORMS as FORMS
from oracles import Poly

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# a regression that hangs ends the operation here and counts it as failed
OP_LIMIT_S = 30.0
HITS_PER_ROUND = 4


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]


@dataclass
class Workload:
    passes: dict            # "solve" | "fill" | "hit" -> [Op]
    start_round: Callable[[], None]


# ---------------------------------------------------------------------------
# the benchmark's rings, written once as Polys

XYZ = ("x", "y", "z")


def _gens(p, names=XYZ):
    return Poly.variables(p, names)


def quartic_body(p, names=XYZ):
    x, y, z = _gens(p, names)[:3]
    return z ** 4 + x * y * z ** 2 + (x ** 3 + y ** 3) * z


def split_quartic():
    x, y, z = _gens(2)
    return z * (x + y + z) * ((x + y + z) ** 2 + z * y)


def alpha_one_quartic(names=XYZ):
    x, y = _gens(2, names)[:2]
    return quartic_body(2, names) + x ** 2 * y ** 2


def quadric_cone():
    x, y, z = _gens(2)
    return x ** 2 + z * y


def _f4_units(names):
    a = Poly.variables(2, names)[names.index("a")]
    return [a ** 0, a, a + 1]


def _reduce_f4(f):
    a = Poly.variables(2, f.names)[f.names.index("a")]
    return oracles.reduce_by(f, "a", a + 1)


class Moved:
    """One ring's seeded change of coordinates, applied to its polynomials."""

    def __init__(self, seed, key, names, units):
        self.names = names
        if seed == 0:
            self.images = Poly.variables(units[0].p, names)
        else:
            rng = random.Random("%d/%s" % (seed, key))
            self.images = oracles.coordinate_change(rng, names, units)

    def __call__(self, f):
        g = f.substitute(self.images)
        return _reduce_f4(g) if "a" in self.names else g


def _moved_prime(seed, key, p, names=XYZ):
    units = [Poly(p, names, {(0,) * len(names): c}) for c in range(1, p)]
    return Moved(seed, key, names, units)


# ---------------------------------------------------------------------------
# running frobinv commands

def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("FROBINV_CACHE", None)
    return env


def _main_in_process(argv):
    from frobinv import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


class Cli:
    """frobinv commands run against one fresh cache directory per round.

    Each command runs as ``python -m frobinv`` in a new process, or, for the
    traced run, through ``frobinv.cli.main`` in this process.
    """

    def __init__(self, workdir, in_process):
        self.workdir = workdir
        self.in_process = in_process
        self.env = cli_env()
        self.rounds = 0
        self.cache = None
        self.first = {}

    def start_round(self):
        self.rounds += 1
        self.cache = os.path.join(self.workdir, "cache-%d" % self.rounds)
        self.first = {}

    def spec(self, name, text):
        path = os.path.join(self.workdir, name + ".ring")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def call(self, argv):
        argv = list(argv) + ["--cache", self.cache]
        if self.in_process:
            return _main_in_process(argv)
        proc = subprocess.run([sys.executable, "-m", "frobinv"] + argv,
                              cwd=self.workdir, env=self.env, capture_output=True,
                              text=True, timeout=OP_LIMIT_S)
        return proc.returncode, proc.stdout

    def compute(self, name, argv, exit_code, check):
        """A command that computes; its envelope is kept for the hit pass."""
        def verify(result):
            code, out = result
            try:
                env = json.loads(out)
            except ValueError:
                return "%s: exit %s without a JSON report" % (name, code)
            self.first[name] = (code, _without_timing(env))
            if code != exit_code:
                return "%s: exit %s, expected %s" % (name, code, exit_code)
            if not os.path.exists(os.path.join(self.cache, env["digest"] + ".json")):
                return "%s: no cache entry written" % name
            reason = check(env["payload"])
            return reason and "%s: %s" % (name, reason)
        return Op(name, lambda: self.call(argv), verify)

    def hit(self, name, argv):
        """The same command again; it must return the computed envelope."""
        def verify(result):
            code, out = result
            if name not in self.first:
                return "%s: no computed report to compare with" % name
            try:
                env = json.loads(out)
            except ValueError:
                return "%s: cached exit %s without a JSON report" % (name, code)
            if (code, _without_timing(env)) != self.first[name]:
                return "%s: cached report differs from the computed one" % name
            return None
        return Op(name, lambda: self.call(argv), verify)


def _without_timing(env):
    env = dict(env)
    env.pop("timing", None)
    return json.dumps(env, sort_keys=True)


def _spec_text(p, names, relations=(), ideals=(), elements=(), ext=None, param=None):
    lines = ["char %d;" % p]
    if ext:
        lines.append("ext %s;" % ext)
    if param:
        lines.append("param %s;" % param)
    lines.append("vars %s;" % " ".join(names))
    lines += ["rel %s;" % f.render() for f in relations]
    lines += ["ideal %s = (%s);" % (n, ", ".join(g.render() for g in gens))
              for n, gens in ideals]
    lines += ["elem %s = %s;" % (n, f.render()) for n, f in elements]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# result readers and checks shared by the workloads

def _hk_rows(report):
    return [(e, q, length) for e, q, length, _ in report.rows]


def _payload_rows(payload):
    return [(e, int(q), int(length)) for e, q, length, _ in payload["rows"]]


def _check_hk(form, f, what):
    """Closed form on every row, and the rank colength of f for q <= 8."""
    def check(rows):
        return (oracles.check_rows(rows, form, what)
                or oracles.check_rank(rows, f, what))
    return check


# ---------------------------------------------------------------------------
# prime-field: Hilbert-Kunz rows over F_2

PRIME_RINGS = (
    # name, relation, e_max, closed form of l(R/m^[q])
    ("monsky-0", split_quartic, 8, FORMS["split-quartic"]),
    ("monsky-1", alpha_one_quartic, 7, FORMS["alpha-1-quartic"]),
    ("monsky-0-degenerate", lambda: quartic_body(2), 7, FORMS["degenerate-quartic"]),
    ("a1-char2", quadric_cone, 6, FORMS["quadric-cone"]),
)


# Operations call frobinv through its modules at call time, so that the
# traced run's wrappers, installed after the inputs are built, see the calls.

def prime_field(seed, cli):
    from frobinv import PrimeField, invariants, ring_make
    solve = []
    for name, relation, e_max, form in PRIME_RINGS:
        f = _moved_prime(seed, name, 2)(relation())
        ring = ring_make(PrimeField(2), XYZ, relations=[f.render()])
        solve.append(Op("ehk %s e<=%d" % (name, e_max),
                        lambda ring=ring, e_max=e_max:
                            _hk_rows(invariants.ehk_estimate(ring.origin_ideal(), e_max)),
                        _check_hk(form, f, name)))
    cone = _moved_prime(seed, "a1-char2", 2)(quadric_cone())
    spec = cli.spec("a1-char2", _spec_text(2, XYZ, [cone], [("m", _gens(2))]))
    argv = ["ehk", spec, "--emax", "6"]
    check = _check_hk(FORMS["quadric-cone"], cone, "cli ehk a1-char2")
    fill = [cli.compute("cli ehk a1-char2", argv, 0,
                        lambda pl: check(_payload_rows(pl)))]
    hit = [cli.hit("cli ehk a1-char2", argv) for _ in range(HITS_PER_ROUND)]
    return {"solve": solve, "fill": fill, "hit": hit}


# ---------------------------------------------------------------------------
# ext-field: the same Groebner work over F_4 and F_2(t)

def ext_field(seed, cli):
    from frobinv import (ExtensionField, FieldElement, PrimeField,
                         RationalFunctionField, equimult, invariants, ring_make)
    solve = []

    names_t = XYZ + ("t",)
    x, y = _gens(2, names_t)[:2]
    t = _gens(2, names_t)[3]
    quartic_t = Moved(seed, "monsky-t", names_t, [Poly(2, names_t, {(0,) * 4: 1})])(
        quartic_body(2, names_t) + t * x ** 2 * y ** 2)
    Kt = RationalFunctionField(PrimeField(2), "t")
    ring_t = ring_make(Kt, XYZ, relations=[quartic_t.render()])
    solve.append(Op("ehk quartic alpha=t over F_2(t) e<=4",
                    lambda: _hk_rows(invariants.ehk_estimate(ring_t.origin_ideal(), 4)),
                    lambda rows: oracles.check_rows(
                        rows, FORMS["transcendental-quartic"], "alpha=t over F_2(t)")))

    names_a = XYZ + ("a",)
    K = ExtensionField(2, (1, 1, 1))
    quartic_f4 = Moved(seed, "monsky-1-F4", names_a, _f4_units(names_a))(
        alpha_one_quartic(names_a))
    ring_f4 = ring_make(K, XYZ, relations=[quartic_f4.render()])
    over_f2 = alpha_one_quartic()

    def check_f4(rows):
        # base change: the rows over F_4 are those of the same quartic over
        # F_2, whose rank colengths give them for q <= 8
        return (oracles.check_rows(rows, FORMS["alpha-1-quartic"], "alpha=1 over F_4")
                or oracles.check_rank(rows, over_f2, "alpha=1 over F_4 against F_2"))
    solve.append(Op("ehk quartic alpha=1 over F_4 e<=7",
                    lambda: _hk_rows(invariants.ehk_estimate(ring_f4.origin_ideal(), 7)),
                    check_f4))

    gen = FieldElement(K, K._fix((0, 1)))
    alphas = [0, 1, gen, gen + 1]
    if seed:
        random.Random("%d/residues" % seed).shuffle(alphas)

    def gap_table():
        rep = equimult.bm_gap_table(alphas, e_min=2, e_max=3, field=K, jobs=2)
        residues = {a: [(e, q, length) for e, q, length, _, _ in rows]
                    for a, rows in rep.alpha_rows.items()}
        fiber = [(e, q, length) for e, q, length, _ in rep.fiber_rows]
        return fiber, residues, rep.min_gap

    def check_gap(result):
        fiber, residues, min_gap = result
        if len(residues) != 4:
            return "gap table: %d residue points, expected 4" % len(residues)
        reason = (oracles.check_rows(fiber, FORMS["transcendental-quartic"],
                                     "F_4(t) fiber")
                  or oracles.check_kunz(residues, fiber, "gap table"))
        if reason is None and min_gap != 0:
            reason = "gap table: minimum gap %s, Kunz equality at e=2 makes it 0" % min_gap
        return reason
    solve.append(Op("bm_gap_table F_4 e=2..3 jobs=2", gap_table, check_gap))

    spec = cli.spec("monsky-1-F4", _spec_text(
        2, XYZ, [quartic_f4], [("m", _gens(2))], ext="a^2 + a + 1"))
    argv = ["hk", spec, "--emax", "4"]
    check = _check_hk(FORMS["alpha-1-quartic"], over_f2, "cli hk alpha=1 over F_4")
    fill = [cli.compute("cli hk alpha=1 F_4", argv, 0,
                        lambda pl: check(_payload_rows(pl)))]
    hit = [cli.hit("cli hk alpha=1 F_4", argv) for _ in range(HITS_PER_ROUND)]
    return {"solve": solve, "fill": fill, "hit": hit}


# ---------------------------------------------------------------------------
# cli-corpus: a fixed list of frobinv commands, computed and then cached

def _rows_form(form, what, column=2):
    def check(payload):
        rows = [(r[0], int(r[1]), int(r[column])) for r in payload["rows"]]
        return oracles.check_rows(rows, form, what)
    return check


def _splitting_rank(f, what):
    def check(payload):
        rows = [(r[0], int(r[1]), int(r[2])) for r in payload["rows"]]
        return oracles.check_splitting(rows, f, what)
    return check


def _verdict(status, e_bound):
    def check(payload):
        got = (payload["verdict"]["status"], payload["verdict"]["e_bound"])
        if got != (status, e_bound):
            return "verdict %s, expected %s" % (got, (status, e_bound))
        return None
    return check


def _generators_colength(names, box, want):
    """The reported generators cut out an ideal of colength ``want`` in
    F_2[names] (they must contain m^[box])."""
    def check(payload):
        gens = [oracles.parse_f2(g, names) for g in payload["generators"]]
        got = oracles.quotient_colength(gens, box)
        if got != want:
            return "generators %s have colength %d, expected %d" % (
                payload["generators"], got, want)
        return None
    return check


def _all(*checks):
    def check(payload):
        for c in checks:
            reason = c(payload)
            if reason:
                return reason
        return None
    return check


def _fields(**want):
    def check(payload):
        for key, value in want.items():
            if payload[key] != value:
                return "%s is %r, expected %r" % (key, payload[key], value)
        return None
    return check


def cli_commands(seed, cli):
    """(name, argv, expected exit, payload check) for the corpus pass."""
    cmds = []

    def fsig(key, p, names, relation, e_max, form):
        move = _moved_prime(seed, key, p, names)
        rels = [move(relation)] if relation is not None else []
        spec = cli.spec(key, _spec_text(p, names, rels, [("m", _gens(p, names))]))
        check = _rows_form(form, "fsig " + key)
        if p == 2 and rels:
            check = _all(check, _splitting_rank(rels[0], "fsig " + key))
        cmds.append(("fsig %s e<=%d" % (key, e_max), ["fsig", spec, "--emax", str(e_max)],
                     0, check))
        return spec

    x2, y2, z2 = _gens(2)
    x3, y3, z3 = _gens(3)
    x7, y7, z7 = _gens(7)
    xy = ("x", "y")
    u, v = _gens(2, xy)
    fsig("regular-p2-d3", 2, XYZ, None, 4, oracles.regular_form(3))
    fsig("regular-p3-d2", 3, xy, None, 3, oracles.regular_form(2))
    node = fsig("node", 2, xy, u * v, 6, FORMS["fsig-one"])
    fsig("a1-char2", 2, XYZ, quadric_cone(), 5, FORMS["fsig-a1-char2"])
    fsig("a1-odd", 3, XYZ, x3 * y3 + 2 * z3 ** 2, 3, FORMS["fsig-a1-odd"])
    fsig("whitney", 3, XYZ, x3 ** 2 + 2 * y3 ** 2 * z3, 3, FORMS["fsig-whitney"])
    fsig("fermat-cubic", 7, XYZ, x7 ** 3 + y7 ** 3 + z7 ** 3, 2, FORMS["fsig-one"])
    fsig("monsky-1", 2, XYZ, alpha_one_quartic(), 3, FORMS["fsig-zero"])
    fsig("monsky-0-degenerate", 2, XYZ, quartic_body(2), 3, FORMS["fsig-zero"])
    fsig("monsky-0", 2, XYZ, split_quartic(), 3, FORMS["fsig-zero"])

    # the quadric cone with a height-one prime, as in the README's example
    move = _moved_prime(seed, "a1-prime", 2)
    cone = move(quadric_cone())
    x, y, z = (move(g) for g in (x2, y2, z2))
    m = [x, y, z]
    a1p = cli.spec("a1-prime", _spec_text(
        2, XYZ, [cone],
        [("p", [x, y]), ("m", m), ("mp", [g ** 2 for g in m]),
         ("m2", [x * x, x * y, x * z, y * y, y * z, z * z]),
         ("m4", [g ** 4 for g in m]), ("m8", [g ** 8 for g in m])],
        [("f", y ** 2), ("c", y), ("t", z)]))
    cmds += [
        ("hk a1-char2 e<=4", ["hk", a1p, "m", "--emax", "4"], 0,
         lambda pl: _check_hk(FORMS["quadric-cone"], cone, "hk a1-char2")(
             _payload_rows(pl))),
        ("tc-member z in p*", ["tc-member", a1p, "t", "p", "--testel", "f"], 0,
         _verdict("member-up-to", 2)),
        ("saturate m^[4] by m", ["saturate", a1p, "m4", "m"], 0,
         _fields(generators=["1"])),
        ("saturate m^[8] by m", ["saturate", a1p, "m8", "m"], 0,
         _fields(generators=["1"])),
        ("equimult at p", ["equimult", a1p, "p", "--emax", "1", "--testel", "c"], 2,
         _fields(status="violates-necessary-condition")),
        ("rigidity at p e<=3", ["rigidity", a1p, "p", "--emax", "3"], 2,
         _all(_fields(all_pass=False),
              _rows_form(FORMS["quadric-cone"], "rigidity lhs"),
              _rows_form(lambda q: q * q, "rigidity q*fiber", column=3))),
        ("descent p along z", ["descent", a1p, "p", "t", "--emax", "2", "--nmax", "2"], 0,
         _all(_fields(monotone_in_n=True, hs_factor=1), _descent_cells(cone, x, y, z))),
        ("lech m^2 in m e<=3", ["lech", a1p, "m2", "m", "--emax", "3"], 0,
         _all(_fields(ok=True),
              _lech_rows(cone, [x * x, x * y, x * z, y * y, y * z, z * z]))),
        ("wy m^[2] e<=3", ["wy", a1p, "mp", "--emax", "3"], 0,
         _all(_fields(all_pass=True, derived=["4", "6", True]),
              _rows_form(lambda q: 4 * q * q, "wy lhs"),
              _rows_form(lambda q: 6 * q * q, "wy l(R/m^[2q])", column=3))),
        ("frobpow m^2 e=2", ["frobpow", a1p, "m2", "--emax", "2"], 0,
         _frobpow([x * x, x * y, x * z, y * y, y * z, z * z], 4)),
    ]

    move3 = _moved_prime(seed, "a1-odd-prime", 3)
    x, y, z = (move3(g) for g in (x3, y3, z3))
    a1odd = cli.spec("a1-odd-prime", _spec_text(
        3, XYZ, [x * y + 2 * z * z], [("p", [x, y]), ("m", [x, y, z])],
        [("c", x), ("t", z)]))
    cmds += [
        ("ehk a1-odd e<=3", ["ehk", a1odd, "m", "--emax", "3"], 0,
         _rows_form(FORMS["a1-odd"], "ehk a1-odd")),
        ("tc-member z in p* (odd)", ["tc-member", a1odd, "t", "p", "--testel", "c"], 2,
         _verdict("non-member", 1)),
    ]

    # Fedder colons in the ambient ring: (m^[q] : f^(q-1)) has colength
    # a_e = q^2/2 for the quadric cone, and (m^[q] : (xyz)^(q-1)) is m
    move = _moved_prime(seed, "fedder", 2)
    x, y, z = (move(g) for g in (x2, y2, z2))
    cone = move(quadric_cone())
    fedder = cli.spec("fedder", _spec_text(
        2, XYZ, [], [("m4", [g ** 4 for g in (x, y, z)]), ("m8", [g ** 8 for g in (x, y, z)])],
        [("h4", cone ** 3), ("h8", cone ** 7), ("g4", (x * y * z) ** 3)]))
    cmds += [
        ("colon m^[4] : f^3", ["colon", fedder, "m4", "h4"], 0,
         _generators_colength(XYZ, 4, 8)),
        ("colon m^[8] : f^7", ["colon", fedder, "m8", "h8"], 0,
         _generators_colength(XYZ, 8, 32)),
        ("colon m^[4] : (xyz)^3", ["colon", fedder, "m4", "g4"], 0,
         _generators_colength(XYZ, 4, 1)),
    ]

    # the node k[x,y]/(xy) and the double line x^2 y
    move = _moved_prime(seed, "x2y", 2, xy)
    s, w = (move(g) for g in (u, v))
    x2y = cli.spec("x2y", _spec_text(2, xy, [s * s * w], [("m", [s, w])],
                                     [("s", s), ("w", w)]))
    move = _moved_prime(seed, "node", 2, xy)
    sum_xy = move(u + v)
    prod_xy = move(u * v)
    cmds += [
        ("fclosure-member xy in m", ["fclosure-member", node, prod_xy.render(), "m"], 0,
         _verdict("definitive-member", 0)),
        ("mult node along x+y", ["mult", node, sum_xy.render()], 0,
         _fields(multiplicity=2, cm_defect=0, lengths=["2", "4", "6"])),
        ("assoc x^2*y", ["assoc", x2y, "s:2", "w", "--emax", "3"], 0,
         _assoc_rows),
    ]

    move = _moved_prime(seed, "degenerate", 2)
    degenerate = move(quartic_body(2))
    deg = cli.spec("degenerate", _spec_text(2, XYZ, [degenerate],
                                            [("m", [move(g) for g in (x2, y2, z2)])]))
    cmds.append(("ehk degenerate quartic e<=5", ["ehk", deg, "m", "--emax", "5"], 0,
                 lambda pl: _check_hk(FORMS["degenerate-quartic"], degenerate,
                                      "ehk degenerate")(_payload_rows(pl))))
    return cmds


def _descent_cells(f, x, y, z):
    """Every cell l(R/(p^[q], z^(nq)))/(n q^2), p = (x, y), against the rank
    colength."""
    def check(payload):
        for n, e, q, value in payload["rows"]:
            q = int(q)
            # the cell ideal holds x^q, y^q, z^(nq), so m^[nq] lies in it
            length = oracles.quotient_colength([f, x ** q, y ** q, z ** (n * q)], n * q)
            want = Fraction(length, n * q * q)
            if Fraction(int(value["num"]), int(value["den"])) != want:
                return "descent cell (n=%d, e=%d) is %s/%s, rank gives %s" % (
                    n, e, value["num"], value["den"], want)
        return None
    return check


def _lech_rows(f, m2):
    """rhs = l(m/m^2) l(R/m^[q]) + l(R/m^[q]) = 3 (3q^2/2) + 3q^2/2 = 6q^2 on
    the quadric cone; lhs = l(R/(m^2)^[q]) by rank for 2q <= 8, as
    (m^2)^[q] holds m^[2q]."""
    def check(payload):
        for e, lhs, rhs, _ in payload["rows"]:
            q = 2 ** e
            if int(rhs) != 6 * q * q:
                return "lech rhs e=%d is %s, expected %d" % (e, rhs, 6 * q * q)
            if 2 * q <= 8:
                want = oracles.quotient_colength([f] + [g ** q for g in m2], 2 * q)
                if int(lhs) != want:
                    return "lech lhs e=%d is %s, rank gives %d" % (e, lhs, want)
        return None
    return check


def _frobpow(gens, q):
    def check(payload):
        names = gens[0].names
        got = [oracles.parse_f2(g, names) for g in payload["generators"]]
        want = [g ** q for g in gens]
        if sorted(sorted(g.terms.items()) for g in got) != sorted(
                sorted(g.terms.items()) for g in want):
            return "bracket power generators %s" % payload["generators"]
        return None
    return check


def _assoc_rows(payload):
    # R = k[x,y]/(x^2 y): l(R/m^[q]) = 3q - 2 against 2*q + q over the factors
    for e, q, lhs, rhs, _ in payload["rows"]:
        q = int(q)
        got = (Fraction(int(lhs["num"]), int(lhs["den"])),
               Fraction(int(rhs["num"]), int(rhs["den"])))
        if got != (Fraction(3 * q - 2, q), Fraction(3)):
            return "assoc row e=%d is %s, expected %s" % (e, got, ((3 * q - 2, q), 3))
    if payload["rhs_estimate"] != {"num": "3", "den": "1"}:
        return "assoc rhs estimate %s, expected 3" % payload["rhs_estimate"]
    return None


def cli_corpus(seed, cli):
    cmds = cli_commands(seed, cli)
    solve = [cli.compute(name, argv, code, check) for name, argv, code, check in cmds]
    hit = [cli.hit(name, argv) for name, argv, _, _ in cmds]
    return {"solve": solve, "fill": [], "hit": hit}


BUILDERS = {"prime-field": prime_field, "ext-field": ext_field, "cli-corpus": cli_corpus}
WORKLOADS = tuple(BUILDERS)


def build(name, seed, workdir, in_process=False):
    """Construct a workload's inputs and operations in ``workdir``."""
    os.makedirs(workdir, exist_ok=True)
    cli = Cli(workdir, in_process)
    return Workload(BUILDERS[name](seed, cli), cli.start_round)
