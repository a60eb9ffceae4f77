"""Per-layer tracing from outside the program.

``install`` wraps the public functions of each frobinv module -- and every
``from ... import`` binding of them, so no call slips past -- in wrappers
that record spans and counts.  Nothing in ``src/`` changes; the wrappers
live only in the traced benchmark process (and in pool workers forked from
it).

Every timed wrapper belongs to a group.  A call made directly inside a call
of the same group (``Polynomial.__pow__`` calling ``__mul__``, an F_q(t)
``add`` calling F_q ops) is passed through untouched, so counts and times
are of outermost calls only.  A group's self time is its duration minus the
time of the timed calls made inside it.  Spans (name, start, end, parent)
are kept for every wrapper except the hot coefficient, arithmetic and
monomial ones, and written out when the run ends.

Pool workers forked from the traced process inherit the wrappers; after
each residue cell a worker writes what it recorded to ``cell_dir`` and the
parent merges those files when the sweep returns.  (A pool that does not
fork starts unwrapped workers, and their work is not counted.)
"""

import glob
import json
import os
import time
from collections import defaultdict

perf = time.perf_counter


class Tracer:
    def __init__(self, cell_dir):
        self.cell_dir = cell_dir
        self.pid = os.getpid()
        self.worker = False
        self.cells = 0
        self.stack = []         # open timed calls: [group, child seconds, span index]
        self.pool_serial = 0.0  # summed residue-cell time in pool workers
        self.pool_wall = 0.0    # wall time of the pooled sweeps
        self.reset()

    def reset(self):
        self.spans = []                  # [name, start, end, parent index]
        self.time = defaultdict(float)   # group -> seconds of outermost calls
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)

    # -- wrappers ------------------------------------------------------------

    def timed(self, name, group, fn, span=True, before=None, after=None):
        stack = self.stack

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == group:
                return fn(*args, **kwargs)
            if before is not None:
                before(self, args, kwargs)
            index = None
            if span:
                index = len(self.spans)
                parent = stack[-1][2] if stack else None
                self.spans.append([name, 0.0, 0.0, parent])
            frame = [group, 0.0, index if span else (stack[-1][2] if stack else None)]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                spent = perf() - start
                stack.pop()
                if stack:
                    stack[-1][1] += spent
                self.time[group] += spent
                self.self_time[group] += spent - frame[1]
                self.counts[name] += 1
                if span:
                    self.spans[index][1:3] = [start, start + spent]
            if after is not None:
                after(self, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__module__ = getattr(fn, "__module__", None)
        return wrapper

    def counted(self, name, fn):
        def wrapper(*args):
            self.counts[name] += 1
            return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- pool workers ----------------------------------------------------------

    def enter_cell(self):
        """In a forked worker, start from empty records."""
        if os.getpid() != self.pid:
            self.pid = os.getpid()
            self.worker = True
            self.stack.clear()
            self.reset()

    def leave_cell(self):
        if not self.worker:
            return
        self.cells += 1
        path = os.path.join(self.cell_dir, "cell-%d-%d.json" % (self.pid, self.cells))
        with open(path + ".tmp", "w", encoding="utf-8") as fh:
            json.dump({"time": self.time, "self_time": self.self_time,
                       "counts": self.counts, "maxima": self.maxima,
                       "spans": self.spans}, fh)
        os.replace(path + ".tmp", path)
        self.reset()

    def merge_cells(self, parent):
        """Fold the workers' records into this process; returns cell seconds."""
        serial = 0.0
        for path in sorted(glob.glob(os.path.join(self.cell_dir, "cell-*.json"))):
            with open(path, encoding="utf-8") as fh:
                rec = json.load(fh)
            os.unlink(path)
            for key, value in rec["time"].items():
                self.time[key] += value
            for key, value in rec["self_time"].items():
                self.self_time[key] += value
            for key, value in rec["counts"].items():
                self.counts[key] += value
            for key, value in rec["maxima"].items():
                self.maxima[key] = max(self.maxima[key], value)
            offset = len(self.spans)
            for name, start, end, up in rec["spans"]:
                self.spans.append([name, start, end, parent if up is None else up + offset])
            serial += rec["time"].get("invariants.cell", 0.0)
        return serial

    # -- results -----------------------------------------------------------------

    def span_seconds(self, name, under):
        """Summed duration of spans ``name`` whose parent span is ``under``."""
        total = 0.0
        for span_name, start, end, parent in self.spans:
            if span_name == name and parent is not None and self.spans[parent][0] == under:
                total += end - start
        return total


def _ratfunc_degree(tracer, args, result):
    num, den = result
    degree = max(len(num), len(den)) - 1
    if degree > tracer.maxima["coeff.ratfunc_deg"]:
        tracer.maxima["coeff.ratfunc_deg"] = degree


def _basis_before(tracer, args, kwargs):
    from frobinv.polyring import GREVLEX
    ideal = args[0]
    order = args[1] if len(args) > 1 else kwargs.get("order", GREVLEX)
    if order.cache_key() in ideal._basis_cache:
        tracer.counts["groebner.basis_cache_hit"] += 1


def _basis_after(tracer, args, result):
    m = tracer.maxima
    m["groebner.basis_len"] = max(m["groebner.basis_len"], len(result))
    terms = sum(len(g.terms) for g in result)
    m["groebner.basis_terms"] = max(m["groebner.basis_terms"], terms)


def _count_before(tracer, args, kwargs):
    m = tracer.maxima
    m["groebner.count_gens"] = max(m["groebner.count_gens"], len(args[0]))


def _cache_after(tracer, args, result):
    tracer.counts["cli.cache_miss" if result is None else "cli.cache_hit"] += 1


def install(tracer):
    """Wrap frobinv's public functions in this process; returns the tracer."""
    import frobinv
    from frobinv import cli, coeff, equimult, frobenius, groebner, invariants, polyring
    modules = [frobinv, coeff, polyring, groebner, frobenius, invariants, equimult, cli]

    def rebind(module, attr, wrap):
        old = getattr(module, attr)
        new = wrap(old)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is old:
                    setattr(mod, key, new)
        return new

    def function(module, attr, name, group, **kw):
        rebind(module, attr, lambda fn: tracer.timed(name, group, fn, **kw))

    # coeff: every field op, outermost calls only
    for cls in (coeff.PrimeField, coeff.ExtensionField, coeff.RationalFunctionField):
        after = _ratfunc_degree if cls is coeff.RationalFunctionField else None
        for op in ("add", "sub", "mul", "neg", "inv", "frob"):
            setattr(cls, op, tracer.timed("coeff." + op, "coeff", cls.__dict__[op],
                                          span=False, after=after))
    coeff.FieldSpec.pow = tracer.timed("coeff.pow", "coeff", coeff.FieldSpec.pow, span=False)

    # polyring: Polynomial arithmetic, monomial-order keys, divisibility
    P = polyring.Polynomial
    wrapped = {}
    for attr in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__pow__", "frobenius_power"):
        fn = P.__dict__[attr]
        if fn not in wrapped:
            wrapped[fn] = tracer.timed("polyring.arith", "polyring.arith", fn, span=False)
        setattr(P, attr, wrapped[fn])
    key = rebind(polyring, "grevlex_key",
                 lambda fn: tracer.counted("polyring.order_key", fn))
    polyring.GREVLEX.key = key
    polyring.LEX.key = tracer.counted("polyring.order_key", polyring.LEX.key)
    rebind(polyring, "mono_divides", lambda fn: tracer.counted("polyring.divides", fn))

    # groebner
    function(groebner, "groebner_basis", "groebner.basis", "groebner.basis",
             before=_basis_before, after=_basis_after)
    function(groebner, "normal_form", "groebner.normal_form", "groebner.normal_form")
    for attr in ("ideal_colon", "ideal_intersection", "ideal_colon_ideal", "saturate"):
        function(groebner, attr, "groebner." + attr, "groebner.elim")
    function(groebner, "count_standard_monomials", "groebner.count", "groebner.count",
             before=_count_before)

    # frobenius
    function(frobenius, "frobenius_power", "frobenius.bracket", "frobenius.bracket")
    for attr in ("splitting_ideal", "splitting_sequence"):
        function(frobenius, attr, "frobenius." + attr, "frobenius.splitting")
    for attr in ("tc_membership", "frobenius_closure_membership"):
        function(frobenius, attr, "frobenius." + attr, "frobenius.closure")

    # invariants: public reports share one group, so self time is theirs alone
    for attr in ("hk_function", "ehk_estimate", "hs_multiplicity", "fsig_function",
                 "descent_sequence", "lech_check", "assoc_check"):
        function(invariants, attr, "invariants." + attr, "invariants")

    def sweep(fn):
        timed = tracer.timed("invariants._sweep", "invariants.sweep", fn)

        def wrapper(cells, jobs):
            if not jobs or jobs <= 1:
                return timed(cells, jobs)
            start = perf()
            result = timed(cells, jobs)
            tracer.pool_wall += perf() - start
            parent = len(tracer.spans) - 1
            while tracer.spans[parent][0] != "invariants._sweep":
                parent -= 1
            tracer.pool_serial += tracer.merge_cells(parent)
            return result
        return wrapper
    rebind(invariants, "_sweep", sweep)

    def cell(fn):
        timed = tracer.timed("invariants._hk_cell", "invariants.cell", fn)

        def wrapper(args):
            tracer.enter_cell()
            result = timed(args)
            tracer.leave_cell()
            return result
        wrapper.__name__, wrapper.__qualname__, wrapper.__module__ = (
            fn.__name__, fn.__qualname__, fn.__module__)
        return wrapper
    rebind(invariants, "_hk_cell", cell)

    # equimult
    for attr in ("fiber_presentation", "localized_hk", "localized_hk_report"):
        function(equimult, attr, "equimult." + attr, "equimult.fiber")
    for attr in ("bm_gap_table", "rigidity_check", "equimult_check",
                 "colength_identity_check", "monsky_repro", "wy_inequality_check"):
        function(equimult, attr, "equimult." + attr, "equimult")

    # cli
    function(cli, "main", "cli.main", "cli")
    function(cli, "parse_spec", "cli.parse_spec", "cli.parse")
    rebind(cli, "_cache_load", lambda fn: tracer.timed(
        "cli._cache_load", "cli.cache", fn, after=_cache_after))
    return tracer


def metrics(tracer, rounds):
    """Per-round layer figures, by the names that BENCHMARK.json lists."""
    t, c, m = tracer.time, tracer.counts, tracer.maxima
    per = 1.0 / rounds

    def ops(*names):
        return sum(c["coeff." + n] for n in names) * per

    return {
        "coeff.ops": (ops("add", "sub", "mul", "neg", "inv", "frob", "pow"), "count"),
        "coeff.mul_ops": (ops("mul"), "count"),
        "coeff.inv_ops": (ops("inv"), "count"),
        "coeff.s": (t["coeff"] * per, "s"),
        "coeff.ratfunc_deg_max": (m["coeff.ratfunc_deg"], "degree"),
        "polyring.order_key_calls": (c["polyring.order_key"] * per, "count"),
        "polyring.divides_calls": (c["polyring.divides"] * per, "count"),
        "polyring.arith_s": (t["polyring.arith"] * per, "s"),
        "groebner.basis_calls": (c["groebner.basis"] * per, "count"),
        "groebner.basis_cache_hits": (c["groebner.basis_cache_hit"] * per, "count"),
        "groebner.basis_s": (t["groebner.basis"] * per, "s"),
        "groebner.basis_len_max": (m["groebner.basis_len"], "count"),
        "groebner.basis_terms_max": (m["groebner.basis_terms"], "count"),
        "groebner.normal_form_calls": (c["groebner.normal_form"] * per, "count"),
        "groebner.normal_form_s": (t["groebner.normal_form"] * per, "s"),
        "groebner.elim_s": (t["groebner.elim"] * per, "s"),
        "groebner.count_s": (t["groebner.count"] * per, "s"),
        "groebner.count_gens_max": (m["groebner.count_gens"], "count"),
        "frobenius.bracket_s": (t["frobenius.bracket"] * per, "s"),
        "frobenius.splitting_s": (t["frobenius.splitting"] * per, "s"),
        "frobenius.closure_s": (t["frobenius.closure"] * per, "s"),
        "invariants.self_s": (tracer.self_time["invariants"] * per, "s"),
        "invariants.pool_speedup": (tracer.pool_serial / tracer.pool_wall
                                    if tracer.pool_wall else 1.0, "ratio"),
        "equimult.fiber_s": (t["equimult.fiber"] * per, "s"),
        "equimult.residue_s": (tracer.span_seconds("invariants._sweep",
                                                   "equimult.bm_gap_table") * per, "s"),
        "cli.parse_s": (t["cli.parse"] * per, "s"),
        "cli.cache_hits": (c["cli.cache_hit"] * per, "count"),
        "cli.cache_misses": (c["cli.cache_miss"] * per, "count"),
    }


def write_spans(tracer, path):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent"], "spans": tracer.spans}, fh)
