"""Tests of the benchmark itself: every oracle rejects a wrong result, and a
run with one corrupted or hung operation counts exactly that one as failed.

    python3 -m pytest bench/test_bench.py
"""

import json
import os
import signal
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from oracles import CLOSED_FORMS as FORMS  # noqa: E402
from oracles import Poly  # noqa: E402

sys.path.insert(0, workloads.SRC)

x, y, z = Poly.variables(2, "xyz")


def rows_of(form, e_max, p=2):
    return [(e, p ** e, oracles.expected(form, p ** e)) for e in range(1, e_max + 1)]


def bump(rows, index=-1, by=1):
    rows = list(rows)
    e, q, length = rows[index]
    rows[index] = (e, q, length + by)
    return rows


# -- closed forms and rank colengths ---------------------------------------------

RANKED = [
    ("quadric-cone", x ** 2 + z * y),
    ("split-quartic", workloads.split_quartic()),
    ("alpha-1-quartic", workloads.alpha_one_quartic()),
    ("degenerate-quartic", workloads.quartic_body(2)),
]


@pytest.mark.parametrize("form,f", RANKED)
def test_closed_form_matches_rank_colength(form, f):
    rows = rows_of(FORMS[form], 3)
    assert oracles.check_rows(rows, FORMS[form], form) is None
    assert oracles.check_rank(rows, f, form) is None


@pytest.mark.parametrize("form", sorted(FORMS))
def test_every_closed_form_rejects_a_wrong_row(form):
    p = 3 if "odd" in form or "whitney" in form else 2
    rows = rows_of(FORMS[form], 3, p)
    assert oracles.check_rows(rows, FORMS[form], form) is None
    assert oracles.check_rows(bump(rows), FORMS[form], form) is not None
    assert oracles.check_rows([], FORMS[form], form) is not None


@pytest.mark.parametrize("form,f", RANKED)
def test_rank_colength_rejects_a_wrong_row(form, f):
    rows = rows_of(FORMS[form], 3)
    assert oracles.check_rank(bump(rows, index=1), f, form) is not None


def test_rank_colength_holds_under_every_coordinate_change():
    import random
    f = workloads.split_quartic()
    for seed in range(1, 6):
        g = f.substitute(oracles.coordinate_change(
            random.Random(seed), f.names, [Poly(2, f.names, {(0, 0, 0): 1})]))
        assert g != f
        assert [oracles.rank_colength(g, q) for q in (2, 4, 8)] == [8, 44, 200]


def test_f4_change_keeps_the_field():
    names = ("x", "y", "z", "a")
    move = workloads.Moved(7, "key", names, workloads._f4_units(names))
    g = move(workloads.alpha_one_quartic(names))
    assert all(m[3] < 2 for m in g.terms)


@pytest.mark.parametrize("form,f", [("fsig-a1-char2", x ** 2 + z * y),
                                    ("fsig-zero", workloads.split_quartic())])
def test_splitting_rank_matches_and_rejects(form, f):
    rows = rows_of(FORMS[form], 3)
    assert oracles.check_splitting(rows, f, form) is None
    assert oracles.check_splitting(bump(rows), f, form) is not None


def test_kunz_rejects_wrong_rows():
    fiber = [(2, 4, 44), (3, 8, 188)]
    good = {"t": [(2, 4, 176), (3, 8, 1528)], "t+1": [(2, 4, 176), (3, 8, 1504)]}
    assert oracles.check_kunz(good, fiber, "gap") is None
    below = {"t": [(2, 4, 176), (3, 8, 1503)]}
    assert oracles.check_kunz(below, fiber, "gap") is not None
    no_equality = {"t": [(2, 4, 177), (3, 8, 1528)]}
    assert oracles.check_kunz(no_equality, fiber, "gap") is not None


# -- checks of CLI payloads ---------------------------------------------------------

def test_verdict_and_field_checks_reject_wrong_payloads():
    check = workloads._verdict("non-member", 1)
    assert check({"verdict": {"status": "non-member", "e_bound": 1}}) is None
    assert check({"verdict": {"status": "member-up-to", "e_bound": 1}}) is not None
    assert check({"verdict": {"status": "non-member", "e_bound": 2}}) is not None
    fields = workloads._fields(multiplicity=2, lengths=["2", "4", "6"])
    assert fields({"multiplicity": 2, "lengths": ["2", "4", "6"]}) is None
    assert fields({"multiplicity": 2, "lengths": ["2", "4", "7"]}) is not None


def test_colon_check_rejects_wrong_generators():
    check = workloads._generators_colength(("x", "y", "z"), 4, 8)
    assert check({"generators": ["z^2", "y^2", "x^2+y*z"]}) is None
    assert check({"generators": ["z^2", "y^2", "x^3"]}) is not None
    assert check({"generators": ["z", "y", "x"]}) is not None


def test_row_payload_checks_reject_wrong_rows():
    fsig = workloads._rows_form(FORMS["fsig-a1-char2"], "fsig")
    good = {"rows": [[1, "2", "2", {}], [2, "4", "8", {}]]}
    assert fsig(good) is None
    assert fsig({"rows": [[1, "2", "2", {}], [2, "4", "9", {}]]}) is not None

    assoc = {"rows": [[e, str(2 ** e), {"num": str(3 * 2 ** e - 2), "den": str(2 ** e)},
                       {"num": "3", "den": "1"}, {}] for e in (1, 2, 3)],
             "rhs_estimate": {"num": "3", "den": "1"}}
    assert workloads._assoc_rows(assoc) is None
    assoc["rows"][2][2] = {"num": "23", "den": "8"}
    assert workloads._assoc_rows(assoc) is not None

    cone = x ** 2 + z * y
    m2 = [x * x, x * y, x * z, y * y, y * z, z * z]
    lech = workloads._lech_rows(cone, m2)
    assert lech({"rows": [[1, "20", "24", True], [2, "80", "96", True]]}) is None
    assert lech({"rows": [[1, "21", "24", True]]}) is not None
    assert lech({"rows": [[1, "20", "25", True]]}) is not None

    descent = workloads._descent_cells(cone, x, y, z)
    cells = {"rows": [[1, 1, "2", {"num": "3", "den": "2"}], [2, 2, "4", {"num": "5", "den": "4"}]]}
    assert descent(cells) is None
    cells["rows"][1][3] = {"num": "3", "den": "2"}
    assert descent(cells) is not None

    frobpow = workloads._frobpow([x, y + z], 4)
    assert frobpow({"generators": ["x^4", "y^4+z^4"]}) is None
    assert frobpow({"generators": ["x^4", "y^4"]}) is not None


def test_cache_hit_must_equal_the_computed_report(tmp_path):
    cli = workloads.Cli(str(tmp_path), in_process=True)
    cli.start_round()
    envelope = {"payload": {"rows": [[1, "2", "6"]]}, "digest": "d", "timing": {"seconds": 1}}
    cli.first["hk"] = (0, workloads._without_timing(envelope))
    hit = cli.hit("hk", [])
    other_time = dict(envelope, timing={"seconds": 0.01})
    assert hit.check((0, json.dumps(other_time))) is None
    changed = dict(envelope, payload={"rows": [[1, "2", "7"]]})
    assert hit.check((0, json.dumps(changed))) is not None
    assert hit.check((2, json.dumps(other_time))) is not None
    assert hit.check((3, "")) is not None


# -- whole rounds ------------------------------------------------------------------------

def small_prime_field(tmp_path):
    """prime-field with only its quadric-cone row, to keep the round short."""
    workload = workloads.build("prime-field", 0, str(tmp_path))
    workload.passes["solve"] = [op for op in workload.passes["solve"]
                                if "a1-char2" in op.name]
    return workload


def test_clean_round_fails_nothing(tmp_path):
    tally = run.Tally()
    run.run_round(small_prime_field(tmp_path), tally)
    assert (tally.attempted, tally.failed, tally.wrong) == (6, 0, 0)


def test_one_corrupted_result_is_one_failed_operation(tmp_path):
    workload = small_prime_field(tmp_path)
    op = workload.passes["solve"][0]
    honest = op.run
    op.run = lambda: bump(honest())
    tally = run.Tally()
    run.run_round(workload, tally)
    assert (tally.attempted, tally.failed, tally.wrong) == (6, 1, 1)


def test_a_result_of_the_wrong_shape_is_a_wrong_result():
    op = workloads.Op("shape", lambda: {"rows": None},
                      workloads._rows_form(FORMS["quadric-cone"], "shape"))
    tally = run.Tally()
    tally.run(op)
    assert (tally.attempted, tally.failed, tally.wrong) == (1, 1, 1)


def test_an_operation_past_its_limit_fails_without_stalling(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OP_LIMIT_S", 0.2)
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    try:
        op = workloads.Op("hang", lambda: time.sleep(5), lambda result: None)
        tally = run.Tally()
        start = time.perf_counter()
        tally.run(op)
        assert time.perf_counter() - start < 2
        assert (tally.attempted, tally.failed, tally.wrong) == (1, 1, 0)
    finally:
        signal.signal(signal.SIGALRM, previous)


def test_ops_read_frobinv_functions_at_call_time(tmp_path):
    # the traced run wraps module attributes after building; a name bound
    # at build time would bypass the wrappers
    from frobinv import invariants
    workload = small_prime_field(tmp_path)
    calls = []
    original = invariants.ehk_estimate

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)
    invariants.ehk_estimate = spy
    try:
        workload.passes["solve"][0].run()
    finally:
        invariants.ehk_estimate = original
    assert len(calls) == 1
