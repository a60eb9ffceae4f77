"""Fiber presentations, localized Hilbert-Kunz rows, the colength identity,
rigidity, the equimultiplicity necessary condition, and the quartic-family
drivers."""

from fractions import Fraction

import pytest

from frobinv.coeff import ExtensionField, FieldElement, PrimeField
from frobinv.equimult import (
    WARRANTY,
    EquimultError,
    bm_gap_table,
    bm_maximal_ideal,
    brenner_monsky_ring,
    colength_identity_check,
    equimult_check,
    fiber_presentation,
    filtration_check,
    localized_hk,
    localized_hk_report,
    monsky_repro,
    quartic_ring,
    rigidity_check,
    specialization_consistency,
    wy_inequality_check,
)
from frobinv.frobenius import frobenius_power
from frobinv.invariants import hk_function, hk_table
from frobinv.polyring import Ideal, ring_make

F2 = PrimeField(2)
F4 = ExtensionField(2, (1, 1, 1))


def ideal(ring, *gens):
    return Ideal(ring, [ring.parse(g) for g in gens])


def quadric_cone():
    return ring_make(F2, ("x", "y", "z"), relations=["x^2 + z*y"])


# -- fiber presentations --------------------------------------------------------


def test_fiber_presentation_shape():
    R = quadric_cone()
    fp = fiber_presentation(ideal(R, "x", "y"))
    assert fp.t_name == "z"
    assert fp.fiber_ring.varnames == ("x", "y")
    assert fp.fiber_ring.dim == 1


def test_fiber_presentation_rejects_fat_lead():
    R = ring_make(F2, ("x", "y"))
    with pytest.raises(EquimultError):
        fiber_presentation(ideal(R, "x*y"))


def test_fiber_presentation_rejects_two_survivors():
    R = ring_make(F2, ("x", "y", "z"))
    with pytest.raises(EquimultError):
        fiber_presentation(ideal(R, "x"))


def test_fiber_presentation_checks_designated_name():
    R = quadric_cone()
    with pytest.raises(EquimultError):
        fiber_presentation(ideal(R, "x", "y"), t_name="y")


# -- localized rows --------------------------------------------------------------


def test_localized_hk_quadric_cone():
    # R_p is regular: the fiber colength is exactly q
    P = ideal(quadric_cone(), "x", "y")
    assert [localized_hk(P, e) for e in (1, 2, 3)] == [2, 4, 8]
    rep = localized_hk_report(P, 3)
    assert all(r[3] == 1 for r in rep.rows)
    assert rep.estimate == 1


def test_localized_hk_quartic_family():
    R = brenner_monsky_ring()
    P = ideal(R, "x", "y", "z")
    assert localized_hk(P, 2) == 44
    assert localized_hk(P, 3) == 188


# -- colength identity and rigidity ------------------------------------------------


def test_colength_identity_regular():
    R = ring_make(F2, ("x", "y"))
    rep = colength_identity_check(ideal(R, "x"), "y", 3)
    assert rep.hs_factor == 1
    assert rep.all_zero


def test_colength_identity_quadric_cone_residuals():
    # the surrogate identity fails with residual q: l = 2q against q
    P = ideal(quadric_cone(), "x", "y")
    rep = colength_identity_check(P, "z", 3)
    assert [(lhs, rhs, res) for _, _, lhs, rhs, res in rep.rows] == \
        [(4, 2, 2), (8, 4, 4), (16, 8, 8)]
    assert not rep.all_zero


def test_rigidity_regular_passes():
    R = ring_make(F2, ("x", "y"))
    rep = rigidity_check(ideal(R, "x"), 3)
    assert rep.all_pass
    assert all(lhs == rhs for _, _, lhs, rhs, _ in rep.rows)


def test_rigidity_quadric_cone_fails_every_row():
    rep = rigidity_check(ideal(quadric_cone(), "x", "y"), 3)
    assert [(lhs, rhs) for _, _, lhs, rhs, _ in rep.rows] == \
        [(6, 4), (24, 16), (96, 64)]
    assert not rep.all_pass


# -- the necessary condition --------------------------------------------------------


def test_equimult_regular_consistent():
    R = ring_make(F2, ("x", "y"))
    v = equimult_check(ideal(R, "x"), c="1", e_max=2)
    assert v.status == "consistent"
    assert v.witness is None
    assert v.residuals.all_zero
    assert v.warranty == WARRANTY


def test_equimult_quadric_cone_violates():
    P = ideal(quadric_cone(), "x", "y")
    v = equimult_check(P, c="y^2", e_max=2, tc_e_max=2)
    assert v.status == "violates-necessary-condition"
    e, z = v.witness
    assert e == 1
    assert str(z) == "y"
    assert not v.residuals.all_zero


def test_equimult_without_multiplier_is_inconclusive():
    P = ideal(quadric_cone(), "x", "y")
    v = equimult_check(P, c=None, e_max=2, tc_e_max=2)
    assert v.status == "inconclusive"
    assert v.witness is None


def test_equimult_rejects_wrong_dimension():
    R = ring_make(F2, ("x", "y", "z"))
    with pytest.raises(EquimultError):
        equimult_check(ideal(R, "x"))


def test_zero_multiplier_is_refused_before_any_work():
    # the dimension test would refuse the plane x = 0 in 3-space first, and an
    # empty filtration reaches no tc_membership
    zero = "^tight-closure multiplier must be nonzero$"
    with pytest.raises(EquimultError, match=zero):
        equimult_check(ideal(ring_make(F2, ("x", "y", "z")), "x"), c="0")
    with pytest.raises(EquimultError, match=zero):
        filtration_check(ring_make(F2, ("x", "y")).origin_ideal(), [], c="0")


# -- filtration hypotheses -----------------------------------------------------------


def test_filtration_bracket_chain_passes():
    R = ring_make(F2, ("x", "y"))
    m = R.origin_ideal()
    seq = [frobenius_power(m, 1), frobenius_power(m, 2)]
    rep = filtration_check(m, seq, c="1")
    assert rep.hypotheses_ok
    assert rep.trends_match
    assert all(gap == 0 for _, _, _, _, gap in rep.rows)
    assert all(v.status == "definitive-member" for _, _, v in rep.spot_checks)


def test_filtration_reports_containment_failure():
    R = ring_make(F2, ("x", "y"))
    m = R.origin_ideal()
    seq = [ideal(R, "x^4", "y^4"), ideal(R, "x^2", "y^2")]
    rep = filtration_check(m, seq)
    assert not rep.hypotheses_ok
    assert rep.failures == ["I^[p^1] is not inside L_1"]


# -- quartic family ------------------------------------------------------------------


def test_quartic_ring_specializations():
    one = FieldElement(F4, F4.from_int(1))
    R = quartic_ring(one)
    assert str(R.relations[0]) == "x^2*y^2+x^3*z+y^3*z+x*y*z^2+z^4"


def test_monsky_repro_zero_hits_target_exactly():
    # rows sit exactly on 7/2 - 3/q, so the affine fit nails the limit
    rep = monsky_repro("zero", 3)
    assert rep.report.estimate == Fraction(7, 2)
    assert rep.within == 0


def test_monsky_repro_algebraic_shallow_rows():
    rep = monsky_repro("algebraic", 3)
    assert rep.target == Fraction(49, 16)
    assert [r[2] for r in rep.report.rows] == [8, 44, 196]
    assert rep.report.estimate == Fraction(55, 16)
    assert rep.within == Fraction(3, 8)


def test_monsky_repro_degree_three_modulus_target():
    rep = monsky_repro("algebraic", 2, lam_modulus=(1, 1, 0, 1))
    assert rep.target == Fraction(193, 64)
    assert [r[2] for r in rep.report.rows] == [8, 44]


def test_monsky_repro_rejects_bad_modulus():
    from frobinv.coeff import FieldError
    with pytest.raises(FieldError):
        monsky_repro("algebraic", 2, lam_modulus=(1, 0, 1))  # (x+1)^2


def test_monsky_repro_rejects_unknown_spec():
    with pytest.raises(EquimultError):
        monsky_repro("imaginary", 2)


def test_brenner_monsky_ring_needs_char_two():
    with pytest.raises(EquimultError):
        brenner_monsky_ring(field=PrimeField(3))


def test_bm_maximal_ideal_gens():
    R = brenner_monsky_ring()
    m1 = bm_maximal_ideal(R, 1)
    assert [str(g) for g in m1.gens] == ["x", "y", "z", "t+1"]


def test_bm_gap_table_alpha_zero():
    rep = bm_gap_table([0], e_min=2, e_max=3)
    assert [(e, q, ell) for e, q, ell, _ in rep.fiber_rows] == \
        [(2, 4, 44), (3, 8, 188)]
    rows = rep.alpha_rows["t"]
    assert [(e, ell, gap) for e, _, ell, _, gap in rows] == \
        [(2, 176, 0), (3, 1528, Fraction(3, 64))]
    assert rep.min_gap == 0  # the e = 2 row never separates


# -- Kunz's bracket and Frobenius orbits on the gap table ----------------------
#
# For m_alpha = (x, y, z, t - alpha), l(R/m_alpha^[q]) lies between
# q l_fiber(p^[q]) and q l(Q_alpha/m^[q]).  The gap table computes a residue
# row in four variables only where those differ, and each Frobenius orbit at
# its first point only; here every row is computed directly.

def _gap_points():
    a = F4.symbols()["a"]
    return [0, 1, a, a + 1]


def _bracket_violation(row, lower, upper):
    """Why a residue row breaks Kunz's bracket, or None."""
    if row < lower:
        return "%d is below q l_fiber = %d" % (row, lower)
    if row > upper:
        return "%d is above q l(Q_alpha/m^[q]) = %d" % (row, upper)
    return None


def _brackets_and_direct_rows(levels):
    """The fiber rows, and per gap point (lower, upper, direct row) at each level."""
    R = brenner_monsky_ring(F4)
    prime = ideal(R, "x", "y", "z")
    fp = fiber_presentation(prime)
    points = _gap_points()
    fiber, *rest = hk_table([fp.map_ideal(prime)]
                            + [fp.specialize(a).origin_ideal() for a in points]
                            + [bm_maximal_ideal(R, a) for a in points], levels)
    uppers, direct = rest[:len(points)], rest[len(points):]
    return {str(bm_maximal_ideal(R, a).gens[3]):
            [(q * fib, q * up, ell)
             for (_, q, fib, _), (_, _, up, _), (_, _, ell, _) in zip(fiber, up_rows, rows)]
            for a, up_rows, rows in zip(points, uppers, direct)}


def test_residue_rows_lie_in_kunz_bracket():
    levels = range(1, 4)
    cases = _brackets_and_direct_rows(levels)
    rep = bm_gap_table(_gap_points(), e_min=1, e_max=3, field=F4)
    closed = []
    for key, rows in cases.items():
        for e, (lower, upper, ell) in zip(levels, rows):
            assert _bracket_violation(ell, lower, upper) is None, (key, e)
            if lower == upper:
                closed.append((key, e))
        assert [row[2] for row in rep.alpha_rows[key]] == [ell for _, _, ell in rows], key
    # the bracket closes at every point for e <= 2, and at a and a+1 for e = 3
    assert sorted(closed) == sorted([(k, e) for k in cases for e in (1, 2)]
                                    + [("t+a", 3), ("t+a+1", 3)])


def test_bracket_check_rejects_a_row_off_by_one():
    for key, rows in _brackets_and_direct_rows(range(2, 4)).items():
        for lower, upper, ell in rows:
            assert _bracket_violation(lower - 1, lower, upper) is not None
            assert _bracket_violation(upper + 1, lower, upper) is not None
            if lower == upper:
                assert _bracket_violation(ell - 1, lower, upper) is not None
                assert _bracket_violation(ell + 1, lower, upper) is not None


def test_e4_residue_rows_lie_in_kunz_bracket_and_match_the_table():
    # every e = 4 row in four variables, the two the table takes from the
    # closed bracket (a and a+1) included
    cases = _brackets_and_direct_rows(range(4, 5))
    rep = bm_gap_table(_gap_points(), e_min=4, e_max=4, field=F4)
    assert [(e, ell) for e, _, ell, _ in rep.fiber_rows] == [(4, 764)]
    want = {"t": 12440, "t+1": 12296, "t+a": 12224, "t+a+1": 12224}
    assert cases.keys() == want.keys()
    for key, [(lower, upper, ell)] in cases.items():
        assert (lower, ell) == (16 * 764, want[key]), key
        assert _bracket_violation(ell, lower, upper) is None, key
        assert [row[2] for row in rep.alpha_rows[key]] == [ell], key


# The e = 5 residue rows, recorded from `repro-bm --emax 5` (four-variable
# cells at alpha = 0, 1 and a; a + 1 is the conjugate of a).  Too slow to
# recompute here; their bracket sides are not.
E5_RESIDUE_ROWS = {"t": 99976, "t+1": 98716, "t+a": 98188}


def test_e5_residue_rows_lie_in_kunz_bracket():
    R = brenner_monsky_ring(F4)
    prime = ideal(R, "x", "y", "z")
    fp = fiber_presentation(prime)
    fiber = hk_function(fp.map_ideal(prime), 5)
    assert fiber == 3 * 32 ** 2 - 4 == 3068
    uppers = {str(bm_maximal_ideal(R, a).gens[3]): hk_function(fp.specialize(a).origin_ideal(), 5)
              for a in _gap_points()[:3]}
    assert uppers == {"t": 3908, "t+1": 3136, "t+a": 3076}
    brackets = {key: (32 * fiber, 32 * up) for key, up in uppers.items()}
    assert brackets == {"t": (98176, 125056), "t+1": (98176, 100352), "t+a": (98176, 98432)}
    for key, (lower, upper) in brackets.items():
        assert _bracket_violation(E5_RESIDUE_ROWS[key], lower, upper) is None, key
        assert _bracket_violation(lower - 1, lower, upper) is not None
        assert _bracket_violation(upper + 1, lower, upper) is not None


@pytest.mark.parametrize("ring, gens", [
    (quadric_cone, ("x", "y")),
    (lambda: brenner_monsky_ring(F4), ("x", "y", "z")),
], ids=["quadric-cone", "brenner-monsky"])
def test_rigidity_rows_lie_in_kunz_bracket(ring, gens):
    # at the origin (alpha = 0): q^dim l_fiber <= l(R/m^[q]) <= q l(Q_0/m^[q])
    P = ideal(ring(), *gens)
    fp = fiber_presentation(P)
    rep = rigidity_check(P, 3, fiber=fp)
    (uppers,) = hk_table([fp.specialize(0).origin_ideal()], range(1, 4))
    for (e, q, lhs, rhs, _), (_, _, up, _) in zip(rep.rows, uppers):
        assert _bracket_violation(lhs, rhs, q * up) is None, e
        assert _bracket_violation(rhs - 1, rhs, q * up) is not None
        assert _bracket_violation(q * up + 1, rhs, q * up) is not None


def _recorded_cells(monkeypatch):
    """(variable count, relation, last generator, e) of every cell swept from now on."""
    from frobinv import invariants
    cells = []
    run = invariants._hk_cell

    def spy(cell):
        I, e = cell
        cells.append((I.ring.nvars, str(I.ring.relations[0]), str(I.gens[-1]), e))
        return run(cell)
    monkeypatch.setattr(invariants, "_hk_cell", spy)
    return cells


def test_conjugate_point_is_an_orbit_copy(monkeypatch):
    a = F4.symbols()["a"]
    R = brenner_monsky_ring(F4)
    want = [ell for _, _, ell, _ in hk_table([bm_maximal_ideal(R, a + 1)], range(2, 4))[0]]
    cells = _recorded_cells(monkeypatch)
    rep = bm_gap_table([a, a + 1], e_min=2, e_max=3, field=F4)
    assert [row[2] for row in rep.alpha_rows["t+a+1"]] == want
    assert rep.alpha_rows["t+a+1"] == rep.alpha_rows["t+a"]
    # the fiber and Q_a at each level; nothing at a + 1, and the bracket
    # closes at a, so nothing in four variables
    assert len(cells) == 4
    assert all(nvars == 3 and "a+1" not in rel for nvars, rel, _, _ in cells)


def test_repro_bm_runs_two_four_variable_cells(monkeypatch, capsys):
    from frobinv.cli import main
    monkeypatch.delenv("FROBINV_CACHE", raising=False)
    cells = _recorded_cells(monkeypatch)
    main(["repro-bm", "--emax", "3"])
    capsys.readouterr()
    assert sorted((gen, e) for nvars, _, gen, e in cells if nvars == 4) == \
        [("t", 3), ("t+1", 3)]


def test_specialization_consistency_all_points():
    gen = FieldElement(F4, F4._fix((0, 1)))
    expected = {
        "0": [8, 44, 212],
        "1": [8, 44, 196],
        "a": [8, 44, 188],
    }
    for alpha, lengths in [(0, expected["0"]), (1, expected["1"]),
                           (gen, expected["a"])]:
        rep = specialization_consistency(alpha, 3)
        assert rep.relation_match
        assert rep.all_equal
        assert [a for _, _, a, _, _ in rep.rows] == lengths


# -- Kunz-type comparison --------------------------------------------------------------


def test_wy_inequality_monomial_rows():
    R = ring_make(F2, ("x", "y"))
    rep = wy_inequality_check(ideal(R, "x^2", "y^2"), 3)
    assert rep.all_pass
    assert [(lhs, rhs) for _, _, lhs, rhs, _ in rep.rows] == \
        [(16, 16), (64, 64), (256, 256)]
    assert rep.derived == (4, 4, True)


def test_wy_inequality_needs_bracket_containment():
    R = ring_make(F2, ("x", "y"))
    with pytest.raises(EquimultError):
        wy_inequality_check(ideal(R, "x^2", "x*y", "y^2"), 2)
