import pytest

from valtool import fixtures
from valtool.extension import (
    UNDETERMINED,
    ExtensionMap,
    InconsistentRamification,
    index_defect,
    ramification_report,
    splitting_report,
)
from valtool.ring import parse_poly
from valtool.towers import QQ, ResidueTower
from valtool.ring import LocalRingCtx


def test_ostrowski_examples():
    # [K*:K] = e*f*p^delta; without uniqueness the route is Undetermined,
    # which the pi2 report pins (test_pi2_report)
    assert index_defect(2, 1, 1, 2, "ostrowski") == 1
    assert index_defect(4, 2, 2, 0, "ostrowski") == 0
    with pytest.raises(InconsistentRamification):
        index_defect(6, 2, 2, 3, "ostrowski")
    with pytest.raises(InconsistentRamification):
        index_defect(6, 2, 1, 0, "ostrowski")


def test_local_degree_examples():
    # the degree is a*d*resDeg of a monomial form: (a, d, resDeg) =
    # (1, 2, 1), (2, 1, 1) and (3, 1, 1)
    assert index_defect(1 * 2 * 1, 1, 1, 2, "local-degree") == 1
    assert index_defect(2 * 1 * 1, 2, 1, 0, "local-degree") == 0
    with pytest.raises(InconsistentRamification):
        index_defect(3 * 1 * 1, 2, 1, 2, "local-degree")
    with pytest.raises(InconsistentRamification) as err:
        index_defect(4, 2, 1, 0, "local-degree")
    assert str(err.value) == ("characteristic zero requires a*d*resDeg = "
                              "e*f, got 4 vs 2")


def test_extension_map_guards():
    ctx = LocalRingCtx(ResidueTower(QQ), ("u", "v"))
    tgt = LocalRingCtx(ResidueTower(QQ), ("x", "y"))
    with pytest.raises(ValueError):
        ExtensionMap(ctx, parse_poly("1 + x", tgt), parse_poly("y", tgt), 2)
    ext = ExtensionMap(ctx, parse_poly("x^2", tgt), parse_poly("y^2", tgt), 4)
    f = parse_poly("v - u", ctx)
    assert ext.apply(f) == parse_poly("y^2 - x^2", tgt)


def test_def2_report_both_routes():
    g_r, g_s, ext = fixtures.def2()
    rep = ramification_report(g_r, g_s, ext, depth=4)
    assert (rep.e, rep.f, rep.delta) == (1, 1, 1)
    assert rep.routes["ostrowski"] == 1
    assert rep.routes["local-degree"] == 1
    assert rep.consistent
    # the defect disappears in the graded quotient fields:
    # (lambda*chi) * p^delta recovers the field degree
    assert rep.e * rep.f * 2 ** rep.delta == ext.field_degree


def test_def2_csv_rows():
    g_r, g_s, ext = fixtures.def2()
    rep = ramification_report(g_r, g_s, ext, depth=4)
    rows = rep.csv_rows()
    assert all(len(r) == 5 for r in rows)
    assert {r[0] for r in rows} == {"alignment", "local-degree", "ostrowski"}


def test_pi2_report():
    nu_r, nu1, nu2, ext = fixtures.pi2()
    _, _, ext_blown = fixtures.pi2_blown_up_pair()
    rep = ramification_report(nu_r, nu1, ext, depth=4, monomial_ext=ext_blown)
    assert (rep.e, rep.f) == (2, 1)
    assert rep.routes["ostrowski"] is UNDETERMINED
    assert rep.routes["local-degree"] == 0
    assert rep.delta == 0
    assert rep.consistent


def test_pi2_base_pair_is_not_monomial():
    # without the blowup, v - u has no monomial form against (x, y): the
    # formula is simply inapplicable, not wrong
    nu_r, nu1, _, ext = fixtures.pi2()
    rep = ramification_report(nu_r, nu1, ext, depth=4)
    assert isinstance(rep.routes["local-degree"], str)


def test_identity_extension_report():
    v1 = fixtures.v1()
    ident = ExtensionMap(v1.ctx, parse_poly("x", v1.ctx),
                         parse_poly("y", v1.ctx), field_degree=1,
                         unique=True)
    rep = ramification_report(v1, v1, ident, depth=4)
    assert (rep.e, rep.f, rep.delta) == (1, 1, 0)


def test_pi2_splitting():
    nu_r, nu1, nu2, ext = fixtures.pi2()
    rep = splitting_report([nu1, nu2], ext, nu_r, seed=3)
    assert rep.witnessed
    assert len(rep.distinct_pairs) == 1
    for c in rep.candidates:
        assert c.dominates and c.restricts


def test_disc_splitting():
    g_r, nu1, nu2, ext = fixtures.disc()
    probe = parse_poly("y - x", nu1.ctx)
    rep = splitting_report([nu1, nu2], ext, g_r, probes=[probe], seed=3)
    assert rep.witnessed
    assert all(c.restricts for c in rep.candidates)
    assert all(c.scale == 2 for c in rep.candidates)


def test_single_candidate_no_splitting():
    nu_r, nu1, _, ext = fixtures.pi2()
    rep = splitting_report([nu1], ext, nu_r, seed=3)
    assert not rep.witnessed
    assert rep.candidates[0].restricts


def test_non_dominating_candidate_rejected():
    # a candidate valuing x at 0 does not dominate the upstairs ring
    nu_r, nu1, _, ext = fixtures.pi2()
    from valtool.genseq import GenSeq
    from valtool.values import Value
    flat = GenSeq(nu1.ctx, [Value(0), Value(1)])
    rep = splitting_report([nu1, flat], ext, nu_r, seed=3)
    names = {c.name: c for c in rep.candidates}
    assert not names["nu2"].dominates
    assert "dominate" in names["nu2"].diagnosis
    assert not rep.witnessed


def test_wrong_restriction_rejected():
    # valuing y at 2 upstairs contradicts the declared downstairs values
    nu_r, nu1, _, ext = fixtures.pi2()
    from valtool.genseq import GenSeq
    from valtool.values import Value
    skew = GenSeq(nu1.ctx, [Value(1), Value(2)])
    rep = splitting_report([nu1, skew], ext, nu_r, seed=3)
    names = {c.name: c for c in rep.candidates}
    assert names["nu1"].restricts
    assert not names["nu2"].restricts
    assert not rep.witnessed


def test_def2_fingen_vs_defect_regression():
    # the defect fixture shows gr-equality at e = f = 1 while delta = 1: the
    # graded rings alone cannot see the defect.  The consistency verdict is
    # exactly the degenerate equality pattern: no levels beyond the first,
    # no matched key pairs at all.
    g_r, g_s, ext = fixtures.def2()
    rep = ramification_report(g_r, g_s, ext, depth=4)
    assert rep.delta == 1 and rep.e * rep.f == 1
    from valtool.graded import fingen_detect
    st = fingen_detect(g_r, g_s, ext, 4)
    assert st.verdict.kind == "consistent"
    assert len(st.levels) == 1 and not st.matched
    # defectless fixtures reach consistency with genuine alignment data
    nu_r, nu1, _, ext2 = fixtures.pi2()
    st2 = fingen_detect(nu_r, nu1, ext2, 4)
    assert st2.verdict.kind == "consistent" and st2.matched
