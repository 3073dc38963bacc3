import random
from fractions import Fraction
from itertools import combinations

import pytest

import valtool
from valtool import extension, fixtures
from valtool.extension import (
    UNDETERMINED,
    ExtensionMap,
    InconsistentRamification,
    index_defect,
    ramification_report,
    splitting_report,
)
from valtool.genseq import GenSeq
from valtool.ring import LocalRingCtx, SeriesEmbedding, parse_poly
from valtool.scenario import parse_scenario, run_scenario
from valtool.towers import QQ, ResidueTower
from valtool.values import Value

from test_detect import SCENARIOS


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


def test_a_quotient_that_is_no_power_of_p_is_refused():
    for name, noun in (("ostrowski", "[K*:K]"),
                       ("local-degree", "local degree")):
        with pytest.raises(InconsistentRamification) as err:
            index_defect(12, 2, 1, 2, name)
        assert str(err.value) == ("%s quotient 6 is not a power of p = 2"
                                  % noun)


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


def test_a_key_image_past_a_series_truncation_is_skipped():
    # cut at t^10, def2's upstairs series cannot decide the image
    # y^2 + x^2 + x^4 + x^8 = t^16 + ... of the last key, so it is
    # skipped, not tested; the other four key images decide
    text = valtool.scenario_path("def2").read_text()
    series = "truncate 32\nx = t\ny = t + t^2 + t^4 + t^8 + t^16\n"
    assert series in text
    sc = parse_scenario(text.replace(
        series, "truncate 10\nx = t\ny = t + t^2 + t^4 + t^8\n"))
    rep = splitting_report([sc.embeddings["sseries"]], sc.extensions["ext"],
                           sc.valuations["nu"])
    cand, = rep.candidates
    assert (cand.tested, cand.skipped, cand.restricts) == (4, 1, True)
    assert rep.lines()[0] == ("candidate nu1      dominates=True "
                              "restricts=True scale=Fraction(1, 1) "
                              "tested=4 skipped=1 ")


def test_irrational_image_value_is_no_rational_multiple():
    # valuing x at pi sends u = x^2 to 2*pi, no rational multiple of 2
    nu_r, nu1, _, ext = fixtures.pi2()
    tilted = GenSeq(nu1.ctx, [Value(0, 1, nu1.values[2].tau), Value(1)])
    rep = splitting_report([tilted, nu1], ext, nu_r, seed=3)
    bad, good = rep.candidates
    assert (bad.dominates, bad.restricts, bad.scale, bad.tested) == \
        (True, False, None, 1)
    assert bad.diagnosis == "image value (0, 2) is not a rational multiple of 2"
    assert good.restricts and not rep.witnessed


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


def test_residue_rank_is_the_closed_residue_field():
    # the local-degree route reads each ring's residue-field rank as the
    # product of its tower levels' degrees; that is the rank of the closed
    # field and of every sequence's K_0 on the ring
    def ranks(ctx):
        bare = GenSeq(ctx, [Value(1), Value(Fraction(3, 2))])
        return {ctx.residue_rank(), ctx.residue_field()[1].rank,
                bare.residue_ranks[0]}

    seen = []
    texts = [valtool.scenario_path(name).read_text()
             for name in SCENARIOS + ("qi",)]
    for text in texts:
        sc = parse_scenario(text)
        for ctx in sc.rings.values():
            assert len(ranks(ctx)) == 1, ctx
            seen.append(ctx.residue_rank())
        for g in sc.valuations.values():
            assert g.residue_ranks[0] == g.ctx.residue_rank(), g
    assert len(texts) == 6 and 2 in seen
    # Q(i, sqrt 2): one ring per number of levels
    tower = ResidueTower(QQ).extend("i", [1, 0])
    tower = tower.extend("s", [tower.scalar(-2), tower.zero()])
    for levels, rank in [(0, 1), (1, 2), (2, 4)]:
        assert ranks(LocalRingCtx(tower, ring_levels=levels)) == {rank}


# -- splitting_report's random samples, drawn only as far as they are read ----

def _eager_samples(ctx, seed):
    """The reference: all 24 random samples drawn up front, in the order
    splitting_report draws them, zero sums dropped."""
    rng = random.Random(seed)
    out = []
    for _ in range(24):
        f = ctx.zero()
        for _ in range(3):
            f = f + ctx.monomial(rng.randint(0, 3), rng.randint(0, 3),
                                 rng.randint(-2, 2))
        if not f.is_zero():
            out.append(f)
    return out


def _disc_split_inputs():
    sc = parse_scenario(valtool.scenario_path("disc").read_text())
    b1, b2 = sc.embeddings["branch1"], sc.embeddings["branch2"]
    copy = SeriesEmbedding(b1.ctx, b1.images)  # never told apart from b1
    return sc.valuations["nu"], sc.extensions["ext"], b1, b2, copy


@pytest.mark.parametrize("case", ["random", "three", "never"])
def test_split_samples_are_drawn_as_far_as_read(case, monkeypatch):
    # the series candidates have no keys and no probe is given, so only the
    # random samples can tell a pair apart
    nu, ext, b1, b2, copy = _disc_split_inputs()
    cands = {"random": [b1, b2], "three": [b1, b2, copy],
             "never": [b1, copy]}[case]
    seed = 0
    eager = _eager_samples(ext.target_ctx, seed)
    reads = []  # how far each pair reads the reference samples
    for ca, cb in combinations(cands, 2):
        hits = [k for k, f in enumerate(eager)
                if extension._distinct_on(ca, cb, [f])]
        reads.append(hits[0] + 1 if hits else len(eager))
    real, calls, drawn = extension._random_samples, [], []

    def counting(ctx, seed):
        calls.append(seed)
        for f in real(ctx, seed):
            drawn.append(f)
            yield f

    monkeypatch.setattr(extension, "_random_samples", counting)
    got = splitting_report(cands, ext, nu, seed=seed)
    monkeypatch.setattr(extension, "_random_samples",
                        lambda ctx, seed: iter(_eager_samples(ctx, seed)))
    want = splitting_report(cands, ext, nu, seed=seed)
    assert got.lines() == want.lines()
    # one generator, each sample drawn once, as far as the farthest read
    assert calls == [seed] and drawn == eager[:max(reads)]
    if case == "random":
        assert 1 < reads[0] < len(eager) and got.witnessed
    elif case == "three":  # the pairs share what the first ones drew
        assert sum(reads) > len(drawn) == len(eager)
        assert got.distinct_pairs == [("nu1", "nu2"), ("nu2", "nu3")]
    else:
        assert reads == [len(eager)] and not got.witnessed


def test_the_shipped_splits_draw_no_sample(monkeypatch):
    # pi2's pair is told apart by a key past y, disc's by its given probe
    drawn = []
    real = extension._random_samples

    def counting(ctx, seed):
        for f in real(ctx, seed):
            drawn.append(f)
            yield f

    monkeypatch.setattr(extension, "_random_samples", counting)
    for name in ("pi2", "disc"):
        report = run_scenario(parse_scenario(
            valtool.scenario_path(name).read_text()))
        assert any("splitting witnessed: True" in s.lines
                   for s in report.sections)
    assert drawn == []
